//! Print-shop service throughput: an in-process [`ShopService`] on an
//! ephemeral port, driven by concurrent clients over real TCP.
//!
//! Two regimes are measured:
//!
//! - **mixed QPS** — a steady request mix over a small set of design
//!   points, all warm after the first pass, from several client
//!   threads: the serving overhead (accept, parse, queue, cache read,
//!   reply) rather than pricing compute. This is the `serve_qps` /
//!   `serve_p50_ms` / `serve_p95_ms` headline, gated by
//!   `printed_eval::regression::GATED_METRICS`.
//! - **cold compute** — one uncached pricing job (build + optimize +
//!   characterize), for scale.
//!
//! Besides the criterion-shim output, the harness writes
//! `BENCH_serve.json` at the repository root and appends a
//! `printed-bench-record/v1` line to the `BENCH_history.jsonl` perf
//! ledger, and asserts:
//!
//! - every request in the measured run succeeds (no drops, no typed
//!   rejections at this depth),
//! - warm quotes for one design point are byte-identical across the
//!   whole run (the cache never serves a stale or torn entry).

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use criterion::{criterion_group, criterion_main, Criterion};
use printed_shop::client::ShopClient;
use printed_shop::{ShopConfig, ShopService};
use std::time::Instant;

/// Client threads driving the mixed-QPS measurement.
const CLIENTS: usize = 4;

/// Requests per client in the measured pass.
const REQUESTS_PER_CLIENT: usize = 50;

/// The design points in the request mix (all priced without a campaign,
/// so the steady state is cache-hit dominated).
const WIDTHS: [usize; 4] = [4, 6, 8, 12];

struct Measurements {
    requests: usize,
    serve_qps: f64,
    serve_p50_ms: f64,
    serve_p95_ms: f64,
    cold_ms: f64,
    cache_hit_ms: f64,
    all_ok: bool,
    bytes_identical: bool,
}

impl Measurements {
    fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"serve_bench\",\n  \"service\": {{\"clients\": {}, \
             \"requests\": {}, \"widths\": {:?}, \"serve_qps\": {:.0}, \
             \"serve_p50_ms\": {:.3}, \"serve_p95_ms\": {:.3}, \"all_ok\": {}, \
             \"bytes_identical\": {}}},\n  \"single_request\": {{\"cold_compute_ms\": {:.1}, \
             \"cache_hit_ms\": {:.3}}}\n}}\n",
            CLIENTS,
            self.requests,
            WIDTHS,
            self.serve_qps,
            self.serve_p50_ms,
            self.serve_p95_ms,
            self.all_ok,
            self.bytes_identical,
            self.cold_ms,
            self.cache_hit_ms,
        )
    }
}

fn quote_line(width: usize) -> String {
    format!("{{\"op\":\"quote\",\"query\":{{\"width\":{width}}}}}")
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn measure() -> Measurements {
    let dir = std::env::temp_dir().join(format!("printed-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = ShopService::start(ShopConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        queue_capacity: 64,
        workers: 4,
        ..ShopConfig::default()
    })
    .expect("service starts");
    let addr = service.addr().to_string();

    // Warm pass: compute every design point once, and time one cold
    // compute and one cache hit along the way.
    let mut warm_client = ShopClient::connect(&addr).expect("connect");
    let started = Instant::now();
    let cold = warm_client.request(&quote_line(WIDTHS[0])).expect("cold quote");
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(cold.is_ok(), "cold quote failed: {}", cold.envelope);
    let reference = cold.quote.clone().expect("quote bytes");
    for &w in &WIDTHS[1..] {
        let r = warm_client.request(&quote_line(w)).expect("warm-up quote");
        assert!(r.is_ok(), "warm-up failed: {}", r.envelope);
    }
    let started = Instant::now();
    let hit = warm_client.request(&quote_line(WIDTHS[0])).expect("cache hit");
    let cache_hit_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(hit.is_ok());

    // Measured pass: CLIENTS threads, each a persistent connection
    // cycling through the mix.
    let started = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = ShopClient::connect(&addr).expect("connect");
                let mut latencies_ms = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut ok = true;
                let mut identical = true;
                for i in 0..REQUESTS_PER_CLIENT {
                    let width = WIDTHS[(c + i) % WIDTHS.len()];
                    let t = Instant::now();
                    let resp = client.request(&quote_line(width)).expect("measured quote");
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    ok &= resp.is_ok();
                    if width == WIDTHS[0] {
                        identical &= resp.quote.as_deref() == Some(reference.as_str());
                    }
                }
                (latencies_ms, ok, identical)
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut all_ok = true;
    let mut bytes_identical = true;
    for w in workers {
        let (lat, ok, identical) = w.join().expect("client thread");
        latencies_ms.extend(lat);
        all_ok &= ok;
        bytes_identical &= identical;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let requests = latencies_ms.len();
    latencies_ms.sort_by(|a, b| a.total_cmp(b));

    service.shutdown();
    service.wait();
    let _ = std::fs::remove_dir_all(&dir);

    Measurements {
        requests,
        serve_qps: requests as f64 / wall_s,
        serve_p50_ms: percentile(&latencies_ms, 0.50),
        serve_p95_ms: percentile(&latencies_ms, 0.95),
        cold_ms,
        cache_hit_ms,
        all_ok,
        bytes_identical,
    }
}

fn write_bench_json(m: &Measurements) {
    let path = printed_bench::repo_file("BENCH_serve.json");
    std::fs::write(&path, m.to_json())
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Appends one `printed-bench-record/v1` line to the perf-history
/// ledger, with metric keys matching
/// `printed_eval::regression::GATED_METRICS` (`serve_qps` is gated;
/// the latency percentiles ride along for context).
fn append_history(m: &Measurements) {
    let metrics = format!(
        "\"serve_qps\": {:.0}, \"serve_p50_ms\": {:.3}, \"serve_p95_ms\": {:.3}",
        m.serve_qps, m.serve_p50_ms, m.serve_p95_ms,
    );
    let run_index = printed_bench::append_history("serve_bench", &metrics);
    println!("appended run {run_index} to the perf history");
}

fn bench(c: &mut Criterion) {
    let m = measure();
    println!(
        "serve: {} requests x {} clients -> {:.0} qps, p50 {:.2} ms, p95 {:.2} ms; \
         cold compute {:.1} ms, cache hit {:.2} ms",
        m.requests, CLIENTS, m.serve_qps, m.serve_p50_ms, m.serve_p95_ms, m.cold_ms, m.cache_hit_ms
    );
    write_bench_json(&m);
    append_history(&m);
    assert!(m.all_ok, "every request in the measured run must succeed");
    assert!(m.bytes_identical, "warm quotes must be byte-identical across the whole measured run");
    assert!(m.serve_qps > 0.0);

    let mut g = c.benchmark_group("serve");
    g.sample_size(10);
    // A standalone warm-path sample for the criterion output: one
    // persistent client against a fresh warm service.
    let dir = std::env::temp_dir().join(format!("printed-serve-bench-cg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = ShopService::start(ShopConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        ..ShopConfig::default()
    })
    .expect("service starts");
    let mut client = ShopClient::connect(&service.addr().to_string()).expect("connect");
    let line = quote_line(8);
    let warm = client.request(&line).expect("warm-up");
    assert!(warm.is_ok());
    g.bench_function("cache_hit_round_trip", |b| {
        b.iter(|| {
            let resp = client.request(&line).expect("cache hit");
            assert!(resp.is_ok());
        })
    });
    g.finish();
    service.shutdown();
    service.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench);
criterion_main!(benches);
