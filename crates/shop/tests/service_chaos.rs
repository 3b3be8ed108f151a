//! Chaos drills for the print-shop service: every robustness claim in
//! the crate docs is exercised here against a real listening service —
//! restarts, corrupted cache entries, slow jobs, panicking jobs, dead
//! workers, bursts past capacity, and graceful drains. The
//! SIGKILL-mid-campaign drill (which needs a separate process) lives in
//! `ci.sh`.

#![allow(clippy::disallowed_methods)]

use printed_obs::json::{self, Value};
use printed_shop::client::ShopClient;
use printed_shop::{Journal, ShopConfig, ShopQuery, ShopService};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-shop-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, tweak: impl FnOnce(&mut ShopConfig)) -> (ShopService, PathBuf) {
    let dir = temp_dir(tag);
    let mut config = ShopConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.clone(),
        queue_capacity: 8,
        deadline_ms: 60_000,
        workers: 2,
        max_retries: 2,
        campaign_threads: 1,
    };
    tweak(&mut config);
    let service = ShopService::start(config).expect("service starts");
    (service, dir)
}

fn restart(dir: &Path, tweak: impl FnOnce(&mut ShopConfig)) -> ShopService {
    let mut config = ShopConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.to_path_buf(),
        queue_capacity: 8,
        deadline_ms: 60_000,
        workers: 2,
        max_retries: 2,
        campaign_threads: 1,
    };
    tweak(&mut config);
    ShopService::start(config).expect("service restarts")
}

fn client(service: &ShopService) -> ShopClient {
    ShopClient::connect(&service.addr().to_string()).expect("connect")
}

fn quote_line(query_fields: &str) -> String {
    format!("{{\"op\":\"quote\",\"query\":{{{query_fields}}}}}")
}

fn served(envelope: &str) -> String {
    json::parse(envelope)
        .ok()
        .and_then(|v| v.get("served").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

fn stat(service: &ShopService, name: &str) -> f64 {
    let resp = client(service).request("{\"op\":\"stats\"}").expect("stats");
    let v = json::parse(&resp.envelope).expect("stats json");
    v.get("stats")
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("stats field {name} missing in {}", resp.envelope))
}

/// Polls a stats counter until it reaches `want` (or times out).
fn wait_for_stat(service: &ShopService, name: &str, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if stat(service, name) >= want {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {name} >= {want}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

const CAMPAIGN: &str = "\"seu_samples\":8,\"stuck_at\":4,\"cycle_budget\":300,\"seed\":3";

#[test]
fn cold_compute_then_cache_hit_is_byte_identical_across_restart() {
    let (service, dir) = start("restart", |_| {});
    let line = quote_line(CAMPAIGN);

    let mut c = client(&service);
    let cold = c.request(&line).expect("cold quote");
    assert!(cold.is_ok(), "cold quote failed: {}", cold.envelope);
    assert_eq!(served(&cold.envelope), "computed");
    let quote = cold.quote.clone().expect("quote line");
    assert!(quote.contains("\"schema\":\"printed-quote/v1\""), "quote: {quote}");
    assert!(quote.contains("\"fingerprint\""), "campaign fingerprint in quote: {quote}");

    // Same service, same query: the content cache answers.
    let warm = c.request(&line).expect("warm quote");
    assert_eq!(served(&warm.envelope), "cache");
    assert_eq!(warm.quote.as_deref(), Some(quote.as_str()), "cache hit is byte-identical");

    // Restart on the same data dir: still byte-identical, still cache.
    drop(service);
    let service = restart(&dir, |_| {});
    let again = client(&service).request(&line).expect("post-restart quote");
    assert_eq!(served(&again.envelope), "cache");
    assert_eq!(again.quote.as_deref(), Some(quote.as_str()), "restart preserves the cache");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_inflight_queries_coalesce_onto_one_compute() {
    let (service, dir) = start("coalesce", |c| c.workers = 1);
    let line = quote_line("\"chaos_slow_ms\":400");

    let first = {
        let addr = service.addr().to_string();
        let line = line.clone();
        std::thread::spawn(move || {
            ShopClient::connect(&addr).expect("connect").request(&line).expect("first")
        })
    };
    // Land the duplicate while the first is still on the worker.
    std::thread::sleep(Duration::from_millis(150));
    let second = client(&service).request(&line).expect("second");
    let first = first.join().expect("first thread");

    assert!(first.is_ok() && second.is_ok());
    assert_eq!(first.quote, second.quote, "both waiters got the same bytes");
    assert_eq!(stat(&service, "computed"), 1.0, "one compute served both");
    assert_eq!(served(&second.envelope), "coalesced");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn burst_past_capacity_is_typed_load_shedding() {
    let (service, dir) = start("burst", |c| {
        c.workers = 1;
        c.queue_capacity = 2;
    });
    // Fill the queue: one slow job on the worker, one queued behind it.
    let slow: Vec<_> = (0..2)
        .map(|i| {
            let addr = service.addr().to_string();
            let line = quote_line(&format!("\"chaos_slow_ms\":600,\"width\":{}", 4 + i));
            std::thread::spawn(move || {
                ShopClient::connect(&addr).expect("connect").request(&line).expect("slow")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // A 2x-capacity burst of distinct queries: every one must be
    // refused with the typed error, immediately, and nothing may hang.
    let burst_started = Instant::now();
    for width in 8..12 {
        let resp = client(&service)
            .request(&quote_line(&format!("\"width\":{width}")))
            .expect("burst response");
        assert!(!resp.is_ok());
        assert_eq!(resp.error_code().as_deref(), Some("queue_full"), "{}", resp.envelope);
    }
    assert!(
        burst_started.elapsed() < Duration::from_millis(500),
        "rejections are immediate, not queued behind the slow jobs"
    );
    assert_eq!(stat(&service, "rejected"), 4.0);

    for t in slow {
        assert!(t.join().expect("slow job").is_ok());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadline_cancels_a_slow_job_with_a_typed_error() {
    let (service, dir) = start("deadline", |c| c.deadline_ms = 150);
    let resp = client(&service)
        .request(&quote_line("\"chaos_slow_ms\":10000"))
        .expect("deadline response");
    assert!(!resp.is_ok());
    assert_eq!(resp.error_code().as_deref(), Some("deadline"), "{}", resp.envelope);
    assert_eq!(stat(&service, "deadline_failures"), 1.0);

    // The worker survived the refusal and still serves.
    let ok = client(&service).request(&quote_line("\"width\":4")).expect("follow-up");
    assert!(ok.is_ok(), "{}", ok.envelope);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_jobs_retry_with_backoff_then_poison() {
    let (service, dir) = start("poison", |c| c.max_retries = 2);

    // One injected panic: retried and served.
    let healed =
        client(&service).request(&quote_line("\"chaos_panics\":1")).expect("healed response");
    assert!(healed.is_ok(), "{}", healed.envelope);
    assert_eq!(stat(&service, "retries"), 1.0);

    // Panics beyond the retry budget: typed poison, workers unharmed.
    let poisoned =
        client(&service).request(&quote_line("\"chaos_panics\":99")).expect("poisoned response");
    assert!(!poisoned.is_ok());
    assert_eq!(poisoned.error_code().as_deref(), Some("poisoned"), "{}", poisoned.envelope);
    assert_eq!(stat(&service, "poisoned"), 1.0);
    assert_eq!(stat(&service, "worker_respawns"), 0.0, "catch_unwind kept the worker alive");

    let ok = client(&service).request(&quote_line("\"width\":4")).expect("follow-up");
    assert!(ok.is_ok(), "{}", ok.envelope);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_respawned_by_the_supervisor() {
    let (service, dir) = start("respawn", |c| c.workers = 1);
    let kill =
        client(&service).request("{\"op\":\"chaos\",\"action\":\"kill_worker\"}").expect("kill");
    assert!(kill.is_ok());

    // The kill lands when the worker next passes the loop top; this
    // query wakes it, gets served, and then the worker dies and is
    // replaced.
    let resp = client(&service).request(&quote_line("\"width\":4")).expect("post-kill quote");
    assert!(resp.is_ok(), "{}", resp.envelope);
    wait_for_stat(&service, "worker_respawns", 1.0);

    let again = client(&service).request(&quote_line("\"width\":6")).expect("respawned worker");
    assert!(again.is_ok(), "the respawned worker serves: {}", again.envelope);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_cache_entries_are_evicted_and_recomputed_byte_identically() {
    let (service, dir) = start("corrupt", |_| {});
    let line = quote_line("\"width\":12");
    let cold = client(&service).request(&line).expect("cold");
    let quote = cold.quote.clone().expect("quote line");

    // Flip one byte in every cached entry (there is exactly one).
    let cache_dir = dir.join("cache");
    let mut flipped = 0;
    for entry in std::fs::read_dir(&cache_dir).expect("cache dir") {
        let path = entry.expect("entry").path();
        let mut bytes = std::fs::read(&path).expect("read entry");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corruption");
        flipped += 1;
    }
    assert_eq!(flipped, 1, "one quote, one cache entry");

    let resp = client(&service).request(&line).expect("after corruption");
    assert_eq!(served(&resp.envelope), "computed", "corrupt entry must not be served");
    assert_eq!(resp.quote.as_deref(), Some(quote.as_str()), "recompute is byte-identical");
    assert_eq!(stat(&service, "cache_evictions"), 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journaled_inflight_jobs_replay_on_startup() {
    let dir = temp_dir("replay");
    // A crash leaves an accept with no done: write one directly, as if
    // the process died mid-job.
    let query = ShopQuery { width: 10, ..ShopQuery::default() };
    {
        let (mut journal, recovered) = Journal::open(&dir).expect("journal");
        assert!(recovered.is_empty());
        journal.accept(query.query_key(), &query.canonical()).expect("accept");
    }

    let service = restart(&dir, |_| {});
    wait_for_stat(&service, "journal_recovered", 1.0);
    // The replayed job computes in the background and warms the cache.
    wait_for_stat(&service, "computed", 1.0);
    let resp = client(&service).request(&quote_line("\"width\":10")).expect("replayed");
    assert_eq!(served(&resp.envelope), "cache", "the crash's work was not lost");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_drains_inflight_to_the_journal_for_replay() {
    let (service, dir) = start("drain", |c| c.workers = 1);

    // A slow job occupies the worker…
    let inflight = {
        let addr = service.addr().to_string();
        let line = quote_line("\"chaos_slow_ms\":10000,\"width\":14");
        std::thread::spawn(move || {
            ShopClient::connect(&addr).expect("connect").request(&line).expect("inflight")
        })
    };
    std::thread::sleep(Duration::from_millis(200));

    // …and a pre-opened connection observes the drain.
    let mut observer = client(&service);
    let down = observer.request("{\"op\":\"shutdown\"}").expect("shutdown ack");
    assert!(down.is_ok(), "{}", down.envelope);

    let refused = inflight.join().expect("inflight thread");
    assert!(!refused.is_ok());
    assert_eq!(refused.error_code().as_deref(), Some("draining"), "{}", refused.envelope);

    let rejected = observer.request(&quote_line("\"width\":4")).expect("post-drain submit");
    assert_eq!(rejected.error_code().as_deref(), Some("draining"), "{}", rejected.envelope);
    service.wait();

    // The drained job was never marked done, so a restart replays it.
    let service = restart(&dir, |_| {});
    wait_for_stat(&service, "journal_recovered", 1.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_exposes_a_stage_manifest_like_the_eval_pipeline() {
    let (service, dir) = start("manifest", |c| c.deadline_ms = 150);
    let ok = client(&service).request(&quote_line("\"width\":4")).expect("ok quote");
    assert!(ok.is_ok());
    let timed_out =
        client(&service).request(&quote_line("\"chaos_slow_ms\":10000")).expect("deadline quote");
    assert!(!timed_out.is_ok());

    let resp = client(&service).request("{\"op\":\"stats\"}").expect("stats");
    let v = json::parse(&resp.envelope).expect("stats json");
    let manifest = v.get("manifest").expect("manifest object");
    assert_eq!(
        manifest.get("pipeline").and_then(Value::as_str),
        Some("print_shop"),
        "{}",
        resp.envelope
    );
    assert_eq!(manifest.get("status").and_then(Value::as_str), Some("degraded"));
    let Some(Value::Array(stages)) = manifest.get("stages") else { panic!("stages array") };
    assert!(
        stages.iter().any(|s| {
            s.get("status").and_then(Value::as_str) == Some("degraded")
                && s.get("error").and_then(Value::as_str).is_some_and(|e| e.contains("deadline"))
        }),
        "the deadline rejection surfaces as a degraded stage: {}",
        resp.envelope
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_request_line_is_a_typed_error_and_the_service_keeps_serving() {
    use printed_shop::client::Response;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{Shutdown, TcpStream};

    let (service, dir) = start("oversized", |_| {});
    let line = quote_line("\"width\":4");
    let before = client(&service).request(&line).expect("reference quote");
    let quote = before.quote.expect("quote line");

    // 8 MiB with no newline, and the connection held open until the
    // reply is in: the service must answer without waiting for the line
    // to end.
    let stream = TcpStream::connect(service.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let mut hostile = stream.try_clone().expect("clone");
    let (replied, wait_for_reply) = std::sync::mpsc::channel::<()>();
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..128 {
            if hostile.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = wait_for_reply.recv();
        let _ = hostile.shutdown(Shutdown::Write);
    });
    let mut reader = BufReader::new(stream);
    let mut envelope = String::new();
    reader.read_line(&mut envelope).expect("error reply before the line ends");
    let reply = Response { envelope: envelope.trim_end().to_string(), quote: None };
    assert_eq!(reply.error_code().as_deref(), Some("bad_request"), "{}", reply.envelope);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("the service closes the connection");
    assert!(rest.is_empty(), "nothing follows the error reply");
    replied.send(()).expect("writer waits");
    writer.join().expect("writer thread");

    let after = client(&service).request(&line).expect("quote on a new connection");
    assert_eq!(served(&after.envelope), "cache");
    assert_eq!(after.quote.as_deref(), Some(quote.as_str()), "byte-identical quote");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_utf8_request_line_is_a_typed_error_and_the_connection_stays_open() {
    use printed_shop::client::Response;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let (service, dir) = start("non_utf8", |_| {});
    let mut stream = TcpStream::connect(service.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut reply = |bytes: &[u8]| {
        stream.write_all(bytes).expect("send");
        let mut envelope = String::new();
        reader.read_line(&mut envelope).expect("reply");
        Response { envelope: envelope.trim_end().to_string(), quote: None }
    };
    let bad = reply(b"{\"op\":\"st\xffats\"}\n");
    assert_eq!(bad.error_code().as_deref(), Some("bad_request"), "{}", bad.envelope);
    let stats = reply(b"{\"op\":\"stats\"}\n");
    assert!(stats.is_ok(), "same connection still serves: {}", stats.envelope);
    let _ = std::fs::remove_dir_all(&dir);
}
