//! The print-shop workloads: set-up, a closed-loop timed phase over TCP,
//! reply checks, and the in-process layer replay.
//!
//! Requests come from two files `run.py` generates from the workload
//! seed: warm-up lines, sent once per set-up by one client, and timed
//! lines, which the clients take in order (wrapping at the end).
//!
//! Reply checks are generic over both workloads. A timed request whose
//! line was warmed must be served `cache` or `coalesced`, byte-identical
//! to its warm-up quote. Any other request must be served `computed`
//! with no resumed checkpoint slots, and a campaign must report exactly
//! the requested number of faults; the first few computed quotes are
//! re-priced in-process and must match byte for byte.
//!
//! Latencies go to the `--samples` file after each slice, one line per
//! request: `u` (untraced) or `t` (traced), the wall-clock nanoseconds,
//! and the nanoseconds divided by the host's slowness during the slice.
//! The harness holds one slice of them at a time, in buffers of fixed
//! size, so its own memory does not grow with the number of requests and
//! the process's peak RSS moves only with the service's.

use crate::{calibrate, flag, ms, number, span_total};
use printed_microprocessors::core::{asm, generate_checked, CoreConfig, CoreSpec, NarrowEncoding};
use printed_microprocessors::netlist::{analysis, opt};
use printed_microprocessors::obs::{self, json};
use printed_microprocessors::pdk::Technology;
use printed_microprocessors::shop::client::{Response, ShopClient};
use printed_microprocessors::shop::proto::parse_request;
use printed_microprocessors::shop::{
    quote, CacheLookup, JobQueue, Journal, QuoteCache, QuoteReply, Request, Served, ShopConfig,
    ShopQuery, ShopService, Submit,
};
use std::collections::HashMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `run.py` reports their median.
const SETUPS: usize = 31;
/// Rounds of an untraced, a traced and a replayed slice in a traced run.
const TRACE_ROUNDS: usize = 10;
/// Computed quotes re-priced in-process after the timed phase.
const REPRICED: usize = 4;
/// Length of one calibrated slice of the untraced timed phase: short
/// against the seconds a host-speed change lasts.
const SLICE_S: f64 = 1.0;
/// Latencies one client buffers per slice: far more than a client
/// completes in a slice, so the buffer never grows.
const SLICE_SAMPLES: usize = 1 << 16;

struct Options {
    warmup: Vec<String>,
    timed: Vec<String>,
    dir: PathBuf,
    out: String,
    samples: String,
    seconds: f64,
    trace: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let lines = |name: &str| -> Result<Vec<String>, String> {
            let path = flag(args, name)?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            Ok(text.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect())
        };
        let o = Options {
            warmup: lines("--warmup")?,
            timed: lines("--timed")?,
            dir: PathBuf::from(flag(args, "--dir")?),
            out: flag(args, "--out")?.to_string(),
            samples: flag(args, "--samples")?.to_string(),
            seconds: number(args, "--seconds")?,
            trace: number::<u8>(args, "--trace")? != 0,
        };
        if o.timed.is_empty() {
            return Err("need timed requests".into());
        }
        Ok(o)
    }
}

/// Closed-loop clients, one connection each: two, or one per core on a
/// smaller host.
fn client_count() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

pub fn run(args: &[String]) -> Result<(), String> {
    let o = Options::parse(args)?;
    obs::set_level(obs::Level::Off);
    let buffers: Vec<Vec<u64>> = (0..client_count())
        .map(|_| {
            // Written once, so every page is resident from the start.
            let mut buffer = black_box(vec![u64::MAX; SLICE_SAMPLES]);
            buffer.clear();
            buffer
        })
        .collect();

    // The first set-up's service serves the timed phase, so peak memory
    // is that of one service; the remaining set-ups only time set-up.
    let ((service, warm_quotes, first), slowness) = calibrated(|| set_up(&o, 0))?;
    let warm: HashMap<&str, &str> =
        o.warmup.iter().map(String::as_str).zip(warm_quotes.iter().map(String::as_str)).collect();
    let mut clients = connect_clients(&service, buffers)?;
    let file = File::create(&o.samples).map_err(|e| format!("create {}: {e}", o.samples))?;
    let mut samples = BufWriter::new(file);

    let before = stats(&service)?;
    let (untraced, traced, replay) = if o.trace {
        let (untraced, traced, replay) = trace_rounds(&mut clients, &o, &warm, &mut samples)?;
        (untraced, Some(traced), Some(replay))
    } else {
        (calibrated_phase(&mut clients, &o, &warm, &mut samples)?, None, None)
    };
    let after = stats(&service)?;
    let peak_rss_kb = obs::peak_rss_kb().unwrap_or(0);
    samples.flush().map_err(|e| format!("write {}: {e}", o.samples))?;
    drop(clients);
    drop(service);
    let mut setup_s = vec![first];
    let mut norm_setup_s = vec![first / slowness];
    for k in 1..SETUPS {
        let ((service, quotes, seconds), slowness) = calibrated(|| set_up(&o, k))?;
        if quotes != warm_quotes {
            return Err("warm-up quotes differ between set-ups".into());
        }
        setup_s.push(seconds);
        norm_setup_s.push(seconds / slowness);
        drop(service);
        let _ = std::fs::remove_dir_all(o.dir.join(format!("setup-{k}")));
    }
    let (repriced, mismatches) = reprice(&untraced, &o.timed)?;
    let failed = untraced.failed + traced.as_ref().map_or(0, |t| t.failed) + mismatches;
    let attempted = untraced.requests + traced.as_ref().map_or(0, |t| t.requests);

    let counts: Vec<String> = after
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", v - before.get(k).copied().unwrap_or(0)))
        .collect();
    let outputs: Vec<String> =
        warm_quotes.iter().chain(&repriced).map(|q| json::escape(q)).collect();
    let mut fields = vec![
        format!("\"setup_s\":{}", list(&setup_s)),
        format!("\"norm_setup_s\":{}", list(&norm_setup_s)),
        format!("\"elapsed_s\":{}", untraced.elapsed_s),
        format!("\"norm_elapsed_s\":{}", untraced.norm_elapsed_s),
        format!("\"peak_rss_kb\":{peak_rss_kb}"),
        format!("\"stats\":{{{}}}", counts.join(",")),
        format!("\"outputs\":[{}]", outputs.join(",")),
    ];
    if let Some(r) = &replay {
        fields.push(format!("\"replay\":{}", r.json()));
    }
    fields.push(format!("\"attempted\":{attempted},\"failed\":{failed}"));
    let json = format!("{{{}}}\n", fields.join(","));
    std::fs::write(&o.out, json).map_err(|e| format!("write {}: {e}", o.out))
}

/// One set-up on a fresh data dir: service start plus the warm-up
/// requests from one client, timed. Teardown and directory deletion are
/// the caller's, outside the timer. Returns the service, the warm-up
/// quotes and the set-up time in seconds.
fn set_up(o: &Options, k: usize) -> Result<(ShopService, Vec<String>, f64), String> {
    let started = Instant::now();
    let data_dir = o.dir.join(format!("setup-{k}"));
    let service = ShopService::start(ShopConfig { data_dir, ..ShopConfig::default() })
        .map_err(|e| format!("service start: {e}"))?;
    let mut client = connect(&service)?;
    let mut quotes = Vec::with_capacity(o.warmup.len());
    for line in &o.warmup {
        let response = client.request(line).map_err(|e| format!("warm-up: {e}"))?;
        match reply_fields(&response) {
            Some((Served::Computed, _, quote)) => quotes.push(quote.to_string()),
            _ => return Err(format!("warm-up request failed: {}", response.envelope)),
        }
    }
    Ok((service, quotes, started.elapsed().as_secs_f64()))
}

/// Runs `f` between two host-speed calibrations; returns its result and
/// the host's mean slowness around it.
fn calibrated<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let before = calibrate::cores(cores);
    let out = f()?;
    let after = calibrate::cores(cores);
    Ok((out, (before + after) / 2.0))
}

/// The untraced timed phase, in slices of about [`SLICE_S`] each run
/// between calibrations, so that every latency can be divided by the
/// host's slowness while it was measured.
fn calibrated_phase(
    clients: &mut [Client],
    o: &Options,
    warm: &HashMap<&str, &str>,
    samples: &mut impl Write,
) -> Result<Phase, String> {
    let slices = (o.seconds / SLICE_S).ceil().max(1.0);
    let mut phase = Phase::default();
    for _ in 0..slices as usize {
        let (mut slice, slowness) =
            calibrated(|| timed_phase(clients, &o.timed, warm, phase.next, o.seconds / slices))?;
        slice.norm_elapsed_s = slice.elapsed_s / slowness;
        record(samples, 'u', clients, slowness)?;
        phase.extend(slice);
    }
    Ok(phase)
}

/// The traced run: rounds of an untraced slice over TCP, a traced slice
/// over TCP (the program's spans on), and an in-process replay slice, so
/// that the three see the same host speed. Returns the untraced and
/// traced phases and the replay's layer times.
fn trace_rounds(
    clients: &mut [Client],
    o: &Options,
    warm: &HashMap<&str, &str>,
    samples: &mut impl Write,
) -> Result<(Phase, Phase, Replay), String> {
    let slice = o.seconds / (3 * TRACE_ROUNDS) as f64;
    let mut shop = Shop::open(&o.dir.join("replay"))?;
    for line in &o.warmup {
        shop.serve(line, &mut Layers::default())?;
    }
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let mut replay = Replay::default();
    let mut replayed = 0;
    for _ in 0..TRACE_ROUNDS {
        obs::set_level(obs::Level::Off);
        let start = traced.next.max(untraced.next);
        untraced.extend(timed_phase(clients, &o.timed, warm, start, slice)?);
        record(samples, 'u', clients, 1.0)?;
        obs::set_level(obs::Level::Summary);
        traced.extend(timed_phase(clients, &o.timed, warm, untraced.next, slice)?);
        record(samples, 't', clients, 1.0)?;
        obs::global().reset();
        let deadline = Instant::now() + Duration::from_secs_f64(slice);
        while Instant::now() < deadline {
            shop.serve(&o.timed[replayed % o.timed.len()], &mut replay.layers)?;
            replayed += 1;
        }
        replay.dataflow.add(span_total(&["netlist.dataflow"]));
        replay.campaign.add(span_total(&["netlist.fault.campaign", "netlist.resilience.campaign"]));
    }
    obs::set_level(obs::Level::Off);
    Ok((untraced, traced, replay))
}

fn connect(service: &ShopService) -> Result<ShopClient, String> {
    ShopClient::connect(&service.addr().to_string()).map_err(|e| format!("connect: {e}"))
}

/// A closed-loop client: a connection opened once and kept for every
/// slice of a run, so no slice pays for connecting, and the latencies of
/// its current slice.
struct Client {
    conn: ShopClient,
    latencies_ns: Vec<u64>,
}

fn connect_clients(service: &ShopService, buffers: Vec<Vec<u64>>) -> Result<Vec<Client>, String> {
    let mut clients = Vec::with_capacity(buffers.len());
    for latencies_ns in buffers {
        clients.push(Client { conn: connect(service)?, latencies_ns });
    }
    Ok(clients)
}

/// Writes the clients' latencies of the last slice to `samples`.
fn record(
    samples: &mut impl Write,
    tag: char,
    clients: &[Client],
    slowness: f64,
) -> Result<(), String> {
    for &ns in clients.iter().flat_map(|c| &c.latencies_ns) {
        writeln!(samples, "{tag} {ns} {}", ns as f64 / slowness)
            .map_err(|e| format!("write samples: {e}"))?;
    }
    Ok(())
}

fn list<T: std::fmt::Display>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(ToString::to_string).collect();
    format!("[{}]", items.join(","))
}

/// `(served, resumed_slots, quote)` of a successful quote reply.
fn reply_fields(response: &Response) -> Option<(Served, u64, &str)> {
    let envelope = response.envelope_json()?;
    if !response.is_ok() {
        return None;
    }
    let served = match envelope.get("served").and_then(json::Value::as_str)? {
        "computed" => Served::Computed,
        "cache" => Served::Cache,
        "coalesced" => Served::Coalesced,
        _ => return None,
    };
    let resumed = envelope.get("resumed_slots").and_then(json::Value::as_f64)? as u64;
    Some((served, resumed, response.quote.as_deref()?))
}

/// The service's `stats` counters that the benchmark reports.
fn stats(service: &ShopService) -> Result<HashMap<&'static str, u64>, String> {
    let response = connect(service)?.request(r#"{"op":"stats"}"#).map_err(|e| e.to_string())?;
    let v = response.envelope_json().ok_or("stats reply is not JSON")?;
    let stats = v.get("stats").ok_or("stats reply has no stats")?;
    let mut out = HashMap::new();
    for key in ["accepted", "coalesced", "rejected", "cache_hits", "computed", "retries"] {
        let n = stats.get(key).and_then(json::Value::as_f64).ok_or("missing stats counter")?;
        out.insert(key, n as u64);
    }
    Ok(out)
}

/// What a timed phase keeps besides its latencies: request and failure
/// counts, and the lowest-indexed computed replies for re-pricing.
#[derive(Default)]
struct Phase {
    requests: usize,
    failed: usize,
    /// `(stream index, quote)`, sorted by index, at most [`REPRICED`].
    computed: Vec<(usize, String)>,
    elapsed_s: f64,
    norm_elapsed_s: f64,
    /// The stream index the next phase starts from.
    next: usize,
}

impl Phase {
    /// Adds a later phase over the same stream.
    fn extend(&mut self, later: Phase) {
        self.requests += later.requests;
        self.norm_elapsed_s += later.norm_elapsed_s;
        self.failed += later.failed;
        self.computed.extend(later.computed);
        self.computed.sort_by_key(|(index, _)| *index);
        self.computed.truncate(REPRICED);
        self.elapsed_s += later.elapsed_s;
        self.next = later.next;
    }
}

/// Closed loop: each client sends its next request only after the
/// previous reply arrived, taking stream indices from a shared counter,
/// until `seconds` have passed, and checks every reply outside the
/// timer. Each client's latencies replace those of its previous slice.
fn timed_phase(
    clients: &mut [Client],
    lines: &[String],
    warm: &HashMap<&str, &str>,
    start: usize,
    seconds: f64,
) -> Result<Phase, String> {
    let next = AtomicUsize::new(start);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut part = Phase::default();
                    client.latencies_ns.clear();
                    let mut last = started;
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let line = lines[index % lines.len()].as_str();
                        let sent = Instant::now();
                        let response = client.conn.request(line);
                        last = Instant::now();
                        client.latencies_ns.push((last - sent).as_nanos() as u64);
                        part.requests += 1;
                        let passed = response.as_ref().ok().and_then(|r| check(line, r, warm));
                        match (passed, response) {
                            (Some((Served::Computed, quote)), _) => {
                                if part.computed.len() < REPRICED {
                                    part.computed.push((index, quote));
                                }
                            }
                            (Some(_), _) => {}
                            (None, response) => {
                                if part.failed == 0 {
                                    let reply =
                                        response.map_or_else(|e| e.to_string(), |r| r.envelope);
                                    eprintln!(
                                        "perfbench: request {index} failed its check: {reply}"
                                    );
                                }
                                part.failed += 1;
                            }
                        }
                    }
                    part.elapsed_s = (last - started).as_secs_f64();
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut phase = Phase::default();
    for part in parts {
        let elapsed_s = phase.elapsed_s.max(part.elapsed_s);
        phase.extend(part);
        phase.elapsed_s = elapsed_s;
    }
    phase.next = next.into_inner();
    Ok(phase)
}

/// How a reply was served, and its quote, when it passes its request's
/// check: a warmed request is served from cache or coalesced with the
/// warm-up bytes; any other is computed afresh as requested.
fn check(line: &str, response: &Response, warm: &HashMap<&str, &str>) -> Option<(Served, String)> {
    let (served, resumed, quote) = reply_fields(response)?;
    let ok = match (served, warm.get(line)) {
        (Served::Cache | Served::Coalesced, Some(w)) => quote == *w,
        (Served::Computed, None) => resumed == 0 && faults_as_requested(line, quote),
        _ => false,
    };
    ok.then(|| (served, quote.to_string()))
}

/// A campaign quote reports exactly the requested fault count; a quote
/// without a campaign has none.
fn faults_as_requested(line: &str, quote: &str) -> bool {
    let Ok(Request::Quote(query)) = parse_request(line) else { return false };
    let Ok(v) = json::parse(quote) else { return false };
    let faults = v.get("campaign").and_then(|c| c.get("faults")).and_then(json::Value::as_f64);
    match &query.campaign {
        Some(c) => faults == Some((c.stuck_at + c.seu_samples) as f64),
        None => v.get("campaign") == Some(&json::Value::Null),
    }
}

/// Re-prices the first computed replies in-process; returns their quotes
/// and how many differ from what the service served.
fn reprice(phase: &Phase, lines: &[String]) -> Result<(Vec<String>, usize), String> {
    let mut quotes = Vec::new();
    let mut mismatches = 0;
    for (index, served) in &phase.computed {
        let query = parse_quote(&lines[index % lines.len()])?;
        let built = quote::build(&query).map_err(|e| e.to_string())?;
        let priced = quote::price(&query, &built, None, 1, None).map_err(|e| e.to_string())?;
        if priced.json != *served {
            eprintln!("perfbench: request {index} re-priced to different bytes");
            mismatches += 1;
        }
        quotes.push(priced.json);
    }
    Ok((quotes, mismatches))
}

fn parse_quote(line: &str) -> Result<ShopQuery, String> {
    match parse_request(line) {
        Ok(Request::Quote(query)) => Ok(*query),
        Ok(_) => Err(format!("not a quote request: {line}")),
        Err(e) => Err(format!("bad request {line}: {e}")),
    }
}

/// Summed layer times of the in-process replay.
#[derive(Default)]
struct Layers {
    requests: u64,
    total: Duration,
    parse: Duration,
    queue: Duration,
    journal: Duration,
    build: Duration,
    content_key: Duration,
    cache_read: Duration,
    price: Duration,
    cache_write: Duration,
    // `build` and `price` broken down by calling their parts directly.
    asm: Duration,
    spec: Duration,
    generate_checked: Duration,
    opt: Duration,
    characterize: Duration,
    cache_hits: u64,
    campaign_runs: u64,
}

#[derive(Default)]
struct Replay {
    layers: Layers,
    dataflow: crate::SpanTotal,
    campaign: crate::SpanTotal,
}

impl Replay {
    fn json(&self) -> String {
        let l = &self.layers;
        let n = l.requests.max(1) as f64;
        let per = |d: Duration| ms(d) / n;
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "{{\"requests\":{},\"total_ms\":{},\"layers_ms\":{{\"shop.parse.ms\":{},\
             \"shop.queue.ms\":{},\"shop.journal.ms\":{},\"shop.build.ms\":{},\
             \"shop.content_key.ms\":{},\"shop.cache_read.ms\":{},\"shop.price.ms\":{},\
             \"shop.cache_write.ms\":{}}},\"parts_ms\":{{\"core.asm.ms\":{},\
             \"core.spec.ms\":{},\"core.generate_checked.ms\":{},\"netlist.opt.ms\":{},\
             \"netlist.characterize.ms\":{}}},\"cache_hits\":{},\"campaign_runs\":{},\
             \"dataflow\":{{\"calls\":{},\"ms\":{},\"max_ms\":{}}},\
             \"campaign\":{{\"calls\":{},\"ms\":{}}}}}",
            l.requests,
            per(l.total),
            per(l.parse),
            per(l.queue),
            per(l.journal),
            per(l.build),
            per(l.content_key),
            per(l.cache_read),
            per(l.price),
            per(l.cache_write),
            per(l.asm),
            per(l.spec),
            per(l.generate_checked),
            per(l.opt),
            per(l.characterize),
            l.cache_hits,
            l.campaign_runs,
            self.dataflow.calls,
            ns_ms(self.dataflow.total_ns),
            ns_ms(self.dataflow.max_ns),
            self.campaign.calls,
            ns_ms(self.campaign.total_ns),
        )
    }
}

/// The shop's parts as one worker composes them, on a data dir of its
/// own, with no threads or sockets in between.
struct Shop {
    queue: JobQueue,
    journal: Journal,
    cache: QuoteCache,
    ckpt: PathBuf,
    threads: usize,
}

impl Shop {
    fn open(dir: &Path) -> Result<Self, String> {
        let config = ShopConfig::default();
        let (journal, _) = Journal::open(dir).map_err(|e| e.to_string())?;
        Ok(Shop {
            queue: JobQueue::new(config.queue_capacity),
            journal,
            cache: QuoteCache::open(dir.join("cache")).map_err(|e| e.to_string())?,
            ckpt: dir.join("ckpt"),
            threads: config.campaign_threads,
        })
    }
}

/// Runs `f`, adding its wall time to `*into`.
fn timed<T>(into: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *into += started.elapsed();
    out
}

impl Shop {
    /// One request in the worker's order: parse, submit (journal accept
    /// inside), claim, build, content key, cache lookup, on a miss price
    /// and store, journal done, complete and receive the reply.
    fn serve(&mut self, line: &str, l: &mut Layers) -> Result<(), String> {
        let started = Instant::now();
        let query = timed(&mut l.parse, || parse_quote(line))?;
        let mut accept = Duration::ZERO;
        let journal = &mut self.journal;
        let queue = &self.queue;
        let (rx, key, query) = timed(&mut l.queue, || {
            let submit = queue.submit(query, &mut |key, canonical| {
                timed(&mut accept, || journal.accept(key, canonical))
            });
            let Submit::Queued(rx) = submit else { return Err("submit was not queued") };
            let (key, query, _) = queue.claim().ok_or("queue drained")?;
            Ok((rx, key, query))
        })?;
        l.queue -= accept;
        l.journal += accept;
        let built = timed(&mut l.build, || quote::build(&query)).map_err(|e| e.to_string())?;
        let content_key = timed(&mut l.content_key, || quote::content_key(&query, &built))
            .map_err(|e| e.to_string())?;
        let (served, bytes, priced) =
            match timed(&mut l.cache_read, || self.cache.lookup(content_key)) {
                CacheLookup::Hit(bytes) => {
                    l.cache_hits += 1;
                    (Served::Cache, bytes, false)
                }
                CacheLookup::Miss | CacheLookup::Evicted => {
                    let priced = timed(&mut l.price, || {
                        quote::price(&query, &built, Some(&self.ckpt), self.threads, None)
                    })
                    .map_err(|e| e.to_string())?;
                    timed(&mut l.cache_write, || self.cache.store(content_key, &priced.json))
                        .map_err(|e| e.to_string())?;
                    (Served::Computed, priced.json, true)
                }
            };
        timed(&mut l.journal, || self.journal.done(key)).map_err(|e| e.to_string())?;
        let reply = QuoteReply {
            served,
            fingerprint: Some(content_key),
            resumed_slots: 0,
            wall_ms: 0,
            quote: bytes,
        };
        let received = timed(&mut l.queue, || {
            self.queue.complete(key, &Ok(reply));
            rx.recv()
        });
        l.total += started.elapsed();
        l.requests += 1;
        let reply = received.map_err(|_| "reply channel closed")?.map_err(|e| e.to_string())?;

        // Outside the per-request total, with the program's spans off so
        // nothing is counted twice: the breakdown of build and price.
        let level = obs::level();
        obs::set_level(obs::Level::Off);
        let parts = self.parts(&query, &built, priced, l);
        obs::set_level(level);
        parts?;
        if priced {
            let v = json::parse(&reply.quote).map_err(|e| e.to_string())?;
            let faults =
                v.get("campaign").and_then(|c| c.get("faults")).and_then(json::Value::as_f64);
            l.campaign_runs += faults.unwrap_or(0.0) as u64;
        }
        Ok(())
    }

    /// Times `quote::build`'s parts, and `quote::price`'s characterization,
    /// by calling them directly.
    fn parts(
        &self,
        query: &ShopQuery,
        built: &quote::BuiltCore,
        priced: bool,
        l: &mut Layers,
    ) -> Result<(), String> {
        let program =
            timed(&mut l.asm, || asm::assemble(&query.program)).map_err(|e| e.to_string())?;
        let spec = timed(&mut l.spec, || {
            let config = CoreConfig::new(query.pipeline, query.width, query.bars);
            let spec = if query.isa_subset {
                CoreSpec::program_specific(config, &program.instructions, &query.name)
            } else {
                CoreSpec::standard(config)
            };
            NarrowEncoding::new(spec.clone()).encode_program(&program.instructions).map(|_| spec)
        })
        .map_err(|e| e.to_string())?;
        let tech = if query.tech == "cnt" { Technology::CntTft } else { Technology::Egfet };
        let raw = timed(&mut l.generate_checked, || generate_checked(&spec, tech))
            .map_err(|report| report.render_text())?;
        black_box(timed(&mut l.opt, || opt::optimize(&raw)));
        if priced {
            black_box(timed(&mut l.characterize, || {
                analysis::characterize(&built.netlist, built.tech.library())
            }));
        }
        Ok(())
    }
}
