//! The long-running print-shop job service.
//!
//! A [`ShopService`] binds a [`std::net::TcpListener`] and runs a
//! small supervision tree, all std threads:
//!
//! ```text
//! ShopService
//! ├── accept thread — one connection-handler thread per client
//! ├── supervisor — spawns N workers, respawns any that die
//! │   └── worker × N — claim → (chaos) → build → cache → campaign → reply
//! └── watchdog — cancels in-flight campaigns past their deadline
//! ```
//!
//! Robustness invariants (drilled by `tests/service_chaos.rs` and the
//! `ci.sh` smoke step):
//!
//! - a full queue returns [`ShopError::QueueFull`] immediately — typed
//!   load-shedding, never a hang or a panic;
//! - every job attempt runs under
//!   [`printed_netlist::resilience::retry_panics`]; a poisoned job
//!   degrades to [`ShopError::Poisoned`] and the worker survives. A
//!   worker killed outright (chaos drill) is respawned by the
//!   supervisor;
//! - deadlines cancel the campaign cooperatively; the checkpoint keeps
//!   the completed slots;
//! - jobs are journaled *before* work and completed *after*, so a
//!   SIGKILL replays exactly the in-flight work, whose campaigns
//!   resume from checkpoints;
//! - graceful shutdown drains in-flight campaigns to checkpoints and
//!   fails queued waiters with the typed [`ShopError::Draining`].

use crate::cache::{CacheLookup, QuoteCache};
use crate::error::ShopError;
use crate::journal::Journal;
use crate::proto::{parse_request, Request, ShopQuery, MAX_LINE_BYTES};
use crate::queue::{JobQueue, QuoteReply, Reply, Served, Submit};
use crate::quote;
use printed_eval::{render_manifest, StageRecord, StageStatus};
use printed_netlist::fault::campaign_threads;
use printed_netlist::resilience::retry_panics;
use printed_obs as obs;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service configuration; [`ShopConfig::from_env`] reads the
/// `PRINTED_SHOP_*` environment.
#[derive(Debug, Clone)]
pub struct ShopConfig {
    /// Bind address (`PRINTED_SHOP_ADDR`, default `127.0.0.1:0`).
    pub addr: String,
    /// Durable state directory — journal, quote cache, campaign
    /// checkpoints (`PRINTED_SHOP_DIR`, default `.print_shop`).
    pub data_dir: PathBuf,
    /// Bounded queue capacity (`PRINTED_SHOP_QUEUE`, default 8).
    pub queue_capacity: usize,
    /// Per-job wall-clock deadline in ms (`PRINTED_SHOP_DEADLINE_MS`,
    /// default 30 000).
    pub deadline_ms: u64,
    /// Worker threads (`PRINTED_SHOP_WORKERS`, default 2).
    pub workers: usize,
    /// Simulator threads each campaign may use.
    pub campaign_threads: usize,
}

impl Default for ShopConfig {
    fn default() -> Self {
        ShopConfig {
            addr: "127.0.0.1:0".to_string(),
            data_dir: PathBuf::from(".print_shop"),
            queue_capacity: 8,
            deadline_ms: 30_000,
            workers: 2,
            campaign_threads: campaign_threads(),
        }
    }
}

impl ShopConfig {
    /// Reads `PRINTED_SHOP_ADDR` / `PRINTED_SHOP_DIR` /
    /// `PRINTED_SHOP_QUEUE` / `PRINTED_SHOP_DEADLINE_MS` /
    /// `PRINTED_SHOP_WORKERS`, falling back to the defaults.
    pub fn from_env() -> Self {
        fn num<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
        }
        let mut c = ShopConfig::default();
        if let Ok(addr) = std::env::var("PRINTED_SHOP_ADDR") {
            if !addr.trim().is_empty() {
                c.addr = addr.trim().to_string();
            }
        }
        if let Ok(dir) = std::env::var("PRINTED_SHOP_DIR") {
            if !dir.trim().is_empty() {
                c.data_dir = PathBuf::from(dir.trim());
            }
        }
        if let Some(v) = num("PRINTED_SHOP_QUEUE") {
            c.queue_capacity = v;
        }
        if let Some(v) = num("PRINTED_SHOP_DEADLINE_MS") {
            c.deadline_ms = v;
        }
        if let Some(v) = num::<usize>("PRINTED_SHOP_WORKERS") {
            c.workers = v.max(1);
        }
        c
    }
}

/// Monotonic service counters, all exposed by the `stats` op.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    deadline_failures: AtomicU64,
    poisoned: AtomicU64,
    computed: AtomicU64,
    cache_hits: AtomicU64,
    cache_evictions: AtomicU64,
    journal_recovered: AtomicU64,
    worker_respawns: AtomicU64,
    drained_jobs: AtomicU64,
    retries: AtomicU64,
    /// Checkpoint slots resumed instead of re-simulated, summed over
    /// every campaign served — nonzero after a crash recovery.
    resumed_slots: AtomicU64,
}

/// One in-flight job's deadline entry, scanned by the watchdog.
#[derive(Debug)]
struct Inflight {
    cancel: Arc<AtomicBool>,
    deadline: Instant,
}

/// State shared by every thread in the tree.
#[derive(Debug)]
struct Shared {
    config: ShopConfig,
    queue: JobQueue,
    journal: Mutex<Journal>,
    cache: QuoteCache,
    counters: Counters,
    stages: Mutex<VecDeque<StageRecord>>,
    inflight: Mutex<Vec<Inflight>>,
    stopping: AtomicBool,
    kill_requests: AtomicUsize,
    bound: SocketAddr,
}

/// How many recent job records the manifest ring keeps.
const STAGE_RING: usize = 64;

/// Retries after a panicking job attempt before the job is reported
/// poisoned, so a job gets `JOB_RETRIES + 1` attempts.
const JOB_RETRIES: u32 = 2;

impl Shared {
    fn record_stage(&self, record: StageRecord) {
        let mut ring = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == STAGE_RING {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    fn journal_accept(&self, key: u64, canonical: &str) -> Result<(), ShopError> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner).accept(key, canonical)
    }

    fn journal_done(&self, key: u64) {
        let _ = self.journal.lock().unwrap_or_else(PoisonError::into_inner).done(key);
    }

    fn register_inflight(&self, cancel: Arc<AtomicBool>, deadline: Instant) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Inflight { cancel, deadline });
    }

    fn deregister_inflight(&self, cancel: &Arc<AtomicBool>) {
        self.inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|e| !Arc::ptr_eq(&e.cancel, cancel));
    }

    fn begin_drain(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Queued-but-unstarted jobs fail typed; their journal accepts
        // survive for replay on restart.
        let failed = self.queue.drain();
        self.counters.drained_jobs.fetch_add(failed.len() as u64, Ordering::Relaxed);
        // In-flight campaigns drain to checkpoints.
        for entry in self.inflight.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            entry.cancel.store(true, Ordering::Relaxed);
        }
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.bound);
    }

    fn stats_json(&self) -> String {
        let c = &self.counters;
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let stages: Vec<StageRecord> = {
            let ring = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
            ring.iter().cloned().collect()
        };
        let status = if stages.iter().any(|s| s.status == StageStatus::Failed) {
            StageStatus::Failed
        } else if stages.iter().any(|s| s.status == StageStatus::Degraded) {
            StageStatus::Degraded
        } else {
            StageStatus::Ok
        };
        let ckpt = self.config.data_dir.join("ckpt");
        let manifest = render_manifest(
            "print_shop",
            status,
            &stages,
            load(&c.retries),
            load(&c.deadline_failures),
            ckpt.to_str(),
        );
        format!(
            "{{\"ok\":true,\"stats\":{{\"accepted\":{},\"coalesced\":{},\"rejected\":{},\
             \"deadline_failures\":{},\"poisoned\":{},\"computed\":{},\"cache_hits\":{},\
             \"cache_evictions\":{},\"journal_recovered\":{},\"worker_respawns\":{},\
             \"drained_jobs\":{},\"retries\":{},\"resumed_slots\":{},\"queue_depth\":{},\
             \"queue_capacity\":{},\"workers\":{}}},\"manifest\":{manifest}}}",
            load(&c.accepted),
            load(&c.coalesced),
            load(&c.rejected),
            load(&c.deadline_failures),
            load(&c.poisoned),
            load(&c.computed),
            load(&c.cache_hits),
            load(&c.cache_evictions),
            load(&c.journal_recovered),
            load(&c.worker_respawns),
            load(&c.drained_jobs),
            load(&c.retries),
            load(&c.resumed_slots),
            self.queue.depth(),
            self.queue.capacity(),
            self.config.workers,
        )
    }
}

/// A running service; dropping it drains and joins the tree.
#[derive(Debug)]
pub struct ShopService {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl ShopService {
    /// Starts the service: opens the journal (replaying crashed jobs),
    /// binds the listener, and spawns the supervision tree.
    ///
    /// # Errors
    ///
    /// Returns [`ShopError::Internal`] if the data directory, journal,
    /// or listener cannot be set up.
    pub fn start(config: ShopConfig) -> Result<Self, ShopError> {
        std::fs::create_dir_all(&config.data_dir).map_err(|e| ShopError::Internal {
            message: format!("data dir {}: {e}", config.data_dir.display()),
        })?;
        let cache = QuoteCache::open(config.data_dir.join("cache"))?;
        let (journal, recovered) = Journal::open(&config.data_dir)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ShopError::Internal { message: format!("bind {}: {e}", config.addr) })?;
        let bound = listener
            .local_addr()
            .map_err(|e| ShopError::Internal { message: format!("local addr: {e}") })?;

        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            config,
            journal: Mutex::new(journal),
            cache,
            counters: Counters::default(),
            stages: Mutex::new(VecDeque::new()),
            inflight: Mutex::new(Vec::new()),
            stopping: AtomicBool::new(false),
            kill_requests: AtomicUsize::new(0),
            bound,
        });

        // Replay crashed jobs: their accepts are already journaled, so
        // they re-enqueue without waiters and warm the cache (their
        // campaigns resume from checkpoints).
        for job in recovered {
            let Ok(v) = obs::json::parse(&job.canonical) else { continue };
            let Ok(query) = ShopQuery::from_value(&v) else { continue };
            shared.counters.journal_recovered.fetch_add(1, Ordering::Relaxed);
            shared.queue.resubmit_recovered(query);
        }

        let accept = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("shop-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))
                .map_err(|e| ShopError::Internal { message: format!("spawn accept: {e}") })?
        };
        let supervisor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("shop-supervisor".to_string())
                .spawn(move || supervisor_loop(&shared))
                .map_err(|e| ShopError::Internal { message: format!("spawn supervisor: {e}") })?
        };
        let watchdog = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("shop-watchdog".to_string())
                .spawn(move || watchdog_loop(&shared))
                .map_err(|e| ShopError::Internal { message: format!("spawn watchdog: {e}") })?
        };

        Ok(ShopService {
            shared,
            accept: Some(accept),
            supervisor: Some(supervisor),
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (useful with `127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.bound
    }

    /// Blocks until the service drains (a `shutdown` op arrives or
    /// [`ShopService::shutdown`] is called from another thread).
    pub fn wait(mut self) {
        self.join();
    }

    /// Initiates a graceful drain: in-flight campaigns abort to
    /// checkpoints, queued waiters fail typed, workers and the accept
    /// loop exit.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    fn join(&mut self) {
        for handle in
            [self.accept.take(), self.supervisor.take(), self.watchdog.take()].into_iter().flatten()
        {
            let _ = handle.join();
        }
    }
}

impl Drop for ShopService {
    fn drop(&mut self) {
        self.shared.begin_drain();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("shop-conn".to_string())
            .spawn(move || handle_connection(stream, &shared));
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        // Reading one byte past the cap tells a full-length line from an
        // over-long one without ever buffering more than the cap.
        buf.clear();
        match reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES {
            let e = ShopError::BadRequest {
                message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            };
            let _ = writer.write_all(error_line(&e).as_bytes());
            discard_rest(reader, &writer);
            break;
        }
        let response = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let line =
                    line.strip_suffix('\n').map_or(line, |l| l.strip_suffix('\r').unwrap_or(l));
                dispatch(line, shared)
            }
            Err(_) => error_line(&ShopError::BadRequest { message: "request is not UTF-8".into() }),
        };
        if writer.write_all(response.as_bytes()).and_then(|()| writer.flush()).is_err() {
            break;
        }
    }
}

/// Closes a connection whose client sent an over-long line. The reply
/// is already written; ending the write side sends it with a FIN, and
/// the client's unread bytes are then read into a fixed buffer and
/// dropped (at most `DISCARD_LIMIT` of them, each read waiting at most
/// `DISCARD_WAIT`). Closing with bytes still unread would reset the
/// connection instead, and a reset can discard the reply before the
/// client reads it.
fn discard_rest(reader: BufReader<TcpStream>, writer: &TcpStream) {
    const DISCARD_LIMIT: u64 = 64 * MAX_LINE_BYTES as u64;
    const DISCARD_WAIT: Duration = Duration::from_secs(2);
    let _ = writer.shutdown(Shutdown::Write);
    let _ = reader.get_ref().set_read_timeout(Some(DISCARD_WAIT));
    let _ = std::io::copy(&mut reader.take(DISCARD_LIMIT), &mut std::io::sink());
}

/// Handles one request line, returning the full response (one line,
/// or two for a successful quote).
fn dispatch(line: &str, shared: &Arc<Shared>) -> String {
    match parse_request(line) {
        Ok(Request::Quote(query)) => quote_response(*query, shared),
        Ok(Request::Stats) => {
            let mut s = shared.stats_json();
            s.push('\n');
            s
        }
        Ok(Request::Shutdown) => {
            shared.begin_drain();
            "{\"ok\":true,\"draining\":true}\n".to_string()
        }
        Ok(Request::ChaosKillWorker) => {
            shared.kill_requests.fetch_add(1, Ordering::SeqCst);
            "{\"ok\":true,\"action\":\"kill_worker\"}\n".to_string()
        }
        Err(e) => error_line(&e),
    }
}

fn error_line(e: &ShopError) -> String {
    format!("{{\"ok\":false,\"error\":{}}}\n", e.to_json())
}

fn quote_response(query: ShopQuery, shared: &Arc<Shared>) -> String {
    let key = query.query_key();
    let mut journal = |k: u64, canonical: &str| shared.journal_accept(k, canonical);
    let submit = shared.queue.submit(query, &mut journal);
    let rx: Receiver<Reply> = match submit {
        Submit::Queued(rx) => {
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            rx
        }
        Submit::Coalesced(rx) => {
            shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            rx
        }
        Submit::Rejected { depth, capacity } => {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let e = ShopError::QueueFull { depth, capacity };
            // Load-shedding is service degradation, surfaced in the
            // manifest exactly like a degraded pipeline stage.
            shared.record_stage(StageRecord {
                name: format!("shop.submit.{key:016x}"),
                status: StageStatus::Degraded,
                attempts: 0,
                wall_ms: 0,
                error: Some(e.to_string()),
            });
            return error_line(&e);
        }
        Submit::Draining => return error_line(&ShopError::Draining),
    };
    match rx.recv() {
        Ok(Ok(reply)) => {
            format!(
                "{{\"ok\":true,\"served\":\"{}\",\"fingerprint\":\"{:016x}\",\
                 \"resumed_slots\":{},\"wall_ms\":{}}}\n{}\n",
                reply.served.name(),
                reply.fingerprint.unwrap_or(0),
                reply.resumed_slots,
                reply.wall_ms,
                reply.quote
            )
        }
        Ok(Err(e)) => error_line(&e),
        Err(_) => error_line(&ShopError::Internal { message: "worker dropped the job".into() }),
    }
}

fn supervisor_loop(shared: &Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> =
        (0..shared.config.workers).map(|i| spawn_worker(shared, i)).collect();
    let mut next_id = shared.config.workers;
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        for slot in &mut workers {
            if slot.is_finished() && !shared.stopping.load(Ordering::SeqCst) {
                let dead = std::mem::replace(slot, spawn_worker(shared, next_id));
                next_id += 1;
                let _ = dead.join();
                shared.counters.worker_respawns.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> JoinHandle<()> {
    let shared = shared.clone();
    std::thread::Builder::new()
        .name(format!("shop-worker-{id}"))
        .spawn(move || worker_loop(&shared))
        .unwrap_or_else(|e| panic!("spawn worker: {e}"))
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        // The chaos kill lands *between* jobs, so no claimed job is
        // orphaned — the drill tests supervision, not job loss.
        if shared
            .kill_requests
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("chaos drill: worker killed on request");
        }
        let Some((key, query, _recovered)) = shared.queue.claim() else { break };
        let started = Instant::now();
        let reply = process_job(shared, key, &query, started);
        let wall_ms = started.elapsed().as_millis() as u64;

        let (status, error, journal_done) = match &reply {
            Ok(r) => {
                match r.served {
                    Served::Cache => shared.counters.cache_hits.fetch_add(1, Ordering::Relaxed),
                    _ => shared.counters.computed.fetch_add(1, Ordering::Relaxed),
                };
                shared.counters.resumed_slots.fetch_add(r.resumed_slots as u64, Ordering::Relaxed);
                (StageStatus::Ok, None, true)
            }
            Err(e @ ShopError::DeadlineExceeded { .. }) => {
                shared.counters.deadline_failures.fetch_add(1, Ordering::Relaxed);
                (StageStatus::Degraded, Some(e.to_string()), true)
            }
            Err(e @ ShopError::Poisoned { .. }) => {
                shared.counters.poisoned.fetch_add(1, Ordering::Relaxed);
                (StageStatus::Failed, Some(e.to_string()), true)
            }
            Err(ShopError::Draining) => {
                shared.counters.drained_jobs.fetch_add(1, Ordering::Relaxed);
                (StageStatus::Skipped, Some(ShopError::Draining.to_string()), false)
            }
            Err(e) => (StageStatus::Failed, Some(e.to_string()), true),
        };
        shared.record_stage(StageRecord {
            name: format!("shop.job.{key:016x}"),
            status,
            attempts: 1 + query.chaos_panics.min(JOB_RETRIES),
            wall_ms,
            error,
        });
        if journal_done {
            shared.journal_done(key);
        }
        shared.queue.complete(key, &reply);
    }
}

/// Runs one job under deadline + retry + panic isolation.
fn process_job(shared: &Arc<Shared>, key: u64, query: &ShopQuery, started: Instant) -> Reply {
    let cancel = Arc::new(AtomicBool::new(false));
    let deadline = started + Duration::from_millis(shared.config.deadline_ms);
    shared.register_inflight(cancel.clone(), deadline);
    let run = retry_panics(
        JOB_RETRIES,
        |attempt, _| {
            shared.counters.retries.fetch_add(1, Ordering::Relaxed);
            // Deterministic exponential backoff: 10, 20, 40 … ms.
            std::thread::sleep(Duration::from_millis(10u64 << (attempt + 1).min(6)));
        },
        |attempt| compute_once(shared, key, query, attempt, &cancel, started),
    );
    let result = run.map(|(reply, _)| reply).unwrap_or_else(|(message, attempts)| {
        Err(ShopError::Poisoned { job: format!("{key:016x}"), attempts, message })
    });
    shared.deregister_inflight(&cancel);
    result
}

/// One compute attempt; panics propagate to the retry loop above.
fn compute_once(
    shared: &Arc<Shared>,
    key: u64,
    query: &ShopQuery,
    attempt: u32,
    cancel: &Arc<AtomicBool>,
    started: Instant,
) -> Reply {
    let job = format!("{key:016x}");
    let refused = |shared: &Shared| {
        if shared.stopping.load(Ordering::SeqCst) {
            ShopError::Draining
        } else {
            ShopError::DeadlineExceeded { job: job.clone(), deadline_ms: shared.config.deadline_ms }
        }
    };
    // Chaos: poison the first `chaos_panics` attempts.
    if attempt < query.chaos_panics {
        panic!("chaos drill: injected panic on attempt {attempt}");
    }
    // Chaos: a slow job, cancellable in 10 ms slices so deadlines and
    // drains interrupt it.
    let mut slept = 0u64;
    while slept < query.chaos_slow_ms {
        if cancel.load(Ordering::Relaxed) {
            return Err(refused(shared));
        }
        let slice = 10.min(query.chaos_slow_ms - slept);
        std::thread::sleep(Duration::from_millis(slice));
        slept += slice;
    }

    let built = quote::build(query)?;
    let content_key = quote::content_key(query, &built)?;
    match shared.cache.lookup(content_key) {
        CacheLookup::Hit(quote_bytes) => {
            return Ok(QuoteReply {
                served: Served::Cache,
                fingerprint: Some(content_key),
                resumed_slots: 0,
                wall_ms: started.elapsed().as_millis() as u64,
                quote: quote_bytes,
            });
        }
        CacheLookup::Evicted => {
            shared.counters.cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
        CacheLookup::Miss => {}
    }

    let ckpt_dir = shared.config.data_dir.join("ckpt");
    let priced = quote::price(
        query,
        &built,
        Some(ckpt_dir.as_path()),
        shared.config.campaign_threads,
        Some(cancel.as_ref()),
    )?;
    if priced.aborted {
        return Err(refused(shared));
    }
    shared.cache.store(content_key, &priced.json)?;
    Ok(QuoteReply {
        served: Served::Computed,
        fingerprint: Some(content_key),
        resumed_slots: priced.resumed_slots,
        wall_ms: started.elapsed().as_millis() as u64,
        quote: priced.json,
    })
}

fn watchdog_loop(shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let now = Instant::now();
        for entry in shared.inflight.lock().unwrap_or_else(PoisonError::into_inner).iter() {
            if now >= entry.deadline {
                entry.cancel.store(true, Ordering::Relaxed);
            }
        }
    }
}
