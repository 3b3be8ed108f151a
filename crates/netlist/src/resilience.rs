//! The fault-campaign scheduler, with checkpoint/resume, watchdog
//! deadlines, and panic isolation for long-running campaigns.
//!
//! [`run_supervised_campaign_cancellable`] is the only campaign
//! scheduler in the workspace: [`crate::fault::run_campaign`] is this
//! runner with the default [`ResilienceConfig`] (no checkpoint, no
//! watchdog). Real reproduction sweeps run for minutes across many
//! worker threads, and fault-injection infrastructure must survive its
//! own faults, so the scheduler carries a resilience layer:
//!
//! - **Checkpoint/resume** — with [`ResilienceConfig::checkpoint_dir`]
//!   set (see [`ResilienceConfig::from_env`] and the `PRINTED_CKPT_DIR`
//!   environment variable), completed fault-index result slots are
//!   appended periodically to a JSON-lines checkpoint file. A rerun of
//!   the same campaign loads the checkpoint, skips the recorded slots,
//!   and — because slots are keyed by the deterministic fault
//!   enumeration order, not by scheduling — produces a byte-identical
//!   [`CampaignResult::to_csv`] to an uninterrupted run, for any thread
//!   count.
//! - **Watchdog deadlines** — [`ResilienceConfig::watchdog_cycles`] arms
//!   the per-run simulator cycle limit
//!   ([`crate::sim::Simulator::set_cycle_limit`]); a wedged workload
//!   trips [`crate::NetlistError::DeadlineExceeded`], surfaces as a
//!   typed [`JobError::TimedOut`], and is classified as
//!   [`Outcome::Hang`] — deterministically, since the deadline counts
//!   cycles, not wall-clock.
//! - **Panic isolation + retry** — each fault run executes under
//!   [`retry_panics`] with bounded retries and a deterministic
//!   decorrelated backoff (seeded from the campaign seed, the slot
//!   index, and the attempt number). A slot that keeps panicking
//!   degrades to a recorded [`Outcome::Failed`] instead of aborting the
//!   campaign. [`retry_panics`] is the workspace's one `catch_unwind`;
//!   pipeline stages and print-shop jobs supervise through it too.
//!
//! Everything is instrumented through `printed-obs`: the
//! `netlist.fault.campaign` span with one `netlist.fault.chunk` span per
//! claimed chunk on `campaign-worker-<n>` lanes; the classification
//! counters `netlist.fault.{workers,runs,masked,detected,hang,sdc}`,
//! the bitsliced `netlist.fault.bitsliced.{words,lanes}` counters and
//! `netlist.fault.{lane_utilization,runs_per_sec,bitsliced_runs_per_sec}`
//! gauges; and the resilience counters `resilience.retries`,
//! `resilience.timeouts`, `resilience.resumed_slots` and
//! `resilience.failed`.
//!
//! # Checkpoint format
//!
//! One JSON object per line, each carrying a CRC-32 (`"c"`) over its
//! semantic payload. The first line is a header binding the checkpoint
//! to a campaign identity fingerprint (netlist structure, campaign
//! config, golden-run observation); every further line records one
//! completed slot:
//!
//! ```text
//! {"type":"header","design":"p1_4_2","faults":512,"fingerprint":"9f2c...","c":"1a2b3c4d"}
//! {"type":"slot","i":17,"o":"masked","r":0,"c":"5e6f7a8b"}
//! ```
//!
//! A truncated final line (the process was killed mid-write) and a
//! corrupted line (flipped bits — caught by the CRC even when the line
//! still parses as JSON) are both tolerated: loading stops at the first
//! invalid line and keeps the valid prefix, so resume recovers to the
//! last valid line instead of erroring. A header that does not match
//! the campaign identity (or fails its CRC) is discarded wholesale — a
//! stale checkpoint can never leak slots into a different campaign. The
//! initial header+resumed-slots rewrite goes through [`atomic_replace`],
//! so a kill mid-rewrite can never destroy the previous checkpoint
//! generation. On successful completion the checkpoint file is deleted.

use crate::fault::{
    campaign_golden, campaign_threads, enumerate_faults, faulty_budget, CampaignConfig,
    CampaignError, CampaignResult, Fault, FaultRun, LaneOutcome, Outcome, OutcomeCounts, Workload,
};
use crate::hash::Fnv1a;
use crate::ir::Netlist;
use crate::sim::Simulator;
use printed_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Why a supervised job (a campaign, one of its slots, or a pipeline
/// stage built on this module) failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job exceeded its deadline. For simulator jobs the unit is
    /// clock cycles; stage runners reuse the variant with milliseconds.
    TimedOut {
        /// Name of the job that timed out.
        job: String,
        /// Budget spent when the watchdog fired.
        spent: u64,
        /// The armed limit.
        limit: u64,
        /// Unit of `spent`/`limit` (`"cycles"` or `"ms"`).
        unit: &'static str,
    },
    /// The job panicked on every allowed attempt.
    Panicked {
        /// Name of the job that panicked.
        job: String,
        /// The final panic payload, if it was a string.
        message: String,
        /// Attempts made (1 + retries).
        attempts: u32,
    },
    /// A checkpoint or artifact I/O operation failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error, stringified (keeps `JobError: Clone`).
        message: String,
    },
    /// A checkpoint file existed but could not be interpreted.
    Corrupt {
        /// The file involved.
        path: PathBuf,
        /// 1-based line number of the first bad line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The campaign itself could not start (golden-run failure).
    Campaign(CampaignError),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TimedOut { job, spent, limit, unit } => {
                write!(f, "job {job:?} timed out: {spent} of {limit} {unit}")
            }
            JobError::Panicked { job, message, attempts } => {
                write!(f, "job {job:?} panicked after {attempts} attempts: {message}")
            }
            JobError::Io { path, message } => {
                write!(f, "I/O error on {}: {message}", path.display())
            }
            JobError::Corrupt { path, line, message } => {
                write!(f, "corrupt checkpoint {} at line {line}: {message}", path.display())
            }
            JobError::Campaign(e) => write!(f, "campaign failed: {e}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<CampaignError> for JobError {
    fn from(e: CampaignError) -> Self {
        JobError::Campaign(e)
    }
}

/// Configuration of the resilience layer wrapped around a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Directory for checkpoint files; `None` disables checkpointing
    /// entirely (no I/O on the campaign path at all).
    pub checkpoint_dir: Option<PathBuf>,
    /// Completed slots buffered between checkpoint flushes. Smaller
    /// values lose less work to a kill; larger values do less I/O.
    pub checkpoint_every: usize,
    /// Retries after a panicking fault run before the slot degrades to
    /// [`Outcome::Failed`] (so attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Per-run simulator cycle deadline; a run that exceeds it is
    /// classified as [`Outcome::Hang`]. `None` trusts the campaign's
    /// own cycle budget.
    pub watchdog_cycles: Option<u64>,
    /// Test hook: stop claiming new slots once this many have completed
    /// in this process, flush the checkpoint, and return
    /// [`SupervisedRun::Aborted`] — simulating a mid-campaign kill at a
    /// deterministic point.
    pub abort_after: Option<usize>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_dir: None,
            checkpoint_every: 64,
            max_retries: 2,
            watchdog_cycles: None,
            abort_after: None,
        }
    }
}

impl ResilienceConfig {
    /// The default configuration with the checkpoint directory taken
    /// from the `PRINTED_CKPT_DIR` environment variable (unset or empty
    /// means checkpointing stays disabled).
    pub fn from_env() -> Self {
        let dir = std::env::var("PRINTED_CKPT_DIR")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .map(PathBuf::from);
        ResilienceConfig { checkpoint_dir: dir, ..ResilienceConfig::default() }
    }
}

/// What the resilience layer had to do during one supervised campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Slots restored from a checkpoint instead of re-simulated.
    pub resumed_slots: usize,
    /// Retries spent on panicking fault runs (including retry counts
    /// recorded in resumed checkpoint slots).
    pub retries: u64,
    /// Fault runs that tripped the watchdog deadline.
    pub timeouts: u64,
    /// Slots degraded to [`Outcome::Failed`] after exhausting retries.
    pub failed: usize,
    /// The checkpoint file used, if checkpointing was enabled.
    pub checkpoint: Option<PathBuf>,
    /// Checkpoint I/O failed mid-campaign; the campaign finished but
    /// further checkpointing was disabled (graceful degradation).
    pub checkpoint_degraded: bool,
}

/// A completed supervised campaign: the (byte-identical) campaign result
/// plus what the resilience layer did to get it.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedCampaign {
    /// The campaign result, identical to an unsupervised run except
    /// that poisoned slots may carry [`Outcome::Failed`].
    pub result: CampaignResult,
    /// The campaign identity fingerprint, as [`campaign_identity`]
    /// computes it, without another golden run.
    pub fingerprint: u64,
    /// Resilience bookkeeping.
    pub stats: ResilienceStats,
}

/// Outcome of [`run_supervised_campaign`].
#[derive(Debug, Clone, PartialEq)]
pub enum SupervisedRun {
    /// The campaign ran (or resumed) to completion.
    Complete(SupervisedCampaign),
    /// The abort hook fired mid-campaign; progress up to here is in the
    /// checkpoint (when enabled) and a rerun resumes from it.
    Aborted {
        /// Slots completed in this process before the abort.
        completed: usize,
        /// Total slots in the campaign.
        total: usize,
        /// The checkpoint holding the completed slots, if enabled.
        checkpoint: Option<PathBuf>,
    },
}

impl SupervisedRun {
    /// The completed campaign, or `None` if the run aborted.
    pub fn into_complete(self) -> Option<SupervisedCampaign> {
        match self {
            SupervisedRun::Complete(c) => Some(c),
            SupervisedRun::Aborted { .. } => None,
        }
    }
}

/// One filled result slot: the classified run plus the retries it cost.
type SlotDone = (FaultRun, u32);

/// The campaign identity fingerprint for (netlist, workload, config) —
/// the key checkpoints and the print shop's content-addressed quote
/// cache are bound to.
///
/// The fingerprint covers netlist structure, the campaign parameters
/// that select the fault set (`cycle_budget`, stuck-at space, SEU
/// samples, seed), and the golden observation (which stands in for the
/// workload, since classification only ever compares against it). It
/// deliberately **excludes** execution strategy — thread count and the
/// scalar/bitsliced engine choice — because those are byte-identical by
/// construction, and it contains no pointers, wall-clock, or
/// per-process state, so it is stable across processes.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails.
pub fn campaign_identity<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
) -> Result<u64, JobError> {
    let pristine = Simulator::new(netlist);
    let golden = campaign_golden(&pristine, workload, config)?;
    let faults = enumerate_faults(netlist, config, golden.cycles);
    Ok(campaign_fingerprint(netlist, config, &golden, faults.len()))
}

/// Fingerprint binding a checkpoint to one exact campaign: netlist
/// structure, campaign configuration, and the golden observation (which
/// also stands in for the workload, since classification only ever
/// compares against it). Any difference in these invalidates recorded
/// slots, so resume can never mix campaigns.
fn campaign_fingerprint(
    netlist: &Netlist,
    config: &CampaignConfig,
    golden: &crate::fault::Observation,
    total_faults: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write(netlist.name().as_bytes());
    h.write_u64(netlist.gate_count() as u64);
    h.write_u64(netlist.net_count() as u64);
    for gate in netlist.gates() {
        h.write_u64(gate.kind as u64);
        h.write_u64(gate.output.index() as u64);
        for input in &gate.inputs {
            h.write_u64(input.index() as u64);
        }
    }
    h.write_u64(config.cycle_budget);
    let (space_tag, space_n) = match config.stuck_at {
        crate::fault::StuckAtSpace::Exhaustive => (0u64, 0u64),
        crate::fault::StuckAtSpace::Sampled(n) => (1, n as u64),
        crate::fault::StuckAtSpace::None => (2, 0),
    };
    h.write_u64(space_tag);
    h.write_u64(space_n);
    h.write_u64(config.seu_samples as u64);
    h.write_u64(config.seed);
    h.write_u64(golden.cycles);
    h.write_u64(golden.signature.len() as u64);
    for &word in &golden.signature {
        h.write_u64(word);
    }
    h.write_u64(total_faults as u64);
    h.finish()
}

/// The checkpoint path for a campaign: `<design>-<fingerprint>.ckpt.jsonl`
/// under the configured directory.
fn checkpoint_path(dir: &Path, design: &str, fingerprint: u64) -> PathBuf {
    // Design names are identifier-like throughout the workspace, but a
    // path separator in one must not escape the checkpoint directory.
    let safe: String =
        design.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
    dir.join(format!("{safe}-{fingerprint:016x}.ckpt.jsonl"))
}

fn header_line(design: &str, total_faults: usize, fingerprint: u64) -> String {
    let crc =
        obs::crc::crc32(format!("header|{design}|{total_faults}|{fingerprint:016x}").as_bytes());
    format!(
        "{{\"type\":\"header\",\"design\":{},\"faults\":{total_faults},\
         \"fingerprint\":\"{fingerprint:016x}\",\"c\":\"{crc:08x}\"}}\n",
        obs::json::escape(design),
    )
}

/// CRC of one slot line's semantic payload, not its JSON syntax, so
/// formatting changes never invalidate old checkpoints. The payload is
/// built in `crc_buf`, a buffer the caller reuses across slots.
fn slot_crc(crc_buf: &mut String, index: usize, outcome: Outcome, retries: u32) -> u32 {
    crc_buf.clear();
    let _ = write!(crc_buf, "slot|{index}|{outcome}|{retries}");
    obs::crc::crc32(crc_buf.as_bytes())
}

/// Appends one slot line to `line` — the one slot-line formatter, shared
/// by the checkpoint sink and the header rewrite; `crc_buf` is the
/// reused CRC buffer of [`slot_crc`].
fn push_slot_line(line: &mut String, crc_buf: &mut String, index: usize, done: &SlotDone) {
    let crc = slot_crc(crc_buf, index, done.0.outcome, done.1);
    let _ = writeln!(
        line,
        "{{\"type\":\"slot\",\"i\":{index},\"o\":\"{}\",\"r\":{},\"c\":\"{crc:08x}\"}}",
        done.0.outcome, done.1
    );
}

/// One slot line as its own string.
#[cfg(test)]
fn slot_line(index: usize, done: &SlotDone) -> String {
    let mut line = String::new();
    push_slot_line(&mut line, &mut String::new(), index, done);
    line
}

/// The CRC footer appended by [`atomic_write`]: `#crc32:` + 8 hex
/// digits + newline, 16 bytes total.
const CRC_FOOTER_LEN: usize = 16;

/// Replaces `path` with `bytes` atomically: the bytes go to a `.tmp`
/// sibling first, are synced to disk, and are renamed over `path` — a
/// kill at any point leaves either the old file or the new one, never a
/// torn mix. A `.tmp` left behind by a kill before the rename is never
/// read and is overwritten by the next replace. The one atomic-write
/// path of the workspace: [`atomic_write`], checkpoint rewrites and the
/// print shop's journal compaction all go through it.
///
/// # Errors
///
/// Returns the I/O error if the temp file cannot be written or synced,
/// or the rename fails.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// Writes `payload` + a CRC-32 footer to `path` through
/// [`atomic_replace`]. [`read_checked`] verifies the footer on the way
/// back in.
///
/// # Errors
///
/// Returns [`JobError::Io`] if the temp file cannot be written or the
/// rename fails.
pub fn atomic_write(path: &Path, payload: &[u8]) -> Result<(), JobError> {
    let mut bytes = Vec::with_capacity(payload.len() + CRC_FOOTER_LEN);
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(format!("#crc32:{:08x}\n", obs::crc::crc32(payload)).as_bytes());
    atomic_replace(path, &bytes)
        .map_err(|e| JobError::Io { path: path.to_path_buf(), message: e.to_string() })
}

/// Reads a file written by [`atomic_write`] and verifies its CRC-32
/// footer. `Ok(None)` when the file does not exist; the verified
/// payload (footer stripped) otherwise.
///
/// # Errors
///
/// Returns [`JobError::Corrupt`] when the file exists but is truncated,
/// has a malformed footer, or fails the checksum — the caller decides
/// whether to quarantine and recompute.
pub fn read_checked(path: &Path) -> Result<Option<Vec<u8>>, JobError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(JobError::Io { path: path.to_path_buf(), message: e.to_string() }),
    };
    let corrupt = |message: &str| JobError::Corrupt {
        path: path.to_path_buf(),
        line: 0,
        message: message.to_string(),
    };
    if bytes.len() < CRC_FOOTER_LEN {
        return Err(corrupt("file shorter than its CRC footer"));
    }
    let (payload, footer) = bytes.split_at(bytes.len() - CRC_FOOTER_LEN);
    let footer = std::str::from_utf8(footer).map_err(|_| corrupt("non-UTF-8 CRC footer"))?;
    let recorded = footer
        .strip_prefix("#crc32:")
        .and_then(|rest| rest.strip_suffix('\n'))
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| corrupt("malformed CRC footer"))?;
    let actual = obs::crc::crc32(payload);
    if actual != recorded {
        return Err(corrupt(&format!(
            "CRC mismatch: recorded {recorded:08x}, actual {actual:08x}"
        )));
    }
    Ok(Some(payload.to_vec()))
}

/// Loads the valid prefix of a checkpoint file into `slots`.
///
/// Missing file → nothing loaded. Unreadable file or mismatched header →
/// nothing loaded (the campaign starts fresh and overwrites it). A bad
/// line — truncated mid-write, or corrupted in place (every line carries
/// a CRC-32 over its payload, so a bit flip that still parses as JSON is
/// caught too) — stops the scan but keeps everything before it: resume
/// recovers to the last valid line instead of erroring. The rebuilt
/// [`FaultRun`] comes from the deterministic fault enumeration, so a
/// checkpoint line only needs the slot index, outcome, and retry count.
fn load_checkpoint(
    path: &Path,
    fingerprint: u64,
    faults: &[Fault],
    netlist: &Netlist,
    slots: &mut [Option<SlotDone>],
) -> usize {
    let Ok(text) = fs::read_to_string(path) else { return 0 };
    let mut lines = text.lines();
    let Some(first) = lines.next() else { return 0 };
    let Ok(header) = obs::json::parse(first) else { return 0 };
    let expected = header_line(netlist.name(), faults.len(), fingerprint);
    let Ok(expected) = obs::json::parse(expected.trim_end()) else { return 0 };
    // Semantic header comparison (parsed, so key order and escaping are
    // irrelevant) — covers design, fault count, fingerprint, and CRC.
    if header != expected {
        return 0;
    }
    let mut resumed = 0;
    let mut crc_buf = String::new();
    for line in lines {
        let Ok(value) = obs::json::parse(line) else { break };
        if value.get("type").and_then(obs::json::Value::as_str) != Some("slot") {
            break;
        }
        let Some(index) = value.get("i").and_then(obs::json::Value::as_f64) else { break };
        let index = index as usize;
        if index >= slots.len() {
            break;
        }
        let Some(outcome) =
            value.get("o").and_then(obs::json::Value::as_str).and_then(Outcome::parse)
        else {
            break;
        };
        let retries = value.get("r").and_then(obs::json::Value::as_f64).unwrap_or(0.0) as u32;
        // CRC over the semantic payload: a flipped bit that still
        // parses (e.g. "sdc" → "sdd", or a shifted index) is rejected
        // here, and the scan stops at the last trustworthy line.
        let recorded = value
            .get("c")
            .and_then(obs::json::Value::as_str)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok());
        if recorded != Some(slot_crc(&mut crc_buf, index, outcome, retries)) {
            break;
        }
        let fault = faults[index];
        let cell = netlist.gates()[fault.gate.index()].kind;
        if slots[index].is_none() {
            resumed += 1;
        }
        slots[index] = Some((FaultRun { fault, cell, outcome }, retries));
    }
    resumed
}

/// The shared checkpoint writer: buffers slot lines and appends them to
/// the file every [`ResilienceConfig::checkpoint_every`] completions. A
/// write failure flips `broken` and drops the file handle — the campaign
/// carries on without checkpointing rather than dying on a full disk.
struct CheckpointSink {
    file: Option<fs::File>,
    buf: String,
    /// Reused CRC buffer for [`push_slot_line`].
    crc_buf: String,
    pending: usize,
    every: usize,
    broken: bool,
}

impl CheckpointSink {
    fn push(&mut self, index: usize, done: &SlotDone) {
        if self.file.is_none() {
            return;
        }
        push_slot_line(&mut self.buf, &mut self.crc_buf, index, done);
        self.pending += 1;
        if self.pending >= self.every {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(file) = &mut self.file {
            let ok = file.write_all(self.buf.as_bytes()).and_then(|()| file.flush()).is_ok();
            if !ok {
                self.broken = true;
                self.file = None;
            }
        }
        self.buf.clear();
        self.pending = 0;
    }
}

/// Campaign-wide inputs every supervised slot shares: the golden
/// observation to classify against, the cycle budget, and the
/// retry/backoff parameters.
struct SlotParams<'a> {
    golden: &'a crate::fault::Observation,
    budget: u64,
    max_retries: u32,
    seed: u64,
}

/// Runs one fault slot under supervision: watchdog trips and panics
/// become typed [`JobError`]s instead of wedging or killing the worker.
///
/// The watchdog needs no plumbing here — `pristine` is the worker's
/// simulator clone with the cycle limit already armed, and every
/// per-fault clone [`crate::fault::observe`] makes inherits it. The
/// resulting [`crate::NetlistError::DeadlineExceeded`] is surfaced as a
/// typed [`JobError::TimedOut`] so the scheduler can count timeouts
/// separately before folding them into the hang classification.
fn attempt_slot<W: Workload + ?Sized>(
    pristine: &Simulator<'_>,
    workload: &W,
    params: &SlotParams<'_>,
    fault: Fault,
    index: usize,
) -> Result<SlotDone, JobError> {
    let SlotParams { golden, budget, max_retries, seed } = *params;
    let cell = pristine.netlist().gates()[fault.gate.index()].kind;
    let run = retry_panics(
        max_retries,
        |attempt, _| backoff(seed, index, attempt),
        |_| crate::fault::observe(pristine, workload, Some(fault), budget),
    );
    match run {
        Ok((Ok(observed), attempts)) => {
            let outcome = crate::fault::classify(golden, &observed);
            Ok((FaultRun { fault, cell, outcome }, attempts - 1))
        }
        Ok((Err(crate::NetlistError::DeadlineExceeded { cycles, limit }), _)) => {
            Err(JobError::TimedOut { job: fault.to_string(), spent: cycles, limit, unit: "cycles" })
        }
        // Any other simulation failure (oscillation) wedges the circuit:
        // a hang.
        Ok((Err(_), attempts)) => {
            Ok((FaultRun { fault, cell, outcome: Outcome::Hang }, attempts - 1))
        }
        Err((message, attempts)) => {
            Err(JobError::Panicked { job: fault.to_string(), message, attempts })
        }
    }
}

/// Runs `f` under panic isolation, retrying a panicking attempt up to
/// `max_retries` times. This is the one `catch_unwind` of the workspace:
/// campaign slots, bitsliced words, pipeline stages and print-shop jobs
/// all supervise through it.
///
/// `f` receives the 0-based attempt number. Before each retry (never
/// after the last attempt) `backoff` is called with the number of the
/// attempt that just panicked and its panic message, so each caller
/// keeps its own delay policy and retry counters. A value `f` returns,
/// including a typed error, ends the loop: only panics are retried.
///
/// # Errors
///
/// When every attempt panicked, returns the last panic's message (or
/// `"non-string panic payload"`) and the attempts made,
/// `max_retries + 1`. On success the attempts made are returned beside
/// the value.
#[allow(clippy::disallowed_methods)]
pub fn retry_panics<T>(
    max_retries: u32,
    mut backoff: impl FnMut(u32, &str),
    mut f: impl FnMut(u32) -> T,
) -> Result<(T, u32), (String, u32)> {
    let mut attempt = 0;
    loop {
        let payload = match std::panic::catch_unwind(AssertUnwindSafe(|| f(attempt))) {
            Ok(value) => return Ok((value, attempt + 1)),
            Err(payload) => payload,
        };
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        if attempt >= max_retries {
            return Err((message, attempt + 1));
        }
        backoff(attempt, &message);
        attempt += 1;
    }
}

/// Deterministic decorrelated backoff before a retry: the delay is drawn
/// from an RNG seeded by (campaign seed, slot index, attempt), so a
/// rerun of the same campaign backs off identically — no wall-clock or
/// thread identity leaks into behavior. Delays are millisecond-scale:
/// retries exist to clear transient conditions, not to wait out real
/// infrastructure.
fn backoff(seed: u64, index: usize, attempt: u32) {
    let mut rng = StdRng::seed_from_u64(
        seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempt as u64) << 48),
    );
    let cap = 2u64 << attempt.min(4);
    let ms = rng.gen_range(1..=cap);
    std::thread::sleep(Duration::from_millis(ms));
}

/// [`run_supervised_campaign_cancellable`] with the worker count from
/// `PRINTED_SIM_THREADS` (see [`campaign_threads`]) and no cancel flag.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails —
/// without a golden reference nothing can be classified, so there is
/// nothing to degrade to.
pub fn run_supervised_campaign<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
    resilience: &ResilienceConfig,
) -> Result<SupervisedRun, JobError> {
    run_supervised_campaign_with_threads(netlist, workload, config, resilience, campaign_threads())
}

/// [`run_supervised_campaign`] with an explicit worker-thread count.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails.
pub fn run_supervised_campaign_with_threads<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
    resilience: &ResilienceConfig,
    threads: usize,
) -> Result<SupervisedRun, JobError> {
    run_supervised_campaign_cancellable(netlist, workload, config, resilience, threads, None)
}

/// The campaign scheduler: runs every fault of the campaign on
/// `threads` workers under the resilience layer, with an external
/// cancellation flag. When `cancel` flips to `true` mid-campaign,
/// workers stop claiming new slots, the checkpoint is flushed with
/// everything completed so far, and the run returns
/// [`SupervisedRun::Aborted`] — the cooperative drain the print-shop
/// service uses for graceful shutdown, so a restart *resumes* the
/// campaign instead of recomputing it.
///
/// Determinism: the fault list is enumerated once, in a fixed order, on
/// the calling thread. Results go into a slot vector indexed by that
/// order; workers claim contiguous chunks of disjoint `(faults, slots)`
/// pairs from a shared queue and never write outside their chunk. Every
/// classification depends only on (netlist, workload, fault, budget), so
/// the merged result is identical for any `threads`, including 1 (which
/// spawns no thread). Checkpoint resume fills slots with values computed
/// by the same pure function, so a resumed and an uninterrupted run
/// agree byte-for-byte, and retry backoff is seeded per (seed, slot,
/// attempt), never from time.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails.
pub fn run_supervised_campaign_cancellable<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
    resilience: &ResilienceConfig,
    threads: usize,
    cancel: Option<&AtomicBool>,
) -> Result<SupervisedRun, JobError> {
    let _span = obs::span!("netlist.fault.campaign");
    let mut pristine = Simulator::new(netlist);
    let golden = campaign_golden(&pristine, workload, config)?;
    let faults = enumerate_faults(netlist, config, golden.cycles);
    let budget = faulty_budget(config.cycle_budget, golden.cycles);
    let total = faults.len();

    let fingerprint = campaign_fingerprint(netlist, config, &golden, total);
    let mut stats = ResilienceStats::default();
    let mut slots: Vec<Option<SlotDone>> = vec![None; total];

    // Checkpoint setup: load whatever a previous run left, then rewrite
    // the file from scratch (header + resumed slots). Rewriting heals a
    // truncated tail once instead of parsing around it forever.
    let mut sink = CheckpointSink {
        file: None,
        buf: String::new(),
        crc_buf: String::new(),
        pending: 0,
        every: resilience.checkpoint_every.max(1),
        broken: false,
    };
    if let Some(dir) = &resilience.checkpoint_dir {
        let path = checkpoint_path(dir, netlist.name(), fingerprint);
        stats.resumed_slots = load_checkpoint(&path, fingerprint, &faults, netlist, &mut slots);
        for done in slots.iter().flatten() {
            stats.retries += done.1 as u64;
        }
        // Rewrite the file from scratch (header + resumed slots) through
        // `atomic_replace` so a kill mid-rewrite can never destroy the
        // generation being resumed from, then reopen it for appending.
        let mut header = header_line(netlist.name(), total, fingerprint);
        for (i, done) in slots.iter().enumerate() {
            if let Some(done) = done {
                push_slot_line(&mut header, &mut sink.crc_buf, i, done);
            }
        }
        let opened = fs::create_dir_all(dir)
            .and_then(|()| atomic_replace(&path, header.as_bytes()))
            .and_then(|()| fs::OpenOptions::new().append(true).open(&path));
        match opened {
            Ok(file) => sink.file = Some(file),
            Err(_) => sink.broken = true,
        }
        stats.checkpoint = Some(path);
    }

    // Arm the watchdog once on the pristine simulator: every per-worker
    // and per-fault clone inherits the limit.
    if let Some(limit) = resilience.watchdog_cycles {
        pristine.set_cycle_limit(Some(limit));
    }
    // The bitsliced prototype is compiled after the watchdog is armed so
    // word runs trip the same deadline as scalar clones. Word runs that
    // decline, trip the golden-lane watchdog, or panic fall back to the
    // supervised scalar path slot by slot.
    let bits = crate::fault::bitsliced_enabled(config).then(|| {
        let mut proto = crate::bitsim::BitSimulator::new(netlist);
        proto.set_cycle_limit(pristine.cycle_limit());
        // Campaign words only read lane observations, never per-gate
        // toggle attribution.
        proto.set_toggle_tracking(false);
        proto
    });

    let started = Instant::now();
    let retries = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let failed = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let words_run = AtomicUsize::new(0);
    let lanes_filled = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let sink = Mutex::new(sink);
    // External cancellation folds into the same stop protocol as the
    // abort_after test hook: workers stop claiming, the sink flushes,
    // and the run reports Aborted with its checkpoint.
    let halted =
        || stop.load(Ordering::Relaxed) || cancel.is_some_and(|c| c.load(Ordering::Relaxed));

    // One slot, supervised: panics retried then degraded, watchdog trips
    // counted and folded back into the hang classification.
    let params = SlotParams {
        golden: &golden,
        budget,
        max_retries: resilience.max_retries,
        seed: config.seed,
    };
    let supervise = |worker_sim: &Simulator<'_>, index: usize, fault: Fault| -> SlotDone {
        match attempt_slot(worker_sim, workload, &params, fault, index) {
            Ok((run, attempts_used)) => {
                retries.fetch_add(attempts_used as u64, Ordering::Relaxed);
                (run, attempts_used)
            }
            Err(JobError::TimedOut { .. }) => {
                timeouts.fetch_add(1, Ordering::Relaxed);
                let cell = netlist.gates()[fault.gate.index()].kind;
                (FaultRun { fault, cell, outcome: Outcome::Hang }, 0)
            }
            Err(err) => {
                // Panicked (or, unreachable here, a checkpoint error):
                // degrade the slot, keep the campaign alive.
                if let JobError::Panicked { attempts, .. } = &err {
                    retries.fetch_add((attempts - 1) as u64, Ordering::Relaxed);
                }
                failed.fetch_add(1, Ordering::Relaxed);
                obs::trace_event(|| {
                    format!(
                        "{{\"type\":\"slot_failed\",\"design\":{},\"slot\":{index},\
                         \"error\":{}}}",
                        obs::json::escape(netlist.name()),
                        obs::json::escape(&err.to_string()),
                    )
                });
                let cell = netlist.gates()[fault.gate.index()].kind;
                (FaultRun { fault, cell, outcome: Outcome::Failed }, resilience.max_retries)
            }
        }
    };
    let record = |index: usize, done: &SlotDone| {
        sink.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(index, done);
        let n = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(256) {
            obs::trace_event(|| {
                format!(
                    "{{\"type\":\"campaign_progress\",\"design\":{},\
                     \"done\":{},\"total\":{total}}}",
                    obs::json::escape(netlist.name()),
                    stats.resumed_slots + n,
                )
            });
        }
        if let Some(limit) = resilience.abort_after {
            if n >= limit {
                stop.store(true, Ordering::Relaxed);
            }
        }
    };
    // Fills one chunk: word batches on the bitsliced engine (resume
    // holes packed together so words stay full), or slot-by-slot on the
    // scalar path. Either way every filled slot goes through `record`,
    // so checkpointing and abort accounting are engine-independent.
    let run_chunk = |worker_sim: &Simulator<'_>,
                     chunk_start: usize,
                     chunk_faults: &[Fault],
                     chunk_slots: &mut [Option<SlotDone>]| {
        let Some(proto) = &bits else {
            for (offset, (slot, &fault)) in chunk_slots.iter_mut().zip(chunk_faults).enumerate() {
                if slot.is_some() {
                    continue;
                }
                if halted() {
                    break;
                }
                let index = chunk_start + offset;
                let done = supervise(worker_sim, index, fault);
                record(index, &done);
                *slot = Some(done);
            }
            return;
        };
        let pending: Vec<usize> =
            (0..chunk_slots.len()).filter(|&o| chunk_slots[o].is_none()).collect();
        let mut at = 0usize;
        while at < pending.len() {
            if halted() {
                break;
            }
            let mut take = (pending.len() - at).min(crate::bitsim::BitSimulator::LANES - 1);
            if let Some(limit) = resilience.abort_after {
                // Cap the word so an abort request lands within a slot
                // of its limit instead of a whole word past it.
                let done_so_far = completed.load(Ordering::Relaxed);
                take = take.min(limit.saturating_sub(done_so_far).max(1));
            }
            let window = &pending[at..at + take];
            let word_faults: Vec<Fault> = window.iter().map(|&o| chunk_faults[o]).collect();
            let word = retry_panics(
                0,
                |_, _| {},
                |_| crate::fault::run_word(proto, workload, &golden, &word_faults, budget),
            );
            match word.ok().and_then(|(word, _)| word) {
                Some(lanes) => {
                    words_run.fetch_add(1, Ordering::Relaxed);
                    lanes_filled.fetch_add(take + 1, Ordering::Relaxed);
                    for (&offset, lane) in window.iter().zip(lanes) {
                        let fault = chunk_faults[offset];
                        let cell = netlist.gates()[fault.gate.index()].kind;
                        let outcome = match lane {
                            LaneOutcome::Done(observed) => {
                                crate::fault::classify(&golden, &observed)
                            }
                            LaneOutcome::TimedOut => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                                Outcome::Hang
                            }
                            // An oscillating lane wedges the circuit,
                            // like the scalar Unsettled error.
                            LaneOutcome::Wedged => Outcome::Hang,
                        };
                        let done = (FaultRun { fault, cell, outcome }, 0u32);
                        record(chunk_start + offset, &done);
                        chunk_slots[offset] = Some(done);
                    }
                }
                None => {
                    // Engine declined or panicked mid-word: rerun each
                    // slot on the scalar path with retries intact.
                    for &offset in window {
                        if halted() {
                            break;
                        }
                        let index = chunk_start + offset;
                        let done = supervise(worker_sim, index, chunk_faults[offset]);
                        record(index, &done);
                        chunk_slots[offset] = Some(done);
                    }
                }
            }
            at += take;
        }
    };

    let workers = threads.max(1).min(total.max(1));
    if workers <= 1 {
        let worker_sim = pristine.clone();
        run_chunk(&worker_sim, 0, &faults, &mut slots);
    } else {
        // Contiguous chunks, several per worker so a chunk of hangs does
        // not serialize the campaign behind one thread, each carrying its
        // global start index for checkpointing. Bitsliced chunks hold
        // whole 63-fault words, so parallelism never splinters a word
        // across workers.
        let chunk = if bits.is_some() {
            let lane_faults = crate::bitsim::BitSimulator::LANES - 1;
            total.div_ceil(lane_faults).div_ceil(workers * 4).max(1) * lane_faults
        } else {
            total.div_ceil(workers * 4).max(1)
        };
        /// One claimable unit of campaign work: the chunk's global start
        /// index (for checkpoint bookkeeping) plus its fault and result
        /// slot slices.
        type Chunk<'f, 's> = (usize, &'f [Fault], &'s mut [Option<SlotDone>]);
        let mut work: Vec<Chunk<'_, '_>> = Vec::new();
        let mut start = 0usize;
        let mut rest_faults: &[Fault] = &faults;
        let mut rest_slots: &mut [Option<SlotDone>] = &mut slots;
        while !rest_slots.is_empty() {
            let take = chunk.min(rest_slots.len());
            let (head_faults, tail_faults) = rest_faults.split_at(take);
            let (head_slots, tail_slots) = std::mem::take(&mut rest_slots).split_at_mut(take);
            work.push((start, head_faults, head_slots));
            start += take;
            rest_faults = tail_faults;
            rest_slots = tail_slots;
        }
        let queue = Mutex::new(work);
        std::thread::scope(|scope| {
            let queue = &queue;
            let pristine = &pristine;
            let run_chunk = &run_chunk;
            for worker in 0..workers {
                scope.spawn(move || {
                    // Each worker thread is one lane in the chrome
                    // trace; per-chunk spans make the claim/run cadence
                    // visible as a timeline.
                    obs::chrome::name_lane(&format!("campaign-worker-{worker}"));
                    let worker_sim = pristine.clone();
                    loop {
                        if halted() {
                            break;
                        }
                        let claimed =
                            queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop();
                        let Some((chunk_start, chunk_faults, chunk_slots)) = claimed else {
                            break;
                        };
                        let _chunk_span = obs::span!("netlist.fault.chunk");
                        run_chunk(&worker_sim, chunk_start, chunk_faults, chunk_slots);
                    }
                });
            }
        });
    }

    let mut sink = sink.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    sink.flush();
    stats.retries += retries.into_inner();
    stats.timeouts = timeouts.into_inner();
    stats.failed = failed.into_inner();
    stats.checkpoint_degraded = sink.broken;
    if obs::enabled() {
        let reg = obs::global();
        reg.add("resilience.retries", stats.retries);
        reg.add("resilience.timeouts", stats.timeouts);
        reg.add("resilience.resumed_slots", stats.resumed_slots as u64);
        reg.add("resilience.failed", stats.failed as u64);
    }

    if halted() && slots.iter().any(Option::is_none) {
        let done = slots.iter().filter(|s| s.is_some()).count();
        return Ok(SupervisedRun::Aborted { completed: done, total, checkpoint: stats.checkpoint });
    }

    let runs: Vec<FaultRun> = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every fault slot filled")).0)
        .collect();
    if obs::enabled() {
        let mut counts = OutcomeCounts::default();
        for run in &runs {
            counts.add(run.outcome);
        }
        let reg = obs::global();
        reg.add("netlist.fault.workers", workers as u64);
        reg.add("netlist.fault.runs", runs.len() as u64);
        reg.add("netlist.fault.masked", counts.masked as u64);
        reg.add("netlist.fault.detected", counts.detected as u64);
        reg.add("netlist.fault.hang", counts.hang as u64);
        reg.add("netlist.fault.sdc", counts.sdc as u64);
        let words = words_run.into_inner();
        if words > 0 {
            let lanes = lanes_filled.into_inner();
            reg.add("netlist.fault.bitsliced.words", words as u64);
            reg.add("netlist.fault.bitsliced.lanes", lanes as u64);
            reg.gauge(
                "netlist.fault.lane_utilization",
                lanes as f64 / (words * crate::bitsim::BitSimulator::LANES) as f64,
            );
        }
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 && !runs.is_empty() {
            reg.gauge("netlist.fault.runs_per_sec", runs.len() as f64 / secs);
            if words > 0 {
                reg.gauge("netlist.fault.bitsliced_runs_per_sec", runs.len() as f64 / secs);
            }
        }
    }
    if let Some(path) = &stats.checkpoint {
        // The campaign is complete; the checkpoint has served its
        // purpose. A failed delete is harmless — the header fingerprint
        // guards against stale reuse — so it is not worth degrading over.
        let _ = fs::remove_file(path);
    }
    Ok(SupervisedRun::Complete(SupervisedCampaign {
        result: CampaignResult {
            design: netlist.name().to_string(),
            gate_count: netlist.gate_count(),
            golden,
            runs,
        },
        fingerprint,
        stats,
    }))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::fault::{run_campaign_with_threads, PatternWorkload, StuckAtSpace};

    fn accumulator() -> Netlist {
        let mut b = NetlistBuilder::new("acc4");
        let inputs = b.input("in", 4);
        let acc = b.forward_bus(4);
        let cin = b.const0();
        let sum = crate::words::ripple_adder(&mut b, &acc, &inputs, cin);
        for (d, q) in sum.sum.iter().zip(&acc) {
            b.dff_into(*d, *q);
        }
        b.output("acc", acc);
        b.finish().unwrap()
    }

    fn config() -> CampaignConfig {
        CampaignConfig {
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 6,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn supervised_matches_plain_campaign_exactly() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let plain = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        for threads in [1, 4] {
            let supervised = run_supervised_campaign_with_threads(
                &nl,
                &workload,
                &config(),
                &ResilienceConfig::default(),
                threads,
            )
            .unwrap()
            .into_complete()
            .expect("no abort hook");
            assert_eq!(supervised.result, plain, "{threads} workers");
            assert_eq!(supervised.result.to_csv(), plain.to_csv());
            assert_eq!(supervised.stats.resumed_slots, 0);
            assert_eq!(supervised.stats.failed, 0);
            assert_eq!(supervised.stats.timeouts, 0);
        }
    }

    #[test]
    fn tight_watchdog_classifies_every_run_as_hang() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let resilience =
            ResilienceConfig { watchdog_cycles: Some(2), ..ResilienceConfig::default() };
        let supervised =
            run_supervised_campaign_with_threads(&nl, &workload, &config(), &resilience, 1)
                .unwrap()
                .into_complete()
                .unwrap();
        let counts = supervised.result.counts();
        assert_eq!(counts.hang, counts.total(), "2-cycle deadline hangs every 10-cycle run");
        assert_eq!(supervised.stats.timeouts, counts.total() as u64);
    }

    #[test]
    fn panicking_workload_degrades_to_failed_slots() {
        /// Panics whenever a specific gate's stuck-at fault is active
        /// (detected through the forced-low accumulator output), runs
        /// normally otherwise.
        struct Poisoned {
            inner: PatternWorkload,
        }
        impl Workload for Poisoned {
            fn run(
                &self,
                sim: Simulator<'_>,
                cycle_budget: u64,
            ) -> Result<crate::fault::Observation, crate::NetlistError> {
                if sim.has_faults() {
                    panic!("poisoned work item");
                }
                self.inner.run(sim, cycle_budget)
            }
        }
        let nl = accumulator();
        let workload = Poisoned { inner: PatternWorkload { cycles: 10, seed: 5 } };
        let cfg = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(4),
            seu_samples: 0,
            ..CampaignConfig::default()
        };
        let resilience = ResilienceConfig { max_retries: 1, ..ResilienceConfig::default() };
        let supervised = run_supervised_campaign_with_threads(&nl, &workload, &cfg, &resilience, 2)
            .unwrap()
            .into_complete()
            .unwrap();
        assert_eq!(supervised.stats.failed, 4, "every faulty run panics, campaign survives");
        assert_eq!(supervised.result.counts().failed, 4);
        assert_eq!(supervised.stats.retries, 4, "one retry per slot before degrading");
        assert!(supervised.result.to_csv().contains(",failed\n"));
    }

    #[test]
    fn abort_and_resume_reproduces_the_uninterrupted_csv() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let dir = std::env::temp_dir().join(format!("printed-ckpt-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let baseline = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        let total = baseline.runs.len();
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            abort_after: Some(total / 3),
            ..ResilienceConfig::default()
        };
        let aborted =
            run_supervised_campaign_with_threads(&nl, &workload, &config(), &resilience, 1)
                .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("abort hook must fire");
        };
        assert!(completed >= total / 3);
        let ckpt = checkpoint.expect("checkpointing was enabled");
        assert!(ckpt.exists(), "aborted run leaves its checkpoint behind");

        let resumed = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            ..ResilienceConfig::default()
        };
        let finished = run_supervised_campaign_with_threads(&nl, &workload, &config(), &resumed, 1)
            .unwrap()
            .into_complete()
            .expect("no abort hook on resume");
        assert!(finished.stats.resumed_slots >= total / 3, "resume skipped recorded slots");
        assert_eq!(finished.result, baseline);
        assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
        assert!(!ckpt.exists(), "checkpoint deleted on success");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scalar_checkpoint_resumes_into_a_bitsliced_run() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let dir = std::env::temp_dir().join(format!("printed-ckpt-engine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let scalar_cfg = CampaignConfig { bitsliced: false, ..config() };
        let baseline = run_campaign_with_threads(&nl, &workload, &scalar_cfg, 1).unwrap();
        let total = baseline.runs.len();
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            abort_after: Some(total / 3),
            ..ResilienceConfig::default()
        };
        let aborted =
            run_supervised_campaign_with_threads(&nl, &workload, &scalar_cfg, &resilience, 1)
                .unwrap();
        let SupervisedRun::Aborted { checkpoint, .. } = aborted else {
            panic!("abort hook must fire");
        };
        assert!(checkpoint.expect("checkpointing was enabled").exists());

        // The fingerprint ignores the engine choice, so a bitsliced run
        // picks up the scalar run's checkpoint and finishes it to the
        // same bytes.
        let bits_cfg = CampaignConfig { bitsliced: true, ..config() };
        let resumed = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            ..ResilienceConfig::default()
        };
        let finished = run_supervised_campaign_with_threads(&nl, &workload, &bits_cfg, &resumed, 1)
            .unwrap()
            .into_complete()
            .expect("no abort hook on resume");
        assert!(finished.stats.resumed_slots >= total / 3, "resume skipped recorded slots");
        assert_eq!(finished.result, baseline);
        assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoints_are_ignored() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let dir = std::env::temp_dir().join(format!("printed-ckpt-stale-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Fabricate a checkpoint with the right path but a wrong
        // fingerprint inside: it must be discarded, not resumed.
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, &config()).unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        fs::write(
            &path,
            header_line(nl.name(), faults.len(), fingerprint ^ 1)
                + "{\"type\":\"slot\",\"i\":0,\"o\":\"sdc\",\"r\":0}\n",
        )
        .unwrap();
        let resilience =
            ResilienceConfig { checkpoint_dir: Some(dir.clone()), ..ResilienceConfig::default() };
        let finished =
            run_supervised_campaign_with_threads(&nl, &workload, &config(), &resilience, 1)
                .unwrap()
                .into_complete()
                .unwrap();
        assert_eq!(finished.stats.resumed_slots, 0, "mismatched fingerprint loads nothing");
        let plain = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        assert_eq!(finished.result, plain);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_mid_file_checkpoint_recovers_to_the_last_valid_line() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, &config()).unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        let plain = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        // Six recorded slots; slot 3's outcome is flipped in place to a
        // *different valid outcome string* — still perfectly parsable
        // JSON, so only the CRC can catch it.
        let mut text = header_line(nl.name(), faults.len(), fingerprint);
        for i in 0..6 {
            if i == 3 {
                let honest = slot_line(i, &(plain.runs[i], 0));
                let lie = if honest.contains("\"o\":\"masked\"") {
                    honest.replace("\"o\":\"masked\"", "\"o\":\"sdc\"")
                } else {
                    honest.replace(
                        &format!("\"o\":\"{}\"", plain.runs[i].outcome),
                        "\"o\":\"masked\"",
                    )
                };
                text.push_str(&lie);
            } else {
                text.push_str(&slot_line(i, &(plain.runs[i], 0)));
            }
        }
        fs::write(&path, text).unwrap();
        let mut slots: Vec<Option<SlotDone>> = vec![None; faults.len()];
        let resumed = load_checkpoint(&path, fingerprint, &faults, &nl, &mut slots);
        assert_eq!(resumed, 3, "scan stops at the corrupted line, keeps the prefix");
        assert!(slots[2].is_some() && slots[3].is_none() && slots[4].is_none());

        // And a full resume over the corrupted file still reproduces
        // the uninterrupted CSV byte for byte.
        let resilience =
            ResilienceConfig { checkpoint_dir: Some(dir.clone()), ..ResilienceConfig::default() };
        let finished =
            run_supervised_campaign_with_threads(&nl, &workload, &config(), &resilience, 1)
                .unwrap()
                .into_complete()
                .unwrap();
        assert_eq!(finished.stats.resumed_slots, 3);
        assert_eq!(finished.result.to_csv(), plain.to_csv());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_round_trips_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!("printed-aw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quote.json");
        assert_eq!(read_checked(&path).unwrap(), None, "missing file reads as None");
        let payload = b"{\"quote\":{\"area_cm2\":1.25}}\n";
        atomic_write(&path, payload).unwrap();
        assert_eq!(read_checked(&path).unwrap().as_deref(), Some(&payload[..]));

        // Flip one payload byte: detected.
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_checked(&path), Err(JobError::Corrupt { .. })));

        // Truncate mid-payload: detected.
        atomic_write(&path, payload).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(read_checked(&path), Err(JobError::Corrupt { .. })));

        // Empty file: detected (shorter than the footer).
        fs::write(&path, b"").unwrap();
        assert!(matches!(read_checked(&path), Err(JobError::Corrupt { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_replace_ignores_and_overwrites_a_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("printed-ar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quote.json");
        let old = b"{\"quote\":\"old\"}\n";
        atomic_write(&path, old).unwrap();

        // A kill between write and rename leaves a torn `.tmp` sibling
        // beside the intact target.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, b"{\"quote\":\"ne").unwrap();
        assert_eq!(read_checked(&path).unwrap().as_deref(), Some(&old[..]), "tmp never read");

        // The next replace overwrites the leftover and lands whole.
        let new = b"{\"quote\":\"new, and longer than the torn write\"}\n";
        atomic_write(&path, new).unwrap();
        assert_eq!(read_checked(&path).unwrap().as_deref(), Some(&new[..]));
        assert!(!tmp.exists(), "the rename consumed the temp file");
        atomic_replace(&path, b"raw").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"raw");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_identity_is_stable_and_config_sensitive() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let base = campaign_identity(&nl, &workload, &config()).unwrap();
        // Stable across recomputation and across execution strategy.
        assert_eq!(base, campaign_identity(&nl, &workload, &config()).unwrap());
        let bits = CampaignConfig { bitsliced: !config().bitsliced, ..config() };
        assert_eq!(base, campaign_identity(&nl, &workload, &bits).unwrap());
        // Distinct across campaign parameters and workloads.
        let seeded = CampaignConfig { seed: config().seed + 1, ..config() };
        assert_ne!(base, campaign_identity(&nl, &workload, &seeded).unwrap());
        let more = CampaignConfig { seu_samples: 7, ..config() };
        assert_ne!(base, campaign_identity(&nl, &workload, &more).unwrap());
        let other_workload = PatternWorkload { cycles: 11, seed: 5 };
        assert_ne!(base, campaign_identity(&nl, &other_workload, &config()).unwrap());
    }

    #[test]
    fn supervised_campaign_carries_its_identity() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let done = run_supervised_campaign(&nl, &workload, &config(), &ResilienceConfig::default())
            .unwrap()
            .into_complete()
            .expect("no abort hook");
        assert_eq!(done.fingerprint, campaign_identity(&nl, &workload, &config()).unwrap());
    }

    #[test]
    fn external_cancel_aborts_with_a_resumable_checkpoint() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let dir = std::env::temp_dir().join(format!("printed-ckpt-cancel-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let baseline = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        let resilience = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 1,
            ..ResilienceConfig::default()
        };
        // Pre-cancelled: the run must abort immediately (no slots), flush
        // the checkpoint header, and report Aborted rather than hanging.
        let cancel = AtomicBool::new(true);
        let aborted = run_supervised_campaign_cancellable(
            &nl,
            &workload,
            &config(),
            &resilience,
            2,
            Some(&cancel),
        )
        .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("cancelled run must abort");
        };
        assert_eq!(completed, 0);
        assert!(checkpoint.expect("checkpointing was enabled").exists());

        // A fresh run with the flag clear resumes and matches byte for byte.
        let cancel = AtomicBool::new(false);
        let finished = run_supervised_campaign_cancellable(
            &nl,
            &workload,
            &config(),
            &resilience,
            2,
            Some(&cancel),
        )
        .unwrap()
        .into_complete()
        .expect("uncancelled run completes");
        assert_eq!(finished.result.to_csv(), baseline.to_csv());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_tail_is_tolerated() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, &config()).unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        // Two good slot lines, then a line cut mid-write.
        let plain = run_campaign_with_threads(&nl, &workload, &config(), 1).unwrap();
        let mut text = header_line(nl.name(), faults.len(), fingerprint);
        for i in 0..2 {
            text.push_str(&slot_line(i, &(plain.runs[i], 0)));
        }
        text.push_str("{\"type\":\"slot\",\"i\":2,\"o\":\"ma");
        fs::write(&path, text).unwrap();
        let mut slots: Vec<Option<SlotDone>> = vec![None; faults.len()];
        let resumed = load_checkpoint(&path, fingerprint, &faults, &nl, &mut slots);
        assert_eq!(resumed, 2, "valid prefix kept, truncated tail dropped");
        assert!(slots[2].is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
