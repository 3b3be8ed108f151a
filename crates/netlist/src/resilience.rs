//! The fault-campaign scheduler, with checkpoint/resume and panic
//! isolation for long-running campaigns.
//!
//! [`run_supervised_campaign`] is the only campaign scheduler in the
//! workspace: [`crate::fault::run_campaign`] is this runner with no
//! checkpoint and no cancel flag. It simulates one representative per
//! [`FaultClasses`] class — sampled spaces draw with replacement, so
//! slots repeat — and records the verdict into every member slot.
//! Results, statistics and a print-shop quote's `faults` all count
//! slots; the checkpoint records one line per class.
//!
//! The scheduler compiles the netlist for the bitsliced engine and runs
//! no golden-only word: word 0 carries the fault-free lane 0 and the
//! campaign's first 63 stuck-at classes, which need no golden to
//! enumerate (the stuck-at space draws from its own seeded stream, and
//! classes are numbered by first member, so they are a prefix of the
//! class list). Lane 0 of word 0 is the golden observation; the SEU
//! draw, the full class list, the faulty budget, the fingerprint and the
//! checkpoint follow from it, and word 0's fault lanes fill the classes
//! they carried that the checkpoint does not already hold. The scheduler
//! then fills words of 63 classes each, every word's lane 0 checked
//! against that golden. A word 0 that declines, panics or wedges lane 0
//! is retried as a golden-only word, and a cancel raised before the
//! campaign starts leaves word 0 no fault lanes. The scalar simulator is
//! built only when a word declines, panics or fails that check; before
//! its first use it reruns the golden on its own, and a campaign whose
//! engines disagree stops with [`CampaignError::GoldenMismatch`] (debug
//! builds compare the two goldens on every campaign). A workload with no
//! word path ([`crate::fault::ScalarOnly`]) runs its golden and every
//! fault on the scalar engine.
//!
//! Real reproduction sweeps run for minutes across many worker threads,
//! and fault-injection infrastructure must survive its own faults, so
//! the scheduler carries a resilience layer:
//!
//! - **Checkpoint/resume** — given a checkpoint directory (callers take
//!   it from the `PRINTED_CKPT_DIR` environment variable through
//!   [`checkpoint_dir`]), each completed class's verdict is recorded at
//!   its representative's slot index, appended every
//!   [`CHECKPOINT_EVERY`] lines to a JSON-lines checkpoint file. A rerun
//!   of the same campaign loads the checkpoint, skips the recorded
//!   classes, and — because slots are keyed by the deterministic fault
//!   enumeration order, not by scheduling — produces a byte-identical
//!   [`CampaignResult::to_csv`] to an uninterrupted run, for any thread
//!   count. A class with any recorded member takes that member's
//!   verdict on resume, without another run.
//! - **Cancellation** — a raised cancel flag stops the workers claiming
//!   new work; the checkpoint is flushed and the run reports
//!   [`SupervisedRun::Aborted`], so a rerun resumes it.
//! - **One bound per run** — the campaign's
//!   [`CampaignConfig::cycle_budget`] is the only limit on a fault run.
//!   Every [`Workload`] honours it on both engines, and a run still live
//!   when it runs out reports an uncompleted observation, classified as
//!   [`Outcome::Hang`]. The budget counts cycles, not wall-clock, so the
//!   verdict is deterministic, and [`campaign_identity`] hashes it, so a
//!   checkpoint never resumes under a different bound.
//! - **Panic isolation + retry** — each fault run executes under
//!   [`retry_panics`] with two retries and a deterministic decorrelated
//!   backoff (seeded from the campaign seed, the representative's slot
//!   index, and the attempt number). A class that keeps panicking
//!   degrades its slots to a recorded [`Outcome::Failed`] instead of
//!   aborting the campaign. [`retry_panics`] is the workspace's one
//!   `catch_unwind`; pipeline stages and print-shop jobs supervise
//!   through it too.
//!
//! Everything is instrumented through `printed-obs`: the
//! `netlist.fault.campaign` span, with children `netlist.fault.setup`
//! (the word compile, `FaultClasses::new`, the fingerprint),
//! `netlist.fault.golden` (word 0, its fault lanes included), and one
//! `netlist.fault.chunk` span per claimed chunk on `campaign-worker-<n>`
//! lanes; the classification counters
//! `netlist.fault.{workers,runs,classes,masked,detected,hang,sdc}`, the
//! golden runs taken as golden-only words `netlist.fault.golden_words`
//! and on the scalar engine `netlist.fault.golden_scalar`, the
//! bitsliced `netlist.fault.bitsliced.{words,lanes}` counters (word 0
//! counted) and
//! `netlist.fault.{lane_utilization,runs_per_sec}` gauges; and the
//! resilience counters `resilience.retries`, `resilience.resumed_slots`,
//! `resilience.failed` and `resilience.checkpoint_lines` (slot lines
//! written, the resume rewrite's included).
//!
//! # Checkpoint format
//!
//! A checkpoint is a record file: lines of the workspace's one
//! CRC-checked record format ([`push_record`]; DESIGN.md §10), which the
//! print shop's job journal shares, read back as their valid prefix by
//! [`read_records`] and rewritten through [`RecordLog`]. The first
//! record is a header binding the checkpoint to a campaign identity
//! fingerprint (netlist structure, campaign config, golden-run
//! observation); every further record is one completed class, at its
//! representative's slot index:
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
//! initial header+resumed-classes rewrite goes through [`atomic_replace`],
//! so a kill mid-rewrite can never destroy the previous checkpoint
//! generation. On successful completion the checkpoint file is deleted.
//! Older files with one line per member slot still load: any recorded
//! member fills its class, and the rewrite keeps one line per class.

use crate::fault::{
    enumerate_faults, faulty_budget, push_seu_faults, stuck_at_faults, CampaignConfig,
    CampaignError, CampaignResult, Fault, FaultClasses, FaultRun, LaneOutcome, Outcome,
    OutcomeCounts, Reference, StuckSites, Workload,
};
use crate::hash::Fnv1a;
use crate::ir::Netlist;
use crate::sim::Simulator;
use printed_obs as obs;
use printed_obs::json::Value;
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

/// Checkpoint lines — one per completed class — buffered between
/// flushes. Fewer lose less work to a kill; more do less I/O.
pub const CHECKPOINT_EVERY: usize = 64;

/// The campaign checkpoint directory, read from the `PRINTED_CKPT_DIR`
/// environment variable: the workspace's one reader of it. Unset or
/// empty means no checkpointing.
pub fn checkpoint_dir() -> Option<PathBuf> {
    std::env::var("PRINTED_CKPT_DIR")
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// What the resilience layer had to do during one supervised campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Slots restored from a checkpoint instead of re-simulated, every
    /// member slot of a resumed class counted.
    pub resumed_slots: usize,
    /// Retries spent on panicking fault runs, counted per slot: a
    /// class's retries count once for each member (including retry
    /// counts recorded in resumed checkpoint slots).
    pub retries: u64,
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
    /// The cancel flag was raised mid-campaign; progress up to here is
    /// in the checkpoint (when enabled) and a rerun resumes from it.
    Aborted {
        /// Slots filled before the abort, resumed ones included.
        completed: usize,
        /// Total slots in the campaign.
        total: usize,
        /// The checkpoint holding the completed slots, if enabled.
        checkpoint: Option<PathBuf>,
    },
}

/// Retries after a panicking fault run before its slots degrade to
/// [`Outcome::Failed`], so a class gets `SLOT_RETRIES + 1` attempts.
const SLOT_RETRIES: u32 = 2;

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
/// deliberately **excludes** execution strategy — thread count, and
/// whether the golden and the words run bitsliced or scalar (a
/// [`crate::fault::ScalarOnly`] workload shares its wrapped workload's
/// identity) — because those are byte-identical by construction, and it
/// contains no pointers, wall-clock, or per-process state, so it is
/// stable across processes. The golden run is one fault-free bitsliced
/// word where the workload has a word path, a scalar run otherwise: the
/// same observation the scheduler takes from lane 0 of its first word.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails.
pub fn campaign_identity<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
) -> Result<u64, JobError> {
    let golden = Reference::new(netlist, workload, config.cycle_budget, &[])?.0.golden;
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

/// The checkpoint's first record: the campaign it belongs to.
const HEADER: RecordKind =
    RecordKind { tag: "header", fields: &["design", "faults", "fingerprint"] };

/// One checkpointed class: its representative's slot index, outcome
/// and retry count.
const SLOT: RecordKind = RecordKind { tag: "slot", fields: &["i", "o", "r"] };

fn push_header(line: &mut String, design: &str, total_faults: usize, fingerprint: u64) {
    let fields = [Field::Str(design), Field::Int(total_faults as u64), Field::Hex(fingerprint)];
    push_record(line, &HEADER, &fields);
}

fn push_slot(line: &mut String, index: usize, done: &SlotDone) {
    let fields =
        [Field::Int(index as u64), Field::Str(done.0.outcome.name()), Field::Int(done.1.into())];
    push_record(line, &SLOT, &fields);
}

/// The CRC footer appended by [`atomic_write`]: `#crc32:` + 8 hex
/// digits + newline, 16 bytes total.
const CRC_FOOTER_LEN: usize = 16;

/// Replaces `path` with `bytes` atomically: the bytes go to a `.tmp`
/// sibling first, are synced to disk, and are renamed over `path` — a
/// kill at any point leaves either the old file or the new one, never a
/// torn mix. A `.tmp` left behind by a kill before the rename is never
/// read and is overwritten by the next replace. The one atomic-write
/// path of the workspace: [`atomic_write`] and [`RecordLog::create`]
/// (checkpoint rewrites, the print shop's journal compaction) go
/// through it.
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

/// The layout of one record type of a [record file](push_record): its
/// `"type"` tag and its field names, in the order its CRC covers them.
#[derive(Debug)]
pub struct RecordKind {
    /// The `"type"` value.
    pub tag: &'static str,
    /// Field names, in CRC order.
    pub fields: &'static [&'static str],
}

/// One field value of a record.
#[derive(Debug, Clone, Copy)]
pub enum Field<'a> {
    /// A string, JSON-escaped in the line.
    Str(&'a str),
    /// An unsigned integer, a bare JSON number.
    Int(u64),
    /// A 64-bit id, a string of 16 hex digits.
    Hex(u64),
}

/// Appends one record to `line`, allocating nothing once `line` has
/// grown: a JSON object on one line, the `"type"` tag first, then
/// `fields` under `kind`'s names, then `"c"`, the CRC-32 of
/// `tag|value|value…` over the raw values (strings unescaped, integers
/// in decimal, ids in hex), so formatting never enters the checksum.
/// This is the one record format of the workspace's append-only files,
/// the campaign checkpoint and the print shop's job journal:
///
/// ```text
/// {"type":"slot","i":17,"o":"sdc","r":2,"c":"5cb2ed51"}
/// ```
pub fn push_record(line: &mut String, kind: &RecordKind, fields: &[Field<'_>]) {
    debug_assert_eq!(kind.fields.len(), fields.len(), "{} fields", kind.tag);
    let _ = write!(line, "{{\"type\":\"{}\"", kind.tag);
    let mut crc = obs::crc::crc32_update(0, kind.tag.as_bytes());
    for (name, field) in kind.fields.iter().zip(fields) {
        let _ = write!(line, ",\"{name}\":");
        let start = line.len();
        let raw = match *field {
            Field::Str(s) => {
                obs::json::escape_into(line, s);
                s.as_bytes()
            }
            Field::Int(n) => {
                let _ = write!(line, "{n}");
                &line.as_bytes()[start..]
            }
            Field::Hex(n) => {
                let _ = write!(line, "\"{n:016x}\"");
                &line.as_bytes()[start + 1..line.len() - 1]
            }
        };
        crc = obs::crc::crc32_update(obs::crc::crc32_update(crc, b"|"), raw);
    }
    let _ = writeln!(line, ",\"c\":\"{crc:08x}\"}}");
}

/// A record [`read_records`] verified: its tag and its field values in
/// its kind's order, as the CRC covers them (integers in decimal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's `"type"` tag.
    pub tag: &'static str,
    /// Field values, in its kind's order.
    pub fields: Vec<String>,
}

/// The valid prefix of the record file at `path`: its records up to the
/// first line that does not parse, has a tag none of `kinds` names,
/// lacks a field, or fails its CRC — a torn tail or a flipped bit,
/// even one that still parses. Blank lines hold no record and are
/// skipped. A missing or unreadable file has no records. `kinds` gives
/// each tag's field order, which the parsed line (a sorted map) has
/// lost.
pub fn read_records(path: &Path, kinds: &[&RecordKind]) -> Vec<Record> {
    let Ok(text) = fs::read_to_string(path) else { return Vec::new() };
    let verified = |line: &str| -> Option<Record> {
        let value = obs::json::parse(line).ok()?;
        let tag = value.get("type")?.as_str()?;
        let kind = kinds.iter().find(|kind| kind.tag == tag)?;
        let mut crc = obs::crc::crc32_update(0, tag.as_bytes());
        let mut fields = Vec::with_capacity(kind.fields.len());
        for name in kind.fields {
            let field = match value.get(name)? {
                Value::String(s) => s.clone(),
                Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 => (*n as u64).to_string(),
                _ => return None,
            };
            crc = obs::crc::crc32_update(obs::crc::crc32_update(crc, b"|"), field.as_bytes());
            fields.push(field);
        }
        let recorded = u32::from_str_radix(value.get("c")?.as_str()?, 16).ok()?;
        (recorded == crc).then_some(Record { tag: kind.tag, fields })
    };
    text.lines().filter(|line| !line.trim().is_empty()).map_while(verified).collect()
}

/// An open record file, created or rewritten whole, then appended to.
#[derive(Debug)]
pub struct RecordLog {
    file: fs::File,
}

impl RecordLog {
    /// Replaces the file at `path` with `records` (lines from
    /// [`push_record`]) through [`atomic_replace`], creating its
    /// directory first, and opens it for appending.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the directory, the replace or the open.
    pub fn create(path: &Path, records: &[u8]) -> std::io::Result<RecordLog> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        atomic_replace(path, records)?;
        Ok(RecordLog { file: fs::OpenOptions::new().append(true).open(path)? })
    }

    /// Appends `records` in one unbuffered write: once it returns they
    /// are in the operating system, so they survive a killed process,
    /// though not a power loss.
    ///
    /// # Errors
    ///
    /// Returns the write's I/O error.
    pub fn append(&mut self, records: &[u8]) -> std::io::Result<()> {
        self.file.write_all(records)
    }
}

/// Loads the valid prefix of a checkpoint file into `slots`.
///
/// Missing file, or a first record that is not this campaign's header →
/// nothing loaded (the campaign starts fresh and overwrites it). The
/// slot records of the file's [valid prefix](read_records) load until
/// the first one that names no slot or outcome: resume recovers to the
/// last valid line instead of erroring. The rebuilt [`FaultRun`] comes
/// from the deterministic fault enumeration, so a checkpoint line only
/// needs the slot index, outcome, and retry count.
fn load_checkpoint(
    path: &Path,
    fingerprint: u64,
    faults: &[Fault],
    netlist: &Netlist,
    slots: &mut [Option<SlotDone>],
) -> usize {
    let mut records = read_records(path, &[&HEADER, &SLOT]).into_iter();
    let header =
        [netlist.name().to_string(), faults.len().to_string(), format!("{fingerprint:016x}")];
    if !records.next().is_some_and(|first| first.tag == HEADER.tag && first.fields == header) {
        return 0;
    }
    let mut resumed = 0;
    for record in records.take_while(|record| record.tag == SLOT.tag) {
        let [index, outcome, retries] = &record.fields[..] else { break };
        let (Ok(index), Some(outcome), Ok(retries)) =
            (index.parse::<usize>(), Outcome::parse(outcome), retries.parse::<u32>())
        else {
            break;
        };
        if index >= slots.len() {
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
/// the file every [`CHECKPOINT_EVERY`] lines. A
/// write failure flips `broken` and drops the file — the campaign
/// carries on without checkpointing rather than dying on a full disk.
#[derive(Default)]
struct CheckpointSink {
    log: Option<RecordLog>,
    buf: String,
    pending: usize,
    /// Slot lines written to the file so far, the resume rewrite's
    /// included.
    written: usize,
    broken: bool,
}

impl CheckpointSink {
    fn push(&mut self, index: usize, done: &SlotDone) {
        if self.log.is_none() {
            return;
        }
        push_slot(&mut self.buf, index, done);
        self.pending += 1;
        if self.pending >= CHECKPOINT_EVERY {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if let Some(log) = &mut self.log {
            if log.append(self.buf.as_bytes()).is_ok() {
                self.written += self.pending;
            } else {
                self.broken = true;
                self.log = None;
            }
        }
        self.buf.clear();
        self.pending = 0;
    }
}

/// Campaign-wide inputs every supervised slot shares: the golden
/// observation to classify against, the cycle budget, and the backoff
/// seed.
struct SlotParams<'a> {
    golden: &'a crate::fault::Observation,
    budget: u64,
    seed: u64,
}

/// Runs one fault slot under supervision: a run that keeps panicking
/// becomes a typed [`JobError::Panicked`] instead of killing the
/// worker.
fn attempt_slot<W: Workload + ?Sized>(
    pristine: &Simulator<'_>,
    workload: &W,
    params: &SlotParams<'_>,
    fault: Fault,
    index: usize,
) -> Result<SlotDone, JobError> {
    let SlotParams { golden, budget, seed } = *params;
    let cell = pristine.netlist().gates()[fault.gate.index()].kind;
    let run = retry_panics(
        SLOT_RETRIES,
        |attempt, _| backoff(seed, index, attempt),
        |_| crate::fault::observe(pristine, workload, Some(fault), budget),
    );
    match run {
        Ok((Ok(observed), attempts)) => {
            let outcome = crate::fault::classify(golden, &observed);
            Ok((FaultRun { fault, cell, outcome }, attempts - 1))
        }
        // A simulation failure (oscillation) wedges the circuit: a hang.
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

/// The campaign scheduler: runs every fault of the campaign on
/// `threads` workers under the resilience layer. With `checkpoint_dir`
/// set, completed slots are checkpointed there and a rerun resumes from
/// them; `None` means no I/O on the campaign path at all. When `cancel`
/// flips to `true` mid-campaign, workers stop claiming new work, the
/// checkpoint is flushed with everything completed so far, and the run
/// returns [`SupervisedRun::Aborted`] — the cooperative drain the
/// print-shop service uses for deadlines and graceful shutdown, so a
/// restart *resumes* the campaign instead of recomputing it.
///
/// The golden is lane 0 of word 0, which the calling thread runs with
/// the campaign's first 63 stuck-at classes in its other lanes (none
/// when `cancel` is already raised), before the SEU samples are drawn
/// and before the checkpoint opens. The checkpoint is bound to that
/// golden, so word 0's verdicts are recorded once it is open; a class
/// the checkpoint already holds keeps its recorded verdict.
///
/// Determinism: the fault list is enumerated once, in a fixed order, on
/// the calling thread. Results go into a slot vector indexed by that
/// order; workers claim contiguous chunks of disjoint `(faults, slots)`
/// pairs of the classes after word 0's from a shared queue and never
/// write outside their chunk. Every classification depends only on
/// (netlist, workload, fault, budget), so the merged result is identical
/// for any `threads`. One worker runs the same claim loop on the calling
/// thread and starts no thread.
/// Checkpoint resume fills slots with values computed by the same pure
/// function, so a resumed and an uninterrupted run agree byte-for-byte,
/// and retry backoff is seeded per (seed, slot, attempt), never from
/// time.
///
/// # Errors
///
/// Returns [`JobError::Campaign`] if the fault-free golden run fails —
/// without a golden reference nothing can be classified, so there is
/// nothing to degrade to — or if the scalar engine, on its first use,
/// disputes the word engine's golden ([`CampaignError::GoldenMismatch`];
/// the campaign's checkpoint is then deleted).
pub fn run_supervised_campaign<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
    checkpoint_dir: Option<&Path>,
    threads: usize,
    cancel: Option<&AtomicBool>,
) -> Result<SupervisedRun, JobError> {
    let _span = obs::span!("netlist.fault.campaign");
    let started = Instant::now();
    let lane_faults = crate::bitsim::BitSimulator::LANES - 1;
    // The stuck-at prefix of the fault list needs no golden run, and its
    // first classes are the campaign's first classes: classes are
    // numbered by first member, and no SEU slot joins a stuck-at class.
    // They ride in the first word beside the golden lane, unless the run
    // is cancelled before it starts.
    let setup = obs::span!("netlist.fault.setup");
    let mut sites = StuckSites::new(netlist, &crate::ir::FanoutMap::build(netlist));
    let mut faults = stuck_at_faults(netlist, config);
    let first: Vec<Fault> = if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
        Vec::new()
    } else {
        let stuck = FaultClasses::of_sites(&mut sites, &faults);
        stuck.representatives().iter().take(lane_faults).map(|&r| faults[r]).collect()
    };
    drop(setup);
    // The golden run — lane 0 of the first word — and the compiled word
    // prototype every word clones; the scalar simulator waits until a
    // word declines, panics or fails its lane-0 check.
    let (reference, first_lanes) = Reference::new(netlist, workload, config.cycle_budget, &first)?;
    let golden = &reference.golden;
    let setup = obs::span!("netlist.fault.setup");
    push_seu_faults(netlist, config, golden.cycles, &mut faults);
    let classes = FaultClasses::of_sites(&mut sites, &faults);
    debug_assert!(first.iter().zip(classes.representatives()).all(|(f, &r)| faults[r] == *f));
    let budget = faulty_budget(config.cycle_budget, golden.cycles);
    let total = faults.len();
    let fingerprint = campaign_fingerprint(netlist, config, golden, total);
    drop(setup);

    let mut stats = ResilienceStats::default();
    let mut slots: Vec<Option<SlotDone>> = vec![None; total];
    // A member slot takes its class's verdict and retry count.
    let member_done = |slot: usize, done: &SlotDone| -> SlotDone {
        let fault = faults[slot];
        let cell = netlist.gates()[fault.gate.index()].kind;
        (FaultRun { fault, cell, outcome: done.0.outcome }, done.1)
    };

    // Checkpoint setup: load whatever a previous run left, then rewrite
    // the file from scratch (header + resumed classes). Rewriting heals a
    // truncated tail once instead of parsing around it forever.
    let mut sink = CheckpointSink::default();
    if let Some(dir) = checkpoint_dir {
        let path = checkpoint_path(dir, netlist.name(), fingerprint);
        load_checkpoint(&path, fingerprint, &faults, netlist, &mut slots);
        // A class with one recorded member needs no run: its other
        // members take that member's verdict.
        for class in 0..classes.len() {
            let members = classes.members(class);
            if let Some(done) = members.iter().find_map(|&slot| slots[slot]) {
                for &slot in members {
                    slots[slot].get_or_insert_with(|| member_done(slot, &done));
                }
            }
        }
        for done in slots.iter().flatten() {
            stats.resumed_slots += 1;
            stats.retries += done.1 as u64;
        }
        // The rewrite holds the header and one line per resumed class,
        // at its representative; `RecordLog::create` replaces the file
        // atomically, so a kill mid-rewrite can never destroy the
        // generation being resumed from.
        let mut text = String::new();
        push_header(&mut text, netlist.name(), total, fingerprint);
        let mut lines = 0;
        for &rep in classes.representatives() {
            if let Some(done) = &slots[rep] {
                push_slot(&mut text, rep, done);
                lines += 1;
            }
        }
        match RecordLog::create(&path, text.as_bytes()) {
            Ok(log) => {
                sink.log = Some(log);
                sink.written = lines;
            }
            Err(_) => sink.broken = true,
        }
        stats.checkpoint = Some(path);
    }

    // The work list: one fault per class, its representative's, and one
    // result per class, already filled when the checkpoint held it.
    let class_faults: Vec<Fault> = classes.representatives().iter().map(|&r| faults[r]).collect();
    let mut class_slots: Vec<Option<SlotDone>> =
        classes.representatives().iter().map(|&r| slots[r]).collect();

    let retries = AtomicU64::new(0);
    let failed = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let words_run = AtomicUsize::new(0);
    let lanes_filled = AtomicUsize::new(0);
    let sink = Mutex::new(sink);
    // Raised when the scalar engine, on its first use, disputes the word
    // engine's golden run: the campaign stops and reports the mismatch.
    let mismatch = AtomicBool::new(false);
    // The one stop signal: once the cancel flag is raised (or the engines
    // disagree), workers stop claiming, the sink flushes, and the run
    // reports Aborted with its checkpoint.
    let halted =
        || mismatch.load(Ordering::Relaxed) || cancel.is_some_and(|c| c.load(Ordering::Relaxed));

    // One class, supervised on the scalar engine: panics retried then
    // degraded. `None` when the scalar engine disputes the golden run.
    let params = SlotParams { golden, budget, seed: config.seed };
    let supervise = |class: usize, fault: Fault| -> Option<SlotDone> {
        let Some(pristine) = reference.scalar(workload) else {
            mismatch.store(true, Ordering::Relaxed);
            return None;
        };
        let slot = classes.representatives()[class];
        let done = attempt_slot(pristine, workload, &params, fault, slot).unwrap_or_else(|err| {
            // Panicked on every attempt: degrade the class, keep the
            // campaign alive.
            obs::trace_event(|| {
                format!(
                    "{{\"type\":\"slot_failed\",\"design\":{},\"slot\":{slot},\
                     \"error\":{}}}",
                    obs::json::escape(netlist.name()),
                    obs::json::escape(&err.to_string()),
                )
            });
            let cell = netlist.gates()[fault.gate.index()].kind;
            (FaultRun { fault, cell, outcome: Outcome::Failed }, SLOT_RETRIES)
        });
        Some(done)
    };
    // Records a class's verdict: one checkpoint line at its
    // representative's slot, which resume expands to every member, while
    // retry and failure counts and progress count member slots, exactly
    // as if each member had been simulated.
    let record = |class: usize, done: &SlotDone| {
        sink.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(classes.representatives()[class], done);
        let filled = classes.members(class).len();
        retries.fetch_add(u64::from(done.1) * filled as u64, Ordering::Relaxed);
        if done.0.outcome == Outcome::Failed {
            failed.fetch_add(filled, Ordering::Relaxed);
        }
        let n = completed.fetch_add(filled, Ordering::Relaxed) + filled;
        if (n - filled) / 256 != n / 256 {
            obs::trace_event(|| {
                format!(
                    "{{\"type\":\"campaign_progress\",\"design\":{},\
                     \"done\":{},\"total\":{total}}}",
                    obs::json::escape(netlist.name()),
                    stats.resumed_slots + n,
                )
            });
        }
    };
    // One bitsliced lane's verdict for the fault it carried.
    let lane_done = |fault: Fault, lane: LaneOutcome| -> SlotDone {
        let cell = netlist.gates()[fault.gate.index()].kind;
        let outcome = match lane {
            LaneOutcome::Done(observed) => crate::fault::classify(golden, &observed),
            // An oscillating lane wedges the circuit, like the scalar
            // Unsettled error.
            LaneOutcome::Wedged => Outcome::Hang,
        };
        (FaultRun { fault, cell, outcome }, 0)
    };
    // The first word's fault lanes fill the classes they carried, all but
    // those the checkpoint already held; the rest of the classes go to
    // the workers.
    let word_zero = first_lanes.as_ref().map_or(0, Vec::len);
    if let Some(lanes) = first_lanes {
        words_run.fetch_add(1, Ordering::Relaxed);
        lanes_filled.fetch_add(word_zero + 1, Ordering::Relaxed);
        for ((class, lane), slot) in lanes.into_iter().enumerate().zip(&mut class_slots) {
            if slot.is_none() {
                let done = lane_done(class_faults[class], lane);
                record(class, &done);
                *slot = Some(done);
            }
        }
    }
    // Fills one chunk of classes in word batches (resume holes packed
    // together so words stay full); a declined word reruns class by
    // class on the scalar path. Either way every filled class goes
    // through `record`, so checkpointing is engine-independent.
    let run_chunk =
        |chunk_start: usize, chunk_faults: &[Fault], chunk_slots: &mut [Option<SlotDone>]| {
            let pending: Vec<usize> =
                (0..chunk_slots.len()).filter(|&o| chunk_slots[o].is_none()).collect();
            let mut at = 0usize;
            while at < pending.len() {
                if halted() {
                    break;
                }
                let take = (pending.len() - at).min(lane_faults);
                let window = &pending[at..at + take];
                let word_faults: Vec<Fault> = window.iter().map(|&o| chunk_faults[o]).collect();
                let word = retry_panics(
                    0,
                    |_, _| {},
                    |_| {
                        let proto = &reference.proto;
                        crate::fault::run_word(
                            proto,
                            workload,
                            golden,
                            &word_faults,
                            config.cycle_budget,
                        )
                    },
                );
                match word.ok().and_then(|(word, _)| word) {
                    Some(lanes) => {
                        words_run.fetch_add(1, Ordering::Relaxed);
                        lanes_filled.fetch_add(take + 1, Ordering::Relaxed);
                        for (&offset, lane) in window.iter().zip(lanes) {
                            let done = lane_done(chunk_faults[offset], lane);
                            record(chunk_start + offset, &done);
                            chunk_slots[offset] = Some(done);
                        }
                    }
                    None => {
                        // Engine declined or panicked mid-word: rerun each
                        // class on the scalar path with retries intact.
                        for &offset in window {
                            if halted() {
                                break;
                            }
                            let class = chunk_start + offset;
                            let Some(done) = supervise(class, chunk_faults[offset]) else {
                                break;
                            };
                            record(class, &done);
                            chunk_slots[offset] = Some(done);
                        }
                    }
                }
                at += take;
            }
        };

    // Contiguous chunks of the classes after the first word's, several
    // per worker so a chunk of hangs does not serialize the campaign
    // behind one thread, each carrying its first class index and claimed
    // in class order. Chunks hold whole 63-class words, so parallelism
    // never splinters a word across workers.
    let rest = classes.len() - word_zero;
    let workers = threads.max(1).min(rest.max(1));
    let chunk = rest.div_ceil(lane_faults).div_ceil(workers * 4).max(1) * lane_faults;
    let queue = Mutex::new(
        class_faults[word_zero..]
            .chunks(chunk)
            .zip(class_slots[word_zero..].chunks_mut(chunk))
            .enumerate()
            .map(|(i, (chunk_faults, chunk_slots))| {
                (word_zero + i * chunk, chunk_faults, chunk_slots)
            }),
    );
    // The one worker loop: claim a chunk, fill it, until the queue is
    // empty or the campaign is cancelled.
    let work = || loop {
        if halted() {
            break;
        }
        let claimed = queue.lock().unwrap_or_else(std::sync::PoisonError::into_inner).next();
        let Some((chunk_start, chunk_faults, chunk_slots)) = claimed else { break };
        let _chunk_span = obs::span!("netlist.fault.chunk");
        run_chunk(chunk_start, chunk_faults, chunk_slots);
    };
    if workers == 1 {
        // One worker runs on the calling thread and starts no thread.
        work();
    } else {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let work = &work;
                scope.spawn(move || {
                    // Each worker thread is one lane in the chrome
                    // trace; per-chunk spans make the claim/run cadence
                    // visible as a timeline.
                    obs::chrome::name_lane(&format!("campaign-worker-{worker}"));
                    work();
                });
            }
        });
    }

    let mut sink = sink.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    sink.flush();
    stats.retries += retries.into_inner();
    stats.failed = failed.into_inner();
    stats.checkpoint_degraded = sink.broken;
    if obs::enabled() {
        let reg = obs::global();
        reg.add("resilience.retries", stats.retries);
        reg.add("resilience.resumed_slots", stats.resumed_slots as u64);
        reg.add("resilience.failed", stats.failed as u64);
        reg.add("resilience.checkpoint_lines", sink.written as u64);
    }

    // Expand each newly run class into its member slots.
    for (class, done) in class_slots.iter().enumerate() {
        if let Some(done) = done {
            for &slot in classes.members(class) {
                slots[slot].get_or_insert_with(|| member_done(slot, done));
            }
        }
    }
    if mismatch.load(Ordering::Relaxed) {
        // Every verdict so far was classified against a golden run the
        // scalar engine disputes: none of them may be resumed.
        if let Some(path) = &stats.checkpoint {
            let _ = fs::remove_file(path);
        }
        return Err(JobError::Campaign(CampaignError::GoldenMismatch));
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
        reg.add("netlist.fault.classes", classes.len() as u64);
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
            golden: reference.golden,
            runs,
            classes: classes.len(),
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
    use crate::fault::{run_campaign, PatternWorkload, ScalarOnly, StuckAtSpace};

    fn header_line(design: &str, total_faults: usize, fingerprint: u64) -> String {
        let mut line = String::new();
        push_header(&mut line, design, total_faults, fingerprint);
        line
    }

    fn slot_line(index: usize, done: &SlotDone) -> String {
        let mut line = String::new();
        push_slot(&mut line, index, done);
        line
    }

    #[test]
    fn checkpoint_records_keep_their_bytes() {
        // Checkpoints already on disk hold exactly these bytes, so the
        // encoders must keep writing them.
        let header = r#"{"type":"header","design":"p1_4_2","faults":1142,"fingerprint":"9f2c5a1e0b7d3c48","c":"7e3183f4"}"#;
        assert_eq!(header_line("p1_4_2", 1142, 0x9f2c_5a1e_0b7d_3c48), format!("{header}\n"));
        let fault = Fault { gate: crate::ir::GateId(3), kind: crate::fault::FaultKind::StuckAt1 };
        let cell = printed_pdk::CellKind::Nand2;
        let run = FaultRun { fault, cell, outcome: Outcome::SilentDataCorruption };
        let slot = r#"{"type":"slot","i":17,"o":"sdc","r":2,"c":"5cb2ed51"}"#;
        assert_eq!(slot_line(17, &(run, 2)), format!("{slot}\n"));
    }

    #[test]
    fn record_files_round_trip_and_stop_at_unknown_tags() {
        let dir = std::env::temp_dir().join(format!("printed-records-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("log.jsonl");
        let mut text = String::new();
        push_record(&mut text, &HEADER, &[Field::Str("a\"b"), Field::Int(3), Field::Hex(0xab)]);
        let mut log = RecordLog::create(&path, text.as_bytes()).unwrap();
        text.clear();
        push_record(&mut text, &SLOT, &[Field::Int(0), Field::Str("masked"), Field::Int(0)]);
        log.append(text.as_bytes()).unwrap();
        let header = Record {
            tag: "header",
            fields: vec!["a\"b".into(), "3".into(), "00000000000000ab".into()],
        };
        let slot = Record { tag: "slot", fields: vec!["0".into(), "masked".into(), "0".into()] };
        assert_eq!(read_records(&path, &[&HEADER, &SLOT]), [header, slot]);
        // A tag outside `kinds` ends the prefix at once.
        assert_eq!(read_records(&path, &[&SLOT]), []);
        assert_eq!(read_records(&dir.join("missing"), &[&SLOT]), []);
        let _ = fs::remove_dir_all(&dir);
    }

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

    /// The completed campaign of a run that must not abort.
    fn complete(run: Result<SupervisedRun, JobError>) -> SupervisedCampaign {
        match run.unwrap() {
            SupervisedRun::Complete(done) => done,
            SupervisedRun::Aborted { completed, .. } => panic!("aborted after {completed} slots"),
        }
    }

    /// A workload that raises its cancel flag on its `after`-th run,
    /// counting scalar runs (the golden run first) and bitsliced words
    /// the wrapped workload ran, so a test interrupts a campaign at a
    /// deterministic point. Pass `Some(&w.cancel)` to the scheduler.
    struct CancelAfter<'a, W: ?Sized> {
        inner: &'a W,
        after: usize,
        calls: AtomicUsize,
        cancel: AtomicBool,
    }

    impl<'a, W: Workload + ?Sized> CancelAfter<'a, W> {
        fn new(inner: &'a W, after: usize) -> Self {
            CancelAfter { inner, after, calls: AtomicUsize::new(0), cancel: AtomicBool::new(false) }
        }

        fn tick(&self) {
            if self.calls.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
                self.cancel.store(true, Ordering::Relaxed);
            }
        }
    }

    impl<W: Workload + ?Sized> Workload for CancelAfter<'_, W> {
        fn run(
            &self,
            sim: Simulator<'_>,
            cycle_budget: u64,
        ) -> Result<crate::fault::Observation, crate::NetlistError> {
            self.tick();
            self.inner.run(sim, cycle_budget)
        }

        fn run_bitsliced(
            &self,
            sim: crate::bitsim::BitSimulator<'_>,
            cycle_budget: u64,
        ) -> Option<Result<Vec<LaneOutcome>, crate::NetlistError>> {
            let lanes = self.inner.run_bitsliced(sim, cycle_budget)?;
            self.tick();
            Some(lanes)
        }
    }

    #[test]
    fn supervised_matches_plain_campaign_exactly() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
        for threads in [1, 4] {
            let supervised =
                complete(run_supervised_campaign(&nl, &workload, &config(), None, threads, None));
            assert_eq!(supervised.result, plain, "{threads} workers");
            assert_eq!(supervised.result.to_csv(), plain.to_csv());
            assert_eq!(supervised.stats.resumed_slots, 0);
            assert_eq!(supervised.stats.failed, 0);
        }
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
        let supervised = complete(run_supervised_campaign(&nl, &workload, &cfg, None, 2, None));
        assert_eq!(supervised.stats.failed, 4, "every faulty run panics, campaign survives");
        assert_eq!(supervised.result.counts().failed, 4);
        assert_eq!(
            supervised.stats.retries,
            4 * u64::from(SLOT_RETRIES),
            "two retries per slot before degrading"
        );
        assert!(supervised.result.to_csv().contains(",failed\n"));
    }

    #[test]
    fn abort_and_resume_reproduces_the_uninterrupted_csv() {
        // The accumulator's classes fill one word, so the campaign is
        // interrupted between the scalar engine's runs.
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let scalar = ScalarOnly(&workload);
        let baseline = run_campaign(&nl, &scalar, &config(), 1).unwrap();
        let total = baseline.runs.len();
        for threads in [1, 4] {
            let dir = std::env::temp_dir()
                .join(format!("printed-ckpt-test-{}-t{threads}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            // The golden run, then a third of the slots' runs.
            let interrupted = CancelAfter::new(&scalar, 1 + total / 3);
            let aborted = run_supervised_campaign(
                &nl,
                &interrupted,
                &config(),
                Some(&dir),
                threads,
                Some(&interrupted.cancel),
            )
            .unwrap();
            let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
                panic!("{threads} workers: the cancel flag must interrupt the campaign");
            };
            assert!(completed >= total / 3 && completed < total, "{completed} of {total}");
            let ckpt = checkpoint.expect("checkpointing was enabled");
            assert!(ckpt.exists(), "aborted run leaves its checkpoint behind");

            let finished = complete(run_supervised_campaign(
                &nl,
                &scalar,
                &config(),
                Some(&dir),
                threads,
                None,
            ));
            assert_eq!(finished.stats.resumed_slots, completed, "resume skipped recorded slots");
            assert_eq!(finished.result, baseline);
            assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
            assert!(!ckpt.exists(), "checkpoint deleted on success");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn first_word_verdicts_are_checkpointed_before_a_cancel() {
        // The first word carries the golden lane and the accumulator's
        // stuck-at classes (fewer than 63); a cancel raised as it returns
        // stops the campaign before the SEU word, and the stuck-at
        // verdicts are already in the checkpoint.
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let baseline = run_campaign(&nl, &workload, &config(), 1).unwrap();
        let stuck = stuck_at_faults(&nl, &config());
        let stuck_classes = FaultClasses::new(&nl, &crate::ir::FanoutMap::build(&nl), &stuck);
        assert!(stuck_classes.len() < crate::bitsim::BitSimulator::LANES);
        let dir = std::env::temp_dir().join(format!("printed-ckpt-first-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let interrupted = CancelAfter::new(&workload, 1);
        let aborted = run_supervised_campaign(
            &nl,
            &interrupted,
            &config(),
            Some(&dir),
            1,
            Some(&interrupted.cancel),
        )
        .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("the cancel flag must interrupt the campaign");
        };
        assert_eq!(completed, stuck.len(), "every stuck-at slot, no SEU slot");
        let ckpt = checkpoint.expect("checkpointing was enabled");
        let lines = fs::read_to_string(&ckpt).unwrap().lines().count();
        assert_eq!(lines, 1 + stuck_classes.len(), "a header plus one line per stuck-at class");

        let finished =
            complete(run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, completed, "resume skipped recorded slots");
        assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scalar_checkpoint_resumes_into_a_bitsliced_run() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let scalar = ScalarOnly(&workload);
        let dir = std::env::temp_dir().join(format!("printed-ckpt-engine-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let baseline = run_campaign(&nl, &scalar, &config(), 1).unwrap();
        let total = baseline.runs.len();
        let interrupted = CancelAfter::new(&scalar, 1 + total / 3);
        let aborted = run_supervised_campaign(
            &nl,
            &interrupted,
            &config(),
            Some(&dir),
            1,
            Some(&interrupted.cancel),
        )
        .unwrap();
        let SupervisedRun::Aborted { checkpoint, .. } = aborted else {
            panic!("the cancel flag must interrupt the campaign");
        };
        assert!(checkpoint.expect("checkpointing was enabled").exists());

        // The fingerprint ignores which engine classified a slot, so a
        // plain run picks up the scalar run's checkpoint and finishes it
        // to the same bytes.
        let finished =
            complete(run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, None));
        assert!(finished.stats.resumed_slots >= total / 3, "resume skipped recorded slots");
        assert_eq!(finished.result, baseline);
        assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn engines_disputing_the_golden_stop_the_campaign() {
        /// Runs its golden word on the bitsliced engine but declines
        /// every fault word, so the campaign needs the scalar engine,
        /// whose golden run differs from the word's. Debug builds compare
        /// the two goldens once before the campaign starts; that first
        /// scalar run still agrees.
        struct Drifting {
            inner: PatternWorkload,
            calls: AtomicUsize,
        }
        impl Workload for Drifting {
            fn run(
                &self,
                sim: Simulator<'_>,
                cycle_budget: u64,
            ) -> Result<crate::fault::Observation, crate::NetlistError> {
                let mut observed = self.inner.run(sim, cycle_budget)?;
                if self.calls.fetch_add(1, Ordering::Relaxed) >= usize::from(cfg!(debug_assertions))
                {
                    observed.signature.push(1);
                }
                Ok(observed)
            }

            fn run_bitsliced(
                &self,
                sim: crate::bitsim::BitSimulator<'_>,
                cycle_budget: u64,
            ) -> Option<Result<Vec<LaneOutcome>, crate::NetlistError>> {
                if sim.lane_count() > 1 {
                    return None;
                }
                self.inner.run_bitsliced(sim, cycle_budget)
            }
        }
        let nl = accumulator();
        let workload =
            Drifting { inner: PatternWorkload { cycles: 10, seed: 5 }, calls: AtomicUsize::new(0) };
        let dir =
            std::env::temp_dir().join(format!("printed-ckpt-mismatch-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let run = run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 2, None);
        assert_eq!(run, Err(JobError::Campaign(CampaignError::GoldenMismatch)));
        let left: Vec<_> = fs::read_dir(&dir).map(|d| d.flatten().collect()).unwrap_or_default();
        assert!(left.is_empty(), "no checkpoint of disputed verdicts survives: {left:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_checkpoint_dir_degrades_and_completes() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let root = std::env::temp_dir().join(format!("printed-ckpt-file-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        // A regular file where the checkpoint directory's parent should
        // be, so `create_dir_all` fails.
        let file = root.join("not-a-directory");
        fs::write(&file, b"").unwrap();
        let done = complete(run_supervised_campaign(
            &nl,
            &workload,
            &config(),
            Some(&file.join("ckpt")),
            1,
            None,
        ));
        assert!(done.stats.checkpoint_degraded, "the failed checkpoint is reported");
        assert_eq!(done.stats.resumed_slots, 0);
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
        assert_eq!(done.result.to_csv(), plain.to_csv(), "byte-identical CSV");
        let _ = fs::remove_dir_all(&root);
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
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, config().cycle_budget)
                .unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        fs::write(
            &path,
            header_line(nl.name(), faults.len(), fingerprint ^ 1)
                + "{\"type\":\"slot\",\"i\":0,\"o\":\"sdc\",\"r\":0}\n",
        )
        .unwrap();
        let finished =
            complete(run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, 0, "mismatched fingerprint loads nothing");
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
        assert_eq!(finished.result, plain);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_mid_file_checkpoint_recovers_to_the_last_valid_line() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, config().cycle_budget)
                .unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
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
        let finished =
            complete(run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, 3);
        assert_eq!(finished.result.to_csv(), plain.to_csv());

        // A file in the older layout, one line per member slot of the
        // first half of the classes, loads too. A pre-cancelled run stops
        // right after the rewrite, which keeps one line per class.
        let classes = FaultClasses::new(&nl, &crate::ir::FanoutMap::build(&nl), &faults);
        let half = classes.len() / 2;
        let recorded: Vec<usize> = (0..half).flat_map(|c| classes.members(c).to_vec()).collect();
        assert!(recorded.len() > half, "some of the first classes share slots");
        let mut text = header_line(nl.name(), faults.len(), fingerprint);
        for &slot in &recorded {
            text.push_str(&slot_line(slot, &(plain.runs[slot], 0)));
        }
        fs::write(&path, text).unwrap();
        let cancel = AtomicBool::new(true);
        let aborted =
            run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, Some(&cancel))
                .unwrap();
        let SupervisedRun::Aborted { completed, .. } = aborted else {
            panic!("cancelled run must abort");
        };
        assert_eq!(completed, recorded.len());
        let rewritten = fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten.lines().count(), 1 + half, "a header plus one line per class");
        let finished =
            complete(run_supervised_campaign(&nl, &workload, &config(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, completed);
        assert_eq!(finished.result.to_csv(), plain.to_csv(), "byte-identical CSV");
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
        assert_eq!(base, campaign_identity(&nl, &ScalarOnly(&workload), &config()).unwrap());
        // Distinct across campaign parameters and workloads. The budget
        // is the one bound on a run, so a checkpoint never resumes under
        // another: 100 still covers the 10-cycle golden run and its
        // 48-cycle faulty budget, so only the hash can tell it apart.
        let seeded = CampaignConfig { seed: config().seed + 1, ..config() };
        assert_ne!(base, campaign_identity(&nl, &workload, &seeded).unwrap());
        let more = CampaignConfig { seu_samples: 7, ..config() };
        assert_ne!(base, campaign_identity(&nl, &workload, &more).unwrap());
        let budget = CampaignConfig { cycle_budget: 100, ..config() };
        assert_ne!(base, campaign_identity(&nl, &workload, &budget).unwrap());
        for stuck_at in [StuckAtSpace::Sampled(2 * nl.gate_count()), StuckAtSpace::None] {
            let space = CampaignConfig { stuck_at, ..config() };
            assert_ne!(base, campaign_identity(&nl, &workload, &space).unwrap(), "{stuck_at:?}");
        }
        let other_workload = PatternWorkload { cycles: 11, seed: 5 };
        assert_ne!(base, campaign_identity(&nl, &other_workload, &config()).unwrap());
    }

    #[test]
    fn supervised_campaign_carries_its_identity() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let done = complete(run_supervised_campaign(&nl, &workload, &config(), None, 1, None));
        assert_eq!(done.fingerprint, campaign_identity(&nl, &workload, &config()).unwrap());
    }

    #[test]
    fn external_cancel_aborts_with_a_resumable_checkpoint() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let dir = std::env::temp_dir().join(format!("printed-ckpt-cancel-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let baseline = run_campaign(&nl, &workload, &config(), 1).unwrap();
        /// Counts the fault lanes of the words it runs.
        struct FaultLanes<'a> {
            inner: &'a PatternWorkload,
            lanes: AtomicUsize,
        }
        impl Workload for FaultLanes<'_> {
            fn run(
                &self,
                sim: Simulator<'_>,
                cycle_budget: u64,
            ) -> Result<crate::fault::Observation, crate::NetlistError> {
                self.inner.run(sim, cycle_budget)
            }

            fn run_bitsliced(
                &self,
                sim: crate::bitsim::BitSimulator<'_>,
                cycle_budget: u64,
            ) -> Option<Result<Vec<LaneOutcome>, crate::NetlistError>> {
                self.lanes.fetch_add(sim.lane_count() - 1, Ordering::Relaxed);
                self.inner.run_bitsliced(sim, cycle_budget)
            }
        }
        // Pre-cancelled: the run must abort immediately (no slots, its
        // golden word carrying no fault lane), flush the checkpoint
        // header, and report Aborted rather than hanging.
        let counted = FaultLanes { inner: &workload, lanes: AtomicUsize::new(0) };
        let cancel = AtomicBool::new(true);
        let aborted =
            run_supervised_campaign(&nl, &counted, &config(), Some(&dir), 2, Some(&cancel))
                .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("cancelled run must abort");
        };
        assert_eq!(completed, 0);
        assert_eq!(counted.lanes.into_inner(), 0, "no fault lane simulated");
        assert!(checkpoint.expect("checkpointing was enabled").exists());

        // A fresh run with the flag clear resumes and matches byte for byte.
        let cancel = AtomicBool::new(false);
        let finished = complete(run_supervised_campaign(
            &nl,
            &workload,
            &config(),
            Some(&dir),
            2,
            Some(&cancel),
        ));
        assert_eq!(finished.result.to_csv(), baseline.to_csv());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_tail_is_tolerated() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, config().cycle_budget)
                .unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        // Two good slot lines, then a line cut mid-write.
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
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

    #[test]
    fn blank_checkpoint_lines_are_skipped() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, config().cycle_budget)
                .unwrap();
        let faults = enumerate_faults(&nl, &config(), golden.cycles);
        let fingerprint = campaign_fingerprint(&nl, &config(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-blank-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = checkpoint_path(&dir, nl.name(), fingerprint);
        // A blank line holds no record, so it is no damage: the slot
        // after it loads too.
        let plain = run_campaign(&nl, &workload, &config(), 1).unwrap();
        let text = header_line(nl.name(), faults.len(), fingerprint)
            + &slot_line(0, &(plain.runs[0], 0))
            + "\n"
            + &slot_line(1, &(plain.runs[1], 0));
        fs::write(&path, text).unwrap();
        let mut slots: Vec<Option<SlotDone>> = vec![None; faults.len()];
        assert_eq!(load_checkpoint(&path, fingerprint, &faults, &nl, &mut slots), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A sampled campaign on the accumulator with more draws than fault
    /// sites, so slots repeat each other's faults.
    fn duplicates() -> CampaignConfig {
        CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(120),
            seu_samples: 60,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn aborted_campaign_of_duplicates_resumes_by_member_slots() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let scalar = ScalarOnly(&workload);
        let dir = std::env::temp_dir().join(format!("printed-ckpt-dups-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let baseline = run_campaign(&nl, &scalar, &duplicates(), 1).unwrap();
        let total = baseline.runs.len();
        assert!(baseline.classes < total / 2, "{} classes of {total} slots", baseline.classes);
        // The golden run, then a third of the classes' runs.
        let interrupted = CancelAfter::new(&scalar, 1 + baseline.classes / 3);
        let aborted = run_supervised_campaign(
            &nl,
            &interrupted,
            &duplicates(),
            Some(&dir),
            1,
            Some(&interrupted.cancel),
        )
        .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("the cancel flag must interrupt the campaign");
        };
        assert!(completed >= baseline.classes / 3 && completed < total, "{completed} of {total}");
        let ckpt = checkpoint.expect("checkpointing was enabled");
        // One worker ran exactly a third of the classes before the flag
        // stopped it, and the checkpoint holds one line per finished
        // class, not one per member slot.
        let lines = fs::read_to_string(&ckpt).unwrap().lines().count();
        assert_eq!(lines, 1 + baseline.classes / 3, "a header plus one line per completed class");

        let finished =
            complete(run_supervised_campaign(&nl, &scalar, &duplicates(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, completed, "resumed slots count members");
        assert_eq!(finished.result.to_csv(), baseline.to_csv(), "byte-identical CSV");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_recorded_member_fills_its_class_without_a_run() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let golden =
            crate::fault::campaign_golden(&Simulator::new(&nl), &workload, config().cycle_budget)
                .unwrap();
        let faults = enumerate_faults(&nl, &duplicates(), golden.cycles);
        let classes = FaultClasses::new(&nl, &crate::ir::FanoutMap::build(&nl), &faults);
        let class = (0..classes.len()).find(|&c| classes.members(c).len() >= 3).unwrap();
        let members = classes.members(class);
        // Record one member, not the representative, with a verdict no
        // simulation of it gives: only the checkpoint can supply it.
        let fingerprint = campaign_fingerprint(&nl, &duplicates(), &golden, faults.len());
        let dir = std::env::temp_dir().join(format!("printed-ckpt-member-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let recorded = members[1];
        let cell = nl.gates()[faults[recorded].gate.index()].kind;
        let run = FaultRun { fault: faults[recorded], cell, outcome: Outcome::Failed };
        fs::write(
            checkpoint_path(&dir, nl.name(), fingerprint),
            header_line(nl.name(), faults.len(), fingerprint) + &slot_line(recorded, &(run, 0)),
        )
        .unwrap();

        let finished =
            complete(run_supervised_campaign(&nl, &workload, &duplicates(), Some(&dir), 1, None));
        assert_eq!(finished.stats.resumed_slots, members.len());
        let baseline = run_campaign(&nl, &workload, &duplicates(), 1).unwrap();
        for (slot, (got, want)) in finished.result.runs.iter().zip(&baseline.runs).enumerate() {
            if members.contains(&slot) {
                assert_eq!(got.outcome, Outcome::Failed, "member slot {slot}");
                assert_eq!(got.fault, want.fault);
            } else {
                assert_eq!(got, want, "slot {slot} outside the class");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
