//! Supervised stage execution for the reproduction pipeline.
//!
//! `reproduce_all` used to be a straight-line script: one panicking
//! stage (or one unwritable artifact) threw away every stage after it.
//! [`Pipeline`] wraps each stage in the eval-side counterpart of
//! [`printed_netlist::resilience`]:
//!
//! - **panic isolation + one retry** — a stage that panics is retried
//!   once (through [`printed_netlist::resilience::retry_panics`]); a
//!   stage that panics twice is recorded as [`StageStatus::Failed`] and
//!   the pipeline moves on (graceful degradation), so the remaining
//!   stages still produce their artifacts;
//! - **typed errors** — [`Pipeline::run_stage_result`] records an `Err`
//!   as a failed stage with the error message in the manifest instead
//!   of unwrapping it;
//! - **a completeness manifest** — [`Pipeline::manifest_json`] renders
//!   per-stage status/attempts/wall-time (validated against the obs
//!   JSON grammar) and [`Pipeline::write_manifest`] persists it as
//!   `manifest.json`, the artifact CI checks for `failed` stages. A
//!   stage has no deadline, so the pipeline's manifest always reports
//!   `"timeouts":0`; the print shop fills that field with its job
//!   deadline failures.
//!
//! Each stage still runs under [`crate::perf_report::stage`], so spans
//! and peak-RSS gauges keep working exactly as before.
//!
//! For CI, the `PRINTED_FAIL_STAGE` environment variable names one
//! stage that will deliberately panic on every attempt — the forced
//! mid-pipeline failure the degradation gate exercises.

use crate::perf_report::{self, ReportError};
use printed_netlist::resilience::{checkpoint_dir, retry_panics};
use printed_obs as obs;
use std::fmt;
use std::path::Path;
use std::time::Instant;

/// Retries after a panicking stage attempt: a stage runs at most twice.
const STAGE_RETRIES: u32 = 1;

/// How one pipeline stage ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Completed on the first attempt.
    Ok,
    /// Completed, but only after a retry — the result is usable, the
    /// run was not clean.
    Degraded,
    /// Did not complete: panicked on every attempt or returned a typed
    /// error.
    Failed,
    /// Never ran: the print shop records a job it drained before
    /// starting as skipped.
    Skipped,
}

impl StageStatus {
    /// Short stable name, used in the manifest.
    pub fn name(self) -> &'static str {
        match self {
            StageStatus::Ok => "ok",
            StageStatus::Degraded => "degraded",
            StageStatus::Failed => "failed",
            StageStatus::Skipped => "skipped",
        }
    }
}

impl fmt::Display for StageStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The manifest record of one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Stage name (also the observability span path).
    pub name: String,
    /// How it ended.
    pub status: StageStatus,
    /// Attempts made (1 for a clean run; 0 for a skipped stage).
    pub attempts: u32,
    /// Wall-clock time across all attempts, in milliseconds.
    pub wall_ms: u64,
    /// The panic message or typed error, for failed/degraded stages.
    pub error: Option<String>,
}

/// A supervised stage runner accumulating the completeness manifest.
#[derive(Debug)]
pub struct Pipeline {
    name: String,
    stages: Vec<StageRecord>,
    retries: u64,
    fail_stage: Option<String>,
}

impl Pipeline {
    /// A new pipeline named `name` (the manifest's `pipeline` field).
    /// Reads the `PRINTED_FAIL_STAGE` failure-injection hook from the
    /// environment once, here.
    pub fn new(name: impl Into<String>) -> Self {
        let fail_stage = std::env::var("PRINTED_FAIL_STAGE")
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty());
        Pipeline { name: name.into(), stages: Vec::new(), retries: 0, fail_stage }
    }

    /// Runs one stage under supervision and returns its value, or
    /// `None` if the stage failed. The closure runs under the stage's
    /// observability span exactly as [`crate::perf_report::stage`]
    /// always did.
    pub fn run_stage<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> Option<T> {
        self.run_stage_result(name, move || Ok::<T, Unreachable>(f()))
    }

    /// [`Pipeline::run_stage`] for fallible stages: a typed `Err` is
    /// recorded as a failed stage with its message in the manifest
    /// (typed errors are deterministic, so they are not retried —
    /// retries exist for panics).
    pub fn run_stage_result<T, E: fmt::Display>(
        &mut self,
        name: &str,
        mut f: impl FnMut() -> Result<T, E>,
    ) -> Option<T> {
        let forced = self.fail_stage.as_deref() == Some(name);
        let started = Instant::now();
        let mut last_error = String::new();
        let run = retry_panics(
            STAGE_RETRIES,
            |_, message| last_error = message.to_string(),
            |_| {
                perf_report::stage(name, || {
                    if forced {
                        panic!("forced failure injected via PRINTED_FAIL_STAGE={name}");
                    }
                    f()
                })
            },
        );
        let (value, attempts) = match run {
            Ok((Ok(v), attempts)) => (Some(v), attempts),
            Ok((Err(e), attempts)) => {
                last_error = e.to_string();
                (None, attempts)
            }
            Err((message, attempts)) => {
                last_error = message;
                (None, attempts)
            }
        };
        self.retries += u64::from(attempts - 1);
        let wall_ms = started.elapsed().as_millis() as u64;
        let status = match (&value, attempts > 1) {
            (Some(_), false) => StageStatus::Ok,
            (Some(_), true) => StageStatus::Degraded,
            (None, _) => StageStatus::Failed,
        };
        let error = (status != StageStatus::Ok).then_some(last_error);
        if status == StageStatus::Failed {
            eprintln!(
                "pipeline {}: stage {name} failed: {}",
                self.name,
                error.as_deref().unwrap_or("")
            );
        }
        self.stages.push(StageRecord { name: name.to_string(), status, attempts, wall_ms, error });
        value
    }

    /// The stage records so far, in execution order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Stages that failed.
    pub fn failed_stages(&self) -> usize {
        self.stages.iter().filter(|s| s.status == StageStatus::Failed).count()
    }

    /// The pipeline's overall status: `failed` if any stage failed or
    /// was skipped, `degraded` if any stage was degraded, otherwise
    /// `ok`.
    pub fn status(&self) -> StageStatus {
        if self
            .stages
            .iter()
            .any(|s| matches!(s.status, StageStatus::Failed | StageStatus::Skipped))
        {
            StageStatus::Failed
        } else if self.stages.iter().any(|s| s.status == StageStatus::Degraded) {
            StageStatus::Degraded
        } else {
            StageStatus::Ok
        }
    }

    /// Renders the completeness manifest as a JSON document: pipeline
    /// status, per-stage records, resilience counters, and checkpoint
    /// provenance (the campaign checkpoint directory in effect, if any,
    /// as [`checkpoint_dir`] reads it). The
    /// output parses under [`printed_obs::json::parse`] — the same
    /// grammar the obs JSON-lines gate validates.
    pub fn manifest_json(&self) -> String {
        let ckpt = checkpoint_dir();
        let ckpt = ckpt.as_deref().map(|dir| dir.to_string_lossy());
        render_manifest(&self.name, self.status(), &self.stages, self.retries, 0, ckpt.as_deref())
    }

    /// Writes the manifest to `path`, publishing the pipeline's
    /// resilience counters to the global obs registry on the way (so
    /// the manifest and the obs export can be cross-validated).
    ///
    /// # Errors
    ///
    /// Returns [`ReportError::Write`] if the manifest does not parse as
    /// JSON (a bug worth failing loudly on, reported on the manifest
    /// path) or cannot be written.
    pub fn write_manifest(&self, path: impl AsRef<Path>) -> Result<(), ReportError> {
        let path = path.as_ref();
        let manifest = self.manifest_json();
        if let Err(e) = obs::json::parse(&manifest) {
            return Err(ReportError::Write {
                path: path.to_path_buf(),
                source: std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("manifest is not valid JSON: {e}"),
                ),
            });
        }
        if obs::enabled() {
            let reg = obs::global();
            reg.add("resilience.retries", self.retries);
            reg.add("resilience.failed_stages", self.failed_stages() as u64);
        }
        perf_report::write_artifact(path, &manifest)
    }
}

/// Renders a completeness manifest from stage records — the standalone
/// form of [`Pipeline::manifest_json`], shared by any subsystem that
/// reports per-stage degradation in the same schema (the print-shop
/// service renders its per-job supervision records through this).
///
/// The output parses under [`printed_obs::json::parse`]; `failed_stages`
/// is derived from `stages` rather than taken on trust.
pub fn render_manifest(
    pipeline: &str,
    status: StageStatus,
    stages: &[StageRecord],
    retries: u64,
    timeouts: u64,
    checkpoint_dir: Option<&str>,
) -> String {
    let failed = stages.iter().filter(|s| s.status == StageStatus::Failed).count();
    let mut out = String::from("{");
    out.push_str(&format!("\"pipeline\":{},", obs::json::escape(pipeline)));
    out.push_str(&format!("\"status\":\"{status}\","));
    out.push_str("\"stages\":[");
    for (i, s) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"status\":\"{}\",\"attempts\":{},\"wall_ms\":{},\"error\":{}}}",
            obs::json::escape(&s.name),
            s.status,
            s.attempts,
            s.wall_ms,
            s.error.as_deref().map_or_else(|| "null".to_string(), obs::json::escape),
        ));
    }
    out.push_str("],");
    out.push_str(&format!(
        "\"retries\":{retries},\"timeouts\":{timeouts},\"failed_stages\":{failed},"
    ));
    out.push_str(&format!(
        "\"checkpoint_dir\":{}",
        checkpoint_dir.map_or_else(|| "null".to_string(), obs::json::escape)
    ));
    out.push('}');
    out
}

/// An error type for infallible stages; never constructed.
enum Unreachable {}

impl fmt::Display for Unreachable {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn clean_stages_report_ok_and_pass_values_through() {
        let mut p = Pipeline::new("test");
        assert_eq!(p.run_stage("eval.a", || 41 + 1), Some(42));
        assert_eq!(p.run_stage_result("eval.b", || Ok::<_, ReportError>("x")), Some("x"));
        assert_eq!(p.status(), StageStatus::Ok);
        assert_eq!(p.failed_stages(), 0);
        let manifest = p.manifest_json();
        let v = obs::json::parse(&manifest).expect("manifest is valid JSON");
        assert_eq!(v.get("status").and_then(obs::json::Value::as_str), Some("ok"));
    }

    #[test]
    fn panicking_stage_degrades_not_aborts() {
        let mut p = Pipeline::new("test");
        let out: Option<u32> = p.run_stage("eval.boom", || panic!("stage exploded"));
        assert_eq!(out, None);
        assert_eq!(p.run_stage("eval.after", || 7), Some(7), "pipeline continues");
        assert_eq!(p.status(), StageStatus::Failed);
        assert_eq!(p.failed_stages(), 1);
        let rec = &p.stages()[0];
        assert_eq!(rec.status, StageStatus::Failed);
        assert_eq!(rec.attempts, 2, "one retry before giving up");
        assert!(rec.error.as_deref().unwrap().contains("stage exploded"));
    }

    #[test]
    fn flaky_stage_succeeds_degraded() {
        let mut p = Pipeline::new("test");
        let mut calls = 0;
        let out = p.run_stage("eval.flaky", || {
            calls += 1;
            if calls == 1 {
                panic!("transient");
            }
            calls
        });
        assert_eq!(out, Some(2));
        assert_eq!(p.stages()[0].status, StageStatus::Degraded);
        assert_eq!(p.status(), StageStatus::Degraded);
    }

    #[test]
    fn typed_errors_are_recorded_not_retried() {
        let mut p = Pipeline::new("test");
        let mut calls = 0;
        let out: Option<()> = p.run_stage_result("eval.err", || {
            calls += 1;
            Err::<(), _>(std::io::Error::other("disk on fire"))
        });
        assert_eq!(out, None);
        assert_eq!(calls, 1, "typed errors are deterministic; no retry");
        assert!(p.stages()[0].error.as_deref().unwrap().contains("disk on fire"));
    }

    #[test]
    fn manifest_round_trips_through_the_obs_parser() {
        let mut p = Pipeline::new("round\"trip");
        p.run_stage("eval.a", || 1);
        let _: Option<()> =
            p.run_stage("eval.\"quoted\"", || panic!("with \"quotes\" and\nnewline"));
        let manifest = p.manifest_json();
        let v = obs::json::parse(&manifest).expect("manifest survives hostile strings");
        let stages = match v.get("stages") {
            Some(obs::json::Value::Array(items)) => items,
            other => panic!("expected stages array, got {other:?}"),
        };
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[1].get("status").and_then(obs::json::Value::as_str), Some("failed"));
    }
}
