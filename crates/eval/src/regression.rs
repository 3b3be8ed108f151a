//! Performance-history regression gating.
//!
//! The benchmarks (`sim_hotpaths`, `serve_bench`) each append one
//! schema-versioned record per run to `BENCH_history.jsonl`
//! (`printed-bench-record/v1`: git revision, monotonic run index, and
//! that bench's headline metrics). This module closes the loop:
//! [`parse_history`] reads the ledger back through the in-tree JSON
//! parser, [`evaluate`] gates each metric against its own stream of
//! carrying records — latest occurrence vs. the **median** of up to
//! [`BASELINE_WINDOW`] prior occurrences, so interleaved records from
//! different benches never mask one another and one noisy historical
//! run cannot poison the gate — and [`Verdict::to_json`] renders the
//! `printed-regression/v1` artifact `ci.sh` fails the build on.
//!
//! Each metric carries a direction ([`Direction`]): for
//! lower-is-better metrics (ns/cycle, ms, overhead fractions) the
//! gate fails when `latest / baseline` exceeds the metric's allowed
//! ratio; for higher-is-better metrics (speedups) it fails when
//! `baseline / latest` does. Setting `PRINTED_REGRESSION_MAX_RATIO`
//! overrides every metric's allowance — CI uses an impossible value
//! (below 1.0) to drill that the gate actually fails, without
//! committing a doctored ledger.
//!
//! With fewer than two records there is nothing to compare, and the
//! verdict passes with `"insufficient history"` — a fresh clone must
//! not fail its first benchmark run.

use printed_obs::json::{self, Value};
use std::fmt;

/// Records the rolling baseline draws from (latest record excluded).
pub const BASELINE_WINDOW: usize = 8;

/// Environment variable overriding every metric's allowed ratio.
/// Values below 1.0 force a failure on any real run — the CI drill.
pub const MAX_RATIO_ENV: &str = "PRINTED_REGRESSION_MAX_RATIO";

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller values are better (latencies, overheads).
    LowerIsBetter,
    /// Larger values are better (speedups, throughputs).
    HigherIsBetter,
}

/// One gated metric: its ledger key, direction, and allowed
/// degradation ratio before the gate fails.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Key inside the record's `metrics` object.
    pub name: &'static str,
    /// Which way the metric improves.
    pub direction: Direction,
    /// Allowed `worse / better` ratio; e.g. 1.5 tolerates a 50%
    /// degradation against the rolling baseline.
    pub max_ratio: f64,
}

/// The gated metric set. Wall-clock metrics get generous allowances —
/// CI boxes are noisy and the baseline is a median, not a floor —
/// while ratio-of-ratios metrics (speedups measured within one run)
/// are steadier and gate tighter.
pub const GATED_METRICS: &[MetricSpec] = &[
    MetricSpec {
        name: "sim_event_ns_per_cycle",
        direction: Direction::LowerIsBetter,
        max_ratio: 2.0,
    },
    MetricSpec {
        name: "gl_event_ns_per_cycle",
        direction: Direction::LowerIsBetter,
        max_ratio: 2.0,
    },
    MetricSpec { name: "gl_speedup", direction: Direction::HigherIsBetter, max_ratio: 2.0 },
    MetricSpec { name: "bitsliced_speedup", direction: Direction::HigherIsBetter, max_ratio: 2.0 },
    MetricSpec { name: "obs_off_ns_per_op", direction: Direction::LowerIsBetter, max_ratio: 3.0 },
    MetricSpec { name: "static_total_ms", direction: Direction::LowerIsBetter, max_ratio: 3.0 },
    MetricSpec { name: "opt_sweep_ms", direction: Direction::LowerIsBetter, max_ratio: 3.0 },
    MetricSpec { name: "generate_sweep_ms", direction: Direction::LowerIsBetter, max_ratio: 3.0 },
    MetricSpec { name: "serve_qps", direction: Direction::HigherIsBetter, max_ratio: 3.0 },
    MetricSpec { name: "diff_word_speedup", direction: Direction::HigherIsBetter, max_ratio: 2.0 },
];

/// One parsed `printed-bench-record/v1` ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Monotonic, date-free run index (line count at append time).
    pub run_index: u64,
    /// Git revision the run was built from (`"unknown"` outside a
    /// checkout).
    pub git_rev: String,
    /// Whether tracked files differed from `git_rev` when the run was
    /// built (the optional `dirty` field; absent means clean).
    pub dirty: bool,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A malformed ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionError {
    /// A line failed to parse as JSON.
    Parse {
        /// 1-based ledger line.
        line: usize,
        /// The parser's diagnosis.
        error: json::JsonError,
    },
    /// A line parsed but is not a `printed-bench-record/v1` object.
    Schema {
        /// 1-based ledger line.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for RegressionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionError::Parse { line, error } => {
                write!(f, "ledger line {line}: {error}")
            }
            RegressionError::Schema { line, message } => {
                write!(f, "ledger line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for RegressionError {}

/// Parses a `BENCH_history.jsonl` ledger: one
/// `printed-bench-record/v1` object per non-empty line.
///
/// # Errors
///
/// Returns the first malformed line; an append-only ledger is either
/// wholly trustworthy or not a baseline at all.
pub fn parse_history(ledger: &str) -> Result<Vec<BenchRecord>, RegressionError> {
    let mut records = Vec::new();
    for (i, raw) in ledger.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let v = json::parse(raw).map_err(|error| RegressionError::Parse { line, error })?;
        let schema = v.get("schema").and_then(Value::as_str);
        if schema != Some("printed-bench-record/v1") {
            return Err(RegressionError::Schema {
                line,
                message: format!("schema is {schema:?}, expected printed-bench-record/v1"),
            });
        }
        let run_index = v.get("run_index").and_then(Value::as_f64).ok_or_else(|| {
            RegressionError::Schema { line, message: "missing numeric run_index".into() }
        })? as u64;
        let git_rev = v
            .get("git_rev")
            .and_then(Value::as_str)
            .ok_or_else(|| RegressionError::Schema {
                line,
                message: "missing string git_rev".into(),
            })?
            .to_string();
        let dirty = match v.get("dirty") {
            None => false,
            Some(Value::Bool(dirty)) => *dirty,
            Some(_) => {
                return Err(RegressionError::Schema {
                    line,
                    message: "dirty is not a boolean".into(),
                })
            }
        };
        let metrics = match v.get("metrics") {
            Some(Value::Object(map)) => {
                map.iter().filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f))).collect()
            }
            _ => {
                return Err(RegressionError::Schema {
                    line,
                    message: "missing metrics object".into(),
                })
            }
        };
        records.push(BenchRecord { run_index, git_rev, dirty, metrics });
    }
    Ok(records)
}

/// One metric's comparison against the rolling baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Metric name.
    pub name: &'static str,
    /// The latest record's value.
    pub latest: f64,
    /// Median of the baseline window.
    pub baseline: f64,
    /// Degradation ratio (worse / better per the metric's direction);
    /// 1.0 is unchanged, above 1.0 is worse than baseline.
    pub ratio: f64,
    /// The allowance in effect (spec or [`MAX_RATIO_ENV`] override).
    pub max_ratio: f64,
    /// Whether the metric passed.
    pub ok: bool,
}

/// The gate's overall result.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether every checked metric passed.
    pub pass: bool,
    /// Why, when no per-metric checks ran (e.g. insufficient history).
    pub reason: Option<String>,
    /// Latest record's run index, when one exists.
    pub run_index: Option<u64>,
    /// How many prior records the baseline drew from.
    pub baseline_runs: usize,
    /// Per-metric comparisons.
    pub checks: Vec<MetricCheck>,
}

impl Verdict {
    /// Renders the `printed-regression/v1` artifact.
    pub fn to_json(&self) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"metric\": {}, \"latest\": {}, \"baseline\": {}, \"ratio\": {}, \
                     \"max_ratio\": {}, \"ok\": {}}}",
                    json::escape(c.name),
                    json::number(c.latest),
                    json::number(c.baseline),
                    json::number(c.ratio),
                    json::number(c.max_ratio),
                    c.ok
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"printed-regression/v1\",\n  \"pass\": {},\n  \
             \"reason\": {},\n  \"run_index\": {},\n  \"baseline_runs\": {},\n  \
             \"checks\": [{}]\n}}\n",
            self.pass,
            self.reason.as_deref().map_or_else(|| "null".to_string(), json::escape),
            self.run_index.map_or_else(|| "null".to_string(), |i| i.to_string()),
            self.baseline_runs,
            checks.join(", "),
        )
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let status = if self.pass { "PASS" } else { "FAIL" };
        match &self.reason {
            Some(reason) => format!("regression gate: {status} ({reason})"),
            None => {
                let worst = self
                    .checks
                    .iter()
                    .max_by(|a, b| a.ratio.total_cmp(&b.ratio))
                    .map_or_else(String::new, |c| {
                        format!(
                            "; worst {}: {:.3}x of baseline (limit {:.2}x)",
                            c.name, c.ratio, c.max_ratio
                        )
                    });
                format!(
                    "regression gate: {status} over {} baseline runs{worst}",
                    self.baseline_runs
                )
            }
        }
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Gates the ledger against the rolling baseline **per metric**, using
/// [`GATED_METRICS`] allowances unless `max_ratio_override` (normally
/// the parsed [`MAX_RATIO_ENV`]) replaces them.
///
/// Several benchmarks (`sim_hotpaths`, `serve_bench`) append to the
/// same ledger, so records interleave and no single record carries
/// every metric. Each metric is therefore gated against its own
/// stream: *latest* is the newest record carrying the metric, and the
/// baseline is the per-metric median over up to [`BASELINE_WINDOW`]
/// earlier records carrying it. Metrics with fewer than two carrying
/// records are skipped — a ledger predating a metric must not fail
/// the gate.
pub fn evaluate(records: &[BenchRecord], max_ratio_override: Option<f64>) -> Verdict {
    if records.len() < 2 {
        return Verdict {
            pass: true,
            reason: Some(format!(
                "insufficient history: {} record(s), need at least 2",
                records.len()
            )),
            run_index: records.last().map(|r| r.run_index),
            baseline_runs: 0,
            checks: Vec::new(),
        };
    }
    let latest = records.last().unwrap_or_else(|| unreachable!("len >= 2 checked above"));
    let mut checks = Vec::new();
    let mut baseline_runs = 0usize;
    for spec in GATED_METRICS {
        // This metric's stream: every (record, value) pair carrying it,
        // oldest to newest.
        let stream: Vec<f64> = records.iter().filter_map(|r| r.metric(spec.name)).collect();
        let Some((&latest_value, prior)) = stream.split_last() else { continue };
        if prior.is_empty() {
            continue;
        }
        let window = &prior[prior.len().saturating_sub(BASELINE_WINDOW)..];
        baseline_runs = baseline_runs.max(window.len());
        let mut history = window.to_vec();
        let baseline = median(&mut history);
        let ratio = match spec.direction {
            Direction::LowerIsBetter => latest_value / baseline,
            Direction::HigherIsBetter => baseline / latest_value,
        };
        let max_ratio = max_ratio_override.unwrap_or(spec.max_ratio);
        checks.push(MetricCheck {
            name: spec.name,
            latest: latest_value,
            baseline,
            ratio,
            max_ratio,
            ok: ratio.is_finite() && ratio <= max_ratio,
        });
    }
    Verdict {
        pass: checks.iter().all(|c| c.ok),
        reason: if checks.is_empty() {
            Some("no metric appears in two or more ledger records".to_string())
        } else {
            None
        },
        run_index: Some(latest.run_index),
        baseline_runs,
        checks,
    }
}

/// Reads [`MAX_RATIO_ENV`]; `None` when unset or unparsable.
pub fn max_ratio_override_from_env() -> Option<f64> {
    std::env::var(MAX_RATIO_ENV).ok().and_then(|v| v.trim().parse::<f64>().ok())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn record(run_index: u64, gl_ns: f64, speedup: f64) -> String {
        format!(
            "{{\"schema\": \"printed-bench-record/v1\", \"run_index\": {run_index}, \
             \"git_rev\": \"abc{run_index}\", \"metrics\": {{\"gl_event_ns_per_cycle\": \
             {gl_ns}, \"gl_speedup\": {speedup}}}}}"
        )
    }

    fn ledger(lines: &[String]) -> Vec<BenchRecord> {
        parse_history(&lines.join("\n")).expect("ledger parses")
    }

    #[test]
    fn parses_ledger_lines_and_rejects_bad_schema() {
        let records = ledger(&[record(1, 3000.0, 10.0), record(2, 3100.0, 9.7)]);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].git_rev, "abc1");
        assert_eq!(records[1].metric("gl_speedup"), Some(9.7));

        let err = parse_history("{\"schema\": \"other/v1\"}").unwrap_err();
        assert!(matches!(err, RegressionError::Schema { line: 1, .. }), "{err}");
        let err = parse_history("not json").unwrap_err();
        assert!(matches!(err, RegressionError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn parses_the_optional_dirty_flag() {
        let clean = record(1, 3000.0, 10.0);
        let dirty = clean.replacen("\"metrics\"", "\"dirty\": true, \"metrics\"", 1);
        let records = ledger(&[clean.clone(), dirty]);
        assert!(!records[0].dirty, "an absent flag means a clean tree");
        assert!(records[1].dirty);
        assert_eq!(records[1].metrics, records[0].metrics);

        let bad = clean.replacen("\"metrics\"", "\"dirty\": \"yes\", \"metrics\"", 1);
        let err = parse_history(&bad).unwrap_err();
        assert!(matches!(err, RegressionError::Schema { line: 1, .. }), "{err}");
    }

    #[test]
    fn short_history_passes_without_checks() {
        let v = evaluate(&ledger(&[record(1, 3000.0, 10.0)]), None);
        assert!(v.pass);
        assert!(v.reason.as_deref().unwrap().contains("insufficient history"));
        assert!(v.checks.is_empty());
        assert!(v.summary().contains("PASS"));
    }

    #[test]
    fn steady_metrics_pass_and_injected_slowdown_fails() {
        let mut lines: Vec<String> = (1..=5).map(|i| record(i, 3000.0, 10.0)).collect();
        lines.push(record(6, 3050.0, 9.9));
        let v = evaluate(&ledger(&lines), None);
        assert!(v.pass, "{}", v.summary());
        assert_eq!(v.baseline_runs, 5);

        // A 4x slowdown (and matching speedup collapse) trips both
        // directions.
        let mut lines: Vec<String> = (1..=5).map(|i| record(i, 3000.0, 10.0)).collect();
        lines.push(record(6, 12_000.0, 2.5));
        let v = evaluate(&ledger(&lines), None);
        assert!(!v.pass, "{}", v.summary());
        let gl = v.checks.iter().find(|c| c.name == "gl_event_ns_per_cycle").unwrap();
        assert!(!gl.ok);
        assert!((gl.ratio - 4.0).abs() < 1e-9);
        let sp = v.checks.iter().find(|c| c.name == "gl_speedup").unwrap();
        assert!(!sp.ok, "higher-is-better direction must invert the ratio");
    }

    #[test]
    fn forced_threshold_override_fails_a_healthy_run() {
        let lines: Vec<String> = (1..=4).map(|i| record(i, 3000.0, 10.0)).collect();
        let v = evaluate(&ledger(&lines), Some(0.5));
        assert!(!v.pass, "an impossible allowance must fail the drill");
        assert!(v.checks.iter().all(|c| !c.ok));
    }

    #[test]
    fn baseline_window_is_bounded_and_median_resists_outliers() {
        // 12 records: the first 3 are ancient and terrible, but fall
        // outside the 8-record window; one in-window outlier cannot
        // move the median.
        let mut lines: Vec<String> = (1..=3).map(|i| record(i, 90_000.0, 0.3)).collect();
        lines.extend((4..=10).map(|i| record(i, 3000.0, 10.0)));
        lines.push(record(11, 50_000.0, 0.6)); // in-window outlier
        lines.push(record(12, 3100.0, 9.8)); // latest: healthy
        let v = evaluate(&ledger(&lines), None);
        assert_eq!(v.baseline_runs, 8);
        assert!(v.pass, "{}", v.summary());
        let gl = v.checks.iter().find(|c| c.name == "gl_event_ns_per_cycle").unwrap();
        assert!((gl.baseline - 3000.0).abs() < 1e-9, "median ignores the outlier");
    }

    #[test]
    fn missing_metrics_are_skipped_not_failed() {
        let old = "{\"schema\": \"printed-bench-record/v1\", \"run_index\": 1, \
                   \"git_rev\": \"old\", \"metrics\": {\"gl_event_ns_per_cycle\": 3000}}";
        let new = record(2, 3050.0, 9.9);
        let v = evaluate(&ledger(&[old.to_string(), new]), None);
        assert!(v.pass, "{}", v.summary());
        assert_eq!(v.checks.len(), 1, "only the overlapping metric is gated");
        assert_eq!(v.checks[0].name, "gl_event_ns_per_cycle");
    }

    #[test]
    fn a_newly_recorded_metric_is_gated_from_its_second_record_on() {
        // A ledger written before opt_sweep_ms existed, then the first
        // record carrying it: nothing to compare it with yet.
        fn sim(run_index: u64, opt_ms: Option<f64>) -> String {
            let opt = opt_ms.map_or_else(String::new, |ms| format!(", \"opt_sweep_ms\": {ms}"));
            format!(
                "{{\"schema\": \"printed-bench-record/v1\", \"run_index\": {run_index}, \
                 \"git_rev\": \"r{run_index}\", \"metrics\": {{\"static_total_ms\": 90{opt}}}}}"
            )
        }
        let mut lines = vec![sim(1, None), sim(2, None), sim(3, Some(5.0))];
        let v = evaluate(&ledger(&lines), None);
        assert!(v.pass, "{}", v.summary());
        assert!(v.checks.iter().all(|c| c.name != "opt_sweep_ms"), "no prior history: skipped");

        // From its second record on, it is gated like any other metric.
        lines.push(sim(4, Some(5.5)));
        let v = evaluate(&ledger(&lines), None);
        assert!(v.checks.iter().any(|c| c.name == "opt_sweep_ms" && c.ok), "{}", v.summary());
        lines.push(sim(5, Some(50.0)));
        let v = evaluate(&ledger(&lines), None);
        assert!(!v.pass, "a 10x slower optimizer fails the gate");
    }

    #[test]
    fn interleaved_bench_streams_are_gated_independently() {
        // sim_hotpaths and serve_bench alternate appends; a serve-only
        // record at the tail must not hide a simulator regression, and
        // vice versa.
        fn serve(run_index: u64, qps: f64) -> String {
            format!(
                "{{\"schema\": \"printed-bench-record/v1\", \"run_index\": {run_index}, \
                 \"git_rev\": \"s{run_index}\", \"metrics\": {{\"serve_qps\": {qps}}}}}"
            )
        }
        let lines = vec![
            record(1, 3000.0, 10.0),
            serve(2, 50.0),
            record(3, 3000.0, 10.0),
            serve(4, 52.0),
            record(5, 12_000.0, 2.5), // simulator regresses...
            serve(6, 51.0),           // ...then a healthy serve record lands last
        ];
        let v = evaluate(&ledger(&lines), None);
        assert!(!v.pass, "{}", v.summary());
        let gl = v.checks.iter().find(|c| c.name == "gl_event_ns_per_cycle").unwrap();
        assert!(!gl.ok, "regression visible though serve_bench appended after it");
        assert!((gl.ratio - 4.0).abs() < 1e-9, "baseline drawn only from carrying records");
        let qps = v.checks.iter().find(|c| c.name == "serve_qps").unwrap();
        assert!(qps.ok, "serve stream is healthy");
        assert!((qps.baseline - 51.0).abs() < 1e-9, "median of the serve-only stream");

        // A serve collapse is caught even when sim records surround it.
        let lines = vec![
            serve(1, 50.0),
            record(2, 3000.0, 10.0),
            serve(3, 52.0),
            serve(4, 5.0), // 10x throughput collapse
            record(5, 3000.0, 10.0),
        ];
        let v = evaluate(&ledger(&lines), None);
        assert!(!v.pass, "{}", v.summary());
        let qps = v.checks.iter().find(|c| c.name == "serve_qps").unwrap();
        assert!(!qps.ok);
    }

    #[test]
    fn verdict_artifact_parses_and_round_trips_status() {
        let mut lines: Vec<String> = (1..=4).map(|i| record(i, 3000.0, 10.0)).collect();
        lines.push(record(5, 12_000.0, 2.5));
        let v = evaluate(&ledger(&lines), None);
        let artifact = v.to_json();
        let parsed = json::parse(&artifact).expect("artifact is valid JSON");
        assert_eq!(parsed.get("schema").and_then(Value::as_str), Some("printed-regression/v1"));
        assert_eq!(parsed.get("pass"), Some(&Value::Bool(false)));
        let checks = match parsed.get("checks") {
            Some(Value::Array(a)) => a,
            other => panic!("checks must be an array, got {other:?}"),
        };
        assert_eq!(checks.len(), v.checks.len());
        assert!(checks.iter().any(|c| c.get("ok") == Some(&Value::Bool(false))));
    }
}
