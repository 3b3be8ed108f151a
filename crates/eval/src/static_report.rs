//! Static-analysis evidence over the full design space.
//!
//! The Figure 7 sweep and the baseline cores are costed out by
//! [`printed_netlist::analysis`]; this module is the proof that those
//! numbers rest on analyzed — not merely simulated — netlists. For every
//! design point it reports the fixed-point dataflow engine's facts
//! ([`printed_netlist::dataflow`]), the analysis-backed linter's counts
//! and the slack-based STA, all over one fixpoint run and its shared
//! connectivity index, and the verdict of cross-checking every
//! proved-constant fact against the gate-level simulator.
//!
//! [`static_report`] computes none of this itself: its rows come from
//! the design-major pass of [`crate::design_space`], which also feeds
//! Figure 7 and the lint summary and runs once per process.
//!
//! Output comes in two forms: an aligned [`TextTable`] for the
//! `reproduce_all` console log, and a hand-rolled JSON artifact
//! (`printed-static-report/v1`) that parses under
//! [`printed_obs::json::parse`]. The `static_analysis` example writes
//! the artifact to `$PRINTED_STATIC_OUT` (default `static_report.json`)
//! and exits nonzero on any Error-severity finding — the CI gate.

use crate::report::{eng, TextTable};
use printed_netlist::{analysis, dataflow, lint, Netlist};
use printed_obs as obs;
use printed_pdk::Technology;

/// Static-analysis results for one design point.
#[derive(Debug, Clone)]
pub struct StaticRow {
    /// Design name (sweep point or baseline core).
    pub design: String,
    /// Total gate count.
    pub gates: usize,
    /// Nets proved constant by the dataflow fixpoint.
    pub constants: usize,
    /// Nets whose value can depend on the power-up state.
    pub x_nets: usize,
    /// Sequential cells whose power-up bit is proved unflushable.
    pub trapped: usize,
    /// Gates the facts prove removable (dead or constant-output).
    pub dead: usize,
    /// Fixpoint rounds until convergence.
    pub rounds: usize,
    /// Error-severity lint findings.
    pub errors: usize,
    /// Warn-severity lint findings.
    pub warnings: usize,
    /// STA maximum frequency in hertz.
    pub fmax_hz: f64,
    /// Worst endpoint slack in seconds (zero for a self-constrained
    /// report).
    pub worst_slack_s: f64,
    /// Endpoint of the worst timing path, e.g. `g42/D` or `acc[7]`.
    pub critical_endpoint: String,
    /// First contradiction found when replaying proved facts against
    /// the simulator, if any. `None` means every fact checked out.
    pub crosscheck_error: Option<String>,
}

/// The full static-analysis sweep for one technology.
#[derive(Debug, Clone)]
pub struct StaticReport {
    /// Cell library the designs were analyzed against.
    pub technology: Technology,
    /// One row per design point: 24 sweep points, then 4 baselines.
    pub rows: Vec<StaticRow>,
}

impl StaticReport {
    /// Total Error-severity findings across every design.
    pub fn total_errors(&self) -> usize {
        self.rows.iter().map(|r| r.errors).sum()
    }

    /// Whether any proved fact was contradicted by the simulator.
    pub fn crosscheck_failures(&self) -> usize {
        self.rows.iter().filter(|r| r.crosscheck_error.is_some()).count()
    }
}

/// Cycles of randomized stimulus used to replay proved facts against
/// the simulator. Small on purpose: a contradiction needs only one
/// cycle to surface, and the sweep runs 28 designs per technology.
pub const CROSSCHECK_CYCLES: u64 = 4;

impl StaticRow {
    /// The row of one analyzed design: `facts` is its dataflow fixpoint,
    /// `lint_report` the lint over those facts, `sta` the timing over
    /// their connectivity index.
    pub(crate) fn new(
        netlist: &Netlist,
        facts: &dataflow::DataflowFacts,
        lint_report: &lint::LintReport,
        sta: &analysis::StaReport,
        crosscheck_error: Option<String>,
    ) -> Self {
        StaticRow {
            design: netlist.name().to_string(),
            gates: netlist.gate_count(),
            constants: facts.constant_count(),
            x_nets: facts.x_count(),
            trapped: facts.trapped_state().len(),
            dead: facts.dead_gates(netlist).len(),
            rounds: facts.rounds(),
            errors: lint_report.count(lint::Severity::Error),
            warnings: lint_report.count(lint::Severity::Warn),
            fmax_hz: sta.fmax().as_hertz(),
            worst_slack_s: sta.worst_slack().as_secs(),
            critical_endpoint: sta
                .paths
                .first()
                .map_or_else(|| "-".to_string(), |p| p.endpoint.clone()),
            crosscheck_error,
        }
    }

    /// The all-error row of a design generation refuses: the failure is
    /// surfaced rather than the design point hidden.
    pub(crate) fn drc_failed(lint_report: &lint::LintReport) -> Self {
        StaticRow {
            design: lint_report.design.clone(),
            gates: 0,
            constants: 0,
            x_nets: 0,
            trapped: 0,
            dead: 0,
            rounds: 0,
            errors: lint_report.count(lint::Severity::Error),
            warnings: lint_report.count(lint::Severity::Warn),
            fmax_hz: 0.0,
            worst_slack_s: 0.0,
            critical_endpoint: "-".to_string(),
            crosscheck_error: None,
        }
    }
}

/// The static-analysis sweep: every Figure 7 design point plus the four
/// baseline cores, analyzed against `technology`'s cell library. The
/// rows are read from the process's one [`crate::design_space`] pass.
pub fn static_report(technology: Technology) -> StaticReport {
    let _span = printed_obs::span!("eval.static_report");
    StaticReport { technology, rows: crate::design_space::rows(technology).static_rows.clone() }
}

/// Renders the report as an aligned text table.
pub fn static_summary(report: &StaticReport) -> TextTable {
    let mut table = TextTable::new(
        format!("Static analysis ({:?})", report.technology),
        &[
            "design", "gates", "const", "x_nets", "trapped", "dead", "err", "warn", "fmax_hz",
            "slack_s", "critical",
        ],
    );
    for r in &report.rows {
        table.row(vec![
            r.design.clone(),
            r.gates.to_string(),
            r.constants.to_string(),
            r.x_nets.to_string(),
            r.trapped.to_string(),
            r.dead.to_string(),
            r.errors.to_string(),
            r.warnings.to_string(),
            eng(r.fmax_hz),
            eng(r.worst_slack_s),
            r.critical_endpoint.clone(),
        ]);
    }
    table
}

/// Serializes the report as the `printed-static-report/v1` JSON
/// artifact. The output parses under [`printed_obs::json::parse`]; the
/// `static_analysis` example and ci.sh validate it that way.
pub fn static_json(reports: &[StaticReport]) -> String {
    let mut out = String::from("{\"schema\":\"printed-static-report/v1\",");
    out.push_str(&format!("\"crosscheck_cycles\":{CROSSCHECK_CYCLES},"));
    out.push_str("\"technologies\":[");
    for (ti, report) in reports.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"technology\":{},\"designs\":[",
            obs::json::escape(&format!("{:?}", report.technology))
        ));
        for (i, r) in report.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"design\":{},\"gates\":{},\"constants\":{},\"x_nets\":{},\
                 \"trapped\":{},\"dead\":{},\"rounds\":{},\"errors\":{},\"warnings\":{},\
                 \"fmax_hz\":{},\"worst_slack_s\":{},\"critical_endpoint\":{},\
                 \"crosscheck\":{}}}",
                obs::json::escape(&r.design),
                r.gates,
                r.constants,
                r.x_nets,
                r.trapped,
                r.dead,
                r.rounds,
                r.errors,
                r.warnings,
                obs::json::number(r.fmax_hz),
                obs::json::number(r.worst_slack_s),
                obs::json::escape(&r.critical_endpoint),
                r.crosscheck_error
                    .as_deref()
                    .map_or_else(|| "\"ok\"".to_string(), obs::json::escape),
            ));
        }
        out.push_str(&format!(
            "],\"totals\":{{\"errors\":{},\"crosscheck_failures\":{}}}}}",
            report.total_errors(),
            report.crosscheck_failures()
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn static_report_covers_every_design_with_zero_errors() {
        for technology in [Technology::Egfet, Technology::CntTft] {
            let report = static_report(technology);
            // 24 sweep points + 4 baselines.
            assert_eq!(report.rows.len(), 28);
            assert_eq!(report.total_errors(), 0, "{technology:?} has Error findings");
            assert_eq!(report.crosscheck_failures(), 0);
            for row in &report.rows {
                assert!(row.gates > 0, "{} generated no gates", row.design);
                assert_eq!(
                    row.worst_slack_s, 0.0,
                    "self-constrained slack must be exactly zero for {}",
                    row.design
                );
                assert_ne!(row.critical_endpoint, "-");
                assert!(
                    row.crosscheck_error.is_none(),
                    "{}: {:?}",
                    row.design,
                    row.crosscheck_error
                );
            }
            let table = static_summary(&report);
            assert_eq!(table.len(), 28);
            let rendered = table.to_string();
            assert!(rendered.contains("light8080"));
            assert!(rendered.contains("p1_8_2"));
        }
    }

    /// The STA refactor's invariant, which lets the design-space pass
    /// price Figure 7 from the STA alone: `analysis::timing` (what
    /// `characterize` reads) and `sta_with_fanout` give bit-identical
    /// fmax on every sweep core and baseline in both technologies.
    #[test]
    fn timing_fmax_is_the_sta_fmax_on_every_design() {
        use printed_baselines::BaselineCpu;
        use printed_core::{generate_standard, CoreConfig};
        let cores: Vec<Netlist> =
            CoreConfig::design_space().iter().map(generate_standard).collect();
        for technology in Technology::ALL {
            let lib = technology.library();
            let baselines: Vec<Netlist> = BaselineCpu::ALL
                .iter()
                .map(|cpu| cpu.inventory(technology).representative_netlist())
                .collect();
            assert_eq!(cores.len() + baselines.len(), 28);
            for netlist in cores.iter().chain(&baselines) {
                let facts = dataflow::analyze(netlist);
                let sta = analysis::sta_with_fanout(
                    netlist,
                    lib,
                    facts.fanout(),
                    analysis::DEFAULT_TOP_PATHS,
                );
                assert_eq!(
                    analysis::timing(netlist, lib).fmax().as_hertz().to_bits(),
                    sta.fmax().as_hertz().to_bits(),
                    "fmax drifted for {} ({technology:?})",
                    netlist.name()
                );
            }
        }
    }

    #[test]
    fn static_json_parses_and_counts_totals() {
        let reports: Vec<StaticReport> =
            [Technology::Egfet].iter().map(|&t| static_report(t)).collect();
        let json = static_json(&reports);
        let value = obs::json::parse(&json).expect("artifact must be valid JSON");
        assert_eq!(
            value.get("schema").and_then(obs::json::Value::as_str),
            Some("printed-static-report/v1")
        );
        // The hand-rolled serializer and the parser agree on nesting:
        // spot-check that totals made it through as numbers.
        assert!(json.contains("\"totals\":{\"errors\":0"));
        assert_eq!(json.matches("\"design\":").count(), 28);
    }
}
