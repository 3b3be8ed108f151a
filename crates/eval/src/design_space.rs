//! The design-major pass behind Figure 7, the lint summary and the
//! static report.
//!
//! [`crate::figure7`], [`crate::report::lint_summary`] and
//! [`crate::static_report::static_report`] print different facts about
//! the same designs: the 24 Figure 7 cores and the 4 baseline cores, in
//! both technologies. [`analyze`] computes every one of those facts in
//! one pass, design by design:
//!
//! - each sweep core is built once, with one dataflow fixpoint and one
//!   lint report per technology over it ([`generate_linted`]), and one
//!   simulator crosscheck of its facts (the crosscheck reads no cell
//!   library);
//! - per technology, a core whose report has no errors gets one STA
//!   over the facts' connectivity index, and that STA's fmax prices its
//!   power; a report with errors fails the DRC gate;
//! - a baseline's representative netlist depends on the technology, so
//!   each (baseline, technology) gets the same steps once.
//!
//! Only the small rows are kept: each netlist is dropped before the next
//! one is built. The three stage functions are projections of one table,
//! computed on first use and held for the life of the process. The table
//! is a pure function of the build, so nothing invalidates it.

use crate::figures::DesignPoint;
use crate::static_report::{StaticRow, CROSSCHECK_CYCLES};
use printed_baselines::BaselineCpu;
use printed_core::{generate_linted, CoreConfig, CoreSpec};
use printed_netlist::analysis::{self, ActivityModel};
use printed_netlist::{dataflow, lint};
use printed_pdk::Technology;
use std::sync::OnceLock;

/// Every fact the three stages print, for every technology: what
/// [`analyze`] returns.
#[derive(Debug)]
pub struct DesignSpace {
    rows: Vec<TechnologyRows>,
}

/// One technology's rows.
#[derive(Debug)]
pub(crate) struct TechnologyRows {
    pub(crate) technology: Technology,
    /// One per sweep core, in [`CoreConfig::design_space`] order; a core
    /// that fails the DRC gate keeps its report.
    pub(crate) figure7: Vec<Result<DesignPoint, lint::LintReport>>,
    /// One per design: the sweep cores, then [`BaselineCpu::ALL`].
    pub(crate) lint: Vec<LintRow>,
    /// One per design, in the same order as `lint`.
    pub(crate) static_rows: Vec<StaticRow>,
}

/// One row of the lint summary.
#[derive(Debug)]
pub(crate) struct LintRow {
    pub(crate) design: String,
    pub(crate) gates: usize,
    pub(crate) errors: usize,
    pub(crate) warnings: usize,
    pub(crate) infos: usize,
}

impl LintRow {
    fn new(report: &lint::LintReport, gates: usize) -> Self {
        LintRow {
            design: report.design.clone(),
            gates,
            errors: report.count(lint::Severity::Error),
            warnings: report.count(lint::Severity::Warn),
            infos: report.count(lint::Severity::Info),
        }
    }
}

/// Runs the pass over the whole design space in every technology. The
/// stage functions read one table of it, computed on their first call
/// in the process; call this directly to time the pass itself.
pub fn analyze() -> DesignSpace {
    let _span = printed_obs::span!("eval.design_space");
    let mut rows: Vec<TechnologyRows> = Technology::ALL
        .into_iter()
        .map(|technology| TechnologyRows {
            technology,
            figure7: Vec::new(),
            lint: Vec::new(),
            static_rows: Vec::new(),
        })
        .collect();
    for config in CoreConfig::design_space() {
        let core = generate_linted(&CoreSpec::standard(config));
        let netlist = &core.netlist;
        // Crosschecked once, on the first technology whose gate passes.
        let mut crosscheck = None;
        for (rows, report) in rows.iter_mut().zip(core.lint) {
            if report.has_errors() {
                // Generation refuses DRC errors: no gate count, an
                // all-error static row, and Figure 7 reports the failure.
                rows.lint.push(LintRow::new(&report, 0));
                rows.static_rows.push(StaticRow::drc_failed(&report));
                rows.figure7.push(Err(report));
                continue;
            }
            let lib = rows.technology.library();
            let crosscheck_error: &Option<String> = crosscheck.get_or_insert_with(|| {
                dataflow::crosscheck(netlist, &core.facts, CROSSCHECK_CYCLES).err()
            });
            let sta = analysis::sta_with_fanout(
                netlist,
                lib,
                core.facts.fanout(),
                analysis::DEFAULT_TOP_PATHS,
            );
            let fmax = sta.fmax();
            rows.figure7.push(Ok(DesignPoint {
                name: config.name(),
                pipeline_stages: config.pipeline_stages,
                datawidth: config.datawidth,
                bars: config.bars,
                gate_count: netlist.gate_count(),
                sequential: netlist.sequential_count(),
                fmax,
                area: analysis::area(netlist, lib).total,
                power: analysis::power(netlist, lib, fmax, ActivityModel::default()).total(),
            }));
            rows.lint.push(LintRow::new(&report, netlist.gate_count()));
            rows.static_rows.push(StaticRow::new(
                netlist,
                &core.facts,
                &report,
                &sta,
                crosscheck_error.clone(),
            ));
        }
    }
    for cpu in BaselineCpu::ALL {
        for rows in &mut rows {
            let lib = rows.technology.library();
            let inventory = cpu.inventory(rows.technology);
            let netlist = inventory.representative_netlist();
            let facts = dataflow::analyze(&netlist);
            let report = lint::lint_with_facts(&netlist, lib, &facts);
            let sta = analysis::sta_with_fanout(
                &netlist,
                lib,
                facts.fanout(),
                analysis::DEFAULT_TOP_PATHS,
            );
            let crosscheck_error = dataflow::crosscheck(&netlist, &facts, CROSSCHECK_CYCLES).err();
            rows.lint.push(LintRow::new(&report, inventory.gates));
            rows.static_rows.push(StaticRow::new(
                &netlist,
                &facts,
                &report,
                &sta,
                crosscheck_error,
            ));
        }
    }
    DesignSpace { rows }
}

/// `technology`'s rows of the process's one [`analyze`] table.
pub(crate) fn rows(technology: Technology) -> &'static TechnologyRows {
    static TABLE: OnceLock<DesignSpace> = OnceLock::new();
    TABLE
        .get_or_init(analyze)
        .rows
        .iter()
        .find(|rows| rows.technology == technology)
        .unwrap_or_else(|| unreachable!("the pass covers every technology"))
}
