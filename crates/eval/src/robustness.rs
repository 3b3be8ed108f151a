//! Fault-tolerance evaluation: design-space fault campaigns, functional
//! yield, and the cost of TMR hardening.
//!
//! Extends the paper's §3.1 yield argument with measurement. The naive
//! circuit-yield model (`Y = y^n`) assumes every printed defect kills the
//! core; the fault campaigns in [`printed_netlist::fault`] measure how
//! many stuck-at defects a real workload actually masks, and
//! [`printed_pdk::yield_model::functional_yield`] converts per-gate
//! masking into the probability a defective print still computes
//! correctly. [`fault_summary`] runs that analysis over the Figure 7
//! design-space points; [`tmr_comparison`] prices TMR hardening (area /
//! power / f_max) against the SEU coverage it buys. Everything is
//! deterministic under [`RobustnessOptions::seed`].
//!
//! The four baseline CPUs have no campaign row. Their representative
//! netlists (`printed_baselines::CellInventory::representative_netlist`)
//! are calibrated cell chains ending in a long DFF chain whose only
//! output is its last stage, right for what lint and static analysis
//! read but not for masking: in a 32-cycle run no fault upstream of the
//! chain reaches the output, so a campaign on one measures the chain's
//! depth, not the CPU.
//!
//! Every campaign runs on the one scheduler,
//! [`printed_netlist::resilience::run_supervised_campaign`], with its
//! worker count from `PRINTED_SIM_THREADS` ([`campaign_threads`]) and its
//! checkpoint directory from `PRINTED_CKPT_DIR` ([`checkpoint_dir`]);
//! neither changes a row.

use crate::manufacturing::netlist_devices;
use crate::report::TextTable;
use printed_core::workload::ProgramWorkload;
use printed_core::{generate_standard, CoreConfig};
use printed_netlist::fault::{
    campaign_threads, yield_sites, CampaignConfig, CampaignResult, OutcomeCounts, PatternWorkload,
    StuckAtSpace, Workload,
};
use printed_netlist::resilience::{
    checkpoint_dir, run_supervised_campaign, JobError, SupervisedRun,
};
use printed_netlist::{analysis, tmr, Netlist};
use printed_pdk::yield_model;
use printed_pdk::Technology;

/// Campaign sizing and seeding for the robustness report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessOptions {
    /// Per-device yield used for both yield models (§3.1's optimistic
    /// inkjet corner).
    pub device_yield: f64,
    /// Designs at or below this gate count get exhaustive single
    /// stuck-at enumeration; larger ones are sampled.
    pub exhaustive_gate_limit: usize,
    /// Stuck-at samples for designs above the exhaustive limit.
    pub stuck_samples: usize,
    /// Monte-Carlo SEU samples per design.
    pub seu_samples: usize,
    /// Random-stimulus cycles for netlists without a program harness:
    /// the pipelined design-space cores.
    pub pattern_cycles: u64,
    /// Hard per-run cycle cap.
    pub cycle_budget: u64,
    /// Seed for every sampled choice in the report.
    pub seed: u64,
}

impl Default for RobustnessOptions {
    fn default() -> Self {
        RobustnessOptions {
            device_yield: 0.9999,
            exhaustive_gate_limit: 600,
            stuck_samples: 96,
            seu_samples: 24,
            pattern_cycles: 32,
            cycle_budget: 200,
            seed: 0xFA17,
        }
    }
}

/// Fault-tolerance figures for one design.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRow {
    /// Design name.
    pub design: String,
    /// Gate count.
    pub gates: usize,
    /// Whether the stuck-at space was enumerated exhaustively.
    pub exhaustive: bool,
    /// Stuck-at outcome tallies.
    pub stuck: OutcomeCounts,
    /// SEU outcome tallies.
    pub seu: OutcomeCounts,
    /// Naive exponential circuit yield (every defect fatal).
    pub naive_yield: f64,
    /// Functional yield (masked defects survive).
    pub functional_yield: f64,
    /// Core area, cm².
    pub area_cm2: f64,
    /// Core power, mW.
    pub power_mw: f64,
    /// Nominal f_max, Hz.
    pub fmax_hz: f64,
}

/// Runs one design's fault campaign and rolls the result into a
/// [`RobustnessRow`].
///
/// The campaign runs on the one scheduler ([`run_supervised_campaign`])
/// with [`campaign_threads`] workers and no cancel flag: panicking fault
/// runs are isolated and retried, and setting `PRINTED_CKPT_DIR` (read
/// by [`checkpoint_dir`]) makes the campaign checkpoint/resumable. With
/// the variable unset there is no I/O on the campaign path, and the
/// result equals [`printed_netlist::fault::run_campaign`]'s.
///
/// # Errors
///
/// Propagates a [`JobError`] if the fault-free golden run fails or the
/// supervision machinery does (checkpoint corruption, unrecoverable
/// panics in the golden run).
pub fn campaign_row(
    netlist: &Netlist,
    workload: &dyn Workload,
    technology: Technology,
    options: &RobustnessOptions,
) -> Result<RobustnessRow, JobError> {
    let costs = Costs::characterize(netlist, technology);
    priced_campaign_row(netlist, workload, technology, options, costs)
}

/// A design's area, power and nominal f_max, as its row reports them.
#[derive(Debug, Clone, Copy)]
struct Costs {
    area_cm2: f64,
    power_mw: f64,
    fmax_hz: f64,
}

impl Costs {
    /// Prices `netlist` with [`analysis::characterize`].
    fn characterize(netlist: &Netlist, technology: Technology) -> Self {
        let ch = analysis::characterize(netlist, technology.library());
        Costs {
            area_cm2: ch.area.total.as_cm2(),
            power_mw: ch.power.total().as_milliwatts(),
            fmax_hz: ch.fmax.as_hertz(),
        }
    }

    /// The `index`th sweep core's figures, read from the design-space
    /// table: the same STA, area and power [`analysis::characterize`]
    /// computes, taken once per process
    /// (`characterize_equals_figure7_on_every_sweep_core`).
    ///
    /// # Panics
    ///
    /// Panics if the core fails DRC in `technology`, as [`crate::figure7`]
    /// does.
    fn sweep_core(technology: Technology, index: usize) -> Self {
        match &crate::design_space::rows(technology).figure7[index] {
            Ok(point) => Costs {
                area_cm2: point.area.as_cm2(),
                power_mw: point.power.as_milliwatts(),
                fmax_hz: point.fmax.as_hertz(),
            },
            Err(report) => panic!("design point fails DRC:\n{}", report.render_text()),
        }
    }
}

/// [`campaign_row`] for a design whose [`Costs`] are already known.
fn priced_campaign_row(
    netlist: &Netlist,
    workload: &dyn Workload,
    technology: Technology,
    options: &RobustnessOptions,
    costs: Costs,
) -> Result<RobustnessRow, JobError> {
    let exhaustive = netlist.gate_count() <= options.exhaustive_gate_limit;
    let config = CampaignConfig {
        cycle_budget: options.cycle_budget,
        stuck_at: if exhaustive {
            StuckAtSpace::Exhaustive
        } else {
            StuckAtSpace::Sampled(options.stuck_samples)
        },
        seu_samples: options.seu_samples,
        seed: options.seed,
    };
    let run = run_supervised_campaign(
        netlist,
        workload,
        &config,
        checkpoint_dir().as_deref(),
        campaign_threads(),
        None,
    )?;
    let SupervisedRun::Complete(campaign) = run else {
        unreachable!("without a cancel flag the run always completes")
    };
    Ok(row_from_campaign(netlist, technology, options, exhaustive, &campaign.result, costs))
}

fn row_from_campaign(
    netlist: &Netlist,
    technology: Technology,
    options: &RobustnessOptions,
    exhaustive: bool,
    result: &CampaignResult,
    costs: Costs,
) -> RobustnessRow {
    let sites = yield_sites(netlist, technology, result);
    let naive_yield =
        yield_model::circuit_yield(netlist_devices(netlist, technology), options.device_yield);
    let functional_yield = yield_model::functional_yield(sites, options.device_yield);
    RobustnessRow {
        design: result.design.clone(),
        gates: netlist.gate_count(),
        exhaustive,
        stuck: result.stuck_counts(),
        seu: result.seu_counts(),
        naive_yield,
        functional_yield,
        area_cm2: costs.area_cm2,
        power_mw: costs.power_mw,
        fmax_hz: costs.fmax_hz,
    }
}

/// The stimulus [`fault_summary`] runs on a design-space core: the
/// gate-level smoke program on a single-cycle core, seeded random
/// patterns on a pipelined one.
pub fn summary_workload(config: CoreConfig, options: &RobustnessOptions) -> Box<dyn Workload> {
    if config.pipeline_stages == 1 {
        Box::new(ProgramWorkload::smoke(config))
    } else {
        Box::new(PatternWorkload { cycles: options.pattern_cycles, seed: options.seed })
    }
}

/// Fault campaigns over the Figure 7 design space, one row per core in
/// [`CoreConfig::design_space`] order. Single-cycle TP-ISA points run
/// the gate-level smoke program; multi-cycle points get seeded random
/// stimulus ([`summary_workload`]).
///
/// Each campaign parallelizes across `PRINTED_SIM_THREADS` workers with
/// byte-identical results (see [`campaign_threads`]), so the report is
/// reproducible at any thread count. Area, power and f_max come from the
/// process's design-space table, which [`crate::figure7`] prints.
///
/// # Errors
///
/// Propagates the first [`JobError`] — a design whose fault-free golden
/// run fails, does not complete, or fires the detect port.
///
/// # Panics
///
/// Panics if a design point fails DRC in `technology`.
pub fn fault_summary(
    technology: Technology,
    options: &RobustnessOptions,
) -> Result<Vec<RobustnessRow>, JobError> {
    let _span = printed_obs::span!("eval.robustness.fault_summary");
    if printed_obs::enabled() {
        printed_obs::gauge("eval.robustness.campaign_threads", campaign_threads() as f64);
    }
    let mut rows = Vec::new();
    for (index, config) in CoreConfig::design_space().into_iter().enumerate() {
        let netlist = generate_standard(&config);
        let workload = summary_workload(config, options);
        let costs = Costs::sweep_core(technology, index);
        rows.push(priced_campaign_row(&netlist, workload.as_ref(), technology, options, costs)?);
    }
    Ok(rows)
}

/// Renders a [`fault_summary`] as a text table.
pub fn fault_table(technology: Technology, rows: &[RobustnessRow]) -> TextTable {
    let mut table = TextTable::new(
        format!("Fault tolerance ({technology:?})"),
        &[
            "design",
            "gates",
            "space",
            "sa_runs",
            "masked",
            "sdc",
            "hang",
            "det",
            "seu_masked",
            "Y_naive",
            "Y_func",
        ],
    );
    for row in rows {
        table.row(vec![
            row.design.clone(),
            row.gates.to_string(),
            if row.exhaustive { "exh" } else { "smp" }.to_string(),
            row.stuck.total().to_string(),
            row.stuck.masked.to_string(),
            row.stuck.sdc.to_string(),
            row.stuck.hang.to_string(),
            row.stuck.detected.to_string(),
            format!("{}/{}", row.seu.masked, row.seu.total()),
            format!("{:.4}", row.naive_yield),
            format!("{:.4}", row.functional_yield),
        ]);
    }
    table
}

/// Deterministic CSV dump of a [`fault_summary`] at full float precision.
pub fn robustness_csv(rows: &[RobustnessRow]) -> String {
    let mut out = String::from(
        "design,gates,exhaustive,sa_masked,sa_sdc,sa_hang,sa_detected,\
         seu_masked,seu_sdc,seu_hang,seu_detected,naive_yield,functional_yield,\
         area_cm2,power_mw,fmax_hz\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            row.design,
            row.gates,
            row.exhaustive,
            row.stuck.masked,
            row.stuck.sdc,
            row.stuck.hang,
            row.stuck.detected,
            row.seu.masked,
            row.seu.sdc,
            row.seu.hang,
            row.seu.detected,
            row.naive_yield,
            row.functional_yield,
            row.area_cm2,
            row.power_mw,
            row.fmax_hz,
        ));
    }
    out
}

/// Cost and coverage of TMR hardening for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct TmrComparison {
    /// The unhardened core's figures.
    pub base: RobustnessRow,
    /// The TMR-hardened core's figures.
    pub hardened: RobustnessRow,
}

impl TmrComparison {
    /// Hardened / base area.
    pub fn area_factor(&self) -> f64 {
        self.hardened.area_cm2 / self.base.area_cm2
    }

    /// Hardened / base power.
    pub fn power_factor(&self) -> f64 {
        self.hardened.power_mw / self.base.power_mw
    }

    /// Hardened / base f_max (voters lengthen the register feedback
    /// path, so this is below 1).
    pub fn fmax_factor(&self) -> f64 {
        self.hardened.fmax_hz / self.base.fmax_hz
    }

    /// Fault coverage (masked or detected fraction, stuck-at + SEU) of a
    /// row's campaign.
    fn coverage(row: &RobustnessRow) -> f64 {
        let mut all = row.stuck;
        all.masked += row.seu.masked;
        all.detected += row.seu.detected;
        all.hang += row.seu.hang;
        all.sdc += row.seu.sdc;
        all.coverage()
    }

    /// Base-core fault coverage.
    pub fn base_coverage(&self) -> f64 {
        Self::coverage(&self.base)
    }

    /// Hardened-core fault coverage.
    pub fn hardened_coverage(&self) -> f64 {
        Self::coverage(&self.hardened)
    }
}

/// Prices TMR on representative single-cycle cores: the 4-bit and 8-bit
/// two-BAR design points, each running the gate-level smoke program.
/// The base cores' area, power and f_max come from the design-space
/// table; the hardened cores are priced with [`analysis::characterize`].
///
/// # Errors
///
/// Propagates the first [`JobError`] from a base or hardened core's
/// golden run, or a [`JobError::Panicked`] if TMR transformation of a
/// generated core fails (it reserves the `tmr_err` port name).
///
/// # Panics
///
/// Panics if a base core fails DRC in `technology`.
pub fn tmr_comparison(
    technology: Technology,
    options: &RobustnessOptions,
) -> Result<Vec<TmrComparison>, JobError> {
    let _span = printed_obs::span!("eval.robustness.tmr_comparison");
    let mut comparisons = Vec::new();
    let sweep = CoreConfig::design_space();
    for config in [CoreConfig::new(1, 4, 2), CoreConfig::new(1, 8, 2)] {
        let base = generate_standard(&config);
        let hardened = tmr(&base).map_err(|e| JobError::Panicked {
            job: format!("tmr({})", config.name()),
            message: e.to_string(),
            attempts: 1,
        })?;
        let workload = ProgramWorkload::smoke(config);
        let index = sweep
            .iter()
            .position(|&c| c == config)
            .unwrap_or_else(|| unreachable!("p1_4_2 and p1_8_2 are sweep cores"));
        let base_costs = Costs::sweep_core(technology, index);
        let base_row = priced_campaign_row(&base, &workload, technology, options, base_costs)?;
        let hard_row = campaign_row(&hardened, &workload, technology, options)?;
        comparisons.push(TmrComparison { base: base_row, hardened: hard_row });
    }
    Ok(comparisons)
}

/// Renders a [`tmr_comparison`] as a text table.
pub fn tmr_table(technology: Technology, comparisons: &[TmrComparison]) -> TextTable {
    let mut table = TextTable::new(
        format!("TMR hardening cost vs coverage ({technology:?})"),
        &[
            "design", "gates", "area_x", "power_x", "fmax_x", "cov_base", "cov_tmr", "seu_base",
            "seu_tmr",
        ],
    );
    for c in comparisons {
        table.row(vec![
            c.hardened.design.clone(),
            format!("{}->{}", c.base.gates, c.hardened.gates),
            format!("{:.2}", c.area_factor()),
            format!("{:.2}", c.power_factor()),
            format!("{:.2}", c.fmax_factor()),
            format!("{:.3}", c.base_coverage()),
            format!("{:.3}", c.hardened_coverage()),
            format!("{}/{}", c.base.seu.masked, c.base.seu.total()),
            format!("{}/{}", c.hardened.seu.masked, c.hardened.seu.total()),
        ]);
    }
    table
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_netlist::lint;

    /// Small campaigns so debug-mode tests stay fast.
    fn quick(exhaustive_gate_limit: usize) -> RobustnessOptions {
        RobustnessOptions {
            exhaustive_gate_limit,
            stuck_samples: 24,
            seu_samples: 8,
            pattern_cycles: 8,
            cycle_budget: 100,
            ..RobustnessOptions::default()
        }
    }

    #[test]
    fn exhaustive_campaign_on_a_design_point_beats_naive_yield() {
        let config = CoreConfig::new(1, 4, 2);
        let netlist = generate_standard(&config);
        let workload = ProgramWorkload::smoke(config);
        // Force exhaustive enumeration regardless of gate count.
        let options = quick(netlist.gate_count());
        let row = campaign_row(&netlist, &workload, Technology::Egfet, &options).unwrap();
        assert!(row.exhaustive);
        assert_eq!(row.stuck.total(), 2 * netlist.gate_count());
        assert!(row.stuck.masked > 0, "exhaustive stuck-at must find masked faults: {row:?}");
        assert!(
            row.functional_yield > row.naive_yield,
            "masking must lift functional yield: {} vs {}",
            row.functional_yield,
            row.naive_yield
        );
    }

    #[test]
    fn tmr_comparison_is_lint_clean_and_buys_seu_coverage() {
        let config = CoreConfig::new(1, 4, 2);
        let base = generate_standard(&config);
        let hardened = tmr(&base).unwrap();
        let report = lint::lint(&hardened, Technology::Egfet.library());
        assert!(!report.has_errors(), "TMR netlist must pass lint:\n{}", report.render_text());

        let options = quick(0); // sampled stuck-at keeps this test fast
        let comparisons = tmr_comparison(Technology::Egfet, &options).unwrap();
        let c = &comparisons[0];
        assert_eq!(c.hardened.design, format!("{}_tmr", config.name()));
        assert!(c.area_factor() > 1.0, "TMR costs area: {}", c.area_factor());
        assert!(c.power_factor() > 1.0, "TMR costs power: {}", c.power_factor());
        assert!(c.fmax_factor() <= 1.0, "voters cannot speed the core up");
        assert_eq!(
            c.hardened.seu.masked,
            c.hardened.seu.total(),
            "TMR masks every sampled single SEU: {:?}",
            c.hardened.seu
        );
        assert!(c.hardened_coverage() >= c.base_coverage());
    }

    #[test]
    fn summary_rows_and_csv_are_deterministic() {
        // One small design point, run twice.
        let config = CoreConfig::new(1, 4, 2);
        let netlist = generate_standard(&config);
        let workload = ProgramWorkload::smoke(config);
        let options = quick(0);
        let a = campaign_row(&netlist, &workload, Technology::Egfet, &options).unwrap();
        let b = campaign_row(&netlist, &workload, Technology::Egfet, &options).unwrap();
        assert_eq!(a, b);
        assert_eq!(robustness_csv(std::slice::from_ref(&a)), robustness_csv(&[b]));
        let table = fault_table(Technology::Egfet, &[a]);
        assert_eq!(table.len(), 1);
    }
}
