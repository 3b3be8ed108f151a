//! ISS-vs-gate-level differential validation of the TP-ISA core.
//!
//! The cycle-accounting instruction-set simulator
//! ([`printed_core::sim::Machine`]) produces every CPI and energy number
//! in the Figure 7/8 sweeps; the gate-level machine
//! ([`printed_core::generator::GateLevelMachine`]) is the netlist the
//! area/power models are costed from. This module proves the two agree:
//! each benchmark kernel runs on both, one retired instruction per
//! lockstep step, comparing PC, flags, a data-memory digest, and cycle
//! counts after every step (the harness lives in
//! [`printed_baselines::diff`]).
//!
//! A gate-level simulation failure mid-compare — an oscillating netlist
//! ([`printed_netlist::NetlistError::Unsettled`]) or a tripped
//! cycle-limit watchdog
//! ([`printed_netlist::NetlistError::DeadlineExceeded`]) — is reported
//! as a [`printed_baselines::diff::Divergence::SimError`] carrying the
//! gate-level machine's current cycle, and both sides' snapshots are
//! dumped next to the report when `PRINTED_SNAP_DIR` (or
//! [`LockstepOptions::snapshot_dir`]) is set, so the aborted state can
//! be reloaded and replayed offline.
//!
//! [`diff_report`] sweeps every benchmark kernel at every supported data
//! width on the standard 8-bit single-cycle core, and
//! [`diff_json`] serializes the result as the `printed-diff-summary/v1`
//! artifact the `reproduce_all` pipeline writes to `$PRINTED_DIFF_OUT`
//! (default `diff_summary.json`). Zero divergences is the CI gate.

use crate::report::TextTable;
use printed_baselines::diff::{
    run_lockstep, write_snapshot, ArchState, DivergenceReport, LockstepOptions, LockstepSide,
    LockstepStats, SideError,
};
use printed_core::kernels::{self, Kernel, KernelProgram};
use printed_core::{
    generate_standard, CoreConfig, CoreSpec, GateLevelMachine, Instruction, Machine,
};
use printed_netlist::snapshot::fnv1a;
use printed_netlist::Netlist;
use printed_obs as obs;
use std::path::{Path, PathBuf};

/// Digest of a data memory image (shared by both sides so the compare
/// is exact, not representational).
fn dmem_digest(words: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for &word in words {
        bytes.extend_from_slice(&word.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// One line of program listing for the divergence trace window.
fn listing_line(program: &[Instruction], pc: u64) -> String {
    match program.get(pc as usize) {
        Some(inst) => format!("{pc:02X}  {inst}"),
        None => format!("{pc:02X}  <past end of program>"),
    }
}

/// The instruction-set simulator as a lockstep side.
#[derive(Debug)]
pub struct IssSide {
    machine: Machine,
}

impl IssSide {
    /// A fresh ISS machine running `program` on `config`, inputs loaded.
    ///
    /// # Panics
    ///
    /// Panics if `config.datawidth` differs from the kernel's generated
    /// core width (see [`KernelProgram::machine`]).
    pub fn new(program: &KernelProgram, config: CoreConfig) -> Self {
        IssSide { machine: program.machine(config) }
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

impl LockstepSide for IssSide {
    fn name(&self) -> &'static str {
        "iss"
    }

    fn state(&self) -> ArchState {
        let summary = self.machine.summary();
        ArchState {
            pc: self.machine.pc() as u64,
            // BAR values are not observable at the gate level (no port),
            // so the architectural compare covers PC/flags/memory; a BAR
            // mismatch surfaces through the addresses it corrupts.
            regs: Vec::new(),
            flags: self.machine.flags().bits() as u64,
            cycles: summary.cycles,
            instructions: summary.instructions,
            halted: self.machine.is_halted(),
        }
    }

    fn mem_digest(&self) -> u64 {
        dmem_digest(self.machine.dmem().contents())
    }

    fn disasm_at_pc(&self) -> String {
        listing_line(self.machine.program(), self.machine.pc() as u64)
    }

    fn step(&mut self) -> Result<(), SideError> {
        let cycle = self.machine.summary().cycles;
        self.machine.step().map(|_| ()).map_err(|e| SideError { message: e.to_string(), cycle })
    }

    fn save_snapshot(&self, dir: &Path, tag: &str) -> Option<PathBuf> {
        write_snapshot(&self.machine, dir, self.name(), tag)
    }
}

/// The gate-level machine as a lockstep side.
#[derive(Debug)]
pub struct GateSide<'a> {
    machine: GateLevelMachine<'a>,
    listing: Vec<Instruction>,
}

impl<'a> GateSide<'a> {
    /// A gate-level machine over `netlist` running `program` (encoded
    /// for `config`), inputs loaded.
    ///
    /// # Panics
    ///
    /// Panics if the config is not single-cycle (gate-level
    /// co-simulation is single-cycle only).
    pub fn new(netlist: &'a Netlist, program: &KernelProgram, config: CoreConfig) -> Self {
        let encoding = config.encoding();
        let words = program
            .instructions
            .iter()
            .map(|inst| {
                encoding.encode(*inst).unwrap_or_else(|_| unreachable!("generated kernels encode"))
                    as u64
            })
            .collect();
        let spec = CoreSpec::standard(config);
        let mut machine = GateLevelMachine::new(netlist, spec, words, program.dmem_words);
        for &(addr, value) in &program.inputs {
            machine.write_dmem(addr as usize, value);
        }
        GateSide { machine, listing: program.instructions.clone() }
    }

    /// The wrapped machine (e.g. to arm the cycle-limit watchdog).
    pub fn machine_mut(&mut self) -> &mut GateLevelMachine<'a> {
        &mut self.machine
    }

    /// The wrapped machine.
    pub fn machine(&self) -> &GateLevelMachine<'a> {
        &self.machine
    }
}

impl LockstepSide for GateSide<'_> {
    fn name(&self) -> &'static str {
        "gate-level"
    }

    fn state(&self) -> ArchState {
        let cycles = self.machine.stats().cycles;
        ArchState {
            pc: self.machine.pc(),
            regs: Vec::new(),
            flags: self.machine.flags().bits() as u64,
            cycles,
            // Single-cycle core: one instruction retires per cycle.
            instructions: cycles,
            halted: self.machine.is_halted(),
        }
    }

    fn mem_digest(&self) -> u64 {
        dmem_digest(self.machine.dmem())
    }

    fn disasm_at_pc(&self) -> String {
        listing_line(&self.listing, self.machine.pc())
    }

    fn step(&mut self) -> Result<(), SideError> {
        // Simulation failures carry the current gate-level cycle so an
        // Unsettled/DeadlineExceeded abort is placed in time even though
        // no state compare runs for the failed step.
        let cycle = self.machine.stats().cycles;
        self.machine.step().map_err(|e| SideError { message: e.to_string(), cycle })
    }

    fn save_snapshot(&self, dir: &Path, tag: &str) -> Option<PathBuf> {
        write_snapshot(&self.machine, dir, self.name(), tag)
    }
}

/// Runs one kernel in ISS-vs-gate-level lockstep on `config`'s standard
/// core `netlist`, as [`generate_standard`] builds it; a sweep over many
/// kernels builds the core once and passes it to every call.
///
/// Returns the run stats and whether the gate-level result words match
/// the kernel's golden expectation.
///
/// # Errors
///
/// The first-divergence report.
///
/// # Panics
///
/// Panics if the config is not single-cycle or its datawidth differs
/// from the kernel's core width.
pub fn diff_kernel(
    netlist: &Netlist,
    program: &KernelProgram,
    config: CoreConfig,
    options: &LockstepOptions,
) -> Result<(LockstepStats, bool), Box<DivergenceReport>> {
    let mut iss = IssSide::new(program, config);
    let mut gate = GateSide::new(netlist, program, config);
    let stats = run_lockstep(&mut iss, &mut gate, options)?;
    let (base, len) = program.result;
    let result_ok = (0..len).all(|i| {
        gate.machine().dmem().get(base as usize + i).copied() == program.expected.get(i).copied()
    });
    Ok((stats, result_ok))
}

/// One kernel × config row of the differential sweep.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Kernel name with data width, e.g. `mult16`.
    pub kernel: String,
    /// Core config name, e.g. `p1_8_2`.
    pub config: String,
    /// Lockstep steps run (retired instructions per side).
    pub steps: u64,
    /// Final cycle count.
    pub cycles: u64,
    /// Whether both sides halted within the step budget.
    pub halted: bool,
    /// Whether the gate-level result matched the golden expectation.
    pub result_ok: bool,
    /// The first divergence, rendered, or `None` for a clean run.
    pub divergence: Option<String>,
}

/// The full ISS-vs-gate-level differential sweep.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// One row per kernel × data width.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Rows that diverged.
    pub fn divergences(&self) -> usize {
        self.rows.iter().filter(|r| r.divergence.is_some()).count()
    }

    /// Rows whose gate-level result missed the golden expectation.
    pub fn wrong_results(&self) -> usize {
        self.rows.iter().filter(|r| !r.result_ok).count()
    }
}

/// Runs every benchmark kernel at every supported data width on the
/// standard 8-bit single-cycle core, ISS vs gate level in lockstep.
pub fn diff_report(options: &LockstepOptions) -> DiffReport {
    let _span = printed_obs::span!("eval.diff_report");
    let config = CoreConfig::new(1, 8, 2);
    let netlist = generate_standard(&config);
    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        for &data_width in kernel.data_widths() {
            let Ok(program) = kernels::generate(kernel, config.datawidth, data_width) else {
                continue;
            };
            let row = match diff_kernel(&netlist, &program, config, options) {
                Ok((stats, result_ok)) => DiffRow {
                    kernel: program.name.clone(),
                    config: config.name(),
                    steps: stats.steps,
                    cycles: stats.cycles,
                    halted: stats.halted,
                    result_ok,
                    divergence: None,
                },
                Err(report) => DiffRow {
                    kernel: program.name.clone(),
                    config: config.name(),
                    steps: report.step,
                    cycles: report.cycle,
                    halted: false,
                    result_ok: false,
                    divergence: Some(report.to_string()),
                },
            };
            rows.push(row);
        }
    }
    if printed_obs::enabled() {
        let report = DiffReport { rows: rows.clone() };
        printed_obs::add("eval.diff.rows", report.rows.len() as u64);
        printed_obs::add("eval.diff.divergences", report.divergences() as u64);
        return report;
    }
    DiffReport { rows }
}

/// Renders the sweep as an aligned text table.
pub fn diff_summary(report: &DiffReport) -> TextTable {
    let mut table = TextTable::new(
        "ISS vs gate-level lockstep".to_string(),
        &["kernel", "config", "steps", "cycles", "halted", "result", "divergence"],
    );
    for r in &report.rows {
        table.row(vec![
            r.kernel.clone(),
            r.config.clone(),
            r.steps.to_string(),
            r.cycles.to_string(),
            r.halted.to_string(),
            if r.result_ok { "ok".to_string() } else { "WRONG".to_string() },
            r.divergence.clone().unwrap_or_else(|| "-".to_string()),
        ]);
    }
    table
}

/// Serializes the sweep as the `printed-diff-summary/v1` JSON artifact
/// (parses under [`printed_obs::json::parse`]; ci.sh consumes it).
pub fn diff_json(report: &DiffReport) -> String {
    let mut out = String::from("{\"schema\":\"printed-diff-summary/v1\",\"rows\":[");
    for (i, r) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"kernel\":{},\"config\":{},\"steps\":{},\"cycles\":{},\"halted\":{},\
             \"result_ok\":{},\"divergence\":{}}}",
            obs::json::escape(&r.kernel),
            obs::json::escape(&r.config),
            r.steps,
            r.cycles,
            r.halted,
            r.result_ok,
            r.divergence.as_deref().map_or_else(|| "null".to_string(), obs::json::escape),
        ));
    }
    out.push_str(&format!(
        "],\"totals\":{{\"rows\":{},\"divergences\":{},\"wrong_results\":{}}}}}",
        report.rows.len(),
        report.divergences(),
        report.wrong_results()
    ));
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_matches_gate_level_in_lockstep() {
        let report = diff_report(&LockstepOptions::default());
        assert!(!report.rows.is_empty());
        for row in &report.rows {
            assert!(row.divergence.is_none(), "{} diverged: {:?}", row.kernel, row.divergence);
            assert!(row.halted, "{} did not halt", row.kernel);
            assert!(row.result_ok, "{} produced a wrong result", row.kernel);
            assert!(row.steps > 0);
        }
        let json = diff_json(&report);
        let value = obs::json::parse(&json).expect("artifact must be valid JSON");
        assert_eq!(
            value.get("schema").and_then(obs::json::Value::as_str),
            Some("printed-diff-summary/v1")
        );
        assert!(json.contains("\"divergences\":0"), "{json}");
        assert_eq!(diff_summary(&report).len(), report.rows.len());
    }

    #[test]
    fn a_tripped_watchdog_reports_the_cycle_and_dumps_both_snapshots() {
        let config = CoreConfig::new(1, 8, 2);
        let program = kernels::generate(Kernel::Mult, 8, 8).unwrap();
        let netlist = generate_standard(&config);
        let mut iss = IssSide::new(&program, config);
        let mut gate = GateSide::new(&netlist, &program, config);
        // Arm the watchdog far below the kernel's runtime: the gate side
        // aborts with DeadlineExceeded mid-compare.
        gate.machine_mut().set_cycle_limit(Some(5));
        let dir = std::env::temp_dir().join(format!("printed-diff-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options =
            LockstepOptions { snapshot_dir: Some(dir.clone()), ..LockstepOptions::default() };
        let report = run_lockstep(&mut iss, &mut gate, &options).unwrap_err();
        match &report.divergence {
            printed_baselines::diff::Divergence::SimError { side, message, cycle } => {
                assert_eq!(*side, "gate-level");
                assert!(message.contains("deadline") || message.contains("cycle"), "{message}");
                assert_eq!(*cycle, 5, "abort is placed at the watchdog deadline");
            }
            other => panic!("expected SimError, got {other:?}"),
        }
        let snap_a = report.snapshot_a.as_ref().expect("ISS snapshot dumped");
        let snap_b = report.snapshot_b.as_ref().expect("gate snapshot dumped");
        assert!(snap_a.exists() && snap_b.exists());
        let text = report.to_string();
        assert!(text.contains("failed at cycle 5"), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
