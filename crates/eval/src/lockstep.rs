//! ISS-vs-gate-level differential validation of the TP-ISA core.
//!
//! The cycle-accounting instruction-set simulator
//! ([`printed_core::sim::Machine`]) produces every CPI and energy number
//! in the Figure 7/8 sweeps; the gate-level machine
//! ([`printed_core::generator::GateLevelMachine`]) is the netlist the
//! area/power models are costed from. This module proves the two agree:
//! each benchmark kernel runs on both, one retired instruction per
//! lockstep step, comparing PC, flags, data memory, and cycle counts
//! after every step.
//!
//! There are two paths to the same rows:
//!
//! - **The scalar path.** [`diff_kernel`] runs one program through
//!   [`run_lockstep`] (the harness in [`printed_baselines::diff`]) with
//!   an [`IssSide`] and a [`GateSide`], comparing a full data-memory
//!   digest each step; on the first divergence it returns the report
//!   with a trace window and both sides' state.
//! - **The word path.** [`diff_programs`] packs up to 64 programs into
//!   one [`LockstepWord`], a bitsliced core with one program per lane,
//!   and clocks the word once per step. After each step every live lane
//!   is compared with its own ISS [`Machine`] on halt state, pc, flags
//!   and cycles. For memory, the words either side wrote this step
//!   ([`LockstepWord::writes`], [`Machine::last_write`]) must read back
//!   equal on both sides: the images are compared whole at step 0, and
//!   a step changes only the words written in it, so the images stay
//!   equal exactly when the scalar path's digests do. A lane whose run
//!   does not end cleanly halted on both sides — any mismatch, an ISS
//!   error, an oscillating lane, or `max_steps` reached — is rerun
//!   through [`diff_kernel`], whose report becomes its row, and so is a
//!   program that does not encode ([`DiffError::Encode`]). Divergence
//!   texts, trace windows and states are therefore always the scalar
//!   run's own, and the scalar path stays the oracle the word path is
//!   tested against.
//!
//! Both paths co-simulate the core by the protocol of
//! [`printed_core::cosim`] and encode ROMs with [`NarrowEncoding`].
//!
//! A gate-level simulation failure mid-compare — an oscillating netlist
//! ([`printed_netlist::NetlistError::Unsettled`]) — is reported as a
//! [`printed_baselines::diff::Divergence::SimError`] carrying the
//! gate-level machine's current cycle. Runs are bounded by
//! [`LockstepOptions::max_steps`], not by a simulator deadline. Like every divergence, the report
//! carries both sides' architectural state at the abort, and its
//! rendering is the row's `divergence` text in the summary artifact.
//!
//! [`diff_report`] sweeps every benchmark kernel at every supported data
//! width on the standard 8-bit single-cycle core through the word path
//! (its 16 kernels fit one word), and [`diff_json`] serializes the
//! result as the `printed-diff-summary/v1` artifact the `reproduce_all`
//! pipeline writes to `$PRINTED_DIFF_OUT` (default `diff_summary.json`).
//! Zero divergences is the CI gate.

use crate::report::TextTable;
use printed_baselines::diff::{
    run_lockstep, ArchState, DivergenceReport, LockstepOptions, LockstepSide, LockstepStats,
    SideError,
};
use printed_core::kernels::{self, Kernel, KernelProgram};
use printed_core::{
    generate_standard, CoreConfig, CoreSpec, GateLevelMachine, Instruction, IsaError, LockstepWord,
    Machine, NarrowEncoding,
};
use printed_netlist::hash::Fnv1a;
use printed_netlist::{Netlist, NetlistError};
use printed_obs as obs;
use std::fmt;

/// Digest of a data memory image (shared by both sides so the compare
/// is exact, not representational).
fn dmem_digest(words: &[u64]) -> u64 {
    let mut hash = Fnv1a::new();
    for &word in words {
        hash.write_u64(word);
    }
    hash.finish()
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
}

/// The gate-level machine as a lockstep side.
#[derive(Debug)]
pub struct GateSide<'a> {
    machine: GateLevelMachine<'a>,
    listing: Vec<Instruction>,
}

impl<'a> GateSide<'a> {
    /// A gate-level machine over `netlist` running `program` (encoded
    /// for `config`), inputs loaded; [`DiffError::Encode`] if the
    /// program does not encode, [`DiffError::Ports`] if the netlist
    /// lacks the core's memory interface.
    ///
    /// # Panics
    ///
    /// Panics if the config is not single-cycle (gate-level
    /// co-simulation is single-cycle only).
    pub fn new(
        netlist: &'a Netlist,
        program: &KernelProgram,
        config: CoreConfig,
    ) -> Result<Self, DiffError> {
        let spec = CoreSpec::standard(config);
        let words = NarrowEncoding::new(spec.clone())
            .encode_program(&program.instructions)
            .map_err(DiffError::Encode)?;
        let mut machine = GateLevelMachine::new(netlist, spec, words, program.dmem_words)
            .map_err(DiffError::Ports)?;
        for &(addr, value) in &program.inputs {
            machine.write_dmem(addr as usize, value);
        }
        Ok(GateSide { machine, listing: program.instructions.clone() })
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
        // Unsettled abort is placed in time even though no state compare
        // runs for the failed step.
        let cycle = self.machine.stats().cycles;
        self.machine.step().map_err(|e| SideError { message: e.to_string(), cycle })
    }
}

/// Why [`diff_kernel`] did not run a program clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// The program does not encode for the core; no step ran.
    Encode(IsaError),
    /// The netlist lacks a [`printed_core::cosim`] port (or has one
    /// wider than 64 bits); no step ran.
    Ports(NetlistError),
    /// The two sides diverged: the first-divergence report.
    Diverged(Box<DivergenceReport>),
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::Encode(e) => write!(f, "program does not encode: {e}"),
            DiffError::Ports(e) => write!(f, "gate-level core: {e}"),
            DiffError::Diverged(report) => report.fmt(f),
        }
    }
}

impl std::error::Error for DiffError {}

/// Runs one kernel in ISS-vs-gate-level lockstep on `config`'s standard
/// core `netlist`, as [`generate_standard`] builds it; a sweep over many
/// kernels builds the core once and passes it to every call.
///
/// Returns the run stats and whether the gate-level result words match
/// the kernel's golden expectation.
///
/// # Errors
///
/// The first-divergence report, or why the gate-level side could not be
/// built.
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
) -> Result<(LockstepStats, bool), DiffError> {
    let mut iss = IssSide::new(program, config);
    let mut gate = GateSide::new(netlist, program, config)?;
    let stats = run_lockstep(&mut iss, &mut gate, options).map_err(DiffError::Diverged)?;
    let (base, len) = program.result;
    let result_ok = (0..len).all(|i| {
        gate.machine().dmem().get(base as usize + i).copied() == program.expected.get(i).copied()
    });
    Ok((stats, result_ok))
}

/// One kernel × config row of the differential sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The row of one scalar [`diff_kernel`] run: its stats, or its
/// [`DiffError`] rendered (a first-divergence report at the step and
/// cycle it names; a setup failure at step and cycle 0).
///
/// # Panics
///
/// As [`diff_kernel`].
pub fn scalar_diff_row(
    netlist: &Netlist,
    program: &KernelProgram,
    config: CoreConfig,
    options: &LockstepOptions,
) -> DiffRow {
    let (steps, cycles, halted, result_ok, divergence) =
        match diff_kernel(netlist, program, config, options) {
            Ok((stats, result_ok)) => (stats.steps, stats.cycles, stats.halted, result_ok, None),
            Err(DiffError::Diverged(report)) => {
                (report.step, report.cycle, false, false, Some(report.to_string()))
            }
            Err(e) => (0, 0, false, false, Some(e.to_string())),
        };
    DiffRow {
        kernel: program.name.clone(),
        config: config.name(),
        steps,
        cycles,
        halted,
        result_ok,
        divergence,
    }
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

/// Exact work counts of a word-path sweep ([`diff_programs`]), which
/// [`diff_report`] emits into `obs` as `eval.diff.words`,
/// `eval.diff.word_cycles` and `eval.diff.scalar_reruns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiffWork {
    /// Lockstep words run, up to [`LockstepWord::MAX_PROGRAMS`]
    /// programs each.
    pub words: u64,
    /// Word cycles clocked, summed over the words.
    pub word_cycles: u64,
    /// Programs rerun through the scalar [`diff_kernel`].
    pub scalar_reruns: u64,
}

/// The lanes set in `mask`, lowest first.
fn lanes_of(mask: u64) -> impl Iterator<Item = usize> {
    std::iter::successors((mask != 0).then_some(mask), |&m| {
        let rest = m & (m - 1);
        (rest != 0).then_some(rest)
    })
    .map(|m| m.trailing_zeros() as usize)
}

/// Whether `lane` of the word and its ISS agree after `steps` steps on
/// everything [`run_lockstep`] compares but memory: halt state, pc,
/// flags and (when compared) cycles. A live lane has not halted before
/// this step, so its gate-level cycle count is `steps`.
fn lane_agrees(
    iss: &Machine,
    word: &LockstepWord<'_>,
    lane: usize,
    steps: u64,
    options: &LockstepOptions,
) -> bool {
    iss.is_halted() == (word.halted() >> lane & 1 == 1)
        && u64::from(iss.pc()) == word.pc(lane)
        && iss.flags().bits() == word.flags(lane).bits()
        && (!options.compare_cycles || iss.summary().cycles == steps)
}

/// Runs up to [`LockstepWord::MAX_PROGRAMS`] programs in one word and
/// returns their rows in order; see [`diff_programs`].
fn diff_word(
    netlist: &Netlist,
    programs: &[KernelProgram],
    config: CoreConfig,
    options: &LockstepOptions,
    work: &mut DiffWork,
) -> Vec<DiffRow> {
    let all = u64::MAX >> (64 - programs.len());
    let mut rows: Vec<Option<DiffRow>> = vec![None; programs.len()];
    let mut rerun = all;
    // Unencodable programs hold no lane, and a netlist without the
    // core's ports builds no word: the scalar rerun reports either.
    if let Ok(mut word) = LockstepWord::new(netlist, config, programs) {
        work.words += 1;
        let mut iss: Vec<Machine> = programs.iter().map(|p| p.machine(config)).collect();
        // Both sides start equal, the whole memory image included; from
        // then on only the words written in a step can differ.
        let mut live = 0;
        for (lane, (machine, program)) in iss.iter().zip(programs).enumerate() {
            let image = machine.dmem().contents();
            if word.lanes() >> lane & 1 == 1
                && lane_agrees(machine, &word, lane, 0, options)
                && (0..program.dmem_words).all(|a| image.get(a).copied() == word.dmem_word(lane, a))
            {
                live |= 1 << lane;
            }
        }
        rerun = all & !live;
        let mut steps = 0;
        while live != 0 && steps < options.max_steps {
            let mut failed = 0;
            for lane in lanes_of(live) {
                if iss[lane].step().is_err() {
                    failed |= 1 << lane;
                }
            }
            word.retire(failed);
            word.step();
            steps += 1;
            failed |= word.dead() & live;
            // A word either side wrote must read back equal on both.
            let differs = |machine: &Machine, lane, addr| {
                machine.dmem().contents().get(addr).copied() != word.dmem_word(lane, addr)
            };
            for &(addr, lanes) in word.writes() {
                for lane in lanes_of(lanes & live & !failed) {
                    if differs(&iss[lane], lane, addr) {
                        failed |= 1 << lane;
                    }
                }
            }
            let mut done = 0;
            for lane in lanes_of(live & !failed) {
                let machine = &iss[lane];
                if machine.last_write().is_some_and(|addr| differs(machine, lane, addr))
                    || !lane_agrees(machine, &word, lane, steps, options)
                {
                    failed |= 1 << lane;
                } else if machine.is_halted() {
                    done |= 1 << lane;
                    let program = &programs[lane];
                    let (base, len) = program.result;
                    let result_ok = (0..len).all(|i| {
                        word.dmem_word(lane, usize::from(base) + i)
                            == program.expected.get(i).copied()
                    });
                    rows[lane] = Some(DiffRow {
                        kernel: program.name.clone(),
                        config: config.name(),
                        steps,
                        cycles: machine.summary().cycles,
                        halted: true,
                        result_ok,
                        divergence: None,
                    });
                }
            }
            word.retire(failed);
            rerun |= failed;
            live &= !(failed | done);
        }
        // Cut off by `max_steps`: the scalar run reports where it stood.
        rerun |= live;
        work.word_cycles += steps;
    }
    for lane in lanes_of(rerun) {
        rows[lane] = Some(scalar_diff_row(netlist, &programs[lane], config, options));
        work.scalar_reruns += 1;
    }
    rows.into_iter()
        .map(|row| row.unwrap_or_else(|| unreachable!("every lane has a row")))
        .collect()
}

/// Runs `programs` in ISS-vs-gate-level lockstep on `config`'s standard
/// core `netlist`, up to [`LockstepWord::MAX_PROGRAMS`] per bitsliced
/// word, and returns one row per program, in order, each equal to its
/// [`scalar_diff_row`]. The module docs' word path says how a word
/// compares its lanes and which programs rerun through [`diff_kernel`].
///
/// # Panics
///
/// As [`diff_kernel`].
pub fn diff_programs(
    netlist: &Netlist,
    programs: &[KernelProgram],
    config: CoreConfig,
    options: &LockstepOptions,
) -> (Vec<DiffRow>, DiffWork) {
    let mut work = DiffWork::default();
    let rows = programs
        .chunks(LockstepWord::MAX_PROGRAMS)
        .flat_map(|batch| diff_word(netlist, batch, config, options, &mut work))
        .collect();
    (rows, work)
}

/// Every benchmark kernel at every supported data width for `config`'s
/// core width: the programs [`diff_report`] sweeps, in its row order.
pub fn sweep_programs(config: CoreConfig) -> Vec<KernelProgram> {
    Kernel::ALL
        .into_iter()
        .flat_map(|kernel| {
            kernel
                .data_widths()
                .iter()
                .filter_map(move |&width| kernels::generate(kernel, config.datawidth, width).ok())
        })
        .collect()
}

/// Runs every benchmark kernel at every supported data width on the
/// standard 8-bit single-cycle core, ISS vs gate level in lockstep: all
/// 16 kernels in one bitsliced word ([`diff_programs`]), any lane that
/// does not end cleanly rerun through the scalar [`diff_kernel`].
pub fn diff_report(options: &LockstepOptions) -> DiffReport {
    let _span = printed_obs::span!("eval.diff_report");
    let config = CoreConfig::new(1, 8, 2);
    let netlist = generate_standard(&config);
    let (rows, work) = diff_programs(&netlist, &sweep_programs(config), config, options);
    let report = DiffReport { rows };
    if printed_obs::enabled() {
        printed_obs::add("eval.diff.rows", report.rows.len() as u64);
        printed_obs::add("eval.diff.divergences", report.divergences() as u64);
        printed_obs::add("eval.diff.words", work.words);
        printed_obs::add("eval.diff.word_cycles", work.word_cycles);
        printed_obs::add("eval.diff.scalar_reruns", work.scalar_reruns);
    }
    report
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
    fn dmem_digest_hashes_the_little_endian_image() {
        let words = [0u64, 1, 0xDEAD_BEEF, u64::MAX];
        let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(dmem_digest(&words), printed_netlist::hash::fnv1a(&image));
    }

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

    /// The kernel sweep fits one word: it clocks as long as the longest
    /// kernel (inSort16 on the 8-bit core, 993 steps), reruns nothing,
    /// and every row equals its scalar run's.
    #[test]
    fn the_clean_sweep_runs_in_one_word_without_reruns() {
        let config = CoreConfig::new(1, 8, 2);
        let netlist = generate_standard(&config);
        let programs = sweep_programs(config);
        let options = LockstepOptions::default();
        let (rows, work) = diff_programs(&netlist, &programs, config, &options);
        assert_eq!(work, DiffWork { words: 1, word_cycles: 993, scalar_reruns: 0 });
        assert_eq!(rows.len(), 16);
        for (row, program) in rows.iter().zip(&programs) {
            assert_eq!(*row, scalar_diff_row(&netlist, program, config, &options));
        }
    }

    /// On a core whose data addresses wrap at 8 words, the kernels that
    /// touch higher words diverge; each diverged program is rerun once,
    /// and every row still equals its scalar run's.
    #[test]
    fn a_divergent_batch_reruns_each_diverged_program_once() {
        let config = CoreConfig::new(1, 8, 2);
        let narrow =
            printed_core::generate(&CoreSpec { dmem_words: 8, ..CoreSpec::standard(config) });
        let programs = sweep_programs(config);
        let options = LockstepOptions::default();
        let (rows, work) = diff_programs(&narrow, &programs, config, &options);
        let diverged = rows.iter().filter(|row| row.divergence.is_some()).count() as u64;
        assert!(diverged > 0, "the narrow core must diverge somewhere");
        assert_eq!(work.words, 1);
        assert_eq!(work.scalar_reruns, diverged);
        for (row, program) in rows.iter().zip(&programs) {
            assert_eq!(*row, scalar_diff_row(&narrow, program, config, &options));
        }
    }

    /// A program that does not encode for the core (a store through
    /// BAR3 on a 2-BAR core) holds no lane: its row carries the
    /// `IsaError`, and every other row is the one the clean sweep makes.
    #[test]
    fn an_unencodable_program_becomes_its_own_row() {
        let config = CoreConfig::new(1, 8, 2);
        let netlist = generate_standard(&config);
        let options = LockstepOptions::default();
        let mut programs = sweep_programs(config);
        let (clean, _) = diff_programs(&netlist, &programs, config, &options);
        let bad = Instruction::Store { dst: printed_core::Operand::indexed(3, 0), imm: 1 };
        programs[1].instructions.push(bad);
        let (rows, work) = diff_programs(&netlist, &programs, config, &options);
        assert_eq!(work.words, 1);
        assert_eq!(work.scalar_reruns, 1);
        let error = config.encoding().encode(bad).unwrap_err();
        let expected = DiffRow {
            kernel: programs[1].name.clone(),
            config: config.name(),
            steps: 0,
            cycles: 0,
            halted: false,
            result_ok: false,
            divergence: Some(DiffError::Encode(error).to_string()),
        };
        assert_eq!(rows[1], expected);
        assert_eq!(scalar_diff_row(&netlist, &programs[1], config, &options), expected);
        for (lane, (row, clean)) in rows.iter().zip(&clean).enumerate() {
            if lane != 1 {
                assert_eq!(row, clean, "lane {lane}");
            }
        }
    }

    /// A gate side whose simulation fails once it has clocked 5 cycles,
    /// as an oscillating netlist's would.
    struct FailsAtCycle5<'a>(GateSide<'a>);

    const SIM_FAILURE: &str = "combinational logic failed to settle";

    impl LockstepSide for FailsAtCycle5<'_> {
        fn name(&self) -> &'static str {
            self.0.name()
        }

        fn state(&self) -> ArchState {
            self.0.state()
        }

        fn mem_digest(&self) -> u64 {
            self.0.mem_digest()
        }

        fn disasm_at_pc(&self) -> String {
            self.0.disasm_at_pc()
        }

        fn step(&mut self) -> Result<(), SideError> {
            let cycle = self.0.state().cycles;
            if cycle == 5 {
                return Err(SideError { message: SIM_FAILURE.to_string(), cycle });
            }
            self.0.step()
        }
    }

    /// ISS vs gate level on mult8 with the gate side failing at cycle
    /// 5, far below the kernel's runtime.
    fn sim_error_report() -> Box<DivergenceReport> {
        let config = CoreConfig::new(1, 8, 2);
        let program = kernels::generate(Kernel::Mult, 8, 8).unwrap();
        let netlist = generate_standard(&config);
        let mut iss = IssSide::new(&program, config);
        let mut gate = FailsAtCycle5(GateSide::new(&netlist, &program, config).unwrap());
        let report = run_lockstep(&mut iss, &mut gate, &LockstepOptions::default()).unwrap_err();
        assert_eq!(report.state_a, iss.state());
        assert_eq!(report.state_b, gate.state());
        report
    }

    #[test]
    fn a_simulation_failure_reports_the_cycle_and_reports_both_states() {
        let report = sim_error_report();
        match &report.divergence {
            printed_baselines::diff::Divergence::SimError { side, message, cycle } => {
                assert_eq!(*side, "gate-level");
                assert_eq!(message, SIM_FAILURE);
                assert_eq!(*cycle, 5, "abort is placed at the failing cycle");
            }
            other => panic!("expected SimError, got {other:?}"),
        }
        assert_eq!(report.state_b.cycles, 5);
        let text = report.to_string();
        assert!(text.contains("failed at cycle 5"), "{text}");
        for (name, state) in [("iss", &report.state_a), ("gate-level", &report.state_b)] {
            let line = format!(
                "  {name} state: pc {:#x}, flags {:#010b}, cycles {}, instructions {}, halted {}\n",
                state.pc, state.flags, state.cycles, state.instructions, state.halted
            );
            assert!(text.contains(&line), "{line:?} missing from {text}");
        }
    }

    #[test]
    fn a_diverged_row_round_trips_through_the_summary_artifact() {
        let report = sim_error_report();
        let divergence = report.to_string();
        assert!(divergence.lines().count() > 1, "the report spans several lines");
        let rows = vec![DiffRow {
            kernel: "mult8".to_string(),
            config: "p1_8_2".to_string(),
            steps: report.step,
            cycles: report.cycle,
            halted: false,
            result_ok: false,
            divergence: Some(divergence.clone()),
        }];
        let value = obs::json::parse(&diff_json(&DiffReport { rows })).expect("valid JSON");
        let Some(obs::json::Value::Array(rows)) = value.get("rows") else {
            panic!("rows is not an array");
        };
        let row = &rows[0];
        assert_eq!(
            row.get("divergence").and_then(obs::json::Value::as_str),
            Some(divergence.as_str())
        );
        let totals = value.get("totals").unwrap();
        assert_eq!(totals.get("divergences").and_then(obs::json::Value::as_f64), Some(1.0));
        assert_eq!(totals.get("wrong_results").and_then(obs::json::Value::as_f64), Some(1.0));
    }
}
