//! TP-ISA instruction-set simulator with the paper's pipeline cost model.
//!
//! [`Machine`] executes decoded TP-ISA instructions against a printed SRAM
//! data memory, maintaining the three architectural registers (PC, BARs,
//! flags). It is cycle-accounting: single-cycle cores retire one
//! instruction per cycle; deeper pipelines pay stall cycles on data and
//! control hazards ("stalls are used to resolve data and control hazards",
//! Section 5.2, so worst-case CPI equals the pipeline depth).
//!
//! Halting convention: TP-ISA has no `HALT`; programs end with an
//! unconditional branch to self, which the simulator detects.

use crate::config::CoreConfig;
use crate::isa::{alu_reference, AluOp, Flags, Instruction, Operand};
use printed_memory::{MemoryError, Sram};
use printed_obs as obs;
use printed_pdk::Technology;
use std::collections::VecDeque;
use std::fmt;

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// PC fell off the end of the program without halting.
    PcOutOfRange {
        /// The PC value.
        pc: u8,
        /// Program length.
        program_len: usize,
    },
    /// An effective address exceeded the data memory.
    Memory(MemoryError),
    /// An instruction referenced a BAR the configuration does not have.
    BarOutOfRange {
        /// The requested BAR.
        bar: u8,
        /// Configured count.
        bars: u8,
    },
    /// The cycle budget was exhausted before the program halted.
    CycleLimitExceeded {
        /// The budget.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc, program_len } => {
                write!(f, "PC {pc} outside program of {program_len} instructions")
            }
            ExecError::Memory(e) => write!(f, "data memory fault: {e}"),
            ExecError::BarOutOfRange { bar, bars } => {
                write!(f, "BAR {bar} out of range (core has {bars})")
            }
            ExecError::CycleLimitExceeded { limit } => {
                write!(f, "program did not halt within {limit} cycles")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemoryError> for ExecError {
    fn from(e: MemoryError) -> Self {
        ExecError::Memory(e)
    }
}

/// What a single [`Machine::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An instruction retired.
    Executed,
    /// The halt idiom (unconditional branch-to-self) was reached.
    Halted,
}

/// Execution statistics of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunSummary {
    /// Total clock cycles, including stalls.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Stall cycles (data + control hazards).
    pub stalls: u64,
    /// Instruction fetches (= instructions retired; the halt branch
    /// counts once).
    pub imem_reads: u64,
    /// Data memory reads.
    pub dmem_reads: u64,
    /// Data memory writes.
    pub dmem_writes: u64,
    /// Whether the program reached the halt idiom.
    pub halted: bool,
}

impl RunSummary {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.instructions as f64
    }
}

/// Opcode-histogram slots: the 15 ALU operations (indexed by their
/// discriminant) plus STORE, SETBAR, and BRANCH.
const OPCODE_SLOTS: usize = AluOp::ALL.len() + 3;
const OP_STORE: usize = AluOp::ALL.len();
const OP_SETBAR: usize = AluOp::ALL.len() + 1;
const OP_BRANCH: usize = AluOp::ALL.len() + 2;

fn opcode_index(inst: &Instruction) -> usize {
    match inst {
        Instruction::Alu { op, .. } => *op as usize,
        Instruction::Store { .. } => OP_STORE,
        Instruction::SetBar { .. } => OP_SETBAR,
        Instruction::Branch { .. } => OP_BRANCH,
    }
}

fn opcode_name(slot: usize) -> &'static str {
    match slot {
        OP_STORE => "STORE",
        OP_SETBAR => "SETBAR",
        OP_BRANCH => "BRANCH",
        _ => AluOp::ALL
            .iter()
            .find(|op| **op as usize == slot)
            .map(|op| op.mnemonic())
            .unwrap_or("?"),
    }
}

/// Hazard bookkeeping for one in-flight instruction (pipeline model).
#[derive(Debug, Clone, Default)]
struct WriteSet {
    mem: Option<u8>,
    flags: bool,
    bar: Option<u8>,
}

/// A TP-ISA machine: core state plus data memory.
#[derive(Debug, Clone)]
pub struct Machine {
    config: CoreConfig,
    program: Vec<Instruction>,
    dmem: Sram,
    pc: u8,
    bars: Vec<u8>,
    flags: Flags,
    summary: RunSummary,
    /// Retired-instruction tallies per opcode slot (see [`opcode_index`]).
    opcode_counts: [u64; OPCODE_SLOTS],
    /// Clock cycles attributed per opcode slot: each retired
    /// instruction's issue cycle plus the hazard stalls it waited out,
    /// and (for `BRANCH`) the flush bubbles a taken branch injects.
    /// Sums to [`RunSummary::cycles`] exactly.
    opcode_cycles: [u64; OPCODE_SLOTS],
    /// Write sets of the youngest `pipeline_stages - 1` instructions,
    /// youngest first.
    in_flight: VecDeque<WriteSet>,
    /// Data-memory address the last [`Machine::step`] wrote, if any.
    last_write: Option<u8>,
    halted: bool,
}

impl Machine {
    /// Builds a machine for `config` running `program` with a
    /// zero-initialized data memory of `dmem_words` words.
    ///
    /// # Panics
    ///
    /// Panics if `dmem_words` exceeds the 256-word architectural limit or
    /// the program exceeds the 256-instruction PC range.
    pub fn new(config: CoreConfig, program: Vec<Instruction>, dmem_words: usize) -> Self {
        assert!(dmem_words <= 256, "TP-ISA supports up to 256 words of data memory");
        assert!(program.len() <= 256, "TP-ISA supports up to 256 instructions");
        let dmem = Sram::new(Technology::Egfet, dmem_words, config.datawidth)
            .unwrap_or_else(|_| unreachable!("datawidth validated by CoreConfig"));
        Machine {
            config,
            program,
            dmem,
            pc: 0,
            bars: vec![0; config.bars as usize],
            flags: Flags::default(),
            summary: RunSummary::default(),
            opcode_counts: [0; OPCODE_SLOTS],
            opcode_cycles: [0; OPCODE_SLOTS],
            in_flight: VecDeque::new(),
            last_write: None,
            halted: false,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The loaded program.
    pub fn program(&self) -> &[Instruction] {
        &self.program
    }

    /// Data memory (read-only view).
    pub fn dmem(&self) -> &Sram {
        &self.dmem
    }

    /// Data memory (mutable, for loading inputs before a run).
    pub fn dmem_mut(&mut self) -> &mut Sram {
        &mut self.dmem
    }

    /// Current program counter.
    pub fn pc(&self) -> u8 {
        self.pc
    }

    /// Current flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Current BAR contents (index 0 is hardwired zero).
    pub fn bars(&self) -> &[u8] {
        &self.bars
    }

    /// Whether the halt idiom has been reached.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// The data-memory address the last [`Machine::step`] wrote, or
    /// `None` if it wrote nothing (or failed before writing). A lockstep
    /// compare reads the words either side wrote to keep two memory
    /// images equal without digesting them whole.
    pub fn last_write(&self) -> Option<usize> {
        self.last_write.map(usize::from)
    }

    /// Statistics so far.
    pub fn summary(&self) -> RunSummary {
        self.summary
    }

    fn effective_address(&self, op: Operand) -> Result<u8, ExecError> {
        let bar = op.bar;
        if bar >= self.config.bars {
            return Err(ExecError::BarOutOfRange { bar, bars: self.config.bars });
        }
        let base = if bar == 0 { 0 } else { self.bars[bar as usize] };
        Ok(base.wrapping_add(op.offset))
    }

    fn read_mem(&mut self, addr: u8) -> Result<u64, ExecError> {
        self.summary.dmem_reads += 1;
        Ok(self.dmem.read(addr as usize)?)
    }

    fn write_mem(&mut self, addr: u8, value: u64) -> Result<(), ExecError> {
        self.summary.dmem_writes += 1;
        self.dmem.write(addr as usize, value)?;
        self.last_write = Some(addr);
        Ok(())
    }

    /// Pipeline hazard model: stall cycles needed before issuing `inst`,
    /// given the write sets of the youngest in-flight instructions.
    ///
    /// An instruction at distance `d` (1 = immediately previous) completes
    /// writeback `P - d` cycles from now in a `P`-stage pipeline; a
    /// dependent consumer must wait that long.
    fn stall_cycles(&self, inst: &Instruction) -> u64 {
        let p = self.config.pipeline_stages as u64;
        if p <= 1 {
            return 0;
        }
        let mut reads_mem: Vec<u8> = Vec::new();
        let mut reads_flags = false;
        let mut reads_bar: Vec<u8> = Vec::new();
        match inst {
            Instruction::Alu { op, dst, src } => {
                if !op.is_unary() {
                    if let Ok(a) = self.effective_address(*dst) {
                        reads_mem.push(a);
                    }
                }
                if let Ok(a) = self.effective_address(*src) {
                    reads_mem.push(a);
                }
                reads_flags = op.uses_carry();
                reads_bar.push(dst.bar);
                reads_bar.push(src.bar);
            }
            Instruction::Store { dst, .. } => {
                reads_bar.push(dst.bar);
            }
            Instruction::SetBar { .. } => {}
            Instruction::Branch { .. } => {
                reads_flags = true;
            }
        }

        let mut stall = 0u64;
        for (i, ws) in self.in_flight.iter().enumerate() {
            let d = i as u64 + 1; // distance
            if d >= p {
                break;
            }
            let hazard = (ws.flags && reads_flags)
                || ws.mem.is_some_and(|w| reads_mem.contains(&w))
                || ws.bar.is_some_and(|w| reads_bar.contains(&w));
            if hazard {
                stall = stall.max(p - d);
            }
        }
        stall
    }

    fn record_in_flight(&mut self, inst: &Instruction, written_addr: Option<u8>) {
        let p = self.config.pipeline_stages;
        if p <= 1 {
            return;
        }
        let ws = WriteSet {
            mem: written_addr,
            flags: inst.writes_flags(),
            bar: match inst {
                Instruction::SetBar { bar, .. } => Some(*bar),
                _ => None,
            },
        };
        self.in_flight.push_front(ws);
        self.in_flight.truncate(p - 1);
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. A halted machine returns
    /// [`StepOutcome::Halted`] without advancing.
    pub fn step(&mut self) -> Result<StepOutcome, ExecError> {
        self.last_write = None;
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        let pc = self.pc;
        let inst = *self
            .program
            .get(pc as usize)
            .ok_or(ExecError::PcOutOfRange { pc, program_len: self.program.len() })?;

        let stalls = self.stall_cycles(&inst);
        self.summary.stalls += stalls;
        self.summary.cycles += stalls + 1;
        self.summary.instructions += 1;
        self.summary.imem_reads += 1;
        self.opcode_counts[opcode_index(&inst)] += 1;
        self.opcode_cycles[opcode_index(&inst)] += stalls + 1;

        let width = self.config.datawidth;
        let mut next_pc = pc.wrapping_add(1);
        let mut written: Option<u8> = None;
        let mut taken = false;

        match inst {
            Instruction::Alu { op, dst, src } => {
                let dst_addr = self.effective_address(dst)?;
                let src_addr = self.effective_address(src)?;
                let a = if op.is_unary() { 0 } else { self.read_mem(dst_addr)? };
                let b = self.read_mem(src_addr)?;
                let (result, flags) = alu_reference(op, a, b, self.flags.c, width);
                self.flags = flags;
                if op.writes_back() {
                    self.write_mem(dst_addr, result)?;
                    written = Some(dst_addr);
                }
            }
            Instruction::Store { dst, imm } => {
                let addr = self.effective_address(dst)?;
                self.write_mem(addr, imm as u64)?;
                written = Some(addr);
            }
            Instruction::SetBar { bar, imm } => {
                if bar >= self.config.bars {
                    return Err(ExecError::BarOutOfRange { bar, bars: self.config.bars });
                }
                // BAR0 is hardwired to zero; writes to it are ignored.
                if bar != 0 {
                    self.bars[bar as usize] = imm;
                }
            }
            Instruction::Branch { negate, target, mask } => {
                let cond = self.flags.bits() & mask != 0;
                taken = cond != negate;
                if taken {
                    if target == pc && negate && mask == 0 {
                        self.halted = true;
                        self.summary.halted = true;
                        return Ok(StepOutcome::Halted);
                    }
                    next_pc = target;
                }
            }
        }

        // Control hazard: a taken branch flushes the younger fetches.
        if taken && self.config.pipeline_stages > 1 {
            let bubbles = (self.config.pipeline_stages - 1) as u64;
            self.summary.stalls += bubbles;
            self.summary.cycles += bubbles;
            self.opcode_cycles[OP_BRANCH] += bubbles;
            self.in_flight.clear();
        } else {
            self.record_in_flight(&inst, written);
        }

        self.pc = next_pc;
        Ok(StepOutcome::Executed)
    }

    /// Runs until the halt idiom, or errors after `max_cycles`.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] from execution, or
    /// [`ExecError::CycleLimitExceeded`].
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, ExecError> {
        while !self.halted {
            if self.summary.cycles >= max_cycles {
                return Err(ExecError::CycleLimitExceeded { limit: max_cycles });
            }
            self.step()?;
        }
        Ok(self.summary)
    }

    /// Retired-instruction counts per opcode, non-zero entries only, in
    /// slot order (the 15 ALU mnemonics, then `STORE`/`SETBAR`/`BRANCH`).
    pub fn opcode_histogram(&self) -> Vec<(&'static str, u64)> {
        self.opcode_counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(slot, &n)| (opcode_name(slot), n))
            .collect()
    }

    /// Per-opcode CPI breakdown, non-zero entries only, in slot order:
    /// `(mnemonic, retired, cycles)` where `cycles` covers each retired
    /// instruction's issue cycle, its hazard stalls, and (for `BRANCH`)
    /// taken-branch flush bubbles. The `cycles` column sums to
    /// [`RunSummary::cycles`] exactly — the profiler's sum-check.
    pub fn cpi_breakdown(&self) -> Vec<(&'static str, u64, u64)> {
        self.opcode_counts
            .iter()
            .zip(&self.opcode_cycles)
            .enumerate()
            .filter(|(_, (&n, &c))| n > 0 || c > 0)
            .map(|(slot, (&n, &c))| (opcode_name(slot), n, c))
            .collect()
    }

    /// Publishes execution statistics into `registry` under dotted
    /// `prefix` names: counters `<prefix>.retired`, `<prefix>.cycles`,
    /// `<prefix>.stalls`, per-opcode counters `<prefix>.op.<MNEMONIC>`
    /// and `<prefix>.opcycles.<MNEMONIC>`, and a gauge `<prefix>.cpi`.
    ///
    /// This publishes unconditionally; use [`Machine::publish_obs`] for
    /// the `PRINTED_OBS`-gated global-registry variant.
    pub fn publish_metrics(&self, registry: &obs::Registry, prefix: &str) {
        registry.add(&format!("{prefix}.retired"), self.summary.instructions);
        registry.add(&format!("{prefix}.cycles"), self.summary.cycles);
        registry.add(&format!("{prefix}.stalls"), self.summary.stalls);
        for (mnemonic, n) in self.opcode_histogram() {
            registry.add(&format!("{prefix}.op.{mnemonic}"), n);
        }
        for (mnemonic, _, cycles) in self.cpi_breakdown() {
            registry.add(&format!("{prefix}.opcycles.{mnemonic}"), cycles);
        }
        if self.summary.instructions > 0 {
            registry.gauge(&format!("{prefix}.cpi"), self.summary.cpi());
        }
    }

    /// Publishes execution statistics to the global observability
    /// registry (see [`Machine::publish_metrics`]); a no-op unless
    /// `PRINTED_OBS` enables recording. Call once per completed run —
    /// recording is batched here so the per-instruction path stays
    /// lock-free.
    pub fn publish_obs(&self, prefix: &str) {
        if obs::enabled() {
            self.publish_metrics(obs::global(), prefix);
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::isa::Instruction as I;

    /// Appends a branch-to-self at the end, fixed up to its own index.
    fn program_with_halt(mut prog: Vec<I>) -> Vec<I> {
        let idx = prog.len() as u8;
        prog.push(I::Branch { negate: true, target: idx, mask: 0 });
        prog
    }

    fn run(config: CoreConfig, prog: Vec<I>, dmem_init: &[(u8, u64)]) -> Machine {
        let mut m = Machine::new(config, program_with_halt(prog), 256);
        for &(addr, v) in dmem_init {
            m.dmem_mut().write(addr as usize, v).unwrap();
        }
        m.run(1_000_000).unwrap();
        m
    }

    #[test]
    fn store_and_add() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 17 },
            I::Store { dst: Operand::direct(1), imm: 25 },
            I::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(1) },
        ];
        let m = run(CoreConfig::default(), prog, &[]);
        assert_eq!(m.dmem().read(0).unwrap(), 42);
        assert!(m.is_halted());
        assert_eq!(m.summary().cpi(), 1.0, "single-cycle core has CPI 1");
    }

    #[test]
    fn opcode_histogram_counts_retired_instructions() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 17 },
            I::Store { dst: Operand::direct(1), imm: 25 },
            I::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(1) },
        ];
        let m = run(CoreConfig::default(), prog, &[]);
        let hist = m.opcode_histogram();
        // Two stores, one add, one halt branch.
        assert!(hist.contains(&("STORE", 2)), "{hist:?}");
        assert!(hist.contains(&("ADD", 1)), "{hist:?}");
        assert!(hist.contains(&("BRANCH", 1)), "{hist:?}");
        let total: u64 = hist.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, m.summary().instructions);

        let reg = printed_obs::Registry::new();
        m.publish_metrics(&reg, "t.core");
        assert_eq!(reg.counter("t.core.retired"), Some(m.summary().instructions));
        assert_eq!(reg.counter("t.core.op.STORE"), Some(2));
        assert_eq!(reg.gauge_value("t.core.cpi"), Some(m.summary().cpi()));
    }

    #[test]
    fn copy_idiom_via_double_not() {
        let prog = vec![
            I::Alu { op: AluOp::Not, dst: Operand::direct(2), src: Operand::direct(0) },
            I::Alu { op: AluOp::Not, dst: Operand::direct(1), src: Operand::direct(2) },
        ];
        let m = run(CoreConfig::default(), prog, &[(0, 0xA5)]);
        assert_eq!(m.dmem().read(1).unwrap(), 0xA5);
    }

    #[test]
    fn bar_relative_addressing() {
        let prog = vec![
            I::SetBar { bar: 1, imm: 0x10 },
            I::Store { dst: Operand::indexed(1, 2), imm: 99 },
        ];
        let m = run(CoreConfig::default(), prog, &[]);
        assert_eq!(m.dmem().read(0x12).unwrap(), 99);
    }

    #[test]
    fn writes_to_bar0_are_ignored() {
        let prog =
            vec![I::SetBar { bar: 0, imm: 0x10 }, I::Store { dst: Operand::indexed(0, 2), imm: 7 }];
        let m = run(CoreConfig::default(), prog, &[]);
        assert_eq!(m.dmem().read(2).unwrap(), 7, "BAR0 still reads zero");
    }

    #[test]
    fn conditional_branch_loops() {
        // Count down from 5: mem[0] = 5; loop { mem[0] -= mem[1]; BR nz }
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 5 },
            I::Store { dst: Operand::direct(1), imm: 1 },
            I::Store { dst: Operand::direct(2), imm: 0 },
            // loop body at pc=3:
            I::Alu { op: AluOp::Sub, dst: Operand::direct(0), src: Operand::direct(1) },
            I::Alu { op: AluOp::Add, dst: Operand::direct(2), src: Operand::direct(1) },
            I::Alu { op: AluOp::Test, dst: Operand::direct(0), src: Operand::direct(0) },
            I::Branch { negate: true, target: 3, mask: Flags::Z }, // loop while not zero
        ];
        let m = run(CoreConfig::default(), prog, &[]);
        assert_eq!(m.dmem().read(0).unwrap(), 0);
        assert_eq!(m.dmem().read(2).unwrap(), 5, "loop ran 5 times");
    }

    #[test]
    fn sixteen_bit_add_on_eight_bit_core_via_adc() {
        // Data coalescing: 0x01FF + 0x0101 = 0x0300 split across bytes.
        let prog = vec![
            I::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(2) },
            I::Alu { op: AluOp::Adc, dst: Operand::direct(1), src: Operand::direct(3) },
        ];
        let m = run(CoreConfig::default(), prog, &[(0, 0xFF), (1, 0x01), (2, 0x01), (3, 0x01)]);
        assert_eq!(m.dmem().read(0).unwrap(), 0x00);
        assert_eq!(m.dmem().read(1).unwrap(), 0x03);
    }

    #[test]
    fn pipeline_stalls_on_data_hazard() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 1 },
            // Immediately consumes mem[0]: RAW hazard in deeper pipelines.
            I::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(0) },
        ];
        let single = run(CoreConfig::new(1, 8, 2), prog.clone(), &[]);
        let deep = run(CoreConfig::new(3, 8, 2), prog, &[]);
        assert_eq!(single.summary().stalls, 0);
        assert!(deep.summary().stalls > 0, "3-stage pipeline must stall");
        assert!(deep.summary().cpi() > 1.0);
        assert!(deep.summary().cpi() <= 3.0, "worst case CPI equals depth");
        assert_eq!(
            single.dmem().read(0).unwrap(),
            deep.dmem().read(0).unwrap(),
            "stalls must not change architectural results"
        );
    }

    #[test]
    fn taken_branches_bubble_deeper_pipelines() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 3 },
            I::Store { dst: Operand::direct(1), imm: 1 },
            I::Alu { op: AluOp::Sub, dst: Operand::direct(0), src: Operand::direct(1) },
            I::Branch { negate: true, target: 2, mask: Flags::Z },
        ];
        let deep = run(CoreConfig::new(2, 8, 2), prog, &[]);
        assert!(deep.summary().stalls >= 2, "taken loop branches flush the fetch");
    }

    #[test]
    fn cpi_breakdown_sums_to_total_cycles() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 3 },
            I::Store { dst: Operand::direct(1), imm: 1 },
            I::Alu { op: AluOp::Sub, dst: Operand::direct(0), src: Operand::direct(1) },
            I::Branch { negate: true, target: 2, mask: Flags::Z },
        ];
        // Both a single-cycle core and a pipeline with data-hazard
        // stalls and branch bubbles must tile their cycles exactly.
        for stages in [1usize, 3] {
            let m = run(CoreConfig::new(stages, 8, 2), prog.clone(), &[]);
            let breakdown = m.cpi_breakdown();
            let cycles: u64 = breakdown.iter().map(|(_, _, c)| c).sum();
            assert_eq!(
                cycles,
                m.summary().cycles,
                "{stages}-stage: per-opcode cycles must sum to the machine total"
            );
            let retired: u64 = breakdown.iter().map(|(_, n, _)| n).sum();
            assert_eq!(retired, m.summary().instructions);
            // Cycle attribution never undercounts an opcode's retirals.
            for &(mnemonic, n, c) in &breakdown {
                assert!(c >= n, "{mnemonic}: {c} cycles for {n} instructions");
            }
        }
        // The deep pipeline's branch slot absorbs the flush bubbles.
        let deep = run(CoreConfig::new(3, 8, 2), prog, &[]);
        let branch = deep.cpi_breakdown().iter().find(|(m, _, _)| *m == "BRANCH").copied().unwrap();
        assert!(branch.2 > branch.1, "taken branches cost extra bubble cycles");
    }

    #[test]
    fn pc_overrun_is_an_error() {
        let mut m = Machine::new(
            CoreConfig::default(),
            vec![I::Store { dst: Operand::direct(0), imm: 1 }],
            16,
        );
        assert!(m.step().is_ok());
        assert!(matches!(m.step(), Err(ExecError::PcOutOfRange { .. })));
    }

    #[test]
    fn runaway_programs_hit_the_cycle_limit() {
        // An infinite loop that is not the halt idiom (it has work in it).
        let prog = vec![I::Store { dst: Operand::direct(0), imm: 1 }, I::jump(0)];
        let mut m = Machine::new(CoreConfig::default(), prog, 16);
        assert!(matches!(m.run(1000), Err(ExecError::CycleLimitExceeded { .. })));
    }

    #[test]
    fn halt_is_reported_idempotently() {
        let mut m = Machine::new(CoreConfig::default(), program_with_halt(vec![]), 16);
        m.run(100).unwrap();
        assert!(m.is_halted());
        assert_eq!(m.step().unwrap(), StepOutcome::Halted);
    }

    #[test]
    fn four_bit_core_masks_results() {
        let prog = vec![
            I::Store { dst: Operand::direct(0), imm: 15 },
            I::Store { dst: Operand::direct(1), imm: 1 },
            I::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(1) },
        ];
        let m = run(CoreConfig::new(1, 4, 2), prog, &[]);
        assert_eq!(m.dmem().read(0).unwrap(), 0, "4-bit add wraps");
        assert!(m.flags().c);
    }
}
