//! Differential lockstep validation between simulators.
//!
//! The paper's Table 4/5 baseline numbers and every fault-campaign
//! classification rest on independent simulators agreeing on
//! architectural behaviour. This module runs two [`LockstepSide`]s —
//! instruction-set simulators or gate-level machines — one retired
//! instruction at a time, comparing program counter, registers, flags, a
//! memory digest, halt state, and (optionally normalized) cycle counts
//! after every step.
//!
//! On the first divergence, [`run_lockstep`] stops and returns a
//! [`DivergenceReport`]: what differed, at which step and cycle, a
//! disassembled trace window of the instructions each side executed last,
//! and both sides' [`ArchState`] at the divergence. Its rendering prints
//! each side's pc, registers, flags, cycles, instructions and halt state,
//! so the text alone explains the divergence. A side that *errors*
//! mid-compare (e.g. a gate-level simulator reporting an unsettled net)
//! is reported the same way, with the failing side's current cycle and
//! both states in the report instead of a bare error string. A run is
//! bounded by [`LockstepOptions::max_steps`] alone.
//!
//! The built-in [`I8080Side`] and [`Z80Side`] exercise the 8080 ⊂ Z80
//! subset relation: the same program image runs on both machines, and
//! the 8080's state counts are normalized to Z80 T-states
//! (per-instruction, using the same correction table the Z80 model
//! itself applies) so cycle comparison is exact, not approximate.
//!
//! ```
//! use printed_baselines::diff::{run_lockstep, I8080Side, LockstepOptions, Z80Side};
//!
//! // MVI A,17; MVI B,25; ADD B; HLT — identical on both machines.
//! let image = [0x3E, 17, 0x06, 25, 0x80, 0x76];
//! let mut a = I8080Side::new(0x100, &image).normalized_to_z80();
//! let mut b = Z80Side::new(0x100, &image);
//! let stats = run_lockstep(&mut a, &mut b, &LockstepOptions::default()).unwrap();
//! assert!(stats.halted);
//! ```

use crate::disasm8080::disassemble_one;
use crate::i8080::{Cpu8080, Flags8080};
use crate::z80::{z80_tstates, CpuZ80};
use printed_netlist::hash::fnv1a;
use std::collections::VecDeque;
use std::fmt;

/// The architectural state one side exposes for comparison after each
/// retired instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Named register values, in a fixed order both sides agree on.
    pub regs: Vec<(&'static str, u64)>,
    /// Flag bits, packed identically by both sides.
    pub flags: u64,
    /// Cycles consumed so far (normalized when the sides' native cycle
    /// accounting differs).
    pub cycles: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Whether the machine has halted.
    pub halted: bool,
}

/// A simulation failure inside one side's `step` — e.g. a gate-level
/// netlist that oscillates ([`printed_netlist::NetlistError::Unsettled`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SideError {
    /// Human-readable description of the failure.
    pub message: String,
    /// The side's cycle count when the failure surfaced.
    pub cycle: u64,
}

/// One participant in a lockstep comparison.
pub trait LockstepSide {
    /// Short name for reports (e.g. `"i8080"`, `"gate-level"`).
    fn name(&self) -> &'static str;
    /// The current architectural state.
    fn state(&self) -> ArchState;
    /// A digest of the side's full data memory (FNV-1a over the bytes
    /// both sides should agree on).
    fn mem_digest(&self) -> u64;
    /// A one-line disassembly of the instruction at the current PC, for
    /// the divergence trace window.
    fn disasm_at_pc(&self) -> String;
    /// Executes one instruction. A halted side must return `Ok` without
    /// advancing.
    ///
    /// # Errors
    ///
    /// [`SideError`] if the underlying simulation fails mid-instruction.
    fn step(&mut self) -> Result<(), SideError>;
}

/// What diverged first between the two sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// Program counters differ.
    Pc {
        /// Side A's PC.
        a: u64,
        /// Side B's PC.
        b: u64,
    },
    /// A named register differs.
    Register {
        /// Register name.
        name: &'static str,
        /// Side A's value.
        a: u64,
        /// Side B's value.
        b: u64,
    },
    /// The packed flag bits differ.
    Flags {
        /// Side A's flags.
        a: u64,
        /// Side B's flags.
        b: u64,
    },
    /// The memory digests differ (a memory write went to different
    /// addresses or wrote different data).
    Memory {
        /// Side A's digest.
        a: u64,
        /// Side B's digest.
        b: u64,
    },
    /// The (normalized) cycle counts differ.
    Cycles {
        /// Side A's cycles.
        a: u64,
        /// Side B's cycles.
        b: u64,
    },
    /// One side halted and the other did not.
    Halt {
        /// Whether side A halted.
        a: bool,
        /// Whether side B halted.
        b: bool,
    },
    /// One side's simulation failed mid-compare (oscillation, …).
    /// Carries the failing side's cycle so an abort is placed in time
    /// even when no state compare ran.
    SimError {
        /// Which side failed.
        side: &'static str,
        /// The underlying error.
        message: String,
        /// The failing side's cycle count at the abort.
        cycle: u64,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Pc { a, b } => write!(f, "PC differs: {a:#x} vs {b:#x}"),
            Divergence::Register { name, a, b } => {
                write!(f, "register {name} differs: {a:#x} vs {b:#x}")
            }
            Divergence::Flags { a, b } => write!(f, "flags differ: {a:#010b} vs {b:#010b}"),
            Divergence::Memory { a, b } => {
                write!(f, "memory digests differ: {a:#018x} vs {b:#018x}")
            }
            Divergence::Cycles { a, b } => write!(f, "cycle counts differ: {a} vs {b}"),
            Divergence::Halt { a, b } => write!(f, "halt state differs: {a} vs {b}"),
            Divergence::SimError { side, message, cycle } => {
                write!(f, "side {side} failed at cycle {cycle}: {message}")
            }
        }
    }
}

/// A first-divergence report: what differed, where, the instructions
/// each side executed leading up to it, and both sides' state there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivergenceReport {
    /// Name of side A.
    pub side_a: &'static str,
    /// Name of side B.
    pub side_b: &'static str,
    /// Lockstep step (retired-instruction index) of the divergence.
    pub step: u64,
    /// Side A's cycle count at the divergence.
    pub cycle: u64,
    /// What diverged.
    pub divergence: Divergence,
    /// Side A's last-executed instructions, oldest first.
    pub trace_a: Vec<String>,
    /// Side B's last-executed instructions, oldest first.
    pub trace_b: Vec<String>,
    /// Side A's state at the divergence.
    pub state_a: ArchState,
    /// Side B's state at the divergence.
    pub state_b: ArchState,
}

impl fmt::Display for DivergenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lockstep divergence at step {} (cycle {}): {}",
            self.step, self.cycle, self.divergence
        )?;
        for (name, trace, state) in [
            (self.side_a, &self.trace_a, &self.state_a),
            (self.side_b, &self.trace_b, &self.state_b),
        ] {
            writeln!(f, "  {name} trace:")?;
            for line in trace {
                writeln!(f, "    {line}")?;
            }
            write!(f, "  {name} state: pc {:#x}", state.pc)?;
            for (reg, value) in &state.regs {
                write!(f, ", {reg} {value:#x}")?;
            }
            writeln!(
                f,
                ", flags {:#010b}, cycles {}, instructions {}, halted {}",
                state.flags, state.cycles, state.instructions, state.halted
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for DivergenceReport {}

/// Options of one lockstep run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockstepOptions {
    /// Upper bound on lockstep steps (retired instructions) before the
    /// run stops with `halted: false`.
    pub max_steps: u64,
    /// Instructions of context kept per side for divergence reports.
    pub trace_window: usize,
    /// Whether cycle counts are compared (disable when the sides' cycle
    /// accounting is intentionally different).
    pub compare_cycles: bool,
}

impl Default for LockstepOptions {
    fn default() -> Self {
        LockstepOptions { max_steps: 1_000_000, trace_window: 8, compare_cycles: true }
    }
}

impl LockstepOptions {
    /// The default options: no lockstep option is read from the
    /// environment. Kept because `perfbench`'s `reproduce` workload
    /// calls it; new code uses [`LockstepOptions::default`].
    pub fn from_env() -> Self {
        LockstepOptions::default()
    }
}

/// A completed (divergence-free) lockstep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockstepStats {
    /// Lockstep steps executed (retired instructions per side).
    pub steps: u64,
    /// Side A's final cycle count.
    pub cycles: u64,
    /// Whether both sides halted (false means `max_steps` ran out).
    pub halted: bool,
}

/// Compares two states, returning the highest-priority divergence.
fn compare(
    a: &ArchState,
    b: &ArchState,
    mem_a: u64,
    mem_b: u64,
    cycles: bool,
) -> Option<Divergence> {
    if a.halted != b.halted {
        return Some(Divergence::Halt { a: a.halted, b: b.halted });
    }
    if a.pc != b.pc {
        return Some(Divergence::Pc { a: a.pc, b: b.pc });
    }
    for ((name, va), (_, vb)) in a.regs.iter().zip(&b.regs) {
        if va != vb {
            return Some(Divergence::Register { name, a: *va, b: *vb });
        }
    }
    if a.flags != b.flags {
        return Some(Divergence::Flags { a: a.flags, b: b.flags });
    }
    if mem_a != mem_b {
        return Some(Divergence::Memory { a: mem_a, b: mem_b });
    }
    if cycles && a.cycles != b.cycles {
        return Some(Divergence::Cycles { a: a.cycles, b: b.cycles });
    }
    None
}

/// Runs two sides in instruction-level lockstep until both halt,
/// `max_steps` elapse, or the first divergence.
///
/// Before every step the instruction at each side's PC is recorded into
/// a rolling trace window; after every step the full architectural state
/// is compared. A divergence (including a [`SideError`] from either
/// side) stops the run immediately and reports both sides' state there.
///
/// # Errors
///
/// The boxed [`DivergenceReport`] describing the first divergence.
pub fn run_lockstep(
    a: &mut dyn LockstepSide,
    b: &mut dyn LockstepSide,
    options: &LockstepOptions,
) -> Result<LockstepStats, Box<DivergenceReport>> {
    let mut trace_a: VecDeque<String> = VecDeque::new();
    let mut trace_b: VecDeque<String> = VecDeque::new();
    let window = options.trace_window.max(1);

    let report = |a: &dyn LockstepSide,
                  b: &dyn LockstepSide,
                  step: u64,
                  divergence: Divergence,
                  trace_a: &VecDeque<String>,
                  trace_b: &VecDeque<String>|
     -> Box<DivergenceReport> {
        let state_a = a.state();
        Box::new(DivergenceReport {
            side_a: a.name(),
            side_b: b.name(),
            step,
            cycle: state_a.cycles,
            divergence,
            trace_a: trace_a.iter().cloned().collect(),
            trace_b: trace_b.iter().cloned().collect(),
            state_a,
            state_b: b.state(),
        })
    };

    // Initial states must already agree (same image, same reset state).
    if let Some(d) =
        compare(&a.state(), &b.state(), a.mem_digest(), b.mem_digest(), options.compare_cycles)
    {
        return Err(report(a, b, 0, d, &trace_a, &trace_b));
    }

    let mut steps = 0u64;
    while steps < options.max_steps {
        let state = a.state();
        if state.halted && b.state().halted {
            break;
        }
        trace_a.push_back(a.disasm_at_pc());
        trace_b.push_back(b.disasm_at_pc());
        if trace_a.len() > window {
            trace_a.pop_front();
            trace_b.pop_front();
        }
        if let Err(e) = a.step() {
            let d = Divergence::SimError { side: a.name(), message: e.message, cycle: e.cycle };
            return Err(report(a, b, steps, d, &trace_a, &trace_b));
        }
        if let Err(e) = b.step() {
            let d = Divergence::SimError { side: b.name(), message: e.message, cycle: e.cycle };
            return Err(report(a, b, steps, d, &trace_a, &trace_b));
        }
        steps += 1;
        if let Some(d) =
            compare(&a.state(), &b.state(), a.mem_digest(), b.mem_digest(), options.compare_cycles)
        {
            return Err(report(a, b, steps, d, &trace_a, &trace_b));
        }
    }
    let state = a.state();
    Ok(LockstepStats { steps, cycles: state.cycles, halted: state.halted })
}

/// Packs 8080 flags into comparison bits (identically on both sides).
fn flags8080_bits(f: Flags8080) -> u64 {
    (f.s as u64) << 4 | (f.z as u64) << 3 | (f.ac as u64) << 2 | (f.p as u64) << 1 | f.cy as u64
}

/// Builds the shared [`ArchState`] of the 8080-compatible machines.
fn arch8080(core: &Cpu8080, cycles: u64) -> ArchState {
    use crate::i8080::Reg;
    ArchState {
        pc: core.pc as u64,
        regs: vec![
            ("A", core.reg(Reg::A) as u64),
            ("B", core.reg(Reg::B) as u64),
            ("C", core.reg(Reg::C) as u64),
            ("D", core.reg(Reg::D) as u64),
            ("E", core.reg(Reg::E) as u64),
            ("H", core.reg(Reg::H) as u64),
            ("L", core.reg(Reg::L) as u64),
            ("SP", core.sp as u64),
        ],
        flags: flags8080_bits(core.flags),
        cycles,
        instructions: core.instructions,
        halted: core.is_halted(),
    }
}

/// [`Cpu8080`] as a lockstep side, optionally with its state counts
/// normalized to Z80 T-states so it can be cycle-compared against
/// [`Z80Side`] (the 8080 ⊂ Z80 subset check).
#[derive(Debug, Clone)]
pub struct I8080Side {
    cpu: Cpu8080,
    normalize: bool,
    norm_cycles: u64,
}

impl I8080Side {
    /// A fresh 8080 with `image` loaded at `origin`.
    pub fn new(origin: u16, image: &[u8]) -> Self {
        let mut cpu = Cpu8080::new();
        cpu.load(origin, image);
        I8080Side { cpu, normalize: false, norm_cycles: 0 }
    }

    /// Preloads memory (e.g. kernel input data).
    pub fn preload(mut self, addr: u16, bytes: &[u8]) -> Self {
        self.cpu.mem[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        self
    }

    /// Switches cycle reporting to Z80-normalized T-states.
    pub fn normalized_to_z80(mut self) -> Self {
        self.normalize = true;
        self
    }
}

impl LockstepSide for I8080Side {
    fn name(&self) -> &'static str {
        "i8080"
    }

    fn state(&self) -> ArchState {
        let cycles = if self.normalize { self.norm_cycles } else { self.cpu.cycles };
        arch8080(&self.cpu, cycles)
    }

    fn mem_digest(&self) -> u64 {
        fnv1a(&self.cpu.mem)
    }

    fn disasm_at_pc(&self) -> String {
        let d = disassemble_one(&self.cpu.mem, self.cpu.pc as usize, self.cpu.pc);
        format!("{:04X}  {}", d.addr, d.text)
    }

    fn step(&mut self) -> Result<(), SideError> {
        let op = self.cpu.mem[self.cpu.pc as usize];
        let spent = self.cpu.step();
        self.norm_cycles += if self.normalize { z80_tstates(op, spent) } else { spent };
        Ok(())
    }
}

/// [`CpuZ80`] as a lockstep side.
#[derive(Debug, Clone)]
pub struct Z80Side {
    cpu: CpuZ80,
}

impl Z80Side {
    /// A fresh Z80 with `image` loaded at `origin`.
    pub fn new(origin: u16, image: &[u8]) -> Self {
        let mut cpu = CpuZ80::new();
        cpu.load(origin, image);
        Z80Side { cpu }
    }

    /// Preloads memory (e.g. kernel input data).
    pub fn preload(mut self, addr: u16, bytes: &[u8]) -> Self {
        self.cpu.core.mem[addr as usize..addr as usize + bytes.len()].copy_from_slice(bytes);
        self
    }
}

impl LockstepSide for Z80Side {
    fn name(&self) -> &'static str {
        "z80"
    }

    fn state(&self) -> ArchState {
        arch8080(&self.cpu.core, self.cpu.cycles())
    }

    fn mem_digest(&self) -> u64 {
        fnv1a(&self.cpu.core.mem)
    }

    fn disasm_at_pc(&self) -> String {
        let pc = self.cpu.core.pc;
        let d = disassemble_one(&self.cpu.core.mem, pc as usize, pc);
        format!("{:04X}  {}", d.addr, d.text)
    }

    fn step(&mut self) -> Result<(), SideError> {
        self.cpu.step();
        Ok(())
    }
}

/// Runs one 8080 kernel image on both the 8080 and the Z80 in lockstep
/// (with normalized cycles) — the standard smoke check the CI gate runs
/// over every benchmark kernel.
///
/// # Errors
///
/// The divergence report, if the two models disagree anywhere.
pub fn lockstep_8080_kernel(
    bench: crate::kernels::Bench,
    options: &LockstepOptions,
) -> Result<LockstepStats, Box<DivergenceReport>> {
    use crate::kernels::k8080;
    let image = k8080::image(bench);
    let mut a = I8080Side::new(k8080::ORG, &image).normalized_to_z80();
    let mut b = Z80Side::new(k8080::ORG, &image);
    for (addr, bytes) in k8080::inputs(bench) {
        a = a.preload(addr, &bytes);
        b = b.preload(addr, &bytes);
    }
    run_lockstep(&mut a, &mut b, options)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::kernels::Bench;

    #[test]
    fn every_8080_kernel_runs_divergence_free_on_the_z80() {
        for bench in Bench::ALL {
            let stats = lockstep_8080_kernel(bench, &LockstepOptions::default())
                .unwrap_or_else(|report| panic!("{}: {report}", bench.name()));
            assert!(stats.halted, "{} halted", bench.name());
            assert!(stats.steps > 0);
        }
    }

    #[test]
    fn a_corrupted_side_produces_a_first_divergence_report() {
        // Same image, but side A runs one instruction ahead before the
        // lockstep starts: the step-0 compare blames the PC, and the
        // report carries both sides' state so its text explains why.
        let image = [0x3E, 17, 0x06, 25, 0x80, 0x76];
        let mut a = I8080Side::new(0x100, &image).normalized_to_z80();
        let mut b = Z80Side::new(0x100, &image);
        a.step().unwrap();
        let report = run_lockstep(&mut a, &mut b, &LockstepOptions::default()).unwrap_err();
        assert_eq!(report.step, 0);
        assert_eq!(report.divergence, Divergence::Pc { a: 0x102, b: 0x100 });
        assert_eq!(report.state_a, a.state());
        assert_eq!(report.state_b, b.state());
        assert_eq!(report.cycle, report.state_a.cycles);
        let text = report.to_string();
        assert!(text.contains("i8080 state: pc 0x102, A 0x11, B 0x0,"), "{text}");
        assert!(text.contains("z80 state: pc 0x100, A 0x0, B 0x0,"), "{text}");
        assert!(text.contains("instructions 1, halted false"), "{text}");
        assert!(text.contains("instructions 0, halted false"), "{text}");
    }

    #[test]
    fn differing_images_diverge_at_step_zero() {
        // The step-0 state compare covers memory, so two sides loaded
        // with different images never run a single instruction.
        let image_a = [0x3E, 17, 0x76];
        let image_b = [0x3E, 18, 0x76];
        let mut a = I8080Side::new(0x100, &image_a).normalized_to_z80();
        let mut b = Z80Side::new(0x100, &image_b);
        let report = run_lockstep(&mut a, &mut b, &LockstepOptions::default()).unwrap_err();
        assert_eq!(report.step, 0, "differing images diverge before any step");
        assert!(matches!(report.divergence, Divergence::Memory { .. }));
    }
}
