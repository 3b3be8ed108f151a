//! The paper's benchmark kernels, generated as TP-ISA programs.
//!
//! Section 8 evaluates multiply, divide, insertion sort, integer average,
//! threshold, CRC8, and a decision tree (from the subthreshold-processor
//! suite of Zhai et al., plus the new decision tree). Each kernel here is
//! a code generator parameterized by the core's datawidth and the
//! benchmark's data width: when the data is wider than the core, the
//! generator emits data-coalescing code (`ADC`/`SBB`/`RLC`/`RRC` chains
//! over multi-word elements), exactly the mechanism TP-ISA was designed
//! around.
//!
//! TP-ISA has no indirect addressing (`SET-BAR` takes an immediate), so
//! kernels that walk arrays are unrolled over static addresses — the
//! natural style for print-time-specialized hardware (the paper's own
//! decision tree "use\[s\] all 256 instruction words" the same way).
//!
//! Every kernel carries its deterministic input set and the golden
//! expected output, so the ISS, the gate-level machine, and the
//! program-specific variants can all be checked against the same truth.

mod crc8;
mod div;
mod dtree;
mod insort;
mod intavg;
mod mult;
mod thold;

use crate::isa::{AluOp, Flags, Instruction, Operand};
use std::collections::BTreeMap;
use std::fmt;

/// The seven benchmarks of Section 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    /// Shift-add multiply.
    Mult,
    /// Restoring divide.
    Div,
    /// In-place sort of 16 elements (adjacent compare-exchange passes).
    InSort,
    /// Average of 16 elements.
    IntAvg,
    /// Count of 16 elements above a threshold.
    THold,
    /// CRC-8 (poly 0x07) over a 16-byte stream.
    Crc8,
    /// Synthetic decision tree sized to fill the instruction ROM.
    DTree,
}

impl Kernel {
    /// All benchmarks, in the paper's order.
    pub const ALL: [Kernel; 7] = [
        Kernel::Mult,
        Kernel::Div,
        Kernel::InSort,
        Kernel::IntAvg,
        Kernel::THold,
        Kernel::Crc8,
        Kernel::DTree,
    ];

    /// Benchmark name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Mult => "mult",
            Kernel::Div => "div",
            Kernel::InSort => "inSort",
            Kernel::IntAvg => "intAvg",
            Kernel::THold => "tHold",
            Kernel::Crc8 => "crc8",
            Kernel::DTree => "dTree",
        }
    }

    /// Data widths the paper evaluates for this benchmark (crc8 is 8-bit
    /// only; the others come in 8/16/32-bit versions).
    pub fn data_widths(self) -> &'static [usize] {
        match self {
            Kernel::Crc8 => &[8],
            _ => &[8, 16, 32],
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reasons a kernel cannot be generated for a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The unrolled program would exceed TP-ISA's 256-instruction ROM
    /// (the paper's dTree has the same restriction in reverse: wide
    /// versions don't run on narrow cores).
    ProgramTooLong {
        /// Kernel.
        kernel: Kernel,
        /// Instructions required.
        instructions: usize,
    },
    /// The kernel does not support this core/data width combination.
    UnsupportedWidths {
        /// Kernel.
        kernel: Kernel,
        /// Core datawidth.
        core_width: usize,
        /// Benchmark data width.
        data_width: usize,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::ProgramTooLong { kernel, instructions } => {
                write!(f, "{kernel} needs {instructions} instructions; TP-ISA allows 256")
            }
            KernelError::UnsupportedWidths { kernel, core_width, data_width } => {
                write!(
                    f,
                    "{kernel} does not support {data_width}-bit data on a {core_width}-bit core"
                )
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// A generated kernel: program, memory image, and golden result.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProgram {
    /// e.g. `mult16` on an 8-bit core.
    pub name: String,
    /// Which benchmark.
    pub kernel: Kernel,
    /// Core datawidth the code was generated for.
    pub core_width: usize,
    /// Benchmark data width.
    pub data_width: usize,
    /// The TP-ISA program.
    pub instructions: Vec<Instruction>,
    /// Data memory words required.
    pub dmem_words: usize,
    /// Initial data memory contents (address, value).
    pub inputs: Vec<(u8, u64)>,
    /// Where the result lives: (first address, word count).
    pub result: (u8, usize),
    /// Expected result words (LSW first), from the golden model.
    pub expected: Vec<u64>,
}

impl KernelProgram {
    /// Builds a ready-to-run ISS machine for this kernel on `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.datawidth` differs from the generated core width.
    pub fn machine(&self, config: crate::config::CoreConfig) -> crate::sim::Machine {
        assert_eq!(
            config.datawidth, self.core_width,
            "kernel was generated for a {}-bit core",
            self.core_width
        );
        let mut m = crate::sim::Machine::new(config, self.instructions.clone(), self.dmem_words);
        for &(addr, value) in &self.inputs {
            m.dmem_mut()
                .write(addr as usize, value)
                .unwrap_or_else(|_| unreachable!("kernel inputs fit the generated layout"));
        }
        m
    }
}

/// Generates a kernel for a core width and benchmark data width.
///
/// # Errors
///
/// See [`KernelError`].
pub fn generate(
    kernel: Kernel,
    core_width: usize,
    data_width: usize,
) -> Result<KernelProgram, KernelError> {
    if !kernel.data_widths().contains(&data_width) {
        return Err(KernelError::UnsupportedWidths { kernel, core_width, data_width });
    }
    let g = match kernel {
        Kernel::Mult => mult::generate(core_width, data_width),
        Kernel::Div => div::generate(core_width, data_width),
        Kernel::InSort => insort::generate(core_width, data_width),
        Kernel::IntAvg => intavg::generate(core_width, data_width),
        Kernel::THold => thold::generate(core_width, data_width),
        Kernel::Crc8 => crc8::generate(core_width, data_width),
        Kernel::DTree => dtree::generate(core_width, data_width),
    }?;
    if g.instructions.len() > 256 {
        return Err(KernelError::ProgramTooLong { kernel, instructions: g.instructions.len() });
    }
    // The kernels address data memory directly (BAR0-relative), so the
    // layout must fit the 7-bit offset field of the 2-BAR encoding.
    if g.dmem_words > 128 {
        return Err(KernelError::UnsupportedWidths { kernel, core_width, data_width });
    }
    Ok(g)
}

/// Words per element when `data_width`-bit data runs on a
/// `core_width`-bit core.
pub(crate) fn words_per_element(core_width: usize, data_width: usize) -> usize {
    data_width.div_ceil(core_width)
}

/// Deterministic pseudo-random input generator (xorshift), so inputs and
/// golden outputs agree across kernels and test runs.
pub(crate) struct InputRng(u64);

impl InputRng {
    pub(crate) fn new(seed: u64) -> Self {
        InputRng(seed.max(1))
    }

    pub(crate) fn next_bits(&mut self, bits: usize) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        if bits >= 64 {
            x
        } else {
            x & ((1u64 << bits) - 1)
        }
    }
}

/// Instruction-level TP-ISA program builder with labels, used by the
/// kernel generators (all operands are direct / BAR0-relative — see the
/// module docs on unrolling).
pub(crate) struct TpAsm {
    instrs: Vec<Instruction>,
    labels: BTreeMap<String, usize>,
    fixups: Vec<(usize, String)>,
}

impl TpAsm {
    pub(crate) fn new() -> Self {
        TpAsm { instrs: Vec::new(), labels: BTreeMap::new(), fixups: Vec::new() }
    }

    pub(crate) fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.instrs.len());
        assert!(prev.is_none(), "duplicate kernel label {name:?}");
    }

    pub(crate) fn alu(&mut self, op: AluOp, dst: u8, src: u8) {
        self.instrs.push(Instruction::Alu {
            op,
            dst: Operand::direct(dst),
            src: Operand::direct(src),
        });
    }

    pub(crate) fn store(&mut self, dst: u8, imm: u8) {
        self.instrs.push(Instruction::Store { dst: Operand::direct(dst), imm });
    }

    pub(crate) fn br(&mut self, label: impl Into<String>, mask: u8) {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instruction::Branch { negate: false, target: 0, mask });
    }

    pub(crate) fn brn(&mut self, label: impl Into<String>, mask: u8) {
        self.fixups.push((self.instrs.len(), label.into()));
        self.instrs.push(Instruction::Branch { negate: true, target: 0, mask });
    }

    pub(crate) fn jmp(&mut self, label: impl Into<String>) {
        self.brn(label, 0);
    }

    pub(crate) fn halt(&mut self) {
        let here = self.instrs.len() as u8;
        self.instrs.push(Instruction::Branch { negate: true, target: here, mask: 0 });
    }

    /// Resolves labels. Returns `Err(instruction_count)` when the program
    /// exceeds TP-ISA's 256-instruction PC range (the caller converts
    /// that into [`KernelError::ProgramTooLong`]).
    ///
    /// # Panics
    ///
    /// Panics on an undefined label (a generator bug).
    pub(crate) fn finish(mut self) -> Result<Vec<Instruction>, usize> {
        if self.instrs.len() > 256 {
            return Err(self.instrs.len());
        }
        for (pos, label) in &self.fixups {
            let target = *self
                .labels
                .get(label)
                .unwrap_or_else(|| panic!("undefined kernel label {label:?}"));
            debug_assert!(target <= u8::MAX as usize);
            if let Instruction::Branch { target: t, .. } = &mut self.instrs[*pos] {
                *t = target as u8;
            }
        }
        Ok(self.instrs)
    }

    // ------ multi-word helpers (addresses are LSW-first) ------

    /// `dst[..n] = src[..n]` via double-NOT through a scratch word.
    pub(crate) fn copy(&mut self, dst: u8, src: u8, n: usize, scratch: u8) {
        for i in 0..n as u8 {
            self.alu(AluOp::Not, scratch, src + i);
            self.alu(AluOp::Not, dst + i, scratch);
        }
    }

    /// `dst += src` across `n` words (ADD then ADC chain).
    pub(crate) fn add_multi(&mut self, dst: u8, src: u8, n: usize) {
        self.alu(AluOp::Add, dst, src);
        for i in 1..n as u8 {
            self.alu(AluOp::Adc, dst + i, src + i);
        }
    }

    /// `dst -= src` across `n` words; leaves C = borrow.
    pub(crate) fn sub_multi(&mut self, dst: u8, src: u8, n: usize) {
        self.alu(AluOp::Sub, dst, src);
        for i in 1..n as u8 {
            self.alu(AluOp::Sbb, dst + i, src + i);
        }
    }

    /// Zeroes `n` words (`XOR x, x`).
    pub(crate) fn zero(&mut self, addr: u8, n: usize) {
        for i in 0..n as u8 {
            self.alu(AluOp::Xor, addr + i, addr + i);
        }
    }

    /// Clears the carry flag without disturbing a counter: `TEST one, one`
    /// (logic ops clear C; the result 1 is nonzero so Z clears too).
    pub(crate) fn clear_carry(&mut self, one: u8) {
        self.alu(AluOp::Test, one, one);
    }

    /// Logical shift left by 1 across `n` words (caller clears carry
    /// first); leaves C = bit shifted out of the MSW.
    pub(crate) fn shl1(&mut self, addr: u8, n: usize) {
        for i in 0..n as u8 {
            self.alu(AluOp::Rlc, addr + i, addr + i);
        }
    }

    /// Logical shift right by 1 across `n` words (caller clears carry
    /// first); leaves C = bit shifted out of the LSW.
    pub(crate) fn shr1(&mut self, addr: u8, n: usize) {
        for i in (0..n as u8).rev() {
            self.alu(AluOp::Rrc, addr + i, addr + i);
        }
    }

    /// Emits a loop running `body` exactly `times` times. When `times`
    /// fits one data word a single memory counter is used; otherwise a
    /// nested outer/inner counter pair (`times` must factor as
    /// `outer × core_width` in that case — true for all coalescing loops,
    /// where `times = n × core_width`).
    ///
    /// The body must not rely on flags across its boundary (the counter
    /// updates clobber them).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn repeat(
        &mut self,
        prefix: &str,
        times: usize,
        core_width: usize,
        cnt: u8,
        cnt_outer: u8,
        one: u8,
        body: impl FnOnce(&mut TpAsm),
    ) {
        let max = (1usize << core_width) - 1;
        if times <= max {
            self.store(cnt, times as u8);
            self.label(format!("{prefix}_loop"));
            body(self);
            self.alu(AluOp::Sub, cnt, one);
            self.brn(format!("{prefix}_loop"), Z);
        } else {
            let inner = core_width;
            let outer = times / inner;
            assert_eq!(outer * inner, times, "loop count must factor as outer × width");
            assert!(outer <= max && inner <= max, "nested counters must fit a word");
            self.store(cnt_outer, outer as u8);
            self.label(format!("{prefix}_outer"));
            self.store(cnt, inner as u8);
            self.label(format!("{prefix}_loop"));
            body(self);
            self.alu(AluOp::Sub, cnt, one);
            self.brn(format!("{prefix}_loop"), Z);
            self.alu(AluOp::Sub, cnt_outer, one);
            self.brn(format!("{prefix}_outer"), Z);
        }
    }

    /// XOR-swap two `n`-word values in place.
    pub(crate) fn xor_swap(&mut self, a: u8, b: u8, n: usize) {
        for i in 0..n as u8 {
            self.alu(AluOp::Xor, a + i, b + i);
            self.alu(AluOp::Xor, b + i, a + i);
            self.alu(AluOp::Xor, a + i, b + i);
        }
    }
}

/// Splits a `data_width`-bit value into core-width words, LSW first.
pub fn split_words(value: u64, core_width: usize, n: usize) -> Vec<u64> {
    let mask = if core_width >= 64 { u64::MAX } else { (1u64 << core_width) - 1 };
    (0..n)
        .map(|i| {
            let shift = i * core_width;
            if shift >= 64 {
                0
            } else {
                value >> shift & mask
            }
        })
        .collect()
}

/// Reassembles core-width words (LSW first) into a value.
pub fn join_words(words: &[u64], core_width: usize) -> u64 {
    words.iter().enumerate().fold(0u64, |acc, (i, &w)| {
        let shift = i * core_width;
        if shift >= 64 {
            acc
        } else {
            acc | w << shift
        }
    })
}

/// Shared helper: flag masks for branches.
pub(crate) const C: u8 = Flags::C;
pub(crate) const Z: u8 = Flags::Z;

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::CoreConfig;

    /// Runs a kernel on the ISS and asserts the golden result.
    pub(crate) fn check(kernel: Kernel, core_width: usize, data_width: usize) {
        let prog = generate(kernel, core_width, data_width)
            .unwrap_or_else(|e| panic!("generate {kernel} w{core_width}/d{data_width}: {e}"));
        let config = CoreConfig::new(1, core_width, 2);
        let mut m = prog.machine(config);
        m.run(20_000_000).unwrap_or_else(|e| panic!("{}: {e}", prog.name));
        let (addr, words) = prog.result;
        for i in 0..words {
            let got = m.dmem().read(addr as usize + i).unwrap();
            assert_eq!(
                got,
                prog.expected[i],
                "{}: result word {i} (addr {}) mismatch",
                prog.name,
                addr as usize + i
            );
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn split_and_join_round_trip() {
        let v = 0xDEADBEEF;
        let words = split_words(v, 8, 4);
        assert_eq!(words, vec![0xEF, 0xBE, 0xAD, 0xDE]);
        assert_eq!(join_words(&words, 8), v);
    }

    #[test]
    fn input_rng_is_deterministic() {
        let mut a = InputRng::new(42);
        let mut b = InputRng::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_bits(16), b.next_bits(16));
        }
    }

    #[test]
    fn every_kernel_reports_a_name_and_widths() {
        for k in Kernel::ALL {
            assert!(!k.name().is_empty());
            assert!(!k.data_widths().is_empty());
        }
    }
}
