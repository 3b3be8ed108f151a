//! Program-specific ISA (Section 7, Table 7).
//!
//! Because printed hardware is fabricated per program ("the number of
//! static instructions, N, is known at print time"), the architectural
//! state can be trimmed to exactly what one program uses:
//!
//! - the PC shrinks to `⌈log2 N⌉` bits,
//! - BARs shrink to `⌈log2 D⌉` bits (D = data addresses used) or vanish,
//! - unused flag bits are removed,
//! - instruction operands narrow to the largest offset / immediate /
//!   target actually present, shrinking every ROM word.
//!
//! [`analyze`] performs the static analysis; [`CoreSpec`] carries the
//! resulting geometry into the netlist generator
//! ([`crate::generator::generate`]); [`NarrowEncoding`] re-encodes the
//! program into the shrunken instruction format for the crosspoint ROM.

use crate::config::CoreConfig;
use crate::generator::InstrLayout;
use crate::isa::{Flags, Instruction, IsaError, Operand};
use std::collections::BTreeSet;

/// Geometry of a (possibly program-specific) TP-ISA core.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CoreSpec {
    /// Human-readable name (`p1_8_2` or `p1_8_2@mult8`).
    pub label: String,
    /// Data / ALU width.
    pub datawidth: usize,
    /// Pipeline depth.
    pub pipeline_stages: usize,
    /// BAR count including the hardwired BAR0 (1 = no printed BARs).
    pub bars: u8,
    /// Program counter width.
    pub pc_bits: usize,
    /// BAR register width.
    pub bar_bits: usize,
    /// Which flags physically exist (mask over [`Flags`] bits).
    pub flags_mask: u8,
    /// Operand-1 field width.
    pub op1_bits: usize,
    /// Operand-2 field width.
    pub op2_bits: usize,
    /// Data memory words the system provisions.
    pub dmem_words: usize,
}

impl CoreSpec {
    /// The standard (non-program-specific) spec for a design-space point:
    /// 8-bit PC, 8-bit BARs, all four flags, 8-bit operands, 256 words.
    pub fn standard(config: CoreConfig) -> Self {
        CoreSpec {
            label: config.name(),
            datawidth: config.datawidth,
            pipeline_stages: config.pipeline_stages,
            bars: config.bars,
            pc_bits: 8,
            bar_bits: 8,
            flags_mask: Flags::C | Flags::Z | Flags::S | Flags::V,
            op1_bits: 8,
            op2_bits: 8,
            dmem_words: 256,
        }
    }

    /// The program-specific spec for `program` on a core of
    /// `config.datawidth`, per the Section 7 rules.
    pub fn program_specific(config: CoreConfig, program: &[Instruction], name: &str) -> Self {
        let a = analyze(program);
        CoreSpec {
            label: format!("{}@{name}", config.name()),
            datawidth: config.datawidth,
            pipeline_stages: config.pipeline_stages,
            bars: a.bars,
            pc_bits: a.pc_bits,
            bar_bits: a.bar_bits,
            flags_mask: a.flags_mask,
            op1_bits: a.op1_bits,
            op2_bits: a.op2_bits,
            dmem_words: a.dmem_words,
        }
    }

    /// The spec's display name.
    pub fn name(&self) -> String {
        self.label.clone()
    }

    /// Instruction field layout.
    pub fn instr_layout(&self) -> InstrLayout {
        InstrLayout { op1_bits: self.op1_bits, op2_bits: self.op2_bits }
    }

    /// Instruction word width (Table 7's "Instruction Size").
    pub fn instruction_bits(&self) -> usize {
        self.instr_layout().total_bits()
    }

    /// Operand bits spent on BAR selection.
    pub fn bar_sel_bits(&self) -> usize {
        (self.bars as usize).next_power_of_two().trailing_zeros() as usize
    }

    /// Operand-1 bits used to pick a BAR in `SET-BAR`.
    pub fn bar_index_bits(&self) -> usize {
        self.bar_sel_bits().max(1)
    }

    /// Data-memory address width.
    pub fn ea_bits(&self) -> usize {
        bits_for(self.dmem_words.saturating_sub(1) as u64).max(1)
    }

    /// Single-bit flag masks present, in C, Z, S, V order (the order of
    /// compressed branch-mask bits).
    pub fn present_flags(&self) -> Vec<u8> {
        [Flags::C, Flags::Z, Flags::S, Flags::V]
            .into_iter()
            .filter(|m| self.flags_mask & m != 0)
            .collect()
    }

    /// Number of physical flag bits.
    pub fn flag_count(&self) -> usize {
        self.present_flags().len()
    }
}

/// Minimum bits to represent `value` (0 → 0 bits).
fn bits_for(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Result of the Section 7 static analysis — one row of Table 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramAnalysis {
    /// PC width: `⌈log2 N⌉`.
    pub pc_bits: usize,
    /// BARs the core keeps (1 = none printed, only the implicit zero).
    pub bars: u8,
    /// BAR register width (`⌈log2 D⌉`; 0 when no BARs remain).
    pub bar_bits: usize,
    /// Flags the program observes.
    pub flags_mask: u8,
    /// Narrowed operand-1 width.
    pub op1_bits: usize,
    /// Narrowed operand-2 width.
    pub op2_bits: usize,
    /// Data words the program touches.
    pub dmem_words: usize,
}

impl ProgramAnalysis {
    /// Instruction size under this analysis.
    pub fn instruction_bits(&self) -> usize {
        4 + 4 + self.op1_bits + self.op2_bits
    }
}

/// Statically analyzes a TP-ISA program for program-specific printing.
///
/// BAR contents are tracked flow-insensitively: every `SET-BAR` immediate
/// is a possible value of that BAR anywhere, which over-approximates the
/// reachable effective addresses (safe for hardware sizing).
pub fn analyze(program: &[Instruction]) -> ProgramAnalysis {
    let n = program.len().max(1);
    let pc_bits = bits_for((n - 1) as u64).max(1);

    // Possible values per BAR index.
    let mut bar_values: Vec<BTreeSet<u8>> = vec![BTreeSet::new(); 8];
    let mut bars_used: BTreeSet<u8> = BTreeSet::new();
    for inst in program {
        if let Instruction::SetBar { bar, imm } = inst {
            if *bar != 0 {
                bar_values[*bar as usize].insert(*imm);
            }
        }
        let mut note = |op: &Operand| {
            if op.bar != 0 {
                bars_used.insert(op.bar);
            }
        };
        match inst {
            Instruction::Alu { dst, src, .. } => {
                note(dst);
                note(src);
            }
            Instruction::Store { dst, .. } => note(dst),
            _ => {}
        }
    }

    // Effective addresses reachable.
    let mut max_addr: u64 = 0;
    let mut max_offset: u8 = 0;
    let visit = |op: &Operand, max_addr: &mut u64, max_offset: &mut u8| {
        *max_offset = (*max_offset).max(op.offset);
        if op.bar == 0 {
            *max_addr = (*max_addr).max(op.offset as u64);
        } else {
            let values = &bar_values[op.bar as usize];
            if values.is_empty() {
                *max_addr = (*max_addr).max(op.offset as u64);
            }
            for &base in values {
                *max_addr = (*max_addr).max(base.wrapping_add(op.offset) as u64);
            }
        }
    };
    let mut max_imm: u8 = 0;
    let mut max_setbar_imm: u8 = 0;
    let mut max_setbar_index: u8 = 0;
    let mut flags_mask: u8 = 0;
    let mut has_branch = false;
    let mut has_setbar = false;
    for inst in program {
        match inst {
            Instruction::Alu { op, dst, src } => {
                visit(dst, &mut max_addr, &mut max_offset);
                visit(src, &mut max_addr, &mut max_offset);
                if op.uses_carry() {
                    flags_mask |= Flags::C;
                }
            }
            Instruction::Store { dst, imm } => {
                visit(dst, &mut max_addr, &mut max_offset);
                max_imm = max_imm.max(*imm);
            }
            Instruction::SetBar { bar, imm } => {
                has_setbar = true;
                // Even a SET-BAR to a pruned/unused BAR still occupies a
                // ROM word and must encode.
                max_setbar_imm = max_setbar_imm.max(*imm);
                max_setbar_index = max_setbar_index.max(*bar);
            }
            Instruction::Branch { mask, .. } => {
                flags_mask |= mask & 0xF;
                has_branch = true;
            }
        }
    }

    let dmem_words = max_addr as usize + 1;
    let keep_bars = !bars_used.is_empty();
    let bars: u8 = if keep_bars {
        // Keep BAR0 plus enough printed BARs to cover the highest index,
        // SET-BAR's too: a higher one would alias a printed BAR.
        let highest = *bars_used.iter().max().unwrap_or_else(|| unreachable!("nonempty"));
        (highest.max(max_setbar_index) as usize + 1).next_power_of_two() as u8
    } else {
        1
    };
    let bar_bits = if keep_bars { bits_for(max_addr).max(1) } else { 0 };

    // Operand widths.
    let bar_sel_bits =
        if keep_bars { (bars as usize).next_power_of_two().trailing_zeros() as usize } else { 0 };
    let offset_bits = bits_for(max_offset as u64).max(1);
    let mem_operand_bits = bar_sel_bits + offset_bits;
    let flag_count =
        [Flags::C, Flags::Z, Flags::S, Flags::V].iter().filter(|&&m| flags_mask & m != 0).count();

    let mut op1_bits = mem_operand_bits;
    if has_branch {
        op1_bits = op1_bits.max(pc_bits);
    }
    if has_setbar {
        op1_bits = op1_bits.max(bits_for(max_setbar_index as u64).max(1));
    }
    let mut op2_bits = mem_operand_bits;
    if max_imm > 0 {
        op2_bits = op2_bits.max(bits_for(max_imm as u64));
    }
    if has_setbar {
        op2_bits = op2_bits.max(bar_bits.max(1)).max(bits_for(max_setbar_imm as u64).max(1));
    }
    if has_branch {
        op2_bits = op2_bits.max(flag_count.max(1));
    }

    ProgramAnalysis { pc_bits, bars, bar_bits, flags_mask, op1_bits, op2_bits, dmem_words }
}

/// Encoder for a (narrowed) instruction format described by a
/// [`CoreSpec`] — the standard 24-bit format is the special case of the
/// standard spec: on every design point's [`CoreSpec::standard`] it
/// produces [`crate::isa::Encoding`]'s words and errors. It is the ROM
/// encoder of every co-simulated core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NarrowEncoding {
    spec: CoreSpec,
}

impl NarrowEncoding {
    /// Creates an encoder for the spec's layout.
    pub fn new(spec: CoreSpec) -> Self {
        NarrowEncoding { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &CoreSpec {
        &self.spec
    }

    fn encode_operand(&self, op: Operand, field_bits: usize) -> Result<u64, IsaError> {
        let sel_bits = self.spec.bar_sel_bits();
        if op.bar as usize >= 1 << sel_bits && op.bar != 0 {
            return Err(IsaError::BarOutOfRange { bar: op.bar, bars: self.spec.bars });
        }
        let offset_bits = field_bits - sel_bits;
        if offset_bits < 64 && (op.offset as u64) >> offset_bits != 0 {
            return Err(IsaError::OffsetTooLarge { offset: op.offset, bits: offset_bits as u8 });
        }
        Ok((op.bar as u64) << offset_bits | op.offset as u64)
    }

    fn compress_mask(&self, mask: u8) -> u64 {
        let mut out = 0u64;
        for (i, &flag) in self.spec.present_flags().iter().enumerate() {
            if mask & flag != 0 {
                out |= 1 << i;
            }
        }
        out
    }

    /// Encodes one instruction into the narrowed word.
    ///
    /// # Errors
    ///
    /// Returns an [`IsaError`] if a field does not fit — which, for a spec
    /// produced by [`analyze`] on the same program, cannot happen.
    pub fn encode(&self, inst: Instruction) -> Result<u64, IsaError> {
        let layout = self.spec.instr_layout();
        let (opcode, w, c, a, b, op1, op2): (u64, u64, u64, u64, u64, u64, u64) = match inst {
            Instruction::Alu { op, dst, src } => {
                use crate::isa::AluOp;
                let (opcode, w, c, a) = match op {
                    AluOp::Add => (0x1, 1, 0, 0),
                    AluOp::Adc => (0x1, 1, 1, 0),
                    AluOp::Sub => (0x1, 1, 0, 1),
                    AluOp::Cmp => (0x1, 0, 0, 1),
                    AluOp::Sbb => (0x1, 1, 1, 1),
                    AluOp::And => (0x2, 1, 0, 0),
                    AluOp::Test => (0x2, 0, 0, 0),
                    AluOp::Or => (0x3, 1, 0, 0),
                    AluOp::Xor => (0x4, 1, 0, 0),
                    AluOp::Not => (0x5, 1, 0, 0),
                    AluOp::Rl => (0x6, 1, 0, 0),
                    AluOp::Rlc => (0x6, 1, 1, 0),
                    AluOp::Rr => (0x7, 1, 0, 0),
                    AluOp::Rrc => (0x7, 1, 1, 0),
                    AluOp::Rra => (0x7, 1, 0, 1),
                };
                (
                    opcode,
                    w,
                    c,
                    a,
                    0,
                    self.encode_operand(dst, layout.op1_bits)?,
                    self.encode_operand(src, layout.op2_bits)?,
                )
            }
            Instruction::Store { dst, imm } => {
                let imm = imm as u64;
                if layout.op2_bits < 64 && imm >> layout.op2_bits != 0 {
                    return Err(IsaError::OffsetTooLarge {
                        offset: imm as u8,
                        bits: layout.op2_bits as u8,
                    });
                }
                (0x8, 1, 0, 0, 0, self.encode_operand(dst, layout.op1_bits)?, imm)
            }
            Instruction::SetBar { bar, imm } => {
                // A program-specific core that pruned every BAR has no
                // BAR register (`bar_bits == 0`) and ignores SET-BAR;
                // any other spec, the standard 1-BAR one included, must
                // name one of its BARs, as the standard format does.
                if self.spec.bar_bits > 0 && bar >= self.spec.bars {
                    return Err(IsaError::BarOutOfRange { bar, bars: self.spec.bars });
                }
                let (bar, imm) = (bar as u64, imm as u64);
                if (layout.op1_bits < 64 && bar >> layout.op1_bits != 0)
                    || (layout.op2_bits < 64 && imm >> layout.op2_bits != 0)
                {
                    return Err(IsaError::OffsetTooLarge {
                        offset: imm as u8,
                        bits: layout.op2_bits as u8,
                    });
                }
                (0x9, 0, 0, 0, 0, bar, imm)
            }
            Instruction::Branch { negate, target, mask } => {
                (0xA, 0, 0, negate as u64, 1, target as u64, self.compress_mask(mask))
            }
        };
        debug_assert!(op1 >> layout.op1_bits == 0, "operand 1 overflow in {inst}");
        debug_assert!(op2 >> layout.op2_bits == 0, "operand 2 overflow in {inst}");
        Ok(op2
            | op1 << layout.op2_bits
            | b << (layout.op2_bits + layout.op1_bits)
            | a << (layout.op2_bits + layout.op1_bits + 1)
            | c << (layout.op2_bits + layout.op1_bits + 2)
            | w << (layout.op2_bits + layout.op1_bits + 3)
            | opcode << (layout.op2_bits + layout.op1_bits + 4))
    }

    /// Encodes a whole program into ROM words.
    ///
    /// # Errors
    ///
    /// Propagates the first encoding failure.
    pub fn encode_program(&self, program: &[Instruction]) -> Result<Vec<u64>, IsaError> {
        program.iter().map(|&inst| self.encode(inst)).collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::isa::AluOp;

    fn simple_loop() -> Vec<Instruction> {
        assemble(
            "
                STORE [0], #5
                STORE [1], #1
            top:
                SUB [0], [1]
                BRN top, Z
                HALT
            ",
        )
        .unwrap()
        .instructions
    }

    #[test]
    fn analysis_shrinks_everything() {
        let prog = simple_loop();
        let a = analyze(&prog);
        assert_eq!(a.pc_bits, 3, "5 instructions need 3 PC bits");
        assert_eq!(a.bars, 1, "no BARs used");
        assert_eq!(a.bar_bits, 0);
        assert_eq!(a.flags_mask, Flags::Z);
        assert_eq!(a.dmem_words, 2);
        assert!(a.instruction_bits() < 24);
    }

    #[test]
    fn bar_using_program_keeps_bars() {
        let prog = assemble(
            "
                SETBAR b1, #0x10
                STORE [b1+3], #9
                HALT
            ",
        )
        .unwrap()
        .instructions;
        let a = analyze(&prog);
        assert_eq!(a.bars, 2);
        assert_eq!(a.dmem_words, 0x14, "base 0x10 + offset 3 + 1");
        assert_eq!(a.bar_bits, 5);
        assert!(a.flags_mask == 0, "no flags observed");
    }

    #[test]
    fn carry_coalescing_marks_the_carry_flag_used() {
        let prog = vec![
            Instruction::Alu { op: AluOp::Add, dst: Operand::direct(0), src: Operand::direct(2) },
            Instruction::Alu { op: AluOp::Adc, dst: Operand::direct(1), src: Operand::direct(3) },
            Instruction::jump(2),
        ];
        let a = analyze(&prog);
        assert!(a.flags_mask & Flags::C != 0);
    }

    #[test]
    fn table7_shape_instruction_sizes_shrink() {
        // The qualitative Table 7 claim: every analyzed kernel has a
        // large amount of unused architectural state.
        let prog = simple_loop();
        let config = CoreConfig::new(1, 8, 2);
        let std_spec = CoreSpec::standard(config);
        let ps_spec = CoreSpec::program_specific(config, &prog, "loop");
        assert!(ps_spec.instruction_bits() < std_spec.instruction_bits());
        assert!(ps_spec.pc_bits < std_spec.pc_bits);
        assert!(ps_spec.flag_count() < std_spec.flag_count());
        assert!(ps_spec.dmem_words < std_spec.dmem_words);
    }

    #[test]
    fn narrow_encoding_round_trip_dimensions() {
        let prog = simple_loop();
        let spec = CoreSpec::program_specific(CoreConfig::new(1, 8, 2), &prog, "loop");
        let enc = NarrowEncoding::new(spec.clone());
        let words = enc.encode_program(&prog).unwrap();
        assert_eq!(words.len(), prog.len());
        for &w in &words {
            assert_eq!(w >> spec.instruction_bits(), 0, "word fits the narrow format");
        }
    }

    #[test]
    fn set_bar_encodes_only_where_it_names_a_bar_or_no_bar_is_printed() {
        let set_bar = Instruction::SetBar { bar: 1, imm: 0x10 };
        let prog = vec![set_bar, Instruction::Store { dst: Operand::direct(0), imm: 1 }];
        let pruned = CoreSpec::program_specific(CoreConfig::new(1, 8, 2), &prog, "setbar");
        assert_eq!((pruned.bars, pruned.bar_bits), (1, 0), "no operand uses a BAR");
        assert!(NarrowEncoding::new(pruned).encode_program(&prog).is_ok());
        let standard = CoreSpec::standard(CoreConfig::new(1, 8, 1));
        assert_eq!(
            NarrowEncoding::new(standard).encode(set_bar),
            Err(IsaError::BarOutOfRange { bar: 1, bars: 1 })
        );
    }

    #[test]
    fn empty_program_analyzes_degenerately() {
        let a = analyze(&[]);
        assert_eq!(a.pc_bits, 1);
        assert_eq!(a.bars, 1);
        assert_eq!(a.dmem_words, 1);
    }
}
