//! TP-ISA — the Tiny Printed ISA (Section 5.1, Figure 6).
//!
//! TP-ISA is a two-operand, memory-memory ISA designed around the costs of
//! printed technologies: no register file (DFFs are the most expensive
//! cells), Harvard organization (instructions live in a dense crosspoint
//! ROM), 24-bit fixed-width instructions, and data-coalescing arithmetic
//! (add-with-carry, subtract-with-borrow, rotate-through-carry) so narrow
//! cores can process wide data.
//!
//! ## Instruction word (standard encoding, 24 bits)
//!
//! ```text
//!  23     20 19 18 17 16 15        8 7         0
//! ┌─────────┬──┬──┬──┬──┬───────────┬───────────┐
//! │ opcode  │W │C │A │B │ operand 1 │ operand 2 │
//! └─────────┴──┴──┴──┴──┴───────────┴───────────┘
//! ```
//!
//! `W` enables writeback, `C` selects the carry-coupled variant, `A`
//! selects the alternate operation (subtract / arithmetic shift / branch
//! negate), and `B` marks B-type (branch) instructions. Each 8-bit operand
//! is `[BAR select | offset]`: its top `log2(BARs)` bits pick a base
//! address register, the rest offset from it. `STORE` and `SET-BAR` treat
//! operand 2 as an immediate; branches treat operand 1 as the target and
//! the low 4 bits of operand 2 as a flag mask.
//!
//! ## Choices the paper leaves open (documented here, tested in `sim`)
//!
//! - `NOT`, `RL*`/`RR*` are unary: they read operand 2 and write operand 1
//!   (so `NOT t,s ; NOT d,t` is the copy idiom and rotates can be
//!   non-destructive).
//! - `SUB`/`CMP`/`SBB` set the carry flag as *borrow* (8080/x86 style):
//!   `C = 1` when the subtraction borrows; `SBB` subtracts `C` in.
//! - `STORE`'s 8-bit immediate is zero-extended to the data width.
//! - `BR` is taken when `(flags & mask) != 0`; `BRN` when `== 0`. A `BRN`
//!   with an empty mask is the unconditional jump.
//! - Flag bit order in branch masks: `C = 0b0001`, `Z = 0b0010`,
//!   `S = 0b0100`, `V = 0b1000`.

use std::fmt;

/// The four condition flags (Section 5.1: "a 4-bit flags register with
/// (S)ign, (Z)ero, (C)arry out, and o(V)erflow fields").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Carry out / borrow / rotated-out bit.
    pub c: bool,
    /// Zero.
    pub z: bool,
    /// Sign (MSB of the result).
    pub s: bool,
    /// Signed overflow.
    pub v: bool,
}

impl Flags {
    /// Mask bit for the carry flag.
    pub const C: u8 = 0b0001;
    /// Mask bit for the zero flag.
    pub const Z: u8 = 0b0010;
    /// Mask bit for the sign flag.
    pub const S: u8 = 0b0100;
    /// Mask bit for the overflow flag.
    pub const V: u8 = 0b1000;

    /// Packs the flags into their branch-mask bit positions.
    pub fn bits(self) -> u8 {
        (self.c as u8) | (self.z as u8) << 1 | (self.s as u8) << 2 | (self.v as u8) << 3
    }

    /// Unpacks flags from branch-mask bit positions.
    pub fn from_bits(bits: u8) -> Self {
        Flags {
            c: bits & Self::C != 0,
            z: bits & Self::Z != 0,
            s: bits & Self::S != 0,
            v: bits & Self::V != 0,
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.s { 'S' } else { '-' },
            if self.z { 'Z' } else { '-' },
            if self.c { 'C' } else { '-' },
            if self.v { 'V' } else { '-' }
        )
    }
}

/// ALU / M-type operations. Variants map to Figure 6 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// `dst + src`.
    Add,
    /// `dst + src + C`.
    Adc,
    /// `dst - src` (C set on borrow).
    Sub,
    /// `dst - src - C`.
    Sbb,
    /// `dst - src`, flags only (no writeback).
    Cmp,
    /// `dst & src`.
    And,
    /// `dst & src`, flags only.
    Test,
    /// `dst | src`.
    Or,
    /// `dst ^ src`.
    Xor,
    /// `!src` (unary; writes dst).
    Not,
    /// Rotate `src` left by one (unary; writes dst).
    Rl,
    /// Rotate `src` left through carry.
    Rlc,
    /// Rotate `src` right by one.
    Rr,
    /// Rotate `src` right through carry.
    Rrc,
    /// Arithmetic shift `src` right by one (MSB preserved).
    Rra,
}

impl AluOp {
    /// All M-type operations, in Figure 6 order.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Adc,
        AluOp::Sub,
        AluOp::Cmp,
        AluOp::Sbb,
        AluOp::And,
        AluOp::Test,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Not,
        AluOp::Rl,
        AluOp::Rlc,
        AluOp::Rr,
        AluOp::Rrc,
        AluOp::Rra,
    ];

    /// Whether the result is written back (the `W` bit).
    pub fn writes_back(self) -> bool {
        !matches!(self, AluOp::Cmp | AluOp::Test)
    }

    /// Whether the operation consumes the carry flag (the `C` bit).
    pub fn uses_carry(self) -> bool {
        matches!(self, AluOp::Adc | AluOp::Sbb | AluOp::Rlc | AluOp::Rrc)
    }

    /// Whether this is a unary operation reading only operand 2.
    pub fn is_unary(self) -> bool {
        matches!(self, AluOp::Not | AluOp::Rl | AluOp::Rlc | AluOp::Rr | AluOp::Rrc | AluOp::Rra)
    }

    /// Assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "ADD",
            AluOp::Adc => "ADC",
            AluOp::Sub => "SUB",
            AluOp::Sbb => "SBB",
            AluOp::Cmp => "CMP",
            AluOp::And => "AND",
            AluOp::Test => "TEST",
            AluOp::Or => "OR",
            AluOp::Xor => "XOR",
            AluOp::Not => "NOT",
            AluOp::Rl => "RL",
            AluOp::Rlc => "RLC",
            AluOp::Rr => "RR",
            AluOp::Rrc => "RRC",
            AluOp::Rra => "RRA",
        }
    }
}

/// A memory operand: BAR select plus offset (Figure 6's `R|address`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Operand {
    /// Which base address register to offset from (0 is hardwired zero).
    pub bar: u8,
    /// Offset added to the BAR contents.
    pub offset: u8,
}

impl Operand {
    /// A direct (BAR0-relative, i.e. absolute) operand.
    pub fn direct(offset: u8) -> Self {
        Operand { bar: 0, offset }
    }

    /// A BAR-relative operand.
    pub fn indexed(bar: u8, offset: u8) -> Self {
        Operand { bar, offset }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bar == 0 {
            write!(f, "[{}]", self.offset)
        } else {
            write!(f, "[b{}+{}]", self.bar, self.offset)
        }
    }
}

/// One decoded TP-ISA instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// M-type: ALU operation on two memory operands.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (and left source for binary ops).
        dst: Operand,
        /// Right source (only source for unary ops).
        src: Operand,
    },
    /// S-type `STORE`: write an immediate to memory.
    Store {
        /// Destination.
        dst: Operand,
        /// Zero-extended immediate.
        imm: u8,
    },
    /// S-type `SET-BAR`: load a base address register.
    SetBar {
        /// Which BAR (writes to BAR 0 are ignored — it reads as zero).
        bar: u8,
        /// New base value.
        imm: u8,
    },
    /// B-type branch: `BR` (taken if `flags & mask != 0`) or `BRN`
    /// (taken if `flags & mask == 0`; empty mask = always).
    Branch {
        /// True for `BRN`.
        negate: bool,
        /// Absolute instruction address.
        target: u8,
        /// Flag mask (see [`Flags`] mask constants).
        mask: u8,
    },
}

impl Instruction {
    /// Unconditional jump (`BRN` with an empty mask).
    pub fn jump(target: u8) -> Self {
        Instruction::Branch { negate: true, target, mask: 0 }
    }

    /// Whether this instruction updates the flags register.
    pub fn writes_flags(&self) -> bool {
        matches!(self, Instruction::Alu { .. })
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Unary ops print both operands too: the encoding always
            // carries dst and src, and the assembler round-trips them.
            Instruction::Alu { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Instruction::Store { dst, imm } => write!(f, "STORE {dst}, #{imm}"),
            Instruction::SetBar { bar, imm } => write!(f, "SETBAR b{bar}, #{imm}"),
            Instruction::Branch { negate, target, mask } => {
                let name = if *negate { "BRN" } else { "BR" };
                write!(f, "{name} {target}, mask={mask:#06b}")
            }
        }
    }
}

/// 4-bit opcode values (the symbolic `OP-*` of Figure 6, given concrete
/// encodings here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Opcode {
    Add = 0x1,
    And = 0x2,
    Or = 0x3,
    Xor = 0x4,
    Not = 0x5,
    Rl = 0x6,
    Rr = 0x7,
    Store = 0x8,
    Bar = 0x9,
    Br = 0xA,
}

/// Errors from encoding or decoding TP-ISA instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaError {
    /// The opcode field holds no defined operation.
    BadOpcode(u8),
    /// The W/C/A/B control combination is undefined for this opcode.
    BadControl {
        /// The opcode.
        opcode: u8,
        /// The 4-bit control field (W,C,A,B).
        control: u8,
    },
    /// A BAR index exceeds the configured BAR count.
    BarOutOfRange {
        /// The requested BAR.
        bar: u8,
        /// Configured BAR count.
        bars: u8,
    },
    /// An operand offset does not fit the configured offset field.
    OffsetTooLarge {
        /// The offset.
        offset: u8,
        /// Available offset bits.
        bits: u8,
    },
}

impl fmt::Display for IsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsaError::BadOpcode(op) => write!(f, "undefined opcode {op:#x}"),
            IsaError::BadControl { opcode, control } => {
                write!(f, "undefined control bits {control:#06b} for opcode {opcode:#x}")
            }
            IsaError::BarOutOfRange { bar, bars } => {
                write!(f, "BAR {bar} out of range (core has {bars})")
            }
            IsaError::OffsetTooLarge { offset, bits } => {
                write!(f, "offset {offset} does not fit in {bits} bits")
            }
        }
    }
}

impl std::error::Error for IsaError {}

/// The standard 24-bit TP-ISA encoding for a given BAR count.
///
/// The number of BARs fixes the operand split: with `B` BARs, the top
/// `log2(B)` bits of each 8-bit operand select the BAR and the remainder
/// is the offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Encoding {
    /// BAR count (2 or 4 in the paper's design space; 1 means no BAR
    /// field at all, used by program-specific variants).
    pub bars: u8,
}

impl Encoding {
    /// Standard encoding with the given BAR count.
    ///
    /// # Panics
    ///
    /// Panics unless `bars` is a power of two in `1..=8`.
    pub fn with_bars(bars: u8) -> Self {
        assert!(
            bars.is_power_of_two() && (1..=8).contains(&bars),
            "BAR count must be a power of two in 1..=8, got {bars}"
        );
        Encoding { bars }
    }

    /// Bits of each operand used for BAR selection.
    pub fn bar_bits(&self) -> u8 {
        self.bars.trailing_zeros() as u8
    }

    /// Bits of each operand available as offset.
    pub fn offset_bits(&self) -> u8 {
        8 - self.bar_bits()
    }

    fn encode_operand(&self, op: Operand) -> Result<u8, IsaError> {
        if op.bar >= self.bars {
            return Err(IsaError::BarOutOfRange { bar: op.bar, bars: self.bars });
        }
        let offset_bits = self.offset_bits();
        if offset_bits < 8 && op.offset >> offset_bits != 0 {
            return Err(IsaError::OffsetTooLarge { offset: op.offset, bits: offset_bits });
        }
        Ok(op.bar << offset_bits | op.offset)
    }

    fn decode_operand(&self, byte: u8) -> Operand {
        let offset_bits = self.offset_bits();
        if offset_bits == 8 {
            Operand { bar: 0, offset: byte }
        } else {
            Operand { bar: byte >> offset_bits, offset: byte & ((1 << offset_bits) - 1) }
        }
    }

    /// Encodes an instruction into the 24-bit word of Figure 6.
    ///
    /// # Errors
    ///
    /// Returns an error if an operand does not fit the configured fields.
    pub fn encode(&self, inst: Instruction) -> Result<u32, IsaError> {
        let (opcode, w, c, a, b, op1, op2) = match inst {
            Instruction::Alu { op, dst, src } => {
                let (opcode, w, c, a) = match op {
                    AluOp::Add => (Opcode::Add, 1, 0, 0),
                    AluOp::Adc => (Opcode::Add, 1, 1, 0),
                    AluOp::Sub => (Opcode::Add, 1, 0, 1),
                    AluOp::Cmp => (Opcode::Add, 0, 0, 1),
                    AluOp::Sbb => (Opcode::Add, 1, 1, 1),
                    AluOp::And => (Opcode::And, 1, 0, 0),
                    AluOp::Test => (Opcode::And, 0, 0, 0),
                    AluOp::Or => (Opcode::Or, 1, 0, 0),
                    AluOp::Xor => (Opcode::Xor, 1, 0, 0),
                    AluOp::Not => (Opcode::Not, 1, 0, 0),
                    AluOp::Rl => (Opcode::Rl, 1, 0, 0),
                    AluOp::Rlc => (Opcode::Rl, 1, 1, 0),
                    AluOp::Rr => (Opcode::Rr, 1, 0, 0),
                    AluOp::Rrc => (Opcode::Rr, 1, 1, 0),
                    AluOp::Rra => (Opcode::Rr, 1, 0, 1),
                };
                (opcode, w, c, a, 0, self.encode_operand(dst)?, self.encode_operand(src)?)
            }
            Instruction::Store { dst, imm } => {
                (Opcode::Store, 1, 0, 0, 0, self.encode_operand(dst)?, imm)
            }
            Instruction::SetBar { bar, imm } => {
                if bar >= self.bars {
                    return Err(IsaError::BarOutOfRange { bar, bars: self.bars });
                }
                (Opcode::Bar, 0, 0, 0, 0, bar, imm)
            }
            Instruction::Branch { negate, target, mask } => {
                (Opcode::Br, 0, 0, negate as u32, 1, target, mask & 0xF)
            }
        };
        Ok((opcode as u32) << 20
            | w << 19
            | c << 18
            | a << 17
            | b << 16
            | (op1 as u32) << 8
            | op2 as u32)
    }

    /// Decodes a 24-bit instruction word.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadOpcode`] / [`IsaError::BadControl`] for
    /// undefined encodings.
    pub fn decode(&self, word: u32) -> Result<Instruction, IsaError> {
        let opcode = (word >> 20 & 0xF) as u8;
        let w = word >> 19 & 1 == 1;
        let c = word >> 18 & 1 == 1;
        let a = word >> 17 & 1 == 1;
        let b = word >> 16 & 1 == 1;
        let op1 = (word >> 8 & 0xFF) as u8;
        let op2 = (word & 0xFF) as u8;
        let control = (word >> 16 & 0xF) as u8;

        let alu = |op: AluOp| -> Result<Instruction, IsaError> {
            Ok(Instruction::Alu {
                op,
                dst: self.decode_operand(op1),
                src: self.decode_operand(op2),
            })
        };

        match opcode {
            x if x == Opcode::Add as u8 => match (w, c, a, b) {
                (true, false, false, false) => alu(AluOp::Add),
                (true, true, false, false) => alu(AluOp::Adc),
                (true, false, true, false) => alu(AluOp::Sub),
                (false, false, true, false) => alu(AluOp::Cmp),
                (true, true, true, false) => alu(AluOp::Sbb),
                _ => Err(IsaError::BadControl { opcode, control }),
            },
            x if x == Opcode::And as u8 => match (w, c, a, b) {
                (true, false, false, false) => alu(AluOp::And),
                (false, false, false, false) => alu(AluOp::Test),
                _ => Err(IsaError::BadControl { opcode, control }),
            },
            x if x == Opcode::Or as u8 && (w, c, a, b) == (true, false, false, false) => {
                alu(AluOp::Or)
            }
            x if x == Opcode::Xor as u8 && (w, c, a, b) == (true, false, false, false) => {
                alu(AluOp::Xor)
            }
            x if x == Opcode::Not as u8 && (w, c, a, b) == (true, false, false, false) => {
                alu(AluOp::Not)
            }
            x if x == Opcode::Rl as u8 => match (w, c, a, b) {
                (true, false, false, false) => alu(AluOp::Rl),
                (true, true, false, false) => alu(AluOp::Rlc),
                _ => Err(IsaError::BadControl { opcode, control }),
            },
            x if x == Opcode::Rr as u8 => match (w, c, a, b) {
                (true, false, false, false) => alu(AluOp::Rr),
                (true, true, false, false) => alu(AluOp::Rrc),
                (true, false, true, false) => alu(AluOp::Rra),
                _ => Err(IsaError::BadControl { opcode, control }),
            },
            x if x == Opcode::Store as u8 && (w, c, a, b) == (true, false, false, false) => {
                Ok(Instruction::Store { dst: self.decode_operand(op1), imm: op2 })
            }
            x if x == Opcode::Bar as u8 && (w, c, a, b) == (false, false, false, false) => {
                if op1 >= self.bars {
                    return Err(IsaError::BarOutOfRange { bar: op1, bars: self.bars });
                }
                Ok(Instruction::SetBar { bar: op1, imm: op2 })
            }
            x if x == Opcode::Br as u8 && !w && !c && b => {
                // Figure 6 fixes operand 2's upper nibble to 0 for B-type.
                if op2 >> 4 != 0 {
                    return Err(IsaError::BadControl { opcode, control });
                }
                Ok(Instruction::Branch { negate: a, target: op1, mask: op2 & 0xF })
            }
            x if (Opcode::Add as u8..=Opcode::Br as u8).contains(&x) => {
                Err(IsaError::BadControl { opcode, control })
            }
            _ => Err(IsaError::BadOpcode(opcode)),
        }
    }
}

impl Default for Encoding {
    /// The paper's baseline: 2 BARs.
    fn default() -> Self {
        Encoding::with_bars(2)
    }
}

/// Width of the standard instruction word.
pub const INSTRUCTION_BITS: usize = 24;

/// Reference ALU: the semantic ground truth shared by the ISS, the gate-
/// level datapath verification, and the property tests.
///
/// Returns `(result, flags)` for the operation at `width` bits, given the
/// incoming carry flag.
pub fn alu_reference(op: AluOp, dst: u64, src: u64, carry_in: bool, width: usize) -> (u64, Flags) {
    assert!((1..=64).contains(&width), "ALU width {width} out of range");
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let msb = 1u64 << (width - 1);
    let a = dst & mask;
    let b = src & mask;

    let mut c_out = None;
    let mut v_out = None;
    let result = match op {
        AluOp::Add | AluOp::Adc => {
            let cin = (op == AluOp::Adc && carry_in) as u64;
            let full = a + b + cin;
            c_out = Some(full > mask);
            let r = full & mask;
            v_out = Some((a & msb) == (b & msb) && (r & msb) != (a & msb));
            r
        }
        AluOp::Sub | AluOp::Cmp | AluOp::Sbb => {
            let bin = (op == AluOp::Sbb && carry_in) as u64;
            let r = a.wrapping_sub(b).wrapping_sub(bin) & mask;
            c_out = Some((b + bin) > a); // borrow
            v_out = Some((a & msb) != (b & msb) && (r & msb) == (b & msb));
            r
        }
        AluOp::And | AluOp::Test => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Not => !b & mask,
        AluOp::Rl => {
            let out = b & msb != 0;
            c_out = Some(out);
            (b << 1 | out as u64) & mask
        }
        AluOp::Rlc => {
            c_out = Some(b & msb != 0);
            (b << 1 | carry_in as u64) & mask
        }
        AluOp::Rr => {
            let out = b & 1 != 0;
            c_out = Some(out);
            b >> 1 | (out as u64) << (width - 1)
        }
        AluOp::Rrc => {
            c_out = Some(b & 1 != 0);
            b >> 1 | (carry_in as u64) << (width - 1)
        }
        AluOp::Rra => {
            c_out = Some(b & 1 != 0);
            b >> 1 | (b & msb)
        }
    };

    let flags = Flags {
        c: c_out.unwrap_or(false),
        z: result == 0,
        s: result & msb != 0,
        v: v_out.unwrap_or(false),
    };
    (result, flags)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips_every_operation() {
        let enc = Encoding::with_bars(2);
        let dst = Operand::indexed(1, 5);
        let src = Operand::direct(9);
        for op in AluOp::ALL {
            let inst = Instruction::Alu { op, dst, src };
            let word = enc.encode(inst).unwrap();
            assert_eq!(enc.decode(word).unwrap(), inst, "{op:?}");
            assert_eq!(word >> 24, 0, "{op:?} fits in 24 bits");
        }
        for inst in [
            Instruction::Store { dst, imm: 0xAB },
            Instruction::SetBar { bar: 1, imm: 0x40 },
            Instruction::Branch { negate: false, target: 17, mask: Flags::Z },
            Instruction::Branch { negate: true, target: 0, mask: 0 },
        ] {
            let word = enc.encode(inst).unwrap();
            assert_eq!(enc.decode(word).unwrap(), inst);
        }
    }

    #[test]
    fn four_bar_encoding_narrows_offsets() {
        let enc = Encoding::with_bars(4);
        assert_eq!(enc.bar_bits(), 2);
        assert_eq!(enc.offset_bits(), 6);
        let ok = Instruction::Alu {
            op: AluOp::Add,
            dst: Operand::indexed(3, 63),
            src: Operand::direct(0),
        };
        assert!(enc.encode(ok).is_ok());
        let too_big = Instruction::Alu {
            op: AluOp::Add,
            dst: Operand::indexed(3, 64),
            src: Operand::direct(0),
        };
        assert!(matches!(enc.encode(too_big), Err(IsaError::OffsetTooLarge { .. })));
        let bad_bar = Instruction::SetBar { bar: 4, imm: 0 };
        assert!(matches!(enc.encode(bad_bar), Err(IsaError::BarOutOfRange { .. })));
    }

    #[test]
    fn undefined_words_fail_to_decode() {
        let enc = Encoding::default();
        assert!(matches!(
            enc.decode(0x0 << 20),
            Err(IsaError::BadOpcode(_)) | Err(IsaError::BadControl { .. })
        ));
        assert!(matches!(
            enc.decode(0xF00000),
            Err(IsaError::BadOpcode(0xF)) | Err(IsaError::BadControl { .. })
        ));
        // ADD opcode with W=0,C=1 is undefined.
        let word = (Opcode::Add as u32) << 20 | 1 << 18;
        assert!(matches!(enc.decode(word), Err(IsaError::BadControl { .. })));
    }

    #[test]
    fn alu_reference_add_sub_flags() {
        // 8-bit: 200 + 100 = 44 carry out.
        let (r, f) = alu_reference(AluOp::Add, 200, 100, false, 8);
        assert_eq!(r, 44);
        assert!(f.c && !f.z);
        // Signed overflow: 100 + 100 = 200 (negative as i8).
        let (_, f) = alu_reference(AluOp::Add, 100, 100, false, 8);
        assert!(f.v && f.s);
        // Borrow: 5 - 10.
        let (r, f) = alu_reference(AluOp::Sub, 5, 10, false, 8);
        assert_eq!(r, 251);
        assert!(f.c && f.s);
        // SBB chains: (0x0100 - 0x0001) as two bytes.
        let (lo, f) = alu_reference(AluOp::Sub, 0x00, 0x01, false, 8);
        assert_eq!(lo, 0xFF);
        assert!(f.c);
        let (hi, f) = alu_reference(AluOp::Sbb, 0x01, 0x00, f.c, 8);
        assert_eq!(hi, 0x00);
        assert!(!f.c);
    }

    #[test]
    fn alu_reference_adc_chains_coalesce() {
        // 16-bit add via two 8-bit ADDs: 0x01FF + 0x0001 = 0x0200.
        let (lo, f) = alu_reference(AluOp::Add, 0xFF, 0x01, false, 8);
        assert_eq!(lo, 0x00);
        assert!(f.c && f.z);
        let (hi, f) = alu_reference(AluOp::Adc, 0x01, 0x00, f.c, 8);
        assert_eq!(hi, 0x02);
        assert!(!f.c);
    }

    #[test]
    fn alu_reference_rotates() {
        let (r, f) = alu_reference(AluOp::Rl, 0b1000_0001, 0b1000_0001, false, 8);
        assert_eq!(r, 0b0000_0011);
        assert!(f.c);
        let (r, f) = alu_reference(AluOp::Rlc, 0, 0b1000_0000, false, 8);
        assert_eq!(r, 0);
        assert!(f.c && f.z);
        let (r, _) = alu_reference(AluOp::Rra, 0, 0b1000_0010, false, 8);
        assert_eq!(r, 0b1100_0001);
        let (r, f) = alu_reference(AluOp::Rrc, 0, 0b0000_0001, true, 8);
        assert_eq!(r, 0b1000_0000);
        assert!(f.c);
    }

    #[test]
    fn flags_pack_and_unpack() {
        let f = Flags { c: true, z: false, s: true, v: false };
        assert_eq!(f.bits(), Flags::C | Flags::S);
        assert_eq!(Flags::from_bits(f.bits()), f);
        assert_eq!(format!("{f}"), "S-C-");
    }

    #[test]
    fn works_at_every_design_space_width() {
        for width in [4, 8, 16, 32] {
            let max = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
            let (r, f) = alu_reference(AluOp::Add, max, 1, false, width);
            assert_eq!(r, 0, "width {width}");
            assert!(f.c && f.z, "width {width}");
        }
    }
}
