//! openMSP430 instruction-set simulator.
//!
//! The openMSP430 is the paper's 16-bit register-machine baseline: a
//! synthesizable clone of TI's MSP430, whose seven addressing modes and
//! 16-register file make it the largest of the four baselines in EGFET
//! (Table 4: 12.1 k gates, 56.4 cm²). This model implements the complete
//! core instruction set — all three formats, the constant generators, and
//! byte/word operation — with the documented per-addressing-mode cycle
//! counts.
//!
//! Programs halt by setting the `CPUOFF` bit in the status register
//! (`BIS #0x10, SR` — the standard MSP430 idiom) or by a `JMP` to self.

use std::fmt;

/// Status-register flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrBits;

impl SrBits {
    /// Carry.
    pub const C: u16 = 1 << 0;
    /// Zero.
    pub const Z: u16 = 1 << 1;
    /// Negative.
    pub const N: u16 = 1 << 2;
    /// CPU off (halt).
    pub const CPUOFF: u16 = 1 << 4;
    /// Overflow.
    pub const V: u16 = 1 << 8;
}

/// Execution fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMsp430 {
    /// Cycle budget exhausted.
    CycleLimitExceeded {
        /// The budget.
        limit: u64,
    },
    /// Access beyond memory.
    BadAddress {
        /// The address.
        addr: u16,
    },
}

impl fmt::Display for FaultMsp430 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultMsp430::CycleLimitExceeded { limit } => {
                write!(f, "MSP430 program did not halt within {limit} cycles")
            }
            FaultMsp430::BadAddress { addr } => write!(f, "MSP430 access to {addr:#06x}"),
        }
    }
}

impl std::error::Error for FaultMsp430 {}

/// An MSP430 machine with 64 KiB of byte-addressed little-endian memory.
#[derive(Clone)]
pub struct CpuMsp430 {
    /// R0=PC, R1=SP, R2=SR, R3=CG, R4–R15 general purpose.
    pub regs: [u16; 16],
    /// Main memory.
    pub mem: Vec<u8>,
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    halted: bool,
}

impl fmt::Debug for CpuMsp430 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CpuMsp430 {{ pc: {:#06x}, sp: {:#06x}, sr: {:#06x}, cycles: {} }}",
            self.regs[0], self.regs[1], self.regs[2], self.cycles
        )
    }
}

impl Default for CpuMsp430 {
    fn default() -> Self {
        Self::new()
    }
}

const PC: usize = 0;
const SP: usize = 1;
const SR: usize = 2;
const CG: usize = 3;

/// A resolved operand location.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Reg(usize),
    Mem(u16),
    Const(u16),
}

impl CpuMsp430 {
    /// A fresh machine.
    pub fn new() -> Self {
        CpuMsp430 {
            regs: [0; 16],
            mem: vec![0; 0x10000],
            cycles: 0,
            instructions: 0,
            halted: false,
        }
    }

    /// Loads a program image at `origin` and points the PC at it; the SP
    /// starts below the program at the top of RAM.
    pub fn load(&mut self, origin: u16, image: &[u8]) {
        self.mem[origin as usize..origin as usize + image.len()].copy_from_slice(image);
        self.regs[PC] = origin;
        self.regs[SP] = 0xFFFE;
    }

    /// Whether the CPU has halted (CPUOFF set or jump-to-self).
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a 16-bit little-endian word.
    pub fn read16(&self, addr: u16) -> u16 {
        let a = (addr & !1) as usize;
        u16::from_le_bytes([self.mem[a], self.mem[a + 1]])
    }

    /// Writes a 16-bit little-endian word.
    pub fn write16(&mut self, addr: u16, v: u16) {
        let a = (addr & !1) as usize;
        self.mem[a..a + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn fetch(&mut self) -> u16 {
        let w = self.read16(self.regs[PC]);
        self.regs[PC] = self.regs[PC].wrapping_add(2);
        w
    }

    fn flag(&self, bit: u16) -> bool {
        self.regs[SR] & bit != 0
    }

    fn set_flag(&mut self, bit: u16, on: bool) {
        if on {
            self.regs[SR] |= bit;
        } else {
            self.regs[SR] &= !bit;
        }
    }

    /// Resolves a source operand; returns (location, value, extra cycles).
    fn src_operand(&mut self, reg: usize, as_mode: u16, byte: bool) -> (Loc, u16, u64) {
        match (as_mode, reg) {
            // Constant generators.
            (0, CG) => (Loc::Const(0), 0, 0),
            (1, CG) => (Loc::Const(1), 1, 0),
            (2, CG) => (Loc::Const(2), 2, 0),
            (3, CG) => (Loc::Const(0xFFFF), 0xFFFF, 0),
            (2, SR) => (Loc::Const(4), 4, 0),
            (3, SR) => (Loc::Const(8), 8, 0),
            // Register direct.
            (0, r) => (Loc::Reg(r), self.regs[r], 0),
            // Indexed / symbolic / absolute.
            (1, r) => {
                let x = self.fetch();
                let base = if r == SR { 0 } else { self.regs[r] };
                let addr = base.wrapping_add(x);
                (Loc::Mem(addr), self.load_loc(Loc::Mem(addr), byte), 2)
            }
            // Indirect.
            (2, r) => {
                let addr = self.regs[r];
                (Loc::Mem(addr), self.load_loc(Loc::Mem(addr), byte), 1)
            }
            // Indirect autoincrement (PC: immediate).
            (3, r) => {
                let addr = self.regs[r];
                let step = if byte && r != PC { 1 } else { 2 };
                self.regs[r] = addr.wrapping_add(step);
                (Loc::Mem(addr), self.load_loc(Loc::Mem(addr), byte), 1)
            }
            _ => unreachable!("2-bit As"),
        }
    }

    /// Resolves a destination operand; returns (location, extra cycles).
    fn dst_operand(&mut self, reg: usize, ad: u16) -> (Loc, u64) {
        if ad == 0 {
            (Loc::Reg(reg), 0)
        } else {
            let x = self.fetch();
            let base = if reg == SR { 0 } else { self.regs[reg] };
            (Loc::Mem(base.wrapping_add(x)), 3)
        }
    }

    fn load_loc(&self, loc: Loc, byte: bool) -> u16 {
        match loc {
            Loc::Reg(r) => {
                if byte {
                    self.regs[r] & 0xFF
                } else {
                    self.regs[r]
                }
            }
            Loc::Mem(a) => {
                if byte {
                    self.mem[a as usize] as u16
                } else {
                    self.read16(a)
                }
            }
            Loc::Const(v) => {
                if byte {
                    v & 0xFF
                } else {
                    v
                }
            }
        }
    }

    fn store_loc(&mut self, loc: Loc, v: u16, byte: bool) {
        match loc {
            Loc::Reg(r) => {
                self.regs[r] = if byte { v & 0xFF } else { v };
            }
            Loc::Mem(a) => {
                if byte {
                    self.mem[a as usize] = v as u8;
                } else {
                    self.write16(a, v);
                }
            }
            Loc::Const(_) => {} // writes to constants are discarded
        }
    }

    fn set_nz(&mut self, result: u16, byte: bool) {
        let msb = if byte { 0x80 } else { 0x8000 };
        let masked = if byte { result & 0xFF } else { result };
        self.set_flag(SrBits::N, masked & msb != 0);
        self.set_flag(SrBits::Z, masked == 0);
    }

    /// Executes one instruction; returns the cycles it took.
    pub fn step(&mut self) -> u64 {
        if self.halted {
            return 0;
        }
        let pc_before = self.regs[PC];
        let word = self.fetch();
        self.instructions += 1;

        let cycles = if word >> 13 == 0b001 {
            self.exec_jump(word, pc_before)
        } else if word >> 10 == 0b000100 {
            self.exec_format2(word)
        } else {
            self.exec_format1(word)
        };
        self.cycles += cycles;
        if self.flag(SrBits::CPUOFF) {
            self.halted = true;
        }
        cycles
    }

    fn exec_jump(&mut self, word: u16, pc_before: u16) -> u64 {
        let cond = word >> 10 & 7;
        let offset = ((word & 0x3FF) << 6) as i16 >> 6; // sign-extend 10 bits
        let take = match cond {
            0 => !self.flag(SrBits::Z),                        // JNE
            1 => self.flag(SrBits::Z),                         // JEQ
            2 => !self.flag(SrBits::C),                        // JNC
            3 => self.flag(SrBits::C),                         // JC
            4 => self.flag(SrBits::N),                         // JN
            5 => self.flag(SrBits::N) == self.flag(SrBits::V), // JGE
            6 => self.flag(SrBits::N) != self.flag(SrBits::V), // JL
            _ => true,                                         // JMP
        };
        if take {
            let target = self.regs[PC].wrapping_add((offset as u16).wrapping_mul(2));
            if target == pc_before {
                self.halted = true; // jump-to-self
            }
            self.regs[PC] = target;
        }
        2
    }

    fn exec_format2(&mut self, word: u16) -> u64 {
        let op = word >> 7 & 7;
        let byte = word & 0x40 != 0;
        let as_mode = word >> 4 & 3;
        let reg = (word & 0xF) as usize;
        let (loc, value, extra) = self.src_operand(reg, as_mode, byte);
        let msb = if byte { 0x80u16 } else { 0x8000 };

        match op {
            0 => {
                // RRC: rotate right through carry.
                let cin = self.flag(SrBits::C);
                self.set_flag(SrBits::C, value & 1 != 0);
                let r = (value >> 1) | if cin { msb } else { 0 };
                self.set_nz(r, byte);
                self.set_flag(SrBits::V, false);
                self.store_loc(loc, r, byte);
                1 + extra * 2
            }
            1 => {
                // SWPB.
                let r = value.rotate_left(8);
                self.store_loc(loc, r, false);
                1 + extra * 2
            }
            2 => {
                // RRA: arithmetic shift right.
                self.set_flag(SrBits::C, value & 1 != 0);
                let r = (value >> 1) | (value & msb);
                self.set_nz(r, byte);
                self.set_flag(SrBits::V, false);
                self.store_loc(loc, r, byte);
                1 + extra * 2
            }
            3 => {
                // SXT: sign-extend byte to word.
                let r = (value as u8 as i8) as i16 as u16;
                self.set_nz(r, false);
                self.set_flag(SrBits::C, r != 0);
                self.set_flag(SrBits::V, false);
                self.store_loc(loc, r, false);
                1 + extra * 2
            }
            4 => {
                // PUSH.
                self.regs[SP] = self.regs[SP].wrapping_sub(2);
                let sp = self.regs[SP];
                self.write16(sp, value);
                3 + extra
            }
            5 => {
                // CALL.
                self.regs[SP] = self.regs[SP].wrapping_sub(2);
                let sp = self.regs[SP];
                let ret = self.regs[PC];
                self.write16(sp, ret);
                self.regs[PC] = value;
                4 + extra
            }
            6 => {
                // RETI (no interrupt model: pop SR then PC).
                let sp = self.regs[SP];
                self.regs[SR] = self.read16(sp);
                self.regs[SP] = sp.wrapping_add(2);
                let sp = self.regs[SP];
                self.regs[PC] = self.read16(sp);
                self.regs[SP] = sp.wrapping_add(2);
                5
            }
            _ => 1,
        }
    }

    fn exec_format1(&mut self, word: u16) -> u64 {
        let opcode = word >> 12;
        let src = (word >> 8 & 0xF) as usize;
        let ad = word >> 7 & 1;
        let byte = word & 0x40 != 0;
        let as_mode = word >> 4 & 3;
        let dst = (word & 0xF) as usize;

        let (_sloc, s, s_extra) = self.src_operand(src, as_mode, byte);
        let (dloc, d_extra) = self.dst_operand(dst, ad);
        let d = self.load_loc(dloc, byte);
        let mask = if byte { 0xFFu16 } else { 0xFFFF };
        let msb = if byte { 0x80u16 } else { 0x8000 };

        let mut write = true;
        let result: u16 = match opcode {
            0x4 => {
                // MOV: no flags.
                s
            }
            0x5 | 0x6 => {
                // ADD / ADDC.
                let cin = (opcode == 0x6 && self.flag(SrBits::C)) as u32;
                let sum = (d & mask) as u32 + (s & mask) as u32 + cin;
                let r = (sum & mask as u32) as u16;
                self.set_flag(SrBits::C, sum > mask as u32);
                self.set_flag(SrBits::V, (d & msb) == (s & msb) && (r & msb) != (d & msb));
                self.set_nz(r, byte);
                r
            }
            0x7..=0x9 => {
                // SUBC / SUB / CMP: dst - src (+ carry - 1 for SUBC).
                let sub_in = match opcode {
                    0x7 => self.flag(SrBits::C) as u32, // SUBC: d + ~s + C
                    _ => 1,
                };
                let sum = (d & mask) as u32 + ((!s) & mask) as u32 + sub_in;
                let r = (sum & mask as u32) as u16;
                self.set_flag(SrBits::C, sum > mask as u32);
                self.set_flag(SrBits::V, (d & msb) != (s & msb) && (r & msb) == (s & msb));
                self.set_nz(r, byte);
                if opcode == 0x9 {
                    write = false;
                }
                r
            }
            0xA => {
                // DADD: decimal add (simplified nibble-wise BCD).
                let mut carry = self.flag(SrBits::C) as u16;
                let mut r = 0u16;
                let nibbles = if byte { 2 } else { 4 };
                for i in 0..nibbles {
                    let sn = s >> (4 * i) & 0xF;
                    let dn = d >> (4 * i) & 0xF;
                    let mut sum = sn + dn + carry;
                    carry = if sum > 9 {
                        sum -= 10;
                        1
                    } else {
                        0
                    };
                    r |= sum << (4 * i);
                }
                self.set_flag(SrBits::C, carry != 0);
                self.set_nz(r, byte);
                r
            }
            0xB => {
                // BIT: flags of (src & dst), no write.
                let r = s & d & mask;
                self.set_nz(r, byte);
                self.set_flag(SrBits::C, r != 0);
                self.set_flag(SrBits::V, false);
                write = false;
                r
            }
            0xC => {
                // BIC: dst &= ~src, no flags.
                d & !s
            }
            0xD => {
                // BIS: dst |= src, no flags.
                d | s
            }
            0xE => {
                // XOR.
                let r = (d ^ s) & mask;
                self.set_nz(r, byte);
                self.set_flag(SrBits::C, r != 0);
                self.set_flag(SrBits::V, (d & msb != 0) && (s & msb != 0));
                r
            }
            0xF => {
                // AND.
                let r = s & d & mask;
                self.set_nz(r, byte);
                self.set_flag(SrBits::C, r != 0);
                self.set_flag(SrBits::V, false);
                r
            }
            _ => {
                // 0x0–0x3 are extension words / invalid: NOP.
                write = false;
                0
            }
        };

        if write {
            self.store_loc(dloc, result, byte);
        }
        1 + s_extra + d_extra
    }

    /// Runs until halted.
    ///
    /// # Errors
    ///
    /// [`FaultMsp430::CycleLimitExceeded`] if the budget runs out.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), FaultMsp430> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(FaultMsp430::CycleLimitExceeded { limit: max_cycles });
            }
            self.step();
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::asm430::Asm430;

    fn run_asm(build: impl FnOnce(&mut Asm430)) -> CpuMsp430 {
        let mut a = Asm430::new(0x4400);
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut cpu = CpuMsp430::new();
        cpu.load(0x4400, &image);
        cpu.run(1_000_000).unwrap();
        cpu
    }

    #[test]
    fn mov_add_halt() {
        let cpu = run_asm(|a| {
            a.mov_imm(17, 4).mov_imm(25, 5).add_reg(4, 5).halt();
        });
        assert_eq!(cpu.regs[5], 42);
        assert!(cpu.is_halted());
    }

    #[test]
    fn constant_generator_zero_and_one() {
        // MOV #0, R4 and ADD #1, R4 use CG encodings (no extra words).
        let cpu = run_asm(|a| {
            a.mov_imm(0, 4).add_imm(1, 4).add_imm(2, 4).add_imm(4, 4).add_imm(8, 4).halt();
        });
        assert_eq!(cpu.regs[4], 15);
    }

    #[test]
    fn memory_indexed_addressing() {
        let cpu = run_asm(|a| {
            a.mov_imm(0x8000, 4); // base
            a.mov_imm(7, 5);
            a.mov_reg_to_indexed(5, 4, 2); // mem[0x8002] = 7
            a.mov_indexed_to_reg(4, 2, 6); // R6 = mem[0x8002]
            a.halt();
        });
        assert_eq!(cpu.regs[6], 7);
        assert_eq!(cpu.read16(0x8002), 7);
    }

    #[test]
    fn sub_and_conditional_jump() {
        // R4 = 5; loop { R5++; R4-- } until Z.
        let cpu = run_asm(|a| {
            a.mov_imm(5, 4).mov_imm(0, 5);
            a.label("loop");
            a.add_imm(1, 5);
            a.sub_imm(1, 4);
            a.jnz("loop");
            a.halt();
        });
        assert_eq!(cpu.regs[5], 5);
        assert_eq!(cpu.regs[4], 0);
    }

    #[test]
    fn byte_operations_mask() {
        let cpu = run_asm(|a| {
            a.mov_imm(0x1FF, 4);
            a.add_imm_b(1, 4); // byte add: 0xFF + 1 = 0, carry
            a.halt();
        });
        assert_eq!(cpu.regs[4], 0, "byte write clears high byte");
        assert!(cpu.regs[SR] & SrBits::C != 0);
        assert!(cpu.regs[SR] & SrBits::Z != 0);
    }

    #[test]
    fn rrc_rotates_through_carry() {
        let cpu = run_asm(|a| {
            a.mov_imm(1, 4);
            a.rrc(4); // C=1, R4=0
            a.rrc(4); // R4=0x8000
            a.halt();
        });
        assert_eq!(cpu.regs[4], 0x8000);
    }

    #[test]
    fn call_and_ret() {
        let cpu = run_asm(|a| {
            a.call("sub").halt();
            a.label("sub").mov_imm(9, 7).ret();
        });
        assert_eq!(cpu.regs[7], 9);
    }

    #[test]
    fn swpb_and_sxt() {
        let cpu = run_asm(|a| {
            a.mov_imm(0x12FF, 4).swpb(4); // 0xFF12
            a.mov_imm(0x0080, 5).sxt(5); // 0xFF80
            a.halt();
        });
        assert_eq!(cpu.regs[4], 0xFF12);
        assert_eq!(cpu.regs[5], 0xFF80);
    }

    #[test]
    fn signed_compare_jge_jl() {
        let cpu = run_asm(|a| {
            a.mov_imm(0xFFFE, 4); // -2
            a.cmp_imm(1, 4); // -2 cmp 1 -> N != V -> JL taken
            a.jl("less");
            a.mov_imm(0, 7).halt();
            a.label("less").mov_imm(1, 7).halt();
        });
        assert_eq!(cpu.regs[7], 1);
    }

    #[test]
    fn cycle_counts_follow_addressing_modes() {
        // MOV R4,R5 = 1 cycle; MOV #imm,R5 = 2; MOV X(R4),R5 = 3.
        let c1 = run_asm(|a| {
            a.mov_reg(4, 5).halt();
        });
        let c2 = run_asm(|a| {
            a.mov_imm(1234, 5).halt();
        });
        let c3 = run_asm(|a| {
            a.mov_indexed_to_reg(4, 0x100, 5).halt();
        });
        let halt_cost = run_asm(|a| {
            a.halt();
        })
        .cycles;
        assert_eq!(c1.cycles - halt_cost, 1);
        assert_eq!(c2.cycles - halt_cost, 2);
        assert_eq!(c3.cycles - halt_cost, 3);
    }
}
