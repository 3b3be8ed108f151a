//! Intel 8080 instruction-set simulator.
//!
//! The paper's light8080 baseline is "a low gate count open-source version
//! of Intel 8080", and its Z80 baseline executes an enhanced superset of
//! the same ISA (their benchmark footprints in Table 5 are identical).
//! This module implements the full 8080 instruction set with documented
//! state (cycle) counts, so baseline benchmark programs can be executed
//! and costed exactly.
//!
//! Flags follow the 8080: Sign, Zero, Auxiliary carry, Parity, Carry.
//! `IN`/`OUT` are modeled as no-ops (no printed peripherals), and `HLT`
//! stops the machine.

use std::fmt;

/// 8-bit registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    A,
    B,
    C,
    D,
    E,
    H,
    L,
}

/// 16-bit register pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum RegPair {
    BC,
    DE,
    HL,
    SP,
}

/// Condition codes for conditional jumps/calls/returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    NZ,
    Z,
    NC,
    C,
    PO,
    PE,
    P,
    M,
}

/// 8080 condition flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags8080 {
    /// Sign (bit 7 of result).
    pub s: bool,
    /// Zero.
    pub z: bool,
    /// Auxiliary carry (out of bit 3).
    pub ac: bool,
    /// Parity (even parity of result).
    pub p: bool,
    /// Carry.
    pub cy: bool,
}

impl Flags8080 {
    fn to_byte(self) -> u8 {
        (self.s as u8) << 7
            | (self.z as u8) << 6
            | (self.ac as u8) << 4
            | (self.p as u8) << 2
            | 0b10
            | self.cy as u8
    }

    fn from_byte(b: u8) -> Self {
        Flags8080 {
            s: b & 0x80 != 0,
            z: b & 0x40 != 0,
            ac: b & 0x10 != 0,
            p: b & 0x04 != 0,
            cy: b & 0x01 != 0,
        }
    }
}

/// Execution fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault8080 {
    /// The cycle budget ran out before `HLT`.
    CycleLimitExceeded {
        /// The budget.
        limit: u64,
    },
}

impl fmt::Display for Fault8080 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault8080::CycleLimitExceeded { limit } => {
                write!(f, "8080 program did not halt within {limit} cycles")
            }
        }
    }
}

impl std::error::Error for Fault8080 {}

/// An Intel 8080 machine with 64 KiB of memory.
#[derive(Clone)]
pub struct Cpu8080 {
    /// A, B, C, D, E, H, L.
    regs: [u8; 7],
    /// Flags.
    pub flags: Flags8080,
    /// Stack pointer.
    pub sp: u16,
    /// Program counter.
    pub pc: u16,
    /// Main memory.
    pub mem: Vec<u8>,
    /// Machine states (cycles) consumed.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    halted: bool,
}

impl fmt::Debug for Cpu8080 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cpu8080 {{ pc: {:#06x}, sp: {:#06x}, a: {:#04x}, cycles: {} }}",
            self.pc,
            self.sp,
            self.reg(Reg::A),
            self.cycles
        )
    }
}

impl Default for Cpu8080 {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu8080 {
    /// A fresh machine: zeroed registers, 64 KiB of zeroed memory.
    pub fn new() -> Self {
        Cpu8080 {
            regs: [0; 7],
            flags: Flags8080::default(),
            sp: 0xF000,
            pc: 0,
            mem: vec![0; 0x10000],
            cycles: 0,
            instructions: 0,
            halted: false,
        }
    }

    /// Loads a program image at `origin` and points the PC at it.
    pub fn load(&mut self, origin: u16, image: &[u8]) {
        self.mem[origin as usize..origin as usize + image.len()].copy_from_slice(image);
        self.pc = origin;
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> u8 {
        self.regs[r as usize]
    }

    /// Writes a register.
    pub fn set_reg(&mut self, r: Reg, v: u8) {
        self.regs[r as usize] = v;
    }

    /// Reads a register pair.
    pub fn pair(&self, rp: RegPair) -> u16 {
        match rp {
            RegPair::BC => u16::from_be_bytes([self.reg(Reg::B), self.reg(Reg::C)]),
            RegPair::DE => u16::from_be_bytes([self.reg(Reg::D), self.reg(Reg::E)]),
            RegPair::HL => u16::from_be_bytes([self.reg(Reg::H), self.reg(Reg::L)]),
            RegPair::SP => self.sp,
        }
    }

    /// Writes a register pair.
    pub fn set_pair(&mut self, rp: RegPair, v: u16) {
        let [hi, lo] = v.to_be_bytes();
        match rp {
            RegPair::BC => {
                self.set_reg(Reg::B, hi);
                self.set_reg(Reg::C, lo);
            }
            RegPair::DE => {
                self.set_reg(Reg::D, hi);
                self.set_reg(Reg::E, lo);
            }
            RegPair::HL => {
                self.set_reg(Reg::H, hi);
                self.set_reg(Reg::L, lo);
            }
            RegPair::SP => self.sp = v,
        }
    }

    /// Whether `HLT` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    fn fetch8(&mut self) -> u8 {
        let b = self.mem[self.pc as usize];
        self.pc = self.pc.wrapping_add(1);
        b
    }

    fn fetch16(&mut self) -> u16 {
        let lo = self.fetch8() as u16;
        let hi = self.fetch8() as u16;
        hi << 8 | lo
    }

    fn read_m(&self) -> u8 {
        self.mem[self.pair(RegPair::HL) as usize]
    }

    fn write_m(&mut self, v: u8) {
        let hl = self.pair(RegPair::HL) as usize;
        self.mem[hl] = v;
    }

    /// Source/destination codes 0..7 map B,C,D,E,H,L,M,A.
    fn read_code(&self, code: u8) -> u8 {
        match code {
            0 => self.reg(Reg::B),
            1 => self.reg(Reg::C),
            2 => self.reg(Reg::D),
            3 => self.reg(Reg::E),
            4 => self.reg(Reg::H),
            5 => self.reg(Reg::L),
            6 => self.read_m(),
            7 => self.reg(Reg::A),
            _ => unreachable!("3-bit register code"),
        }
    }

    fn write_code(&mut self, code: u8, v: u8) {
        match code {
            0 => self.set_reg(Reg::B, v),
            1 => self.set_reg(Reg::C, v),
            2 => self.set_reg(Reg::D, v),
            3 => self.set_reg(Reg::E, v),
            4 => self.set_reg(Reg::H, v),
            5 => self.set_reg(Reg::L, v),
            6 => self.write_m(v),
            7 => self.set_reg(Reg::A, v),
            _ => unreachable!("3-bit register code"),
        }
    }

    fn set_szp(&mut self, v: u8) {
        self.flags.s = v & 0x80 != 0;
        self.flags.z = v == 0;
        self.flags.p = v.count_ones().is_multiple_of(2);
    }

    fn add(&mut self, b: u8, carry: bool) {
        let a = self.reg(Reg::A);
        let c = carry as u16;
        let sum = a as u16 + b as u16 + c;
        self.flags.cy = sum > 0xFF;
        self.flags.ac = (a & 0xF) + (b & 0xF) + c as u8 > 0xF;
        let r = sum as u8;
        self.set_szp(r);
        self.set_reg(Reg::A, r);
    }

    fn sub(&mut self, b: u8, borrow: bool, writeback: bool) {
        let a = self.reg(Reg::A);
        let c = borrow as u16;
        let diff = (a as u16).wrapping_sub(b as u16).wrapping_sub(c);
        self.flags.cy = (b as u16 + c) > a as u16;
        self.flags.ac = (a & 0xF) as u16 >= (b & 0xF) as u16 + c;
        let r = diff as u8;
        self.set_szp(r);
        if writeback {
            self.set_reg(Reg::A, r);
        }
    }

    fn logic(&mut self, r: u8, ac: bool) {
        self.flags.cy = false;
        self.flags.ac = ac;
        self.set_szp(r);
        self.set_reg(Reg::A, r);
    }

    fn cond(&self, c: Cond) -> bool {
        match c {
            Cond::NZ => !self.flags.z,
            Cond::Z => self.flags.z,
            Cond::NC => !self.flags.cy,
            Cond::C => self.flags.cy,
            Cond::PO => !self.flags.p,
            Cond::PE => self.flags.p,
            Cond::P => !self.flags.s,
            Cond::M => self.flags.s,
        }
    }

    fn push16(&mut self, v: u16) {
        let [hi, lo] = v.to_be_bytes();
        self.sp = self.sp.wrapping_sub(1);
        self.mem[self.sp as usize] = hi;
        self.sp = self.sp.wrapping_sub(1);
        self.mem[self.sp as usize] = lo;
    }

    fn pop16(&mut self) -> u16 {
        let lo = self.mem[self.sp as usize] as u16;
        self.sp = self.sp.wrapping_add(1);
        let hi = self.mem[self.sp as usize] as u16;
        self.sp = self.sp.wrapping_add(1);
        hi << 8 | lo
    }

    /// Executes one instruction; returns the machine states it took.
    pub fn step(&mut self) -> u64 {
        if self.halted {
            return 0;
        }
        let opcode = self.fetch8();
        self.instructions += 1;
        let cycles = self.execute(opcode);
        self.cycles += cycles;
        cycles
    }

    /// Runs until `HLT` or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`Fault8080::CycleLimitExceeded`] if the program does not halt.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), Fault8080> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(Fault8080::CycleLimitExceeded { limit: max_cycles });
            }
            self.step();
        }
        Ok(())
    }

    fn execute(&mut self, op: u8) -> u64 {
        match op {
            // MOV r,r / MOV involving M / HLT.
            0x76 => {
                self.halted = true;
                7
            }
            0x40..=0x7F => {
                let dst = (op >> 3) & 7;
                let src = op & 7;
                let v = self.read_code(src);
                self.write_code(dst, v);
                if dst == 6 || src == 6 {
                    7
                } else {
                    5
                }
            }
            // Arithmetic group 0x80-0xBF.
            0x80..=0xBF => {
                let src = op & 7;
                let v = self.read_code(src);
                match (op >> 3) & 7 {
                    0 => self.add(v, false),
                    1 => {
                        let cy = self.flags.cy;
                        self.add(v, cy);
                    }
                    2 => self.sub(v, false, true),
                    3 => {
                        let cy = self.flags.cy;
                        self.sub(v, cy, true);
                    }
                    4 => {
                        let r = self.reg(Reg::A) & v;
                        let ac = ((self.reg(Reg::A) | v) & 0x08) != 0;
                        self.logic(r, ac);
                    }
                    5 => {
                        let r = self.reg(Reg::A) ^ v;
                        self.logic(r, false);
                    }
                    6 => {
                        let r = self.reg(Reg::A) | v;
                        self.logic(r, false);
                    }
                    7 => self.sub(v, false, false), // CMP
                    _ => unreachable!(),
                }
                if src == 6 {
                    7
                } else {
                    4
                }
            }
            // NOP (and undocumented aliases).
            0x00 | 0x08 | 0x10 | 0x18 | 0x20 | 0x28 | 0x30 | 0x38 => 4,
            // LXI rp, d16.
            0x01 | 0x11 | 0x21 | 0x31 => {
                let v = self.fetch16();
                self.set_pair(pair_code(op >> 4 & 3), v);
                10
            }
            // STAX / LDAX.
            0x02 => {
                let addr = self.pair(RegPair::BC) as usize;
                self.mem[addr] = self.reg(Reg::A);
                7
            }
            0x12 => {
                let addr = self.pair(RegPair::DE) as usize;
                self.mem[addr] = self.reg(Reg::A);
                7
            }
            0x0A => {
                let v = self.mem[self.pair(RegPair::BC) as usize];
                self.set_reg(Reg::A, v);
                7
            }
            0x1A => {
                let v = self.mem[self.pair(RegPair::DE) as usize];
                self.set_reg(Reg::A, v);
                7
            }
            // SHLD / LHLD / STA / LDA.
            0x22 => {
                let addr = self.fetch16() as usize;
                self.mem[addr] = self.reg(Reg::L);
                self.mem[addr + 1] = self.reg(Reg::H);
                16
            }
            0x2A => {
                let addr = self.fetch16() as usize;
                let l = self.mem[addr];
                let h = self.mem[addr + 1];
                self.set_reg(Reg::L, l);
                self.set_reg(Reg::H, h);
                16
            }
            0x32 => {
                let addr = self.fetch16() as usize;
                self.mem[addr] = self.reg(Reg::A);
                13
            }
            0x3A => {
                let addr = self.fetch16() as usize;
                let v = self.mem[addr];
                self.set_reg(Reg::A, v);
                13
            }
            // INX / DCX.
            0x03 | 0x13 | 0x23 | 0x33 => {
                let rp = pair_code(op >> 4 & 3);
                self.set_pair(rp, self.pair(rp).wrapping_add(1));
                5
            }
            0x0B | 0x1B | 0x2B | 0x3B => {
                let rp = pair_code(op >> 4 & 3);
                self.set_pair(rp, self.pair(rp).wrapping_sub(1));
                5
            }
            // INR / DCR.
            0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x34 | 0x3C => {
                let code = op >> 3 & 7;
                let v = self.read_code(code).wrapping_add(1);
                self.flags.ac = v & 0xF == 0;
                self.set_szp(v);
                self.write_code(code, v);
                if code == 6 {
                    10
                } else {
                    5
                }
            }
            0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x35 | 0x3D => {
                let code = op >> 3 & 7;
                let v = self.read_code(code).wrapping_sub(1);
                self.flags.ac = v & 0xF != 0xF;
                self.set_szp(v);
                self.write_code(code, v);
                if code == 6 {
                    10
                } else {
                    5
                }
            }
            // MVI.
            0x06 | 0x0E | 0x16 | 0x1E | 0x26 | 0x2E | 0x36 | 0x3E => {
                let code = op >> 3 & 7;
                let v = self.fetch8();
                self.write_code(code, v);
                if code == 6 {
                    10
                } else {
                    7
                }
            }
            // Rotates.
            0x07 => {
                // RLC
                let a = self.reg(Reg::A);
                self.flags.cy = a & 0x80 != 0;
                self.set_reg(Reg::A, a.rotate_left(1));
                4
            }
            0x0F => {
                // RRC
                let a = self.reg(Reg::A);
                self.flags.cy = a & 1 != 0;
                self.set_reg(Reg::A, a.rotate_right(1));
                4
            }
            0x17 => {
                // RAL
                let a = self.reg(Reg::A);
                let cy = self.flags.cy as u8;
                self.flags.cy = a & 0x80 != 0;
                self.set_reg(Reg::A, a << 1 | cy);
                4
            }
            0x1F => {
                // RAR
                let a = self.reg(Reg::A);
                let cy = self.flags.cy as u8;
                self.flags.cy = a & 1 != 0;
                self.set_reg(Reg::A, a >> 1 | cy << 7);
                4
            }
            // DAA.
            0x27 => {
                let mut a = self.reg(Reg::A);
                let mut adjust = 0u8;
                let mut cy = self.flags.cy;
                if self.flags.ac || a & 0xF > 9 {
                    adjust |= 0x06;
                }
                if self.flags.cy || a >> 4 > 9 || (a >> 4 == 9 && a & 0xF > 9) {
                    adjust |= 0x60;
                    cy = true;
                }
                self.flags.ac = (a & 0xF) + (adjust & 0xF) > 0xF;
                a = a.wrapping_add(adjust);
                self.set_szp(a);
                self.flags.cy = cy;
                self.set_reg(Reg::A, a);
                4
            }
            // CMA / STC / CMC.
            0x2F => {
                let a = self.reg(Reg::A);
                self.set_reg(Reg::A, !a);
                4
            }
            0x37 => {
                self.flags.cy = true;
                4
            }
            0x3F => {
                self.flags.cy = !self.flags.cy;
                4
            }
            // DAD rp.
            0x09 | 0x19 | 0x29 | 0x39 => {
                let hl = self.pair(RegPair::HL) as u32;
                let v = self.pair(pair_code(op >> 4 & 3)) as u32;
                let sum = hl + v;
                self.flags.cy = sum > 0xFFFF;
                self.set_pair(RegPair::HL, sum as u16);
                10
            }
            // Immediate arithmetic.
            0xC6 => {
                let v = self.fetch8();
                self.add(v, false);
                7
            }
            0xCE => {
                let v = self.fetch8();
                let cy = self.flags.cy;
                self.add(v, cy);
                7
            }
            0xD6 => {
                let v = self.fetch8();
                self.sub(v, false, true);
                7
            }
            0xDE => {
                let v = self.fetch8();
                let cy = self.flags.cy;
                self.sub(v, cy, true);
                7
            }
            0xE6 => {
                let v = self.fetch8();
                let a = self.reg(Reg::A);
                let ac = ((a | v) & 0x08) != 0;
                self.logic(a & v, ac);
                7
            }
            0xEE => {
                let v = self.fetch8();
                let a = self.reg(Reg::A);
                self.logic(a ^ v, false);
                7
            }
            0xF6 => {
                let v = self.fetch8();
                let a = self.reg(Reg::A);
                self.logic(a | v, false);
                7
            }
            0xFE => {
                let v = self.fetch8();
                self.sub(v, false, false);
                7
            }
            // Jumps.
            0xC3 | 0xCB => {
                self.pc = self.fetch16();
                10
            }
            0xC2 | 0xCA | 0xD2 | 0xDA | 0xE2 | 0xEA | 0xF2 | 0xFA => {
                let target = self.fetch16();
                if self.cond(cond_code(op >> 3 & 7)) {
                    self.pc = target;
                }
                10
            }
            // CALL / conditional calls.
            0xCD | 0xDD | 0xED | 0xFD => {
                let target = self.fetch16();
                self.push16(self.pc);
                self.pc = target;
                17
            }
            0xC4 | 0xCC | 0xD4 | 0xDC | 0xE4 | 0xEC | 0xF4 | 0xFC => {
                let target = self.fetch16();
                if self.cond(cond_code(op >> 3 & 7)) {
                    self.push16(self.pc);
                    self.pc = target;
                    17
                } else {
                    11
                }
            }
            // RET / conditional returns.
            0xC9 | 0xD9 => {
                self.pc = self.pop16();
                10
            }
            0xC0 | 0xC8 | 0xD0 | 0xD8 | 0xE0 | 0xE8 | 0xF0 | 0xF8 => {
                if self.cond(cond_code(op >> 3 & 7)) {
                    self.pc = self.pop16();
                    11
                } else {
                    5
                }
            }
            // PUSH / POP.
            0xC5 | 0xD5 | 0xE5 => {
                let rp = pair_code(op >> 4 & 3);
                self.push16(self.pair(rp));
                11
            }
            0xF5 => {
                let psw = u16::from_be_bytes([self.reg(Reg::A), self.flags.to_byte()]);
                self.push16(psw);
                11
            }
            0xC1 | 0xD1 | 0xE1 => {
                let rp = pair_code(op >> 4 & 3);
                let v = self.pop16();
                self.set_pair(rp, v);
                10
            }
            0xF1 => {
                let v = self.pop16();
                self.set_reg(Reg::A, (v >> 8) as u8);
                self.flags = Flags8080::from_byte(v as u8);
                10
            }
            // RST n.
            0xC7 | 0xCF | 0xD7 | 0xDF | 0xE7 | 0xEF | 0xF7 | 0xFF => {
                self.push16(self.pc);
                self.pc = (op & 0x38) as u16;
                11
            }
            // Exchange / pointer moves.
            0xEB => {
                let de = self.pair(RegPair::DE);
                let hl = self.pair(RegPair::HL);
                self.set_pair(RegPair::DE, hl);
                self.set_pair(RegPair::HL, de);
                5
            }
            0xE3 => {
                let hl = self.pair(RegPair::HL);
                let top = self.pop16();
                self.push16(hl);
                self.set_pair(RegPair::HL, top);
                18
            }
            0xF9 => {
                self.sp = self.pair(RegPair::HL);
                5
            }
            0xE9 => {
                self.pc = self.pair(RegPair::HL);
                5
            }
            // Interrupts and I/O: modeled as no-ops.
            0xFB | 0xF3 => 4,
            0xDB => {
                let _port = self.fetch8();
                self.set_reg(Reg::A, 0);
                10
            }
            0xD3 => {
                let _port = self.fetch8();
                10
            }
        }
    }
}

fn pair_code(code: u8) -> RegPair {
    match code {
        0 => RegPair::BC,
        1 => RegPair::DE,
        2 => RegPair::HL,
        3 => RegPair::SP,
        _ => unreachable!("2-bit pair code"),
    }
}

fn cond_code(code: u8) -> Cond {
    match code {
        0 => Cond::NZ,
        1 => Cond::Z,
        2 => Cond::NC,
        3 => Cond::C,
        4 => Cond::PO,
        5 => Cond::PE,
        6 => Cond::P,
        7 => Cond::M,
        _ => unreachable!("3-bit condition code"),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn run_image(image: &[u8]) -> Cpu8080 {
        let mut cpu = Cpu8080::new();
        cpu.load(0x100, image);
        cpu.run(1_000_000).unwrap();
        cpu
    }

    #[test]
    fn mvi_add_hlt() {
        // MVI A,17; MVI B,25; ADD B; HLT
        let cpu = run_image(&[0x3E, 17, 0x06, 25, 0x80, 0x76]);
        assert_eq!(cpu.reg(Reg::A), 42);
        assert!(cpu.is_halted());
        // 7 + 7 + 4 + 7 states.
        assert_eq!(cpu.cycles, 25);
    }

    #[test]
    fn flags_after_add_and_sub() {
        // MVI A,200; ADI 100 -> 44 carry; SUI 45 -> 255 borrow; HLT
        let cpu = run_image(&[0x3E, 200, 0xC6, 100, 0xD6, 45, 0x76]);
        assert_eq!(cpu.reg(Reg::A), 255);
        assert!(cpu.flags.cy, "subtraction borrowed");
        assert!(cpu.flags.s);
    }

    #[test]
    fn memory_via_hl() {
        // LXI H,0x0200; MVI M,7; INR M; MOV A,M; HLT
        let cpu = run_image(&[0x21, 0x00, 0x02, 0x36, 7, 0x34, 0x7E, 0x76]);
        assert_eq!(cpu.reg(Reg::A), 8);
        assert_eq!(cpu.mem[0x200], 8);
    }

    #[test]
    fn loops_with_conditional_jump() {
        // MVI B,5; MVI A,0; loop: ADD B; DCR B; JNZ loop; HLT
        // Sum = 5+4+3+2+1 = 15.
        let cpu = run_image(&[0x06, 5, 0x3E, 0, 0x80, 0x05, 0xC2, 0x04, 0x01, 0x76]);
        assert_eq!(cpu.reg(Reg::A), 15);
    }

    #[test]
    fn call_and_return() {
        // CALL sub; HLT; sub: MVI A,9; RET
        let cpu = run_image(&[0xCD, 0x05, 0x01, 0x76, 0x00, 0x3E, 9, 0xC9]);
        assert_eq!(cpu.reg(Reg::A), 9);
        assert!(cpu.is_halted());
    }

    #[test]
    fn stack_push_pop() {
        // LXI B,0xBEEF; PUSH B; POP D; HLT
        let cpu = run_image(&[0x01, 0xEF, 0xBE, 0xC5, 0xD1, 0x76]);
        assert_eq!(cpu.pair(RegPair::DE), 0xBEEF);
    }

    #[test]
    fn rotates_through_carry() {
        // MVI A,0x81; RAL; HLT — carry out of MSB, bit0 from old CY (0).
        let cpu = run_image(&[0x3E, 0x81, 0x17, 0x76]);
        assert_eq!(cpu.reg(Reg::A), 0x02);
        assert!(cpu.flags.cy);
    }

    #[test]
    fn dad_adds_pairs() {
        // LXI H,0x1234; LXI D,0x1111; DAD D; HLT
        let cpu = run_image(&[0x21, 0x34, 0x12, 0x11, 0x11, 0x11, 0x19, 0x76]);
        assert_eq!(cpu.pair(RegPair::HL), 0x2345);
        assert!(!cpu.flags.cy);
    }

    #[test]
    fn xchg_swaps() {
        let cpu = run_image(&[0x21, 0x01, 0x00, 0x11, 0x02, 0x00, 0xEB, 0x76]);
        assert_eq!(cpu.pair(RegPair::HL), 0x0002);
        assert_eq!(cpu.pair(RegPair::DE), 0x0001);
    }

    #[test]
    fn runaway_detected() {
        // JMP self.
        let mut cpu = Cpu8080::new();
        cpu.load(0x100, &[0xC3, 0x00, 0x01]);
        assert!(matches!(cpu.run(1000), Err(Fault8080::CycleLimitExceeded { .. })));
    }

    #[test]
    fn parity_flag_is_even_parity() {
        // MVI A,3; ORA A (sets flags); HLT — 0b11 has even parity.
        let cpu = run_image(&[0x3E, 3, 0xB7, 0x76]);
        assert!(cpu.flags.p);
        // MVI A,7 -> odd parity.
        let cpu = run_image(&[0x3E, 7, 0xB7, 0x76]);
        assert!(!cpu.flags.p);
    }
}
