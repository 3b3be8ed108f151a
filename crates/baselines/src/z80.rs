//! Zilog Z80 instruction-set simulator.
//!
//! The Z80 executes the 8080 instruction set (with slightly different
//! T-state counts) plus extensions; this model layers the Z80-specific
//! relative jumps, `DJNZ`, and the CB-prefixed rotate/shift/bit group on
//! top of the [`crate::i8080::Cpu8080`] core, and corrects the T-state
//! table where Z80 timing differs from the 8080. The paper's benchmark
//! images are shared between light8080 and Z80 (Table 5 shows identical
//! footprints); the Z80's advantage is its lower CPI range (Table 4:
//! 3–23 vs 5–30).

use crate::i8080::{Cpu8080, Fault8080, Reg};

/// A Z80 machine (8080 core + Z80 timing and extensions).
#[derive(Debug, Clone, Default)]
pub struct CpuZ80 {
    /// The underlying 8080-compatible machine state.
    pub core: Cpu8080,
}

impl CpuZ80 {
    /// A fresh machine.
    pub fn new() -> Self {
        CpuZ80 { core: Cpu8080::new() }
    }

    /// Loads a program image and points the PC at it.
    pub fn load(&mut self, origin: u16, image: &[u8]) {
        self.core.load(origin, image);
    }

    /// Whether the machine has halted.
    pub fn is_halted(&self) -> bool {
        self.core.is_halted()
    }

    /// Total T-states consumed.
    pub fn cycles(&self) -> u64 {
        self.core.cycles
    }

    /// Instructions retired.
    pub fn instructions(&self) -> u64 {
        self.core.instructions
    }

    /// Executes one instruction; returns T-states.
    pub fn step(&mut self) -> u64 {
        if self.core.is_halted() {
            return 0;
        }
        let op = self.core.mem[self.core.pc as usize];
        match op {
            // DJNZ d: decrement B, jump relative if nonzero.
            0x10 => {
                self.core.pc = self.core.pc.wrapping_add(1);
                let d = self.core.mem[self.core.pc as usize] as i8;
                self.core.pc = self.core.pc.wrapping_add(1);
                let b = self.core.reg(Reg::B).wrapping_sub(1);
                self.core.set_reg(Reg::B, b);
                self.core.instructions += 1;
                let t = if b != 0 {
                    self.core.pc = self.core.pc.wrapping_add(d as u16);
                    13
                } else {
                    8
                };
                self.core.cycles += t;
                t
            }
            // JR d and JR cc,d.
            0x18 | 0x20 | 0x28 | 0x30 | 0x38 => {
                self.core.pc = self.core.pc.wrapping_add(1);
                let d = self.core.mem[self.core.pc as usize] as i8;
                self.core.pc = self.core.pc.wrapping_add(1);
                let take = match op {
                    0x18 => true,
                    0x20 => !self.core.flags.z,
                    0x28 => self.core.flags.z,
                    0x30 => !self.core.flags.cy,
                    0x38 => self.core.flags.cy,
                    _ => unreachable!(),
                };
                self.core.instructions += 1;
                let t = if take {
                    self.core.pc = self.core.pc.wrapping_add(d as u16);
                    12
                } else {
                    7
                };
                self.core.cycles += t;
                t
            }
            // CB prefix: rotates/shifts on registers.
            0xCB => {
                self.core.pc = self.core.pc.wrapping_add(1);
                let sub = self.core.mem[self.core.pc as usize];
                self.core.pc = self.core.pc.wrapping_add(1);
                self.core.instructions += 1;
                let t = self.execute_cb(sub);
                self.core.cycles += t;
                t
            }
            // Everything else: 8080 semantics with Z80 timing deltas.
            _ => {
                let before = self.core.cycles;
                self.core.step();
                let spent = self.core.cycles - before;
                let corrected = z80_tstates(op, spent);
                self.core.cycles = before + corrected;
                corrected
            }
        }
    }

    fn execute_cb(&mut self, sub: u8) -> u64 {
        let code = sub & 7;
        let is_mem = code == 6;
        let value = self.read_code(code);
        let group = sub >> 6;
        let n = sub >> 3 & 7;
        match group {
            0 => {
                // Rotate/shift group.
                let cy = self.core.flags.cy as u8;
                let (result, carry) = match n {
                    0 => (value.rotate_left(1), value & 0x80 != 0), // RLC
                    1 => (value.rotate_right(1), value & 1 != 0),   // RRC
                    2 => (value << 1 | cy, value & 0x80 != 0),      // RL
                    3 => (value >> 1 | cy << 7, value & 1 != 0),    // RR
                    4 => (value << 1, value & 0x80 != 0),           // SLA
                    5 => ((value >> 1) | (value & 0x80), value & 1 != 0), // SRA
                    6 => (value << 1 | 1, value & 0x80 != 0),       // SLL (undoc)
                    7 => (value >> 1, value & 1 != 0),              // SRL
                    _ => unreachable!(),
                };
                self.core.flags.cy = carry;
                self.core.flags.z = result == 0;
                self.core.flags.s = result & 0x80 != 0;
                self.core.flags.p = result.count_ones() % 2 == 0;
                self.write_code(code, result);
                if is_mem {
                    15
                } else {
                    8
                }
            }
            1 => {
                // BIT n, r.
                self.core.flags.z = value & (1 << n) == 0;
                if is_mem {
                    12
                } else {
                    8
                }
            }
            2 => {
                // RES n, r.
                self.write_code(code, value & !(1 << n));
                if is_mem {
                    15
                } else {
                    8
                }
            }
            _ => {
                // SET n, r.
                self.write_code(code, value | 1 << n);
                if is_mem {
                    15
                } else {
                    8
                }
            }
        }
    }

    fn read_code(&self, code: u8) -> u8 {
        match code {
            0 => self.core.reg(Reg::B),
            1 => self.core.reg(Reg::C),
            2 => self.core.reg(Reg::D),
            3 => self.core.reg(Reg::E),
            4 => self.core.reg(Reg::H),
            5 => self.core.reg(Reg::L),
            6 => self.core.mem[self.core.pair(crate::i8080::RegPair::HL) as usize],
            7 => self.core.reg(Reg::A),
            _ => unreachable!(),
        }
    }

    fn write_code(&mut self, code: u8, v: u8) {
        match code {
            0 => self.core.set_reg(Reg::B, v),
            1 => self.core.set_reg(Reg::C, v),
            2 => self.core.set_reg(Reg::D, v),
            3 => self.core.set_reg(Reg::E, v),
            4 => self.core.set_reg(Reg::H, v),
            5 => self.core.set_reg(Reg::L, v),
            6 => {
                let hl = self.core.pair(crate::i8080::RegPair::HL) as usize;
                self.core.mem[hl] = v;
            }
            7 => self.core.set_reg(Reg::A, v),
            _ => unreachable!(),
        }
    }

    /// Runs until `HLT` or the budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`Fault8080::CycleLimitExceeded`].
    pub fn run(&mut self, max_cycles: u64) -> Result<(), Fault8080> {
        while !self.core.is_halted() {
            if self.core.cycles >= max_cycles {
                return Err(Fault8080::CycleLimitExceeded { limit: max_cycles });
            }
            self.step();
        }
        Ok(())
    }
}

/// Z80 T-states for 8080-compatible opcodes, where they differ from the
/// 8080 state counts (e.g. register moves are 4 T-states, not 5).
pub(crate) fn z80_tstates(op: u8, i8080_states: u64) -> u64 {
    match op {
        // MOV r,r (not involving memory): 5 → 4.
        0x40..=0x7F if op != 0x76 && op & 7 != 6 && op >> 3 & 7 != 6 => 4,
        // INR/DCR r: 5 → 4.
        0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x3C => 4,
        0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x3D => 4,
        // INX/DCX: 5 → 6.
        0x03 | 0x13 | 0x23 | 0x33 | 0x0B | 0x1B | 0x2B | 0x3B => 6,
        // DAD: 10 → 11.
        0x09 | 0x19 | 0x29 | 0x39 => 11,
        // XCHG: 5 → 4; SPHL: 5 → 6; PCHL (JP (HL)): 5 → 4; HLT: 7 → 4.
        0xEB => 4,
        0xF9 => 6,
        0xE9 => 4,
        0x76 => 4,
        // XTHL: 18 → 19; conditional RET not taken 5 in both.
        0xE3 => 19,
        _ => i8080_states,
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn djnz_loops() {
        // LD B,5; LD A,0; loop: ADD A,B; DJNZ loop; HALT
        let image = [0x06, 5, 0x3E, 0, 0x80, 0x10, 0xFD, 0x76];
        let mut cpu = CpuZ80::new();
        cpu.load(0x100, &image);
        cpu.run(10_000).unwrap();
        assert_eq!(cpu.core.reg(Reg::A), 15);
        assert!(cpu.is_halted());
    }

    #[test]
    fn jr_conditional() {
        // LD A,1; OR A; JR NZ,+1 (skip HALT#1? careful) — simpler:
        // LD A,0; OR A; JR Z, skip; LD A,9; skip: HALT
        let image = [0x3E, 0, 0xB7, 0x28, 0x02, 0x3E, 9, 0x76];
        let mut cpu = CpuZ80::new();
        cpu.load(0x100, &image);
        cpu.run(10_000).unwrap();
        assert_eq!(cpu.core.reg(Reg::A), 0, "LD A,9 was skipped");
    }

    #[test]
    fn cb_srl_shifts() {
        // LD A,0x81; SRL A; HALT
        let image = [0x3E, 0x81, 0xCB, 0x3F, 0x76];
        let mut cpu = CpuZ80::new();
        cpu.load(0x100, &image);
        cpu.run(10_000).unwrap();
        assert_eq!(cpu.core.reg(Reg::A), 0x40);
        assert!(cpu.core.flags.cy);
    }

    #[test]
    fn cb_bit_set_res() {
        // LD A,0; SET 3,A; BIT 3,A; RES 3,A; HALT
        let image = [0x3E, 0, 0xCB, 0xDF, 0xCB, 0x5F, 0xCB, 0x9F, 0x76];
        let mut cpu = CpuZ80::new();
        cpu.load(0x100, &image);
        cpu.run(10_000).unwrap();
        assert_eq!(cpu.core.reg(Reg::A), 0);
    }

    #[test]
    fn shared_8080_code_runs_faster_per_instruction() {
        // The same register-move-heavy image costs fewer T-states on Z80.
        let image = [
            0x3E, 1, // MVI A,1
            0x47, 0x48, 0x51, 0x5A, // MOV B,A; MOV C,B; MOV D,C; MOV E,D
            0x76, // HLT
        ];
        let mut z80 = CpuZ80::new();
        z80.load(0x100, &image);
        z80.run(1000).unwrap();
        let mut i8080 = Cpu8080::new();
        i8080.load(0x100, &image);
        i8080.run(1000).unwrap();
        assert_eq!(z80.core.reg(Reg::E), 1);
        assert!(z80.cycles() < i8080.cycles);
    }
}
