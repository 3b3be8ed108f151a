//! Zylin ZPU instruction-set simulator and assembler.
//!
//! The ZPU is the paper's stack-ISA baseline: a 32-bit, big-endian,
//! zero-operand stack machine whose tiny core comes at the cost of
//! verbose programs (every operand is pushed through `IM` immediates) and
//! RAM-hungry stack traffic — which is exactly why Section 5.1 rejects
//! stack ISAs for printed cores. Table 4 models the `zpu_small`
//! configuration at a fixed CPI of 4, which this simulator charges per
//! retired instruction.
//!
//! The "emulated" opcode range (0x20–0x3F) is executed natively here; on
//! real `zpu_small` those trap to emulation code, but the paper's CPI-4
//! cost model already folds that in.

use std::collections::BTreeMap;
use std::fmt;

/// Cycles per instruction for `zpu_small` (Table 4).
pub const ZPU_CPI: u64 = 4;

/// Execution fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultZpu {
    /// Cycle budget exhausted before `BREAKPOINT`.
    CycleLimitExceeded {
        /// The budget.
        limit: u64,
    },
    /// A memory access fell outside the configured memory.
    BadAddress {
        /// The address.
        addr: u32,
    },
}

impl fmt::Display for FaultZpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultZpu::CycleLimitExceeded { limit } => {
                write!(f, "ZPU program did not halt within {limit} cycles")
            }
            FaultZpu::BadAddress { addr } => write!(f, "ZPU access to bad address {addr:#x}"),
        }
    }
}

impl std::error::Error for FaultZpu {}

/// Full machine-state capture: the whole stack-machine memory, PC, SP,
/// the cycle/instruction counters, and the halt / IM-continuation
/// latches — a restored machine replays byte-for-byte.
impl printed_netlist::Snapshot for CpuZpu {
    const KIND: &'static str = "baselines.zpu";
    const VERSION: u32 = 1;

    fn save_state(&self, w: &mut printed_netlist::SnapshotWriter) {
        w.bytes(&self.mem);
        w.u64(self.pc as u64);
        w.u64(self.sp as u64);
        w.u64(self.cycles);
        w.u64(self.instructions);
        w.bool(self.halted);
        w.bool(self.im_pending);
    }

    fn restore_state(
        &mut self,
        r: &mut printed_netlist::SnapshotReader<'_>,
    ) -> Result<(), printed_netlist::SnapshotError> {
        use printed_netlist::SnapshotError;
        let mem = r.bytes()?;
        if mem.len() != self.mem.len() {
            return Err(SnapshotError::Mismatch {
                field: "mem",
                detail: format!(
                    "snapshot memory is {} bytes, machine has {}",
                    mem.len(),
                    self.mem.len()
                ),
            });
        }
        let pc = r.u64()? as u32;
        let sp = r.u64()? as u32;
        let cycles = r.u64()?;
        let instructions = r.u64()?;
        let halted = r.bool()?;
        let im_pending = r.bool()?;
        self.mem = mem;
        self.pc = pc;
        self.sp = sp;
        self.cycles = cycles;
        self.instructions = instructions;
        self.halted = halted;
        self.im_pending = im_pending;
        Ok(())
    }
}

/// A ZPU machine.
#[derive(Debug, Clone)]
pub struct CpuZpu {
    /// Byte-addressed big-endian memory.
    pub mem: Vec<u8>,
    /// Program counter (byte address).
    pub pc: u32,
    /// Stack pointer (byte address; grows down).
    pub sp: u32,
    /// Cycles consumed (CPI × instructions).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    halted: bool,
    /// Whether the previous instruction was `IM` (for immediate
    /// continuation).
    im_pending: bool,
}

impl CpuZpu {
    /// A machine with `mem_bytes` of memory; the stack starts at the top.
    pub fn new(mem_bytes: usize) -> Self {
        assert!(mem_bytes.is_multiple_of(4) && mem_bytes >= 64, "memory must be word-aligned");
        CpuZpu {
            mem: vec![0; mem_bytes],
            pc: 0,
            sp: mem_bytes as u32,
            cycles: 0,
            instructions: 0,
            halted: false,
            im_pending: false,
        }
    }

    /// Loads a program at address 0.
    pub fn load(&mut self, image: &[u8]) {
        self.mem[..image.len()].copy_from_slice(image);
        self.pc = 0;
    }

    /// Whether `BREAKPOINT` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Reads a 32-bit big-endian word.
    ///
    /// # Errors
    ///
    /// [`FaultZpu::BadAddress`] if out of range or unaligned.
    pub fn read32(&self, addr: u32) -> Result<u32, FaultZpu> {
        let a = addr as usize & !3;
        if a + 4 > self.mem.len() {
            return Err(FaultZpu::BadAddress { addr });
        }
        Ok(u32::from_be_bytes([self.mem[a], self.mem[a + 1], self.mem[a + 2], self.mem[a + 3]]))
    }

    /// Writes a 32-bit big-endian word.
    ///
    /// # Errors
    ///
    /// [`FaultZpu::BadAddress`] if out of range.
    pub fn write32(&mut self, addr: u32, v: u32) -> Result<(), FaultZpu> {
        let a = addr as usize & !3;
        if a + 4 > self.mem.len() {
            return Err(FaultZpu::BadAddress { addr });
        }
        self.mem[a..a + 4].copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    fn push(&mut self, v: u32) -> Result<(), FaultZpu> {
        self.sp = self.sp.wrapping_sub(4);
        self.write32(self.sp, v)
    }

    fn pop(&mut self) -> Result<u32, FaultZpu> {
        let v = self.read32(self.sp)?;
        self.sp = self.sp.wrapping_add(4);
        Ok(v)
    }

    fn tos(&self) -> Result<u32, FaultZpu> {
        self.read32(self.sp)
    }

    fn set_tos(&mut self, v: u32) -> Result<(), FaultZpu> {
        self.write32(self.sp, v)
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// [`FaultZpu::BadAddress`] on wild accesses.
    pub fn step(&mut self) -> Result<(), FaultZpu> {
        if self.halted {
            return Ok(());
        }
        let op = self.mem.get(self.pc as usize).copied().unwrap_or(0);
        self.instructions += 1;
        self.cycles += ZPU_CPI;
        let mut next_pc = self.pc.wrapping_add(1);
        let was_im = self.im_pending;
        self.im_pending = false;

        match op {
            // IM: push (or continue) a 7-bit immediate.
            0x80..=0xFF => {
                let bits = (op & 0x7F) as u32;
                if was_im {
                    let tos = self.tos()?;
                    self.set_tos(tos << 7 | bits)?;
                } else {
                    // Sign-extend the first IM.
                    let v = if bits & 0x40 != 0 { bits | !0x7F } else { bits };
                    self.push(v)?;
                }
                self.im_pending = true;
            }
            0x00 => {
                // BREAKPOINT: halt.
                self.halted = true;
            }
            0x02 => {
                // PUSHSP.
                let sp = self.sp;
                self.push(sp)?;
            }
            0x04 => {
                // POPPC.
                next_pc = self.pop()?;
            }
            0x05 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a.wrapping_add(b))?;
            }
            0x06 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a & b)?;
            }
            0x07 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a | b)?;
            }
            0x08 => {
                // LOAD.
                let addr = self.pop()?;
                let v = self.read32(addr)?;
                self.push(v)?;
            }
            0x09 => {
                let v = self.tos()?;
                self.set_tos(!v)?;
            }
            0x0A => {
                // FLIP: bit reversal.
                let v = self.tos()?;
                self.set_tos(v.reverse_bits())?;
            }
            0x0B => {} // NOP
            0x0C => {
                // STORE.
                let addr = self.pop()?;
                let v = self.pop()?;
                self.write32(addr, v)?;
            }
            0x0D => {
                // POPSP.
                self.sp = self.pop()?;
            }
            // ADDSP n: tos += mem[sp + 4n].
            0x10..=0x1F => {
                let n = (op & 0xF) as u32;
                let v = self.read32(self.sp.wrapping_add(4 * n))?;
                let tos = self.tos()?;
                self.set_tos(tos.wrapping_add(v))?;
            }
            // STORESP / LOADSP with the ZPU's inverted bit-4 offset quirk.
            0x40..=0x5F => {
                let n = ((op & 0x1F) ^ 0x10) as u32;
                let v = self.pop()?;
                self.write32(self.sp.wrapping_add(4 * n), v)?;
            }
            0x60..=0x7F => {
                let n = ((op & 0x1F) ^ 0x10) as u32;
                let v = self.read32(self.sp.wrapping_add(4 * n))?;
                self.push(v)?;
            }
            // "Emulated" group, executed natively (see module docs).
            0x20..=0x3F => {
                next_pc = self.execute_emulated(op - 0x20, next_pc)?;
            }
            _ => {} // remaining encodings are NOPs in this model
        }
        self.pc = next_pc;
        Ok(())
    }

    fn execute_emulated(&mut self, n: u8, next_pc: u32) -> Result<u32, FaultZpu> {
        let mut next = next_pc;
        match n {
            1 => {
                // LOADH: 16-bit load.
                let addr = self.pop()?;
                let a = addr as usize & !1;
                if a + 2 > self.mem.len() {
                    return Err(FaultZpu::BadAddress { addr });
                }
                let v = u16::from_be_bytes([self.mem[a], self.mem[a + 1]]) as u32;
                self.push(v)?;
            }
            2 => {
                // STOREH.
                let addr = self.pop()?;
                let v = self.pop()?;
                let a = addr as usize & !1;
                if a + 2 > self.mem.len() {
                    return Err(FaultZpu::BadAddress { addr });
                }
                self.mem[a..a + 2].copy_from_slice(&(v as u16).to_be_bytes());
            }
            3 => {
                // LESSTHAN (signed).
                let a = self.pop()? as i32;
                let b = self.pop()? as i32;
                self.push((a < b) as u32)?;
            }
            4 => {
                let a = self.pop()? as i32;
                let b = self.pop()? as i32;
                self.push((a <= b) as u32)?;
            }
            5 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push((a < b) as u32)?;
            }
            6 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push((a <= b) as u32)?;
            }
            7 => {
                // SWAP halves of TOS.
                let v = self.tos()?;
                self.set_tos(v.rotate_left(16))?;
            }
            8 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a.wrapping_mul(b))?;
            }
            9 => {
                // LSHIFTRIGHT: logical right shift (b >> a).
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(b.wrapping_shr(a))?;
            }
            10 => {
                // ASHIFTLEFT.
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(b.wrapping_shl(a))?;
            }
            11 => {
                // ASHIFTRIGHT.
                let a = self.pop()?;
                let b = self.pop()? as i32;
                self.push(b.wrapping_shr(a) as u32)?;
            }
            12 => {
                // CALL: jump to TOS, pushing the return address.
                let target = self.pop()?;
                self.push(next)?;
                next = target;
            }
            13 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push((a == b) as u32)?;
            }
            14 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push((a != b) as u32)?;
            }
            15 => {
                let v = self.tos()?;
                self.set_tos((v as i32).wrapping_neg() as u32)?;
            }
            16 => {
                // SUB: NOS - TOS... ZPU defines a=pop, b=pop, push(b - a).
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(b.wrapping_sub(a))?;
            }
            17 => {
                let a = self.pop()?;
                let b = self.pop()?;
                self.push(a ^ b)?;
            }
            18 => {
                // LOADB.
                let addr = self.pop()?;
                let v = *self.mem.get(addr as usize).ok_or(FaultZpu::BadAddress { addr })? as u32;
                self.push(v)?;
            }
            19 => {
                // STOREB.
                let addr = self.pop()?;
                let v = self.pop()?;
                let slot = self.mem.get_mut(addr as usize).ok_or(FaultZpu::BadAddress { addr })?;
                *slot = v as u8;
            }
            20 => {
                // DIV (signed; x/0 pushes 0 in this model).
                let a = self.pop()? as i32;
                let b = self.pop()? as i32;
                self.push(if a == 0 { 0 } else { (b / a) as u32 })?;
            }
            21 => {
                // MOD.
                let a = self.pop()? as i32;
                let b = self.pop()? as i32;
                self.push(if a == 0 { 0 } else { (b % a) as u32 })?;
            }
            22 => {
                // EQBRANCH: offset = pop, cond = pop; branch if cond == 0.
                let offset = self.pop()?;
                let cond = self.pop()?;
                if cond == 0 {
                    next = self.pc.wrapping_add(offset);
                }
            }
            23 => {
                // NEQBRANCH.
                let offset = self.pop()?;
                let cond = self.pop()?;
                if cond != 0 {
                    next = self.pc.wrapping_add(offset);
                }
            }
            24 => {
                // POPPCREL.
                let offset = self.pop()?;
                next = self.pc.wrapping_add(offset);
            }
            26 => {
                // PUSHPC.
                let pc = self.pc;
                self.push(pc)?;
            }
            28 => {
                // PUSHSPADD: tos = tos*4 + sp.
                let v = self.tos()?;
                let sp = self.sp;
                self.set_tos(v.wrapping_mul(4).wrapping_add(sp))?;
            }
            _ => {} // CONFIG, SYSCALL, HALFMULT, CALLPCREL: no-ops here
        }
        Ok(next)
    }

    /// Runs until `BREAKPOINT` or the budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`FaultZpu::CycleLimitExceeded`] or a memory fault.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), FaultZpu> {
        while !self.halted {
            if self.cycles >= max_cycles {
                return Err(FaultZpu::CycleLimitExceeded { limit: max_cycles });
            }
            self.step()?;
        }
        Ok(())
    }
}

/// ZPU assembler item (used internally by [`AsmZpu`]).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    Bytes(Vec<u8>),
    /// Absolute address of a label, pushed as a fixed-width IM pair.
    ImLabel(String),
    /// `label - here_after_this_im` relative offset for branch ops,
    /// encoded as a fixed-width IM pair.
    ImRel(String),
    Label(String),
}

/// Builder-style ZPU assembler.
///
/// Label-valued immediates are emitted as fixed two-byte `IM` pairs (14
/// bits), so label resolution needs only one pass; constants use minimal
/// `IM` sequences. This mirrors how verbose real ZPU code is — the paper's
/// Table 5 shows ZPU with the largest instruction memories.
#[derive(Debug, Clone, Default)]
pub struct AsmZpu {
    items: Vec<Item>,
    /// Whether the previously emitted instruction was an `IM` byte: two
    /// adjacent `IM` sequences would merge into one immediate, so the
    /// assembler inserts a chain-breaking `NOP` (as real ZPU toolchains
    /// do).
    last_was_im: bool,
}

impl AsmZpu {
    /// A fresh assembler.
    pub fn new() -> Self {
        AsmZpu::default()
    }

    fn raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.last_was_im = bytes.last().is_some_and(|b| b & 0x80 != 0);
        self.items.push(Item::Bytes(bytes.to_vec()));
        self
    }

    fn break_im_chain(&mut self) {
        if self.last_was_im {
            self.items.push(Item::Bytes(vec![0x0B])); // NOP
            self.last_was_im = false;
        }
    }

    /// Defines a label here. Also breaks any pending `IM` chain, since a
    /// branch target must not continue an immediate.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.break_im_chain();
        self.items.push(Item::Label(name.to_string()));
        self
    }

    /// Pushes a constant with a minimal `IM` sequence.
    pub fn im(&mut self, value: i32) -> &mut Self {
        self.break_im_chain();
        let mut chunks = Vec::new();
        let mut v = value;
        loop {
            chunks.push((v & 0x7F) as u8);
            v >>= 7;
            // Stop when remaining bits equal the sign extension of the
            // chunk's top bit.
            let top = chunks
                .last()
                .unwrap_or_else(|| unreachable!("im emission pushes at least one chunk"))
                & 0x40
                != 0;
            if (v == 0 && !top) || (v == -1 && top) {
                break;
            }
        }
        let bytes: Vec<u8> = chunks.iter().rev().map(|c| 0x80 | c).collect();
        self.raw(&bytes)
    }

    /// Pushes a label's absolute byte address (fixed-width `IM` pair).
    pub fn im_label(&mut self, name: &str) -> &mut Self {
        self.break_im_chain();
        self.last_was_im = true;
        self.items.push(Item::ImLabel(name.to_string()));
        self
    }

    /// Pushes `label - pc_of_branch` for a following branch op.
    pub fn im_rel(&mut self, name: &str) -> &mut Self {
        self.break_im_chain();
        self.last_was_im = true;
        self.items.push(Item::ImRel(name.to_string()));
        self
    }

    /// `BREAKPOINT` (halt).
    pub fn breakpoint(&mut self) -> &mut Self {
        self.raw(&[0x00])
    }
    /// `POPPC`.
    pub fn poppc(&mut self) -> &mut Self {
        self.raw(&[0x04])
    }
    /// `ADD`.
    pub fn add(&mut self) -> &mut Self {
        self.raw(&[0x05])
    }
    /// `AND`.
    pub fn and(&mut self) -> &mut Self {
        self.raw(&[0x06])
    }
    /// `OR`.
    pub fn or(&mut self) -> &mut Self {
        self.raw(&[0x07])
    }
    /// `LOAD`.
    pub fn load(&mut self) -> &mut Self {
        self.raw(&[0x08])
    }
    /// `NOT`.
    pub fn not(&mut self) -> &mut Self {
        self.raw(&[0x09])
    }
    /// `FLIP`.
    pub fn flip(&mut self) -> &mut Self {
        self.raw(&[0x0A])
    }
    /// `STORE`.
    pub fn store(&mut self) -> &mut Self {
        self.raw(&[0x0C])
    }
    /// `LOADSP n` (word offset 0..=31).
    pub fn loadsp(&mut self, n: u8) -> &mut Self {
        assert!(n < 32);
        self.raw(&[0x60 | (n ^ 0x10)])
    }
    /// `STORESP n` (word offset 0..=31).
    pub fn storesp(&mut self, n: u8) -> &mut Self {
        assert!(n < 32);
        self.raw(&[0x40 | (n ^ 0x10)])
    }
    /// `ADDSP n`.
    pub fn addsp(&mut self, n: u8) -> &mut Self {
        assert!(n < 16);
        self.raw(&[0x10 | n])
    }
    /// Emulated ops.
    pub fn sub(&mut self) -> &mut Self {
        self.raw(&[0x30])
    }
    /// `XOR`.
    pub fn xor(&mut self) -> &mut Self {
        self.raw(&[0x31])
    }
    /// `MULT`.
    pub fn mult(&mut self) -> &mut Self {
        self.raw(&[0x28])
    }
    /// `DIV`.
    pub fn div(&mut self) -> &mut Self {
        self.raw(&[0x34])
    }
    /// `LSHIFTRIGHT`.
    pub fn lshiftright(&mut self) -> &mut Self {
        self.raw(&[0x29])
    }
    /// `ASHIFTLEFT`.
    pub fn ashiftleft(&mut self) -> &mut Self {
        self.raw(&[0x2A])
    }
    /// `EQ`.
    pub fn eq(&mut self) -> &mut Self {
        self.raw(&[0x2D])
    }
    /// `NEQ`.
    pub fn neq(&mut self) -> &mut Self {
        self.raw(&[0x2E])
    }
    /// `LESSTHAN` (signed `a < b` where a is TOS).
    pub fn lessthan(&mut self) -> &mut Self {
        self.raw(&[0x23])
    }
    /// `ULESSTHAN`.
    pub fn ulessthan(&mut self) -> &mut Self {
        self.raw(&[0x25])
    }
    /// `EQBRANCH` (branch if condition == 0).
    pub fn eqbranch(&mut self) -> &mut Self {
        self.raw(&[0x36])
    }
    /// `NEQBRANCH` (branch if condition != 0).
    pub fn neqbranch(&mut self) -> &mut Self {
        self.raw(&[0x37])
    }
    /// `LOADB`.
    pub fn loadb(&mut self) -> &mut Self {
        self.raw(&[0x32])
    }
    /// `STOREB`.
    pub fn storeb(&mut self) -> &mut Self {
        self.raw(&[0x33])
    }
    /// `LOADH`.
    pub fn loadh(&mut self) -> &mut Self {
        self.raw(&[0x21])
    }
    /// `STOREH`.
    pub fn storeh(&mut self) -> &mut Self {
        self.raw(&[0x22])
    }

    /// Resolves labels and returns the image.
    ///
    /// # Errors
    ///
    /// Returns the unresolved label name.
    pub fn assemble(&self) -> Result<Vec<u8>, String> {
        // Pass 1: sizes. IM label refs are always 2 bytes.
        let mut addr = 0u32;
        let mut labels: BTreeMap<&str, u32> = BTreeMap::new();
        for item in &self.items {
            match item {
                Item::Bytes(b) => addr += b.len() as u32,
                Item::ImLabel(_) | Item::ImRel(_) => addr += 2,
                Item::Label(name) => {
                    labels.insert(name, addr);
                }
            }
        }
        // Pass 2: emit.
        let mut out = Vec::with_capacity(addr as usize);
        for item in &self.items {
            match item {
                Item::Bytes(b) => out.extend_from_slice(b),
                Item::ImLabel(name) => {
                    let target = *labels.get(name.as_str()).ok_or_else(|| name.clone())?;
                    out.push(0x80 | ((target >> 7) & 0x7F) as u8);
                    out.push(0x80 | (target & 0x7F) as u8);
                }
                Item::ImRel(name) => {
                    let target = *labels.get(name.as_str()).ok_or_else(|| name.clone())?;
                    // The branch op follows immediately; offsets are
                    // relative to the branch instruction's own address.
                    let branch_pc = out.len() as u32 + 2;
                    let offset = target.wrapping_sub(branch_pc);
                    out.push(0x80 | ((offset >> 7) & 0x7F) as u8);
                    out.push(0x80 | (offset & 0x7F) as u8);
                }
                Item::Label(_) => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn run_asm(build: impl FnOnce(&mut AsmZpu)) -> CpuZpu {
        let mut a = AsmZpu::new();
        build(&mut a);
        let image = a.assemble().unwrap();
        let mut cpu = CpuZpu::new(4096);
        cpu.load(&image);
        cpu.run(1_000_000).unwrap();
        cpu
    }

    #[test]
    fn im_add_store() {
        // 17 + 25 stored to address 0x100.
        let cpu = run_asm(|a| {
            a.im(17).im(25).add().im(0x100).store().breakpoint();
        });
        assert_eq!(cpu.read32(0x100).unwrap(), 42);
        assert!(cpu.is_halted());
        assert_eq!(cpu.cycles, cpu.instructions * ZPU_CPI);
    }

    #[test]
    fn im_sequences_encode_wide_and_negative_values() {
        let cpu = run_asm(|a| {
            a.im(1000).im(0x100).store();
            a.im(-7).im(0x104).store();
            a.breakpoint();
        });
        assert_eq!(cpu.read32(0x100).unwrap(), 1000);
        assert_eq!(cpu.read32(0x104).unwrap(), (-7i32) as u32);
    }

    #[test]
    fn loop_with_neqbranch() {
        // mem[0x100] = 5; loop { mem[0x104] += 1; mem[0x100] -= 1 } while != 0.
        let cpu = run_asm(|a| {
            a.im(5).im(0x100).store();
            a.label("loop");
            // mem[0x104] += 1
            a.im(0x104).load().im(1).add().im(0x104).store();
            // mem[0x100] -= 1  (SUB computes b - a with a = TOS)
            a.im(0x100).load().im(1).sub().im(0x100).store();
            // if mem[0x100] != 0 goto loop
            a.im(0x100).load();
            a.im_rel("loop").neqbranch();
            a.breakpoint();
        });
        assert_eq!(cpu.read32(0x104).unwrap(), 5);
        assert_eq!(cpu.read32(0x100).unwrap(), 0);
    }

    #[test]
    fn sub_operand_order() {
        // push 10, push 3, SUB -> 10 - 3 = 7.
        let cpu = run_asm(|a| {
            a.im(10).im(3).sub().im(0x100).store().breakpoint();
        });
        assert_eq!(cpu.read32(0x100).unwrap(), 7);
    }

    #[test]
    fn unconditional_jump_via_im_label_poppc() {
        let cpu = run_asm(|a| {
            a.im(1).im(0x100).store();
            a.im_label("end").poppc();
            a.im(99).im(0x100).store(); // skipped
            a.label("end").breakpoint();
        });
        assert_eq!(cpu.read32(0x100).unwrap(), 1);
    }

    #[test]
    fn shifts_and_compares() {
        let cpu = run_asm(|a| {
            // 1 << 4 = 16: push 1 (value), push 4 (amount), ASHIFTLEFT b<<a.
            a.im(1).im(4).ashiftleft().im(0x100).store();
            // (3 < 5): push 5, push 3 → LESSTHAN pops a=3,b=5, pushes a<b… our
            // impl: a=pop=3, b=pop=5 → 3<5 = 1.
            a.im(5).im(3).lessthan().im(0x104).store();
            a.breakpoint();
        });
        assert_eq!(cpu.read32(0x100).unwrap(), 16);
        assert_eq!(cpu.read32(0x104).unwrap(), 1);
    }

    #[test]
    fn byte_and_half_memory_ops() {
        let cpu = run_asm(|a| {
            a.im(0xAB).im(0x100).storeb();
            a.im(0x100).loadb().im(0x104).store();
            a.im(0x1234).im(0x108).storeh();
            a.im(0x108).loadh().im(0x10C).store();
            a.breakpoint();
        });
        assert_eq!(cpu.read32(0x104).unwrap(), 0xAB);
        assert_eq!(cpu.read32(0x10C).unwrap(), 0x1234);
    }

    #[test]
    fn runaway_detected() {
        let mut a = AsmZpu::new();
        a.label("spin").im_label("spin").poppc();
        let image = a.assemble().unwrap();
        let mut cpu = CpuZpu::new(1024);
        cpu.load(&image);
        assert!(matches!(cpu.run(1000), Err(FaultZpu::CycleLimitExceeded { .. })));
    }
}
