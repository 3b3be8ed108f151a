//! Intel 8080 disassembler.
//!
//! Complements the [`crate::asm8080`] assembler and the
//! [`crate::i8080`] simulator: turns a program image back into readable
//! mnemonics, used to inspect the benchmark kernels and debug new ones.

/// One disassembled instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Disassembled {
    /// Address of the first byte.
    pub addr: u16,
    /// Instruction length in bytes (1–3).
    pub len: u8,
    /// Mnemonic with operands.
    pub text: String,
}

const REGS: [&str; 8] = ["B", "C", "D", "E", "H", "L", "M", "A"];
const PAIRS: [&str; 4] = ["B", "D", "H", "SP"];
const CONDS: [&str; 8] = ["NZ", "Z", "NC", "C", "PO", "PE", "P", "M"];
const ALU: [&str; 8] = ["ADD", "ADC", "SUB", "SBB", "ANA", "XRA", "ORA", "CMP"];
const ALU_IMM: [&str; 8] = ["ADI", "ACI", "SUI", "SBI", "ANI", "XRI", "ORI", "CPI"];

/// Disassembles one instruction at `offset` within `mem`, returning the
/// decoded text and consumed length. Reads past the end of `mem` are
/// treated as zero bytes (like the simulator's zeroed memory).
pub fn disassemble_one(mem: &[u8], offset: usize, addr: u16) -> Disassembled {
    let b = |i: usize| mem.get(offset + i).copied().unwrap_or(0);
    let op = b(0);
    let d8 = || format!("{:#04X}", b(1));
    let d16 = || format!("{:#06X}", u16::from_le_bytes([b(1), b(2)]));

    let (text, len): (String, u8) = match op {
        0x76 => ("HLT".into(), 1),
        0x40..=0x7F => {
            (format!("MOV {}, {}", REGS[(op >> 3 & 7) as usize], REGS[(op & 7) as usize]), 1)
        }
        0x80..=0xBF => (format!("{} {}", ALU[(op >> 3 & 7) as usize], REGS[(op & 7) as usize]), 1),
        0x00 | 0x08 | 0x10 | 0x18 | 0x20 | 0x28 | 0x30 | 0x38 => ("NOP".into(), 1),
        0x01 | 0x11 | 0x21 | 0x31 => {
            (format!("LXI {}, {}", PAIRS[(op >> 4 & 3) as usize], d16()), 3)
        }
        0x02 => ("STAX B".into(), 1),
        0x12 => ("STAX D".into(), 1),
        0x0A => ("LDAX B".into(), 1),
        0x1A => ("LDAX D".into(), 1),
        0x22 => (format!("SHLD {}", d16()), 3),
        0x2A => (format!("LHLD {}", d16()), 3),
        0x32 => (format!("STA {}", d16()), 3),
        0x3A => (format!("LDA {}", d16()), 3),
        0x03 | 0x13 | 0x23 | 0x33 => (format!("INX {}", PAIRS[(op >> 4 & 3) as usize]), 1),
        0x0B | 0x1B | 0x2B | 0x3B => (format!("DCX {}", PAIRS[(op >> 4 & 3) as usize]), 1),
        0x04 | 0x0C | 0x14 | 0x1C | 0x24 | 0x2C | 0x34 | 0x3C => {
            (format!("INR {}", REGS[(op >> 3 & 7) as usize]), 1)
        }
        0x05 | 0x0D | 0x15 | 0x1D | 0x25 | 0x2D | 0x35 | 0x3D => {
            (format!("DCR {}", REGS[(op >> 3 & 7) as usize]), 1)
        }
        0x06 | 0x0E | 0x16 | 0x1E | 0x26 | 0x2E | 0x36 | 0x3E => {
            (format!("MVI {}, {}", REGS[(op >> 3 & 7) as usize], d8()), 2)
        }
        0x07 => ("RLC".into(), 1),
        0x0F => ("RRC".into(), 1),
        0x17 => ("RAL".into(), 1),
        0x1F => ("RAR".into(), 1),
        0x27 => ("DAA".into(), 1),
        0x2F => ("CMA".into(), 1),
        0x37 => ("STC".into(), 1),
        0x3F => ("CMC".into(), 1),
        0x09 | 0x19 | 0x29 | 0x39 => (format!("DAD {}", PAIRS[(op >> 4 & 3) as usize]), 1),
        0xC6 | 0xCE | 0xD6 | 0xDE | 0xE6 | 0xEE | 0xF6 | 0xFE => {
            (format!("{} {}", ALU_IMM[(op >> 3 & 7) as usize], d8()), 2)
        }
        0xC3 | 0xCB => (format!("JMP {}", d16()), 3),
        0xC2 | 0xCA | 0xD2 | 0xDA | 0xE2 | 0xEA | 0xF2 | 0xFA => {
            (format!("J{} {}", CONDS[(op >> 3 & 7) as usize], d16()), 3)
        }
        0xCD | 0xDD | 0xED | 0xFD => (format!("CALL {}", d16()), 3),
        0xC4 | 0xCC | 0xD4 | 0xDC | 0xE4 | 0xEC | 0xF4 | 0xFC => {
            (format!("C{} {}", CONDS[(op >> 3 & 7) as usize], d16()), 3)
        }
        0xC9 | 0xD9 => ("RET".into(), 1),
        0xC0 | 0xC8 | 0xD0 | 0xD8 | 0xE0 | 0xE8 | 0xF0 | 0xF8 => {
            (format!("R{}", CONDS[(op >> 3 & 7) as usize]), 1)
        }
        0xC5 | 0xD5 | 0xE5 => (format!("PUSH {}", PAIRS[(op >> 4 & 3) as usize]), 1),
        0xF5 => ("PUSH PSW".into(), 1),
        0xC1 | 0xD1 | 0xE1 => (format!("POP {}", PAIRS[(op >> 4 & 3) as usize]), 1),
        0xF1 => ("POP PSW".into(), 1),
        0xC7 | 0xCF | 0xD7 | 0xDF | 0xE7 | 0xEF | 0xF7 | 0xFF => {
            (format!("RST {}", op >> 3 & 7), 1)
        }
        0xEB => ("XCHG".into(), 1),
        0xE3 => ("XTHL".into(), 1),
        0xF9 => ("SPHL".into(), 1),
        0xE9 => ("PCHL".into(), 1),
        0xFB => ("EI".into(), 1),
        0xF3 => ("DI".into(), 1),
        0xDB => (format!("IN {}", d8()), 2),
        0xD3 => (format!("OUT {}", d8()), 2),
    };
    Disassembled { addr, len, text }
}

/// Disassembles a whole image starting at `origin`.
pub fn disassemble(image: &[u8], origin: u16) -> Vec<Disassembled> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    while offset < image.len() {
        let d = disassemble_one(image, offset, origin.wrapping_add(offset as u16));
        offset += d.len as usize;
        out.push(d);
    }
    out
}

/// Renders a listing with addresses.
pub fn listing(image: &[u8], origin: u16) -> String {
    disassemble(image, origin)
        .into_iter()
        .map(|d| format!("{:04X}  {}\n", d.addr, d.text))
        .collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::asm8080::Asm8080;
    use crate::i8080::{Reg, RegPair};
    use crate::kernels::{k8080, Bench};

    #[test]
    fn round_trips_through_the_assembler() {
        let mut a = Asm8080::new(0x100);
        a.mvi(Reg::A, 0x2A).lxi(RegPair::HL, 0x2000).add_m().jnz("end").label("end").hlt();
        let image = a.assemble().unwrap();
        let listing = disassemble(&image, 0x100);
        let texts: Vec<&str> = listing.iter().map(|d| d.text.as_str()).collect();
        assert_eq!(texts, vec!["MVI A, 0x2A", "LXI H, 0x2000", "ADD M", "JNZ 0x0109", "HLT"]);
        // Lengths cover the image exactly.
        let total: usize = listing.iter().map(|d| d.len as usize).sum();
        assert_eq!(total, image.len());
    }

    #[test]
    fn every_opcode_disassembles() {
        // All 256 opcodes produce nonempty text and a sane length.
        for op in 0..=255u8 {
            let mem = [op, 0x34, 0x12];
            let d = disassemble_one(&mem, 0, 0);
            assert!(!d.text.is_empty(), "{op:#04x}");
            assert!((1..=3).contains(&d.len), "{op:#04x}");
        }
    }

    #[test]
    fn kernel_listings_end_in_hlt() {
        for bench in Bench::ALL {
            let image = k8080::image(bench);
            let listing = disassemble(&image, 0x100);
            assert_eq!(listing.last().unwrap().text, "HLT", "{bench} should end with HLT");
            // Instruction count matches the byte stream exactly.
            let total: usize = listing.iter().map(|d| d.len as usize).sum();
            assert_eq!(total, image.len(), "{bench}");
        }
    }

    #[test]
    fn listing_renders_addresses() {
        let image = [0x3E, 0x01, 0x76];
        let text = listing(&image, 0x0100);
        assert!(text.contains("0100  MVI A, 0x01"));
        assert!(text.contains("0102  HLT"));
    }
}
