//! Two-pass TP-ISA assembler.
//!
//! Kernels are written in a small assembly dialect and assembled to
//! [`Instruction`] sequences (and from there encoded into crosspoint-ROM
//! images). Syntax:
//!
//! ```text
//! ; comments run to end of line
//! start:                  ; labels
//!     STORE [0], #17      ; direct operand, decimal immediate
//!     SETBAR b1, #0x10    ; BAR load, hex immediate
//!     ADD  [b1+2], [3]    ; BAR-relative and direct operands
//!     CMP  [0], [1]
//!     BR   start, Z       ; branch if any masked flag set
//!     BRN  done, CZ       ; branch if no masked flag set
//!     JMP  start          ; sugar: BRN with empty mask
//! done:
//!     HALT                ; sugar: JMP to self
//! ```
//!
//! ```
//! use printed_core::asm::assemble;
//!
//! let prog = assemble("
//!     STORE [0], #41
//!     STORE [1], #1
//!     ADD   [0], [1]
//!     HALT
//! ")?;
//! assert_eq!(prog.instructions.len(), 4);
//! # Ok::<(), printed_core::asm::AsmError>(())
//! ```

use crate::isa::{AluOp, Flags, Instruction, Operand};
use std::collections::BTreeMap;
use std::fmt;

/// An assembled program: instructions plus the label map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Assembled instructions, in address order.
    pub instructions: Vec<Instruction>,
    /// Label → instruction address.
    pub labels: BTreeMap<String, u8>,
}

impl Program {
    /// Address of a label.
    pub fn label(&self, name: &str) -> Option<u8> {
        self.labels.get(name).copied()
    }
}

/// Assembly errors, with 1-based line numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// Line the error occurred on (1-based).
    pub line: usize,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

/// Kinds of assembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// Unknown mnemonic.
    UnknownMnemonic(String),
    /// Wrong operand count or shape for the mnemonic.
    BadOperands(String),
    /// An operand failed to parse.
    BadOperand(String),
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// The program exceeds the 256-instruction PC space.
    ProgramTooLong(usize),
    /// A numeric literal was malformed or out of range.
    BadNumber(String),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic {m:?}"),
            AsmErrorKind::BadOperands(m) => write!(f, "bad operands: {m}"),
            AsmErrorKind::BadOperand(m) => write!(f, "cannot parse operand {m:?}"),
            AsmErrorKind::UndefinedLabel(l) => write!(f, "undefined label {l:?}"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "duplicate label {l:?}"),
            AsmErrorKind::ProgramTooLong(n) => {
                write!(f, "program has {n} instructions; TP-ISA allows 256")
            }
            AsmErrorKind::BadNumber(s) => write!(f, "bad number {s:?}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// Assembles TP-ISA source text.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered.
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    // Pass 1: strip comments, collect labels and raw statements.
    struct Stmt<'a> {
        line: usize,
        mnemonic: &'a str,
        rest: &'a str,
        addr: u8,
    }
    let mut labels: BTreeMap<String, u8> = BTreeMap::new();
    let mut stmts: Vec<Stmt> = Vec::new();
    let mut addr: usize = 0;

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let mut text = raw;
        if let Some(idx) = text.find(';') {
            text = &text[..idx];
        }
        let mut text = text.trim();
        // Labels (possibly several) at line start.
        while let Some(colon) = text.find(':') {
            let (name, rest) = text.split_at(colon);
            let name = name.trim();
            if name.is_empty() || !is_ident(name) {
                break;
            }
            if addr > 255 {
                return Err(AsmError { line, kind: AsmErrorKind::ProgramTooLong(addr) });
            }
            if labels.insert(name.to_string(), addr as u8).is_some() {
                return Err(AsmError {
                    line,
                    kind: AsmErrorKind::DuplicateLabel(name.to_string()),
                });
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        if addr >= 256 {
            return Err(AsmError { line, kind: AsmErrorKind::ProgramTooLong(addr + 1) });
        }
        stmts.push(Stmt { line, mnemonic, rest, addr: addr as u8 });
        addr += 1;
    }

    if addr > 256 {
        return Err(AsmError { line: 0, kind: AsmErrorKind::ProgramTooLong(addr) });
    }

    // Pass 2: encode.
    let mut instructions = Vec::with_capacity(stmts.len());
    for stmt in &stmts {
        let inst = parse_statement(stmt.mnemonic, stmt.rest, stmt.addr, &labels)
            .map_err(|kind| AsmError { line: stmt.line, kind })?;
        instructions.push(inst);
    }
    Ok(Program { instructions, labels })
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn split_operands(rest: &str) -> Vec<&str> {
    if rest.trim().is_empty() {
        return Vec::new();
    }
    rest.split(',').map(str::trim).collect()
}

fn parse_number(s: &str) -> Result<u8, AsmErrorKind> {
    let s = s.trim();
    let value = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u16::from_str_radix(hex, 16)
    } else {
        s.parse::<u16>()
    }
    .map_err(|_| AsmErrorKind::BadNumber(s.to_string()))?;
    u8::try_from(value).map_err(|_| AsmErrorKind::BadNumber(s.to_string()))
}

fn parse_immediate(s: &str) -> Result<u8, AsmErrorKind> {
    let s = s.trim();
    let digits = s.strip_prefix('#').ok_or_else(|| AsmErrorKind::BadOperand(s.to_string()))?;
    parse_number(digits)
}

/// Parses `[off]` or `[bN+off]`.
fn parse_memory_operand(s: &str) -> Result<Operand, AsmErrorKind> {
    let s = s.trim();
    let inner = s
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| AsmErrorKind::BadOperand(s.to_string()))?
        .trim();
    if let Some(rest) = inner.strip_prefix('b').or_else(|| inner.strip_prefix('B')) {
        if let Some((bar, off)) = rest.split_once('+') {
            let bar = parse_number(bar)?;
            let offset = parse_number(off)?;
            return Ok(Operand::indexed(bar, offset));
        }
        // `[bN]` with no offset.
        if let Ok(bar) = parse_number(rest) {
            return Ok(Operand::indexed(bar, 0));
        }
    }
    Ok(Operand::direct(parse_number(inner)?))
}

fn parse_target(s: &str, labels: &BTreeMap<String, u8>) -> Result<u8, AsmErrorKind> {
    let s = s.trim();
    if let Some(&addr) = labels.get(s) {
        return Ok(addr);
    }
    if is_ident(s) {
        return Err(AsmErrorKind::UndefinedLabel(s.to_string()));
    }
    parse_number(s)
}

fn parse_mask(s: &str) -> Result<u8, AsmErrorKind> {
    let s = s.trim();
    if let Some(num) = s.strip_prefix('#') {
        return parse_number(num);
    }
    let mut mask = 0u8;
    for ch in s.chars() {
        mask |= match ch.to_ascii_uppercase() {
            'C' => Flags::C,
            'Z' => Flags::Z,
            'S' => Flags::S,
            'V' => Flags::V,
            _ => return Err(AsmErrorKind::BadOperand(s.to_string())),
        };
    }
    Ok(mask)
}

fn parse_statement(
    mnemonic: &str,
    rest: &str,
    addr: u8,
    labels: &BTreeMap<String, u8>,
) -> Result<Instruction, AsmErrorKind> {
    let ops = split_operands(rest);
    let upper = mnemonic.to_ascii_uppercase();

    let binary_alu = |op: AluOp| -> Result<Instruction, AsmErrorKind> {
        if ops.len() != 2 {
            return Err(AsmErrorKind::BadOperands(format!(
                "{upper} takes 2 operands, got {}",
                ops.len()
            )));
        }
        Ok(Instruction::Alu {
            op,
            dst: parse_memory_operand(ops[0])?,
            src: parse_memory_operand(ops[1])?,
        })
    };

    match upper.as_str() {
        "ADD" => binary_alu(AluOp::Add),
        "ADC" => binary_alu(AluOp::Adc),
        "SUB" => binary_alu(AluOp::Sub),
        "SBB" => binary_alu(AluOp::Sbb),
        "CMP" => binary_alu(AluOp::Cmp),
        "AND" => binary_alu(AluOp::And),
        "TEST" => binary_alu(AluOp::Test),
        "OR" => binary_alu(AluOp::Or),
        "XOR" => binary_alu(AluOp::Xor),
        "NOT" => binary_alu(AluOp::Not),
        "RL" => binary_alu(AluOp::Rl),
        "RLC" => binary_alu(AluOp::Rlc),
        "RR" => binary_alu(AluOp::Rr),
        "RRC" => binary_alu(AluOp::Rrc),
        "RRA" => binary_alu(AluOp::Rra),
        "STORE" => {
            if ops.len() != 2 {
                return Err(AsmErrorKind::BadOperands("STORE takes [mem], #imm".into()));
            }
            Ok(Instruction::Store {
                dst: parse_memory_operand(ops[0])?,
                imm: parse_immediate(ops[1])?,
            })
        }
        "SETBAR" => {
            if ops.len() != 2 {
                return Err(AsmErrorKind::BadOperands("SETBAR takes bN, #imm".into()));
            }
            let bar_text = ops[0]
                .strip_prefix('b')
                .or_else(|| ops[0].strip_prefix('B'))
                .ok_or_else(|| AsmErrorKind::BadOperand(ops[0].to_string()))?;
            Ok(Instruction::SetBar { bar: parse_number(bar_text)?, imm: parse_immediate(ops[1])? })
        }
        "BR" | "BRN" => {
            if ops.len() != 2 {
                return Err(AsmErrorKind::BadOperands(format!("{upper} takes target, flags")));
            }
            Ok(Instruction::Branch {
                negate: upper == "BRN",
                target: parse_target(ops[0], labels)?,
                mask: parse_mask(ops[1])?,
            })
        }
        "JMP" => {
            if ops.len() != 1 {
                return Err(AsmErrorKind::BadOperands("JMP takes a target".into()));
            }
            Ok(Instruction::jump(parse_target(ops[0], labels)?))
        }
        "HALT" => {
            if !ops.is_empty() {
                return Err(AsmErrorKind::BadOperands("HALT takes no operands".into()));
            }
            Ok(Instruction::jump(addr))
        }
        other => Err(AsmErrorKind::UnknownMnemonic(other.to_string())),
    }
}

/// Renders an annotated listing: address, encoded ROM word, and
/// disassembly — what a print shop would archive next to the crosspoint
/// mask.
///
/// # Errors
///
/// Returns an [`crate::isa::IsaError`] if an instruction does not fit the
/// encoding.
pub fn annotated_listing(
    instructions: &[Instruction],
    encoding: &crate::isa::Encoding,
) -> Result<String, crate::isa::IsaError> {
    let mut out = String::new();
    for (addr, &inst) in instructions.iter().enumerate() {
        let word = encoding.encode(inst)?;
        out.push_str(&format!("{addr:3}  {word:06X}  {inst}\n"));
    }
    Ok(out)
}

/// Disassembles a program back to text (labels are synthesized as `L<n>`
/// for branch targets).
pub fn disassemble(instructions: &[Instruction]) -> String {
    use std::collections::BTreeSet;
    let targets: BTreeSet<u8> = instructions
        .iter()
        .filter_map(|inst| match inst {
            Instruction::Branch { target, .. } => Some(*target),
            _ => None,
        })
        .collect();
    let mut out = String::new();
    for (i, inst) in instructions.iter().enumerate() {
        if targets.contains(&(i as u8)) {
            out.push_str(&format!("L{i}:\n"));
        }
        out.push_str(&format!("    {inst}\n"));
    }
    out
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::sim::Machine;

    #[test]
    fn assembles_and_runs_a_countdown() {
        let prog = assemble(
            "
            ; count mem[2] up while counting mem[0] down
                STORE [0], #5
                STORE [1], #1
                STORE [2], #0
            loop:
                ADD [2], [1]
                SUB [0], [1]
                BRN loop, Z
                HALT
            ",
        )
        .unwrap();
        assert_eq!(prog.label("loop"), Some(3));
        let mut m = Machine::new(CoreConfig::default(), prog.instructions, 16);
        m.run(10_000).unwrap();
        assert_eq!(m.dmem().read(2).unwrap(), 5);
    }

    #[test]
    fn parses_all_operand_forms() {
        let prog = assemble(
            "
                SETBAR b1, #0x20
                ADD [b1+3], [7]
                STORE [b1+0], #0xFF
                BR 2, CZ
                BRN 0, #0b0
            ",
        );
        // 0b0 isn't supported; expect an error on that line.
        assert!(prog.is_err());
        let prog = assemble(
            "
                SETBAR b1, #0x20
                ADD [b1+3], [7]
                STORE [b1+0], #0xFF
                BR 2, CZ
                BRN 0, #0
            ",
        )
        .unwrap();
        assert_eq!(prog.instructions.len(), 5);
        assert_eq!(
            prog.instructions[1],
            Instruction::Alu {
                op: AluOp::Add,
                dst: Operand::indexed(1, 3),
                src: Operand::direct(7)
            }
        );
        assert_eq!(
            prog.instructions[3],
            Instruction::Branch { negate: false, target: 2, mask: Flags::C | Flags::Z }
        );
    }

    #[test]
    fn halt_expands_to_branch_to_self() {
        let prog = assemble("STORE [0], #1\nHALT").unwrap();
        assert_eq!(prog.instructions[1], Instruction::jump(1));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = assemble("STORE [0], #1\nFROB [0], [1]").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, AsmErrorKind::UnknownMnemonic(_)));

        let err = assemble("BR nowhere, Z").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::UndefinedLabel(_)));

        let err = assemble("dup:\ndup:\n  HALT").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::DuplicateLabel(_)));

        let err = assemble("STORE [0], #999").unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::BadNumber(_)));
    }

    #[test]
    fn rejects_over_long_programs() {
        let mut src = String::new();
        for _ in 0..257 {
            src.push_str("STORE [0], #0\n");
        }
        let err = assemble(&src).unwrap_err();
        assert!(matches!(err.kind, AsmErrorKind::ProgramTooLong(_)));
    }

    #[test]
    fn annotated_listing_shows_words_and_text() {
        let prog = assemble("STORE [0], #5\nADD [0], [1]\nHALT").unwrap();
        let listing =
            annotated_listing(&prog.instructions, &crate::isa::Encoding::with_bars(2)).unwrap();
        let lines: Vec<&str> = listing.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("STORE"));
        assert!(lines[1].contains("ADD"));
        // Each line carries a 6-hex-digit ROM word.
        for line in &lines {
            let word = line.split_whitespace().nth(1).unwrap();
            assert_eq!(word.len(), 6, "{line}");
            assert!(u32::from_str_radix(word, 16).is_ok());
        }
    }

    #[test]
    fn disassembly_round_trips_through_the_assembler() {
        let src = "
            STORE [0], #5
            STORE [1], #1
        top:
            SUB [0], [1]
            BRN top, Z
            HALT
        ";
        let prog = assemble(src).unwrap();
        let listing = disassemble(&prog.instructions);
        // The listing must itself mention the synthesized label.
        assert!(listing.contains("L2:"));
    }
}
