//! Random TP-ISA program generator shared by the oracles that run
//! generated programs: the bitsliced-vs-scalar campaign suite
//! (`crates/core/tests/campaign_props.rs`) and the word-vs-scalar
//! lockstep suite (`tests/lockstep_props.rs`).
//!
//! Operand offsets and BAR bases reach 15 each, so a program addresses
//! words 0..=30: past a small data memory, both in-range and
//! out-of-range traffic occurs.

use printed_core::{AluOp, Instruction, Operand};
use proptest::prelude::*;

/// One instruction before branch targets are resolved: `Branch`
/// targets are a raw pick, reduced modulo the program length (so loops,
/// forward skips and self-branch halts all occur).
pub fn instruction() -> impl Strategy<Value = Instruction> {
    let operand = (0u8..2, 0u8..16).prop_map(|(bar, offset)| Operand { bar, offset });
    prop_oneof![
        (prop::sample::select(AluOp::ALL.to_vec()), operand.clone(), operand.clone())
            .prop_map(|(op, dst, src)| Instruction::Alu { op, dst, src }),
        (operand, 0u8..16).prop_map(|(dst, imm)| Instruction::Store { dst, imm }),
        (0u8..16).prop_map(|imm| Instruction::SetBar { bar: 1, imm }),
        (any::<bool>(), any::<u8>(), 0u8..16)
            .prop_map(|(negate, target, mask)| Instruction::Branch { negate, target, mask }),
    ]
}

/// A program ending in a self-branch halt, with every branch target
/// inside the program.
pub fn program(body: Vec<Instruction>) -> Vec<Instruction> {
    let mut program = body;
    let halt_at = program.len() as u8;
    program.push(Instruction::jump(halt_at));
    let len = program.len() as u8;
    for inst in &mut program {
        if let Instruction::Branch { target, .. } = inst {
            *target %= len;
        }
    }
    program
}

/// `program` with every backward branch retargeted to the next
/// instruction, so the golden run surely halts (self-branches stay).
pub fn forward_only(program: &[Instruction]) -> Vec<Instruction> {
    let mut program = program.to_vec();
    for (at, inst) in program.iter_mut().enumerate() {
        if let Instruction::Branch { target, .. } = inst {
            if usize::from(*target) < at {
                *target = at as u8 + 1;
            }
        }
    }
    program
}
