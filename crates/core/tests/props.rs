//! Property-based verification of TP-ISA: encoding round-trips, ALU
//! algebra, pipeline-invariance of architectural results, and ISS vs
//! gate-level equivalence on random programs.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_core::isa::alu_reference;
use printed_core::kernels::split_words;
use printed_core::specific::{CoreSpec, NarrowEncoding};
use printed_core::{
    generate, AluOp, CoreConfig, Encoding, Flags, GateLevelMachine, Instruction, Machine, Operand,
};
use proptest::prelude::*;

/// Strategy helpers live in the test because the crate API shouldn't
/// export proptest machinery.
mod strategies {
    use super::*;

    pub fn alu_op() -> impl Strategy<Value = AluOp> {
        prop::sample::select(AluOp::ALL.to_vec())
    }

    pub fn operand(bars: u8) -> impl Strategy<Value = Operand> {
        let offset_bits = 8 - (bars as usize).next_power_of_two().trailing_zeros() as u8;
        (0..bars, 0u8..(1 << offset_bits.min(7))).prop_map(|(bar, offset)| Operand { bar, offset })
    }

    /// Any instruction at all, fields drawn from their whole range, so
    /// some do not encode for a given core.
    pub fn any_instruction() -> impl Strategy<Value = Instruction> {
        let operand = (0u8..8, any::<u8>()).prop_map(|(bar, offset)| Operand { bar, offset });
        prop_oneof![
            (alu_op(), operand.clone(), operand.clone())
                .prop_map(|(op, dst, src)| Instruction::Alu { op, dst, src }),
            (operand, any::<u8>()).prop_map(|(dst, imm)| Instruction::Store { dst, imm }),
            (0u8..8, any::<u8>()).prop_map(|(bar, imm)| Instruction::SetBar { bar, imm }),
            (any::<bool>(), any::<u8>(), any::<u8>())
                .prop_map(|(negate, target, mask)| Instruction::Branch { negate, target, mask }),
        ]
    }

    pub fn instruction(bars: u8) -> impl Strategy<Value = Instruction> {
        prop_oneof![
            (alu_op(), operand(bars), operand(bars)).prop_map(|(op, dst, src)| Instruction::Alu {
                op,
                dst,
                src
            }),
            (operand(bars), any::<u8>()).prop_map(|(dst, imm)| Instruction::Store { dst, imm }),
            (0..bars, any::<u8>()).prop_map(|(bar, imm)| Instruction::SetBar { bar, imm }),
            (any::<bool>(), any::<u8>(), 0u8..16)
                .prop_map(|(negate, target, mask)| Instruction::Branch { negate, target, mask }),
        ]
    }
}

use strategies::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encoding_round_trips(bars in prop::sample::select(vec![2u8, 4]), insts in prop::collection::vec(instruction(2), 1..32)) {
        // Operands generated for 2 BARs also fit the 4-BAR encoding only
        // if offsets are small; restrict via the 2-BAR generator and test
        // the matching encoding.
        let _ = bars;
        let enc = Encoding::with_bars(2);
        for &inst in &insts {
            let word = enc.encode(inst).unwrap();
            prop_assert!(word >> 24 == 0);
            prop_assert_eq!(enc.decode(word).unwrap(), inst);
        }
    }

    #[test]
    fn alu_add_sub_are_inverse(width in prop::sample::select(vec![4usize, 8, 16, 32]), a: u64, b: u64) {
        let m = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        let (sum, _) = alu_reference(AluOp::Add, a & m, b & m, false, width);
        let (back, _) = alu_reference(AluOp::Sub, sum, b & m, false, width);
        prop_assert_eq!(back, a & m);
    }

    #[test]
    fn alu_commutative_ops(width in prop::sample::select(vec![4usize, 8, 16, 32]), a: u64, b: u64, cin: bool) {
        for op in [AluOp::Add, AluOp::Adc, AluOp::And, AluOp::Or, AluOp::Xor] {
            let (r1, f1) = alu_reference(op, a, b, cin, width);
            let (r2, f2) = alu_reference(op, b, a, cin, width);
            prop_assert_eq!(r1, r2, "{:?}", op);
            prop_assert_eq!(f1, f2, "{:?}", op);
        }
    }

    #[test]
    fn alu_rotate_left_right_identity(width in prop::sample::select(vec![4usize, 8, 16, 32]), a: u64) {
        let (left, _) = alu_reference(AluOp::Rl, 0, a, false, width);
        let (back, _) = alu_reference(AluOp::Rr, 0, left, false, width);
        let m = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        prop_assert_eq!(back, a & m);
    }

    #[test]
    fn alu_carry_chains_compose(width in prop::sample::select(vec![4usize, 8, 16]), a: u64, b: u64) {
        // A 2-word add via ADD/ADC must equal a double-width add.
        let m = if width >= 64 { u64::MAX } else { (1 << width) - 1 };
        let (a0, a1) = (a & m, (a >> width) & m);
        let (b0, b1) = (b & m, (b >> width) & m);
        let (lo, f) = alu_reference(AluOp::Add, a0, b0, false, width);
        let (hi, _) = alu_reference(AluOp::Adc, a1, b1, f.c, width);
        let wide_mask = if 2 * width >= 64 { u64::MAX } else { (1 << (2 * width)) - 1 };
        let expected = ((a & wide_mask).wrapping_add(b & wide_mask)) & wide_mask;
        prop_assert_eq!(lo | hi << width, expected);
    }

    #[test]
    fn flags_bits_round_trip(bits in 0u8..16) {
        prop_assert_eq!(Flags::from_bits(bits).bits(), bits);
    }

    #[test]
    fn pipeline_depth_never_changes_results(insts in prop::collection::vec(instruction(2), 1..24), seed: u64) {
        // Straight-line prefix + halt: architectural results must be
        // identical across pipeline depths (stalls only add cycles).
        let mut program: Vec<Instruction> = insts
            .into_iter()
            .map(|i| match i {
                // Keep the program straight-line: branches become stores.
                Instruction::Branch { target, .. } => {
                    Instruction::Store { dst: Operand::direct(target & 0x3F), imm: 1 }
                }
                other => other,
            })
            .collect();
        let halt_at = program.len() as u8;
        program.push(Instruction::Branch { negate: true, target: halt_at, mask: 0 });

        let mut reference: Option<Vec<u64>> = None;
        let mut ref_cycles = 0;
        for stages in [1usize, 2, 3] {
            let config = CoreConfig::new(stages, 8, 2);
            let mut m = Machine::new(config, program.clone(), 256);
            let mut s = seed;
            for addr in 0..64 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                m.dmem_mut().write(addr, s & 0xFF).unwrap();
            }
            m.run(1_000_000).unwrap();
            let snapshot: Vec<u64> =
                (0..256).map(|a| m.dmem().read(a).unwrap()).collect();
            match &reference {
                None => {
                    reference = Some(snapshot);
                    ref_cycles = m.summary().cycles;
                }
                Some(r) => {
                    prop_assert_eq!(r, &snapshot, "stage count {} diverged", stages);
                    prop_assert!(m.summary().cycles >= ref_cycles, "deeper pipeline can't be faster in cycles");
                }
            }
        }
    }

    #[test]
    fn gate_level_matches_iss_on_random_programs(insts in prop::collection::vec(instruction(2), 1..20), seed: u64) {
        // Straight-line programs exercise the whole datapath; loops are
        // covered by the kernel suite.
        let mut program: Vec<Instruction> = insts
            .into_iter()
            .map(|i| match i {
                Instruction::Branch { target, .. } => {
                    Instruction::Store { dst: Operand::direct(target & 0x3F), imm: 7 }
                }
                other => other,
            })
            .collect();
        let halt_at = program.len() as u8;
        program.push(Instruction::Branch { negate: true, target: halt_at, mask: 0 });

        let config = CoreConfig::new(1, 8, 2);
        let spec = CoreSpec::standard(config);
        let netlist = generate(&spec);
        let enc = config.encoding();
        let words: Vec<u64> = program.iter().map(|&i| enc.encode(i).unwrap() as u64).collect();

        let mut iss = Machine::new(config, program.clone(), 256);
        let mut gate = GateLevelMachine::new(&netlist, spec, words, 256).unwrap();
        let mut s = seed;
        for addr in 0..128usize {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            iss.dmem_mut().write(addr, s & 0xFF).unwrap();
            gate.write_dmem(addr, s & 0xFF);
        }
        iss.run(10_000).unwrap();
        gate.run(10_000).unwrap();
        prop_assert!(gate.is_halted());
        for addr in 0..256 {
            prop_assert_eq!(
                gate.dmem()[addr],
                iss.dmem().read(addr).unwrap(),
                "dmem[{}]", addr
            );
        }
        prop_assert_eq!(gate.flags(), iss.flags());
    }

    #[test]
    fn narrow_encoding_always_covers_its_own_program(insts in prop::collection::vec(instruction(2), 1..40)) {
        // The Section 7 analysis must produce a spec whose narrowed
        // encoding can hold every instruction of the analyzed program.
        let mut program = insts;
        let halt_at = program.len() as u8;
        program.push(Instruction::Branch { negate: true, target: halt_at, mask: 0 });
        // Branch targets must be inside the program for the analysis to
        // make sense; clamp them.
        let len = program.len() as u8;
        for inst in &mut program {
            if let Instruction::Branch { target, .. } = inst {
                *target %= len;
            }
        }
        let spec = CoreSpec::program_specific(CoreConfig::new(1, 8, 2), &program, "prop");
        let enc = NarrowEncoding::new(spec.clone());
        let words = enc.encode_program(&program);
        prop_assert!(words.is_ok(), "{:?}", words.err());
        for w in words.unwrap() {
            prop_assert_eq!(w >> spec.instruction_bits(), 0);
        }
    }

    #[test]
    fn the_standard_spec_encodes_like_the_standard_encoding(
        // The design space plus its 1-BAR points, which print no BAR.
        config in prop::sample::select(
            CoreConfig::design_space()
                .into_iter()
                .flat_map(|c| [c, CoreConfig::new(c.pipeline_stages, c.datawidth, 1)])
                .collect::<Vec<_>>()
        ),
        insts in prop::collection::vec(any_instruction(), 1..32),
    ) {
        // The ROM encoder the co-simulating machines use is the narrow
        // one; on a design point's standard spec it must produce the
        // standard format's words and reject what the standard format
        // rejects, with the same error.
        let standard = config.encoding();
        let narrow = NarrowEncoding::new(CoreSpec::standard(config));
        for &inst in &insts {
            let expected = standard.encode(inst).map(u64::from);
            prop_assert_eq!(narrow.encode(inst), expected, "{}", inst);
        }
        let program: Result<Vec<u64>, _> =
            insts.iter().map(|&inst| standard.encode(inst).map(u64::from)).collect();
        prop_assert_eq!(narrow.encode_program(&insts), program);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_words(word in 0u32..(1 << 24)) {
        // Arbitrary 24-bit words either decode to a valid instruction
        // (which must re-encode to the same word) or return a typed error.
        let enc = Encoding::with_bars(2);
        if let Ok(inst) = enc.decode(word) {
            let back = enc.encode(inst).expect("decoded instructions re-encode");
            prop_assert_eq!(back, word);
        }
    }

    #[test]
    fn split_join_words_round_trip(v: u64, width in prop::sample::select(vec![4usize, 8, 16, 32]), n in 1usize..=8) {
        let bits = (width * n).min(64);
        let m = if bits >= 64 { u64::MAX } else { (1 << bits) - 1 };
        let words = split_words(v & m, width, n);
        prop_assert_eq!(printed_core::kernels::join_words(&words, width), v & m);
    }
}
