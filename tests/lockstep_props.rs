//! Property tests for the differential-validation layer: lockstep
//! equivalence of the 8080 ⊂ Z80 subset over random programs.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::baselines::diff::{run_lockstep, I8080Side, LockstepOptions, Z80Side};
use proptest::prelude::*;

/// A straight-line 8080 instruction from a Z80-shared subset (no jumps,
/// so a program of these always retires each instruction exactly once).
fn straightline_op() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // MVI r,d8 (r = B,C,D,E,H,L,A — not M, so HL never clobbers
        // the program image mid-run in surprising ways).
        (0u8..7, any::<u8>()).prop_map(|(r, d)| {
            let code = [0x06, 0x0E, 0x16, 0x1E, 0x26, 0x2E, 0x3E][r as usize];
            vec![code, d]
        }),
        // MOV r,r over the register file (excluding memory operands and
        // 0x76 HLT).
        (0u8..7, 0u8..7).prop_map(|(d, s)| {
            let dst = [0, 1, 2, 3, 4, 5, 7][d as usize];
            let src = [0, 1, 2, 3, 4, 5, 7][s as usize];
            vec![0x40 | dst << 3 | src]
        }),
        // ALU A,r: ADD/ADC/SUB/SBB/ANA/XRA/ORA/CMP.
        (0u8..8, 0u8..7).prop_map(|(op, s)| {
            let src = [0, 1, 2, 3, 4, 5, 7][s as usize];
            vec![0x80 | op << 3 | src]
        }),
        // INR/DCR r.
        (0u8..7, any::<bool>()).prop_map(|(r, dec)| {
            let base = [0x04, 0x0C, 0x14, 0x1C, 0x24, 0x2C, 0x3C][r as usize];
            vec![base + if dec { 1 } else { 0 }]
        }),
        // Rotates and flag ops: RLC RRC RAL RAR CMA STC CMC.
        (0u8..7).prop_map(|i| vec![[0x07, 0x0F, 0x17, 0x1F, 0x2F, 0x37, 0x3F][i as usize]]),
        // 16-bit INX/DCX/DAD over B,D,H.
        (0u8..3, 0u8..3).prop_map(|(p, k)| {
            let pair = [0x00, 0x10, 0x20][p as usize];
            vec![[0x03, 0x0B, 0x09][k as usize] | pair]
        }),
    ]
}

/// Assembles a random straight-line program ending in HLT.
fn program_8080() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(straightline_op(), 1..40).prop_map(|ops| {
        let mut image: Vec<u8> = ops.into_iter().flatten().collect();
        image.push(0x76);
        image
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn i8080_and_z80_stay_in_lockstep_on_random_programs(image in program_8080()) {
        let mut a = I8080Side::new(0x100, &image).normalized_to_z80();
        let mut b = Z80Side::new(0x100, &image);
        let stats = run_lockstep(&mut a, &mut b, &LockstepOptions::default())
            .unwrap_or_else(|report| panic!("{report}"));
        prop_assert!(stats.halted);
        prop_assert!(stats.steps > 0);
    }
}
