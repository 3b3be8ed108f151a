//! Property tests for the differential-validation layer: lockstep
//! equivalence of the 8080 ⊂ Z80 subset over random programs, and the
//! word-path ISS-vs-gate-level lockstep (`eval::lockstep::diff_programs`)
//! checked against the scalar `diff_kernel` row of every program.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
#[path = "../crates/core/tests/support/programs.rs"]
mod programs;

use printed_microprocessors::baselines::diff::{run_lockstep, I8080Side, LockstepOptions, Z80Side};
use printed_microprocessors::core::kernels::{Kernel, KernelProgram};
use printed_microprocessors::core::{generate, CoreConfig, CoreSpec, Instruction};
use printed_microprocessors::eval::lockstep::{diff_programs, scalar_diff_row, DiffRow};
use printed_microprocessors::netlist::Netlist;
use programs::{forward_only, instruction, program};
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

/// One random program's raw draw: body, data-memory words, input bytes,
/// expected result words, and whether backward branches are made
/// forward.
type ProgramDraw = (Vec<Instruction>, usize, Vec<u8>, Vec<u8>, bool);

/// A random program's draw. Memories of 4..=16 words put the
/// generator's addresses (0..=30) both in and out of range, so some ISS
/// runs stop with a memory error; backward branches loop until
/// `max_steps` cuts them off unless made forward.
fn program_draw() -> impl Strategy<Value = ProgramDraw> {
    (
        prop::collection::vec(instruction(), 1..14),
        4usize..17,
        prop::collection::vec(any::<u8>(), 16),
        prop::collection::vec(0u8..16, 2),
        any::<bool>(),
    )
}

/// The draw as a kernel for a `width`-bit core, its inputs filling its
/// memory and its result the first two words.
fn kernel_program(index: usize, width: usize, draw: ProgramDraw) -> KernelProgram {
    let (body, dmem_words, inputs, expected, forward) = draw;
    let instructions = program(body);
    let instructions = if forward { forward_only(&instructions) } else { instructions };
    KernelProgram {
        name: format!("prog{index}"),
        kernel: Kernel::Mult,
        core_width: width,
        data_width: width,
        instructions,
        dmem_words,
        inputs: inputs
            .iter()
            .take(dmem_words)
            .enumerate()
            .map(|(a, &v)| (a as u8, v.into()))
            .collect(),
        result: (0, 2),
        expected: expected.into_iter().map(u64::from).collect(),
    }
}

/// The `width`-bit standard core, or one whose data addresses wrap at 8
/// words: on it, writes past word 7 land elsewhere than the ISS's, so
/// runs diverge, often in memory alone.
fn core(width: usize, narrow: bool) -> (CoreConfig, Netlist) {
    let config = CoreConfig::new(1, width, 2);
    let standard = CoreSpec::standard(config);
    let spec = if narrow { CoreSpec { dmem_words: 8, ..standard } } else { standard };
    (config, generate(&spec))
}

/// Runs `programs` through the word path and checks every row against
/// its scalar run, and the rerun count against the rows that did not
/// end cleanly halted. Returns the rows.
fn check_against_scalar(
    netlist: &Netlist,
    config: CoreConfig,
    programs: &[KernelProgram],
    options: &LockstepOptions,
) -> Vec<DiffRow> {
    let (rows, work) = diff_programs(netlist, programs, config, options);
    assert_eq!(rows.len(), programs.len());
    for (row, program) in rows.iter().zip(programs) {
        let scalar = scalar_diff_row(netlist, program, config, options);
        assert_eq!(
            *row,
            scalar,
            "{} on {}: {:?}",
            program.name,
            config.name(),
            program.instructions
        );
    }
    let unclean = rows.iter().filter(|r| r.divergence.is_some() || !r.halted).count();
    assert_eq!(work.scalar_reruns, unclean as u64, "one rerun per program not ending cleanly");
    assert_eq!(work.words, programs.len().div_ceil(64) as u64);
    assert!(work.word_cycles <= work.words * options.max_steps);
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 1 to 64 random programs share one word; each row — steps,
    /// cycles, halt, result, and the rendered divergence text — equals
    /// the program's own scalar `diff_kernel` row.
    #[test]
    fn word_lockstep_matches_scalar_rows_on_random_programs(
        draws in prop::collection::vec(program_draw(), 1..=64),
        width in prop::sample::select(vec![4usize, 8]),
        narrow in any::<bool>(),
        max_steps in prop::sample::select(vec![0u64, 1, 3, 12, 40, 150]),
        window in 1usize..10,
        compare_cycles in any::<bool>(),
    ) {
        let (config, netlist) = core(width, narrow);
        let programs: Vec<KernelProgram> =
            draws.into_iter().enumerate().map(|(i, draw)| kernel_program(i, width, draw)).collect();
        let options = LockstepOptions { max_steps, trace_window: window, compare_cycles };
        check_against_scalar(&netlist, config, &programs, &options);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// More than 64 programs take two words; the batch holds clean
    /// halts, ISS memory errors, memory-only divergences and runs cut
    /// off by `max_steps`, and every row still equals its scalar row.
    #[test]
    fn word_lockstep_spills_past_64_programs_into_a_second_word(
        draws in prop::collection::vec(program_draw(), 65..=90),
    ) {
        let (config, netlist) = core(8, true);
        let programs: Vec<KernelProgram> =
            draws.into_iter().enumerate().map(|(i, draw)| kernel_program(i, 8, draw)).collect();
        let options = LockstepOptions { max_steps: 40, ..LockstepOptions::default() };
        let rows = check_against_scalar(&netlist, config, &programs, &options);
        let has = |text: &str| rows.iter().any(|r| r.divergence.as_deref().is_some_and(|d| d.contains(text)));
        prop_assert!(rows.iter().any(|r| r.halted && r.divergence.is_none()), "a clean halt");
        prop_assert!(rows.iter().any(|r| !r.halted && r.divergence.is_none()), "a cut-off run");
        prop_assert!(has("data memory fault"), "an ISS memory error");
        prop_assert!(has("memory digests differ"), "a memory-only divergence");
    }
}
