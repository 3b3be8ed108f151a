//! Random-program oracle for the bitsliced co-simulation harness.
//!
//! The bitsliced campaign engine runs the instruction ROM, data memory
//! and halt detection word-wide, once per distinct pc/address value
//! among 64 lanes. Its per-lane rules — out-of-range pcs fetch 0,
//! out-of-range addresses read 0 and drop their writes, a write needs
//! `we == 1`, halted lanes write nothing — must match the scalar
//! machine's exactly. This suite checks that on random TP-ISA programs
//! with in- and out-of-range loads and stores, conditional branches,
//! self-branch halts, and loops that run faulty lanes out of the cycle
//! budget: the bitsliced campaign CSV must equal the scalar engine's (a
//! `ScalarOnly` campaign) on 4- and 8-bit standard, program-specific and
//! TMR single-cycle cores. A campaign runs one representative per fault
//! class, so each of its slots must also match `classify_fault` run on
//! that slot's own fault.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
#[path = "support/programs.rs"]
mod programs;

use printed_core::workload::ProgramWorkload;
use printed_core::{generate, generate_standard, CoreConfig, CoreSpec, Instruction};
use printed_netlist::fault::{
    classify_fault, run_campaign, CampaignConfig, ScalarOnly, StuckAtSpace,
};
use printed_netlist::{tmr, Netlist};
use programs::{forward_only, instruction, program};
use proptest::prelude::*;

/// Data memory words the workload models: operand offsets and BAR bases
/// reach past it, so both in-range and out-of-range traffic occurs.
const DMEM_WORDS: usize = 12;

/// Which single-cycle core a case runs on.
#[derive(Debug, Clone, Copy)]
enum Core {
    Standard,
    ProgramSpecific,
    Tmr,
}

/// The core netlist and its workload, or `None` when the program does
/// not encode for the core.
fn core(kind: Core, width: usize, program: &[Instruction]) -> Option<(Netlist, ProgramWorkload)> {
    let config = CoreConfig::new(1, width, 2);
    match kind {
        Core::Standard => Some((
            generate_standard(&config),
            ProgramWorkload::new(config, program, DMEM_WORDS).ok()?,
        )),
        Core::ProgramSpecific => {
            let spec = CoreSpec::program_specific(config, program, "prop");
            let netlist = generate(&spec);
            Some((netlist, ProgramWorkload::for_spec(spec, program, DMEM_WORDS).ok()?))
        }
        Core::Tmr => {
            let hardened = tmr(&generate_standard(&config)).ok()?;
            Some((hardened, ProgramWorkload::new(config, program, DMEM_WORDS).ok()?))
        }
    }
}

/// Runs one random program as a campaign on both engines and compares
/// them: byte-identical CSVs, or the same error when the golden run
/// itself never halts. Returns whether the campaign ran; a program that
/// does not encode for the core panics.
fn check(
    kind: Core,
    width: usize,
    program: &[Instruction],
    inputs: &[u8],
    stuck: usize,
    seus: usize,
    seed: u64,
) -> bool {
    let (netlist, workload) = core(kind, width, program).expect("every generated program encodes");
    let workload =
        workload.with_inputs(inputs.iter().enumerate().map(|(a, &v)| (a, u64::from(v))).collect());
    let config = CampaignConfig {
        stuck_at: StuckAtSpace::Sampled(stuck),
        seu_samples: seus,
        cycle_budget: 120,
        seed,
    };
    let scalar = run_campaign(&netlist, &ScalarOnly(&workload), &config, 1);
    let bits = run_campaign(&netlist, &workload, &config, 1);
    match (scalar, bits) {
        (Ok(scalar), Ok(bits)) => {
            let context = format!("{kind:?} {width}-bit core, program {program:?}");
            assert_eq!(bits.to_csv(), scalar.to_csv(), "{context}");
            true
        }
        (Err(scalar), Err(bits)) => {
            assert_eq!(bits.to_string(), scalar.to_string());
            false
        }
        (scalar, bits) => panic!("engines disagree: {:?} vs {:?}", scalar.err(), bits.err()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random programs whose golden run halts are compared as they are;
    /// the others (a loop the golden run never leaves) are compared as
    /// given — both engines must fail alike — and then again with their
    /// backward branches made forward, so every case runs a campaign.
    #[test]
    fn bitsliced_campaign_matches_scalar_on_random_programs(
        body in prop::collection::vec(instruction(), 1..14),
        kind in prop::sample::select(vec![Core::Standard, Core::ProgramSpecific, Core::Tmr]),
        width in prop::sample::select(vec![4usize, 8]),
        inputs in prop::collection::vec(any::<u8>(), DMEM_WORDS),
        stuck in 1usize..90,
        seus in 0usize..40,
        seed in any::<u64>(),
    ) {
        let program = program(body);
        if !check(kind, width, &program, &inputs, stuck, seus, seed) {
            let forward = forward_only(&program);
            prop_assert!(check(kind, width, &forward, &inputs, stuck, seus, seed), "{:?}", forward);
        }
    }
}

/// Runs one random program as a campaign at 1 and 2 workers and checks
/// every slot against `classify_fault` on the slot's own fault. Returns
/// whether the campaign ran (its golden run halted).
fn check_oracle(
    kind: Core,
    program: &[Instruction],
    stuck_at: StuckAtSpace,
    seus: usize,
    seed: u64,
) -> bool {
    let (netlist, workload) = core(kind, 4, program).expect("every generated program encodes");
    let config = CampaignConfig { stuck_at, seu_samples: seus, cycle_budget: 120, seed };
    for threads in [1, 2] {
        let Ok(run) = run_campaign(&netlist, &workload, &config, threads) else {
            return false;
        };
        for (slot, r) in run.runs.iter().enumerate() {
            let oracle = classify_fault(&netlist, &workload, r.fault, config.cycle_budget)
                .expect("the campaign's golden run completed");
            assert_eq!(
                r.outcome, oracle,
                "slot {slot} ({}) of {} classes, {threads} workers, {kind:?} core, program \
                 {program:?}",
                r.fault, run.classes
            );
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-fault oracle for fault classes on random programs: the
    /// exhaustive stuck-at space of a 4-bit core (every structural pair
    /// of the netlist) or a sampled one drawn with replacement, plus
    /// SEUs, which repeat often over a short program's few cycles.
    #[test]
    fn every_slot_of_a_classed_campaign_matches_the_per_fault_oracle(
        body in prop::collection::vec(instruction(), 1..10),
        kind in prop::sample::select(vec![Core::Standard, Core::ProgramSpecific]),
        exhaustive in any::<bool>(),
        stuck in 1usize..200,
        seus in 0usize..80,
        seed in any::<u64>(),
    ) {
        let stuck_at = if exhaustive { StuckAtSpace::Exhaustive } else { StuckAtSpace::Sampled(stuck) };
        let program = program(body);
        if !check_oracle(kind, &program, stuck_at, seus, seed) {
            let forward = forward_only(&program);
            prop_assert!(check_oracle(kind, &forward, stuck_at, seus, seed), "{:?}", forward);
        }
    }
}
