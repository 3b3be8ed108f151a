//! Property-based verification of the fault-injection campaign engine:
//! campaigns are pure functions of (netlist, workload, config) — the same
//! seed must reproduce the same classifications, byte for byte.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::fault::{
    run_campaign, CampaignConfig, FaultKind, PatternWorkload, StuckAtSpace,
};
use printed_netlist::{words, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// A small registered datapath with feedback: acc' = acc + in.
fn accumulator(width: usize) -> Netlist {
    let mut b = NetlistBuilder::new("acc");
    let inputs = b.input("in", width);
    let acc = b.forward_bus(width);
    let cin = b.const0();
    let sum = words::ripple_adder(&mut b, &acc, &inputs, cin);
    for (d, q) in sum.sum.iter().zip(&acc) {
        b.dff_into(*d, *q);
    }
    b.output("acc", acc);
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn identical_seeds_give_identical_campaigns(
        width in 2usize..=4,
        campaign_seed: u64,
        workload_seed: u64,
    ) {
        let nl = accumulator(width);
        let workload = PatternWorkload { cycles: 6, seed: workload_seed };
        let config = CampaignConfig {
            cycle_budget: 64,
            stuck_at: StuckAtSpace::Sampled(10),
            seu_samples: 4,
            seed: campaign_seed,
        };
        let a = run_campaign(&nl, &workload, &config, 1).unwrap();
        let b = run_campaign(&nl, &workload, &config, 1).unwrap();
        prop_assert_eq!(a.counts(), b.counts());
        prop_assert_eq!(a.stuck_counts(), b.stuck_counts());
        prop_assert_eq!(a.seu_counts(), b.seu_counts());
        prop_assert_eq!(a.by_cell_class(), b.by_cell_class());
        prop_assert_eq!(a.to_csv(), b.to_csv(), "byte-identical CSV per seed");
    }

    #[test]
    fn exhaustive_campaigns_cover_both_polarities_of_every_gate(
        width in 2usize..=3,
        workload_seed: u64,
    ) {
        let nl = accumulator(width);
        let workload = PatternWorkload { cycles: 4, seed: workload_seed };
        let config = CampaignConfig {
            cycle_budget: 64,
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 0,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&nl, &workload, &config, 1).unwrap();
        prop_assert_eq!(result.runs.len(), 2 * nl.gate_count());
        for gate in 0..nl.gate_count() {
            let polarities: Vec<FaultKind> = result
                .runs
                .iter()
                .filter(|r| r.fault.gate.index() == gate)
                .map(|r| r.fault.kind)
                .collect();
            prop_assert_eq!(&polarities, &[FaultKind::StuckAt0, FaultKind::StuckAt1]);
        }
        // The classification partition always tiles the run set.
        let counts = result.counts();
        prop_assert_eq!(counts.total(), result.runs.len());
    }
}
