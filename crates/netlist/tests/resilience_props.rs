//! Property-based verification of the supervised campaign runner's
//! watchdog: deadline trips classify as `hang` deterministically, and
//! arming a watchdog never changes the classification of any slot that
//! did not time out.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::fault::{
    run_campaign, CampaignConfig, Outcome, PatternWorkload, StuckAtSpace,
};
use printed_netlist::resilience::{run_supervised_campaign_with_threads, ResilienceConfig};
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

    /// For any watchdog deadline, the supervised campaign is a pure
    /// function of its inputs, every timeout classifies as `hang`, and
    /// every slot that did not time out keeps the exact outcome the
    /// unsupervised campaign gives it — so masked/detected/sdc tallies
    /// only ever lose slots to `hang`, never trade them around.
    #[test]
    fn watchdog_trips_are_deterministic_hangs_and_leave_other_slots_alone(
        width in 2usize..=4,
        campaign_seed: u64,
        workload_seed: u64,
        watchdog in 1u64..=12,
        threads in 1usize..=4,
    ) {
        let nl = accumulator(width);
        let workload = PatternWorkload { cycles: 6, seed: workload_seed };
        let config = CampaignConfig {
            cycle_budget: 64,
            stuck_at: StuckAtSpace::Sampled(10),
            seu_samples: 4,
            seed: campaign_seed,
        };
        let plain = run_campaign(&nl, &workload, &config).unwrap();

        let resilience =
            ResilienceConfig { watchdog_cycles: Some(watchdog), ..ResilienceConfig::default() };
        let supervised = |threads| {
            run_supervised_campaign_with_threads(&nl, &workload, &config, &resilience, threads)
                .unwrap()
                .into_complete()
                .expect("no abort hook: run completes")
        };
        let a = supervised(threads);
        let b = supervised(threads);

        // Determinism: same inputs, byte-identical campaign and stats.
        prop_assert_eq!(a.result.to_csv(), b.result.to_csv());
        prop_assert_eq!(a.stats.timeouts, b.stats.timeouts);
        prop_assert_eq!(a.stats.failed, 0, "watchdog trips are hangs, not failures");

        // Every slot either kept its unsupervised outcome or was timed
        // out into a hang; the changed-slot count is exactly the
        // timeout count the stats report.
        prop_assert_eq!(a.result.runs.len(), plain.runs.len());
        let mut changed = 0u64;
        for (s, p) in a.result.runs.iter().zip(&plain.runs) {
            prop_assert_eq!(s.fault, p.fault, "slot order is the fault enumeration order");
            if s.outcome != p.outcome {
                prop_assert_eq!(
                    s.outcome,
                    Outcome::Hang,
                    "a watchdog can only reclassify a slot as hang (was {:?})",
                    p.outcome
                );
                changed += 1;
            }
        }
        prop_assert!(
            changed <= a.stats.timeouts,
            "{changed} reclassified slots but only {} timeouts",
            a.stats.timeouts
        );

        // Non-hang tallies never grow under a watchdog.
        let (pc, sc) = (plain.counts(), a.result.counts());
        prop_assert!(sc.masked <= pc.masked);
        prop_assert!(sc.detected <= pc.detected);
        prop_assert!(sc.sdc <= pc.sdc);
        prop_assert_eq!(sc.total(), pc.total());

        // A generous deadline is a no-op: the supervised campaign is
        // byte-identical to the unsupervised one.
        let roomy =
            ResilienceConfig { watchdog_cycles: Some(1_000), ..ResilienceConfig::default() };
        let free = run_supervised_campaign_with_threads(&nl, &workload, &config, &roomy, threads)
            .unwrap()
            .into_complete()
            .expect("no abort hook: run completes");
        prop_assert_eq!(free.result.to_csv(), plain.to_csv());
        prop_assert_eq!(free.stats.timeouts, 0);
    }
}
