//! Differential verification of the two simulation engines.
//!
//! The event-driven engine must be observationally indistinguishable from
//! the full-sweep reference: identical net values after every cycle,
//! identical toggle statistics (and therefore identical measured activity
//! factors for the power model), identical VCD waveforms, and identical
//! behavior under injected faults — while never evaluating more gates.
//! Separately, the parallel campaign scheduler must produce byte-identical
//! CSV output for any `PRINTED_SIM_THREADS` value.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::fault::{
    run_campaign, CampaignConfig, Fault, FaultKind, FaultMap, PatternWorkload, StuckAtSpace,
};
use printed_netlist::vcd::VcdRecorder;
use printed_netlist::{Engine, GateId, NetId, Netlist, NetlistBuilder, Simulator};
use proptest::prelude::*;

/// Builds a random sequential netlist from an op list: a 4-bit input bus,
/// a pool of derived nets (combinational ops, tri-state buffers), and
/// `n_dffs` flip-flops fed from the pool through forward nets, plus one
/// SR latch when the pool allows. Every op list yields a valid netlist.
fn random_netlist(ops: &[(u8, u8, u8)], n_dffs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("rand_seq");
    let inputs = b.input("x", 4);
    let ffs: Vec<NetId> = (0..n_dffs).map(|_| b.forward_net()).collect();
    let mut pool: Vec<NetId> = inputs;
    pool.extend(&ffs);
    pool.push(b.const0());
    pool.push(b.const1());
    for &(op, ai, bi) in ops {
        let a = pool[ai as usize % pool.len()];
        let bn = pool[bi as usize % pool.len()];
        let out = match op {
            0 => b.inv(a),
            1 => b.and2(a, bn),
            2 => b.or2(a, bn),
            3 => b.xor2(a, bn),
            4 => b.nand2(a, bn),
            5 => b.nor2(a, bn),
            6 => b.xnor2(a, bn),
            7 => b.tsbuf(a, bn),
            _ => b.latch(a, bn),
        };
        pool.push(out);
    }
    // Feed each flip-flop from a deterministic pool position.
    for (i, &q) in ffs.iter().enumerate() {
        let d = pool[(i * 7 + 3) % pool.len()];
        b.dff_into(d, q);
    }
    let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
    b.output("y", outs);
    b.output("state", ffs);
    b.finish().unwrap()
}

/// Builds a `FaultMap` from raw fault descriptors (gate index, kind
/// selector, cycle selector), all reduced modulo the netlist size.
fn random_faults(nl: &Netlist, raw: &[(u8, u8, u8)]) -> FaultMap {
    let mut map = FaultMap::new(nl);
    for &(gi, kind, cycle) in raw {
        let gate = GateId::from_index(gi as usize % nl.gate_count());
        let kind = match kind % 3 {
            0 => FaultKind::StuckAt0,
            1 => FaultKind::StuckAt1,
            _ => FaultKind::Seu { cycle: cycle as u64 % 8 },
        };
        map.add(Fault { gate, kind });
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_are_observationally_identical(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..40),
        n_dffs in 1usize..6,
        stim in prop::collection::vec(any::<u64>(), 1..12),
        raw_faults in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
    ) {
        let nl = random_netlist(&ops, n_dffs);
        let mut event = Simulator::new(&nl);
        let mut sweep = Simulator::with_engine(&nl, Engine::FullSweep);
        prop_assert_eq!(event.engine(), Engine::EventDriven);

        if !raw_faults.is_empty() {
            let faults = random_faults(&nl, &raw_faults);
            event.inject(faults.clone());
            sweep.inject(faults);
        }

        let mut vcd_event = VcdRecorder::new(&nl);
        let mut vcd_sweep = VcdRecorder::new(&nl);
        for &s in &stim {
            event.set_input("x", s & 0xF).unwrap();
            sweep.set_input("x", s & 0xF).unwrap();
            // Valid netlists settle under any fault map; both engines
            // must agree that.
            event.step().unwrap();
            sweep.step().unwrap();
            // Every net in the design, not just the ports.
            for gate in nl.gates() {
                prop_assert_eq!(
                    event.read_net(gate.output),
                    sweep.read_net(gate.output),
                    "net {} diverged", gate.output
                );
            }
            prop_assert_eq!(event.read_output("y").unwrap(), sweep.read_output("y").unwrap());
            prop_assert_eq!(
                event.read_output("state").unwrap(),
                sweep.read_output("state").unwrap()
            );
            vcd_event.sample(&event);
            vcd_sweep.sample(&sweep);
        }

        // The power model's measured activity must not depend on the
        // engine: identical toggles, cycle for cycle.
        prop_assert_eq!(&event.stats().toggles, &sweep.stats().toggles);
        prop_assert_eq!(event.stats().cycles, sweep.stats().cycles);
        prop_assert_eq!(event.stats().average_activity(), sweep.stats().average_activity());
        // Identical waveforms, byte for byte.
        prop_assert_eq!(vcd_event.render("rand_seq"), vcd_sweep.render("rand_seq"));
        // The point of the event engine: never more work than the sweep.
        prop_assert!(
            event.stats().gate_evals <= sweep.stats().gate_evals,
            "event engine did {} evals, full sweep {}",
            event.stats().gate_evals,
            sweep.stats().gate_evals
        );
        prop_assert_eq!(sweep.stats().events, 0);
    }

    #[test]
    fn campaign_csv_is_byte_identical_across_thread_counts(
        ops in prop::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 4..24),
        n_dffs in 1usize..4,
        seed in any::<u64>(),
    ) {
        let nl = random_netlist(&ops, n_dffs);
        let workload = PatternWorkload { cycles: 6, seed };
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(16),
            seu_samples: 4,
            seed,
            ..CampaignConfig::default()
        };
        let sequential = run_campaign(&nl, &workload, &config, 1).unwrap();
        for threads in [2usize, 8] {
            let parallel = run_campaign(&nl, &workload, &config, threads).unwrap();
            prop_assert_eq!(&sequential, &parallel, "{} workers", threads);
            prop_assert_eq!(
                sequential.to_csv(),
                parallel.to_csv(),
                "CSV bytes diverged at {} workers", threads
            );
        }
    }
}
