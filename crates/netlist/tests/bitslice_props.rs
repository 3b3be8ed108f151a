//! Differential verification of the bitsliced campaign engine.
//!
//! The bitsliced engine packs 64 fault instances into `u64` lanes and
//! must be observationally indistinguishable from the scalar reference
//! engine (a `ScalarOnly` campaign) at the campaign level: identical
//! `OutcomeCounts` and byte-identical CSV on random netlists and random
//! fault sets — including fault counts that are not multiples of 64, so
//! partial final words are exercised — at 1 and 4 worker threads, and
//! the same golden observation, which a bitsliced campaign takes from a
//! fault-free word. The
//! engine's source-group settle, which evaluates only the logic fed by
//! written ports or published state, must equal a full pass on random
//! multi-port netlists under random per-lane stimulus. A campaign runs
//! one representative per fault class, so every slot of it must also
//! match `classify_fault` run on that slot's own fault.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::fault::{
    classify_fault, run_campaign, CampaignConfig, Fault, FaultKind, PatternWorkload, ScalarOnly,
    StuckAtSpace, Workload,
};
use printed_netlist::{BitSimulator, GateId, NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;

/// The same random sequential netlist generator as `engine_props`: a
/// 4-bit input bus, a pool of derived nets, and `n_dffs` flip-flops fed
/// from the pool through forward nets. Every op list yields a valid
/// netlist.
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
    for (i, &q) in ffs.iter().enumerate() {
        let d = pool[(i * 7 + 3) % pool.len()];
        b.dff_into(d, q);
    }
    let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
    b.output("y", outs);
    b.output("state", ffs);
    b.finish().unwrap()
}

/// A random sequential netlist over three input ports of different
/// widths, so source groups gate distinct cones: the same op mix as
/// [`random_netlist`], with every op drawing from ports, flip-flop
/// outputs, constants and earlier ops.
fn random_multiport_netlist(ops: &[(u8, u8, u8)], n_dffs: usize) -> Netlist {
    let mut b = NetlistBuilder::new("rand_ports");
    let mut pool: Vec<NetId> = Vec::new();
    for (name, width) in [("x", 3), ("y", 2), ("z", 1)] {
        pool.extend(b.input(name, width));
    }
    let ffs: Vec<NetId> = (0..n_dffs).map(|_| b.forward_net()).collect();
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
    for (i, &q) in ffs.iter().enumerate() {
        let d = pool[(i * 5 + 7) % pool.len()];
        b.dff_into(d, q);
    }
    let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
    b.output("y_out", outs);
    b.finish().unwrap()
}

/// Asserts that `sim`'s settled gate outputs equal a full pass's: a
/// clone is handed a write to an internal net — outside every source
/// group, so its next settle evaluates every op — and settled.
fn assert_matches_a_full_pass(sim: &BitSimulator<'_>, nl: &Netlist, context: &str) {
    let Some(internal) = nl.gates().iter().find(|g| !g.is_sequential()).map(|g| g.output) else {
        return;
    };
    let mut full = sim.clone();
    full.set_bus_words(&[internal], &[!sim.word(internal)]);
    full.settle();
    for (gi, gate) in nl.gates().iter().enumerate() {
        assert_eq!(
            sim.word(gate.output),
            full.word(gate.output),
            "gate {gi} ({:?}) differs from a full pass {context}",
            gate.kind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A gated settle — after port writes, or after the clock-edge
    /// publish — leaves every net exactly where a full pass would, with
    /// stuck-at faults and SEUs in random lanes and a random subset of
    /// ports rewritten each cycle.
    #[test]
    fn gated_settle_equals_a_full_pass(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 4..40),
        n_dffs in 1usize..5,
        faults in prop::collection::vec((any::<u16>(), 0u8..3, 0u64..6), 0..20),
        seed in any::<u64>(),
    ) {
        let nl = random_multiport_netlist(&ops, n_dffs);
        let mut sim = BitSimulator::new(&nl);
        for &(gate, kind, cycle) in &faults {
            let kind = match kind {
                0 => FaultKind::StuckAt0,
                1 => FaultKind::StuckAt1,
                _ => FaultKind::Seu { cycle },
            };
            sim.inject_fault(Fault { gate: GateId::from_index(gate as usize % nl.gate_count()), kind });
        }
        let ports: Vec<Vec<NetId>> = nl.input_ports().values().cloned().collect();
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for cycle in 0..8 {
            for nets in &ports {
                if next() & 1 == 1 {
                    let words: Vec<u64> = nets.iter().map(|_| next()).collect();
                    sim.set_bus_words(nets, &words);
                }
            }
            sim.settle();
            assert_matches_a_full_pass(&sim, &nl, &format!("after port writes, cycle {cycle}"));
            sim.step();
            assert_matches_a_full_pass(&sim, &nl, &format!("after the clock edge, cycle {cycle}"));
        }
    }

    /// The acceptance matrix: {scalar, bitsliced} × {1, 4 threads} all
    /// produce the same `OutcomeCounts` and the same CSV bytes, against
    /// the sequential [`ScalarOnly`] baseline, whose every fault runs
    /// through the scheduler's scalar fallback. `stuck_samples in
    /// 1..130` sweeps fault totals through under-full, exactly-full, and
    /// multi-word campaigns, so partial final words (and the scheduler's
    /// word-aligned chunking) are all exercised.
    #[test]
    fn bitsliced_campaigns_match_scalar_byte_for_byte(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 4..32),
        n_dffs in 1usize..5,
        seed in any::<u64>(),
        stuck_samples in 1usize..130,
        seu_samples in 0usize..8,
    ) {
        let nl = random_netlist(&ops, n_dffs);
        let workload = PatternWorkload { cycles: 8, seed };
        let scalar = ScalarOnly(&workload);
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(stuck_samples),
            seu_samples,
            seed,
            ..CampaignConfig::default()
        };
        let baseline = run_campaign(&nl, &scalar, &config, 1).unwrap();
        let baseline_csv = baseline.to_csv();
        let engines: [(&str, &dyn Workload); 2] = [("scalar", &scalar), ("bitsliced", &workload)];
        for (engine, w) in engines {
            for threads in [1usize, 4] {
                let run = run_campaign(&nl, w, &config, threads).unwrap();
                // The golden run comes from a fault-free word unless the
                // workload is scalar-only.
                prop_assert_eq!(
                    &run.golden,
                    &baseline.golden,
                    "golden run: engine={} threads={}", engine, threads
                );
                prop_assert_eq!(
                    run.counts(),
                    baseline.counts(),
                    "engine={} threads={}", engine, threads
                );
                prop_assert_eq!(&run, &baseline, "engine={} threads={}", engine, threads);
                prop_assert_eq!(
                    run.to_csv(),
                    baseline_csv.clone(),
                    "CSV bytes diverged: engine={} threads={}",
                    engine, threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-fault oracle for fault classes: a campaign simulates one
    /// representative per class and copies its verdict to the other
    /// members, yet every slot must get the verdict `classify_fault`
    /// gives its own fault, uncollapsed — in the exhaustive space (both
    /// polarities of every gate, so every structural pair) and in
    /// sampled spaces (drawn with replacement, so duplicates), with
    /// SEUs, at 1 and 2 workers.
    #[test]
    fn every_slot_of_a_classed_campaign_matches_the_per_fault_oracle(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 8..64),
        n_dffs in 1usize..5,
        seed in any::<u64>(),
        exhaustive in any::<bool>(),
        stuck_samples in 1usize..130,
        seu_samples in 0usize..24,
    ) {
        let nl = random_netlist(&ops, n_dffs);
        let workload = PatternWorkload { cycles: 8, seed };
        let config = CampaignConfig {
            stuck_at: if exhaustive {
                StuckAtSpace::Exhaustive
            } else {
                StuckAtSpace::Sampled(stuck_samples)
            },
            seu_samples,
            seed,
            ..CampaignConfig::default()
        };
        for threads in [1usize, 2] {
            let run = run_campaign(&nl, &workload, &config, threads).unwrap();
            prop_assert!(run.classes <= run.runs.len());
            for (slot, r) in run.runs.iter().enumerate() {
                let oracle = classify_fault(&nl, &workload, r.fault, config.cycle_budget).unwrap();
                prop_assert_eq!(
                    r.outcome, oracle,
                    "slot {} ({}), threads {}", slot, r.fault, threads
                );
            }
        }
    }
}
