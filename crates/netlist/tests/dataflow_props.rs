//! Property-based oracle for the dataflow engine: the simulator is the
//! ground truth the abstract interpretation must never contradict.
//!
//! Three sound directions are checked on random sequential netlists:
//!
//! 1. a net proved constant never reads anything else, under any
//!    stimulus, at any cycle;
//! 2. any net whose value differs between two randomized power-up
//!    states is reported X-reachable (the analysis may over-approximate
//!    — flag more — but never under-approximate);
//! 3. every trapped state bit really is `power-up ⊕ deterministic`:
//!    flipping the trapped power-up bits flips every trapped Q forever.
//!
//! The worklist trapped-state fixpoint is also checked against a copy of
//! the levelized iterate-until-stable loop it replaced, on the random
//! netlists and on long shift chains and rings (the baseline cores'
//! representative shape).
//!
//! The converse directions ("every X net actually varies") are false by
//! design — a ternary lattice is deliberately pessimistic — so they are
//! not asserted.

#![allow(clippy::disallowed_methods)]

use printed_netlist::dataflow::AbsValue;
use printed_netlist::{dataflow, GateId, NetId, Netlist, NetlistBuilder, Simulator};
use printed_pdk::CellKind;
use proptest::prelude::*;

/// Builds a random sequential netlist: a 4-bit input bus, a pool of
/// derived combinational nets, and `n_ffs` flip-flops fed from the pool
/// through forward nets. Bit `i` of `nr_mask` selects a resettable
/// `DffNr` (deterministic power-up) over a plain `Dff` (unknown
/// power-up) for flip-flop `i`, so the power-up-dependence mix varies
/// per case. Every op list yields a valid netlist.
fn random_netlist(ops: &[(u8, u8, u8)], n_ffs: usize, nr_mask: u8) -> Netlist {
    let mut b = NetlistBuilder::new("rand_df");
    let inputs = b.input("x", 4);
    let ffs: Vec<NetId> = (0..n_ffs).map(|_| b.forward_net()).collect();
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
        if nr_mask & (1 << (i % 8)) != 0 {
            b.dff_nr_into(d, q);
        } else {
            b.dff_into(d, q);
        }
    }
    let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
    b.output("y", outs);
    b.output("state", ffs);
    b.finish().unwrap()
}

/// Builds a flip-flop shift chain, closed into a ring when `ring`: stage
/// `i`'s D is stage `i - 1`'s Q (the head reads the tail in a ring, input
/// bit 0 otherwise), passed through the stage's op. Op 0–1 passes the Q
/// straight through, 2 inverts it, 3–9 combine it with an operand picked
/// by the stage's selector from the input bits, the constants and every
/// stage's Q. The stage's flag selects a resettable `DffNr`.
fn shift_chain_netlist(stages: &[(u8, u8, bool)], ring: bool) -> Netlist {
    let mut b = NetlistBuilder::new("chain_df");
    let inputs = b.input("x", 4);
    let qs: Vec<NetId> = stages.iter().map(|_| b.forward_net()).collect();
    let mut operands = inputs.clone();
    operands.push(b.const0());
    operands.push(b.const1());
    operands.extend(&qs);
    for (i, &(op, sel, resettable)) in stages.iter().enumerate() {
        let prev = match i {
            0 if ring => qs[qs.len() - 1],
            0 => inputs[0],
            _ => qs[i - 1],
        };
        let other = operands[sel as usize % operands.len()];
        let d = match op {
            0 | 1 => prev,
            2 => b.inv(prev),
            3 => b.and2(prev, other),
            4 => b.or2(prev, other),
            5 => b.xor2(prev, other),
            6 => b.nand2(prev, other),
            7 => b.nor2(prev, other),
            8 => b.xnor2(prev, other),
            _ => b.tsbuf(prev, other),
        };
        if resettable {
            b.dff_nr_into(d, qs[i]);
        } else {
            b.dff_into(d, qs[i]);
        }
    }
    b.output("so", vec![qs[qs.len() - 1]]);
    b.finish().unwrap()
}

/// The trapped-state pass as it was before the worklist: re-run the
/// levelized must-X pass over the whole netlist until no trapped cell
/// falls. Kept here, test-only, as the oracle for the worklist version.
fn reference_trapped_state(nl: &Netlist, facts: &dataflow::DataflowFacts) -> Vec<GateId> {
    let sim = Simulator::new(nl);
    let mut topo: Vec<(u32, usize)> =
        (0..nl.gate_count()).filter_map(|i| sim.gate_depth(i).map(|depth| (depth, i))).collect();
    topo.sort_unstable();
    let gates = nl.gates();
    let mut trapped: Vec<bool> =
        gates.iter().map(|g| matches!(g.kind, CellKind::Dff | CellKind::Latch)).collect();
    let mut must_x = vec![false; nl.net_count()];
    loop {
        must_x.iter_mut().for_each(|m| *m = false);
        for (i, gate) in gates.iter().enumerate() {
            if gate.is_sequential() {
                must_x[gate.output.index()] = trapped[i];
            }
        }
        for &(_, gi) in &topo {
            let gate = &gates[gi];
            let a = gate.inputs[0];
            let b = *gate.inputs.get(1).unwrap_or(&a);
            let (ma, mb) = (must_x[a.index()], must_x[b.index()]);
            let (va, vb) = (facts.value(a), facts.value(b));
            must_x[gate.output.index()] = match gate.kind {
                CellKind::Inv => ma,
                CellKind::And2 | CellKind::Nand2 => {
                    (ma && vb == AbsValue::One) || (mb && va == AbsValue::One)
                }
                CellKind::Or2 | CellKind::Nor2 => {
                    (ma && vb == AbsValue::Zero) || (mb && va == AbsValue::Zero)
                }
                CellKind::Xor2 | CellKind::Xnor2 => {
                    (ma && vb != AbsValue::X) || (mb && va != AbsValue::X)
                }
                CellKind::TsBuf => ma && vb == AbsValue::One,
                _ => unreachable!("sequential cells have no depth"),
            };
        }
        let mut changed = false;
        for (i, gate) in gates.iter().enumerate() {
            let keep = trapped[i]
                && match gate.kind {
                    CellKind::Dff => must_x[gate.inputs[0].index()],
                    CellKind::Latch => {
                        facts.value(gate.inputs[0]) == AbsValue::Zero
                            && facts.value(gate.inputs[1]) == AbsValue::Zero
                    }
                    _ => false,
                };
            if trapped[i] && !keep {
                trapped[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..gates.len()).filter(|&i| trapped[i]).map(GateId::from_index).collect()
}

/// Sequential cells the analysis models as unknown at power-up (plain
/// DFFs and SR latches — `DffNr` resets deterministically to zero).
fn powerup_unknown_cells(nl: &Netlist) -> Vec<GateId> {
    nl.gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.is_sequential() && !matches!(g.kind, printed_pdk::CellKind::DffNr))
        .map(|(i, _)| GateId::from_index(i))
        .collect()
}

/// Asserts the sound direction of proved facts at the current sim state.
fn check_constants(nl: &Netlist, facts: &dataflow::DataflowFacts, sim: &Simulator<'_>, when: &str) {
    for gate in nl.gates() {
        if let Some(c) = facts.proved_constant(gate.output) {
            prop_assert_eq!(
                sim.read_net(gate.output),
                c,
                "net {} proved {} but read otherwise {}",
                gate.output,
                c,
                when
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn proved_constants_never_toggle(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..40),
        n_ffs in 1usize..6,
        nr_mask in any::<u8>(),
        stim in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        let nl = random_netlist(&ops, n_ffs, nr_mask);
        let facts = dataflow::analyze(&nl);
        let mut sim = Simulator::new(&nl);
        sim.settle().unwrap();
        check_constants(&nl, &facts, &sim, "after construction");
        for &s in &stim {
            sim.set_input("x", s & 0xF).unwrap();
            sim.step().unwrap();
            check_constants(&nl, &facts, &sim, "after a step");
        }
        // The built-in crosscheck must agree with the proptest oracle.
        prop_assert_eq!(dataflow::crosscheck(&nl, &facts, 8), Ok(()));
    }

    #[test]
    fn powerup_divergence_implies_x_reachable(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..40),
        n_ffs in 1usize..6,
        nr_mask in any::<u8>(),
        flip_mask in any::<u32>(),
        stim in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        let nl = random_netlist(&ops, n_ffs, nr_mask);
        let facts = dataflow::analyze(&nl);
        let mut base = Simulator::new(&nl);
        let mut flipped = Simulator::new(&nl);
        for (i, gate) in powerup_unknown_cells(&nl).into_iter().enumerate() {
            if flip_mask & (1 << (i % 32)) != 0 {
                prop_assert!(flipped.set_sequential_state(gate, true));
            }
        }
        base.settle().unwrap();
        flipped.settle().unwrap();
        let check = |base: &Simulator<'_>, flipped: &Simulator<'_>| {
            for gate in nl.gates() {
                if base.read_net(gate.output) != flipped.read_net(gate.output) {
                    prop_assert!(
                        facts.x_reachable(gate.output),
                        "net {} differs across power-up states but is not X-reachable",
                        gate.output
                    );
                }
            }
        };
        check(&base, &flipped);
        for &s in &stim {
            base.set_input("x", s & 0xF).unwrap();
            flipped.set_input("x", s & 0xF).unwrap();
            base.step().unwrap();
            flipped.step().unwrap();
            check(&base, &flipped);
        }
    }

    #[test]
    fn trapped_bits_never_flush(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..40),
        n_ffs in 1usize..6,
        nr_mask in any::<u8>(),
        stim in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        let nl = random_netlist(&ops, n_ffs, nr_mask);
        let facts = dataflow::analyze(&nl);
        let trapped = facts.trapped_state().to_vec();
        // Flip the whole trapped set: the invariant is that differences
        // confined to trapped bits stay confined — and never vanish.
        let mut base = Simulator::new(&nl);
        let mut flipped = Simulator::new(&nl);
        for &gate in &trapped {
            prop_assert!(flipped.set_sequential_state(gate, true));
        }
        base.settle().unwrap();
        flipped.settle().unwrap();
        for &s in &stim {
            base.set_input("x", s & 0xF).unwrap();
            flipped.set_input("x", s & 0xF).unwrap();
            base.step().unwrap();
            flipped.step().unwrap();
            for &gate in &trapped {
                let q = nl.gates()[gate.index()].output;
                prop_assert_ne!(
                    base.read_net(q),
                    flipped.read_net(q),
                    "trapped bit {} flushed — the reachability proof is wrong",
                    gate.index()
                );
            }
        }
    }

    #[test]
    fn optimize_with_facts_is_behaviour_preserving(
        ops in prop::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 1..32),
        n_ffs in 1usize..5,
        nr_mask in any::<u8>(),
        stim in prop::collection::vec(any::<u64>(), 1..10),
    ) {
        use printed_netlist::opt;
        let nl = random_netlist(&ops, n_ffs, nr_mask);
        let facts = dataflow::analyze(&nl);
        let (optimized, stats) = opt::optimize_with_facts(&nl, &facts);
        prop_assert!(stats.gates_after <= stats.gates_before);
        let mut s1 = Simulator::new(&nl);
        let mut s2 = Simulator::new(&optimized);
        for &s in &stim {
            s1.set_input("x", s & 0xF).unwrap();
            s2.set_input("x", s & 0xF).unwrap();
            s1.step().unwrap();
            s2.step().unwrap();
            prop_assert_eq!(s1.read_output("y").unwrap(), s2.read_output("y").unwrap());
            prop_assert_eq!(
                s1.read_output("state").unwrap(),
                s2.read_output("state").unwrap()
            );
        }
    }

    #[test]
    fn worklist_trapped_state_matches_the_levelized_reference(
        ops in prop::collection::vec((0u8..9, any::<u8>(), any::<u8>()), 1..40),
        n_ffs in 1usize..6,
        nr_mask in any::<u8>(),
    ) {
        let nl = random_netlist(&ops, n_ffs, nr_mask);
        let facts = dataflow::analyze(&nl);
        prop_assert_eq!(facts.trapped_state(), &reference_trapped_state(&nl, &facts)[..]);
    }

    #[test]
    fn worklist_trapped_state_matches_the_reference_on_chains_and_rings(
        stages in prop::collection::vec((0u8..10, any::<u8>(), any::<bool>()), 1..200),
        ring in any::<bool>(),
    ) {
        let nl = shift_chain_netlist(&stages, ring);
        let facts = dataflow::analyze(&nl);
        prop_assert_eq!(facts.trapped_state(), &reference_trapped_state(&nl, &facts)[..]);
    }
}
