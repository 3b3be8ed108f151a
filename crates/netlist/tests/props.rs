//! Property-based verification of the structural generators: every
//! datapath block must agree with the arithmetic it claims to implement,
//! for arbitrary operands, and the optimizer must preserve behaviour.
//!
//! The optimizer is also checked against a test-only copy of the
//! map-based, rescan-until-stable version it replaced: both must return
//! equal netlists (same gates, net ids and topological order) on random
//! sequential netlists, long chains and flip-flop rings.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::dataflow::{self, DataflowFacts};
use printed_netlist::{lint, opt, words, Gate, NetId, Netlist, NetlistBuilder, Simulator};
use printed_pdk::{CellKind, Technology};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn eval(nl: &Netlist, inputs: &[(&str, u64)], output: &str) -> u64 {
    let mut sim = Simulator::new(nl);
    for (name, v) in inputs {
        sim.set_input(name, *v).unwrap();
    }
    sim.settle().unwrap();
    sim.read_output(output).unwrap()
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// The optimizer's reference copy: what [`opt::optimize`] and
/// [`opt::optimize_with_facts`] computed before they moved to dense
/// indices and a worklist sweep, kept verbatim (BTreeMap state, a fresh
/// `Vec` per gate, rescan-until-stable liveness) as the oracle the fast
/// version must match exactly.
mod reference {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Known {
        Zero,
        One,
        Net(NetId),
    }

    /// Kahn's algorithm with one dependents `Vec` per gate, as the
    /// builder sorted before its CSR form.
    pub fn topo_order(net_count: usize, gates: &[Gate]) -> Vec<usize> {
        let mut driver_of: Vec<Option<usize>> = vec![None; net_count];
        for (i, gate) in gates.iter().enumerate() {
            if !gate.is_sequential() {
                driver_of[gate.output.index()] = Some(i);
            }
        }
        let mut indegree = vec![0u32; gates.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            if gate.is_sequential() {
                continue;
            }
            for input in &gate.inputs {
                if let Some(driver) = driver_of[input.index()] {
                    indegree[i] += 1;
                    dependents[driver].push(i);
                }
            }
        }
        let mut ready: Vec<usize> =
            (0..gates.len()).filter(|&i| !gates[i].is_sequential() && indegree[i] == 0).collect();
        let mut order = Vec::new();
        while let Some(i) = ready.pop() {
            order.push(i);
            for &dep in &dependents[i] {
                indegree[dep] -= 1;
                if indegree[dep] == 0 {
                    ready.push(dep);
                }
            }
        }
        order
    }

    pub fn optimize(netlist: &Netlist, facts: Option<&DataflowFacts>) -> Netlist {
        let mut b = NetlistBuilder::new(netlist.name().to_string());
        let proved = |n: NetId| -> Option<Known> {
            facts
                .and_then(|f| f.proved_constant(n))
                .map(|v| if v { Known::One } else { Known::Zero })
        };
        let mut known: BTreeMap<NetId, Known> = BTreeMap::new();
        let mut inv_of: BTreeMap<NetId, NetId> = BTreeMap::new();
        for (name, nets) in netlist.input_ports() {
            let new_nets = b.input(name.clone(), nets.len());
            for (&old, &new) in nets.iter().zip(&new_nets) {
                known.insert(old, Known::Net(new));
            }
        }
        if let Some(c0) = netlist.const0() {
            known.insert(c0, Known::Zero);
        }
        if let Some(c1) = netlist.const1() {
            known.insert(c1, Known::One);
        }
        let mut seq_gates: Vec<(usize, NetId)> = Vec::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.is_sequential() {
                if let Some(k) = proved(gate.output) {
                    known.insert(gate.output, k);
                    continue;
                }
                let q = b.forward_net();
                known.insert(gate.output, Known::Net(q));
                seq_gates.push((i, q));
            }
        }
        for i in topo_order(netlist.net_count(), netlist.gates()) {
            let gate = &netlist.gates()[i];
            if let Some(k) = proved(gate.output) {
                known.insert(gate.output, k);
                continue;
            }
            let ins: Vec<Known> = gate.inputs.iter().map(|n| known[n]).collect();
            let result = fold_gate(&mut b, gate.kind, &ins, &mut inv_of);
            known.insert(gate.output, result);
        }
        for (i, q) in seq_gates {
            let gate = &netlist.gates()[i];
            match gate.kind {
                CellKind::Dff | CellKind::DffNr => {
                    let d = materialize(&mut b, known[&gate.inputs[0]]);
                    if gate.kind == CellKind::Dff {
                        b.dff_into(d, q);
                    } else {
                        b.dff_nr_into(d, q);
                    }
                }
                CellKind::Latch => {
                    let s = materialize(&mut b, known[&gate.inputs[0]]);
                    let r = materialize(&mut b, known[&gate.inputs[1]]);
                    b.latch_into(s, r, q);
                }
                _ => unreachable!(),
            }
        }
        for (name, nets) in netlist.output_ports() {
            let new_nets: Vec<NetId> = nets.iter().map(|n| materialize(&mut b, known[n])).collect();
            b.output(name.clone(), new_nets);
        }
        sweep(&b.finish().unwrap())
    }

    fn materialize(b: &mut NetlistBuilder, value: Known) -> NetId {
        match value {
            Known::Zero => b.const0(),
            Known::One => b.const1(),
            Known::Net(n) => n,
        }
    }

    fn fold_gate(
        b: &mut NetlistBuilder,
        kind: CellKind,
        ins: &[Known],
        inv_of: &mut BTreeMap<NetId, NetId>,
    ) -> Known {
        use Known::{Net, One, Zero};
        match kind {
            CellKind::Inv => match ins[0] {
                Zero => One,
                One => Zero,
                Net(a) => {
                    if let Some(&source) = inv_of.get(&a) {
                        return Net(source);
                    }
                    let out = b.inv(a);
                    inv_of.insert(out, a);
                    Net(out)
                }
            },
            CellKind::And2 => match (ins[0], ins[1]) {
                (Zero, _) | (_, Zero) => Zero,
                (One, x) | (x, One) => x,
                (Net(a), Net(c)) => Net(b.and2(a, c)),
            },
            CellKind::Or2 => match (ins[0], ins[1]) {
                (One, _) | (_, One) => One,
                (Zero, x) | (x, Zero) => x,
                (Net(a), Net(c)) => Net(b.or2(a, c)),
            },
            CellKind::Nand2 => match (ins[0], ins[1]) {
                (Zero, _) | (_, Zero) => One,
                (One, x) | (x, One) => fold_gate(b, CellKind::Inv, &[x], inv_of),
                (Net(a), Net(c)) => Net(b.nand2(a, c)),
            },
            CellKind::Nor2 => match (ins[0], ins[1]) {
                (One, _) | (_, One) => Zero,
                (Zero, x) | (x, Zero) => fold_gate(b, CellKind::Inv, &[x], inv_of),
                (Net(a), Net(c)) => Net(b.nor2(a, c)),
            },
            CellKind::Xor2 => match (ins[0], ins[1]) {
                (Zero, x) | (x, Zero) => x,
                (One, x) | (x, One) => fold_gate(b, CellKind::Inv, &[x], inv_of),
                (Net(a), Net(c)) => Net(b.xor2(a, c)),
            },
            CellKind::Xnor2 => match (ins[0], ins[1]) {
                (One, x) | (x, One) => x,
                (Zero, x) | (x, Zero) => fold_gate(b, CellKind::Inv, &[x], inv_of),
                (Net(a), Net(c)) => Net(b.xnor2(a, c)),
            },
            CellKind::TsBuf => match (ins[0], ins[1]) {
                (x, One) => x,
                (_, Zero) => Zero,
                (a, Net(en)) => {
                    let a = materialize(b, a);
                    Net(b.tsbuf(a, en))
                }
            },
            CellKind::Dff | CellKind::DffNr | CellKind::Latch => unreachable!(),
        }
    }

    fn sweep(netlist: &Netlist) -> Netlist {
        let mut live = vec![false; netlist.net_count()];
        for nets in netlist.output_ports().values() {
            for n in nets {
                live[n.index()] = true;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for gate in netlist.gates() {
                if live[gate.output.index()] {
                    for inp in &gate.inputs {
                        if !live[inp.index()] {
                            live[inp.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        let mut b = NetlistBuilder::new(netlist.name().to_string());
        let mut map: BTreeMap<NetId, NetId> = BTreeMap::new();
        for (name, nets) in netlist.input_ports() {
            let new = b.input(name.clone(), nets.len());
            for (&old, &n) in nets.iter().zip(&new) {
                map.insert(old, n);
            }
        }
        if let Some(c0) = netlist.const0() {
            if live[c0.index()] {
                let n = b.const0();
                map.insert(c0, n);
            }
        }
        if let Some(c1) = netlist.const1() {
            if live[c1.index()] {
                let n = b.const1();
                map.insert(c1, n);
            }
        }
        let mut live_seq: Vec<usize> = Vec::new();
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.is_sequential() && live[gate.output.index()] {
                let q = b.forward_net();
                map.insert(gate.output, q);
                live_seq.push(i);
            }
        }
        for i in topo_order(netlist.net_count(), netlist.gates()) {
            let gate = &netlist.gates()[i];
            if !live[gate.output.index()] {
                continue;
            }
            let ins: Vec<NetId> = gate.inputs.iter().map(|n| map[n]).collect();
            let out = match gate.kind {
                CellKind::TsBuf => b.tsbuf(ins[0], ins[1]),
                kind => b.gate(kind, ins),
            };
            map.insert(gate.output, out);
        }
        for &i in &live_seq {
            let gate = &netlist.gates()[i];
            let q = map[&gate.output];
            match gate.kind {
                CellKind::Dff => b.dff_into(map[&gate.inputs[0]], q),
                CellKind::DffNr => b.dff_nr_into(map[&gate.inputs[0]], q),
                CellKind::Latch => b.latch_into(map[&gate.inputs[0]], map[&gate.inputs[1]], q),
                _ => unreachable!(),
            }
        }
        for (name, nets) in netlist.output_ports() {
            b.output(name.clone(), nets.iter().map(|n| map[n]).collect());
        }
        b.finish().unwrap()
    }
}

/// A random sequential netlist mixing every cell kind: a 4-bit input
/// bus, the constant rails, `n_ffs` flip-flops closed through forward
/// nets (bit `i` of `nr_mask` picks `DffNr` for flip-flop `i`), and a
/// pool of gates over all of them. Op 0 and 9 are inverters, so inverter
/// chains are common; outputs are picked by `outs`, so some logic is
/// dead.
fn random_sequential_netlist(
    ops: &[(u8, u8, u8)],
    n_ffs: usize,
    nr_mask: u8,
    outs: &[u8],
) -> Netlist {
    let mut b = NetlistBuilder::new("rand_seq");
    let inputs = b.input("x", 4);
    let ffs: Vec<NetId> = (0..n_ffs).map(|_| b.forward_net()).collect();
    let mut pool: Vec<NetId> = inputs;
    pool.extend(&ffs);
    pool.push(b.const0());
    pool.push(b.const1());
    for &(op, ai, bi) in ops {
        let a = pool[ai as usize % pool.len()];
        let c = pool[bi as usize % pool.len()];
        let out = match op {
            0 | 9 => b.inv(a),
            1 => b.and2(a, c),
            2 => b.or2(a, c),
            3 => b.xor2(a, c),
            4 => b.nand2(a, c),
            5 => b.nor2(a, c),
            6 => b.xnor2(a, c),
            7 => b.tsbuf(a, c),
            _ => b.latch(a, c),
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
    b.output("y", outs.iter().map(|&o| pool[o as usize % pool.len()]).collect());
    b.finish().unwrap()
}

/// A chain of `stages.len()` cells, each reading the previous stage and
/// an operand picked from the inputs, the rails and the chain so far;
/// ops 7 and 8 insert flip-flops mid-chain. With `ring`, the tail feeds
/// the head through a flip-flop, so the whole chain is one feedback
/// loop. Only the tail is an output, so liveness must walk the full
/// depth back from it.
fn chain_netlist(stages: &[(u8, u8)], ring: bool) -> Netlist {
    let mut b = NetlistBuilder::new("chain");
    let inputs = b.input("x", 2);
    let head = b.forward_net();
    let mut operands = inputs.clone();
    operands.push(b.const0());
    operands.push(b.const1());
    let mut prev = if ring { head } else { inputs[0] };
    for &(op, sel) in stages {
        let other = operands[sel as usize % operands.len()];
        prev = match op {
            0 => b.inv(prev),
            1 => b.and2(prev, other),
            2 => b.or2(prev, other),
            3 => b.xor2(prev, other),
            4 => b.nand2(prev, other),
            5 => b.nor2(prev, other),
            6 => b.xnor2(prev, other),
            7 => b.dff(prev),
            8 => b.latch(prev, other),
            _ => b.tsbuf(prev, other),
        };
        operands.push(prev);
    }
    if ring {
        b.dff_nr_into(prev, head);
    } else {
        b.dff_into(inputs[1], head);
    }
    b.output("tail", vec![prev]);
    b.finish().unwrap()
}

fn assert_matches_reference(nl: &Netlist) {
    assert_eq!(opt::optimize(nl), reference::optimize(nl, None), "optimize");
    let facts = dataflow::analyze(nl);
    assert_eq!(
        opt::optimize_with_facts(nl, &facts).0,
        reference::optimize(nl, Some(&facts)),
        "optimize_with_facts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ripple_adder_is_addition(width in 1usize..=32, a: u64, b: u64, cin: bool) {
        let mut bld = NetlistBuilder::new("add");
        let abus = bld.input("a", width);
        let bbus = bld.input("b", width);
        let cbit = bld.input_bit("cin");
        let out = words::ripple_adder(&mut bld, &abus, &bbus, cbit);
        bld.output("sum", out.sum);
        bld.output("cout", vec![out.carry_out]);
        let nl = bld.finish().unwrap();

        let (a, b) = (a & mask(width), b & mask(width));
        let full = a as u128 + b as u128 + cin as u128;
        let got = eval(&nl, &[("a", a), ("b", b), ("cin", cin as u64)], "sum");
        prop_assert_eq!(got, (full as u64) & mask(width));
        let cout = eval(&nl, &[("a", a), ("b", b), ("cin", cin as u64)], "cout");
        prop_assert_eq!(cout, (full >> width) as u64 & 1);
    }

    #[test]
    fn carry_select_equals_ripple(width in 2usize..=32, block in 1usize..=8, a: u64, b: u64, cin: bool) {
        let build = |select: bool| {
            let mut bld = NetlistBuilder::new("add");
            let abus = bld.input("a", width);
            let bbus = bld.input("b", width);
            let cbit = bld.input_bit("cin");
            let out = if select {
                words::carry_select_adder(&mut bld, &abus, &bbus, cbit, block)
            } else {
                words::ripple_adder(&mut bld, &abus, &bbus, cbit)
            };
            bld.output("sum", out.sum);
            bld.output("cout", vec![out.carry_out]);
            bld.output("ovf", vec![out.overflow]);
            bld.finish().unwrap()
        };
        let sel = build(true);
        let rip = build(false);
        let (a, b) = (a & mask(width), b & mask(width));
        let inputs = [("a", a), ("b", b), ("cin", cin as u64)];
        for port in ["sum", "cout", "ovf"] {
            prop_assert_eq!(eval(&sel, &inputs, port), eval(&rip, &inputs, port), "{}", port);
        }
    }

    #[test]
    fn incrementer_adds_enable(width in 1usize..=24, a: u64, en: bool) {
        let mut bld = NetlistBuilder::new("inc");
        let abus = bld.input("a", width);
        let ebit = bld.input_bit("en");
        let out = words::incrementer(&mut bld, &abus, ebit);
        bld.output("y", out);
        let nl = bld.finish().unwrap();
        let a = a & mask(width);
        let got = eval(&nl, &[("a", a), ("en", en as u64)], "y");
        prop_assert_eq!(got, a.wrapping_add(en as u64) & mask(width));
    }

    #[test]
    fn rotates_invert_each_other(width in 2usize..=32, a: u64) {
        // RL then RR (plain rotates) must be the identity.
        let mut bld = NetlistBuilder::new("rot");
        let abus = bld.input("a", width);
        let zero = bld.const0();
        let rl = words::rotate_left(&mut bld, &abus, zero, zero);
        let rr = words::rotate_right(&mut bld, &rl.word, zero, zero, zero);
        bld.output("y", rr.word);
        let nl = bld.finish().unwrap();
        let a = a & mask(width);
        prop_assert_eq!(eval(&nl, &[("a", a)], "y"), a);
    }

    #[test]
    fn mux_tree_selects(width in 1usize..=16, n_words in 1usize..=8, sel in 0usize..8, seed: u64) {
        let sel = sel % n_words;
        let sel_bits = if n_words == 1 { 0 } else { (usize::BITS - (n_words - 1).leading_zeros()) as usize };
        let mut bld = NetlistBuilder::new("mux");
        let word_buses: Vec<Vec<NetId>> =
            (0..n_words).map(|i| bld.input(format!("w{i}"), width)).collect();
        let sel_bus = bld.input("sel", sel_bits.max(1));
        let y = words::mux_tree(&mut bld, &word_buses, &sel_bus);
        bld.output("y", y);
        let nl = bld.finish().unwrap();

        let mut sim = Simulator::new(&nl);
        let mut values = Vec::new();
        let mut state = seed.max(1);
        for i in 0..n_words {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let v = state & mask(width);
            values.push(v);
            sim.set_input(&format!("w{i}"), v).unwrap();
        }
        sim.set_input("sel", sel as u64).unwrap();
        sim.settle().unwrap();
        prop_assert_eq!(sim.read_output("y").unwrap(), values[sel]);
    }

    #[test]
    fn decoder_is_one_hot(bits in 1usize..=5, code: u64, en: bool) {
        let mut bld = NetlistBuilder::new("dec");
        let sel = bld.input("sel", bits);
        let ebit = bld.input_bit("en");
        let outs = words::decoder(&mut bld, &sel, ebit);
        bld.output("y", outs);
        let nl = bld.finish().unwrap();
        let code = code & mask(bits);
        let got = eval(&nl, &[("sel", code), ("en", en as u64)], "y");
        prop_assert_eq!(got, if en { 1 << code } else { 0 });
    }

    #[test]
    fn optimizer_preserves_random_logic(ops in prop::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 1..40), stim in prop::collection::vec(any::<u64>(), 4)) {
        let mut bld = NetlistBuilder::new("rand");
        let inputs = bld.input("x", 4);
        let mut pool: Vec<NetId> = inputs.clone();
        pool.push(bld.const0());
        pool.push(bld.const1());
        for &(op, ai, bi) in &ops {
            let a = pool[ai as usize % pool.len()];
            let b = pool[bi as usize % pool.len()];
            let out = match op {
                0 => bld.inv(a),
                1 => bld.and2(a, b),
                2 => bld.or2(a, b),
                3 => bld.xor2(a, b),
                4 => bld.nand2(a, b),
                5 => bld.nor2(a, b),
                _ => bld.xnor2(a, b),
            };
            pool.push(out);
        }
        let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
        bld.output("y", outs);
        let nl = bld.finish().unwrap();
        let optimized = opt::optimize(&nl);
        prop_assert!(optimized.gate_count() <= nl.gate_count());
        for &s in &stim {
            let s = s & 0xF;
            prop_assert_eq!(
                eval(&nl, &[("x", s)], "y"),
                eval(&optimized, &[("x", s)], "y")
            );
        }
    }

    #[test]
    fn optimizer_is_idempotent(ops in prop::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 1..30)) {
        let mut bld = NetlistBuilder::new("idem");
        let inputs = bld.input("x", 4);
        let mut pool: Vec<NetId> = inputs.clone();
        pool.push(bld.const0());
        pool.push(bld.const1());
        for &(op, ai, bi) in &ops {
            let a = pool[ai as usize % pool.len()];
            let b = pool[bi as usize % pool.len()];
            let out = match op {
                0 => bld.inv(a),
                1 => bld.and2(a, b),
                2 => bld.or2(a, b),
                3 => bld.xor2(a, b),
                4 => bld.nand2(a, b),
                5 => bld.nor2(a, b),
                _ => bld.xnor2(a, b),
            };
            pool.push(out);
        }
        let outs: Vec<NetId> = pool.iter().rev().take(2).copied().collect();
        bld.output("y", outs);
        let nl = bld.finish().unwrap();
        let once = opt::optimize(&nl);
        let twice = opt::optimize(&once);
        prop_assert_eq!(once.gate_count(), twice.gate_count(), "folding must reach a fixpoint");
        prop_assert_eq!(once.cell_counts(), twice.cell_counts());
    }

    #[test]
    fn optimizer_output_is_lint_clean_of_foldable_gates(ops in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..40)) {
        // Whatever random logic we throw at it — including nets pinned to
        // the constant rails and back-to-back inverter chains — the
        // optimizer's output must carry nothing the const-foldable and
        // redundant-inverter lint rules can still flag: the linter's
        // foldability oracle and the folder agree on what is removable.
        let mut bld = NetlistBuilder::new("lintclean");
        let inputs = bld.input("x", 4);
        let mut pool: Vec<NetId> = inputs.clone();
        pool.push(bld.const0());
        pool.push(bld.const1());
        for &(op, ai, bi) in &ops {
            let a = pool[ai as usize % pool.len()];
            let b = pool[bi as usize % pool.len()];
            let out = match op {
                0 | 7 => bld.inv(a), // double weight: provoke INV chains
                1 => bld.and2(a, b),
                2 => bld.or2(a, b),
                3 => bld.xor2(a, b),
                4 => bld.nand2(a, b),
                5 => bld.nor2(a, b),
                _ => bld.xnor2(a, b),
            };
            pool.push(out);
        }
        let outs: Vec<NetId> = pool.iter().rev().take(4).copied().collect();
        bld.output("y", outs);
        let nl = bld.finish().unwrap();
        let optimized = opt::optimize(&nl);
        for technology in [Technology::Egfet, Technology::CntTft] {
            let report = lint::lint(&optimized, technology.library(), &lint::LintConfig::default());
            for rule in [lint::Rule::ConstFoldableGate, lint::Rule::RedundantInverterPair] {
                let hits: Vec<_> = report.by_rule(rule).collect();
                prop_assert!(
                    hits.is_empty(),
                    "optimize() left {rule} findings ({technology:?}): {hits:?}"
                );
            }
        }
    }

    #[test]
    fn reductions_match_bit_math(width in 1usize..=24, a: u64) {
        let mut bld = NetlistBuilder::new("red");
        let abus = bld.input("a", width);
        let any_bit = words::or_reduce(&mut bld, &abus);
        let all_bit = words::and_reduce(&mut bld, &abus);
        let zero_bit = words::zero_detect(&mut bld, &abus);
        bld.output("any", vec![any_bit]);
        bld.output("all", vec![all_bit]);
        bld.output("zero", vec![zero_bit]);
        let nl = bld.finish().unwrap();
        let a = a & mask(width);
        prop_assert_eq!(eval(&nl, &[("a", a)], "any"), (a != 0) as u64);
        prop_assert_eq!(eval(&nl, &[("a", a)], "all"), (a == mask(width)) as u64);
        prop_assert_eq!(eval(&nl, &[("a", a)], "zero"), (a == 0) as u64);
    }

    #[test]
    fn optimizer_matches_the_reference_on_random_sequential_netlists(
        ops in prop::collection::vec((0u8..10, any::<u8>(), any::<u8>()), 1..60),
        n_ffs in 0usize..6,
        nr_mask in any::<u8>(),
        outs in prop::collection::vec(any::<u8>(), 1..6),
    ) {
        assert_matches_reference(&random_sequential_netlist(&ops, n_ffs, nr_mask, &outs));
    }

    #[test]
    fn optimizer_matches_the_reference_on_deep_chains_and_rings(
        stages in prop::collection::vec((0u8..10, any::<u8>()), 200..400),
        ring in any::<bool>(),
    ) {
        assert_matches_reference(&chain_netlist(&stages, ring));
    }
}
