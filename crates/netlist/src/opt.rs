//! Netlist optimization: constant propagation and dead-gate elimination.
//!
//! The paper's program-specific cores (Section 7) get smaller not only
//! because registers shrink, but because "the amount of combinational
//! logic (e.g. BAR select muxes and address resolution logic) may be
//! removed" once inputs are known constants at print time. This pass is
//! the synthesis-side half of that story: it folds gates whose inputs are
//! tied to constants, rewrites single-input simplifications (`AND(a,1) →
//! a`, `NAND(a,1) → INV(a)`, …), and then sweeps gates whose outputs reach
//! neither a primary output nor a flip-flop.
//!
//! `fold` is the one statement of the folding rule: what a gate's
//! output is, given which of its pins are tied to constants. The folder
//! here rewrites by it, [`mod@crate::lint`]'s `const-foldable-gate` rule
//! reports by it, and [`crate::dataflow`] lifts it to its lattice, so
//! the rule the optimizer applies and the rule the linter reports cannot
//! drift apart.
//!
//! Both passes cost O(gates + edges). The folder walks the stored
//! topological order once, keeping what it knows about each net in a
//! vector indexed by net id; the sweep keeps the nets
//! [`crate::dataflow`]'s liveness worklist marks, instead of rescanning
//! every gate until nothing changes (14–16 full passes on the generated
//! cores). Each pass issues the same builder calls in the same order as
//! the earlier map-based, rescan-until-stable version, so the output
//! netlist — net ids and topological order included — is unchanged, and
//! so are the quotes and cache keys built on it.
//!
//! ```
//! use printed_netlist::{opt, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("foldable");
//! let a = b.input_bit("a");
//! let one = b.const1();
//! let x = b.and2(a, one);   // folds to a wire
//! let y = b.xor2(x, one);   // strength-reduces to INV(a)
//! b.output("y", vec![y]);
//! let nl = b.finish()?;
//! let optimized = opt::optimize(&nl);
//! assert_eq!(optimized.gate_count(), 1); // a single inverter remains
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::builder::NetlistBuilder;
use crate::dataflow::{self, DataflowFacts};
use crate::ir::{FanoutMap, NetId, Netlist};
use printed_pdk::CellKind;

/// The constant-fold verdict for one combinational gate (see [`fold`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fold {
    /// The output is this constant.
    Const(bool),
    /// The output is pin `i`: the gate folds to a wire.
    Pin(usize),
    /// The output is pin `i` inverted: the gate strength-reduces to an
    /// inverter.
    NotPin(usize),
    /// Nothing folds: the gate stays as it is.
    Keep,
}

/// The constant-fold rule. `pins[i]` is `Some(v)` when pin `i` is tied
/// to the constant `v`; one-pin cells ignore `pins[1]`.
///
/// A controlling constant decides a gate (`AND(a,0) → 0`), a
/// non-controlling one passes or inverts the other pin (`AND(a,1) → a`,
/// `NAND(a,1) → INV(a)`), and pin 0 is consulted before pin 1. A
/// tri-state buffer folds only on a constant *enable*: always enabled it
/// is a wire, never enabled it holds its reset 0 forever; constant data
/// keeps the gate. Sequential cells never fold: even a DFF with constant
/// D has a first cycle that holds the reset value.
// `pins` is taken by reference: passed by value, the array is packed
// into one 16-bit word that every caller's per-gate loop unpacks, which
// made the linter's constant propagation over the 24 sweep cores twice
// as slow (x86-64 Xeon, release build).
#[inline]
pub(crate) fn fold(kind: CellKind, pins: &[Option<bool>; 2]) -> Fold {
    use Fold::{Const, Keep, NotPin, Pin};
    // When a pin is tied to `v` (pin 0 first), `verdict` of the other one.
    let tied = |v: bool, verdict: fn(usize) -> Fold| {
        if pins[0] == Some(v) {
            Some(verdict(1))
        } else if pins[1] == Some(v) {
            Some(verdict(0))
        } else {
            None
        }
    };
    let verdict = match kind {
        CellKind::Inv => pins[0].map(|v| Const(!v)),
        CellKind::And2 => tied(false, |_| Const(false)).or_else(|| tied(true, Pin)),
        CellKind::Or2 => tied(true, |_| Const(true)).or_else(|| tied(false, Pin)),
        CellKind::Nand2 => tied(false, |_| Const(true)).or_else(|| tied(true, NotPin)),
        CellKind::Nor2 => tied(true, |_| Const(false)).or_else(|| tied(false, NotPin)),
        CellKind::Xor2 => tied(false, Pin).or_else(|| tied(true, NotPin)),
        CellKind::Xnor2 => tied(true, Pin).or_else(|| tied(false, NotPin)),
        CellKind::TsBuf => pins[1].map(|en| if en { Pin(0) } else { Const(false) }),
        CellKind::Dff | CellKind::DffNr | CellKind::Latch => None,
    };
    verdict.unwrap_or(Keep)
}

/// What the folder knows about a net while rewriting.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Known {
    /// Constant 0.
    Zero,
    /// Constant 1.
    One,
    /// Equal to some already-rewritten net in the new netlist.
    Net(NetId),
}

impl Known {
    fn constant(v: bool) -> Known {
        if v {
            Known::One
        } else {
            Known::Zero
        }
    }

    /// The constant this is, if it is one.
    fn as_constant(self) -> Option<bool> {
        match self {
            Known::Zero => Some(false),
            Known::One => Some(true),
            Known::Net(_) => None,
        }
    }
}

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Gates in the input netlist.
    pub gates_before: usize,
    /// Gates surviving in the output netlist.
    pub gates_after: usize,
}

impl OptStats {
    /// Gates removed by folding and sweeping.
    pub fn removed(&self) -> usize {
        self.gates_before - self.gates_after
    }
}

/// Optimizes a netlist; see the module docs. Port names and widths are
/// preserved exactly.
pub fn optimize(netlist: &Netlist) -> Netlist {
    optimize_with_stats(netlist).0
}

/// Like [`optimize`], also returning before/after statistics.
pub fn optimize_with_stats(netlist: &Netlist) -> (Netlist, OptStats) {
    run_optimize(netlist, None)
}

/// [`optimize`] strengthened by dataflow-analysis facts: in addition to
/// every syntactic fold, any gate whose output [`crate::dataflow`]
/// *proves* constant is replaced by a tie cell and its (now dead) cone
/// swept. This removes logic no syntactic folder can see — above all
/// sequential constants, like a DFFNR whose feedback can never leave the
/// reset value. Simulation behavior at every settled observation point
/// is byte-identical before and after, because a proved constant holds
/// from every power-up state under every stimulus (the dataflow
/// proptests cross-check exactly this against the simulator).
///
/// `facts` must come from [`crate::dataflow::analyze`] (or
/// `analyze_with_fanout`) over this same `netlist`.
///
/// The calibrated characterization flow keeps using plain [`optimize`]
/// so published numbers do not shift; this pass is the opt-in, stronger
/// synthesis step.
pub fn optimize_with_facts(netlist: &Netlist, facts: &DataflowFacts) -> (Netlist, OptStats) {
    run_optimize(netlist, Some(facts))
}

/// The shared rewrite behind [`optimize_with_stats`] (no facts: exactly
/// the historical syntactic pass) and [`optimize_with_facts`].
fn run_optimize(netlist: &Netlist, facts: Option<&DataflowFacts>) -> (Netlist, OptStats) {
    let mut b = NetlistBuilder::new(netlist.name().to_string());
    // Dataflow-proved constants, seeded in place of each proving gate.
    // Input ports are never proved constant (the analysis treats them as
    // free), so only gate outputs consult this.
    let proved = |n: NetId| -> Option<Known> {
        facts.and_then(|f| f.proved_constant(n)).map(Known::constant)
    };
    // known[old net]: what the folder has learned about it so far.
    let mut known: Vec<Option<Known>> = vec![None; netlist.net_count()];
    // inv_of[new net] = x when that net is INV(x): lets the folder
    // collapse inverter chains (INV(INV(x)) → x). Grows with the new
    // netlist.
    let mut inv_of: Vec<Option<NetId>> = Vec::new();
    let known_at = |known: &[Option<Known>], n: NetId, invariant: &'static str| -> Known {
        known[n.index()].unwrap_or_else(|| unreachable!("{invariant}"))
    };

    // Ports are recreated verbatim.
    for (name, nets) in netlist.input_ports() {
        let new_nets = b.input(name.clone(), nets.len());
        for (&old, &new) in nets.iter().zip(&new_nets) {
            known[old.index()] = Some(Known::Net(new));
        }
    }
    if let Some(c0) = netlist.const0() {
        known[c0.index()] = Some(Known::Zero);
    }
    if let Some(c1) = netlist.const1() {
        known[c1.index()] = Some(Known::One);
    }

    // Sequential cells first: allocate forward nets for every Q so that
    // combinational logic (which may read Q) can be rewritten in one pass.
    // A Q proved constant needs no state at all — its value is the
    // constant from power-up on, so the cell becomes a tie and its D cone
    // goes dead (the sweep collects it).
    let mut seq_gates: Vec<(usize, NetId)> = Vec::new(); // (old gate idx, new q)
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.is_sequential() {
            if let Some(k) = proved(gate.output) {
                known[gate.output.index()] = Some(k);
                continue;
            }
            let q = b.forward_net();
            known[gate.output.index()] = Some(Known::Net(q));
            seq_gates.push((i, q));
        }
    }

    // Rewrite combinational gates in topological order, folding constants.
    // Proved-constant outputs short-circuit: the gate is never created.
    for (_, gate) in netlist.topo_order() {
        if let Some(k) = proved(gate.output) {
            known[gate.output.index()] = Some(k);
            continue;
        }
        // Combinational cells have at most two pins.
        let mut ins = [Known::Zero; 2];
        for (slot, &n) in ins.iter_mut().zip(&gate.inputs) {
            *slot = known_at(&known, n, "topological order guarantees inputs are rewritten");
        }
        let result = fold_gate(&mut b, gate.kind, ins, &mut inv_of);
        known[gate.output.index()] = Some(result);
    }

    // Close sequential feedback loops. Latches keep both pins; DFFs fold a
    // constant D into… still a DFF (state must exist), so just materialize.
    for (i, q) in seq_gates {
        let gate = &netlist.gates()[i];
        let mut pins = [q; 2];
        for (slot, &n) in pins.iter_mut().zip(&gate.inputs) {
            *slot = materialize(&mut b, known_at(&known, n, "sequential pins are rewritten"));
        }
        match gate.kind {
            CellKind::Dff => b.dff_into(pins[0], q),
            CellKind::DffNr => b.dff_nr_into(pins[0], q),
            CellKind::Latch => b.latch_into(pins[0], pins[1], q),
            _ => unreachable!("seq_gates only holds sequential cells"),
        }
    }

    // Outputs: materialize each (constants become tie cells).
    for (name, nets) in netlist.output_ports() {
        let new_nets: Vec<NetId> = nets
            .iter()
            .map(|&n| materialize(&mut b, known_at(&known, n, "outputs are driven")))
            .collect();
        b.output(name.clone(), new_nets);
    }

    let folded =
        b.finish().unwrap_or_else(|_| unreachable!("rewriting a valid netlist preserves validity"));
    let swept = sweep(&folded);
    swept
        .validate()
        .unwrap_or_else(|_| unreachable!("optimizer output re-passes construction invariants"));
    let stats = OptStats { gates_before: netlist.gate_count(), gates_after: swept.gate_count() };
    (swept, stats)
}

/// Turns a folded value into a concrete net in the new netlist.
fn materialize(b: &mut NetlistBuilder, value: Known) -> NetId {
    match value {
        Known::Zero => b.const0(),
        Known::One => b.const1(),
        Known::Net(n) => n,
    }
}

/// Rewrites one gate by its [`fold`] verdict and returns what is known
/// about its output. `ins[1]` is unused for an inverter. A kept inverter
/// goes through [`invert`], so inverter pairs collapse to wires; any
/// other kept gate is rebuilt over its pins, materialized (a kept
/// tri-state buffer may have constant data).
fn fold_gate(
    b: &mut NetlistBuilder,
    kind: CellKind,
    ins: [Known; 2],
    inv_of: &mut Vec<Option<NetId>>,
) -> Known {
    match fold(kind, &ins.map(Known::as_constant)) {
        Fold::Const(v) => Known::constant(v),
        Fold::Pin(i) => ins[i],
        Fold::NotPin(i) => invert(b, ins[i], inv_of),
        Fold::Keep if kind == CellKind::Inv => invert(b, ins[0], inv_of),
        Fold::Keep => {
            let pins = ins.map(|k| materialize(b, k));
            Known::Net(b.gate(kind, pins))
        }
    }
}

/// `INV(x)`: a constant flips, and the inverse of an inverter's output
/// is that inverter's source. `inv_of` maps the inverter outputs created
/// so far to their sources.
fn invert(b: &mut NetlistBuilder, x: Known, inv_of: &mut Vec<Option<NetId>>) -> Known {
    let a = match x {
        Known::Zero => return Known::One,
        Known::One => return Known::Zero,
        Known::Net(a) => a,
    };
    if let Some(source) = inv_of.get(a.index()).copied().flatten() {
        return Known::Net(source);
    }
    let out = b.inv(a);
    if inv_of.len() <= out.index() {
        inv_of.resize(out.index() + 1, None);
    }
    inv_of[out.index()] = Some(a);
    Known::Net(out)
}

/// Removes gates whose outputs reach neither a primary output nor a
/// sequential element.
///
/// Liveness is [`crate::dataflow`]'s: the least set of nets containing
/// every output-port net and closed under "a live net's driver makes its
/// inputs live", found by a worklist in O(gates + edges). Sequential
/// cells take part like any other gate (a live Q makes its D live), so
/// state is kept only when it is transitively observable. The rebuilt
/// netlist replays the input in its own port, sequential and
/// topological order, so the surviving gates keep their relative order.
fn sweep(netlist: &Netlist) -> Netlist {
    let gates = netlist.gates();
    let live = dataflow::liveness(netlist, &FanoutMap::drivers_of(netlist));

    let mut b = NetlistBuilder::new(netlist.name().to_string());
    // map[old net] = its net in the swept netlist; only live nets are
    // ever read, and every live net is written before it is read.
    let mut map: Vec<NetId> = vec![NetId(u32::MAX); netlist.net_count()];
    for (name, nets) in netlist.input_ports() {
        let new = b.input(name.clone(), nets.len());
        for (&old, &n) in nets.iter().zip(&new) {
            map[old.index()] = n;
        }
    }
    if let Some(c0) = netlist.const0() {
        if live[c0.index()] {
            map[c0.index()] = b.const0();
        }
    }
    if let Some(c1) = netlist.const1() {
        if live[c1.index()] {
            map[c1.index()] = b.const1();
        }
    }
    // Forward nets for live sequential gates.
    let mut live_seq: Vec<usize> = Vec::new();
    for (i, gate) in gates.iter().enumerate() {
        if gate.is_sequential() && live[gate.output.index()] {
            map[gate.output.index()] = b.forward_net();
            live_seq.push(i);
        }
    }
    for (_, gate) in netlist.topo_order() {
        if live[gate.output.index()] {
            let mut ins = [NetId(0); 2];
            for (slot, n) in ins.iter_mut().zip(&gate.inputs) {
                *slot = map[n.index()];
            }
            map[gate.output.index()] = b.gate(gate.kind, &ins[..gate.inputs.len()]);
        }
    }
    for &i in &live_seq {
        let gate = &gates[i];
        let q = map[gate.output.index()];
        let pin = |k: usize| map[gate.inputs[k].index()];
        match gate.kind {
            CellKind::Dff => b.dff_into(pin(0), q),
            CellKind::DffNr => b.dff_nr_into(pin(0), q),
            CellKind::Latch => b.latch_into(pin(0), pin(1), q),
            _ => unreachable!("live_seq only holds sequential cells"),
        }
    }
    for (name, nets) in netlist.output_ports() {
        b.output(name.clone(), nets.iter().map(|n| map[n.index()]).collect());
    }
    // Sequential cells are re-tagged Registers automatically, which is the
    // only region distinction the analyses use.
    b.finish().unwrap_or_else(|_| unreachable!("sweeping a valid netlist preserves validity"))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::words;

    #[test]
    fn folds_constant_and_gate() {
        let mut b = NetlistBuilder::new("k");
        let a = b.input_bit("a");
        let one = b.const1();
        let zero = b.const0();
        let x = b.and2(a, one); // = a
        let y = b.or2(x, zero); // = a
        let z = b.xor2(y, one); // = !a
        b.output("z", vec![z]);
        let nl = b.finish().unwrap();
        let (opt, stats) = optimize_with_stats(&nl);
        assert_eq!(opt.gate_count(), 1, "single INV should remain");
        assert_eq!(stats.removed(), 2);

        let mut sim = Simulator::new(&opt);
        sim.set_input("a", 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("z").unwrap(), 0);
        sim.set_input("a", 0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("z").unwrap(), 1);
    }

    #[test]
    fn sweeps_dead_logic() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input_bit("a");
        let used = b.inv(a);
        let _dead = b.xor2(a, used); // never observed
        let _dead2 = b.dff(a); // unobserved state
        b.output("y", vec![used]);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 1);
        assert_eq!(opt.sequential_count(), 0);
    }

    #[test]
    fn optimizing_an_adder_with_constant_operand_shrinks_it() {
        // An 8-bit adder with b tied to zero folds to a wire.
        let mut b = NetlistBuilder::new("a_plus_0");
        let a = b.input("a", 8);
        let zero = b.const0();
        let zeros = vec![zero; 8];
        let out = words::ripple_adder(&mut b, &a, &zeros, zero);
        b.output("sum", out.sum);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        assert_eq!(opt.gate_count(), 0, "a + 0 is a wire");

        let mut sim = Simulator::new(&opt);
        sim.set_input("a", 123).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("sum").unwrap(), 123);
    }

    #[test]
    fn optimization_preserves_sequential_behaviour() {
        // Toggle divider with a redundant AND(1) in the loop.
        let mut b = NetlistBuilder::new("div");
        let q = b.forward_net();
        let one = b.const1();
        let masked = b.and2(q, one);
        let d = b.inv(masked);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let opt = optimize(&nl);
        assert!(opt.gate_count() < nl.gate_count());

        let mut sim = Simulator::new(&opt);
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.step().unwrap();
            seen.push(sim.read_output("q").unwrap());
        }
        assert_eq!(seen, vec![1, 0, 1, 0]);
    }

    #[test]
    fn facts_remove_provably_constant_state() {
        // DFFNR powers up at 0 and recaptures q AND a, so q is stuck at
        // zero forever: y = OR(q, a) collapses to a wire from a. Without
        // facts the optimizer cannot see through the feedback loop.
        let mut b = NetlistBuilder::new("stuck");
        let a = b.input_bit("a");
        let q = b.forward_net();
        let d = b.and2(q, a);
        b.dff_nr_into(d, q);
        let y = b.or2(q, a);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();

        let syntactic = optimize(&nl);
        assert_eq!(syntactic.sequential_count(), 1, "syntactic folding keeps the loop");

        let facts = crate::dataflow::analyze(&nl);
        assert_eq!(facts.value(q), crate::dataflow::AbsValue::Zero);
        let (opt, stats) = optimize_with_facts(&nl, &facts);
        assert_eq!(opt.gate_count(), 0, "constant state makes y a wire from a");
        assert_eq!(stats.removed(), nl.gate_count());

        for stim in 0..2u64 {
            let mut s1 = Simulator::new(&nl);
            let mut s2 = Simulator::new(&opt);
            s1.set_input("a", stim).unwrap();
            s2.set_input("a", stim).unwrap();
            for _ in 0..4 {
                s1.step().unwrap();
                s2.step().unwrap();
                assert_eq!(s1.read_output("y").unwrap(), s2.read_output("y").unwrap());
            }
        }
    }

    #[test]
    fn facts_mode_preserves_sequential_behaviour_on_random_netlists() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        for trial in 0..15 {
            let mut b = NetlistBuilder::new(format!("seq{trial}"));
            let inputs = b.input("x", 3);
            let n_dffs = rng.gen_range(1..4usize);
            let loops: Vec<NetId> = (0..n_dffs).map(|_| b.forward_net()).collect();
            let mut pool: Vec<NetId> = inputs.clone();
            pool.push(b.const0());
            pool.push(b.const1());
            pool.extend(&loops);
            for _ in 0..20 {
                let a = pool[rng.gen_range(0..pool.len())];
                let c = pool[rng.gen_range(0..pool.len())];
                let out = match rng.gen_range(0..7) {
                    0 => b.inv(a),
                    1 => b.and2(a, c),
                    2 => b.or2(a, c),
                    3 => b.xor2(a, c),
                    4 => b.nand2(a, c),
                    5 => b.nor2(a, c),
                    _ => b.xnor2(a, c),
                };
                pool.push(out);
            }
            for &q in &loops {
                let d = pool[rng.gen_range(0..pool.len())];
                if rng.gen_bool(0.5) {
                    b.dff_into(d, q);
                } else {
                    b.dff_nr_into(d, q);
                }
            }
            let outs: Vec<NetId> = (0..4).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            b.output("y", outs);
            let nl = b.finish().unwrap();

            let facts = crate::dataflow::analyze(&nl);
            let (opt, _) = optimize_with_facts(&nl, &facts);
            assert!(opt.gate_count() <= nl.gate_count());
            for stim in [0u64, 3, 5, 7] {
                let mut s1 = Simulator::new(&nl);
                let mut s2 = Simulator::new(&opt);
                s1.set_input("x", stim).unwrap();
                s2.set_input("x", stim).unwrap();
                for cycle in 0..6 {
                    s1.step().unwrap();
                    s2.step().unwrap();
                    assert_eq!(
                        s1.read_output("y").unwrap(),
                        s2.read_output("y").unwrap(),
                        "trial {trial} stim {stim} cycle {cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_netlists_behave_identically_after_optimization() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            // Random DAG over 3 inputs with random constants mixed in.
            let mut b = NetlistBuilder::new(format!("rand{trial}"));
            let inputs = b.input("x", 3);
            let mut pool: Vec<NetId> = inputs.clone();
            pool.push(b.const0());
            pool.push(b.const1());
            for _ in 0..24 {
                let a = pool[rng.gen_range(0..pool.len())];
                let c = pool[rng.gen_range(0..pool.len())];
                let out = match rng.gen_range(0..7) {
                    0 => b.inv(a),
                    1 => b.and2(a, c),
                    2 => b.or2(a, c),
                    3 => b.xor2(a, c),
                    4 => b.nand2(a, c),
                    5 => b.nor2(a, c),
                    _ => b.xnor2(a, c),
                };
                pool.push(out);
            }
            let outs: Vec<NetId> = (0..4).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            b.output("y", outs);
            let nl = b.finish().unwrap();
            let opt = optimize(&nl);
            assert!(opt.gate_count() <= nl.gate_count());
            for stim in 0..8u64 {
                let mut s1 = Simulator::new(&nl);
                let mut s2 = Simulator::new(&opt);
                s1.set_input("x", stim).unwrap();
                s2.set_input("x", stim).unwrap();
                s1.settle().unwrap();
                s2.settle().unwrap();
                assert_eq!(
                    s1.read_output("y").unwrap(),
                    s2.read_output("y").unwrap(),
                    "trial {trial} stim {stim}"
                );
            }
        }
    }

    #[test]
    fn fold_agrees_with_the_truth_table_on_every_pin_state() {
        // No generated core holds every cell kind, so each verdict is
        // checked here against the simulator's truth table on every
        // completion of the unknown pins. A gate is kept exactly when no
        // pin it reads is constant.
        let states = [Some(false), Some(true), None];
        let kinds = [
            CellKind::Inv,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::Xor2,
            CellKind::Xnor2,
        ];
        for kind in kinds {
            let table = crate::sim::truth_table(kind);
            let arity = if kind == CellKind::Inv { 1 } else { 2 };
            for pins in states.iter().flat_map(|&a| states.map(|b| [a, b])) {
                let verdict = fold(kind, &pins);
                for values in [[false, false], [true, false], [false, true], [true, true]] {
                    if pins.iter().zip(values).any(|(pin, v)| pin.is_some_and(|p| p != v)) {
                        continue;
                    }
                    // Bit `b << 1 | a` of the table is the output.
                    let row = (usize::from(values[1]) << 1) | usize::from(values[0]);
                    let out = (table >> row) & 1 == 1;
                    let predicted = match verdict {
                        Fold::Const(v) => v,
                        Fold::Pin(i) => values[i],
                        Fold::NotPin(i) => !values[i],
                        Fold::Keep => out,
                    };
                    assert_eq!(predicted, out, "{kind:?} {pins:?} -> {verdict:?} on {values:?}");
                }
                let known = pins[..arity].iter().any(Option::is_some);
                assert_eq!(verdict == Fold::Keep, !known, "{kind:?} {pins:?} -> {verdict:?}");
                if let Fold::Pin(i) | Fold::NotPin(i) = verdict {
                    assert!(i < arity, "{kind:?} {pins:?} -> {verdict:?}");
                }
            }
        }
    }
}
