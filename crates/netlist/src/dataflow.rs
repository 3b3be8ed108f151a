//! Fixed-point dataflow analysis over gate-level netlists.
//!
//! This module is the value-analysis half of the synthesis layer: where
//! [`mod@crate::lint`] checks local structural rules and [`crate::analysis`]
//! charges delays, the dataflow engine *proves global facts about the
//! values* a design can ever carry. It is a classic abstract
//! interpretation: every net is mapped to an element of a small lattice,
//! gates become monotone transfer functions evaluated in the stored
//! levelized (topological) order, and sequential cells join their
//! captured values over abstract time until the whole assignment stops
//! changing — a fixpoint that over-approximates every reachable concrete
//! state from every power-up state and every input sequence.
//!
//! ## The lattice
//!
//! [`AbsValue`] has four points, ordered `Zero, One ⊑ Top ⊑ X`:
//!
//! - [`AbsValue::Zero`] / [`AbsValue::One`] — the net holds that constant
//!   at every settled observation point, for **all** input sequences and
//!   **all** power-up states of resetless cells.
//! - [`AbsValue::Top`] — the net can vary, but only as a deterministic
//!   function of the inputs and time: it is provably independent of the
//!   unknown power-up state.
//! - [`AbsValue::X`] — the net may additionally depend on the unknown
//!   power-up value of a resetless sequential cell (`DFF` / latch). `X`
//!   is the top of this lattice: once power-up uncertainty can reach a
//!   net, input-dependence is subsumed.
//!
//! Putting `X` *above* `Top` is what makes the power-up analysis sound: a
//! mux that selects between a known value and an uninitialized register
//! joins to `X`, never silently back to "merely input-dependent".
//!
//! ## Sequential handling
//!
//! At power-up, `DFFNR` cells hold their reset value 0 (the simulator
//! establishes the same state at construction and on
//! [`crate::sim::Simulator::reset`]); resetless `DFF` and latch cells
//! start at `X`. Each fixpoint round publishes the current abstract
//! state, evaluates the combinational cloud in levelized order, then
//! joins each sequential element's captured next-value into its state.
//! States only climb the (finite) lattice, so the loop terminates after
//! at most `3 × sequential_count + 2` rounds.
//!
//! ## The three analyses
//!
//! 1. **X-propagation** — [`DataflowFacts::x_reachable`] nets may differ
//!    across power-up states; [`DataflowFacts::trapped_state`] is the
//!    proved-persistent subset: resetless bits that *no* reset or input
//!    sequence can ever force to a known value (the lint rule
//!    `x-trapped-state` reports these as errors).
//! 2. **Proved constants / dead logic** — [`DataflowFacts::proved_constant`]
//!    nets never toggle under any stimulus; together with liveness they
//!    feed [`crate::opt::optimize_with_facts`], the first optimization
//!    pass that removes *provably* dead gates rather than syntactically
//!    foldable ones.
//! 3. **Timing** — the same levelization drives the slack-based static
//!    timing analysis in [`crate::analysis::sta`].
//!
//! Every fact is falsifiable against the event-driven simulator;
//! [`crosscheck`] drives random stimulus and reports the first
//! contradiction (the `dataflow_props` proptests do the same with
//! randomized power-up states).
//!
//! ```
//! use printed_netlist::{dataflow, NetlistBuilder};
//!
//! let mut b = NetlistBuilder::new("demo");
//! let a = b.input_bit("a");
//! let zero = b.const0();
//! let masked = b.and2(a, zero); // provably constant 0
//! let q = b.dff(a);             // resetless: power-up X
//! let y = b.or2(masked, q);
//! b.output("y", vec![y]);
//! let nl = b.finish()?;
//!
//! let facts = dataflow::analyze(&nl);
//! assert_eq!(facts.proved_constant(masked), Some(false));
//! assert!(facts.x_reachable(y));
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::ir::{FanoutMap, Gate, GateId, NetId, Netlist};
use crate::sim::Simulator;
use printed_pdk::CellKind;
use std::fmt;
use std::sync::Arc;

/// Abstract value of a net: one point of the analysis lattice.
///
/// Ordered `Zero, One ⊑ Top ⊑ X` (see the module docs for why `X` is the
/// top element).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsValue {
    /// Provably constant 0 at every observation point.
    Zero,
    /// Provably constant 1 at every observation point.
    One,
    /// Varies, but is a deterministic function of inputs and time.
    Top,
    /// May depend on the unknown power-up state of a resetless cell.
    X,
}

impl AbsValue {
    /// Least upper bound of two lattice points.
    pub fn join(self, other: AbsValue) -> AbsValue {
        use AbsValue::{One, Top, Zero, X};
        match (self, other) {
            (X, _) | (_, X) => X,
            (Top, _) | (_, Top) => Top,
            (Zero, Zero) => Zero,
            (One, One) => One,
            (Zero, One) | (One, Zero) => Top,
        }
    }

    /// The constant this value proves, if any.
    pub fn constant(self) -> Option<bool> {
        match self {
            AbsValue::Zero => Some(false),
            AbsValue::One => Some(true),
            _ => None,
        }
    }

    /// Boolean complement lifted to the lattice.
    pub fn invert(self) -> AbsValue {
        match self {
            AbsValue::Zero => AbsValue::One,
            AbsValue::One => AbsValue::Zero,
            v => v,
        }
    }

    /// Upgrades a non-constant value to `X` (used when a selection between
    /// behaviors itself depends on power-up state). Constants stay
    /// constant: if every selectable behavior yields the same value, the
    /// selector cannot matter.
    fn taint(self) -> AbsValue {
        match self {
            AbsValue::Zero => AbsValue::Zero,
            AbsValue::One => AbsValue::One,
            _ => AbsValue::X,
        }
    }
}

impl fmt::Display for AbsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AbsValue::Zero => "0",
            AbsValue::One => "1",
            AbsValue::Top => "T",
            AbsValue::X => "X",
        })
    }
}

/// Everything one fixpoint run proves about a netlist.
///
/// Build with [`analyze`] (or [`analyze_with_fanout`] to reuse a shared
/// [`FanoutMap`], e.g. the one a [`crate::sim::Simulator`] already built).
#[derive(Debug, Clone)]
pub struct DataflowFacts {
    /// Abstract value per net (join over all reachable settled states).
    values: Vec<AbsValue>,
    /// Whether the net transitively reaches a primary output.
    live: Vec<bool>,
    /// Sequential gates whose power-up X provably persists forever: no
    /// reset or input sequence can bring the bit to a known value.
    trapped: Vec<GateId>,
    /// The shared connectivity index the analysis ran on.
    fanout: Arc<FanoutMap>,
    /// Fixpoint rounds until convergence (for reports and benches).
    rounds: usize,
}

impl DataflowFacts {
    /// Abstract value of a net.
    pub fn value(&self, net: NetId) -> AbsValue {
        self.values[net.index()]
    }

    /// The constant a net is proved to hold, if any. A proved constant is
    /// never contradicted by the simulator: the net reads that value
    /// after every settle, from every power-up state, under any stimulus.
    pub fn proved_constant(&self, net: NetId) -> Option<bool> {
        self.values[net.index()].constant()
    }

    /// Whether the net's value may depend on the unknown power-up state
    /// of a resetless sequential cell.
    pub fn x_reachable(&self, net: NetId) -> bool {
        self.values[net.index()] == AbsValue::X
    }

    /// Whether the net transitively reaches a primary output.
    pub fn is_live(&self, net: NetId) -> bool {
        self.live[net.index()]
    }

    /// Sequential cells whose power-up X provably persists under every
    /// input sequence (see module docs); sorted by gate index.
    pub fn trapped_state(&self) -> &[GateId] {
        &self.trapped
    }

    /// The connectivity index the analysis shared or built.
    pub fn fanout(&self) -> &Arc<FanoutMap> {
        &self.fanout
    }

    /// Fixpoint rounds until convergence.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Number of nets proved constant.
    pub fn constant_count(&self) -> usize {
        self.values.iter().filter(|v| v.constant().is_some()).count()
    }

    /// Number of X-reachable nets.
    pub fn x_count(&self) -> usize {
        self.values.iter().filter(|&&v| v == AbsValue::X).count()
    }

    /// Gates that are provably removable: their output either reaches no
    /// primary output, or is a proved constant (it can never toggle, so a
    /// tie cell replaces the whole cone). This is the fact set
    /// [`crate::opt::optimize_with_facts`] consumes.
    pub fn dead_gates(&self, netlist: &Netlist) -> Vec<GateId> {
        netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                !self.live[g.output.index()] || self.values[g.output.index()].constant().is_some()
            })
            .map(|(i, _)| GateId::from_index(i))
            .collect()
    }
}

/// Runs the fixpoint analysis, building a fresh [`FanoutMap`].
pub fn analyze(netlist: &Netlist) -> DataflowFacts {
    analyze_with_fanout(netlist, Arc::new(FanoutMap::build(netlist)))
}

/// Runs the fixpoint analysis on a shared connectivity index — the same
/// `Arc<FanoutMap>` the simulator and linter use, so one build serves all
/// consumers.
pub fn analyze_with_fanout(netlist: &Netlist, fanout: Arc<FanoutMap>) -> DataflowFacts {
    let _span = printed_obs::span!("netlist.dataflow");

    // Boundary abstraction: inputs vary freely (Top); constants are
    // themselves; every other net starts at the lattice bottom-ish Zero
    // and is overwritten by its driver on the first round (validated
    // netlists have no undriven used nets).
    let mut values = vec![AbsValue::Zero; netlist.net_count()];
    for bus in netlist.input_ports().values() {
        for net in bus {
            values[net.index()] = AbsValue::Top;
        }
    }
    if let Some(c1) = netlist.const1() {
        values[c1.index()] = AbsValue::One;
    }

    // Per-gate abstract state: DFFNR powers up reset (0); resetless DFF
    // and latch state is unknown; the TSBUF keeper node holds 0 until
    // first enabled (matching the simulator's construction state — in
    // printed hardware the keeper is as unknown as a latch, which the
    // `unresettable-state` rule already covers structurally).
    let mut state = vec![AbsValue::Zero; netlist.gate_count()];
    for (i, gate) in netlist.gates().iter().enumerate() {
        if matches!(gate.kind, CellKind::Dff | CellKind::Latch) {
            state[i] = AbsValue::X;
        }
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Publish sequential state, then evaluate the combinational cloud
        // in levelized order. TSBUF keepers update in-place like the
        // simulator's settle loop.
        for (i, gate) in netlist.gates().iter().enumerate() {
            if gate.is_sequential() {
                values[gate.output.index()] = state[i];
            }
        }
        for (gid, gate) in netlist.topo_order() {
            let out = match gate.kind {
                CellKind::TsBuf => {
                    let v = tsbuf_value(
                        values[gate.inputs[0].index()],
                        values[gate.inputs[1].index()],
                        state[gid.index()],
                    );
                    state[gid.index()] = state[gid.index()].join(v);
                    v
                }
                kind => comb_value(kind, gate, &values),
            };
            values[gate.output.index()] = out;
        }
        // Capture: join each sequential element's next value into its
        // state. States only climb, so this terminates.
        let mut changed = false;
        for (i, gate) in netlist.gates().iter().enumerate() {
            let next = match gate.kind {
                CellKind::Dff | CellKind::DffNr => values[gate.inputs[0].index()],
                CellKind::Latch => latch_next(
                    values[gate.inputs[0].index()],
                    values[gate.inputs[1].index()],
                    state[i],
                ),
                _ => continue,
            };
            let joined = state[i].join(next);
            if joined != state[i] {
                state[i] = joined;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let live = liveness(netlist, &fanout);
    let trapped = trapped_state(netlist, &values, &fanout);
    DataflowFacts { values, live, trapped, fanout, rounds }
}

/// Abstract transfer function of one combinational cell.
fn comb_value(kind: CellKind, gate: &Gate, values: &[AbsValue]) -> AbsValue {
    use AbsValue::{One, Zero};
    let a = values[gate.inputs[0].index()];
    let b = values[gate.inputs.get(1).unwrap_or(&gate.inputs[0]).index()];
    match kind {
        CellKind::Inv => a.invert(),
        CellKind::And2 => match (a, b) {
            (Zero, _) | (_, Zero) => Zero,
            (One, v) | (v, One) => v,
            _ => a.join(b),
        },
        CellKind::Or2 => match (a, b) {
            (One, _) | (_, One) => One,
            (Zero, v) | (v, Zero) => v,
            _ => a.join(b),
        },
        CellKind::Nand2 => match (a, b) {
            (Zero, _) | (_, Zero) => One,
            (One, v) | (v, One) => v.invert(),
            _ => a.join(b),
        },
        CellKind::Nor2 => match (a, b) {
            (One, _) | (_, One) => Zero,
            (Zero, v) | (v, Zero) => v.invert(),
            _ => a.join(b),
        },
        CellKind::Xor2 => match (a, b) {
            (Zero, v) | (v, Zero) => v,
            (One, v) | (v, One) => v.invert(),
            _ => a.join(b),
        },
        CellKind::Xnor2 => match (a, b) {
            (One, v) | (v, One) => v,
            (Zero, v) | (v, Zero) => v.invert(),
            _ => a.join(b),
        },
        CellKind::TsBuf | CellKind::Dff | CellKind::DffNr | CellKind::Latch => {
            unreachable!("stateful cells are evaluated by their own transfer functions")
        }
    }
}

/// Abstract value a TSBUF presents given data `a`, enable `en`, and the
/// keeper's accumulated held value `held`.
fn tsbuf_value(a: AbsValue, en: AbsValue, held: AbsValue) -> AbsValue {
    match en {
        AbsValue::One => a,
        AbsValue::Zero => held,
        // Enable varies: the output is one of {captured data, held value},
        // and if the *selection* depends on power-up state the result does
        // too (unless both agree on a constant).
        AbsValue::Top => a.join(held),
        AbsValue::X => a.join(held).taint(),
    }
}

/// Abstract next-state of an SR latch (`q' = s ? 1 : (r ? 0 : q)`): the
/// join of every branch the abstract S/R values admit, tainted to `X`
/// when the branch selection itself can depend on power-up state.
fn latch_next(s: AbsValue, r: AbsValue, q: AbsValue) -> AbsValue {
    use AbsValue::{One, Zero, X};
    let mut next: Option<AbsValue> = None;
    let mut add = |v: AbsValue| next = Some(next.map_or(v, |n| n.join(v)));
    if s != Zero {
        add(One); // set branch reachable
    }
    if s != One && r != Zero {
        add(Zero); // reset branch reachable
    }
    if s != One && r != One {
        add(q); // hold branch reachable
    }
    let base = next.unwrap_or(q);
    if s == X || r == X {
        base.taint()
    } else {
        base
    }
}

/// Backward liveness: a net is live when an output port exports it or a
/// live gate reads it (sequential cells included, so state feeding
/// observable logic is live). Worklist over the fanout map's driver
/// relation — linear in edges, unlike a repeated full-gate sweep.
fn liveness(netlist: &Netlist, fanout: &FanoutMap) -> Vec<bool> {
    let mut live = vec![false; netlist.net_count()];
    let mut gate_seen = vec![false; netlist.gate_count()];
    let mut work: Vec<NetId> = Vec::new();
    for nets in netlist.output_ports().values() {
        for &net in nets {
            if !live[net.index()] {
                live[net.index()] = true;
                work.push(net);
            }
        }
    }
    while let Some(net) = work.pop() {
        let Some(gid) = fanout.driver(net) else {
            continue; // port or constant rail
        };
        if std::mem::replace(&mut gate_seen[gid.index()], true) {
            continue;
        }
        for input in &netlist.gates()[gid.index()].inputs {
            if !live[input.index()] {
                live[input.index()] = true;
                work.push(*input);
            }
        }
    }
    live
}

/// Greatest-fixpoint "must stay X" analysis: which resetless bits can
/// *never* be initialized, for any input sequence.
///
/// Start with every resetless sequential cell trapped and discard any
/// whose next-state value is not *forced* to remain unknown. A net is
/// forced-unknown (`must_x`) only along chains where exactly one operand
/// carries the unknown and the other operand cannot mask it: through
/// inverters, through AND/NAND with the other side proved 1, OR/NOR with
/// the other side proved 0, XOR/XNOR with the other side power-up
/// independent, and TSBUF with enable proved 1. Every surviving bit is
/// `power-up value ⊕ deterministic(inputs, t)` at all times, so flipping
/// its power-up value flips it forever — a proved reachability fact, not
/// a heuristic (the `dataflow_props` proptests flip power-up bits and
/// watch it hold).
///
/// One levelized pass marks `must_x` for the full initial trapped set;
/// after that only *falls* propagate. Un-trapping a cell clears its Q,
/// and every net whose marking falls is pushed on a worklist whose
/// readers (from the shared fanout map) re-evaluate: a combinational
/// reader re-checks its `forced` verdict, a trapped sequential reader
/// its `keep` verdict. The operator is monotone, so this reaches the
/// same greatest fixpoint as re-running the levelized pass until stable,
/// but each net falls at most once: O(gates + fanout edges). Re-running
/// the pass would cost one full sweep per flip-flop a shift chain
/// flushes, since each sweep un-traps only the next stage.
fn trapped_state(netlist: &Netlist, values: &[AbsValue], fanout: &FanoutMap) -> Vec<GateId> {
    let gates = netlist.gates();
    let mut trapped: Vec<bool> =
        gates.iter().map(|g| matches!(g.kind, CellKind::Dff | CellKind::Latch)).collect();
    let mut must_x = vec![false; netlist.net_count()];
    for (i, gate) in gates.iter().enumerate() {
        if gate.is_sequential() {
            must_x[gate.output.index()] = trapped[i];
        }
    }
    for (_, gate) in netlist.topo_order() {
        must_x[gate.output.index()] = forced_x(gate, &must_x, values);
    }

    let mut fallen: Vec<NetId> = Vec::new();
    for (i, gate) in gates.iter().enumerate() {
        if trapped[i] && !keeps_x(gate, &must_x, values) {
            trapped[i] = false;
            must_x[gate.output.index()] = false;
            fallen.push(gate.output);
        }
    }
    while let Some(net) = fallen.pop() {
        for &reader in fanout.readers(net) {
            let r = reader as usize;
            let gate = &gates[r];
            let falls = if gate.is_sequential() {
                trapped[r] && !keeps_x(gate, &must_x, values)
            } else {
                must_x[gate.output.index()] && !forced_x(gate, &must_x, values)
            };
            if falls {
                trapped[r] = false;
                must_x[gate.output.index()] = false;
                fallen.push(gate.output);
            }
        }
    }
    trapped.iter().enumerate().filter_map(|(i, &t)| t.then_some(GateId::from_index(i))).collect()
}

/// Whether a combinational gate's output is forced unknown by its
/// operands' current `must_x` marking (see [`trapped_state`]).
fn forced_x(gate: &Gate, must_x: &[bool], values: &[AbsValue]) -> bool {
    use AbsValue::{One, Zero, X};
    let a = gate.inputs[0];
    let b = *gate.inputs.get(1).unwrap_or(&a);
    let (ma, mb) = (must_x[a.index()], must_x[b.index()]);
    let (va, vb) = (values[a.index()], values[b.index()]);
    match gate.kind {
        CellKind::Inv => ma,
        CellKind::And2 | CellKind::Nand2 => (ma && vb == One) || (mb && va == One),
        CellKind::Or2 | CellKind::Nor2 => (ma && vb == Zero) || (mb && va == Zero),
        CellKind::Xor2 | CellKind::Xnor2 => (ma && vb != X) || (mb && va != X),
        CellKind::TsBuf => ma && vb == One,
        CellKind::Dff | CellKind::DffNr | CellKind::Latch => {
            unreachable!("sequential cells are not in the topological order")
        }
    }
}

/// Whether a trapped sequential cell's next state is forced to stay
/// unknown (see [`trapped_state`]).
fn keeps_x(gate: &Gate, must_x: &[bool], values: &[AbsValue]) -> bool {
    match gate.kind {
        CellKind::Dff => must_x[gate.inputs[0].index()],
        // A latch is uninitializable only when neither pin can ever
        // fire: both proved constant 0 — a pure hold cell.
        CellKind::Latch => {
            values[gate.inputs[0].index()] == AbsValue::Zero
                && values[gate.inputs[1].index()] == AbsValue::Zero
        }
        _ => false,
    }
}

/// Cross-checks proved facts against the event-driven simulator: drives
/// `cycles` clock cycles of deterministic pseudo-random stimulus and
/// verifies that every proved-constant net reads its constant after every
/// settle.
///
/// # Errors
///
/// Returns a description of the first contradiction (a proved fact the
/// simulator falsified — an analysis soundness bug) or simulator failure.
pub fn crosscheck(netlist: &Netlist, facts: &DataflowFacts, cycles: u64) -> Result<(), String> {
    let constants: Vec<(NetId, bool)> = (0..netlist.net_count())
        .filter_map(|i| {
            let net = NetId(i as u32);
            facts.proved_constant(net).map(|c| (net, c))
        })
        .collect();
    let mut sim = Simulator::new(netlist);
    let widths: Vec<(String, u32)> = netlist
        .input_ports()
        .iter()
        .map(|(name, nets)| (name.clone(), nets.len().min(63) as u32))
        .collect();
    // xorshift64: cheap deterministic stimulus, no RNG dependency.
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let check = |sim: &Simulator<'_>, when: &str| -> Result<(), String> {
        for &(net, expected) in &constants {
            if sim.read_net(net) != expected {
                return Err(format!(
                    "net {net} proved constant {} but reads {} ({when})",
                    expected as u8,
                    sim.read_net(net) as u8,
                ));
            }
        }
        Ok(())
    };
    sim.settle().map_err(|e| format!("initial settle failed: {e}"))?;
    check(&sim, "after power-up settle")?;
    for cycle in 0..cycles {
        for (name, width) in &widths {
            let value = next() & ((1u64 << width) - 1);
            sim.set_input(name, value).map_err(|e| format!("set_input {name}: {e}"))?;
        }
        sim.step().map_err(|e| format!("step {cycle} failed: {e}"))?;
        check(&sim, &format!("after cycle {cycle}"))?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    #[test]
    fn join_is_commutative_monotone_and_has_x_on_top() {
        use AbsValue::{One, Top, Zero, X};
        let all = [Zero, One, Top, X];
        for a in all {
            for b in all {
                assert_eq!(a.join(b), b.join(a));
                assert_eq!(a.join(a), a);
                assert_eq!(a.join(X), X);
            }
        }
        assert_eq!(Zero.join(One), Top);
        assert_eq!(Top.join(One), Top);
    }

    #[test]
    fn constants_propagate_through_logic() {
        let mut b = NetlistBuilder::new("consts");
        let a = b.input_bit("a");
        let zero = b.const0();
        let one = b.const1();
        let x = b.and2(a, zero); // 0
        let y = b.or2(x, one); // 1
        let z = b.xor2(y, a); // !a: varies
        b.output("z", vec![z]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert_eq!(facts.proved_constant(x), Some(false));
        assert_eq!(facts.proved_constant(y), Some(true));
        assert_eq!(facts.value(z), AbsValue::Top);
        assert_eq!(facts.x_count(), 0);
    }

    #[test]
    fn resettable_constant_feedback_is_proved_constant() {
        // DFFNR with D = q AND a: resets to 0 and can never leave it —
        // a sequential constant no syntactic folder can see.
        let mut b = NetlistBuilder::new("seq_const");
        let a = b.input_bit("a");
        let q = b.forward_net();
        let d = b.and2(q, a);
        b.dff_nr_into(d, q);
        let y = b.or2(q, a);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert_eq!(facts.proved_constant(q), Some(false));
        // y = 0 | a = a: varies with the input but is power-up clean.
        assert_eq!(facts.value(y), AbsValue::Top);
    }

    #[test]
    fn resetless_dff_is_x_and_masking_kills_it() {
        let mut b = NetlistBuilder::new("xmask");
        let a = b.input_bit("a");
        let zero = b.const0();
        let q = b.dff(a);
        let masked = b.and2(q, zero); // constant 0: X masked
        let open = b.and2(q, a); // X reaches through
        b.output("m", vec![masked]);
        b.output("o", vec![open]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.x_reachable(q));
        assert_eq!(facts.proved_constant(masked), Some(false));
        assert!(facts.x_reachable(open), "AND with a free input lets X through");
    }

    #[test]
    fn dffnr_capturing_x_becomes_x() {
        // A resettable register downstream of a resetless one still sees
        // power-up X one cycle later.
        let mut b = NetlistBuilder::new("xchain");
        let a = b.input_bit("a");
        let q0 = b.dff(a);
        let q1 = b.dff_nr(q0);
        b.output("y", vec![q1]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.x_reachable(q1));
    }

    #[test]
    fn toggle_loop_is_trapped_but_flushable_pipeline_is_not() {
        // q' = !q with unknown power-up: unknown forever, provably.
        let mut b = NetlistBuilder::new("trap");
        let q = b.forward_net();
        let d = b.inv(q);
        b.dff_into(d, q);
        b.output("y", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert_eq!(facts.trapped_state().len(), 1);

        // A pipeline register fed from an input flushes on the first
        // clock: X-reachable, but not trapped.
        let mut b = NetlistBuilder::new("flush");
        let a = b.input_bit("a");
        let q = b.dff(a);
        b.output("y", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.x_reachable(q));
        assert!(facts.trapped_state().is_empty());
    }

    #[test]
    fn recirculating_register_with_live_enable_is_not_trapped() {
        // q' = en ? d : q — an input sequence (assert en) initializes it.
        let mut b = NetlistBuilder::new("wren");
        let d_in = b.input_bit("d");
        let en = b.input_bit("en");
        let q = b.forward_net();
        let en_n = b.inv(en);
        let hold = b.and2(q, en_n);
        let load = b.and2(d_in, en);
        let d = b.or2(hold, load);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.x_reachable(q));
        assert!(facts.trapped_state().is_empty());

        // Tie the enable low and the same register becomes uninitializable.
        let mut b = NetlistBuilder::new("wren0");
        let d_in = b.input_bit("d");
        let zero = b.const0();
        let q = b.forward_net();
        let en_n = b.inv(zero);
        let hold = b.and2(q, en_n);
        let load = b.and2(d_in, zero);
        let d = b.or2(hold, load);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert_eq!(facts.trapped_state().len(), 1);
    }

    #[test]
    fn xor_with_deterministic_operand_keeps_a_bit_trapped() {
        // q' = q ^ a: whatever the stimulus, q stays unknown.
        let mut b = NetlistBuilder::new("scramble");
        let a = b.input_bit("a");
        let q = b.forward_net();
        let d = b.xor2(q, a);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert_eq!(facts.trapped_state().len(), 1);
    }

    #[test]
    fn thousand_deep_chain_traps_nothing_until_closed_into_a_ring() {
        // A shift chain fed from an input flushes stage by stage: the
        // worklist un-traps all 1,000 cells in one cascade.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input_bit("a");
        let mut q = a;
        for _ in 0..1000 {
            q = b.dff(q);
        }
        b.output("so", vec![q]);
        let nl = b.finish().unwrap();
        assert!(analyze(&nl).trapped_state().is_empty());

        // The same chain closed into a ring never sees a known value.
        let mut b = NetlistBuilder::new("ring");
        let head = b.forward_net();
        let mut q = head;
        for _ in 0..999 {
            q = b.dff(q);
        }
        b.dff_into(q, head);
        b.output("so", vec![q]);
        let nl = b.finish().unwrap();
        assert_eq!(analyze(&nl).trapped_state().len(), 1000);
    }

    #[test]
    fn dead_gates_cover_unobservable_and_constant_cones() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input_bit("a");
        let zero = b.const0();
        let dead = b.inv(a); // unobservable
        let constant = b.and2(a, zero); // observable but constant
        let live = b.inv(constant);
        b.output("y", vec![live]);
        let _ = dead;
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        // dead INV + constant AND; the live INV output is constant 1 too.
        assert_eq!(facts.dead_gates(&nl).len(), 3);
    }

    #[test]
    fn crosscheck_validates_proved_facts_on_a_sequential_design() {
        let mut b = NetlistBuilder::new("xc");
        let a = b.input("a", 4);
        let zero = b.const0();
        let q = b.forward_net();
        let d = b.and2(q, a[0]);
        b.dff_nr_into(d, q);
        let masked = b.and2(a[1], zero);
        let y = b.or2(q, masked);
        let out = b.or2(y, a[2]);
        b.output("y", vec![out]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.constant_count() >= 3, "q, masked, const0 at least");
        crosscheck(&nl, &facts, 64).expect("no proved fact may be contradicted");
    }

    #[test]
    fn fixpoint_converges_quickly() {
        let mut b = NetlistBuilder::new("rounds");
        let a = b.input_bit("a");
        let mut q = a;
        for _ in 0..8 {
            q = b.dff_nr(q);
        }
        b.output("y", vec![q]);
        let nl = b.finish().unwrap();
        let facts = analyze(&nl);
        assert!(facts.rounds() <= 3 * nl.sequential_count() + 2);
    }
}
