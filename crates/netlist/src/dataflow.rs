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
//! Every fact is falsifiable against the simulators; [`crosscheck`]
//! drives 64 lanes of random stimulus through one bitsliced word and
//! reports the first contradiction and its lane (the `dataflow_props`
//! proptests check the scalar simulator with randomized power-up
//! states).
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

use crate::bitsim::BitSimulator;
use crate::ir::{FanoutMap, Gate, GateId, NetId, Netlist, NetlistError};
use crate::opt::{self, Fold};
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

    let live = liveness(netlist, fanout.drivers());
    let trapped = trapped_state(netlist, &values, &fanout);
    DataflowFacts { values, live, trapped, fanout, rounds }
}

/// Abstract transfer function of one inverter or two-pin logic cell:
/// [`opt::fold`]'s rule lifted to the lattice. A constant pin decides
/// the verdict; a kept gate (no pin constant) joins its pins, which for
/// an inverter is its one pin read twice, since inverting a
/// non-constant point leaves it unchanged.
fn comb_value(kind: CellKind, gate: &Gate, values: &[AbsValue]) -> AbsValue {
    debug_assert!(
        kind != CellKind::TsBuf && !kind.is_sequential(),
        "stateful cells are evaluated by their own transfer functions"
    );
    let a = values[gate.inputs[0].index()];
    let b = values[gate.inputs.get(1).unwrap_or(&gate.inputs[0]).index()];
    let pins = [a, b];
    match opt::fold(kind, &pins.map(AbsValue::constant)) {
        Fold::Const(true) => AbsValue::One,
        Fold::Const(false) => AbsValue::Zero,
        Fold::Pin(i) => pins[i],
        Fold::NotPin(i) => pins[i].invert(),
        Fold::Keep => a.join(b),
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
/// observable logic is live). Worklist over the driver index
/// ([`FanoutMap::drivers_of`]): a net is pushed once, when it turns
/// live, and every gate drives one net, so each gate's pins are visited
/// once — linear in edges, unlike a repeated full-gate sweep. [`crate::opt`]'s dead-gate
/// sweep keeps exactly these nets.
pub(crate) fn liveness(netlist: &Netlist, drivers: &[Option<GateId>]) -> Vec<bool> {
    let mut live = vec![false; netlist.net_count()];
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
        let Some(gid) = drivers[net.index()] else {
            continue; // port or constant rail
        };
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

/// Cross-checks proved facts against the bitsliced simulator: one
/// [`BitSimulator`] word of 64 fault-free copies of the netlist runs
/// `cycles` clock cycles of deterministic pseudo-random stimulus, and
/// every proved-constant net must read its constant in every lane after
/// every settle.
///
/// Lane 0 takes one xorshift64 draw per input port and cycle, masked to
/// the port's low 63 bits: the stimulus the crosscheck drove when it ran
/// one scalar simulator, so lane 0 keeps checking the states it always
/// checked. Lanes 1–63 get independent stimulus from a second xorshift64
/// stream, one draw per input net and cycle, so one word checks 64
/// stimulus streams for the cost of about one.
///
/// # Errors
///
/// Returns a description of the first contradiction (a proved fact the
/// simulator falsified — an analysis soundness bug), naming the lane
/// that saw it, or of a simulator failure: an input port wider than 64
/// bits, or a lane whose logic failed to settle.
pub fn crosscheck(netlist: &Netlist, facts: &DataflowFacts, cycles: u64) -> Result<(), String> {
    // Each proved constant with its expected word: every lane alike.
    let constants: Vec<(NetId, u64)> = (0..netlist.net_count())
        .filter_map(|i| {
            let net = NetId(i as u32);
            facts.proved_constant(net).map(|c| (net, 0u64.wrapping_sub(c.into())))
        })
        .collect();
    drive_crosscheck(netlist, cycles, |sim, when| {
        for &(net, expected) in &constants {
            let wrong = sim.word(net) ^ expected;
            if wrong != 0 {
                let lane = wrong.trailing_zeros();
                let expected = expected & 1;
                return Err(format!(
                    "net {net} proved constant {expected} but reads {} in lane {lane} ({when})",
                    expected ^ 1,
                ));
            }
        }
        Ok(())
    })
}

/// Runs [`crosscheck`]'s word: settles it at power-up, then clocks it
/// `cycles` times under the crosscheck stimulus, calling `check` after
/// every settle with the word and when it settled.
fn drive_crosscheck(
    netlist: &Netlist,
    cycles: u64,
    mut check: impl FnMut(&BitSimulator<'_>, &str) -> Result<(), String>,
) -> Result<(), String> {
    let mut sim = BitSimulator::new(netlist);
    sim.occupy_lanes(BitSimulator::LANES);
    let settled = |sim: &BitSimulator<'_>, what: &str| match sim.dead_lanes() {
        0 => Ok(()),
        dead => Err(format!(
            "{what} failed: combinational logic failed to settle in lane {}",
            dead.trailing_zeros()
        )),
    };
    sim.settle();
    settled(&sim, "initial settle")?;
    check(&sim, "after power-up settle")?;
    let mut stimulus = Stimulus::new();
    let mut words = [0u64; 64];
    for cycle in 0..cycles {
        for (name, nets) in netlist.input_ports() {
            if nets.len() > words.len() {
                let e = NetlistError::WidthMismatch {
                    context: "set_input",
                    left: nets.len(),
                    right: words.len(),
                };
                return Err(format!("set_input {name}: {e}"));
            }
            let words = &mut words[..nets.len()];
            stimulus.port(words);
            sim.set_bus_words(nets, words);
        }
        sim.step();
        settled(&sim, &format!("step {cycle}"))?;
        check(&sim, &format!("after cycle {cycle}"))?;
    }
    Ok(())
}

/// [`crosscheck`]'s stimulus: two xorshift64 streams, no RNG
/// dependency.
struct Stimulus {
    /// Lane 0's stream: one draw per port and cycle.
    lane0: u64,
    /// Lanes 1–63's stream: one draw per net and cycle.
    lanes: u64,
}

impl Stimulus {
    fn new() -> Self {
        Stimulus { lane0: 0x9e37_79b9_7f4a_7c15, lanes: 0xd1b5_4a32_d192_ed03 }
    }

    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The next cycle's lane words of one input port of at most 64 nets,
    /// `words[i]` for net `i`: lane 0 takes bit `i` of one draw masked
    /// to the port's low 63 bits, lanes 1–63 one draw per net.
    fn port(&mut self, words: &mut [u64]) {
        let width = words.len().min(63);
        let value = Self::next(&mut self.lane0) & ((1u64 << width) - 1);
        for (bit, word) in words.iter_mut().enumerate() {
            *word = (Self::next(&mut self.lanes) & !1) | (value >> bit & 1);
        }
    }
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

    /// The stimulus the scalar crosscheck drove, replayed on a scalar
    /// simulator: `seen` gets the simulator after the power-up settle
    /// and after every cycle.
    fn scalar_replay(netlist: &Netlist, cycles: u64, mut seen: impl FnMut(&crate::Simulator<'_>)) {
        let mut sim = crate::Simulator::new(netlist);
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        sim.settle().unwrap();
        seen(&sim);
        for _ in 0..cycles {
            for (name, nets) in netlist.input_ports() {
                let width = nets.len().min(63) as u32;
                sim.set_input(name, next() & ((1u64 << width) - 1)).unwrap();
            }
            sim.step().unwrap();
            seen(&sim);
        }
    }

    #[test]
    fn crosscheck_lane_0_replays_the_scalar_stimulus() {
        // Ports of 1, 5 and 64 bits (the last masked to 63 in lane 0)
        // feeding logic and state.
        let mut b = NetlistBuilder::new("replay");
        let a = b.input_bit("a");
        let m = b.input("m", 5);
        let w = b.input("w", 64);
        let x = b.xor2(a, m[4]);
        let q = b.dff(x);
        let y = b.and2(q, w[63]);
        let z = b.or2(w[62], m[0]);
        b.output("y", vec![y, z, q]);
        let nl = b.finish().unwrap();
        let lane = |sim: &BitSimulator<'_>, l: usize| -> Vec<bool> {
            (0..nl.net_count()).map(|i| sim.word(NetId(i as u32)) >> l & 1 == 1).collect()
        };
        let mut word = Vec::new();
        let mut other_lanes_differ = false;
        drive_crosscheck(&nl, 16, |sim, _| {
            word.push(lane(sim, 0));
            other_lanes_differ |= (1..BitSimulator::LANES).any(|l| lane(sim, l) != lane(sim, 0));
            Ok(())
        })
        .unwrap();
        let mut scalar: Vec<Vec<bool>> = Vec::new();
        scalar_replay(&nl, 16, |sim| {
            scalar.push((0..nl.net_count()).map(|i| sim.read_net(NetId(i as u32))).collect());
        });
        assert_eq!(word, scalar, "lane 0 sees every net as the scalar crosscheck did");
        assert!(other_lanes_differ, "lanes 1-63 draw their own stimulus");
    }

    #[test]
    fn crosscheck_names_the_lane_that_contradicts_a_planted_fact() {
        // Lane 0 drives a port's low 63 bits only, so bit 63 of a 64-bit
        // port, and y with it, stays low in lane 0 and nowhere else.
        let mut b = NetlistBuilder::new("planted");
        let w = b.input("w", 64);
        let y = b.and2(w[63], w[62]);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        let mut facts = analyze(&nl);
        assert_eq!(facts.proved_constant(y), None);
        // A wrong fact: y is constant 0. Lane 0's stimulus never drives y
        // high, so the scalar crosscheck would have passed it.
        facts.values[y.index()] = AbsValue::Zero;
        let cycles = 16;
        scalar_replay(&nl, cycles, |sim| assert!(!sim.read_net(y), "lane 0 never sees y high"));
        let err = crosscheck(&nl, &facts, cycles).expect_err("a lane sees y high");
        let lane: usize = err
            .split(" in lane ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|l| l.parse().ok())
            .unwrap_or_else(|| panic!("the error names its lane: {err}"));
        assert!(lane >= 1, "{err}");
        assert!(
            err.starts_with(&format!("net {y} proved constant 0 but reads 1 in lane")),
            "{err}"
        );
        // That lane really reads y high when the check fails.
        let mut seen = false;
        let _ = drive_crosscheck(&nl, cycles, |sim, _| {
            seen |= sim.word(y) >> lane & 1 == 1;
            if seen {
                Err(String::new())
            } else {
                Ok(())
            }
        });
        assert!(seen, "lane {lane} reads y high");
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
