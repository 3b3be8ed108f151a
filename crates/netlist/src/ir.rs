//! Gate-level netlist intermediate representation.
//!
//! A [`Netlist`] is a directed graph of standard-cell instances
//! ([`Gate`]s) connected by nets ([`NetId`]s). Every gate is one of the
//! eleven cells of the printed standard-cell libraries
//! ([`printed_pdk::CellKind`]), so a netlist maps one-to-one onto printable
//! hardware and can be costed directly from Table 2 data.
//!
//! Netlists are built with [`crate::builder::NetlistBuilder`], simulated
//! with [`crate::sim::Simulator`], and costed with
//! [`crate::analysis`].

use printed_pdk::CellKind;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one net (wire) in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of one gate instance in a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// A gate id from its raw index into [`Netlist::gates`] — the handle
    /// fault injection uses to name a fault site.
    pub fn from_index(index: usize) -> Self {
        GateId(index as u32)
    }

    /// The raw index of this gate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Functional region a gate belongs to, used for the paper's per-component
/// breakdowns (Figure 8 partitions core cost into Combinational vs
/// Registers; memories are separate models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Region {
    /// Combinational logic (datapath + control).
    Combinational,
    /// Architectural and pipeline registers.
    Registers,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Region::Combinational => "combinational",
            Region::Registers => "registers",
        })
    }
}

/// The input nets of one gate, stored inline: every library cell has at
/// most two input pins, so a gate needs no heap block for them. Derefs to
/// `[NetId]` holding exactly the pins in use.
///
/// Unused slots hold a sentinel no real net can carry (net ids count up
/// from 0 and never reach `u32::MAX`), so the pin count needs no field of
/// its own and a [`Gate`] packs into 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pins([NetId; 2]);

impl Pins {
    const UNUSED: NetId = NetId(u32::MAX);

    /// The first two of `nets` (a longer list is an arity error the
    /// builder has already recorded).
    pub(crate) fn new(nets: &[NetId]) -> Pins {
        let mut pins = [Self::UNUSED; 2];
        for (slot, &net) in pins.iter_mut().zip(nets) {
            *slot = net;
        }
        Pins(pins)
    }
}

impl std::ops::Deref for Pins {
    type Target = [NetId];

    fn deref(&self) -> &[NetId] {
        let len = self.0.iter().filter(|&&n| n != Self::UNUSED).count();
        &self.0[..len]
    }
}

impl<'a> IntoIterator for &'a Pins {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Pins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One standard-cell instance: a 16-byte `Copy` record, its pins inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Which library cell this instantiates.
    pub kind: CellKind,
    /// Input nets, in cell-pin order:
    /// - `Inv`, `Dff`, `DffNr`: `[a]` (clock/reset pins are implicit)
    /// - two-input combinational cells: `[a, b]`
    /// - `Latch`: `[s, r]`
    /// - `TsBuf`: `[a, en]`
    pub inputs: Pins,
    /// The single output net this gate drives.
    pub output: NetId,
}

impl Gate {
    /// Whether the gate holds state across clock edges.
    pub fn is_sequential(&self) -> bool {
        self.kind.is_sequential()
    }
}

/// Errors produced while constructing or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one gate output (or a gate and a port).
    MultipleDrivers(NetId),
    /// A net is used (as a gate input or output port) but nothing drives it
    /// — typically a forward net whose flip-flop was never created.
    UndrivenNet(NetId),
    /// The combinational portion of the netlist contains a cycle through
    /// the given net.
    CombinationalCycle(NetId),
    /// A gate was given the wrong number of input pins.
    ArityMismatch {
        /// The offending cell kind.
        kind: CellKind,
        /// Pins supplied.
        got: usize,
        /// Pins the cell has.
        expected: usize,
    },
    /// Two buses that must be the same width differ.
    WidthMismatch {
        /// What was being connected.
        context: &'static str,
        /// Width of the first bus.
        left: usize,
        /// Width of the second bus.
        right: usize,
    },
    /// A named port was declared twice.
    DuplicatePort(String),
    /// A referenced port does not exist.
    UnknownPort(String),
    /// The combinational logic failed to reach a fixpoint within the
    /// simulator's bounded number of settle passes (oscillation or a
    /// stale topological order). Carries the last net still changing,
    /// the gate driving it (if any — an input port or constant rail
    /// otherwise), and how many net-value changes the final pass still
    /// observed, so watchdog and campaign reports can name the exact
    /// oscillation site instead of just "did not settle".
    Unsettled {
        /// The net still changing on the final settle pass.
        net: NetId,
        /// The gate driving that net, if a gate (rather than a port or
        /// constant rail) drives it.
        driver: Option<GateId>,
        /// Net-value changes observed during the final settle pass — how
        /// hard the logic was still toggling when the budget ran out.
        toggles: u64,
    },
    /// A watchdog cycle limit armed via [`crate::sim::Simulator::set_cycle_limit`]
    /// expired before the workload finished — a runaway or wedged
    /// workload, reported as a typed error instead of an endless loop.
    DeadlineExceeded {
        /// Clock cycles the simulation had completed when the watchdog
        /// fired.
        cycles: u64,
        /// The armed cycle limit.
        limit: u64,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net {n} has multiple drivers"),
            NetlistError::UndrivenNet(n) => write!(f, "net {n} is used but never driven"),
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net {n}")
            }
            NetlistError::ArityMismatch { kind, got, expected } => {
                write!(f, "cell {kind} takes {expected} inputs, got {got}")
            }
            NetlistError::WidthMismatch { context, left, right } => {
                write!(f, "width mismatch in {context}: {left} vs {right}")
            }
            NetlistError::DuplicatePort(name) => write!(f, "duplicate port name {name:?}"),
            NetlistError::UnknownPort(name) => write!(f, "unknown port {name:?}"),
            NetlistError::Unsettled { net, driver, toggles } => {
                write!(f, "combinational logic failed to settle: net {net} keeps oscillating")?;
                match driver {
                    Some(g) => write!(f, " (driven by gate {g}, ")?,
                    None => write!(f, " (port or rail driven, ")?,
                }
                write!(f, "{toggles} nets still toggling on the final pass)")
            }
            NetlistError::DeadlineExceeded { cycles, limit } => {
                write!(f, "watchdog deadline exceeded: {cycles} cycles run, limit {limit}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// Per-net connectivity of a [`Netlist`]: which gate drives each net and
/// which gate input pins load it.
///
/// This is the shared structural index behind the event-driven simulator
/// ([`crate::sim::Simulator`] propagates changes along fanout edges), the
/// linter ([`mod@crate::lint`]'s fanout and driver facts), and fault-campaign
/// setup — all of which previously rebuilt the same loops independently.
/// Build one with [`FanoutMap::build`]; the reader lists are stored in
/// compressed-sparse-row form, so lookup is two index loads and the whole
/// map is three flat allocations.
///
/// Ordering is deterministic: the readers of a net appear in ascending
/// gate-index order (a gate loading the same net on both pins appears
/// once per pin, mirroring how fanout is counted for drive checks).
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutMap {
    /// CSR offsets into `readers`, length `net_count + 1`.
    offsets: Vec<u32>,
    /// Gate indices loading each net, grouped by net.
    readers: Vec<u32>,
    /// Gate index driving each net, `u32::MAX` when a port or constant
    /// rail drives it instead.
    driver: Vec<u32>,
}

impl FanoutMap {
    /// Sentinel for "no gate drives this net".
    const NO_DRIVER: u32 = u32::MAX;

    /// Builds the fanout map of `netlist` in two passes over its gates.
    pub fn build(netlist: &Netlist) -> FanoutMap {
        let nets = netlist.net_count();
        let mut counts = vec![0u32; nets + 1];
        let mut driver = vec![Self::NO_DRIVER; nets];
        for (i, gate) in netlist.gates.iter().enumerate() {
            driver[gate.output.index()] = i as u32;
            for input in &gate.inputs {
                counts[input.index() + 1] += 1;
            }
        }
        for i in 0..nets {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor = offsets.clone();
        let mut readers = vec![0u32; *offsets.last().unwrap_or(&0) as usize];
        for (i, gate) in netlist.gates.iter().enumerate() {
            for input in &gate.inputs {
                let slot = &mut cursor[input.index()];
                readers[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        FanoutMap { offsets, readers, driver }
    }

    /// Gate input pins loading `net`, as gate indices in ascending order.
    pub fn readers(&self, net: NetId) -> &[u32] {
        let lo = self.offsets[net.index()] as usize;
        let hi = self.offsets[net.index() + 1] as usize;
        &self.readers[lo..hi]
    }

    /// Number of gate input pins loading `net` (the linter's fanout
    /// figure — external output-port pins are not included).
    pub fn load_count(&self, net: NetId) -> usize {
        (self.offsets[net.index() + 1] - self.offsets[net.index()]) as usize
    }

    /// The gate driving `net`, or `None` when a port or constant rail
    /// drives it.
    pub fn driver(&self, net: NetId) -> Option<GateId> {
        let g = self.driver[net.index()];
        (g != Self::NO_DRIVER).then_some(GateId(g))
    }
}

/// A complete gate-level design.
///
/// Construct with [`crate::builder::NetlistBuilder`]; the constructor
/// validates single-driver and acyclicity invariants, so every `Netlist`
/// in existence is simulable and costable.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) net_count: u32,
    pub(crate) gates: Vec<Gate>,
    /// Region tag per gate, same indexing as `gates`.
    pub(crate) regions: Vec<Region>,
    /// Named input buses (LSB first).
    pub(crate) inputs: BTreeMap<String, Vec<NetId>>,
    /// Named output buses (LSB first).
    pub(crate) outputs: BTreeMap<String, Vec<NetId>>,
    /// Net hardwired to logic 0, if any gate or port uses it.
    pub(crate) const0: Option<NetId>,
    /// Net hardwired to logic 1, if any gate or port uses it.
    pub(crate) const1: Option<NetId>,
    /// Topological order of combinational gate indices (computed at build).
    pub(crate) topo: Vec<u32>,
}

impl Netlist {
    /// Human-readable design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nets.
    pub fn net_count(&self) -> usize {
        self.net_count as usize
    }

    /// All gate instances.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Region of the gate with the given index.
    pub fn region(&self, gate: GateId) -> Region {
        self.regions[gate.index()]
    }

    /// Total number of gates (the paper's "gate count").
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of sequential cells (DFF / DFFNR / latch instances).
    pub fn sequential_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_sequential()).count()
    }

    /// Named input buses.
    pub fn input_ports(&self) -> &BTreeMap<String, Vec<NetId>> {
        &self.inputs
    }

    /// Named output buses.
    pub fn output_ports(&self) -> &BTreeMap<String, Vec<NetId>> {
        &self.outputs
    }

    /// Nets of a named input bus.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if no such input exists.
    pub fn input(&self, name: &str) -> Result<&[NetId], NetlistError> {
        self.inputs
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| NetlistError::UnknownPort(name.to_string()))
    }

    /// Nets of a named output bus.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] if no such output exists.
    pub fn output(&self, name: &str) -> Result<&[NetId], NetlistError> {
        self.outputs
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| NetlistError::UnknownPort(name.to_string()))
    }

    /// The constant-0 net, if present.
    pub fn const0(&self) -> Option<NetId> {
        self.const0
    }

    /// The constant-1 net, if present.
    pub fn const1(&self) -> Option<NetId> {
        self.const1
    }

    /// Re-checks every construction invariant on the finished netlist:
    /// cell arities, the single-driver rule, no undriven uses, and
    /// combinational acyclicity.
    ///
    /// [`crate::builder::NetlistBuilder::finish`] establishes these
    /// invariants, so a `Netlist` built through the public API always
    /// passes; this re-check guards transformation passes
    /// ([`crate::opt::optimize_with_stats`] calls it on its output) and
    /// any future path that constructs netlists another way.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut driven = vec![false; self.net_count()];
        let mut drive = |net: NetId| -> Result<(), NetlistError> {
            if driven[net.index()] {
                return Err(NetlistError::MultipleDrivers(net));
            }
            driven[net.index()] = true;
            Ok(())
        };
        for nets in self.inputs.values() {
            for &net in nets {
                drive(net)?;
            }
        }
        for net in [self.const0, self.const1].into_iter().flatten() {
            drive(net)?;
        }
        for gate in &self.gates {
            let expected = gate.kind.input_count();
            if gate.inputs.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    kind: gate.kind,
                    got: gate.inputs.len(),
                    expected,
                });
            }
            drive(gate.output)?;
        }
        for gate in &self.gates {
            for &input in &gate.inputs {
                if !driven[input.index()] {
                    return Err(NetlistError::UndrivenNet(input));
                }
            }
        }
        for nets in self.outputs.values() {
            for &net in nets {
                if !driven[net.index()] {
                    return Err(NetlistError::UndrivenNet(net));
                }
            }
        }
        crate::builder::topo_sort(self.net_count, &self.gates)?;
        Ok(())
    }

    /// Per-cell-kind instance counts, for Table-4-style reporting.
    pub fn cell_counts(&self) -> BTreeMap<CellKind, usize> {
        let mut counts = BTreeMap::new();
        for gate in &self.gates {
            *counts.entry(gate.kind).or_insert(0) += 1;
        }
        counts
    }

    /// Combinational gates in topological (evaluation) order.
    pub fn topo_order(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.topo.iter().map(move |&i| (GateId(i), &self.gates[i as usize]))
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates ({} sequential), {} nets",
            self.name,
            self.gate_count(),
            self.sequential_count(),
            self.net_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_are_sixteen_byte_copy_records() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Gate>();
        assert_eq!(std::mem::size_of::<Gate>(), 16);
    }

    #[test]
    fn pins_deref_to_exactly_the_nets_given() {
        let (a, b) = (NetId(3), NetId(7));
        assert!(Pins::new(&[]).is_empty());
        assert_eq!(*Pins::new(&[a]), [a]);
        assert_eq!(*Pins::new(&[a, b]), [a, b]);
        assert_eq!(format!("{:?}", Pins::new(&[a, b])), format!("{:?}", vec![a, b]));
        assert_ne!(Pins::new(&[a]), Pins::new(&[a, b]));
    }
}
