//! Netlist construction.
//!
//! [`NetlistBuilder`] provides single-gate primitives (`nand2`, `xor2`,
//! `dff`, …) returning the output [`NetId`]; the word-level generators in
//! [`crate::words`] compose these into adders, muxes and registers.
//!
//! ```
//! use printed_netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new("half_adder");
//! let a = b.input_bit("a");
//! let c = b.input_bit("b");
//! let sum = b.xor2(a, c);
//! let carry = b.and2(a, c);
//! b.output("sum", vec![sum]);
//! b.output("carry", vec![carry]);
//! let netlist = b.finish()?;
//! assert_eq!(netlist.gate_count(), 2);
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::ir::{Gate, NetId, Netlist, NetlistError, Pins, Region};
use printed_pdk::CellKind;
use std::collections::BTreeMap;

/// Name of the single-bit error-detection output added by [`tmr`]: high
/// whenever the three register replicas disagree. Excluded from workload signatures by
/// [`crate::fault::PatternWorkload`] and used to classify faults as
/// detected.
pub const TMR_ERROR_PORT: &str = "tmr_err";

/// Appends a two-input combinational gate driving a fresh net.
fn push_comb(
    gates: &mut Vec<Gate>,
    regions: &mut Vec<Region>,
    net_count: &mut u32,
    kind: CellKind,
    a: NetId,
    b: NetId,
) -> NetId {
    let output = NetId(*net_count);
    *net_count += 1;
    gates.push(Gate { kind, inputs: Pins::new(&[a, b]), output });
    regions.push(Region::Combinational);
    output
}

/// Triple-modular-redundancy transform: every sequential cell
/// (`Dff`/`DffNr`/`Latch`) is triplicated and its fanout rewired through a
/// majority voter built from library cells
/// (`maj = NAND(AND(NAND(q0,q1), NAND(q0,q2)), NAND(q1,q2))`), so any
/// single replica upset — and any single stuck-at inside one replica — is
/// corrected in place. Because all three replicas recapture the same
/// (voted) D input on the next edge, an upset replica self-heals after one
/// cycle.
///
/// A [`TMR_ERROR_PORT`] output is added that goes high whenever the
/// replicas disagree, enabling detected-error classification in fault
/// campaigns: an OR-tree over per-register replica-mismatch detectors.
///
/// Combinational logic is left untouched, so the transform hardens state
/// (the SEU target) at a cost of `2× registers + 5 voter gates + 3
/// mismatch gates per register` plus the OR-tree, measurable through
/// [`crate::analysis`].
///
/// # Errors
///
/// Returns [`NetlistError::DuplicatePort`] if the design already has an
/// output named [`TMR_ERROR_PORT`], or any invariant violation found while
/// re-validating the transformed netlist.
pub fn tmr(netlist: &Netlist) -> Result<Netlist, NetlistError> {
    if netlist.outputs.contains_key(TMR_ERROR_PORT) {
        return Err(NetlistError::DuplicatePort(TMR_ERROR_PORT.to_string()));
    }
    let mut net_count = netlist.net_count;
    let mut gates = netlist.gates.clone();
    let mut regions = netlist.regions.clone();
    let mut const0 = netlist.const0;
    let mut outputs = netlist.outputs.clone();

    let sequential: Vec<usize> = (0..gates.len()).filter(|&i| gates[i].is_sequential()).collect();
    let mut mismatches = Vec::with_capacity(sequential.len());
    for &i in &sequential {
        let kind = gates[i].kind;
        let inputs = gates[i].inputs;
        let q = gates[i].output;
        // Replica outputs: the original cell is retargeted to q0, two
        // copies drive q1/q2, and the voter reclaims the original q net
        // so every consumer (including feedback into D) sees the voted
        // value.
        let q0 = NetId(net_count);
        let q1 = NetId(net_count + 1);
        let q2 = NetId(net_count + 2);
        net_count += 3;
        gates[i].output = q0;
        for replica in [q1, q2] {
            gates.push(Gate { kind, inputs, output: replica });
            regions.push(Region::Registers);
        }
        let n01 = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Nand2, q0, q1);
        let n02 = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Nand2, q0, q2);
        let n12 = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Nand2, q1, q2);
        let both = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::And2, n01, n02);
        gates.push(Gate { kind: CellKind::Nand2, inputs: Pins::new(&[both, n12]), output: q });
        regions.push(Region::Combinational);
        let x01 = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Xor2, q0, q1);
        let x02 = push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Xor2, q0, q2);
        mismatches.push(push_comb(
            &mut gates,
            &mut regions,
            &mut net_count,
            CellKind::Or2,
            x01,
            x02,
        ));
    }

    // Balanced OR reduction of the per-register mismatch bits.
    let mut layer = mismatches;
    while layer.len() > 1 {
        let mut next = Vec::with_capacity(layer.len().div_ceil(2));
        for pair in layer.chunks(2) {
            next.push(if let [a, b] = *pair {
                push_comb(&mut gates, &mut regions, &mut net_count, CellKind::Or2, a, b)
            } else {
                pair[0]
            });
        }
        layer = next;
    }
    let err_net = match layer.first() {
        Some(&net) => net,
        // A purely combinational design never mismatches: tie low.
        None => *const0.get_or_insert_with(|| {
            let n = NetId(net_count);
            net_count += 1;
            n
        }),
    };
    outputs.insert(TMR_ERROR_PORT.to_string(), vec![err_net]);

    let topo = topo_sort(net_count, &gates)?;
    let hardened = Netlist {
        name: format!("{}_tmr", netlist.name),
        net_count,
        gates,
        regions,
        inputs: netlist.inputs.clone(),
        outputs,
        const0,
        const1: netlist.const1,
        topo,
    };
    hardened.validate()?;
    Ok(hardened)
}

/// Incrementally builds a [`Netlist`], enforcing the single-driver rule and
/// checking for combinational cycles when [`NetlistBuilder::finish`] is
/// called.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    net_count: u32,
    gates: Vec<Gate>,
    regions: Vec<Region>,
    inputs: BTreeMap<String, Vec<NetId>>,
    outputs: BTreeMap<String, Vec<NetId>>,
    const0: Option<NetId>,
    const1: Option<NetId>,
    /// Driver bookkeeping: true if the net already has a driver.
    driven: Vec<bool>,
    error: Option<NetlistError>,
}

impl NetlistBuilder {
    /// Starts a new design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            net_count: 0,
            gates: Vec::new(),
            regions: Vec::new(),
            inputs: BTreeMap::new(),
            outputs: BTreeMap::new(),
            const0: None,
            const1: None,
            driven: Vec::new(),
            error: None,
        }
    }

    fn fresh_net(&mut self) -> NetId {
        let id = NetId(self.net_count);
        self.net_count += 1;
        self.driven.push(false);
        id
    }

    fn record_error(&mut self, err: NetlistError) {
        if self.error.is_none() {
            self.error = Some(err);
        }
    }

    fn mark_driven(&mut self, net: NetId) {
        if self.driven[net.index()] {
            self.record_error(NetlistError::MultipleDrivers(net));
        }
        self.driven[net.index()] = true;
    }

    /// Declares a named single-bit input.
    pub fn input_bit(&mut self, name: impl Into<String>) -> NetId {
        self.input(name, 1)[0]
    }

    /// Declares a named input bus of `width` bits (LSB first).
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Vec<NetId> {
        let name = name.into();
        let nets: Vec<NetId> = (0..width)
            .map(|_| {
                let n = self.fresh_net();
                self.mark_driven(n); // ports drive their nets
                n
            })
            .collect();
        if self.inputs.insert(name.clone(), nets.clone()).is_some() {
            self.record_error(NetlistError::DuplicatePort(name));
        }
        nets
    }

    /// Declares a named output bus (LSB first). The nets must already be
    /// driven by gates, inputs, or constants.
    pub fn output(&mut self, name: impl Into<String>, nets: Vec<NetId>) {
        let name = name.into();
        if self.outputs.insert(name.clone(), nets).is_some() {
            self.record_error(NetlistError::DuplicatePort(name));
        }
    }

    /// The constant logic-0 net (tie-low), created on first use.
    pub fn const0(&mut self) -> NetId {
        if let Some(n) = self.const0 {
            return n;
        }
        let n = self.fresh_net();
        self.mark_driven(n);
        self.const0 = Some(n);
        n
    }

    /// The constant logic-1 net (tie-high), created on first use.
    pub fn const1(&mut self) -> NetId {
        if let Some(n) = self.const1 {
            return n;
        }
        let n = self.fresh_net();
        self.mark_driven(n);
        self.const1 = Some(n);
        n
    }

    /// Adds a gate of arbitrary kind; returns the output net. An input
    /// count that does not fit the cell is recorded as
    /// [`NetlistError::ArityMismatch`] and fails [`NetlistBuilder::finish`].
    pub fn gate(&mut self, kind: CellKind, inputs: impl AsRef<[NetId]>) -> NetId {
        let inputs = inputs.as_ref();
        let expected = kind.input_count();
        if inputs.len() != expected {
            self.record_error(NetlistError::ArityMismatch { kind, got: inputs.len(), expected });
        }
        let output = self.fresh_net();
        self.mark_driven(output);
        let region = if kind.is_sequential() { Region::Registers } else { Region::Combinational };
        self.gates.push(Gate { kind, inputs: Pins::new(inputs), output });
        self.regions.push(region);
        output
    }

    /// NOT gate.
    pub fn inv(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Inv, [a])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nand2, [a, b])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nor2, [a, b])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::And2, [a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Or2, [a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xor2, [a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xnor2, [a, b])
    }

    /// D flip-flop; returns Q. State resets to 0 at simulation start but has
    /// no reset pin (cheaper cell).
    pub fn dff(&mut self, d: NetId) -> NetId {
        self.gate(CellKind::Dff, [d])
    }

    /// D flip-flop with asynchronous reset (to 0); returns Q.
    pub fn dff_nr(&mut self, d: NetId) -> NetId {
        self.gate(CellKind::DffNr, [d])
    }

    /// SR latch; returns Q.
    pub fn latch(&mut self, s: NetId, r: NetId) -> NetId {
        self.gate(CellKind::Latch, [s, r])
    }

    /// Allocates a net with no driver yet, for state-feedback loops
    /// (e.g. `pc' = pc + 1` needs `pc` before the PC register exists).
    /// It must later be driven by [`NetlistBuilder::dff_into`] or
    /// [`NetlistBuilder::dff_nr_into`]; otherwise [`NetlistBuilder::finish`]
    /// reports it as undriven.
    pub fn forward_net(&mut self) -> NetId {
        self.fresh_net()
    }

    /// Allocates a bus of forward nets (see [`NetlistBuilder::forward_net`]).
    pub fn forward_bus(&mut self, width: usize) -> Vec<NetId> {
        (0..width).map(|_| self.fresh_net()).collect()
    }

    /// Creates a D flip-flop whose Q is the pre-allocated `q` net, closing
    /// a feedback loop started with [`NetlistBuilder::forward_net`].
    pub fn dff_into(&mut self, d: NetId, q: NetId) {
        self.seq_into(CellKind::Dff, &[d], q);
    }

    /// Like [`NetlistBuilder::dff_into`] but with asynchronous reset.
    pub fn dff_nr_into(&mut self, d: NetId, q: NetId) {
        self.seq_into(CellKind::DffNr, &[d], q);
    }

    /// Creates an SR latch whose Q is the pre-allocated `q` net.
    pub fn latch_into(&mut self, s: NetId, r: NetId, q: NetId) {
        self.seq_into(CellKind::Latch, &[s, r], q);
    }

    fn seq_into(&mut self, kind: CellKind, inputs: &[NetId], q: NetId) {
        self.mark_driven(q);
        self.gates.push(Gate { kind, inputs: Pins::new(inputs), output: q });
        self.regions.push(Region::Registers);
    }

    /// Tri-state buffer: drives `a` when `en` is high, holds otherwise.
    pub fn tsbuf(&mut self, a: NetId, en: NetId) -> NetId {
        self.gate(CellKind::TsBuf, [a, en])
    }

    /// 2-to-1 mux: returns `sel ? b : a`, given a pre-inverted select.
    /// Sharing `sel_n` across bits is the caller's job (see
    /// [`crate::words::mux2_word`]).
    ///
    /// Mapped to NAND form (`NAND(NAND(a, !s), NAND(b, s))`), the cell
    /// choice a printed-library-aware synthesizer makes: in EGFET, AND/OR
    /// cells burn ~50× the switching energy of NAND.
    pub fn mux2(&mut self, a: NetId, b: NetId, sel: NetId, sel_n: NetId) -> NetId {
        let pick_a = self.nand2(a, sel_n);
        let pick_b = self.nand2(b, sel);
        self.nand2(pick_a, pick_b)
    }

    /// Full adder; returns `(sum, carry_out)`. The carry chain is NAND-
    /// mapped (`cout = NAND(NAND(a,b), NAND(a⊕b, cin))`) — two fast cheap
    /// levels per bit instead of AND+OR.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let g_n = self.nand2(a, b);
        let p_n = self.nand2(axb, cin);
        let cout = self.nand2(g_n, p_n);
        (sum, cout)
    }

    /// Half adder; returns `(sum, carry_out)`.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        let sum = self.xor2(a, b);
        let carry = self.and2(a, b);
        (sum, carry)
    }

    /// Finalizes the netlist: checks the recorded errors and verifies the
    /// combinational graph is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first construction error, or
    /// [`NetlistError::CombinationalCycle`] if combinational gates form a
    /// loop.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        if let Some(err) = self.error {
            return Err(err);
        }
        // Every net consumed by a gate or exported as an output must have a
        // driver (forward nets whose DFF was never created are the usual
        // culprit).
        for gate in &self.gates {
            for &input in &gate.inputs {
                if !self.driven[input.index()] {
                    return Err(NetlistError::UndrivenNet(input));
                }
            }
        }
        for nets in self.outputs.values() {
            for &net in nets {
                if !self.driven[net.index()] {
                    return Err(NetlistError::UndrivenNet(net));
                }
            }
        }
        let topo = topo_sort(self.net_count, &self.gates)?;
        Ok(Netlist {
            name: self.name,
            net_count: self.net_count,
            gates: self.gates,
            regions: self.regions,
            inputs: self.inputs,
            outputs: self.outputs,
            const0: self.const0,
            const1: self.const1,
            topo,
        })
    }
}

/// Kahn's algorithm over the combinational subgraph. Sequential outputs
/// (DFF/latch Q) are sources; sequential inputs (D pins) are sinks.
/// Also used by [`Netlist::validate`] to re-check acyclicity.
///
/// Each gate's dependents live in one flat CSR array (offsets plus
/// readers, the layout [`crate::ir::FanoutMap`] uses), filled in gate-index
/// then pin order, so the ready stack pops gates in a fixed order that
/// depends only on the gate list.
pub(crate) fn topo_sort(net_count: u32, gates: &[Gate]) -> Result<Vec<u32>, NetlistError> {
    const NO_DRIVER: u32 = u32::MAX;
    // driver_of[net] = combinational gate index driving it, if any.
    let mut driver_of = vec![NO_DRIVER; net_count as usize];
    for (i, gate) in gates.iter().enumerate() {
        if !gate.is_sequential() {
            driver_of[gate.output.index()] = i as u32;
        }
    }

    // offsets[g + 1] counts gate g's dependent pins, then becomes the end
    // of its slice after the prefix sum.
    let mut indegree = vec![0u32; gates.len()];
    let mut offsets = vec![0u32; gates.len() + 1];
    for (i, gate) in gates.iter().enumerate() {
        if gate.is_sequential() {
            continue;
        }
        for input in &gate.inputs {
            let driver = driver_of[input.index()];
            if driver != NO_DRIVER {
                indegree[i] += 1;
                offsets[driver as usize + 1] += 1;
            }
        }
    }
    for g in 0..gates.len() {
        offsets[g + 1] += offsets[g];
    }
    let mut cursor = offsets.clone();
    let mut dependents = vec![0u32; offsets[gates.len()] as usize];
    for (i, gate) in gates.iter().enumerate() {
        if gate.is_sequential() {
            continue;
        }
        for input in &gate.inputs {
            let driver = driver_of[input.index()];
            if driver != NO_DRIVER {
                let slot = &mut cursor[driver as usize];
                dependents[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
    }

    let mut ready: Vec<u32> = (0..gates.len() as u32)
        .filter(|&i| !gates[i as usize].is_sequential() && indegree[i as usize] == 0)
        .collect();
    let mut order = Vec::with_capacity(gates.len());
    while let Some(i) = ready.pop() {
        order.push(i);
        let (lo, hi) = (offsets[i as usize] as usize, offsets[i as usize + 1] as usize);
        for &dep in &dependents[lo..hi] {
            indegree[dep as usize] -= 1;
            if indegree[dep as usize] == 0 {
                ready.push(dep);
            }
        }
    }

    let comb_total = gates.iter().filter(|g| !g.is_sequential()).count();
    if order.len() != comb_total {
        // Some combinational gate never became ready: find one on a cycle.
        let stuck = (0..gates.len())
            .find(|&i| !gates[i].is_sequential() && indegree[i] > 0)
            .unwrap_or_else(|| {
                unreachable!("a stuck gate must exist when the order is incomplete")
            });
        return Err(NetlistError::CombinationalCycle(gates[stuck].output));
    }
    Ok(order)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builds_a_half_adder() {
        let mut b = NetlistBuilder::new("ha");
        let a = b.input_bit("a");
        let c = b.input_bit("b");
        let (s, co) = b.half_adder(a, c);
        b.output("s", vec![s]);
        b.output("co", vec![co]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.gate_count(), 2);
        assert_eq!(nl.sequential_count(), 0);
        assert_eq!(nl.input("a").unwrap().len(), 1);
    }

    #[test]
    fn topo_sort_detects_cycles() {
        // The builder API cannot express a combinational cycle (every gate
        // output is a fresh net allocated after its inputs), so the check in
        // `topo_sort` is defense-in-depth for hand-made gate lists — e.g.
        // netlists reconstructed from serialized form. Exercise it directly.
        use crate::ir::{Gate, NetId};
        let gates = vec![
            // g0: INV n1 -> n0 ; g1: INV n0 -> n1 — a 2-gate loop.
            Gate { kind: CellKind::Inv, inputs: Pins::new(&[NetId(1)]), output: NetId(0) },
            Gate { kind: CellKind::Inv, inputs: Pins::new(&[NetId(0)]), output: NetId(1) },
        ];
        assert!(matches!(topo_sort(2, &gates), Err(NetlistError::CombinationalCycle(_))));
    }

    /// `topo_sort` as it was before the CSR dependents array: one
    /// dependents `Vec` per gate. Test-only oracle for the order.
    fn reference_topo_sort(net_count: u32, gates: &[Gate]) -> Result<Vec<u32>, NetlistError> {
        let mut driver_of: Vec<Option<u32>> = vec![None; net_count as usize];
        for (i, gate) in gates.iter().enumerate() {
            if !gate.is_sequential() {
                driver_of[gate.output.index()] = Some(i as u32);
            }
        }
        let mut indegree: Vec<u32> = vec![0; gates.len()];
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); gates.len()];
        for (i, gate) in gates.iter().enumerate() {
            if gate.is_sequential() {
                continue;
            }
            for input in &gate.inputs {
                if let Some(driver) = driver_of[input.index()] {
                    indegree[i] += 1;
                    dependents[driver as usize].push(i as u32);
                }
            }
        }
        let mut ready: Vec<u32> = (0..gates.len() as u32)
            .filter(|&i| !gates[i as usize].is_sequential() && indegree[i as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(gates.len());
        while let Some(i) = ready.pop() {
            order.push(i);
            for &dep in &dependents[i as usize] {
                indegree[dep as usize] -= 1;
                if indegree[dep as usize] == 0 {
                    ready.push(dep);
                }
            }
        }
        if order.len() != gates.iter().filter(|g| !g.is_sequential()).count() {
            let stuck =
                (0..gates.len()).find(|&i| !gates[i].is_sequential() && indegree[i] > 0).unwrap();
            return Err(NetlistError::CombinationalCycle(gates[stuck].output));
        }
        Ok(order)
    }

    /// A random gate list over `inputs` port nets: gate `i` drives net
    /// `inputs + i` and reads the nets its `(kind, a, b)` entry picks.
    /// With `acyclic`, gates read only nets numbered below their own
    /// output; otherwise they may read any net, so combinational cycles
    /// occur. With `reversed`, the list is stored back to front, so gate
    /// index order is not a topological order.
    fn random_gate_list(
        inputs: u32,
        spec: &[(u8, u8, u8)],
        acyclic: bool,
        reversed: bool,
    ) -> (u32, Vec<Gate>) {
        const KINDS: [CellKind; 10] = [
            CellKind::Inv,
            CellKind::Nand2,
            CellKind::Nor2,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::TsBuf,
            CellKind::Dff,
            CellKind::DffNr,
            CellKind::Latch,
        ];
        let net_count = inputs + spec.len() as u32;
        let mut gates: Vec<Gate> = spec
            .iter()
            .enumerate()
            .map(|(i, &(k, a, b))| {
                let output = inputs + i as u32;
                let span = if acyclic { output } else { net_count };
                let kind = KINDS[k as usize % KINDS.len()];
                let pins = [a, b].map(|p| NetId(p as u32 % span));
                Gate { kind, inputs: Pins::new(&pins[..kind.input_count()]), output: NetId(output) }
            })
            .collect();
        if reversed {
            gates.reverse();
        }
        (net_count, gates)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn csr_topo_sort_matches_the_per_gate_vec_reference(
            inputs in 1u32..8,
            spec in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..120),
            acyclic in any::<bool>(),
            reversed in any::<bool>(),
        ) {
            let (net_count, gates) = random_gate_list(inputs, &spec, acyclic, reversed);
            let got = topo_sort(net_count, &gates);
            prop_assert_eq!(&got, &reference_topo_sort(net_count, &gates));
            if acyclic {
                prop_assert!(got.is_ok());
            }
        }
    }

    #[test]
    fn builder_cannot_express_multiple_drivers_accidentally() {
        // Every primitive allocates a fresh output net, so the only way to
        // double-drive is impossible through the public API; ports + gates
        // never alias. A full build therefore succeeds.
        let mut b = NetlistBuilder::new("clean");
        let a = b.input_bit("a");
        let x = b.inv(a);
        let y = b.inv(a);
        let z = b.and2(x, y);
        b.output("z", vec![z]);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn rejects_duplicate_ports() {
        let mut b = NetlistBuilder::new("dup");
        let _ = b.input("x", 2);
        let _ = b.input("x", 2);
        assert!(matches!(b.finish(), Err(NetlistError::DuplicatePort(_))));
    }

    #[test]
    fn dffs_break_timing_loops() {
        // Two register ranks with an inverter between them: sequential
        // cells are topological sources/sinks, so no combinational cycle
        // exists even though state feeds state. (True single-rank
        // feedback loops use forward_net + dff_into; see words::register_en.)
        let mut b = NetlistBuilder::new("toggle");
        let a = b.input_bit("seed");
        let q_feedbackless = b.dff(a); // q of a pipeline register
        let d = b.inv(q_feedbackless);
        let q2 = b.dff(d); // second rank; no combinational cycle
        b.output("q", vec![q2]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.sequential_count(), 2);
    }

    fn two_bit_counter() -> Netlist {
        let mut b = NetlistBuilder::new("cnt2");
        let q0 = b.forward_net();
        let q1 = b.forward_net();
        let d0 = b.inv(q0);
        let d1 = b.xor2(q1, q0);
        b.dff_into(d0, q0);
        b.dff_into(d1, q1);
        b.output("count", vec![q0, q1]);
        b.finish().unwrap()
    }

    #[test]
    fn tmr_preserves_behavior_and_stays_quiet_fault_free() {
        use crate::sim::Simulator;
        let base = two_bit_counter();
        let hard = tmr(&base).unwrap();
        assert_eq!(hard.sequential_count(), 3 * base.sequential_count());
        assert_eq!(hard.name(), "cnt2_tmr");
        assert!(hard.output_ports().contains_key(TMR_ERROR_PORT));
        let mut a = Simulator::new(&base);
        let mut h = Simulator::new(&hard);
        for _ in 0..8 {
            a.step().unwrap();
            h.step().unwrap();
            assert_eq!(a.read_output("count").unwrap(), h.read_output("count").unwrap());
            assert_eq!(h.read_output(TMR_ERROR_PORT).unwrap(), 0, "no mismatch fault-free");
        }
    }

    #[test]
    fn tmr_masks_detects_and_self_heals_a_single_seu() {
        use crate::fault::{Fault, FaultKind, FaultMap};
        use crate::ir::GateId;
        use crate::sim::Simulator;
        let base = two_bit_counter();
        let hard = tmr(&base).unwrap();
        let replica = hard
            .gates()
            .iter()
            .position(|g| g.is_sequential())
            .expect("hardened counter has registers") as u32;

        let mut golden = Simulator::new(&hard);
        let mut upset = Simulator::new(&hard);
        upset.inject(FaultMap::single(
            &hard,
            Fault { gate: GateId(replica), kind: FaultKind::Seu { cycle: 2 } },
        ));
        for cycle in 0..8u64 {
            golden.step().unwrap();
            upset.step().unwrap();
            assert_eq!(
                golden.read_output("count").unwrap(),
                upset.read_output("count").unwrap(),
                "voter masks the upset at cycle {cycle}"
            );
            let err = upset.read_output(TMR_ERROR_PORT).unwrap();
            if cycle == 2 {
                assert_eq!(err, 1, "mismatch detected on the upset cycle");
            } else {
                assert_eq!(err, 0, "replicas re-converge after one edge (cycle {cycle})");
            }
        }
    }

    #[test]
    fn tmr_on_combinational_design_ties_error_low() {
        use crate::sim::Simulator;
        let mut b = NetlistBuilder::new("comb");
        let a = b.input_bit("a");
        let y = b.inv(a);
        b.output("y", vec![y]);
        let base = b.finish().unwrap();
        let hard = tmr(&base).unwrap();
        let mut sim = Simulator::new(&hard);
        sim.settle().unwrap();
        assert_eq!(sim.read_output(TMR_ERROR_PORT).unwrap(), 0);
    }

    #[test]
    fn tmr_rejects_a_colliding_error_port() {
        let mut b = NetlistBuilder::new("clash");
        let a = b.input_bit("a");
        b.output(TMR_ERROR_PORT, vec![a]);
        let base = b.finish().unwrap();
        assert_eq!(tmr(&base), Err(NetlistError::DuplicatePort(TMR_ERROR_PORT.to_string())));
    }

    #[test]
    fn mux2_selects() {
        let mut b = NetlistBuilder::new("mux");
        let a = b.input_bit("a");
        let c = b.input_bit("b");
        let s = b.input_bit("s");
        let sn = b.inv(s);
        let y = b.mux2(a, c, s, sn);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        assert_eq!(nl.gate_count(), 4); // inv + 2 and + or
    }
}
