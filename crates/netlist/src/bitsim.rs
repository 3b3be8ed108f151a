//! Bitsliced (bit-parallel) gate-level simulation: 64 machines per word.
//!
//! The fault-campaign bottleneck is simulating one faulty machine per
//! fault. This module packs 64 *instances* of the same netlist into the
//! 64 bit lanes of a `u64` per net — lane 0 is the fault-free golden
//! reference, lanes 1..64 carry one injected fault each — and compiles
//! the netlist's stored topological order into a straight-line program
//! of word-wide boolean operations. One pass over that program advances
//! all 64 machines by one settle pass; one [`BitSimulator::step`]
//! advances all 64 machines by one clock cycle.
//!
//! Faults are encoded as per-lane masks on the faulted gate's *output
//! word*:
//!
//! - stuck-at-0 clears the lane bit via an AND mask
//!   ([`FaultKind::StuckAt0`]),
//! - stuck-at-1 sets it via an OR mask ([`FaultKind::StuckAt1`]),
//! - an SEU flips the lane bit of the gate's *stored state* via an XOR
//!   mask applied exactly once, at the injection cycle
//!   ([`FaultKind::Seu`]).
//!
//! Every combinational cell is evaluated branchlessly from its flat
//! truth table (shared with the scalar engine, so both engines compute
//! identical logic): with per-minterm masks `k[i]` sign-extended from
//! table bit `i`, the truth table is factored into the two-level XOR
//! mux `t0 = k0 ^ ((k0 ^ k1) & a)`, `t1 = k2 ^ ((k2 ^ k3) & a)`,
//! `w = t0 ^ ((t0 ^ t1) & b)` — seven word ops per gate, each word
//! advancing all 64 lanes.
//! Tri-state buffers keep their word-wide hold state, exactly mirroring
//! the scalar update `if en { state = a }; out = state`.
//!
//! Oscillation is tracked *per lane*: the scalar engine reports
//! [`NetlistError::Unsettled`] when a settle still changes values after
//! [`Simulator::MAX_SETTLE_PASSES`] passes; here a lane whose bits
//! changed in **every** pass of a settle is marked dead
//! ([`BitSimulator::dead_lanes`]) and the word keeps stepping — the
//! campaign classifies dead lanes as hangs, the same verdict the scalar
//! engine's error takes. When the stored topological order is
//! consistent (every combinational input is produced before it is
//! consumed — true for all generated designs, and unbreakable by stuck
//! faults, which only force values), a single pass reaches the fixpoint
//! and the engine skips change tracking entirely.
//!
//! On a consistent order a settle also skips logic whose inputs did not
//! change. Every net that can be written from outside the logic belongs
//! to a *source group* — one bit per input port (ports past the 62nd
//! share bit 62) and bit 63 for every sequential output — and every op
//! carries the 64-bit mask of the groups it transitively reads,
//! propagated along the stored order at compile time. Bus writes and
//! the clock-edge publish OR the group of every net whose word changed
//! into a dirty set; the next settle evaluates only ops whose mask
//! meets it. Everything else is already at the fixpoint of unchanged
//! sources, so the result equals a full pass. Power-up, stuck-at
//! injection, an SEU landing on a tri-state buffer's hold state, and a
//! write to a net outside every group (an internal net) force a full
//! pass; inconsistent orders always run full passes.
//!
//! Statistics follow a documented per-lane convention: each op
//! evaluation counts one eval *per occupied lane* into
//! [`ActivityStats::eval_counts`] / [`ActivityStats::gate_evals`] (so
//! [`crate::profile`]'s `attributed_evals` tiling invariant holds), and
//! ops a gated settle skips count into [`ActivityStats::skipped_gates`]
//! the same way. Toggle counts accumulate the popcount of changed bits
//! across occupied lanes — the per-lane sum a power model expects.

use crate::fault::{Fault, FaultKind};
use crate::ir::{FanoutMap, NetId, Netlist, NetlistError};
use crate::sim::{truth_table, ActivityStats, Simulator, TSBUF_TT};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One compiled word-wide combinational evaluation, in topological
/// order. The truth table (bit `b << 1 | a`) is factored into the
/// two-level XOR-mux form `w = t0 ^ ((t0 ^ t1) & b)` with
/// `t0 = k0 ^ (k01 & a)`, `t1 = k2 ^ (k23 & a)` — 7 word ops per gate.
/// Tri-state buffers carry `tsbuf` instead and read/update their hold
/// state. Stuck-at forcing is baked into the op's own `sa`/`so` masks
/// (copied per word via `Arc::make_mut` on injection), so the hot loop
/// touches no side arrays.
#[derive(Debug, Clone, Copy)]
struct BitOp {
    a: u32,
    b: u32,
    out: u32,
    gi: u32,
    /// Source groups this op transitively reads (see the module docs):
    /// a gated settle evaluates the op only if this meets the dirty set.
    src: u64,
    /// Minterm masks for `!a & !b` and `!a & b`.
    k0: u64,
    k2: u64,
    /// XOR deltas `k0 ^ k1` and `k2 ^ k3`, selected by `a`.
    k01: u64,
    k23: u64,
    /// Per-lane stuck-at forcing of the output word: `(w & sa) | so`.
    sa: u64,
    so: u64,
    tsbuf: bool,
}

/// One compiled sequential cell for the capture/publish edges, in
/// ascending gate order. For a latch `a`/`b` are S/R; for a flip-flop
/// `a` is D.
#[derive(Debug, Clone, Copy)]
struct BitSeqOp {
    gi: u32,
    a: u32,
    b: u32,
    out: u32,
    latch: bool,
}

/// 64 gate-level machines in the bit lanes of one `u64` per net.
///
/// Lane 0 is reserved for the fault-free golden reference; lanes are
/// occupied contiguously by [`BitSimulator::inject_fault`]. See the
/// [module docs](self) for the execution model.
#[derive(Debug, Clone)]
pub struct BitSimulator<'a> {
    netlist: &'a Netlist,
    /// Straight-line combinational program, shared across clones.
    ops: Arc<Vec<BitOp>>,
    /// Sequential cells, shared across clones.
    seq: Arc<Vec<BitSeqOp>>,
    /// `(gate index, output net)` of every gate, for toggle accounting.
    gate_outs: Arc<Vec<(u32, u32)>>,
    /// Gate index → compiled op index (`u32::MAX` for sequential
    /// cells), so stuck-at injection can patch the op's inline masks.
    op_of_gate: Arc<Vec<u32>>,
    /// Combinational depth per gate (`None` for sequential cells),
    /// mirroring [`Simulator::gate_depth`] for hotspot attribution.
    depth: Arc<Vec<u32>>,
    /// Source group of every net: the input-port bit or [`SEQ_GROUP`],
    /// 0 for nets outside every group (internal and constant nets).
    group_of_net: Arc<Vec<u64>>,
    /// Whether the stored topological order is consistent (every op
    /// input produced before it is consumed) — enables the single-pass
    /// settle fast path and source-group gating.
    consistent: bool,
    /// Current word-wide value of every net.
    values: Vec<u64>,
    /// Net values at the previous step, for toggle counting.
    prev_values: Vec<u64>,
    /// Stored state per gate: DFF/latch contents, TSBUF hold values.
    state: Vec<u64>,
    /// Per-gate output forcing for *sequential* cells, applied at
    /// publish (combinational stuck masks live inline in the ops):
    /// stuck-at-0 clears lane bits here...
    stuck_and: Vec<u64>,
    /// ...and stuck-at-1 sets them here.
    stuck_or: Vec<u64>,
    /// SEU schedule: injection cycle to `(gate, lane XOR mask)` flips.
    seu: BTreeMap<u64, Vec<(u32, u64)>>,
    /// Lanes holding a machine (bit 0, the golden lane, always set).
    occupied: u64,
    /// Lanes whose logic oscillated through a full settle budget.
    dead: u64,
    /// Source groups with a changed net word since the last completed
    /// settle. Input writes and state publishes set bits only when a
    /// word actually changes, so re-driving a stable bus costs nothing;
    /// while it (and `full`) is clear, [`BitSimulator::settle`] is a
    /// no-op.
    dirty_groups: u64,
    /// The next settle must evaluate every op: power-up, stuck-at
    /// injection, broadcast, a tri-state hold-state upset, or a write
    /// outside every group.
    full: bool,
    /// Lane charges of full passes not yet folded into
    /// [`ActivityStats::eval_counts`]...
    pending_full: u64,
    /// ...and of gated passes, as `(dirty set, lanes)`. Every op a pass
    /// evaluates is charged identically, so the per-gate attribution is
    /// materialized lazily from these instead of stored once per op per
    /// pass; a word sees only a handful of distinct dirty sets.
    pending_gated: Vec<(u64, u64)>,
    /// Per-gate toggle attribution (on by default). Campaign words
    /// never read per-gate stats and disable it for throughput.
    track_toggles: bool,
    /// Watchdog, identical to [`Simulator::set_cycle_limit`].
    cycle_limit: Option<u64>,
    stats: ActivityStats,
}

/// One lane's value out of a bus's lane words, bit `i` of the value
/// from the `i`-th word (LSB-first).
pub fn lane_value(words: impl IntoIterator<Item = u64>, lane: usize) -> u64 {
    words.into_iter().enumerate().fold(0, |value, (bit, word)| value | (word >> lane & 1) << bit)
}

/// Source group of every sequential output (the clock-edge publish).
const SEQ_GROUP: u64 = 1 << 63;
/// Input ports from this index on share one source group.
const SHARED_PORT_GROUP: usize = 62;

impl<'a> BitSimulator<'a> {
    /// Lanes per word: the golden reference plus up to 63 faults.
    pub const LANES: usize = 64;

    /// Compiles `netlist` into a bitsliced simulator with all lanes at
    /// the scalar power-up state (nets low, state reset, constants
    /// tied) and only the golden lane 0 occupied.
    pub fn new(netlist: &'a Netlist) -> Self {
        let fanout = FanoutMap::build(netlist);
        let mut depth = vec![u32::MAX; netlist.gate_count()];
        // Which nets have been produced so far while walking the stored
        // order; reading a net that a *later* op produces makes the
        // order inconsistent (feedback or a deliberately corrupt order)
        // and forces the change-tracking settle loop.
        let mut produced = vec![false; netlist.net_count()];
        let comb_driven: Vec<bool> = (0..netlist.net_count())
            .map(|n| {
                fanout
                    .driver(NetId(n as u32))
                    .is_some_and(|g| !netlist.gates()[g.index()].is_sequential())
            })
            .collect();
        let mut group_of_net = vec![0u64; netlist.net_count()];
        for (port, nets) in netlist.input_ports().values().enumerate() {
            for net in nets {
                group_of_net[net.index()] |= 1 << port.min(SHARED_PORT_GROUP);
            }
        }
        for gate in netlist.gates().iter().filter(|g| g.is_sequential()) {
            group_of_net[gate.output.index()] |= SEQ_GROUP;
        }
        // Groups each net transitively reads, filled along the stored
        // order (exact on a consistent order, the only one gated).
        let mut net_src = group_of_net.clone();
        let mut consistent = true;
        let mut ops = Vec::new();
        let mut op_of_gate = vec![u32::MAX; netlist.gate_count()];
        for (gate_id, gate) in netlist.topo_order() {
            let mut d = 0u32;
            let mut src = 0u64;
            for input in &gate.inputs {
                src |= net_src[input.index()];
                if let Some(driver) = fanout.driver(*input) {
                    let dd = depth[driver.index()];
                    if dd != u32::MAX {
                        d = d.max(dd + 1);
                    }
                }
                if comb_driven[input.index()] && !produced[input.index()] {
                    consistent = false;
                }
            }
            depth[gate_id.index()] = d;
            produced[gate.output.index()] = true;
            net_src[gate.output.index()] |= src;
            let a = gate.inputs.first().map_or(0, |n| n.index() as u32);
            let b = gate.inputs.get(1).map_or(a, |n| n.index() as u32);
            let tt = truth_table(gate.kind);
            let k: [u64; 4] = std::array::from_fn(|i| if tt >> i & 1 == 1 { u64::MAX } else { 0 });
            op_of_gate[gate_id.index()] = ops.len() as u32;
            ops.push(BitOp {
                a,
                b,
                out: gate.output.index() as u32,
                gi: gate_id.index() as u32,
                src,
                k0: k[0],
                k2: k[2],
                k01: k[0] ^ k[1],
                k23: k[2] ^ k[3],
                sa: u64::MAX,
                so: 0,
                tsbuf: tt == TSBUF_TT,
            });
        }
        let seq: Vec<BitSeqOp> = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, gate)| gate.is_sequential())
            .map(|(gi, gate)| {
                let a = gate.inputs.first().map_or(0, |n| n.index() as u32);
                let b = gate.inputs.get(1).map_or(a, |n| n.index() as u32);
                BitSeqOp {
                    gi: gi as u32,
                    a,
                    b,
                    out: gate.output.index() as u32,
                    latch: gate.kind == printed_pdk::CellKind::Latch,
                }
            })
            .collect();
        let gate_outs: Vec<(u32, u32)> = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(gi, gate)| (gi as u32, gate.output.index() as u32))
            .collect();
        let mut values = vec![0u64; netlist.net_count()];
        if let Some(c1) = netlist.const1() {
            values[c1.index()] = u64::MAX;
        }
        BitSimulator {
            netlist,
            ops: Arc::new(ops),
            seq: Arc::new(seq),
            gate_outs: Arc::new(gate_outs),
            op_of_gate: Arc::new(op_of_gate),
            depth: Arc::new(depth),
            group_of_net: Arc::new(group_of_net),
            consistent,
            prev_values: vec![0; netlist.net_count()],
            values,
            state: vec![0; netlist.gate_count()],
            stuck_and: vec![u64::MAX; netlist.gate_count()],
            stuck_or: vec![0; netlist.gate_count()],
            seu: BTreeMap::new(),
            occupied: 1,
            dead: 0,
            dirty_groups: 0,
            full: true,
            pending_full: 0,
            pending_gated: Vec::new(),
            track_toggles: true,
            cycle_limit: None,
            stats: ActivityStats {
                toggles: vec![0; netlist.gate_count()],
                eval_counts: vec![0; netlist.gate_count()],
                ..ActivityStats::default()
            },
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Occupied-lane mask; bit 0 (the golden lane) is always set.
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// Number of occupied lanes (golden lane included).
    pub fn lane_count(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Lanes whose logic failed to settle at some point — the bitsliced
    /// equivalent of the scalar engine's [`NetlistError::Unsettled`].
    pub fn dead_lanes(&self) -> u64 {
        self.dead
    }

    /// Clock cycles stepped so far.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Accumulated switching statistics, under the per-lane convention
    /// described in the [module docs](self). Takes `&mut self` because
    /// the per-gate eval attribution is materialized lazily from the
    /// pass charges on access (every op a pass evaluates is charged
    /// identically, so the hot loop never touches the per-gate array).
    pub fn stats(&mut self) -> &ActivityStats {
        if self.pending_full != 0 || !self.pending_gated.is_empty() {
            let ops = Arc::clone(&self.ops);
            for op in ops.iter() {
                let gated: u64 = self
                    .pending_gated
                    .iter()
                    .filter(|(groups, _)| op.src & groups != 0)
                    .map(|(_, lanes)| lanes)
                    .sum();
                self.stats.eval_counts[op.gi as usize] += self.pending_full + gated;
            }
            self.pending_full = 0;
            self.pending_gated.clear();
        }
        &self.stats
    }

    /// Enables or disables per-gate toggle attribution (on by default).
    /// Disabled, [`ActivityStats::toggles`] stops accumulating —
    /// campaign words that only read lane observations switch it off;
    /// profiling runs must leave it on.
    pub fn set_toggle_tracking(&mut self, on: bool) {
        self.track_toggles = on;
    }

    /// Combinational depth of a gate, `None` for sequential cells —
    /// mirrors [`Simulator::gate_depth`] for [`crate::profile`].
    pub fn gate_depth(&self, gate: usize) -> Option<u32> {
        match self.depth[gate] {
            u32::MAX => None,
            d => Some(d),
        }
    }

    /// Arms (or disarms) the cycle-limit watchdog; identical semantics
    /// to [`Simulator::set_cycle_limit`], shared by all lanes.
    pub fn set_cycle_limit(&mut self, limit: Option<u64>) {
        self.cycle_limit = limit;
    }

    /// The armed watchdog deadline, if any.
    pub fn cycle_limit(&self) -> Option<u64> {
        self.cycle_limit
    }

    /// Injects `fault` into the next free lane and returns its index
    /// (1..=63). Lanes fill contiguously; lane 0 stays golden.
    ///
    /// # Panics
    ///
    /// Panics if all 63 fault lanes are occupied or the fault targets a
    /// gate outside the netlist.
    pub fn inject_fault(&mut self, fault: Fault) -> usize {
        let lane = self.lane_count();
        assert!(lane < Self::LANES, "all {} fault lanes are occupied", Self::LANES - 1);
        assert!(
            fault.gate.index() < self.netlist.gate_count(),
            "fault targets gate {} of a {}-gate netlist",
            fault.gate.index(),
            self.netlist.gate_count()
        );
        let bit = 1u64 << lane;
        self.occupied |= bit;
        match fault.kind {
            FaultKind::StuckAt0 => {
                match self.op_of_gate[fault.gate.index()] {
                    u32::MAX => self.stuck_and[fault.gate.index()] &= !bit,
                    oi => Arc::make_mut(&mut self.ops)[oi as usize].sa &= !bit,
                }
                self.full = true;
            }
            FaultKind::StuckAt1 => {
                match self.op_of_gate[fault.gate.index()] {
                    u32::MAX => self.stuck_or[fault.gate.index()] |= bit,
                    oi => Arc::make_mut(&mut self.ops)[oi as usize].so |= bit,
                }
                self.full = true;
            }
            FaultKind::Seu { cycle } => {
                let hits = self.seu.entry(cycle).or_default();
                match hits.iter_mut().find(|(gi, _)| *gi == fault.gate.index() as u32) {
                    Some((_, mask)) => *mask |= bit,
                    None => hits.push((fault.gate.index() as u32, bit)),
                }
            }
        }
        lane
    }

    /// Drives a named input bus with the same value on every lane.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for a missing port and
    /// [`NetlistError::WidthMismatch`] if the bus is wider than 64 bits.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<(), NetlistError> {
        let nets = self.netlist.input(name)?;
        if nets.len() > 64 {
            return Err(NetlistError::WidthMismatch {
                context: "set_input",
                left: nets.len(),
                right: 64,
            });
        }
        self.set_bus(nets, value);
        Ok(())
    }

    /// Drives a bus with the same value on every lane (LSB-first).
    pub fn set_bus(&mut self, nets: &[NetId], value: u64) {
        for (bit, net) in nets.iter().enumerate() {
            self.set_word(*net, if value >> bit & 1 == 1 { u64::MAX } else { 0 });
        }
    }

    /// Drives a bus word-wide: `words[i]` is net `nets[i]`'s lane word,
    /// so lane `l` sees bit `i` of its bus value at bit `l` of
    /// `words[i]` (LSB-first, like [`Simulator::set_bus`]). Bits past
    /// the shorter of the two slices are left alone.
    pub fn set_bus_words(&mut self, nets: &[NetId], words: &[u64]) {
        for (net, &word) in nets.iter().zip(words) {
            self.set_word(*net, word);
        }
    }

    /// Writes one net's lane word, recording its source group when the
    /// word changes (a net outside every group forces a full pass).
    fn set_word(&mut self, net: NetId, word: u64) {
        let slot = &mut self.values[net.index()];
        if *slot != word {
            *slot = word;
            match self.group_of_net[net.index()] {
                0 => self.full = true,
                group => self.dirty_groups |= group,
            }
        }
    }

    /// One net's lane word: bit `l` is the value lane `l` sees.
    pub fn word(&self, net: NetId) -> u64 {
        self.values[net.index()]
    }

    /// Reads a bus word-wide into `words` (`words[i]` is net `nets[i]`'s
    /// lane word, the inverse of [`BitSimulator::set_bus_words`]).
    pub fn read_bus_words(&self, nets: &[NetId], words: &mut [u64]) {
        for (word, net) in words.iter_mut().zip(nets) {
            *word = self.values[net.index()];
        }
    }

    /// The bus value lane `lane` sees (LSB-first), gathered out of the
    /// bus's lane words.
    pub fn read_lane(&self, nets: &[NetId], lane: usize) -> u64 {
        lane_value(nets.iter().map(|net| self.values[net.index()]), lane)
    }

    /// Per-lane "any bit of this bus is set" mask — the fast path for
    /// detection ports, where only zero/nonzero matters.
    pub fn read_bus_any(&self, nets: &[NetId]) -> u64 {
        nets.iter().fold(0u64, |acc, net| acc | self.values[net.index()])
    }

    /// One word-wide pass over the straight-line program: every op when
    /// `full`, else only ops reading a group in `groups`. Returns the
    /// lanes whose values changed.
    fn pass(&mut self, full: bool, groups: u64, track_changes: bool) -> u64 {
        self.stats.settle_passes += 1;
        let mut changed = 0u64;
        let mut evaluated = 0u64;
        let ops = Arc::clone(&self.ops);
        for op in ops.iter() {
            if !full && op.src & groups == 0 {
                continue;
            }
            evaluated += 1;
            let a = self.values[op.a as usize];
            let b = self.values[op.b as usize];
            let mut w = if op.tsbuf {
                // `if en { state = a }; out = state`, word-wide: b is en.
                let held = (b & a) | (!b & self.state[op.gi as usize]);
                self.state[op.gi as usize] = held;
                held
            } else {
                // Two-level XOR mux: select k column by a, then by b.
                let t0 = op.k0 ^ (op.k01 & a);
                let t1 = op.k2 ^ (op.k23 & a);
                t0 ^ ((t0 ^ t1) & b)
            };
            w = (w & op.sa) | op.so;
            if track_changes {
                changed |= self.values[op.out as usize] ^ w;
            }
            self.values[op.out as usize] = w;
        }
        let lanes = u64::from(self.occupied.count_ones());
        self.stats.gate_evals += evaluated * lanes;
        self.stats.skipped_gates += (ops.len() as u64 - evaluated) * lanes;
        if full {
            self.pending_full += lanes;
        } else {
            match self.pending_gated.iter_mut().find(|(g, _)| *g == groups) {
                Some((_, charged)) => *charged += lanes,
                None => self.pending_gated.push((groups, lanes)),
            }
        }
        changed
    }

    /// Settles the combinational logic on every lane. With a consistent
    /// topological order one pass reaches the fixpoint, and it visits
    /// only the ops fed by source groups written since the last settle;
    /// otherwise up to [`Simulator::MAX_SETTLE_PASSES`] full passes run,
    /// and lanes that changed in every pass are marked dead (the scalar
    /// engine's [`NetlistError::Unsettled`], per lane).
    pub fn settle(&mut self) {
        if !self.full && self.dirty_groups == 0 {
            return;
        }
        if self.consistent {
            self.pass(self.full, self.dirty_groups, false);
            self.full = false;
            self.dirty_groups = 0;
            return;
        }
        let mut changed_all = u64::MAX;
        for _ in 0..Simulator::MAX_SETTLE_PASSES {
            let changed = self.pass(true, u64::MAX, true);
            changed_all &= changed;
            if changed == 0 {
                self.full = false;
                self.dirty_groups = 0;
                return;
            }
        }
        // Still oscillating: leave the word dirty so the next settle
        // keeps churning it, exactly as the scalar engine re-settles.
        self.full = true;
        self.dead |= changed_all & self.occupied;
    }

    /// Runs one clock cycle on every lane: settle, capture, SEU flips at
    /// the injection cycle, publish (with stuck forcing), settle, toggle
    /// accounting — the word-wide mirror of [`Simulator::step`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DeadlineExceeded`] once an armed cycle
    /// limit trips (all lanes share the deadline). Oscillating lanes are
    /// recorded in [`BitSimulator::dead_lanes`] instead of erroring.
    pub fn step(&mut self) -> Result<(), NetlistError> {
        if let Some(limit) = self.cycle_limit {
            if self.stats.cycles >= limit {
                return Err(NetlistError::DeadlineExceeded { cycles: self.stats.cycles, limit });
            }
        }
        self.settle();
        let seq = Arc::clone(&self.seq);
        // Capture: every clocked cell samples the settled pre-edge nets.
        for op in seq.iter() {
            let state = &mut self.state[op.gi as usize];
            *state = if op.latch {
                // S wins, then R clears, else hold — matching the
                // scalar `if s { 1 } else if r { 0 }` per lane.
                self.values[op.a as usize] | (!self.values[op.b as usize] & *state)
            } else {
                self.values[op.a as usize]
            };
        }
        // SEU flips scheduled for this cycle land on the captured state.
        // A flip of a tri-state buffer's hold state (a combinational op)
        // shows only when the op runs again, so it forces a full pass.
        if let Some(hits) = self.seu.get(&self.stats.cycles) {
            for &(gi, mask) in hits {
                self.state[gi as usize] ^= mask;
                if self.op_of_gate[gi as usize] != u32::MAX {
                    self.full = true;
                }
            }
        }
        // Publish Q with stuck forcing, then settle the fanout logic —
        // skipped entirely when no Q actually moved (a halted or stable
        // word clocks for free).
        for op in seq.iter() {
            let word = (self.state[op.gi as usize] & self.stuck_and[op.gi as usize])
                | self.stuck_or[op.gi as usize];
            let slot = &mut self.values[op.out as usize];
            if *slot != word {
                *slot = word;
                self.dirty_groups |= SEQ_GROUP;
            }
        }
        self.settle();
        // Toggle accounting: per-lane-summed popcounts over occupied
        // lanes, the bitsliced analogue of the scalar per-gate counter.
        if self.track_toggles {
            let occupied = self.occupied;
            for &(gi, out) in self.gate_outs.iter() {
                let flips = (self.values[out as usize] ^ self.prev_values[out as usize]) & occupied;
                self.stats.toggles[gi as usize] += u64::from(flips.count_ones());
            }
            self.prev_values.copy_from_slice(&self.values);
        }
        self.stats.cycles += 1;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::fault::FaultMap;
    use crate::ir::{Gate, GateId, Region};
    use crate::words;

    /// A small sequential design: 4-bit accumulator with an inverter
    /// chain and a tri-state buffer in the read path.
    fn acc4() -> Netlist {
        let mut b = NetlistBuilder::new("bit_acc4");
        let a = b.input("a", 4);
        let en = b.input("en", 1);
        let q: Vec<_> = (0..4).map(|_| b.forward_net()).collect();
        let cin = b.const0();
        let sum = words::ripple_adder(&mut b, &a, &q, cin);
        for (s, qn) in sum.sum.iter().zip(&q) {
            b.dff_into(*s, *qn);
        }
        let inv = b.inv(q[0]);
        let inv2 = b.inv(inv);
        let ts = b.tsbuf(inv2, en[0]);
        b.output("acc", q);
        b.output("probe", vec![ts]);
        b.finish().unwrap()
    }

    /// Steps both engines in lockstep and compares every lane of the
    /// bitsliced simulator against its scalar reference.
    #[test]
    fn lanes_match_scalar_simulators_under_faults() {
        let nl = acc4();
        let faults = [
            Fault { gate: GateId(0), kind: FaultKind::StuckAt0 },
            Fault { gate: GateId(3), kind: FaultKind::StuckAt1 },
            Fault {
                gate: GateId(nl.gates().iter().position(|g| g.is_sequential()).unwrap() as u32),
                kind: FaultKind::Seu { cycle: 3 },
            },
        ];
        let mut bit = BitSimulator::new(&nl);
        let mut scalars: Vec<Simulator<'_>> = vec![Simulator::new(&nl)];
        for &fault in &faults {
            bit.inject_fault(fault);
            let mut s = Simulator::new(&nl);
            s.inject(FaultMap::single(&nl, fault));
            scalars.push(s);
        }
        let a_nets = nl.input("a").unwrap().to_vec();
        let acc_nets = nl.output("acc").unwrap().to_vec();
        let probe_nets = nl.output("probe").unwrap().to_vec();
        for cycle in 0..8u64 {
            let stim = cycle.wrapping_mul(0x9E37) & 0xF;
            bit.set_bus(&a_nets, stim);
            bit.set_input("en", cycle & 1).unwrap();
            for s in scalars.iter_mut() {
                s.set_bus(&a_nets, stim);
                s.set_input("en", cycle & 1).unwrap();
            }
            bit.step().unwrap();
            for (lane, s) in scalars.iter_mut().enumerate() {
                s.step().unwrap();
                let (acc, probe) =
                    (bit.read_lane(&acc_nets, lane), bit.read_lane(&probe_nets, lane));
                assert_eq!(acc, s.read_bus(&acc_nets), "acc lane {lane} cycle {cycle}");
                assert_eq!(probe, s.read_bus(&probe_nets), "probe lane {lane} cycle {cycle}");
            }
        }
        assert_eq!(bit.dead_lanes(), 0);
        assert_eq!(bit.lane_count(), 4);
    }

    /// The per-lane stats convention tiles: eval_counts sums to
    /// gate_evals exactly, and evals scale with the occupied lanes.
    #[test]
    fn stats_tile_under_the_per_lane_convention() {
        let nl = acc4();
        let mut bit = BitSimulator::new(&nl);
        bit.inject_fault(Fault { gate: GateId(0), kind: FaultKind::StuckAt0 });
        bit.inject_fault(Fault { gate: GateId(1), kind: FaultKind::StuckAt1 });
        for _ in 0..4 {
            bit.step().unwrap();
        }
        let stats = bit.stats();
        assert_eq!(
            stats.eval_counts.iter().sum::<u64>(),
            stats.gate_evals,
            "per-gate eval attribution must tile gate_evals"
        );
        assert_eq!(stats.gate_evals % 3, 0, "every eval is counted once per occupied lane");
        assert_eq!(stats.cycles, 4);
    }

    /// Gated settles charge only the ops they evaluate, per occupied
    /// lane; the ops they skip go to `skipped_gates`, and the lazily
    /// folded per-gate attribution still tiles `gate_evals`.
    #[test]
    fn gated_settles_charge_only_evaluated_ops() {
        let nl = acc4();
        let a_nets = nl.input("a").unwrap().to_vec();
        let mut bit = BitSimulator::new(&nl);
        bit.inject_fault(Fault { gate: GateId(0), kind: FaultKind::StuckAt0 });
        for cycle in 0..6u64 {
            bit.set_bus(&a_nets, cycle * 5);
            bit.set_input("en", cycle / 3).unwrap();
            bit.step().unwrap();
        }
        let ops = bit.ops.len() as u64;
        let stats = bit.stats();
        assert_eq!(stats.eval_counts.iter().sum::<u64>(), stats.gate_evals);
        assert_eq!(stats.gate_evals + stats.skipped_gates, ops * stats.settle_passes * 2);
        assert!(stats.skipped_gates > 0, "an `a`-only write skips the inverter chain");
    }

    /// An oscillating lane is marked dead instead of erroring — the
    /// word keeps stepping so the other 63 lanes still finish.
    #[test]
    fn oscillating_lanes_die_without_erroring() {
        // The builder cannot express a combinational self-loop, so build
        // the pathological netlist directly (as the scalar oscillation
        // tests do): an inverter feeding itself.
        let nl = Netlist {
            name: "bit_osc".to_string(),
            net_count: 1,
            gates: vec![Gate {
                kind: printed_pdk::CellKind::Inv,
                inputs: crate::ir::Pins::new(&[NetId(0)]),
                output: NetId(0),
            }],
            regions: vec![Region::Combinational],
            inputs: Default::default(),
            outputs: Default::default(),
            const0: None,
            const1: None,
            topo: vec![0],
        };
        let mut bit = BitSimulator::new(&nl);
        assert!(!bit.consistent, "a self-loop must force change tracking");
        bit.step().unwrap();
        assert_eq!(bit.dead_lanes() & 1, 1, "the oscillating golden lane is dead");
    }

    /// The watchdog trips word-wide with the scalar error type.
    #[test]
    fn cycle_limit_trips_word_wide() {
        let nl = acc4();
        let mut bit = BitSimulator::new(&nl);
        bit.set_cycle_limit(Some(2));
        bit.step().unwrap();
        bit.step().unwrap();
        match bit.step() {
            Err(NetlistError::DeadlineExceeded { cycles: 2, limit: 2 }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}
