//! Functional gate-level simulation.
//!
//! [`Simulator`] evaluates a [`Netlist`] cycle by cycle. Two engines are
//! available (see [`Engine`]):
//!
//! - **Event-driven** (the default): per-net fanout lists (a shared
//!   [`FanoutMap`]) drive a dirty-gate worklist, so only gates whose
//!   inputs actually changed are re-evaluated. Printed workloads have
//!   low switching activity — the paper's power model is dominated by
//!   per-switch energy precisely because most of the circuit is idle
//!   each cycle — so the worklist touches a small fanout cone per step.
//!   The worklist is levelized by combinational depth, which makes the
//!   evaluation order (and therefore every observable result) identical
//!   to the full-sweep engine. All queues and scratch buffers are
//!   allocated once at construction and reused, so steady-state stepping
//!   is allocation-free.
//! - **Full-sweep**: every combinational gate is evaluated in
//!   topological order each settle pass, repeating until fixpoint. Kept
//!   as the reference engine for differential testing and benchmarking.
//!
//! The simulator also counts output toggles per gate, which gives
//! *measured* switching-activity factors for the power model — the
//! printed-hardware analogue of running Design Compiler with simulated
//! activity, as the paper does (§8, footnote 6).
//!
//! Semantics:
//! - `Dff` / `DffNr` capture D on [`Simulator::step`]; both reset to 0 at
//!   construction (`DffNr` additionally resets via
//!   [`Simulator::reset`]).
//! - `Latch` (SR) updates on `step`: `q' = s ? 1 : (r ? 0 : q)`.
//! - `TsBuf` drives its input when enabled and holds its last driven value
//!   otherwise (modeling the bus keeper printed designs use).
//!
//! Settling is bounded: if the combinational values are still changing
//! after [`Simulator::MAX_SETTLE_PASSES`] passes (full sweeps, or
//! levelized waves of the event engine) — which a valid netlist never
//! does, but a stale topological order or an adversarial fault can
//! provoke — the simulator reports [`NetlistError::Unsettled`] instead of
//! silently publishing a half-settled state.
//!
//! The simulator can also evaluate under injected faults: see
//! [`crate::fault::FaultMap`] and [`Simulator::inject`]. Stuck-at faults
//! force a gate's output net during settling; transient SEU faults flip
//! stored state on a scheduled clock edge.

use crate::fault::FaultMap;
use crate::ir::{FanoutMap, GateId, NetId, Netlist, NetlistError};
use printed_obs as obs;
use printed_pdk::CellKind;
use std::sync::Arc;

/// Per-gate switching statistics gathered during simulation.
#[derive(Debug, Clone, Default)]
pub struct ActivityStats {
    /// Output toggles observed per gate (indexed like `Netlist::gates`).
    pub toggles: Vec<u64>,
    /// Combinational evaluations performed per gate (indexed like
    /// `Netlist::gates`; always zero for sequential cells). Sums to
    /// [`ActivityStats::gate_evals`] — the hotspot profiler's
    /// attribution of the engine's unit of work to individual gates.
    pub eval_counts: Vec<u64>,
    /// Clock cycles simulated.
    pub cycles: u64,
    /// Combinational gate evaluations performed — the simulator's unit
    /// of work. The full-sweep engine visits every gate in every settle
    /// pass; the event-driven engine only visits dirty gates.
    pub gate_evals: u64,
    /// Settle passes run (full sweeps, or event-engine waves).
    pub settle_passes: u64,
    /// Worklist events processed by the event-driven engine (always zero
    /// under [`Engine::FullSweep`]).
    pub events: u64,
    /// Gate evaluations the event-driven engine avoided relative to the
    /// full-sweep engine: the clean remainder of each wave, plus one
    /// whole pass per settle answered by the quiescence fact alone.
    pub skipped_gates: u64,
}

impl ActivityStats {
    /// Average toggles per gate per cycle — the measured activity factor.
    /// Returns `None` before any cycle has been simulated.
    pub fn average_activity(&self) -> Option<f64> {
        if self.cycles == 0 || self.toggles.is_empty() {
            return None;
        }
        let total: u64 = self.toggles.iter().sum();
        Some(total as f64 / (self.toggles.len() as f64 * self.cycles as f64))
    }

    /// Activity factor of one gate. Returns `None` before any cycle.
    pub fn gate_activity(&self, gate: usize) -> Option<f64> {
        if self.cycles == 0 {
            return None;
        }
        Some(self.toggles[gate] as f64 / self.cycles as f64)
    }
}

/// Which evaluation strategy a [`Simulator`] uses. Both engines produce
/// identical net values, toggle counts, and error behavior; they differ
/// only in how much work they do per settle (and in the work counters
/// [`ActivityStats::gate_evals`] / [`ActivityStats::events`] /
/// [`ActivityStats::skipped_gates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Levelized dirty-gate worklist; only re-evaluates gates whose
    /// inputs changed. The default.
    #[default]
    EventDriven,
    /// Full topological sweep per settle pass — the reference engine.
    FullSweep,
}

/// Flat per-gate evaluation record for the event engine's hot loop:
/// pin indices plus the cell's 4-entry truth table, indexed by `(b, a)`,
/// so combinational cells evaluate branchlessly — the worklist visits
/// gates in a data-dependent order, so a `match` on the cell kind would
/// be an unpredictable branch in the innermost loop. Single-input cells
/// alias `b` to `a`; tri-state buffers (stateful) carry the
/// [`EvalOp::TSBUF`] sentinel instead; sequential cells get a record too
/// (for index alignment) but are never scheduled.
#[derive(Debug, Clone, Copy)]
struct EvalOp {
    a: u32,
    b: u32,
    out: u32,
    tt: u8,
}

/// Flat per-cell record for the sequential capture/publish phases of
/// [`Simulator::step`]: the clocked cells, pre-filtered out of the gate
/// list, so the per-cycle edge loops visit only them instead of scanning
/// every gate for the few sequential ones. For a latch, `a`/`b` are the
/// S/R inputs; for a flip-flop, `a` is D.
#[derive(Debug, Clone, Copy)]
struct SeqOp {
    gi: u32,
    a: u32,
    b: u32,
    out: u32,
    latch: bool,
}

impl EvalOp {
    /// `tt` sentinel: evaluate as a tri-state buffer, not a table.
    const TSBUF: u8 = 0xFF;

    /// Truth table (or sentinel) for a cell kind; bit `b << 1 | a`
    /// holds the output for that input combination.
    fn table(kind: CellKind) -> u8 {
        match kind {
            CellKind::Inv => 0b0101,
            CellKind::Nand2 => 0b0111,
            CellKind::Nor2 => 0b0001,
            CellKind::And2 => 0b1000,
            CellKind::Or2 => 0b1110,
            CellKind::Xor2 => 0b0110,
            CellKind::Xnor2 => 0b1001,
            CellKind::TsBuf => Self::TSBUF,
            // Never evaluated: sequential cells are never scheduled.
            CellKind::Dff | CellKind::DffNr | CellKind::Latch => 0,
        }
    }
}

/// Crate-internal: the flat truth table (or [`TSBUF_TT`] sentinel) for a
/// cell kind, shared with the bitsliced engine ([`crate::bitsim`]) so
/// both engines evaluate identical logic.
pub(crate) fn truth_table(kind: CellKind) -> u8 {
    EvalOp::table(kind)
}

/// Crate-internal: the tri-state-buffer sentinel [`truth_table`] returns.
pub(crate) const TSBUF_TT: u8 = EvalOp::TSBUF;

/// Gate-level simulator over a borrowed netlist.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    engine: Engine,
    /// Current logic value of every net.
    values: Vec<bool>,
    /// Internal state per gate: DFF/latch contents, TSBUF hold value.
    state: Vec<bool>,
    /// Net value snapshot at the previous step, for toggle counting.
    prev_values: Vec<bool>,
    stats: ActivityStats,
    /// Injected faults applied during evaluation, if any.
    faults: Option<FaultMap>,
    /// Per-net readers/driver, shared (and cheap to clone) across the
    /// per-fault simulator clones a campaign makes.
    fanout: Arc<FanoutMap>,
    /// Flat evaluation records, indexed by gate, shared across clones.
    ops: Arc<Vec<EvalOp>>,
    /// Flat records for the sequential cells, cached so `step` does not
    /// sweep the whole gate array three times per cycle.
    seq_ops: Arc<Vec<SeqOp>>,
    /// Start offset of each depth level's bucket region inside
    /// [`Simulator::bucket_store`] (one extra entry for the end), sized
    /// by the gate count at that level — the dedup flag bounds every
    /// bucket by its population, so regions never overflow.
    level_base: Arc<Vec<u32>>,
    /// Current fill of each level's bucket region.
    level_len: Vec<u32>,
    /// Flat storage for the per-level dirty-gate buckets: pushing is a
    /// plain store (no capacity check, no per-level `Vec` juggling).
    bucket_store: Vec<u32>,
    /// Combinational depth per gate with [`Simulator::QUEUED`] as an
    /// enqueued flag in the top bit, folded into one word so scheduling
    /// costs a single random memory access. Sequential cells hold
    /// `u32::MAX` — the flag is permanently set, so the worklist never
    /// schedules them.
    slot: Vec<u32>,
    /// Gates scheduled at or below the level being processed — they run
    /// in the next wave (only reachable through cycles or fault forcing).
    deferred: Vec<u32>,
    /// Gates currently enqueued across `levels` and `deferred`; zero
    /// means the values are a fixpoint (the quiescence fact).
    pending: usize,
    /// Nets whose value changed since the last toggle accounting. May
    /// hold duplicates — the accounting pass is idempotent per net, so
    /// deduplicating here would cost more than it saves.
    touched: Vec<u32>,
}

impl<'a> Simulator<'a> {
    /// Settle passes attempted before declaring the logic oscillating.
    /// A valid netlist settles in one pass (plus one verification pass).
    pub const MAX_SETTLE_PASSES: usize = 8;

    /// Top bit of a [`Simulator::slot`] word: the gate is enqueued.
    const QUEUED: u32 = 1 << 31;

    /// Creates an event-driven simulator with all nets low, all state
    /// reset, and the constant nets tied to their values.
    pub fn new(netlist: &'a Netlist) -> Self {
        Self::with_engine(netlist, Engine::default())
    }

    /// Creates a simulator using the given [`Engine`], counted in
    /// `netlist.sim.scalar_builds` (a clone is not a build).
    pub fn with_engine(netlist: &'a Netlist, engine: Engine) -> Self {
        obs::incr("netlist.sim.scalar_builds");
        let fanout = Arc::new(FanoutMap::build(netlist));
        // Combinational depth per gate, derived by walking the stored
        // topological order (never by chasing edges, so a deliberately
        // corrupt order — as the oscillation tests build — still yields
        // a finite levelization).
        let mut depth = vec![u32::MAX; netlist.gate_count()];
        let mut max_depth = 0usize;
        for (gate_id, gate) in netlist.topo_order() {
            let mut d = 0u32;
            for input in &gate.inputs {
                if let Some(driver) = fanout.driver(*input) {
                    let dd = depth[driver.index()];
                    if dd != u32::MAX {
                        d = d.max(dd + 1);
                    }
                }
            }
            depth[gate_id.index()] = d;
            max_depth = max_depth.max(d as usize);
        }
        let seq_ops: Vec<SeqOp> = netlist
            .gates()
            .iter()
            .enumerate()
            .filter(|(_, gate)| gate.is_sequential())
            .map(|(gi, gate)| {
                let a = gate.inputs.first().map_or(0, |n| n.index() as u32);
                let b = gate.inputs.get(1).map_or(a, |n| n.index() as u32);
                SeqOp {
                    gi: gi as u32,
                    a,
                    b,
                    out: gate.output.index() as u32,
                    latch: gate.kind == CellKind::Latch,
                }
            })
            .collect();
        let ops: Vec<EvalOp> = netlist
            .gates()
            .iter()
            .map(|gate| {
                let a = gate.inputs.first().map_or(0, |n| n.index() as u32);
                let b = gate.inputs.get(1).map_or(a, |n| n.index() as u32);
                EvalOp { a, b, out: gate.output.index() as u32, tt: EvalOp::table(gate.kind) }
            })
            .collect();
        let has_comb = depth.iter().any(|&d| d != u32::MAX);
        let level_count = if has_comb { max_depth + 1 } else { 0 };
        let mut level_base = vec![0u32; level_count + 1];
        for &d in &depth {
            if d != u32::MAX {
                level_base[d as usize + 1] += 1;
            }
        }
        for i in 0..level_count {
            level_base[i + 1] += level_base[i];
        }
        let comb_count = level_base[level_count] as usize;
        let mut sim = Simulator {
            netlist,
            engine,
            values: vec![false; netlist.net_count()],
            state: vec![false; netlist.gate_count()],
            prev_values: vec![false; netlist.net_count()],
            stats: ActivityStats {
                toggles: vec![0; netlist.gate_count()],
                eval_counts: vec![0; netlist.gate_count()],
                ..ActivityStats::default()
            },
            faults: None,
            fanout,
            ops: Arc::new(ops),
            seq_ops: Arc::new(seq_ops),
            level_base: Arc::new(level_base),
            level_len: vec![0; level_count],
            bucket_store: vec![0; comb_count],
            slot: depth,
            deferred: Vec::new(),
            pending: 0,
            touched: Vec::new(),
        };
        if let Some(c1) = netlist.const1() {
            sim.values[c1.index()] = true;
        }
        if sim.engine == Engine::EventDriven {
            // Seed the worklist: every combinational gate must evaluate
            // once before the first settle is meaningful.
            for i in 0..netlist.gate_count() {
                sim.schedule_gate(i);
            }
        }
        sim
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The evaluation engine in use.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Injects a fault map; every subsequent evaluation applies it.
    ///
    /// # Panics
    ///
    /// Panics if the map was built for a netlist with a different gate
    /// count (see [`FaultMap::new`]).
    pub fn inject(&mut self, faults: FaultMap) {
        assert_eq!(
            faults.stuck.len(),
            self.netlist.gate_count(),
            "fault map was built for a different netlist"
        );
        if self.engine == Engine::EventDriven {
            // Newly forced gates must re-evaluate; so must gates whose
            // old forcing this call removes.
            let mut dirty: Vec<usize> =
                (0..faults.stuck.len()).filter(|&i| faults.stuck[i].is_some()).collect();
            if let Some(old) = &self.faults {
                dirty.extend((0..old.stuck.len()).filter(|&i| old.stuck[i].is_some()));
            }
            for i in dirty {
                self.schedule_gate(i);
            }
        }
        self.faults = Some(faults);
    }

    /// Whether a fault map is currently injected.
    pub fn has_faults(&self) -> bool {
        self.faults.is_some()
    }

    /// Removes any injected fault map (the netlist state is untouched;
    /// call [`Simulator::reset`] to also clear stored state).
    pub fn clear_faults(&mut self) {
        if let Some(old) = self.faults.take() {
            if self.engine == Engine::EventDriven {
                for (i, forced) in old.stuck.iter().enumerate() {
                    if forced.is_some() {
                        self.schedule_gate(i);
                    }
                }
            }
        }
    }

    /// Sets a named input bus from the low bits of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for a missing port and
    /// [`NetlistError::WidthMismatch`] if the bus is wider than 64 bits.
    pub fn set_input(&mut self, name: &str, value: u64) -> Result<(), NetlistError> {
        // Copy the netlist reference out of `self` so the borrow of the
        // port's net list does not pin `self` (and force an allocation).
        let netlist = self.netlist;
        let nets = netlist.input(name)?;
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

    /// Drives any bus of nets from the low bits of `value` (LSB-first) —
    /// the unvalidated core of [`Simulator::set_input`], for callers
    /// that resolved the port list once up front.
    pub fn set_bus(&mut self, nets: &[NetId], value: u64) {
        let engine = self.engine;
        let Simulator {
            values,
            fanout,
            slot,
            level_base,
            level_len,
            bucket_store,
            pending,
            touched,
            ..
        } = self;
        for (bit, net) in nets.iter().enumerate() {
            let v = value >> bit & 1 == 1;
            let idx = net.index();
            if values[idx] != v {
                values[idx] = v;
                if engine == Engine::EventDriven {
                    touched.push(idx as u32);
                    schedule_readers_split(
                        fanout,
                        *net,
                        slot,
                        level_base,
                        level_len,
                        bucket_store,
                        pending,
                    );
                }
            }
        }
    }

    /// Reads a named output bus as an integer (LSB-first).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownPort`] for a missing port and
    /// [`NetlistError::WidthMismatch`] if the bus is wider than 64 bits.
    pub fn read_output(&self, name: &str) -> Result<u64, NetlistError> {
        let nets = self.netlist.output(name)?;
        if nets.len() > 64 {
            return Err(NetlistError::WidthMismatch {
                context: "read_output",
                left: nets.len(),
                right: 64,
            });
        }
        Ok(self.read_bus(nets))
    }

    /// Reads any bus of nets as an integer (LSB-first).
    pub fn read_bus(&self, nets: &[NetId]) -> u64 {
        nets.iter()
            .enumerate()
            .fold(0, |acc, (bit, net)| acc | (self.values[net.index()] as u64) << bit)
    }

    /// Reads a single net.
    pub fn read_net(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Enqueues a combinational gate outside wave processing (sequential
    /// cells and already-queued gates are ignored).
    fn schedule_gate(&mut self, gi: usize) {
        let s = self.slot[gi];
        if s & Self::QUEUED != 0 {
            return;
        }
        self.slot[gi] = s | Self::QUEUED;
        self.pending += 1;
        self.push_bucket(s as usize, gi as u32);
    }

    /// Appends a gate to its depth level's bucket region.
    fn push_bucket(&mut self, level: usize, gi: u32) {
        let at = self.level_base[level] + self.level_len[level];
        self.bucket_store[at as usize] = gi;
        self.level_len[level] += 1;
    }

    /// One topological evaluation pass; returns how many net values
    /// changed plus the last net that did (`None` if the pass was a
    /// fixpoint).
    fn settle_pass(&mut self) -> (u64, Option<NetId>) {
        let mut changes = 0u64;
        let mut changed = None;
        self.stats.settle_passes += 1;
        for (gate_id, gate) in self.netlist.topo_order() {
            self.stats.gate_evals += 1;
            let gi = gate_id.index();
            self.stats.eval_counts[gi] += 1;
            let mut out = match gate.kind {
                CellKind::Inv => !self.values[gate.inputs[0].index()],
                CellKind::Nand2 => {
                    !(self.values[gate.inputs[0].index()] && self.values[gate.inputs[1].index()])
                }
                CellKind::Nor2 => {
                    !(self.values[gate.inputs[0].index()] || self.values[gate.inputs[1].index()])
                }
                CellKind::And2 => {
                    self.values[gate.inputs[0].index()] && self.values[gate.inputs[1].index()]
                }
                CellKind::Or2 => {
                    self.values[gate.inputs[0].index()] || self.values[gate.inputs[1].index()]
                }
                CellKind::Xor2 => {
                    self.values[gate.inputs[0].index()] ^ self.values[gate.inputs[1].index()]
                }
                CellKind::Xnor2 => {
                    !(self.values[gate.inputs[0].index()] ^ self.values[gate.inputs[1].index()])
                }
                CellKind::TsBuf => {
                    let en = self.values[gate.inputs[1].index()];
                    if en {
                        self.state[gi] = self.values[gate.inputs[0].index()];
                    }
                    self.state[gi]
                }
                CellKind::Dff | CellKind::DffNr | CellKind::Latch => {
                    unreachable!("sequential cells are not in the topological order")
                }
            };
            if let Some(faults) = &self.faults {
                if let Some(forced) = faults.stuck[gi] {
                    out = forced;
                }
            }
            let idx = gate.output.index();
            if self.values[idx] != out {
                self.values[idx] = out;
                changes += 1;
                changed = Some(gate.output);
            }
        }
        (changes, changed)
    }

    /// Full-sweep fixpoint loop (the reference engine).
    fn settle_full(&mut self) -> Result<(), NetlistError> {
        let mut last = None;
        let mut toggles = 0u64;
        for _ in 0..Self::MAX_SETTLE_PASSES {
            match self.settle_pass() {
                (_, None) => return Ok(()),
                (changes, Some(net)) => {
                    last = Some(net);
                    toggles = changes;
                }
            }
        }
        let net = last.unwrap_or_else(|| unreachable!("a pass ran and changed a net"));
        Err(NetlistError::Unsettled { net, driver: self.fanout.driver(net), toggles })
    }

    /// Event-driven fixpoint: drains the levelized worklist in depth
    /// order. A gate scheduled at or below the level currently being
    /// processed (possible only through a combinational cycle or a
    /// corrupt topological order) is deferred to the next wave; each
    /// wave corresponds to one full-sweep settle pass, and the same
    /// [`Simulator::MAX_SETTLE_PASSES`] bound applies.
    fn settle_event(&mut self) -> Result<(), NetlistError> {
        if self.pending == 0 {
            // Quiescence fact: nothing changed since the last settle, so
            // the values are already a fixpoint. The full-sweep engine
            // pays a whole verification pass to learn the same thing.
            self.stats.skipped_gates += self.netlist.topo.len() as u64;
            return Ok(());
        }
        // Move the fault map into a local for the duration: the borrow
        // checker then sees it never changes inside the wave loop, so
        // the fault-free hot path hoists the check out entirely.
        let faults = self.faults.take();
        let result = self.drain_worklist(&faults);
        self.faults = faults;
        result
    }

    /// The wave loop of [`Simulator::settle_event`]; `faults` is the
    /// simulator's own fault map, temporarily moved out.
    fn drain_worklist(&mut self, faults: &Option<FaultMap>) -> Result<(), NetlistError> {
        let total = self.netlist.topo.len() as u64;
        let mut last_changed: Option<NetId> = None;
        let mut wave_toggles = 0u64;
        // Split borrows: the whole drain runs on disjoint field borrows,
        // with no `self` method calls and no `Arc` refcount traffic.
        let Simulator {
            fanout,
            ops,
            values,
            state,
            slot,
            level_base,
            level_len,
            bucket_store,
            deferred,
            pending,
            touched,
            stats,
            ..
        } = self;
        for _ in 0..Self::MAX_SETTLE_PASSES {
            stats.settle_passes += 1;
            wave_toggles = 0;
            let evals_before = stats.gate_evals;
            let mut level = 0;
            // Gates still queued beyond `deferred` all sit at `level` or
            // above, so once the counts meet, the rest of the level scan
            // would only visit empty buckets.
            while level < level_len.len() && *pending > deferred.len() {
                let len = level_len[level] as usize;
                if len == 0 {
                    level += 1;
                    continue;
                }
                let base = level_base[level] as usize;
                level_len[level] = 0;
                *pending -= len;
                stats.gate_evals += len as u64;
                stats.events += len as u64;
                // In-wave pushes go strictly above `level`, so this
                // region is stable while it is being drained.
                for k in base..base + len {
                    let gi = bucket_store[k] as usize;
                    slot[gi] &= !Self::QUEUED;
                    stats.eval_counts[gi] += 1;
                    let op = ops[gi];
                    let a = values[op.a as usize];
                    let b = values[op.b as usize];
                    let mut out = if op.tt == EvalOp::TSBUF {
                        if b {
                            state[gi] = a;
                        }
                        state[gi]
                    } else {
                        op.tt >> ((b as u8) << 1 | a as u8) & 1 != 0
                    };
                    if let Some(faults) = faults {
                        if let Some(forced) = faults.stuck[gi] {
                            out = forced;
                        }
                    }
                    let idx = op.out as usize;
                    if values[idx] == out {
                        continue;
                    }
                    values[idx] = out;
                    touched.push(op.out);
                    wave_toggles += 1;
                    last_changed = Some(NetId(op.out));
                    for &reader in fanout.readers(NetId(op.out)) {
                        let ri = reader as usize;
                        let s = slot[ri];
                        if s & Self::QUEUED != 0 {
                            continue;
                        }
                        slot[ri] = s | Self::QUEUED;
                        *pending += 1;
                        let lvl = s as usize;
                        if lvl > level {
                            let at = (level_base[lvl] + level_len[lvl]) as usize;
                            bucket_store[at] = reader;
                            level_len[lvl] += 1;
                        } else {
                            deferred.push(reader);
                        }
                    }
                }
                level += 1;
            }
            let wave_evals = stats.gate_evals - evals_before;
            stats.skipped_gates += total.saturating_sub(wave_evals);
            if deferred.is_empty() {
                debug_assert_eq!(*pending, 0, "worklist drained but gates still queued");
                return Ok(());
            }
            // Deferred gates start the next wave at their own level.
            for &gi in deferred.iter() {
                let lvl = (slot[gi as usize] & !Self::QUEUED) as usize;
                let at = (level_base[lvl] + level_len[lvl]) as usize;
                bucket_store[at] = gi;
                level_len[lvl] += 1;
            }
            deferred.clear();
        }
        // The wave budget ran out with gates still queued: oscillation.
        // The worklist keeps its entries, so a retry fails the same way.
        let net = last_changed.unwrap_or_else(|| unreachable!("a wave ran and changed a net"));
        Err(NetlistError::Unsettled { net, driver: fanout.driver(net), toggles: wave_toggles })
    }

    /// Propagates values through the combinational logic until a fixpoint.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unsettled`] if the values are still
    /// changing after [`Simulator::MAX_SETTLE_PASSES`] passes.
    pub fn settle(&mut self) -> Result<(), NetlistError> {
        match self.engine {
            Engine::EventDriven => self.settle_event(),
            Engine::FullSweep => self.settle_full(),
        }
    }

    /// Advances one clock cycle: settles combinational logic, captures
    /// sequential state on the rising edge (applying any scheduled SEU
    /// bit-flips), publishes the new state, and settles again. Updates
    /// toggle statistics.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unsettled`] if either settle phase fails
    /// to converge.
    pub fn step(&mut self) -> Result<(), NetlistError> {
        self.settle()?;
        let netlist = self.netlist;
        // Rising edge: capture next state for every sequential cell.
        {
            let Simulator { seq_ops, values, state, .. } = &mut *self;
            for op in seq_ops.iter() {
                let gi = op.gi as usize;
                if op.latch {
                    if values[op.a as usize] {
                        state[gi] = true;
                    } else if values[op.b as usize] {
                        state[gi] = false;
                    }
                } else {
                    state[gi] = values[op.a as usize];
                }
            }
        }
        // Scheduled single-event upsets flip the freshly captured state.
        // Combinational targets (a TsBuf keeper) must also re-evaluate,
        // since no input of theirs changed.
        if self.faults.is_some() {
            let hits =
                self.faults.as_ref().and_then(|faults| faults.seu.get(&self.stats.cycles)).cloned();
            if let Some(hits) = hits {
                for &gi in &hits {
                    self.state[gi as usize] = !self.state[gi as usize];
                }
                if self.engine == Engine::EventDriven {
                    for &gi in &hits {
                        self.schedule_gate(gi as usize);
                    }
                }
            }
        }
        // Publish Q outputs (stuck-at faults force the output node).
        {
            let engine = self.engine;
            let Simulator {
                seq_ops,
                values,
                state,
                faults,
                fanout,
                slot,
                level_base,
                level_len,
                bucket_store,
                pending,
                touched,
                ..
            } = &mut *self;
            for op in seq_ops.iter() {
                let gi = op.gi as usize;
                let mut q = state[gi];
                if let Some(faults) = faults {
                    if let Some(forced) = faults.stuck[gi] {
                        q = forced;
                    }
                }
                let idx = op.out as usize;
                if values[idx] != q {
                    values[idx] = q;
                    if engine == Engine::EventDriven {
                        touched.push(op.out);
                        schedule_readers_split(
                            fanout,
                            NetId(op.out),
                            slot,
                            level_base,
                            level_len,
                            bucket_store,
                            pending,
                        );
                    }
                }
            }
        }
        self.settle()?;
        // Toggle accounting.
        match self.engine {
            Engine::FullSweep => {
                // One comparison per gate output per cycle.
                for (i, gate) in netlist.gates().iter().enumerate() {
                    let idx = gate.output.index();
                    if self.values[idx] != self.prev_values[idx] {
                        self.stats.toggles[i] += 1;
                    }
                }
                self.prev_values.copy_from_slice(&self.values);
            }
            Engine::EventDriven => {
                // Only nets that changed this cycle can have toggled.
                // `touched` may repeat a net; updating `prev_values` on
                // the first encounter makes later duplicates no-ops.
                let mut touched = std::mem::take(&mut self.touched);
                for &ni in &touched {
                    let idx = ni as usize;
                    if self.values[idx] != self.prev_values[idx] {
                        self.prev_values[idx] = self.values[idx];
                        if let Some(gate) = self.fanout.driver(NetId(ni)) {
                            self.stats.toggles[gate.index()] += 1;
                        }
                    }
                }
                touched.clear();
                self.touched = touched;
            }
        }
        self.stats.cycles += 1;
        Ok(())
    }

    /// Runs `n` clock cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first [`NetlistError::Unsettled`] from any cycle.
    pub fn run(&mut self, n: u64) -> Result<(), NetlistError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Asynchronously resets every `DffNr` (and, as a simulation
    /// convenience, plain `Dff` and latch state too) to 0, then settles.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unsettled`] if settling fails to converge.
    pub fn reset(&mut self) -> Result<(), NetlistError> {
        {
            let engine = self.engine;
            let Simulator {
                seq_ops,
                values,
                state,
                faults,
                fanout,
                slot,
                level_base,
                level_len,
                bucket_store,
                pending,
                touched,
                ..
            } = &mut *self;
            for op in seq_ops.iter() {
                let gi = op.gi as usize;
                state[gi] = false;
                let mut q = false;
                if let Some(faults) = faults {
                    if let Some(forced) = faults.stuck[gi] {
                        q = forced;
                    }
                }
                let idx = op.out as usize;
                if values[idx] != q {
                    values[idx] = q;
                    if engine == Engine::EventDriven {
                        touched.push(op.out);
                        schedule_readers_split(
                            fanout,
                            NetId(op.out),
                            slot,
                            level_base,
                            level_len,
                            bucket_store,
                            pending,
                        );
                    }
                }
            }
        }
        self.settle()
    }

    /// Overwrites the stored state of one sequential cell — the power-up
    /// injection hook the dataflow proptests use to explore the
    /// randomized power-up states that X-propagation abstracts over.
    /// Publishes the new Q value (respecting any stuck fault on the
    /// cell) and schedules its readers; call [`Simulator::settle`]
    /// afterwards (once, after injecting a whole power-up state).
    ///
    /// Returns `false` (and does nothing) when `gate` is not a
    /// sequential cell.
    pub fn set_sequential_state(&mut self, gate: GateId, value: bool) -> bool {
        let engine = self.engine;
        let Simulator {
            seq_ops,
            values,
            state,
            faults,
            fanout,
            slot,
            level_base,
            level_len,
            bucket_store,
            pending,
            touched,
            ..
        } = &mut *self;
        let Ok(pos) = seq_ops.binary_search_by_key(&(gate.index() as u32), |op| op.gi) else {
            return false;
        };
        let op = &seq_ops[pos];
        let gi = op.gi as usize;
        state[gi] = value;
        let mut q = value;
        if let Some(faults) = faults {
            if let Some(forced) = faults.stuck[gi] {
                q = forced;
            }
        }
        let idx = op.out as usize;
        if values[idx] != q {
            values[idx] = q;
            if engine == Engine::EventDriven {
                touched.push(op.out);
                schedule_readers_split(
                    fanout,
                    NetId(op.out),
                    slot,
                    level_base,
                    level_len,
                    bucket_store,
                    pending,
                );
            }
        }
        true
    }

    /// Switching statistics accumulated so far.
    pub fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    /// Combinational depth (levelization level) of one gate, or `None`
    /// for sequential cells, which sit outside the levelized order. The
    /// hotspot profiler uses this to aggregate work per level.
    pub fn gate_depth(&self, gate: usize) -> Option<u32> {
        match self.slot.get(gate) {
            Some(&s) if s != u32::MAX => Some(s & !Self::QUEUED),
            _ => None,
        }
    }

    /// Publishes the accumulated activity statistics into `registry`
    /// under dotted `prefix` names: counters `<prefix>.cycles`,
    /// `<prefix>.gate_evals`, `<prefix>.settle_passes`,
    /// `<prefix>.events`, `<prefix>.skipped_gates`, and
    /// `<prefix>.toggles`, a gauge `<prefix>.avg_activity`, and a
    /// histogram `<prefix>.gate_activity_per_mille` holding each gate's
    /// activity factor in units of toggles per 1000 cycles. The histogram
    /// is the activity profile the power model's
    /// [`crate::analysis::ActivityModel::Measured`] mode consumes, made
    /// observable for cross-checking.
    ///
    /// This publishes unconditionally; use [`Simulator::publish_obs`]
    /// for the `PRINTED_OBS`-gated global-registry variant.
    pub fn publish_activity(&self, registry: &obs::Registry, prefix: &str) {
        let s = &self.stats;
        registry.add(&format!("{prefix}.cycles"), s.cycles);
        registry.add(&format!("{prefix}.gate_evals"), s.gate_evals);
        registry.add(&format!("{prefix}.settle_passes"), s.settle_passes);
        registry.add(&format!("{prefix}.events"), s.events);
        registry.add(&format!("{prefix}.skipped_gates"), s.skipped_gates);
        registry.add(&format!("{prefix}.toggles"), s.toggles.iter().sum());
        if let Some(avg) = s.average_activity() {
            registry.gauge(&format!("{prefix}.avg_activity"), avg);
        }
        let name = format!("{prefix}.gate_activity_per_mille");
        for &toggles in &s.toggles {
            if let Some(per_mille) = (toggles * 1000).checked_div(s.cycles) {
                registry.record(&name, per_mille);
            }
        }
    }

    /// Publishes activity statistics to the global observability registry
    /// (see [`Simulator::publish_activity`]); a no-op unless `PRINTED_OBS`
    /// enables recording. Call once at the end of a run — recording is
    /// batched here precisely so the per-cycle hot path stays lock-free.
    pub fn publish_obs(&self, prefix: &str) {
        if obs::enabled() {
            self.publish_activity(obs::global(), prefix);
        }
    }
}

/// Enqueues every combinational reader of `net` into its depth bucket —
/// the body of [`Simulator::schedule_readers`] as a free function over
/// split borrows, so the hot call sites (worklist drain, Q publish, bus
/// writes) never clone the fanout `Arc`: refcount updates are atomic
/// read-modify-writes, measurable at per-net call rates.
fn schedule_readers_split(
    fanout: &FanoutMap,
    net: NetId,
    slot: &mut [u32],
    level_base: &[u32],
    level_len: &mut [u32],
    bucket_store: &mut [u32],
    pending: &mut usize,
) {
    for &reader in fanout.readers(net) {
        let ri = reader as usize;
        let s = slot[ri];
        if s & Simulator::QUEUED != 0 {
            continue;
        }
        slot[ri] = s | Simulator::QUEUED;
        *pending += 1;
        let level = s as usize;
        let at = (level_base[level] + level_len[level]) as usize;
        bucket_store[at] = reader;
        level_len[level] += 1;
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::ir::{Gate, GateId, Region};

    fn divider() -> Netlist {
        // q' = !q via forward net.
        let mut b = NetlistBuilder::new("divider");
        let q = b.forward_net();
        let d = b.inv(q);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        b.finish().unwrap()
    }

    #[test]
    fn toggle_flipflop_divides_clock() {
        let nl = divider();
        let mut sim = Simulator::new(&nl);
        let mut seen = Vec::new();
        for _ in 0..6 {
            sim.step().unwrap();
            seen.push(sim.read_output("q").unwrap());
        }
        assert_eq!(seen, vec![1, 0, 1, 0, 1, 0]);
        // The DFF output toggles every cycle: activity factor 1.0; the
        // inverter misses only the very first cycle.
        assert_eq!(sim.stats().gate_activity(1), Some(1.0)); // the DFF
        assert!(sim.stats().average_activity().unwrap() > 0.9);
    }

    #[test]
    fn engines_agree_on_divider() {
        let nl = divider();
        let mut ev = Simulator::new(&nl);
        let mut fs = Simulator::with_engine(&nl, Engine::FullSweep);
        assert_eq!(ev.engine(), Engine::EventDriven);
        assert_eq!(fs.engine(), Engine::FullSweep);
        for _ in 0..8 {
            ev.step().unwrap();
            fs.step().unwrap();
            assert_eq!(ev.read_output("q").unwrap(), fs.read_output("q").unwrap());
        }
        assert_eq!(ev.stats().toggles, fs.stats().toggles);
        assert_eq!(ev.stats().cycles, fs.stats().cycles);
        assert_eq!(fs.stats().events, 0, "full sweep never uses the worklist");
        assert!(
            ev.stats().gate_evals <= fs.stats().gate_evals,
            "event engine must not do more work than the full sweep"
        );
    }

    #[test]
    fn per_gate_eval_counts_sum_to_gate_evals() {
        let nl = divider();
        for engine in [Engine::EventDriven, Engine::FullSweep] {
            let mut sim = Simulator::with_engine(&nl, engine);
            sim.run(16).unwrap();
            let s = sim.stats();
            assert_eq!(
                s.eval_counts.iter().sum::<u64>(),
                s.gate_evals,
                "{engine:?}: per-gate attribution must tile the engine's total work"
            );
            // Sequential cells are never scheduled for evaluation.
            assert_eq!(s.eval_counts[1], 0, "{engine:?}: the DFF has no comb evals");
        }
    }

    #[test]
    fn gate_depths_cover_combinational_gates_only() {
        let nl = divider();
        let sim = Simulator::new(&nl);
        // Gate 0 is the inverter (depth 0), gate 1 the DFF (no depth).
        assert_eq!(sim.gate_depth(0), Some(0));
        assert_eq!(sim.gate_depth(1), None);
        assert_eq!(sim.gate_depth(usize::MAX), None, "out of range is None, not a panic");
    }

    #[test]
    fn quiescent_settle_is_free() {
        let nl = divider();
        let mut sim = Simulator::new(&nl);
        sim.settle().unwrap();
        let evals = sim.stats().gate_evals;
        let skipped = sim.stats().skipped_gates;
        // Nothing changed: the quiescence fact answers without touching
        // a single gate — the fixed full-sweep verification pass is gone.
        sim.settle().unwrap();
        assert_eq!(sim.stats().gate_evals, evals);
        assert!(sim.stats().skipped_gates > skipped);
    }

    #[test]
    fn publish_activity_mirrors_internal_stats() {
        let nl = divider();
        let mut sim = Simulator::new(&nl);
        sim.run(8).unwrap();
        let reg = printed_obs::Registry::new();
        sim.publish_activity(&reg, "t.sim");
        let s = sim.stats();
        assert_eq!(reg.counter("t.sim.cycles"), Some(s.cycles));
        assert_eq!(reg.counter("t.sim.gate_evals"), Some(s.gate_evals));
        assert_eq!(reg.counter("t.sim.settle_passes"), Some(s.settle_passes));
        assert_eq!(reg.counter("t.sim.events"), Some(s.events));
        assert_eq!(reg.counter("t.sim.skipped_gates"), Some(s.skipped_gates));
        assert_eq!(reg.counter("t.sim.toggles"), Some(s.toggles.iter().sum()));
        assert_eq!(
            reg.gauge_value("t.sim.avg_activity"),
            s.average_activity(),
            "gauge matches the power model's measured activity factor"
        );
        let h = reg.histogram("t.sim.gate_activity_per_mille").unwrap();
        assert_eq!(h.count, nl.gate_count() as u64);
    }

    #[test]
    fn constants_hold_their_values() {
        let mut b = NetlistBuilder::new("consts");
        let one = b.const1();
        let zero = b.const0();
        let x = b.and2(one, one);
        let y = b.or2(zero, zero);
        b.output("x", vec![x]);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.settle().unwrap();
        assert_eq!(sim.read_output("x").unwrap(), 1);
        assert_eq!(sim.read_output("y").unwrap(), 0);
    }

    #[test]
    fn tsbuf_holds_when_disabled() {
        let mut b = NetlistBuilder::new("ts");
        let a = b.input_bit("a");
        let en = b.input_bit("en");
        let y = b.tsbuf(a, en);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input("a", 1).unwrap();
        sim.set_input("en", 1).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("y").unwrap(), 1);
        sim.set_input("a", 0).unwrap();
        sim.set_input("en", 0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("y").unwrap(), 1, "holds last driven value");
    }

    #[test]
    fn latch_sets_and_resets() {
        let mut b = NetlistBuilder::new("srl");
        let s = b.input_bit("s");
        let r = b.input_bit("r");
        let q = b.latch(s, r);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input("s", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 1);
        sim.set_input("s", 0).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 1, "holds");
        sim.set_input("r", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut b = NetlistBuilder::new("reg");
        let d = b.input_bit("d");
        let q = b.dff_nr(d);
        b.output("q", vec![q]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input("d", 1).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 1);
        sim.reset().unwrap();
        assert_eq!(sim.read_output("q").unwrap(), 0);
    }

    #[test]
    fn unknown_port_is_an_error() {
        let mut b = NetlistBuilder::new("empty");
        let a = b.input_bit("a");
        b.output("y", vec![a]);
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        assert!(sim.set_input("nope", 0).is_err());
        assert!(sim.read_output("nope").is_err());
    }

    fn oscillator() -> Netlist {
        // The builder cannot express a combinational self-loop, so build
        // the pathological netlist directly: an inverter feeding itself.
        Netlist {
            name: "osc".to_string(),
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
        }
    }

    #[test]
    fn oscillating_logic_is_reported_not_silently_settled() {
        // Every settle pass flips the net — the simulator must give up
        // with `Unsettled` rather than publish whichever value the pass
        // budget happened to land on.
        let nl = oscillator();
        let mut sim = Simulator::new(&nl);
        let expected =
            NetlistError::Unsettled { net: NetId(0), driver: Some(GateId(0)), toggles: 1 };
        assert_eq!(sim.settle(), Err(expected.clone()));
        assert_eq!(sim.step(), Err(expected.clone()));
        assert_eq!(sim.run(3), Err(expected));
    }

    #[test]
    fn oscillating_logic_is_reported_by_full_sweep_too() {
        let nl = oscillator();
        let mut sim = Simulator::with_engine(&nl, Engine::FullSweep);
        let expected =
            NetlistError::Unsettled { net: NetId(0), driver: Some(GateId(0)), toggles: 1 };
        assert_eq!(sim.settle(), Err(expected.clone()));
        assert_eq!(sim.step(), Err(expected));
    }
}
