//! Fault models, fault-injection campaigns, and vulnerability statistics.
//!
//! Section 3.1 of the paper reports 90–99 % *device* yield for printed
//! EGFETs, yet the classic circuit-yield model (`Y = y^n`, see
//! [`printed_pdk::yield_model`]) treats every defective device as fatal.
//! In reality many defects are architecturally masked: a stuck-at fault
//! on a gate that a workload never sensitizes does not change the output.
//! This module turns the gate-level [`Simulator`] into a robustness
//! instrument that measures exactly that.
//!
//! Fault models:
//! - **stuck-at-0 / stuck-at-1** on any gate output (a shorted or open
//!   printed device permanently forcing the node), and
//! - **single-event upsets (SEU)**: a transient bit-flip of a `Dff`,
//!   `DffNr`, or `Latch` state on a chosen clock edge.
//!
//! A [`FaultMap`] carries the injected faults; [`run_campaign`] enumerates
//! single-fault runs of a [`Workload`] and classifies each as
//! [`Outcome::Masked`], [`Outcome::SilentDataCorruption`],
//! [`Outcome::Hang`], or [`Outcome::Detected`] against the fault-free
//! golden run. Campaigns are deterministic under a fixed seed. The
//! golden run is lane 0 of the campaign's first bitsliced word when the
//! workload has a word path, and a scalar run otherwise (see
//! [`Workload::run_bitsliced`]).
//!
//! A campaign's fault list holds one *slot* per enumerated fault.
//! Sampled spaces draw with replacement, so a slot may repeat another's
//! fault, and distinct faults may be equivalent. [`FaultClasses`] groups
//! such slots, the campaign simulates one representative per class, and
//! every member slot gets its representative's verdict: results, CSVs
//! and tallies still count slots.
//!
//! This module defines what a campaign computes; [`crate::resilience`]
//! holds the one scheduler that runs it,
//! [`crate::resilience::run_supervised_campaign`], and [`run_campaign`]
//! is that scheduler with no checkpoint and no cancel flag. Both take the
//! worker-thread count as an argument; callers that follow the
//! `PRINTED_SIM_THREADS` environment variable pass [`campaign_threads`].
//! Every class is independent, so the class list is split into
//! contiguous chunks, the workers claim chunks from a shared queue, and
//! each classification lands in a result slot preassigned by class
//! index. The merged [`CampaignResult`] — runs, statistics, and CSV
//! bytes — is therefore identical for every thread count by
//! construction; claiming order only affects wall-clock time.
//!
//! ```
//! use printed_netlist::fault::{
//!     run_campaign, CampaignConfig, PatternWorkload, StuckAtSpace,
//! };
//! use printed_netlist::NetlistBuilder;
//!
//! // A toggle flip-flop with its inverter.
//! let mut b = NetlistBuilder::new("divider");
//! let q = b.forward_net();
//! let d = b.inv(q);
//! b.dff_into(d, q);
//! b.output("q", vec![q]);
//! let nl = b.finish()?;
//!
//! let workload = PatternWorkload { cycles: 8, seed: 1 };
//! let config = CampaignConfig {
//!     stuck_at: StuckAtSpace::Exhaustive,
//!     seu_samples: 4,
//!     ..CampaignConfig::default()
//! };
//! let result = run_campaign(&nl, &workload, &config, 1).expect("golden run completes");
//! // Two stuck-at polarities per gate plus the sampled SEUs.
//! assert_eq!(result.runs.len(), 2 * nl.gate_count() + 4);
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::bitsim::{lane_value, BitSimulator};
use crate::builder::TMR_ERROR_PORT;
use crate::ir::{FanoutMap, GateId, NetId, Netlist, NetlistError};
use crate::resilience::{retry_panics, run_supervised_campaign, JobError, SupervisedRun};
use crate::sim::Simulator;
use printed_pdk::{yield_model, CellKind, Technology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;

/// The kind of a single injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Gate output permanently forced low.
    StuckAt0,
    /// Gate output permanently forced high.
    StuckAt1,
    /// Transient bit-flip of a sequential cell's stored state on the
    /// rising edge of the given cycle (0-based).
    Seu {
        /// Clock cycle on which the state flips.
        cycle: u64,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::StuckAt0 => f.write_str("sa0"),
            FaultKind::StuckAt1 => f.write_str("sa1"),
            FaultKind::Seu { cycle } => write!(f, "seu@{cycle}"),
        }
    }
}

/// One injected fault: a kind applied to a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The gate whose output (or state) is faulted.
    pub gate: GateId,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on gate g{}", self.kind, self.gate.index())
    }
}

/// The fault set a [`Simulator`] applies while evaluating a netlist.
///
/// Build one sized for a netlist with [`FaultMap::new`] (or
/// [`FaultMap::single`] for the common one-fault case), then hand it to
/// [`Simulator::inject`].
#[derive(Debug, Clone, Default)]
pub struct FaultMap {
    /// Forced output value per gate, indexed like `Netlist::gates`.
    pub(crate) stuck: Vec<Option<bool>>,
    /// Cycle index → gate indices whose stored state flips on that edge.
    pub(crate) seu: BTreeMap<u64, Vec<u32>>,
}

impl FaultMap {
    /// An empty fault map sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        FaultMap { stuck: vec![None; netlist.gate_count()], seu: BTreeMap::new() }
    }

    /// A map containing exactly one fault.
    pub fn single(netlist: &Netlist, fault: Fault) -> Self {
        let mut map = FaultMap::new(netlist);
        map.add(fault);
        map
    }

    /// Adds a fault to the map.
    ///
    /// # Panics
    ///
    /// Panics if the fault's gate index is outside the netlist the map
    /// was sized for.
    pub fn add(&mut self, fault: Fault) {
        match fault.kind {
            FaultKind::StuckAt0 => self.stuck[fault.gate.index()] = Some(false),
            FaultKind::StuckAt1 => self.stuck[fault.gate.index()] = Some(true),
            FaultKind::Seu { cycle } => {
                assert!(fault.gate.index() < self.stuck.len(), "gate index out of range");
                self.seu.entry(cycle).or_default().push(fault.gate.0);
            }
        }
    }

    /// Whether the map holds no faults at all.
    pub fn is_empty(&self) -> bool {
        self.stuck.iter().all(Option::is_none) && self.seu.is_empty()
    }
}

/// What one workload run produced, for comparison against the golden run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Workload-defined output trace or result words; any difference from
    /// the golden signature is data corruption.
    pub signature: Vec<u64>,
    /// Whether the workload ran to completion within its cycle budget.
    pub completed: bool,
    /// Clock cycles actually simulated.
    pub cycles: u64,
    /// Whether an error-detection output (e.g. the TMR mismatch port)
    /// fired during the run.
    pub detected: bool,
}

/// A deterministic stimulus applied to a netlist under test.
///
/// The campaign engine creates a fresh [`Simulator`] per fault (with the
/// fault pre-injected) and hands it over; the workload drives inputs,
/// steps the clock, and reports an [`Observation`]. Implementations must
/// be deterministic: the same netlist and budget must always produce the
/// same observation, or fault classification is meaningless.
///
/// A workload sees the circuit only through its ports: it drives input
/// ports and reads output ports, never an internal net or a gate's
/// state. That is what makes equivalent faults interchangeable (see
/// [`FaultClasses`]): two faults that force every port alike yield one
/// observation, so a campaign runs one of them for both.
///
/// `Sync` is required because the campaign scheduler shares one workload
/// across its worker threads; workloads are immutable descriptions of a
/// stimulus, so this is automatic for any sensible implementation.
pub trait Workload: Sync {
    /// Runs the stimulus to completion or until `cycle_budget` cycles.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures ([`NetlistError::Unsettled`], port
    /// errors); the campaign engine classifies a failing faulty run as a
    /// hang.
    fn run(&self, sim: Simulator<'_>, cycle_budget: u64) -> Result<Observation, NetlistError>;

    /// Runs the stimulus on a [`BitSimulator`] word — up to 64 machine
    /// instances at once, lane 0 golden, faults already injected into
    /// lanes `1..lane_count` — and reports one [`LaneOutcome`] per
    /// occupied lane, lane 0 first.
    ///
    /// `cycle_budget` is the campaign's budget, and it bounds lane 0.
    /// The faulty lanes' budget is relative to lane 0: each stops at
    /// [`faulty_budget`]`(cycle_budget, g)`, where `g` is the cycle lane 0
    /// ended on, the budget [`Workload::run`] gets for that lane's fault.
    /// That limit is never below `g`, so no faulty lane has to stop
    /// before lane 0 has ended. A workload whose lanes all end at the
    /// same cycle, as [`PatternWorkload`]'s do, meets this by running
    /// every lane to `cycle_budget`.
    ///
    /// The default returns `None`: the workload has no bitsliced
    /// implementation, so the campaign takes its golden run on the scalar
    /// engine, declines every word and runs each fault through the
    /// supervised scalar fallback ([`ScalarOnly`] forces this for any
    /// workload). Implementations must be lane-exact: every lane's
    /// [`Observation`] must be byte-identical to what [`Workload::run`]
    /// would produce for that lane's fault, lane 0's to the fault-free
    /// run.
    ///
    /// A campaign leans on that. Its golden observation is lane 0 of its
    /// first word, which also carries the campaign's first stuck-at
    /// classes, and each later word must reproduce it in lane 0 or fall
    /// back to scalar. A lane 0 that is wrong in every word alike would
    /// pass that check, so the scalar engine reruns the golden before its
    /// first use in a campaign and stops the campaign with
    /// [`CampaignError::GoldenMismatch`] if the two differ; debug builds
    /// compare them on every campaign.
    fn run_bitsliced(
        &self,
        sim: BitSimulator<'_>,
        cycle_budget: u64,
    ) -> Option<Result<Vec<LaneOutcome>, NetlistError>> {
        let _ = (sim, cycle_budget);
        None
    }
}

/// A workload restricted to the scalar engine, the reference the
/// bitsliced engine is tested against: it forwards [`Workload::run`] and
/// keeps the default [`Workload::run_bitsliced`], so a campaign declines
/// every word and classifies each fault through the supervised scalar
/// fallback. Results, checkpoints and campaign identity are the wrapped
/// workload's; only the speed differs.
#[derive(Debug, Clone, Copy)]
pub struct ScalarOnly<'a, W: ?Sized>(pub &'a W);

impl<W: Workload + ?Sized> Workload for ScalarOnly<'_, W> {
    fn run(&self, sim: Simulator<'_>, cycle_budget: u64) -> Result<Observation, NetlistError> {
        self.0.run(sim, cycle_budget)
    }
}

/// What one lane of a bitsliced word run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneOutcome {
    /// The lane ran to its halt or to the cycle budget and produced an
    /// observation; a lane still live at the budget reports
    /// `completed: false`, which classifies as a hang.
    Done(Observation),
    /// The lane's logic oscillated through a full settle budget — the
    /// lane-level [`NetlistError::Unsettled`]. Classified as a hang.
    Wedged,
}

/// A generic workload for netlists without a program-level harness:
/// drives every input port with seeded pseudo-random values each cycle
/// and signs every output port each cycle.
///
/// If the netlist carries a TMR error-detection port
/// ([`TMR_ERROR_PORT`]), that port is excluded from the signature and
/// instead sets [`Observation::detected`] when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternWorkload {
    /// Cycles of random stimulus (clamped to the campaign cycle budget).
    pub cycles: u64,
    /// Seed for the input pattern stream.
    pub seed: u64,
}

impl Workload for PatternWorkload {
    fn run(&self, mut sim: Simulator<'_>, cycle_budget: u64) -> Result<Observation, NetlistError> {
        let in_ports: Vec<String> = sim.netlist().input_ports().keys().cloned().collect();
        let out_ports: Vec<String> = sim
            .netlist()
            .output_ports()
            .keys()
            .filter(|name| name.as_str() != TMR_ERROR_PORT)
            .cloned()
            .collect();
        let has_detect = sim.netlist().output_ports().contains_key(TMR_ERROR_PORT);
        let cycles = self.cycles.min(cycle_budget);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut signature = Vec::new();
        let mut detected = false;
        for _ in 0..cycles {
            for port in &in_ports {
                sim.set_input(port, rng.gen::<u64>())?;
            }
            sim.step()?;
            for port in &out_ports {
                signature.push(sim.read_output(port)?);
            }
            if has_detect && sim.read_output(TMR_ERROR_PORT)? != 0 {
                detected = true;
            }
        }
        Ok(Observation { signature, completed: true, cycles, detected })
    }

    fn run_bitsliced(
        &self,
        mut sim: BitSimulator<'_>,
        cycle_budget: u64,
    ) -> Option<Result<Vec<LaneOutcome>, NetlistError>> {
        let cycles = self.cycles.min(cycle_budget);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let lanes = sim.lane_count();
        let netlist = sim.netlist();
        // Port nets resolved once, in the by-name order the scalar run
        // drives and signs them.
        let in_nets: Vec<&[NetId]> = netlist.input_ports().values().map(Vec::as_slice).collect();
        let out_nets: Vec<&[NetId]> = netlist
            .output_ports()
            .iter()
            .filter(|(name, _)| name.as_str() != TMR_ERROR_PORT)
            .map(|(_, nets)| nets.as_slice())
            .collect();
        let detect_nets = netlist.output(TMR_ERROR_PORT).ok();
        if cycles > 0 {
            // The width checks the by-name accessors make per cycle.
            let widest = |ports: &[&[NetId]]| ports.iter().map(|nets| nets.len()).max();
            for (context, ports) in [("set_input", &in_nets), ("read_output", &out_nets)] {
                if let Some(left) = widest(ports).filter(|&w| w > 64) {
                    return Some(Err(NetlistError::WidthMismatch { context, left, right: 64 }));
                }
            }
        }
        let mut signatures: Vec<Vec<u64>> = vec![Vec::new(); lanes];
        let mut bus = [0u64; 64];
        let mut detected = 0u64;
        for _ in 0..cycles {
            for nets in &in_nets {
                sim.set_bus(nets, rng.gen::<u64>());
            }
            sim.step();
            for nets in &out_nets {
                let words = &mut bus[..nets.len()];
                sim.read_bus_words(nets, words);
                // Lanes agreeing with the golden lane 0 on every bit
                // take its value; only the differing ones are gathered.
                let golden = lane_value(words.iter().copied(), 0);
                let differ = words.iter().fold(0, |d, &w| d | (w ^ 0u64.wrapping_sub(w & 1)));
                for (lane, signature) in signatures.iter_mut().enumerate() {
                    let value = if differ >> lane & 1 == 1 {
                        lane_value(words.iter().copied(), lane)
                    } else {
                        golden
                    };
                    signature.push(value);
                }
            }
            if let Some(nets) = detect_nets {
                detected |= sim.read_bus_any(nets);
            }
        }
        let dead = sim.dead_lanes();
        Some(Ok(signatures
            .into_iter()
            .enumerate()
            .map(|(lane, signature)| {
                if dead >> lane & 1 == 1 {
                    LaneOutcome::Wedged
                } else {
                    LaneOutcome::Done(Observation {
                        signature,
                        completed: true,
                        cycles,
                        detected: detected >> lane & 1 == 1,
                    })
                }
            })
            .collect()))
    }
}

/// How one faulty run compares to the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Output signature identical to the golden run — the fault is
    /// architecturally masked (possibly by active correction, e.g. TMR).
    Masked,
    /// An error-detection output fired; the failure is not silent.
    Detected,
    /// The workload did not complete within the cycle budget.
    Hang,
    /// The run completed but produced a different signature.
    SilentDataCorruption,
    /// The run itself could not be executed: the worker panicked on this
    /// fault on every allowed attempt and the campaign runner
    /// ([`crate::resilience`]) degraded the slot to a recorded failure
    /// instead of aborting the whole campaign.
    Failed,
}

impl Outcome {
    /// Short stable name, used in CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Detected => "detected",
            Outcome::Hang => "hang",
            Outcome::SilentDataCorruption => "sdc",
            Outcome::Failed => "failed",
        }
    }

    /// Parses the stable [`Outcome::name`] back into an outcome, for
    /// checkpoint files. Returns `None` for anything else.
    pub fn parse(name: &str) -> Option<Outcome> {
        match name {
            "masked" => Some(Outcome::Masked),
            "detected" => Some(Outcome::Detected),
            "hang" => Some(Outcome::Hang),
            "sdc" => Some(Outcome::SilentDataCorruption),
            "failed" => Some(Outcome::Failed),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome tallies for a set of fault runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Runs with golden-identical signatures.
    pub masked: usize,
    /// Runs flagged by an error-detection output.
    pub detected: usize,
    /// Runs that exceeded the cycle budget.
    pub hang: usize,
    /// Runs that completed with corrupted output.
    pub sdc: usize,
    /// Runs that could not be executed at all (see
    /// [`Outcome::Failed`]). Counted in [`OutcomeCounts::total`]
    /// but never toward coverage: an unexecuted run proves nothing.
    pub failed: usize,
}

impl OutcomeCounts {
    /// Tallies one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Hang => self.hang += 1,
            Outcome::SilentDataCorruption => self.sdc += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Total runs tallied.
    pub fn total(&self) -> usize {
        self.masked + self.detected + self.hang + self.sdc + self.failed
    }

    /// Fraction of runs that were masked (0 when no runs were tallied).
    pub fn masked_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.masked as f64 / self.total() as f64
        }
    }

    /// Fault coverage: fraction of runs that were masked *or* detected —
    /// i.e. not a silent failure mode.
    pub fn coverage(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.masked + self.detected) as f64 / self.total() as f64
        }
    }
}

/// How the stuck-at fault space is explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StuckAtSpace {
    /// Both polarities on every gate output.
    Exhaustive,
    /// A seeded random sample of the given size.
    Sampled(usize),
    /// No stuck-at faults (SEU-only campaign).
    None,
}

/// Campaign parameters. All sampling is seeded, so a config fully
/// determines the campaign. Every campaign runs on the bitsliced engine
/// ([`crate::bitsim`], 63 faults plus the golden lane per `u64` word); a
/// word that is declined, fails validation or panics reruns fault by
/// fault on the scalar engine, so results are byte-identical to an
/// all-scalar [`ScalarOnly`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Hard cycle cap for any single run. Faulty runs are additionally
    /// capped at `4 × golden cycles + 8` ([`faulty_budget`]) so a wedged
    /// design is declared a hang quickly.
    pub cycle_budget: u64,
    /// Stuck-at exploration strategy.
    pub stuck_at: StuckAtSpace,
    /// Monte-Carlo SEU samples (uniform over sequential gates × golden
    /// cycles).
    pub seu_samples: usize,
    /// Seed for all sampled fault selection.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cycle_budget: 10_000,
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 0,
            seed: 0xFA17,
        }
    }
}

/// One classified fault run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRun {
    /// The injected fault.
    pub fault: Fault,
    /// Library cell of the faulted gate, for per-class statistics.
    pub cell: CellKind,
    /// Classification against the golden run.
    pub outcome: Outcome,
}

/// Result of a full fault-injection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Name of the netlist under test.
    pub design: String,
    /// Gate count of the netlist under test.
    pub gate_count: usize,
    /// The fault-free reference observation.
    pub golden: Observation,
    /// Every classified fault run, in deterministic enumeration order:
    /// one per fault slot.
    pub runs: Vec<FaultRun>,
    /// Fault classes the campaign simulated (see [`FaultClasses`]); each
    /// class's verdict fills all of its slots in `runs`.
    pub classes: usize,
}

impl CampaignResult {
    /// Outcome tallies over runs selected by `pred`.
    fn counts_where(&self, pred: impl Fn(&FaultRun) -> bool) -> OutcomeCounts {
        let mut counts = OutcomeCounts::default();
        for run in self.runs.iter().filter(|r| pred(r)) {
            counts.add(run.outcome);
        }
        counts
    }

    /// Outcome tallies over all runs.
    pub fn counts(&self) -> OutcomeCounts {
        self.counts_where(|_| true)
    }

    /// Outcome tallies over the stuck-at runs only.
    pub fn stuck_counts(&self) -> OutcomeCounts {
        self.counts_where(|r| !matches!(r.fault.kind, FaultKind::Seu { .. }))
    }

    /// Outcome tallies over the SEU runs only.
    pub fn seu_counts(&self) -> OutcomeCounts {
        self.counts_where(|r| matches!(r.fault.kind, FaultKind::Seu { .. }))
    }

    /// Per-cell-class vulnerability: outcome tallies keyed by library
    /// cell. The paper's DFF-heavy cells dominate both device count and
    /// fault impact, which this makes measurable.
    pub fn by_cell_class(&self) -> BTreeMap<CellKind, OutcomeCounts> {
        let mut classes: BTreeMap<CellKind, OutcomeCounts> = BTreeMap::new();
        for run in &self.runs {
            classes.entry(run.cell).or_default().add(run.outcome);
        }
        classes
    }

    /// Per-gate stuck-at tallies: `(masked, total)` indexed like
    /// `Netlist::gates`. Gates the campaign never faulted have `total`
    /// zero.
    pub fn stuck_by_gate(&self) -> Vec<(usize, usize)> {
        let mut per_gate = vec![(0usize, 0usize); self.gate_count];
        for run in &self.runs {
            if matches!(run.fault.kind, FaultKind::Seu { .. }) {
                continue;
            }
            let slot = &mut per_gate[run.fault.gate.index()];
            slot.1 += 1;
            if run.outcome == Outcome::Masked {
                slot.0 += 1;
            }
        }
        per_gate
    }

    /// Deterministic CSV dump: one line per fault run, in enumeration
    /// order. A fixed seed yields byte-identical output across runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("design,gate,cell,fault,outcome\n");
        for run in &self.runs {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                self.design,
                run.fault.gate.index(),
                run.cell,
                run.fault.kind,
                run.outcome
            ));
        }
        out
    }
}

/// Why a campaign could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The fault-free run did not complete within the cycle budget, so
    /// there is no golden reference to classify against.
    GoldenIncomplete {
        /// Cycles the golden run consumed before giving up.
        cycles: u64,
    },
    /// The fault-free run reported an error detection — the workload or
    /// the detect port is miswired.
    GoldenDetected,
    /// The fault-free simulation failed outright.
    Sim(NetlistError),
    /// The scalar engine's golden run differs from the word engine's, so
    /// the engines cannot both classify the campaign's faults.
    GoldenMismatch,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::GoldenIncomplete { cycles } => {
                write!(f, "golden run did not complete within {cycles} cycles")
            }
            CampaignError::GoldenDetected => {
                f.write_str("golden run fired the error-detection output")
            }
            CampaignError::Sim(e) => write!(f, "golden simulation failed: {e}"),
            CampaignError::GoldenMismatch => {
                f.write_str("the scalar and bitsliced engines disagree on the golden run")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<NetlistError> for CampaignError {
    fn from(e: NetlistError) -> Self {
        CampaignError::Sim(e)
    }
}

/// Classification precedence: a golden-identical signature is masked even
/// if the detect port also fired (TMR corrected *and* reported); an
/// incomplete run is a hang; anything else that completed with a
/// different signature is silent data corruption.
pub(crate) fn classify(golden: &Observation, observed: &Observation) -> Outcome {
    if observed.completed && observed.signature == golden.signature {
        Outcome::Masked
    } else if observed.detected {
        Outcome::Detected
    } else if !observed.completed {
        Outcome::Hang
    } else {
        Outcome::SilentDataCorruption
    }
}

/// Runs the workload on a clone of the pristine simulator, with `fault`
/// injected if given. Cloning shares the pristine simulator's fanout and
/// levelization maps, so the per-fault setup cost is a few memcpys
/// instead of a connectivity rebuild.
pub(crate) fn observe<W: Workload + ?Sized>(
    pristine: &Simulator<'_>,
    workload: &W,
    fault: Option<Fault>,
    cycle_budget: u64,
) -> Result<Observation, NetlistError> {
    let mut sim = pristine.clone();
    if let Some(fault) = fault {
        sim.inject(FaultMap::single(pristine.netlist(), fault));
    }
    workload.run(sim, cycle_budget)
}

/// Runs up to 63 faults as one bitsliced word on a clone of `proto` (a
/// compiled [`BitSimulator`]) under the campaign's `cycle_budget`:
/// injects each fault into its lane, lane 0 left fault-free, and returns
/// every occupied lane's outcome, lane 0 first. `None` when the workload
/// has no bitsliced path, fails, or reports the wrong number of lanes.
/// A word the workload runs with no fault lane counts in
/// `netlist.fault.golden_words`.
fn run_lanes<W: Workload + ?Sized>(
    proto: &BitSimulator<'_>,
    workload: &W,
    faults: &[Fault],
    cycle_budget: u64,
) -> Option<Vec<LaneOutcome>> {
    debug_assert!(faults.len() < BitSimulator::LANES);
    let mut sim = proto.clone();
    for &fault in faults {
        sim.inject_fault(fault);
    }
    let outcomes = workload.run_bitsliced(sim, cycle_budget)?;
    if faults.is_empty() {
        printed_obs::incr("netlist.fault.golden_words");
    }
    let outcomes = outcomes.ok()?;
    (outcomes.len() == faults.len() + 1).then_some(outcomes)
}

/// Runs up to 63 faults as one bitsliced word ([`run_lanes`]) and
/// validates it: the fault-free lane 0 must reproduce the campaign's
/// golden observation byte-for-byte. Returns one outcome per fault, or
/// `None` when the word declines or fails that check; callers then fall
/// back to one scalar run per fault.
pub(crate) fn run_word<W: Workload + ?Sized>(
    proto: &BitSimulator<'_>,
    workload: &W,
    golden: &Observation,
    faults: &[Fault],
    cycle_budget: u64,
) -> Option<Vec<LaneOutcome>> {
    let mut outcomes = run_lanes(proto, workload, faults, cycle_budget)?;
    match outcomes.first() {
        Some(LaneOutcome::Done(observed)) if observed == golden => {}
        _ => return None,
    }
    outcomes.remove(0);
    Some(outcomes)
}

/// Average lane utilization (occupied lanes / 64 per word, golden lane
/// included) of a bitsliced campaign packing `classes` fault classes
/// ([`CampaignResult::classes`]) into contiguous 63-lane words — the
/// figure the campaign summary reports so underfilled words on small
/// campaigns are visible rather than silently slow. 0.0 for an empty
/// campaign.
pub fn lane_utilization(classes: usize) -> f64 {
    if classes == 0 {
        return 0.0;
    }
    let words = classes.div_ceil(BitSimulator::LANES - 1);
    (classes + words) as f64 / (words * BitSimulator::LANES) as f64
}

/// Checks a fault-free observation before it becomes a campaign's
/// golden reference: it must complete within the budget and must not
/// fire the detect port.
fn validate_golden(golden: Observation) -> Result<Observation, CampaignError> {
    if !golden.completed {
        return Err(CampaignError::GoldenIncomplete { cycles: golden.cycles });
    }
    if golden.detected {
        return Err(CampaignError::GoldenDetected);
    }
    Ok(golden)
}

/// Runs and validates the fault-free reference on the scalar engine,
/// counted in `netlist.fault.golden_scalar`.
pub(crate) fn campaign_golden<W: Workload + ?Sized>(
    pristine: &Simulator<'_>,
    workload: &W,
    cycle_budget: u64,
) -> Result<Observation, CampaignError> {
    printed_obs::incr("netlist.fault.golden_scalar");
    validate_golden(observe(pristine, workload, None, cycle_budget)?)
}

/// A campaign's golden observation and the two engines that classify
/// faults against it: the compiled word prototype every bitsliced word
/// clones, and the scalar simulator, built only when a word declines,
/// panics or fails its lane-0 check.
///
/// The golden run is lane 0 of the campaign's first word, which carries
/// the campaign's first fault classes in its other lanes. The scalar
/// engine stays the reference: before its first use it reruns the
/// golden on its own, and a campaign whose engines disagree stops with
/// [`CampaignError::GoldenMismatch`] rather than classify faults against
/// two goldens. Debug builds check the two goldens equal on every
/// campaign.
pub(crate) struct Reference<'a> {
    /// The compiled bitsliced prototype, lane 0 alone occupied.
    pub(crate) proto: BitSimulator<'a>,
    /// The validated fault-free observation.
    pub(crate) golden: Observation,
    /// The campaign's cycle budget, which the golden ran under.
    cycle_budget: u64,
    /// The scalar simulator once built, or `None` inside when its golden
    /// run disagrees with [`Reference::golden`].
    scalar: OnceLock<Option<Simulator<'a>>>,
}

impl<'a> Reference<'a> {
    /// Compiles the word prototype and runs the first word: lane 0
    /// fault-free, `first` (at most 63 faults, none of which may depend
    /// on the golden) in lanes 1 and up. Lane 0 becomes the golden, and the
    /// fault lanes' outcomes come back beside it, one per fault of
    /// `first`, run under [`faulty_budget`] of that golden as every later
    /// word's are.
    ///
    /// A first word that declines, errors, panics or wedges lane 0 is
    /// retried as a golden-only word, and its faults come back as `None`
    /// for the campaign to run later. A workload without a word path
    /// ([`ScalarOnly`] among them), or a golden-only word that fails
    /// too, falls back to the scalar golden run, which then reports its
    /// own errors.
    ///
    /// # Errors
    ///
    /// Returns a [`CampaignError`] if the golden run fails, does not
    /// complete, or fires the detect port.
    pub(crate) fn new<W: Workload + ?Sized>(
        netlist: &'a Netlist,
        workload: &W,
        cycle_budget: u64,
        first: &[Fault],
    ) -> Result<(Self, Option<Vec<LaneOutcome>>), CampaignError> {
        let proto = {
            let _span = printed_obs::span!("netlist.fault.setup");
            BitSimulator::new(netlist)
        };
        let _span = printed_obs::span!("netlist.fault.golden");
        let word = |faults: &[Fault]| {
            retry_panics(0, |_, _| {}, |_| run_lanes(&proto, workload, faults, cycle_budget))
                .ok()
                .and_then(|(lanes, _)| lanes)
                .filter(|lanes| matches!(lanes.first(), Some(LaneOutcome::Done(_))))
        };
        let mut lanes = word(first).map(|lanes| (lanes, true));
        if lanes.is_none() && !first.is_empty() {
            lanes = word(&[]).map(|lanes| (lanes, false));
        }
        let scalar = OnceLock::new();
        let (golden, faulted) = match lanes {
            Some((mut lanes, carried)) => {
                let LaneOutcome::Done(golden) = lanes.remove(0) else {
                    unreachable!("the word's lane 0 is done")
                };
                debug_assert_eq!(
                    observe(&Simulator::new(netlist), workload, None, cycle_budget).ok().as_ref(),
                    Some(&golden),
                    "{}: the word engine's golden run differs from the scalar engine's",
                    netlist.name()
                );
                (validate_golden(golden)?, carried.then_some(lanes))
            }
            None => {
                let pristine = Simulator::new(netlist);
                let golden = campaign_golden(&pristine, workload, cycle_budget)?;
                let _ = scalar.set(Some(pristine));
                (golden, None)
            }
        };
        Ok((Reference { proto, golden, cycle_budget, scalar }, faulted))
    }

    /// The scalar simulator, built on first use. Its first use reruns the
    /// golden on the scalar engine and returns `None`, then and after,
    /// when that run differs from [`Reference::golden`].
    pub(crate) fn scalar<W: Workload + ?Sized>(&self, workload: &W) -> Option<&Simulator<'a>> {
        self.scalar
            .get_or_init(|| {
                let pristine = Simulator::new(self.proto.netlist());
                campaign_golden(&pristine, workload, self.cycle_budget)
                    .is_ok_and(|golden| golden == self.golden)
                    .then_some(pristine)
            })
            .as_ref()
    }
}

/// Enumerates the campaign's fault list in the fixed deterministic order
/// the scheduler (and every checkpoint resume) relies on: the configured
/// stuck-at space first ([`stuck_at_faults`]), then the seeded SEU
/// samples ([`push_seu_faults`]). Depends only on
/// `(netlist, config, golden_cycles)`.
pub(crate) fn enumerate_faults(
    netlist: &Netlist,
    config: &CampaignConfig,
    golden_cycles: u64,
) -> Vec<Fault> {
    let mut faults = stuck_at_faults(netlist, config);
    push_seu_faults(netlist, config, golden_cycles, &mut faults);
    faults
}

/// The stuck-at prefix of a campaign's fault list: the configured space,
/// drawn from its own seeded stream, so it needs no golden run.
pub(crate) fn stuck_at_faults(netlist: &Netlist, config: &CampaignConfig) -> Vec<Fault> {
    let mut faults: Vec<Fault> = Vec::new();
    match config.stuck_at {
        StuckAtSpace::Exhaustive => {
            for gi in 0..netlist.gate_count() as u32 {
                faults.push(Fault { gate: GateId(gi), kind: FaultKind::StuckAt0 });
                faults.push(Fault { gate: GateId(gi), kind: FaultKind::StuckAt1 });
            }
        }
        StuckAtSpace::Sampled(samples) => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x57AC_4A70);
            for _ in 0..samples {
                let gi = rng.gen_range(0..netlist.gate_count()) as u32;
                let kind =
                    if rng.gen_bool(0.5) { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
                faults.push(Fault { gate: GateId(gi), kind });
            }
        }
        StuckAtSpace::None => {}
    }
    faults
}

/// Appends a campaign's seeded SEU samples, uniform over sequential
/// gates × the golden run's `golden_cycles`, to its stuck-at prefix.
pub(crate) fn push_seu_faults(
    netlist: &Netlist,
    config: &CampaignConfig,
    golden_cycles: u64,
    faults: &mut Vec<Fault>,
) {
    let sequential: Vec<u32> = (0..netlist.gate_count() as u32)
        .filter(|&gi| netlist.gates()[gi as usize].is_sequential())
        .collect();
    if config.seu_samples > 0 && !sequential.is_empty() && golden_cycles > 0 {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5E11_BEEF);
        for _ in 0..config.seu_samples {
            let gi = sequential[rng.gen_range(0..sequential.len())];
            let cycle = rng.gen_range(0..golden_cycles);
            faults.push(Fault { gate: GateId(gi), kind: FaultKind::Seu { cycle } });
        }
    }
}

/// A campaign's fault slots grouped into classes whose members are
/// bound to share one outcome, so the campaign simulates one
/// representative per class and copies its verdict to the rest.
///
/// Two slots share a class when either rule holds:
/// - **Identical faults**: the same gate and kind, SEU cycle included.
///   Sampled spaces draw with replacement, so duplicates are common.
/// - **Equivalent stuck-at faults**: a combinational gate `g` whose
///   output net is no output port and has exactly one reader pin, on a
///   combinational gate `h`. A stuck-at on `g` then forces `h`'s output
///   just as a stuck-at on `h` does: INV gives `g/0 ≡ h/1` and
///   `g/1 ≡ h/0`, NAND2 `g/0 ≡ h/1`, AND2 `g/0 ≡ h/0`, NOR2
///   `g/1 ≡ h/0` and OR2 `g/1 ≡ h/1`. Chains of such pairs are merged
///   by union-find. Sequential cells take no part, because their
///   stuck-at forcing applies only from the first clock edge's publish.
///
/// Both rules rest on [`Workload`]s seeing the circuit only through its
/// ports: equivalent faults differ only on `g`'s own net, which no port
/// and no other gate reads.
///
/// Each class's representative is its first member in fault order.
#[derive(Debug, Clone)]
pub struct FaultClasses {
    /// Representative slot of each class, ascending.
    representatives: Vec<usize>,
    /// Offsets into `members`, one more than there are classes.
    offsets: Vec<usize>,
    /// Member slots grouped by class, ascending within a class, so the
    /// representative comes first.
    members: Vec<usize>,
}

/// The stuck-at sites of a netlist, `2 * gate + forced value`, merged by
/// [`FaultClasses`]' equivalence rule in a union-find: the part of the
/// grouping that depends on the netlist alone, built once per campaign
/// for both the first word's classes and the full class list.
pub(crate) struct StuckSites {
    parent: Vec<u32>,
}

impl StuckSites {
    /// Merges the equivalent stuck-at sites of `netlist`, whose
    /// connectivity `fanout` indexes.
    pub(crate) fn new(netlist: &Netlist, fanout: &FanoutMap) -> StuckSites {
        let gates = netlist.gates();
        let mut sites = StuckSites { parent: (0..2 * gates.len() as u32).collect() };
        let mut port_net = vec![false; netlist.net_count()];
        for net in netlist.output_ports().values().flatten() {
            port_net[net.index()] = true;
        }
        for (g, gate) in gates.iter().enumerate() {
            if gate.is_sequential() || port_net[gate.output.index()] {
                continue;
            }
            let &[h] = fanout.readers(gate.output) else { continue };
            // `(g's stuck value, h's stuck value)` pairs that force h's
            // output alike.
            let pairs: &[(u32, u32)] = match gates[h as usize].kind {
                CellKind::Inv => &[(0, 1), (1, 0)],
                CellKind::Nand2 => &[(0, 1)],
                CellKind::And2 => &[(0, 0)],
                CellKind::Nor2 => &[(1, 0)],
                CellKind::Or2 => &[(1, 1)],
                _ => &[],
            };
            for &(gv, hv) in pairs {
                let a = sites.root(2 * g as u32 + gv);
                let b = sites.root(2 * h + hv);
                sites.parent[a as usize] = b;
            }
        }
        sites
    }

    /// The representative site of `site`'s merged set.
    fn root(&mut self, mut site: u32) -> u32 {
        let parent = &mut self.parent;
        while parent[site as usize] != site {
            let up = parent[parent[site as usize] as usize];
            parent[site as usize] = up;
            site = up;
        }
        site
    }
}

impl FaultClasses {
    /// Groups the slots of `faults`, enumerated on `netlist` whose
    /// connectivity `fanout` indexes.
    pub fn new(netlist: &Netlist, fanout: &FanoutMap, faults: &[Fault]) -> FaultClasses {
        FaultClasses::of_sites(&mut StuckSites::new(netlist, fanout), faults)
    }

    /// Groups the slots of `faults` over the merged stuck-at `sites` of
    /// their netlist.
    pub(crate) fn of_sites(sites: &mut StuckSites, faults: &[Fault]) -> FaultClasses {
        // Number the classes in order of their first member.
        let mut class_of_site = vec![u32::MAX; sites.parent.len()];
        let mut class_of_seu: HashMap<(u32, u64), u32> = HashMap::new();
        let mut representatives = Vec::new();
        let class_of_slot: Vec<u32> = faults
            .iter()
            .enumerate()
            .map(|(slot, fault)| {
                let class = match fault.kind {
                    FaultKind::StuckAt0 | FaultKind::StuckAt1 => {
                        let forced = u32::from(fault.kind == FaultKind::StuckAt1);
                        let site = sites.root(2 * fault.gate.0 + forced);
                        &mut class_of_site[site as usize]
                    }
                    FaultKind::Seu { cycle } => {
                        class_of_seu.entry((fault.gate.0, cycle)).or_insert(u32::MAX)
                    }
                };
                if *class == u32::MAX {
                    *class = representatives.len() as u32;
                    representatives.push(slot);
                }
                *class
            })
            .collect();
        // Counting sort of the slots by class keeps each class ascending.
        let mut offsets = vec![0usize; representatives.len() + 1];
        for &class in &class_of_slot {
            offsets[class as usize + 1] += 1;
        }
        for c in 0..representatives.len() {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0usize; faults.len()];
        for (slot, &class) in class_of_slot.iter().enumerate() {
            members[cursor[class as usize]] = slot;
            cursor[class as usize] += 1;
        }
        FaultClasses { representatives, offsets, members }
    }

    /// Number of classes: the runs a campaign simulates.
    pub fn len(&self) -> usize {
        self.representatives.len()
    }

    /// Whether there are no classes (an empty fault list).
    pub fn is_empty(&self) -> bool {
        self.representatives.is_empty()
    }

    /// The representative slot of each class, ascending.
    pub fn representatives(&self) -> &[usize] {
        &self.representatives
    }

    /// The slots of class `class`, ascending, its representative first.
    pub fn members(&self, class: usize) -> &[usize] {
        &self.members[self.offsets[class]..self.offsets[class + 1]]
    }
}

/// Classifies a single fault against the workload's golden run: the
/// one-fault case of [`classify_faults`].
///
/// # Errors
///
/// Returns the [`CampaignError`] [`run_campaign`] would: the fault-free
/// run fails, does not complete, or fires the detect port.
pub fn classify_fault<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    fault: Fault,
    cycle_budget: u64,
) -> Result<Outcome, CampaignError> {
    Ok(classify_faults(netlist, workload, &[fault], cycle_budget)?[0])
}

/// Classifies each of `faults` on its own against the workload's golden
/// run, one outcome per fault in order, on the scalar engine: one golden
/// run for all of them, then one faulty run per fault under the
/// [`faulty_budget`] of that golden. This is the per-fault oracle the
/// campaign scheduler is tested against.
///
/// # Errors
///
/// Returns the [`CampaignError`] [`run_campaign`] would: the fault-free
/// run fails, does not complete, or fires the detect port.
pub fn classify_faults<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    faults: &[Fault],
    cycle_budget: u64,
) -> Result<Vec<Outcome>, CampaignError> {
    let pristine = Simulator::new(netlist);
    let golden = campaign_golden(&pristine, workload, cycle_budget)?;
    let budget = faulty_budget(cycle_budget, golden.cycles);
    Ok(faults
        .iter()
        .map(|&fault| match observe(&pristine, workload, Some(fault), budget) {
            Ok(observed) => classify(&golden, &observed),
            // A fault that breaks simulation outright (oscillation)
            // wedges the circuit: a hang.
            Err(_) => Outcome::Hang,
        })
        .collect())
}

/// Worker-thread count for fault campaigns, read from the
/// `PRINTED_SIM_THREADS` environment variable: the workspace's one
/// reader of it. Unset, empty, or unparsable values — and explicit `0` —
/// mean 1 (sequential).
pub fn campaign_threads() -> usize {
    std::env::var("PRINTED_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

/// The cycle budget of a faulty run: the campaign's `cycle_budget`,
/// tightened to `4 × golden_cycles + 8` so hangs are declared quickly.
/// The one statement of the rule: the scalar fallback passes it to
/// [`Workload::run`], and a bitsliced word stops each faulty lane at it,
/// with `golden_cycles` the cycle its lane 0 ended on. Never below
/// `golden_cycles` when the golden fits the budget.
pub fn faulty_budget(cycle_budget: u64, golden_cycles: u64) -> u64 {
    cycle_budget.min(golden_cycles.saturating_mul(4).saturating_add(8))
}

/// Runs a full single-fault campaign on `threads` workers: the
/// configured stuck-at space plus seeded Monte-Carlo SEU sampling over
/// sequential state, each run classified against the fault-free golden
/// run. The result is byte-identical for every thread count.
///
/// The campaign runs on the one scheduler,
/// [`crate::resilience::run_supervised_campaign`], with no checkpoint and
/// no cancel flag: the cycle budget is the only bound on a run, and
/// panics are isolated. A workload that panics on a fault is retried
/// twice and then recorded as [`Outcome::Failed`] in that fault's slot;
/// the panic does not unwind into the caller.
///
/// # Errors
///
/// Returns a [`CampaignError`] if the fault-free run fails, does not
/// complete, or fires the detect port.
pub fn run_campaign<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    config: &CampaignConfig,
    threads: usize,
) -> Result<CampaignResult, CampaignError> {
    match run_supervised_campaign(netlist, workload, config, None, threads, None) {
        Ok(SupervisedRun::Complete(done)) => Ok(done.result),
        Ok(SupervisedRun::Aborted { .. }) => unreachable!("no cancel flag"),
        Err(JobError::Campaign(e)) => Err(e),
        Err(e) => unreachable!("without a checkpoint only the golden run can fail: {e}"),
    }
}

/// Bridges a campaign to the PDK yield model: per-gate
/// `(device count, masked fraction)` pairs for
/// [`printed_pdk::yield_model::functional_yield`].
///
/// Gates the campaign sampled use their measured stuck-at masked
/// fraction; unsampled gates fall back to their cell class's average,
/// then to the campaign-wide average, then to zero (fail-pessimistic).
pub fn yield_sites(
    netlist: &Netlist,
    technology: Technology,
    result: &CampaignResult,
) -> Vec<(usize, f64)> {
    let per_gate = result.stuck_by_gate();
    let mut class_masked: BTreeMap<CellKind, (usize, usize)> = BTreeMap::new();
    let mut global = (0usize, 0usize);
    for (gi, &(masked, total)) in per_gate.iter().enumerate() {
        let entry = class_masked.entry(netlist.gates()[gi].kind).or_default();
        entry.0 += masked;
        entry.1 += total;
        global.0 += masked;
        global.1 += total;
    }
    let fraction = |masked: usize, total: usize| -> Option<f64> {
        (total > 0).then(|| masked as f64 / total as f64)
    };
    let global_fraction = fraction(global.0, global.1).unwrap_or(0.0);
    netlist
        .gates()
        .iter()
        .enumerate()
        .map(|(gi, gate)| {
            let devices = yield_model::cell_devices(gate.kind, technology).total();
            let (masked, total) = per_gate[gi];
            let m = fraction(masked, total)
                .or_else(|| class_masked.get(&gate.kind).and_then(|&(cm, ct)| fraction(cm, ct)))
                .unwrap_or(global_fraction);
            (devices, m)
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::words;

    /// A toggle flip-flop: q' = !q, q exported.
    fn divider() -> Netlist {
        let mut b = NetlistBuilder::new("divider");
        let q = b.forward_net();
        let d = b.inv(q);
        b.dff_into(d, q);
        b.output("q", vec![q]);
        b.finish().unwrap()
    }

    /// A 4-bit registered accumulator: acc' = acc + in.
    fn accumulator() -> Netlist {
        let mut b = NetlistBuilder::new("acc4");
        let inputs = b.input("in", 4);
        let acc = b.forward_bus(4);
        let cin = b.const0();
        let sum = words::ripple_adder(&mut b, &acc, &inputs, cin);
        for (d, q) in sum.sum.iter().zip(&acc) {
            b.dff_into(*d, *q);
        }
        b.output("acc", acc);
        b.finish().unwrap()
    }

    #[test]
    fn stuck_at_forces_combinational_output() {
        let mut b = NetlistBuilder::new("inv");
        let a = b.input_bit("a");
        let y = b.inv(a);
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();

        let mut sim = Simulator::new(&nl);
        sim.inject(FaultMap::single(&nl, Fault { gate: GateId(0), kind: FaultKind::StuckAt0 }));
        sim.set_input("a", 0).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("y").unwrap(), 0, "inverter output forced low");
        sim.clear_faults();
        sim.settle().unwrap();
        assert_eq!(sim.read_output("y").unwrap(), 1);
    }

    #[test]
    fn stuck_at_forces_flipflop_output() {
        let nl = divider();
        let dff = nl.gates().iter().position(|g| g.is_sequential()).unwrap();
        let mut sim = Simulator::new(&nl);
        sim.inject(FaultMap::single(
            &nl,
            Fault { gate: GateId(dff as u32), kind: FaultKind::StuckAt1 },
        ));
        for _ in 0..4 {
            sim.step().unwrap();
            assert_eq!(sim.read_output("q").unwrap(), 1, "Q pinned high, no toggling");
        }
    }

    #[test]
    fn seu_flips_state_on_its_cycle_only() {
        let nl = divider();
        let dff = nl.gates().iter().position(|g| g.is_sequential()).unwrap();
        // Fault-free: q = 1,0,1,0,...; flipping the DFF at cycle 2
        // inverts the phase from that edge on.
        let mut sim = Simulator::new(&nl);
        sim.inject(FaultMap::single(
            &nl,
            Fault { gate: GateId(dff as u32), kind: FaultKind::Seu { cycle: 2 } },
        ));
        let mut seen = Vec::new();
        for _ in 0..6 {
            sim.step().unwrap();
            seen.push(sim.read_output("q").unwrap());
        }
        assert_eq!(seen, vec![1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn campaign_classifies_and_covers_the_space() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 12, seed: 7 };
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 8,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&nl, &workload, &config, 1).unwrap();
        assert_eq!(result.runs.len(), 2 * nl.gate_count() + 8);
        let counts = result.counts();
        assert_eq!(counts.total(), result.runs.len());
        // A stuck-at on a carry gate of the top bit must corrupt data;
        // a PatternWorkload never hangs, so everything else is masked
        // or (without a detect port) sdc.
        assert!(counts.sdc > 0, "some faults must corrupt the accumulator");
        assert_eq!(counts.hang, 0);
        assert_eq!(counts.detected, 0);
        // Per-class stats tile the whole campaign.
        let by_class: usize = result.by_cell_class().values().map(OutcomeCounts::total).sum();
        assert_eq!(by_class, counts.total());
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 3 };
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(24),
            seu_samples: 6,
            seed: 99,
            ..CampaignConfig::default()
        };
        let a = run_campaign(&nl, &workload, &config, 1).unwrap();
        let b = run_campaign(&nl, &workload, &config, 1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_csv(), b.to_csv(), "byte-identical CSV per seed");
        let other =
            run_campaign(&nl, &workload, &CampaignConfig { seed: 100, ..config }, 1).unwrap();
        assert_ne!(
            a.runs.iter().map(|r| r.fault).collect::<Vec<_>>(),
            other.runs.iter().map(|r| r.fault).collect::<Vec<_>>(),
            "different seeds sample different faults"
        );
    }

    #[test]
    fn parallel_campaign_matches_sequential_exactly() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 6,
            ..CampaignConfig::default()
        };
        let sequential = run_campaign(&nl, &workload, &config, 1).unwrap();
        for threads in [2, 8] {
            let parallel = run_campaign(&nl, &workload, &config, threads).unwrap();
            assert_eq!(sequential, parallel, "{threads} workers");
            assert_eq!(
                sequential.to_csv(),
                parallel.to_csv(),
                "CSV must be byte-identical at {threads} workers"
            );
        }
    }

    #[test]
    fn yield_sites_interpolate_masking() {
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 12, seed: 7 };
        let result = run_campaign(&nl, &workload, &CampaignConfig::default(), 1).unwrap();
        let sites = yield_sites(&nl, Technology::Egfet, &result);
        assert_eq!(sites.len(), nl.gate_count());
        for &(devices, masked) in &sites {
            assert!(devices > 0);
            assert!((0.0..=1.0).contains(&masked));
        }
        // Functional yield must beat the naive model whenever any site
        // masks faults.
        let devices: usize = sites.iter().map(|s| s.0).sum();
        let naive = yield_model::circuit_yield(devices, 0.999);
        let functional = yield_model::functional_yield(sites.iter().copied(), 0.999);
        assert!(result.counts().masked > 0, "accumulator campaign masks some faults");
        assert!(functional > naive);
    }

    #[test]
    fn golden_must_complete() {
        /// A golden run that never completes, or one that completes but
        /// fires the detect port, as a miswired port would.
        struct Broken {
            completes: bool,
        }
        impl Workload for Broken {
            fn run(
                &self,
                _sim: Simulator<'_>,
                cycle_budget: u64,
            ) -> Result<Observation, NetlistError> {
                Ok(Observation {
                    signature: Vec::new(),
                    completed: self.completes,
                    cycles: cycle_budget,
                    detected: self.completes,
                })
            }
        }
        let nl = divider();
        let config = CampaignConfig::default();
        let fault = Fault { gate: GateId(0), kind: FaultKind::StuckAt0 };
        for (completes, expected) in [
            (false, CampaignError::GoldenIncomplete { cycles: config.cycle_budget }),
            (true, CampaignError::GoldenDetected),
        ] {
            let workload = Broken { completes };
            assert_eq!(run_campaign(&nl, &workload, &config, 1).unwrap_err(), expected);
            // The per-fault oracle rejects the golden run alike.
            let single = classify_fault(&nl, &workload, fault, config.cycle_budget);
            assert_eq!(single, Err(expected));
        }
    }

    #[test]
    fn classify_fault_matches_campaign() {
        // The per-fault classify_fault loop is the independent reference
        // for the campaign scheduler: both engines, 1 and 4 workers, with
        // and without a checkpoint, stuck-at and SEU faults alike.
        let nl = accumulator();
        let workload = PatternWorkload { cycles: 10, seed: 5 };
        let scalar = ScalarOnly(&workload);
        let engines: [(&str, &dyn Workload); 2] = [("scalar", &scalar), ("bitsliced", &workload)];
        let dir = std::env::temp_dir().join(format!("printed-ckpt-oracle-{}", std::process::id()));
        let config = CampaignConfig { seu_samples: 12, ..CampaignConfig::default() };
        for (engine, campaign_workload) in engines {
            for threads in [1, 4] {
                for checkpoint_dir in [None, Some(dir.as_path())] {
                    let run = run_supervised_campaign(
                        &nl,
                        campaign_workload,
                        &config,
                        checkpoint_dir,
                        threads,
                        None,
                    )
                    .unwrap();
                    let SupervisedRun::Complete(done) = run else { panic!("no cancel flag") };
                    let result = done.result;
                    assert_eq!(result.seu_counts().total(), 12);
                    for run in &result.runs {
                        let single =
                            classify_fault(&nl, &workload, run.fault, config.cycle_budget).unwrap();
                        assert_eq!(
                            single, run.outcome,
                            "{} ({engine} engine, {threads} workers)",
                            run.fault
                        );
                    }
                    // The list form classifies every slot against one
                    // golden run, alike.
                    let faults: Vec<Fault> = result.runs.iter().map(|r| r.fault).collect();
                    let outcomes: Vec<Outcome> = result.runs.iter().map(|r| r.outcome).collect();
                    let listed = classify_faults(&nl, &workload, &faults, config.cycle_budget);
                    assert_eq!(listed.unwrap(), outcomes, "{engine} engine, {threads} workers");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_equivalence_rule_merges_exactly_its_pairs() {
        // `g` (gate 0) feeds one pin of `h` (gate 1) and nothing else;
        // `h` drives the output port. Stuck-at slot `2 * gate + value` of
        // an exhaustive campaign, so g/v is slot v and h/v slot 2 + v.
        let rules: [(CellKind, &[(usize, usize)]); 5] = [
            (CellKind::Inv, &[(0, 1), (1, 0)]),
            (CellKind::Nand2, &[(0, 1)]),
            (CellKind::And2, &[(0, 0)]),
            (CellKind::Nor2, &[(1, 0)]),
            (CellKind::Or2, &[(1, 1)]),
        ];
        let config = CampaignConfig {
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 0,
            ..CampaignConfig::default()
        };
        let workload = PatternWorkload { cycles: 16, seed: 3 };
        for (kind, pairs) in rules {
            let mut b = NetlistBuilder::new("rule");
            let (a, c, d) = (b.input_bit("a"), b.input_bit("c"), b.input_bit("d"));
            let g = b.xor2(a, c);
            let h = if kind == CellKind::Inv { b.inv(g) } else { b.gate(kind, [g, d]) };
            b.output("y", vec![h]);
            let nl = b.finish().unwrap();

            let faults = enumerate_faults(&nl, &config, 0);
            assert_eq!(faults.len(), 4);
            let classes = FaultClasses::new(&nl, &FanoutMap::build(&nl), &faults);
            let class_of =
                |slot: usize| (0..classes.len()).find(|&c| classes.members(c).contains(&slot));
            for x in 0..4 {
                for y in x + 1..4 {
                    let merged = pairs.iter().any(|&(gv, hv)| (x, y) == (gv, 2 + hv));
                    assert_eq!(class_of(x) == class_of(y), merged, "{kind}: slots {x} and {y}");
                }
            }
            assert_eq!(classes.len(), 4 - pairs.len(), "{kind}");

            // Merged slots observe alike, and every slot's campaign verdict
            // is the one the per-fault oracle gives it.
            let pristine = Simulator::new(&nl);
            for &(gv, hv) in pairs {
                let seen = |slot: usize| observe(&pristine, &workload, Some(faults[slot]), 100);
                assert_eq!(seen(gv).unwrap(), seen(2 + hv).unwrap(), "{kind}: g/{gv} vs h/{hv}");
            }
            let result = run_campaign(&nl, &workload, &config, 1).unwrap();
            for run in &result.runs {
                let single = classify_fault(&nl, &workload, run.fault, config.cycle_budget);
                assert_eq!(single.unwrap(), run.outcome, "{kind}: {}", run.fault);
            }
        }
    }
}
