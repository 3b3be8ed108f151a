//! Design-rule checking (DRC / lint) for printed gate-level netlists.
//!
//! A [`Netlist`] is structurally valid by construction (single driver,
//! acyclic — see [`Netlist::validate`]), but structural validity says
//! nothing about whether the design is *printable and sane*: a NAND
//! driving twelve loads works in the simulator and dies on foil, an SR
//! latch with both pins tied high is a contention short, and a resetless
//! DFF powers up in an unknown state. This module checks those rules.
//!
//! The checks are parameterized by the target [`CellLibrary`], because the
//! technologies genuinely differ: EGFET's transistor–resistor stages drive
//! about half the fanout of pseudo-CMOS CNT-TFT cells
//! ([`CellLibrary::max_fanout`]), so the same netlist can be clean in
//! CNT-TFT and flagged in EGFET.
//!
//! ```
//! use printed_netlist::{lint, NetlistBuilder};
//! use printed_pdk::Technology;
//!
//! let mut b = NetlistBuilder::new("demo");
//! let a = b.input_bit("a");
//! let one = b.const1();
//! let x = b.and2(a, one); // constant input: the optimizer would fold this
//! b.output("y", vec![x]);
//! let nl = b.finish()?;
//!
//! let report = lint::lint(&nl, Technology::Egfet.library());
//! assert!(!report.has_errors());
//! assert_eq!(report.count(lint::Severity::Warn), 1);
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::dataflow::{self, DataflowFacts};
use crate::ir::{FanoutMap, Gate, GateId, NetId, Netlist};
use crate::opt::{self, Fold};
use printed_obs::json::escape;
use printed_pdk::{CellKind, CellLibrary, Technology};
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

/// How bad a finding is.
///
/// Variants are ordered most-severe-first so that sorting diagnostics
/// ascending puts errors at the top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A defect: the netlist will not work as printed hardware.
    Error,
    /// Suspicious or wasteful, but functional.
    Warn,
    /// Informational.
    Info,
}

impl Severity {
    fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The design rules the linter checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// A cell output drives more loads than the PDK drive model allows.
    FanoutExceedsDrive,
    /// A gate's output reaches no primary output (dead logic).
    DeadLogic,
    /// A resetless sequential cell's power-up X is observable.
    UnresettableState,
    /// A resetless sequential cell that provably can never be
    /// initialized: no reset and no input sequence brings its power-up X
    /// to a known value (see [`crate::dataflow::DataflowFacts::trapped_state`]).
    XTrappedState,
    /// A gate the constant folder would remove or strength-reduce.
    ConstFoldableGate,
    /// A live gate whose output the dataflow engine proves constant — it
    /// can never toggle under any stimulus, yet the syntactic folder
    /// cannot see it (typically a sequential constant).
    NeverToggles,
    /// An inverter driven by another inverter (redundant pair).
    RedundantInverterPair,
    /// An SR latch whose S and R pins contend.
    LatchContention,
    /// Tri-state drivers on one bus with non-exclusive enables.
    TristateContention,
    /// A primary output pinned to a net already at its fanout budget.
    OutputPortLoad,
}

impl Rule {
    /// Every rule, in documentation order.
    pub const ALL: [Rule; 10] = [
        Rule::FanoutExceedsDrive,
        Rule::DeadLogic,
        Rule::UnresettableState,
        Rule::XTrappedState,
        Rule::ConstFoldableGate,
        Rule::NeverToggles,
        Rule::RedundantInverterPair,
        Rule::LatchContention,
        Rule::TristateContention,
        Rule::OutputPortLoad,
    ];

    /// Stable kebab-case identifier (used in text and JSON output).
    pub fn name(self) -> &'static str {
        match self {
            Rule::FanoutExceedsDrive => "fanout-exceeds-drive",
            Rule::DeadLogic => "dead-logic",
            Rule::UnresettableState => "unresettable-state",
            Rule::XTrappedState => "x-trapped-state",
            Rule::ConstFoldableGate => "const-foldable-gate",
            Rule::NeverToggles => "never-toggles",
            Rule::RedundantInverterPair => "redundant-inverter-pair",
            Rule::LatchContention => "latch-contention",
            Rule::TristateContention => "tristate-contention",
            Rule::OutputPortLoad => "output-port-load",
        }
    }

    /// Severity the rule reports at.
    ///
    /// Contention rules are errors — the printed circuit shorts — and so
    /// is provably uninitializable state: the part of the design behind
    /// it never leaves its power-up lottery. The rest are warnings: the
    /// design works, but wastes area, power, or margin.
    pub fn default_severity(self) -> Severity {
        match self {
            Rule::LatchContention | Rule::TristateContention | Rule::XTrappedState => {
                Severity::Error
            }
            _ => Severity::Warn,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a diagnostic points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Locus {
    /// A gate instance.
    Gate(GateId),
    /// A net.
    Net(NetId),
}

impl fmt::Display for Locus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locus::Gate(g) => write!(f, "g{}", g.index()),
            Locus::Net(n) => write!(f, "{n}"),
        }
    }
}

/// One lint finding.
///
/// A finding keeps what its rule saw as data; [`Diagnostic::message`]
/// formats it only when something reads it, so a caller that only counts
/// findings or checks for errors never renders a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: Rule,
    /// The rule's [`Rule::default_severity`].
    pub severity: Severity,
    /// The gate or net the finding anchors to.
    pub locus: Locus,
    finding: Finding,
}

impl Diagnostic {
    /// Human-readable explanation.
    pub fn message(&self) -> String {
        self.finding.to_string()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] @{}: {}", self.severity, self.rule, self.locus, self.finding)
    }
}

/// What a rule saw at one locus: cell kinds, nets and counts, with a
/// port name only for the port-anchored findings.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Finding {
    Fanout { kind: CellKind, output: NetId, load: usize, budget: usize, technology: Technology },
    InputFanout { port: String, bit: usize, load: usize, budget: usize },
    Dead { kind: CellKind, output: NetId },
    Unresettable { kind: CellKind, output: NetId },
    Trapped { kind: CellKind, output: NetId },
    Foldable { kind: CellKind, output: NetId },
    Constant { kind: CellKind, output: NetId, value: bool },
    InverterPair { output: NetId, input: NetId },
    LatchTiedHigh { output: NetId },
    LatchAliased { output: NetId, net: NetId },
    TristateShared { a: NetId, b: NetId, merge: NetId, enable: NetId },
    TristateTiedHigh { a: NetId, b: NetId, merge: NetId },
    PortLoad { port: String, bit: usize, net: NetId, internal: usize, budget: usize },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Fanout { kind, output, load, budget, technology } => {
                write!(
                    f,
                    "{kind} output {output} drives {load} loads; {technology} allows {budget}"
                )
            }
            Finding::InputFanout { port, bit, load, budget } => write!(
                f,
                "input {port}[{bit}] drives {load} loads; \
                 buffered external drivers allow {budget}"
            ),
            Finding::Dead { kind, output } => {
                write!(f, "{kind} output {output} reaches no primary output")
            }
            Finding::Unresettable { kind, output } => write!(
                f,
                "{kind} {output} has no reset; its power-up X is proved observable — \
                 initialize architecturally or use DFFNRX1"
            ),
            Finding::Trapped { kind, output } => write!(
                f,
                "{kind} {output} can never be initialized: no reset or input \
                 sequence clears its power-up X (proved by dataflow \
                 analysis) — add a reset or a load path"
            ),
            Finding::Foldable { kind, output } => write!(
                f,
                "{kind} output {output} has constant input(s); the optimizer would fold it"
            ),
            Finding::Constant { kind, output, value } => write!(
                f,
                "{kind} output {output} is proved constant {} — it can never \
                 toggle; optimize_with_facts would remove it",
                *value as u8
            ),
            Finding::InverterPair { output, input } => {
                write!(f, "INVX1 output {output} inverts INVX1 output {input} — the pair is a wire")
            }
            Finding::LatchTiedHigh { output } => {
                write!(f, "LATCHX1 output {output}: S and R are both tied to constant 1")
            }
            Finding::LatchAliased { output, net } => write!(
                f,
                "LATCHX1 output {output}: S and R are the same net {net}; any 1 asserts both"
            ),
            Finding::TristateShared { a, b, merge, enable } => {
                write!(f, "TSBUFX1 outputs {a} and {b} merge at {merge} and share enable {enable}")
            }
            Finding::TristateTiedHigh { a, b, merge } => write!(
                f,
                "TSBUFX1 outputs {a} and {b} merge at {merge} and are both enabled by constant 1"
            ),
            Finding::PortLoad { port, bit, net, internal, budget } => write!(
                f,
                "output {port}[{bit}] pins net {net} already driving \
                 {internal} internal loads (budget {budget}); \
                 add a buffer before the port"
            ),
        }
    }
}

/// The result of linting one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Design name (from [`Netlist::name`]).
    pub design: String,
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of findings at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings produced by one rule.
    pub fn by_rule(&self, rule: Rule) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Renders the report as human-readable text, one finding per line.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "lint {}: {} error(s), {} warning(s), {} info\n",
            self.design,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        out
    }

    /// Renders the report as JSON:
    ///
    /// ```json
    /// {"design":"...","summary":{"error":0,"warn":2,"info":0},
    ///  "diagnostics":[{"rule":"dead-logic","severity":"warn",
    ///                  "locus":{"gate":3},"message":"..."}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"design\":{},", escape(&self.design)));
        out.push_str(&format!(
            "\"summary\":{{\"error\":{},\"warn\":{},\"info\":{}}},",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        ));
        out.push_str("\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let locus = match d.locus {
                Locus::Gate(g) => format!("{{\"gate\":{}}}", g.index()),
                Locus::Net(n) => format!("{{\"net\":{}}}", n.index()),
            };
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"severity\":\"{}\",\"locus\":{},\"message\":{}}}",
                d.rule,
                d.severity,
                locus,
                escape(&d.message()),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Shared per-netlist facts the rules draw on.
///
/// Every fact is computed exactly once per lint run: liveness, proved
/// constants, X-reachability, trapped state and the shared [`FanoutMap`]
/// all come from one [`dataflow`] fixpoint run — [`lint`] runs it,
/// [`lint_with_facts`] borrows a caller's. No rule rebuilds structural
/// facts privately.
struct Facts<'a> {
    /// Dataflow-analysis facts: liveness, proved constants,
    /// X-reachability, trapped (uninitializable) state, and the
    /// per-net driver/reader index the event-driven simulator
    /// schedules from.
    dataflow: &'a DataflowFacts,
    /// Per net, the constant the syntactic folder knows it holds: the
    /// constant rails and every gate output [`crate::opt`]'s `fold` rule
    /// decides. Sequential outputs are never known.
    known: Vec<Option<bool>>,
    /// Per gate, whether `fold` removes or strength-reduces it, so
    /// whether [`crate::opt::optimize`] does (same indexing as `gates`).
    foldable: Vec<bool>,
}

impl<'a> Facts<'a> {
    fn compute(netlist: &Netlist, dataflow: &'a DataflowFacts) -> Facts<'a> {
        // Constant propagation over the combinational gates in evaluation
        // order, by the optimizer's own fold rule. Sequential outputs stay
        // unknown: even a DFF with constant D is not a constant net (its
        // first cycle holds the reset value). This intentionally stays
        // syntactic — `const-foldable-gate` reports what
        // [`crate::opt::optimize`] would actually do, while the dataflow
        // facts prove the stronger (sequential) constants reported by
        // `never-toggles`.
        let mut known = vec![None; netlist.net_count()];
        if let Some(c0) = netlist.const0() {
            known[c0.index()] = Some(false);
        }
        if let Some(c1) = netlist.const1() {
            known[c1.index()] = Some(true);
        }
        let mut foldable = vec![false; netlist.gate_count()];
        for (gid, gate) in netlist.topo_order() {
            // Cells have at most two pins.
            let mut pins = [None; 2];
            for (slot, n) in pins.iter_mut().zip(&gate.inputs) {
                *slot = known[n.index()];
            }
            let verdict = opt::fold(gate.kind, &pins);
            known[gate.output.index()] = match verdict {
                Fold::Const(v) => Some(v),
                Fold::Pin(i) => pins[i],
                Fold::NotPin(i) => pins[i].map(|v| !v),
                Fold::Keep => None,
            };
            foldable[gid.index()] = verdict != Fold::Keep;
        }

        Facts { dataflow, known, foldable }
    }

    /// The shared connectivity index the dataflow facts ran on.
    fn fanout(&self) -> &FanoutMap {
        self.dataflow.fanout()
    }

    /// Whether the net transitively reaches a primary output.
    fn live(&self, net: NetId) -> bool {
        self.dataflow.is_live(net)
    }
}

/// Lints a netlist against a technology's cell library.
///
/// Runs every rule at its [`Rule::default_severity`] and returns the
/// findings sorted most-severe-first. See the module docs for the rule
/// catalogue.
///
/// Runs a fresh [`dataflow::analyze`]; when a caller already holds the
/// design's [`DataflowFacts`] (for STA or a report), use
/// [`lint_with_facts`] so the fixpoint is not run twice.
pub fn lint(netlist: &Netlist, lib: &CellLibrary) -> LintReport {
    lint_with_facts(netlist, lib, &dataflow::analyze(netlist))
}

/// The design-rule gate for callers that keep a netlist only if it has
/// no errors and otherwise read nothing of the report: only the rules
/// whose [`Rule::default_severity`] is [`Severity::Error`] run, over one
/// dataflow fixpoint. When one fires, every rule runs over the same
/// facts, so the `Err` report is exactly what [`lint`] returns.
///
/// # Errors
///
/// Returns the full report if any error fires.
pub fn check_errors(netlist: &Netlist, lib: &CellLibrary) -> Result<(), LintReport> {
    let facts = dataflow::analyze(netlist);
    let errors_only = |rule: Rule| rule.default_severity() == Severity::Error;
    if run_rules(netlist, lib, &facts, errors_only).has_errors() {
        return Err(lint_with_facts(netlist, lib, &facts));
    }
    Ok(())
}

/// [`lint`] over a caller's dataflow facts: the analysis-backed rules
/// read `facts` and the structural rules read the [`FanoutMap`] they
/// carry; nothing is recomputed. `facts` must come from `netlist`.
pub fn lint_with_facts(netlist: &Netlist, lib: &CellLibrary, facts: &DataflowFacts) -> LintReport {
    run_rules(netlist, lib, facts, |_| true)
}

/// Runs the rules `selected` keeps, each at its default severity; the
/// others' checks never run.
fn run_rules(
    netlist: &Netlist,
    lib: &CellLibrary,
    facts: &DataflowFacts,
    selected: impl Fn(Rule) -> bool,
) -> LintReport {
    let facts = Facts::compute(netlist, facts);
    let mut diagnostics = Vec::new();
    for rule in Rule::ALL.into_iter().filter(|&rule| selected(rule)) {
        let severity = rule.default_severity();
        let mut emit = |locus: Locus, finding: Finding| {
            diagnostics.push(Diagnostic { rule, severity, locus, finding });
        };
        match rule {
            Rule::FanoutExceedsDrive => check_fanout(netlist, lib, &facts, &mut emit),
            Rule::DeadLogic => check_dead_logic(netlist, &facts, &mut emit),
            Rule::UnresettableState => check_unresettable_state(netlist, &facts, &mut emit),
            Rule::XTrappedState => check_x_trapped_state(netlist, &facts, &mut emit),
            Rule::ConstFoldableGate => check_const_foldable(netlist, &facts, &mut emit),
            Rule::NeverToggles => check_never_toggles(netlist, &facts, &mut emit),
            Rule::RedundantInverterPair => check_redundant_inverters(netlist, &facts, &mut emit),
            Rule::LatchContention => check_latch_contention(netlist, &facts, &mut emit),
            Rule::TristateContention => check_tristate_contention(netlist, &facts, &mut emit),
            Rule::OutputPortLoad => check_output_port_load(netlist, lib, &facts, &mut emit),
        }
    }

    diagnostics.sort_by_key(|d| (d.severity, d.rule, d.locus));
    LintReport { design: netlist.name().to_string(), diagnostics }
}

/// Rule 1: every cell output must stay within the PDK's fanout budget.
/// Constant nets are exempt — tie cells are replicated per load at
/// place-and-route, so a heavily shared const net costs area, not drive.
fn check_fanout(
    netlist: &Netlist,
    lib: &CellLibrary,
    facts: &Facts,
    emit: &mut impl FnMut(Locus, Finding),
) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        let load = facts.fanout().load_count(gate.output);
        let budget = lib.max_fanout(gate.kind);
        if load > budget {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::Fanout {
                    kind: gate.kind,
                    output: gate.output,
                    load,
                    budget,
                    technology: lib.technology(),
                },
            );
        }
    }
    let budget = lib.max_input_fanout();
    for (name, nets) in netlist.input_ports() {
        for (bit, net) in nets.iter().enumerate() {
            let load = facts.fanout().load_count(*net);
            if load > budget {
                emit(
                    Locus::Net(*net),
                    Finding::InputFanout { port: name.clone(), bit, load, budget },
                );
            }
        }
    }
}

/// Rule 2: gates whose outputs reach no primary output are dead weight —
/// printed area and static power with no observable effect.
fn check_dead_logic(netlist: &Netlist, facts: &Facts, emit: &mut impl FnMut(Locus, Finding)) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        if !facts.live(gate.output) {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::Dead { kind: gate.kind, output: gate.output },
            );
        }
    }
}

/// Rule 3: DFF (no reset pin) and SR latches power up in an unknown state.
/// If that state is observable, the circuit's post-reset behaviour is
/// undefined until software initializes it — flag each such cell. The
/// fire condition is now a proved fact, not a structural guess: the
/// dataflow engine shows the cell's power-up X actually reaches a live
/// net (for a live resetless cell the two coincide, so the rule fires
/// exactly where it always did).
fn check_unresettable_state(
    netlist: &Netlist,
    facts: &Facts,
    emit: &mut impl FnMut(Locus, Finding),
) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        let resetless = matches!(gate.kind, CellKind::Dff | CellKind::Latch);
        if resetless && facts.live(gate.output) && facts.dataflow.x_reachable(gate.output) {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::Unresettable { kind: gate.kind, output: gate.output },
            );
        }
    }
}

/// Rule 3b (error): a resetless sequential cell the dataflow engine
/// proves *uninitializable* — no reset and no input sequence ever brings
/// its power-up X to a known value, so everything behind it is decided
/// by a per-unit power-up lottery forever. Strictly stronger than
/// `unresettable-state` (which covers transient, flushable X).
fn check_x_trapped_state(netlist: &Netlist, facts: &Facts, emit: &mut impl FnMut(Locus, Finding)) {
    for &gid in facts.dataflow.trapped_state() {
        let gate = &netlist.gates()[gid.index()];
        if facts.live(gate.output) {
            emit(Locus::Gate(gid), Finding::Trapped { kind: gate.kind, output: gate.output });
        }
    }
}

/// Rule 4: gates the constant folder ([`crate::opt::optimize`]) would
/// remove or strength-reduce. Verdicts come from the folder's own rule,
/// so an optimized netlist never triggers this rule.
fn check_const_foldable(netlist: &Netlist, facts: &Facts, emit: &mut impl FnMut(Locus, Finding)) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        if facts.foldable[i] {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::Foldable { kind: gate.kind, output: gate.output },
            );
        }
    }
}

/// Rule 4b: a live gate whose output the dataflow fixpoint proves
/// constant — it never toggles under any input sequence or power-up
/// state, yet the syntactic folder keeps it (typically a sequential
/// constant: a DFFNR whose feedback can never leave the reset value).
/// Skips gates `const-foldable-gate` already flags, so the two rules
/// partition "provably constant" into "the optimizer fixes this today"
/// and "only [`crate::opt::optimize_with_facts`] can remove this".
fn check_never_toggles(netlist: &Netlist, facts: &Facts, emit: &mut impl FnMut(Locus, Finding)) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        if facts.foldable[i] || !facts.live(gate.output) {
            continue;
        }
        if let Some(value) = facts.dataflow.proved_constant(gate.output) {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::Constant { kind: gate.kind, output: gate.output, value },
            );
        }
    }
}

/// Rule 5: an inverter fed by another inverter is a wire plus two cells of
/// area and delay. Flags the outer inverter of each pair.
fn check_redundant_inverters(
    netlist: &Netlist,
    facts: &Facts,
    emit: &mut impl FnMut(Locus, Finding),
) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.kind != CellKind::Inv {
            continue;
        }
        let Some(driver) = facts.fanout().driver(gate.inputs[0]) else { continue };
        if netlist.gates()[driver.index()].kind == CellKind::Inv {
            emit(
                Locus::Gate(GateId(i as u32)),
                Finding::InverterPair { output: gate.output, input: gate.inputs[0] },
            );
        }
    }
}

/// Rule 6: an SR latch with both pins provably asserted is a printed
/// short: both internal stages fight and the output is metastable. Fires
/// when constant propagation proves S = R = 1, and (as a warning-level
/// variant in the message) when S and R are literally the same net.
fn check_latch_contention(netlist: &Netlist, facts: &Facts, emit: &mut impl FnMut(Locus, Finding)) {
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.kind != CellKind::Latch {
            continue;
        }
        let (s, r) = (gate.inputs[0], gate.inputs[1]);
        let output = gate.output;
        let finding =
            if facts.known[s.index()] == Some(true) && facts.known[r.index()] == Some(true) {
                Finding::LatchTiedHigh { output }
            } else if s == r {
                Finding::LatchAliased { output, net: s }
            } else {
                continue;
            };
        emit(Locus::Gate(GateId(i as u32)), finding);
    }
}

/// Rule 7: tri-state buffers merging onto one node must have mutually
/// exclusive enables. With the IR's single-driver discipline a shared bus
/// is modeled by TSBUF outputs converging on a merge gate; two drivers in
/// such a group contend if they share an enable net or both enables are
/// provably 1.
fn check_tristate_contention(
    netlist: &Netlist,
    facts: &Facts,
    emit: &mut impl FnMut(Locus, Finding),
) {
    let tsbuf_driver = |net: NetId| -> Option<&Gate> {
        let gate = &netlist.gates()[facts.fanout().driver(net)?.index()];
        (gate.kind == CellKind::TsBuf).then_some(gate)
    };
    for (i, merge) in netlist.gates().iter().enumerate() {
        let drivers: Vec<&Gate> = merge.inputs.iter().filter_map(|&n| tsbuf_driver(n)).collect();
        if drivers.len() < 2 {
            continue;
        }
        for (a_idx, a) in drivers.iter().enumerate() {
            for b in &drivers[a_idx + 1..] {
                let (en_a, en_b) = (a.inputs[1], b.inputs[1]);
                let (a, b, merge) = (a.output, b.output, merge.output);
                let finding = if en_a == en_b {
                    Finding::TristateShared { a, b, merge, enable: en_a }
                } else if facts.known[en_a.index()] == Some(true)
                    && facts.known[en_b.index()] == Some(true)
                {
                    Finding::TristateTiedHigh { a, b, merge }
                } else {
                    continue;
                };
                emit(Locus::Gate(GateId(i as u32)), finding);
            }
        }
    }
}

/// Rule 8: exporting a net that is already at its driver's fanout budget
/// adds the external pin load on top — the output edge degrades off-chip.
fn check_output_port_load(
    netlist: &Netlist,
    lib: &CellLibrary,
    facts: &Facts,
    emit: &mut impl FnMut(Locus, Finding),
) {
    let is_const = |net: NetId| netlist.const0() == Some(net) || netlist.const1() == Some(net);
    let mut flagged: BTreeSet<NetId> = BTreeSet::new();
    for (name, nets) in netlist.output_ports() {
        for (bit, &net) in nets.iter().enumerate() {
            if is_const(net) || flagged.contains(&net) {
                continue;
            }
            let budget = match facts.fanout().driver(net) {
                Some(g) => lib.max_fanout(netlist.gates()[g.index()].kind),
                None => lib.max_input_fanout(), // input port feed-through
            };
            let internal = facts.fanout().load_count(net);
            if internal + 1 > budget {
                flagged.insert(net);
                emit(
                    Locus::Net(net),
                    Finding::PortLoad { port: name.clone(), bit, net, internal, budget },
                );
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use printed_pdk::Technology;
    use std::sync::Arc;

    fn egfet() -> &'static CellLibrary {
        Technology::Egfet.library()
    }

    fn run(netlist: &Netlist) -> LintReport {
        lint(netlist, egfet())
    }

    #[test]
    fn clean_netlist_is_clean() {
        let mut b = NetlistBuilder::new("clean");
        let a = b.input_bit("a");
        let c = b.input_bit("b");
        let y = b.nand2(a, c);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn fanout_rule_respects_the_drive_model() {
        // One INVX1 driving 6 loads: over EGFET's budget of 4, within
        // CNT-TFT's budget of 8 — the PDK parameterization must matter.
        let mut b = NetlistBuilder::new("fanout");
        let a = b.input_bit("a");
        let hub = b.inv(a);
        let sinks: Vec<_> = (0..6).map(|_| b.inv(hub)).collect();
        b.output("y", sinks);
        let nl = b.finish().unwrap();

        let egfet_report = run(&nl);
        assert_eq!(egfet_report.by_rule(Rule::FanoutExceedsDrive).count(), 1);
        assert!(!egfet_report.has_errors(), "fanout is a warning");

        let cnt_report = lint(&nl, Technology::CntTft.library());
        assert_eq!(cnt_report.by_rule(Rule::FanoutExceedsDrive).count(), 0);
    }

    #[test]
    fn fanout_rule_checks_input_ports_but_not_constants() {
        let mut b = NetlistBuilder::new("in_fanout");
        let a = b.input_bit("a");
        let zero = b.const0();
        // 9 loads on the input (budget 8) and 9 on const0 (exempt).
        let from_a: Vec<_> = (0..9).map(|_| b.inv(a)).collect();
        let from_zero: Vec<_> = (0..9).map(|_| b.or2(zero, a)).collect();
        b.output("ya", from_a);
        b.output("yz", from_zero);
        let report = run(&b.finish().unwrap());
        let findings: Vec<_> = report.by_rule(Rule::FanoutExceedsDrive).collect();
        assert_eq!(findings.len(), 1, "{}", report.render_text());
        assert!(findings[0].message().contains("input a[0]"));
    }

    #[test]
    fn dead_logic_rule_finds_unobservable_gates() {
        let mut b = NetlistBuilder::new("dead");
        let a = b.input_bit("a");
        let used = b.inv(a);
        let _dead = b.xor2(a, used);
        b.output("y", vec![used]);
        let report = run(&b.finish().unwrap());
        let findings: Vec<_> = report.by_rule(Rule::DeadLogic).collect();
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message().contains("XOR2X1"));
    }

    #[test]
    fn unresettable_state_rule_flags_live_resetless_dffs() {
        let mut b = NetlistBuilder::new("xprop");
        let a = b.input_bit("a");
        let q_bad = b.dff(a); // resetless, observable
        let q_ok = b.dff_nr(a); // has reset
        let y = b.and2(q_bad, q_ok);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::UnresettableState).count(), 1);

        // A dead resetless DFF is dead logic, not an X-propagation hazard.
        let mut b = NetlistBuilder::new("xdead");
        let a = b.input_bit("a");
        let _unused = b.dff(a);
        let y = b.inv(a);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::UnresettableState).count(), 0);
        assert_eq!(report.by_rule(Rule::DeadLogic).count(), 1);
    }

    #[test]
    fn const_foldable_rule_mirrors_the_optimizer() {
        let mut b = NetlistBuilder::new("fold");
        let a = b.input_bit("a");
        let one = b.const1();
        let x = b.and2(a, one); // foldable to a wire
        let y = b.xor2(x, one); // foldable to INV — and transitively const-fed
        b.output("y", vec![y]);
        let nl = b.finish().unwrap();
        let report = run(&nl);
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 2);

        // After optimization the rule must be silent.
        let report = run(&crate::opt::optimize(&nl));
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 0);
    }

    #[test]
    fn tsbuf_with_constant_data_is_not_foldable() {
        // The folder keeps a TSBUF whose data (not enable) is constant;
        // the rule must agree.
        let mut b = NetlistBuilder::new("tsdata");
        let en = b.input_bit("en");
        let one = b.const1();
        let y = b.tsbuf(one, en);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 0);

        let mut b = NetlistBuilder::new("tsen");
        let a = b.input_bit("a");
        let one = b.const1();
        let y = b.tsbuf(a, one);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 1);
    }

    #[test]
    fn redundant_inverter_rule_flags_the_outer_inverter() {
        let mut b = NetlistBuilder::new("invinv");
        let a = b.input_bit("a");
        let n1 = b.inv(a);
        let n2 = b.inv(n1);
        b.output("y", vec![n2]);
        let report = run(&b.finish().unwrap());
        let findings: Vec<_> = report.by_rule(Rule::RedundantInverterPair).collect();
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].locus, Locus::Gate(GateId(1)));
    }

    #[test]
    fn latch_contention_from_constants_is_an_error() {
        let mut b = NetlistBuilder::new("sr_short");
        let one = b.const1();
        let q = b.latch(one, one);
        b.output("q", vec![q]);
        let report = run(&b.finish().unwrap());
        assert!(report.has_errors());
        assert_eq!(report.by_rule(Rule::LatchContention).count(), 1);

        // Same net on S and R is also contention (whenever it is 1).
        let mut b = NetlistBuilder::new("sr_alias");
        let a = b.input_bit("a");
        let q = b.latch(a, a);
        b.output("q", vec![q]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::LatchContention).count(), 1);

        // A properly complemented latch is fine.
        let mut b = NetlistBuilder::new("sr_ok");
        let a = b.input_bit("a");
        let an = b.inv(a);
        let q = b.latch(a, an);
        b.output("q", vec![q]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::LatchContention).count(), 0);
    }

    #[test]
    fn tristate_contention_flags_non_exclusive_enables() {
        // Two TSBUFs merged onto one node, sharing an enable: both drive
        // whenever en is high.
        let mut b = NetlistBuilder::new("bus_short");
        let d0 = b.input_bit("d0");
        let d1 = b.input_bit("d1");
        let en = b.input_bit("en");
        let t0 = b.tsbuf(d0, en);
        let t1 = b.tsbuf(d1, en);
        let bus = b.or2(t0, t1);
        b.output("bus", vec![bus]);
        let report = run(&b.finish().unwrap());
        assert!(report.has_errors());
        assert_eq!(report.by_rule(Rule::TristateContention).count(), 1);

        // Complementary enables are exclusive: clean.
        let mut b = NetlistBuilder::new("bus_ok");
        let d0 = b.input_bit("d0");
        let d1 = b.input_bit("d1");
        let en = b.input_bit("en");
        let en_n = b.inv(en);
        let t0 = b.tsbuf(d0, en);
        let t1 = b.tsbuf(d1, en_n);
        let bus = b.or2(t0, t1);
        b.output("bus", vec![bus]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::TristateContention).count(), 0);
    }

    #[test]
    fn output_port_load_rule_flags_saturated_nets() {
        // A NAND at exactly its EGFET budget (4 loads) also exported as an
        // output: the pin is the fifth load.
        let mut b = NetlistBuilder::new("port_load");
        let a = b.input_bit("a");
        let c = b.input_bit("b");
        let hub = b.nand2(a, c);
        let sinks: Vec<_> = (0..4).map(|_| b.inv(hub)).collect();
        b.output("y", sinks);
        b.output("hub", vec![hub]);
        let nl = b.finish().unwrap();
        let report = run(&nl);
        assert_eq!(report.by_rule(Rule::OutputPortLoad).count(), 1);
        // No plain fanout violation: 4 internal loads is within budget.
        assert_eq!(report.by_rule(Rule::FanoutExceedsDrive).count(), 0);
    }

    #[test]
    fn report_sorts_errors_first_and_renders() {
        let mut b = NetlistBuilder::new("mixed");
        let a = b.input_bit("a");
        let one = b.const1();
        let q = b.latch(one, one); // error
        let x = b.and2(a, one); // warning
        let y = b.and2(q, x);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert!(report.diagnostics.len() >= 2);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);

        let text = report.render_text();
        assert!(text.contains("lint mixed:"));
        assert!(text.contains("error[latch-contention]"));
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let mut b = NetlistBuilder::new("json \"quoted\"");
        let a = b.input_bit("a");
        let one = b.const1();
        let x = b.and2(a, one);
        b.output("y", vec![x]);
        let report = run(&b.finish().unwrap());
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"design\":\"json \\\"quoted\\\"\""));
        assert!(json.contains("\"summary\":{\"error\":0,\"warn\":1,\"info\":0}"));
        assert!(json.contains("\"rule\":\"const-foldable-gate\""));
        assert!(json.contains("\"locus\":{\"gate\":0}"));
        // Balanced braces/brackets outside strings — cheap well-formedness.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn x_trapped_state_rule_is_an_error_on_uninitializable_bits() {
        // q' = !q: unknown at power-up, unknown forever.
        let mut b = NetlistBuilder::new("trapped");
        let q = b.forward_net();
        let d = b.inv(q);
        b.dff_into(d, q);
        b.output("y", vec![q]);
        let report = run(&b.finish().unwrap());
        assert!(report.has_errors());
        assert_eq!(report.by_rule(Rule::XTrappedState).count(), 1);
        // The transient-X warning fires alongside: trapped is stronger.
        assert_eq!(report.by_rule(Rule::UnresettableState).count(), 1);

        // A pipeline register flushes on the first clock: warned, never
        // an error.
        let mut b = NetlistBuilder::new("flushable");
        let a = b.input_bit("a");
        let q = b.dff(a);
        b.output("y", vec![q]);
        let report = run(&b.finish().unwrap());
        assert!(!report.has_errors());
        assert_eq!(report.by_rule(Rule::XTrappedState).count(), 0);
        assert_eq!(report.by_rule(Rule::UnresettableState).count(), 1);
    }

    #[test]
    fn never_toggles_rule_finds_sequential_constants() {
        // DFFNR with D = q AND a: resets to 0, provably never leaves it.
        // The syntactic folder cannot see this (no constant input), so
        // `never-toggles` — not `const-foldable-gate` — must fire.
        let mut b = NetlistBuilder::new("seq_const");
        let a = b.input_bit("a");
        let q = b.forward_net();
        let d = b.and2(q, a);
        b.dff_nr_into(d, q);
        let y = b.or2(q, a);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        // The AND (constant 0), the DFFNR (constant 0); the OR folds to
        // `a` only under dataflow facts, so it is also never-toggles-free
        // but not constant. Exactly the two constant gates fire.
        assert_eq!(report.by_rule(Rule::NeverToggles).count(), 2);
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 0);
        assert!(!report.has_errors());
    }

    #[test]
    fn never_toggles_defers_to_const_foldable() {
        // A syntactically foldable gate is flagged once, by the folder
        // rule — never double-reported.
        let mut b = NetlistBuilder::new("both");
        let a = b.input_bit("a");
        let zero = b.const0();
        let x = b.and2(a, zero);
        let y = b.or2(x, a);
        b.output("y", vec![y]);
        let report = run(&b.finish().unwrap());
        assert_eq!(report.by_rule(Rule::ConstFoldableGate).count(), 2);
        assert_eq!(report.by_rule(Rule::NeverToggles).count(), 0);
    }

    #[test]
    fn lint_with_facts_shares_one_fixpoint_and_matches_lint() {
        use crate::sim::Simulator;
        // Lint over a caller's dataflow facts reads the shared
        // Arc<FanoutMap> they carry, and must report exactly what a
        // standalone lint run reports.
        let mut b = NetlistBuilder::new("shared");
        let a = b.input_bit("a");
        let one = b.const1();
        let q = b.dff(a);
        let x = b.and2(q, one);
        let hub = b.inv(x);
        let sinks: Vec<_> = (0..6).map(|_| b.inv(hub)).collect();
        b.output("y", sinks);
        let nl = b.finish().unwrap();

        let sim = Simulator::new(&nl);
        let shared = sim.fanout_arc();
        let facts = crate::dataflow::analyze_with_fanout(&nl, Arc::clone(&shared));
        assert!(Arc::ptr_eq(facts.fanout(), &shared));
        let baseline = Arc::strong_count(&shared);
        let report = lint_with_facts(&nl, egfet(), &facts);
        assert_eq!(report, lint(&nl, egfet()));
        assert!(!report.is_clean(), "the design has findings to compare");
        // Linting borrowed the facts: no hidden long-lived copies of the
        // map were taken.
        assert_eq!(Arc::strong_count(&shared), baseline);
    }

    #[test]
    fn every_rule_has_a_distinct_stable_name() {
        let names: BTreeSet<_> = Rule::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), Rule::ALL.len());
        for rule in Rule::ALL {
            assert!(rule.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
