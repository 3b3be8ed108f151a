//! # printed-netlist
//!
//! Gate-level netlist infrastructure for printed microprocessors: the Rust
//! stand-in for the RTL + Synopsys Design Compiler flow of *Printed
//! Microprocessors* (ISCA 2020).
//!
//! The crate provides:
//!
//! - an IR of standard-cell instances over the printed cell libraries
//!   ([`ir`]),
//! - a validated builder with gate and feedback primitives ([`builder`]),
//! - word-level structural generators — adders, rotators, muxes, decoders,
//!   register banks ([`words`]),
//! - a functional gate-level simulator with toggle statistics ([`sim`]) —
//!   event-driven by default, with a full-sweep reference engine
//!   ([`sim::Engine`]),
//! - area / power / static-timing analysis producing Design-Compiler-style
//!   characterizations, including per-endpoint slack and top-K critical
//!   paths ([`analysis`]),
//! - a fixed-point dataflow engine proving power-up X-reachability,
//!   constants, and dead logic ([`dataflow`]),
//! - a constant-folding + dead-gate optimizer used by program-specific
//!   core generation ([`opt`]),
//! - a design-rule checker / linter parameterized by the target cell
//!   library ([`mod@lint`]),
//! - fault models and deterministic fault-injection campaigns — stuck-at
//!   and SEU — with masked/SDC/hang/detected classification ([`fault`]),
//! - a supervised campaign runner with checkpoint/resume, watchdog
//!   deadlines, and panic isolation ([`resilience`]),
//! - FNV-1a, the workspace's one content digest ([`hash`]), and
//! - a TMR hardening transform with majority voters and an error-detect
//!   output ([`builder::tmr`]).
//!
//! ```
//! use printed_netlist::{analysis, words, NetlistBuilder};
//! use printed_pdk::Technology;
//!
//! // A registered 8-bit adder, characterized in EGFET.
//! let mut b = NetlistBuilder::new("acc8");
//! let a = b.input("a", 8);
//! let c = b.input("b", 8);
//! let cin = b.const0();
//! let sum = words::ripple_adder(&mut b, &a, &c, cin);
//! let q = words::register(&mut b, &sum.sum, false);
//! b.output("acc", q);
//! let netlist = b.finish()?;
//!
//! let ch = analysis::characterize(&netlist, Technology::Egfet.library());
//! println!("{} gates, {:.2} Hz", ch.gate_count, ch.fmax.as_hertz());
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod bitsim;
pub mod builder;
pub mod dataflow;
pub mod fault;
pub mod hash;
pub mod ir;
pub mod lint;
pub mod opt;
pub mod profile;
pub mod resilience;
pub mod sim;
pub mod variation;
pub mod vcd;
pub mod words;

pub use analysis::{
    ActivityModel, AreaReport, Characterization, Endpoint, PathStep, PowerReport, StaReport,
    TimingPath, TimingReport,
};
pub use bitsim::BitSimulator;
pub use builder::{tmr, NetlistBuilder, TmrOptions, TMR_ERROR_PORT};
pub use dataflow::{analyze, analyze_with_fanout, AbsValue, DataflowFacts};
pub use fault::{
    bitsliced_enabled, campaign_threads, lane_utilization, run_campaign, run_campaign_with_threads,
    CampaignConfig, CampaignError, CampaignResult, Fault, FaultKind, FaultMap, LaneOutcome,
    Observation, Outcome, OutcomeCounts, PatternWorkload, StuckAtSpace, Workload,
};
pub use ir::{FanoutMap, Gate, GateId, NetId, Netlist, NetlistError, Pins, Region};
pub use lint::{lint, lint_with_facts, Diagnostic, LintConfig, LintReport, Rule, Severity};
pub use resilience::{
    atomic_replace, atomic_write, campaign_identity, read_checked, run_supervised_campaign,
    run_supervised_campaign_cancellable, run_supervised_campaign_with_threads, JobError,
    ResilienceConfig, ResilienceStats, SupervisedCampaign, SupervisedRun,
};
pub use sim::{ActivityStats, Engine, Simulator};
pub use variation::{FmaxDistribution, VariationError};
