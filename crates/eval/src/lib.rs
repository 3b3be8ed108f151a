//! # printed-eval
//!
//! The experiment engine of the reproduction: every table and figure of
//! *Printed Microprocessors* (ISCA 2020) is regenerated here from the
//! underlying models.
//!
//! - [`system`]: full TP-ISA systems (core + crosspoint ROM + SRAM) and
//!   benchmark-level measurement (Figure 8, Table 8),
//! - [`figures`]: the Figure 7 design-space sweep and the Figure 8
//!   benchmark matrix,
//! - [`design_space`]: the one design-major pass behind Figure 7, the
//!   lint summary and the static report,
//! - [`tables`]: Tables 1–8,
//! - [`lifetime`]: battery-lifetime curves (Figures 4 and 5),
//! - [`headline`]: the abstract's improvement ratios,
//! - [`robustness`]: fault-injection campaigns, functional yield, and
//!   TMR hardening cost across the design space,
//! - [`lockstep`]: ISS-vs-gate-level differential validation of every
//!   benchmark kernel, with the `printed-diff-summary/v1` artifact,
//! - [`report`]: text-table rendering,
//! - [`static_report`]: dataflow + lint + STA evidence over every
//!   design point, with the `printed-static-report/v1` JSON artifact,
//! - [`perf_report`]: observability spans per eval stage, the
//!   `perf_summary` artifact, and the `printed-profile/v1` hotspot +
//!   CPI attribution (see DESIGN.md "Observability"),
//! - [`regression`]: the `BENCH_history.jsonl` perf ledger's
//!   regression gate and its `printed-regression/v1` verdict,
//! - [`pipeline`]: supervised stage execution — panic isolation, one
//!   retry, and the `manifest.json` completeness record (see DESIGN.md
//!   "Resilience").

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnt;
pub mod design_space;
pub mod feasibility;
pub mod figures;
pub mod headline;
pub mod lifetime;
pub mod lockstep;
pub mod manufacturing;
pub mod perf_report;
pub mod pipeline;
pub mod regression;
pub mod report;
pub mod robustness;
pub mod static_report;
pub mod system;
pub mod tables;

pub use figures::{figure7, figure8, DesignPoint, Figure8Cell};
pub use pipeline::{render_manifest, Pipeline, StageRecord, StageStatus};
pub use robustness::{RobustnessOptions, RobustnessRow, TmrComparison};
pub use system::{BenchmarkResult, Breakdown, CoreFlavor, System};
