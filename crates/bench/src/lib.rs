//! # printed-bench
//!
//! Criterion benchmark harness: each bench target regenerates one of the
//! paper's tables or figures (printing it for the record) and measures
//! the regeneration cost. Run with `cargo bench`; see `benches/` for the
//! per-table/figure targets:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_processes` | Table 1 |
//! | `table2_cells` | Table 2 |
//! | `table3_apps` | Table 3 (+ feasibility) |
//! | `table4_baselines` | Table 4 |
//! | `table5_imem` | Table 5 |
//! | `table6_memory` | Table 6 |
//! | `table7_program_specific` | Table 7 |
//! | `table8_iterations` | Table 8 |
//! | `fig4_fig5_lifetime` | Figures 4 and 5 |
//! | `fig6_isa` | Figure 6 (encoding round-trip) |
//! | `fig7_design_space` | Figure 7 |
//! | `fig8_benchmarks` | Figure 8 |
//! | `headline_ratios` | §1/§9 headline numbers |
//! | `ablations` | design-choice ablations from DESIGN.md |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

/// The file `name` at the root of the repository the bench runs in.
/// The root is found through `CARGO_MANIFEST_DIR` read at run time, which
/// `cargo bench` sets to this crate's directory, so a copy of the
/// repository writes into its own tree even when it runs a bench binary
/// built in another copy.
///
/// # Panics
///
/// Panics if `CARGO_MANIFEST_DIR` is unset: the bench was not started by
/// cargo.
pub fn repo_file(name: &str) -> PathBuf {
    let crate_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|| panic!("CARGO_MANIFEST_DIR is unset; run the bench with cargo bench"));
    Path::new(&crate_dir).join("../..").join(name)
}

/// Appends one `printed-bench-record/v1` line to the perf-history ledger
/// (`BENCH_history.jsonl` at the repository root, or the path in
/// `PRINTED_BENCH_HISTORY`) and returns the run index it wrote.
///
/// `metrics` is the body of the record's `metrics` object, with keys as
/// `printed_eval::regression::GATED_METRICS` names them. The run index
/// is the ledger's current line count plus one — date-free and
/// monotonic, so records order without wall-clock trust. The record
/// carries HEAD's short hash as `git_rev` (`"unknown"` outside a
/// checkout: the bench must not fail because the sources were exported)
/// and `"dirty": true` when tracked files other than the benches' own
/// `BENCH_*` outputs differ from HEAD, so a row measured on an
/// uncommitted tree is never credited to its parent commit.
///
/// # Panics
///
/// Panics if the ledger cannot be appended to.
pub fn append_history(bench: &str, metrics: &str) -> u64 {
    use std::io::Write as _;
    let path = std::env::var("PRINTED_BENCH_HISTORY")
        .ok()
        .filter(|p| !p.is_empty())
        .map_or_else(|| repo_file("BENCH_history.jsonl"), PathBuf::from);
    let run_index = match std::fs::read_to_string(&path) {
        Ok(existing) => existing.lines().filter(|l| !l.trim().is_empty()).count() as u64 + 1,
        Err(_) => 1,
    };
    let rev = git(&["rev-parse", "--short", "HEAD"])
        .map(|out| out.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    // Porcelain paths are relative to the repository root.
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|status| {
        status.lines().any(|l| !l.get(3..).unwrap_or("").starts_with("BENCH_"))
    });
    let dirty = if dirty { ", \"dirty\": true" } else { "" };
    let record = format!(
        "{{\"schema\": \"printed-bench-record/v1\", \"run_index\": {run_index}, \
         \"git_rev\": \"{rev}\"{dirty}, \"bench\": \"{bench}\", \"metrics\": {{{metrics}}}}}\n"
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .unwrap_or_else(|e| panic!("failed to append perf history to {}: {e}", path.display()));
    run_index
}

/// A git command's standard output, or `None` if it could not run or
/// failed (outside a checkout, or without git).
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
}
