//! Perf-history regression gate: compares the latest
//! `BENCH_history.jsonl` record against its rolling baseline and exits
//! nonzero on a regression (see `printed_eval::regression`).
//!
//! ```sh
//! cargo bench -p printed-bench --bench sim_hotpaths   # appends a record
//! cargo run --release --example perf_regression       # gates on it
//! ```
//!
//! Environment:
//!
//! - `PRINTED_BENCH_HISTORY` — ledger path (default
//!   `BENCH_history.jsonl` at the repository root),
//! - `PRINTED_REGRESSION_OUT` — where to write the
//!   `printed-regression/v1` verdict artifact (skipped when unset),
//! - `PRINTED_REGRESSION_MAX_RATIO` — override every metric's allowed
//!   degradation ratio; CI sets a value below 1.0 to drill that the
//!   gate really fails.

use printed_microprocessors::eval::perf_report::write_artifact;
use printed_microprocessors::eval::regression;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The repository root comes from `CARGO_MANIFEST_DIR` as `cargo run`
    // sets it, so a copy of the repository gates on its own ledger even
    // when it reuses a binary built in another copy.
    let ledger_path = match std::env::var("PRINTED_BENCH_HISTORY").ok().filter(|p| !p.is_empty()) {
        Some(path) => PathBuf::from(path),
        None => PathBuf::from(
            std::env::var_os("CARGO_MANIFEST_DIR")
                .ok_or("set PRINTED_BENCH_HISTORY or run through cargo run")?,
        )
        .join("BENCH_history.jsonl"),
    };
    let ledger = std::fs::read_to_string(&ledger_path)
        .map_err(|e| format!("cannot read perf ledger {}: {e}", ledger_path.display()))?;
    let records = regression::parse_history(&ledger)?;
    let verdict = regression::evaluate(&records, regression::max_ratio_override_from_env());

    println!("{} ({} ledger records)", verdict.summary(), records.len());
    for check in &verdict.checks {
        println!(
            "  {:7} {:>28}: latest {:>12.2} vs baseline {:>12.2} ({:.3}x, limit {:.2}x)",
            if check.ok { "ok" } else { "REGRESS" },
            check.name,
            check.latest,
            check.baseline,
            check.ratio,
            check.max_ratio
        );
    }

    if let Ok(out) = std::env::var("PRINTED_REGRESSION_OUT") {
        if !out.is_empty() {
            write_artifact(&out, &verdict.to_json())?;
            println!("wrote {out} (printed-regression/v1)");
        }
    }

    if !verdict.pass {
        return Err("performance regression gate failed".into());
    }
    Ok(())
}
