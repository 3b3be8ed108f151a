//! The exact work of fault campaigns: the fault classes each campaign
//! simulates, the bitsliced words they fill and the checkpoint lines
//! they write, for the robustness report's campaigns and for print-shop
//! campaign quotes. A campaign runs one representative per class
//! (`netlist::fault::FaultClasses`), a word holds 63 of them and the
//! checkpoint holds one line per class, so every count is exact on any
//! host and at any thread count. The test is alone in its file so that no other
//! test shares the process's obs registry.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::eval::robustness::{fault_summary, tmr_comparison, RobustnessOptions};
use printed_microprocessors::obs;
use printed_microprocessors::pdk::Technology;
use printed_microprocessors::shop::proto::parse_request;
use printed_microprocessors::shop::{quote, Request};
use std::path::Path;

/// `(fault slots, classes, bitsliced words, checkpoint lines)` counted
/// since the last registry reset.
fn work() -> (u64, u64, u64, u64) {
    let registry = obs::global();
    let count = |name: &str| registry.counter(name).unwrap_or(0);
    (
        count("netlist.fault.runs"),
        count("netlist.fault.classes"),
        count("netlist.fault.bitsliced.words"),
        count("resilience.checkpoint_lines"),
    )
}

/// Prices one quote request line the way a print-shop worker does, on
/// `threads` campaign workers, checkpointing under `ckpt`.
fn price(line: &str, ckpt: &Path, threads: usize) {
    let Ok(Request::Quote(query)) = parse_request(line) else { panic!("not a quote: {line}") };
    let built = quote::build(&query).expect("the query builds");
    let priced = quote::price(&query, &built, Some(ckpt), threads, None).expect("the quote prices");
    assert!(!priced.aborted);
}

#[test]
fn campaigns_simulate_one_run_per_fault_class() {
    obs::set_level(obs::Level::Summary);

    // The robustness report's campaigns at default options: 28 fault
    // summary rows and 2 TMR comparisons of two campaigns each. Run
    // fault by fault, their 5916 slots filled 98 words.
    obs::global().reset();
    let options = RobustnessOptions::default();
    assert_eq!(fault_summary(Technology::Egfet, &options).unwrap().len(), 28);
    assert_eq!(tmr_comparison(Technology::Egfet, &options).unwrap().len(), 2);
    assert_eq!(work(), (5916, 4842, 84, 0), "robustness campaigns");

    // A shop_campaign request (1024 stuck-at and 2048 SEU samples on the
    // default program's subset core) at width 4 and at width 8; run
    // fault by fault, each filled 49 words. Workers claim whole words,
    // so the counts are the same on 1, 2 and 4 of them. The checkpoint
    // holds one line per class; one per slot would be 3072.
    let ckpt = std::env::temp_dir().join(format!("printed-campaign-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    for (width, pinned) in [(4, (3072, 249, 4, 249)), (8, (3072, 349, 6, 349))] {
        for threads in [1, 2, 4] {
            obs::global().reset();
            price(
                &format!(
                    "{{\"op\":\"quote\",\"query\":{{\"seed\":9,\"seu_samples\":2048,\
                     \"stuck_at\":1024,\"width\":{width}}}}}"
                ),
                &ckpt,
                threads,
            );
            assert_eq!(work(), pinned, "shop campaign at width {width} on {threads} workers");
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt);
}
