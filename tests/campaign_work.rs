//! The exact work of fault campaigns: the fault classes each campaign
//! simulates, the bitsliced words they fill, the checkpoint lines they
//! write, and the golden runs they take as golden-only words or on the
//! scalar engine, for the robustness report's campaigns and for
//! print-shop campaign quotes. A campaign runs one representative per
//! class (`netlist::fault::FaultClasses`), a word holds 63 of them, the
//! checkpoint holds one line per class, and the golden run is lane 0 of
//! the campaign's first fault word unless the workload has no word path,
//! so every count is exact on any host and at any thread count. The test
//! is alone in its file so that no other test shares the process's obs
//! registry.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::robustness::{fault_summary, tmr_comparison, RobustnessOptions};
use printed_microprocessors::netlist::fault::{
    classify_faults, run_campaign, CampaignConfig, Fault, FaultKind, ScalarOnly, StuckAtSpace,
};
use printed_microprocessors::netlist::GateId;
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

/// Golden runs taken on the scalar engine since the last registry reset.
fn scalar_goldens() -> u64 {
    obs::global().counter("netlist.fault.golden_scalar").unwrap_or(0)
}

/// Bitsliced words run with no fault lane since the last registry reset.
fn golden_words() -> u64 {
    obs::global().counter("netlist.fault.golden_words").unwrap_or(0)
}

/// Keys and prices one quote request line the way a print-shop worker
/// does, on `threads` campaign workers, checkpointing under `ckpt`.
fn price(line: &str, ckpt: &Path, threads: usize) {
    let Ok(Request::Quote(query)) = parse_request(line) else { panic!("not a quote: {line}") };
    let built = quote::build(&query).expect("the query builds");
    quote::content_key(&query, &built).expect("the campaign identity computes");
    let priced = quote::price(&query, &built, Some(ckpt), threads, None).expect("the quote prices");
    assert!(!priced.aborted);
}

#[test]
fn campaigns_simulate_one_run_per_fault_class() {
    obs::set_level(obs::Level::Summary);

    // The robustness report's campaigns at default options: 24 fault
    // summary rows and 2 TMR comparisons of two campaigns each. Run
    // fault by fault, their 5436 slots would fill 90 words.
    obs::global().reset();
    let options = RobustnessOptions::default();
    assert_eq!(fault_summary(Technology::Egfet, &options).unwrap().len(), 24);
    assert_eq!(tmr_comparison(Technology::Egfet, &options).unwrap().len(), 2);
    assert_eq!(work(), (5436, 4363, 76, 0), "robustness campaigns");
    assert_eq!(scalar_goldens(), 0, "every robustness golden runs on the word engine");
    assert_eq!(golden_words(), 0, "every robustness golden rides in a fault word");

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
            assert_eq!(scalar_goldens(), 0, "shop golden at width {width} on {threads} workers");
            // The cache key's identity runs the one golden-only word;
            // pricing takes its golden from its first fault word.
            assert_eq!(golden_words(), 1, "shop miss at width {width} on {threads} workers");
        }
    }
    let _ = std::fs::remove_dir_all(&ckpt);

    // A campaign restricted to the scalar engine takes its golden there
    // once, and its scalar fault runs reuse that simulator.
    obs::global().reset();
    let core = CoreConfig::new(1, 4, 2);
    let config = CampaignConfig {
        stuck_at: StuckAtSpace::Sampled(8),
        seu_samples: 4,
        ..CampaignConfig::default()
    };
    let workload = ProgramWorkload::smoke(core);
    run_campaign(&generate_standard(&core), &ScalarOnly(&workload), &config, 2)
        .expect("the golden run completes");
    assert_eq!(scalar_goldens(), 1, "a scalar-only campaign");
    assert_eq!(work().2, 0, "a scalar-only campaign runs no word");
    assert_eq!(golden_words(), 0, "a scalar-only campaign runs no golden-only word");

    // The per-fault oracle classifies a list of faults against one
    // scalar golden run.
    obs::global().reset();
    let netlist = generate_standard(&core);
    let faults =
        [0, 7, 11].map(|i| Fault { gate: GateId::from_index(i), kind: FaultKind::StuckAt1 });
    let outcomes = classify_faults(&netlist, &workload, &faults, config.cycle_budget)
        .expect("the golden run completes");
    assert_eq!(outcomes.len(), 3);
    assert_eq!(scalar_goldens(), 1, "three classifications, one golden run");
}
