//! Observability smoke test: a tiny fault campaign run with metrics
//! enabled must leave a coherent global registry whose JSON-lines export
//! parses — the same invariant ci.sh checks on the example binaries.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::netlist::fault::{
    run_campaign, CampaignConfig, PatternWorkload, StuckAtSpace,
};
use printed_microprocessors::netlist::{words, NetlistBuilder};
use printed_microprocessors::obs;

#[test]
fn campaign_metrics_export_as_valid_json_lines() {
    obs::set_level(obs::Level::Summary);
    obs::global().reset();

    // A tiny registered adder: big enough to produce every counter,
    // small enough that the exhaustive campaign is instant.
    let mut b = NetlistBuilder::new("obs_smoke");
    let acc = b.forward_bus(3);
    let zero = b.const0();
    let one = b.const1();
    let sum = words::ripple_adder(&mut b, &acc, &[one, zero, one], zero);
    for (d, q) in sum.sum.iter().zip(&acc) {
        b.dff_into(*d, *q);
    }
    b.output("acc", acc);
    let nl = b.finish().unwrap();

    let workload = PatternWorkload { cycles: 4, seed: 7 };
    let config = CampaignConfig {
        cycle_budget: 64,
        stuck_at: StuckAtSpace::Exhaustive,
        seu_samples: 4,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&nl, &workload, &config, 1).unwrap();

    let registry = obs::global();
    // The campaign published its classification counters.
    let runs = registry.counter("netlist.fault.runs").expect("runs counter");
    assert_eq!(runs, result.runs.len() as u64);
    let classified: u64 = ["masked", "detected", "hang", "sdc"]
        .iter()
        .filter_map(|k| registry.counter(&format!("netlist.fault.{k}")))
        .sum();
    assert_eq!(classified, runs, "classification counters tile the run set");
    assert!(registry.span_stats("netlist.fault.campaign").is_some(), "campaign span recorded");
    // One scheduler publishes both counter families from the same run:
    // the resilience counters sit beside the classification counters,
    // and every bitsliced word filled one lane per fault class it ran
    // plus the golden one. The cycle budget is the one bound on a run,
    // so nothing times out.
    for name in ["resilience.retries", "resilience.failed"] {
        assert_eq!(registry.counter(name), Some(0), "{name} published by the campaign");
    }
    assert_eq!(registry.counter("resilience.timeouts"), None, "no watchdog, no timeouts");
    let words = registry.counter("netlist.fault.bitsliced.words").expect("words counter");
    let lanes = registry.counter("netlist.fault.bitsliced.lanes").expect("lanes counter");
    let classes = registry.counter("netlist.fault.classes").expect("classes counter");
    assert_eq!(classes, result.classes as u64);
    assert!(classes < runs, "the exhaustive space holds equivalent stuck-at faults");
    assert_eq!(lanes, classes + words, "lanes tile the classes plus one golden lane per word");

    // Every exported line is a self-contained JSON object with the
    // discriminator and name fields the tooling relies on.
    let export = registry.export_jsonl();
    assert!(export.lines().count() >= 5, "export covers the published metrics:\n{export}");
    for line in export.lines() {
        let value =
            obs::json::parse(line).unwrap_or_else(|e| panic!("invalid JSON line {line:?}: {e}"));
        let kind = value.get("type").and_then(|t| t.as_str()).expect("type discriminator");
        assert!(
            ["counter", "gauge", "histogram", "span"].contains(&kind),
            "unexpected type {kind:?}"
        );
        assert!(value.get("name").and_then(|n| n.as_str()).is_some(), "name field: {line}");
    }

    // The human summary renders the same registry without panicking.
    let summary = registry.render_summary();
    assert!(summary.contains("netlist.fault.runs"));
}
