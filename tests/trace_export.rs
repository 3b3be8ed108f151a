//! End-to-end Chrome trace export: a multi-threaded fault campaign
//! collected into per-worker lanes, rendered, and re-parsed through the
//! in-tree JSON parser.
//!
//! One `#[test]` only: chrome collection is process-global state, and
//! this file being its own integration-test binary is what isolates it
//! from the rest of the suite.

// Panics are the failure report in test code.
#![allow(clippy::disallowed_methods)]

use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::netlist::fault::{run_campaign, CampaignConfig, StuckAtSpace};
use printed_microprocessors::obs::chrome::{self, EventKind};
use printed_microprocessors::obs::{self, json};
use std::collections::BTreeMap;

#[test]
fn campaign_trace_has_worker_lanes_and_nested_spans() {
    let config = CoreConfig::new(1, 4, 2);
    let netlist = generate_standard(&config);
    let workload = ProgramWorkload::smoke(config);
    let campaign = CampaignConfig {
        stuck_at: StuckAtSpace::Exhaustive,
        seu_samples: 8,
        ..CampaignConfig::default()
    };

    chrome::start_collecting();
    // A nested span pair on the test's own lane proves ts+dur
    // containment survives export alongside the campaign's worker spans.
    let outer_span = obs::SpanGuard::enter("test_outer");
    let result = {
        let _inner = obs::SpanGuard::enter("test_inner");
        run_campaign(&netlist, &workload, &campaign, 2).expect("smoke campaign completes")
    };
    drop(outer_span);
    let events = chrome::stop_and_drain();
    assert!(!result.runs.is_empty(), "campaign must classify faults");

    // Lane metadata: both campaign workers registered their lanes.
    let mut lane_labels: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for e in &events {
        if let EventKind::Meta { label } = &e.kind {
            lane_labels.entry(e.tid).or_default().push(label.clone());
        }
    }
    let worker_lanes: Vec<u64> = lane_labels
        .iter()
        .filter(|(_, labels)| labels.iter().any(|l| l.starts_with("campaign-worker-")))
        .map(|(&tid, _)| tid)
        .collect();
    assert!(
        worker_lanes.len() >= 2,
        "both campaign workers must register a lane; got labels {lane_labels:?}"
    );

    // Chunk spans land on worker lanes only.
    let chunk_spans: Vec<_> = events.iter().filter(|e| e.name == "netlist.fault.chunk").collect();
    assert!(!chunk_spans.is_empty(), "workers must record per-chunk spans");
    for span in &chunk_spans {
        assert!(worker_lanes.contains(&span.tid), "chunk span on unregistered lane {}", span.tid);
        assert!(matches!(span.kind, EventKind::Complete { .. }));
    }

    // Nesting: the inner test span's interval is contained in the
    // outer's on the same lane (2 us slop for the ns -> us truncation).
    // Span names are stack-dotted paths, so the child exports as
    // `test_outer.test_inner`.
    let span_of = |name: &str| {
        events
            .iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("span {name} missing from trace"))
    };
    let outer = span_of("test_outer");
    let inner = span_of("test_outer.test_inner");
    assert_eq!(outer.tid, inner.tid, "both test spans ran on the test thread's lane");
    let (EventKind::Complete { dur_us: od }, EventKind::Complete { dur_us: id }) =
        (&outer.kind, &inner.kind)
    else {
        panic!("test spans must be complete events");
    };
    assert!(outer.ts_us <= inner.ts_us + 2, "outer starts before inner");
    assert!(outer.ts_us + od + 2 >= inner.ts_us + id, "outer ends after inner");

    // The rendered trace round-trips through the validating parser with
    // every event intact.
    let rendered = chrome::render(&events);
    let parsed = json::parse(&rendered).expect("rendered trace is valid JSON");
    let list = match parsed.get("traceEvents") {
        Some(json::Value::Array(a)) => a,
        other => panic!("traceEvents missing: {other:?}"),
    };
    assert_eq!(list.len(), events.len());
    for ev in list {
        assert!(ev.get("ph").is_some());
        assert!(ev.get("tid").is_some());
    }
}
