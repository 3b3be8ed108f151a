//! Graceful-degradation smoke test for the supervised eval pipeline:
//! a forced mid-pipeline stage failure still yields a complete
//! `manifest.json` with every stage recorded and the later stages'
//! results intact, a clean run reports zero failed stages, and the
//! manifest's stage names line up with the obs span export.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::eval::pipeline::{Pipeline, StageStatus};
use printed_microprocessors::obs;
use printed_microprocessors::obs::json::{parse, Value};
use std::path::PathBuf;

fn manifest_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("printed-manifest-{}-{tag}.json", std::process::id()))
}

fn run_three_stage_pipeline(name: &str, stages: [&str; 3]) -> (Pipeline, Vec<Option<u32>>) {
    let mut p = Pipeline::new(name);
    let outputs = vec![
        p.run_stage(stages[0], || 1),
        p.run_stage(stages[1], || 2),
        p.run_stage(stages[2], || 3),
    ];
    (p, outputs)
}

#[test]
fn clean_run_reports_zero_failed_stages() {
    let (p, outputs) = run_three_stage_pipeline("smoke_clean", ["clean.a", "clean.b", "clean.c"]);
    assert_eq!(outputs, vec![Some(1), Some(2), Some(3)]);
    assert_eq!(p.failed_stages(), 0);
    assert_eq!(p.status(), StageStatus::Ok);

    let path = manifest_path("clean");
    p.write_manifest(&path).unwrap();
    let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(doc.get("failed_stages").and_then(Value::as_f64), Some(0.0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn forced_mid_pipeline_failure_yields_a_complete_manifest() {
    // The same injection hook reproduce_all honors: PRINTED_FAIL_STAGE
    // names one stage that panics on every attempt.
    std::env::set_var("PRINTED_FAIL_STAGE", "forced.mid");
    let (p, outputs) =
        run_three_stage_pipeline("smoke_forced", ["forced.early", "forced.mid", "forced.late"]);
    std::env::remove_var("PRINTED_FAIL_STAGE");

    // The poisoned stage failed; the stages around it still produced
    // their artifacts.
    assert_eq!(outputs, vec![Some(1), None, Some(3)]);
    assert_eq!(p.failed_stages(), 1);
    assert_eq!(p.status(), StageStatus::Failed);

    // The manifest is complete: all three stages recorded, the failure
    // carries its error message, and the document parses.
    let path = manifest_path("forced");
    p.write_manifest(&path).unwrap();
    let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("status").and_then(Value::as_str), Some("failed"));
    let stages = match doc.get("stages") {
        Some(Value::Array(items)) => items,
        other => panic!("expected stages array, got {other:?}"),
    };
    assert_eq!(stages.len(), 3);
    let by_name = |n: &str| {
        stages
            .iter()
            .find(|s| s.get("name").and_then(Value::as_str) == Some(n))
            .unwrap_or_else(|| panic!("stage {n} missing from manifest"))
    };
    assert_eq!(by_name("forced.early").get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(by_name("forced.late").get("status").and_then(Value::as_str), Some("ok"));
    let mid = by_name("forced.mid");
    assert_eq!(mid.get("status").and_then(Value::as_str), Some("failed"));
    let error = mid.get("error").and_then(Value::as_str).expect("failed stage records its error");
    assert!(error.contains("PRINTED_FAIL_STAGE"), "error names the injection: {error}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn manifest_stage_names_match_the_obs_span_export() {
    obs::set_level(obs::Level::Summary);
    let (p, _) = run_three_stage_pipeline("smoke_obs", ["spans.a", "spans.b", "spans.c"]);
    let spans = obs::global().snapshot_spans();
    obs::set_level(obs::Level::Off);

    // Every stage the manifest claims ran must have closed an obs span
    // under the same path — the cross-validation ci.sh relies on.
    let doc = parse(&p.manifest_json()).unwrap();
    let stages = match doc.get("stages") {
        Some(Value::Array(items)) => items,
        other => panic!("expected stages array, got {other:?}"),
    };
    assert_eq!(stages.len(), 3);
    for stage in stages {
        let name = stage.get("name").and_then(Value::as_str).unwrap();
        assert!(
            spans.iter().any(|(path, stats)| path == name && stats.count >= 1),
            "manifest stage {name} has no matching obs span; spans: {:?}",
            spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
    }
}
