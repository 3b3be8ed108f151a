//! Kill-and-resume integration test for the supervised fault campaign:
//! abort a smoke campaign mid-chunk, resume it from its checkpoint, and
//! require the stitched result to be byte-identical to an uninterrupted
//! run — at one worker and at four.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::netlist::fault::{CampaignConfig, StuckAtSpace};
use printed_microprocessors::netlist::resilience::{
    run_supervised_campaign_with_threads, ResilienceConfig, SupervisedRun,
};
use std::path::PathBuf;

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn interrupted_smoke_campaign_resumes_to_the_identical_csv() {
    let core = CoreConfig::new(1, 4, 2);
    let netlist = generate_standard(&core);
    let workload = ProgramWorkload::smoke(core);
    let config = CampaignConfig {
        stuck_at: StuckAtSpace::Exhaustive,
        seu_samples: 8,
        ..CampaignConfig::default()
    };

    for threads in [1usize, 4] {
        let dir = ckpt_dir(&format!("t{threads}"));

        // The reference: one uninterrupted, unsupervised-equivalent run.
        let baseline = ResilienceConfig::default();
        let reference =
            run_supervised_campaign_with_threads(&netlist, &workload, &config, &baseline, threads)
                .unwrap()
                .into_complete()
                .expect("uninterrupted run completes");

        // Phase 1: checkpointing on, killed partway through the slots.
        let total = reference.result.runs.len();
        let interrupted = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            abort_after: Some(total / 3),
        };
        let aborted = run_supervised_campaign_with_threads(
            &netlist,
            &workload,
            &config,
            &interrupted,
            threads,
        )
        .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("threads={threads}: the abort hook must interrupt the campaign");
        };
        assert!(completed >= total / 3, "threads={threads}: {completed} slots before abort");
        let ckpt = checkpoint.expect("checkpointing was enabled");
        assert!(ckpt.exists(), "threads={threads}: checkpoint file persists after the kill");

        // Phase 2: same config, same dir — resume and finish.
        let resumed_cfg = ResilienceConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 4,
            ..ResilienceConfig::default()
        };
        let resumed = run_supervised_campaign_with_threads(
            &netlist,
            &workload,
            &config,
            &resumed_cfg,
            threads,
        )
        .unwrap()
        .into_complete()
        .expect("resumed run completes");
        assert!(
            resumed.stats.resumed_slots > 0,
            "threads={threads}: the resumed run must load checkpointed slots"
        );
        assert_eq!(
            resumed.result.to_csv(),
            reference.result.to_csv(),
            "threads={threads}: resumed campaign must be byte-identical to an uninterrupted run"
        );
        assert!(!ckpt.exists(), "threads={threads}: a completed campaign removes its checkpoint");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
