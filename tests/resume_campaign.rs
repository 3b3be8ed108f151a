//! Kill-and-resume integration test for the supervised fault campaign:
//! cancel a smoke campaign partway through, resume it from its
//! checkpoint, and require the stitched result to be byte-identical to
//! an uninterrupted run — at one worker and at four.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::netlist::bitsim::BitSimulator;
use printed_microprocessors::netlist::fault::{
    CampaignConfig, LaneOutcome, Observation, StuckAtSpace, Workload,
};
use printed_microprocessors::netlist::resilience::{run_supervised_campaign, SupervisedRun};
use printed_microprocessors::netlist::{NetlistError, Simulator};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("printed-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Raises `cancel` once the wrapped workload has run `after` times,
/// counting scalar runs (the golden run first) and bitsliced words: the
/// kill lands at a deterministic point of the campaign.
struct CancelAfter<'a, W> {
    inner: &'a W,
    after: usize,
    calls: AtomicUsize,
    cancel: AtomicBool,
}

impl<W: Workload> CancelAfter<'_, W> {
    fn tick(&self) {
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 >= self.after {
            self.cancel.store(true, Ordering::Relaxed);
        }
    }
}

impl<W: Workload> Workload for CancelAfter<'_, W> {
    fn run(&self, sim: Simulator<'_>, cycle_budget: u64) -> Result<Observation, NetlistError> {
        self.tick();
        self.inner.run(sim, cycle_budget)
    }

    fn run_bitsliced(
        &self,
        sim: BitSimulator<'_>,
        cycle_budget: u64,
    ) -> Option<Result<Vec<LaneOutcome>, NetlistError>> {
        let lanes = self.inner.run_bitsliced(sim, cycle_budget)?;
        self.tick();
        Some(lanes)
    }
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

        // The reference: one uninterrupted run without a checkpoint.
        let run = run_supervised_campaign(&netlist, &workload, &config, None, threads, None);
        let Ok(SupervisedRun::Complete(reference)) = run else {
            panic!("threads={threads}: the uninterrupted run must complete");
        };

        // Phase 1: checkpointing on, killed after the golden run and a
        // third of the campaign's 63-class words.
        let total = reference.result.runs.len();
        let words = reference.result.classes.div_ceil(BitSimulator::LANES - 1);
        let interrupted = CancelAfter {
            inner: &workload,
            after: 1 + words / 3,
            calls: AtomicUsize::new(0),
            cancel: AtomicBool::new(false),
        };
        let aborted = run_supervised_campaign(
            &netlist,
            &interrupted,
            &config,
            Some(&dir),
            threads,
            Some(&interrupted.cancel),
        )
        .unwrap();
        let SupervisedRun::Aborted { completed, checkpoint, .. } = aborted else {
            panic!("threads={threads}: the cancel flag must interrupt the campaign");
        };
        assert!(
            completed > 0 && completed < total,
            "threads={threads}: {completed} of {total} slots before the kill"
        );
        let ckpt = checkpoint.expect("checkpointing was enabled");
        assert!(ckpt.exists(), "threads={threads}: checkpoint file persists after the kill");

        // Phase 2: same config, same dir — resume and finish.
        let run = run_supervised_campaign(&netlist, &workload, &config, Some(&dir), threads, None);
        let Ok(SupervisedRun::Complete(resumed)) = run else {
            panic!("threads={threads}: the resumed run must complete");
        };
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
