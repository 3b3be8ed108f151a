//! Fault injection on printed TP-ISA cores: stuck-at defects, SEUs, and
//! what TMR hardening buys.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```
//!
//! Walks the robustness story end to end: inject a single stuck-at fault
//! into a design-space core running a real benchmark kernel, enumerate
//! the full single-stuck-at space of the smallest core, translate the
//! masking statistics into functional yield, and price TMR hardening.
//!
//! The phases run under the supervised pipeline (DESIGN.md
//! "Resilience"): a failing phase is recorded and the rest still run.
//! Set `FAULT_MANIFEST_OUT` to write the per-phase completeness
//! manifest, `PRINTED_CKPT_DIR` to checkpoint the campaigns (a killed
//! run resumes where it left off), `PRINTED_SIM_THREADS` to spread them
//! over worker threads (the CSV is the same for any count), and
//! `PRINTED_FAIL_STAGE=<phase>` to force one phase to fail (CI's
//! degradation drill).

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, kernels, CoreConfig};
use printed_microprocessors::eval::pipeline::Pipeline;
use printed_microprocessors::eval::robustness::{
    campaign_row, tmr_comparison, tmr_table, RobustnessOptions,
};
use printed_microprocessors::netlist::fault::{
    campaign_threads, classify_faults, lane_utilization, CampaignConfig, Fault, FaultKind,
    StuckAtSpace,
};
use printed_microprocessors::netlist::resilience::{
    checkpoint_dir, run_supervised_campaign, SupervisedRun,
};
use printed_microprocessors::netlist::GateId;
use printed_microprocessors::pdk::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = Technology::Egfet;
    let mut pipeline = Pipeline::new("fault_injection");

    // 1. A single stuck-at-1 defect in the paper's p1_8_2 core, caught in
    //    the act by the shift-add multiply benchmark.
    pipeline.run_stage_result("fault.single_stuck_at", || {
        let config = CoreConfig::new(1, 8, 2);
        let netlist = generate_standard(&config);
        let kernel = kernels::generate(kernels::Kernel::Mult, 8, 8)
            .map_err(|e| format!("kernel generation: {e}"))?;
        let workload = ProgramWorkload::from_kernel(&kernel, config)
            .map_err(|e| format!("workload assembly: {e}"))?;
        println!(
            "p1_8_2 ({} gates) running {}: single stuck-at-1 per gate index",
            netlist.gate_count(),
            kernel.name
        );
        let faults = [0, netlist.gate_count() / 2, netlist.gate_count() - 1]
            .map(|index| Fault { gate: GateId::from_index(index), kind: FaultKind::StuckAt1 });
        // One golden run classifies all three faults.
        let outcomes = classify_faults(&netlist, &workload, &faults, 20_000)
            .map_err(|e| format!("fault run: {e}"))?;
        for (fault, outcome) in faults.iter().zip(outcomes) {
            let index = fault.gate.index();
            let cell = netlist.gates()[index].kind;
            println!("  gate {index:4} ({cell}): {fault} -> {}", outcome.name());
        }
        Ok::<(), String>(())
    });

    // 2. The full single-stuck-at space of the smallest core, classified
    //    against the smoke program, plus Monte-Carlo SEUs — run under the
    //    supervised campaign runner, so with PRINTED_CKPT_DIR set a
    //    killed run resumes where it left off.
    let config = CoreConfig::new(1, 4, 2);
    let netlist = generate_standard(&config);
    let workload = ProgramWorkload::smoke(config);
    let campaign_result = pipeline.run_stage_result("fault.exhaustive_campaign", || {
        let campaign = CampaignConfig {
            stuck_at: StuckAtSpace::Exhaustive,
            seu_samples: 32,
            ..CampaignConfig::default()
        };
        let run = run_supervised_campaign(
            &netlist,
            &workload,
            &campaign,
            checkpoint_dir().as_deref(),
            campaign_threads(),
            None,
        )?;
        let SupervisedRun::Complete(supervised) = run else {
            unreachable!("without a cancel flag the run always completes")
        };
        if supervised.stats.resumed_slots > 0 {
            println!(
                "  resumed {} slots from checkpoint {:?}",
                supervised.stats.resumed_slots, supervised.stats.checkpoint
            );
        }
        let result = supervised.result;
        let counts = result.stuck_counts();
        println!(
            "\np1_4_2 exhaustive stuck-at: {} faults -> {} masked, {} sdc, {} hang \
             ({:.1} % masked); SEU: {:?}",
            counts.total(),
            counts.masked,
            counts.sdc,
            counts.hang,
            100.0 * counts.masked_fraction(),
            result.seu_counts(),
        );
        println!(
            "  engine: bitsliced, {:.1} % lane utilization over {} fault classes \
             of {} faults (64-lane words, lane 0 golden)",
            100.0 * lane_utilization(result.classes),
            result.classes,
            result.runs.len()
        );
        println!("  vulnerability by cell class:");
        for (cell, c) in result.by_cell_class() {
            println!(
                "    {cell:6} {:4} faults, {:5.1} % masked",
                c.total(),
                100.0 * c.masked_fraction()
            );
        }

        // The campaign parallelizes across PRINTED_SIM_THREADS workers and
        // its merged CSV is byte-identical for every thread count; set
        // FAULT_CSV_OUT to dump it so runs can be diffed (ci.sh does).
        if let Ok(path) = std::env::var("FAULT_CSV_OUT") {
            std::fs::write(&path, result.to_csv()).map_err(|e| {
                printed_microprocessors::netlist::JobError::Io {
                    path: path.clone().into(),
                    message: e.to_string(),
                }
            })?;
            println!("  wrote campaign CSV ({} runs) to {path}", result.runs.len());
        }
        Ok::<_, printed_microprocessors::netlist::JobError>(result)
    });

    // 3. Masking lifts yield: a defective print whose defect lands on a
    //    masked site still computes correctly.
    if campaign_result.is_some() {
        pipeline.run_stage_result("fault.functional_yield", || {
            let options = RobustnessOptions {
                exhaustive_gate_limit: netlist.gate_count(),
                ..Default::default()
            };
            let row = campaign_row(&netlist, &workload, tech, &options)?;
            println!(
                "\nyield at {:.2} % device yield: naive {:.4}, functional {:.4} \
                 (+{:.1} % working prints)",
                100.0 * options.device_yield,
                row.naive_yield,
                row.functional_yield,
                100.0 * (row.functional_yield / row.naive_yield - 1.0),
            );
            Ok::<(), printed_microprocessors::netlist::JobError>(())
        });
    }

    // 4. What TMR costs and what it buys on the single-cycle cores.
    pipeline.run_stage_result("fault.tmr_comparison", || {
        let comparisons = tmr_comparison(tech, &RobustnessOptions::default())?;
        println!("\n{}", tmr_table(tech, &comparisons));
        Ok::<(), printed_microprocessors::netlist::JobError>(())
    });

    // With PRINTED_OBS=summary this prints campaign counters and span
    // timings; with PRINTED_OBS=trace, the full JSON-lines export.
    printed_microprocessors::obs::finish();

    // The per-phase completeness manifest, for CI to cross-check.
    if let Ok(path) = std::env::var("FAULT_MANIFEST_OUT") {
        pipeline.write_manifest(&path)?;
        println!("wrote manifest ({} run) to {path}", pipeline.status());
    }
    if pipeline.failed_stages() > 0 {
        std::process::exit(1);
    }
    Ok(())
}
