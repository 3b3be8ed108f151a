//! Regenerates every table and figure of the paper in one run.
//!
//! ```sh
//! cargo run --release --example reproduce_all
//! ```
//!
//! The output of this binary is the source of truth for EXPERIMENTS.md.
//!
//! Every stage runs under the supervised pipeline (see DESIGN.md
//! "Resilience"): a stage that panics or returns a typed error is
//! recorded and skipped — the remaining stages still run and still
//! produce their artifacts — and the run ends with `manifest.json`, the
//! per-stage ok/degraded/failed completeness record CI gates on. Set
//! `PRINTED_FAIL_STAGE=<stage>` to force one stage to fail (the CI
//! degradation drill); set `PRINTED_CKPT_DIR` to make the fault
//! campaigns checkpoint/resumable and `PRINTED_SIM_THREADS` to spread
//! them over worker threads (the output is the same for any count).
//!
//! Each stage also runs under an observability span (see DESIGN.md
//! "Observability"), and the run ends with a per-stage `perf_summary` —
//! text to stdout, CSV to `perf_summary.csv`. Observability defaults to
//! `summary` here; set `PRINTED_OBS=off` or `PRINTED_OBS=trace` to
//! override.

use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::perf_report::{self, ReportError};
use printed_microprocessors::eval::pipeline::Pipeline;
use printed_microprocessors::eval::{figure7, figure8, headline, lifetime, report, tables};
use printed_microprocessors::netlist::analysis;
use printed_microprocessors::obs;
use printed_microprocessors::pdk::battery::BLUESPARK_30;
use printed_microprocessors::pdk::Technology;

fn main() {
    // The reproduction run always wants its perf summary; an explicit
    // PRINTED_OBS (off/summary/trace) still wins.
    if std::env::var_os("PRINTED_OBS").is_none() {
        obs::set_level(obs::Level::Summary);
    }
    let mut report_errors: Vec<ReportError> = Vec::new();
    let mut pipeline = Pipeline::new("reproduce_all");

    pipeline.run_stage("eval.tables_1_2", || {
        println!("{}", tables::table1());
        println!("{}", tables::table2());
    });

    pipeline.run_stage("eval.table3", || {
        let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
        let egfet_ips = analysis::timing(&netlist, Technology::Egfet.library()).fmax().as_hertz();
        let cnt_ips = analysis::timing(&netlist, Technology::CntTft.library()).fmax().as_hertz();
        println!("{}", tables::table3(egfet_ips, cnt_ips));
    });

    pipeline.run_stage("eval.tables_4_7", || {
        println!("{}", tables::table4());
        println!("{}", tables::table5());
        println!("{}", tables::table6());
        println!("{}", tables::table7());
    });

    // Figures 4 and 5: spot values at three duty points.
    pipeline.run_stage("eval.lifetime", || {
        for (fig, tech) in [(4, Technology::Egfet), (5, Technology::CntTft)] {
            println!("== Figure {fig}: lifetime on Blue Spark 30 mAh ({tech}) ==");
            for cpu in printed_microprocessors::baselines::BaselineCpu::ALL {
                let full = lifetime::full_duty_lifetime(cpu, tech, &BLUESPARK_30);
                println!(
                    "{:>11}: {:>8.2} h at duty 1.0, {:>9.1} h at duty 0.01",
                    cpu.name(),
                    full.as_hours(),
                    full.as_hours() * 100.0
                );
            }
            println!();
        }
    });

    // Figure 7.
    pipeline.run_stage("eval.figure7_sweep", || {
        for tech in Technology::ALL {
            println!("== Figure 7 ({tech}) ==");
            println!(
                "{:>9} {:>6} {:>5} {:>12} {:>11} {:>11}",
                "core", "gates", "DFFs", "fmax [Hz]", "area [cm2]", "power [mW]"
            );
            for p in figure7(tech) {
                println!(
                    "{:>9} {:>6} {:>5} {:>12.2} {:>11.3} {:>11.2}",
                    p.name,
                    p.gate_count,
                    p.sequential,
                    p.fmax.as_hertz(),
                    p.area.as_cm2(),
                    p.power.as_milliwatts()
                );
            }
            println!();
        }
    });

    // DRC: every sweep point and baseline, linted per technology.
    pipeline.run_stage("eval.lint", || {
        for tech in Technology::ALL {
            println!("{}", report::lint_summary(tech));
        }
    });

    // Static analysis: dataflow facts + slack-based STA over every
    // design, with the JSON artifact the CI gate consumes (see
    // DESIGN.md "Static analysis").
    pipeline.run_stage("eval.static_analysis", || {
        use printed_microprocessors::eval::static_report;
        let mut reports = Vec::new();
        for tech in Technology::ALL {
            let rep = static_report::static_report(tech);
            println!("{}", static_report::static_summary(&rep));
            reports.push(rep);
        }
        let out = std::env::var("PRINTED_STATIC_OUT")
            .unwrap_or_else(|_| "static_report.json".to_string());
        match perf_report::write_artifact(&out, &static_report::static_json(&reports)) {
            Ok(()) => println!("{out} written"),
            Err(e) => println!("static report artifact failed: {e}"),
        }
    });

    // Differential validation: every kernel in ISS-vs-gate-level
    // lockstep, with the JSON artifact the CI gate consumes (see
    // DESIGN.md "Differential validation").
    pipeline.run_stage("eval.diff_summary", || {
        use printed_microprocessors::eval::lockstep;
        let options = printed_microprocessors::baselines::diff::LockstepOptions::default();
        let report = lockstep::diff_report(&options);
        println!("{}", lockstep::diff_summary(&report));
        let out =
            std::env::var("PRINTED_DIFF_OUT").unwrap_or_else(|_| "diff_summary.json".to_string());
        match perf_report::write_artifact(&out, &lockstep::diff_json(&report)) {
            Ok(()) => println!("{out} written"),
            Err(e) => println!("diff summary artifact failed: {e}"),
        }
        assert_eq!(report.divergences(), 0, "ISS and gate level diverged");
    });

    // Figure 8 (EGFET) and its derived Table 8 + headline ratios.
    let cells = pipeline
        .run_stage_result("eval.figure8_benchmarks", || figure8(Technology::Egfet))
        .unwrap_or_default();
    if !cells.is_empty() {
        println!("== Figure 8 (EGFET): A cm2 | E mJ | t s, split C/R/IM/DM ==");
        for c in &cells {
            let tag = if c.program_specific {
                " PS"
            } else if c.rom_mlc {
                "MLC"
            } else {
                "   "
            };
            println!(
                "{:>14} w{:<2}{} | A {:6.2} ({:5.2}/{:4.2}/{:5.2}/{:5.2}) | E {:9.2} ({:8.2}/{:6.2}/{:7.2}/{:7.2}) | t {:8.2}",
                c.kernel,
                c.core_width,
                tag,
                c.result.area_cm2.total(),
                c.result.area_cm2.combinational,
                c.result.area_cm2.registers,
                c.result.area_cm2.imem,
                c.result.area_cm2.dmem,
                c.result.energy_j.total() * 1e3,
                c.result.energy_j.combinational * 1e3,
                c.result.energy_j.registers * 1e3,
                c.result.energy_j.imem * 1e3,
                c.result.energy_j.dmem * 1e3,
                c.result.exec_time.as_secs(),
            );
        }
        println!();

        println!("== Table 8: iterations on a 1 V / 30 mAh battery ==");
        for r in tables::table8_rows(&cells) {
            println!("{:>10}: STD {:>8}  PS {:>8}", r.kernel, r.standard, r.program_specific);
        }
        println!();
    }

    pipeline.run_stage("eval.feasibility", || {
        println!("== Application-to-core matching (extension of Table 3 / §4) ==");
        for r in printed_microprocessors::eval::feasibility::catalog() {
            println!(
                "{:>24} -> {:>7} in {:>7} ({:>9.1} IPS, {:>8.2} mW)",
                r.application,
                r.core,
                r.technology.to_string(),
                r.ips.as_hertz(),
                r.power.as_milliwatts()
            );
        }
        println!();
    });

    pipeline.run_stage_result("eval.manufacturing", || {
        println!("== Manufacturing (yield + variation, extension of §3.1) ==");
        for width in [4usize, 8, 16, 32] {
            let nl =
                printed_microprocessors::core::generate_standard(&CoreConfig::new(1, width, 2));
            let r = printed_microprocessors::eval::manufacturing::report(
                format!("p1_{width}_2"),
                &nl,
                Technology::Egfet,
                0.9999,
                0.15,
            )?;
            println!(
                "{:>8}: {:>5} devices, yield {:>5.1}% -> {:>5.2} prints/unit, 95% clock {:>6.2} Hz (nominal {:.2})",
                r.name,
                r.devices,
                r.yield_ * 100.0,
                r.prints_per_unit,
                r.guard_banded_fmax.as_hertz(),
                r.fmax.nominal.as_hertz()
            );
        }
        println!();
        Ok::<(), printed_microprocessors::netlist::VariationError>(())
    });

    // Robustness: fault campaigns + functional yield + TMR cost (new
    // extension; see DESIGN.md "Fault injection and TMR hardening").
    // Campaigns run supervised: with PRINTED_CKPT_DIR set they
    // checkpoint and a killed run resumes where it left off.
    pipeline.run_stage("eval.robustness", || {
        use printed_microprocessors::eval::robustness;
        let options = robustness::RobustnessOptions::default();
        let tech = Technology::Egfet;
        match robustness::fault_summary(tech, &options) {
            Ok(rows) => println!("{}", robustness::fault_table(tech, &rows)),
            Err(e) => println!("fault summary unavailable: {e}"),
        }
        match robustness::tmr_comparison(tech, &options) {
            Ok(cmp) => println!("{}", robustness::tmr_table(tech, &cmp)),
            Err(e) => println!("TMR comparison unavailable: {e}"),
        }
    });

    pipeline.run_stage("eval.headline", || {
        let rvr = headline::rom_vs_ram();
        println!(
            "ROM vs RAM: power x{:.2} (paper 5.77), area x{:.2} (16.8), delay x{:.2} (2.42)",
            rvr.power, rvr.area, rvr.delay
        );
        let improvements = headline::ps_improvements(&cells);
        let h = headline::ps_headline(&improvements);
        println!(
            "program-specific ISA: up to x{:.2} core power, x{:.2} core area, x{:.2} energy \
             (paper: 4.18 / 1.93 / 2.59)",
            h.max_power, h.max_area, h.max_energy
        );
    });

    // Perf summary: the per-stage text table alongside the fault/lint
    // summaries, plus the full-registry CSV artifact. A failed artifact
    // write is reported here instead of aborting the reproduction.
    if obs::enabled() {
        let registry = obs::global();
        println!();
        println!("{}", perf_report::perf_summary(registry));
        if let Err(e) = perf_report::write_artifact(
            "perf_summary.csv",
            &perf_report::perf_summary_csv(registry),
        ) {
            report_errors.push(e);
        } else {
            println!("perf_summary.csv written");
        }
    }

    // The completeness manifest is written even (especially) when stages
    // failed: it is the record of what this run did and did not produce.
    let manifest_path =
        std::env::var("PRINTED_MANIFEST_OUT").unwrap_or_else(|_| "manifest.json".to_string());
    match pipeline.write_manifest(&manifest_path) {
        Ok(()) => println!("{manifest_path} written ({} run)", pipeline.status()),
        Err(e) => report_errors.push(e),
    }

    if !report_errors.is_empty() {
        println!("report errors ({}):", report_errors.len());
        for e in &report_errors {
            println!("  {e}");
        }
    }
    obs::finish();
    if pipeline.failed_stages() > 0 {
        std::process::exit(1);
    }
}
