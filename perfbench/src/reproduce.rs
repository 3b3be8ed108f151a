//! One in-process pass over `reproduce_all`'s eval stages, in its order,
//! timing each call from here. Observability is on (summary level), so
//! the program's own `netlist.dataflow` and campaign spans supply the
//! netlist counts. Text is rendered as `reproduce_all` renders it but not
//! printed: printing, artifact writes and process start are what the
//! residual against the end-to-end pass time names.

use crate::{flag, ms, span_total};
use printed_microprocessors::baselines::{diff::LockstepOptions, BaselineCpu};
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::{
    feasibility, figure7, figure8, headline, lifetime, lockstep, manufacturing, report, robustness,
    static_report, tables,
};
use printed_microprocessors::netlist::analysis;
use printed_microprocessors::obs;
use printed_microprocessors::pdk::battery::BLUESPARK_30;
use printed_microprocessors::pdk::Technology;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Per-stage wall time, accumulated under the stage's metric name.
#[derive(Default)]
struct Stages(BTreeMap<&'static str, f64>);

impl Stages {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += ms(started.elapsed());
        out
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out")?;
    obs::set_level(obs::Level::Summary);
    let mut s = Stages::default();
    let pass = Instant::now();

    s.time("other", || black_box(format!("{}\n{}", tables::table1(), tables::table2())));
    s.time("other", || {
        let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
        let egfet = analysis::timing(&netlist, Technology::Egfet.library()).fmax().as_hertz();
        let cnt = analysis::timing(&netlist, Technology::CntTft.library()).fmax().as_hertz();
        black_box(tables::table3(egfet, cnt).to_string())
    });
    s.time("other", || {
        black_box(format!(
            "{}{}{}{}",
            tables::table4(),
            tables::table5(),
            tables::table6(),
            tables::table7()
        ))
    });
    s.time("other", || {
        let mut text = String::new();
        for tech in [Technology::Egfet, Technology::CntTft] {
            for cpu in BaselineCpu::ALL {
                let full = lifetime::full_duty_lifetime(cpu, tech, &BLUESPARK_30);
                let _ = writeln!(text, "{} {}", cpu.name(), full.as_hours());
            }
        }
        black_box(text)
    });
    s.time("figure7", || {
        let mut text = String::new();
        for tech in Technology::ALL {
            for p in figure7(tech) {
                let _ = writeln!(
                    text,
                    "{} {} {} {} {} {}",
                    p.name,
                    p.gate_count,
                    p.sequential,
                    p.fmax.as_hertz(),
                    p.area.as_cm2(),
                    p.power.as_milliwatts()
                );
            }
        }
        black_box(text)
    });
    s.time("lint", || {
        black_box(Technology::ALL.map(|tech| report::lint_summary(tech).to_string()))
    });
    s.time("static_analysis", || {
        let reports: Vec<_> = Technology::ALL.map(static_report::static_report).into();
        let text: Vec<String> =
            reports.iter().map(|r| static_report::static_summary(r).to_string()).collect();
        black_box((text, static_report::static_json(&reports)))
    });
    let divergences = s.time("diff", || {
        let report = lockstep::diff_report(&LockstepOptions::from_env());
        black_box((lockstep::diff_summary(&report).to_string(), lockstep::diff_json(&report)));
        report.divergences()
    });
    if divergences != 0 {
        return Err(format!("{divergences} ISS/gate-level divergences"));
    }
    let cells =
        s.time("figure8", || figure8(Technology::Egfet)).map_err(|e| format!("figure8: {e}"))?;
    s.time("figure8", || black_box(tables::table8_rows(&cells)));
    s.time("other", || black_box(feasibility::catalog()));
    s.time("manufacturing", || {
        for width in [4usize, 8, 16, 32] {
            let nl = generate_standard(&CoreConfig::new(1, width, 2));
            let r = manufacturing::report(
                format!("p1_{width}_2"),
                &nl,
                Technology::Egfet,
                0.9999,
                0.15,
            )
            .map_err(|e| format!("manufacturing: {e}"))?;
            black_box(r);
        }
        Ok::<(), String>(())
    })?;
    s.time("robustness", || {
        let options = robustness::RobustnessOptions::default();
        let tech = Technology::Egfet;
        let rows = robustness::fault_summary(tech, &options).map_err(|e| e.to_string())?;
        let cmp = robustness::tmr_comparison(tech, &options).map_err(|e| e.to_string())?;
        black_box((
            robustness::fault_table(tech, &rows).to_string(),
            robustness::tmr_table(tech, &cmp).to_string(),
        ));
        Ok::<(), String>(())
    })
    .map_err(|e| format!("robustness: {e}"))?;
    s.time("other", || {
        let improvements = headline::ps_improvements(&cells);
        black_box((headline::rom_vs_ram(), headline::ps_headline(&improvements)))
    });
    let pass_ms = ms(pass.elapsed());

    let dataflow = span_total(&["netlist.dataflow"]);
    let campaign = span_total(&["netlist.fault.campaign", "netlist.resilience.campaign"]);
    let stages: Vec<String> = s.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    let json = format!(
        "{{\"pass_ms\":{pass_ms},\"stages_ms\":{{{}}},\
         \"dataflow\":{{\"calls\":{},\"ms\":{},\"max_ms\":{}}},\
         \"campaign\":{{\"calls\":{},\"ms\":{}}}}}\n",
        stages.join(","),
        dataflow.calls,
        dataflow.total_ns as f64 / 1e6,
        dataflow.max_ns as f64 / 1e6,
        campaign.calls,
        campaign.total_ns as f64 / 1e6,
    );
    std::fs::write(out, json).map_err(|e| format!("write {out}: {e}"))
}
