//! Figure 7: the 24-point TP-ISA design-space sweep (f_max, area, power)
//! in both technologies.
//!
//! `figure7` reads a table the design-space pass computes once per
//! process, so the timed loop runs the pass itself: every sweep core and
//! baseline analyzed for Figure 7, lint and static analysis in both
//! technologies.

use criterion::{criterion_group, criterion_main, Criterion};
use printed_eval::{design_space, figure7};
use printed_pdk::Technology;
use std::sync::Once;

static PRINT: Once = Once::new();

fn bench(c: &mut Criterion) {
    PRINT.call_once(|| {
        for tech in Technology::ALL {
            println!("\n== Figure 7 ({tech}) ==");
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
        }
    });
    let mut g = c.benchmark_group("fig7");
    g.sample_size(10);
    g.bench_function("fig7_design_space_pass", |b| b.iter(design_space::analyze));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
