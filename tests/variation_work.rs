//! The exact work of the manufacturing sweep's Monte-Carlo timing: one
//! topological walk per core, each carrying the core's 64 f_max samples
//! as lanes, and one delay multiplier per gate per sample. The counts
//! are exact on any host. The test is alone in its file so that no
//! other test shares the process's obs registry.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::manufacturing;
use printed_microprocessors::obs;
use printed_microprocessors::pdk::Technology;

/// Completed spans named exactly `name`, at the top level or under any
/// parent.
fn span_calls(name: &str) -> u64 {
    obs::global()
        .snapshot_spans()
        .into_iter()
        .filter(|(path, _)| path == name || path.ends_with(&format!(".{name}")))
        .map(|(_, stats)| stats.count)
        .sum()
}

#[test]
fn manufacturing_sweep_walks_each_core_once() {
    obs::set_level(obs::Level::Summary);
    obs::global().reset();

    // The sweep `reproduce_all` prints: four single-cycle widths, 64
    // samples each. One walk per sample would be 256.
    let mut gates = 0;
    for width in [4, 8, 16, 32] {
        let netlist = generate_standard(&CoreConfig::new(1, width, 2));
        gates += netlist.gate_count();
        let report = manufacturing::report("sweep", &netlist, Technology::Egfet, 0.9999, 0.15)
            .expect("valid sigma");
        assert_eq!(report.fmax.samples.len(), 64);
    }
    let count = |name: &str| obs::global().counter(name).unwrap_or(0);
    assert_eq!(span_calls("netlist.variation"), 4);
    assert_eq!(count("netlist.variation.walks"), 4);
    assert_eq!(count("netlist.variation.draws"), 262_400);
    assert_eq!(count("netlist.variation.draws"), 64 * gates as u64, "one draw per gate per sample");
}
