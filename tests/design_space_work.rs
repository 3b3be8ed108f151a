//! The exact work of Figure 7, the lint summary and the static report:
//! one dataflow fixpoint per sweep core and one per (baseline,
//! technology), however often and in whatever order the three stage
//! functions are called, and no scalar simulator: each design's
//! crosscheck runs on one bitsliced word. The test is alone in its file
//! so that no other test shares the process's obs registry or its
//! design-space table.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::baselines::BaselineCpu;
use printed_microprocessors::core::CoreConfig;
use printed_microprocessors::eval::{figure7, report, static_report};
use printed_microprocessors::obs;
use printed_microprocessors::pdk::Technology;

/// Completed `netlist.dataflow` spans under any parent path, a span
/// nested in another `netlist.dataflow` counted once.
fn dataflow_calls() -> u64 {
    const NAME: &str = "netlist.dataflow";
    obs::global()
        .snapshot_spans()
        .into_iter()
        .filter(|(path, _)| {
            path == NAME
                || path
                    .strip_suffix(NAME)
                    .is_some_and(|parent| parent.ends_with('.') && !parent.contains(NAME))
        })
        .map(|(_, stats)| stats.count)
        .sum()
}

fn all_three_stages() {
    for technology in Technology::ALL {
        assert_eq!(figure7(technology).len(), 24);
        assert_eq!(report::lint_summary(technology).len(), 28);
        assert_eq!(static_report::static_report(technology).rows.len(), 28);
    }
}

#[test]
fn each_design_is_analyzed_once_per_process() {
    obs::set_level(obs::Level::Summary);
    obs::global().reset();

    all_three_stages();
    let once = CoreConfig::design_space().len() + BaselineCpu::ALL.len() * Technology::ALL.len();
    assert_eq!(once, 32);
    assert_eq!(
        dataflow_calls(),
        once as u64,
        "one fixpoint per core and per (baseline, technology)"
    );
    assert_eq!(
        obs::global().counter("netlist.sim.scalar_builds").unwrap_or(0),
        0,
        "the crosschecks build no scalar simulator"
    );

    all_three_stages();
    assert_eq!(dataflow_calls(), once as u64, "a second round of the stages analyzes nothing");
}
