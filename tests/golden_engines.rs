//! Cross-engine oracle for the campaign golden run. A campaign takes its
//! golden observation from lane 0 of its first bitsliced word, which
//! also carries its first stuck-at classes; a campaign with no faults
//! takes it from a fault-free word, and the scalar engine's run (what a
//! `ScalarOnly` campaign takes) is the reference. The three must agree
//! field by field on every design the repository runs campaigns on: the
//! 24 design-space cores under their robustness report workloads, the
//! two TMR-hardened cores of the TMR comparison, and the print shop's
//! campaign cores at widths 4 and 8. Release builds skip the debug-only
//! cross-check inside the campaign, so there this test is the folded
//! golden's only oracle. The test is alone in its file so that no other
//! test shares the process's obs registry.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::workload::ProgramWorkload;
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::robustness::{summary_workload, RobustnessOptions};
use printed_microprocessors::netlist::fault::{
    run_campaign, CampaignConfig, Observation, ScalarOnly, StuckAtSpace, Workload,
};
use printed_microprocessors::netlist::{tmr, Netlist};
use printed_microprocessors::obs;
use printed_microprocessors::shop::proto::parse_request;
use printed_microprocessors::shop::{quote, Request};

/// The golden observation a campaign over `stuck_at` (and no SEUs) takes
/// on `workload`.
fn golden<W: Workload + ?Sized>(
    netlist: &Netlist,
    workload: &W,
    cycle_budget: u64,
    stuck_at: StuckAtSpace,
) -> Observation {
    let config =
        CampaignConfig { cycle_budget, stuck_at, seu_samples: 0, ..CampaignConfig::default() };
    let run = run_campaign(netlist, workload, &config, 1);
    run.unwrap_or_else(|e| panic!("{}: {e}", netlist.name())).golden
}

/// Golden-only words run since the last registry reset.
fn golden_words() -> u64 {
    obs::global().counter("netlist.fault.golden_words").unwrap_or(0)
}

/// Asserts the golden folded into a fault word and the fault-free word's
/// golden both equal the scalar engine's, field by field.
fn assert_engines_agree<W: Workload + ?Sized>(netlist: &Netlist, workload: &W, cycle_budget: u64) {
    let design = netlist.name();
    obs::global().reset();
    let folded = golden(netlist, workload, cycle_budget, StuckAtSpace::Sampled(63));
    assert_eq!(golden_words(), 0, "{design}: the folded golden rode in a fault word");
    let word = golden(netlist, workload, cycle_budget, StuckAtSpace::None);
    assert_eq!(golden_words(), 1, "{design}: a campaign with no faults runs a golden-only word");
    let scalar = golden(netlist, &ScalarOnly(workload), cycle_budget, StuckAtSpace::None);
    for (engine, golden) in [("folded", &folded), ("fault-free word", &word)] {
        assert_eq!(golden.signature, scalar.signature, "{design} ({engine}): signature");
        assert_eq!(golden.completed, scalar.completed, "{design} ({engine}): completed");
        assert_eq!(golden.cycles, scalar.cycles, "{design} ({engine}): cycles");
        assert_eq!(golden.detected, scalar.detected, "{design} ({engine}): detected");
    }
}

#[test]
fn word_golden_equals_scalar_golden_on_every_campaign_design() {
    obs::set_level(obs::Level::Summary);
    let options = RobustnessOptions::default();
    for config in CoreConfig::design_space() {
        let workload = summary_workload(config, &options);
        assert_engines_agree(&generate_standard(&config), workload.as_ref(), options.cycle_budget);
    }
    for config in [CoreConfig::new(1, 4, 2), CoreConfig::new(1, 8, 2)] {
        let hardened = tmr(&generate_standard(&config)).expect("a generated core hardens");
        let workload = ProgramWorkload::smoke(config);
        assert_engines_agree(&hardened, &workload, options.cycle_budget);
    }
    for width in [4, 8] {
        let line = format!(
            "{{\"op\":\"quote\",\"query\":{{\"seed\":9,\"seu_samples\":2048,\
             \"stuck_at\":1024,\"width\":{width}}}}}"
        );
        let Ok(Request::Quote(query)) = parse_request(&line) else { panic!("not a quote: {line}") };
        let built = quote::build(&query).expect("the query builds");
        let workload = quote::workload(&built, query.dmem_words).expect("the program encodes");
        let config = quote::campaign_config(&query).expect("a campaign query");
        assert_engines_agree(&built.netlist, &workload, config.cycle_budget);
    }
}
