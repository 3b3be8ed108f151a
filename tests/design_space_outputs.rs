//! Pins what Figure 7, the lint summary and the static report print, in
//! both technologies: an FNV-1a digest of each output, taken from the
//! code before the three stages shared one design-space pass. A pass
//! that costs, lints or analyzes any design differently (a wrong cell
//! library, a stale fmax, a row out of order) fails here. The robustness
//! report reads each sweep core's area, power and fmax from the same
//! table, so those must equal `analysis::characterize` on a freshly
//! generated core bit for bit.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::{generate_standard, CoreConfig};
use printed_microprocessors::eval::robustness::{
    fault_summary, tmr_comparison, RobustnessOptions, RobustnessRow,
};
use printed_microprocessors::eval::{figure7, report, static_report};
use printed_microprocessors::netlist::analysis;
use printed_microprocessors::netlist::hash::fnv1a;
use printed_microprocessors::pdk::Technology;

fn digest(texts: impl IntoIterator<Item = String>) -> u64 {
    fnv1a(texts.into_iter().collect::<Vec<_>>().join("\0").as_bytes())
}

#[test]
fn figure7_rows_are_pinned() {
    let rows = digest(Technology::ALL.map(|tech| report::figure7_csv(&figure7(tech))));
    assert_eq!(rows, 0x4a42_810b_d4dc_b3f1, "Figure 7 rows: {rows:#018x}");
}

#[test]
fn lint_summaries_are_pinned() {
    let tables = digest(Technology::ALL.map(|tech| report::lint_summary(tech).to_string()));
    assert_eq!(tables, 0x557f_c1f3_08a0_e29d, "lint summaries: {tables:#018x}");
}

#[test]
fn static_json_is_pinned() {
    let reports: Vec<_> = Technology::ALL.map(static_report::static_report).into();
    let json = digest([static_report::static_json(&reports)]);
    assert_eq!(json, 0x4f91_db96_740a_e940, "static_json: {json:#018x}");
}

#[test]
fn characterize_equals_figure7_on_every_sweep_core() {
    for tech in Technology::ALL {
        let points = figure7(tech);
        let configs = CoreConfig::design_space();
        assert_eq!(points.len(), configs.len());
        for (config, point) in configs.into_iter().zip(points) {
            let ch = analysis::characterize(&generate_standard(&config), tech.library());
            let context = format!("{} in {tech:?}", point.name);
            assert_eq!(
                ch.area.total.as_cm2().to_bits(),
                point.area.as_cm2().to_bits(),
                "{context}"
            );
            assert_eq!(
                ch.power.total().as_milliwatts().to_bits(),
                point.power.as_milliwatts().to_bits(),
                "{context}"
            );
            assert_eq!(ch.fmax.as_hertz().to_bits(), point.fmax.as_hertz().to_bits(), "{context}");
        }
    }
}

#[test]
fn robustness_rows_cost_sweep_cores_like_characterize() {
    let options = RobustnessOptions::default();
    for tech in Technology::ALL {
        let summary = fault_summary(tech, &options).unwrap();
        let tmr_bases = tmr_comparison(tech, &options).unwrap().into_iter().map(|c| c.base);
        let configs = CoreConfig::design_space();
        assert_eq!(summary.len(), configs.len());
        let rows: Vec<(CoreConfig, RobustnessRow)> = configs
            .into_iter()
            .zip(summary)
            .chain([CoreConfig::new(1, 4, 2), CoreConfig::new(1, 8, 2)].into_iter().zip(tmr_bases))
            .collect();
        for (config, row) in rows {
            let ch = analysis::characterize(&generate_standard(&config), tech.library());
            let context = format!("{} in {tech:?}", row.design);
            assert_eq!(row.design, config.name(), "{context}");
            assert_eq!(row.area_cm2.to_bits(), ch.area.total.as_cm2().to_bits(), "{context}");
            assert_eq!(
                row.power_mw.to_bits(),
                ch.power.total().as_milliwatts().to_bits(),
                "{context}"
            );
            assert_eq!(row.fmax_hz.to_bits(), ch.fmax.as_hertz().to_bits(), "{context}");
        }
    }
}
