//! Pins what Figure 7, the lint summary and the static report print, in
//! both technologies: an FNV-1a digest of each output, taken from the
//! code before the three stages shared one design-space pass. A pass
//! that costs, lints or analyzes any design differently (a wrong cell
//! library, a stale fmax, a row out of order) fails here.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::eval::{figure7, report, static_report};
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
