//! Application-to-core matching: which printed core serves which Table 3
//! application.
//!
//! Section 4 argues feasibility qualitatively ("several printing
//! applications can be feasibly targeted by battery-powered printed
//! microprocessors"); this module makes the match explicit: for each
//! application, the narrowest TP-ISA core whose datawidth covers the
//! precision requirement, in the cheapest technology whose instruction
//! rate covers the sample rate.

use printed_core::{generate_standard, CoreConfig};
use printed_netlist::{analysis, Netlist};
use printed_pdk::apps::Application;
use printed_pdk::units::{Frequency, Power};
use printed_pdk::Technology;
use std::collections::BTreeMap;

/// A recommended printed system for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Application name.
    pub application: &'static str,
    /// Chosen core (narrowest adequate single-cycle TP-ISA core).
    pub core: String,
    /// Chosen technology (EGFET preferred; CNT-TFT when the rate demands
    /// it).
    pub technology: Technology,
    /// The core's instruction rate.
    pub ips: Frequency,
    /// Core power at that rate.
    pub power: Power,
}

/// The candidate datawidths, narrowest first.
const WIDTHS: [usize; 4] = [4, 8, 16, 32];

/// Picks the narrowest adequate core and cheapest adequate technology for
/// an application. Returns `None` if even CNT-TFT cannot sustain the
/// sample rate (does not occur for Table 3).
pub fn recommend(app: &Application) -> Option<Recommendation> {
    let config = core_config(app);
    recommend_on(app, config, &generate_standard(&config))
}

/// The narrowest single-cycle core whose datawidth covers `app`'s
/// precision.
fn core_config(app: &Application) -> CoreConfig {
    let width = WIDTHS.into_iter().find(|&w| w >= app.precision_bits as usize).unwrap_or(32);
    CoreConfig::new(1, width, 2)
}

/// [`recommend`] on `config`'s already generated core.
fn recommend_on(
    app: &Application,
    config: CoreConfig,
    netlist: &Netlist,
) -> Option<Recommendation> {
    // EGFET (inkjet, cheap) first; CNT-TFT only when the rate demands it.
    for tech in [Technology::Egfet, Technology::CntTft] {
        let fmax = analysis::timing(netlist, tech.library()).fmax();
        if app.feasible_at(fmax.as_hertz()) {
            let power = analysis::power(netlist, tech.library(), fmax, Default::default());
            return Some(Recommendation {
                application: app.name,
                core: config.name(),
                technology: tech,
                ips: fmax,
                power: power.total(),
            });
        }
    }
    None
}

/// Recommendations for the whole Table 3 catalog. Applications served
/// by one width share its core, built once.
pub fn catalog() -> Vec<Recommendation> {
    let mut cores: BTreeMap<usize, Netlist> = BTreeMap::new();
    printed_pdk::apps::TABLE3
        .iter()
        .filter_map(|app| {
            let config = core_config(app);
            let netlist =
                cores.entry(config.datawidth).or_insert_with(|| generate_standard(&config));
            recommend_on(app, config, netlist)
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_pdk::apps::TABLE3;

    #[test]
    fn every_table3_application_gets_a_core() {
        let recs = catalog();
        assert_eq!(recs.len(), TABLE3.len(), "CNT-TFT covers whatever EGFET cannot");
    }

    #[test]
    fn catalog_matches_recommending_each_application_alone() {
        let alone: Vec<_> = TABLE3.iter().filter_map(recommend).collect();
        assert_eq!(catalog(), alone);
    }

    #[test]
    fn low_rate_apps_stay_on_cheap_inkjet_egfet() {
        let recs = catalog();
        let bandage = recs.iter().find(|r| r.application == "Smart Bandage").unwrap();
        assert_eq!(bandage.technology, Technology::Egfet);
        assert_eq!(bandage.core, "p1_8_2");

        let timer = recs.iter().find(|r| r.application == "Timer").unwrap();
        assert_eq!(timer.technology, Technology::Egfet);
        assert_eq!(timer.core, "p1_4_2", "1-bit precision fits the 4-bit core");
    }

    #[test]
    fn high_rate_apps_need_cnt() {
        let recs = catalog();
        for name in ["Blood Pressure Sensor", "Tremor Sensor", "POS Computation"] {
            let r = recs.iter().find(|r| r.application == name).unwrap();
            assert_eq!(r.technology, Technology::CntTft, "{name}");
        }
    }

    #[test]
    fn precision_drives_the_datawidth() {
        let recs = catalog();
        for r in &recs {
            let app = TABLE3.iter().find(|a| a.name == r.application).unwrap();
            let width: usize = r.core.split('_').nth(1).unwrap().parse().unwrap();
            assert!(width >= app.precision_bits as usize, "{}", r.application);
            // And it is the narrowest such width.
            let narrower = WIDTHS.into_iter().rfind(|&w| w < width);
            if let Some(n) = narrower {
                assert!(n < app.precision_bits as usize, "{}", r.application);
            }
        }
    }
}
