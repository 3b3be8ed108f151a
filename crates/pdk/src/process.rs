//! Printed / flexible electronics process comparison (Table 1).
//!
//! Table 1 of the paper compares printed transistor technologies by
//! processing route, operating voltage, and carrier mobility. The two
//! technologies the paper builds libraries for (EGFET and carbon nanotube
//! TFT) are the low-voltage outliers that make battery-powered operation
//! possible.

use std::fmt;

/// Fabrication route of a printed process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessingRoute {
    /// Fully additive inkjet printing.
    Inkjet,
    /// Solution processing and/or inkjet.
    SolutionInkjet,
    /// Gravure printing combined with inkjet.
    GravureInkjet,
    /// Solution processing with shadow-mask patterning (subtractive).
    SolutionShadowMask,
    /// Shadow-mask patterning (subtractive).
    ShadowMask,
}

impl ProcessingRoute {
    /// Whether the route is purely additive. Additive routes avoid the
    /// specialized equipment and etch steps that dominate subtractive cost.
    pub fn is_additive(self) -> bool {
        matches!(
            self,
            ProcessingRoute::Inkjet
                | ProcessingRoute::SolutionInkjet
                | ProcessingRoute::GravureInkjet
        )
    }
}

impl fmt::Display for ProcessingRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProcessingRoute::Inkjet => "Inkjet",
            ProcessingRoute::SolutionInkjet => "Solution/inkjet",
            ProcessingRoute::GravureInkjet => "Gravure-inkjet",
            ProcessingRoute::SolutionShadowMask => "Solution/shadow mask",
            ProcessingRoute::ShadowMask => "Shadow mask",
        })
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessEntry {
    /// Technology name as given in Table 1.
    pub name: &'static str,
    /// Fabrication route.
    pub route: ProcessingRoute,
    /// Operating voltage in volts (upper bound of the quoted range).
    pub operating_voltage_v: f64,
    /// Field-effect mobility in cm²/Vs.
    pub mobility_cm2_per_vs: f64,
}

impl ProcessEntry {
    /// A process is battery-compatible if it operates at or below ~3 V —
    /// the range printed batteries can supply (Section 1/2).
    pub fn battery_compatible(&self) -> bool {
        self.operating_voltage_v <= 3.0
    }
}

/// Table 1, transcribed. Voltage ranges are represented by their upper bound
/// except EGFET/CNT, where the typical operating points (1 V / 2 V) are used.
pub const TABLE1: [ProcessEntry; 9] = [
    ProcessEntry {
        name: "EGFET",
        route: ProcessingRoute::Inkjet,
        operating_voltage_v: 1.0,
        mobility_cm2_per_vs: 126.0,
    },
    ProcessEntry {
        name: "IOTFT",
        route: ProcessingRoute::SolutionInkjet,
        operating_voltage_v: 40.0,
        mobility_cm2_per_vs: 1.0,
    },
    ProcessEntry {
        name: "OTFT (inkjet, a)",
        route: ProcessingRoute::Inkjet,
        operating_voltage_v: 30.0,
        mobility_cm2_per_vs: 2e-4,
    },
    ProcessEntry {
        name: "OTFT (inkjet, b)",
        route: ProcessingRoute::Inkjet,
        operating_voltage_v: 50.0,
        mobility_cm2_per_vs: 0.02,
    },
    ProcessEntry {
        name: "OTFT (gravure)",
        route: ProcessingRoute::GravureInkjet,
        operating_voltage_v: 15.0,
        mobility_cm2_per_vs: 1.0,
    },
    ProcessEntry {
        name: "Carbon Nanotube",
        route: ProcessingRoute::SolutionShadowMask,
        operating_voltage_v: 2.0,
        mobility_cm2_per_vs: 25.0,
    },
    ProcessEntry {
        name: "OTFT (shadow mask, a)",
        route: ProcessingRoute::ShadowMask,
        operating_voltage_v: 10.0,
        mobility_cm2_per_vs: 0.16,
    },
    ProcessEntry {
        name: "SAM OTFT",
        route: ProcessingRoute::ShadowMask,
        operating_voltage_v: 2.0,
        mobility_cm2_per_vs: 0.5,
    },
    ProcessEntry {
        name: "OTFT (shadow mask, b)",
        route: ProcessingRoute::ShadowMask,
        operating_voltage_v: 40.0,
        mobility_cm2_per_vs: 11.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn egfet_is_the_low_voltage_high_mobility_outlier() {
        let egfet = &TABLE1[0];
        assert!(egfet.battery_compatible());
        for other in &TABLE1[1..] {
            assert!(egfet.mobility_cm2_per_vs >= other.mobility_cm2_per_vs);
        }
    }

    #[test]
    fn only_egfet_cnt_and_sam_are_battery_compatible() {
        let compatible: Vec<&str> =
            TABLE1.iter().filter(|p| p.battery_compatible()).map(|p| p.name).collect();
        assert_eq!(compatible, vec!["EGFET", "Carbon Nanotube", "SAM OTFT"]);
    }

    #[test]
    fn additive_routes_classified() {
        assert!(ProcessingRoute::Inkjet.is_additive());
        assert!(ProcessingRoute::GravureInkjet.is_additive());
        assert!(!ProcessingRoute::ShadowMask.is_additive());
    }
}
