//! Printed battery models (Figures 4, 5 and Table 8).
//!
//! The paper evaluates lifetime against four commercially available printed
//! batteries. A printed battery is characterized by its charge capacity,
//! nominal voltage, and a maximum continuous power draw; the paper notes
//! that "several printed batteries have maximum power ≤ 30 mW, thus the
//! pre-existing cores will require multiple batteries to run at nominal
//! frequency".

use crate::units::{Charge, Energy, Power, Time, Voltage};
use std::fmt;

/// A printed thin-film battery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    /// Marketing / datasheet name.
    pub name: &'static str,
    /// Rated charge capacity.
    pub capacity: Charge,
    /// Nominal output voltage.
    pub voltage: Voltage,
    /// Maximum continuous power the cell can deliver.
    pub max_power: Power,
}

impl Battery {
    /// Total energy stored at nominal voltage.
    ///
    /// ```
    /// use printed_pdk::battery::BLUESPARK_30;
    /// // §4: 30 mA × 3.6 ks × 1 V = 108 J.
    /// assert!((BLUESPARK_30.energy_budget().as_joules() - 108.0).abs() < 1e-9);
    /// ```
    pub fn energy_budget(&self) -> Energy {
        self.capacity * self.voltage
    }

    /// Lifetime when the load draws `active_power` for a `duty_fraction`
    /// of the time and is otherwise off (the paper's duty-cycled model for
    /// Figures 4 and 5).
    ///
    /// Returns `None` if the average power is zero (infinite lifetime).
    ///
    /// # Panics
    ///
    /// Panics if `duty_fraction` is outside `[0, 1]`.
    pub fn lifetime(&self, active_power: Power, duty_fraction: f64) -> Option<Time> {
        assert!(
            (0.0..=1.0).contains(&duty_fraction),
            "duty fraction must be in [0, 1], got {duty_fraction}"
        );
        let average = active_power * duty_fraction;
        if average.as_watts() <= 0.0 {
            return None;
        }
        Some(self.energy_budget() / average)
    }

    /// Number of batteries needed in parallel to supply `load` continuously.
    pub fn cells_required(&self, load: Power) -> usize {
        if load.as_watts() <= 0.0 {
            return 1;
        }
        (load / self.max_power).ceil() as usize
    }

    /// Whether a single cell can power the load at its nominal rate.
    pub fn can_power(&self, load: Power) -> bool {
        load <= self.max_power
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} mAh @ {} V)",
            self.name,
            self.capacity.as_milliamp_hours(),
            self.voltage.as_volts()
        )
    }
}

/// Molex 90 mAh thin-film battery.
pub const MOLEX_90: Battery = Battery {
    name: "Molex 90 mAh",
    capacity: Charge::from_milliamp_hours(90.0),
    voltage: Voltage::from_volts(1.5),
    max_power: Power::from_milliwatts(45.0),
};

/// Blue Spark 30 mAh battery — the cell Table 8 assumes (at 1 V).
pub const BLUESPARK_30: Battery = Battery {
    name: "Blue Spark 30 mAh",
    capacity: Charge::from_milliamp_hours(30.0),
    voltage: Voltage::from_volts(1.0),
    max_power: Power::from_milliwatts(30.0),
};

/// Zinergy 12 mAh flexible printed battery.
pub const ZINERGY_12: Battery = Battery {
    name: "Zinergy 12 mAh",
    capacity: Charge::from_milliamp_hours(12.0),
    voltage: Voltage::from_volts(1.5),
    max_power: Power::from_milliwatts(18.0),
};

/// Blue Spark 10 mAh battery.
pub const BLUESPARK_10: Battery = Battery {
    name: "Blue Spark 10 mAh",
    capacity: Charge::from_milliamp_hours(10.0),
    voltage: Voltage::from_volts(1.0),
    max_power: Power::from_milliwatts(10.0),
};

/// The four printed batteries of Figures 4 and 5, largest first.
pub const PRINTED_BATTERIES: [Battery; 4] = [MOLEX_90, BLUESPARK_30, ZINERGY_12, BLUESPARK_10];

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_scales_inversely_with_duty_cycle() {
        let b = BLUESPARK_30;
        let p = Power::from_milliwatts(41.7); // light8080 EGFET
        let full = b.lifetime(p, 1.0).unwrap();
        let tenth = b.lifetime(p, 0.1).unwrap();
        assert!((tenth / full - 10.0).abs() < 1e-9);
        // §4: "less than 2 hours for all the microprocessors for the CPU
        // duty cycle of 1.0" — 108 J / 41.7 mW ≈ 0.72 h.
        assert!(full.as_hours() < 2.0);
    }

    #[test]
    fn zero_duty_cycle_is_infinite_lifetime() {
        assert!(BLUESPARK_10.lifetime(Power::from_milliwatts(5.0), 0.0).is_none());
    }

    #[test]
    #[should_panic(expected = "duty fraction")]
    fn out_of_range_duty_fraction_panics() {
        let _ = BLUESPARK_10.lifetime(Power::from_milliwatts(5.0), 1.5);
    }

    #[test]
    fn multiple_cells_needed_for_heavy_loads() {
        // CNT-TFT baselines draw >1.2 W; a 30 mW cell needs dozens in parallel.
        let cells = BLUESPARK_30.cells_required(Power::from_watts(1.2));
        assert_eq!(cells, 40);
        assert!(!BLUESPARK_30.can_power(Power::from_watts(1.2)));
        assert!(BLUESPARK_30.can_power(Power::from_milliwatts(7.0)));
    }

    #[test]
    fn batteries_are_ordered_largest_first() {
        for pair in PRINTED_BATTERIES.windows(2) {
            assert!(pair[0].capacity >= pair[1].capacity);
        }
    }
}
