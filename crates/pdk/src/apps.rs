//! The printed-application catalog (Table 3).
//!
//! Table 3 lists the disposable / ultra-low-cost applications that motivate
//! printed microprocessors, with each application's sample rate, data
//! precision, and duty-cycle period. The evaluation uses these to decide
//! which applications a given core can feasibly serve: the core must sustain
//! the sample rate (with some instructions of processing per sample) at its
//! f_max, at the precision the application needs.

use std::fmt;

/// Coarse duty-cycle classes from Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DutyCyclePeriod {
    /// Always on.
    Continuous,
    /// Active bursts separated by seconds.
    Seconds,
    /// Active bursts separated by minutes.
    Minutes,
    /// Active bursts separated by hours.
    Hours,
    /// One-shot operation (e.g. point-of-sale computation).
    SingleUse,
}

impl DutyCyclePeriod {
    /// A representative fraction of time spent active, used by lifetime
    /// analysis when an application (rather than a raw duty-cycle sweep)
    /// drives the estimate.
    pub fn representative_duty_fraction(self) -> f64 {
        match self {
            DutyCyclePeriod::Continuous => 1.0,
            DutyCyclePeriod::Seconds => 0.1,
            DutyCyclePeriod::Minutes => 1e-2,
            DutyCyclePeriod::Hours => 1e-3,
            DutyCyclePeriod::SingleUse => 1e-4,
        }
    }
}

impl fmt::Display for DutyCyclePeriod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DutyCyclePeriod::Continuous => "Continuous",
            DutyCyclePeriod::Seconds => "Seconds",
            DutyCyclePeriod::Minutes => "Minutes",
            DutyCyclePeriod::Hours => "Hours",
            DutyCyclePeriod::SingleUse => "Single Use",
        })
    }
}

/// One row of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Application {
    /// Application name.
    pub name: &'static str,
    /// Maximum sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Required data precision in bits.
    pub precision_bits: u8,
    /// How often the application needs to be awake.
    pub duty_cycle: DutyCyclePeriod,
}

impl Application {
    /// Instructions a core must retire per sample for the application's
    /// processing. A threshold check or accumulation step is ~5–10 TP-ISA
    /// instructions per sample (see the kernel suite), so 10 is the
    /// feasibility yardstick — consistent with the paper's finding that
    /// EGFET serves "several printed applications" at tens of Hz.
    pub const INSTRUCTIONS_PER_SAMPLE: f64 = 10.0;

    /// Whether a core with the given instruction throughput can keep up with
    /// this application's sample rate.
    pub fn feasible_at(&self, instructions_per_second: f64) -> bool {
        instructions_per_second >= self.sample_rate_hz * Self::INSTRUCTIONS_PER_SAMPLE
    }
}

/// Table 3, transcribed. Sample-rate ranges are represented by their upper
/// bound ("<100 Hz" → 100 Hz).
pub const TABLE3: [Application; 17] = [
    Application {
        name: "Blood Pressure Sensor",
        sample_rate_hz: 100.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::Hours,
    },
    Application {
        name: "Odor Sensor",
        sample_rate_hz: 25.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::Minutes,
    },
    Application {
        name: "Heart Beat Sensor",
        sample_rate_hz: 4.0,
        precision_bits: 1,
        duty_cycle: DutyCyclePeriod::Seconds,
    },
    Application {
        name: "Pressure Sensor",
        sample_rate_hz: 5.5,
        precision_bits: 12,
        duty_cycle: DutyCyclePeriod::Continuous,
    },
    Application {
        name: "Light Level Sensor",
        sample_rate_hz: 1.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Continuous,
    },
    Application {
        name: "Trace Metal Sensor",
        sample_rate_hz: 25.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Minutes,
    },
    Application {
        name: "Food Temp. Sensor",
        sample_rate_hz: 1.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Minutes,
    },
    Application {
        name: "Alcohol Sensor",
        sample_rate_hz: 1.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::SingleUse,
    },
    Application {
        name: "Humidity Sensor",
        sample_rate_hz: 10.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Continuous,
    },
    Application {
        name: "Body Temperature Sensor",
        sample_rate_hz: 1.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::Minutes,
    },
    Application {
        name: "Smart Bandage",
        sample_rate_hz: 0.01,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::Continuous,
    },
    Application {
        name: "Tremor Sensor",
        sample_rate_hz: 25.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Seconds,
    },
    Application {
        name: "Oral-Nasal Airflow",
        sample_rate_hz: 25.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::Seconds,
    },
    Application {
        name: "Perspiration Sensor",
        sample_rate_hz: 25.0,
        precision_bits: 16,
        duty_cycle: DutyCyclePeriod::Minutes,
    },
    Application {
        name: "Pedometer",
        sample_rate_hz: 25.0,
        precision_bits: 1,
        duty_cycle: DutyCyclePeriod::Seconds,
    },
    Application {
        name: "Timer",
        sample_rate_hz: 1.0,
        precision_bits: 1,
        duty_cycle: DutyCyclePeriod::SingleUse,
    },
    Application {
        name: "POS Computation",
        sample_rate_hz: 100.0,
        precision_bits: 8,
        duty_cycle: DutyCyclePeriod::SingleUse,
    },
];

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_seventeen_applications() {
        assert_eq!(TABLE3.len(), 17);
    }

    #[test]
    fn precision_is_at_most_16_bits() {
        // Section 5.1 notes ZPU's 32-bit datawidth exceeds every Table 3
        // application's precision requirement.
        for app in &TABLE3 {
            assert!(app.precision_bits <= 16, "{}", app.name);
        }
    }

    #[test]
    fn low_rate_apps_are_feasible_on_slow_cores() {
        let bandage = TABLE3.iter().find(|a| a.name == "Smart Bandage").unwrap();
        // A 20 Hz EGFET core retires 20 IPS at CPI=1; the bandage needs 1.
        assert!(bandage.feasible_at(20.0));
        let bp = TABLE3.iter().find(|a| a.name == "Blood Pressure Sensor").unwrap();
        // 100 Hz × 10 inst/sample = 1k IPS: out of EGFET range.
        assert!(!bp.feasible_at(20.0));
        // ...but well within CNT-TFT range.
        assert!(bp.feasible_at(40_000.0));
    }

    #[test]
    fn duty_fractions_are_monotone() {
        assert!(
            DutyCyclePeriod::Continuous.representative_duty_fraction()
                > DutyCyclePeriod::Seconds.representative_duty_fraction()
        );
        assert!(
            DutyCyclePeriod::Seconds.representative_duty_fraction()
                > DutyCyclePeriod::Hours.representative_duty_fraction()
        );
    }
}
