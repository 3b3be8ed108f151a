//! Battery-lifetime analysis (Figures 4 and 5).
//!
//! The paper plots the lifetime of each pre-existing microprocessor on
//! each of four printed batteries as a function of CPU duty cycle, in
//! both technologies. Lifetime = battery energy / (core power × duty).

use printed_baselines::BaselineCpu;
use printed_pdk::battery::{Battery, PRINTED_BATTERIES};
use printed_pdk::units::Time;
use printed_pdk::Technology;

/// The duty-cycle sweep used for the figures (log-spaced 0.001 → 1.0).
pub fn duty_cycle_sweep() -> Vec<f64> {
    (0..=12).map(|i| 10f64.powf(-3.0 + i as f64 * 0.25)).collect()
}

/// One lifetime curve: a CPU on a battery across the duty sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCurve {
    /// CPU name.
    pub cpu: &'static str,
    /// Battery name.
    pub battery: &'static str,
    /// (duty fraction, lifetime) samples.
    pub samples: Vec<(f64, Time)>,
}

/// Computes all Figure 4 (EGFET) or Figure 5 (CNT-TFT) curves.
pub fn lifetime_figure(technology: Technology) -> Vec<LifetimeCurve> {
    let mut curves = Vec::new();
    for cpu in BaselineCpu::ALL {
        let inventory = cpu.inventory(technology);
        let power = inventory.power();
        for battery in &PRINTED_BATTERIES {
            let samples = duty_cycle_sweep()
                .into_iter()
                .map(|duty| {
                    let life = battery
                        .lifetime(power, duty)
                        .unwrap_or_else(|| unreachable!("nonzero power at nonzero duty"));
                    (duty, life)
                })
                .collect();
            curves.push(LifetimeCurve { cpu: cpu.name(), battery: battery.name, samples });
        }
    }
    curves
}

/// Lifetime of one CPU at full duty on one battery (the headline point:
/// "less than 2 hours for all the microprocessors for the CPU duty cycle
/// of 1.0").
pub fn full_duty_lifetime(cpu: BaselineCpu, technology: Technology, battery: &Battery) -> Time {
    let power = cpu.inventory(technology).power();
    battery
        .lifetime(power, 1.0)
        .unwrap_or_else(|| unreachable!("baseline cores draw nonzero power"))
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_pdk::battery::BLUESPARK_30;

    #[test]
    fn egfet_full_duty_lifetimes_are_under_two_hours() {
        for cpu in BaselineCpu::ALL {
            let life = full_duty_lifetime(cpu, Technology::Egfet, &BLUESPARK_30);
            assert!(life.as_hours() < 2.0, "{}: {:.2} h at full duty", cpu.name(), life.as_hours());
        }
    }

    #[test]
    fn cnt_lifetimes_are_worse_than_egfet() {
        // CNT cores burn watts; EGFET cores burn tens of milliwatts.
        for cpu in BaselineCpu::ALL {
            let egfet = full_duty_lifetime(cpu, Technology::Egfet, &BLUESPARK_30);
            let cnt = full_duty_lifetime(cpu, Technology::CntTft, &BLUESPARK_30);
            assert!(cnt < egfet, "{}", cpu.name());
        }
    }

    #[test]
    fn lifetime_scales_linearly_with_duty() {
        let curves = lifetime_figure(Technology::Egfet);
        assert_eq!(curves.len(), 16, "4 CPUs x 4 batteries");
        for curve in &curves {
            let (d0, t0) = curve.samples.first().copied().unwrap();
            let (d1, t1) = curve.samples.last().copied().unwrap();
            let ratio = (t0 / t1) / (d1 / d0);
            assert!((ratio - 1.0).abs() < 1e-9, "{} on {}", curve.cpu, curve.battery);
        }
    }

    #[test]
    fn bigger_batteries_last_longer() {
        use printed_pdk::battery::{BLUESPARK_10, MOLEX_90};
        let big = full_duty_lifetime(BaselineCpu::Light8080, Technology::Egfet, &MOLEX_90);
        let small = full_duty_lifetime(BaselineCpu::Light8080, Technology::Egfet, &BLUESPARK_10);
        assert!(big > small);
    }
}
