//! Monte-Carlo process-variation analysis.
//!
//! Printed transistors have much larger process variation than silicon
//! (the EGFET modeling papers the PDK builds on are explicitly about
//! "printed transistors and their process variations"). This module
//! samples per-gate delay variation and re-runs static timing to produce
//! an f_max *distribution* instead of a single corner — the information a
//! print shop needs to bin parts or choose a guard-banded clock.
//!
//! The variation model is a per-gate lognormal delay multiplier with
//! parameter `sigma` (printed devices: ~0.1–0.3, far above silicon's
//! few percent).

use crate::ir::Netlist;
use printed_pdk::units::{Frequency, Time};
use printed_pdk::CellLibrary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Invalid parameters for variation sampling or quantile extraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VariationError {
    /// A quantile outside `[0, 1]` was requested.
    QuantileOutOfRange(f64),
    /// A distribution was queried or requested with zero samples.
    NoSamples,
    /// A negative variation sigma was supplied.
    NegativeSigma(f64),
}

impl fmt::Display for VariationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariationError::QuantileOutOfRange(q) => {
                write!(f, "quantile {q} is outside [0, 1]")
            }
            VariationError::NoSamples => f.write_str("need at least one sample"),
            VariationError::NegativeSigma(s) => write!(f, "sigma {s} is negative"),
        }
    }
}

impl std::error::Error for VariationError {}

/// Summary statistics of a sampled f_max distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FmaxDistribution {
    /// Nominal (variation-free) f_max.
    pub nominal: Frequency,
    /// Mean sampled f_max.
    pub mean: Frequency,
    /// Minimum sample (the slow tail).
    pub min: Frequency,
    /// Maximum sample.
    pub max: Frequency,
    /// All samples, ascending.
    pub samples: Vec<Frequency>,
}

impl FmaxDistribution {
    /// The f_max that `quantile` of printed parts meet (e.g. 0.95 → the
    /// clock at which 95 % of prints work).
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::QuantileOutOfRange`] if `quantile` is
    /// outside `[0, 1]` and [`VariationError::NoSamples`] if the
    /// distribution is empty.
    pub fn guard_banded(&self, quantile: f64) -> Result<Frequency, VariationError> {
        if !(0.0..=1.0).contains(&quantile) {
            return Err(VariationError::QuantileOutOfRange(quantile));
        }
        if self.samples.is_empty() {
            return Err(VariationError::NoSamples);
        }
        // `quantile` of parts meet a clock iff their own fmax is at least
        // that clock: take the (1 - quantile) quantile from the bottom.
        let idx = ((1.0 - quantile) * (self.samples.len() - 1) as f64).round() as usize;
        Ok(self.samples[idx])
    }

    /// Fraction of parts that meet a target clock.
    pub fn parametric_yield(&self, clock: Frequency) -> f64 {
        let ok = self.samples.iter().filter(|&&f| f >= clock).count();
        ok as f64 / self.samples.len() as f64
    }
}

/// Draws a lognormal multiplier with median 1 using Box–Muller (keeps the
/// dependency surface at `rand`'s uniform generator).
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let normal = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * normal).exp()
}

/// Samples the f_max distribution of a netlist under per-gate lognormal
/// delay variation.
///
/// # Errors
///
/// Returns [`VariationError::NoSamples`] if `samples` is zero and
/// [`VariationError::NegativeSigma`] if `sigma` is negative.
pub fn fmax_distribution(
    netlist: &Netlist,
    lib: &CellLibrary,
    sigma: f64,
    samples: usize,
    seed: u64,
) -> Result<FmaxDistribution, VariationError> {
    if samples == 0 {
        return Err(VariationError::NoSamples);
    }
    if sigma < 0.0 {
        return Err(VariationError::NegativeSigma(sigma));
    }
    let nominal = crate::analysis::timing(netlist, lib).fmax();
    let mut rng = StdRng::seed_from_u64(seed);

    let mut sampled: Vec<Frequency> = (0..samples)
        .map(|_| {
            let critical = timing_with_variation(netlist, lib, sigma, &mut rng);
            critical.frequency()
        })
        .collect();
    sampled.sort_by(|a, b| a.as_hertz().total_cmp(&b.as_hertz()));

    let mean_hz = sampled.iter().map(|f| f.as_hertz()).sum::<f64>() / samples as f64;
    Ok(FmaxDistribution {
        nominal,
        mean: Frequency::from_hertz(mean_hz),
        min: sampled[0],
        max: *sampled.last().unwrap_or_else(|| unreachable!("samples nonempty")),
        samples: sampled,
    })
}

/// One STA pass with per-gate delay multipliers.
fn timing_with_variation(
    netlist: &Netlist,
    lib: &CellLibrary,
    sigma: f64,
    rng: &mut StdRng,
) -> Time {
    let n = netlist.net_count();
    let mut arrival = vec![Time::ZERO; n];

    let input_delay = lib.synthesis_delay(printed_pdk::CellKind::Dff);
    for nets in netlist.input_ports().values() {
        for net in nets {
            arrival[net.index()] = input_delay;
        }
    }
    for gate in netlist.gates() {
        if gate.is_sequential() {
            arrival[gate.output.index()] = lib.synthesis_delay(gate.kind) * lognormal(rng, sigma);
        }
    }
    for (_, gate) in netlist.topo_order() {
        let mut t = Time::ZERO;
        for input in &gate.inputs {
            t = t.max(arrival[input.index()]);
        }
        arrival[gate.output.index()] = t + lib.synthesis_delay(gate.kind) * lognormal(rng, sigma);
    }

    let mut critical = Time::ZERO;
    for gate in netlist.gates() {
        if gate.is_sequential() {
            for input in &gate.inputs {
                critical = critical.max(arrival[input.index()]);
            }
        }
    }
    for nets in netlist.output_ports().values() {
        for net in nets {
            critical = critical.max(arrival[net.index()]);
        }
    }
    if critical == Time::ZERO {
        critical = lib.synthesis_delay(printed_pdk::CellKind::Inv);
    }
    critical
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::words;
    use printed_pdk::Technology;

    fn adder() -> Netlist {
        let mut b = NetlistBuilder::new("add8");
        let a = b.input("a", 8);
        let c = b.input("b", 8);
        let cin = b.const0();
        let out = words::ripple_adder(&mut b, &a, &c, cin);
        let q = words::register(&mut b, &out.sum, false);
        b.output("sum", q);
        b.finish().unwrap()
    }

    #[test]
    fn zero_sigma_reproduces_nominal() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        let d = fmax_distribution(&nl, lib, 0.0, 8, 42).unwrap();
        for f in &d.samples {
            assert!((f.as_hertz() / d.nominal.as_hertz() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn variation_spreads_the_distribution() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        let d = fmax_distribution(&nl, lib, 0.2, 64, 7).unwrap();
        assert!(d.min < d.nominal, "slow tail exists");
        assert!(d.max > d.min);
        // Guard-banding: the 95%-yield clock is below the mean.
        assert!(d.guard_banded(0.95).unwrap() <= d.mean);
        // The distribution is self-consistent.
        let y = d.parametric_yield(d.guard_banded(0.90).unwrap());
        assert!(y >= 0.89, "90% guard band should pass ~90% of parts (got {y})");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        let a = fmax_distribution(&nl, lib, 0.15, 16, 99).unwrap();
        let b = fmax_distribution(&nl, lib, 0.15, 16, 99).unwrap();
        assert_eq!(a, b);
        let c = fmax_distribution(&nl, lib, 0.15, 16, 100).unwrap();
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn more_variation_means_slower_guard_banded_clock() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        let tight = fmax_distribution(&nl, lib, 0.05, 64, 1).unwrap();
        let loose = fmax_distribution(&nl, lib, 0.30, 64, 1).unwrap();
        assert!(
            loose.guard_banded(0.95).unwrap() < tight.guard_banded(0.95).unwrap(),
            "more process variation demands a bigger guard band"
        );
    }

    #[test]
    fn invalid_parameters_are_errors_not_panics() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        assert_eq!(fmax_distribution(&nl, lib, 0.1, 0, 1), Err(VariationError::NoSamples));
        assert_eq!(
            fmax_distribution(&nl, lib, -0.1, 4, 1),
            Err(VariationError::NegativeSigma(-0.1))
        );
        let d = fmax_distribution(&nl, lib, 0.1, 4, 1).unwrap();
        assert_eq!(d.guard_banded(1.5), Err(VariationError::QuantileOutOfRange(1.5)));
        let empty = FmaxDistribution { samples: Vec::new(), ..d };
        assert_eq!(empty.guard_banded(0.5), Err(VariationError::NoSamples));
    }
}
