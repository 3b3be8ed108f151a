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
//! few percent). The samples of one distribution ride one topological
//! walk as lanes, up to 64 per walk, rather than one walk each.

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
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::NoSamples`] if the distribution is empty.
    pub fn parametric_yield(&self, clock: Frequency) -> Result<f64, VariationError> {
        if self.samples.is_empty() {
            return Err(VariationError::NoSamples);
        }
        let ok = self.samples.iter().filter(|&&f| f >= clock).count();
        Ok(ok as f64 / self.samples.len() as f64)
    }
}

/// Per-gate delay multipliers: lognormal with median 1 and log-sigma
/// `sigma`, from standard normals drawn by Marsaglia's polar method. The
/// method needs no trig, keeps the dependency surface at `rand`'s
/// uniform generator, and yields two normals per accepted pair; both
/// are used.
struct DelayMultipliers {
    rng: StdRng,
    sigma: f64,
    /// The second normal of the last accepted pair, not yet used.
    spare: Option<f64>,
    /// Multipliers drawn so far.
    draws: u64,
}

impl DelayMultipliers {
    fn new(seed: u64, sigma: f64) -> Self {
        DelayMultipliers { rng: StdRng::seed_from_u64(seed), sigma, spare: None, draws: 0 }
    }

    /// The next standard normal.
    fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        loop {
            let u: f64 = self.rng.gen_range(-1.0..1.0);
            let v: f64 = self.rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let scale = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * scale);
                return u * scale;
            }
        }
    }

    /// The next delay multiplier.
    fn next(&mut self) -> f64 {
        self.draws += 1;
        (self.sigma * self.normal()).exp()
    }
}

/// Samples one topological walk carries: every net's arrival holds one
/// time per sample, so `samples` take `samples / LANES` walks, rounded
/// up.
const LANES: usize = 64;

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
    let _span = printed_obs::span!("netlist.variation");
    let nominal = crate::analysis::timing(netlist, lib).fmax();
    let mut multipliers = DelayMultipliers::new(seed, sigma);

    let mut sampled: Vec<Frequency> = Vec::with_capacity(samples);
    let mut arrival = Vec::new();
    for first in (0..samples).step_by(LANES) {
        let lanes = LANES.min(samples - first);
        let critical = lane_walk(netlist, lib, lanes, &mut multipliers, &mut arrival);
        sampled.extend(critical[..lanes].iter().map(|t| t.frequency()));
    }
    if printed_obs::enabled() {
        printed_obs::add("netlist.variation.walks", samples.div_ceil(LANES) as u64);
        printed_obs::add("netlist.variation.draws", multipliers.draws);
    }
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

/// One lane per sample: a time for each of [`LANES`] samples.
type Lanes = [Time; LANES];

/// One STA pass over `lanes` samples at once, each gate's delay scaled by
/// its own multiplier in every lane; `arrival` is the per-net buffer,
/// reused across walks. Returns each lane's critical path; lanes past
/// `lanes` are not samples.
fn lane_walk(
    netlist: &Netlist,
    lib: &CellLibrary,
    lanes: usize,
    multipliers: &mut DelayMultipliers,
    arrival: &mut Vec<Lanes>,
) -> Lanes {
    arrival.clear();
    arrival.resize(netlist.net_count(), [Time::ZERO; LANES]);
    let input_delay = lib.synthesis_delay(printed_pdk::CellKind::Dff);
    for nets in netlist.input_ports().values() {
        for net in nets {
            arrival[net.index()] = [input_delay; LANES];
        }
    }
    let sequential = || netlist.gates().iter().filter(|g| g.is_sequential());
    for gate in sequential() {
        let delay = lib.synthesis_delay(gate.kind);
        for t in &mut arrival[gate.output.index()][..lanes] {
            *t = delay * multipliers.next();
        }
    }
    for (_, gate) in netlist.topo_order() {
        let mut t = [Time::ZERO; LANES];
        for input in &gate.inputs {
            let a = &arrival[input.index()];
            for l in 0..LANES {
                t[l] = t[l].max(a[l]);
            }
        }
        let delay = lib.synthesis_delay(gate.kind);
        for t in &mut t[..lanes] {
            *t += delay * multipliers.next();
        }
        arrival[gate.output.index()] = t;
    }

    let mut critical = [Time::ZERO; LANES];
    let mut capture = |net: crate::ir::NetId| {
        let a = &arrival[net.index()];
        for l in 0..LANES {
            critical[l] = critical[l].max(a[l]);
        }
    };
    for gate in sequential() {
        for input in &gate.inputs {
            capture(*input);
        }
    }
    for nets in netlist.output_ports().values() {
        for net in nets {
            capture(*net);
        }
    }
    for t in &mut critical {
        if *t == Time::ZERO {
            *t = lib.synthesis_delay(printed_pdk::CellKind::Inv);
        }
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
        // Odd counts leave the last pair's second normal unused; 63, 64
        // and 65 sit on either side of one walk's lanes.
        for samples in [1, 2, 63, 64, 65] {
            let d = fmax_distribution(&nl, lib, 0.0, samples, 42).unwrap();
            assert_eq!(d.samples.len(), samples);
            for f in &d.samples {
                assert_eq!(f.as_hertz().to_bits(), d.nominal.as_hertz().to_bits(), "{samples}");
            }
        }
    }

    #[test]
    fn log_multipliers_are_normal_with_sigma() {
        let sigma = 0.15;
        let n = 200_000;
        let mut multipliers = DelayMultipliers::new(3, sigma);
        let logs: Vec<f64> = (0..n).map(|_| multipliers.next().ln()).collect();
        assert_eq!(multipliers.draws, n as u64);
        let mean = logs.iter().sum::<f64>() / n as f64;
        let variance = logs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((variance / (sigma * sigma) - 1.0).abs() < 0.03, "variance {variance}");
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
        let y = d.parametric_yield(d.guard_banded(0.90).unwrap()).unwrap();
        assert!(y >= 0.89, "90% guard band should pass ~90% of parts (got {y})");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let nl = adder();
        let lib = Technology::Egfet.library();
        for samples in [16, 65] {
            let a = fmax_distribution(&nl, lib, 0.15, samples, 99).unwrap();
            let b = fmax_distribution(&nl, lib, 0.15, samples, 99).unwrap();
            assert_eq!(a, b);
            let c = fmax_distribution(&nl, lib, 0.15, samples, 100).unwrap();
            assert_ne!(a.samples, c.samples);
        }
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
        assert_eq!(empty.parametric_yield(empty.nominal), Err(VariationError::NoSamples));
    }
}
