//! Core configuration: the paper's design-space axes (Section 5.2).
//!
//! Cores are described as `pP_D_B` where `P` is pipeline depth, `D` the
//! datawidth, and `B` the BAR count — e.g. `p1_8_2` is the single-cycle
//! 8-bit core with two base address registers.

use crate::isa::Encoding;
use std::fmt;

/// A point in the TP-ISA design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// Data and ALU width in bits (4, 8, 16 or 32 in the paper's sweep).
    pub datawidth: usize,
    /// Pipeline depth (1, 2 or 3). Single-cycle cores dominate in printed
    /// technologies (Figure 7 / Section 8).
    pub pipeline_stages: usize,
    /// Base address registers, including the hardwired-zero BAR0 (2 or 4).
    pub bars: u8,
}

impl CoreConfig {
    /// Creates a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the datawidth is outside `2..=64`, the pipeline depth is
    /// outside `1..=3`, or the BAR count is not a power of two in `1..=8`.
    pub fn new(pipeline_stages: usize, datawidth: usize, bars: u8) -> Self {
        assert!((2..=64).contains(&datawidth), "datawidth {datawidth} out of range");
        assert!(
            (1..=3).contains(&pipeline_stages),
            "pipeline depth {pipeline_stages} out of range"
        );
        assert!(
            bars.is_power_of_two() && (1..=8).contains(&bars),
            "BAR count {bars} must be a power of two in 1..=8"
        );
        CoreConfig { datawidth, pipeline_stages, bars }
    }

    /// The paper's naming scheme, e.g. `p1_8_2`.
    pub fn name(&self) -> String {
        format!("p{}_{}_{}", self.pipeline_stages, self.datawidth, self.bars)
    }

    /// The standard instruction encoding for this configuration.
    pub fn encoding(&self) -> Encoding {
        Encoding::with_bars(self.bars)
    }

    /// The full 24-point design space of Figure 7:
    /// pipelines {1,2,3} × widths {4,8,16,32} × BARs {2,4}.
    pub fn design_space() -> Vec<CoreConfig> {
        let mut space = Vec::with_capacity(24);
        for &p in &[1usize, 2, 3] {
            for &d in &[4usize, 8, 16, 32] {
                for &b in &[2u8, 4] {
                    space.push(CoreConfig::new(p, d, b));
                }
            }
        }
        space
    }
}

impl Default for CoreConfig {
    /// The paper's headline core: single-cycle, 8-bit, 2 BARs.
    fn default() -> Self {
        CoreConfig::new(1, 8, 2)
    }
}

impl fmt::Display for CoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_space_has_24_points() {
        let space = CoreConfig::design_space();
        assert_eq!(space.len(), 24);
        assert!(space.contains(&CoreConfig::new(1, 4, 4))); // fastest (Fig. 7)
        assert!(space.contains(&CoreConfig::new(3, 32, 2))); // slowest
    }

    #[test]
    fn names_match_the_paper() {
        assert_eq!(CoreConfig::new(1, 8, 2).name(), "p1_8_2");
        assert_eq!(CoreConfig::new(3, 32, 4).name(), "p3_32_4");
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn rejects_deep_pipelines() {
        let _ = CoreConfig::new(4, 8, 2);
    }
}
