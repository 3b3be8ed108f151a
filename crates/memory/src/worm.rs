//! The prior-art WORM instruction memory (Myny et al., reference \[79\]) as the
//! paper's Section 6 baseline.
//!
//! The WORM (write-once read-many) memory is NOR-structured: a 4-to-16
//! line decoder selects a row of the printable memory. The published
//! design point is a 16×9 array needing 815 transistors plus 189 more for
//! programming/interface, at 62.1 mm². The paper's crossbar ROM achieves
//! the same capacity in roughly one third of the area.

use crate::rom::structural_estimate;
use printed_pdk::units::Area;

/// Published characteristics of the Myny et al. WORM memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WormMemory {
    /// Words stored.
    pub words: usize,
    /// Bits per word.
    pub word_bits: usize,
    /// Core array transistors.
    pub array_transistors: usize,
    /// Extra transistors for programming and interface.
    pub interface_transistors: usize,
    /// Total printed area.
    pub area: Area,
}

impl WormMemory {
    /// The published 16×9 design point.
    pub fn reference_16x9() -> Self {
        WormMemory {
            words: 16,
            word_bits: 9,
            array_transistors: 815,
            interface_transistors: 189,
            area: Area::from_mm2(62.1),
        }
    }

    /// Total transistor count.
    pub fn transistors(&self) -> usize {
        self.array_transistors + self.interface_transistors
    }

    /// Scales the published per-bit cost to another geometry (the WORM
    /// area grows linearly in bits; decoder overhead is folded in).
    pub fn scaled(words: usize, word_bits: usize) -> Self {
        let reference = Self::reference_16x9();
        let ratio = (words * word_bits) as f64 / (reference.words * reference.word_bits) as f64;
        WormMemory {
            words,
            word_bits,
            array_transistors: (reference.array_transistors as f64 * ratio).round() as usize,
            interface_transistors: reference.interface_transistors,
            area: reference.area * ratio,
        }
    }
}

/// Side-by-side comparison of the crossbar ROM against the WORM baseline
/// at the same geometry — Section 6's headline: "roughly 1/3 the area".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WormComparison {
    /// The WORM design point.
    pub worm: WormMemory,
    /// Crossbar transistor count.
    pub crossbar_transistors: usize,
    /// Crossbar pull-up resistor count.
    pub crossbar_pull_ups: usize,
    /// Crossbar area.
    pub crossbar_area: Area,
}

impl WormComparison {
    /// Compares at the published 16×9 point.
    pub fn reference() -> Self {
        let worm = WormMemory::reference_16x9();
        let est = structural_estimate(worm.words, worm.word_bits, 1);
        WormComparison {
            worm,
            crossbar_transistors: est.transistors,
            crossbar_pull_ups: est.pull_up_resistors,
            crossbar_area: est.area,
        }
    }

    /// Area advantage of the crossbar (WORM / crossbar).
    pub fn area_ratio(&self) -> f64 {
        self.worm.area / self.crossbar_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_about_a_third_of_worm_area() {
        let cmp = WormComparison::reference();
        // §6: 62.1 mm² WORM vs 20.42 mm² crossbar ≈ 3×.
        assert!((2.6..3.5).contains(&cmp.area_ratio()), "area ratio {:.2}", cmp.area_ratio());
        assert!(cmp.crossbar_transistors < cmp.worm.transistors());
    }

    #[test]
    fn worm_scaling_is_linear_in_bits() {
        let double = WormMemory::scaled(32, 9);
        let reference = WormMemory::reference_16x9();
        assert!((double.area / reference.area - 2.0).abs() < 1e-9);
        assert_eq!(reference.transistors(), 1004);
    }
}
