//! Crosspoint-based instruction ROM (Section 6, Figure 9).
//!
//! The paper's instruction memory is a crossbar: a crosspoint shorted with
//! printed PEDOT:PSS reads as logic HIGH through a shared sensing
//! resistor; an open crosspoint reads LOW. One sub-block per output bit
//! group shares row/column decoders with all other sub-blocks. Multi-level
//! cells (MLC) print dots of varying geometry to store 2 or 4 bits per
//! crosspoint, read through an ADC.
//!
//! [`CrossbarRom`] is both *functional* (it stores a program image and
//! serves reads — the TP-ISA system simulator fetches from it) and
//! *characterized* (area / power / delay from Table 6 device data).
//!
//! Two power conventions exist in the paper and both are exposed:
//! - [`CrossbarRom::array_active_power`]: every cell charged its active
//!   power — the conservative whole-array figure behind Table 5.
//! - [`CrossbarRom::access_power`]: one crosspoint per sub-block active
//!   (what a fetch actually drives) plus nothing static — combine with
//!   [`CrossbarRom::static_power`] for system-level energy (Figure 8).

use crate::device::{self, MemoryDevice};
use crate::MemoryError;
use printed_pdk::units::{Area, Energy, Power, Time};
use printed_pdk::Technology;

/// A read-only crossbar memory holding a program image.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarRom {
    technology: Technology,
    word_bits: usize,
    bits_per_cell: u8,
    contents: Vec<u64>,
}

impl CrossbarRom {
    /// Builds a ROM storing `contents`, each word `word_bits` wide, using
    /// `bits_per_cell`-level crosspoints (1, 2 or 4).
    ///
    /// # Errors
    ///
    /// - [`MemoryError::WordTooWide`] if `word_bits` is 0 or exceeds 64.
    /// - [`MemoryError::UnsupportedMlc`] if `bits_per_cell` is not 1, 2, 4.
    /// - [`MemoryError::ValueOutOfRange`] if any word does not fit in
    ///   `word_bits` bits.
    pub fn new(
        technology: Technology,
        word_bits: usize,
        bits_per_cell: u8,
        contents: Vec<u64>,
    ) -> Result<Self, MemoryError> {
        if word_bits == 0 || word_bits > 64 {
            return Err(MemoryError::WordTooWide(word_bits));
        }
        if !matches!(bits_per_cell, 1 | 2 | 4) {
            return Err(MemoryError::UnsupportedMlc(bits_per_cell));
        }
        if word_bits < 64 {
            if let Some(&bad) = contents.iter().find(|&&w| w >> word_bits != 0) {
                return Err(MemoryError::ValueOutOfRange { value: bad, word_bits });
            }
        }
        Ok(CrossbarRom { technology, word_bits, bits_per_cell, contents })
    }

    /// Convenience constructor for a single-level-cell EGFET instruction
    /// ROM — the paper's default configuration.
    pub fn egfet_slc(word_bits: usize, contents: Vec<u64>) -> Result<Self, MemoryError> {
        CrossbarRom::new(Technology::Egfet, word_bits, 1, contents)
    }

    /// Reads the word at `addr`, or `None` past the end of the program.
    pub fn read(&self, addr: usize) -> Option<u64> {
        self.contents.get(addr).copied()
    }

    /// Number of words stored.
    pub fn word_count(&self) -> usize {
        self.contents.len()
    }

    /// Word width in bits.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// MLC level (bits per printed dot).
    pub fn bits_per_cell(&self) -> u8 {
        self.bits_per_cell
    }

    /// The technology this ROM is printed in.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Total stored bits.
    pub fn total_bits(&self) -> usize {
        self.word_count() * self.word_bits
    }

    /// Printed crosspoints (dots), after MLC packing.
    pub fn crosspoints(&self) -> usize {
        self.total_bits().div_ceil(self.bits_per_cell as usize)
    }

    /// Sub-blocks: one per `bits_per_cell` slice of the output word; each
    /// sub-block owns one sense path (and one ADC for MLC).
    pub fn sub_blocks(&self) -> usize {
        self.word_bits.div_ceil(self.bits_per_cell as usize)
    }

    fn cell(&self) -> MemoryDevice {
        device::rom_cell(self.technology, self.bits_per_cell)
    }

    fn adc(&self) -> Option<MemoryDevice> {
        device::adc(self.technology, self.bits_per_cell)
    }

    /// Printed footprint: crosspoint array plus one ADC per sub-block for
    /// MLC configurations.
    pub fn area(&self) -> Area {
        let mut a = self.cell().area * self.crosspoints() as f64;
        if let Some(adc) = self.adc() {
            a += adc.area * self.sub_blocks() as f64;
        }
        a
    }

    /// Continuous (leakage / sense pull-up) power of the whole array.
    pub fn static_power(&self) -> Power {
        let mut p = self.cell().static_power * self.crosspoints() as f64;
        if let Some(adc) = self.adc() {
            p += adc.static_power * self.sub_blocks() as f64;
        }
        p
    }

    /// Power drawn during a fetch: one crosspoint per sub-block is sensed,
    /// and each sub-block's ADC (if any) converts.
    pub fn access_power(&self) -> Power {
        let mut p = self.cell().active_power * self.sub_blocks() as f64;
        if let Some(adc) = self.adc() {
            p += adc.active_power * self.sub_blocks() as f64;
        }
        p
    }

    /// Whole-array active power — the Table 5 convention, where the
    /// instruction memory is charged every cell's active power.
    pub fn array_active_power(&self) -> Power {
        let mut p = self.cell().active_power * self.crosspoints() as f64;
        if let Some(adc) = self.adc() {
            p += adc.active_power * self.sub_blocks() as f64;
        }
        p
    }

    /// Whole-array power (active + static), the figure Table 5 reports.
    pub fn array_power(&self) -> Power {
        self.array_active_power() + self.static_power()
    }

    /// Fetch latency: crosspoint sensing plus ADC conversion for MLC.
    pub fn access_delay(&self) -> Time {
        let mut d = self.cell().delay;
        if let Some(adc) = self.adc() {
            d += adc.delay;
        }
        d
    }

    /// Energy of one fetch: access power over the access delay.
    pub fn access_energy(&self) -> Energy {
        self.access_power() * self.access_delay()
    }
}

/// Structural transistor/resistor estimate of a crossbar ROM, following
/// Section 6's accounting for the 16×9 example (220 transistors, 52
/// pull-up resistors, 20.42 mm²).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StructuralEstimate {
    /// Select and decode transistors.
    pub transistors: usize,
    /// Pull-up resistors (sense + decode + address buffers).
    pub pull_up_resistors: usize,
    /// Estimated printed area including the crosspoint array.
    pub area: Area,
}

/// EGFET select/decode transistor footprint (device plus routing share).
const EGFET_XTOR_AREA_MM2: f64 = 0.05;
/// EGFET printed pull-up resistor footprint.
const EGFET_RESISTOR_AREA_MM2: f64 = 0.042;

/// Estimates the structural cost of a `rows × word_bits` single-column
/// crossbar (the organization of the paper's 16×9 comparison).
pub fn structural_estimate(rows: usize, word_bits: usize, bits_per_cell: u8) -> StructuralEstimate {
    let sub_blocks = word_bits.div_ceil(bits_per_cell as usize);
    let cols = 1usize;
    let addr_bits = usize::BITS as usize - (rows.max(2) - 1).leading_zeros() as usize;
    let crosspoints = rows * sub_blocks;

    // One select transistor per row and per column in each sub-block,
    // plus a row decoder charged one transistor per row per address bit.
    let select = (rows + cols) * sub_blocks;
    let decode = rows * addr_bits;
    let transistors = select + decode;

    // Pull-ups: one sense resistor per sub-block, one per decoder output
    // and per row/column driver, and two per buffered address line.
    let pull_up_resistors = sub_blocks + 2 * (rows + cols) + 2 * addr_bits;

    let cell = device::rom_cell(Technology::Egfet, bits_per_cell);
    let area = cell.area * crosspoints as f64
        + Area::from_mm2(EGFET_XTOR_AREA_MM2) * transistors as f64
        + Area::from_mm2(EGFET_RESISTOR_AREA_MM2) * pull_up_resistors as f64;

    StructuralEstimate { transistors, pull_up_resistors, area }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn functional_reads_round_trip() {
        let rom = CrossbarRom::egfet_slc(24, vec![0xABCDEF, 0x123456, 0x000001]).unwrap();
        assert_eq!(rom.read(0), Some(0xABCDEF));
        assert_eq!(rom.read(2), Some(0x000001));
        assert_eq!(rom.read(3), None);
        assert_eq!(rom.word_count(), 3);
        assert_eq!(rom.total_bits(), 72);
    }

    #[test]
    fn rejects_out_of_range_words() {
        let err = CrossbarRom::egfet_slc(8, vec![0x1FF]);
        assert!(matches!(err, Err(MemoryError::ValueOutOfRange { .. })));
    }

    #[test]
    fn rejects_bad_widths_and_mlc() {
        assert!(matches!(
            CrossbarRom::new(Technology::Egfet, 0, 1, vec![]),
            Err(MemoryError::WordTooWide(0))
        ));
        assert!(matches!(
            CrossbarRom::new(Technology::Egfet, 65, 1, vec![]),
            Err(MemoryError::WordTooWide(65))
        ));
        assert!(matches!(
            CrossbarRom::new(Technology::Egfet, 8, 3, vec![]),
            Err(MemoryError::UnsupportedMlc(3))
        ));
    }

    #[test]
    fn mlc_halves_crosspoints() {
        let prog = vec![0u64; 256];
        let slc = CrossbarRom::new(Technology::Egfet, 24, 1, prog.clone()).unwrap();
        let mlc = CrossbarRom::new(Technology::Egfet, 24, 2, prog).unwrap();
        assert_eq!(slc.crosspoints(), 6144);
        assert_eq!(mlc.crosspoints(), 3072);
        assert_eq!(slc.sub_blocks(), 24);
        assert_eq!(mlc.sub_blocks(), 12);
    }

    #[test]
    fn dtree_romopt_saves_about_30_percent_area() {
        // §8: "With 256 instruction words, using a 2-bit MLC ROM cell
        // reduces instruction memory area by almost 30%".
        let prog = vec![0u64; 256];
        let slc = CrossbarRom::new(Technology::Egfet, 24, 1, prog.clone()).unwrap();
        let mlc = CrossbarRom::new(Technology::Egfet, 24, 2, prog).unwrap();
        let saving = 1.0 - mlc.area() / slc.area();
        assert!((0.25..0.32).contains(&saving), "MLC area saving was {:.1}%", saving * 100.0);
    }

    #[test]
    fn structural_estimate_matches_section6_example() {
        // §6: a 16×9 crossbar needs 220 transistors and 52 pull-up
        // resistors, total area 20.42 mm².
        let est = structural_estimate(16, 9, 1);
        assert!(
            (est.transistors as f64 - 220.0).abs() / 220.0 < 0.15,
            "transistors {}",
            est.transistors
        );
        assert!(
            (est.pull_up_resistors as f64 - 52.0).abs() / 52.0 < 0.15,
            "pull-ups {}",
            est.pull_up_resistors
        );
        assert!(
            (est.area.as_mm2() - 20.42).abs() / 20.42 < 0.10,
            "area {:.2} mm2",
            est.area.as_mm2()
        );
    }

    #[test]
    fn access_energy_is_small_relative_to_static_over_a_cycle() {
        // At EGFET core speeds (~50 ms cycles) the ROM's static power over
        // a cycle dominates a single fetch's access energy — why Figure 8's
        // IM energy component tracks area.
        let rom = CrossbarRom::egfet_slc(24, vec![0; 256]).unwrap();
        let fetch = rom.access_energy();
        let static_per_cycle = rom.static_power() * printed_pdk::units::Time::from_millis(50.0);
        assert!(static_per_cycle.as_joules() > fetch.as_joules());
    }

    #[test]
    fn cnt_rom_is_smaller_and_faster() {
        let prog = vec![0u64; 64];
        let egfet = CrossbarRom::new(Technology::Egfet, 16, 1, prog.clone()).unwrap();
        let cnt = CrossbarRom::new(Technology::CntTft, 16, 1, prog).unwrap();
        assert!(cnt.area() < egfet.area() * 0.05);
        assert!(cnt.access_delay() < egfet.access_delay());
    }
}
