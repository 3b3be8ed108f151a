//! Printed SRAM data memory (Section 6, Table 6).
//!
//! "The data memory is realized using a conventional static random-access
//! memory (SRAM) architecture." [`Sram`] is functional (word read/write —
//! the TP-ISA system simulator's data memory) and characterized from the
//! Table 6 1-bit cell. The same power conventions as
//! [`crate::rom::CrossbarRom`] apply; the Table 5 instruction-memory
//! overhead numbers use [`Sram::array_power`] over a RAM-resident program
//! image.

use crate::device::{self, MemoryDevice};
use crate::MemoryError;
use printed_pdk::units::{Area, Energy, Power, Time};
use printed_pdk::Technology;

/// A printed SRAM array holding `words` words of `word_bits` bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Sram {
    technology: Technology,
    word_bits: usize,
    contents: Vec<u64>,
}

impl Sram {
    /// Creates a zero-initialized SRAM of `words` × `word_bits`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::WordTooWide`] if `word_bits` is 0 or over 64.
    pub fn new(
        technology: Technology,
        words: usize,
        word_bits: usize,
    ) -> Result<Self, MemoryError> {
        if word_bits == 0 || word_bits > 64 {
            return Err(MemoryError::WordTooWide(word_bits));
        }
        Ok(Sram { technology, word_bits, contents: vec![0; words] })
    }

    /// Creates an SRAM pre-loaded with `contents` (e.g. a RAM-resident
    /// program for the Table 5 comparison).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::WordTooWide`] or
    /// [`MemoryError::ValueOutOfRange`] as in
    /// [`crate::rom::CrossbarRom::new`].
    pub fn with_contents(
        technology: Technology,
        word_bits: usize,
        contents: Vec<u64>,
    ) -> Result<Self, MemoryError> {
        if word_bits == 0 || word_bits > 64 {
            return Err(MemoryError::WordTooWide(word_bits));
        }
        if word_bits < 64 {
            if let Some(&bad) = contents.iter().find(|&&w| w >> word_bits != 0) {
                return Err(MemoryError::ValueOutOfRange { value: bad, word_bits });
            }
        }
        Ok(Sram { technology, word_bits, contents })
    }

    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::AddressOutOfRange`] past the array.
    pub fn read(&self, addr: usize) -> Result<u64, MemoryError> {
        self.contents
            .get(addr)
            .copied()
            .ok_or(MemoryError::AddressOutOfRange { addr, words: self.contents.len() })
    }

    /// Writes the word at `addr` (masked to the word width).
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::AddressOutOfRange`] past the array.
    pub fn write(&mut self, addr: usize, value: u64) -> Result<(), MemoryError> {
        let words = self.contents.len();
        let slot =
            self.contents.get_mut(addr).ok_or(MemoryError::AddressOutOfRange { addr, words })?;
        *slot = if self.word_bits == 64 { value } else { value & ((1u64 << self.word_bits) - 1) };
        Ok(())
    }

    /// Number of words.
    pub fn word_count(&self) -> usize {
        self.contents.len()
    }

    /// Word width in bits.
    pub fn word_bits(&self) -> usize {
        self.word_bits
    }

    /// Total bits.
    pub fn total_bits(&self) -> usize {
        self.word_count() * self.word_bits
    }

    /// The technology this array is printed in.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Raw contents (for test assertions and program inspection).
    pub fn contents(&self) -> &[u64] {
        &self.contents
    }

    fn cell(&self) -> MemoryDevice {
        device::ram_cell(self.technology)
    }

    /// Printed footprint: one Table 6 cell per bit.
    pub fn area(&self) -> Area {
        self.cell().area * self.total_bits() as f64
    }

    /// Continuous leakage of the whole array.
    pub fn static_power(&self) -> Power {
        self.cell().static_power * self.total_bits() as f64
    }

    /// Power drawn while accessing one word (one row of cells active).
    pub fn access_power(&self) -> Power {
        self.cell().active_power * self.word_bits as f64
    }

    /// Whole-array active power (every cell charged active power).
    pub fn array_active_power(&self) -> Power {
        self.cell().active_power * self.total_bits() as f64
    }

    /// Whole-array power (active + static) — the Table 5 convention.
    pub fn array_power(&self) -> Power {
        self.array_active_power() + self.static_power()
    }

    /// Word access latency.
    pub fn access_delay(&self) -> Time {
        self.cell().delay
    }

    /// Energy of one access.
    pub fn access_energy(&self) -> Energy {
        self.access_power() * self.access_delay()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut ram = Sram::new(Technology::Egfet, 16, 8).unwrap();
        ram.write(3, 0x5A).unwrap();
        assert_eq!(ram.read(3).unwrap(), 0x5A);
        assert_eq!(ram.read(0).unwrap(), 0);
        assert!(ram.read(16).is_err());
        assert!(ram.write(16, 1).is_err());
    }

    #[test]
    fn writes_mask_to_word_width() {
        let mut ram = Sram::new(Technology::Egfet, 4, 8).unwrap();
        ram.write(0, 0x1FF).unwrap();
        assert_eq!(ram.read(0).unwrap(), 0xFF);
    }

    #[test]
    fn table5_msp430_mult_power_is_reproduced() {
        // Table 5: a 512-bit (64-byte) RAM-resident program costs
        // 4.3 cm² and 9.8 mW on EGFET.
        let prog = vec![0u64; 32]; // 32 × 16-bit words = 512 bits
        let ram = Sram::with_contents(Technology::Egfet, 16, prog).unwrap();
        assert!((ram.area().as_cm2() - 4.3).abs() < 0.05, "area {:.2}", ram.area().as_cm2());
        assert!(
            (ram.array_power().as_milliwatts() - 9.8).abs() < 0.1,
            "power {:.2}",
            ram.array_power().as_milliwatts()
        );
    }

    #[test]
    fn ram_is_much_more_expensive_than_rom_per_bit() {
        // Table 6 / §1: "RAM is considerably more expensive than ROM".
        let prog = vec![0u64; 64];
        let ram = Sram::with_contents(Technology::Egfet, 24, prog.clone()).unwrap();
        let rom = crate::rom::CrossbarRom::egfet_slc(24, prog).unwrap();
        assert!(ram.area() / rom.area() > 10.0);
        assert!(ram.access_delay() / rom.access_delay() > 2.0);
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(Sram::new(Technology::Egfet, 4, 0).is_err());
        assert!(Sram::new(Technology::Egfet, 4, 65).is_err());
        assert!(Sram::with_contents(Technology::Egfet, 4, vec![0x10]).is_err());
    }
}
