//! Characterized memory device data (Table 6) for EGFET, plus the derived
//! CNT-TFT equivalents.
//!
//! Table 6 reports per-cell figures for the printed memory devices: the
//! 1-bit SRAM cell, crosspoint ROM cells storing 1, 2 or 4 bits per
//! printed dot, and the ADCs needed to read multi-level (MLC) dots.
//!
//! The paper only publishes EGFET device data. Section 6 describes an
//! "analogous CNT-TFT version" (diode-connected transistors for logic
//! HIGH) and Section 8 gives its one hard number: a 302 µs instruction-ROM
//! access latency. The CNT rows below are derived as documented on
//! [`cnt_rom_cell`] and [`cnt_ram_cell`].

use printed_pdk::units::{Area, Power, Time};
use printed_pdk::Technology;

/// Characterized figures for one memory device (one cell or one ADC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryDevice {
    /// Device name as in Table 6.
    pub name: &'static str,
    /// Printed footprint per device.
    pub area: Area,
    /// Power drawn while the device is being accessed.
    pub active_power: Power,
    /// Power drawn continuously.
    pub static_power: Power,
    /// Access delay.
    pub delay: Time,
}

const fn device(
    name: &'static str,
    area_mm2: f64,
    active_uw: f64,
    static_uw: f64,
    delay_ms: f64,
) -> MemoryDevice {
    MemoryDevice {
        name,
        area: Area::from_mm2(area_mm2),
        active_power: Power::from_microwatts(active_uw),
        static_power: Power::from_microwatts(static_uw),
        delay: Time::from_millis(delay_ms),
    }
}

/// Table 6: 1-bit EGFET SRAM cell.
pub const EGFET_RAM_1BIT: MemoryDevice = device("1-bit RAM", 0.84, 16.0, 3.23, 2.5);
/// Table 6: 1-bit crosspoint ROM cell.
pub const EGFET_ROM_1BIT: MemoryDevice = device("1-bit ROM", 0.05, 2.77, 0.362, 1.03);
/// Table 6: 2-bit MLC crosspoint ROM cell (one printed dot, two bits).
pub const EGFET_ROM_2BIT: MemoryDevice = device("2-bit ROM", 0.057, 1.87, 0.362, 1.56);
/// Table 6: 4-bit MLC crosspoint ROM cell.
pub const EGFET_ROM_4BIT: MemoryDevice = device("4-bit ROM", 0.087, 3.01, 0.362, 3.1);
/// Table 6: 2-bit ADC for reading 2-bit MLC dots.
pub const EGFET_ADC_2BIT: MemoryDevice = device("2-bit ADC", 3.76, 56.8, 4.5, 5.63);
/// Table 6: 4-bit ADC for reading 4-bit MLC dots.
pub const EGFET_ADC_4BIT: MemoryDevice = device("4-bit ADC", 25.4, 306.0, 22.5, 13.8);

/// All EGFET Table 6 rows, in table order.
pub const TABLE6: [MemoryDevice; 6] = [
    EGFET_RAM_1BIT,
    EGFET_ROM_1BIT,
    EGFET_ROM_2BIT,
    EGFET_ROM_4BIT,
    EGFET_ADC_2BIT,
    EGFET_ADC_4BIT,
];

/// Area scale from EGFET to CNT-TFT devices: the INVX1 footprint ratio
/// from Table 2 (0.002 / 0.224 ≈ 1/112), since both arrays are
/// transistor-pitch limited.
const CNT_AREA_SCALE: f64 = 0.002 / 0.224;

/// Delay scale from EGFET to CNT-TFT ROM: Section 8 gives the CNT
/// instruction-ROM access latency as 302 µs; the EGFET 1-bit ROM reads in
/// 1.03 ms, so CNT memory is ≈0.293× the EGFET delay.
const CNT_DELAY_SCALE: f64 = 0.302 / 1.03;

/// Static power scale for CNT: pseudo-CMOS has no resistor pull-up, so we
/// take one order of magnitude less static draw (the same ratio the cell
/// libraries' calibrated per-stage constants imply per unit area is far
/// smaller; this is conservative).
const CNT_STATIC_SCALE: f64 = 0.1;

fn scale_to_cnt(d: MemoryDevice) -> MemoryDevice {
    MemoryDevice {
        name: d.name,
        area: d.area * CNT_AREA_SCALE,
        // Active power is kept: the 3 V supply offsets the smaller devices.
        active_power: d.active_power,
        static_power: d.static_power * CNT_STATIC_SCALE,
        delay: d.delay * CNT_DELAY_SCALE,
    }
}

/// ROM crosspoint cell for a technology and MLC level (1, 2 or 4 bits per
/// printed dot).
///
/// # Panics
///
/// Panics if `bits_per_cell` is not 1, 2 or 4.
pub fn rom_cell(technology: Technology, bits_per_cell: u8) -> MemoryDevice {
    let egfet = match bits_per_cell {
        1 => EGFET_ROM_1BIT,
        2 => EGFET_ROM_2BIT,
        4 => EGFET_ROM_4BIT,
        other => panic!("unsupported MLC level: {other} bits per cell"),
    };
    match technology {
        Technology::Egfet => egfet,
        Technology::CntTft => cnt_rom_cell(bits_per_cell),
    }
}

/// CNT-TFT crosspoint ROM cell, derived from the EGFET row (see the
/// module docs and the scale constants).
pub fn cnt_rom_cell(bits_per_cell: u8) -> MemoryDevice {
    scale_to_cnt(rom_cell(Technology::Egfet, bits_per_cell))
}

/// SRAM cell for a technology.
pub fn ram_cell(technology: Technology) -> MemoryDevice {
    match technology {
        Technology::Egfet => EGFET_RAM_1BIT,
        Technology::CntTft => cnt_ram_cell(),
    }
}

/// CNT-TFT SRAM cell, derived from the EGFET row with the same scales as
/// [`cnt_rom_cell`].
pub fn cnt_ram_cell() -> MemoryDevice {
    scale_to_cnt(EGFET_RAM_1BIT)
}

/// The MLC read ADC for a technology and MLC level. Returns `None` for
/// single-level cells, which need no ADC.
///
/// # Panics
///
/// Panics if `bits_per_cell` is not 1, 2 or 4.
pub fn adc(technology: Technology, bits_per_cell: u8) -> Option<MemoryDevice> {
    let egfet = match bits_per_cell {
        1 => return None,
        2 => EGFET_ADC_2BIT,
        4 => EGFET_ADC_4BIT,
        other => panic!("unsupported MLC level: {other} bits per cell"),
    };
    Some(match technology {
        Technology::Egfet => egfet,
        Technology::CntTft => scale_to_cnt(egfet),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_rom_vs_ram_ratios() {
        // §1/§9: "Crosspoint-based instruction ROM outperforms a RAM-based
        // design by 5.77x, 16.8x, and 2.42x respectively in terms of power,
        // area, and delay." These are exactly the per-cell Table 6 ratios.
        let ram = EGFET_RAM_1BIT;
        let rom = EGFET_ROM_1BIT;
        let power_ratio = ram.active_power / rom.active_power;
        let area_ratio = ram.area / rom.area;
        let delay_ratio = ram.delay / rom.delay;
        assert!((power_ratio - 5.77).abs() < 0.01, "power ratio {power_ratio}");
        assert!((area_ratio - 16.8).abs() < 0.01, "area ratio {area_ratio}");
        assert!((delay_ratio - 2.42).abs() < 0.02, "delay ratio {delay_ratio}");
    }

    #[test]
    fn mlc_cells_are_denser_per_bit() {
        let slc = EGFET_ROM_1BIT.area.as_mm2();
        let mlc2 = EGFET_ROM_2BIT.area.as_mm2() / 2.0;
        let mlc4 = EGFET_ROM_4BIT.area.as_mm2() / 4.0;
        assert!(mlc2 < slc);
        assert!(mlc4 < mlc2);
    }

    #[test]
    fn cnt_rom_latency_matches_section8() {
        // §8: "CNT-TFT execution times are dominated by 302 µs ROM access
        // latencies".
        let d = cnt_rom_cell(1).delay;
        assert!((d.as_micros() - 302.0).abs() < 1.0);
    }

    #[test]
    fn adc_needed_only_for_mlc() {
        assert!(adc(Technology::Egfet, 1).is_none());
        assert!(adc(Technology::Egfet, 2).is_some());
        assert!(adc(Technology::CntTft, 4).is_some());
    }

    #[test]
    #[should_panic(expected = "unsupported MLC level")]
    fn bad_mlc_level_panics() {
        let _ = rom_cell(Technology::Egfet, 3);
    }

    #[test]
    fn table6_is_transcribed() {
        assert_eq!(TABLE6.len(), 6);
        assert!((EGFET_ADC_4BIT.area.as_mm2() - 25.4).abs() < 1e-12);
        assert!((EGFET_ROM_2BIT.delay.as_millis() - 1.56).abs() < 1e-12);
        assert!((EGFET_RAM_1BIT.static_power.as_microwatts() - 3.23).abs() < 1e-12);
    }
}
