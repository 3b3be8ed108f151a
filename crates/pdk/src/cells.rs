//! Standard-cell libraries for the EGFET and CNT-TFT printed technologies.
//!
//! The cell set and per-cell characteristics are the paper's Table 2,
//! transcribed verbatim: area in mm², switching energy in nJ, rise/fall
//! delays in µs (EGFET at V_DD = 1 V, CNT-TFT at V_DD = 3 V).
//!
//! Static power is not broken out in Table 2 (the published numbers fold the
//! resistor pull-up current of EGFET's transistor–resistor logic into the
//! application-level power results). We model it explicitly as
//! `stage count × per-stage static power`, with per-technology constants
//! calibrated against Table 4 (see [`crate::calibration`]).
//!
//! ```
//! use printed_pdk::{CellKind, Technology};
//!
//! let lib = Technology::Egfet.library();
//! let dff = lib.cell(CellKind::Dff);
//! let inv = lib.cell(CellKind::Inv);
//! // The paper's first architectural insight: DFFs are far more expensive
//! // than combinational cells in printed technologies.
//! assert!(dff.area.as_mm2() > 6.0 * inv.area.as_mm2());
//! ```

use crate::units::{Area, Energy, Power, Time};
use std::fmt;

/// The two low-voltage printed technologies the paper builds libraries for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Technology {
    /// Electrolyte-gated FET: fully additive inkjet printing, V_DD < 1 V,
    /// n-type only, transistor–resistor logic. Cheap and slow.
    Egfet,
    /// Carbon-nanotube thin-film transistor: subtractive shadow-mask
    /// printing, V_DD = 3 V, p-type pseudo-CMOS. Expensive and fast.
    CntTft,
}

impl Technology {
    /// Both technologies, in the order the paper's tables list them.
    pub const ALL: [Technology; 2] = [Technology::Egfet, Technology::CntTft];

    /// Nominal supply voltage (1 V for EGFET, 3 V for CNT-TFT).
    pub fn supply_voltage(self) -> crate::units::Voltage {
        match self {
            Technology::Egfet => crate::units::Voltage::from_volts(1.0),
            Technology::CntTft => crate::units::Voltage::from_volts(3.0),
        }
    }

    /// Returns this technology's standard-cell library (X1 drive — the
    /// strength the paper performs all analysis with).
    pub fn library(self) -> &'static CellLibrary {
        match self {
            Technology::Egfet => &EGFET_LIBRARY,
            Technology::CntTft => &CNT_TFT_LIBRARY,
        }
    }

    /// Returns the X4 (high drive strength) variant of this technology's
    /// library. The paper's footnote 3 mentions developing an X4 library
    /// but analyzing with X1 "due to lower leakage"; this derived library
    /// lets that tradeoff be measured (see the tests).
    pub fn library_x4(self) -> &'static CellLibrary {
        match self {
            Technology::Egfet => &EGFET_X4_LIBRARY,
            Technology::CntTft => &CNT_TFT_X4_LIBRARY,
        }
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Technology::Egfet => "EGFET",
            Technology::CntTft => "CNT-TFT",
        })
    }
}

/// The eleven X1 standard cells of the paper's libraries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CellKind {
    /// NOT (INVX1).
    Inv,
    /// 2-input NAND (NAND2X1).
    Nand2,
    /// 2-input NOR (NOR2X1).
    Nor2,
    /// 2-input AND (AND2X1).
    And2,
    /// 2-input OR (OR2X1).
    Or2,
    /// 2-input XOR (XOR2X1).
    Xor2,
    /// 2-input XNOR (XNOR2X1).
    Xnor2,
    /// SR latch (LATCHX1).
    Latch,
    /// D flip-flop (DFFX1).
    Dff,
    /// D flip-flop with asynchronous reset (DFFNRX1).
    DffNr,
    /// Tri-state buffer (TSBUFX1).
    TsBuf,
}

impl CellKind {
    /// All cells, in Table 2 order.
    pub const ALL: [CellKind; 11] = [
        CellKind::Inv,
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::Latch,
        CellKind::Dff,
        CellKind::DffNr,
        CellKind::TsBuf,
    ];

    /// Library cell name, as it appears in Table 2.
    pub fn name(self) -> &'static str {
        match self {
            CellKind::Inv => "INVX1",
            CellKind::Nand2 => "NAND2X1",
            CellKind::Nor2 => "NOR2X1",
            CellKind::And2 => "AND2X1",
            CellKind::Or2 => "OR2X1",
            CellKind::Xor2 => "XOR2X1",
            CellKind::Xnor2 => "XNOR2X1",
            CellKind::Latch => "LATCHX1",
            CellKind::Dff => "DFFX1",
            CellKind::DffNr => "DFFNRX1",
            CellKind::TsBuf => "TSBUFX1",
        }
    }

    /// Number of logic inputs the cell exposes (clock and control pins
    /// excluded).
    pub fn input_count(self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Dff | CellKind::DffNr => 1,
            CellKind::Latch => 2, // S and R
            CellKind::TsBuf => 2, // data and enable
            _ => 2,
        }
    }

    /// Whether this is a sequential (state-holding) cell. The paper's key
    /// architectural observations all flow from sequential cells being
    /// disproportionately expensive in printed technologies.
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Latch | CellKind::Dff | CellKind::DffNr)
    }

    /// Number of internal gate stages, used by the static-power model: each
    /// stage of EGFET transistor–resistor logic has a resistor pull-up that
    /// conducts whenever the output is low; pseudo-CMOS CNT stages leak
    /// similarly but far less.
    pub const fn stage_count(self) -> usize {
        match self {
            CellKind::Inv => 1,
            CellKind::Nand2 | CellKind::Nor2 => 1,
            CellKind::And2 | CellKind::Or2 => 2,
            CellKind::Xor2 | CellKind::Xnor2 => 3,
            CellKind::Latch => 2,
            CellKind::Dff => 6,
            CellKind::DffNr => 8,
            CellKind::TsBuf => 2,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Characterized figures for one standard cell in one technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellCharacteristics {
    /// Which cell this row describes.
    pub kind: CellKind,
    /// Printed footprint.
    pub area: Area,
    /// Energy dissipated per output transition.
    pub switch_energy: Energy,
    /// Output rise propagation delay.
    pub rise_delay: Time,
    /// Output fall propagation delay.
    pub fall_delay: Time,
    /// Static (leakage / pull-up) power, modeled per the module docs.
    pub static_power: Power,
}

impl CellCharacteristics {
    /// Average of rise and fall delay — the figure static timing analysis
    /// charges per logic level.
    pub fn average_delay(self) -> Time {
        (self.rise_delay + self.fall_delay) / 2.0
    }
}

/// A synthesis-ready standard-cell library for one printed technology.
#[derive(Debug, Clone, PartialEq)]
pub struct CellLibrary {
    technology: Technology,
    cells: [CellCharacteristics; 11],
    /// Factor applied to Table 2 delays when estimating synthesized critical
    /// paths (see [`crate::calibration`]).
    timing_derate: f64,
    /// Factor applied to Table 2 switching energies in synthesis context
    /// (see [`crate::calibration`]).
    energy_derate: f64,
    /// Relative output drive (1.0 for X1, 4.0 for X4).
    drive_strength: f64,
}

impl CellLibrary {
    /// The library's technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Looks up one cell's characteristics.
    pub fn cell(&self, kind: CellKind) -> CellCharacteristics {
        self.cells[Self::index(kind)]
    }

    /// Iterates over all cells in Table 2 order.
    pub fn iter(&self) -> impl Iterator<Item = &CellCharacteristics> {
        self.cells.iter()
    }

    /// Per-level delay used by synthesized-netlist timing: Table 2 average
    /// delay × the technology's calibration derate.
    pub fn synthesis_delay(&self, kind: CellKind) -> Time {
        self.cell(kind).average_delay() * self.timing_derate
    }

    /// Switching energy with the technology's calibration scale applied.
    pub fn synthesis_energy(&self, kind: CellKind) -> Energy {
        self.cell(kind).switch_energy * self.energy_derate
    }

    /// Relative output drive strength of this library's cells (1.0 for the
    /// X1 cells the paper analyzes with, 4.0 for the footnote-3 X4 cells).
    pub fn drive_strength(&self) -> f64 {
        self.drive_strength
    }

    /// Maximum fanout a cell of `kind` can drive without violating the
    /// technology's drive model.
    ///
    /// Table 2 characterizes cells into a single typical load; how many
    /// loads an output can actually drive before its edges degrade beyond
    /// the timing derate differs sharply between the two technologies.
    /// EGFET's transistor–resistor stages pull up through a fixed printed
    /// resistor, so the rise edge slows roughly linearly in the number of
    /// gate loads sharing that current. Pseudo-CMOS CNT-TFT stages drive
    /// actively and tolerate roughly twice the load. Sequential cells and
    /// the tri-state buffer end in a buffered output stage and drive twice
    /// their technology's base fanout; higher drive strengths (X4) scale
    /// the budget by the width ratio.
    pub fn max_fanout(&self, kind: CellKind) -> usize {
        let base = match self.technology {
            Technology::Egfet => 4,
            Technology::CntTft => 8,
        };
        let buffered = match kind {
            CellKind::Dff | CellKind::DffNr | CellKind::Latch | CellKind::TsBuf => 2,
            _ => 1,
        };
        ((base * buffered) as f64 * self.drive_strength) as usize
    }

    /// Fanout budget for nets driven by primary inputs rather than by a
    /// cell — external drivers (pads, test equipment, an upstream printed
    /// block) are assumed buffered, so they get the sequential-cell budget.
    pub fn max_input_fanout(&self) -> usize {
        self.max_fanout(CellKind::Dff)
    }

    /// Delay derating factor for a cell of `kind` driving `load` gate
    /// input pins: 1.0 within the [`CellLibrary::max_fanout`] budget,
    /// rising linearly (`load / budget`) beyond it — the same
    /// resistor-limited edge-degradation model the fanout lint rule
    /// budgets against, exposed as a number so static timing can annotate
    /// overloaded nets.
    pub fn drive_derate(&self, kind: CellKind, load: usize) -> f64 {
        let budget = self.max_fanout(kind).max(1);
        if load <= budget {
            1.0
        } else {
            load as f64 / budget as f64
        }
    }

    /// Per-level delay of a cell of `kind` under `load` gate input pins:
    /// [`CellLibrary::synthesis_delay`] scaled by
    /// [`CellLibrary::drive_derate`]. Equals the plain synthesis delay
    /// whenever the load respects the drive budget (which the linter
    /// enforces), so nominal-timing consumers can use either
    /// interchangeably on clean designs.
    pub fn loaded_delay(&self, kind: CellKind, load: usize) -> Time {
        self.synthesis_delay(kind) * self.drive_derate(kind, load)
    }

    fn index(kind: CellKind) -> usize {
        CellKind::ALL
            .iter()
            .position(|&k| k == kind)
            .unwrap_or_else(|| unreachable!("CellKind::ALL covers every variant"))
    }
}

/// Raw Table 2 rows: (cell, area mm², energy nJ, rise µs, fall µs).
const EGFET_TABLE2: [(CellKind, f64, f64, f64, f64); 11] = [
    (CellKind::Inv, 0.224, 9.8, 1212.0, 174.0),
    (CellKind::Nand2, 0.247, 12.1, 1557.0, 986.0),
    (CellKind::Nor2, 0.399, 580.0, 1830.0, 904.0),
    (CellKind::And2, 0.433, 584.1, 2101.0, 1284.0),
    (CellKind::Or2, 0.563, 603.0, 2040.0, 1271.0),
    (CellKind::Xor2, 1.04, 1460.0, 5474.0, 4982.0),
    (CellKind::Xnor2, 1.34, 1510.0, 6159.0, 3420.0),
    (CellKind::Latch, 0.58, 624.0, 2643.0, 942.0),
    (CellKind::Dff, 1.41, 2360.0, 6149.0, 3923.0),
    (CellKind::DffNr, 2.77, 3941.0, 5935.0, 4453.0),
    (CellKind::TsBuf, 0.446, 597.0, 2553.0, 1004.0),
];

const CNT_TABLE2: [(CellKind, f64, f64, f64, f64); 11] = [
    (CellKind::Inv, 0.002, 0.093, 0.058, 2.9),
    (CellKind::Nand2, 0.003, 10.01, 0.088, 7.99),
    (CellKind::Nor2, 0.003, 18.61, 0.108, 3.65),
    (CellKind::And2, 0.005, 18.35, 0.171, 8.05),
    (CellKind::Or2, 0.005, 21.33, 0.121, 4.10),
    (CellKind::Xor2, 0.012, 36.7, 1.908, 5.65),
    (CellKind::Xnor2, 0.014, 37.1, 2.118, 5.97),
    (CellKind::Latch, 0.006, 19.55, 0.221, 3.75),
    (CellKind::Dff, 0.018, 41.5, 3.78, 4.19),
    (CellKind::DffNr, 0.042, 50.7, 8.61, 8.77),
    (CellKind::TsBuf, 0.003, 19.5, 0.109, 2.83),
];

/// Scaling factors from the characterized X1 cells to a derived drive
/// strength (X1 is the identity).
#[derive(Debug, Clone, Copy, PartialEq)]
struct DriveScaling {
    area: f64,
    energy: f64,
    delay: f64,
    static_power: f64,
    /// Transistor width ratio relative to X1 — the library's drive strength.
    drive: f64,
}

const X1_SCALING: DriveScaling =
    DriveScaling { area: 1.0, energy: 1.0, delay: 1.0, static_power: 1.0, drive: 1.0 };

/// The X4 drive strength of the paper's footnote 3 ("We also developed an
/// X4 library; however, we perform all analysis in this paper using X1
/// library due to lower leakage"): 4× transistor widths give ~2.5× faster
/// edges into typical loads at ~2.2× the footprint, 4× the switching
/// energy, and 4× the pull-up/leakage current — which is exactly why the
/// paper sticks with X1.
const X4_SCALING: DriveScaling =
    DriveScaling { area: 2.2, energy: 4.0, delay: 0.4, static_power: 4.0, drive: 4.0 };

const fn build_cell(
    row: (CellKind, f64, f64, f64, f64),
    static_per_stage_uw: f64,
    scale: DriveScaling,
) -> CellCharacteristics {
    let (kind, area_mm2, energy_nj, rise_us, fall_us) = row;
    CellCharacteristics {
        kind,
        area: Area::from_mm2(area_mm2 * scale.area),
        switch_energy: Energy::from_nanojoules(energy_nj * scale.energy),
        rise_delay: Time::from_micros(rise_us * scale.delay),
        fall_delay: Time::from_micros(fall_us * scale.delay),
        static_power: Power::from_microwatts(
            static_per_stage_uw * scale.static_power * kind.stage_count() as f64,
        ),
    }
}

const fn build_library(
    technology: Technology,
    rows: [(CellKind, f64, f64, f64, f64); 11],
    static_per_stage_uw: f64,
    timing_derate: f64,
    energy_derate: f64,
    scale: DriveScaling,
) -> CellLibrary {
    CellLibrary {
        technology,
        cells: [
            build_cell(rows[0], static_per_stage_uw, scale),
            build_cell(rows[1], static_per_stage_uw, scale),
            build_cell(rows[2], static_per_stage_uw, scale),
            build_cell(rows[3], static_per_stage_uw, scale),
            build_cell(rows[4], static_per_stage_uw, scale),
            build_cell(rows[5], static_per_stage_uw, scale),
            build_cell(rows[6], static_per_stage_uw, scale),
            build_cell(rows[7], static_per_stage_uw, scale),
            build_cell(rows[8], static_per_stage_uw, scale),
            build_cell(rows[9], static_per_stage_uw, scale),
            build_cell(rows[10], static_per_stage_uw, scale),
        ],
        timing_derate,
        energy_derate,
        drive_strength: scale.drive,
    }
}

/// The EGFET library (Table 2, left columns).
pub static EGFET_LIBRARY: CellLibrary = build_library(
    Technology::Egfet,
    EGFET_TABLE2,
    crate::calibration::EGFET_STATIC_PER_STAGE_UW,
    crate::calibration::EGFET_TIMING_DERATE,
    crate::calibration::EGFET_ENERGY_DERATE,
    X1_SCALING,
);

/// The CNT-TFT library (Table 2, right columns).
pub static CNT_TFT_LIBRARY: CellLibrary = build_library(
    Technology::CntTft,
    CNT_TABLE2,
    crate::calibration::CNT_STATIC_PER_STAGE_UW,
    crate::calibration::CNT_TIMING_DERATE,
    crate::calibration::CNT_ENERGY_DERATE,
    X1_SCALING,
);

/// The derived EGFET X4 (high drive strength) library — see the paper's
/// footnote 3 and [`Technology::library_x4`].
pub static EGFET_X4_LIBRARY: CellLibrary = build_library(
    Technology::Egfet,
    EGFET_TABLE2,
    crate::calibration::EGFET_STATIC_PER_STAGE_UW,
    crate::calibration::EGFET_TIMING_DERATE,
    crate::calibration::EGFET_ENERGY_DERATE,
    X4_SCALING,
);

/// The derived CNT-TFT X4 library.
pub static CNT_TFT_X4_LIBRARY: CellLibrary = build_library(
    Technology::CntTft,
    CNT_TABLE2,
    crate::calibration::CNT_STATIC_PER_STAGE_UW,
    crate::calibration::CNT_TIMING_DERATE,
    crate::calibration::CNT_ENERGY_DERATE,
    X4_SCALING,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn libraries_have_all_eleven_cells() {
        for tech in Technology::ALL {
            let lib = tech.library();
            assert_eq!(lib.iter().count(), 11);
            for kind in CellKind::ALL {
                assert_eq!(lib.cell(kind).kind, kind);
            }
        }
    }

    #[test]
    fn table2_spot_checks() {
        let egfet = Technology::Egfet.library();
        assert!((egfet.cell(CellKind::Inv).area.as_mm2() - 0.224).abs() < 1e-12);
        assert!((egfet.cell(CellKind::Dff).switch_energy.as_nanojoules() - 2360.0).abs() < 1e-9);
        assert!((egfet.cell(CellKind::Xnor2).rise_delay.as_micros() - 6159.0).abs() < 1e-9);

        let cnt = Technology::CntTft.library();
        assert!((cnt.cell(CellKind::DffNr).area.as_mm2() - 0.042).abs() < 1e-12);
        assert!((cnt.cell(CellKind::Nand2).fall_delay.as_micros() - 7.99).abs() < 1e-9);
    }

    #[test]
    fn dffs_dominate_combinational_cells() {
        // Section 3.1.1: "Of particular note is the high overhead of DFF".
        for tech in Technology::ALL {
            let lib = tech.library();
            let dff = lib.cell(CellKind::Dff);
            let nand = lib.cell(CellKind::Nand2);
            assert!(dff.area / nand.area > 5.0, "{tech}: DFF should be >5x NAND area");
            assert!(
                dff.switch_energy / nand.switch_energy > 4.0,
                "{tech}: DFF should be >4x NAND energy"
            );
        }
    }

    #[test]
    fn cnt_cells_are_smaller_faster_lower_energy() {
        // Section 3.2.1: CNT-TFT cells are much smaller, faster and lower
        // energy than EGFET.
        let egfet = Technology::Egfet.library();
        let cnt = Technology::CntTft.library();
        for kind in CellKind::ALL {
            assert!(cnt.cell(kind).area < egfet.cell(kind).area, "{kind} area");
            assert!(
                cnt.cell(kind).average_delay() < egfet.cell(kind).average_delay(),
                "{kind} delay"
            );
            assert!(cnt.cell(kind).switch_energy < egfet.cell(kind).switch_energy, "{kind} energy");
        }
    }

    #[test]
    fn sequential_flags_are_consistent() {
        assert!(CellKind::Dff.is_sequential());
        assert!(CellKind::DffNr.is_sequential());
        assert!(CellKind::Latch.is_sequential());
        assert!(!CellKind::Nand2.is_sequential());
        assert!(!CellKind::TsBuf.is_sequential());
    }

    #[test]
    fn static_power_scales_with_stage_count() {
        let lib = Technology::Egfet.library();
        let inv = lib.cell(CellKind::Inv).static_power;
        let dff = lib.cell(CellKind::Dff).static_power;
        assert!((dff / inv - 6.0).abs() < 1e-9);
    }

    #[test]
    fn x4_library_trades_leakage_for_speed() {
        // Footnote 3's rationale: X4 is faster, but X1 has lower leakage.
        for tech in Technology::ALL {
            let x1 = tech.library();
            let x4 = tech.library_x4();
            for kind in CellKind::ALL {
                assert!(
                    x4.cell(kind).average_delay() < x1.cell(kind).average_delay(),
                    "{tech} {kind}: X4 must be faster"
                );
                assert!(
                    x4.cell(kind).static_power > x1.cell(kind).static_power,
                    "{tech} {kind}: X4 must leak more"
                );
                assert!(x4.cell(kind).area > x1.cell(kind).area);
            }
        }
    }

    #[test]
    fn fanout_budgets_follow_the_drive_model() {
        let egfet = Technology::Egfet.library();
        let cnt = Technology::CntTft.library();
        // Pseudo-CMOS CNT-TFT drives roughly twice the load of EGFET's
        // transistor–resistor stages — the limits must differ per PDK.
        for kind in CellKind::ALL {
            assert!(
                cnt.max_fanout(kind) > egfet.max_fanout(kind),
                "{kind}: CNT-TFT must out-drive EGFET"
            );
        }
        // Buffered outputs (sequential cells, TSBUF) out-drive plain logic.
        assert!(egfet.max_fanout(CellKind::Dff) > egfet.max_fanout(CellKind::Nand2));
        assert!(egfet.max_fanout(CellKind::TsBuf) > egfet.max_fanout(CellKind::Inv));
        // X4 widens the budget by the drive ratio.
        for tech in Technology::ALL {
            assert_eq!(tech.library_x4().drive_strength(), 4.0);
            assert_eq!(
                tech.library_x4().max_fanout(CellKind::Inv),
                4 * tech.library().max_fanout(CellKind::Inv)
            );
        }
        // Primary inputs get the buffered budget.
        assert_eq!(egfet.max_input_fanout(), egfet.max_fanout(CellKind::Dff));
    }

    #[test]
    fn supply_voltages_match_table1() {
        assert_eq!(Technology::Egfet.supply_voltage().as_volts(), 1.0);
        assert_eq!(Technology::CntTft.supply_voltage().as_volts(), 3.0);
    }
}
