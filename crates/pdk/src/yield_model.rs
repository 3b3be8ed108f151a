//! Fabrication-yield modeling for printed circuits.
//!
//! Section 3.1 reports "Measured yield for our EGFET devices is 90-99%".
//! At those device yields, circuit yield falls exponentially with
//! transistor count — a first-order argument for the paper's small cores
//! that the paper itself leaves implicit. This module makes it
//! quantitative: per-cell transistor/resistor inventories for the
//! transistor–resistor (EGFET) and pseudo-CMOS (CNT-TFT) logic styles,
//! circuit yield, and the expected number of prints per working unit.
//!
//! ```
//! use printed_pdk::yield_model::{circuit_yield, prints_per_working_unit};
//!
//! // A 2000-device circuit at 99.9% device yield:
//! let y = circuit_yield(2000, 0.999);
//! assert!(y > 0.1 && y < 0.2);
//! assert!(prints_per_working_unit(2000, 0.999) > 5.0);
//! ```

use crate::cells::{CellKind, Technology};

/// Printed devices (transistors + printed resistors) in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCount {
    /// Printed transistors.
    pub transistors: usize,
    /// Printed pull-up resistors (EGFET transistor–resistor logic only).
    pub resistors: usize,
}

impl DeviceCount {
    /// All printed devices.
    pub fn total(&self) -> usize {
        self.transistors + self.resistors
    }
}

/// Devices per cell for a logic style.
///
/// EGFET transistor–resistor logic: one pull-down network of n-type
/// transistors plus one printed resistor per stage. CNT-TFT pseudo-CMOS:
/// roughly 2× the transistors of the pull-down network plus two bias
/// devices per stage, no resistors.
pub fn cell_devices(kind: CellKind, technology: Technology) -> DeviceCount {
    // Pull-down transistors per stage for the cell's function.
    let (pulldown, stages) = match kind {
        CellKind::Inv => (1, 1),
        CellKind::Nand2 => (2, 1),
        CellKind::Nor2 => (2, 1),
        CellKind::And2 => (3, 2), // NAND + INV
        CellKind::Or2 => (3, 2),  // NOR + INV
        CellKind::Xor2 => (8, 3),
        CellKind::Xnor2 => (9, 3),
        CellKind::Latch => (4, 2),
        CellKind::Dff => (14, 6),
        CellKind::DffNr => (20, 8),
        CellKind::TsBuf => (3, 2),
    };
    match technology {
        Technology::Egfet => DeviceCount { transistors: pulldown, resistors: stages },
        // Pseudo-CMOS quadruples the inverter core (double-stacked
        // pull-ups) — charge 2x the pull-down plus 2 bias devices/stage.
        Technology::CntTft => DeviceCount { transistors: 2 * pulldown + 2 * stages, resistors: 0 },
    }
}

/// Yield of a circuit of `devices` printed devices at a per-device yield
/// (independent-defect model: `Y = y^n`).
///
/// # Panics
///
/// Panics unless `device_yield` is in `(0, 1]`.
pub fn circuit_yield(devices: usize, device_yield: f64) -> f64 {
    assert!(
        device_yield > 0.0 && device_yield <= 1.0,
        "device yield must be in (0,1], got {device_yield}"
    );
    device_yield.powi(devices as i32)
}

/// Expected prints needed per working unit (geometric distribution).
///
/// # Panics
///
/// Panics unless `device_yield` is in `(0, 1]`.
pub fn prints_per_working_unit(devices: usize, device_yield: f64) -> f64 {
    1.0 / circuit_yield(devices, device_yield)
}

/// Device count of a whole cell inventory (counts per [`CellKind`]).
pub fn inventory_devices<I>(cells: I, technology: Technology) -> usize
where
    I: IntoIterator<Item = (CellKind, usize)>,
{
    cells.into_iter().map(|(kind, count)| cell_devices(kind, technology).total() * count).sum()
}

/// *Functional* yield: the probability a print still computes correctly,
/// given per-site masking probabilities measured by fault injection.
///
/// Each site is `(devices, masked_fraction)` — typically one standard
/// cell with its device count and the fraction of its stuck-at faults a
/// workload masked. A site works outright with probability
/// `y^devices`; a defective site (probability `1 - y^devices`) still
/// yields a functional circuit with probability `masked_fraction`:
///
/// `Y_func = Π (y^d + (1 - y^d) · m)`
///
/// With every `m = 0` this reduces exactly to the naive
/// [`circuit_yield`]; any nonzero masking makes it strictly larger — the
/// quantitative version of "not every printed defect is fatal".
///
/// # Panics
///
/// Panics unless `device_yield` is in `(0, 1]`.
pub fn functional_yield<I>(sites: I, device_yield: f64) -> f64
where
    I: IntoIterator<Item = (usize, f64)>,
{
    assert!(
        device_yield > 0.0 && device_yield <= 1.0,
        "device yield must be in (0,1], got {device_yield}"
    );
    sites
        .into_iter()
        .map(|(devices, masked)| {
            let site_yield = device_yield.powi(devices as i32);
            let masked = masked.clamp(0.0, 1.0);
            site_yield + (1.0 - site_yield) * masked
        })
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_counts_follow_logic_style() {
        let egfet_nand = cell_devices(CellKind::Nand2, Technology::Egfet);
        assert_eq!(egfet_nand.transistors, 2);
        assert_eq!(egfet_nand.resistors, 1);
        let cnt_nand = cell_devices(CellKind::Nand2, Technology::CntTft);
        assert!(cnt_nand.transistors > egfet_nand.transistors);
        assert_eq!(cnt_nand.resistors, 0);
        // DFFs are the device hogs, consistent with their Table 2 cost.
        assert!(
            cell_devices(CellKind::Dff, Technology::Egfet).total()
                > 5 * cell_devices(CellKind::Inv, Technology::Egfet).total()
        );
    }

    #[test]
    fn yield_falls_exponentially_with_size() {
        let small = circuit_yield(400, 0.9999);
        let large = circuit_yield(4000, 0.9999);
        assert!(small > large);
        assert!((large / (small.powi(10)) - 1.0).abs() < 1e-9, "Y = y^n is exponential");
    }

    #[test]
    fn paper_yield_range_makes_big_cores_unprintable() {
        // At the paper's *worst* measured device yield (90%), even a
        // 100-device circuit almost never works; at 99%, a baseline-sized
        // core (~10k devices) is hopeless while a TP-ISA-sized core is
        // merely expensive — small cores are a yield necessity, not just
        // a power optimization.
        assert!(circuit_yield(100, 0.90) < 1e-4);
        assert!(circuit_yield(10_000, 0.99) < 1e-40);
        let tpisa_like = prints_per_working_unit(1500, 0.9999);
        assert!(tpisa_like < 2.0, "a ~1.5k-device core needs {tpisa_like:.2} prints");
    }

    #[test]
    fn inventory_roll_up_sums_cells() {
        let devices =
            inventory_devices([(CellKind::Nand2, 10), (CellKind::Dff, 2)], Technology::Egfet);
        assert_eq!(devices, 10 * 3 + 2 * 20);
    }

    #[test]
    #[should_panic(expected = "device yield")]
    fn zero_yield_rejected() {
        let _ = circuit_yield(10, 0.0);
    }

    #[test]
    fn functional_yield_reduces_to_naive_without_masking() {
        let sites = [(3usize, 0.0), (20, 0.0), (9, 0.0)];
        let devices: usize = sites.iter().map(|s| s.0).sum();
        let func = functional_yield(sites, 0.999);
        let naive = circuit_yield(devices, 0.999);
        assert!((func / naive - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masking_strictly_improves_functional_yield() {
        let none = functional_yield([(20usize, 0.0); 50], 0.999);
        let some = functional_yield([(20usize, 0.4); 50], 0.999);
        let all = functional_yield([(20usize, 1.0); 50], 0.999);
        assert!(some > none);
        assert!((all - 1.0).abs() < 1e-12, "fully masked sites cannot kill a print");
        assert!(none > 0.0);
    }

    #[test]
    fn out_of_range_masking_is_clamped() {
        let clamped = functional_yield([(10usize, 1.5), (10, -0.5)], 0.99);
        let exact = functional_yield([(10usize, 1.0), (10, 0.0)], 0.99);
        assert!((clamped / exact - 1.0).abs() < 1e-12);
    }
}
