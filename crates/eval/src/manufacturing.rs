//! Manufacturing analysis: fabrication yield and variation-aware
//! clocking for printed cores.
//!
//! Combines the PDK's device-yield model (§3.1 reports 90–99 % EGFET
//! device yield) with the netlist Monte-Carlo timing analysis to answer
//! the print-shop questions the paper's cost story implies: *how many
//! prints does a working core take, and what clock can be promised across
//! process variation?*

use printed_baselines::CellInventory;
use printed_netlist::variation::{fmax_distribution, FmaxDistribution, VariationError};
use printed_netlist::Netlist;
use printed_pdk::units::Frequency;
use printed_pdk::yield_model::{self, cell_devices};
use printed_pdk::Technology;

/// Manufacturing figures for one printed design.
#[derive(Debug, Clone, PartialEq)]
pub struct ManufacturingReport {
    /// Design name.
    pub name: String,
    /// Printed devices (transistors + resistors).
    pub devices: usize,
    /// Probability one print works.
    pub yield_: f64,
    /// Expected prints per working unit.
    pub prints_per_unit: f64,
    /// Clock met by 95 % of working prints under delay variation.
    pub guard_banded_fmax: Frequency,
    /// The underlying f_max distribution.
    pub fmax: FmaxDistribution,
}

/// Devices in a netlist, per the PDK's logic-style inventories.
pub fn netlist_devices(netlist: &Netlist, technology: Technology) -> usize {
    yield_model::inventory_devices(netlist.cell_counts(), technology)
}

/// Devices in a baseline cell inventory (combinational cells are charged
/// the NAND-equivalent of the inventory's cell mix).
pub fn inventory_devices(inventory: &CellInventory) -> usize {
    use printed_pdk::CellKind;
    let nand = cell_devices(CellKind::Nand2, inventory.technology).total();
    let dff = cell_devices(CellKind::Dff, inventory.technology).total();
    inventory.combinational() * nand + inventory.sequential * dff
}

/// Builds the full manufacturing report for a generated core netlist.
///
/// # Errors
///
/// Returns a [`VariationError`] if `delay_sigma` is negative.
///
/// # Panics
///
/// Panics if `device_yield` is outside `(0, 1]` (see
/// [`yield_model::circuit_yield`]).
pub fn report(
    name: impl Into<String>,
    netlist: &Netlist,
    technology: Technology,
    device_yield: f64,
    delay_sigma: f64,
) -> Result<ManufacturingReport, VariationError> {
    let devices = netlist_devices(netlist, technology);
    let yield_ = yield_model::circuit_yield(devices, device_yield);
    let fmax = fmax_distribution(netlist, technology.library(), delay_sigma, 64, 0x5EED)?;
    Ok(ManufacturingReport {
        name: name.into(),
        devices,
        yield_,
        prints_per_unit: 1.0 / yield_.max(f64::MIN_POSITIVE),
        guard_banded_fmax: fmax.guard_banded(0.95)?,
        fmax,
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_baselines::BaselineCpu;
    use printed_core::{generate_standard, CoreConfig};

    #[test]
    fn small_cores_are_a_yield_necessity() {
        // At 99.99 % device yield (optimistic for inkjet), the p1_8_2
        // TP-ISA core is printable in a handful of attempts while the
        // openMSP430 inventory needs orders of magnitude more prints.
        let tpisa = generate_standard(&CoreConfig::new(1, 8, 2));
        let tpisa_devices = netlist_devices(&tpisa, Technology::Egfet);
        let msp_devices = inventory_devices(&BaselineCpu::OpenMsp430.inventory(Technology::Egfet));
        assert!(msp_devices > 5 * tpisa_devices);

        let y_tpisa = printed_pdk::yield_model::circuit_yield(tpisa_devices, 0.9999);
        let y_msp = printed_pdk::yield_model::circuit_yield(msp_devices, 0.9999);
        assert!(y_tpisa > 0.5, "TP-ISA core yield {y_tpisa:.3}");
        assert!(y_msp < 0.05, "openMSP430 yield {y_msp:.5}");
    }

    #[test]
    fn report_is_internally_consistent() {
        let nl = generate_standard(&CoreConfig::new(1, 8, 2));
        let r = report("p1_8_2", &nl, Technology::Egfet, 0.9999, 0.15).unwrap();
        assert!(r.devices > 500);
        assert!((r.prints_per_unit * r.yield_ - 1.0).abs() < 1e-9);
        assert!(r.guard_banded_fmax <= r.fmax.max);
        assert!(r.guard_banded_fmax >= r.fmax.min);
        // The guard-banded clock should be within a factor ~2 of nominal
        // at printed-electronics variation levels.
        assert!(r.guard_banded_fmax.as_hertz() > r.fmax.nominal.as_hertz() / 2.0);
    }

    #[test]
    fn pseudo_cmos_spends_more_transistors() {
        let nl = generate_standard(&CoreConfig::new(1, 8, 2));
        let egfet = netlist_devices(&nl, Technology::Egfet);
        let cnt = netlist_devices(&nl, Technology::CntTft);
        assert!(cnt > egfet, "pseudo-CMOS doubles the network: {cnt} vs {egfet}");
    }
}
