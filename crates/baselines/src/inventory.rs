//! Baseline core characterization — Table 4.
//!
//! The paper synthesizes the four baseline cores with Design Compiler; we
//! cannot run their Verilog through an EDA flow, so each baseline is
//! modeled as a **calibrated cell inventory**: a total gate count (from
//! Table 4), a sequential/combinational split derived from the published
//! EGFET area under a fixed combinational cell mix, and a logic depth
//! derived from the published EGFET f_max. Everything downstream — CNT
//! numbers, power, lifetime, benchmark energy — is then *computed* from
//! the PDK, so all cross-technology and core-vs-core comparisons run
//! through the same cost model as the TP-ISA cores.

use printed_netlist::{Netlist, NetlistBuilder};
use printed_pdk::units::{Area, Frequency, Power};
use printed_pdk::{CellKind, CellLibrary, Technology};

/// The paper's fixed combinational cell mix (fractions summing to 1.0)
/// used to cost baseline combinational logic. Typical of small control-
/// dominated synthesized cores.
pub const COMB_MIX: [(CellKind, f64); 8] = [
    (CellKind::Inv, 0.15),
    (CellKind::Nand2, 0.30),
    (CellKind::Nor2, 0.20),
    (CellKind::And2, 0.08),
    (CellKind::Or2, 0.08),
    (CellKind::Xor2, 0.10),
    (CellKind::Xnor2, 0.04),
    (CellKind::TsBuf, 0.05),
];

fn mix_average<T>(lib: &CellLibrary, f: impl Fn(&CellLibrary, CellKind) -> T) -> f64
where
    T: Into<f64>,
{
    COMB_MIX.iter().map(|&(kind, frac)| f(lib, kind).into() * frac).sum()
}

/// Which baseline CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaselineCpu {
    /// openMSP430 (16-bit register machine).
    OpenMsp430,
    /// Zilog Z80 (8-bit, enhanced Intel 8080 ISA).
    Z80,
    /// light8080 (low-gate-count Intel 8080).
    Light8080,
    /// Zylin ZPU small (32-bit stack machine).
    ZpuSmall,
}

impl BaselineCpu {
    /// All four baselines, in Table 4 order.
    pub const ALL: [BaselineCpu; 4] =
        [BaselineCpu::OpenMsp430, BaselineCpu::Z80, BaselineCpu::Light8080, BaselineCpu::ZpuSmall];

    /// Display name as in Table 4.
    pub fn name(self) -> &'static str {
        match self {
            BaselineCpu::OpenMsp430 => "openMSP430",
            BaselineCpu::Z80 => "Z80",
            BaselineCpu::Light8080 => "light8080",
            BaselineCpu::ZpuSmall => "ZPU_small",
        }
    }

    /// Datawidth / ALU width (Table 4).
    pub fn datawidth(self) -> (usize, usize) {
        match self {
            BaselineCpu::OpenMsp430 => (16, 16),
            BaselineCpu::Z80 | BaselineCpu::Light8080 => (8, 8),
            BaselineCpu::ZpuSmall => (32, 8),
        }
    }

    /// ISA description (Table 4).
    pub fn isa(self) -> &'static str {
        match self {
            BaselineCpu::OpenMsp430 => "Register based",
            BaselineCpu::Z80 => "Enhanced Intel8080",
            BaselineCpu::Light8080 => "Intel8080",
            BaselineCpu::ZpuSmall => "Stack-based",
        }
    }

    /// CPI range (Table 4).
    pub fn cpi_range(self) -> (u32, u32) {
        match self {
            BaselineCpu::OpenMsp430 => (1, 6),
            BaselineCpu::Z80 => (3, 23),
            BaselineCpu::Light8080 => (5, 30),
            BaselineCpu::ZpuSmall => (4, 4),
        }
    }

    /// Published synthesis anchor points: (EGFET gates, CNT gates,
    /// EGFET f_max in Hz, EGFET area in cm²). These four published numbers
    /// calibrate the inventory; everything else is derived.
    fn anchors(self) -> (usize, usize, f64, f64) {
        match self {
            BaselineCpu::OpenMsp430 => (12101, 14098, 4.07, 56.38),
            BaselineCpu::Z80 => (5263, 7226, 7.18, 25.28),
            BaselineCpu::Light8080 => (1948, 3020, 17.39, 11.15),
            BaselineCpu::ZpuSmall => (2984, 3782, 25.45, 15.82),
        }
    }

    /// The calibrated inventory for a technology.
    pub fn inventory(self, technology: Technology) -> CellInventory {
        let (egfet_gates, cnt_gates, egfet_fmax, egfet_area_cm2) = self.anchors();
        let egfet = Technology::Egfet.library();

        // Sequential count from the published EGFET area: solve
        // area = n_dff·A_dff + (G − n_dff)·A_mix for n_dff.
        let avg_comb_area = mix_average(egfet, |l, k| l.cell(k).area.as_mm2());
        let dff_area = egfet.cell(CellKind::Dff).area.as_mm2();
        let total_mm2 = egfet_area_cm2 * 100.0;
        let n_dff = ((total_mm2 - egfet_gates as f64 * avg_comb_area) / (dff_area - avg_comb_area))
            .round()
            .max(0.0) as usize;

        // Logic depth in NAND-equivalent levels from the published f_max.
        let nand_delay = egfet.synthesis_delay(CellKind::Nand2).as_secs();
        let depth = (1.0 / egfet_fmax / nand_delay).round() as usize;

        let gates = match technology {
            Technology::Egfet => egfet_gates,
            Technology::CntTft => cnt_gates,
        };
        CellInventory {
            cpu: self,
            technology,
            gates,
            sequential: n_dff.min(gates),
            logic_depth: depth,
        }
    }
}

/// A calibrated cell inventory: the synthesized shape of one baseline in
/// one technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellInventory {
    /// Which CPU this models.
    pub cpu: BaselineCpu,
    /// Technology.
    pub technology: Technology,
    /// Total standard cells.
    pub gates: usize,
    /// D flip-flops among them.
    pub sequential: usize,
    /// Critical path length in NAND-equivalent levels.
    pub logic_depth: usize,
}

impl CellInventory {
    fn lib(&self) -> &'static CellLibrary {
        self.technology.library()
    }

    /// Combinational cell count.
    pub fn combinational(&self) -> usize {
        self.gates - self.sequential
    }

    /// Printed area.
    pub fn area(&self) -> Area {
        let lib = self.lib();
        let avg_comb = mix_average(lib, |l, k| l.cell(k).area.as_mm2());
        Area::from_mm2(
            self.combinational() as f64 * avg_comb
                + self.sequential as f64 * lib.cell(CellKind::Dff).area.as_mm2(),
        )
    }

    /// Maximum clock frequency.
    pub fn fmax(&self) -> Frequency {
        let lib = self.lib();
        let nand = lib.synthesis_delay(CellKind::Nand2).as_secs();
        Frequency::from_hertz(1.0 / (self.logic_depth as f64 * nand))
    }

    /// Power at a given clock, with the paper's default activity factor.
    pub fn power_at(&self, clock: Frequency) -> Power {
        let lib = self.lib();
        let alpha = printed_pdk::calibration::DEFAULT_ACTIVITY_FACTOR;
        let avg_comb_energy = mix_average(lib, |l, k| l.synthesis_energy(k).as_nanojoules());
        let dff_energy = lib.synthesis_energy(CellKind::Dff).as_nanojoules();
        let dynamic_nj_per_cycle =
            self.combinational() as f64 * avg_comb_energy + self.sequential as f64 * dff_energy;
        let dynamic =
            printed_pdk::units::Energy::from_nanojoules(dynamic_nj_per_cycle * alpha) * clock;

        let avg_comb_static = mix_average(lib, |l, k| l.cell(k).static_power.as_microwatts());
        let dff_static = lib.cell(CellKind::Dff).static_power.as_microwatts();
        let static_ = Power::from_microwatts(
            self.combinational() as f64 * avg_comb_static + self.sequential as f64 * dff_static,
        );
        dynamic + static_
    }

    /// Power at f_max — the Table 4 number.
    pub fn power(&self) -> Power {
        self.power_at(self.fmax())
    }

    /// A concrete gate-level netlist with this inventory's shape: the
    /// exact total gate count, the calibrated sequential/combinational
    /// split, and combinational cells drawn round-robin from
    /// [`COMB_MIX`]'s proportions.
    ///
    /// The baselines have no RTL in this repository (their Verilog never
    /// ran through our flow — the inventory *is* the model), so this is
    /// the structure the DRC engine checks: a scan-chain-style design
    /// where every cell is live and observable. Gate-exact cell counts
    /// mean the per-cell lint rules (fanout, contention, reset) exercise
    /// the same cell population the cost model charges for.
    pub fn representative_netlist(&self) -> Netlist {
        let mut b = NetlistBuilder::new(format!(
            "{}_{}",
            self.cpu.name(),
            match self.technology {
                Technology::Egfet => "egfet",
                Technology::CntTft => "cnt",
            }
        ));
        let si = b.input_bit("si");
        let mut prev = si;
        let mut cur = si;

        // Expand COMB_MIX into a per-cell quota at this inventory's size,
        // then emit a chain cycling through the kinds so consecutive
        // cells differ (as synthesized control logic does). Rounding
        // residue lands on NAND2, the mix's plurality cell.
        let comb = self.combinational();
        let mut quotas: Vec<(CellKind, usize)> = COMB_MIX
            .iter()
            .map(|&(kind, frac)| (kind, (comb as f64 * frac).floor() as usize))
            .collect();
        let assigned: usize = quotas.iter().map(|&(_, n)| n).sum();
        for (kind, quota) in &mut quotas {
            if *kind == CellKind::Nand2 {
                *quota += comb - assigned;
            }
        }
        let mut emitted = 0;
        while emitted < comb {
            for (kind, quota) in &mut quotas {
                if *quota == 0 {
                    continue;
                }
                *quota -= 1;
                emitted += 1;
                let next = match kind {
                    CellKind::Inv => b.inv(cur),
                    // Data rides `cur`; `prev` gates the enable, keeping
                    // every TSBUF a lone driver (no shared bus).
                    CellKind::TsBuf => b.tsbuf(cur, prev),
                    kind => b.gate(*kind, [cur, prev]),
                };
                prev = cur;
                cur = next;
            }
        }

        // Sequential rank: DFFs chained after the combinational cloud,
        // like the scan path stitched through a synthesized core.
        for _ in 0..self.sequential {
            cur = b.dff(cur);
        }
        b.output("so", vec![cur]);
        b.finish()
            .unwrap_or_else(|_| unreachable!("representative netlists are valid by construction"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use printed_netlist::lint;

    /// Relative error helper.
    fn within(actual: f64, published: f64, tolerance: f64) -> bool {
        (actual - published).abs() / published <= tolerance
    }

    #[test]
    fn egfet_anchors_are_reproduced_exactly_enough() {
        // Area and f_max are calibration anchors: they must match closely.
        for (cpu, area, fmax) in [
            (BaselineCpu::OpenMsp430, 56.38, 4.07),
            (BaselineCpu::Z80, 25.28, 7.18),
            (BaselineCpu::Light8080, 11.15, 17.39),
            (BaselineCpu::ZpuSmall, 15.82, 25.45),
        ] {
            let inv = cpu.inventory(Technology::Egfet);
            assert!(
                within(inv.area().as_cm2(), area, 0.02),
                "{}: area {:.2} vs {}",
                cpu.name(),
                inv.area().as_cm2(),
                area
            );
            assert!(
                within(inv.fmax().as_hertz(), fmax, 0.03),
                "{}: fmax {:.2} vs {}",
                cpu.name(),
                inv.fmax().as_hertz(),
                fmax
            );
        }
    }

    #[test]
    fn egfet_powers_land_near_table4() {
        // Power is *derived* (not anchored): require the right magnitude.
        for (cpu, power_mw) in [
            (BaselineCpu::OpenMsp430, 124.4),
            (BaselineCpu::Z80, 76.25),
            (BaselineCpu::Light8080, 41.7),
            (BaselineCpu::ZpuSmall, 66.06),
        ] {
            let inv = cpu.inventory(Technology::Egfet);
            let p = inv.power().as_milliwatts();
            assert!(
                within(p, power_mw, 0.45),
                "{}: power {:.1} mW vs published {}",
                cpu.name(),
                p,
                power_mw
            );
        }
    }

    #[test]
    fn cnt_fmax_and_area_track_table4() {
        for (cpu, fmax, area_cm2, power_w) in [
            (BaselineCpu::OpenMsp430, 15074.0, 0.69, 1.3358),
            (BaselineCpu::Z80, 26064.0, 0.34, 1.204),
            (BaselineCpu::Light8080, 57238.0, 0.17, 1.517),
            (BaselineCpu::ZpuSmall, 43442.0, 0.21, 1.596),
        ] {
            let inv = cpu.inventory(Technology::CntTft);
            assert!(
                within(inv.fmax().as_hertz(), fmax, 1.0),
                "{}: CNT fmax {:.0} vs {}",
                cpu.name(),
                inv.fmax().as_hertz(),
                fmax
            );
            assert!(
                within(inv.area().as_cm2(), area_cm2, 0.25),
                "{}: CNT area {:.3} vs {}",
                cpu.name(),
                inv.area().as_cm2(),
                area_cm2
            );
            assert!(
                within(inv.power().as_watts(), power_w, 0.8),
                "{}: CNT power {:.2} W vs {}",
                cpu.name(),
                inv.power().as_watts(),
                power_w
            );
        }
    }

    #[test]
    fn sequential_counts_are_microarchitecturally_plausible() {
        // light8080 has on the order of 250 flip-flops; openMSP430 ~250
        // (16×16 register file is RAM-mapped in the low-area config).
        let l8080 = BaselineCpu::Light8080.inventory(Technology::Egfet);
        assert!((150..400).contains(&l8080.sequential), "{}", l8080.sequential);
        let msp = BaselineCpu::OpenMsp430.inventory(Technology::Egfet);
        assert!((150..450).contains(&msp.sequential), "{}", msp.sequential);
    }

    #[test]
    fn comb_mix_sums_to_one() {
        let total: f64 = COMB_MIX.iter().map(|&(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn representative_netlists_match_the_inventory() {
        for cpu in BaselineCpu::ALL {
            let inv = cpu.inventory(Technology::Egfet);
            let netlist = inv.representative_netlist();
            let counts = netlist.cell_counts();
            let total: usize = counts.values().sum();
            assert_eq!(total, inv.gates, "{}: total gate count", cpu.name());
            assert_eq!(
                counts.get(&CellKind::Dff).copied().unwrap_or(0),
                inv.sequential,
                "{}: DFF count",
                cpu.name()
            );
        }
    }

    #[test]
    fn all_baselines_lint_clean_of_errors_in_both_technologies() {
        for technology in [Technology::Egfet, Technology::CntTft] {
            for cpu in BaselineCpu::ALL {
                let netlist = cpu.inventory(technology).representative_netlist();
                let report = lint::lint(&netlist, technology.library());
                assert!(
                    !report.has_errors(),
                    "{} ({technology:?}) has lint errors:\n{}",
                    cpu.name(),
                    report.render_text()
                );
            }
        }
    }
}
