//! CNT-TFT-specific analyses from the end of Section 8.
//!
//! The paper closes with two CNT-TFT observations that this module turns
//! into experiments:
//!
//! 1. "CNT-TFT power consumption at nominal frequency exceeds the output
//!    of currently available printed batteries. Thus reducing the CNT-TFT
//!    cores clock period to match the instruction ROM latency may be more
//!    appropriate." — [`rom_limited_operating_point`] quantifies both
//!    operating points.
//! 2. "CNT-TFT execution times are dominated by 302 µs ROM access
//!    latencies, indicating a more complex microarchitecture including an
//!    instruction cache may be appropriate for CNT-TFT." —
//!    [`icache_study`] implements that future-work suggestion: a small
//!    fully-associative loop cache of decoded instructions, its hit rate
//!    measured on the real dynamic instruction stream, and the resulting
//!    speedup weighed against the DFF cost of the cache.

use crate::system::System;
use printed_core::kernels::KernelProgram;
use printed_core::CoreConfig;
use printed_netlist::analysis;
use printed_pdk::units::{Area, Frequency, Power, Time};
use printed_pdk::CellKind;
#[cfg(test)]
use printed_pdk::Technology;

/// The two CNT operating points of §8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CntOperatingPoints {
    /// Core-only maximum frequency (the Table 4 / Figure 7 clock).
    pub core_fmax: Frequency,
    /// Power at core f_max — what "nominal frequency" would draw.
    pub power_at_fmax: Power,
    /// The ROM-limited system frequency.
    pub rom_limited: Frequency,
    /// Power at the ROM-limited clock.
    pub power_at_rom_limited: Power,
}

impl CntOperatingPoints {
    /// Power saved by matching the clock to the instruction ROM.
    pub fn power_reduction(&self) -> f64 {
        self.power_at_fmax / self.power_at_rom_limited
    }
}

/// Computes both operating points for a CNT-TFT system.
pub fn rom_limited_operating_point(system: &System) -> CntOperatingPoints {
    let lib = system.technology.library();
    let core_fmax = system.core_fmax();
    let at_fmax = analysis::power(&system.netlist, lib, core_fmax, Default::default()).total()
        + system.rom.static_power()
        + system.rom.access_power()
        + system.ram.static_power()
        + system.ram.access_power();
    CntOperatingPoints {
        core_fmax,
        power_at_fmax: at_fmax,
        rom_limited: system.frequency(),
        power_at_rom_limited: system.power(),
    }
}

/// Result of the instruction-cache future-work study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IcacheStudy {
    /// Cache capacity in instructions.
    pub entries: usize,
    /// Hit rate on the kernel's dynamic instruction stream.
    pub hit_rate: f64,
    /// Cycle time without the cache (core + ROM + RAM).
    pub base_cycle: Time,
    /// Average cycle time with the cache (misses pay the ROM latency).
    pub cached_cycle: Time,
    /// Extra printed area for the cache's flip-flops and tags.
    pub added_area: Area,
    /// Extra static+clock power for the cache storage.
    pub added_power: Power,
}

impl IcacheStudy {
    /// Wall-clock speedup from the cache.
    pub fn speedup(&self) -> f64 {
        self.base_cycle / self.cached_cycle
    }
}

/// Runs the kernel, simulates a fully-associative FIFO loop cache of
/// `entries` decoded instructions over the dynamic PC stream, and prices
/// the cache in DFFs.
///
/// # Panics
///
/// Panics if the kernel fails to run (an internal bug) or `entries` is 0.
pub fn icache_study(system: &System, entries: usize) -> IcacheStudy {
    assert!(entries > 0, "cache needs at least one entry");
    let kernel: &KernelProgram = &system.kernel;
    let config = CoreConfig::new(
        system.spec.pipeline_stages,
        system.spec.datawidth,
        system.spec.bars.max(2),
    );
    let mut machine = kernel.machine(config);

    // Fully-associative FIFO cache over PCs.
    let mut cache: Vec<u8> = Vec::with_capacity(entries);
    let mut next_victim = 0usize;
    let (mut hits, mut fetches) = (0u64, 0u64);
    let mut steps = 0u64;
    while !machine.is_halted() && steps < 10_000_000 {
        let pc = machine.pc();
        fetches += 1;
        if cache.contains(&pc) {
            hits += 1;
        } else if cache.len() < entries {
            cache.push(pc);
        } else {
            cache[next_victim] = pc;
            next_victim = (next_victim + 1) % entries;
        }
        machine.step().unwrap_or_else(|e| panic!("kernel must keep executing: {e}"));
        steps += 1;
    }
    assert!(machine.is_halted(), "kernel must halt during the cache study");
    let hit_rate = hits as f64 / fetches.max(1) as f64;

    let lib = system.technology.library();
    let core_cp = analysis::timing(&system.netlist, lib).critical_path;
    let rom = system.rom.access_delay();
    let ram = system.ram.access_delay();
    let base_cycle = core_cp + rom + ram;
    // Hits skip the ROM; the cache lookup rides within the core path.
    let cached_cycle = core_cp + ram + rom * (1.0 - hit_rate);

    // Cache cost: one DFF per stored bit (instruction word + PC tag +
    // valid), plus nothing combinational (the CAM match logic is charged
    // as one XNOR per tag bit per entry).
    let instr_bits = system.spec.instruction_bits();
    let tag_bits = system.spec.pc_bits + 1;
    let dff = lib.cell(CellKind::Dff);
    let xnor = lib.cell(CellKind::Xnor2);
    let storage_cells = entries * (instr_bits + tag_bits);
    let match_cells = entries * system.spec.pc_bits;
    let added_area = dff.area * storage_cells as f64 + xnor.area * match_cells as f64;
    let added_power =
        dff.static_power * storage_cells as f64 + xnor.static_power * match_cells as f64;

    IcacheStudy { entries, hit_rate, base_cycle, cached_cycle, added_area, added_power }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_core::kernels::{self, Kernel};
    use printed_pdk::battery::BLUESPARK_30;

    fn cnt_system(kernel: Kernel, width: usize) -> System {
        let prog = kernels::generate(kernel, width, width).unwrap();
        System::standard(CoreConfig::new(1, width, 2), prog, Technology::CntTft, 1).unwrap()
    }

    #[test]
    fn rom_limited_clocking_slashes_cnt_power() {
        // §8: at nominal (core f_max) the CNT core exceeds any printed
        // battery; at the ROM-limited clock it comes down by orders of
        // magnitude.
        let sys = cnt_system(Kernel::Mult, 8);
        let points = rom_limited_operating_point(&sys);
        assert!(
            !BLUESPARK_30.can_power(points.power_at_fmax),
            "nominal-rate CNT power {:.0} mW exceeds the battery",
            points.power_at_fmax.as_milliwatts()
        );
        assert!(points.rom_limited.as_hertz() < points.core_fmax.as_hertz() / 10.0);
        assert!(
            points.power_reduction() > 3.0,
            "ROM-limited clocking should cut power several-fold (got {:.1}x)",
            points.power_reduction()
        );
    }

    #[test]
    fn loop_cache_hits_on_loopy_kernels() {
        // mult's shift-add loop fits comfortably in 16 entries.
        let sys = cnt_system(Kernel::Mult, 8);
        let study = icache_study(&sys, 16);
        assert!(
            study.hit_rate > 0.7,
            "mult loop should mostly hit a 16-entry cache (got {:.0}%)",
            study.hit_rate * 100.0
        );
        assert!(study.speedup() > 1.2, "speedup {:.2}", study.speedup());
    }

    #[test]
    fn straight_line_code_defeats_the_cache() {
        // dTree executes one root-to-leaf path: no reuse, no hits.
        let sys = cnt_system(Kernel::DTree, 8);
        let study = icache_study(&sys, 16);
        assert!(
            study.hit_rate < 0.2,
            "dTree should barely hit (got {:.0}%)",
            study.hit_rate * 100.0
        );
    }

    #[test]
    fn cache_cost_scales_with_entries() {
        let sys = cnt_system(Kernel::Mult, 8);
        let small = icache_study(&sys, 4);
        let large = icache_study(&sys, 32);
        assert!(large.added_area > small.added_area);
        assert!(large.hit_rate >= small.hit_rate);
    }

    #[test]
    fn cache_never_helps_egfet_much() {
        // On EGFET the core path dwarfs the ROM latency, so even a
        // perfect cache gains little — why the paper suggests it only
        // for CNT-TFT.
        let prog = kernels::generate(Kernel::Mult, 8, 8).unwrap();
        let egfet = System::standard(CoreConfig::new(1, 8, 2), prog, Technology::Egfet, 1).unwrap();
        let study = icache_study(&egfet, 16);
        assert!(study.speedup() < 1.1, "EGFET speedup {:.3}", study.speedup());

        let cnt = cnt_system(Kernel::Mult, 8);
        let cnt_study = icache_study(&cnt, 16);
        assert!(cnt_study.speedup() > study.speedup());
    }
}
