//! The paper's headline improvement ratios (Sections 1, 6, 7, 9).

use crate::figures::Figure8Cell;
use crate::system::SystemError;
use printed_core::kernels::Kernel;
use printed_memory::device::{EGFET_RAM_1BIT, EGFET_ROM_1BIT};

/// ROM-vs-RAM advantage of the crosspoint instruction memory (Section 6):
/// the paper's 5.77× / 16.8× / 2.42× power / area / delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RomVsRam {
    /// Active-power advantage.
    pub power: f64,
    /// Area advantage.
    pub area: f64,
    /// Delay advantage.
    pub delay: f64,
}

/// Computes the ROM-vs-RAM ratios from the Table 6 device models.
pub fn rom_vs_ram() -> RomVsRam {
    RomVsRam {
        power: EGFET_RAM_1BIT.active_power / EGFET_ROM_1BIT.active_power,
        area: EGFET_RAM_1BIT.area / EGFET_ROM_1BIT.area,
        delay: EGFET_RAM_1BIT.delay / EGFET_ROM_1BIT.delay,
    }
}

/// Program-specific ISA improvements over the standard core at the same
/// width (Section 7 / 9: power up to 4.18×, area up to 1.93×, benchmark
/// energy up to 2.59×).
#[derive(Debug, Clone, PartialEq)]
pub struct PsImprovement {
    /// Kernel name.
    pub kernel: String,
    /// Benchmark.
    pub bench: Kernel,
    /// Data width.
    pub data_width: usize,
    /// Core power ratio (standard / PS) at the respective system rates.
    pub core_power_ratio: f64,
    /// Core area ratio (standard / PS), memories excluded.
    pub core_area_ratio: f64,
    /// Whole-benchmark energy ratio (standard / PS).
    pub energy_ratio: f64,
}

/// Computes per-kernel program-specific improvements from Figure 8 cells
/// (standard vs PS at the native core width).
pub fn ps_improvements(cells: &[Figure8Cell]) -> Vec<PsImprovement> {
    let mut out = Vec::new();
    for ps in cells.iter().filter(|c| c.program_specific) {
        let Some(std_cell) = cells.iter().find(|c| {
            !c.program_specific
                && !c.rom_mlc
                && c.bench == ps.bench
                && c.data_width == ps.data_width
                && c.core_width == ps.core_width
        }) else {
            continue;
        };
        let core_power = |c: &Figure8Cell| {
            // Core power over the run = core energy / time.
            (c.result.energy_j.combinational + c.result.energy_j.registers)
                / c.result.exec_time.as_secs()
        };
        let core_area =
            |c: &Figure8Cell| c.result.area_cm2.combinational + c.result.area_cm2.registers;
        out.push(PsImprovement {
            kernel: ps.kernel.clone(),
            bench: ps.bench,
            data_width: ps.data_width,
            core_power_ratio: core_power(std_cell) / core_power(ps),
            core_area_ratio: core_area(std_cell) / core_area(ps),
            energy_ratio: std_cell.result.energy_j.total() / ps.result.energy_j.total(),
        });
    }
    out
}

/// Maximum improvements across kernels — the numbers the abstract quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsHeadline {
    /// Best core-power improvement.
    pub max_power: f64,
    /// Best core-area improvement.
    pub max_area: f64,
    /// Best benchmark-energy improvement.
    pub max_energy: f64,
}

/// Reduces per-kernel improvements to the headline maxima.
pub fn ps_headline(improvements: &[PsImprovement]) -> PsHeadline {
    let fold = |f: fn(&PsImprovement) -> f64| improvements.iter().map(f).fold(0.0_f64, f64::max);
    PsHeadline {
        max_power: fold(|i| i.core_power_ratio),
        max_area: fold(|i| i.core_area_ratio),
        max_energy: fold(|i| i.energy_ratio),
    }
}

/// The Harvard-vs-von-Neumann comparison behind the paper's fourth
/// architectural insight: "a Harvard organization fits better than a
/// Von-Neuman organization since it allows instructions to be placed in a
/// dense crosspoint-based ROM".
#[derive(Debug, Clone, PartialEq)]
pub struct HarvardVsVonNeumann {
    /// Kernel the comparison is for.
    pub kernel: String,
    /// Harvard: instruction storage as crosspoint ROM (area cm², power mW).
    pub harvard_area_cm2: f64,
    /// Harvard instruction-store power in mW (array convention).
    pub harvard_power_mw: f64,
    /// Von Neumann: the same instructions RAM-resident.
    pub von_neumann_area_cm2: f64,
    /// Von Neumann instruction-store power in mW.
    pub von_neumann_power_mw: f64,
}

impl HarvardVsVonNeumann {
    /// Area advantage of the Harvard organization.
    pub fn area_ratio(&self) -> f64 {
        self.von_neumann_area_cm2 / self.harvard_area_cm2
    }

    /// Power advantage of the Harvard organization.
    pub fn power_ratio(&self) -> f64 {
        self.von_neumann_power_mw / self.harvard_power_mw
    }
}

/// Compares instruction storage for one TP-ISA kernel: a crosspoint ROM
/// (Harvard, enabled by the split organization) against the RAM a unified
/// von-Neumann memory would force instructions into.
///
/// # Errors
///
/// Returns a [`SystemError`] if the kernel's program cannot be encoded
/// or the memory models cannot hold it (kernel programs always fit the
/// standard encoding, so this indicates an internal bug).
pub fn harvard_vs_von_neumann(
    kernel: &printed_core::kernels::KernelProgram,
) -> Result<HarvardVsVonNeumann, SystemError> {
    use printed_core::specific::{CoreSpec, NarrowEncoding};
    use printed_core::CoreConfig;
    use printed_memory::{CrossbarRom, Sram};
    use printed_pdk::Technology;

    let config = CoreConfig::new(1, kernel.core_width, 2);
    let spec = CoreSpec::standard(config);
    let words = NarrowEncoding::new(spec.clone())
        .encode_program(&kernel.instructions)
        .map_err(|e| SystemError::Encode(e.to_string()))?;
    let rom = CrossbarRom::new(Technology::Egfet, spec.instruction_bits(), 1, words.clone())?;
    let ram = Sram::with_contents(Technology::Egfet, spec.instruction_bits(), words)?;
    Ok(HarvardVsVonNeumann {
        kernel: kernel.name.clone(),
        harvard_area_cm2: rom.area().as_cm2(),
        harvard_power_mw: rom.array_power().as_milliwatts(),
        von_neumann_area_cm2: ram.area().as_cm2(),
        von_neumann_power_mw: ram.array_power().as_milliwatts(),
    })
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn harvard_beats_von_neumann_for_every_kernel() {
        use printed_core::kernels::{self, Kernel};
        for bench in Kernel::ALL {
            let width = bench.data_widths()[0];
            let Ok(kernel) = kernels::generate(bench, width, width) else {
                continue;
            };
            let cmp = harvard_vs_von_neumann(&kernel).unwrap();
            assert!(
                cmp.area_ratio() > 10.0,
                "{}: Harvard should win area by >10x (got {:.1}x)",
                cmp.kernel,
                cmp.area_ratio()
            );
            assert!(
                cmp.power_ratio() > 3.0,
                "{}: Harvard should win power by several x (got {:.1}x)",
                cmp.kernel,
                cmp.power_ratio()
            );
        }
    }

    #[test]
    fn rom_vs_ram_matches_the_paper() {
        let r = rom_vs_ram();
        assert!((r.power - 5.77).abs() < 0.01, "power {:.2}", r.power);
        assert!((r.area - 16.8).abs() < 0.01, "area {:.2}", r.area);
        assert!((r.delay - 2.42).abs() < 0.02, "delay {:.2}", r.delay);
    }
}
