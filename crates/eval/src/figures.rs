//! Figure regeneration: the design-space exploration (Figure 7) and the
//! benchmark-level evaluation (Figure 8).
//!
//! [`figure7`] reads its points from the [`crate::design_space`] pass,
//! which builds and analyzes each core once for Figure 7, the lint
//! summary and the static report together. [`figure8`] builds its own
//! systems: each standard core once per call.

use crate::system::{BenchmarkResult, System, SystemError};
use printed_core::kernels::{self, Kernel, KernelProgram};
use printed_core::{generate_standard, CoreConfig};
use printed_netlist::Netlist;
use printed_pdk::units::{Area, Frequency, Power};
use printed_pdk::Technology;
use std::sync::Arc;

/// One point of Figure 7: a core configuration's characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Core name (`pP_D_B`).
    pub name: String,
    /// Pipeline depth.
    pub pipeline_stages: usize,
    /// Datawidth.
    pub datawidth: usize,
    /// BAR count.
    pub bars: u8,
    /// Total gates.
    pub gate_count: usize,
    /// Sequential cells.
    pub sequential: usize,
    /// Maximum frequency.
    pub fmax: Frequency,
    /// Core area.
    pub area: Area,
    /// Power at f_max.
    pub power: Power,
}

/// The full 24-point design space of Figure 7 in one technology. Every
/// design point is design-rule-checked against the sweep's technology,
/// and costed at its STA fmax. The points come from the process's one
/// [`crate::design_space`] pass.
///
/// # Panics
///
/// Panics if a design point has a lint error in `technology`.
pub fn figure7(technology: Technology) -> Vec<DesignPoint> {
    let _span = printed_obs::span!("eval.figure7");
    crate::design_space::rows(technology)
        .figure7
        .iter()
        .map(|point| match point {
            Ok(point) => point.clone(),
            Err(report) => panic!("design point fails DRC:\n{}", report.render_text()),
        })
        .collect()
}

/// The core widths Figure 8 runs a given data width on (single-cycle
/// cores only, per the paper; narrow cores coalesce).
pub fn figure8_core_widths(data_width: usize) -> Vec<usize> {
    [4usize, 8, 16, 32].into_iter().filter(|&w| w <= data_width).collect()
}

/// One Figure 8 cell: the kernel, which core ran it, and the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure8Cell {
    /// Kernel name (e.g. `mult16`).
    pub kernel: String,
    /// Benchmark.
    pub bench: Kernel,
    /// Data width.
    pub data_width: usize,
    /// Core width.
    pub core_width: usize,
    /// Whether this is the program-specific variant.
    pub program_specific: bool,
    /// Whether the instruction ROM uses 2-bit MLC cells (dTree-ROMopt).
    pub rom_mlc: bool,
    /// The measurement.
    pub result: BenchmarkResult,
}

/// Regenerates Figure 8 for one technology: every benchmark × data width
/// × supporting single-cycle core, plus the program-specific core at the
/// native width, plus the dTree-ROMopt (2-bit MLC) variant.
///
/// # Errors
///
/// Propagates the first [`SystemError`] from system assembly (program
/// encoding or memory-model construction).
pub fn figure8(technology: Technology) -> Result<Vec<Figure8Cell>, SystemError> {
    let _span = printed_obs::span!("eval.figure8");
    figure8_with_cores(technology, &mut StandardCores::default())
}

/// The standard cores one [`figure8`] call has generated: every cell run
/// on the same standard core shares its netlist, so each is built once.
#[derive(Default)]
struct StandardCores(Vec<(CoreConfig, Arc<Netlist>)>);

impl StandardCores {
    fn get(&mut self, config: CoreConfig) -> Arc<Netlist> {
        if let Some((_, core)) = self.0.iter().find(|(built, _)| *built == config) {
            return Arc::clone(core);
        }
        let core = Arc::new(generate_standard(&config));
        self.0.push((config, Arc::clone(&core)));
        core
    }
}

fn figure8_with_cores(
    technology: Technology,
    cores: &mut StandardCores,
) -> Result<Vec<Figure8Cell>, SystemError> {
    let mut cells = Vec::new();
    for bench in Kernel::ALL {
        for &data_width in bench.data_widths() {
            for core_width in figure8_core_widths(data_width) {
                let Ok(kernel) = kernels::generate(bench, core_width, data_width) else {
                    continue; // unsupported combination (documented)
                };
                let config = CoreConfig::new(1, core_width, 2);
                push_cell(&mut cells, cores, config, kernel.clone(), technology, false, 1)?;
                // Program-specific variant at the native width only.
                if core_width == data_width {
                    push_cell(&mut cells, cores, config, kernel.clone(), technology, true, 1)?;
                    // dTree-ROMopt: the MLC instruction ROM ablation.
                    if bench == Kernel::DTree {
                        push_cell(&mut cells, cores, config, kernel, technology, false, 2)?;
                    }
                }
            }
        }
    }
    Ok(cells)
}

fn push_cell(
    cells: &mut Vec<Figure8Cell>,
    cores: &mut StandardCores,
    config: CoreConfig,
    kernel: KernelProgram,
    technology: Technology,
    program_specific: bool,
    rom_bits_per_cell: u8,
) -> Result<(), SystemError> {
    let bench = kernel.kernel;
    let data_width = kernel.data_width;
    let core_width = kernel.core_width;
    let name = kernel.name.clone();
    let system = if program_specific {
        System::program_specific(config, kernel, technology, rom_bits_per_cell)
    } else {
        System::on_standard_core(cores.get(config), config, kernel, technology, rom_bits_per_cell)
    }?;
    cells.push(Figure8Cell {
        kernel: name,
        bench,
        data_width,
        core_width,
        program_specific,
        rom_mlc: rom_bits_per_cell > 1,
        result: system.run(),
    });
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn figure7_has_24_points_with_paper_shape() {
        let points = figure7(Technology::Egfet);
        assert_eq!(points.len(), 24);

        // §5.2: the largest TP-ISA core is smaller than the smallest
        // pre-existing core (light8080, 11.15 cm² EGFET).
        let largest = points.iter().max_by(|a, b| a.area.partial_cmp(&b.area).unwrap()).unwrap();
        assert!(
            largest.area.as_cm2() < 11.15,
            "largest TP-ISA core {} is {:.2} cm²",
            largest.name,
            largest.area.as_cm2()
        );

        // §5.2: the fastest TP-ISA core beats the fastest baseline
        // (light8080 at 17.39 Hz); p1_4_4 leads.
        let fastest = points.iter().max_by(|a, b| a.fmax.partial_cmp(&b.fmax).unwrap()).unwrap();
        assert!(fastest.fmax.as_hertz() > 17.39, "{}", fastest.name);
        assert_eq!(fastest.datawidth, 4);

        // Wider cores are bigger; deeper pipelines have more registers.
        let p1_4 = points.iter().find(|p| p.name == "p1_4_2").unwrap();
        let p1_32 = points.iter().find(|p| p.name == "p1_32_2").unwrap();
        assert!(p1_32.area > p1_4.area);
        let p3_8 = points.iter().find(|p| p.name == "p3_8_2").unwrap();
        let p1_8 = points.iter().find(|p| p.name == "p1_8_2").unwrap();
        assert!(p3_8.sequential > p1_8.sequential);
    }

    #[test]
    fn single_cycle_8bit_core_power_is_single_digit_milliwatts() {
        // §5.2: "At under 7 mW, the single-cycle 8-bit TP-ISA core
        // consumes under 20% of the power consumed by light8080" (41.7 mW).
        let points = figure7(Technology::Egfet);
        let p1_8_2 = points.iter().find(|p| p.name == "p1_8_2").unwrap();
        let mw = p1_8_2.power.as_milliwatts();
        assert!(mw < 41.7 * 0.30, "p1_8_2 draws {mw:.1} mW");
    }

    #[test]
    fn figure8_builds_each_standard_core_once() {
        let mut cores = StandardCores::default();
        let cells = figure8_with_cores(Technology::Egfet, &mut cores).unwrap();
        let standard: Vec<_> = cells.iter().filter(|c| !c.program_specific).collect();
        let mut widths: Vec<usize> = standard.iter().map(|c| c.core_width).collect();
        widths.sort_unstable();
        widths.dedup();
        assert!(standard.len() > widths.len(), "cells must share cores for the test to bite");
        let built: Vec<usize> = cores.0.iter().map(|(config, _)| config.datawidth).collect();
        assert_eq!(built.len(), widths.len(), "one standard core per width, built {built:?}");
    }

    #[test]
    fn figure8_core_width_filter() {
        assert_eq!(figure8_core_widths(8), vec![4, 8]);
        assert_eq!(figure8_core_widths(32), vec![4, 8, 16, 32]);
    }
}
