//! Table regeneration: Tables 1–8 of the paper as structured data plus
//! rendered text.

use crate::figures::Figure8Cell;
use crate::report::{eng, TextTable};
use printed_baselines::kernels::{self, Bench};
use printed_baselines::BaselineCpu;
use printed_core::kernels as tp_kernels;
use printed_core::specific::{analyze, ProgramAnalysis};
use printed_memory::device::TABLE6;
use printed_memory::Sram;
use printed_pdk::apps::TABLE3;
use printed_pdk::battery::BLUESPARK_30;
use printed_pdk::process::TABLE1;
use printed_pdk::{CellKind, Technology};

/// Table 1: printed-process comparison.
pub fn table1() -> TextTable {
    let mut t = TextTable::new(
        "Table 1: printed/flexible technologies",
        &["process", "route", "V_op [V]", "mobility [cm2/Vs]", "battery-ok"],
    );
    for p in &TABLE1 {
        t.row(vec![
            p.name.to_string(),
            p.route.to_string(),
            eng(p.operating_voltage_v),
            eng(p.mobility_cm2_per_vs),
            if p.battery_compatible() { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Table 2: standard-cell characteristics for both technologies.
pub fn table2() -> TextTable {
    let mut t = TextTable::new(
        "Table 2: standard cells (EGFET @ 1 V / CNT-TFT @ 3 V)",
        &[
            "cell",
            "area E [mm2]",
            "area C [mm2]",
            "energy E [nJ]",
            "energy C [nJ]",
            "rise E [us]",
            "rise C [us]",
            "fall E [us]",
            "fall C [us]",
        ],
    );
    let egfet = Technology::Egfet.library();
    let cnt = Technology::CntTft.library();
    for kind in CellKind::ALL {
        let e = egfet.cell(kind);
        let c = cnt.cell(kind);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.3}", e.area.as_mm2()),
            format!("{:.3}", c.area.as_mm2()),
            eng(e.switch_energy.as_nanojoules()),
            eng(c.switch_energy.as_nanojoules()),
            eng(e.rise_delay.as_micros()),
            eng(c.rise_delay.as_micros()),
            eng(e.fall_delay.as_micros()),
            eng(c.fall_delay.as_micros()),
        ]);
    }
    t
}

/// Table 3: applications, plus feasibility on representative cores
/// (EGFET p1_8_2 at its system rate; CNT for the rest).
pub fn table3(egfet_ips: f64, cnt_ips: f64) -> TextTable {
    let mut t = TextTable::new(
        "Table 3: applications and feasibility",
        &["application", "rate [Hz]", "prec [bits]", "duty", "EGFET-ok", "CNT-ok"],
    );
    for app in &TABLE3 {
        t.row(vec![
            app.name.to_string(),
            eng(app.sample_rate_hz),
            app.precision_bits.to_string(),
            app.duty_cycle.to_string(),
            if app.feasible_at(egfet_ips) { "yes" } else { "no" }.to_string(),
            if app.feasible_at(cnt_ips) { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// One Table 4 row in one technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// CPU name.
    pub cpu: &'static str,
    /// ISA description.
    pub isa: &'static str,
    /// CPI range.
    pub cpi: (u32, u32),
    /// f_max in Hz (EGFET, CNT).
    pub fmax_hz: (f64, f64),
    /// Gate counts (EGFET, CNT).
    pub gates: (usize, usize),
    /// Areas in cm² (EGFET, CNT).
    pub area_cm2: (f64, f64),
    /// Powers in mW (EGFET, CNT).
    pub power_mw: (f64, f64),
}

/// Computes Table 4 from the calibrated inventories.
pub fn table4_rows() -> Vec<Table4Row> {
    BaselineCpu::ALL
        .iter()
        .map(|&cpu| {
            let e = cpu.inventory(Technology::Egfet);
            let c = cpu.inventory(Technology::CntTft);
            Table4Row {
                cpu: cpu.name(),
                isa: cpu.isa(),
                cpi: cpu.cpi_range(),
                fmax_hz: (e.fmax().as_hertz(), c.fmax().as_hertz()),
                gates: (e.gates, c.gates),
                area_cm2: (e.area().as_cm2(), c.area().as_cm2()),
                power_mw: (e.power().as_milliwatts(), c.power().as_milliwatts()),
            }
        })
        .collect()
}

/// Renders Table 4.
pub fn table4() -> TextTable {
    let mut t = TextTable::new(
        "Table 4: pre-existing CPUs (EGFET@1V / CNT-TFT@3V)",
        &["CPU", "ISA", "CPI", "fmax [Hz]", "gates", "area [cm2]", "power [mW]"],
    );
    for r in table4_rows() {
        t.row(vec![
            r.cpu.to_string(),
            r.isa.to_string(),
            format!("{}-{}", r.cpi.0, r.cpi.1),
            format!("{}/{}", eng(r.fmax_hz.0), eng(r.fmax_hz.1)),
            format!("{}/{}", r.gates.0, r.gates.1),
            format!("{}/{}", eng(r.area_cm2.0), eng(r.area_cm2.1)),
            format!("{}/{}", eng(r.power_mw.0), eng(r.power_mw.1)),
        ]);
    }
    t
}

/// One Table 5 cell: EGFET RAM-resident instruction-memory overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Cell {
    /// Benchmark.
    pub bench: Bench,
    /// CPU.
    pub cpu: &'static str,
    /// Program size in bytes.
    pub bytes: usize,
    /// RAM area in cm².
    pub area_cm2: f64,
    /// RAM power in mW (whole-array convention).
    pub power_mw: f64,
}

/// Computes Table 5 from the baseline kernel images and the EGFET RAM
/// model.
pub fn table5_cells() -> Vec<Table5Cell> {
    let mut cells = Vec::new();
    for bench in Bench::ALL {
        for cpu in BaselineCpu::ALL {
            let bytes = kernels::program_bytes(bench, cpu);
            let ram = Sram::with_contents(
                Technology::Egfet,
                8,
                vec![0u64; bytes], // one 8-bit word per program byte
            )
            .unwrap_or_else(|_| unreachable!("program image fits a RAM model"));
            cells.push(Table5Cell {
                bench,
                cpu: cpu.name(),
                bytes,
                area_cm2: ram.area().as_cm2(),
                power_mw: ram.array_power().as_milliwatts(),
            });
        }
    }
    cells
}

/// Renders Table 5.
pub fn table5() -> TextTable {
    let mut t = TextTable::new(
        "Table 5: instruction memory overhead, EGFET RAM (A: cm2, P: mW)",
        &["CPU", "bench", "bytes", "A [cm2]", "P [mW]"],
    );
    for c in table5_cells() {
        t.row(vec![
            c.cpu.to_string(),
            c.bench.to_string(),
            c.bytes.to_string(),
            eng(c.area_cm2),
            eng(c.power_mw),
        ]);
    }
    t
}

/// Table 6: memory device characteristics.
pub fn table6() -> TextTable {
    let mut t = TextTable::new(
        "Table 6: EGFET memory devices",
        &["component", "area [mm2]", "active [uW]", "static [uW]", "delay [ms]"],
    );
    for d in &TABLE6 {
        t.row(vec![
            d.name.to_string(),
            format!("{:.3}", d.area.as_mm2()),
            eng(d.active_power.as_microwatts()),
            eng(d.static_power.as_microwatts()),
            eng(d.delay.as_millis()),
        ]);
    }
    t
}

/// One Table 7 row: program-specific architectural state per kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7Row {
    /// Kernel name.
    pub kernel: String,
    /// The analysis result.
    pub analysis: ProgramAnalysis,
}

/// Computes Table 7: each benchmark analyzed at its native width (the
/// paper analyzes "benchmarks … meant to run on a core whose native data
/// width is the same as the program's data width").
pub fn table7_rows() -> Vec<Table7Row> {
    let mut rows = Vec::new();
    for bench in tp_kernels::Kernel::ALL {
        let width = bench.data_widths()[0];
        let Ok(kernel) = tp_kernels::generate(bench, width, width) else {
            continue;
        };
        rows.push(Table7Row {
            kernel: kernel.name.clone(),
            analysis: analyze(&kernel.instructions),
        });
    }
    rows
}

/// Renders Table 7.
pub fn table7() -> TextTable {
    let mut t = TextTable::new(
        "Table 7: program-specific TP-ISA variants",
        &["benchmark", "PC bits", "BAR bits", "# BARs", "# flags", "instr bits"],
    );
    for r in table7_rows() {
        let printed_bars = r.analysis.bars.saturating_sub(1);
        t.row(vec![
            r.kernel.clone(),
            r.analysis.pc_bits.to_string(),
            if printed_bars == 0 { "N/A".into() } else { r.analysis.bar_bits.to_string() },
            printed_bars.to_string(),
            r.analysis.flags_mask.count_ones().to_string(),
            r.analysis.instruction_bits().to_string(),
        ]);
    }
    t
}

/// One Table 8 row: iterations on the 30 mAh battery.
#[derive(Debug, Clone, PartialEq)]
pub struct Table8Row {
    /// Benchmark name with width (e.g. `mult16`).
    pub kernel: String,
    /// Data width.
    pub data_width: usize,
    /// Iterations for the most efficient standard core.
    pub standard: u64,
    /// Iterations for the program-specific core.
    pub program_specific: u64,
}

/// Computes Table 8 from the Figure 8 EGFET results: for each benchmark
/// and width, the most energy-efficient standard core vs the
/// program-specific core, on a 1 V / 30 mAh battery.
pub fn table8_rows(cells: &[Figure8Cell]) -> Vec<Table8Row> {
    let mut rows = Vec::new();
    let mut keys: Vec<(tp_kernels::Kernel, usize)> =
        cells.iter().map(|c| (c.bench, c.data_width)).collect();
    keys.sort();
    keys.dedup();
    for (bench, data_width) in keys {
        let std_best = cells
            .iter()
            .filter(|c| {
                c.bench == bench && c.data_width == data_width && !c.program_specific && !c.rom_mlc
            })
            .min_by(|a, b| a.result.energy_j.total().total_cmp(&b.result.energy_j.total()));
        let ps = cells
            .iter()
            .find(|c| c.bench == bench && c.data_width == data_width && c.program_specific);
        if let (Some(s), Some(p)) = (std_best, ps) {
            let kernel = if bench == tp_kernels::Kernel::Crc8 {
                bench.name().to_string()
            } else {
                format!("{}{}", bench.name(), data_width)
            };
            rows.push(Table8Row {
                kernel,
                data_width,
                standard: s.result.iterations_on(&BLUESPARK_30),
                program_specific: p.result.iterations_on(&BLUESPARK_30),
            });
        }
    }
    rows
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        assert_eq!(table1().len(), 9);
        assert_eq!(table2().len(), 11);
        assert_eq!(table3(18.0, 40_000.0).len(), 17);
        assert_eq!(table4().len(), 4);
        assert_eq!(table6().len(), 6);
    }

    #[test]
    fn table5_z80_equals_light8080() {
        let cells = table5_cells();
        for bench in Bench::ALL {
            let z80 = cells.iter().find(|c| c.bench == bench && c.cpu == "Z80").unwrap();
            let l = cells.iter().find(|c| c.bench == bench && c.cpu == "light8080").unwrap();
            assert_eq!(z80.bytes, l.bytes);
        }
    }

    #[test]
    fn table7_shows_shrunken_state() {
        let rows = table7_rows();
        assert!(rows.len() >= 6);
        for r in &rows {
            assert!(
                r.analysis.instruction_bits() <= 24,
                "{}: {} bits",
                r.kernel,
                r.analysis.instruction_bits()
            );
            assert!(r.analysis.pc_bits <= 8);
        }
        // The decision tree is the big program: widest PC.
        let dtree = rows.iter().find(|r| r.kernel.starts_with("dTree")).unwrap();
        let mult = rows.iter().find(|r| r.kernel.starts_with("mult")).unwrap();
        assert!(dtree.analysis.pc_bits > mult.analysis.pc_bits);
    }
}
