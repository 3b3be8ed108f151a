//! Full TP-ISA system model: core + crosspoint instruction ROM + SRAM
//! data memory (the configuration evaluated in Section 8 / Figure 8).
//!
//! A [`System`] combines a generated core netlist with an instruction ROM
//! sized to the program and a data RAM sized to the kernel's footprint
//! ("instructions are stored in the proposed ROM which is just large
//! enough to store exactly as many static instructions as exist in the
//! program. Data memory is implemented as a RAM which contains exactly as
//! many entries as are required by the application").
//!
//! Cost conventions (documented in DESIGN.md):
//! - The system cycle serializes fetch, data access, and core logic:
//!   `t_cycle = t_core + t_ROM + t_RAM`. For EGFET the core dominates;
//!   for CNT-TFT the 302 µs ROM access dominates, reproducing the
//!   Section 8 observation.
//! - Energy per cycle = core switching energy (activity-weighted) + one
//!   ROM fetch + average RAM traffic, plus all static power over the
//!   cycle. Figure 8's four components map to: C (combinational core), R
//!   (core registers), IM (ROM), DM (RAM).

use printed_core::kernels::KernelProgram;
use printed_core::specific::{CoreSpec, NarrowEncoding};
use printed_core::{generate, generate_standard, CoreConfig};
use printed_memory::{CrossbarRom, Sram};
use printed_netlist::{analysis, opt, Netlist, Region};
use printed_pdk::units::{Area, Energy, Frequency, Power, Time};
use printed_pdk::{CellLibrary, Technology};
use std::sync::Arc;

/// Whether a system uses the standard or the program-specific core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreFlavor {
    /// Standard TP-ISA core (full 24-bit encoding, 8-bit PC/BARs, all
    /// flags).
    Standard,
    /// Program-specific core (Section 7): trimmed registers and narrowed
    /// instruction encoding, netlist constant-folded.
    ProgramSpecific,
}

/// Per-component breakdown used by Figure 8 (area and energy) and the
/// execution-time bars (core / IM / DM).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Combinational core logic.
    pub combinational: f64,
    /// Core registers.
    pub registers: f64,
    /// Instruction memory.
    pub imem: f64,
    /// Data memory.
    pub dmem: f64,
}

impl Breakdown {
    /// Sum of all components.
    pub fn total(&self) -> f64 {
        self.combinational + self.registers + self.imem + self.dmem
    }
}

/// A fully assembled printed microprocessor system for one kernel.
#[derive(Debug, Clone)]
pub struct System {
    /// Label, e.g. `p1_8_2` or `p1_8_2@mult8_w8 (PS)`.
    pub name: String,
    /// Which technology it is printed in.
    pub technology: Technology,
    /// Core flavor.
    pub flavor: CoreFlavor,
    /// The core's spec (standard or program-specific).
    pub spec: CoreSpec,
    /// The kernel it runs.
    pub kernel: KernelProgram,
    /// Generated (and, for PS, optimized) core netlist; systems built
    /// on one standard core share it.
    pub netlist: Arc<Netlist>,
    /// The instruction ROM holding the encoded program.
    pub rom: CrossbarRom,
    /// The data RAM.
    pub ram: Sram,
}

/// Errors assembling a system.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Program failed to encode into the ROM format.
    Encode(String),
    /// Memory construction failed.
    Memory(printed_memory::MemoryError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Encode(e) => write!(f, "program encoding failed: {e}"),
            SystemError::Memory(e) => write!(f, "memory model failed: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<printed_memory::MemoryError> for SystemError {
    fn from(e: printed_memory::MemoryError) -> Self {
        SystemError::Memory(e)
    }
}

impl System {
    /// Assembles a standard-core system for a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the program cannot be encoded or the
    /// memories cannot be built.
    pub fn standard(
        config: CoreConfig,
        kernel: KernelProgram,
        technology: Technology,
        rom_bits_per_cell: u8,
    ) -> Result<Self, SystemError> {
        Self::on_standard_core(
            Arc::new(generate_standard(&config)),
            config,
            kernel,
            technology,
            rom_bits_per_cell,
        )
    }

    /// [`System::standard`] on a core already generated for `config`
    /// (by [`generate_standard`]), so systems that run different kernels
    /// on one core share its netlist.
    pub(crate) fn on_standard_core(
        core: Arc<Netlist>,
        config: CoreConfig,
        kernel: KernelProgram,
        technology: Technology,
        rom_bits_per_cell: u8,
    ) -> Result<Self, SystemError> {
        let spec = CoreSpec::standard(config);
        Self::build(spec, core, kernel, technology, rom_bits_per_cell, CoreFlavor::Standard)
    }

    /// Assembles a program-specific system (Section 7) for a kernel.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] if the program cannot be encoded or the
    /// memories cannot be built.
    pub fn program_specific(
        config: CoreConfig,
        kernel: KernelProgram,
        technology: Technology,
        rom_bits_per_cell: u8,
    ) -> Result<Self, SystemError> {
        let spec = CoreSpec::program_specific(config, &kernel.instructions, &kernel.name);
        // Print-time specialization lets synthesis fold the constants
        // the narrower spec exposes.
        let core = Arc::new(opt::optimize(&generate(&spec)));
        Self::build(spec, core, kernel, technology, rom_bits_per_cell, CoreFlavor::ProgramSpecific)
    }

    fn build(
        spec: CoreSpec,
        netlist: Arc<Netlist>,
        kernel: KernelProgram,
        technology: Technology,
        rom_bits_per_cell: u8,
        flavor: CoreFlavor,
    ) -> Result<Self, SystemError> {
        let enc = NarrowEncoding::new(spec.clone());
        let words = enc
            .encode_program(&kernel.instructions)
            .map_err(|e| SystemError::Encode(e.to_string()))?;
        let rom = CrossbarRom::new(technology, spec.instruction_bits(), rom_bits_per_cell, words)?;
        let dmem_words = match flavor {
            CoreFlavor::Standard => kernel.dmem_words,
            CoreFlavor::ProgramSpecific => spec.dmem_words.max(kernel.dmem_words),
        };
        let ram = Sram::new(technology, dmem_words, spec.datawidth)?;
        let name = match flavor {
            CoreFlavor::Standard => format!("{} {}", spec.name(), kernel.name),
            CoreFlavor::ProgramSpecific => format!("{} (PS)", spec.name()),
        };
        Ok(System { name, technology, flavor, spec, kernel, netlist, rom, ram })
    }

    fn lib(&self) -> &'static CellLibrary {
        self.technology.library()
    }

    /// Core-only maximum frequency (the Figure 7 metric).
    pub fn core_fmax(&self) -> Frequency {
        analysis::timing(&self.netlist, self.lib()).fmax()
    }

    /// System cycle time: core critical path + ROM fetch + RAM access.
    pub fn cycle_time(&self) -> Time {
        self.cycle_time_around(analysis::timing(&self.netlist, self.lib()).critical_path)
    }

    /// The system cycle time around a core critical path of `core_cp`.
    fn cycle_time_around(&self, core_cp: Time) -> Time {
        core_cp + self.rom.access_delay() + self.ram.access_delay()
    }

    /// System clock frequency.
    pub fn frequency(&self) -> Frequency {
        self.cycle_time().frequency()
    }

    /// Area breakdown in cm² (Figure 8 top row).
    pub fn area_breakdown(&self) -> Breakdown {
        let report = analysis::area(&self.netlist, self.lib());
        let comb = report.by_region.get(&Region::Combinational).copied().unwrap_or(Area::ZERO);
        let regs = report.by_region.get(&Region::Registers).copied().unwrap_or(Area::ZERO);
        Breakdown {
            combinational: comb.as_cm2(),
            registers: regs.as_cm2(),
            imem: self.rom.area().as_cm2(),
            dmem: self.ram.area().as_cm2(),
        }
    }

    /// Total printed area.
    pub fn area(&self) -> Area {
        Area::from_cm2(self.area_breakdown().total())
    }

    /// Average system power while running (used for lifetime estimates).
    pub fn power(&self) -> Power {
        let f = self.frequency();
        let core = analysis::power(&self.netlist, self.lib(), f, Default::default());
        core.total()
            + self.rom.static_power()
            + self.rom.access_power()
            + self.ram.static_power()
            + self.ram.access_power()
    }

    /// Runs the kernel on the ISS and returns the benchmark-level result
    /// (Figure 8 row for this system).
    ///
    /// # Panics
    ///
    /// Panics if the kernel fails to run or produces a wrong result —
    /// both indicate internal bugs.
    pub fn run(&self) -> BenchmarkResult {
        let config = CoreConfig::new(
            self.spec.pipeline_stages,
            self.spec.datawidth,
            self.spec.bars.max(2), // the ISS needs a valid config; BAR use is program-driven
        );
        let mut m = self.kernel.machine(config);
        let summary = m.run(50_000_000).unwrap_or_else(|e| panic!("kernel must halt: {e}"));
        if printed_obs::enabled() {
            m.publish_obs("core.iss");
            printed_obs::gauge(&format!("core.iss.cpi.{}", self.kernel.name), summary.cpi());
        }
        let (addr, words) = self.kernel.result;
        for i in 0..words {
            assert_eq!(
                m.dmem()
                    .read(addr as usize + i)
                    .unwrap_or_else(|_| unreachable!("results fit dmem")),
                self.kernel.expected[i],
                "{}: wrong result word {i}",
                self.name
            );
        }

        let lib = self.lib();
        let core_cp = analysis::timing(&self.netlist, lib).critical_path;
        let cycle = self.cycle_time_around(core_cp);
        let cycles = summary.cycles as f64;

        // Execution time components.
        let time = Breakdown {
            combinational: (core_cp * cycles).as_secs(),
            registers: 0.0, // register delay is folded into the core path
            imem: (self.rom.access_delay() * cycles).as_secs(),
            dmem: (self.ram.access_delay() * cycles).as_secs(),
        };
        let exec_time = cycle * cycles;

        // Energy: per-region core dynamic + static over runtime; memory
        // access energy per event + static over runtime.
        let power = analysis::power(&self.netlist, lib, cycle.frequency(), Default::default());
        let comb_p = power.by_region.get(&Region::Combinational).copied().unwrap_or(Power::ZERO);
        let regs_p = power.by_region.get(&Region::Registers).copied().unwrap_or(Power::ZERO);
        let imem_e: Energy = self.rom.access_energy() * summary.imem_reads as f64
            + self.rom.static_power() * exec_time;
        let dmem_accesses = (summary.dmem_reads + summary.dmem_writes) as f64;
        let dmem_e: Energy =
            self.ram.access_energy() * dmem_accesses + self.ram.static_power() * exec_time;
        let energy = Breakdown {
            combinational: (comb_p * exec_time).as_joules(),
            registers: (regs_p * exec_time).as_joules(),
            imem: imem_e.as_joules(),
            dmem: dmem_e.as_joules(),
        };

        BenchmarkResult {
            system: self.name.clone(),
            kernel: self.kernel.name.clone(),
            flavor: self.flavor,
            technology: self.technology,
            cycles: summary.cycles,
            instructions: summary.instructions,
            exec_time,
            area_cm2: self.area_breakdown(),
            energy_j: energy,
            time_s: time,
        }
    }
}

/// Benchmark-level result: one bar group of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// System label.
    pub system: String,
    /// Kernel name.
    pub kernel: String,
    /// Core flavor.
    pub flavor: CoreFlavor,
    /// Technology.
    pub technology: Technology,
    /// Cycles per iteration.
    pub cycles: u64,
    /// Instructions per iteration.
    pub instructions: u64,
    /// Wall-clock time per iteration.
    pub exec_time: Time,
    /// Area components in cm².
    pub area_cm2: Breakdown,
    /// Energy components per iteration, in joules.
    pub energy_j: Breakdown,
    /// Time components per iteration, in seconds.
    pub time_s: Breakdown,
}

impl BenchmarkResult {
    /// Total energy per iteration.
    pub fn energy(&self) -> Energy {
        Energy::from_joules(self.energy_j.total())
    }

    /// Iterations a battery can sustain (Table 8).
    pub fn iterations_on(&self, battery: &printed_pdk::battery::Battery) -> u64 {
        (battery.energy_budget() / self.energy()).floor() as u64
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use printed_core::kernels::{self, Kernel};

    fn mult8_system(flavor: CoreFlavor) -> System {
        let kernel = kernels::generate(Kernel::Mult, 8, 8).unwrap();
        let config = CoreConfig::new(1, 8, 2);
        match flavor {
            CoreFlavor::Standard => System::standard(config, kernel, Technology::Egfet, 1).unwrap(),
            CoreFlavor::ProgramSpecific => {
                System::program_specific(config, kernel, Technology::Egfet, 1).unwrap()
            }
        }
    }

    #[test]
    fn standard_system_runs_and_reports() {
        let sys = mult8_system(CoreFlavor::Standard);
        let result = sys.run();
        assert!(result.cycles > 0);
        assert!(result.exec_time.as_secs() > 0.1, "EGFET is slow");
        assert!(result.area_cm2.total() > 1.0);
        assert!(result.energy_j.total() > 0.0);
    }

    #[test]
    fn program_specific_beats_standard() {
        // §8: "For each benchmark, the program-specific ISA core consumes
        // less energy than all other cores, and uses less area than all
        // other cores which support the same datawidth."
        let std_sys = mult8_system(CoreFlavor::Standard);
        let ps_sys = mult8_system(CoreFlavor::ProgramSpecific);
        let std_r = std_sys.run();
        let ps_r = ps_sys.run();
        assert!(ps_r.area_cm2.total() < std_r.area_cm2.total(), "PS area must shrink");
        assert!(ps_r.energy_j.total() < std_r.energy_j.total(), "PS energy must shrink");
        assert_eq!(ps_r.cycles, std_r.cycles, "same program, same cycles");
    }

    #[test]
    fn ps_core_has_fewer_registers() {
        let std_sys = mult8_system(CoreFlavor::Standard);
        let ps_sys = mult8_system(CoreFlavor::ProgramSpecific);
        assert!(ps_sys.netlist.sequential_count() < std_sys.netlist.sequential_count());
        assert!(ps_sys.rom.word_bits() < std_sys.rom.word_bits());
    }

    #[test]
    fn cnt_system_is_dominated_by_rom_latency() {
        // §8: "CNT-TFT execution times are dominated by 302 µs ROM access
        // latencies".
        let kernel = kernels::generate(Kernel::Mult, 8, 8).unwrap();
        let sys =
            System::standard(CoreConfig::new(1, 8, 2), kernel, Technology::CntTft, 1).unwrap();
        let r = sys.run();
        assert!(
            r.time_s.imem > r.time_s.combinational,
            "ROM latency should dominate the CNT cycle"
        );
    }

    #[test]
    fn battery_iterations_are_finite_and_positive() {
        let sys = mult8_system(CoreFlavor::Standard);
        let r = sys.run();
        let iters = r.iterations_on(&printed_pdk::battery::BLUESPARK_30);
        assert!(iters > 0, "a 108 J budget runs mult at least once");
        assert!(iters < 10_000_000);
    }
}
