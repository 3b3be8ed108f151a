//! Program-level workloads for fault-injection campaigns on TP-ISA cores.
//!
//! [`ProgramWorkload`] adapts the gate-level co-simulation of
//! [`crate::cosim`] to the campaign engine in [`printed_netlist::fault`]:
//! each fault run boots the core netlist (with the fault pre-injected),
//! executes an encoded TP-ISA program, and signs the architectural
//! outcome, so the campaign can tell a masked defect from silent data
//! corruption. A scalar run is one [`GateLevelMachine::observe`], a
//! bitsliced word one program on every lane of the word-wide machine.
//!
//! ```
//! use printed_core::workload::ProgramWorkload;
//! use printed_core::{generate_standard, CoreConfig};
//! use printed_netlist::fault::{run_campaign, CampaignConfig, StuckAtSpace};
//!
//! let config = CoreConfig::new(1, 4, 2);
//! let netlist = generate_standard(&config);
//! let workload = ProgramWorkload::smoke(config);
//! let campaign = CampaignConfig {
//!     stuck_at: StuckAtSpace::Sampled(4),
//!     ..CampaignConfig::default()
//! };
//! let result = run_campaign(&netlist, &workload, &campaign, 1)?;
//! assert_eq!(result.runs.len(), 4);
//! # Ok::<(), printed_netlist::fault::CampaignError>(())
//! ```

use crate::bitmachine::{BitMachine, LaneProgram};
use crate::config::CoreConfig;
use crate::generator::GateLevelMachine;
use crate::isa::{Instruction, IsaError};
use crate::kernels::KernelProgram;
use crate::specific::{CoreSpec, NarrowEncoding};
use printed_netlist::fault::{LaneOutcome, Observation, Workload};
use printed_netlist::{BitSimulator, NetlistError, Simulator};

/// A fixed TP-ISA program run as a fault-campaign workload on a
/// single-cycle core netlist (standard or TMR-hardened).
#[derive(Debug, Clone)]
pub struct ProgramWorkload {
    spec: CoreSpec,
    program: Vec<u64>,
    dmem_words: usize,
    inputs: Vec<(usize, u64)>,
}

impl ProgramWorkload {
    /// Encodes `instructions` for the standard layout of `config`.
    ///
    /// # Errors
    ///
    /// Returns the first [`IsaError`] if an instruction does not encode
    /// under the config's field widths.
    pub fn new(
        config: CoreConfig,
        instructions: &[Instruction],
        dmem_words: usize,
    ) -> Result<Self, IsaError> {
        Self::for_spec(CoreSpec::standard(config), instructions, dmem_words)
    }

    /// Encodes `instructions` under the narrow layout of an arbitrary
    /// [`CoreSpec`] — the entry point for fault campaigns on
    /// program-specific (ISA-subset) cores, where the standard encoding
    /// does not apply.
    ///
    /// # Errors
    ///
    /// Returns the first [`IsaError`] if an instruction does not encode
    /// under the spec's narrowed field widths (e.g. an opcode pruned from
    /// the subset).
    pub fn for_spec(
        spec: CoreSpec,
        instructions: &[Instruction],
        dmem_words: usize,
    ) -> Result<Self, IsaError> {
        let program = NarrowEncoding::new(spec.clone()).encode_program(instructions)?;
        Ok(ProgramWorkload { spec, program, dmem_words, inputs: Vec::new() })
    }

    /// Preloads `inputs` as `(dmem address, value)` words written before
    /// the program boots — the same hook kernels use.
    pub fn with_inputs(mut self, inputs: Vec<(usize, u64)>) -> Self {
        self.inputs = inputs;
        self
    }

    /// Wraps a generated benchmark kernel, preloading its input words.
    ///
    /// # Errors
    ///
    /// Returns the first [`IsaError`] if the kernel does not encode under
    /// the config's field widths.
    pub fn from_kernel(kernel: &KernelProgram, config: CoreConfig) -> Result<Self, IsaError> {
        assert_eq!(
            config.datawidth, kernel.core_width,
            "kernel was generated for a {}-bit core",
            kernel.core_width
        );
        let mut workload = Self::new(config, &kernel.instructions, kernel.dmem_words)?;
        workload.inputs =
            kernel.inputs.iter().map(|&(addr, value)| (addr as usize, value)).collect();
        Ok(workload)
    }

    /// A short branch-free arithmetic/logic/rotate program whose
    /// immediates and addresses fit every design point down to the 4-bit
    /// cores — the standard stimulus for design-space fault campaigns,
    /// where full benchmark kernels would make exhaustive stuck-at
    /// enumeration too slow.
    pub fn smoke(config: CoreConfig) -> Self {
        let src = "
            STORE [0], #5
            STORE [1], #3
            ADD   [0], [1]
            NOT   [2], [0]
            XOR   [3], [3]
            RL    [4], [1]
            HALT
        ";
        let prog =
            crate::asm::assemble(src).unwrap_or_else(|_| unreachable!("smoke program assembles"));
        Self::new(config, &prog.instructions, 8)
            .unwrap_or_else(|_| unreachable!("smoke program encodes everywhere"))
    }

    /// Static instruction count of the encoded program.
    pub fn instruction_count(&self) -> usize {
        self.program.len()
    }
}

impl Workload for ProgramWorkload {
    fn run(&self, sim: Simulator<'_>, cycle_budget: u64) -> Result<Observation, NetlistError> {
        let mut machine = GateLevelMachine::with_simulator(
            sim,
            self.spec.clone(),
            self.program.clone(),
            self.dmem_words,
        )?;
        for &(addr, value) in &self.inputs {
            machine.write_dmem(addr, value);
        }
        machine.observe(cycle_budget)
    }

    fn run_bitsliced(
        &self,
        sim: BitSimulator<'_>,
        cycle_budget: u64,
    ) -> Option<Result<Vec<LaneOutcome>, NetlistError>> {
        let program =
            LaneProgram { lanes: u64::MAX, rom: self.program.clone(), dmem_words: self.dmem_words };
        let outcomes = BitMachine::new(sim, &self.spec, vec![program]).map(|mut machine| {
            for &(addr, value) in &self.inputs {
                machine.write_dmem(u64::MAX, addr, value);
            }
            machine.observe(cycle_budget)
        });
        Some(outcomes)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::generator::generate_standard;
    use printed_netlist::fault::{
        classify_fault, run_campaign, CampaignConfig, Fault, FaultKind, Outcome, ScalarOnly,
        StuckAtSpace,
    };
    use printed_netlist::{tmr, GateId};

    #[test]
    fn smoke_program_encodes_on_every_single_cycle_design_point() {
        for config in CoreConfig::design_space() {
            if config.pipeline_stages != 1 {
                continue;
            }
            let w = ProgramWorkload::smoke(config);
            assert!(w.instruction_count() >= 7, "{}", config.name());
        }
    }

    #[test]
    fn fault_free_smoke_run_halts_with_the_expected_result() {
        let config = CoreConfig::new(1, 8, 2);
        let nl = generate_standard(&config);
        let w = ProgramWorkload::smoke(config);
        let obs = w.run(Simulator::new(&nl), 1000).unwrap();
        assert!(obs.completed);
        assert!(!obs.detected);
        // STORE/ADD: dmem[0] = 5 + 3.
        assert_eq!(obs.signature[0], 8);
        assert_eq!(obs.signature[1], 3);
        // NOT [2],[0] = !8 (8-bit).
        assert_eq!(obs.signature[2], 0xF7);
        assert_eq!(obs.signature[3], 0);
    }

    #[test]
    fn program_specific_workload_matches_the_standard_architectural_result() {
        use crate::generator::generate;

        let config = CoreConfig::new(1, 8, 2);
        let prog = crate::asm::assemble(
            "
            STORE [0], #5
            STORE [1], #3
            ADD   [0], [1]
            HALT
        ",
        )
        .unwrap();
        let spec = CoreSpec::program_specific(config, &prog.instructions, "svc_add");
        let nl = generate(&spec);
        let w = ProgramWorkload::for_spec(spec, &prog.instructions, 4).unwrap();
        let obs = w.run(Simulator::new(&nl), 1000).unwrap();
        assert!(obs.completed);
        assert_eq!(obs.signature[0], 8, "ISA-subset core computes the same sum");
        assert_eq!(obs.signature[1], 3);
    }

    #[test]
    fn campaign_on_a_tiny_core_masks_some_faults_and_corrupts_others() {
        let config = CoreConfig::new(1, 4, 2);
        let nl = generate_standard(&config);
        let w = ProgramWorkload::smoke(config);
        let campaign = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(40),
            seu_samples: 8,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&nl, &w, &campaign, 1).unwrap();
        assert_eq!(result.runs.len(), 48);
        let counts = result.counts();
        assert!(counts.masked > 0, "some faults must be architecturally masked: {counts:?}");
        assert!(counts.sdc + counts.hang > 0, "some faults must break the program: {counts:?}");
    }

    #[test]
    fn bitsliced_lanes_reproduce_per_fault_scalar_observations() {
        use printed_netlist::FaultMap;

        let config = CoreConfig::new(1, 4, 2);
        let nl = generate_standard(&config);
        let w = ProgramWorkload::smoke(config);
        let seq = (0..nl.gate_count())
            .find(|&i| nl.gates()[i].is_sequential())
            .expect("a core has registers");
        let faults = vec![
            Fault { gate: GateId::from_index(3), kind: FaultKind::StuckAt0 },
            Fault { gate: GateId::from_index(11), kind: FaultKind::StuckAt1 },
            Fault { gate: GateId::from_index(seq), kind: FaultKind::Seu { cycle: 2 } },
        ];
        let mut bsim = printed_netlist::BitSimulator::new(&nl);
        for &f in &faults {
            bsim.inject_fault(f);
        }
        let outcomes = w.run_bitsliced(bsim, 1000).unwrap().unwrap();
        assert_eq!(outcomes.len(), faults.len() + 1);
        let golden = w.run(Simulator::new(&nl), 1000).unwrap();
        assert_eq!(outcomes[0], LaneOutcome::Done(golden), "lane 0 is the golden reference");
        for (lane, &fault) in outcomes[1..].iter().zip(&faults) {
            let mut sim = Simulator::new(&nl);
            sim.inject(FaultMap::single(&nl, fault));
            match (lane, w.run(sim, 1000)) {
                (LaneOutcome::Done(obs), Ok(scalar)) => {
                    assert_eq!(*obs, scalar, "{fault}");
                }
                (LaneOutcome::Wedged, Err(_)) => {}
                (lane, scalar) => panic!("{fault}: lane {lane:?} vs scalar {scalar:?}"),
            }
        }
    }

    #[test]
    fn faulty_lanes_stop_at_the_budget_relative_to_lane_0() {
        use printed_netlist::fault::faulty_budget;
        use printed_netlist::FaultMap;

        let config = CoreConfig::new(1, 4, 2);
        let nl = generate_standard(&config);
        let w = ProgramWorkload::smoke(config);
        let g = w.run(Simulator::new(&nl), 1000).unwrap().cycles;
        let scalar = |fault: Fault, budget: u64| {
            let mut sim = Simulator::new(&nl);
            sim.inject(FaultMap::single(&nl, fault));
            w.run(sim, budget)
        };
        // Stuck-at faults that keep the core from halting: their lanes
        // outlive lane 0 under any cap.
        let hangs: Vec<Fault> = (0..nl.gate_count())
            .flat_map(|i| {
                [FaultKind::StuckAt0, FaultKind::StuckAt1]
                    .map(|kind| Fault { gate: GateId::from_index(i), kind })
            })
            .filter(|&f| scalar(f, 4 * g + 8).is_ok_and(|o| !o.completed))
            .take(8)
            .collect();
        assert!(!hangs.is_empty(), "some stuck-at fault hangs the smoke program");
        // A loose cap, where the faulty limit 4g + 8 is well below the
        // cap, and a tight one just past the golden halt.
        for cap in [1000, g + 2] {
            let limit = faulty_budget(cap, g);
            let mut bsim = printed_netlist::BitSimulator::new(&nl);
            for &f in &hangs {
                bsim.inject_fault(f);
            }
            let outcomes = w.run_bitsliced(bsim, cap).unwrap().unwrap();
            let LaneOutcome::Done(golden) = &outcomes[0] else { panic!("lane 0 wedged") };
            assert_eq!((golden.completed, golden.cycles), (true, g), "cap {cap}: lane 0");
            for (lane, &fault) in outcomes[1..].iter().zip(&hangs) {
                let LaneOutcome::Done(observed) = lane else { panic!("{fault}: lane wedged") };
                assert!(!observed.completed, "cap {cap}: {fault} outlives lane 0");
                assert_eq!(observed.cycles, limit, "cap {cap}: {fault} stops at the faulty budget");
                assert_eq!(*observed, scalar(fault, limit).unwrap(), "cap {cap}: {fault}");
            }
        }
    }

    #[test]
    fn bitsliced_program_campaign_matches_scalar_byte_for_byte() {
        let config = CoreConfig::new(1, 4, 2);
        let nl = generate_standard(&config);
        let w = ProgramWorkload::smoke(config);
        let campaign = CampaignConfig {
            stuck_at: StuckAtSpace::Sampled(20),
            seu_samples: 8,
            ..CampaignConfig::default()
        };
        let scalar = run_campaign(&nl, &ScalarOnly(&w), &campaign, 1).unwrap();
        for threads in [1, 4] {
            let bits = run_campaign(&nl, &w, &campaign, threads).unwrap();
            assert_eq!(bits, scalar, "{threads} threads");
            assert_eq!(bits.to_csv(), scalar.to_csv(), "byte-identical CSV at {threads} threads");
        }

        // A budget just past the golden halt stops the faulty lanes still
        // running when the golden lane retires: bitsliced words report
        // them uncompleted, and both engines must call them hangs.
        let golden = w.run(Simulator::new(&nl), campaign.cycle_budget).unwrap().cycles;
        let tight = CampaignConfig { cycle_budget: golden + 2, ..campaign };
        let scalar_tight = run_campaign(&nl, &ScalarOnly(&w), &tight, 1).unwrap();
        let bits_tight = run_campaign(&nl, &w, &tight, 1).unwrap();
        assert!(bits_tight.counts().hang > 0, "the budget must stop some faulty lanes");
        assert_eq!(bits_tight, scalar_tight, "the same verdict for every fault");
        assert_eq!(bits_tight.to_csv(), scalar_tight.to_csv());

        // The fault_injection example's campaign: every stuck-at of
        // p1_4_2 plus 32 SEUs at the default seed, on both engines at 1
        // and 2 workers.
        let example = CampaignConfig { seu_samples: 32, ..CampaignConfig::default() };
        let csv = |workload: &dyn Workload, threads| {
            run_campaign(&nl, workload, &example, threads).unwrap().to_csv()
        };
        let reference = csv(&ScalarOnly(&w), 1);
        assert_eq!(csv(&ScalarOnly(&w), 2), reference, "scalar engine, 2 workers");
        for threads in [1, 2] {
            assert_eq!(csv(&w, threads), reference, "bitsliced engine, {threads} workers");
        }
    }

    #[test]
    fn tmr_core_masks_an_seu_that_corrupts_the_plain_core() {
        let config = CoreConfig::new(1, 4, 2);
        let nl = generate_standard(&config);
        let hardened = tmr(&nl).unwrap();
        let w = ProgramWorkload::smoke(config);
        // Find an SEU that visibly corrupts the plain core: flip each
        // architectural register at cycle 2 until one produces SDC.
        let seu = (0..nl.gate_count())
            .filter(|&i| nl.gates()[i].is_sequential())
            .map(|i| Fault { gate: GateId::from_index(i), kind: FaultKind::Seu { cycle: 2 } })
            .find(|&f| classify_fault(&nl, &w, f, 1000).unwrap() != Outcome::Masked)
            .expect("some register upset corrupts the unhardened core");
        // Every single-register SEU on the hardened core is voted away.
        let campaign = CampaignConfig {
            stuck_at: StuckAtSpace::None,
            seu_samples: 12,
            ..CampaignConfig::default()
        };
        let result = run_campaign(&hardened, &w, &campaign, 1).unwrap();
        let counts = result.counts();
        assert_eq!(counts.masked, counts.total(), "TMR masks every single SEU: {counts:?}");
        let _ = seu;
    }
}
