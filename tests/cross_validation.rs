//! Cross-validation: the same computation through independent paths must
//! agree — ISS vs gate level, narrow vs native cores, standard vs
//! program-specific encodings, TP-ISA vs baseline ISAs.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::core::kernels::{self, join_words, Kernel};
use printed_microprocessors::core::specific::{CoreSpec, NarrowEncoding};
use printed_microprocessors::core::{generate, CoreConfig, GateLevelMachine};
use printed_microprocessors::netlist::opt;

/// Runs a kernel at gate level (standard core + standard encoding) and
/// checks the golden result.
fn gate_level_check(kernel: Kernel, width: usize) {
    let prog = kernels::generate(kernel, width, width).unwrap();
    let config = CoreConfig::new(1, width, 2);
    let spec = CoreSpec::standard(config);
    let netlist = generate(&spec);
    let enc = config.encoding();
    let words: Vec<u64> =
        prog.instructions.iter().map(|&i| enc.encode(i).unwrap() as u64).collect();
    let mut gm = GateLevelMachine::new(&netlist, spec, words, prog.dmem_words).unwrap();
    for &(addr, v) in &prog.inputs {
        gm.write_dmem(addr as usize, v);
    }
    gm.run(5_000_000).unwrap();
    assert!(gm.is_halted(), "{} must halt at gate level", prog.name);
    let (addr, n) = prog.result;
    for i in 0..n {
        assert_eq!(
            gm.dmem()[addr as usize + i],
            prog.expected[i],
            "{}: gate-level word {i}",
            prog.name
        );
    }
}

#[test]
fn gate_level_matches_golden_for_every_8bit_kernel() {
    for kernel in Kernel::ALL {
        gate_level_check(kernel, 8);
    }
}

#[test]
fn gate_level_matches_golden_at_16_bits() {
    gate_level_check(Kernel::Mult, 16);
    gate_level_check(Kernel::THold, 16);
    gate_level_check(Kernel::IntAvg, 16);
}

/// The program-specific core netlist (narrow PC, trimmed flags, narrowed
/// encoding, constant-folded) must still compute the right answer at
/// gate level.
#[test]
fn program_specific_cores_work_at_gate_level() {
    for kernel in [Kernel::Mult, Kernel::THold, Kernel::DTree] {
        let prog = kernels::generate(kernel, 8, 8).unwrap();
        let config = CoreConfig::new(1, 8, 2);
        let spec = CoreSpec::program_specific(config, &prog.instructions, &prog.name);
        let raw = generate(&spec);
        let netlist = opt::optimize(&raw);
        let words = NarrowEncoding::new(spec.clone()).encode_program(&prog.instructions).unwrap();
        let mut gm = GateLevelMachine::new(&netlist, spec, words, prog.dmem_words).unwrap();
        for &(addr, v) in &prog.inputs {
            gm.write_dmem(addr as usize, v);
        }
        gm.run(5_000_000).unwrap();
        assert!(gm.is_halted(), "{}: PS netlist must halt", prog.name);
        let (addr, n) = prog.result;
        for i in 0..n {
            assert_eq!(
                gm.dmem()[addr as usize + i],
                prog.expected[i],
                "{}: PS gate-level word {i}",
                prog.name
            );
        }
        assert!(
            netlist.gate_count() < raw.gate_count(),
            "{}: constant folding should shrink the PS netlist",
            prog.name
        );
    }
}

/// Data coalescing: the narrow cores must compute bit-identical results
/// to the native cores for every kernel/width combination that supports
/// it.
#[test]
fn coalesced_results_match_native_results() {
    for kernel in [Kernel::Mult, Kernel::Div, Kernel::IntAvg] {
        for &data_width in kernel.data_widths() {
            let native = kernels::generate(kernel, data_width, data_width).unwrap();
            for core_width in [4usize, 8, 16] {
                if core_width >= data_width {
                    continue;
                }
                let Ok(narrow) = kernels::generate(kernel, core_width, data_width) else {
                    continue;
                };
                let mut mn = native.machine(CoreConfig::new(1, data_width, 2));
                let mut mw = narrow.machine(CoreConfig::new(1, core_width, 2));
                mn.run(50_000_000).unwrap();
                mw.run(50_000_000).unwrap();
                let rn: Vec<u64> = (0..native.result.1)
                    .map(|i| mn.dmem().read(native.result.0 as usize + i).unwrap())
                    .collect();
                let rw: Vec<u64> = (0..narrow.result.1)
                    .map(|i| mw.dmem().read(narrow.result.0 as usize + i).unwrap())
                    .collect();
                // Compare per logical element of `data_width` bits: the
                // native machine stores one word per element, the narrow
                // machine several.
                let elements = native.result.1;
                let per_narrow = narrow.result.1 / elements;
                for e in 0..elements {
                    let native_val = rn[e];
                    let narrow_val =
                        join_words(&rw[e * per_narrow..(e + 1) * per_narrow], core_width);
                    assert_eq!(
                        native_val, narrow_val,
                        "{kernel} d{data_width} on w{core_width}: element {e}"
                    );
                }
            }
        }
    }
}

/// All three baseline ISAs must agree with each other (they share inputs
/// and golden models; the kernel runners assert internally).
#[test]
fn baseline_isas_agree() {
    use printed_microprocessors::baselines::kernels::{run, Bench};
    use printed_microprocessors::baselines::BaselineCpu;
    for bench in Bench::ALL {
        let mut cycle_counts = Vec::new();
        for cpu in BaselineCpu::ALL {
            let r = run(bench, cpu); // panics internally on a wrong result
            cycle_counts.push((cpu.name(), r.cycles));
        }
        // The stack machine should be the least cycle-efficient of the
        // 8-bit-class CPUs for compute kernels.
        if matches!(bench, Bench::Mult | Bench::Div) {
            let zpu = cycle_counts.iter().find(|(n, _)| *n == "ZPU_small").unwrap().1;
            let msp = cycle_counts.iter().find(|(n, _)| *n == "openMSP430").unwrap().1;
            assert!(zpu > msp, "{bench}: ZPU {zpu} cycles vs MSP430 {msp}");
        }
    }
}
