//! Quickstart: write a TP-ISA program, run it, print the hardware it
//! would cost to print.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use printed_microprocessors::core::specific::CoreSpec;
use printed_microprocessors::core::{
    asm::assemble, generate_standard, CoreConfig, GateLevelMachine, Machine,
};
use printed_microprocessors::netlist::analysis;
use printed_microprocessors::pdk::Technology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a tiny TP-ISA program: 6 factorial by repeated addition.
    let program = assemble(
        "
        ; mem[0] = 6! computed as repeated multiply-by-add
        ; mem[1] = multiplier k (counts 2..6), mem[2] = constant 1
            STORE [0], #1        ; acc = 1
            STORE [1], #1        ; k = 1
            STORE [2], #1
        outer:
            ADD   [1], [2]       ; k += 1
            ; acc *= k, by adding acc to itself k times into a temp
            XOR   [3], [3]       ; temp = 0
            NOT   [5], [1]       ; copy k -> mem[4] via double NOT
            NOT   [4], [5]
        inner:
            ADD   [3], [0]       ; temp += acc
            SUB   [4], [2]
            BRN   inner, Z
            NOT   [5], [3]       ; acc = temp
            NOT   [0], [5]
            ; stop after k == 6
            STORE [6], #6
            CMP   [1], [6]
            BRN   outer, Z
            HALT
        ",
    )?;

    // 2. Run it on the instruction-set simulator (p1_8_2, the paper's
    //    single-cycle 8-bit core with two BARs).
    let config = CoreConfig::default();
    let mut machine = Machine::new(config, program.instructions.clone(), 16);
    let summary = machine.run(100_000)?;
    let result = machine.dmem().read(0)?;
    println!("ISS result: 6! mod 256 = {result} (expected {})", 720 % 256);
    println!(
        "  {} instructions, {} cycles (CPI {:.2})",
        summary.instructions,
        summary.cycles,
        summary.cpi()
    );

    // 3. Generate the core's gate-level netlist and co-simulate it —
    //    the same program, now running on printed standard cells.
    let netlist = generate_standard(&config);
    let spec = CoreSpec::standard(config);
    let words: Vec<u64> = program
        .instructions
        .iter()
        .map(|&i| config.encoding().encode(i).map(u64::from))
        .collect::<Result<_, _>>()?;
    let mut gate_machine = GateLevelMachine::new(&netlist, spec, words, 16)?;
    gate_machine.run(100_000)?;
    println!("gate-level result: {}", gate_machine.dmem()[0]);
    assert_eq!(gate_machine.dmem()[0], result, "netlist must match the ISS");

    // 4. Dump a waveform of the first cycles for a waveform viewer.
    {
        use printed_microprocessors::netlist::{vcd::VcdRecorder, Simulator};
        let mut sim = Simulator::new(&netlist);
        let mut rec = VcdRecorder::new(&netlist);
        for _ in 0..8 {
            sim.step()?;
            rec.sample(&sim);
        }
        let vcd = rec.render("p1_8_2");
        println!(
            "VCD dump of the first {} cycles: {} bytes (pipe to a .vcd file for GTKWave)",
            rec.cycles(),
            vcd.len()
        );
    }

    // 5. Characterize the printed hardware in both technologies.
    for tech in Technology::ALL {
        let ch = analysis::characterize(&netlist, tech.library());
        println!(
            "{tech}: {} gates ({} flip-flops), {:.2} cm^2, f_max {:.2} Hz, {:.2} mW",
            ch.gate_count,
            ch.sequential_count,
            ch.area.total.as_cm2(),
            ch.fmax.as_hertz(),
            ch.power.total().as_milliwatts()
        );
    }

    // 6. Attribute the work: which gates the event engine actually
    //    evaluated, and where the machine's cycles went per opcode.
    {
        use printed_microprocessors::eval::perf_report;
        use printed_microprocessors::netlist::profile;
        let gate_profile =
            profile::profile(gate_machine.simulator(), Technology::Egfet.library(), 10);
        let breakdown = machine.cpi_breakdown();
        println!("{}", perf_report::hotspot_table(&gate_profile));
        println!("{}", perf_report::cpi_table(&breakdown));
        if let Ok(path) = std::env::var("PRINTED_PROFILE_OUT") {
            if !path.is_empty() {
                let artifact = perf_report::profile_artifact_json(&gate_profile, &breakdown);
                perf_report::write_artifact(&path, &artifact)?;
                println!("wrote {path} (printed-profile/v1)");
            }
        }
    }

    // Flush observability: writes the Chrome trace when
    // PRINTED_TRACE_OUT is set (open it in Perfetto).
    printed_microprocessors::obs::finish();
    Ok(())
}
