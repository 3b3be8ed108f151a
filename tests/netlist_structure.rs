//! Structure digests of every netlist the evaluation builds: the 24
//! sweep cores, the 19 Figure 8 program-specific cores (raw and
//! optimized), the TMR-hardened p1_4_2 core, and the 8 baseline
//! representative netlists. Each digest hashes every gate's kind, pins,
//! output and region, the net count, the ports, the constant rails and
//! the combinational evaluation order, so any change to how netlists are
//! built, optimized or stored that moves a single pin, renumbers a net or
//! reorders the topological sort fails here.
//!
//! The same designs also pin the facts the analyses derive from them:
//! each design's lint report as JSON under both technologies, and its
//! dataflow facts (every net's abstract value and the trapped state). A
//! less eager constant-fold rule or dataflow transfer function moves the
//! static report's counts, and fails here first. A small netlist holding
//! one gate per constant-fold case pins the cases no core contains.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::baselines::BaselineCpu;
use printed_microprocessors::core::kernels::{self, Kernel};
use printed_microprocessors::core::specific::CoreSpec;
use printed_microprocessors::core::{generate, generate_standard, CoreConfig};
use printed_microprocessors::netlist::hash::Fnv1a;
use printed_microprocessors::netlist::{
    dataflow, lint, opt, tmr, GateId, NetId, Netlist, NetlistBuilder,
};
use printed_microprocessors::pdk::{CellKind, Technology};
use std::collections::BTreeMap;

fn write_len(h: &mut Fnv1a, len: usize) {
    h.write_u64(len as u64);
}

fn write_nets(h: &mut Fnv1a, nets: &[NetId]) {
    write_len(h, nets.len());
    for net in nets {
        h.write_u64(net.index() as u64);
    }
}

fn write_ports(h: &mut Fnv1a, ports: &BTreeMap<String, Vec<NetId>>) {
    write_len(h, ports.len());
    for (name, nets) in ports {
        write_len(h, name.len());
        h.write(name.as_bytes());
        write_nets(h, nets);
    }
}

fn write_rail(h: &mut Fnv1a, rail: Option<NetId>) {
    h.write_u64(rail.map_or(u64::MAX, |n| n.index() as u64));
}

/// Folds one netlist's full structure into `h`.
fn write_netlist(h: &mut Fnv1a, netlist: &Netlist) {
    write_len(h, netlist.name().len());
    h.write(netlist.name().as_bytes());
    write_len(h, netlist.net_count());
    write_len(h, netlist.gate_count());
    for (i, gate) in netlist.gates().iter().enumerate() {
        h.write(gate.kind.to_string().as_bytes());
        write_nets(h, &gate.inputs);
        h.write_u64(gate.output.index() as u64);
        h.write(netlist.region(GateId::from_index(i)).to_string().as_bytes());
    }
    write_ports(h, netlist.input_ports());
    write_ports(h, netlist.output_ports());
    write_rail(h, netlist.const0());
    write_rail(h, netlist.const1());
    let topo: Vec<GateId> = netlist.topo_order().map(|(id, _)| id).collect();
    write_len(h, topo.len());
    for id in topo {
        h.write_u64(id.index() as u64);
    }
}

/// The digest of `netlists`, in order, and how many there were.
fn digest<'a>(netlists: impl IntoIterator<Item = &'a Netlist>) -> (u64, usize) {
    let mut h = Fnv1a::new();
    let mut count = 0;
    for netlist in netlists {
        write_netlist(&mut h, netlist);
        count += 1;
    }
    (h.finish(), count)
}

/// Folds one netlist's lint reports, as JSON under every technology, into
/// `lints`, and its dataflow facts into `values`: the abstract value of
/// every net a port, rail or gate drives, by net index, then the trapped
/// sequential cells.
fn write_facts(lints: &mut Fnv1a, values: &mut Fnv1a, netlist: &Netlist) {
    for technology in Technology::ALL {
        let json = lint::lint(netlist, technology.library()).to_json();
        write_len(lints, json.len());
        lints.write(json.as_bytes());
    }
    let facts = dataflow::analyze(netlist);
    let mut by_net: Vec<Option<dataflow::AbsValue>> = vec![None; netlist.net_count()];
    let rails = [netlist.const0(), netlist.const1()].into_iter().flatten();
    let ports = netlist.input_ports().values().flatten().copied();
    for net in rails.chain(ports).chain(netlist.gates().iter().map(|g| g.output)) {
        by_net[net.index()] = Some(facts.value(net));
    }
    write_len(values, by_net.len());
    for value in by_net {
        values.write(value.map_or("-".to_string(), |v| v.to_string()).as_bytes());
    }
    let trapped = facts.trapped_state();
    write_len(values, trapped.len());
    for gate in trapped {
        values.write_u64(gate.index() as u64);
    }
}

/// The lint-report and dataflow-fact digests of `netlists`, in order, and
/// how many there were.
fn facts_digest<'a>(netlists: impl IntoIterator<Item = &'a Netlist>) -> (u64, u64, usize) {
    let (mut lints, mut values) = (Fnv1a::new(), Fnv1a::new());
    let mut count = 0;
    for netlist in netlists {
        write_facts(&mut lints, &mut values, netlist);
        count += 1;
    }
    (lints.finish(), values.finish(), count)
}

/// The 24 standard cores of the design-space sweep.
fn sweep_cores() -> Vec<Netlist> {
    CoreConfig::design_space().iter().map(generate_standard).collect()
}

/// The Figure 8 program-specific cores, each raw then optimized.
fn program_specific_cores() -> Vec<Netlist> {
    let mut cores = Vec::new();
    for bench in Kernel::ALL {
        // Figure 8 runs a program-specific core at each native width.
        for &width in bench.data_widths().iter().filter(|w| [4, 8, 16, 32].contains(*w)) {
            let Ok(kernel) = kernels::generate(bench, width, width) else { continue };
            let config = CoreConfig::new(1, width, 2);
            let spec = CoreSpec::program_specific(config, &kernel.instructions, &kernel.name);
            let raw = generate(&spec);
            let optimized = opt::optimize(&raw);
            cores.push(raw);
            cores.push(optimized);
        }
    }
    cores
}

/// The TMR-hardened p1_4_2 core.
fn hardened_core() -> Netlist {
    tmr(&generate_standard(&CoreConfig::new(1, 4, 2))).expect("the p1_4_2 core triplicates")
}

/// The representative netlist of every baseline CPU in every technology.
fn baseline_netlists() -> Vec<Netlist> {
    Technology::ALL
        .iter()
        .flat_map(|&technology| {
            BaselineCpu::ALL
                .iter()
                .map(move |cpu| cpu.inventory(technology).representative_netlist())
        })
        .collect()
}

/// One gate per constant-fold case, each driving its own output bit:
/// every two-pin kind (TSBUF included) with a constant on pin a or on
/// pin b, the constant 0 or 1, and a free input on the other pin; then
/// INV of each rail.
fn fold_cases() -> Netlist {
    let mut b = NetlistBuilder::new("fold_cases");
    let x = b.input("x", 1)[0];
    let rails = [b.const0(), b.const1()];
    let mut outs = Vec::new();
    for kind in [
        CellKind::Nand2,
        CellKind::Nor2,
        CellKind::And2,
        CellKind::Or2,
        CellKind::Xor2,
        CellKind::Xnor2,
        CellKind::TsBuf,
    ] {
        for rail in rails {
            outs.push(b.gate(kind, [rail, x]));
            outs.push(b.gate(kind, [x, rail]));
        }
    }
    for rail in rails {
        outs.push(b.inv(rail));
    }
    b.output("y", outs);
    b.finish().expect("the fold cases form a valid netlist")
}

#[test]
fn every_fold_case_keeps_its_optimized_structure_and_facts() {
    let raw = fold_cases();
    let optimized = opt::optimize(&raw);
    assert_eq!(digest([&optimized]), (0xd812ab269fdc6bd2, 1));
    assert_eq!(facts_digest([&raw, &optimized]), (0x4279c913998cb1e1, 0x0274b7cfccf8b44e, 2));
}

#[test]
fn sweep_cores_keep_their_structure() {
    assert_eq!(digest(&sweep_cores()), (0x368464208b59b711, 24));
}

#[test]
fn program_specific_cores_keep_their_structure() {
    assert_eq!(digest(&program_specific_cores()), (0x93ae9e94455cf319, 2 * 19));
}

#[test]
fn tmr_and_baseline_netlists_keep_their_structure() {
    assert_eq!(digest([&hardened_core()]), (0x012a2bf9c86bbce2, 1));
    assert_eq!(digest(&baseline_netlists()), (0x7b7153ac7cefbfd7, 8));
}

#[test]
fn sweep_cores_keep_their_lint_and_dataflow_facts() {
    assert_eq!(facts_digest(&sweep_cores()), (0xe176976b7bd3aa90, 0x3d88d21963aeb3fc, 24));
}

#[test]
fn program_specific_cores_keep_their_lint_and_dataflow_facts() {
    assert_eq!(
        facts_digest(&program_specific_cores()),
        (0x50d10b7935728858, 0xe64033a3dbadccc9, 2 * 19)
    );
}

#[test]
fn tmr_and_baseline_netlists_keep_their_lint_and_dataflow_facts() {
    assert_eq!(facts_digest([&hardened_core()]), (0x7bf4c78b5ca199c5, 0xe14793e13818a067, 1));
    assert_eq!(facts_digest(&baseline_netlists()), (0x47ff835e5c8ec3e5, 0x9abf5b597ad8f94a, 8));
}
