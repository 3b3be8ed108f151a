//! Structure digests of every netlist the evaluation builds: the 24
//! sweep cores, the 19 Figure 8 program-specific cores (raw and
//! optimized), the TMR-hardened p1_4_2 core, and the 8 baseline
//! representative netlists. Each digest hashes every gate's kind, pins,
//! output and region, the net count, the ports, the constant rails and
//! the combinational evaluation order, so any change to how netlists are
//! built, optimized or stored that moves a single pin, renumbers a net or
//! reorders the topological sort fails here.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::baselines::BaselineCpu;
use printed_microprocessors::core::kernels::{self, Kernel};
use printed_microprocessors::core::specific::CoreSpec;
use printed_microprocessors::core::{generate, generate_standard, CoreConfig};
use printed_microprocessors::netlist::hash::Fnv1a;
use printed_microprocessors::netlist::{opt, tmr, GateId, NetId, Netlist, TmrOptions};
use printed_microprocessors::pdk::Technology;
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

#[test]
fn sweep_cores_keep_their_structure() {
    let cores: Vec<Netlist> = CoreConfig::design_space().iter().map(generate_standard).collect();
    assert_eq!(digest(&cores), (0x368464208b59b711, 24));
}

#[test]
fn program_specific_cores_keep_their_structure() {
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
    assert_eq!(digest(&cores), (0x93ae9e94455cf319, 2 * 19));
}

#[test]
fn tmr_and_baseline_netlists_keep_their_structure() {
    let hardened = tmr(&generate_standard(&CoreConfig::new(1, 4, 2)), TmrOptions::default())
        .expect("the p1_4_2 core triplicates");
    assert_eq!(digest([&hardened]), (0x012a2bf9c86bbce2, 1));
    let baselines: Vec<Netlist> = Technology::ALL
        .iter()
        .flat_map(|&technology| {
            BaselineCpu::ALL
                .iter()
                .map(move |cpu| cpu.inventory(technology).representative_netlist())
        })
        .collect();
    assert_eq!(digest(&baselines), (0x7b7153ac7cefbfd7, 8));
}
