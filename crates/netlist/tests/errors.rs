//! Every [`NetlistError`] variant, provoked through the public API.
//!
//! The builder's design makes some misuses unrepresentable (gate outputs
//! are always fresh nets), so the structural variants are reached through
//! the forward-net escape hatch — exactly the path real generator bugs
//! would take.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_netlist::{GateId, NetId, NetlistBuilder, NetlistError, Simulator};
use printed_pdk::CellKind;

/// A real `NetId` to build error values around (the index is opaque).
fn some_net() -> NetId {
    NetlistBuilder::new("ids").forward_net()
}

#[test]
fn arity_mismatch_is_reported_at_finish() {
    let mut b = NetlistBuilder::new("arity");
    let a = b.input_bit("a");
    let c = b.input_bit("b");
    // INV takes one input; hand it two.
    let y = b.gate(CellKind::Inv, vec![a, c]);
    b.output("y", vec![y]);
    match b.finish() {
        Err(NetlistError::ArityMismatch { kind, got, expected }) => {
            assert_eq!(kind, CellKind::Inv);
            assert_eq!(got, 2);
            assert_eq!(expected, 1);
        }
        other => panic!("expected ArityMismatch, got {other:?}"),
    }
}

#[test]
fn pins_beyond_the_inline_two_are_still_an_arity_mismatch() {
    // No library cell has three pins, so three inputs never fit a gate;
    // the count is checked on the caller's list before anything is stored.
    let mut b = NetlistBuilder::new("arity3");
    let a = b.input_bit("a");
    let c = b.input_bit("b");
    let d = b.input_bit("c");
    let y = b.gate(CellKind::Nand2, [a, c, d]);
    b.output("y", vec![y]);
    assert_eq!(
        b.finish().err(),
        Some(NetlistError::ArityMismatch { kind: CellKind::Nand2, got: 3, expected: 2 })
    );
}

#[test]
fn a_gate_without_inputs_is_an_arity_mismatch() {
    let mut b = NetlistBuilder::new("arity0");
    let y = b.gate(CellKind::Inv, [] as [NetId; 0]);
    b.output("y", vec![y]);
    assert_eq!(
        b.finish().err(),
        Some(NetlistError::ArityMismatch { kind: CellKind::Inv, got: 0, expected: 1 })
    );
}

#[test]
fn multiple_drivers_is_reported_at_finish() {
    let mut b = NetlistBuilder::new("dd");
    let a = b.input_bit("a");
    let q = b.forward_net();
    // Two registers claiming the same pre-allocated Q net.
    b.dff_into(a, q);
    b.dff_into(a, q);
    b.output("q", vec![q]);
    assert!(matches!(b.finish(), Err(NetlistError::MultipleDrivers(n)) if n == q));
}

#[test]
fn undriven_net_is_reported_at_finish() {
    let mut b = NetlistBuilder::new("undriven");
    let a = b.input_bit("a");
    let dangling = b.forward_net(); // promised a driver; never given one
    let y = b.and2(a, dangling);
    b.output("y", vec![y]);
    assert!(matches!(b.finish(), Err(NetlistError::UndrivenNet(n)) if n == dangling));
}

#[test]
fn duplicate_output_port_is_reported_at_finish() {
    let mut b = NetlistBuilder::new("dup_out");
    let a = b.input_bit("a");
    let y = b.inv(a);
    b.output("y", vec![y]);
    b.output("y", vec![a]);
    assert!(matches!(b.finish(), Err(NetlistError::DuplicatePort(name)) if name == "y"));
}

#[test]
fn duplicate_input_port_is_reported_at_finish() {
    let mut b = NetlistBuilder::new("dup_in");
    let a = b.input("x", 2);
    let _ = b.input("x", 2);
    b.output("y", a);
    assert!(matches!(b.finish(), Err(NetlistError::DuplicatePort(name)) if name == "x"));
}

#[test]
fn unknown_port_from_netlist_accessors() {
    let mut b = NetlistBuilder::new("ports");
    let a = b.input_bit("a");
    b.output("y", vec![a]);
    let nl = b.finish().unwrap();
    assert!(matches!(nl.input("nope"), Err(NetlistError::UnknownPort(n)) if n == "nope"));
    assert!(matches!(nl.output("nope"), Err(NetlistError::UnknownPort(n)) if n == "nope"));
    assert!(nl.input("a").is_ok());
    assert!(nl.output("y").is_ok());
}

#[test]
fn unknown_port_from_simulator() {
    let mut b = NetlistBuilder::new("simports");
    let a = b.input_bit("a");
    b.output("y", vec![a]);
    let nl = b.finish().unwrap();
    let mut sim = Simulator::new(&nl);
    assert!(matches!(sim.set_input("nope", 1), Err(NetlistError::UnknownPort(_))));
    assert!(matches!(sim.read_output("nope"), Err(NetlistError::UnknownPort(_))));
}

#[test]
fn width_mismatch_on_buses_wider_than_a_word() {
    // The simulator's u64 port values cannot carry a 65-bit bus.
    let mut b = NetlistBuilder::new("wide");
    let a = b.input("a", 65);
    b.output("y", a);
    let nl = b.finish().unwrap();
    let mut sim = Simulator::new(&nl);
    match sim.set_input("a", 0) {
        Err(NetlistError::WidthMismatch { context, left, right }) => {
            assert_eq!(context, "set_input");
            assert_eq!(left, 65);
            assert_eq!(right, 64);
        }
        other => panic!("expected WidthMismatch, got {other:?}"),
    }
    match sim.read_output("y") {
        Err(NetlistError::WidthMismatch { context, .. }) => assert_eq!(context, "read_output"),
        other => panic!("expected WidthMismatch, got {other:?}"),
    }
}

#[test]
fn validate_accepts_every_built_netlist() {
    // `finish()` establishes the invariants; `validate()` must agree —
    // on plain logic, forward-net feedback loops, and constants alike.
    let mut b = NetlistBuilder::new("valid");
    let a = b.input_bit("a");
    let one = b.const1();
    let q = b.forward_net();
    let d = b.xor2(a, q); // register feedback through a forward net
    b.dff_into(d, q);
    let y = b.and2(q, one);
    b.output("y", vec![y]);
    let nl = b.finish().unwrap();
    nl.validate().unwrap();
}

#[test]
fn combinational_cycle_error_renders() {
    // The builder cannot express a combinational cycle through fresh-net
    // primitives (see builder unit tests, which drive topo_sort directly);
    // here we pin down the variant's Display contract instead so every
    // error message stays stable.
    let err = NetlistError::CombinationalCycle(some_net());
    assert!(err.to_string().contains("combinational cycle"), "{err}");
}

#[test]
fn unsettled_diagnostics_name_the_oscillation_site() {
    // Watchdog reports must be actionable: the message names the net,
    // the driving gate (or the port/rail case), and how hard the logic
    // was still toggling when the settle budget ran out.
    let n = some_net();
    let gate_driven =
        NetlistError::Unsettled { net: n, driver: Some(GateId::from_index(7)), toggles: 5 };
    let msg = gate_driven.to_string();
    assert!(msg.contains(&n.to_string()), "{msg}");
    assert!(msg.contains("g7"), "{msg}");
    assert!(msg.contains("5 nets"), "{msg}");
    let port_driven = NetlistError::Unsettled { net: n, driver: None, toggles: 1 };
    assert!(port_driven.to_string().contains("port or rail"), "{port_driven}");
}

#[test]
fn every_variant_has_a_distinct_message() {
    let n = some_net();
    let messages = [
        NetlistError::MultipleDrivers(n).to_string(),
        NetlistError::UndrivenNet(n).to_string(),
        NetlistError::CombinationalCycle(n).to_string(),
        NetlistError::ArityMismatch { kind: CellKind::Inv, got: 2, expected: 1 }.to_string(),
        NetlistError::WidthMismatch { context: "set_input", left: 65, right: 64 }.to_string(),
        NetlistError::DuplicatePort("x".into()).to_string(),
        NetlistError::UnknownPort("x".into()).to_string(),
        NetlistError::Unsettled { net: n, driver: None, toggles: 3 }.to_string(),
    ];
    for (i, a) in messages.iter().enumerate() {
        assert!(!a.is_empty());
        for b in &messages[i + 1..] {
            assert_ne!(a, b);
        }
    }
}
