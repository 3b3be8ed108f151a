//! Rendering oracle for the design-rule checker: lint reports format
//! their messages only when read, and must render exactly the bytes an
//! eager formatter produces. The reference below formats every finding
//! with `format!` as it is found, from the netlist's public facts alone,
//! and renders text and JSON the way the reports always have; the real
//! `render_text()` and `to_json()` must match it byte for byte on every
//! design the evaluation lints and on small netlists firing each rule.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use printed_microprocessors::baselines::BaselineCpu;
use printed_microprocessors::core::kernels::{self, Kernel};
use printed_microprocessors::core::specific::CoreSpec;
use printed_microprocessors::core::{generate, generate_standard, CoreConfig};
use printed_microprocessors::netlist::lint::{self, Locus, Rule, Severity};
use printed_microprocessors::netlist::{
    dataflow, opt, tmr, Gate, GateId, NetId, Netlist, NetlistBuilder,
};
use printed_microprocessors::pdk::{CellKind, CellLibrary, Technology};
use std::collections::BTreeSet;

/// The reference: an eager copy of the linter's rules and messages.
mod eager {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Known {
        Zero,
        One,
        Var,
    }

    impl Known {
        fn invert(self) -> Known {
            match self {
                Known::Zero => Known::One,
                Known::One => Known::Zero,
                Known::Var => Known::Var,
            }
        }
    }

    fn fold_verdict(kind: CellKind, ins: &[Known]) -> (Known, bool) {
        use Known::{One, Var, Zero};
        match kind {
            CellKind::Inv => match ins[0] {
                Var => (Var, false),
                k => (k.invert(), true),
            },
            CellKind::And2 => match (ins[0], ins[1]) {
                (Zero, _) | (_, Zero) => (Zero, true),
                (One, x) | (x, One) => (x, true),
                _ => (Var, false),
            },
            CellKind::Or2 => match (ins[0], ins[1]) {
                (One, _) | (_, One) => (One, true),
                (Zero, x) | (x, Zero) => (x, true),
                _ => (Var, false),
            },
            CellKind::Nand2 => match (ins[0], ins[1]) {
                (Zero, _) | (_, Zero) => (One, true),
                (One, x) | (x, One) => (x.invert(), true),
                _ => (Var, false),
            },
            CellKind::Nor2 => match (ins[0], ins[1]) {
                (One, _) | (_, One) => (Zero, true),
                (Zero, x) | (x, Zero) => (x.invert(), true),
                _ => (Var, false),
            },
            CellKind::Xor2 => match (ins[0], ins[1]) {
                (Zero, x) | (x, Zero) => (x, true),
                (One, x) | (x, One) => (x.invert(), true),
                _ => (Var, false),
            },
            CellKind::Xnor2 => match (ins[0], ins[1]) {
                (One, x) | (x, One) => (x, true),
                (Zero, x) | (x, Zero) => (x.invert(), true),
                _ => (Var, false),
            },
            CellKind::TsBuf => match (ins[0], ins[1]) {
                (x, One) => (x, true),
                (_, Zero) => (Zero, true),
                _ => (Var, false),
            },
            CellKind::Dff | CellKind::DffNr | CellKind::Latch => (Var, false),
        }
    }

    /// Syntactic constant propagation. Re-evaluating every gate until
    /// nothing changes reaches the same verdicts as one pass in
    /// topological order: a verdict only ever moves from `Var` to a
    /// constant as its inputs settle.
    fn fold(netlist: &Netlist) -> (Vec<Known>, Vec<bool>) {
        let mut known = vec![Known::Var; netlist.net_count()];
        if let Some(c0) = netlist.const0() {
            known[c0.index()] = Known::Zero;
        }
        if let Some(c1) = netlist.const1() {
            known[c1.index()] = Known::One;
        }
        let mut foldable = vec![false; netlist.gate_count()];
        let mut changed = true;
        while changed {
            changed = false;
            for (i, gate) in netlist.gates().iter().enumerate() {
                let ins: Vec<Known> = gate.inputs.iter().map(|n| known[n.index()]).collect();
                let (out, folds) = fold_verdict(gate.kind, &ins);
                foldable[i] = folds;
                if known[gate.output.index()] != out {
                    known[gate.output.index()] = out;
                    changed = true;
                }
            }
        }
        (known, foldable)
    }

    type Finding = (Rule, Locus, String);

    fn findings(netlist: &Netlist, lib: &CellLibrary) -> Vec<Finding> {
        let facts = dataflow::analyze(netlist);
        let fanout = facts.fanout();
        let (known, foldable) = fold(netlist);
        let gates = netlist.gates();
        let gate_at = |i: usize| Locus::Gate(GateId::from_index(i));
        let mut out: Vec<Finding> = Vec::new();

        // fanout-exceeds-drive
        for (i, gate) in gates.iter().enumerate() {
            let load = fanout.load_count(gate.output);
            let budget = lib.max_fanout(gate.kind);
            if load > budget {
                out.push((
                    Rule::FanoutExceedsDrive,
                    gate_at(i),
                    format!(
                        "{} output {} drives {load} loads; {} allows {budget}",
                        gate.kind,
                        gate.output,
                        lib.technology(),
                    ),
                ));
            }
        }
        let budget = lib.max_input_fanout();
        for (name, nets) in netlist.input_ports() {
            for (bit, net) in nets.iter().enumerate() {
                let load = fanout.load_count(*net);
                if load > budget {
                    out.push((
                        Rule::FanoutExceedsDrive,
                        Locus::Net(*net),
                        format!(
                            "input {name}[{bit}] drives {load} loads; \
                             buffered external drivers allow {budget}"
                        ),
                    ));
                }
            }
        }
        // dead-logic
        for (i, gate) in gates.iter().enumerate() {
            if !facts.is_live(gate.output) {
                out.push((
                    Rule::DeadLogic,
                    gate_at(i),
                    format!("{} output {} reaches no primary output", gate.kind, gate.output),
                ));
            }
        }
        // unresettable-state
        for (i, gate) in gates.iter().enumerate() {
            let resetless = matches!(gate.kind, CellKind::Dff | CellKind::Latch);
            if resetless && facts.is_live(gate.output) && facts.x_reachable(gate.output) {
                out.push((
                    Rule::UnresettableState,
                    gate_at(i),
                    format!(
                        "{} {} has no reset; its power-up X is proved observable — \
                         initialize architecturally or use DFFNRX1",
                        gate.kind, gate.output,
                    ),
                ));
            }
        }
        // x-trapped-state
        for &gid in facts.trapped_state() {
            let gate = &gates[gid.index()];
            if facts.is_live(gate.output) {
                out.push((
                    Rule::XTrappedState,
                    Locus::Gate(gid),
                    format!(
                        "{} {} can never be initialized: no reset or input \
                         sequence clears its power-up X (proved by dataflow \
                         analysis) — add a reset or a load path",
                        gate.kind, gate.output,
                    ),
                ));
            }
        }
        // const-foldable-gate
        for (i, gate) in gates.iter().enumerate() {
            if foldable[i] {
                out.push((
                    Rule::ConstFoldableGate,
                    gate_at(i),
                    format!(
                        "{} output {} has constant input(s); the optimizer would fold it",
                        gate.kind, gate.output,
                    ),
                ));
            }
        }
        // never-toggles
        for (i, gate) in gates.iter().enumerate() {
            if foldable[i] || !facts.is_live(gate.output) {
                continue;
            }
            if let Some(value) = facts.proved_constant(gate.output) {
                out.push((
                    Rule::NeverToggles,
                    gate_at(i),
                    format!(
                        "{} output {} is proved constant {} — it can never \
                         toggle; optimize_with_facts would remove it",
                        gate.kind, gate.output, value as u8,
                    ),
                ));
            }
        }
        // redundant-inverter-pair
        for (i, gate) in gates.iter().enumerate() {
            if gate.kind != CellKind::Inv {
                continue;
            }
            let Some(driver) = fanout.driver(gate.inputs[0]) else { continue };
            if gates[driver.index()].kind == CellKind::Inv {
                out.push((
                    Rule::RedundantInverterPair,
                    gate_at(i),
                    format!(
                        "INVX1 output {} inverts INVX1 output {} — the pair is a wire",
                        gate.output, gate.inputs[0],
                    ),
                ));
            }
        }
        // latch-contention
        for (i, gate) in gates.iter().enumerate() {
            if gate.kind != CellKind::Latch {
                continue;
            }
            let (s, r) = (gate.inputs[0], gate.inputs[1]);
            let both_high = known[s.index()] == Known::One && known[r.index()] == Known::One;
            if both_high || s == r {
                let why = if both_high {
                    "S and R are both tied to constant 1".to_string()
                } else {
                    format!("S and R are the same net {s}; any 1 asserts both")
                };
                out.push((
                    Rule::LatchContention,
                    gate_at(i),
                    format!("LATCHX1 output {}: {why}", gate.output),
                ));
            }
        }
        // tristate-contention
        let tsbuf_driver = |net: NetId| -> Option<&Gate> {
            let gate = &gates[fanout.driver(net)?.index()];
            (gate.kind == CellKind::TsBuf).then_some(gate)
        };
        for (i, merge) in gates.iter().enumerate() {
            let drivers: Vec<&Gate> =
                merge.inputs.iter().filter_map(|&n| tsbuf_driver(n)).collect();
            for (a_idx, a) in drivers.iter().enumerate() {
                for b in &drivers[a_idx + 1..] {
                    let (en_a, en_b) = (a.inputs[1], b.inputs[1]);
                    let contention = en_a == en_b
                        || (known[en_a.index()] == Known::One && known[en_b.index()] == Known::One);
                    if contention {
                        let why = if en_a == en_b {
                            format!("share enable {en_a}")
                        } else {
                            "are both enabled by constant 1".to_string()
                        };
                        out.push((
                            Rule::TristateContention,
                            gate_at(i),
                            format!(
                                "TSBUFX1 outputs {} and {} merge at {} and {why}",
                                a.output, b.output, merge.output,
                            ),
                        ));
                    }
                }
            }
        }
        // output-port-load
        let is_const = |net: NetId| netlist.const0() == Some(net) || netlist.const1() == Some(net);
        let mut flagged: BTreeSet<NetId> = BTreeSet::new();
        for (name, nets) in netlist.output_ports() {
            for (bit, &net) in nets.iter().enumerate() {
                if is_const(net) || flagged.contains(&net) {
                    continue;
                }
                let budget = match fanout.driver(net) {
                    Some(g) => lib.max_fanout(gates[g.index()].kind),
                    None => lib.max_input_fanout(),
                };
                let internal = fanout.load_count(net);
                if internal + 1 > budget {
                    flagged.insert(net);
                    out.push((
                        Rule::OutputPortLoad,
                        Locus::Net(net),
                        format!(
                            "output {name}[{bit}] pins net {net} already driving \
                             {internal} internal loads (budget {budget}); \
                             add a buffer before the port"
                        ),
                    ));
                }
            }
        }
        // Stable: findings with equal keys keep the order found.
        out.sort_by_key(|(rule, locus, _)| (rule.default_severity(), *rule, *locus));
        out
    }

    fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    fn count(found: &[Finding], severity: Severity) -> usize {
        found.iter().filter(|(rule, _, _)| rule.default_severity() == severity).count()
    }

    /// The default-configuration report as text and as JSON, plus the
    /// rules that fired.
    pub fn render(netlist: &Netlist, lib: &CellLibrary) -> (String, String, BTreeSet<Rule>) {
        let found = findings(netlist, lib);
        let (errors, warns, infos) = (
            count(&found, Severity::Error),
            count(&found, Severity::Warn),
            count(&found, Severity::Info),
        );
        let mut text = format!(
            "lint {}: {errors} error(s), {warns} warning(s), {infos} info\n",
            netlist.name()
        );
        let mut json = String::from("{");
        json.push_str(&format!("\"design\":\"{}\",", escape_json(netlist.name())));
        json.push_str(&format!(
            "\"summary\":{{\"error\":{errors},\"warn\":{warns},\"info\":{infos}}},"
        ));
        json.push_str("\"diagnostics\":[");
        for (i, (rule, locus, message)) in found.iter().enumerate() {
            let severity = rule.default_severity();
            let at = match locus {
                Locus::Gate(g) => format!("g{}", g.index()),
                Locus::Net(n) => format!("{n}"),
            };
            text.push_str(&format!("  {severity}[{rule}] @{at}: {message}\n"));
            if i > 0 {
                json.push(',');
            }
            let locus = match locus {
                Locus::Gate(g) => format!("{{\"gate\":{}}}", g.index()),
                Locus::Net(n) => format!("{{\"net\":{}}}", n.index()),
            };
            json.push_str(&format!(
                "{{\"rule\":\"{rule}\",\"severity\":\"{severity}\",\"locus\":{locus},\"message\":\"{}\"}}",
                escape_json(message),
            ));
        }
        json.push_str("]}");
        (text, json, found.iter().map(|(rule, _, _)| *rule).collect())
    }
}

/// Asserts the real report renders the reference's bytes; returns the
/// rules that fired.
fn assert_renders_eagerly(netlist: &Netlist, technology: Technology) -> BTreeSet<Rule> {
    let lib = technology.library();
    let report = lint::lint(netlist, lib);
    let (text, json, fired) = eager::render(netlist, lib);
    assert_eq!(report.render_text(), text, "{} ({technology:?}): text", netlist.name());
    assert_eq!(report.to_json(), json, "{} ({technology:?}): JSON", netlist.name());
    let messages: Vec<String> = report.diagnostics.iter().map(|d| d.message()).collect();
    for (d, message) in report.diagnostics.iter().zip(&messages) {
        assert!(text.contains(&format!("@{}: {message}\n", d.locus)), "{d}");
    }
    fired
}

#[test]
fn sweep_cores_render_like_the_eager_formatter() {
    for config in CoreConfig::design_space() {
        let netlist = generate_standard(&config);
        for technology in Technology::ALL {
            assert_renders_eagerly(&netlist, technology);
        }
    }
}

#[test]
fn program_specific_cores_render_like_the_eager_formatter() {
    let mut cores = 0;
    for bench in Kernel::ALL {
        // Figure 8 runs a program-specific core at each native width.
        for &width in bench.data_widths().iter().filter(|w| [4, 8, 16, 32].contains(*w)) {
            let Ok(kernel) = kernels::generate(bench, width, width) else { continue };
            let config = CoreConfig::new(1, width, 2);
            let spec = CoreSpec::program_specific(config, &kernel.instructions, &kernel.name);
            let raw = generate(&spec);
            assert_renders_eagerly(&raw, Technology::Egfet);
            assert_renders_eagerly(&opt::optimize(&raw), Technology::Egfet);
            cores += 1;
        }
    }
    assert_eq!(cores, 19, "the Figure 8 program-specific cores");
}

#[test]
fn tmr_and_baseline_netlists_render_like_the_eager_formatter() {
    let hardened =
        tmr(&generate_standard(&CoreConfig::new(1, 4, 2))).expect("the p1_4_2 core triplicates");
    assert_renders_eagerly(&hardened, Technology::Egfet);
    for technology in Technology::ALL {
        for cpu in BaselineCpu::ALL {
            let netlist = cpu.inventory(technology).representative_netlist();
            assert_renders_eagerly(&netlist, technology);
        }
    }
}

#[test]
fn every_rule_renders_like_the_eager_formatter() {
    let mut designs: Vec<Netlist> = Vec::new();

    // One INV over EGFET's drive budget, and an input port over the
    // external one; the rest of the inverters pair up redundantly.
    let mut b = NetlistBuilder::new("fanout \"and\" pairs");
    let a = b.input_bit("a");
    let hub = b.inv(a);
    let sinks: Vec<_> = (0..9).map(|_| b.inv(hub)).collect();
    let extra: Vec<_> = (0..8).map(|_| b.and2(a, hub)).collect();
    b.output("y", sinks);
    b.output("z", extra);
    designs.push(b.finish().unwrap());

    // Dead logic, resetless state and a trapped ring.
    let mut b = NetlistBuilder::new("state");
    let a = b.input_bit("a");
    let _dead = b.xor2(a, a);
    let flushed = b.dff(a);
    let q = b.forward_net();
    let d = b.inv(q);
    b.dff_into(d, q);
    let y = b.and2(flushed, q);
    b.output("y", vec![y]);
    designs.push(b.finish().unwrap());

    // Foldable gates and a sequential constant.
    let mut b = NetlistBuilder::new("constants");
    let a = b.input_bit("a");
    let one = b.const1();
    let x = b.and2(a, one);
    let q = b.forward_net();
    let d = b.and2(q, a);
    b.dff_nr_into(d, q);
    let y = b.or2(q, x);
    b.output("y", vec![y]);
    designs.push(b.finish().unwrap());

    // Both latch contentions, both tri-state contentions, and a port
    // pinned to a saturated net.
    let mut b = NetlistBuilder::new("contention");
    let a = b.input_bit("a");
    let c = b.input_bit("c");
    let en = b.input_bit("en");
    let one = b.const1();
    let tied = b.latch(one, one);
    let aliased = b.latch(a, a);
    let t0 = b.tsbuf(a, en);
    let t1 = b.tsbuf(c, en);
    let shared = b.or2(t0, t1);
    let zero = b.const0();
    let also_one = b.inv(zero);
    let t2 = b.tsbuf(a, one);
    let t3 = b.tsbuf(c, also_one);
    let high = b.or2(t2, t3);
    let hub = b.nand2(a, c);
    let sinks: Vec<_> = (0..4).map(|_| b.inv(hub)).collect();
    b.output("q", vec![tied, aliased, shared, high]);
    b.output("s", sinks);
    b.output("hub", vec![hub]);
    designs.push(b.finish().unwrap());

    let mut fired = BTreeSet::new();
    for netlist in &designs {
        for technology in Technology::ALL {
            fired.extend(assert_renders_eagerly(netlist, technology));
        }
    }
    assert_eq!(fired, Rule::ALL.into_iter().collect(), "every rule must be rendered");
}
