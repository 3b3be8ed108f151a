//! Sampling-free hotspot attribution for the gate-level simulator.
//!
//! The event engine's unit of work is the combinational gate
//! evaluation, and [`crate::sim::ActivityStats`] already attributes
//! every one of them to its gate (`eval_counts`), alongside the per-gate
//! toggle counts the power model consumes. This module turns those raw
//! vectors into a ranked hotspot report: the top-K hottest gates with
//! cell class, driven net name, levelization depth, eval count, toggle
//! count, and toggle energy (via the cell library's synthesis energy,
//! the same figure [`crate::analysis::ActivityModel::Measured`] uses) —
//! plus a per-level aggregation that shows where in the combinational
//! depth the work concentrates.
//!
//! The attribution is exact, not sampled: summing `evals` over *all*
//! gates reproduces [`crate::sim::ActivityStats::gate_evals`] to the
//! unit ([`SimProfile::attributed_evals`] carries the sum so artifact
//! consumers can verify the tiling). `eval::perf_report` renders a
//! [`SimProfile`] into the `printed-profile/v1` artifact and a text
//! table.

use crate::ir::{NetId, Netlist};
use crate::sim::Simulator;
use printed_pdk::{CellKind, CellLibrary};
use std::collections::BTreeMap;

/// One hot gate: identity plus the work attributed to it.
#[derive(Debug, Clone, PartialEq)]
pub struct GateHotspot {
    /// Index into [`Netlist::gates`].
    pub gate: usize,
    /// Library cell class (e.g. `NAND2X1`).
    pub cell: CellKind,
    /// Name of the net this gate drives: `port[bit]` when the net is a
    /// design port bit, otherwise `n<id>`.
    pub output: String,
    /// Combinational depth, `None` for sequential cells.
    pub level: Option<u32>,
    /// Evaluations the engine performed on this gate.
    pub evals: u64,
    /// Output toggles observed on this gate.
    pub toggles: u64,
    /// Switching energy attributed to this gate over the run,
    /// nanojoules: toggles times the cell's synthesis energy.
    pub toggle_energy_nj: f64,
}

/// Work aggregated over one levelization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelProfile {
    /// Combinational depth.
    pub level: u32,
    /// Gates sitting at this depth.
    pub gates: u64,
    /// Evaluations performed across the level.
    pub evals: u64,
    /// Toggles observed across the level.
    pub toggles: u64,
}

/// A complete hotspot attribution of one simulator's accumulated work.
#[derive(Debug, Clone, PartialEq)]
pub struct SimProfile {
    /// Design (netlist) name.
    pub design: String,
    /// Clock cycles simulated.
    pub cycles: u64,
    /// The engine's total work counter
    /// ([`crate::sim::ActivityStats::gate_evals`]).
    pub gate_evals: u64,
    /// Sum of per-gate eval counts over *all* gates — equals
    /// [`SimProfile::gate_evals`] exactly; carried separately so
    /// artifact consumers can verify the attribution tiles the total.
    pub attributed_evals: u64,
    /// Total output toggles across all gates.
    pub total_toggles: u64,
    /// Total switching energy over the run, nanojoules.
    pub toggle_energy_nj: f64,
    /// The K hottest gates by eval count, descending (ties broken by
    /// gate index for determinism).
    pub hotspots: Vec<GateHotspot>,
    /// Per-level work aggregation, ascending by depth.
    pub levels: Vec<LevelProfile>,
}

/// Human-readable name for a net: the `port[bit]` that exposes it when
/// one does (outputs win over inputs), otherwise `n<id>`.
pub fn net_name(netlist: &Netlist, net: NetId) -> String {
    for ports in [netlist.output_ports(), netlist.input_ports()] {
        for (name, bits) in ports {
            if let Some(bit) = bits.iter().position(|&n| n == net) {
                return format!("{name}[{bit}]");
            }
        }
    }
    format!("n{}", net.index())
}

/// Builds the hotspot attribution for `sim`'s accumulated statistics,
/// keeping the `top_k` hottest gates by eval count. `lib` prices each
/// toggle at the cell's synthesis energy.
pub fn profile(sim: &Simulator<'_>, lib: &CellLibrary, top_k: usize) -> SimProfile {
    let netlist = sim.netlist();
    let stats = sim.stats();
    let gates = netlist.gates();

    let mut ranked: Vec<usize> = (0..gates.len()).collect();
    ranked.sort_by_key(|&gi| (std::cmp::Reverse(stats.eval_counts[gi]), gi));

    let hotspots: Vec<GateHotspot> = ranked
        .into_iter()
        .take(top_k)
        .map(|gi| {
            let gate = &gates[gi];
            let toggles = stats.toggles[gi];
            GateHotspot {
                gate: gi,
                cell: gate.kind,
                output: net_name(netlist, gate.output),
                level: sim.gate_depth(gi),
                evals: stats.eval_counts[gi],
                toggles,
                toggle_energy_nj: (lib.synthesis_energy(gate.kind) * toggles as f64)
                    .as_nanojoules(),
            }
        })
        .collect();

    let mut by_level: BTreeMap<u32, LevelProfile> = BTreeMap::new();
    let mut total_toggles = 0u64;
    let mut toggle_energy_nj = 0.0f64;
    for (gi, gate) in gates.iter().enumerate() {
        total_toggles += stats.toggles[gi];
        toggle_energy_nj +=
            (lib.synthesis_energy(gate.kind) * stats.toggles[gi] as f64).as_nanojoules();
        if let Some(level) = sim.gate_depth(gi) {
            let slot = by_level.entry(level).or_insert(LevelProfile {
                level,
                gates: 0,
                evals: 0,
                toggles: 0,
            });
            slot.gates += 1;
            slot.evals += stats.eval_counts[gi];
            slot.toggles += stats.toggles[gi];
        }
    }

    SimProfile {
        design: netlist.name().to_string(),
        cycles: stats.cycles,
        gate_evals: stats.gate_evals,
        attributed_evals: stats.eval_counts.iter().sum(),
        total_toggles,
        toggle_energy_nj,
        hotspots,
        levels: by_level.into_values().collect(),
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use printed_pdk::Technology;

    /// A two-level circuit with a clock divider driving it, so both the
    /// sequential and combinational paths accumulate activity.
    fn sample() -> Netlist {
        let mut b = NetlistBuilder::new("prof_sample");
        let q = b.forward_net();
        let d = b.inv(q);
        b.dff_into(d, q);
        let a = b.inv(q);
        let y = b.and2(a, q);
        b.output("y", vec![y]);
        b.output("q", vec![q]);
        b.finish().unwrap()
    }

    #[test]
    fn attribution_tiles_the_total_and_ranks_by_evals() {
        let nl = sample();
        let mut sim = Simulator::new(&nl);
        sim.run(32).unwrap();
        let lib = Technology::Egfet.library();
        let p = profile(&sim, lib, 2);
        assert_eq!(p.design, "prof_sample");
        assert_eq!(p.cycles, 32);
        assert_eq!(p.attributed_evals, p.gate_evals, "attribution must tile gate_evals");
        assert_eq!(p.hotspots.len(), 2);
        assert!(p.hotspots[0].evals >= p.hotspots[1].evals, "descending rank");
        let hotspot_sum: u64 = p.hotspots.iter().map(|h| h.evals).sum();
        assert!(hotspot_sum <= p.gate_evals, "top-K is a subset of the total");
        // Level aggregation covers exactly the combinational gates.
        let level_evals: u64 = p.levels.iter().map(|l| l.evals).sum();
        assert_eq!(level_evals, p.gate_evals, "sequential cells contribute no evals");
        assert_eq!(p.total_toggles, sim.stats().toggles.iter().sum::<u64>());
        assert!(p.toggle_energy_nj > 0.0, "a toggling circuit burns energy");
    }

    #[test]
    fn net_names_prefer_ports() {
        let nl = sample();
        let sim = Simulator::new(&nl);
        let lib = Technology::Egfet.library();
        let p = profile(&sim, lib, nl.gate_count());
        // The AND gate drives output port y[0]; its hotspot says so.
        let and = p.hotspots.iter().find(|h| h.cell == CellKind::And2).unwrap();
        assert_eq!(and.output, "y[0]");
        // The DFF drives q[0]; the first inverter drives an internal net.
        let dff = p.hotspots.iter().find(|h| h.cell == CellKind::Dff).unwrap();
        assert_eq!(dff.output, "q[0]");
        assert_eq!(dff.level, None, "sequential cells have no depth");
        let inv = p.hotspots.iter().find(|h| h.cell == CellKind::Inv).unwrap();
        assert!(inv.output.starts_with('n') || inv.output == "q[0]", "{}", inv.output);
    }
}
