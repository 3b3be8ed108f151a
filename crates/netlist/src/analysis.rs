//! Area, power, and timing analysis over netlists — the stand-in for the
//! paper's Design Compiler reports.
//!
//! - **Area** is the sum of Table 2 cell footprints.
//! - **Power** is activity-weighted dynamic power (`Σ E_switch × α × f`)
//!   plus the technology's static power model (see
//!   [`printed_pdk::calibration`]). Activity is either the paper's uniform
//!   0.88 factor or per-gate measured toggles from
//!   [`crate::sim::ActivityStats`].
//! - **Timing** is static timing analysis: the longest
//!   register-to-register (or port-to-port) combinational path, charging
//!   each cell its calibrated per-level delay; `f_max` is its reciprocal.
//!   [`timing`] reports just the critical path; [`sta`] reports every
//!   endpoint's arrival/required/slack plus the top-K critical paths with
//!   per-gate contributions and fanout-load annotations from the PDK
//!   drive model ([`printed_pdk::CellLibrary::loaded_delay`]). Both run
//!   the same arrival computation, so their `f_max` agree exactly.
//!
//! ```
//! use printed_netlist::{analysis, words, NetlistBuilder};
//! use printed_pdk::Technology;
//!
//! let mut b = NetlistBuilder::new("adder8");
//! let a = b.input("a", 8);
//! let c = b.input("b", 8);
//! let cin = b.const0();
//! let out = words::ripple_adder(&mut b, &a, &c, cin);
//! b.output("sum", out.sum);
//! let nl = b.finish()?;
//!
//! let ch = analysis::characterize(&nl, Technology::Egfet.library());
//! assert!(ch.fmax.as_hertz() > 1.0); // EGFET is slow, but not *that* slow
//! # Ok::<(), printed_netlist::NetlistError>(())
//! ```

use crate::ir::{FanoutMap, GateId, NetId, Netlist, Region};
use crate::sim::ActivityStats;
use printed_pdk::units::{Area, Energy, Frequency, Power, Time};
use printed_pdk::{CellKind, CellLibrary};
use std::collections::BTreeMap;

/// How switching activity is estimated for dynamic power.
#[derive(Debug, Clone, Copy)]
pub enum ActivityModel<'a> {
    /// Every gate toggles with the same probability per cycle. The paper
    /// uses 0.88 ([`printed_pdk::calibration::DEFAULT_ACTIVITY_FACTOR`]).
    Uniform(f64),
    /// Per-gate toggle counts measured by gate-level simulation.
    Measured(&'a ActivityStats),
}

impl Default for ActivityModel<'_> {
    fn default() -> Self {
        ActivityModel::Uniform(printed_pdk::calibration::DEFAULT_ACTIVITY_FACTOR)
    }
}

/// Area broken down by functional region.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaReport {
    /// Total printed footprint.
    pub total: Area,
    /// Area per region (combinational vs registers).
    pub by_region: BTreeMap<Region, Area>,
}

/// Power broken down by source and region.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Activity-weighted switching power.
    pub dynamic: Power,
    /// Pull-up / leakage power, frequency-independent.
    pub static_: Power,
    /// Total (dynamic + static) per region.
    pub by_region: BTreeMap<Region, Power>,
}

impl PowerReport {
    /// Total power.
    pub fn total(&self) -> Power {
        self.dynamic + self.static_
    }
}

/// Static timing analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Longest register-to-register / port-to-port combinational delay,
    /// including the launching flip-flop's clock-to-Q.
    pub critical_path: Time,
    /// Number of cells on the critical path.
    pub logic_depth: usize,
}

impl TimingReport {
    /// Maximum clock frequency: the reciprocal of the critical path.
    pub fn fmax(&self) -> Frequency {
        self.critical_path.frequency()
    }
}

/// A complete Design-Compiler-style characterization of one netlist in one
/// technology: the row format of the paper's Table 4 and Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Characterization {
    /// Total gate count.
    pub gate_count: usize,
    /// Sequential cell count.
    pub sequential_count: usize,
    /// Area report.
    pub area: AreaReport,
    /// Maximum operating frequency.
    pub fmax: Frequency,
    /// Power at `fmax` with the default activity factor.
    pub power: PowerReport,
}

/// Computes the area report.
pub fn area(netlist: &Netlist, lib: &CellLibrary) -> AreaReport {
    let mut by_region: BTreeMap<Region, Area> = BTreeMap::new();
    let mut total = Area::ZERO;
    for (i, gate) in netlist.gates().iter().enumerate() {
        let a = lib.cell(gate.kind).area;
        total += a;
        *by_region.entry(netlist.region(crate::ir::GateId(i as u32))).or_insert(Area::ZERO) += a;
    }
    AreaReport { total, by_region }
}

/// Computes the power report at a given clock frequency.
pub fn power(
    netlist: &Netlist,
    lib: &CellLibrary,
    clock: Frequency,
    activity: ActivityModel<'_>,
) -> PowerReport {
    let mut dynamic = Power::ZERO;
    let mut static_ = Power::ZERO;
    let mut by_region: BTreeMap<Region, Power> = BTreeMap::new();
    for (i, gate) in netlist.gates().iter().enumerate() {
        let cell = lib.cell(gate.kind);
        let alpha = match activity {
            ActivityModel::Uniform(a) => a,
            ActivityModel::Measured(stats) => stats.gate_activity(i).unwrap_or(0.0),
        };
        let dyn_p: Power = lib.synthesis_energy(gate.kind) * alpha * clock;
        let stat_p = cell.static_power;
        dynamic += dyn_p;
        static_ += stat_p;
        *by_region.entry(netlist.region(crate::ir::GateId(i as u32))).or_insert(Power::ZERO) +=
            dyn_p + stat_p;
    }
    PowerReport { dynamic, static_, by_region }
}

/// Arrival times per net, with the back-pointers needed to reconstruct
/// the path that produced each arrival. This is the single computation
/// behind both [`timing`] and [`sta`] — they cannot disagree on `f_max`
/// because they read the same numbers.
struct Arrivals {
    /// Worst-case arrival time per net.
    arrival: Vec<Time>,
    /// Cells on the worst path to each net (launch cell included).
    depth: Vec<usize>,
    /// For each combinational gate output, the input net whose arrival
    /// determined the output's arrival (first maximum, matching the
    /// strict-`>` comparison below). `None` for launch points and for
    /// gates fed only by constants.
    pred: Vec<Option<NetId>>,
}

/// Static-timing arrival computation.
///
/// Arrival times: constants launch at t = 0; primary inputs launch with a
/// DFF clock-to-Q input-delay constraint (they come from an upstream
/// register or memory in a real system); flip-flop Q pins launch at the
/// cell's clock-to-Q delay. Each combinational cell adds its calibrated
/// per-level delay.
fn arrivals(netlist: &Netlist, lib: &CellLibrary) -> Arrivals {
    let n = netlist.net_count();
    let mut arrival = vec![Time::ZERO; n];
    let mut depth = vec![0usize; n];
    let mut pred: Vec<Option<NetId>> = vec![None; n];

    // Launch points: sequential outputs, and primary inputs — which in a
    // real system come from an upstream register or memory, so they are
    // constrained with a DFF clock-to-Q input delay (constants stay at 0).
    let input_delay = lib.synthesis_delay(CellKind::Dff);
    for nets in netlist.input_ports().values() {
        for net in nets {
            arrival[net.index()] = input_delay;
            depth[net.index()] = 1;
        }
    }
    for gate in netlist.gates() {
        if gate.is_sequential() {
            arrival[gate.output.index()] = lib.synthesis_delay(gate.kind);
            depth[gate.output.index()] = 1;
        }
    }

    // Propagate in topological order.
    for (_, gate) in netlist.topo_order() {
        let mut t = Time::ZERO;
        let mut d = 0usize;
        let mut p = None;
        for input in &gate.inputs {
            if arrival[input.index()] > t {
                t = arrival[input.index()];
                p = Some(*input);
            }
            d = d.max(depth[input.index()]);
        }
        let out = gate.output.index();
        arrival[out] = t + lib.synthesis_delay(gate.kind);
        depth[out] = d + 1;
        pred[out] = p;
    }
    Arrivals { arrival, depth, pred }
}

/// Worst arrival over all capture points (sequential input pins and
/// primary outputs), with the strict-`>` first-maximum tiebreak the
/// original single-path scan used.
fn worst_capture(netlist: &Netlist, arr: &Arrivals) -> (Time, usize) {
    let mut critical = Time::ZERO;
    let mut logic_depth = 0usize;
    let consider = |t: Time, d: usize, critical: &mut Time, depth_out: &mut usize| {
        if t > *critical {
            *critical = t;
            *depth_out = d;
        }
    };
    for gate in netlist.gates() {
        if gate.is_sequential() {
            for input in &gate.inputs {
                consider(
                    arr.arrival[input.index()],
                    arr.depth[input.index()],
                    &mut critical,
                    &mut logic_depth,
                );
            }
        }
    }
    for nets in netlist.output_ports().values() {
        for net in nets {
            consider(
                arr.arrival[net.index()],
                arr.depth[net.index()],
                &mut critical,
                &mut logic_depth,
            );
        }
    }
    (critical, logic_depth)
}

/// Static timing analysis: the single worst register-to-register /
/// port-to-port path. The critical path is the maximum arrival at any
/// flip-flop D pin or primary output; see [`sta`] for the per-endpoint
/// view over the same arrival computation.
pub fn timing(netlist: &Netlist, lib: &CellLibrary) -> TimingReport {
    let arr = arrivals(netlist, lib);
    let (mut critical, mut logic_depth) = worst_capture(netlist, &arr);
    // A purely-wire design still needs a nonzero period to clock.
    if critical == Time::ZERO {
        critical = lib.synthesis_delay(CellKind::Inv);
        logic_depth = 1;
    }
    TimingReport { critical_path: critical, logic_depth }
}

/// Default number of critical paths [`sta`] enumerates.
pub const DEFAULT_TOP_PATHS: usize = 5;

/// One timing endpoint: a sequential input pin or a primary-output bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Human-readable endpoint name: `g<idx>/<pin>` for sequential pins,
    /// `<port>[<bit>]` for output ports.
    pub name: String,
    /// The captured net.
    pub net: NetId,
    /// Worst-case data arrival at the endpoint.
    pub arrival: Time,
    /// Cells on the worst path to the endpoint.
    pub depth: usize,
    /// Required time: the clock period (single-cycle paths).
    pub required: Time,
    /// `required - arrival`; zero on the critical path, never negative
    /// when the report's own `f_max` is the clock.
    pub slack: Time,
}

/// One cell's contribution to a critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The contributing gate.
    pub gate: GateId,
    /// Its library cell.
    pub kind: CellKind,
    /// The net it drives along the path.
    pub output: NetId,
    /// Nominal per-level delay charged by the arrival computation.
    pub delay: Time,
    /// Cumulative arrival at the gate output.
    pub arrival: Time,
    /// Gate input pins loading the output net.
    pub load: usize,
    /// The PDK drive budget for this cell ([`CellLibrary::max_fanout`]).
    pub load_budget: usize,
    /// Delay under the actual load per the PDK fanout drive model
    /// ([`CellLibrary::loaded_delay`]); equals `delay` whenever the load
    /// respects the budget.
    pub derated_delay: Time,
}

/// A reconstructed worst path to one endpoint, launch to capture.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingPath {
    /// The endpoint this path captures at (see [`Endpoint::name`]).
    pub endpoint: String,
    /// Where the path launches: a sequential cell's clock-to-Q, an input
    /// port's external clock-to-Q constraint, or a constant rail.
    pub launch: String,
    /// Arrival at the endpoint.
    pub arrival: Time,
    /// Slack against the report's clock period.
    pub slack: Time,
    /// Per-cell contributions in launch-to-capture order.
    pub steps: Vec<PathStep>,
}

/// Full slack-based static timing analysis: every endpoint's
/// arrival/required/slack plus the top-K critical paths.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Design name.
    pub design: String,
    /// Clock period the slacks are computed against: the design's own
    /// critical path, so the worst slack is exactly zero.
    pub clock_period: Time,
    /// Longest path delay — numerically identical to
    /// [`timing`]'s `critical_path`.
    pub critical_path: Time,
    /// Cells on the critical path.
    pub logic_depth: usize,
    /// Every capture point, in netlist order.
    pub endpoints: Vec<Endpoint>,
    /// The K worst endpoints' paths, worst first.
    pub paths: Vec<TimingPath>,
}

impl StaReport {
    /// Maximum clock frequency: the reciprocal of the critical path.
    pub fn fmax(&self) -> Frequency {
        self.critical_path.frequency()
    }

    /// The smallest endpoint slack (zero for a self-constrained report).
    pub fn worst_slack(&self) -> Time {
        self.endpoints.iter().map(|e| e.slack).fold(self.clock_period, Time::min)
    }
}

/// Runs [`sta`] with a freshly built fanout map and the default path
/// count.
pub fn sta(netlist: &Netlist, lib: &CellLibrary) -> StaReport {
    sta_with_fanout(netlist, lib, &FanoutMap::build(netlist), DEFAULT_TOP_PATHS)
}

/// Full static timing analysis over a shared connectivity index.
///
/// Runs the same arrival computation as [`timing`] (so `f_max` is
/// numerically identical), then reports per-endpoint arrival, required
/// time, and slack against the design's own critical path, and
/// reconstructs the `top_paths` worst endpoints' paths with per-gate
/// delay contributions and fanout-load annotations from the PDK drive
/// model. The fanout annotations are diagnostic: they never feed back
/// into the arrival numbers.
pub fn sta_with_fanout(
    netlist: &Netlist,
    lib: &CellLibrary,
    fanout: &FanoutMap,
    top_paths: usize,
) -> StaReport {
    let _span = printed_obs::span!("netlist.sta");
    let arr = arrivals(netlist, lib);
    let (mut critical, mut logic_depth) = worst_capture(netlist, &arr);
    // A purely-wire design still needs a nonzero period to clock.
    if critical == Time::ZERO {
        critical = lib.synthesis_delay(CellKind::Inv);
        logic_depth = 1;
    }
    let clock_period = critical;

    let mut endpoints = Vec::new();
    let endpoint = |name: String, net: NetId| {
        let arrival = arr.arrival[net.index()];
        Endpoint {
            name,
            net,
            arrival,
            depth: arr.depth[net.index()],
            required: clock_period,
            slack: clock_period - arrival,
        }
    };
    for (gi, gate) in netlist.gates().iter().enumerate() {
        if gate.is_sequential() {
            for (pin, input) in gate.inputs.iter().enumerate() {
                let pin_name = match gate.kind {
                    CellKind::Latch => ["S", "R"][pin],
                    _ => "D",
                };
                endpoints.push(endpoint(format!("g{gi}/{pin_name}"), *input));
            }
        }
    }
    for (port, nets) in netlist.output_ports() {
        for (bit, net) in nets.iter().enumerate() {
            endpoints.push(endpoint(format!("{port}[{bit}]"), *net));
        }
    }

    // Worst endpoints first; ties keep netlist order (stable sort).
    let mut order: Vec<usize> = (0..endpoints.len()).collect();
    order.sort_by(|&a, &b| {
        endpoints[b].arrival.partial_cmp(&endpoints[a].arrival).unwrap_or(std::cmp::Ordering::Equal)
    });
    let paths = order
        .iter()
        .take(top_paths)
        .map(|&i| {
            let e = &endpoints[i];
            let (steps, launch) = trace_path(netlist, lib, fanout, &arr, e.net);
            TimingPath {
                endpoint: e.name.clone(),
                launch,
                arrival: e.arrival,
                slack: e.slack,
                steps,
            }
        })
        .collect();

    StaReport {
        design: netlist.name().to_string(),
        clock_period,
        critical_path: critical,
        logic_depth,
        endpoints,
        paths,
    }
}

/// Walks the arrival back-pointers from an endpoint net to its launch
/// point, emitting one [`PathStep`] per cell in launch-to-capture order.
fn trace_path(
    netlist: &Netlist,
    lib: &CellLibrary,
    fanout: &FanoutMap,
    arr: &Arrivals,
    net: NetId,
) -> (Vec<PathStep>, String) {
    let mut steps = Vec::new();
    let mut cur = net;
    let launch = loop {
        let Some(gid) = fanout.driver(cur) else {
            // A port or constant rail drives this net directly.
            break if arr.arrival[cur.index()] > Time::ZERO {
                "input port (external clock-to-Q constraint)".to_string()
            } else {
                "constant rail".to_string()
            };
        };
        let gate = &netlist.gates()[gid.index()];
        let load = fanout.load_count(cur);
        steps.push(PathStep {
            gate: gid,
            kind: gate.kind,
            output: cur,
            delay: lib.synthesis_delay(gate.kind),
            arrival: arr.arrival[cur.index()],
            load,
            load_budget: lib.max_fanout(gate.kind),
            derated_delay: lib.loaded_delay(gate.kind, load),
        });
        if gate.is_sequential() {
            break format!("{gid} clock-to-Q");
        }
        match arr.pred[cur.index()] {
            Some(p) => cur = p,
            None => break "constant rail".to_string(),
        }
    };
    steps.reverse();
    (steps, launch)
}

/// One-call characterization: area, f_max, and power at f_max with the
/// default activity factor.
pub fn characterize(netlist: &Netlist, lib: &CellLibrary) -> Characterization {
    let timing = timing(netlist, lib);
    let fmax = timing.fmax();
    Characterization {
        gate_count: netlist.gate_count(),
        sequential_count: netlist.sequential_count(),
        area: area(netlist, lib),
        fmax,
        power: power(netlist, lib, fmax, ActivityModel::default()),
    }
}

/// Energy per clock cycle at a given activity model (used for Figure 8's
/// energy accounting, which multiplies by cycle counts rather than time).
pub fn energy_per_cycle(
    netlist: &Netlist,
    lib: &CellLibrary,
    activity: ActivityModel<'_>,
) -> Energy {
    let mut total = Energy::ZERO;
    for (i, gate) in netlist.gates().iter().enumerate() {
        let alpha = match activity {
            ActivityModel::Uniform(a) => a,
            ActivityModel::Measured(stats) => stats.gate_activity(i).unwrap_or(0.0),
        };
        total += lib.synthesis_energy(gate.kind) * alpha;
    }
    total
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::words;
    use printed_pdk::{CellKind, Technology};

    fn adder(width: usize) -> Netlist {
        let mut b = NetlistBuilder::new(format!("add{width}"));
        let a = b.input("a", width);
        let c = b.input("b", width);
        let cin = b.const0();
        let out = words::ripple_adder(&mut b, &a, &c, cin);
        let q = words::register(&mut b, &out.sum, false);
        b.output("sum", q);
        b.finish().unwrap()
    }

    #[test]
    fn area_sums_cells() {
        let nl = adder(8);
        let lib = Technology::Egfet.library();
        let report = area(&nl, lib);
        let manual: Area = nl.gates().iter().map(|g| lib.cell(g.kind).area).sum();
        assert!((report.total.as_mm2() - manual.as_mm2()).abs() < 1e-9);
        // Registers region = 8 DFFs.
        let regs = report.by_region[&Region::Registers];
        assert!((regs.as_mm2() - 8.0 * lib.cell(CellKind::Dff).area.as_mm2()).abs() < 1e-9);
    }

    #[test]
    fn wider_adders_are_slower_and_bigger() {
        let lib = Technology::Egfet.library();
        let a8 = characterize(&adder(8), lib);
        let a16 = characterize(&adder(16), lib);
        assert!(a16.area.total > a8.area.total);
        assert!(a16.fmax < a8.fmax, "longer carry chain, lower fmax");
        assert!(a16.power.total() > a8.power.total());
    }

    #[test]
    fn cnt_is_faster_than_egfet() {
        let nl = adder(8);
        let egfet = characterize(&nl, Technology::Egfet.library());
        let cnt = characterize(&nl, Technology::CntTft.library());
        assert!(cnt.fmax.as_hertz() > 100.0 * egfet.fmax.as_hertz());
        assert!(cnt.area.total < egfet.area.total);
    }

    #[test]
    fn measured_activity_is_below_uniform_estimate() {
        use crate::sim::Simulator;
        let nl = adder(8);
        let lib = Technology::Egfet.library();
        let mut sim = Simulator::new(&nl);
        // Exercise with a deterministic pattern that leaves many gates idle.
        for i in 0..64u64 {
            sim.set_input("a", i % 4).unwrap();
            sim.set_input("b", 1).unwrap();
            sim.step().unwrap();
        }
        let f = Frequency::from_hertz(10.0);
        let uniform = power(&nl, lib, f, ActivityModel::Uniform(0.88));
        let measured = power(&nl, lib, f, ActivityModel::Measured(sim.stats()));
        assert!(measured.dynamic < uniform.dynamic);
        // Static power is activity-independent.
        assert_eq!(measured.static_, uniform.static_);
    }

    #[test]
    fn timing_depth_counts_cells() {
        // A 3-inverter chain between ports: the input launches with a DFF
        // clock-to-Q (input-delay constraint), then three inverter levels.
        let mut b = NetlistBuilder::new("chain");
        let a = b.input_bit("a");
        let x = b.inv(a);
        let y = b.inv(x);
        let z = b.inv(y);
        b.output("z", vec![z]);
        let nl = b.finish().unwrap();
        let lib = Technology::Egfet.library();
        let t = timing(&nl, lib);
        assert_eq!(t.logic_depth, 4);
        let expected =
            lib.synthesis_delay(CellKind::Dff) + lib.synthesis_delay(CellKind::Inv) * 3.0;
        assert!((t.critical_path.as_micros() - expected.as_micros()).abs() < 1e-9);
    }

    #[test]
    fn dff_to_dff_path_includes_clock_to_q() {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input_bit("a");
        let q1 = b.dff(a);
        let x = b.inv(q1);
        let _q2 = b.dff(x);
        let nl = b.finish().unwrap();
        let lib = Technology::Egfet.library();
        let t = timing(&nl, lib);
        let expected = lib.synthesis_delay(CellKind::Dff) + lib.synthesis_delay(CellKind::Inv);
        assert!((t.critical_path.as_micros() - expected.as_micros()).abs() < 1e-9);
    }

    #[test]
    fn sta_fmax_is_bit_identical_to_timing() {
        for width in [4usize, 8, 16] {
            let nl = adder(width);
            for tech in [Technology::Egfet, Technology::CntTft] {
                let lib = tech.library();
                let t = timing(&nl, lib);
                let s = sta(&nl, lib);
                assert_eq!(s.critical_path, t.critical_path, "{width}-bit {tech}");
                assert_eq!(s.fmax(), t.fmax(), "{width}-bit {tech}");
                assert_eq!(s.logic_depth, t.logic_depth);
            }
        }
    }

    #[test]
    fn sta_slack_is_zero_on_the_critical_path_and_positive_elsewhere() {
        let nl = adder(8);
        let lib = Technology::Egfet.library();
        let s = sta(&nl, lib);
        assert!((s.worst_slack().as_micros()).abs() < 1e-12);
        assert!(s.endpoints.iter().all(|e| e.slack.as_micros() > -1e-12));
        assert!(s.endpoints.iter().any(|e| e.slack.as_micros() > 1e-9));
        // required - arrival = slack, per endpoint.
        for e in &s.endpoints {
            let recon = e.required - e.arrival;
            assert!((recon.as_micros() - e.slack.as_micros()).abs() < 1e-12);
        }
    }

    #[test]
    fn sta_paths_reconstruct_their_arrival() {
        let nl = adder(8);
        let lib = Technology::Egfet.library();
        let s = sta(&nl, lib);
        assert_eq!(s.paths.len(), DEFAULT_TOP_PATHS);
        // Worst first, and the worst path is the critical path.
        assert_eq!(s.paths[0].arrival, s.critical_path);
        for pair in s.paths.windows(2) {
            assert!(pair[0].arrival >= pair[1].arrival);
        }
        for path in &s.paths {
            // The steps' nominal delays sum to the endpoint arrival
            // (launch step included; input-port launches add the
            // external clock-to-Q constraint instead of a step).
            let steps: Time = path.steps.iter().map(|s| s.delay).fold(Time::ZERO, |a, b| a + b);
            let launch_extra = if path.launch.starts_with("input port") {
                lib.synthesis_delay(CellKind::Dff)
            } else {
                Time::ZERO
            };
            let total = steps + launch_extra;
            assert!(
                (total.as_micros() - path.arrival.as_micros()).abs() < 1e-9,
                "{}: steps sum {} vs arrival {}",
                path.endpoint,
                total.as_micros(),
                path.arrival.as_micros()
            );
            // Cumulative arrivals are monotone along the path.
            for pair in path.steps.windows(2) {
                assert!(pair[1].arrival > pair[0].arrival);
            }
            // The adder respects drive budgets, so deratings are 1.0.
            for step in &path.steps {
                assert!(step.load <= step.load_budget);
                assert_eq!(step.derated_delay, step.delay);
            }
        }
    }

    #[test]
    fn sta_dff_to_dff_path_launches_at_the_flop() {
        let mut b = NetlistBuilder::new("pipe");
        let a = b.input_bit("a");
        let q1 = b.dff(a);
        let x = b.inv(q1);
        let _q2 = b.dff(x);
        let nl = b.finish().unwrap();
        let lib = Technology::Egfet.library();
        let s = sta(&nl, lib);
        let worst = &s.paths[0];
        assert_eq!(worst.endpoint, "g2/D");
        assert!(worst.launch.contains("clock-to-Q"), "launch: {}", worst.launch);
        assert_eq!(worst.steps.len(), 2, "launch DFF + INV");
        assert_eq!(worst.steps[0].kind, CellKind::Dff);
        assert_eq!(worst.steps[1].kind, CellKind::Inv);
    }

    #[test]
    fn overloaded_nets_get_derated_path_delays() {
        // One inverter driving 12 loads: past EGFET's budget of 4.
        let mut b = NetlistBuilder::new("hot");
        let a = b.input_bit("a");
        let x = b.inv(a);
        let mut outs = Vec::new();
        for _ in 0..12 {
            outs.push(b.inv(x));
        }
        b.output("y", outs);
        let nl = b.finish().unwrap();
        let lib = Technology::Egfet.library();
        let s = sta(&nl, lib);
        let hot = s
            .paths
            .iter()
            .flat_map(|p| &p.steps)
            .find(|step| step.load == 12)
            .expect("the overloaded inverter is on every path");
        assert_eq!(hot.load_budget, 4);
        assert!(hot.derated_delay > hot.delay);
        let ratio = hot.derated_delay.as_micros() / hot.delay.as_micros();
        assert!((ratio - 3.0).abs() < 1e-9, "12 loads / budget 4 = 3x");
    }

    #[test]
    fn energy_per_cycle_scales_with_activity() {
        let nl = adder(8);
        let lib = Technology::Egfet.library();
        let full = energy_per_cycle(&nl, lib, ActivityModel::Uniform(1.0));
        let half = energy_per_cycle(&nl, lib, ActivityModel::Uniform(0.5));
        assert!((full.as_nanojoules() / half.as_nanojoules() - 2.0).abs() < 1e-9);
    }
}
