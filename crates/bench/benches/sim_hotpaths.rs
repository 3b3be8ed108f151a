//! Simulator hot-path benchmarks: the netlist settle/step loop under
//! both engines, the gate-level co-simulation kernel loop, parallel
//! fault-campaign scaling, and the cost of disabled observability
//! instrumentation.
//!
//! Besides the criterion-shim output, this harness writes
//! `BENCH_sim.json` at the repository root with the measured numbers,
//! appends one `printed-bench-record/v1` line to the append-only
//! `BENCH_history.jsonl` perf ledger (consumed by
//! `printed_eval::regression` and the `perf_regression` example — see
//! DESIGN.md "Observability"), and asserts these invariants:
//!
//! - the event-driven engine is at least as fast as the full-sweep
//!   reference on the p1_8_2 kernel replay (the whole point of the
//!   worklist),
//! - the fault campaign produces byte-identical CSV at every measured
//!   thread count, and 4 workers gain at least [`THREAD_SCALING_MIN`]
//!   over 1 whenever the host actually has multiple cores,
//! - the bitsliced campaign engine gains at least
//!   [`BITSLICED_SPEEDUP_MIN`] over the scalar reference at equal
//!   thread count while reproducing its CSV byte for byte across the
//!   {engine} x {threads} matrix, and
//! - instrumentation with `PRINTED_OBS=off` stays unmeasurable (below
//!   [`OBS_OFF_THRESHOLD_NS`] per call site), and
//! - the ISS-vs-gate-level sweep (`diff_report`, every kernel in one
//!   bitsliced word) gains at least [`DIFF_WORD_SPEEDUP_MIN`] over a
//!   scalar `diff_kernel` sweep of the same kernels, both timed in this
//!   process with interleaved reps, so the ratio holds on any host.

// Panics are the failure report in test/bench/example code.
#![allow(clippy::disallowed_methods)]
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use printed_baselines::diff::LockstepOptions;
use printed_baselines::BaselineCpu;
use printed_core::kernels::{self, Kernel};
use printed_core::workload::ProgramWorkload;
use printed_core::{generate_checked, generate_standard, CoreConfig, CoreSpec};
use printed_eval::lockstep::{self, DiffRow};
use printed_netlist::fault::{
    run_campaign, CampaignConfig, PatternWorkload, StuckAtSpace, Workload,
};
use printed_netlist::{analysis, dataflow, opt, Engine, FanoutMap, ScalarOnly, Simulator};
use printed_obs as obs;
use printed_pdk::Technology;
use std::sync::Arc;
use std::time::Instant;

/// Ceiling for one disabled instrumentation call site (span enter+drop
/// plus one counter add). The real cost is a couple of relaxed atomic
/// loads — single-digit nanoseconds; the margin absorbs CI noise.
const OBS_OFF_THRESHOLD_NS: f64 = 200.0;

/// Thread counts the campaign-scaling measurement sweeps.
const CAMPAIGN_THREADS: [usize; 3] = [1, 2, 4];

/// Reps of the campaign-scaling sweep (the first is warm-up).
const CAMPAIGN_SCALING_REPS: usize = 8;

/// Minimum wall-clock speedup 4 campaign workers must deliver over 1 on
/// a campaign large enough to matter — asserted only when the host has
/// at least 2 cores (the chunk-queue scheduler cannot manufacture
/// parallelism on a single-core box; `host_cpus` in `BENCH_sim.json`
/// records which regime a run measured).
const THREAD_SCALING_MIN: f64 = 1.5;

/// Minimum wall-clock speedup of the bitsliced campaign engine over the
/// scalar reference at equal thread count on the exhaustive stuck-at
/// campaign. 64 lanes per word minus lane masking, settle early-exit
/// loss, and the word-wide full-sweep evaluation leave an order of
/// magnitude.
const BITSLICED_SPEEDUP_MIN: f64 = 10.0;

/// Minimum speedup of the word-path differential sweep over the scalar
/// sweep of the same 16 kernels. The word clocks as long as its longest
/// kernel (993 of the sweep's 4,776 lockstep steps), so about 5x is
/// expected before the per-lane compares.
const DIFF_WORD_SPEEDUP_MIN: f64 = 3.0;

/// Interleaved reps of the differential-sweep comparison; the first is
/// warm-up.
const DIFF_REPS: usize = 8;

/// Pre-optimization baselines recorded by the seed benchmark (single
/// full-sweep engine, no cached machine ports): the `ns_per_cycle`
/// numbers from the committed `BENCH_sim.json` this branch started
/// from. The headline `speedup` fields measure against these, i.e.
/// against what the repository could do before this change.
const SEED_GL_NS_PER_CYCLE: f64 = 30018.9;
const SEED_SIM_NS_PER_CYCLE: f64 = 9484.9;

/// Wall-clock budget for the full 24-point static-analysis sweep
/// (dataflow fixpoint + slack-based STA per design, EGFET library).
/// The sweep is part of `reproduce_all` and the CI gate, so it must
/// stay interactive; the measured total is a few hundred milliseconds,
/// and the budget absorbs an order of magnitude of CI noise.
const STATIC_SWEEP_BUDGET_MS: f64 = 10_000.0;

/// Replays per measurement; the first [`WARMUP_REPS`] are discarded and
/// the best of the rest is kept. A single cold replay swings by tens of
/// percent on a busy single-core box.
const MEASURE_REPS: usize = 12;
const WARMUP_REPS: usize = 2;

/// Nanoseconds per iteration of `f` over `iters` runs.
fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// One engine's raw-simulation numbers.
struct EngineRun {
    ns_per_cycle: f64,
    gate_evals_per_sec: f64,
    gate_evals: u64,
}

struct Measurements {
    sim_cycles: u64,
    sim_event: EngineRun,
    sim_sweep: EngineRun,
    gl_kernel: String,
    gl_cycles: u64,
    gl_event_ns_per_cycle: f64,
    gl_sweep_ns_per_cycle: f64,
    campaign_faults: usize,
    campaign_classes: usize,
    campaign_ms: Vec<(usize, f64)>,
    campaign_csv_identical: bool,
    host_cpus: usize,
    engines: BitslicedRun,
    obs_off_ns_per_op: f64,
    static_points: Vec<StaticPoint>,
    opt_sweep_ms: f64,
    generate_sweep_ms: f64,
    diff: DiffRun,
}

/// Word-path vs scalar ISS-vs-gate-level sweep over the 16 kernels.
struct DiffRun {
    kernels: usize,
    scalar_ms: f64,
    word_ms: f64,
}

impl DiffRun {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.word_ms
    }
}

/// Bitsliced-vs-scalar campaign engine measurement on the exhaustive
/// stuck-at + SEU campaign (equal thread count), plus the byte-identity
/// check over the full {engine} × {threads} matrix.
struct BitslicedRun {
    faults: usize,
    scalar_ms: f64,
    bitsliced_ms: f64,
    lane_utilization: f64,
    csv_identical: bool,
}

impl BitslicedRun {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.bitsliced_ms
    }

    /// Faulty-machine runs per second on the bitsliced engine.
    fn runs_per_sec(&self) -> f64 {
        self.faults as f64 / (self.bitsliced_ms / 1e3)
    }
}

/// Static-analysis wall time for one design point.
struct StaticPoint {
    design: String,
    gates: usize,
    /// A baseline core's representative netlist rather than a Figure 7
    /// sweep point.
    baseline: bool,
    dataflow_ms: f64,
    sta_ms: f64,
}

impl Measurements {
    /// Headline improvement: event-driven replay against the seed's
    /// committed full-sweep number (what this branch started from).
    fn gl_speedup(&self) -> f64 {
        SEED_GL_NS_PER_CYCLE / self.gl_event_ns_per_cycle
    }

    /// Same-binary engine comparison on today's box.
    fn gl_speedup_vs_full_sweep(&self) -> f64 {
        self.gl_sweep_ns_per_cycle / self.gl_event_ns_per_cycle
    }

    /// Campaign speedup from 1 to 4 workers (1.0 if either point is
    /// missing from the sweep).
    fn campaign_speedup_4t(&self) -> f64 {
        let at = |n: usize| self.campaign_ms.iter().find(|&&(t, _)| t == n).map(|&(_, ms)| ms);
        match (at(1), at(4)) {
            (Some(one), Some(four)) if four > 0.0 => one / four,
            _ => 1.0,
        }
    }

    /// Whether the thread-scaling floor is enforceable on this host.
    fn scaling_asserted(&self) -> bool {
        self.host_cpus >= 2
    }

    /// Total wall time of the static-analysis sweep over the 24 Figure 7
    /// points (the gated ledger series; the baseline rows are reported
    /// beside it, not summed in).
    fn static_total_ms(&self) -> f64 {
        self.sweep_points().map(|p| p.dataflow_ms + p.sta_ms).sum()
    }

    fn sweep_points(&self) -> impl Iterator<Item = &StaticPoint> {
        self.static_points.iter().filter(|p| !p.baseline)
    }

    fn to_json(&self) -> String {
        let threads_json: Vec<String> = self
            .campaign_ms
            .iter()
            .map(|&(threads, ms)| format!("{{\"threads\": {threads}, \"ms\": {ms:.1}}}"))
            .collect();
        let static_json: Vec<String> = self
            .static_points
            .iter()
            .map(|p| {
                format!(
                    "{{\"design\": \"{}\", \"gates\": {}, \"baseline\": {}, \
                     \"dataflow_ms\": {:.2}, \"sta_ms\": {:.2}}}",
                    p.design, p.gates, p.baseline, p.dataflow_ms, p.sta_ms
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"sim_hotpaths\",\n  \"netlist_sim\": {{\"design\": \"p1_8_2\", \
             \"cycles\": {}, \"event\": {{\"ns_per_cycle\": {:.1}, \"gate_evals_per_sec\": \
             {:.0}, \"gate_evals\": {}}}, \"full_sweep\": {{\"ns_per_cycle\": {:.1}, \
             \"gate_evals_per_sec\": {:.0}, \"gate_evals\": {}}}, \
             \"seed_ns_per_cycle\": {:.1}, \"speedup_vs_full_sweep\": {:.2}, \
             \"speedup\": {:.2}}},\n  \
             \"gate_level_machine\": {{\"kernel\": \"{}\", \"cycles\": {}, \
             \"event_ns_per_cycle\": {:.1}, \"full_sweep_ns_per_cycle\": {:.1}, \
             \"seed_ns_per_cycle\": {:.1}, \"speedup_vs_full_sweep\": {:.2}, \
             \"speedup\": {:.2}}},\n  \"campaign_scaling\": {{\"design\": \"p3_32_4\", \
             \"faults\": {}, \"classes\": {}, \"threads\": [{}], \"csv_identical\": {}, \"host_cpus\": {}, \
             \"speedup_4t\": {:.2}, \"threshold\": {:.1}, \"asserted\": {}}},\n  \
             \"bitsliced\": {{\"design\": \"p1_4_2\", \"faults\": {}, \"scalar_ms\": {:.1}, \
             \"bitsliced_ms\": {:.2}, \"speedup\": {:.2}, \"threshold\": {:.1}, \
             \"runs_per_sec\": {:.0}, \"lane_utilization\": {:.3}, \"csv_identical\": {}, \
             \"within_threshold\": {}}},\n  \
             \"obs_off_overhead\": {{\"ns_per_op\": {:.2}, \"threshold_ns\": {:.1}, \
             \"within_threshold\": {}}},\n  \
             \"static_analysis\": {{\"technology\": \"Egfet\", \"total_ms\": {:.1}, \
             \"budget_ms\": {:.1}, \"within_budget\": {}, \"points\": [{}]}},\n  \
             \"optimizer\": {{\"designs\": {}, \"total_ms\": {:.2}}},\n  \
             \"generator\": {{\"designs\": {}, \"technology\": \"Egfet\", \"total_ms\": {:.2}}},\n  \
             \"diff_word\": {{\"design\": \"p1_8_2\", \"kernels\": {}, \"scalar_ms\": {:.2}, \
             \"word_ms\": {:.2}, \"speedup\": {:.2}, \"threshold\": {:.1}}}\n}}\n",
            self.sim_cycles,
            self.sim_event.ns_per_cycle,
            self.sim_event.gate_evals_per_sec,
            self.sim_event.gate_evals,
            self.sim_sweep.ns_per_cycle,
            self.sim_sweep.gate_evals_per_sec,
            self.sim_sweep.gate_evals,
            SEED_SIM_NS_PER_CYCLE,
            self.sim_sweep.ns_per_cycle / self.sim_event.ns_per_cycle,
            SEED_SIM_NS_PER_CYCLE / self.sim_event.ns_per_cycle,
            self.gl_kernel,
            self.gl_cycles,
            self.gl_event_ns_per_cycle,
            self.gl_sweep_ns_per_cycle,
            SEED_GL_NS_PER_CYCLE,
            self.gl_speedup_vs_full_sweep(),
            self.gl_speedup(),
            self.campaign_faults,
            self.campaign_classes,
            threads_json.join(", "),
            self.campaign_csv_identical,
            self.host_cpus,
            self.campaign_speedup_4t(),
            THREAD_SCALING_MIN,
            self.scaling_asserted(),
            self.engines.faults,
            self.engines.scalar_ms,
            self.engines.bitsliced_ms,
            self.engines.speedup(),
            BITSLICED_SPEEDUP_MIN,
            self.engines.runs_per_sec(),
            self.engines.lane_utilization,
            self.engines.csv_identical,
            self.engines.speedup() >= BITSLICED_SPEEDUP_MIN,
            self.obs_off_ns_per_op,
            OBS_OFF_THRESHOLD_NS,
            self.obs_off_ns_per_op <= OBS_OFF_THRESHOLD_NS,
            self.static_total_ms(),
            STATIC_SWEEP_BUDGET_MS,
            self.static_total_ms() <= STATIC_SWEEP_BUDGET_MS,
            static_json.join(", "),
            CoreConfig::design_space().len(),
            self.opt_sweep_ms,
            CoreConfig::design_space().len(),
            self.generate_sweep_ms,
            self.diff.kernels,
            self.diff.scalar_ms,
            self.diff.word_ms,
            self.diff.speedup(),
            DIFF_WORD_SPEEDUP_MIN,
        )
    }
}

/// Raw netlist simulation throughput: clocking the paper's p1_8_2 core
/// under one engine. Keeps the best of [`MEASURE_REPS`] warm replays.
fn measure_netlist_sim(engine: Engine) -> (u64, EngineRun) {
    let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
    let cycles = 400u64;
    let mut best =
        EngineRun { ns_per_cycle: f64::INFINITY, gate_evals_per_sec: 0.0, gate_evals: 0 };
    for rep in 0..MEASURE_REPS {
        let mut sim = Simulator::with_engine(&netlist, engine);
        let started = Instant::now();
        sim.run(cycles).expect("core netlist settles");
        let elapsed = started.elapsed();
        let ns_per_cycle = elapsed.as_nanos() as f64 / cycles as f64;
        if rep >= WARMUP_REPS && ns_per_cycle < best.ns_per_cycle {
            best = EngineRun {
                ns_per_cycle,
                gate_evals_per_sec: sim.stats().gate_evals as f64 / elapsed.as_secs_f64(),
                gate_evals: sim.stats().gate_evals,
            };
        }
    }
    (cycles, best)
}

/// Gate-level co-simulation of the shift-add multiply kernel on p1_8_2
/// under one engine.
fn measure_gate_level(engine: Engine) -> (String, u64, f64) {
    let config = CoreConfig::new(1, 8, 2);
    let netlist = generate_standard(&config);
    let kernel = kernels::generate(Kernel::Mult, 8, 8).expect("mult8 generates");
    let name = kernel.name.clone();
    let workload = ProgramWorkload::from_kernel(&kernel, config).expect("mult8 encodes");
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for rep in 0..MEASURE_REPS {
        let started = Instant::now();
        let observation =
            workload.run(Simulator::with_engine(&netlist, engine), 20_000).expect("kernel runs");
        let ns_per_cycle = started.elapsed().as_nanos() as f64 / observation.cycles as f64;
        assert!(observation.completed, "mult kernel must halt within budget");
        cycles = observation.cycles;
        if rep >= WARMUP_REPS {
            best = best.min(ns_per_cycle);
        }
    }
    (name, cycles, best)
}

/// Exhaustive stuck-at + SEU campaign on the p3_32_4 core under 100
/// cycles of random stimulus, at each thread count in
/// [`CAMPAIGN_THREADS`], on the default (bitsliced) engine: wall time
/// per count, plus a byte-identity check of the merged CSV against the
/// sequential run. A campaign simulates one run per fault class, so the
/// work is set by distinct faults: the 173 flip-flops over 100 cycles
/// give 17,300 SEU sites, and 40,000 samples of them plus the 4,426
/// stuck-at faults leave ~18.2k classes, ~289 63-fault words. That is
/// long enough that a second worker pays for its start-up and the merge,
/// so the thread-scaling floor measures the chunk queue, not fixed
/// costs. Returns the fault slots, the classes, the timings and the
/// CSV identity.
fn measure_campaign_scaling() -> (usize, usize, Vec<(usize, f64)>, bool) {
    let netlist = generate_standard(&CoreConfig::new(3, 32, 4));
    let workload = PatternWorkload { cycles: 100, seed: 1 };
    let campaign = CampaignConfig {
        stuck_at: StuckAtSpace::Exhaustive,
        seu_samples: 40_000,
        ..CampaignConfig::default()
    };
    // Thread counts interleave within each rep, so a stretch of host
    // contention slows every count alike instead of one count's block;
    // rep 0 warms up, and each count keeps its best time.
    let mut best = [f64::INFINITY; CAMPAIGN_THREADS.len()];
    let mut baseline_csv: Option<String> = None;
    let (mut faults, mut classes) = (0, 0);
    let mut identical = true;
    for rep in 0..CAMPAIGN_SCALING_REPS {
        for (slot, &threads) in best.iter_mut().zip(&CAMPAIGN_THREADS) {
            let started = Instant::now();
            let result = run_campaign(&netlist, &workload, &campaign, threads)
                .expect("smoke campaign completes");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if rep >= 1 {
                *slot = slot.min(ms);
            }
            (faults, classes) = (result.runs.len(), result.classes);
            let csv = result.to_csv();
            match &baseline_csv {
                None => baseline_csv = Some(csv),
                Some(base) => identical &= *base == csv,
            }
        }
    }
    let timings = CAMPAIGN_THREADS.iter().copied().zip(best).collect();
    (faults, classes, timings, identical)
}

/// Bitsliced vs scalar campaign engine on the exhaustive p1_4_2 smoke
/// campaign, both single-threaded (equal thread count), best of
/// [`MEASURE_REPS`]. The scalar side is a [`ScalarOnly`] campaign, so it
/// also pays the scheduler's declined-word fallback. Also checks CSV
/// byte-identity over the full {scalar, bitsliced} × {1, 4 threads}
/// matrix against the scalar sequential baseline.
fn measure_bitsliced() -> BitslicedRun {
    let config = CoreConfig::new(1, 4, 2);
    let netlist = generate_standard(&config);
    let workload = ProgramWorkload::smoke(config);
    let scalar_workload = ScalarOnly(&workload);
    let campaign = CampaignConfig {
        stuck_at: StuckAtSpace::Exhaustive,
        seu_samples: 16,
        ..CampaignConfig::default()
    };
    let mut scalar_ms = f64::INFINITY;
    let mut bitsliced_ms = f64::INFINITY;
    let (mut faults, mut classes) = (0, 0);
    for rep in 0..MEASURE_REPS {
        let started = Instant::now();
        let scalar = run_campaign(&netlist, &scalar_workload, &campaign, 1)
            .expect("scalar campaign completes");
        let s_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let bits =
            run_campaign(&netlist, &workload, &campaign, 1).expect("bitsliced campaign completes");
        let b_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(scalar.to_csv(), bits.to_csv(), "engines must agree byte for byte");
        (faults, classes) = (scalar.runs.len(), scalar.classes);
        if rep >= WARMUP_REPS {
            scalar_ms = scalar_ms.min(s_ms);
            bitsliced_ms = bitsliced_ms.min(b_ms);
        }
    }
    let baseline = run_campaign(&netlist, &scalar_workload, &campaign, 1)
        .expect("scalar campaign completes")
        .to_csv();
    let mut csv_identical = true;
    let engines: [&dyn Workload; 2] = [&scalar_workload, &workload];
    for engine in engines {
        for threads in [1usize, 4] {
            let run = run_campaign(&netlist, engine, &campaign, threads)
                .expect("matrix campaign completes");
            csv_identical &= run.to_csv() == baseline;
        }
    }
    BitslicedRun {
        faults,
        scalar_ms,
        bitsliced_ms,
        lane_utilization: printed_netlist::fault::lane_utilization(classes),
        csv_identical,
    }
}

/// Static-analysis wall time over what `reproduce_all`'s
/// `eval.static_analysis` stage analyzes in Egfet: the Figure 7 design
/// space, then the four baseline cores' representative netlists (long
/// shift chains, 2k–12k gates — the stage's largest designs). Dataflow
/// fixpoint and slack-based STA per design, each timed separately over
/// a shared fanout map. Best of three reps per design.
fn measure_static_analysis() -> Vec<StaticPoint> {
    let lib = Technology::Egfet.library();
    let sweep = CoreConfig::design_space().into_iter().map(|c| (generate_standard(&c), false));
    let baselines = BaselineCpu::ALL
        .into_iter()
        .map(|cpu| (cpu.inventory(Technology::Egfet).representative_netlist(), true));
    let mut points = Vec::new();
    for (netlist, baseline) in sweep.chain(baselines) {
        let fanout = Arc::new(FanoutMap::build(&netlist));
        let mut dataflow_ms = f64::INFINITY;
        let mut sta_ms = f64::INFINITY;
        for _ in 0..3 {
            let started = Instant::now();
            let facts = dataflow::analyze_with_fanout(&netlist, Arc::clone(&fanout));
            dataflow_ms = dataflow_ms.min(started.elapsed().as_secs_f64() * 1e3);
            black_box(facts.constant_count());
            let started = Instant::now();
            let sta =
                analysis::sta_with_fanout(&netlist, lib, &fanout, analysis::DEFAULT_TOP_PATHS);
            sta_ms = sta_ms.min(started.elapsed().as_secs_f64() * 1e3);
            black_box(sta.endpoints.len());
        }
        points.push(StaticPoint {
            design: netlist.name().to_string(),
            gates: netlist.gate_count(),
            baseline,
            dataflow_ms,
            sta_ms,
        });
    }
    points
}

/// Wall time of `opt::optimize` over the 24 Figure 7 sweep cores, the
/// constant folder and dead-gate sweep every program-specific core and
/// print-shop quote runs. Best of [`MEASURE_REPS`] passes after
/// [`WARMUP_REPS`] discarded ones.
fn measure_opt_sweep() -> f64 {
    let cores: Vec<_> = CoreConfig::design_space().iter().map(generate_standard).collect();
    let mut best = f64::INFINITY;
    for rep in 0..MEASURE_REPS {
        let started = Instant::now();
        for core in &cores {
            black_box(opt::optimize(core).gate_count());
        }
        if rep >= WARMUP_REPS {
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// Wall time of `generate_checked` over the 24 Figure 7 sweep points in
/// EGFET: netlist building plus the DRC gate every generated core pays.
/// Best of [`MEASURE_REPS`] passes after [`WARMUP_REPS`] discarded ones.
fn measure_generate_sweep() -> f64 {
    let specs: Vec<_> = CoreConfig::design_space().into_iter().map(CoreSpec::standard).collect();
    let mut best = f64::INFINITY;
    for rep in 0..MEASURE_REPS {
        let started = Instant::now();
        for spec in &specs {
            let netlist = generate_checked(spec, Technology::Egfet).expect("sweep cores pass DRC");
            black_box(netlist.gate_count());
        }
        if rep >= WARMUP_REPS {
            best = best.min(started.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// Per-call-site cost of disabled instrumentation: a span enter/drop
/// plus a counter add, exactly as the simulator hot paths would pay it.
fn measure_obs_off() -> f64 {
    assert!(!obs::enabled(), "this measurement requires PRINTED_OBS to be off");
    ns_per_iter(1_000_000, || {
        let _span = obs::span!("bench.off.span");
        obs::add("bench.off.counter", 1);
        black_box(());
    })
}

/// The scalar ISS-vs-gate-level sweep: every kernel `diff_report`
/// covers, run one at a time through `diff_kernel` on one p1_8_2 build.
fn scalar_diff_sweep(options: &LockstepOptions) -> Vec<DiffRow> {
    let config = CoreConfig::new(1, 8, 2);
    let netlist = generate_standard(&config);
    lockstep::sweep_programs(config)
        .iter()
        .map(|program| lockstep::scalar_diff_row(&netlist, program, config, options))
        .collect()
}

/// `diff_report` (every kernel in one bitsliced word) against the
/// scalar sweep of the same kernels, core generation included on both
/// sides. The two alternate within each of [`DIFF_REPS`] reps in this
/// process, the first rep is warm-up, and the best of the rest is kept;
/// every rep checks that the word path reproduces the scalar rows.
fn measure_diff_word() -> DiffRun {
    let options = LockstepOptions::default();
    let mut run = DiffRun { kernels: 0, scalar_ms: f64::INFINITY, word_ms: f64::INFINITY };
    for rep in 0..DIFF_REPS {
        let started = Instant::now();
        let scalar = scalar_diff_sweep(&options);
        let scalar_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let word = lockstep::diff_report(&options);
        let word_ms = started.elapsed().as_secs_f64() * 1e3;
        assert_eq!(word.rows, scalar, "the word path must reproduce the scalar rows");
        run.kernels = scalar.len();
        if rep > 0 {
            run.scalar_ms = run.scalar_ms.min(scalar_ms);
            run.word_ms = run.word_ms.min(word_ms);
        }
    }
    run
}

fn write_bench_json(m: &Measurements) {
    let path = printed_bench::repo_file("BENCH_sim.json");
    std::fs::write(&path, m.to_json())
        .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Appends one `printed-bench-record/v1` line to the perf-history
/// ledger; the metric keys match what
/// `printed_eval::regression::GATED_METRICS` gates on.
fn append_history(m: &Measurements) {
    let metrics = format!(
        "\"sim_event_ns_per_cycle\": {:.1}, \"sim_sweep_ns_per_cycle\": {:.1}, \
         \"gl_event_ns_per_cycle\": {:.1}, \"gl_sweep_ns_per_cycle\": {:.1}, \
         \"gl_speedup\": {:.2}, \
         \"bitsliced_speedup\": {:.2}, \"bitsliced_runs_per_sec\": {:.0}, \
         \"obs_off_ns_per_op\": {:.2}, \
         \"static_total_ms\": {:.1}, \"opt_sweep_ms\": {:.2}, \"generate_sweep_ms\": {:.2}, \
         \"diff_word_speedup\": {:.2}",
        m.sim_event.ns_per_cycle,
        m.sim_sweep.ns_per_cycle,
        m.gl_event_ns_per_cycle,
        m.gl_sweep_ns_per_cycle,
        m.gl_speedup(),
        m.engines.speedup(),
        m.engines.runs_per_sec(),
        m.obs_off_ns_per_op,
        m.static_total_ms(),
        m.opt_sweep_ms,
        m.generate_sweep_ms,
        m.diff.speedup(),
    );
    let run_index = printed_bench::append_history("sim_hotpaths", &metrics);
    println!("appended run {run_index} to the perf history");
}

fn bench(c: &mut Criterion) {
    let (sim_cycles, sim_event) = measure_netlist_sim(Engine::EventDriven);
    let (_, sim_sweep) = measure_netlist_sim(Engine::FullSweep);
    let (gl_kernel, gl_cycles, gl_event_ns_per_cycle) = measure_gate_level(Engine::EventDriven);
    let (_, _, gl_sweep_ns_per_cycle) = measure_gate_level(Engine::FullSweep);
    let (campaign_faults, campaign_classes, campaign_ms, campaign_csv_identical) =
        measure_campaign_scaling();
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let engines = measure_bitsliced();
    let obs_off_ns_per_op = measure_obs_off();
    let static_points = measure_static_analysis();
    let opt_sweep_ms = measure_opt_sweep();
    let generate_sweep_ms = measure_generate_sweep();
    let diff = measure_diff_word();

    let m = Measurements {
        sim_cycles,
        sim_event,
        sim_sweep,
        gl_kernel,
        gl_cycles,
        gl_event_ns_per_cycle,
        gl_sweep_ns_per_cycle,
        campaign_faults,
        campaign_classes,
        campaign_ms,
        campaign_csv_identical,
        host_cpus,
        engines,
        obs_off_ns_per_op,
        static_points,
        opt_sweep_ms,
        generate_sweep_ms,
        diff,
    };
    println!(
        "netlist sim: event {:.0} ns/cycle vs full sweep {:.0} ns/cycle; gate-level {}: \
         event {:.0} vs full sweep {:.0} ns/cycle ({:.1}x live, {:.1}x vs seed); campaign \
         {} faults in {} classes {:?} ms; obs off: {:.2} ns/op",
        m.sim_event.ns_per_cycle,
        m.sim_sweep.ns_per_cycle,
        m.gl_kernel,
        m.gl_event_ns_per_cycle,
        m.gl_sweep_ns_per_cycle,
        m.gl_speedup_vs_full_sweep(),
        m.gl_speedup(),
        m.campaign_faults,
        m.campaign_classes,
        m.campaign_ms,
        m.obs_off_ns_per_op
    );
    println!(
        "bitsliced engine: {} faults, scalar {:.1} ms vs bitsliced {:.2} ms ({:.1}x, threshold \
         {:.0}x), {:.0} runs/s, lane utilization {:.1} %; scaling 1->4t {:.2}x on {} cpu(s)",
        m.engines.faults,
        m.engines.scalar_ms,
        m.engines.bitsliced_ms,
        m.engines.speedup(),
        BITSLICED_SPEEDUP_MIN,
        m.engines.runs_per_sec(),
        100.0 * m.engines.lane_utilization,
        m.campaign_speedup_4t(),
        m.host_cpus
    );
    let slowest = m
        .static_points
        .iter()
        .max_by(|a, b| (a.dataflow_ms + a.sta_ms).total_cmp(&(b.dataflow_ms + b.sta_ms)));
    if let Some(p) = slowest {
        let baseline_ms: f64 =
            m.static_points.iter().filter(|p| p.baseline).map(|p| p.dataflow_ms + p.sta_ms).sum();
        println!(
            "static analysis: {} sweep points, {:.1} ms total (budget {:.0} ms); baselines \
             {:.1} ms; slowest {} ({} gates): dataflow {:.2} ms + sta {:.2} ms",
            m.sweep_points().count(),
            m.static_total_ms(),
            STATIC_SWEEP_BUDGET_MS,
            baseline_ms,
            p.design,
            p.gates,
            p.dataflow_ms,
            p.sta_ms
        );
    }
    println!(
        "optimizer: opt::optimize over {} sweep cores {:.2} ms; generator: \
         generate_checked over them {:.2} ms",
        CoreConfig::design_space().len(),
        m.opt_sweep_ms,
        m.generate_sweep_ms
    );
    println!(
        "differential sweep: {} kernels, scalar {:.2} ms vs word {:.2} ms ({:.1}x, threshold \
         {:.0}x)",
        m.diff.kernels,
        m.diff.scalar_ms,
        m.diff.word_ms,
        m.diff.speedup(),
        DIFF_WORD_SPEEDUP_MIN
    );
    write_bench_json(&m);
    append_history(&m);
    // Host-independent ratios first, so they report even where a check
    // against another host's clock stops the run.
    assert!(
        m.diff.speedup() >= DIFF_WORD_SPEEDUP_MIN,
        "the word-path differential sweep must gain at least {DIFF_WORD_SPEEDUP_MIN}x over \
         the scalar sweep: scalar {:.2} ms vs word {:.2} ms is only {:.2}x",
        m.diff.scalar_ms,
        m.diff.word_ms,
        m.diff.speedup()
    );
    assert!(
        m.gl_event_ns_per_cycle <= m.gl_sweep_ns_per_cycle,
        "event-driven engine must not be slower than the full sweep on p1_8_2: \
         {:.1} ns/cycle vs {:.1} ns/cycle",
        m.gl_event_ns_per_cycle,
        m.gl_sweep_ns_per_cycle
    );
    assert!(
        m.gl_speedup() >= 5.0,
        "event-driven kernel replay must improve at least 5x over the seed baseline: \
         {:.1} ns/cycle vs seed {:.1} ns/cycle is only {:.2}x",
        m.gl_event_ns_per_cycle,
        SEED_GL_NS_PER_CYCLE,
        m.gl_speedup()
    );
    assert!(
        m.campaign_csv_identical,
        "campaign CSV must be byte-identical across thread counts {CAMPAIGN_THREADS:?}"
    );
    if m.scaling_asserted() {
        assert!(
            m.campaign_speedup_4t() >= THREAD_SCALING_MIN,
            "4 campaign workers must gain at least {THREAD_SCALING_MIN}x over 1 on a \
             {}-cpu host: {:?} ms is only {:.2}x",
            m.host_cpus,
            m.campaign_ms,
            m.campaign_speedup_4t()
        );
    }
    assert!(
        m.engines.csv_identical,
        "bitsliced campaigns must reproduce the scalar CSV byte for byte across the \
         {{engine}} x {{threads}} matrix"
    );
    assert!(
        m.engines.speedup() >= BITSLICED_SPEEDUP_MIN,
        "the bitsliced engine must gain at least {BITSLICED_SPEEDUP_MIN}x over scalar at equal \
         thread count: scalar {:.1} ms vs bitsliced {:.2} ms is only {:.2}x",
        m.engines.scalar_ms,
        m.engines.bitsliced_ms,
        m.engines.speedup()
    );
    assert!(
        m.obs_off_ns_per_op <= OBS_OFF_THRESHOLD_NS,
        "disabled observability must stay unmeasurable: {:.2} ns/op exceeds {} ns",
        m.obs_off_ns_per_op,
        OBS_OFF_THRESHOLD_NS
    );
    assert_eq!(
        m.sweep_points().count(),
        CoreConfig::design_space().len(),
        "static sweep must cover every design point"
    );
    assert_eq!(
        m.static_points.len() - m.sweep_points().count(),
        BaselineCpu::ALL.len(),
        "static sweep must cover every baseline core"
    );
    assert!(
        m.static_total_ms() <= STATIC_SWEEP_BUDGET_MS,
        "static-analysis sweep must stay interactive: {:.1} ms exceeds the {:.0} ms budget",
        m.static_total_ms(),
        STATIC_SWEEP_BUDGET_MS
    );

    let mut g = c.benchmark_group("sim_hotpaths");
    g.sample_size(10);
    let netlist = generate_standard(&CoreConfig::new(1, 8, 2));
    g.bench_function("netlist_sim_step_x50_event", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&netlist);
            sim.run(50).expect("settles");
            sim.stats().cycles
        })
    });
    g.bench_function("netlist_sim_step_x50_full_sweep", |b| {
        b.iter(|| {
            let mut sim = Simulator::with_engine(&netlist, Engine::FullSweep);
            sim.run(50).expect("settles");
            sim.stats().cycles
        })
    });
    let config = CoreConfig::new(1, 8, 2);
    let kernel = kernels::generate(Kernel::Mult, 8, 8).expect("mult8 generates");
    let workload = ProgramWorkload::from_kernel(&kernel, config).expect("mult8 encodes");
    g.bench_function("gate_level_mult8", |b| {
        b.iter(|| workload.run(Simulator::new(&netlist), 20_000).expect("kernel runs").cycles)
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
