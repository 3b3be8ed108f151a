#!/usr/bin/env python3
"""Benchmark for `reproduce_all` and the print shop.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 15 --trace 0

Run from the repository root. It builds the release `reproduce_all`
example and the `perfbench` harness into $CARGO_TARGET_DIR (default
`.bench_build`), runs one workload, checks its outputs, and prints each
metric with its unit. The last line of standard output is one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Scratch files go to `.bench_run/`. `steady.py` runs
the benchmark over several seeds and prints each metric's run-to-run
spread. BENCHMARK.json lists the workloads and metrics; PER_LAYER below
says which end-to-end metric each layer should move.

Times are host-speed normalised. A shared host runs the same code up to
half as fast for seconds at a time, each core on its own, which moves
wall-clock medians of identical runs by a quarter. So every timed unit
(a `reproduce_all` pass, pinned to the next core in turn; a one-second
slice of a shop closed loop; each set-up) runs between two runs of a
fixed calibration kernel in the harness, and its time is divided by the
kernel's slowness around it: kernel time over kernel time on an
uncontended core. The kernel is benchmark code, so no change to the
repository moves it. Each metric is printed normalised and as wall
clock; the JSON line carries the normalised value. `ops_per_s` counts
the timed units' own time, not the calibrations between them. The
traced run is not normalised: its parts and whole are measured
interleaved, so they see the same host speed.
"""

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402  (after the bytecode switch, so no __pycache__ is written)

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("reproduce", "shop_hot", "shop_campaign")

# Warm-up passes per reproduce run; set-up time is their median. The shop
# harness sets its own count.
REPRODUCE_SETUPS = 5
# Share by which the layers may miss their own measured total, and by
# which they may exceed the end-to-end mean.
TILING_TOLERANCE = 0.10
# Timed-stream capacity of shop_campaign, in requests per second of the
# run; a faster host would wrap into already-cached seeds and fail checks.
CAMPAIGN_STREAM_PER_S = 1000
HOT_STREAM_ROUNDS = 100

# The end-to-end metrics BENCHMARK.json gates, and the two more each
# run prints: tail_ms, whose ten samples beyond it are the run's rarest
# stalls (fsync, the host) and spread over a quarter between identical
# runs, and error_rate, which is 0 when the run is correct.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PRINTED = {**END_TO_END, "tail_ms": "ms", "error_rate": "ratio"}

EVAL_STAGES = (
    "static_analysis", "lint", "robustness", "diff", "figure8", "figure7", "manufacturing", "other",
)

# Per-layer metric -> (unit, the end-to-end metrics it should move).
PER_LAYER = {
    **{f"eval.{s}.ms": ("ms", "reproduce/p50_ms") for s in EVAL_STAGES},
    "netlist.dataflow.calls": ("count", "reproduce/p50_ms shop_hot/p50_ms"),
    "netlist.dataflow.ms": ("ms", "reproduce/p50_ms shop_hot/p50_ms"),
    "netlist.dataflow.max_ms": ("ms", "reproduce/p50_ms shop_hot/p50_ms"),
    "netlist.campaign.calls": ("count", "reproduce/p50_ms (a little) shop_campaign/p50_ms"),
    "netlist.campaign.ms": ("ms", "reproduce/p50_ms (a little) shop_campaign/p50_ms"),
    "reproduce.residual.ms": ("ms", "reproduce/p50_ms"),
    "shop.parse.ms": ("ms", "shop_hot/p50_ms"),
    "shop.queue.ms": ("ms", "shop_hot/p50_ms"),
    "shop.journal.ms": ("ms", "shop_hot/p50_ms"),
    "shop.cache_read.ms": ("ms", "shop_hot/p50_ms"),
    "shop.cache_hit_ratio": ("ratio", "shop_hot/p50_ms"),
    "shop.build.ms": ("ms", "shop_hot/p50_ms shop_hot/ops_per_s"),
    "core.asm.ms": ("ms", "shop_hot/p50_ms"),
    "core.spec.ms": ("ms", "shop_hot/p50_ms"),
    "core.generate_checked.ms": ("ms", "shop_hot/p50_ms"),
    "netlist.opt.ms": ("ms", "shop_hot/p50_ms"),
    "shop.content_key.ms": ("ms", "shop_campaign/p50_ms"),
    "shop.price.ms": ("ms", "shop_campaign/p50_ms shop_campaign/ops_per_s"),
    "netlist.characterize.ms": ("ms", "shop_campaign/p50_ms"),
    "netlist.campaign.runs": ("count", "shop_campaign/p50_ms"),
    "netlist.campaign.runs_per_s": ("1/s", "shop_campaign/p50_ms shop_campaign/ops_per_s"),
    "shop.cache_write.ms": ("ms", "shop_campaign/p50_ms"),
    "shop.transport.ms": ("ms", "shop_hot/p50_ms shop_campaign/p50_ms"),
    "shop.accepted": ("count", "shop_hot/ops_per_s shop_campaign/ops_per_s"),
    "shop.coalesced": ("count", "shop_hot/ops_per_s"),
    "shop.rejected": ("count", "shop_hot/ops_per_s shop_campaign/ops_per_s"),
    "shop.cache_hits": ("count", "shop_hot/ops_per_s"),
    "shop.computed": ("count", "shop_campaign/ops_per_s"),
    "shop.retries": ("count", "shop_hot/p50_ms shop_campaign/p50_ms"),
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, flush=True)


def clean_env(**extra):
    """The caller's environment without PRINTED_* settings, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRINTED_")}
    env.update(extra)
    return env


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--example", "reproduce_all"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return target / "release" / "examples" / "reproduce_all", target / "release" / "perfbench"


def filesystem(path):
    """The filesystem type holding `path`, from /proc/mounts."""
    path, best, fstype = os.path.realpath(path), "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def mean(values):
    return statistics.fmean(values) if values else 0.0


# ---------------------------------------------------------------- reproduce


def pinned(cpu):
    """A `preexec_fn` that pins the child to `cpu`, or leaves it free."""
    return None if cpu is None else lambda: os.sched_setaffinity(0, {cpu})


def slowness(harness, cpu):
    """The host's slowness on `cpu` right now, from the harness's fixed
    calibration kernel: its time over its nominal time."""
    done = subprocess.run([harness, "calibrate"], preexec_fn=pinned(cpu), capture_output=True, text=True, check=True)
    return float(done.stdout)


def reproduce_pass(binary, run_dir, obs, cpu=None):
    """One fresh `reproduce_all` process in `run_dir`, pinned to `cpu` if
    given. Its artifacts go to their default names in `run_dir`, so its
    stdout, which names them, is the same from run to run. Returns
    (seconds, peak RSS kB, problem or None, output bytes)."""
    manifest = run_dir / "manifest.json"
    manifest.unlink(missing_ok=True)
    stdout_path = run_dir / "stdout.txt"
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [binary], cwd=run_dir, env=clean_env(PRINTED_OBS=obs), stdout=out, stderr=subprocess.DEVNULL,
            preexec_fn=pinned(cpu),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    problem = None
    if proc.returncode != 0:
        problem = f"exit code {proc.returncode}"
    else:
        try:
            if json.loads(manifest.read_text())["status"] != "ok":
                problem = "manifest status is not ok"
        except (OSError, ValueError, KeyError) as e:
            problem = f"manifest unreadable: {e}"
    outputs = [stdout_path.read_bytes()]
    outputs += [(run_dir / n).read_bytes() for n in ("static_report.json", "diff_summary.json")]
    return seconds, usage.ru_maxrss, problem, outputs


def run_reproduce(args, binaries, run_dir):
    reproduce_all, harness = binaries
    res = {"failed": 0, "attempted": 0}
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.count()

    def calibrated_pass(obs):
        """A pass pinned to the next core in turn, between two
        calibrations on that core. Returns the pass's results and the
        core's mean slowness around it."""
        cpu = cpus[next(turn) % len(cpus)]
        before = slowness(harness, cpu)
        out = reproduce_pass(reproduce_all, run_dir, obs, cpu)
        return out, (before + slowness(harness, cpu)) / 2

    setup, raw_setup, reference = [], [], None
    for _ in range(REPRODUCE_SETUPS):
        (seconds, _, problem, outputs), slow = calibrated_pass("off")
        if problem is None and reference not in (None, outputs):
            problem = "output differs between warm-up passes"
        if problem:
            raise BenchError(f"warm-up pass failed: {problem}")
        reference = outputs
        setup.append(seconds / slow)
        raw_setup.append(seconds)
    res["setup"], res["raw_setup"] = setup, raw_setup
    res["digest"] = digest(reference)

    def check(problem, outputs, obs):
        res["attempted"] += 1
        if problem is None and obs == "off" and outputs != reference:
            problem = "output differs from the warm-up pass"
        if problem:
            res["failed"] += 1
            log(f"# failed pass: {problem}")

    if not args.trace:
        latencies, raw, rss = [], [], []
        started = time.perf_counter()
        while time.perf_counter() < started + args.seconds:
            (seconds, kb, problem, outputs), slow = calibrated_pass("off")
            check(problem, outputs, "off")
            latencies.append(seconds * 1e3 / slow)
            raw.append(seconds * 1e3)
            rss.append(kb)
        # The timed phase is the passes themselves, without the
        # calibrations between them.
        res["latencies_ms"], res["raw_latencies_ms"] = latencies, raw
        res["elapsed_s"], res["raw_elapsed_s"] = sum(latencies) / 1e3, sum(raw) / 1e3
        res["peak_rss_mb"] = max(rss) / 1024
        return res

    def checked_pass(obs):
        seconds, _, problem, outputs = reproduce_pass(reproduce_all, run_dir, obs)
        check(problem, outputs, obs)
        return seconds * 1e3

    # Traced: rounds of an untraced pass, a traced pass (the program's own
    # spans on) and an in-process pass of the harness, so that all three
    # see the same host speed.
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or not passes:
        untraced.append(checked_pass("off"))
        traced.append(checked_pass("summary"))
        out = run_dir / "pass.json"
        subprocess.run([harness, "reproduce-pass", "--out", out], cwd=run_dir, env=clean_env(), check=True)
        passes.append(json.loads(out.read_text()))

    stages = {f"eval.{s}.ms": mean([p["stages_ms"].get(s, 0.0) for p in passes]) for s in EVAL_STAGES}
    whole = mean(traced)
    residual, problems = metrics.tiling(whole, stages, mean([p["pass_ms"] for p in passes]), TILING_TOLERANCE)
    layers = dict(stages)
    layers["reproduce.residual.ms"] = residual
    layers["netlist.dataflow.calls"] = mean([p["dataflow"]["calls"] for p in passes])
    layers["netlist.dataflow.ms"] = mean([p["dataflow"]["ms"] for p in passes])
    layers["netlist.dataflow.max_ms"] = mean([p["dataflow"]["max_ms"] for p in passes])
    layers["netlist.campaign.calls"] = mean([p["campaign"]["calls"] for p in passes])
    layers["netlist.campaign.ms"] = mean([p["campaign"]["ms"] for p in passes])
    res.update(
        layers=layers,
        tiled=list(stages),
        residual_name="reproduce.residual.ms",
        whole_ms=whole,
        untraced_mean_ms=mean(untraced),
        problems=problems,
    )
    return res


# ---------------------------------------------------------------- shop


def read_samples(path):
    """The shop harness's latencies in ms by phase, `u` (untraced) and `t`
    (traced): as wall clock, and divided by the host's slowness."""
    raw, norm = {"u": [], "t": []}, {"u": [], "t": []}
    with open(path) as f:
        for line in f:
            tag, ns, norm_ns = line.split()
            raw[tag].append(int(ns) / 1e6)
            norm[tag].append(float(norm_ns) / 1e6)
    return raw, norm


def run_shop(args, binaries, run_dir, hot):
    _, harness = binaries
    if hot:
        warmup, timed = metrics.hot_stream(args.seed, HOT_STREAM_ROUNDS)
    else:
        warmup, timed = metrics.campaign_stream(args.seed, int(args.seconds * CAMPAIGN_STREAM_PER_S) + 64)
    (run_dir / "warmup.jsonl").write_text("\n".join(warmup) + "\n")
    (run_dir / "timed.jsonl").write_text("\n".join(timed) + "\n")
    cmd = [
        harness, "shop",
        "--warmup", run_dir / "warmup.jsonl",
        "--timed", run_dir / "timed.jsonl",
        "--dir", run_dir / "data",
        "--out", run_dir / "shop.json",
        "--samples", run_dir / "samples.txt",
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=clean_env()).returncode != 0:
        raise BenchError("the shop harness failed")
    out = json.loads((run_dir / "shop.json").read_text())
    raw, norm = read_samples(run_dir / "samples.txt")
    res = {
        "setup": out["norm_setup_s"],
        "raw_setup": out["setup_s"],
        "latencies_ms": norm["u"],
        "raw_latencies_ms": raw["u"],
        "elapsed_s": out["norm_elapsed_s"],
        "raw_elapsed_s": out["elapsed_s"],
        "peak_rss_mb": out["peak_rss_kb"] / 1024,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "digest": digest(out["outputs"]),
    }
    if not args.trace:
        return res

    replay = out["replay"]
    n = max(replay["requests"], 1)
    whole = mean(raw["t"])
    residual, problems = metrics.tiling(whole, replay["layers_ms"], replay["total_ms"], TILING_TOLERANCE)
    campaign_s = replay["campaign"]["ms"] / 1e3
    layers = dict(replay["layers_ms"])
    layers.update(replay["parts_ms"])
    layers.update(
        {
            "shop.transport.ms": residual,
            "shop.cache_hit_ratio": replay["cache_hits"] / n,
            "netlist.dataflow.calls": replay["dataflow"]["calls"] / n,
            "netlist.dataflow.ms": replay["dataflow"]["ms"] / n,
            "netlist.dataflow.max_ms": replay["dataflow"]["max_ms"],
            "netlist.campaign.calls": replay["campaign"]["calls"] / n,
            "netlist.campaign.ms": replay["campaign"]["ms"] / n,
            "netlist.campaign.runs": replay["campaign_runs"] / n,
            "netlist.campaign.runs_per_s": replay["campaign_runs"] / campaign_s if campaign_s else 0.0,
        }
    )
    layers.update({f"shop.{k}": v for k, v in out["stats"].items()})
    build_parts = sum(replay["parts_ms"][k] for k in ("core.asm.ms", "core.spec.ms", "core.generate_checked.ms", "netlist.opt.ms"))
    log(f"# replayed {replay['requests']} requests; build parts sum {build_parts:.4f} ms "
        f"against shop.build.ms {replay['layers_ms']['shop.build.ms']:.4f} ms")
    res.update(
        layers=layers,
        tiled=list(replay["layers_ms"]),
        residual_name="shop.transport.ms",
        whole_ms=whole,
        untraced_mean_ms=mean(raw["u"]),
        problems=problems,
    )
    return res


# ---------------------------------------------------------------- reporting


def nproc():
    return len(os.sched_getaffinity(0))


def timings(setup, latencies, elapsed_s):
    percentile, tail = metrics.tail(latencies)
    return percentile, {
        "setup_s": statistics.median(setup),
        "p50_ms": statistics.median(latencies),
        "tail_ms": tail,
        "ops_per_s": len(latencies) / elapsed_s,
    }


def end_to_end(res):
    """The end-to-end metrics, host-speed normalised, printed beside the
    raw wall-clock values they come from."""
    percentile, values = timings(res["setup"], res["latencies_ms"], res["elapsed_s"])
    _, raw = timings(res["raw_setup"], res["raw_latencies_ms"], res["raw_elapsed_s"])
    for both in (values, raw):
        both["peak_rss_mb"] = res["peak_rss_mb"]
        both["error_rate"] = res["failed"] / max(res["attempted"], 1)
    log(f"{'metric':<12} {'normalised':>14} {'wall clock':>14} unit")
    for name, unit in PRINTED.items():
        log(f"{name:<12} {values[name]:>14.6f} {raw[name]:>14.6f} {unit}")
    lat = res["latencies_ms"]
    beyond = sum(1 for x in lat if x > values["tail_ms"])
    log(f"# tail_ms is p{percentile:.3f} of {len(lat)} samples ({beyond} beyond it); "
        f"set-up is the median of {len(res['setup'])}; {res['failed']} of {res['attempted']} operations failed")
    return values


def per_layer(res):
    layers = {name: float(res["layers"].get(name, 0.0)) for name in PER_LAYER}
    log(f"{'layer':<28} {'value':>12} {'unit':<6} {'share':>7}  should move")
    whole = res["whole_ms"]
    for name, (unit, moves) in PER_LAYER.items():
        share = f"{layers[name] / whole:7.1%}" if name in res["tiled"] or name == res["residual_name"] else ""
        log(f"{name:<28} {layers[name]:>12.4f} {unit:<6} {share:>7}  {moves}")
    tiled = sum(layers[n] for n in res["tiled"])
    log(f"# layers {tiled:.4f} ms + {res['residual_name']} {layers[res['residual_name']]:.4f} ms "
        f"= end-to-end traced mean {whole:.4f} ms (tolerance {TILING_TOLERANCE:.0%})")
    overhead = whole / res["untraced_mean_ms"] - 1 if res["untraced_mean_ms"] else 0.0
    log(f"# tracing overhead: traced mean {whole:.4f} ms against untraced {res['untraced_mean_ms']:.4f} ms ({overhead:+.1%})")
    for problem in res["problems"]:
        log(f"# TILING FAILED: {problem}")
    return layers


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("Cargo.toml", "crates", "examples/reproduce_all.rs") if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a repository checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        binaries = build()
        RUN_DIR.mkdir(exist_ok=True)
        run_dir = RUN_DIR / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        load = os.getloadavg()
        log(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
            f"nproc={nproc()} loadavg={load[0]:.2f},{load[1]:.2f},{load[2]:.2f} data_fs={filesystem(run_dir)}")
        try:
            if args.workload == "reproduce":
                res = run_reproduce(args, binaries, run_dir)
            else:
                res = run_shop(args, binaries, run_dir, hot=args.workload == "shop_hot")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    log(f"# output digest {res['digest']}")
    if args.trace:
        log(f"# error_rate {res['failed'] / max(res['attempted'], 1):.6f} ({res['failed']} of {res['attempted']} operations failed)")
        values = per_layer(res)
        reported = {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}
        correct = res["failed"] == 0 and not res["problems"]
    else:
        values = end_to_end(res)
        reported = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        correct = res["failed"] == 0
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
