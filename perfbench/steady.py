#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median, quartiles and run-to-run spread against its bound.

    python3 perfbench/steady.py --workload shop_hot --runs 10 [--first-seed 1]

Run from the repository root. Run length and bounds come from
BENCHMARK.json. The spread is (Q3 - Q1) / median over the runs, with
quartiles as `statistics.quantiles(values, n=4)` gives them; a metric is
steady when its spread is below a third of its bound. Exits non-zero
when any metric is not. Each run's output digest is printed beside its
metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    series = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [
            *bench["command"],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", "0",
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        digest = next((l.split()[-1] for l in lines if l.startswith("# output digest")), "?")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} digest={digest} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        for name in series:
            series[name].append(values[name])

    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  steady")
    steady = True
    for m in bench["end_to_end"]:
        values = series[m["name"]]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = metrics.spread(values)
        ok = spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<14} {statistics.median(values):>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.2%} {m['bound']:>6.2f}  {'yes' if ok else 'NO'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
