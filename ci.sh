#!/usr/bin/env bash
# The repository's CI gate. Run before pushing.
#
#   ./ci.sh            # format check + clippy + rustdoc + full test suite
#
# Everything runs offline; the shims/ directory stands in for the few
# external crates (see Cargo.toml [workspace.dependencies]).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace"
cargo test --workspace --quiet

echo "==> fault-injection campaign smoke (deterministic across PRINTED_SIM_THREADS)"
csv_dir=$(mktemp -d)
trap 'rm -rf "$csv_dir"' EXIT
FAULT_CSV_OUT="$csv_dir/t1.csv" PRINTED_SIM_THREADS=1 \
    cargo run --release --example fault_injection >/dev/null
FAULT_CSV_OUT="$csv_dir/t2.csv" PRINTED_SIM_THREADS=2 \
    cargo run --release --example fault_injection >/dev/null
cmp "$csv_dir/t1.csv" "$csv_dir/t2.csv" \
    || { echo "campaign CSV differs between 1 and 2 worker threads"; exit 1; }

echo "==> differential lockstep gate (nonzero exit on divergence) and the scalar-vs-word campaign and golden oracles"
cargo test --release --quiet --test lockstep_props
cargo test --release --quiet -p printed-core --test campaign_props
# Release builds skip the debug-only scalar cross-check of each
# campaign's golden, so here this test is the folded golden's oracle.
cargo test --release --quiet --test golden_engines

echo "==> reproduce_all: ISS-vs-gate-level diff summary and static report validated through the in-tree JSON parser, and a clean manifest"
diff_out="$csv_dir/diff_summary.json"
reproduce_manifest="$csv_dir/reproduce_manifest.json"
PRINTED_DIFF_OUT="$diff_out" PRINTED_STATIC_OUT="$csv_dir/reproduce_static.json" \
    PRINTED_MANIFEST_OUT="$reproduce_manifest" \
    cargo run --release --example reproduce_all >/dev/null
cargo run --release --example validate_artifacts -- "$diff_out" "$csv_dir/reproduce_static.json"
python3 - "$reproduce_manifest" <<'PY'
import json, sys
manifest = json.load(open(sys.argv[1]))
status, failed = manifest.get("status"), manifest.get("failed_stages")
if status != "ok" or failed != 0:
    sys.exit(f"reproduce_all manifest is not clean: status {status!r}, failed_stages {failed!r}")
PY

echo "==> resilience: interrupt-resume + pipeline degradation tests (threads 1 and 4)"
cargo test --release --quiet --test resume_campaign --test pipeline_smoke

echo "==> resilience: manifest vs obs JSON-lines cross-check on a clean run"
manifest="$csv_dir/manifest.json"
obs_trace="$csv_dir/obs_trace.jsonl"
FAULT_MANIFEST_OUT="$manifest" PRINTED_OBS=trace \
    cargo run --release --example fault_injection >/dev/null 2>"$obs_trace"
test -s "$manifest" || { echo "fault_injection wrote no manifest"; exit 1; }
if grep -q '"status":"failed"' "$manifest"; then
    echo "clean fault_injection run reports failed stages:"; cat "$manifest"; exit 1
fi
for stage in $(grep -o '"name":"[^"]*"' "$manifest" | cut -d'"' -f4); do
    grep -q "\"$stage\"" "$obs_trace" \
        || { echo "manifest stage $stage missing from obs JSON-lines export"; exit 1; }
done

echo "==> resilience: forced stage failure still yields a complete manifest"
fail_manifest="$csv_dir/manifest_failed.json"
if FAULT_MANIFEST_OUT="$fail_manifest" FAULT_CSV_OUT="$csv_dir/degraded.csv" \
    PRINTED_FAIL_STAGE=fault.single_stuck_at \
    cargo run --release --example fault_injection >/dev/null 2>&1; then
    echo "forced-failure run must exit nonzero"; exit 1
fi
grep -q '"name":"fault.single_stuck_at","status":"failed"' "$fail_manifest" \
    || { echo "forced failure not recorded in manifest"; cat "$fail_manifest"; exit 1; }
grep -q '"name":"fault.tmr_comparison","status":"ok"' "$fail_manifest" \
    || { echo "stages after the failure must still run"; cat "$fail_manifest"; exit 1; }
test -s "$csv_dir/degraded.csv" \
    || { echo "campaign CSV artifact missing from the degraded run"; exit 1; }

echo "==> static-analysis gate (dataflow + lint + STA over every design point)"
static_out="$csv_dir/static_report.json"
PRINTED_STATIC_OUT="$static_out" \
    cargo run --release --example static_analysis >/dev/null
test -s "$static_out" || { echo "static analysis wrote no report artifact"; exit 1; }
cargo run --release --example validate_artifacts -- "$static_out"

echo "==> print-shop service drill (dedup, SIGKILL mid-campaign, checkpoint-resumed recovery, backpressure)"
cargo build --release --example print_shop >/dev/null
shop_bin=target/release/examples/print_shop
# A counting-loop program keeps each fault run at hundreds of cycles, and
# 40,000 SEUs keep one simulator thread busy for several seconds, so the
# SIGKILL lands well inside the kill server's campaign while every job
# stays under the 30 s deadline. All three servers price this one query,
# so the reference quote is what recovery must reproduce.
shop_query='{"program":"STORE [0], #0\nSTORE [1], #1\nSTORE [2], #200\nloop:\nADD [0], [1]\nCMP [0], [2]\nBRN loop, Z\nHALT\n","isa_subset":false,"seu_samples":40000,"cycle_budget":2000,"seed":7}'
shop_addr() { # $1 = server log; waits for the listening line
    for _ in $(seq 1 100); do
        addr=$(grep -o 'listening on [0-9.]*:[0-9]*' "$1" 2>/dev/null | head -1 | awk '{print $3}')
        if [ -n "$addr" ]; then echo "$addr"; return 0; fi
        sleep 0.1
    done
    echo "print-shop server never reported its address:" >&2; cat "$1" >&2; return 1
}

# Reference answer + dedup: a clean server computes the quote once,
# serves the duplicate from the content cache byte-identically, and
# prices a distinct query differently.
ref_dir="$csv_dir/shop_ref"
PRINTED_SHOP_ADDR=127.0.0.1:0 PRINTED_SHOP_DIR="$ref_dir" \
    "$shop_bin" serve >"$csv_dir/shop_ref.log" 2>&1 &
ref_pid=$!
ref_addr=$(shop_addr "$csv_dir/shop_ref.log")
PRINTED_SHOP_ADDR="$ref_addr" "$shop_bin" query "$shop_query" \
    >"$csv_dir/ref_quote.json" 2>"$csv_dir/ref_env1.txt"
PRINTED_SHOP_ADDR="$ref_addr" "$shop_bin" query "$shop_query" \
    >"$csv_dir/ref_quote2.json" 2>"$csv_dir/ref_env2.txt"
grep -q '"served":"computed"' "$csv_dir/ref_env1.txt" \
    || { echo "first quote must be computed"; cat "$csv_dir/ref_env1.txt"; exit 1; }
grep -q '"served":"cache"' "$csv_dir/ref_env2.txt" \
    || { echo "duplicate query must be served from the cache"; cat "$csv_dir/ref_env2.txt"; exit 1; }
cmp "$csv_dir/ref_quote.json" "$csv_dir/ref_quote2.json" \
    || { echo "cached quote differs from the computed quote"; exit 1; }
PRINTED_SHOP_ADDR="$ref_addr" "$shop_bin" query '{"width":6}' \
    >"$csv_dir/distinct_quote.json" 2>/dev/null
if cmp -s "$csv_dir/ref_quote.json" "$csv_dir/distinct_quote.json"; then
    echo "distinct queries must not share a quote"; exit 1
fi
PRINTED_SHOP_ADDR="$ref_addr" "$shop_bin" shutdown >/dev/null 2>&1
wait "$ref_pid"

# SIGKILL mid-campaign: a server on one simulator thread is killed after
# its first checkpointed classes land; the restarted server replays the
# journaled job, resumes the campaign from the checkpoint, and serves the
# byte-identical reference quote.
kill_dir="$csv_dir/shop_kill"
PRINTED_SHOP_ADDR=127.0.0.1:0 PRINTED_SHOP_DIR="$kill_dir" PRINTED_SIM_THREADS=1 \
    "$shop_bin" serve >"$csv_dir/shop_kill.log" 2>&1 &
kill_pid=$!
kill_addr=$(shop_addr "$csv_dir/shop_kill.log")
( PRINTED_SHOP_ADDR="$kill_addr" "$shop_bin" query "$shop_query" >/dev/null 2>&1 || true ) &
doomed_client=$!
# The checkpoint file is born with just a header; completed classes
# flush in batches of CHECKPOINT_EVERY lines, one line per class, so wait
# until at least one line is durable before killing — otherwise there is
# nothing for recovery to resume.
ckpt_seen=""
for _ in $(seq 1 200); do
    for f in "$kill_dir"/ckpt/*.ckpt.jsonl; do
        if [ -f "$f" ] && [ "$(wc -l <"$f")" -ge 2 ]; then ckpt_seen=yes; break 2; fi
    done
    sleep 0.1
done
test -n "$ckpt_seen" || { echo "no checkpointed slots appeared before the kill"; exit 1; }
kill -9 "$kill_pid"
wait "$kill_pid" 2>/dev/null || true
wait "$doomed_client" 2>/dev/null || true
PRINTED_SHOP_ADDR=127.0.0.1:0 PRINTED_SHOP_DIR="$kill_dir" \
    "$shop_bin" serve >"$csv_dir/shop_recover.log" 2>&1 &
recover_pid=$!
recover_addr=$(shop_addr "$csv_dir/shop_recover.log")
PRINTED_SHOP_ADDR="$recover_addr" "$shop_bin" query "$shop_query" \
    >"$csv_dir/recovered_quote.json" 2>/dev/null
cmp "$csv_dir/ref_quote.json" "$csv_dir/recovered_quote.json" \
    || { echo "post-SIGKILL quote differs from the reference"; exit 1; }
PRINTED_SHOP_ADDR="$recover_addr" "$shop_bin" stats 2>"$csv_dir/recover_stats.txt" >/dev/null
grep -q '"journal_recovered":1' "$csv_dir/recover_stats.txt" \
    || { echo "the killed job was not replayed from the journal"; cat "$csv_dir/recover_stats.txt"; exit 1; }
grep -qE '"resumed_slots":[1-9][0-9]*' "$csv_dir/recover_stats.txt" \
    || { echo "recovery did not resume from the checkpoint"; cat "$csv_dir/recover_stats.txt"; exit 1; }
PRINTED_SHOP_ADDR="$recover_addr" "$shop_bin" shutdown >/dev/null 2>&1
wait "$recover_pid"
# Both record files settled: the resumed campaign completed and deleted
# its checkpoint, and every journaled accept has a later done.
python3 - "$kill_dir" <<'PY'
import glob, json, os, sys
kill_dir = sys.argv[1]
left = glob.glob(os.path.join(kill_dir, "ckpt", "*.ckpt.jsonl"))
if left:
    sys.exit(f"the resumed campaign left its checkpoint behind: {left}")
with open(os.path.join(kill_dir, "journal.jsonl")) as journal:
    records = [json.loads(line) for line in journal if line.strip()]
for i, record in enumerate(records):
    later = records[i + 1:]
    if record["type"] == "accept" and not any(
        r["type"] == "done" and r["qk"] == record["qk"] for r in later
    ):
        sys.exit(f"journaled job {record['qk']} has no later done")
PY

# Backpressure: with a capacity-2 queue and one worker saturated by slow
# jobs, a 2x-capacity burst of distinct queries is refused with the
# typed queue_full error — immediately, never a hang or a panic.
burst_dir="$csv_dir/shop_burst"
PRINTED_SHOP_ADDR=127.0.0.1:0 PRINTED_SHOP_DIR="$burst_dir" \
    PRINTED_SHOP_QUEUE=2 PRINTED_SHOP_WORKERS=1 \
    "$shop_bin" serve >"$csv_dir/shop_burst.log" 2>&1 &
burst_pid=$!
burst_addr=$(shop_addr "$csv_dir/shop_burst.log")
( PRINTED_SHOP_ADDR="$burst_addr" "$shop_bin" query '{"width":20,"chaos_slow_ms":8000}' >/dev/null 2>&1 || true ) &
slow1=$!
( PRINTED_SHOP_ADDR="$burst_addr" "$shop_bin" query '{"width":24,"chaos_slow_ms":8000}' >/dev/null 2>&1 || true ) &
slow2=$!
sleep 1
for w in 30 31 32 33; do
    if PRINTED_SHOP_ADDR="$burst_addr" "$shop_bin" query "{\"width\":$w}" \
        >/dev/null 2>"$csv_dir/burst_env.txt"; then
        echo "burst query width=$w must be refused while the queue is full"; exit 1
    fi
    grep -q '"code":"queue_full"' "$csv_dir/burst_env.txt" \
        || { echo "burst rejection is not the typed queue_full error"; cat "$csv_dir/burst_env.txt"; exit 1; }
done
PRINTED_SHOP_ADDR="$burst_addr" "$shop_bin" shutdown >/dev/null 2>&1
wait "$burst_pid"
wait "$slow1" 2>/dev/null || true
wait "$slow2" 2>/dev/null || true

echo "==> benchmark self-checks: perfbench unit tests and traced reproduce and shop_campaign runs (layers tile the pass, outputs stable)"
python3 -B -m unittest discover -s perfbench -p 'test_*.py'
bench_out="$csv_dir/perfbench_reproduce.txt"
CARGO_TARGET_DIR="$PWD/target" \
    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 5 --trace 1 \
    >"$bench_out" 2>"$csv_dir/perfbench_reproduce.log" \
    || { cat "$csv_dir/perfbench_reproduce.log"; echo "perfbench reproduce run failed"; exit 1; }
tail -n 1 "$bench_out" | grep -q '"correct": true' \
    || { cat "$bench_out"; echo "traced reproduce run is not correct"; exit 1; }
bench_out="$csv_dir/perfbench_shop_campaign.txt"
CARGO_TARGET_DIR="$PWD/target" \
    python3 perfbench/run.py --workload shop_campaign --seed 1 --seconds 5 --trace 1 \
    >"$bench_out" 2>"$csv_dir/perfbench_shop_campaign.log" \
    || { cat "$csv_dir/perfbench_shop_campaign.log"; echo "perfbench shop_campaign run failed"; exit 1; }
tail -n 1 "$bench_out" | grep -q '"correct": true' \
    || { cat "$bench_out"; echo "traced shop_campaign run is not correct"; exit 1; }

echo "==> simulator hot-path bench (refreshes BENCH_sim.json + appends BENCH_history.jsonl, asserts speedups + CSV identity across the engine x threads matrix)"
cargo bench -p printed-bench --bench sim_hotpaths >/dev/null

echo "==> print-shop serve bench (refreshes BENCH_serve.json + appends BENCH_history.jsonl, asserts clean run + byte-identical warm quotes)"
cargo bench -p printed-bench --bench serve_bench >/dev/null

echo "==> perf regression gate (latest BENCH_history.jsonl record vs rolling baseline)"
regression_out="$csv_dir/regression.json"
PRINTED_REGRESSION_OUT="$regression_out" \
    cargo run --release --example perf_regression \
    || { echo "perf regression gate failed"; exit 1; }
test -s "$regression_out" || { echo "regression gate wrote no verdict artifact"; exit 1; }
grep -q '"schema": "printed-regression/v1"' "$regression_out" \
    || { echo "regression verdict has the wrong schema"; exit 1; }

echo "==> perf regression drill (impossible threshold must fail the gate)"
if PRINTED_REGRESSION_MAX_RATIO=0.0001 \
    cargo run --release --example perf_regression >/dev/null 2>&1; then
    echo "regression gate passed under an impossible threshold - the gate is dead"; exit 1
fi

echo "==> observability artifacts: quickstart trace + profile validated through the in-tree JSON parser"
trace_out="$csv_dir/trace.json"
profile_out="$csv_dir/profile.json"
PRINTED_TRACE_OUT="$trace_out" PRINTED_PROFILE_OUT="$profile_out" \
    cargo run --release --example quickstart >/dev/null
cargo run --release --example validate_artifacts -- \
    "$trace_out" "$profile_out" "$regression_out" BENCH_history.jsonl

echo "==> obs smoke (PRINTED_OBS=summary campaign + JSON-lines export)"
obs_out=$(PRINTED_OBS=summary cargo run --release --example fault_injection 2>&1 >/dev/null)
grep -q "printed-obs summary" <<<"$obs_out" \
    || { echo "obs summary missing from fault_injection output"; exit 1; }
# The three single-fault classifications share one scalar golden run.
grep -qE '^ *netlist\.fault\.golden_scalar: 1$' <<<"$obs_out" \
    || { echo "fault_injection must take exactly one scalar golden run"; exit 1; }
cargo test --release --quiet --test obs_smoke

echo "CI green."
