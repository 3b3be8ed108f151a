"""Pure helpers of the benchmark: request streams and statistics.

Everything here is a function of its arguments, so `test_metrics.py`
can check it without building or running anything.
"""

import json
import random
import statistics

# The Figure 7 design points: pipeline depth x datawidth x BAR count.
FIGURE7_POINTS = [(p, w, b) for p in (1, 2, 3) for w in (4, 8, 16, 32) for b in (2, 4)]

# Fault-campaign size of every shop_campaign request: large enough that
# the campaign is most of the request.
CAMPAIGN_STUCK_AT = 1024
CAMPAIGN_SEU = 2048
CAMPAIGN_WIDTHS = (4, 8)

# Warm-up campaign seeds are 1..=CAMPAIGN_WARMUP; timed seeds are drawn
# above them, so the two never overlap and set-up is the same work on
# every run.
CAMPAIGN_WARMUP = 8
SEED_SPACE = 2**31

# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


def quote_line(**query):
    """One `quote` request line, with keys in a fixed order."""
    return json.dumps({"op": "quote", "query": query}, sort_keys=True, separators=(",", ":"))


def figure7_line(point):
    pipeline, width, bars = point
    return quote_line(pipeline=pipeline, width=width, bars=bars, isa_subset=False)


def campaign_line(seed, index):
    return quote_line(
        width=CAMPAIGN_WIDTHS[index % len(CAMPAIGN_WIDTHS)],
        stuck_at=CAMPAIGN_STUCK_AT,
        seu_samples=CAMPAIGN_SEU,
        seed=seed,
    )


def hot_stream(seed, rounds):
    """shop_hot: warm-up prices the 24 Figure 7 points in a fixed order;
    the timed stream visits all 24 once per round, each round in its own
    seeded order."""
    warmup = [figure7_line(p) for p in FIGURE7_POINTS]
    rng = random.Random(seed)
    timed = []
    for _ in range(rounds):
        order = list(range(len(FIGURE7_POINTS)))
        rng.shuffle(order)
        timed.extend(warmup[i] for i in order)
    return warmup, timed


def campaign_stream(seed, count):
    """shop_campaign: every timed request is a campaign with a distinct
    seed; widths alternate 4/8 by position."""
    warmup = [figure7_line(p) for p in FIGURE7_POINTS]
    warmup += [campaign_line(s, s - 1) for s in range(1, CAMPAIGN_WARMUP + 1)]
    seeds = random.Random(seed).sample(range(CAMPAIGN_WARMUP + 1, SEED_SPACE), count)
    return warmup, [campaign_line(s, i) for i, s in enumerate(seeds)]


def campaign_seeds(lines):
    """The campaign seeds of request lines (tests and checks)."""
    return [json.loads(l)["query"]["seed"] for l in lines if "seed" in json.loads(l)["query"]]


def tail(samples):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, which is percentile 100 * (n - 10) / n.
    Returns (percentile, value); with ten samples or fewer nothing lies
    beyond enough, and the maximum is returned as p100."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100 * (n - TAIL_BEYOND) / n, xs[n - 1 - TAIL_BEYOND]


def spread(values):
    """Quartile spread over median: (Q3 - Q1) / median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tiling(whole_ms, layers_ms, measured_ms, tolerance):
    """Checks that layers tile the whole.

    `layers_ms` are the per-operation layer times of the in-process
    replay and `measured_ms` that replay's own per-operation total; the
    layers must add up to it within `tolerance`. The residual is the
    end-to-end mean `whole_ms` minus the layers, the named part the
    replay does not see; it may not be negative by more than `tolerance`
    of the whole. Returns (residual_ms, list of problems)."""
    parts = sum(layers_ms.values())
    residual = whole_ms - parts
    problems = []
    if abs(parts - measured_ms) > tolerance * measured_ms:
        problems.append(f"layers sum to {parts:.4f} ms but the replay measured {measured_ms:.4f} ms")
    if residual < -tolerance * whole_ms:
        problems.append(f"layers ({parts:.4f} ms) exceed the end-to-end mean ({whole_ms:.4f} ms)")
    return residual, problems
