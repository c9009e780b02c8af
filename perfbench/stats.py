"""Sample reduction and naming rules of the repo benchmark.

Kept apart from run.py so the self-tests (test_perfbench.py) can pin them
without building anything.
"""

import bisect
import json
import math
import os
import re

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# The fewest samples that must lie beyond a percentile for it to be
# reported at all.
MIN_BEYOND = 10


class Unreportable(ValueError):
    """A percentile asked of too few samples."""


def percentile(samples, p):
    """The p-th percentile (0 < p < 1) by linear interpolation between
    order statistics, reported only when at least MIN_BEYOND samples lie
    beyond it: p50 needs 20 samples, p90 100, p99 1000."""
    n = len(samples)
    if n * (1.0 - p) < MIN_BEYOND - 1e-9:
        raise Unreportable(f"p{round(p * 100)} of {n} samples: fewer than "
                           f"{MIN_BEYOND} lie beyond it")
    ordered = sorted(samples)
    rank = p * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples):
    """Plain median for repetition counts (set-up reps, figure reps),
    which are not latency distributions and carry no percentile rule."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def mean(samples):
    if not samples:
        raise ValueError("mean of no samples")
    return sum(samples) / len(samples)


def ratio(part, base):
    return part / base if base else 0.0


def lag_stats(due, sent):
    """Generator lag (ms) per request, and the largest backlog: how many
    other requests were already due, still unsent, at any send instant.
    `due` (ascending) and `sent` are seconds on one clock, in send order."""
    lags = [1e3 * (s - d) for d, s in zip(due, sent)]
    backlog = 0
    for i, s in enumerate(sent):
        backlog = max(backlog, bisect.bisect_right(due, s) - i - 1)
    return lags, backlog


def generator_kept_up(lags, limit_ms):
    """(lag p99, whether it is within `limit_ms`). A run whose generator
    fell behind measured the generator, not the daemon: it is invalid,
    not slow."""
    p99 = percentile(lags, 0.99)
    return p99, p99 <= limit_ms


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def declared_metrics(benchmark):
    """name -> (unit, better) over both metric lists of BENCHMARK.json."""
    out = {}
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        out[entry["name"]] = (entry["unit"], entry["better"])
    return out


def check_names(metrics, benchmark):
    """Every printed metric name is well formed and declared in
    BENCHMARK.json with the same unit. Returns the list of problems."""
    declared = declared_metrics(benchmark)
    problems = []
    for name, value in metrics.items():
        if not NAME_RE.fullmatch(name) or len(name) > 64:
            problems.append(f"{name}: not a valid metric name")
        elif name not in declared:
            problems.append(f"{name}: not declared in BENCHMARK.json")
        elif declared[name][0] != value["unit"]:
            problems.append(f"{name}: unit {value['unit']} but BENCHMARK.json "
                            f"says {declared[name][0]}")
        elif declared[name][1] not in ("higher", "lower"):
            problems.append(f"{name}: no direction")
    return problems


def check_complete(metrics, benchmark, traced):
    """The metrics of a run are exactly one list of BENCHMARK.json:
    end_to_end untraced, per_layer traced."""
    wanted = {m["name"] for m in benchmark["per_layer" if traced else "end_to_end"]}
    missing = sorted(wanted - set(metrics))
    extra = sorted(set(metrics) - wanted)
    return [f"{name}: declared but not measured" for name in missing] + \
           [f"{name}: measured but in the other metric list" for name in extra]


def benchmark_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "BENCHMARK.json")
