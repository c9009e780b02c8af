#!/usr/bin/env python3
"""Self-tests of the repo benchmark; no build needed.

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark():
    return stats.load_benchmark(stats.benchmark_path())


def printed_names():
    """Every metric name run.py can print, read from its source: the
    literal first argument of each res.metric(...) call, with the two
    loop variables expanded."""
    with open(os.path.join(HERE, "run.py")) as f:
        source = f.read()
    names = set()
    for name in re.findall(r'res\.metric\(\s*f?"([^"]+)"', source):
        if "{kind}" in name:
            names.update(name.replace("{kind}", k) for k in run.KINDS)
        elif "{key}" in name:
            names.update(name.replace("{key}", k) for k in run.CODEC_KEYS)
        else:
            names.add(name)
    return names


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        for p, needed in ((0.5, 20), (0.9, 100), (0.99, 1000)):
            stats.percentile(list(range(needed)), p)
            with self.assertRaises(stats.Unreportable):
                stats.percentile(list(range(needed - 1)), p)

    def test_interpolates_order_statistics(self):
        samples = list(range(101))  # 0..100, shuffled order must not matter
        samples.reverse()
        self.assertAlmostEqual(stats.percentile(samples, 0.9), 90.0)
        self.assertAlmostEqual(stats.percentile(list(range(20)), 0.5), 9.5)


class DueTimeAccounting(unittest.TestCase):
    """A synthetic 200 ms generator stall: requests due during it go out
    late, the lag shows it, and latency counted from the due time keeps it
    (no coordinated omission)."""

    def setUp(self):
        gap, n = 0.005, 1000
        self.due = [i * gap for i in range(n)]
        stall_from, stall_to = 2.0, 2.2
        self.sent = [stall_to if stall_from <= d < stall_to else d for d in self.due]
        self.replied = [s + 0.0003 for s in self.sent]
        self.stalled = sum(1 for d in self.due if stall_from <= d < stall_to)

    def test_lag_and_backlog(self):
        lags, backlog = stats.lag_stats(self.due, self.sent)
        self.assertEqual(sum(1 for lag in lags if lag > 1.0), self.stalled)
        self.assertAlmostEqual(max(lags), 200.0, places=6)
        # At the end of the stall, every request due during it (and the one
        # due exactly at its end) is waiting at once.
        self.assertEqual(backlog, self.stalled)
        p99, kept_up = stats.generator_kept_up(lags, run.LAG_LIMIT_MS)
        self.assertGreater(p99, run.LAG_LIMIT_MS)
        self.assertFalse(kept_up)

    def test_on_time_generator_is_valid(self):
        lags, backlog = stats.lag_stats(self.due, self.due)
        self.assertEqual(backlog, 0)
        self.assertTrue(stats.generator_kept_up(lags, run.LAG_LIMIT_MS)[1])

    def test_latency_counts_from_due_time(self):
        latency = [1e3 * (r - d) for r, d in zip(self.replied, self.due)]
        self.assertAlmostEqual(max(latency), 200.3, places=6)
        self.assertGreaterEqual(stats.percentile(latency, 0.99), 100.0)


class MetricNames(unittest.TestCase):
    def test_regex(self):
        for good in ("p50_ms", "core.optimize_p50_ms.tiling", "a-b.c_9"):
            self.assertTrue(stats.NAME_RE.fullmatch(good))
        for bad in ("p50 ms", "cme/eval", "", "ratio%"):
            self.assertFalse(stats.NAME_RE.fullmatch(bad))

    def test_declared_names_are_well_formed(self):
        doc = benchmark()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertTrue(stats.NAME_RE.fullmatch(m["name"]) and len(m["name"]) <= 64, m)
            self.assertTrue(UNIT_RE.fullmatch(m["unit"]), m)
            self.assertIn(m["better"], ("higher", "lower"), m)
        for m in doc["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m)
        self.assertIn("setup_s", [m["name"] for m in doc["end_to_end"]])

    def test_every_printed_name_is_declared(self):
        declared = stats.declared_metrics(benchmark())
        printed = printed_names()
        self.assertEqual(printed - set(declared), set())
        self.assertEqual(set(declared) - printed, set())

    def test_check_names_flags_undeclared_and_unit_mismatch(self):
        doc = benchmark()
        ok = {"p50_ms": {"value": 1.0, "unit": "ms"}}
        self.assertEqual(stats.check_names(ok, doc), [])
        self.assertTrue(stats.check_names({"nope": {"value": 1, "unit": "ms"}}, doc))
        self.assertTrue(stats.check_names({"p50_ms": {"value": 1, "unit": "s"}}, doc))
        self.assertTrue(stats.check_names({"bad name": {"value": 1, "unit": "s"}}, doc))

    def test_check_complete(self):
        doc = benchmark()
        e2e = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in doc["end_to_end"]}
        self.assertEqual(stats.check_complete(e2e, doc, traced=False), [])
        self.assertTrue(stats.check_complete(e2e, doc, traced=True))
        del e2e["setup_s"]
        self.assertTrue(stats.check_complete(e2e, doc, traced=False))


if __name__ == "__main__":
    unittest.main()
