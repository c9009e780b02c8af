#!/usr/bin/env python3
"""The repo benchmark: solve, serve and figure workloads.

    python3 perfbench/run.py --workload solve|serve|figure --seed N \
        --seconds S --trace 0|1

Run from the root of a cmetile checkout. The first run configures and
builds the library, the cmetile-serve daemon and the measuring binary
cmetile-perfbench (perfbench/src) into $CARGO_TARGET_DIR (default
.bench_build); later runs only check the build is current.

--trace 0 runs the named workload, checks every answer and prints its
end-to-end metrics. --trace 1 is the traced pass: it measures every layer,
running the named workload's phase at full size and the other two phases
at the size their per-layer percentiles need. Either way the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Everything printed before it is a human-readable table that also names
each metric the way perfbench/README.md does (solve_rps, serve_warm_p50_ms,
figure_s, ...). perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import re
import selectors
import shutil
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)

# -- Fixed parameters (README.md explains each) ------------------------------
SETUP_REPS = 1001           # set-up repetitions per process (solve, figure) ...
SETUP_PROCS = 3             # ... in this many fresh processes before the run and after it
SERVE_SETUP_REPS = 2        # daemon start + prefill sessions before the run and after it
SERVE_RATE = 200.0          # offered requests per second
SERVE_MIN_COUNT = 1200      # >= 1000 warm (p99) and >= 100 cold (p90) replies
SERVE_PREFILL = 24          # distinct fingerprints the warm repeats hit
SERVE_WORKERS = 2
WARM_LIMIT_MS = 25.0        # goodput: a warm reply later than this is not good
COLD_LIMIT_MS = 500.0       # ... nor a cold or coalesced one later than this
LAG_LIMIT_MS = WARM_LIMIT_MS  # generator lag p99 above the tightest limit invalidates a run
FIGURE_WORKERS = 2

KINDS = ("tiling", "padding", "joint")
CODEC_KEYS = ("request_encode_us", "response_decode_us", "cache_load_us", "cache_store_us")


class Failure(Exception):
    """The benchmark cannot produce a result (build, missing sources)."""


# -- Processes -----------------------------------------------------------------

def vm_hwm_kib(pid):
    """Peak resident set (VmHWM) of a live process and its descendants.
    Sampled from /proc while they live: wait4's ru_maxrss would include
    the forking Python interpreter's own, which survives exec."""
    peak = 0
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    peak = int(line.split()[1])
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                for child in f.read().split():
                    peak = max(peak, vm_hwm_kib(int(child)))
    except (OSError, ValueError):
        pass  # exited meanwhile
    return peak


class Fleet:
    """Every process a run starts, so each can be stopped and reaped, and
    the largest resident set among them (and their children) tracked by a
    sampler thread."""

    def __init__(self):
        self.live = []
        self.peak_kib = 0
        self.done = threading.Event()
        self.sampler = threading.Thread(target=self.sample, daemon=True)
        self.sampler.start()

    @property
    def peak_rss_mb(self):
        return self.peak_kib / 1024.0

    def sample(self):
        while not self.done.wait(0.1):
            for proc in list(self.live):
                if proc.measured:
                    self.peak_kib = max(self.peak_kib, vm_hwm_kib(proc.pid))

    def start(self, cmd, env=None, stdout=None, measured=True):
        """`measured`: the process is the program under test, so its
        resident set counts towards peak_rss_mb (the load generator's
        does not)."""
        full_env = dict(os.environ)
        full_env.update(env or {})
        proc = subprocess.Popen(cmd, env=full_env, stdout=stdout or subprocess.DEVNULL,
                                stdin=subprocess.DEVNULL)
        proc.measured = measured
        self.live.append(proc)
        return proc

    def reap(self, proc, timeout):
        """Wait for `proc` (killing it past `timeout`); its exit code."""
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        self.live.remove(proc)
        return code

    def run(self, cmd, timeout, env=None):
        proc = self.start(cmd, env=env)
        code = self.reap(proc, timeout)
        if code != 0:
            raise Failure(f"{os.path.basename(cmd[0])} {cmd[1]} exited with {code}")

    def stop(self, proc, timeout=10):
        if proc.poll() is None:
            proc.terminate()
        return self.reap(proc, timeout)

    def stop_all(self):
        for proc in list(self.live):
            self.stop(proc)
        self.done.set()
        self.sampler.join()


# -- Build -----------------------------------------------------------------------

def build(root, build_dir):
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            raise Failure(f"{root} is not a cmetile checkout (no {needed})")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "a") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(CORES), "--target",
                      "cmetile-perfbench", "cmetile-serve"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                raise Failure(f"build failed; see {log.name}")
    return (os.path.join(build_dir, "cmetile-perfbench"),
            os.path.join(build_dir, "cmetile", "cmetile-serve"))


# -- Results -----------------------------------------------------------------------

class Result:
    def __init__(self):
        self.metrics = {}   # contract name -> {"value", "unit"}
        self.table = []     # (name, value, unit, note) for the human table
        self.attempted = 0
        self.failed = 0

    def metric(self, name, value, unit, note=""):
        self.metrics[name] = {"value": value, "unit": unit}
        self.table.append((name, value, unit, note))

    def show(self, name, value, unit, note=""):
        self.table.append((name, value, unit, note))

    def fail(self, count, why):
        if count:
            self.failed += count
            print(f"[check] {why}", file=sys.stderr)


class Context:
    def __init__(self, root, build_dir, perfbench, serve_bin, seed, seconds):
        self.root = root
        self.perfbench = perfbench
        self.serve_bin = serve_bin
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(build_dir, "work")
        self.fleet = Fleet()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def path(self, name):
        return os.path.join(self.work, name)


def load(path):
    with open(path) as f:
        return json.load(f)


def setup_medians(ctx, workload, *flags):
    """Each one's median set-up time, of SETUP_PROCS fresh processes. The
    host's speed shifts by a half for seconds at a time, so the caller
    takes these once before the run and once after it, and reports the
    median of both."""
    out = ctx.path(f"{workload}-setup.json")
    medians = []
    for _ in range(SETUP_PROCS):
        ctx.fleet.run([ctx.perfbench, workload, "--setup-only", f"--seed={ctx.seed}",
                       f"--out={out}", f"--setup-reps={SETUP_REPS}", *flags], timeout=60)
        medians.append(stats.median(load(out)["setup_s"]))
    return medians


# -- solve -------------------------------------------------------------------------

def solve_phase(ctx, res, traced, full):
    setups = [] if traced else setup_medians(ctx, "solve")
    out = ctx.path("solve.json")
    # The traced pass needs one batch: its numbers are per layer.
    cmd = [ctx.perfbench, "solve", f"--seed={ctx.seed}", f"--out={out}",
           f"--seconds={0 if traced else ctx.seconds}", "--setup-reps=1"]
    if traced:
        cmd += ["--traced", "--replay-all"] if full else ["--traced"]
    ctx.fleet.run(cmd, timeout=170, env={"OMP_NUM_THREADS": str(CORES)})
    doc = load(out)
    requests = doc["requests"]
    latency = [ms for r in requests for ms in r["latency_ms"]]
    res.attempted += len(latency) + len(doc["single_ms"])
    res.fail(doc["failed"], f"solve: {doc['failed']} failed checks: " + "; ".join(
        f"{r['label']}: {r['error']}" for r in requests if r["error"]))
    cuts = [1.0 - r["after"] / r["before"] for r in requests if r["before"] > 0]
    if not traced:
        wall = sum(doc["pass_wall_s"])
        setups += setup_medians(ctx, "solve")
        res.metric("setup_s", stats.median(setups), "s",
                   f"request-set build, {len(setups)} processes x {SETUP_REPS}")
        res.metric("throughput_rps", len(latency) / wall, "1/s", "= solve_rps, batched")
        single = doc["single_ms"]
        res.metric("p50_ms", stats.percentile(latency, 0.5), "ms",
                   f"= solve_p50_ms, inside the batch, n={len(latency)}")
        res.show("solve_p90_ms", stats.percentile(latency, 0.9), "ms",
                 f"inside the batch, n={len(latency)}")
        res.show("solve_single_p50_ms", stats.percentile(single, 0.5), "ms",
                 f"one call at a time, n={len(single)}")
        res.metric("quality_cut", stats.mean(cuts), "ratio",
                   f"= solve_miss_cut over {len(cuts)} requests")
        res.show("batches", len(doc["pass_wall_s"]), "count",
                 f"threads={doc['threads']}, {len(single)} requests answered twice")
        return
    t = doc["traced"]
    c = t["counters"]
    n = len(requests)
    res.metric("transform.legality_us", stats.percentile(t["legality_us"], 0.5), "us",
               f"n={len(t['legality_us'])}")
    res.metric("baselines.seed_us", stats.percentile(t["seed_us"], 0.5), "us",
               f"n={len(t['seed_us'])}")
    res.metric("cme.bind_ms", stats.percentile(t["bind_ms"], 0.5), "ms", f"n={len(t['bind_ms'])}")
    res.metric("cme.eval_us", stats.percentile(t["eval_us"], 0.5), "us", f"n={len(t['eval_us'])}")
    res.metric("cme.classify_points", c["cme.classify.points"] / n, "count", "per request")
    res.metric("cme.probe_hit_ratio", stats.ratio(c["cme.probe_cache.hits"], c["cme.probes"]),
               "ratio", "base cme.probes")
    res.metric("cme.probes", c["cme.probes"], "count")
    res.metric("cme.eval_cache_hit_ratio",
               stats.ratio(c["cme.eval_cache.hits"], c["cme.eval_cache.lookups"]), "ratio",
               "base cme.eval_cache_lookups")
    res.metric("cme.eval_cache_lookups", c["cme.eval_cache.lookups"], "count")
    res.metric("cme.simd_batch_share",
               stats.ratio(c["cme.classify.simd_batches"], c["cme.classify.batches"]), "ratio",
               "base cme.classify_batches")
    res.metric("cme.classify_batches", c["cme.classify.batches"], "count")
    res.metric("ga.self_ms", stats.percentile(t["ga_self_ms"], 0.5), "ms",
               f"p50 over {len(t['ga_self_ms'])} replayed requests")
    evaluations = sum(r["evaluations"] for r in requests)
    calls = sum(r["objective_calls"] for r in requests)
    res.metric("ga.evaluations", evaluations / n, "count", "per request")
    res.metric("ga.generations", sum(r["generations"] for r in requests) / n, "count",
               "per request")
    res.metric("ga.memo_hit_ratio", stats.ratio(evaluations - calls, evaluations), "ratio",
               "base ga.evaluations_total")
    res.metric("ga.evaluations_total", evaluations, "count")
    for kind in KINDS:
        ms = [x for r in requests if r["kind"] == kind for x in r["latency_ms"]]
        res.metric(f"core.optimize_p50_ms.{kind}", stats.percentile(ms, 0.5), "ms", f"n={len(ms)}")
    res.metric("core.illegal_eval_ratio",
               stats.ratio(c["objective.illegal"], c["objective.evals"]), "ratio",
               "base core.objective_evals")
    res.metric("core.objective_evals", c["objective.evals"], "count")
    res.metric("core.counter_drift_ratio", stats.ratio(t["drifted"], t["compared"]), "ratio",
               "base core.drift_compared")
    res.metric("core.drift_compared", t["compared"], "count")
    res.metric("core.replayed", t["replayed"], "count", "requests replayed layer by layer")
    res.metric("obs.trace_overhead", t["untraced_wall_s"] / t["traced_wall_s"], "ratio",
               "untraced / traced solve wall")


# -- serve -------------------------------------------------------------------------

def wait_for_log(path, pattern, count, proc, timeout=30.0):
    deadline = time.monotonic() + timeout
    regex = re.compile(pattern)
    while time.monotonic() < deadline:
        with open(path) as f:
            found = regex.findall(f.read())
        if len(found) >= count:
            return found
        if proc.poll() is not None:
            break
        time.sleep(0.002)
    raise Failure(f"cmetile-serve never logged {pattern!r} (see {path})")


def read_ready(proc, timeout):
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + timeout
    line = b""
    while time.monotonic() < deadline and not line.endswith(b"\n"):
        if sel.select(timeout=max(0.0, deadline - time.monotonic())):
            chunk = os.read(proc.stdout.fileno(), 1)
            if not chunk:
                break
            line += chunk
    sel.close()
    if line.strip() != b"READY":
        raise Failure("load generator never finished its prefill")


def serve_session(ctx, tag, count, prefill_only, traced):
    """One daemon + workers + load generator. Returns (set-up seconds,
    loadgen document or None, trace path, metrics path)."""
    fleet = ctx.fleet
    log = ctx.path(f"serve-{tag}.log")
    trace, report = ctx.path(f"serve-{tag}.trace.json"), ctx.path(f"serve-{tag}.metrics.json")
    cmd = [ctx.serve_bin, "--listen=127.0.0.1:0", f"--cache-dir={ctx.path('serve-cache-' + tag)}",
           f"--max-requests={SERVE_PREFILL + count}"]
    if traced:
        cmd += [f"--trace={trace}", f"--metrics={report}"]
    threads = {"OMP_NUM_THREADS": str(max(1, (CORES - 1) // SERVE_WORKERS))}
    t0 = time.monotonic()
    with open(log, "w") as out:
        daemon = fleet.start(cmd, env=threads, stdout=out)
    address = wait_for_log(log, r"\[serve\] listening on (\S+)", 1, daemon)[0]
    workers = [fleet.start([ctx.serve_bin, f"--connect={address}"], env=threads)
               for _ in range(SERVE_WORKERS)]
    wait_for_log(log, r"\[serve\] worker connected", SERVE_WORKERS, daemon)
    out = ctx.path(f"loadgen-{tag}.json")
    gen_cmd = [ctx.perfbench, "loadgen", f"--daemon={address}", f"--seed={ctx.seed}",
               f"--out={out}", f"--rate={SERVE_RATE}", f"--count={count}",
               f"--prefill={SERVE_PREFILL}"]
    if prefill_only:
        gen_cmd.append("--prefill-only")
    if traced:
        gen_cmd.append(f"--codec-dir={ctx.path('codec-cache-' + tag)}")
    gen = fleet.start(gen_cmd, env={"OMP_NUM_THREADS": "1"}, stdout=subprocess.PIPE,
                      measured=False)
    read_ready(gen, timeout=120)
    setup = time.monotonic() - t0
    if prefill_only:
        fleet.reap(gen, 30)
        gen.stdout.close()
        for proc in [daemon] + workers:
            fleet.stop(proc)
        return setup, None, trace, report
    code = fleet.reap(gen, count / SERVE_RATE + 120)
    gen.stdout.close()
    # The daemon exits after its last reply; its workers then see EOF.
    for proc in [daemon] + workers:
        fleet.reap(proc, 15)
    if code != 0:
        raise Failure(f"load generator exited with {code}")
    return setup, load(out), trace, report


def serve_phase(ctx, res, traced, full):
    # A traced run of another workload sends the fewest its percentiles need.
    count = max(SERVE_MIN_COUNT, round(SERVE_RATE * ctx.seconds)) if full else SERVE_MIN_COUNT
    def prefill_setups(tag):
        return [serve_session(ctx, f"setup-{tag}{rep}", count, True, False)[0]
                for rep in range(0 if traced else SERVE_SETUP_REPS)]

    setups = prefill_setups("before")
    setup, doc, trace, report = serve_session(ctx, "run", count, False, traced)
    setups += [setup] + prefill_setups("after")

    classes, ok = doc["class"], doc["ok"]
    due, sent, replied = doc["due_s"], doc["sent_s"], doc["replied_s"]
    res.attempted += len(classes)
    missing = sum(1 for r in replied if r < 0)
    not_ok = sum(1 for r, good in zip(replied, ok) if r >= 0 and not good)
    res.fail(not_ok, f"serve: {not_ok} replies were rejects or errors")
    res.fail(doc["failed"], f"serve: {doc['failed']} failed checks "
             f"({missing} unanswered; twins and sampled answers in the loadgen log)")
    latency = {"warm": [], "cold": [], "twin": []}
    good = 0
    for cls, r, d, is_ok in zip(classes, replied, due, ok):
        if r < 0 or not is_ok:
            continue
        ms = 1e3 * (r - d)
        latency[cls].append(ms)
        good += ms <= (WARM_LIMIT_MS if cls == "warm" else COLD_LIMIT_MS)
    elapsed = max(replied)
    lags, backlog = stats.lag_stats(due, sent)
    lag_p99, kept_up = stats.generator_kept_up(lags, LAG_LIMIT_MS)
    if not kept_up:
        res.fail(1, f"serve: INVALID run, the generator fell behind "
                 f"(lag p99 {lag_p99:.2f} ms > {LAG_LIMIT_MS} ms)")
    warm, cold = latency["warm"], latency["cold"]
    if not traced:
        res.metric("setup_s", stats.median(setups), "s",
                   f"daemon + workers + prefill, median of {len(setups)}")
        res.metric("throughput_rps", good / elapsed, "1/s",
                   f"= serve_goodput_rps (limits {WARM_LIMIT_MS} / {COLD_LIMIT_MS} ms)")
        res.metric("p50_ms", stats.percentile(warm, 0.5), "ms", f"= serve_warm_p50_ms, n={len(warm)}")
        res.show("serve_warm_p99_ms", stats.percentile(warm, 0.99), "ms", f"n={len(warm)}")
        res.metric("quality_cut", stats.mean(doc["cold_cut"]), "ratio",
                   f"CME cut over {len(doc['cold_cut'])} cold replies")
        res.show("serve_cold_p50_ms", stats.percentile(cold, 0.5), "ms", f"n={len(cold)}")
        res.show("serve_cold_p90_ms", stats.percentile(cold, 0.9), "ms", f"n={len(cold)}")
        res.show("loadgen.lag_p99_ms", lag_p99, "ms", f"n={len(lags)}")
        res.show("twins", doc["twins"], "count", f"{doc['verified']} replies re-solved in-process")
        return
    res.metric("serve.cold_p50_ms", stats.percentile(cold, 0.5), "ms", f"n={len(cold)}")
    res.metric("serve.cold_p90_ms", stats.percentile(cold, 0.9), "ms", f"n={len(cold)}")
    res.metric("loadgen.lag_p99_ms", lag_p99, "ms", f"n={len(lags)}")
    res.metric("loadgen.backlog_max", backlog, "count")
    checker = [sys.executable, os.path.join(ctx.root, "tools", "check_trace.py"), "serve",
               trace, "--metrics", report, "--expect-workers", str(SERVE_WORKERS)]
    if subprocess.run(checker, stdout=subprocess.DEVNULL).returncode != 0:
        res.fail(1, "serve: tools/check_trace.py serve rejected the trace or report")
    spans = {}
    for e in load(trace)["traceEvents"]:
        if isinstance(e, dict) and e.get("ph") == "X":
            spans.setdefault(e.get("name"), []).append(e.get("dur", 0))
    enqueue = [us / 1e3 for us in spans.get("serve.enqueue", [])]
    res.metric("serve.queue_wait_p50_ms", stats.percentile(enqueue, 0.5), "ms", f"n={len(enqueue)}")
    res.metric("serve.queue_wait_p90_ms", stats.percentile(enqueue, 0.9), "ms", f"n={len(enqueue)}")
    compute = [us / 1e3 for us in spans.get("serve.schedule", [])]
    res.metric("serve.compute_p50_ms", stats.percentile(compute, 0.5), "ms", f"n={len(compute)}")
    respond = spans.get("serve.respond", [])
    res.metric("serve.respond_p50_us", stats.percentile(respond, 0.5), "us", f"n={len(respond)}")
    s = load(report)["serve"]
    requests = s["requests"]
    computed = s["computed_remote"] + s["computed_local"]
    res.metric("serve.warm_ratio", stats.ratio(s["warm"], requests), "ratio", "base serve.requests")
    res.metric("serve.coalesced_ratio", stats.ratio(s["coalesced"], requests), "ratio",
               "base serve.requests")
    res.metric("serve.reject_ratio", stats.ratio(s["rejected"], requests), "ratio",
               "base serve.requests")
    res.metric("serve.local_compute_ratio", stats.ratio(s["computed_local"], computed), "ratio",
               f"base {computed} computations")
    res.metric("serve.worker_failures", s["worker_failures"], "count")
    res.metric("serve.requests", requests, "count", "prefill included")
    codec = doc["codec"]
    for key in CODEC_KEYS:
        res.metric(f"sweep.{key}", stats.percentile(codec[key], 0.5), "us", f"n={len(codec[key])}")


# -- figure ------------------------------------------------------------------------

def figure_phase(ctx, res, traced, full):
    setup_flags = (f"--work-dir={ctx.work}",)
    setups = [] if traced else setup_medians(ctx, "figure", *setup_flags)
    out = ctx.path("figure.json")
    cmd = [ctx.perfbench, "figure", f"--seed={ctx.seed}", f"--out={out}",
           f"--work-dir={ctx.work}", f"--seconds={ctx.seconds if full else 0}",
           f"--workers={FIGURE_WORKERS}", "--setup-reps=1"]
    # The pipe workers split the cores between them.
    threads = max(1, CORES // FIGURE_WORKERS)
    ctx.fleet.run(cmd, timeout=170, env={"OMP_NUM_THREADS": str(threads)})
    doc = load(out)
    reps = len(doc["figure_s"])
    res.attempted += reps * (doc["cells"] + doc["verified_rows"])
    res.fail(doc["failed"], f"figure: {doc['failed']} failed checks")
    cells = doc["cell_ms"]
    if not traced:
        figure_s = stats.median(doc["figure_s"])
        setups += setup_medians(ctx, "figure", *setup_flags)
        res.metric("setup_s", stats.median(setups), "s",
                   f"cell expansion + nest sizing, {len(setups)} processes x {SETUP_REPS}")
        res.metric("throughput_rps", doc["cells"] / figure_s, "1/s",
                   f"figure cells per second of figure_s, {reps} reps")
        rows = doc["row_sim_ms"]
        res.metric("p50_ms", stats.percentile(cells, 0.5), "ms", f"cold figure cell, n={len(cells)}")
        res.show("figure_cell_p90_ms", stats.percentile(cells, 0.9), "ms", f"n={len(cells)}")
        res.show("figure_row_verify_p50_ms", stats.percentile(rows, 0.5), "ms", f"n={len(rows)}")
        res.metric("quality_cut", stats.mean(doc["sim_cut"]), "ratio",
                   f"= figure_sim_cut over {len(doc['sim_cut']) // reps} rows")
        res.show("figure_s", figure_s, "s", f"median of {reps} reps")
        res.show("figure_model_err_pp", stats.mean(doc["model_err_pp"]), "pp")
        res.show("figure.verified_rows", doc["verified_rows"], "count",
                 f"of {doc['cells']}, cutoff {doc['cutoff']} accesses")
        return
    cold_s = stats.median(doc["cold_s"])
    res.metric("sweep.cold_s", cold_s, "s", f"{FIGURE_WORKERS} pipe workers")
    res.metric("sweep.cells_per_s", doc["cells"] / cold_s, "1/s")
    res.metric("sweep.remote_ratio", stats.mean(doc["remote_share"]), "ratio", "base sweep.cells")
    res.metric("sweep.replay_ms", 1e3 * stats.median(doc["replay_s"]), "ms")
    res.metric("sweep.cells", doc["cells"], "count")
    res.metric("cache.sim_s", doc["sim_s"] / reps, "s", "summed over verifying threads")
    res.metric("cache.sim_accesses", doc["sim_accesses"] // reps, "count")
    res.metric("cache.sim_maccess_per_s", doc["sim_accesses"] / doc["sim_s"] / 1e6, "Maccess/s")
    res.metric("experiment.row_p50_ms", stats.percentile(cells, 0.5), "ms", f"n={len(cells)}")
    res.metric("figure.model_err_pp", stats.mean(doc["model_err_pp"]), "pp")
    res.metric("figure.verified_rows", doc["verified_rows"], "count")
    res.metric("figure.cutoff_accesses", doc["cutoff"], "count")


# -- main --------------------------------------------------------------------------

PHASES = {"solve": solve_phase, "serve": serve_phase, "figure": figure_phase}


def run_workload(ctx, workload, traced):
    res = Result()
    if not traced:
        PHASES[workload](ctx, res, False, True)
        res.metric("peak_rss_mb", ctx.fleet.peak_rss_mb, "MB", "largest process under test")
        return res
    # The traced pass: every layer, the named workload's phase at full size.
    for name, phase in PHASES.items():
        phase(ctx, res, True, name == workload)
    return res


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PHASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    ctx = None
    try:
        perfbench, serve_bin = build(root, build_dir)
        ctx = Context(root, build_dir, perfbench, serve_bin, args.seed, args.seconds)
        res = run_workload(ctx, args.workload, bool(args.trace))
    except (Failure, stats.Unreportable, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if ctx is not None:
            ctx.fleet.stop_all()

    benchmark = stats.load_benchmark(stats.benchmark_path())
    problems = stats.check_names(res.metrics, benchmark)
    problems += stats.check_complete(res.metrics, benchmark, bool(args.trace))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"== perfbench {args.workload} seed={args.seed} trace={args.trace} cores={CORES} ==")
    for name, value, unit, note in res.table:
        print(f"  {name:32s} {value:>14.6g} {unit:10s} {note}")
    print(f"  {'error_rate':32s} {res.failed / res.attempted:>14.6g} {'ratio':10s} "
          f"{res.failed} failed / {res.attempted} attempted")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
