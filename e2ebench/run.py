#!/usr/bin/env python3
"""End-to-end benchmark of the TCIM reproduction.

Times whole offline pipeline runs and whole serving requests from
outside the library, checks every answer against an oracle, and prints
the metrics by name with their units. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 e2ebench/run.py --workload road-ca --seed 7 --seconds 10 --trace 0
  python3 e2ebench/run.py                 # all three workloads, untraced
  python3 e2ebench/run.py --trace 1       # all three, per-layer metrics
  python3 e2ebench/run.py --smoke         # all three on tiny inputs
  python3 e2ebench/run.py --self-test     # statistics and spec checks
  python3 e2ebench/run.py --write-spec    # regenerate BENCHMARK.json

It builds e2ebench/ (the tcim library plus the tcim_e2e runner) into
.bench_build/ and writes each run's inputs under .bench_work/, both in
the directory above this file. See e2ebench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = ROOT / ".bench_work"
RUNNER = BUILD_DIR / "tcim_e2e"

# A percentile is reported only when at least this many samples lie
# beyond it.
TAIL_SAMPLES = 10
# The pipeline.* stage spans must cover this share of every traced run.
MIN_SPAN_COVERAGE = 0.95
STAGES = ("load", "relabel_choose", "relabel_apply", "slice_build",
          "host_count", "simulate", "slice_stats", "perf_model", "verify")


@dataclass(frozen=True)
class Workload:
    kind: str            # "offline" or "serve"
    dataset: str         # paper dataset stand-in (graph/datasets.h)
    scale: float
    smoke_scale: float
    why: str


WORKLOADS = {
    "social-youtube": Workload(
        "offline", "com-youtube", 0.1, 0.01,
        "com-youtube stand-in through the whole offline pipeline: the "
        "simulator and slice stats dominate, with high cache reuse"),
    "road-ca": Workload(
        "offline", "roadNet-CA", 0.25, 0.02,
        "roadNet-CA stand-in through the whole offline pipeline: parsing "
        "and the relabel chooser dominate, with low cache reuse"),
    "stream-serve": Workload(
        "serve", "com-dblp", 0.25, 0.05,
        "com-dblp stand-in behind the scheduler, two closed-loop query "
        "clients beside a closed-loop writer: the read and write paths "
        "under concurrency"),
}

# Queries a serving run answers at least, so the p99 has TAIL_SAMPLES
# samples beyond it.
MIN_QUERIES = 100 * TAIL_SAMPLES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0  # end-to-end metrics only


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
)

PER_LAYER = tuple(Metric(*m) for m in (
    ("graph.load_s", "s", "lower"),
    ("graph.load_mb_per_s", "MB/s", "higher"),
    ("graph.relabel_choose_s", "s", "lower"),
    ("graph.relabel_apply_s", "s", "lower"),
    ("graph.relabel_nvs_ratio", "ratio", "lower"),
    ("bitmatrix.build_s", "s", "lower"),
    ("bitmatrix.valid_slices", "count", "lower"),
    ("bitmatrix.stats_s", "s", "lower"),
    ("core.host_count_s", "s", "lower"),
    ("core.valid_pairs", "count", "lower"),
    ("core.host_pairs_per_s", "1/s", "higher"),
    ("core.host_vs_mark", "ratio", "lower"),
    ("core.perf_model_s", "s", "lower"),
    ("core.tcim_latency_s", "sim_s", "lower"),
    ("core.tcim_energy_j", "sim_J", "lower"),
    ("arch.simulate_s", "s", "lower"),
    ("arch.cache_accesses", "count", "lower"),
    ("arch.ns_per_access", "ns", "lower"),
    ("arch.cache_hit_rate", "ratio", "higher"),
    ("arch.exchanges", "count", "lower"),
    ("arch.row_slice_writes", "count", "lower"),
    ("arch.col_slice_writes", "count", "lower"),
    ("pim.and_ops", "count", "lower"),
    ("pim.bitcount_words", "count", "lower"),
    ("pim.max_subarray_ands", "count", "lower"),
    ("baseline.verify_s", "s", "lower"),
    ("baseline.mark_s", "s", "lower"),
    ("baseline.forward_s", "s", "lower"),
    ("stream.apply_busy_p50_ms", "ms", "lower"),
    ("stream.apply_busy_p99_ms", "ms", "lower"),
    ("stream.and_ops_per_batch", "count", "lower"),
    ("stream.dropped_fraction", "ratio", "lower"),
    ("stream.recount_fraction", "ratio", "lower"),
    ("runtime.session_init_s", "s", "lower"),
    ("runtime.update_p99_ms", "ms", "lower"),
    ("runtime.update_wait_p50_ms", "ms", "lower"),
    ("runtime.update_wait_p99_ms", "ms", "lower"),
    ("runtime.update_service_p50_ms", "ms", "lower"),
    ("runtime.update_service_p99_ms", "ms", "lower"),
    ("runtime.query_p99_ms", "ms", "lower"),
    ("runtime.query_wait_p50_ms", "ms", "lower"),
    ("runtime.query_wait_p99_ms", "ms", "lower"),
    ("runtime.query_service_p50_ms", "ms", "lower"),
    ("runtime.query_service_p99_ms", "ms", "lower"),
    ("runtime.coalesced_fraction", "ratio", "higher"),
    ("runtime.rejected", "count", "lower"),
    ("runtime.plan2d_invalidations", "count", "lower"),
    ("runtime.epochs_published", "count", "higher"),
    ("runtime.epochs_retired", "count", "higher"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.span_coverage", "ratio", "higher"),
))

RUN_SECONDS = 15


def spec():
    """The BENCHMARK.json this benchmark answers to."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w.why} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values)


def tail_percentile(values, p):
    """Nearest-rank p-th percentile, or None when fewer than TAIL_SAMPLES
    samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def median_rate(done_s, window_s):
    """Median over the window's whole one-second slices of the
    operations completed in each, per second; None without a whole
    slice. `done_s` are completion times since the window opened."""
    counts = [0] * int(window_s)
    for t in done_s:
        if int(t) < len(counts):
            counts[int(t)] += 1
    return median(counts) if counts else None


def failed_fraction(failed, attempted):
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# Reducing the runner's raw samples to metrics
# ---------------------------------------------------------------------------

class Result:
    """Metrics of one run plus everything that makes it incorrect."""

    def __init__(self, raw):
        self.raw = raw
        self.attempted = int(raw["attempted"])
        self.failed = int(raw["failed"])
        self.problems = []
        self.metrics = {}     # contract metrics (end-to-end or per-layer)
        self.report = []      # (name, value, unit) lines for people
        self.meta = {}

    def put(self, name, value, problem_if_missing=True):
        if value is None or not math.isfinite(value):
            if problem_if_missing:
                self.problems.append(f"{name}: not enough samples")
            return
        self.metrics[name] = value

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def trace_stages(trace_path, traced_run_s):
    """Per-stage span seconds (median over traced runs) and the lowest
    share of a run's wall time that its stage spans cover."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    runs = {}
    for e in events:
        if e.get("ph") == "X" and e.get("cat") == "pipeline":
            stage = e["name"].split(".", 1)[1]
            runs.setdefault(e["args"]["run"], {})[stage] = e["dur"] / 1e6
    if len(runs) != len(traced_run_s):
        raise ValueError(f"trace holds {len(runs)} runs, expected "
                         f"{len(traced_run_s)}")
    coverage = []
    for run, stages in runs.items():
        missing = set(STAGES) - set(stages)
        if missing:
            raise ValueError(f"run {run} lacks spans {sorted(missing)}")
        coverage.append(sum(stages[s] for s in STAGES) / traced_run_s[run])
    stage_s = {s: median([r[s] for r in runs.values()]) for s in STAGES}
    return stage_s, min(coverage)


def reduce_offline(raw, trace, work):
    r = Result(raw)
    untraced = raw["untraced"]
    fp = raw["fingerprint"]
    run_s = untraced["run_s"]
    if not trace:
        r.put("setup_s", median(untraced["setup_s"]))
        r.put("peak_rss_mb", raw["peak_rss_mb"])
        r.put("latency_p50_ms", median(run_s) * 1e3)
        r.put("ops_per_s", len(run_s) / sum(run_s))
        r.report += [("run_s", median(run_s), "s"),
                     ("setup_s", r.metrics["setup_s"], "s"),
                     ("peak_rss_mb", raw["peak_rss_mb"], "MiB"),
                     ("tcim_latency_s", fp["tcim_latency_s"], "simulated s"),
                     ("tcim_energy_j", fp["tcim_energy_j"], "simulated J")]
        return r
    traced_run_s = raw["traced"]["run_s"]
    stage_s, coverage = trace_stages(work / "trace.json", traced_run_s)
    if coverage < MIN_SPAN_COVERAGE:
        r.problems.append(f"pipeline spans cover only {coverage:.3f} of a "
                          f"traced run (need {MIN_SPAN_COVERAGE})")
    lookups = raw["cache_lookups"]
    mb = (work / "graph.txt").stat().st_size / 1e6
    m = dict.fromkeys((x.name for x in PER_LAYER), 0.0)
    m.update({
        "graph.load_s": stage_s["load"],
        "graph.load_mb_per_s": mb / stage_s["load"],
        "graph.relabel_choose_s": stage_s["relabel_choose"],
        "graph.relabel_apply_s": stage_s["relabel_apply"],
        "graph.relabel_nvs_ratio": raw["relabel_nvs_ratio"],
        "bitmatrix.build_s": stage_s["slice_build"],
        "bitmatrix.valid_slices": fp["valid_slices"],
        "bitmatrix.stats_s": stage_s["slice_stats"],
        "core.host_count_s": stage_s["host_count"],
        "core.valid_pairs": raw["valid_pairs"],
        "core.host_pairs_per_s": raw["valid_pairs"] / stage_s["host_count"],
        "core.host_vs_mark": stage_s["host_count"] / raw["mark_s"],
        "core.perf_model_s": stage_s["perf_model"],
        "core.tcim_latency_s": fp["tcim_latency_s"],
        "core.tcim_energy_j": fp["tcim_energy_j"],
        "arch.simulate_s": stage_s["simulate"],
        "arch.cache_accesses": lookups,
        "arch.ns_per_access": stage_s["simulate"] * 1e9 / lookups,
        "arch.cache_hit_rate": fp["cache_hits"] / lookups,
        "arch.exchanges": fp["exchanges"],
        "arch.row_slice_writes": fp["row_slice_writes"],
        "arch.col_slice_writes": fp["col_slice_writes"],
        "pim.and_ops": fp["and_ops"],
        "pim.bitcount_words": fp["bitcount_words"],
        "pim.max_subarray_ands": raw["max_subarray_ands"],
        "baseline.verify_s": stage_s["verify"],
        "baseline.mark_s": raw["mark_s"],
        "baseline.forward_s": raw["forward_s"],
        "obs.trace_overhead": median(traced_run_s) / median(run_s),
        "obs.span_coverage": coverage,
    })
    for name, value in m.items():
        r.put(name, value)
    return r


def reduce_serve(raw, trace, work, smoke):
    r = Result(raw)
    phase = raw["untraced"]
    updates, queries = phase["update"], phase["query"]
    if not trace:
        r.put("setup_s", median(raw["setup_s"]))
        r.put("peak_rss_mb", raw["peak_rss_mb"])
        r.put("latency_p50_ms", median(queries["latency_ms"]))
        r.put("ops_per_s", median_rate(updates["done_s"] + queries["done_s"],
                                       phase["window_s"]))
        r.report += [
            ("setup_s", r.metrics["setup_s"], "s"),
            ("peak_rss_mb", raw["peak_rss_mb"], "MiB"),
            ("query_p50_ms", r.metrics["latency_p50_ms"], "ms"),
            ("query_p99_ms", tail_percentile(queries["latency_ms"], 99), "ms"),
            ("update_p50_ms", median(updates["latency_ms"]), "ms"),
            ("update_p99_ms", tail_percentile(updates["latency_ms"], 99),
             "ms"),
            ("serve_ops_per_s", r.metrics["ops_per_s"], "ops/s")]
        return r
    t = raw["traced"]
    tu, tq = t["update"], t["query"]
    reg = t["registry"]
    mb = (work / "graph.txt").stat().st_size / 1e6
    m = dict.fromkeys((x.name for x in PER_LAYER), 0.0)
    m.update({
        "graph.load_s": raw["load_s"],
        "graph.load_mb_per_s": mb / raw["load_s"],
        "stream.apply_busy_p50_ms": median(tu["busy_ms"]),
        "stream.apply_busy_p99_ms": tail_percentile(tu["busy_ms"], 99),
        "stream.and_ops_per_batch": statistics.fmean(tu["and_ops"]),
        "stream.dropped_fraction": sum(tu["dropped"]) / sum(tu["ops"]),
        "stream.recount_fraction": statistics.fmean(tu["recount"]),
        "runtime.session_init_s": median(raw["session_init_s"]),
        "runtime.update_p99_ms": tail_percentile(tu["latency_ms"], 99),
        "runtime.update_wait_p50_ms": median(tu["wait_ms"]),
        "runtime.update_wait_p99_ms": tail_percentile(tu["wait_ms"], 99),
        "runtime.update_service_p50_ms": median(tu["service_ms"]),
        "runtime.update_service_p99_ms": tail_percentile(tu["service_ms"], 99),
        "runtime.rejected": reg["scheduler.rejected_total"],
        "runtime.plan2d_invalidations": reg["stream.plan_invalidations_total"],
        "runtime.epochs_published": reg["epoch.published_total"],
        "runtime.epochs_retired": reg["epoch.retired_total"],
        "runtime.query_p99_ms": tail_percentile(tq["latency_ms"], 99),
        "runtime.query_wait_p50_ms": median(tq["wait_ms"]),
        "runtime.query_wait_p99_ms": tail_percentile(tq["wait_ms"], 99),
        "runtime.query_service_p50_ms": median(tq["service_ms"]),
        "runtime.query_service_p99_ms": tail_percentile(tq["service_ms"], 99),
        "runtime.coalesced_fraction":
            reg["scheduler.coalesced_total"] / len(tq["latency_ms"]),
        "obs.trace_overhead":
            median(tq["latency_ms"]) / median(queries["latency_ms"]),
    })
    for name, value in m.items():
        r.put(name, value, problem_if_missing=not smoke)
    return r


# ---------------------------------------------------------------------------
# Building and running
# ---------------------------------------------------------------------------

def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, capture=False):
    """Runs cmd to completion (killing it on timeout); stdout is captured
    or sent to stderr so that this script's stdout stays parseable."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture
                            else sys.stderr, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        rc, _ = run_child(["cmake", "-S", str(SOURCE_DIR), "-B",
                           str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"], 300)
        if rc != 0:
            fail("cmake configure failed (the repository sources must sit "
                 "next to e2ebench/)")
    jobs = str(min(4, os.cpu_count() or 1))
    rc, _ = run_child(["cmake", "--build", str(BUILD_DIR), "--target",
                       "tcim_e2e", "-j", jobs], 800)
    if rc != 0:
        fail("build failed")


def synth(name, workload, seed, work, smoke):
    cmd = [str(RUNNER), "synth", "--dataset", workload.dataset,
           "--scale", str(workload.smoke_scale if smoke else workload.scale),
           "--seed", str(seed), "--out", str(work),
           "--serving", str(int(workload.kind == "serve"))]
    rc, _ = run_child(cmd, 120)
    if rc != 0:
        fail(f"{name}: input synthesis failed")


def measure(name, seed, seconds, trace, smoke=False, keep=False):
    """Synthesizes the inputs, runs one workload and returns a Result."""
    workload = WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_DIR))
    try:
        synth(name, workload, seed, work, smoke)
        cmd = [str(RUNNER), workload.kind, "--dir", str(work),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        if workload.kind == "serve":
            cmd += ["--seed", str(seed), "--min-queries",
                    str(MIN_QUERIES // 10 if smoke else MIN_QUERIES)]
        rc, out = run_child(cmd, 170, capture=True)
        lines = out.strip().splitlines()
        try:
            raw = json.loads(lines[-1])
        except (IndexError, ValueError):
            fail(f"{name}: tcim_e2e exited {rc} without a result")
        for line in lines[:-1]:
            print(line)
        if workload.kind == "offline":
            result = reduce_offline(raw, trace, work)
        else:
            result = reduce_serve(raw, trace, work, smoke)
        if rc != 0 and result.failed == 0:
            result.problems.append(f"tcim_e2e exited {rc}")
        result.meta = dict(raw["meta"], workload=name,
                           dataset=workload.dataset,
                           scale=workload.smoke_scale if smoke
                           else workload.scale,
                           seed=seed, seconds=seconds, trace=int(trace))
        return result
    finally:
        if not keep:
            shutil.rmtree(work, ignore_errors=True)


def print_result(name, result, trace):
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    print("meta " + json.dumps(result.meta, sort_keys=True))
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    lines = result.report if not trace else [
        (n, result.metrics.get(n), units[n]) for n in units
        if n in result.metrics]
    for metric, value, unit in lines:
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {metric:32s} {shown} {unit}")
    print(f"  {'failed_fraction':32s} "
          f"{failed_fraction(result.failed, result.attempted):.6g} ratio "
          f"({result.failed} of {result.attempted})")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")


def contract_line(result, trace):
    units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    metrics = {n: {"value": result.metrics[n], "unit": u}
               for n, u in units.items() if n in result.metrics}
    missing = sorted(set(units) - set(metrics))
    correct = result.correct and not missing
    return json.dumps({"correct": correct, "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})


def run_all(seed, seconds, trace):
    ok = True
    for name in WORKLOADS:
        result = measure(name, seed, seconds, trace)
        print_result(name, result, trace)
        ok = ok and result.correct
    return 0 if ok else 1


def run_smoke(seed):
    """All workloads on tiny inputs, traced and untraced, plus a
    cross-process check of the offline determinism fingerprints."""
    ok = True
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result = measure(name, seed, 1, trace, smoke=True)
            print_result(name, result, trace)
            ok = ok and result.correct
            if workload.kind == "offline":
                fp = result.raw["fingerprint"]
                if trace and fp != first_fp:
                    print(f"  PROBLEM: fingerprint differs between two "
                          f"processes: {fp} vs {first_fp}")
                    ok = False
                first_fp = fp
    print("smoke: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------

class SelfTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3, 1, 2]), 2)
        self.assertEqual(median([4, 1, 3, 2]), 2.5)

    def test_percentile_needs_ten_samples_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(tail_percentile(values, 99), 990)
        self.assertIsNone(tail_percentile(values[:999], 99))
        self.assertEqual(tail_percentile(list(range(20)), 50), 9)
        self.assertIsNone(tail_percentile(list(range(19)), 50))

    def test_median_rate(self):
        # 2.5 s window: two whole slices, holding 3 and 1 completions.
        self.assertEqual(median_rate([0.1, 0.5, 0.9, 1.2, 2.2], 2.5), 2)
        self.assertIsNone(median_rate([0.1], 0.5))

    def test_failure_counting(self):
        self.assertEqual(failed_fraction(0, 5), 0)
        self.assertEqual(failed_fraction(1, 4), 0.25)
        with self.assertRaises(ValueError):
            failed_fraction(0, 0)
        result = Result({"attempted": 4, "failed": 1})
        self.assertFalse(result.correct)
        result = Result({"attempted": 4, "failed": 0})
        self.assertTrue(result.correct)
        result.put("runtime.query_p99_ms", tail_percentile([1.0] * 50, 99))
        self.assertFalse(result.correct)
        self.assertFalse(json.loads(contract_line(result, False))["correct"])

    def test_committed_spec_matches(self):
        with open(ROOT / "BENCHMARK.json") as f:
            self.assertEqual(json.load(f), spec())

    def test_spec_within_contract(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        names += [w["name"] for w in s["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--keep", action="store_true",
                        help="keep the run's inputs and trace under "
                             ".bench_work/")
    args = parser.parse_args()

    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
        ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
        return 0 if ok else 1
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(spec(), f, indent=2)
            f.write("\n")
        return 0
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if args.smoke:
        return run_smoke(args.seed)
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace,
                     keep=args.keep)
    print_result(args.workload, result, trace)
    line = contract_line(result, trace)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
