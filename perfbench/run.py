#!/usr/bin/env python3
"""Benchmark for tir: three workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py [--workload index-512|query-10k|eval-rotated|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in one process with one closed-loop client. Inputs come
from --seed (written by inputs.py in a child process). The program's outputs
are checked outside the timed region. Stdout carries one line per named
metric and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json; with --trace 1 they are the per-layer ones, taken
from spans recorded around tir's public functions. NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("index-512", "query-10k", "eval-rotated")
DEFAULT_SEED = 1

# Layers whose spans get median, p95, calls per operation and self time per operation.
LAYER_SPANS = (
    "corners.corner_metric", "corners.corner_peaks", "edge.prompt_edge", "moments.hu_moments",
    "index.extract_features", "matching.corner_filter", "matching.rank_by_moments",
    "index.load_index", "index.save_index", "imaging.load_image", "imaging.rotate",
)
EVAL_MODES = ("corner", "moments", "hybrid")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def emit(workload: str, name: str, value: float, unit: str) -> None:
    print(f"{workload}\t{name}\t{value:.6g}\t{unit}")


def code_hash() -> str:
    """Digest of the package and benchmark sources: runs of one commit share it."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def compare_digests(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    """Check output digests against earlier runs of the same code and seed, then record them."""
    state_file = WORK / "digests.json"
    state = json.loads(state_file.read_text()) if state_file.exists() else {}
    key = f"{code_hash()}:{workload}:{seed}"
    seen = state.setdefault(key, {})
    problems = [f"{name}: {digest} differs from an earlier run ({seen[name]})"
                for name, digest in digests.items() if seen.get(name, digest) != digest]
    seen.update({name: seen.get(name, digest) for name, digest in digests.items()})
    state_file.write_text(json.dumps(state, indent=1, sort_keys=True))
    return problems


def measure_speedup(batch, index, cli) -> float:
    """`build_index` wall time at jobs=1 divided by the wall time at the CLI's default jobs,
    medians of 5 alternating builds of `batch` (a manifest and its image root)."""
    manifest, root = batch
    default_jobs = cli.build_parser().parse_args(["index", "--manifest", "-", "--root", "-", "--out", "-"]).jobs
    walls: dict[int, list[float]] = {1: [], default_jobs: []}
    for _ in range(5):
        for jobs in walls:
            t0 = time.perf_counter()
            index.build_index(manifest, root, index.ExtractionConfig(), jobs=jobs)
            walls[jobs].append(time.perf_counter() - t0)
    return statistics.median(walls[1]) / statistics.median(walls[default_jobs])


def layer_metrics(tracer, ops: int, traced_ms, untraced_ms) -> dict[str, tuple[float, str]]:
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYER_SPANS:
        spans = [s for s in tracer.spans if s.name == layer]
        in_ops = [s for s in spans if s.op.startswith("op")]
        durations = [s.duration * 1000.0 for s in spans]
        metrics[f"{layer}_ms.p50"] = (percentile(durations, 50) if spans else 0.0, "ms")
        metrics[f"{layer}_ms.p95"] = (percentile(durations, 95) if spans else 0.0, "ms")
        metrics[f"{layer}.calls_per_op"] = (len(in_ops) / ops, "count/op")
        metrics[f"{layer}.self_ms_per_op"] = (sum(s.self_time for s in in_ops) * 1000.0 / ops, "ms/op")
    for mode in EVAL_MODES:
        durations = [s.duration for s in tracer.spans if s.name == f"evaluation.evaluate.{mode}"]
        metrics[f"evaluation.evaluate_s.{mode}"] = (statistics.median(durations) if durations else 0.0, "s")
    considered = tracer.counters["filter_considered"]
    counts = tracer.corner_counts
    metrics["matching.survival_ratio"] = (tracer.counters["filter_survivors"] / considered if considered else 0.0, "ratio")
    metrics["evaluation.extract_calls"] = (tracer.counters["eval_extract_calls"] / ops, "count/op")
    metrics["corners.count_mean"] = (statistics.fmean(counts) if counts else 0.0, "count")
    metrics["corners.count_p95"] = (percentile(counts, 95) if counts else 0.0, "count")
    metrics["trace.overhead_ratio"] = (statistics.median(traced_ms) / statistics.median(untraced_ms), "ratio")
    return metrics


def call_op(w, i: int, tracer=None) -> tuple[float, list[str]]:
    """Run operation i, timed, then check its output untimed.

    Returns the latency in ms and the problems found (empty when correct).
    """
    t0 = time.perf_counter()
    try:
        if tracer:
            with tracer.recording(f"op{i}", counting=True):
                result = tracer.run("op", w.op, i)
        else:
            result = w.op(i)
    except Exception:
        return (time.perf_counter() - t0) * 1000.0, [traceback.format_exc()]
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    try:
        problems = w.check(i, result)
    except Exception:
        problems = [traceback.format_exc()]
    if problems:
        print(f"{w.name} operation {i} failed: " + "; ".join(problems), file=sys.stderr)
    return elapsed_ms, problems


def timed_setup(w) -> float:
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def run_untraced(w, seconds: int):
    """Closed loop over whole rounds of the workload's inputs until `seconds` have passed.

    Set-up n runs before operation n * w.setup_every, so that `setup_s` (their
    median) samples the same machine states as the operations; set-ups the
    loop did not reach run after it. Operation 0 runs once more, untimed,
    after the first set-up, so that first-call costs (lazy imports, the
    allocator's growth) stay out of the latencies. Returns the set-up times
    in s, the latencies in ms and the number of failed operations.
    """
    setup_s, latencies_ms = [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while i % w.inputs or time.perf_counter() - start < seconds:
        if i % w.setup_every == 0 and len(setup_s) < w.setup_reps:
            setup_s.append(timed_setup(w))
        if i == 0:
            failed += bool(call_op(w, i)[1])
        elapsed_ms, problems = call_op(w, i)
        latencies_ms.append(elapsed_ms)
        failed += bool(problems)
        i += 1
    while len(setup_s) < w.setup_reps:
        setup_s.append(timed_setup(w))
    return setup_s, latencies_ms, failed


def run_traced(w, tracer, seconds: int):
    """Traced set-ups, then whole rounds until `seconds` have passed, each input
    run once untraced and once traced. Returns the untraced and traced latencies
    in ms and the number of failed operations."""
    for n in range(w.setup_reps):
        with tracer.recording(f"setup{n}", counting=False):
            w.setup()
    untraced_ms, traced_ms = [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while i % w.inputs or time.perf_counter() - start < seconds:
        for latencies, op_tracer in ((untraced_ms, None), (traced_ms, tracer)):
            elapsed_ms, problems = call_op(w, i, op_tracer)
            latencies.append(elapsed_ms)
            failed += bool(problems)
        i += 1
    return untraced_ms, traced_ms, failed


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(vars(span)) + "\n")


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    from tir import cli, index
    from tracing import Tracer
    from workloads import WORKLOADS as CLASSES

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        subprocess.run([sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work)], check=True, timeout=150)
        w = CLASSES[args.workload](work)
        if args.trace:
            tracer = Tracer()
            untraced_ms, traced_ms, failed = run_traced(w, tracer, args.seconds)
            attempted = len(untraced_ms) + len(traced_ms)
            emit(w.name, "timed_operations", attempted, "count")
        else:
            setup_s, untraced_ms, failed = run_untraced(w, args.seconds)
            emit(w.name, "timed_operations", len(untraced_ms), "count")
            attempted = len(untraced_ms) + 1  # the warm-up operation

        digests = w.digests()
        mismatches = compare_digests(w.name, args.seed, digests)
        for problem in mismatches:
            print(f"{w.name} determinism: {problem}", file=sys.stderr)
        attempted += len(digests)
        failed += len(mismatches)

        if args.trace:
            metrics = layer_metrics(tracer, len(traced_ms), traced_ms, untraced_ms)
            # Not measured on query-10k, which never builds an index.
            speedup_batch = getattr(w, "speedup_batch", None)
            metrics["parallel.speedup"] = (measure_speedup(speedup_batch(), index, cli) if speedup_batch else 0.0,
                                           "ratio")
            metrics["index.db_bytes"] = (w.db_bytes(), "bytes")
            totals: dict[str, float] = {}
            for span in tracer.spans:
                if span.op.startswith("op"):
                    totals[span.name] = totals.get(span.name, 0.0) + span.self_time
            for name, total in sorted(totals.items(), key=lambda kv: -kv[1])[:8]:
                emit(w.name, f"self_ms_per_op[{name}]", total * 1000.0 / len(traced_ms), "ms/op")
            write_spans(tracer, WORK / "traces" / f"{w.name}-s{args.seed}.jsonl")
            for name, (value, unit) in metrics.items():
                emit(w.name, name, value, unit)
        else:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "latency_p95_ms": (percentile(untraced_ms, 95), "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            for name, (value, unit) in metrics.items():
                emit(w.name, w.aliases.get(name, name), value, unit)
            for name, value, unit in w.report(untraced_ms):
                emit(w.name, name, value, unit)
            emit(w.name, "ops_failed_ratio", failed / attempted, "ratio")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=300,
        )
        *lines, last = child.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tir" / "__init__.py").is_file():
        print(f"perfbench: no tir package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
