#!/usr/bin/env python3
"""Benchmark of lgi-weaksim: one client, a closed loop, fresh interpreters.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one table

Each pass runs in a fresh interpreter (``worker.py``), so the gate-map cache
starts empty and the package import is timed on its own as ``setup_s``.
Passes repeat until ``--seconds`` is used up, and at least a fixed number of
times per workload so the tail percentile keeps ten samples beyond it. With
``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the last line carries
the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
REQUIRED = ("src/lgi_weaksim/cli.py", "tests/oracles.py", "scripts/reproduce_datasets.py")
# pinned for every pass; nproc is 2 and the client is single-threaded
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HARD_LIMIT_S = 150.0
MIN_SETUP_SAMPLES = 7

# minimum passes and the tail percentile: at the minimum, at least ten
# latency samples lie beyond the percentile, except on sweep_dense, whose
# operations take seconds each and which reports the maximum instead
WORKLOADS = {
    "sweep_dense": {"min_passes": 2, "tail_pct": 100.0},
    "gate_scan": {"min_passes": 6, "tail_pct": 95.0},
    "mc_ensemble": {"min_passes": 10, "tail_pct": 90.0},
    "reproduce": {"min_passes": 11, "tail_pct": 90.0},
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "invocation_ms_p50": "ms",
    "invocation_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    ordered = sorted(values)
    position = pct / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as stream:
        head = stream.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as stream:
            return stream.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as stream:
            for line in stream:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lgi_weaksim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()


def environment(workload: str, seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
    }


def run_worker(arguments: list[str], timeout: float) -> dict:
    """One fresh interpreter; a crash or a timeout is returned as a failure."""
    env = {**os.environ, **BLAS_THREADS}
    command = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, *arguments]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_pass(workload: str, seed: int, trace: bool, index: int, timeout: float) -> dict:
    out_dir = os.path.join(OUT, f"{workload}_seed{seed}_pass{index}_{os.getpid()}")
    return run_worker([workload, str(seed), "1" if trace else "0", out_dir], timeout)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat passes for the time budget and reduce them to metrics."""
    settings = WORKLOADS[workload]
    # a traced run splits its passes between untraced and traced ones
    minimum = max(2, settings["min_passes"]) if trace else settings["min_passes"]
    plain, traced, crashed, durations = [], [], [], []
    begin = time.monotonic()
    while True:
        elapsed = time.monotonic() - begin
        done = len(plain) + len(traced) + len(crashed)
        expected = statistics.median(durations) if durations else 0.0
        if done >= minimum and elapsed + expected > seconds:
            break
        if elapsed > HARD_LIMIT_S or (crashed and done >= 1):
            break
        with_trace = trace and done % 2 == 1
        started = time.monotonic()
        result = run_pass(workload, seed, with_trace, done, HARD_LIMIT_S + 20.0 - elapsed)
        durations.append(time.monotonic() - started)
        if "crashed" in result:
            crashed.append(result["crashed"])
        else:
            (traced if with_trace else plain).append(result)

    passes = plain + traced
    setups = [p["setup_s"] for p in passes]
    # workloads with long passes get extra set-up-only samples for a steady median
    while passes and len(setups) < MIN_SETUP_SAMPLES and time.monotonic() - begin < HARD_LIMIT_S:
        extra = run_worker(["setup"], 60.0)
        if "crashed" in extra:
            crashed.append(extra["crashed"])
            break
        setups.append(extra["setup_s"])
    latencies = [x for p in plain for x in p["latencies_ms"]]
    per_pass_units = passes[0]["attempted"] if passes else 1
    attempted = sum(p["attempted"] for p in passes) + per_pass_units * len(crashed)
    failed = sum(p["failed"] for p in passes) + per_pass_units * len(crashed)
    summary = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "samples": len(latencies),
        "tail_pct": settings["tail_pct"],
        "attempted": attempted,
        "failed": failed,
        "problems": crashed + [msg for p in passes for msg in p["problems"]][:20],
        "known_defects": sorted({msg for p in passes for msg in p["known_defects"]}),
        "pass_setup_s": setups,
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in plain],
        "pass_speed_factor": [p["speed_factor"] for p in plain],
    }
    if not plain:
        return summary
    summary["end_to_end"] = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "invocation_ms_p50": percentile(latencies, 50.0),
        "invocation_ms_tail": percentile(latencies, settings["tail_pct"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_frac": 1.0 - failed / attempted,
    }
    if traced:
        layers = dict(traced[0]["layers"])
        for name, value in layers.items():
            if isinstance(value, float) and name.endswith("_ms"):
                layers[name] = statistics.median(p["layers"][name] for p in traced)
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / summary["end_to_end"]["wall_s"] - 1.0)
        counts = {n: v for n, v in traced[0]["layers"].items() if isinstance(v, int)}
        summary["counts_repeat"] = all(
            {n: v for n, v in p["layers"].items() if isinstance(v, int)} == counts for p in traced)
        summary["per_layer"] = layers
    return summary


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as stream:
        spec = json.load(stream)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(summary: dict, trace: bool) -> dict:
    """Print the human-readable lines of one workload; return its metrics."""
    print(f"workload={summary['workload']} seed={summary['seed']} passes={summary['passes']} "
          f"traced_passes={summary['traced_passes']} samples={summary['samples']} "
          f"tail=p{summary['tail_pct']:g} attempted={summary['attempted']} failed={summary['failed']}")
    for message in summary["problems"]:
        print(f"  problem: {message}")
    for message in summary["known_defects"]:
        print(f"  known defect (not counted as failed): {message}")
    if summary["pass_raw_wall_s"]:
        print(f"  uncorrected wall_s = {statistics.median(summary['pass_raw_wall_s']):.6g} s; "
              f"speed factor = {statistics.median(summary['pass_speed_factor']):.4g}")
    if trace:
        units = per_layer_units()
        values = summary.get("per_layer", {})
        if not summary.get("counts_repeat", True):
            print("  warning: traced counts differ between passes")
    else:
        units = END_TO_END
        values = summary.get("end_to_end", {})
    metrics = {}
    for name, unit in units.items():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name} = {values[name]:.6g} {unit}")
    return metrics


def record_digests(seed: int) -> None:
    """Rewrite digests.json from one pass of every workload at this seed."""
    recorded = {}
    for workload in WORKLOADS:
        result = run_pass(workload, seed, False, 0, HARD_LIMIT_S)
        if "crashed" in result or result["failed"]:
            sys.exit(f"{workload}: cannot record digests: {result}")
        recorded[workload] = result["digests"]
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as stream:
        json.dump(recorded, stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json from --seed's outputs and exit")
    args = parser.parse_args(argv)

    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: not a lgi-weaksim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.record_digests:
        record_digests(args.seed)
        return 0

    trace = args.trace == 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    summaries, metrics = [], {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, trace)
        summaries.append(summary)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in report(summary, trace).items()})
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as stream:
        json.dump({"env": env, "summaries": summaries}, stream, indent=1)
    if any("end_to_end" not in s for s in summaries):
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
