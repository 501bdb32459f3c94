#!/usr/bin/env python3
"""Write a BENCH file: layer and command timings, the benchmark's verdict and an environment stamp.

Run from any directory; the package under this checkout's ``src`` is timed:

    python scripts/write_bench.py --out BENCH_<n>.json

The file holds three things:

- ``in_process_ms``: median milliseconds per call, over 101 calls after
  one warm-up call, for each layer of the simulator and each CLI
  subcommand at its default and at a scaled size. Solver entries are per
  call, averaged over K = 0.5445 and 0.1598 and both Mb signs; ppbs entries
  use visibility 0.9.
- ``perfbench``: the last JSON line that ``perfbench/run.py --workload all
  --seed 0 --seconds 30`` prints, read as output.
- ``stamp``: the python and numpy versions, the OpenBLAS core, the
  ``PYTHONDONTWRITEBYTECODE`` setting, whether each package module's
  bytecode was cached before this script imported it, the host's CPU count
  and the git commit, so that a number can be told apart from the machine
  it came from.

Each entry is timed in one run, so two BENCH files compare runs made at
different host loads: back to back, entries that a change does not touch
have read 3 % to 9 % apart. A before/after number for one layer must
instead come from the parent and the change sampled alternately in one
process.
"""

import argparse
import ctypes
import glob
import importlib.util
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "scripts"))
# read before the package is imported, which may write the bytecode
BYTECODE_CACHED = {
    path.name: os.path.exists(importlib.util.cache_from_source(str(path)))
    for path in sorted((ROOT / "src" / "lgi_weaksim").glob("*.py"))
}

import numpy as np  # noqa: E402

import reproduce_datasets  # noqa: E402
from lgi_weaksim import cli, experiment, optics, stats  # noqa: E402

STRENGTHS = (0.5445, 0.1598)
VISIBILITY = 0.9
SCALED_STEPS = "4096"
REPEATS = 101
PERFBENCH_SECONDS = 30.0    # the benchmark's run length per workload


def per_setting(solver, gate):
    """One call of solver at each benchmark strength and Mb sign; timed per call."""
    settings = [(knowledge, mb_sign) for knowledge in STRENGTHS for mb_sign in (+1, -1)]

    def call():
        for knowledge, mb_sign in settings:
            solver(knowledge, gate, mb_sign)

    return call, len(settings)


def layer_calls() -> dict:
    """name -> (call, calls per timing) for each layer on its own."""
    ideal, ppbs = experiment.IDEAL_GATE, experiment.GateModel(kind="ppbs", visibility=VISIBILITY)
    angles = np.linspace(0.0, 2.0 * math.pi, 4096)
    target = experiment.b_max(STRENGTHS[0], ppbs)[1]
    plan = stats.TrialPlan(n_pairs=100_000, n_trials=300)
    config = experiment.ExperimentConfig(theta=7.0 * math.pi / 4.0, knowledge=STRENGTHS[0])
    return {
        "engine.ideal.4096_angles": (lambda: experiment._probability_matrix(angles, STRENGTHS[0], ideal), 1),
        "engine.ppbs.4096_angles": (lambda: experiment._probability_matrix(angles, STRENGTHS[0], ppbs), 1),
        "optics.effective_map": (lambda: optics.effective_map(VISIBILITY), 1),
        "experiment.b_max.ideal": per_setting(experiment.b_max, ideal),
        "experiment.b_max.ppbs": per_setting(experiment.b_max, ppbs),
        "experiment.violation_interval.ideal": per_setting(experiment.violation_interval, ideal),
        "experiment.violation_interval.ppbs": per_setting(experiment.violation_interval, ppbs),
        "optics.fit_visibility": (lambda: optics.fit_visibility(target, STRENGTHS[0]), 1),
        "stats.run_trials.300x1e5": (lambda: stats.run_trials(plan, config), 1),
    }


def command_calls(out_dir: str) -> dict:
    """name -> (call, 1) for each CLI subcommand at its default and a scaled size, and the dataset script."""
    out = os.path.join(out_dir, "out.csv")
    theta = repr(7.0 * math.pi / 4.0)
    argvs = {
        "cli.sweep": ["sweep", "--out", out],
        f"cli.sweep.{SCALED_STEPS}_steps": ["sweep", "--theta-steps", SCALED_STEPS, "--out", out],
        f"cli.sweep.ppbs.{SCALED_STEPS}_steps": ["sweep", "--gate", "ppbs", "--visibility", str(VISIBILITY),
                                                  "--theta-steps", SCALED_STEPS, "--out", out],
        "cli.fig2": ["fig2", "--out-prefix", os.path.join(out_dir, "fig2")],
        f"cli.fig2.{SCALED_STEPS}_steps": ["fig2", "--theta-steps", SCALED_STEPS,
                                           "--out-prefix", os.path.join(out_dir, "fig2")],
        "cli.fig3": ["fig3", "--out", out],
        f"cli.fig3.{SCALED_STEPS}_steps": ["fig3", "--theta-steps", SCALED_STEPS, "--out", out],
        "cli.gate": ["gate", "--out", out],
        "cli.mc": ["mc", "--theta", theta, "--out", out],
        "cli.mc.10000_trials": ["mc", "--theta", theta, "--trials", "10000", "--out", out],
    }
    calls = {name: ((lambda argv=argv + ["--quiet"]: cli.main(argv)), 1) for name, argv in argvs.items()}
    data_dir = os.path.join(out_dir, "data")
    calls["scripts.reproduce_datasets"] = (lambda: reproduce_datasets.main(["--data-dir", data_dir, "--quiet"]), 1)
    return calls


def in_process() -> dict:
    """Median milliseconds per call of each entry, after one warm-up call each.

    The entries take turns, one call each per round, so that a change in
    the host's load over the run reaches every entry alike.
    """
    with tempfile.TemporaryDirectory() as out_dir:
        calls = {**layer_calls(), **command_calls(out_dir)}
        samples = {name: [] for name in calls}
        for call, _ in calls.values():
            call()
        for _ in range(REPEATS):
            for name, (call, _) in calls.items():
                start = time.perf_counter_ns()
                call()
                samples[name].append(time.perf_counter_ns() - start)
        return {name: statistics.median(samples[name]) / 1e6 / per_call for name, (_, per_call) in calls.items()}


def perfbench() -> dict:
    """The verdict line of one benchmark run over every workload at seed 0."""
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", "all", "--seed", "0", "--seconds", repr(PERFBENCH_SECONDS)]
    result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def openblas_core() -> str:
    """OpenBLAS's kernel name, read through ctypes; "unknown" if unreadable. The CI workflow prints it too."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_char_p
                return getattr(lib, symbol)().decode()
    return "unknown"


def git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def stamp() -> dict:
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_core": openblas_core(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_cached": BYTECODE_CACHED,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    bench = {"stamp": stamp(), "in_process_ms": in_process(), "perfbench": perfbench()}
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(bench, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
