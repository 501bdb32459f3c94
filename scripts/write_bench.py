#!/usr/bin/env python3
"""Write a BENCH file: layer and command timings, the benchmark's verdict and an environment stamp.

Run from any directory; the package under this checkout's ``src`` is timed:

    python scripts/write_bench.py --out BENCH_<n>.json

The file holds five things:

- ``in_process_ms``: median milliseconds per call, over 101 calls after
  one warm-up call, for each layer of the simulator and each CLI
  subcommand at its default and at a scaled size. Solver entries are per
  call, averaged over K = 0.5445 and 0.1598 and both Mb signs; ppbs entries
  use visibility 0.9.
- ``startup_ms``: median milliseconds of ``python -m lgi_weaksim`` in a
  fresh interpreter, over 21 runs, for ``gate``, ``--version``, a usage
  error and, as the control that loads numpy, ``sweep``; and, as
  ``startup.cli_import``, the median of what perfbench's worker times as
  ``setup_s`` inside a fresh interpreter: importing ``lgi_weaksim.cli`` and
  building its parser.
- ``peak_rss_mb``: the median, over 5 runs, of the peak resident memory
  (``ru_maxrss``) of a fresh interpreter that imports the CLI and runs one
  command: a ppbs ``sweep`` and ``fig2`` at 100000 steps, ``mc`` at 100000
  trials and, as the control that loads no numpy and writes one row,
  ``gate``.
- ``perfbench``: the last JSON line that ``perfbench/run.py --workload all
  --seed 0 --seconds 30`` prints, read as output.
- ``stamp``: the python and numpy versions, the OpenBLAS core, the
  ``PYTHONDONTWRITEBYTECODE`` setting, whether each package module's
  bytecode was cached before this script imported it, the host's CPU count,
  the git commit and the sha256 of the package sources (perfbench's
  ``source_digest``), so that a number can be told apart from the machine
  it came from. The git commit is the one the timed tree was based on,
  since a BENCH file is written before its change is committed; the
  source digest names the timed tree itself.

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
STARTUP_RUNS = 21
PEAK_RSS_RUNS = 5
PEAK_RSS_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
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
    # cli.mc.10000_trials without the CLI's row formatting and file write
    scaled_plan = stats.TrialPlan(n_pairs=100_000, n_trials=10_000)
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
        "stats.run_trials.10000x1e5": (lambda: stats.run_trials(scaled_plan, config), 1),
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


def startup() -> dict:
    """Median milliseconds of a fresh interpreter running each command, over STARTUP_RUNS runs.

    The commands take turns, one run each per round, as in ``in_process``,
    and each round ends with one run of ``perfbench/worker.py ROOT setup``,
    whose own ``setup_s`` is ``startup.cli_import``. A run whose exit code
    is not the one its command should give raises.
    """
    with tempfile.TemporaryDirectory() as out_dir:
        out = os.path.join(out_dir, "out.csv")
        commands = {
            "startup.gate": (["gate", "--out", out, "--quiet"], 0),
            "startup.version": (["--version"], 0),
            "startup.usage_error": (["gate", "--visibility", "2", "--out", out], 2),
            "startup.sweep": (["sweep", "--out", out, "--quiet"], 0),
        }
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        worker = [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT), "setup"]
        samples = {name: [] for name in [*commands, "startup.cli_import"]}
        for _ in range(STARTUP_RUNS):
            for name, (argv, code) in commands.items():
                start = time.perf_counter_ns()
                result = subprocess.run([sys.executable, "-m", "lgi_weaksim", *argv], env=env, capture_output=True)
                samples[name].append(time.perf_counter_ns() - start)
                if result.returncode != code:
                    raise RuntimeError(f"{name} exited {result.returncode}: {result.stderr.decode()}")
            result = subprocess.run(worker, env=env, capture_output=True, text=True, check=True)
            samples["startup.cli_import"].append(json.loads(result.stdout.splitlines()[-1])["setup_s"] * 1e9)
        return {name: statistics.median(values) / 1e6 for name, values in samples.items()}


def peak_rss() -> dict:
    """Median peak resident megabytes of a fresh interpreter running each command, over PEAK_RSS_RUNS runs.

    The child reports its own ``ru_maxrss`` (kilobytes on Linux) after the
    command returns; a run that does not exit 0 raises. A child started
    from this process, which holds numpy, would count this process's
    resident size in its high-water mark, which fork and exec carry over, so
    each child is started from a small launcher interpreter instead.
    """
    with tempfile.TemporaryDirectory() as out_dir:
        out = os.path.join(out_dir, "out.csv")
        commands = {
            "peak_rss.gate": ["gate", "--out", out],
            "peak_rss.sweep.ppbs.100000_steps": ["sweep", "--gate", "ppbs", "--theta-steps", "100000",
                                                 "--out", out],
            "peak_rss.fig2.100000_steps": ["fig2", "--theta-steps", "100000",
                                           "--out-prefix", os.path.join(out_dir, "fig2")],
            "peak_rss.mc.100000_trials": ["mc", "--theta", repr(7.0 * math.pi / 4.0), "--trials", "100000",
                                          "--out", out],
        }
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        samples = {name: [] for name in commands}
        for _ in range(PEAK_RSS_RUNS):
            for name, argv in commands.items():
                code = ("import resource, sys; from lgi_weaksim import cli; "
                        f"code = cli.main({[*argv, '--quiet']!r}); "
                        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
                launched = [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER, sys.executable, "-c", code]
                result = subprocess.run(launched, env=env, capture_output=True, text=True)
                if result.returncode != 0:
                    raise RuntimeError(f"{name} exited {result.returncode}: {result.stderr}")
                samples[name].append(int(result.stdout.split()[-1]) / 1024)
        return {name: statistics.median(values) for name, values in samples.items()}


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


def source_digest() -> str:
    """perfbench's sha256 over ``src/lgi_weaksim/*.py``."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.source_digest()


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
        "source_sha256": source_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="output JSON path")
    args = parser.parse_args(argv)

    bench = {"stamp": stamp(), "in_process_ms": in_process(), "startup_ms": startup(), "peak_rss_mb": peak_rss(),
             "perfbench": perfbench()}
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(bench, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
