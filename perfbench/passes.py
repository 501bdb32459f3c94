"""One pass of a workload: run its operations, time them, check the outputs.

``worker.py`` imports this module only after it has timed the package import,
so nothing here counts towards set-up. The pass runs its operations one after
another, checks every output after the timed region, and prints one JSON
object as its last line.
"""

import hashlib
import importlib.util
import json
import math
import os
import random
import resource
import shutil
import time

import checks
import workloads
from speed import SpeedProbe
from tracer import Tracer

_clock = time.perf_counter


def load_module(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def execute(op, script):
    """Run one operation; return its result or raise what it raised."""
    from lgi_weaksim import cli, experiment, optics

    if op.kind == "cli":
        code = cli.main(op.args)
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return code
    if op.kind == "fit_visibility":
        return optics.fit_visibility(*op.args)
    if op.kind == "edge":
        return experiment.violation_interval(*op.args)
    code = script.main(op.args)
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return code


def run_ops(ops, script, tracer=None, probe=None):
    """The timed region: wall seconds and per-invocation seconds, both raw
    and corrected for speed (see ``speed.py``), and the outcomes."""
    from lgi_weaksim import cli

    probe = probe or SpeedProbe()
    spans = []
    outcomes = []
    timed_main = None
    if any(op.kind == "reproduce" for op in ops):
        # the script makes several CLI invocations; time each one of them
        inner_main = cli.main

        def timed_main(argv=None):
            if tracer is not None:
                tracer.current_invocation = len(spans)
            begin = _clock()
            try:
                return inner_main(argv)
            finally:
                spans.append((begin, _clock()))

        cli.main = timed_main
    try:
        probe.start()
        begin_pass = _clock()
        for op in ops:
            if tracer is not None and timed_main is None:
                tracer.current_invocation = len(spans)
            begin = _clock()
            try:
                outcomes.append((execute(op, script), None))
            except (Exception, SystemExit) as exc:  # a failed operation is counted, never fatal
                outcomes.append((None, exc))
            if timed_main is None:
                spans.append((begin, _clock()))
        end_pass = _clock()
    finally:
        probe.stop()
        if timed_main is not None:
            cli.main = inner_main
    latencies = [probe.corrected(begin, end) for begin, end in spans]
    raw_wall = end_pass - begin_pass - probe.inside(begin_pass, end_pass)
    # time between invocations is corrected with the whole pass's factor
    gaps = raw_wall - sum(end - begin - probe.inside(begin, end) for begin, end in spans)
    wall = sum(latencies) + gaps * probe.factor()
    return wall, raw_wall, latencies, outcomes


def check_ops(ops, outcomes, out_dir, digests, oracles, rng):
    """Per-unit failures, output totals and notes on the known defect.

    An invocation fails when it raised, exited non-zero, or any of its
    outputs is missing, disagrees with an oracle or with a recorded digest.
    The known ``violation_interval`` defect is reported apart (see DESIGN.md).
    """
    from lgi_weaksim import experiment

    failed = 0
    problems, known = [], []
    totals = {"rows": 0, "bytes": 0, "nan_wv_rows": 0, "mc_trials": 0, "mc_postselected": 0}
    produced = {}
    for op, (result, exc) in zip(ops, outcomes):
        op_problems = []
        if exc is not None:
            defect = None
            if op.kind == "edge" and checks.known_defect(exc):
                defect = f"violation_interval({op.args[0]!r}) raised ValueError: {exc}"
            elif op.kind == "cli" and op.args[0] == "fig3" and str(exc) == "exit code 1":
                defect = checks.fig3_known_defect(op.units[0][0][1], experiment)
            if defect is not None:
                known.append(defect)
                continue
            op_problems.append(f"{op.kind} {op.args[:3]} raised {type(exc).__name__}: {exc}")
        for unit in op.units:
            unit_problems = list(op_problems)
            for name, spec in unit:
                if name is None:
                    if exc is None:
                        check = checks.check_fit if spec["type"] == "fit" else checks.check_edge
                        unit_problems += check(result, spec, oracles)
                    continue
                path = os.path.join(out_dir, name)
                try:
                    unit_problems += checks.FILE_CHECKS[spec["type"]](path, spec, rng, oracles)
                    header, rows, _ = checks.read_csv(path)
                except (OSError, ValueError, IndexError, KeyError) as error:
                    unit_problems.append(f"{name}: unreadable output ({type(error).__name__}: {error})")
                    continue
                content = checks.payload(path)
                produced[name] = hashlib.sha256(content).hexdigest()
                totals["rows"] += len(rows)
                totals["bytes"] += len(content)
                if "wv" in header:
                    column = header.index("wv")
                    nan_rows = sum(1 for row in rows if math.isnan(float(row[column])))
                    totals["nan_wv_rows"] += nan_rows
                    if spec["type"] == "mc":
                        totals["mc_trials"] += len(rows)
                        totals["mc_postselected"] += len(rows) - nan_rows
                if digests is not None and digests.get(name) != produced[name]:
                    unit_problems.append(f"{name}: sha256 differs from the recorded digest")
            if unit_problems:
                failed += 1
                problems += unit_problems
    return failed, problems, known, totals, produced


def main(root: str, workload: str, seed: int, trace: bool, out_dir: str, setup_s: float) -> None:
    from lgi_weaksim import cli, experiment, optics, qcore, stats

    oracles = load_module("oracles", os.path.join(root, "tests", "oracles.py"))
    script = load_module("reproduce_datasets", os.path.join(root, "scripts", "reproduce_datasets.py"))
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "digests.json"), encoding="utf-8") as stream:
        recorded = json.load(stream)
    # outputs are compared byte for byte at the default seed; the dataset
    # script takes no seed, so its outputs are compared on every run
    digests = recorded.get(workload) if seed == 0 or workload == "reproduce" else None
    os.makedirs(out_dir)
    ops = workloads.build(workload, seed, out_dir, oracles, script)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"cli": cli, "experiment": experiment, "optics": optics, "qcore": qcore, "stats": stats})
    cache_before = experiment._gate_map.cache_info()
    probe = SpeedProbe()
    wall, raw_wall, latencies, outcomes = run_ops(ops, script, tracer, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache_after = experiment._gate_map.cache_info()
    if tracer is not None:
        tracer.uninstall()

    rng = random.Random(f"check:{workload}:{seed}")
    failed, problems, known, totals, produced = check_ops(ops, outcomes, out_dir, digests, oracles, rng)
    speed = probe.factor()
    result = {
        "speed_factor": speed,
        "setup_s": setup_s,
        "raw_wall_s": raw_wall,
        "wall_s": wall,
        "latencies_ms": [x * 1e3 for x in latencies],
        "attempted": sum(len(op.units) for op in ops),
        "failed": failed,
        "problems": problems[:20],
        "known_defects": known,
        "peak_rss_mb": peak_rss_mb,
        "digests": produced,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(speed)
        layers.update({
            "experiment.gate_map.hits": cache_after.hits - cache_before.hits,
            "experiment.gate_map.misses": cache_after.misses - cache_before.misses,
            "cli.rows_written": totals["rows"],
            "cli.bytes_written": totals["bytes"],
            "cli.nan_wv_rows": totals["nan_wv_rows"],
            "stats.postselected_trial_frac": (
                totals["mc_postselected"] / totals["mc_trials"] if totals["mc_trials"] else 0.0),
        })
        layers["experiment.run.calls_per_row"] = (
            layers["experiment.run.calls"] / totals["rows"] if totals["rows"] else 0.0)
        result["layers"] = layers
        tracer.dump(os.path.join(os.path.dirname(out_dir), f"trace_{workload}_seed{seed}.npz"))
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
