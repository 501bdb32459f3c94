"""Self-tests of the benchmark's checker and tracer.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import hashlib
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import passes  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

oracles = passes.load_module("oracles", os.path.join(ROOT, "tests", "oracles.py"))


def run_and_check(ops, out_dir, digests=None):
    _, _, latencies, outcomes = passes.run_ops(ops, script=None)
    assert len(latencies) == len(ops)
    return passes.check_ops(ops, outcomes, str(out_dir), digests, oracles, random.Random(0))


def gate_op(out_dir, visibility="0.9"):
    return workloads.cli_op(["gate", "--visibility", visibility, "--out", f"{out_dir}/g.csv"], str(out_dir))


def test_correct_outputs_pass(tmp_path):
    ops = [
        gate_op(tmp_path),
        workloads.cli_op(["sweep", "--k", "0.3", "--theta-steps", "64", "--gate", "ppbs", "--visibility", "0.7",
                          "--mb-sign=-", "--out", f"{tmp_path}/s.csv"], str(tmp_path)),
        workloads.cli_op(["mc", "--theta", "4.71238898038469", "--k", "0.1598", "--pairs", "100",
                          "--trials", "50", "--seed", "7", "--out", f"{tmp_path}/m.csv"], str(tmp_path)),
        workloads.cli_op(["fig3", "--k-list", "1e-09,0.5,1", "--out", f"{tmp_path}/f.csv"], str(tmp_path)),
    ]
    failed, problems, known, totals, _ = run_and_check(ops, tmp_path)
    assert (failed, problems, known) == (0, [], [])
    assert totals["rows"] == 1 + 64 + 50 + 256


def test_corrupted_csv_counts_as_failure(tmp_path):
    op = gate_op(tmp_path)
    _, _, _, outcomes = passes.run_ops([op], script=None)
    path = tmp_path / "g.csv"
    head, row = path.read_text().rstrip("\n").rsplit("\n", 1)
    fields = row.split(",")
    fields[3] = "%.9g" % (float(fields[3]) + 1e-3)
    path.write_text(head + "\n" + ",".join(fields) + "\n")
    failed, problems, _, _, _ = passes.check_ops([op], outcomes, str(tmp_path), None, oracles, random.Random(0))
    assert failed == 1 and "b_max" in problems[0]


def test_digest_mismatch_counts_as_failure(tmp_path):
    op = gate_op(tmp_path)
    _, _, _, outcomes = passes.run_ops([op], script=None)
    recorded = {"g.csv": hashlib.sha256(checks.payload(tmp_path / "g.csv")).hexdigest()}
    assert passes.check_ops([op], outcomes, str(tmp_path), recorded, oracles, random.Random(0))[0] == 0
    path = tmp_path / "g.csv"
    path.write_text(path.read_text().replace("# version=", "# version=x"))
    failed, problems, _, _, _ = passes.check_ops([op], outcomes, str(tmp_path), recorded, oracles, random.Random(0))
    assert failed == 1 and "digest" in problems[0]


def test_raised_exception_and_bad_exit_count_as_failures(tmp_path):
    unreachable = workloads.Op("fit_visibility", [5.0, 0.5445], [[(None, {"type": "fit", "target": 5.0, "k": 0.5445})]])
    bad_usage = gate_op(tmp_path, visibility="2")
    failed, problems, known, _, _ = run_and_check([unreachable, bad_usage], tmp_path)
    assert failed == 2
    assert "UnreachableTargetError" in problems[0]
    assert known == []


def test_known_defect_is_reported_not_failed(tmp_path):
    edge = workloads.Op("edge", [workloads.EDGE_KNOWLEDGE], [[(None, {"type": "edge", "k": workloads.EDGE_KNOWLEDGE})]])
    fig3 = workloads.cli_op(["fig3", "--k-list", "0.177992", "--out", f"{tmp_path}/f.csv"], str(tmp_path))
    failed, problems, known, _, _ = run_and_check([edge, fig3], tmp_path)
    if len(known) < 2:
        pytest.skip("violation_interval no longer raises at these strengths")
    assert failed == 0 and problems == []


def test_other_fig3_failure_counts(tmp_path):
    # a malformed K-list exits non-zero without meeting the known defect
    bad = workloads.Op("cli", ["fig3", "--k-list", "0.5,x", "--out", f"{tmp_path}/f.csv", "--quiet"],
                       [[("f.csv", {"type": "fig3", "k_list": [0.5], "mb_sign": 1, "steps": 256})]])
    failed, _, known, _, _ = run_and_check([bad], tmp_path)
    assert failed == 1 and known == []


def test_wrong_interval_counts_as_failure():
    spec = {"type": "edge", "k": 0.5}
    assert checks.check_edge((0.0, 0.1), spec, oracles)
    assert checks.check_edge(None, spec, oracles)


def test_tracer_counts_match_the_code(tmp_path):
    from lgi_weaksim import cli, experiment, optics, qcore, stats

    experiment._gate_map.cache_clear()
    tracer = Tracer()
    tracer.install({"cli": cli, "experiment": experiment, "optics": optics, "qcore": qcore, "stats": stats})
    try:
        ops = [gate_op(tmp_path, "0.123"), gate_op(tmp_path, "0.123"),
               workloads.cli_op(["sweep", "--theta-steps", "32", "--out", f"{tmp_path}/s.csv"], str(tmp_path))]
        _, _, _, outcomes = passes.run_ops(ops, script=None, tracer=tracer)
    finally:
        tracer.uninstall()
    assert all(exc is None for _, exc in outcomes)
    layers = tracer.layer_metrics()
    # two effective_map calls when the gate map misses, one when it hits
    assert layers["optics.effective_map.calls"] == 3
    assert layers["experiment.run.calls"] == 3 * 32
    assert layers["qcore.measure_joint.calls"] == 4 * 3 * 32
    assert layers["cli.main.calls"] == 3
    assert experiment.run.__module__ == "lgi_weaksim.experiment" and not hasattr(experiment.run, "__wrapped__")
