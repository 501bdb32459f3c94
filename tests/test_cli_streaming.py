"""Every command writes its CSV through one streaming writer, a block of rows at a time.

The bytes must not depend on the blocks: each file is compared with a
reference built here in one piece, from one engine call over all angles (one
``run_trials`` for mc), each cell formatted with the same ``%.9g``. Memory
must not grow with a sweep's length, and a failure partway through the
stream must leave every target as it was and no temp file behind.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lgi_weaksim import cli, experiment, stats

B = cli._BLOCK_ROWS
EDGE_STEPS = [2, B - 1, B, B + 1, 2 * B + 1]
EDGE_TRIALS = [1, B - 1, B + 1]


def cells(*values):
    return ",".join("%.9g" % value for value in values)


def whole_file(argv, resolved, header, rows, trailer=()):
    """A file's text in one piece: the manifest of ``argv``, the header, the rows and the trailer."""
    manifest = cli._manifest(cli.build_parser().parse_args([*argv, "--quiet"]), **resolved)
    return "".join(line + "\n" for line in [*manifest, ",".join(header), *rows, *trailer]).encode()


def sweep_rows(k, mb_sign, gate_model, steps, degrees):
    thetas = np.linspace(0.0, 2.0 * math.pi, steps)
    probs = experiment._probability_matrix(thetas, k, gate_model)
    est = experiment._estimates(*probs.T, k, mb_sign)
    values = np.column_stack([probs, est.s1, est.s2, est.s1s2, est.b, est.wv, est.psel])
    angles = np.degrees(thetas) if degrees else thetas
    return [f"{cells(angle, k)},{mb_sign},{cells(*row)}" for angle, row in zip(angles, values)]


def sweep_header(degrees):
    return ["theta_deg" if degrees else "theta_rad", *cli._SWEEP_COLUMNS[1:]]


@pytest.mark.parametrize("steps", EDGE_STEPS)
@pytest.mark.parametrize("flags,k,mb_sign,gate_model", [
    ((), 0.5445, +1, experiment.IDEAL_GATE),
    # the 1/K terms show the last bit of each probability
    (("--gate", "ppbs", "--visibility", "0.3", "--mb-sign=-"), 1e-9, -1,
     experiment.GateModel(kind="ppbs", visibility=0.3)),
    (("--degrees",), 0.1598, +1, experiment.IDEAL_GATE),
], ids=["ideal", "ppbs", "degrees"])
def test_sweep_bytes_equal_a_one_piece_reference_at_block_edges(flags, k, mb_sign, gate_model, steps, tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--k", repr(k), "--theta-steps", str(steps), *flags, "--out", str(out)]
    assert cli.main([*argv, "--quiet"]) == 0
    degrees = "--degrees" in flags
    expected = whole_file(argv, {"visibility": gate_model.visibility}, sweep_header(degrees),
                          sweep_rows(k, mb_sign, gate_model, steps, degrees))
    assert out.read_bytes() == expected


@pytest.mark.parametrize("steps", EDGE_STEPS)
@pytest.mark.parametrize("k,degrees", [(0.5445, False), (1e-9, True)])
def test_fig2_bytes_equal_a_one_piece_reference_at_block_edges(k, degrees, steps, tmp_path):
    prefix = tmp_path / "fig2"
    argv = ["fig2", "--k", repr(k), "--theta-steps", str(steps), *(["--degrees"] if degrees else []),
            "--out-prefix", str(prefix)]
    assert cli.main([*argv, "--quiet"]) == 0
    for suffix, mb_sign in (("a", +1), ("b", -1)):
        path = f"{prefix}_{suffix}.csv"
        expected = whole_file(argv, {"mb_sign": mb_sign, "gate": "ideal", "out": path}, sweep_header(degrees),
                              sweep_rows(k, mb_sign, experiment.IDEAL_GATE, steps, degrees))
        assert (tmp_path / f"fig2_{suffix}.csv").read_bytes() == expected, suffix


def interval_line(label, interval):
    if interval is None:
        return f"# violation_interval k={label} none"
    lo, hi = interval
    return "# violation_interval k=%s lo=%.9g hi=%.9g width=%.9g" % (label, lo, hi, hi - lo)


@pytest.mark.parametrize("steps", EDGE_STEPS)
@pytest.mark.parametrize("k_list,mb_sign,degrees", [
    ([0.5445, 0.1598], +1, False),
    ([1e-9, 1.0], -1, True),
])
def test_fig3_bytes_equal_a_one_piece_reference_at_block_edges(k_list, mb_sign, degrees, steps, tmp_path):
    out = tmp_path / "fig3.csv"
    argv = ["fig3", "--k-list", ",".join(map(repr, k_list)), "--theta-steps", str(steps),
            f"--mb-sign={'+' if mb_sign > 0 else '-'}", *(["--degrees"] if degrees else []), "--out", str(out)]
    assert cli.main([*argv, "--quiet"]) == 0
    thetas = np.linspace(0.0, 2.0 * math.pi, steps)
    columns = [np.degrees(thetas) if degrees else thetas]
    for k in k_list:
        probs = experiment._probability_matrix(thetas, k, experiment.IDEAL_GATE)
        columns.append(experiment._lg_terms(*probs.T, k, mb_sign)[3])
    columns.append(mb_sign * np.cos(thetas) - np.sin(thetas))
    header = ["theta_deg" if degrees else "theta_rad", *(f"b_k{k:g}" for k in k_list), "b_k0"]
    trailer = [interval_line(f"{k:g}", experiment.violation_interval(k, mb_sign=mb_sign)) for k in k_list]
    trailer.append(interval_line("0", (1.5 * math.pi, 2.0 * math.pi) if mb_sign > 0 else (math.pi, 1.5 * math.pi)))
    rows = [cells(*row) for row in zip(*columns)]
    assert out.read_bytes() == whole_file(argv, {}, header, rows, trailer)


@pytest.mark.parametrize("trials", EDGE_TRIALS)
def test_mc_bytes_equal_a_one_piece_reference_at_block_edges(trials, tmp_path):
    out = tmp_path / "mc.csv"
    argv = ["mc", "--k", "0.1598", "--theta", repr(1.5 * math.pi), "--pairs", "100", "--trials", str(trials),
            "--seed", "3", "--out", str(out)]
    assert cli.main([*argv, "--quiet"]) == 0
    summary = stats.run_trials(stats.TrialPlan(n_pairs=100, n_trials=trials, master_seed=3),
                               experiment.ExperimentConfig(theta=1.5 * math.pi, knowledge=0.1598))
    significance = stats._significances(summary.b, summary.b_sigma, bound=1.0)
    rows = [f"{index},{cells(*row)}" for index, row in
            enumerate(zip(summary.b, summary.b_sigma, significance, summary.wv, summary.wv_sigma))]
    trailer = ["# summary %s=%.9g" % (name, getattr(summary, name))
               for name in ("true_b", "mean_b", "mean_sigma", "spread", "coverage")]
    header = ["trial", "b", "b_sigma", "b_significance", "wv", "wv_sigma"]
    assert out.read_bytes() == whole_file(argv, {}, header, rows, trailer)


# tracemalloc peaks of cli.main, with numpy loaded and each command run once:
# after streaming, 1.2 MB for both sweeps and 15.2 MB for mc, whose ensemble
# arrays stay whole; with the whole text in memory, 78.3 MB and 31.6 MB. Each
# bound is about 2.5 times the sweeps' figure and 1.5 times mc's
@pytest.mark.parametrize("argv,bound_mb", [
    (["sweep", "--gate", "ppbs", "--theta-steps", "100000", "--out", "{dir}/sweep.csv"], 3.0),
    (["fig2", "--theta-steps", "100000", "--out-prefix", "{dir}/fig2"], 3.0),
    (["mc", "--theta", "5.5", "--trials", "100000", "--pairs", "10", "--out", "{dir}/mc.csv"], 23.0),
], ids=["sweep-ppbs", "fig2", "mc"])
def test_peak_memory_stays_bounded_at_scale(argv, bound_mb, tmp_path):
    argv = [arg.format(dir=tmp_path) for arg in argv] + ["--quiet"]
    # a small run first, so that imports and the module's constant arrays are not counted
    assert cli.main(["4" if arg == "100000" else arg for arg in argv]) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < bound_mb


def fail_on_call(monkeypatch, module, name, call, exc):
    """Make ``module.name`` raise ``exc`` on its ``call``-th call."""
    original, calls = getattr(module, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)
    return calls


def assert_untouched(directory, before):
    assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
    assert not list(directory.glob(".lgi-weaksim-*.tmp"))


@pytest.fixture
def existing(tmp_path):
    """Targets that already exist, with their bytes."""
    files = {"sweep.csv": b"old sweep\n", "fig2_a.csv": b"old a\n", "fig2_b.csv": b"old b\n", "mc.csv": b"old mc\n"}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return files


@pytest.mark.parametrize("argv", [
    ["sweep", "--gate", "ppbs", "--theta-steps", str(2 * B + 1), "--out", "{dir}/sweep.csv"],
    ["fig2", "--theta-steps", str(2 * B + 1), "--out-prefix", "{dir}/fig2"],
], ids=["sweep", "fig2"])
def test_a_failure_in_the_second_block_leaves_every_target_as_it_was(argv, tmp_path, existing, monkeypatch,
                                                                      capsys):
    # one engine call per block, so its second call makes the second block
    calls = fail_on_call(monkeypatch, experiment, "_probability_matrix", 2, RuntimeError("engine failed"))
    assert cli.main([arg.format(dir=tmp_path) for arg in argv] + ["--quiet"]) == 1
    assert len(calls) == 2
    assert "error: engine failed" in capsys.readouterr().err
    assert_untouched(tmp_path, existing)


def test_an_interrupt_mid_stream_removes_every_temp_file(tmp_path, existing, monkeypatch):
    fail_on_call(monkeypatch, experiment, "_probability_matrix", 2, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        cli.main(["fig2", "--theta-steps", str(B + 1), "--out-prefix", str(tmp_path / "fig2"), "--quiet"])
    assert_untouched(tmp_path, existing)


class FailingStream:
    """A text stream whose ``fail_at``-th write raises ENOSPC, as a full disk would."""

    def __init__(self, stream, fail_at):
        self.stream, self.fail_at, self.writes = stream, fail_at, 0

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        return self.stream.write(text)

    def close(self):
        self.stream.close()


def test_a_failed_write_of_mc_rows_leaves_the_target_as_it_was(tmp_path, existing, monkeypatch, capsys):
    # the head is the first write and each block of rows one more: the third is the second block
    streams = []

    def opening(*args, **kwargs):
        streams.append(FailingStream(open(*args, **kwargs), fail_at=3))
        return streams[-1]

    monkeypatch.setattr(cli, "open", opening, raising=False)
    out = tmp_path / "mc.csv"
    assert cli.main(["mc", "--theta", "5.5", "--trials", str(2 * B + 1), "--pairs", "10", "--out", str(out),
                     "--quiet"]) == 1
    assert [stream.writes for stream in streams] == [3]
    err = capsys.readouterr().err
    assert "No space left on device" in err and str(out) in err and ".lgi-weaksim-" not in err
    assert_untouched(tmp_path, existing)
