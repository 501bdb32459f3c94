import hashlib
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from lgi_weaksim import cli, experiment, optics

SQRT2 = math.sqrt(2.0)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def read_csv(path):
    """Split an emitted file into (manifest, header, rows, trailer)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    manifest, trailer, header, rows = [], [], None, []
    for line in lines:
        if line.startswith("#"):
            (manifest if header is None else trailer).append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return manifest, header, rows, trailer


def column(header, rows, name):
    index = header.index(name)
    return np.array([float(row[index]) for row in rows])


def test_sweep_manifest_header_and_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--k", 0.5445, "--theta-steps", 16, "--out", out, "--quiet") == 0
    manifest, header, rows, trailer = read_csv(out)
    assert manifest[0] == cli.MANIFEST_HEADER
    assert "# subcommand=sweep" in manifest
    assert "# k=0.5445" in manifest
    assert f"# out={out}" in manifest
    assert header == list(cli._SWEEP_COLUMNS)
    assert len(header) == 13
    assert len(rows) == 16
    assert all(len(row) == 13 for row in rows)
    assert trailer == []


def test_sweep_round_trip_recomputes_b(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--k", 0.1598, "--theta-steps", 64, "--mb-sign=-", "--out", out, "--quiet")
    _, header, rows, _ = read_csv(out)
    s1 = column(header, rows, "s1")
    s2 = column(header, rows, "s2")
    s1s2 = column(header, rows, "s1s2")
    b = column(header, rows, "b")
    mb = column(header, rows, "mb_sign")
    assert set(mb) == {-1.0}
    # 9 significant digits round-trip within 2e-8 on O(1) values
    np.testing.assert_allclose(mb * s1 + mb * s1s2 - s2, b, atol=2e-8)


def test_sweep_wv_column_is_sign_free(tmp_path):
    plus, minus = tmp_path / "plus.csv", tmp_path / "minus.csv"
    run_cli("sweep", "--theta-steps", 32, "--mb-sign=+", "--out", plus, "--quiet")
    run_cli("sweep", "--theta-steps", 32, "--mb-sign=-", "--out", minus, "--quiet")
    _, header, rows_plus, _ = read_csv(plus)
    _, _, rows_minus, _ = read_csv(minus)
    wv_index = header.index("wv")
    assert [r[wv_index] for r in rows_plus] == [r[wv_index] for r in rows_minus]
    assert float(rows_plus[0][wv_index]) == 1.0


def test_sweep_at_full_strength_never_violates(tmp_path):
    out = tmp_path / "strong.csv"
    run_cli("sweep", "--k", 1.0, "--theta-steps", 256, "--out", out, "--quiet")
    _, header, rows, _ = read_csv(out)
    assert column(header, rows, "b").max() <= 1.0 + 1e-9


def test_sweep_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "sweep.csv"
    args = ("sweep", "--k", 0.5445, "--theta-steps", 32, "--out", out, "--quiet")
    run_cli(*args)
    first = out.read_bytes()
    run_cli(*args)
    assert out.read_bytes() == first


def test_sweep_degrees_header_and_values(tmp_path):
    out = tmp_path / "deg.csv"
    run_cli("sweep", "--theta-steps", 9, "--degrees", "--out", out, "--quiet")
    _, header, rows, _ = read_csv(out)
    assert header[0] == "theta_deg"
    angles = column(header, rows, "theta_deg")
    np.testing.assert_allclose(angles, np.linspace(0.0, 360.0, 9), atol=1e-6)


def test_quiet_flag_controls_progress_line(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--theta-steps", 4, "--out", out)
    assert f"wrote {out}" in capsys.readouterr().out
    run_cli("sweep", "--theta-steps", 4, "--out", out, "--quiet")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--k", "1.5", "--out", "x.csv"),
        ("sweep", "--k", "0.0", "--out", "x.csv"),
        ("sweep", "--theta-steps", "1", "--out", "x.csv"),
        ("sweep", "--gate", "ideal", "--visibility", "0.5", "--out", "x.csv"),
        ("sweep", "--gate", "ppbs", "--visibility", "1.5", "--out", "x.csv"),
        ("fig3", "--k-list", "abc", "--out", "x.csv"),
        ("fig3", "--k-list", ",", "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--pairs", "0", "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--trials", "0", "--out", "x.csv"),
        ("fig3", "--k-list", "0.5,0.5", "--out", "x.csv"),
        ("fig3", "--k-list", "0.1234561,0.1234564", "--out", "x.csv"),  # both label b_k0.123456
        ("sweep", "--theta-steps", "100001", "--out", "x.csv"),
        ("fig2", "--theta-steps", "100001", "--out-prefix", "x"),
        ("fig3", "--theta-steps", "100001", "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--seed", "-1", "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--pairs", str(2**53 + 1), "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--trials", "1000001", "--out", "x.csv"),
        ("sweep", "--seed", "-1", "--out", "x.csv"),
        ("fig3", "--seed", "-1", "--out", "x.csv"),
        ("gate", "--seed", "-1", "--out", "x.csv"),
        ("fig2", "--seed", "1.5", "--out-prefix", "x"),
        # non-finite and out-of-range values
        ("gate", "--visibility", "1.5", "--out", "x.csv"),
        ("gate", "--visibility", "nan", "--out", "x.csv"),
        ("sweep", "--k", "nan", "--out", "x.csv"),
        ("sweep", "--gate", "ppbs", "--visibility", "nan", "--out", "x.csv"),
        ("fig3", "--k-list", "0.5,nan", "--out", "x.csv"),
        ("mc", "--theta", "0.5", "--k", "1e-10", "--out", "x.csv"),
        ("mc", "--theta", "inf", "--out", "x.csv"),
        ("mc", "--theta", "nan", "--out", "x.csv"),
    ],
)
def test_usage_errors_exit_two_without_output(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        run_cli(*argv)
    assert excinfo.value.code == 2
    assert not any(tmp_path.iterdir())
    capsys.readouterr()


def test_runtime_error_exits_one(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run_cli("sweep", "--theta-steps", 4, "--out", out, "--quiet") == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--version")
    assert excinfo.value.code == 0
    assert "lgi-weaksim" in capsys.readouterr().out


def test_fig2_pairs_violation_with_weak_value_regime(tmp_path):
    prefix = tmp_path / "fig2"
    assert run_cli("fig2", "--k", 0.5445, "--theta-steps", 128, "--out-prefix", prefix, "--quiet") == 0
    path_a, path_b = tmp_path / "fig2_a.csv", tmp_path / "fig2_b.csv"
    manifest_a, header, rows_a, _ = read_csv(path_a)
    manifest_b, _, rows_b, _ = read_csv(path_b)
    assert "# mb_sign=1" in manifest_a
    assert "# mb_sign=-1" in manifest_b
    # both files share one sign-free weak-value column
    wv_index = header.index("wv")
    assert [r[wv_index] for r in rows_a] == [r[wv_index] for r in rows_b]
    for rows, flipped in ((rows_a, False), (rows_b, True)):
        b = column(header, rows, "b")
        wv = column(header, rows, "wv")
        clear = (np.abs(b - 1.0) > 1e-9) & (np.abs(np.abs(wv) - 1.0) > 1e-9)
        strange = wv < -1.0 if flipped else wv > 1.0
        assert ((b > 1.0) == strange)[clear].all()
        assert (b > 1.0)[clear].any()


def _interval_widths(trailer):
    widths = {}
    for line in trailer:
        match = re.match(r"# violation_interval k=(\S+) lo=(\S+) hi=(\S+) width=(\S+)", line)
        if match:
            widths[match.group(1)] = float(match.group(4))
    return widths


def test_fig3_columns_limit_curve_and_interval_ordering(tmp_path):
    out = tmp_path / "fig3.csv"
    run_cli("fig3", "--k-list", "0.5445,0.1598", "--theta-steps", 257, "--out", out, "--quiet")
    _, header, rows, trailer = read_csv(out)
    assert header == ["theta_rad", "b_k0.5445", "b_k0.1598", "b_k0"]
    limit = column(header, rows, "b_k0")
    assert limit.max() == pytest.approx(SQRT2, abs=1e-8)
    for name in ("b_k0.5445", "b_k0.1598", "b_k0"):
        assert column(header, rows, name).max() <= 1.5 + 1e-9
    # weaker measurement widens the violation window, the k=0 limit caps it
    widths = _interval_widths(trailer)
    assert widths["0.5445"] < widths["0.1598"] < widths["0"]
    assert widths["0"] == pytest.approx(math.pi / 2.0, abs=1e-8)
    theta = column(header, rows, "theta_rad")
    np.testing.assert_allclose(
        column(header, rows, "b_k0"), np.cos(theta) - np.sin(theta), atol=2e-8
    )


def test_fig3_minus_sign_limit_interval(tmp_path):
    out = tmp_path / "fig3m.csv"
    run_cli("fig3", "--k-list", "0.5445", "--theta-steps", 64, "--mb-sign=-", "--out", out, "--quiet")
    _, _, _, trailer = read_csv(out)
    limit_line = [line for line in trailer if "k=0 " in line][0]
    match = re.match(r"# violation_interval k=0 lo=(\S+) hi=(\S+)", limit_line)
    assert float(match.group(1)) == pytest.approx(math.pi, abs=1e-8)
    assert float(match.group(2)) == pytest.approx(1.5 * math.pi, abs=1e-8)


def test_gate_endpoint_figures_of_merit(tmp_path):
    out = tmp_path / "gate.csv"
    run_cli("gate", "--visibility", 1.0, "--out", out, "--quiet")
    _, header, rows, _ = read_csv(out)
    assert header == ["visibility", "success_probability", "process_fidelity", "b_max"]
    assert column(header, rows, "success_probability")[0] == pytest.approx(1.0 / 9.0, abs=1e-9)
    assert column(header, rows, "process_fidelity")[0] == pytest.approx(1.0, abs=1e-9)
    assert column(header, rows, "b_max")[0] == pytest.approx(
        math.sqrt(2.0 - cli.GATE_REFERENCE_K**2), abs=1e-8
    )
    run_cli("gate", "--visibility", 0.0, "--out", out, "--quiet")
    _, header, rows, _ = read_csv(out)
    assert column(header, rows, "success_probability")[0] == pytest.approx(2.0 / 9.0, abs=1e-9)
    assert column(header, rows, "process_fidelity")[0] == pytest.approx(0.25, abs=1e-9)
    assert column(header, rows, "b_max")[0] == pytest.approx(1.0, abs=1e-8)


def test_gate_builds_the_ppbs_map_once(tmp_path, monkeypatch):
    built = []
    original = optics.effective_map

    def counting(visibility, *args):
        built.append(visibility)
        return original(visibility, *args)

    monkeypatch.setattr(optics, "effective_map", counting)
    experiment._gate_map.cache_clear()
    assert run_cli("gate", "--visibility", 0.3, "--out", tmp_path / "gate.csv", "--quiet") == 0
    assert experiment._gate_map.cache_info().misses == 1
    assert built == [0.3]


def test_mc_rerun_summary_and_error_columns(tmp_path):
    out = tmp_path / "mc.csv"
    args = (
        "mc", "--theta", 7.0 * math.pi / 4.0, "--k", 0.5445,
        "--pairs", 2000, "--trials", 25, "--seed", 9, "--out", out, "--quiet",
    )
    run_cli(*args)
    first = out.read_bytes()
    run_cli(*args)
    assert out.read_bytes() == first

    _, header, rows, trailer = read_csv(out)
    assert header == ["trial", "b", "b_sigma", "b_significance", "wv", "wv_sigma"]
    assert len(rows) == 25
    assert [row[0] for row in rows] == [str(i) for i in range(25)]
    b = column(header, rows, "b")
    sigma = column(header, rows, "b_sigma")
    significance = column(header, rows, "b_significance")
    np.testing.assert_allclose(significance, (b - 1.0) / sigma, rtol=1e-5)
    assert np.isfinite(column(header, rows, "wv")).all()

    summary = {}
    for line in trailer:
        match = re.match(r"# summary (\w+)=(\S+)", line)
        assert match, line
        summary[match.group(1)] = float(match.group(2))
    assert set(summary) == {"true_b", "mean_b", "mean_sigma", "spread", "coverage"}
    assert summary["mean_b"] == pytest.approx(b.mean(), abs=1e-6)
    assert summary["true_b"] == pytest.approx(
        experiment.b_max(0.5445)[1], abs=5e-3
    )  # theta sits near the optimum
    assert 0.0 <= summary["coverage"] <= 1.0


def _after_cli_import(probe):
    """What `probe` prints in a fresh interpreter that has imported the CLI."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, lgi_weaksim.cli; " + probe],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _loaded_by_cli_import(names):
    """Which of the named modules a fresh interpreter holds after importing the CLI."""
    return _after_cli_import(f"print([m for m in {list(names)!r} if m in sys.modules])")


def test_cli_import_leaves_scipy_unloaded():
    # every CLI invocation pays its import time; scipy alone cost about 0.5 s
    assert _loaded_by_cli_import(["scipy"]) == "[]"


def test_cli_import_leaves_process_pools_unloaded():
    # mc samples in-process; a worker pool's import and start-up would show in
    # every invocation's time
    assert _loaded_by_cli_import(["multiprocessing", "concurrent.futures"]) == "[]"


def test_cli_import_leaves_the_gate_channel_unbuilt():
    # the PPBS channel terms are built on first use, so the import and parser
    # build every invocation pays gain no work
    probe = "from lgi_weaksim import optics; lgi_weaksim.cli.build_parser(); print(optics._channel_terms.cache_info())"
    assert "currsize=0" in _after_cli_import(probe)


def test_cli_import_and_parser_leave_qcore_and_stats_unloaded():
    # no command loads qcore, and only mc samples, so only mc pays for the sampler
    probe = ("lgi_weaksim.cli.build_parser(); "
             "print([m for m in ('lgi_weaksim.qcore', 'lgi_weaksim.stats') if m in sys.modules])")
    assert _after_cli_import(probe) == "[]"


def test_mc_in_a_fresh_interpreter_matches_its_golden_digest(tmp_path):
    # mc loads stats on demand and never qcore; its bytes must not depend on who loaded stats first
    argv, digest = MC_GOLDEN[1]
    out = tmp_path / "mc.csv"
    probe = (f"code = lgi_weaksim.cli.main(['mc', *{list(argv)!r}, '--out', {str(out)!r}, '--quiet']); "
             "print([m for m in ('lgi_weaksim.qcore', 'lgi_weaksim.stats') if m in sys.modules]); sys.exit(code)")
    assert _after_cli_import(probe) == "['lgi_weaksim.stats']"
    assert body_digest(out) == digest


def test_build_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_mc_accepts_theta_far_outside_one_turn(tmp_path):
    assert run_cli("mc", "--theta", "1e300", "--trials", 3, "--pairs", 100, "--out", tmp_path / "mc.csv",
                   "--quiet") == 0
    _, header, rows, _ = read_csv(tmp_path / "mc.csv")
    assert len(rows) == 3 and np.isfinite(column(header, rows, "b")).all()


# sha256 of `mc` files without their `# out=` line, as the per-trial path
# wrote them; the batched path must keep every byte
MC_GOLDEN = [
    (("--k", "0.5445", "--theta", "5.497787", "--trials", "10000", "--pairs", "100000", "--seed", "7"),
     "d924981a457d4068f84cd05b2b01a9836e9d8f0bc155978650a6347b16210697"),
    # about half the trials keep no pair after post-selection: wv = nan
    (("--k", "0.1598", "--theta", repr(1.5 * math.pi), "--trials", "300", "--pairs", "100", "--seed", "3"),
     "42b4e2a3a1c1d2cd59223c9bbe20daadff2c32e16b0ed68f6489ddd607a08af2"),
    (("--k", "1e-09", "--theta", "5.5", "--trials", "50", "--pairs", "1000", "--seed", "11"),
     "3a20e41c7f12042c4badcf90e2e0a844d305aebff19b791374a93d6e487429d0"),
    # one trial: the spread = 0 branch
    (("--k", "0.5445", "--theta", "5.497787", "--trials", "1", "--pairs", "100000", "--seed", "0"),
     "4d920e5d3cfabba6967475fef725ee1feb312388d01e9850819a89d51c22e537"),
    (("--k", "0.3", "--theta", "-4.2", "--trials", "40", "--pairs", "5000", "--seed", str(2**32 + 17)),
     "e9d5fb1826fbca1f68c1fc22bd68930330e1494881b1c8f14ff43b899c9c4a7a"),
    (("--k", "0.9", "--theta", "13.0", "--trials", "25", "--pairs", "1", "--seed", str(2**64 + 5)),
     "a03a912bc40fd9da6edea078d3710b08b0335f5a736b5c94f17b1222a9c925da"),
]


def body_digest(path):
    """sha256 of an emitted file without its `# out=` line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if not line.startswith(b"# out="))).hexdigest()


@pytest.mark.parametrize("argv,digest", MC_GOLDEN)
def test_mc_bytes_match_golden_digests(argv, digest, tmp_path):
    out = tmp_path / "mc.csv"
    assert run_cli("mc", *argv, "--out", out, "--quiet") == 0
    assert body_digest(out) == digest


# sha256 of `gate` and `fig3` files without their `# out=` line, as the grid
# and golden-section search wrote them; the closed-form peak keeps every byte
GATE_FIG3_GOLDEN = [
    (("gate", "--visibility", "0"), "64d78ea1ab36a6df10fecd8355b4f218b5e1884a66b93543f916ee89f268876e"),
    (("gate", "--visibility", "0.123456"), "497143ae878abff13aaa6513b94d3ef49846f9399a70ca99ce642a24369e9932"),
    (("gate", "--visibility", "0.8"), "4bef78d40ebc2d75f0f4b002e71bfe7d9cc32cf31a41a68597212a06ea3d90f0"),
    (("gate", "--visibility", "1"), "a892fd6555b313fe164b5bac956e488123c96d80bacc7e360f636c30acf83e2e"),
    (("fig3",), "655072268bd0204a8580329d5611df9f75961103d86c7e074ae41541a318ac1a"),
    # the B = 1 crossing at theta = 0 sits on a search-grid point
    (("fig3", "--k-list", "0.177992", "--mb-sign=+"),
     "d25a3d7d4ce63817ea6f7d20b2900fa464860ae16575968eabd4153654e831a0"),
]


@pytest.mark.parametrize("argv,digest", GATE_FIG3_GOLDEN)
def test_gate_and_fig3_bytes_match_golden_digests(argv, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out, "--quiet") == 0
    assert body_digest(out) == digest


# sha256 of `sweep` and `fig3` files without their `# out=` line, as they were
# written while fig3 read its columns from theta_sweep's records; the shared
# batched path keeps every byte
SWEEP_FIG3_GOLDEN = [
    (("sweep",), "216344001adf510cc5d637d4a22db6cf8f5e68b4beb096bdcd4debbc294780d5"),
    (("sweep", "--gate", "ppbs", "--visibility", "0.7", "--mb-sign=-"),
     "e9512fe102161433d9debb377e1da991de603622d38a484c16a1c39f90b4c2df"),
    (("sweep", "--degrees"), "44e02994b04a493985f9c4ce5771f35ee9a44e19465d2e7c7758f5ec9da7b705"),
    # the 1/K terms show the last bit of each probability
    (("sweep", "--k", "1e-09", "--theta-steps", "64", "--gate", "ppbs", "--visibility", "0.3"),
     "64bddd1f21844900f196df407452f073bd82e4c3dd032ae62829cfd96eb9edcf"),
    (("fig3", "--degrees"), "804088509bd7c341f1f8884e3b3b5d17ba6101d0c05bc58c0551cad0ecf0b206"),
    (("fig3", "--k-list", "1e-09,1", "--theta-steps", "64", "--mb-sign=-"),
     "8dafed54a40696815836c906cf8a64ed98307ea6ba090802353ce396431cdc3f"),
]


@pytest.mark.parametrize("argv,digest", SWEEP_FIG3_GOLDEN)
def test_sweep_and_fig3_bytes_match_golden_digests(argv, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", out, "--quiet") == 0
    assert body_digest(out) == digest


def test_fig2_bytes_match_golden_digests(tmp_path):
    assert run_cli("fig2", "--out-prefix", tmp_path / "fig2", "--quiet") == 0
    assert [body_digest(tmp_path / f"fig2_{suffix}.csv") for suffix in "ab"] == [
        "5e9d6a6f6a1e54337b27658255a5fc723ee28d7ab991d033099581bb74cbe41d",
        "c9f6faee16ec19e6b2a03c2460bbb46590f8a3064433ac945184c5dab2af877b",
    ]


def test_one_process_reuses_the_parser_across_commands(tmp_path, capsys):
    # a usage error first, then every kind of command through the same parser
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as excinfo:
        run_cli("sweep", "--k", "1.5", "--out", tmp_path / "bad.csv")
    assert excinfo.value.code == 2
    capsys.readouterr()
    runs = [SWEEP_FIG3_GOLDEN[1], GATE_FIG3_GOLDEN[1], GATE_FIG3_GOLDEN[4], SWEEP_FIG3_GOLDEN[0],
            (("mc", *MC_GOLDEN[1][0]), MC_GOLDEN[1][1]), GATE_FIG3_GOLDEN[5]]
    for index, (argv, digest) in enumerate(runs):
        out = tmp_path / f"out{index}.csv"
        assert run_cli(*argv, "--out", out, "--quiet") == 0
        assert body_digest(out) == digest, argv
    assert not (tmp_path / "bad.csv").exists()


# sha256 of `fig2` pairs without their `# out=` line, as two sign-by-sign
# sweeps wrote them; one engine call for both signs keeps every byte
FIG2_GOLDEN = [
    (("--degrees",),
     ("fd3ea5361b6b2c37b071fd08e6ccd1806ada8cb8ad4512dd516b380c5e465b3c",
      "2576fd2dd6987cc7fabb8bbe6582edb88fcd40344231aaf696a6c6d4dc1e431e")),
    (("--k", "1e-09", "--theta-steps", "64"),
     ("0e6eebb6c1614c786e90b4b9485c294303bab446e1e128763be83b367a162a25",
      "380431bd7c162dfe88b479e5765992361b160f8130d18ffc17bfb7f92983237c")),
    (("--k", "1", "--theta-steps", "4096"),
     ("ed38ada51639d6d8888477e8895ad1c9e3fb99ca918b7f0a15193d18e61580e0",
      "5e0e21430bd5b1155118a0afa8bb982f32e67a19eeadc5a068e2c1d372cc7d2e")),
]


@pytest.mark.parametrize("argv,digests", FIG2_GOLDEN)
def test_fig2_pairs_match_golden_digests(argv, digests, tmp_path):
    assert run_cli("fig2", *argv, "--out-prefix", tmp_path / "fig2", "--quiet") == 0
    assert tuple(body_digest(tmp_path / f"fig2_{suffix}.csv") for suffix in "ab") == digests


@pytest.mark.parametrize("degrees", [(), ("--degrees",)])
@pytest.mark.parametrize("k", ["1e-09", "0.1598", "1"])
def test_fig2_files_equal_the_two_sign_sweeps(k, degrees, tmp_path):
    common = ("--k", k, "--theta-steps", 4096, *degrees, "--quiet")
    assert run_cli("fig2", *common, "--out-prefix", tmp_path / "fig2") == 0
    for suffix, sign in (("a", "+"), ("b", "-")):
        out = tmp_path / f"sweep{suffix}.csv"
        assert run_cli("sweep", *common, f"--mb-sign={sign}", "--out", out) == 0
        # the header and rows; the manifests differ in subcommand and out
        assert read_csv(tmp_path / f"fig2_{suffix}.csv")[1:3] == read_csv(out)[1:3]


@pytest.fixture
def umask_022():
    previous = os.umask(0o022)
    yield
    os.umask(previous)


def test_written_files_get_the_mode_open_would_give(tmp_path, umask_022):
    out = tmp_path / "gate.csv"
    for _ in range(2):  # a fresh file, then an overwritten one
        assert run_cli("gate", "--visibility", 0.9, "--out", out, "--quiet") == 0
        assert out.stat().st_mode & 0o777 == 0o644


def test_writes_never_touch_the_process_umask(tmp_path, monkeypatch):
    # the umask is process-global, and scripts call cli.main in-process
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    out = tmp_path / "gate.csv"
    assert run_cli("gate", "--visibility", 0.9, "--out", out, "--quiet") == 0
    assert out.exists() and [path.name for path in tmp_path.iterdir()] == ["gate.csv"]


def test_failed_write_names_the_given_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("fig2", "--theta-steps", 4, "--out-prefix", "nodir/x", "--quiet") == 1
    err = capsys.readouterr().err
    assert "nodir/x_a.csv" in err and ".lgi-weaksim-" not in err
    assert not any(tmp_path.iterdir())
