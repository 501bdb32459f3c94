"""Acceptance gate: nine end-to-end checks at fixed tolerances and budgets.

Each test prints one ``criterion N PASS/FAIL`` line (visible under -rP) and
then asserts the same conditions, so a red criterion still reports itself.
Benchmark values 1.312 +/- 0.022 and 1.436 +/- 0.053 are the published
experimental one-sigma bands the simulation is expected to land inside.
"""

import math
import time

import numpy as np

from lgi_weaksim import experiment, optics, stats

TWO_PI = 2.0 * math.pi
K_STRONG = 0.5445
K_WEAK = 0.1598
SQRT2 = math.sqrt(2.0)

BENCH_STRONG = (1.312, 0.022)
BENCH_WEAK = (1.436, 0.053)


def _report(number, ok, detail):
    print(f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}")


def _visibility_ratio(knowledge):
    config = experiment.ExperimentConfig(theta=math.pi / 2.0, knowledge=knowledge)
    return experiment.s2_mean(experiment.run(config)) / math.sin(math.pi / 2.0)


def test_criterion_1_s2_visibility_factor():
    start = time.perf_counter()
    ratio_strong = _visibility_ratio(K_STRONG)
    ratio_weak = _visibility_ratio(K_WEAK)
    formula_strong = math.sqrt(1.0 - K_STRONG**2)
    formula_weak = math.sqrt(1.0 - K_WEAK**2)
    elapsed = time.perf_counter() - start

    checks = [
        abs(ratio_strong - formula_strong) < 1e-12,
        abs(ratio_weak - formula_weak) < 1e-12,
        abs(ratio_strong - 0.8388) < 5e-3,
        abs(ratio_weak - 0.9871) < 5e-3,
        abs(ratio_strong - 0.84) < 5e-3,
        elapsed < 1.0,
    ]
    _report(
        1,
        all(checks),
        f"s2 attenuation {ratio_strong:.4f}/{ratio_weak:.4f} matches "
        f"sqrt(1-k^2) ({elapsed * 1e3:.1f} ms)",
    )
    assert all(checks)


def test_criterion_2_b_ceiling_inside_benchmark_bands():
    start = time.perf_counter()
    _, b_strong = experiment.b_max(K_STRONG)
    _, b_weak = experiment.b_max(K_WEAK)
    elapsed = time.perf_counter() - start

    checks = [
        abs(b_strong - math.sqrt(2.0 - K_STRONG**2)) < 1e-9,
        abs(b_weak - math.sqrt(2.0 - K_WEAK**2)) < 1e-9,
        abs(b_strong - BENCH_STRONG[0]) <= BENCH_STRONG[1],
        abs(b_weak - BENCH_WEAK[0]) <= BENCH_WEAK[1],
        elapsed < 1.0,
    ]
    _report(
        2,
        all(checks),
        f"b_max {b_strong:.6f}/{b_weak:.6f} = sqrt(2-k^2) inside "
        f"{BENCH_STRONG[0]}+/-{BENCH_STRONG[1]} and {BENCH_WEAK[0]}+/-{BENCH_WEAK[1]} "
        f"({elapsed * 1e3:.1f} ms)",
    )
    assert all(checks)


def test_criterion_3_benchmark_significance_arithmetic():
    start = time.perf_counter()
    sig = stats.significance(stats.EstimateWithError(*BENCH_STRONG))
    elapsed = time.perf_counter() - start

    checks = [
        round(sig, 2) == 14.18,
        round(sig) == 14,
        abs(sig - (BENCH_STRONG[0] - 1.0) / BENCH_STRONG[1]) < 1e-12,
        elapsed < 1.0,
    ]
    _report(
        3,
        all(checks),
        f"(1.312-1)/0.022 = {sig:.2f}, rounds to 14 sigma ({elapsed * 1e3:.2f} ms)",
    )
    assert all(checks)


def test_criterion_4_violation_matches_strange_weak_value():
    start = time.perf_counter()
    grid = experiment.ThetaGrid(0.0, TWO_PI, 1024)
    ok_plus = ok_minus = True
    violations = 0
    for knowledge in (0.05, 0.1598, 0.3, 0.5445, 0.8):
        for mb_sign in (+1, -1):
            sweep = experiment.theta_sweep(knowledge, mb_sign, experiment.IDEAL_GATE, grid)
            b, wv = sweep.b, sweep.wv
            clear = (np.abs(b - 1.0) > 1e-9) & (np.abs(np.abs(wv) - 1.0) > 1e-9)
            strange = wv < -1.0 if mb_sign < 0 else wv > 1.0
            agree = bool(((b > 1.0) == strange)[clear].all())
            if mb_sign > 0:
                ok_plus &= agree
            else:
                ok_minus &= agree
            violations += int((b[clear] > 1.0).sum())
    elapsed = time.perf_counter() - start

    checks = [ok_plus, ok_minus, violations > 0, elapsed < 5.0]
    _report(
        4,
        all(checks),
        f"b > 1 iff wv strange on 1024 angles x 5 strengths x both signs, "
        f"{violations} violating rows ({elapsed:.2f} s)",
    )
    assert all(checks)


def test_criterion_5_correlator_bounds():
    start = time.perf_counter()
    grid = experiment.ThetaGrid(0.0, TWO_PI, 256)
    lo = hi = hi_ideal = 0.0
    for knowledge in (0.05, 0.1598, 0.3, 0.5445, 0.8, 1.0):
        for mb_sign in (+1, -1):
            gates = [experiment.IDEAL_GATE] + [
                experiment.GateModel(kind="ppbs", visibility=xi)
                for xi in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            for gate in gates:
                b = experiment.theta_sweep(knowledge, mb_sign, gate, grid).b
                lo = min(lo, float(b.min()))
                hi = max(hi, float(b.max()))
                if gate.kind == "ideal":
                    hi_ideal = max(hi_ideal, float(b.max()))
    elapsed = time.perf_counter() - start

    checks = [
        lo >= -3.0 - 1e-9,
        hi <= 1.5 + 1e-9,
        hi_ideal <= SQRT2 + 1e-9,
        elapsed < 10.0,
    ]
    _report(
        5,
        all(checks),
        f"b in [{lo:.6f}, {hi:.6f}] within [-3, 1.5], ideal max {hi_ideal:.6f} "
        f"<= sqrt(2) ({elapsed:.2f} s)",
    )
    assert all(checks)


def test_criterion_6_gentler_measurement_violates_more():
    start = time.perf_counter()
    lo_w, hi_w = experiment.violation_interval(K_WEAK)
    lo_s, hi_s = experiment.violation_interval(K_STRONG)
    width_weak, width_strong = hi_w - lo_w, hi_s - lo_s
    ladder = [experiment.b_max(k)[1] for k in (0.05, 0.16, 0.3, 0.54, 0.8, 1.0)]
    decreasing = all(a > b for a, b in zip(ladder, ladder[1:]))
    elapsed = time.perf_counter() - start

    checks = [width_weak > width_strong, decreasing, elapsed < 1.0]
    _report(
        6,
        all(checks),
        f"violation width {width_weak:.4f} (k={K_WEAK}) > {width_strong:.4f} "
        f"(k={K_STRONG}); b_max strictly decreasing over 6 strengths "
        f"({elapsed * 1e3:.0f} ms)",
    )
    assert all(checks)


def _sweep_columns(theta, config):
    table = experiment.run(config)
    record = experiment.lg_b(config)
    return (
        theta, config.knowledge, float(config.mb_sign),
        table.p_dd, table.p_da, table.p_ad, table.p_aa,
        record.s1, record.s2, record.s1s2, record.b,
        experiment.weak_value(config), table.postselect_d,
    )


def test_criterion_7_perfect_interference_reproduces_ideal_gate():
    start = time.perf_counter()
    ppbs = experiment.GateModel(kind="ppbs", visibility=1.0)
    worst = 0.0
    for theta in np.linspace(0.0, TWO_PI, 256):
        ideal_row = _sweep_columns(
            theta, experiment.ExperimentConfig(theta=theta, knowledge=K_STRONG)
        )
        ppbs_row = _sweep_columns(
            theta, experiment.ExperimentConfig(theta=theta, knowledge=K_STRONG, gate_model=ppbs)
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(ideal_row, ppbs_row)))
    success = optics.success_probability(1.0)
    elapsed = time.perf_counter() - start

    checks = [
        worst < 1e-9,
        abs(success - 1.0 / 9.0) < 1e-12,
        elapsed < 5.0,
    ]
    _report(
        7,
        all(checks),
        f"xi=1 gate matches ideal on 13 columns x 256 angles, worst {worst:.2e}; "
        f"success {success:.12f} ({elapsed:.2f} s)",
    )
    assert all(checks)


def test_criterion_8_propagated_errors_are_calibrated():
    start = time.perf_counter()
    config = experiment.ExperimentConfig(theta=7.0 * math.pi / 4.0, knowledge=K_STRONG)
    plan = stats.TrialPlan(n_pairs=100_000, n_trials=300, master_seed=0)
    summary = stats.run_trials(plan, config)
    ratio = summary.spread / summary.mean_sigma
    elapsed = time.perf_counter() - start

    checks = [
        abs(ratio - 1.0) <= 0.2,
        0.90 <= summary.coverage <= 0.99,
        elapsed < 30.0,
    ]
    _report(
        8,
        all(checks),
        f"spread/sigma = {ratio:.3f}, coverage = {summary.coverage:.3f} over "
        f"300 trials of 1e5 pairs ({elapsed:.2f} s)",
    )
    assert all(checks)


def test_criterion_9_weak_limit_recovers_textbook_weak_value():
    start = time.perf_counter()
    grid = experiment.ThetaGrid(0.0, TWO_PI, 1024)
    thetas = grid.values()
    wv = experiment.theta_sweep(1e-6, +1, experiment.IDEAL_GATE, grid).wv
    keep = np.abs(thetas - 1.5 * math.pi) > 0.1
    half = thetas[keep] / 2.0
    aav = (np.cos(half) - np.sin(half)) / (np.cos(half) + np.sin(half))
    worst = float(np.abs(wv[keep] - aav).max())
    elapsed = time.perf_counter() - start

    checks = [np.isfinite(wv[keep]).all(), worst < 1e-4, elapsed < 1.0]
    _report(
        9,
        all(checks),
        f"k=1e-6 weak value within {worst:.2e} of (1-tan(t/2))/(1+tan(t/2)) "
        f"away from the pole ({elapsed * 1e3:.1f} ms)",
    )
    assert all(checks)
