import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from lgi_weaksim import experiment, stats
from lgi_weaksim.errors import (
    InsufficientPostselectionError,
    UndefinedSignificanceError,
    ZeroStrengthError,
)

K_STRONG = 0.5445
K_WEAK = 0.1598
THETA_CORNER = 7.0 * math.pi / 4.0
TWO_PI = 2.0 * math.pi

# frozen closed-form values
B_7PI4_WEAK = 1.4051268238787324
WV_5PI4_WEAK = -2.3415685845195924
WV_SIGMA_FROZEN = 0.06123724356957945   # sqrt(3.75e-3)

counts_cells = st.integers(0, 10_000)
strengths = st.floats(0.01, 1.0)


def config_for(theta, knowledge, **kwargs):
    return experiment.ExperimentConfig(theta=theta, knowledge=knowledge, **kwargs)


def plugin_counts(theta, knowledge, n_pairs=10**8):
    # counts proportional to the exact table, up to integer rounding
    table = experiment.run(config_for(theta, knowledge))
    return stats.CountTable(*(round(p * n_pairs) for p in table.as_array()))


def test_count_table_total_and_array():
    table = stats.CountTable(3, 5, 7, 11)
    assert table.total == 26
    np.testing.assert_array_equal(table.as_array(), [3.0, 5.0, 7.0, 11.0])


def test_count_table_validation():
    with pytest.raises(ValueError):
        stats.CountTable(-1, 2, 3, 4)
    with pytest.raises(ValueError):
        stats.CountTable(0, 0, 0, 0)


@pytest.mark.parametrize("cells", [
    (math.nan, 0.5, 0.25, 0.25), (0.25, math.inf, 0.25, 0.25),
    ("0.25", 0.25, 0.25, 0.25), (0.25, None, 0.25, 0.25), (0.25, 0.25, 0.25 + 0j, 0.25),
    (0.25, 0.25, 0.25, -math.inf), (10**400, 0.25, 0.25, 0.25),
], ids=["nan", "inf", "str", "none", "complex", "minus_inf", "huge_int"])
def test_probability_table_rejects_non_finite_entries(cells):
    # NaN passes every range comparison; the sampler would then leak numpy's own error
    with pytest.raises(ValueError, match="p_[ad]{2} must be a finite real number"):
        experiment.ProbabilityTable(*cells)


@pytest.mark.parametrize("build", [
    lambda value: stats.EstimateWithError(value=value, sigma=0.1),
    lambda value: stats.EstimateWithError(value=1.0, sigma=value),
    lambda value: stats.significance(stats.EstimateWithError(1.2, 0.1), bound=value),
], ids=["value", "sigma", "significance_bound"])
@pytest.mark.parametrize("value", ["1", None, 1j, math.nan, math.inf, -math.inf, 10**400],
                         ids=["str", "none", "complex", "nan", "inf", "minus_inf", "huge_int"])
def test_estimates_and_bounds_that_are_not_finite_reals_are_rejected(build, value):
    # a str used to leak a TypeError, 10**400 an OverflowError; a NaN bound returned NaN
    with pytest.raises(ValueError, match="must be a finite real number"):
        build(value)


def test_checked_numbers_are_held_as_floats_and_ints():
    for table in (experiment.ProbabilityTable(np.float64(0.25), np.float32(0.25), 0.25, np.int8(0) + 0.25),
                  experiment.ProbabilityTable(True, False, 0, np.int64(0))):
        assert all(type(p) is float for p in (table.p_dd, table.p_da, table.p_ad, table.p_aa))
    estimate = stats.EstimateWithError(np.float32(1.5), True)
    assert (type(estimate.value), type(estimate.sigma)) == (float, float)
    assert estimate == stats.EstimateWithError(1.5, 1.0)
    assert type(stats.significance(estimate, bound=np.float32(1.0))) is float
    plan = stats.TrialPlan(n_pairs=True, n_trials=np.int8(3), master_seed=False)
    assert plan == stats.TrialPlan(n_pairs=1, n_trials=3, master_seed=0)
    assert all(type(n) is int for n in (plan.n_pairs, plan.n_trials, plan.master_seed))
    assert type(experiment.GateModel(kind="ppbs", visibility=np.float32(0.5)).visibility) is float


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        stats.EstimateWithError(value=math.nan, sigma=0.1)
    with pytest.raises(ValueError):
        stats.EstimateWithError(value=math.inf, sigma=0.1)
    with pytest.raises(ValueError):
        stats.EstimateWithError(value=1.0, sigma=-0.1)
    with pytest.raises(ValueError):
        stats.EstimateWithError(value=1.0, sigma=math.nan)


def test_trial_plan_validation():
    with pytest.raises(ValueError):
        stats.TrialPlan(n_pairs=0, n_trials=10)
    with pytest.raises(ValueError):
        stats.TrialPlan(n_pairs=10, n_trials=0)
    with pytest.raises(ValueError):
        stats.TrialPlan(n_pairs=10, n_trials=10, master_seed=-1)


COUNT_PARAMETERS = {
    "n_trials": lambda n: stats.TrialPlan(n_pairs=1000, n_trials=n),
    "n_pairs": lambda n: stats.TrialPlan(n_pairs=n, n_trials=3),
    "master_seed": lambda n: stats.TrialPlan(n_pairs=1000, n_trials=3, master_seed=n),
    "grid_steps": lambda n: experiment.ThetaGrid(0.0, 1.0, n),
    "n_da": lambda n: stats.CountTable(1, n, 1, 1),
}
NOT_INTEGERS = {"1": "str", None: "none", 1j: "complex", math.nan: "nan", math.inf: "inf", -math.inf: "minus_inf"}


@pytest.mark.parametrize("run", [
    # np.arange(2.5) would run 3 trials
    lambda: stats.run_trials(stats.TrialPlan(n_pairs=1000, n_trials=2.5), config_for(THETA_CORNER, K_STRONG)),
    # the multinomial would draw 1000 pairs
    lambda: stats.TrialPlan(n_pairs=1000.5, n_trials=3),
    # the seed's word split would raise TypeError
    lambda: stats.TrialPlan(n_pairs=1000, n_trials=3, master_seed=1.5),
    # np.linspace would raise TypeError
    lambda: experiment.theta_sweep(0.5, grid=experiment.ThetaGrid(0.0, 1.0, 3.0)),
    # NaN passes every range comparison
    lambda: stats.CountTable(math.nan, 1, 1, 1),
    lambda: stats.CountTable(2.5, 1, 1, 1),
] + [functools.partial(build, value) for build in COUNT_PARAMETERS.values() for value in NOT_INTEGERS] + [
    # integers, but beyond what float64 counts hold exactly
    lambda: stats.TrialPlan(n_pairs=10**400, n_trials=3),
    lambda: stats.TrialPlan(n_pairs=1000, n_trials=10**400),
    lambda: stats.CountTable(10**400, 1, 1, 1),
    # one past stats.MAX_TRIALS, written out so that a looser bound fails here:
    # run_trials would fill a count matrix of 32 bytes per trial
    lambda: stats.TrialPlan(n_pairs=1000, n_trials=1_000_001),
], ids=["n_trials", "n_pairs", "master_seed", "grid_steps", "count_nan", "count_half"]
    + [f"{name}_{kind}" for name in COUNT_PARAMETERS for kind in NOT_INTEGERS.values()]
    + ["n_pairs_huge_int", "n_trials_huge_int", "count_huge_int", "n_trials_above_bound"])
def test_counts_that_are_not_integers_are_rejected(run):
    with pytest.raises(ValueError, match="must be an integer"):
        run()


def test_numpy_integer_counts_are_accepted_as_ints():
    plan = stats.TrialPlan(n_pairs=np.int64(1000), n_trials=np.uint32(3), master_seed=np.uint64(2**64 - 1))
    assert plan == stats.TrialPlan(n_pairs=1000, n_trials=3, master_seed=2**64 - 1)
    assert type(plan.master_seed) is int
    grid = experiment.ThetaGrid(0.0, 1.0, np.int32(3))
    assert type(grid.steps) is int and len(experiment.theta_sweep(0.5, grid=grid).b) == 3
    table = stats.CountTable(np.int64(3), np.uint8(5), 7, np.int32(11))
    assert table == stats.CountTable(3, 5, 7, 11)
    assert all(type(c) is int for c in (table.n_dd, table.n_da, table.n_ad, table.n_aa))


def test_sample_counts_degenerate_table_lands_in_one_cell():
    table = experiment.ProbabilityTable(1.0, 0.0, 0.0, 0.0)
    counts = stats.sample_counts(table, 500, rng=0)
    assert (counts.n_dd, counts.n_da, counts.n_ad, counts.n_aa) == (500, 0, 0, 0)


def test_sample_counts_total_and_seed_determinism():
    table = experiment.run(config_for(THETA_CORNER, K_STRONG))
    first = stats.sample_counts(table, 12_345, rng=42)
    second = stats.sample_counts(table, 12_345, rng=42)
    assert first == second
    assert first.total == 12_345
    other = stats.sample_counts(table, 12_345, rng=43)
    assert other != first
    assert other.total == 12_345


def test_sample_counts_accepts_generator_and_rejects_zero_pairs():
    table = experiment.ProbabilityTable(0.25, 0.25, 0.25, 0.25)
    rng = np.random.default_rng(7)
    counts = stats.sample_counts(table, 100, rng=rng)
    assert counts.total == 100
    with pytest.raises(ValueError):
        stats.sample_counts(table, 0)


@pytest.mark.parametrize("n_pairs", [2.5, 3.0, stats.MAX_PAIRS + 1])
def test_sample_counts_takes_the_trial_plans_pairs_domain(n_pairs):
    # numpy's multinomial would truncate 2.5 and draw 2 pairs
    table = experiment.ProbabilityTable(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="n_pairs"):
        stats.sample_counts(table, n_pairs, rng=0)
    with pytest.raises(ValueError, match="n_pairs"):
        stats.TrialPlan(n_pairs=n_pairs, n_trials=1)


def test_sample_counts_uniform_cells_within_five_sigma():
    table = experiment.ProbabilityTable(0.25, 0.25, 0.25, 0.25)
    n_pairs = 4_000_000
    counts = stats.sample_counts(table, n_pairs, rng=2024)
    sigma = math.sqrt(n_pairs * 0.25 * 0.75)
    for cell in counts.as_array():
        assert abs(cell - n_pairs / 4) < 5.0 * sigma


def test_estimate_lg_recovers_closed_form_from_plugin_counts():
    counts = plugin_counts(THETA_CORNER, K_WEAK)
    estimate = stats.estimate_lg(counts, K_WEAK)
    assert estimate.value == pytest.approx(B_7PI4_WEAK, abs=1e-6)
    assert estimate.sigma < 1e-3


def test_estimate_lg_concentrated_counts():
    # every event in the (D, D) cell pushes both s1 and s1s2 to 1/k
    counts = stats.CountTable(5000, 0, 0, 0)
    estimate = stats.estimate_lg(counts, K_STRONG)
    assert estimate.value == pytest.approx(2.0 / K_STRONG - 1.0, abs=1e-12)
    assert math.isfinite(estimate.sigma) and estimate.sigma > 0.0


@given(counts_cells, counts_cells, counts_cells, counts_cells, strengths, st.sampled_from([+1, -1]))
@settings(deadline=None)
def test_estimate_lg_matches_count_oracle(n_dd, n_da, n_ad, n_aa, knowledge, mb_sign):
    assume(n_dd + n_da + n_ad + n_aa > 0)
    counts = stats.CountTable(n_dd, n_da, n_ad, n_aa)
    estimate = stats.estimate_lg(counts, knowledge, mb_sign)
    expected = oracles.b_from_count_vector(counts.as_array(), knowledge, mb_sign)
    assert estimate.value == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_estimate_lg_sigma_matches_numerical_propagation():
    vec = (321, 98, 145, 67)
    counts = stats.CountTable(*vec)
    for mb_sign in (+1, -1):
        estimate = stats.estimate_lg(counts, K_STRONG, mb_sign)
        expected = oracles.finite_difference_sigma(
            lambda n: oracles.b_from_count_vector(n, K_STRONG, mb_sign), vec
        )
        assert estimate.sigma == pytest.approx(expected, rel=1e-8)


def test_estimate_lg_validation():
    counts = stats.CountTable(10, 10, 10, 10)
    with pytest.raises(ZeroStrengthError):
        stats.estimate_lg(counts, 0.0)
    with pytest.raises(ValueError):
        stats.estimate_lg(counts, K_STRONG, mb_sign=2)


@pytest.mark.parametrize("knowledge", [math.nan, math.inf, 2.0, 1.0 + 1e-15, 10**400])
@pytest.mark.parametrize("estimator", [
    lambda k: config_for(1.0, k),
    lambda k: stats.estimate_lg(stats.CountTable(5, 3, 2, 1), k),
    lambda k: stats.estimate_weak_value(stats.CountTable(5, 3, 2, 1), k),
], ids=["ExperimentConfig", "estimate_lg", "estimate_weak_value"])
def test_strength_outside_the_domain_is_rejected(estimator, knowledge):
    # outside [1e-9, 1] the 1/K calibration describes no meter, yet each of
    # these returns a number unless the strength is checked
    with pytest.raises(ValueError, match=r"\[1e-09, 1\]"):
        estimator(knowledge)
    with pytest.raises(ZeroStrengthError):
        estimator(-math.inf)


def test_estimate_weak_value_balanced_counts_is_zero():
    counts = stats.CountTable(250, 40, 250, 60)
    assert stats.estimate_weak_value(counts, K_STRONG).value == 0.0


def test_estimate_weak_value_frozen_example():
    counts = stats.CountTable(600, 100, 200, 100)
    estimate = stats.estimate_weak_value(counts, 0.5)
    assert estimate.value == pytest.approx(1.0, abs=1e-15)
    assert estimate.sigma == pytest.approx(WV_SIGMA_FROZEN, abs=1e-15)


def test_estimate_weak_value_sign_convention():
    counts = stats.CountTable(600, 100, 200, 100)
    plus = stats.estimate_weak_value(counts, 0.5, mb_sign=+1)
    minus = stats.estimate_weak_value(counts, 0.5, mb_sign=-1)
    assert minus.value == -plus.value
    assert minus.sigma == plus.sigma


def test_estimate_weak_value_strange_amplification_from_plugin_counts():
    counts = plugin_counts(5.0 * math.pi / 4.0, K_WEAK)
    estimate = stats.estimate_weak_value(counts, K_WEAK)
    assert estimate.value < -1.0
    assert estimate.value == pytest.approx(WV_5PI4_WEAK, abs=1e-5)


def test_estimate_weak_value_sigma_matches_numerical_propagation():
    vec = (321, 98, 145, 67)
    estimate = stats.estimate_weak_value(stats.CountTable(*vec), K_STRONG)
    expected = oracles.finite_difference_sigma(
        lambda n: oracles.wv_from_count_vector(n, K_STRONG), vec
    )
    assert estimate.sigma == pytest.approx(expected, rel=1e-8)


def _variance_cases(count=400, seed=2024):
    # K log-uniform over the whole domain plus both ends, both gates, both signs
    rng = np.random.default_rng(seed)
    strengths = np.concatenate([[1e-9, 1.0], 10.0 ** rng.uniform(-9.0, 0.0, count - 2)])
    return [
        (float(knowledge), float(rng.uniform(0.0, TWO_PI)), None if index % 4 < 2 else float(rng.uniform()),
         (+1, -1)[index % 2])
        for index, knowledge in enumerate(strengths)
    ]


def test_sigmas_at_expected_counts_equal_the_exact_per_pair_variances():
    # at counts N p the delta-method sigmas are exact: sqrt(V1 / N) for B and the
    # binomial sqrt(V_wv / N) for the weak value. N makes every count at least
    # 1e6, so the floor of 1 on each Poisson variance never acts
    for knowledge, theta, xi, mb_sign in _variance_cases():
        if xi is None:
            probs = np.array(oracles.probability_table(theta, knowledge))
        else:
            probs = np.array(oracles.ppbs_probability_table(theta, knowledge, xi))
        counts = probs * (1e6 / probs.min())
        n_pairs = counts.sum()
        _, b_sigma = stats._lg_arrays(counts[None], knowledge, mb_sign)
        _, wv_sigma = stats._weak_value_arrays(counts[None], knowledge, mb_sign)
        case = (knowledge, theta, xi, mb_sign)
        v1 = oracles.b_variance_per_pair(probs, knowledge, mb_sign)
        assert b_sigma[0] == pytest.approx(math.sqrt(v1 / n_pairs), rel=1e-12), case
        v_wv = oracles.wv_variance_per_pair(probs, knowledge)
        assert wv_sigma[0] == pytest.approx(math.sqrt(v_wv / n_pairs), rel=1e-12), case


def test_paper_bands_match_the_exact_variance_at_the_peak():
    # V1 at the ideal peak theta*, and the pairs that make sqrt(V1 / N) the
    # paper's one-sigma bands 0.022 (K = 0.5445) and 0.053 (K = 0.1598)
    for knowledge, v1, band, pairs in ((K_STRONG, 0.874, 0.022, 1805), (K_WEAK, 21.61, 0.053, 7692)):
        probs = oracles.probability_table(oracles.theta_at_ceiling(knowledge), knowledge)
        exact = oracles.b_variance_per_pair(probs, knowledge)
        assert exact == pytest.approx(v1, rel=1e-3)
        assert math.floor(exact / band**2) == pairs


def test_estimate_weak_value_sigma_grows_as_postselection_shrinks():
    # same totals and same 3:1 conditional split, smaller retained fraction
    wide = stats.estimate_weak_value(stats.CountTable(300, 400, 100, 200), K_STRONG)
    narrow = stats.estimate_weak_value(stats.CountTable(30, 670, 10, 290), K_STRONG)
    assert narrow.sigma > wide.sigma


def test_estimate_weak_value_empty_postselection_raises():
    with pytest.raises(InsufficientPostselectionError):
        stats.estimate_weak_value(stats.CountTable(0, 5, 0, 7), K_STRONG)


def test_significance_frozen_examples():
    assert stats.significance(
        stats.EstimateWithError(1.312, 0.022)
    ) == pytest.approx(14.181818181818182, abs=1e-12)
    assert stats.significance(
        stats.EstimateWithError(1.436, 0.053)
    ) == pytest.approx(8.226415094339622, abs=1e-12)


def test_significance_custom_bound_and_zero_sigma():
    estimate = stats.EstimateWithError(1.0, 0.04)
    assert stats.significance(estimate) == 0.0
    assert stats.significance(estimate, bound=0.8) == pytest.approx(5.0, abs=1e-12)
    with pytest.raises(UndefinedSignificanceError):
        stats.significance(stats.EstimateWithError(1.2, 0.0))


def test_run_trials_single_trial_matches_manual_draw():
    config = config_for(THETA_CORNER, K_STRONG)
    summary = stats.run_trials(stats.TrialPlan(n_pairs=2000, n_trials=1, master_seed=3), config)
    table = experiment.run(config)
    counts = stats.sample_counts(table, 2000, np.random.default_rng([3, 0]))
    b, wv = stats.estimate_lg(counts, K_STRONG), stats.estimate_weak_value(counts, K_STRONG)
    assert (summary.b.tolist(), summary.b_sigma.tolist()) == ([b.value], [b.sigma])
    assert (summary.wv.tolist(), summary.wv_sigma.tolist()) == ([wv.value], [wv.sigma])
    assert summary.mean_b == b.value
    assert summary.spread == 0.0
    assert summary.coverage in (0.0, 1.0)


def test_run_trials_is_deterministic():
    config = config_for(THETA_CORNER, K_STRONG)
    plan = stats.TrialPlan(n_pairs=1000, n_trials=25, master_seed=11)
    assert stats.run_trials(plan, config) == stats.run_trials(plan, config)


def test_run_trials_any_trial_reproducible_in_isolation():
    config = config_for(THETA_CORNER, K_STRONG)
    plan = stats.TrialPlan(n_pairs=1500, n_trials=10, master_seed=5)
    summary = stats.run_trials(plan, config)
    table = experiment.run(config)
    for index in (0, 4, 9):
        rng = np.random.default_rng([5, index])
        counts = stats.sample_counts(table, 1500, rng)
        estimate = stats.estimate_lg(counts, K_STRONG)
        assert (summary.b[index], summary.b_sigma[index]) == (estimate.value, estimate.sigma)


def test_run_trials_ensemble_statistics():
    config = config_for(THETA_CORNER, K_STRONG)
    plan = stats.TrialPlan(n_pairs=10_000, n_trials=200, master_seed=3)
    summary = stats.run_trials(plan, config)
    assert summary.true_b == pytest.approx(experiment.lg_b(config).b, abs=1e-15)
    # propagated sigma should track the observed trial-to-trial spread
    assert summary.spread / summary.mean_sigma == pytest.approx(1.0, abs=0.2)
    assert 0.90 <= summary.coverage <= 0.99
    assert abs(summary.mean_b - summary.true_b) < 3.0 * summary.spread / math.sqrt(200)


def test_run_trials_records_empty_postselection_as_none():
    # near theta = 3pi/2 at small k almost nothing survives the D branch
    config = config_for(3.0 * math.pi / 2.0, 0.01)
    plan = stats.TrialPlan(n_pairs=5, n_trials=20, master_seed=1)
    summary = stats.run_trials(plan, config)
    assert np.isnan(summary.wv).all() and np.isnan(summary.wv_sigma).all()
    assert np.isfinite(summary.b).all() and np.isfinite(summary.b_sigma).all()


def test_error_shrinks_with_sample_size():
    config = config_for(THETA_CORNER, K_STRONG)
    errors, sigmas = [], []
    for n_pairs in (10**3, 10**4, 10**5, 10**6):
        summary = stats.run_trials(
            stats.TrialPlan(n_pairs=n_pairs, n_trials=100, master_seed=0), config
        )
        errors.append(abs(summary.mean_b - summary.true_b))
        sigmas.append(summary.mean_sigma)
    # |mean - true| decreases along the ladder, allowing one lucky inversion
    inversions = sum(errors[i + 1] >= errors[i] for i in range(3))
    assert inversions <= 1
    # propagated error scales as 1/sqrt(n) within 10% between adjacent rungs
    for i in range(3):
        assert sigmas[i] / sigmas[i + 1] == pytest.approx(math.sqrt(10.0), rel=0.1)
