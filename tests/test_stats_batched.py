"""The batched Monte Carlo path against the per-trial scalar path, bit for bit.

`mc` files print nine significant digits, and at small K the estimators'
1/K brings the last bit of a count fraction into view, so the count matrix
and the array estimators must reproduce the per-trial path exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lgi_weaksim import experiment, stats

_S1_SIGN = np.array([+1.0, +1.0, -1.0, -1.0])
_S2_SIGN = np.array([+1.0, -1.0, +1.0, -1.0])
_PRODUCT_SIGN = _S1_SIGN * _S2_SIGN


def bits(*values):
    """Exact float identity: tells -0.0 from 0.0, and nan equals nan."""
    return [float(v).hex() for v in values]


def reference_estimate_lg(counts, knowledge, mb_sign, correlator_norm):
    """The scalar body `stats.estimate_lg` had before the estimators took arrays, on counts (n_dd, n_da, n_ad, n_aa)."""
    n = np.array(counts, dtype=float)
    total = sum(counts)
    product_scale = knowledge if correlator_norm == "k" else 1.0
    coeff = mb_sign * (_S1_SIGN / knowledge + _PRODUCT_SIGN / product_scale) - _S2_SIGN
    value = float(coeff @ n) / total
    gradient = (coeff - value) / total
    variance = float(gradient**2 @ np.maximum(n, 1.0))
    return value, math.sqrt(variance)


def reference_estimate_weak_value(counts, knowledge, mb_sign):
    """The scalar body `stats.estimate_weak_value` had; None for an empty branch."""
    n_dd, _, n_ad, _ = counts
    retained = n_dd + n_ad
    if retained == 0:
        return None
    value = mb_sign * (n_dd - n_ad) / (knowledge * retained)
    scale = knowledge * retained**2
    variance = (2.0 * n_ad / scale) ** 2 * max(n_dd, 1) + (
        2.0 * n_dd / scale
    ) ** 2 * max(n_ad, 1)
    return value, math.sqrt(variance)


@pytest.mark.parametrize("n_trials", [1, 2, 300])
@pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**96 + 3, 2**128 - 1])
def test_count_matrix_rows_equal_per_trial_draws(master_seed, n_trials):
    config = experiment.ExperimentConfig(theta=5.5, knowledge=0.1598)
    table = experiment.run(config)
    for n_pairs in (1, 100, 100_000):
        plan = stats.TrialPlan(n_pairs=n_pairs, n_trials=n_trials, master_seed=master_seed)
        matrix = stats._sample_trials(table, plan)
        assert matrix.shape == (n_trials, 4)
        for index in range(n_trials):
            rng = np.random.default_rng([master_seed, index])
            counts = stats.sample_counts(table, n_pairs, rng)
            assert matrix[index].tolist() == list(counts)


def test_back_to_back_ensembles_carry_no_row_over():
    # one seed object serves every trial of a call; a row left in it must not
    # reach the next trial, nor the next call in the same process
    table = experiment.run(experiment.ExperimentConfig(theta=5.5, knowledge=0.1598))
    probs = table.as_array()
    n_pairs = 1000
    matrices = []
    for master_seed, n_trials in ((3, 7), (2**40 + 1, 4), (3, 5)):
        plan = stats.TrialPlan(n_pairs=n_pairs, n_trials=n_trials, master_seed=master_seed)
        matrix = stats._sample_trials(table, plan)
        expected = [np.random.default_rng([master_seed, index]).multinomial(n_pairs, probs).tolist()
                    for index in range(n_trials)]
        assert matrix.tolist() == expected
        matrices.append(matrix)
    first, _, again = matrices
    assert bits(*first[:5].ravel()) == bits(*again.ravel())


# master_seed runs to 5 words, so the entropy holds up to 6 words and the
# words beyond SeedSequence's pool of 4 are mixed in as well
@given(
    st.one_of(st.integers(0, 2**32 - 1), st.integers(2**96, 2**160 - 1), st.integers(0, 2**160 - 1)),
    st.lists(st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
    st.sampled_from([1, 100, 100_000]),
)
@settings(deadline=None, max_examples=300)
def test_seeding_port_equals_numpy(master_seed, indices, n_pairs):
    states = stats._seed_states(master_seed, np.array(indices, dtype=np.uint32))
    probs = np.array([0.41, 0.09, 0.3, 0.2])
    rows = stats._draw_counts(states, n_pairs, probs)
    for state, row, index in zip(states.tolist(), rows.tolist(), indices):
        assert state == np.random.SeedSequence([master_seed, index]).generate_state(4, np.uint64).tolist()
        assert row == np.random.default_rng([master_seed, index]).multinomial(n_pairs, probs).tolist()


# zero cells are frequent, so empty rows and empty branches occur; the largest
# cells push the squared branch total past 2**53
cells = st.one_of(st.just(0), st.integers(0, 30), st.integers(0, 10**7), st.integers(0, 10**12))
count_rows = st.tuples(cells, cells, cells, cells).filter(lambda row: sum(row) > 0)
log_strengths = st.floats(-9.0, 0.0).map(lambda e: min(10.0**e, 1.0))


@given(st.lists(count_rows, min_size=1, max_size=40), log_strengths, st.sampled_from([+1, -1]))
@settings(deadline=None, max_examples=300)
def test_array_estimators_equal_frozen_scalar_bodies(rows, knowledge, mb_sign):
    matrix = np.array(rows, dtype=float)
    b, b_sigma = stats._lg_arrays(matrix, knowledge, mb_sign)
    wv, wv_sigma = stats._weak_value_arrays(matrix, knowledge, mb_sign)
    significance = stats._significances(b, b_sigma, 1.0)
    for i, row in enumerate(rows):
        counts = tuple(row)
        value, sigma = reference_estimate_lg(counts, knowledge, mb_sign, "k")
        assert bits(b[i], b_sigma[i]) == bits(value, sigma), row
        single = stats.estimate_lg(counts, knowledge, mb_sign)
        assert bits(single.value, single.sigma) == bits(value, sigma), row
        assert bits(significance[i]) == bits((value - 1.0) / sigma), row
        weak = reference_estimate_weak_value(counts, knowledge, mb_sign)
        if weak is None:
            assert bits(wv[i], wv_sigma[i]) == bits(math.nan, math.nan), row
        else:
            assert bits(wv[i], wv_sigma[i]) == bits(*weak), row
            single = stats.estimate_weak_value(counts, knowledge, mb_sign)
            assert bits(single.value, single.sigma) == bits(*weak), row


def test_array_estimators_equal_frozen_scalar_bodies_in_bulk():
    # libm pow and x * x disagree on ~0.1 % of squares, so this takes rows by
    # the thousand; hypothesis draws too few distinct large counts to see it
    rng = np.random.default_rng(2009)
    for knowledge in (1e-9, 3.7e-5, 0.1598, 0.5445, 1.0):
        mb_sign = int(rng.choice([1, -1]))
        scale = 10.0 ** rng.integers(0, 8, size=(4000, 1))
        matrix = np.floor(rng.random((4000, 4)) * scale)
        matrix[matrix.sum(axis=1) == 0, 1] = 1.0
        b, b_sigma = stats._lg_arrays(matrix, knowledge, mb_sign)
        wv, wv_sigma = stats._weak_value_arrays(matrix, knowledge, mb_sign)
        for i, row in enumerate(matrix.astype(int).tolist()):
            counts = tuple(row)
            assert bits(b[i], b_sigma[i]) == bits(*reference_estimate_lg(counts, knowledge, mb_sign, "k")), row
            weak = reference_estimate_weak_value(counts, knowledge, mb_sign)
            assert weak is None or bits(wv[i], wv_sigma[i]) == bits(*weak), row


def test_summary_views_and_equality():
    config = experiment.ExperimentConfig(theta=1.5 * math.pi, knowledge=0.1598)
    plan = stats.TrialPlan(n_pairs=100, n_trials=60, master_seed=4)
    summary = stats.run_trials(plan, config)
    empty = np.isnan(summary.wv)
    assert empty.any() and not empty.all()
    assert np.array_equal(np.isnan(summary.wv_sigma), empty)
    assert np.isfinite(summary.b).all() and np.isfinite(summary.b_sigma).all()
    assert summary == stats.run_trials(plan, config)
    assert summary != stats.run_trials(stats.TrialPlan(n_pairs=100, n_trials=60, master_seed=5), config)


def test_trial_plan_rejects_pairs_beyond_exact_float_counts():
    stats.TrialPlan(n_pairs=stats.MAX_PAIRS, n_trials=1)
    with pytest.raises(ValueError):
        stats.TrialPlan(n_pairs=stats.MAX_PAIRS + 1, n_trials=1)


def test_trial_plan_rejects_trial_indices_beyond_one_seed_word():
    # the trial bound keeps every index inside the one uint32 word it is hashed as
    assert stats.MAX_TRIALS < 2**32
    stats.TrialPlan(n_pairs=1, n_trials=stats.MAX_TRIALS)
    with pytest.raises(ValueError, match="n_trials"):
        stats.TrialPlan(n_pairs=1, n_trials=2**32 + 1)
