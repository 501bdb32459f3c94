"""Finite-statistics layer: count sampling, estimators, error propagation.

Counts are modeled as one multinomial draw over the four joint outcomes.
Every estimator propagates a first-order (delta-method) standard error by
treating each count as Poisson with variance equal to the observed count
(floored at 1 so empty cells still contribute). The estimators work on an
(n, 4) count matrix; the single-table entry points are one-row calls.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import experiment
from .errors import InsufficientPostselectionError, UndefinedSignificanceError, _require_count, _require_real
from .errors import _value_tuple

# Nominal 95% two-sided interval half-width in units of sigma.
COVERAGE_Z = 1.96
# The estimators hold counts as float64, which is exact only up to 2**53.
MAX_PAIRS = 2**53
# run_trials holds an (n_trials, 4) float count matrix: 32 MB at this bound.
# Seeding hashes each trial index as one uint32 word, which this bound keeps.
MAX_TRIALS = 1_000_000


def _require_counts(counts) -> tuple[int, int, int, int]:
    """Coincidence counts (n_dd, n_da, n_ad, n_aa), first index the meter, as four ints;
    ValueError unless they are four nonnegative integers whose total lies in [1, 2**53]."""
    try:
        cells = tuple(counts)
    except TypeError:    # not iterable: a bare int, None
        cells = ()
    if len(cells) != 4:
        raise ValueError(f"counts must be four integers (n_dd, n_da, n_ad, n_aa), got {counts!r}")
    cells = tuple(_require_count(value, name) for value, name in zip(cells, ("n_dd", "n_da", "n_ad", "n_aa")))
    _require_count(sum(cells), "total count", 1, MAX_PAIRS)
    return cells


class EstimateWithError(_value_tuple("EstimateWithError", "value sigma")):
    """Point estimate with a one-sigma propagated standard error; ValueError unless finite with sigma >= 0."""

    __slots__ = ()

    def __new__(cls, value: float, sigma: float):
        return super().__new__(cls, _require_real(value, "estimate"), _require_real(sigma, "sigma", 0))


def _require_pairs(n_pairs: int) -> int:
    """n_pairs as an int; ValueError unless it is an integer in [1, 2**53]."""
    return _require_count(n_pairs, "n_pairs", 1, MAX_PAIRS)


class TrialPlan(_value_tuple("TrialPlan", "n_pairs n_trials master_seed")):
    """Monte Carlo schedule: pairs per trial, trial count, master seed.

    A validated named tuple. Raises ValueError unless each is an integer,
    1 <= n_pairs <= 2**53, 1 <= n_trials <= 10**6 and master_seed >= 0.
    """

    __slots__ = ()

    def __new__(cls, n_pairs: int, n_trials: int, master_seed: int = 0):
        return super().__new__(cls, _require_pairs(n_pairs), _require_count(n_trials, "n_trials", 1, MAX_TRIALS),
                               _require_count(master_seed, "master_seed"))


class TrialSummary(namedtuple("TrialSummary", "true_b b b_sigma wv wv_sigma mean_b mean_sigma spread coverage")):
    """Ensemble summary of repeated finite-count estimates of B.

    A named tuple; b, b_sigma, wv and wv_sigma are arrays indexed by trial,
    wv and wv_sigma NaN for trials whose post-selection retained no events.
    spread is the B estimates' sample standard deviation (ddof=1), coverage
    the fraction of trials whose 1.96-sigma interval covers true_b. Equality
    holds NaN equal to NaN; holding arrays, it has no hash.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialSummary):
            return NotImplemented
        return all(np.array_equal(mine, theirs, equal_nan=True) for mine, theirs in zip(self, other))

    def __ne__(self, other: object) -> bool:  # tuple's own would compare the arrays elementwise
        return not self == other


def sample_counts(
    table: experiment.ProbabilityTable,
    n_pairs: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[int, int, int, int]:
    """Draw one multinomial count table of n_pairs events, as (n_dd, n_da, n_ad, n_aa) Python ints.

    Raises ValueError unless n_pairs is an integer in [1, 2**53].
    """
    n_pairs = _require_pairs(n_pairs)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    return tuple(rng.multinomial(n_pairs, table.as_array()).tolist())


def _uint32_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, at least one."""
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hasher(hash_const: int, multiplier: int):
    """numpy's SeedSequence hashmix on uint32 columns: xor with the hash
    constant, step the constant, multiply by it, fold the high half down.
    The constant steps on every call, as numpy's does."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * multiplier) & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _seed_states(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence([master_seed, i]).generate_state(4, np.uint64)`` for
    each i of a uint32 index array, as an (len(indices), 4) uint64 array.

    numpy reads the seed list as the uint32 words of ``master_seed`` followed
    by the one word of i, so every row's entropy has the same length and its
    hash is the same sequence of uint32 operations: this is numpy's
    ``mix_entropy`` and ``generate_state`` run on columns.
    """
    entropy = [np.full(len(indices), word, dtype=np.uint32) for word in _uint32_words(master_seed)]
    entropy.append(indices)
    zero = np.zeros(len(indices), dtype=np.uint32)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        # the pool of 4 words takes the first entropy words, then hashed zeros
        pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        # entropy beyond the pool (master_seed >= 2**96) is mixed into every word
        for word in entropy[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        # generate_state: 8 uint32 words cycling over the pool, paired
        # little-endian into 4 uint64 words
        output = _hasher(0x8B51F9DD, 0x58F38DED)
        state = np.column_stack([output(pool[dst % 4]) for dst in range(8)])
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _draw_counts(states: np.ndarray, n_pairs: int, probs: np.ndarray) -> np.ndarray:
    """One ``multinomial(n_pairs, probs)`` row, as floats, per row of seed
    words from ``_seed_states``: what a PCG64 seeded with those words draws."""
    # imported here so that numpy.random loads on the first draw, not with the CLI
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands the row in ``words`` to PCG64, whose seeding step asks for 4 uint64 words."""

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    # one seed object per call, handed each row in turn: PCG64 copies the
    # words out while it is built, so no row outlives its own trial
    seed = SeedWords()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    counts = np.empty((len(states), 4))
    for index, words in enumerate(states):
        seed.words = words
        counts[index] = generator(pcg64(seed)).multinomial(n_pairs, probs)
    return counts


def _sample_trials(table: experiment.ProbabilityTable, plan: TrialPlan) -> np.ndarray:
    """The (n_trials, 4) count matrix of a plan, as floats.

    Row i is what ``sample_counts`` draws from ``default_rng([master_seed, i])``,
    with the seeding done for all trials at once.
    """
    indices = np.arange(plan.n_trials, dtype=np.uint32)
    return _draw_counts(_seed_states(plan.master_seed, indices), plan.n_pairs, table.as_array())


def _lg_arrays(counts: np.ndarray, knowledge: float, mb_sign: int) -> tuple[np.ndarray, np.ndarray]:
    """B and its delta-method sigma for each row of an (n, 4) count matrix.

    B = c @ n / N with c = Mb (2, 0, -2, 0) / K - (1, -1, 1, -1), linear in
    the count fractions, so the delta method is exact up to the 1/N
    normalization: dB/dn_i = (c_i - B)/N. Both 4-term sums are stacked
    matmuls, which make one BLAS dot call per row; gemv, einsum or a
    written-out sum add in another order and move the last bit of some rows.
    """
    two = 2.0 * mb_sign / knowledge
    coeff = np.array([two - 1.0, 1.0, -two - 1.0, 1.0])
    total = counts.sum(axis=1)
    value = (counts[:, None, :] @ coeff[:, None])[:, 0, 0] / total
    gradient = (coeff - value[:, None]) / total[:, None]
    variance = ((gradient**2)[:, None, :] @ np.maximum(counts, 1.0)[:, :, None])[:, 0, 0]
    return value, np.sqrt(variance)


def _weak_value_arrays(
    counts: np.ndarray, knowledge: float, mb_sign: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weak value and sigma for each row from the signal-D post-selected meter
    counts; NaN (0/0) in rows where no event survived the post-selection."""
    n_dd, n_ad = counts[:, 0], counts[:, 2]
    retained = n_dd + n_ad
    # subtract in mb_sign's order rather than multiply by it, so that a zero
    # contrast is 0.0: -0.0 would print as "-0"
    contrast = n_dd - n_ad if mb_sign > 0 else n_ad - n_dd
    with np.errstate(divide="ignore", invalid="ignore"):
        value = contrast / (knowledge * retained)
        # dwv/dn_dd = 2 n_ad / (K M^2), dwv/dn_ad = -2 n_dd / (K M^2)
        scale = knowledge * retained**2
        # float_power squares through libm pow, as a Python float's ** does,
        # and mc files carry its last bit; x * x (what ** and np.power compute
        # here) differs in ~0.1 % of squares
        variance = (np.float_power(2.0 * n_ad / scale, 2.0) * np.maximum(n_dd, 1.0)
                    + np.float_power(2.0 * n_dd / scale, 2.0) * np.maximum(n_ad, 1.0))
    return value, np.sqrt(variance)


def _significances(values, sigmas, bound: float):
    """(value - bound) / sigma elementwise; NaN where sigma is not positive."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sigmas > 0.0, (values - bound) / sigmas, np.nan)


def estimate_lg(counts, knowledge: float, mb_sign: int = +1) -> EstimateWithError:
    """Correlator estimate B = mb*s1 + mb*s1s2 - s2 from raw counts (n_dd, n_da, n_ad, n_aa)."""
    counts = _require_counts(counts)
    experiment._require_strength(knowledge)
    mb_sign = experiment._require_sign(mb_sign)
    value, sigma = _lg_arrays(np.array([counts], dtype=float), knowledge, mb_sign)
    return EstimateWithError(value=float(value[0]), sigma=float(sigma[0]))


def estimate_weak_value(counts, knowledge: float, mb_sign: int = +1) -> EstimateWithError:
    """Weak-value estimate from the signal-D post-selected meter counts, n_dd and n_ad."""
    counts = _require_counts(counts)
    experiment._require_strength(knowledge)
    mb_sign = experiment._require_sign(mb_sign)
    if counts[0] + counts[2] == 0:
        raise InsufficientPostselectionError(
            "no events survived the signal-D post-selection; weak value is undefined"
        )
    value, sigma = _weak_value_arrays(np.array([counts], dtype=float), knowledge, mb_sign)
    return EstimateWithError(value=float(value[0]), sigma=float(sigma[0]))


def significance(estimate: EstimateWithError, bound: float = 1.0) -> float:
    """Signed distance of the estimate from a finite real bound in units of sigma; ValueError otherwise."""
    bound = _require_real(bound, "bound")
    if estimate.sigma <= 0.0:
        raise UndefinedSignificanceError(
            f"significance requires sigma > 0, got {estimate.sigma!r}"
        )
    return float(_significances(estimate.value, estimate.sigma, bound))


def run_trials(plan: TrialPlan, config: experiment.ExperimentConfig) -> TrialSummary:
    """Repeat the finite-count experiment and summarize the B estimates.

    Trial i draws from ``default_rng([master_seed, i])`` so any single trial
    can be reproduced without regenerating the ensemble.
    """
    knowledge = config.knowledge
    table = experiment.run(config)
    true_b = experiment._table_estimates(table, knowledge, config.mb_sign).b
    counts = _sample_trials(table, plan)
    b, b_sigma = _lg_arrays(counts, knowledge, config.mb_sign)
    wv, wv_sigma = _weak_value_arrays(counts, knowledge, config.mb_sign)
    spread = float(b.std(ddof=1)) if plan.n_trials > 1 else 0.0
    covered = np.abs(b - true_b) <= COVERAGE_Z * b_sigma
    return TrialSummary(
        true_b=true_b,
        b=b,
        b_sigma=b_sigma,
        wv=wv,
        wv_sigma=wv_sigma,
        mean_b=float(b.mean()),
        mean_sigma=float(b_sigma.mean()),
        spread=spread,
        coverage=float(covered.mean()),
    )
