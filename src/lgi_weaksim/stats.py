"""Finite-statistics layer: count sampling, estimators, error propagation.

Counts are modeled as one multinomial draw over the four joint outcomes.
Every estimator propagates a first-order (delta-method) standard error by
treating each count as Poisson with variance equal to the observed count
(floored at 1 so empty cells still contribute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import experiment
from .errors import InsufficientPostselectionError, UndefinedSignificanceError

# Nominal 95% two-sided interval half-width in units of sigma.
COVERAGE_Z = 1.96

_S1_SIGN = np.array([+1.0, +1.0, -1.0, -1.0])   # meter D minus meter A
_S2_SIGN = np.array([+1.0, -1.0, +1.0, -1.0])   # signal D minus signal A
_PRODUCT_SIGN = _S1_SIGN * _S2_SIGN


@dataclass(frozen=True)
class CountTable:
    """Observed coincidence counts in the (meter, signal) D/A outcome order."""

    n_dd: int
    n_da: int
    n_ad: int
    n_aa: int

    def __post_init__(self) -> None:
        counts = (self.n_dd, self.n_da, self.n_ad, self.n_aa)
        if any(c < 0 for c in counts):
            raise ValueError(f"counts must be nonnegative, got {counts!r}")
        if sum(counts) == 0:
            raise ValueError("count table must contain at least one event")

    def as_array(self) -> np.ndarray:
        return np.array([self.n_dd, self.n_da, self.n_ad, self.n_aa], dtype=float)

    @property
    def total(self) -> int:
        return self.n_dd + self.n_da + self.n_ad + self.n_aa


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with a one-sigma propagated standard error."""

    value: float
    sigma: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"estimate must be finite, got {self.value!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma!r}")


@dataclass(frozen=True)
class TrialPlan:
    """Monte Carlo schedule: pairs per trial, trial count, master seed."""

    n_pairs: int
    n_trials: int
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be positive, got {self.n_pairs!r}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be positive, got {self.n_trials!r}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be nonnegative, got {self.master_seed!r}")


@dataclass(frozen=True)
class TrialSummary:
    """Ensemble summary of repeated finite-count estimates of B."""

    true_b: float
    estimates: tuple[EstimateWithError, ...]
    weak_values: tuple[EstimateWithError | None, ...]
    mean_b: float
    mean_sigma: float
    spread: float          # sample standard deviation of the B estimates (ddof=1)
    coverage: float        # fraction of trials whose 1.96-sigma interval covers true_b


def sample_counts(
    table: experiment.ProbabilityTable,
    n_pairs: int,
    rng: np.random.Generator | int | None = None,
) -> CountTable:
    """Draw one multinomial count table of n_pairs events."""
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs!r}")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    draw = rng.multinomial(n_pairs, table.as_array())
    return CountTable(*(int(c) for c in draw))


def _poisson_variances(counts: np.ndarray) -> np.ndarray:
    return np.maximum(counts, 1.0)


def estimate_lg(
    counts: CountTable,
    knowledge: float,
    mb_sign: int = +1,
    correlator_norm: str = "k",
) -> EstimateWithError:
    """Correlator estimate B = mb*s1 + mb*s1s2 - s2 from raw counts.

    The estimator is linear in the count fractions, so the delta method is
    exact up to the 1/N normalization: dB/dn_i = (c_i - B)/N with c_i the
    per-outcome coefficient.
    """
    experiment._require_strength(knowledge)
    if mb_sign not in (+1, -1):
        raise ValueError(f"mb_sign must be +1 or -1, got {mb_sign!r}")
    if correlator_norm not in ("k", "raw"):
        raise ValueError(f"correlator_norm must be 'k' or 'raw', got {correlator_norm!r}")
    n = counts.as_array()
    total = counts.total
    product_scale = knowledge if correlator_norm == "k" else 1.0
    coeff = mb_sign * (_S1_SIGN / knowledge + _PRODUCT_SIGN / product_scale) - _S2_SIGN
    value = float(coeff @ n) / total
    gradient = (coeff - value) / total
    variance = float(gradient**2 @ _poisson_variances(n))
    return EstimateWithError(value=value, sigma=math.sqrt(variance))


def estimate_weak_value(counts: CountTable, knowledge: float, mb_sign: int = +1) -> EstimateWithError:
    """Weak-value estimate from the signal-D post-selected meter counts."""
    experiment._require_strength(knowledge)
    if mb_sign not in (+1, -1):
        raise ValueError(f"mb_sign must be +1 or -1, got {mb_sign!r}")
    retained = counts.n_dd + counts.n_ad
    if retained == 0:
        raise InsufficientPostselectionError(
            "no events survived the signal-D post-selection; weak value is undefined"
        )
    value = mb_sign * (counts.n_dd - counts.n_ad) / (knowledge * retained)
    # dwv/dn_dd = 2 n_ad / (K M^2), dwv/dn_ad = -2 n_dd / (K M^2)
    scale = knowledge * retained**2
    variance = (2.0 * counts.n_ad / scale) ** 2 * max(counts.n_dd, 1) + (
        2.0 * counts.n_dd / scale
    ) ** 2 * max(counts.n_ad, 1)
    return EstimateWithError(value=value, sigma=math.sqrt(variance))


def significance(estimate: EstimateWithError, bound: float = 1.0) -> float:
    """Signed distance of the estimate from a bound in units of sigma."""
    if estimate.sigma <= 0.0:
        raise UndefinedSignificanceError(
            f"significance requires sigma > 0, got {estimate.sigma!r}"
        )
    return (estimate.value - bound) / estimate.sigma


def run_trials(plan: TrialPlan, config: experiment.ExperimentConfig) -> TrialSummary:
    """Repeat the finite-count experiment and summarize the B estimates.

    Trial i draws from ``default_rng([master_seed, i])`` so any single trial
    can be reproduced without regenerating the ensemble. Weak-value entries
    are None for trials whose post-selection retained no events.
    """
    knowledge = experiment._require_strength(config.meter.knowledge)
    table = experiment.run(config)
    true_b = experiment._table_estimates(
        table, knowledge, config.mb_sign, config.correlator_norm == "k"
    ).b
    estimates: list[EstimateWithError] = []
    weak_values: list[EstimateWithError | None] = []
    for index in range(plan.n_trials):
        rng = np.random.default_rng([plan.master_seed, index])
        counts = sample_counts(table, plan.n_pairs, rng)
        estimates.append(
            estimate_lg(counts, knowledge, config.mb_sign, config.correlator_norm)
        )
        try:
            weak_values.append(estimate_weak_value(counts, knowledge, config.mb_sign))
        except InsufficientPostselectionError:
            weak_values.append(None)
    values = np.array([e.value for e in estimates])
    sigmas = np.array([e.sigma for e in estimates])
    spread = float(values.std(ddof=1)) if plan.n_trials > 1 else 0.0
    covered = np.abs(values - true_b) <= COVERAGE_Z * sigmas
    return TrialSummary(
        true_b=true_b,
        estimates=tuple(estimates),
        weak_values=tuple(weak_values),
        mean_b=float(values.mean()),
        mean_sigma=float(sigmas.mean()),
        spread=spread,
        coverage=float(covered.mean()),
    )
