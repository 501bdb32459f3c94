"""Leggett-Garg protocol engine.

One run prepares the signal at angle theta, couples it to the meter through
the controlled-sign interaction (ideal unitary or the PPBS gate model with a
photon-visibility parameter), reads the meter out in the D/A basis (the
variable-strength S1 measurement) and the signal in the D/A basis (the
projective S2 measurement). All estimators below are functions of the four
joint outcome probabilities (p_dd, p_da, p_ad, p_aa), first index the meter.

Conventions: the three-time correlator is

    B = Mb * <S1> + Mb * <S1 S2> - <S2>,   Mb = mb_sign * S1,

with the preparation assigned the deterministic value 1 and both meter
terms calibrated by 1/K: <S1> = (p_dd + p_da - p_ad - p_aa) / K and
<S1 S2> = (p_dd - p_da - p_ad + p_aa) / K. The weak value is the
K-calibrated meter asymmetry on the signal-D post-selection,
wv = (p_dd - p_ad) / (K p_D) with p_D = p_dd + p_ad.

The paper's one-to-one correspondence between strange weak values and
violation is then an identity, for any gate channel and for count
estimators alike (p replaced by n / N):

    B - 1 = 2 p_D (mb_sign * wv - 1),

so wherever p_D > 0, B > 1 exactly when mb_sign * wv > 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cache, lru_cache
from types import SimpleNamespace

from . import optics
from .errors import DegenerateConditioningError, ZeroStrengthError, _real_or_nan, _require_count, _require_real
from .errors import _value_tuple

# Estimators divide by K; below this guard the calibration is undefined.
MIN_KNOWLEDGE = 1e-9
# Post-selection probabilities below this raise a degenerate-conditioning error.
MIN_POSTSELECTION = 1e-12
# theta_sweep returns each estimator as one array over the whole grid, so
# the grid size is bounded; the CLI streams its rows in blocks, and holds
# only the grid's angles whole.
MAX_THETA_STEPS = 100_000

_TWO_PI = 2.0 * math.pi
_SEARCH_GRID = 1024          # coarse grid for violation_interval
_GRID_SPACING = _TWO_PI / _SEARCH_GRID
_DECIDE_MARGIN = 2.0**10 * math.ulp(1.0)  # / K: over 16 times the engine's error from exact B, measured below 10 eps/K
_REFINE_XTOL = 1e-10         # bisection angular resolution
_BISECT_RTOL = 4.0 * math.ulp(1.0)      # scipy.optimize.bisect's default rtol, 4 eps
_PEAK_ROUNDOFF = 16.0 * math.ulp(1.0)   # / K bounds the engine's round-off in B at the peak, measured below 6 eps/K
_BMAX_ROUNDOFF = 4.0 * math.ulp(1.0)    # bounds b_max's round-off at every K, measured below 1.5 eps

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class GateModel(_value_tuple("GateModel", "kind visibility")):
    """Gate selection: exact controlled-sign unitary or the PPBS model.

    A validated named tuple, like every value class here: it unpacks,
    indexes and equals the tuple of its fields, refuses attribute assignment
    and checks ``_replace``.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "ideal", visibility: float | None = None):
        # visibility, the photon indistinguishability, applies to ppbs only
        if kind not in ("ideal", "ppbs"):
            raise ValueError(f"gate model kind must be 'ideal' or 'ppbs', got {kind!r}")
        if kind == "ideal":
            if visibility is not None:
                raise ValueError("visibility applies only to the ppbs gate model")
        else:
            visibility = 1.0 if visibility is None else _require_real(visibility, "visibility", 0, 1)
        return super().__new__(cls, kind, visibility)


IDEAL_GATE = GateModel()


class ExperimentConfig(_value_tuple("ExperimentConfig", "theta knowledge mb_sign gate_model")):
    """One protocol setting: preparation angle, measurement strength K, conventions.

    A validated named tuple. Raises ZeroStrengthError for K below 1e-9,
    ValueError for any other K outside [1e-9, 1] (NaN and non-reals
    included), for a theta that is not a finite real, for an mb_sign that is
    not the integer +1 or -1 (it is held as an int) and for a gate_model
    that is not a GateModel.
    """

    __slots__ = ()

    def __new__(cls, theta: float, knowledge: float, mb_sign: int = +1, gate_model: GateModel = IDEAL_GATE):
        fields = _require_real(theta, "theta"), _require_strength(knowledge), _require_sign(mb_sign)
        return super().__new__(cls, *fields, _require_instance(gate_model, GateModel, "gate_model"))


class ProbabilityTable(_value_tuple("ProbabilityTable", "p_dd p_da p_ad p_aa")):
    """Joint outcome probabilities; first index meter D/A, second signal D/A.

    A validated named tuple. Raises ValueError unless each lies in [0, 1]
    and they sum to 1, within 1e-12.
    """

    __slots__ = ()

    def __new__(cls, p_dd: float, p_da: float, p_ad: float, p_aa: float):
        self = super().__new__(cls, *(_require_real(value, name, -1e-12, 1.0 + 1e-12) for value, name in
                                      zip((p_dd, p_da, p_ad, p_aa), cls._fields)))
        total = self.as_array().sum()
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        return self

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self)

    @property
    def postselect_d(self) -> float:
        """Probability of finding the signal in D (the post-selection branch)."""
        return self.p_dd + self.p_ad


class ThetaGrid(_value_tuple("ThetaGrid", "start stop steps")):
    """Uniform inclusive angle grid.

    A validated named tuple. ValueError unless the ends are finite reals and
    steps an integer in [2, MAX_THETA_STEPS].
    """

    __slots__ = ()

    def __new__(cls, start: float, stop: float, steps: int):
        return super().__new__(cls, _require_real(start, "grid start"), _require_real(stop, "grid stop"),
                               _require_count(steps, "grid steps", 2, MAX_THETA_STEPS))

    def values(self) -> np.ndarray:
        import numpy as np

        return np.linspace(self.start, self.stop, self.steps)


FULL_TURN = ThetaGrid(0.0, _TWO_PI, 256)


def _require_strength(knowledge: float) -> float:
    """K as a float; ZeroStrengthError below 1e-9, ValueError for anything else outside [1e-9, 1]."""
    if _real_or_nan(knowledge) < MIN_KNOWLEDGE:    # -inf too; NaN and non-reals are not below
        raise ZeroStrengthError(
            f"measurement strength K={knowledge!r} is below {MIN_KNOWLEDGE}; "
            "the 1/K calibration is undefined"
        )
    return _require_real(knowledge, "measurement strength K", MIN_KNOWLEDGE, 1)


def _require_instance(value, cls: type, name: str):
    """value itself; ValueError unless it is a cls, a GateModel or a ThetaGrid, which its plain tuple is not."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def _require_sign(mb_sign: int) -> int:
    """mb_sign as the int +1 or -1; ValueError for anything else, -1.0 included."""
    sign = _require_count(mb_sign, "mb_sign", -1, 1)
    if sign == 0:
        raise ValueError(f"mb_sign must be +1 or -1, got {mb_sign!r}")
    return sign


@lru_cache(maxsize=16)
def _gate_map(visibility: float) -> np.ndarray:
    return optics.effective_map(visibility)


@cache
def _arrays() -> SimpleNamespace:
    """The module's constant arrays, built on first use, so that importing it loads no numpy."""
    import numpy as np

    d_ket = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)
    a_ket = np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex)
    # rows ordered (dd, da, ad, aa) = (meter, signal); vectors are signal-major,
    # np.outer(s, m).ravel() being np.kron(s, m) byte for byte
    proj = np.stack([np.outer(s, m).ravel() for m in (d_ket, a_ket) for s in (d_ket, a_ket)])
    search_angles = np.linspace(0.0, _TWO_PI, _SEARCH_GRID, endpoint=False)
    return SimpleNamespace(
        bras=proj.conj()[:, None, None, :],  # (4, 1, 1, 4): one row vector per outcome
        kets=proj[:, :, None],               # (4, 4, 1): one column vector per outcome
        search_angles=search_angles,         # violation_interval's coarse grid
        search_cos=np.cos(search_angles),
        search_sin=np.sin(search_angles),
    )


def _joint_kets(thetas: np.ndarray, knowledge: float, gate_model: GateModel) -> np.ndarray:
    """The signal-meter kets, one row per angle, with the ideal gate's sign flip of VV."""
    import numpy as np

    half = np.asarray(thetas, dtype=float) / 2.0
    cos, sin = np.cos(half), np.sin(half)
    # the meter's (H, V) amplitudes of gamma|D> + gamma_bar|A>
    g, gb = math.sqrt((1.0 + knowledge) / 2.0), math.sqrt((1.0 - knowledge) / 2.0)
    mu_h, mu_v = (g + gb) * _INV_SQRT2, (g - gb) * _INV_SQRT2
    last = -mu_v if gate_model.kind == "ideal" else mu_v
    # the kets are real: each amplitude is one real product, its imaginary part +0
    return np.ascontiguousarray(np.array([cos * mu_h, cos * mu_v, sin * mu_h, sin * last]).T, dtype=complex)


def _real_trace(rho: np.ndarray) -> np.ndarray:
    """np.real(np.trace(rho, axis1=1, axis2=2)) in its pairwise order, read from a view of the diagonals."""
    diag = rho.reshape(-1, 16)[:, ::5].real
    return (diag[:, 0] + diag[:, 1]) + (diag[:, 2] + diag[:, 3])


def _probability_matrix(thetas: np.ndarray, knowledge: float, gate_model: GateModel) -> np.ndarray:
    """The probability engine: rows of (p_dd, p_da, p_ad, p_aa) for an angle array.

    Each row equals, bit for bit and at any batch size, what ``qcore``'s
    one-state reference gives for that angle and strength K (the tensor
    product of the signal and meter kets, then the sign flip or the gate
    map, then the joint projective measurement). The gate map is an
    entrywise product with its real 4x4 multiplier, with no BLAS call,
    and its output is Hermitian as it stands. The readout's complex products
    are made by the BLAS routine that reference uses, over every state at once:

    - ``rho @ proj`` is one zgemv per outcome over all 4N rows of the
      stacked density matrices, each row's dot product the one a 4x4 zgemv
      forms;
    - ``np.vdot`` (the ideal gate's amplitudes, and the readout's bra times
      that vector) is one zdotu per state and outcome.

    A zgemm may not replace the per-state zdotu calls: it was bit-identical
    under OpenBLAS's SkylakeX kernel, but under its Haswell and Prescott
    kernels it changed the last bit of rows that the bit-contract tests
    check. A real or fused form sums in another order and changes the last
    bit of some CSV cells.
    """
    import numpy as np

    arrays = _arrays()
    psi = _joint_kets(thetas, knowledge, gate_model)
    if gate_model.kind == "ideal":
        amps = arrays.bras @ psi[:, :, None]
        # |amplitude|^2 is never below +0, so only the upper bound of [0, 1] can bind
        return np.minimum(np.real(amps * amps.conj()).reshape(4, -1).T, 1.0)
    rho = psi[:, :, None] * psi[:, None, :].conj() * _gate_map(gate_model.visibility)
    # the values of rho /= trace: numpy divides by a complex number with zero
    # imaginary part by multiplying by its reciprocal
    rho *= (1.0 / _real_trace(rho))[:, None, None]
    vecs = (rho.reshape(-1, 4) @ arrays.kets).reshape(4, -1, 4, 1)
    return np.clip(np.real(arrays.bras @ vecs).reshape(4, -1).T, 0.0, 1.0)


def _b_ratio(knowledge: float, gate_model: GateModel, mb_sign: int) -> tuple[tuple, tuple]:
    """(n, d) with B(theta) = n.x / d.x and x = (1, cos theta, sin theta), in closed form.

    n and d are tuples of three Python floats.

    At visibility xi (1 for the ideal gate), with v = sqrt(1 - K^2), the
    K-calibrated moments share the denominator d.x = 1 + u (1 - cos theta),
    u = (1 - xi)(1 - v), and their numerators are xi cos theta + 1 - xi for
    <S1>, (1 - xi) sin theta for <S1 S2> and (xi v + 1 - xi) sin theta for
    <S2>. 1 - v is written K^2 / (1 + v), so nothing is divided by K and the
    ratio is exact to a few eps at every K.
    """
    xi = 1.0 if gate_model.kind == "ideal" else gate_model.visibility
    v = math.sqrt((1.0 - knowledge) * (1.0 + knowledge))
    u = (1.0 - xi) * knowledge * knowledge / (1.0 + v)
    n = (mb_sign * (1.0 - xi), mb_sign * xi, mb_sign * (1.0 - xi) - (xi * v + 1.0 - xi))
    return n, (1.0 + u, -u, 0.0)


def _ratio_values(n: tuple, d: tuple, cos, sin):
    """B = n.x / d.x at angles given by their cos and sin, floats or arrays, elementwise: no BLAS call."""
    return (n[0] + n[1] * cos + n[2] * sin) / (d[0] + d[1] * cos + d[2] * sin)


def _null_points(u, w) -> list[float]:
    """Real s where p = u + s w has p0^2 = p1^2 + p2^2.

    There p @ x, as a function of theta, touches zero: its maximum
    p0 + |(p1, p2)| or its minimum p0 - |(p1, p2)| is 0. The quadratic in s
    is solved in the cancellation-free form, with its discriminant
    half_b^2 - a c written through the 2x2 minors of (u, w), which does not
    cancel where the two roots nearly meet (b_max's do at visibility 0).
    """
    a = w[0] * w[0] - w[1] * w[1] - w[2] * w[2]
    half_b = -(u[0] * w[0] - u[1] * w[1] - u[2] * w[2])
    c = u[0] * u[0] - u[1] * u[1] - u[2] * u[2]
    m01, m02, m12 = u[0] * w[1] - u[1] * w[0], u[0] * w[2] - u[2] * w[0], u[1] * w[2] - u[2] * w[1]
    q = half_b + math.copysign(math.sqrt(max(m01 * m01 + (m02 - m12) * (m02 + m12), 0.0)), half_b)
    return [num / den for num, den in ((q, a), (c, q)) if den != 0.0]


def run(config: ExperimentConfig) -> ProbabilityTable:
    """Exact joint outcome probabilities for one protocol setting."""
    import numpy as np

    row = _probability_matrix(np.array([config.theta]), config.knowledge, config.gate_model)[0]
    return ProbabilityTable(*row.tolist())


class Estimates(namedtuple("Estimates", "s1 s2 s1s2 b psel wv")):
    """Every estimator of one setting, or arrays of them over a sweep's angles.

    b follows the setting's mb_sign; psel is the probability of
    post-selecting the signal in D and wv the weak value of S1 itself on
    that branch, NaN if degenerate, so B(+S1) > 1 where wv > 1 and
    B(-S1) > 1 where wv < -1.

    Equality holds NaN equal to NaN, so that two sweeps with degenerate
    rows compare equal. The hash is the tuple's: results of floats, from
    lg_b, stay hashable and equal to their plain tuple, but two that hold
    NaN compare equal while their hashes may differ, since a NaN float
    hashes by its identity; results holding arrays have no hash.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, Estimates):
            return NotImplemented
        return all(np.array_equal(mine, theirs, equal_nan=True) for mine, theirs in zip(self, other))

    def __ne__(self, other: object) -> bool:  # tuple's own would compare the arrays elementwise
        return not self == other

    __hash__ = tuple.__hash__


def _lg_terms(p_dd, p_da, p_ad, p_aa, knowledge: float, mb_sign: int = +1) -> tuple:
    """(s1, s2, s1s2, b): the Leggett-Garg contrasts of the joint probabilities.

    Takes floats or equal-length arrays; the caller has validated K. The
    association of each sum is part of the CSV contract, so keep it as is.
    """
    s1 = ((p_dd + p_da) - (p_ad + p_aa)) / knowledge
    s2 = (p_dd + p_ad) - (p_da + p_aa)
    s1s2 = (p_dd - p_da - p_ad + p_aa) / knowledge
    return s1, s2, s1s2, mb_sign * s1 + mb_sign * s1s2 - s2


def _estimates(p_dd, p_da, p_ad, p_aa, knowledge: float, mb_sign: int = +1) -> Estimates:
    """Every estimator as a contrast of the joint probabilities, written once."""
    import numpy as np

    psel = p_dd + p_ad
    wv = np.divide(p_dd - p_ad, knowledge * psel, out=np.full(np.shape(psel), np.nan),
                   where=psel >= MIN_POSTSELECTION)
    return Estimates(*_lg_terms(p_dd, p_da, p_ad, p_aa, knowledge, mb_sign), psel, wv)


def _table_estimates(table: ProbabilityTable, knowledge: float, mb_sign: int = +1) -> Estimates:
    return _estimates(table.p_dd, table.p_da, table.p_ad, table.p_aa, knowledge, mb_sign)


def s2_mean(table: ProbabilityTable) -> float:
    """Projective S2 expectation from the signal marginal."""
    return _table_estimates(table, 1.0).s2  # S2 does not involve K


def lg_b(config: ExperimentConfig) -> Estimates:
    """Every estimator for one setting, as Python floats; b is the Leggett-Garg correlator."""
    return Estimates._make(map(float, _table_estimates(run(config), config.knowledge, config.mb_sign)))


def weak_value(config: ExperimentConfig) -> float:
    """K-calibrated weak value on the signal-D post-selection, times the configured mb_sign.

    Raises DegenerateConditioningError when that branch's probability is below 1e-12.
    """
    est = lg_b(config)
    if est.psel < MIN_POSTSELECTION:
        raise DegenerateConditioningError(
            f"post-selection probability {est.psel!r} below {MIN_POSTSELECTION}"
        )
    return config.mb_sign * est.wv


def theta_sweep(
    knowledge: float,
    mb_sign: int = +1,
    gate_model: GateModel = IDEAL_GATE,
    grid: ThetaGrid = FULL_TURN,
) -> Estimates:
    """Every estimator on a uniform angle grid, as arrays over ``grid.values()``.

    mb_sign selects the correlator convention for b; wv is the S1 weak value
    for either sign. Angles with degenerate post-selection carry wv = NaN.
    Raises ValueError unless mb_sign is +1 or -1, gate_model a GateModel
    and grid a ThetaGrid.
    """
    _require_strength(knowledge)
    mb_sign = _require_sign(mb_sign)
    _require_instance(gate_model, GateModel, "gate_model")
    _require_instance(grid, ThetaGrid, "grid")
    return _estimates(*_probability_matrix(grid.values(), knowledge, gate_model).T, knowledge, mb_sign)


def _bisect(f, root: float, a: float, b: float, fa: float, fb: float, xtol: float) -> float:
    """Root of f on [a, b], a < b, by bisection, step for step as scipy.optimize.bisect.

    f maps a list of angles to the list of its values, fa = f(a), fb = f(b).
    Each round predicts the rest of the path as it would run if f changed
    sign at ``root``, and evaluates it in one call of f. The midpoint
    update, the sign test and the stopping rule (with scipy's default
    relative tolerance 4 eps) are kept exactly, so the endpoints it returns
    are the ones the interval comments have always printed. Decisions come
    only from f's values: the next round starts at the first midpoint where
    f and the prediction disagree.
    """
    if fa * fb > 0.0:
        raise RuntimeError(f"bisection bracket [{a!r}, {b!r}] does not enclose a sign change")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    dm = b - a
    steps = 0
    while steps < 100:
        path, keep = [], []
        pa, pdm = a, dm
        for _ in range(100 - steps):
            pdm *= 0.5
            xm = pa + pdm
            path.append(xm)
            keep.append(xm < root)     # f keeps fa's sign left of the root
            if abs(pdm) < xtol + _BISECT_RTOL * abs(xm):
                break
            if keep[-1]:
                pa = xm
        for xm, fm, predicted in zip(path, f(path), keep):
            # a and dm follow the path as long as the decisions agree, so xm == a + dm / 2
            steps += 1
            dm *= 0.5
            if fm * fa >= 0.0:
                a = xm
            if fm == 0.0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
                return xm
            if (fm * fa >= 0.0) != predicted:
                break
    raise RuntimeError(f"bisection did not converge; last midpoint {xm!r}")


def _peak(n: tuple, d: tuple) -> tuple[float, float]:
    """The peak (theta_star, t) of B = n.x / d.x, as Python floats, with theta_star in [0, 2 pi).

    d.x > 0, so the peak value t is the largest t for which (n - t d).x
    touches zero, and it is reached where (n1 - t d1, n2 - t d2) points
    along (cos theta, sin theta).
    """
    t = max(_null_points(n, [-x for x in d]))
    theta_star = math.atan2(n[2] - t * d[2], n[1] - t * d[1]) % _TWO_PI
    if theta_star == _TWO_PI:    # a tiny negative angle rounds up to the full turn
        theta_star = 0.0
    return theta_star, t


def b_max(knowledge: float, gate_model: GateModel = IDEAL_GATE, mb_sign: int = +1) -> tuple[float, float]:
    """Maximize B over theta in closed form.

    Returns (theta_star, b_star) as Python floats, with theta_star in
    [0, 2 pi) and b_star the peak of the closed form B = n.x / d.x, exact to
    a few eps at every K and found without an engine call; for the ideal
    gate b_star equals sqrt(2 - K^2).
    Raises ValueError unless mb_sign is +1 or -1 and gate_model a GateModel.
    """
    knowledge = _require_strength(knowledge)
    mb_sign = _require_sign(mb_sign)
    _require_instance(gate_model, GateModel, "gate_model")
    return _peak(*_b_ratio(knowledge, gate_model, mb_sign))


def violation_interval(
    knowledge: float, gate_model: GateModel = IDEAL_GATE, mb_sign: int = +1
) -> tuple[float, float] | None:
    """Maximal theta interval (mod 2 pi) with B > 1.

    Returns (theta_lo, theta_hi) with theta_lo in [0, 2 pi) and
    theta_hi - theta_lo the interval width (theta_hi may exceed 2 pi when
    the arc wraps through zero), or None when no violation exists: when the
    peak B exceeds 1 by no more than max(1e-12, 16 eps/K), its round-off.
    Endpoints are located by bisection to 1e-10 on the engine's B, and
    every decision of the search equals the engine's. The exact closed form
    B = n.x / d.x decides each grid point farther than the engine's error
    bound from B = 1 and from the grid's peak; the engine decides the rest,
    in the call that checks B at the peak. The closed-form crossings of
    (n - d).x predict each end's bisection path, so that a round of it costs
    one engine call. Raises ValueError unless mb_sign is +1 or -1 and
    gate_model a GateModel.
    """
    import numpy as np

    knowledge = _require_strength(knowledge)
    mb_sign = _require_sign(mb_sign)
    _require_instance(gate_model, GateModel, "gate_model")
    arrays = _arrays()

    def b_values(angles: np.ndarray) -> np.ndarray:
        return _lg_terms(*_probability_matrix(angles, knowledge, gate_model).T, knowledge, mb_sign)[3]

    n, d = _b_ratio(knowledge, gate_model, mb_sign)
    theta_star = _peak(n, d)[0]
    # the engine's B is within _DECIDE_MARGIN / K of the closed form, so the
    # closed form decides B <= 1 and the argmax as the engine would farther
    # than that from 1 and from the grid's peak; the engine decides the rest
    # with theta_star, as an engine row does not depend on the rest of its batch
    values = _ratio_values(n, d, arrays.search_cos, arrays.search_sin)
    margin = _DECIDE_MARGIN / knowledge
    undecided = np.flatnonzero((np.abs(values - 1.0) <= margin) | (values >= values.max() - 2.0 * margin))
    checked = b_values(np.concatenate(([theta_star], arrays.search_angles[undecided])))
    if checked[0] <= 1.0 + max(1e-12, _PEAK_ROUNDOFF / knowledge):
        return None
    values[undecided] = checked[1:]
    peak = int(np.argmax(values))
    start = arrays.search_angles[peak]
    # the peak's image nearest the grid peak, for arcs that miss the grid
    theta_star -= _TWO_PI * round((theta_star - start) / _TWO_PI)

    def excess(angles: list[float]) -> list[float]:
        return (b_values(np.array([theta % _TWO_PI for theta in angles])) - 1.0).tolist()

    # B - 1 has the sign of (n - d).x = p0 + r cos(theta - phi), zero at phi +- alpha
    p0, p1, p2 = (x - y for x, y in zip(n, d))
    phi = math.atan2(p2, p1)
    alpha = math.atan2(math.sqrt(max(p1 * p1 + p2 * p2 - p0 * p0, 0.0)), -p0)

    def predicted_root(lo: float, hi: float) -> float:
        mid = 0.5 * (lo + hi)
        roots = [root + _TWO_PI * round((mid - root) / _TWO_PI) for root in (phi - alpha, phi + alpha)]
        return min(roots, key=lambda root: abs(root - mid))

    # march from the grid peak each way to the first grid point with B <= 1;
    # below[j] is that test j grid steps after the peak, cyclically
    below = np.roll(values <= 1.0, -peak)
    brackets = []
    for direction, ahead in ((-1, below[:0:-1]), (+1, below[1:])):
        hits = np.flatnonzero(ahead)
        if not hits.size:
            raise RuntimeError("no B = 1 crossing found; grid walk exhausted")
        step = int(hits[0]) + 1
        brackets.append((step, start + direction * step * _GRID_SPACING,
                         start + direction * (step - 1) * _GRID_SPACING))
    (step_lo, outside_lo, inside_lo), (step_hi, outside_hi, inside_hi) = brackets
    f_outside_lo, f_inside_lo, f_outside_hi, f_inside_hi, f_star = excess(
        [outside_lo, inside_lo, outside_hi, inside_hi, theta_star])

    def crossing(step: int, outside: float, inside: float, f_outside: float, f_inside: float):
        # the grid and the recomputed angle can disagree by round-off when the
        # crossing sits on a grid point
        if f_outside >= 0.0:
            return outside
        # a violation arc narrower than one grid cell misses the grid, and a
        # grid peak exactly on B = 1 would end both walks at that one point
        if f_inside < 0.0 or (step == 1 and f_inside == 0.0 and f_star > 0.0):
            inside, f_inside = theta_star, f_star
        (lo, f_lo), (hi, f_hi) = sorted(((float(inside), f_inside), (float(outside), f_outside)))
        return _bisect(excess, predicted_root(lo, hi), lo, hi, f_lo, f_hi, _REFINE_XTOL)

    theta_lo = crossing(step_lo, outside_lo, inside_lo, f_outside_lo, f_inside_lo)
    theta_hi = crossing(step_hi, outside_hi, inside_hi, f_outside_hi, f_inside_hi)
    width = theta_hi - theta_lo
    theta_lo %= _TWO_PI
    return theta_lo, theta_lo + width
