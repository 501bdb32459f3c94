"""The nondeterministic linear-optical controlled-sign gate as a quantum channel.

The gate is the paper's fixed partially polarizing beamsplitter (PPBS)
network. The central PPBS, where the two photons interfere, transmits V with
intensity 1/3 and H fully; one compensating PPBS per output arm then
transmits H with intensity 1/3 and V fully. Coincidence detection (exactly
one photon per output arm) heralds success.

A coincidence arises along two paths, each a diagonal operator on the
two-photon polarization basis (HH, HV, VH, VV), signal-major:

- direct, each photon stays in its arm: H passes a compensator and V the
  central PPBS, each with amplitude 1/sqrt(3), so M_d = I/3;
- exchange, the photons swap arms: only two V photons can, reflected at the
  central PPBS with amplitudes sqrt(2/3) and -sqrt(2/3), so
  M_x = diag(0, 0, 0, -2/3).

Indistinguishable photons add the paths coherently, M = M_d + M_x = CZ/3, an
exact controlled-sign gate heralded with probability 1/9; distinguishable
photons add them as probabilities, and no conditional phase survives.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableTargetError, _require_real

# the direct and exchange coincidence paths M_d and M_x
_DIRECT_PATH = np.eye(4) / 3.0
_DIRECT_PATH.setflags(write=False)
_EXCHANGE_PATH = np.diag([0.0, 0.0, 0.0, -2.0 / 3.0])
_EXCHANGE_PATH.setflags(write=False)


@dataclass(frozen=True)
class EffectiveMap:
    """Coincidence-post-selected two-qubit channel at a given visibility.

    The superoperator is 16x16 and acts on row-major vectorized 4x4 density
    matrices; it is trace-nonincreasing, and the stored success probability
    is its trace on the maximally mixed input, (2 - visibility) / 9 (for
    visibility 1 the success probability is input-independent and equals 1/9).
    """

    visibility: float
    superoperator: np.ndarray
    success_probability: float

    def __post_init__(self) -> None:
        sup = np.asarray(self.superoperator, dtype=complex)
        if sup.shape != (16, 16):
            raise ValueError("EffectiveMap superoperator must be 16x16")
        sup.setflags(write=False)
        object.__setattr__(self, "superoperator", sup)
        if not 0.0 < self.success_probability <= 1.0:
            raise ValueError("success probability must lie in (0, 1]")


def _kraus_to_superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    # row-major vec: vec(K rho K+) = (K kron conj(K)) vec(rho); the broadcast
    # product is np.kron's elementwise multiply
    sup = np.zeros((16, 16), dtype=complex)
    for k in kraus:
        sup += (k[:, None, :, None] * k.conj()[None, :, None, :]).reshape(16, 16)
    return sup


@functools.cache
def _channel_terms() -> tuple[np.ndarray, np.ndarray]:
    """The visibility-independent superoperators (coherent, labeled) of the gate.

    Built on first use, not at import, and read-only: every map shares them.
    """
    coherent = _kraus_to_superoperator([_DIRECT_PATH + _EXCHANGE_PATH])
    labeled = _kraus_to_superoperator([_DIRECT_PATH, _EXCHANGE_PATH])
    for sup in (coherent, labeled):
        sup.setflags(write=False)
    return coherent, labeled


def effective_map(visibility: float) -> EffectiveMap:
    """Coincidence-post-selected gate channel at a given photon visibility.

    ``visibility`` interpolates between fully interfering photons (1, an
    exact controlled-sign gate) and fully distinguishable photons (0, where
    the direct and exchange coincidence paths add as probabilities and no
    conditional phase survives). Kraus form::

        E(rho) = xi * M rho M+  +  (1 - xi) * (Md rho Md+ + Mx rho Mx+)

    with Md, Mx the direct and exchange path operators and M = Md + Mx.
    Consumers renormalize the output by its trace (the per-input success
    probability). Raises ValueError unless visibility is a real number in
    [0, 1].
    """
    visibility = _require_real(visibility, "visibility", 0, 1)
    coherent, labeled = _channel_terms()
    sup = visibility * coherent + (1.0 - visibility) * labeled
    return EffectiveMap(visibility=visibility, superoperator=sup, success_probability=(2.0 - visibility) / 9.0)


def process_fidelity_to_cz(emap: EffectiveMap) -> float:
    """Process fidelity between the trace-normalized channel and the ideal CZ.

    On CZ's normalized Choi vector the coherent term has weight 4/9 and the
    labeled term 2/9 (1/9 per path); the Choi matrix's trace is 4 (2 - xi) / 9,
    four times the mixed-input success.
    """
    xi = emap.visibility
    return (1.0 + xi) / (2.0 * (2.0 - xi))


def fit_visibility(target_bmax: float, knowledge: float, tol: float = 1e-6) -> float:
    """The visibility whose gate model peaks at a target B, solved exactly.

    The map is affine in the visibility xi, so with B(theta) = n.x / d.x the
    vector p = n - target * d is affine in xi too, and the peak equals the
    target where p0 + |(p1, p2)| = 0: a quadratic in xi. Raises
    :class:`UnreachableTargetError` when the target lies outside the closed
    range [b_max(visibility=0), b_max(visibility=1)] for this K, widened by
    tol plus the peak's round-off 16 eps/K; a target that close to an end of
    the range returns that end. Raises ValueError unless target_bmax is a
    finite real and tol a finite nonnegative real.
    """
    from . import experiment  # local import; experiment depends on this module

    target_bmax = _require_real(target_bmax, "target_bmax")
    tol = _require_real(tol, "tol", 0)

    gates = [experiment.GateModel(kind="ppbs", visibility=xi) for xi in (0.0, 1.0)]
    b_lo, b_hi = (experiment.b_max(knowledge, gate)[1] for gate in gates)
    # B's 1/K terms carry round-off that makes b_max non-monotone in xi near
    # the ends; near xi = 0 the peak also grows only as xi^2, so the quadratic
    # has a near-double root there and its roots are round-off
    slack = tol + experiment._PEAK_ROUNDOFF / knowledge
    if not b_lo - slack <= target_bmax <= b_hi + slack:
        raise UnreachableTargetError(
            f"target b_max {target_bmax!r} unreachable; "
            f"range at K={knowledge!r} is [{b_lo!r}, {b_hi!r}]"
        )
    if abs(target_bmax - b_lo) <= slack:
        return 0.0
    if abs(target_bmax - b_hi) <= slack:
        return 1.0
    (n0, d0), (n1, d1) = (experiment._b_ratio(knowledge, gate, +1) for gate in gates)
    u = n0 - target_bmax * d0           # p at xi = 0
    w = (n1 - target_bmax * d1) - u     # its change from xi = 0 to xi = 1
    # p0 < 0 where the peak meets the target, p0 > 0 where the minimum does;
    # the peak's root nearest the middle is the one in [0, 1]
    peaks = [xi for xi in experiment._null_points(u, w) if u[0] + xi * w[0] <= 0.0]
    xi = min(peaks, key=lambda root: abs(root - 0.5))
    return float(min(max(xi, 0.0), 1.0))
