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
Both paths are diagonal, so the channel is an entrywise product with a real
4x4 multiplier, rho -> rho * G.
"""

from __future__ import annotations

import numpy as np

from .errors import UnreachableTargetError, _require_real

# the direct and exchange coincidence paths M_d and M_x
_DIRECT_PATH = np.eye(4) / 3.0
_DIRECT_PATH.setflags(write=False)
_EXCHANGE_PATH = np.diag([0.0, 0.0, 0.0, -2.0 / 3.0])
_EXCHANGE_PATH.setflags(write=False)
# the multiplier's coherent term m m^T and labeled term d d^T + x x^T, with d
# and x the paths' diagonals and m = d + x
_d, _x = np.diag(_DIRECT_PATH), np.diag(_EXCHANGE_PATH)
_COHERENT, _LABELED = np.outer(_d + _x, _d + _x), np.outer(_d, _d) + np.outer(_x, _x)
_COHERENT.setflags(write=False)
_LABELED.setflags(write=False)


def effective_map(visibility: float) -> np.ndarray:
    """The coincidence-post-selected gate channel's multiplier at a photon visibility.

    ``visibility`` interpolates between fully interfering photons (1, an
    exact controlled-sign gate) and fully distinguishable photons (0, where
    the direct and exchange coincidence paths add as probabilities and no
    conditional phase survives). Kraus form::

        E(rho) = xi * M rho M+  +  (1 - xi) * (Md rho Md+ + Mx rho Mx+)

    with Md, Mx the direct and exchange path operators and M = Md + Mx. All
    three are diagonal, so E(rho) = rho * G entry by entry, and this returns
    the real, read-only 4x4 multiplier G = xi C + (1 - xi) L. The channel is
    trace-nonincreasing; consumers renormalize the output by its trace (the
    per-input success probability). Raises ValueError unless visibility is a
    real number in [0, 1].
    """
    visibility = _require_real(visibility, "visibility", 0, 1)
    multiplier = visibility * _COHERENT + (1.0 - visibility) * _LABELED
    multiplier.setflags(write=False)
    return multiplier


def success_probability(visibility: float) -> float:
    """The channel's heralding probability on the maximally mixed input, (2 - visibility) / 9.

    At visibility 1 every input succeeds with probability 1/9. Raises
    ValueError unless visibility is a real number in [0, 1].
    """
    return (2.0 - _require_real(visibility, "visibility", 0, 1)) / 9.0


def process_fidelity_to_cz(visibility: float) -> float:
    """Process fidelity between the trace-normalized channel and the ideal CZ.

    On CZ's normalized Choi vector the coherent term has weight 4/9 and the
    labeled term 2/9 (1/9 per path); the Choi matrix's trace is 4 (2 - xi) / 9,
    four times the mixed-input success. Raises ValueError unless visibility
    is a real number in [0, 1].
    """
    xi = _require_real(visibility, "visibility", 0, 1)
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
