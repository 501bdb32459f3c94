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

from functools import cache
from types import SimpleNamespace

from .errors import UnreachableTargetError, _require_real


@cache
def _arrays() -> SimpleNamespace:
    """The module's constant arrays, read-only, built on first use, so that importing it loads no numpy."""
    import numpy as np

    # the direct and exchange coincidence paths M_d and M_x
    direct, exchange = np.eye(4) / 3.0, np.diag([0.0, 0.0, 0.0, -2.0 / 3.0])
    # the multiplier's coherent term m m^T and labeled term d d^T + x x^T, with
    # d and x the paths' diagonals and m = d + x
    d, x = np.diag(direct), np.diag(exchange)
    arrays = SimpleNamespace(direct_path=direct, exchange_path=exchange,
                             coherent=np.outer(d + x, d + x), labeled=np.outer(d, d) + np.outer(x, x))
    for array in vars(arrays).values():
        array.setflags(write=False)
    return arrays


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
    arrays = _arrays()
    multiplier = visibility * arrays.coherent + (1.0 - visibility) * arrays.labeled
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
    tol plus b_max's round-off, 4 eps at every K; a target that close to an
    end of the range returns that end, and so does a target whose
    quadratic has only round-off roots, which returns the nearer end.
    Raises ValueError unless target_bmax is a finite real and tol a finite
    nonnegative real.
    """
    from . import experiment  # local import; experiment depends on this module

    target_bmax = _require_real(target_bmax, "target_bmax")
    tol = _require_real(tol, "tol", 0)
    knowledge = experiment._require_strength(knowledge)

    gates = [experiment.GateModel(kind="ppbs", visibility=xi) for xi in (0.0, 1.0)]
    b_lo, b_hi = (experiment.b_max(knowledge, gate)[1] for gate in gates)
    # b_max is exact to a few eps, so that is all the slack a target read off it needs
    slack = tol + experiment._BMAX_ROUNDOFF
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
    u = [a - target_bmax * b for a, b in zip(n0, d0)]              # p at xi = 0
    w = [a - target_bmax * b - c for a, b, c in zip(n1, d1, u)]    # its change from xi = 0 to xi = 1
    # p0 < 0 where the peak meets the target, p0 > 0 where the minimum does;
    # the peak's root nearest the middle is the one in [0, 1]
    peaks = [xi for xi in experiment._null_points(u, w) if u[0] + xi * w[0] <= 0.0]
    if not peaks:
        # near xi = 0 the peak can grow as xi^2, so there the quadratic has a
        # near-double root, and round-off can leave no root on the peak's branch
        return 0.0 if target_bmax - b_lo <= b_hi - target_bmax else 1.0
    xi = min(peaks, key=lambda root: abs(root - 0.5))
    return min(max(xi, 0.0), 1.0)
