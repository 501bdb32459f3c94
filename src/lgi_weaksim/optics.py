"""Mode-level model of the nondeterministic linear-optical controlled-sign gate.

The gate is the paper's fixed partially polarizing beamsplitter (PPBS)
network. The central PPBS, where the two photons interfere, transmits V with
intensity 1/3 and H fully; one compensating PPBS per output arm then
transmits H with intensity 1/3 and V fully. Reflected V light and
compensator-rejected H light are routed into two explicit ancilla modes so
the 6-mode transformation stays unitary. Coincidence detection (exactly one
photon per output arm) heralds success with probability 1/9 and realizes the
controlled-sign operation.

Mode ordering: 0=signal H, 1=signal V, 2=meter H, 3=meter V,
4=signal-arm ancilla, 5=meter-arm ancilla.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableTargetError, _require_real

N_MODES = 6
SIGNAL_H, SIGNAL_V, METER_H, METER_V, LOSS_SIGNAL, LOSS_METER = range(N_MODES)
_SIGNAL_ARM = (SIGNAL_H, SIGNAL_V)
_METER_ARM = (METER_H, METER_V)
# Two-photon polarization basis (HH, HV, VH, VV), signal-major, as input mode pairs.
_BASIS_MODES = tuple(
    (s, m) for s in _SIGNAL_ARM for m in _METER_ARM
)

# intensity transmission of each PPBS's attenuated polarization
_TRANSMISSION = 1.0 / 3.0
_UNITARITY_TOL = 1e-12
# vec(I / 4), the input on which a map's success probability is defined
_MAXIMALLY_MIXED = (np.eye(4) / 4.0).reshape(16)
_MAXIMALLY_MIXED.setflags(write=False)
# (CZ kron I)|phi+> with |phi+> = sum_i |ii> / 2: CZ's signs at indices 0, 5, 10, 15
_CZ_CHOI_VECTOR = np.zeros(16, dtype=complex)
_CZ_CHOI_VECTOR[0::5] = (0.5, 0.5, 0.5, -0.5)
_CZ_CHOI_VECTOR.setflags(write=False)


@dataclass(frozen=True)
class EffectiveMap:
    """Coincidence-post-selected two-qubit channel at a given visibility.

    The superoperator is 16x16 and acts on row-major vectorized 4x4 density
    matrices; it is trace-nonincreasing, and the stored success probability
    is its trace on the maximally mixed input (for visibility 1 the success
    probability is input-independent and equals 1/9).
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


def _embed_beamsplitter(u: np.ndarray, mode_a: int, mode_b: int, transmission: float) -> None:
    # a_in -> t a_out + r b_out, b_in -> -r a_out + t b_out (real orthogonal block)
    t = np.sqrt(transmission)
    r = np.sqrt(1.0 - transmission)
    block = np.array([[t, r], [-r, t]])
    rows = np.ix_((mode_a, mode_b), range(N_MODES))
    u[rows] = block @ u[rows]


def build_network() -> np.ndarray:
    """Build the 6x6 mode unitary of the PPBS gate network.

    The central PPBS couples the two arms' V modes; each compensator couples
    its arm's H mode to that arm's ancilla. The fully transmitted
    polarizations are identities and are left out.
    """
    u = np.eye(N_MODES)
    _embed_beamsplitter(u, SIGNAL_V, METER_V, _TRANSMISSION)
    _embed_beamsplitter(u, SIGNAL_H, LOSS_SIGNAL, _TRANSMISSION)
    _embed_beamsplitter(u, METER_H, LOSS_METER, _TRANSMISSION)
    if np.max(np.abs(u @ u.conj().T - np.eye(N_MODES))) > _UNITARITY_TOL:
        raise ValueError("network construction lost unitarity")
    return u


def _labeled_path_operators(network: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct and exchange path operators for distinguishable (labeled) photons.

    Direct: the signal-input photon exits in the signal arm and the
    meter-input photon in the meter arm. Exchange: both photons swap arms.
    With distinguishable photons these two coincidence paths add as
    probabilities; with indistinguishable ones their sum, the permanent,
    is the coherent coincidence operator.
    """
    direct = np.zeros((4, 4), dtype=complex)
    exchange = np.zeros((4, 4), dtype=complex)
    for col, (i1, i2) in enumerate(_BASIS_MODES):
        for row, (j, k) in enumerate(_BASIS_MODES):
            direct[row, col] = network[j, i1] * network[k, i2]
            exchange[row, col] = network[k, i1] * network[j, i2]
    return direct, exchange


def _kraus_to_superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    # row-major vec: vec(K rho K+) = (K kron conj(K)) vec(rho); the broadcast
    # product is np.kron's elementwise multiply
    sup = np.zeros((16, 16), dtype=complex)
    for k in kraus:
        sup += (k[:, None, :, None] * k.conj()[None, :, None, :]).reshape(16, 16)
    return sup


@functools.cache
def _channel_terms() -> tuple[np.ndarray, np.ndarray]:
    """The visibility-independent superoperators (coherent, labeled) of the network.

    Built on first use, not at import, and read-only: every map shares them.
    """
    direct, exchange = _labeled_path_operators(build_network())
    coherent = _kraus_to_superoperator([direct + exchange])
    labeled = _kraus_to_superoperator([direct, exchange])
    for sup in (coherent, labeled):
        sup.setflags(write=False)
    return coherent, labeled


def effective_map(visibility: float) -> EffectiveMap:
    """Coincidence-post-selected gate channel at a given photon visibility.

    ``visibility`` interpolates between fully interfering photons (1, the
    coherent permanent map, an exact controlled-sign gate) and fully
    distinguishable photons (0, where the direct and exchange coincidence
    paths add as probabilities and no conditional phase survives) in the
    PPBS network. Kraus form::

        E(rho) = xi * M rho M+  +  (1 - xi) * (Md rho Md+ + Mx rho Mx+)

    with M the coincidence permanent block and Md, Mx the labeled-path
    operators, M = Md + Mx. Consumers renormalize the output by its trace
    (the per-input success probability). Raises ValueError unless
    visibility is a real number in [0, 1].
    """
    visibility = _require_real(visibility, "visibility", 0, 1)
    coherent, labeled = _channel_terms()
    sup = visibility * coherent + (1.0 - visibility) * labeled
    mixed_success = float(np.real(np.trace((sup @ _MAXIMALLY_MIXED).reshape(4, 4))))
    return EffectiveMap(visibility=visibility, superoperator=sup, success_probability=mixed_success)


def choi_matrix(emap: EffectiveMap) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) kron |i><j| of the unnormalized map.

    E(|i><j|)[a, b] is sup[4a + b, 4i + j] in the row-major vectorization,
    so the Choi matrix is a reshuffle of the superoperator's entries:
    choi[4a + i, 4b + j] = sup[4a + b, 4i + j].
    """
    return emap.superoperator.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)


def process_fidelity_to_cz(emap: EffectiveMap) -> float:
    """Process fidelity between the trace-normalized channel and the ideal CZ."""
    choi = choi_matrix(emap)
    choi /= np.real(np.trace(choi))
    return float(np.real(np.vdot(_CZ_CHOI_VECTOR, choi @ _CZ_CHOI_VECTOR)))


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
    return min(max(xi, 0.0), 1.0)
