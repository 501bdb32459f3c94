"""Mode-level model of the nondeterministic linear-optical controlled-sign gate.

The gate is a partially polarizing beamsplitter (PPBS) network: one central
PPBS where the two photons interfere (full transmission for H, 1/3 for V)
followed by one compensating PPBS per output arm (1/3 transmission for H,
full for V). Reflected V light and compensator-rejected H light are routed
into two explicit ancilla modes so the 6-mode transformation stays unitary.
Coincidence detection (exactly one photon per output arm) heralds success
with probability 1/9 and realizes the controlled-sign operation.

Mode ordering: 0=signal H, 1=signal V, 2=meter H, 3=meter V,
4=signal-arm ancilla, 5=meter-arm ancilla.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableTargetError

N_MODES = 6
SIGNAL_H, SIGNAL_V, METER_H, METER_V, LOSS_SIGNAL, LOSS_METER = range(N_MODES)
_SIGNAL_ARM = (SIGNAL_H, SIGNAL_V)
_METER_ARM = (METER_H, METER_V)
# Two-photon polarization basis (HH, HV, VH, VV), signal-major, as input mode pairs.
_BASIS_MODES = tuple(
    (s, m) for s in _SIGNAL_ARM for m in _METER_ARM
)

_UNITARITY_TOL = 1e-12
# vec(I / 4), the input on which a map's success probability is defined
_MAXIMALLY_MIXED = (np.eye(4) / 4.0).reshape(16)
_MAXIMALLY_MIXED.setflags(write=False)
# (CZ kron I)|phi+> with |phi+> = sum_i |ii> / 2: CZ's signs at indices 0, 5, 10, 15
_CZ_CHOI_VECTOR = np.zeros(16, dtype=complex)
_CZ_CHOI_VECTOR[0::5] = (0.5, 0.5, 0.5, -0.5)
_CZ_CHOI_VECTOR.setflags(write=False)


@dataclass(frozen=True)
class PPBSSpec:
    """Intensity transmissions of one partially polarizing beamsplitter."""

    transmission_h: float  # in [0, 1]
    transmission_v: float  # in [0, 1]

    def __post_init__(self) -> None:
        for name, t in (("transmission_h", self.transmission_h), ("transmission_v", self.transmission_v)):
            if not 0.0 <= t <= 1.0:
                raise ValueError(f"PPBSSpec.{name} must lie in [0, 1], got {t!r}")


# Canonical gate parameters: success probability 1/9 on coincidence.
CENTRAL_PPBS = PPBSSpec(transmission_h=1.0, transmission_v=1.0 / 3.0)
COMPENSATOR_PPBS = PPBSSpec(transmission_h=1.0 / 3.0, transmission_v=1.0)


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

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the (unnormalized) map to a 4x4 density matrix."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("EffectiveMap.apply expects a 4x4 matrix")
        return (self.superoperator @ rho.reshape(16)).reshape(4, 4)


def _embed_beamsplitter(u: np.ndarray, mode_a: int, mode_b: int, transmission: float) -> None:
    # a_in -> t a_out + r b_out, b_in -> -r a_out + t b_out (real orthogonal block)
    t = np.sqrt(transmission)
    r = np.sqrt(1.0 - transmission)
    block = np.array([[t, r], [-r, t]])
    rows = np.ix_((mode_a, mode_b), range(N_MODES))
    u[rows] = block @ u[rows]


def build_network(
    central: PPBSSpec = CENTRAL_PPBS,
    signal_compensator: PPBSSpec = COMPENSATOR_PPBS,
    meter_compensator: PPBSSpec = COMPENSATOR_PPBS,
) -> np.ndarray:
    """Build the 6x6 mode unitary of the PPBS gate network.

    The central PPBS couples the same-polarization modes of the two arms;
    each compensator couples one arm's attenuated polarization to that arm's
    ancilla mode. A compensator must fully transmit at least one polarization
    because each arm owns a single ancilla mode.
    """
    u = np.eye(N_MODES)
    _embed_beamsplitter(u, SIGNAL_H, METER_H, central.transmission_h)
    _embed_beamsplitter(u, SIGNAL_V, METER_V, central.transmission_v)
    for comp, arm_h, arm_v, loss in (
        (signal_compensator, SIGNAL_H, SIGNAL_V, LOSS_SIGNAL),
        (meter_compensator, METER_H, METER_V, LOSS_METER),
    ):
        if comp.transmission_h < 1.0 and comp.transmission_v < 1.0:
            raise ValueError(
                "compensator must fully transmit one polarization; "
                "each arm has a single ancilla mode"
            )
        if comp.transmission_h < 1.0:
            _embed_beamsplitter(u, arm_h, loss, comp.transmission_h)
        if comp.transmission_v < 1.0:
            _embed_beamsplitter(u, arm_v, loss, comp.transmission_v)
    if np.max(np.abs(u @ u.conj().T - np.eye(N_MODES))) > _UNITARITY_TOL:
        raise ValueError("network construction lost unitarity")
    return u


def _permanent_2x2(u: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> complex:
    # two-photon transition amplitude, bosonic exchange paths added coherently
    return u[rows[0], cols[0]] * u[rows[1], cols[1]] + u[rows[0], cols[1]] * u[rows[1], cols[0]]


def _coincidence_block(network: np.ndarray) -> np.ndarray:
    """4x4 operator mapping input polarization amplitudes to coincidence ones."""
    block = np.zeros((4, 4), dtype=complex)
    for col, (i1, i2) in enumerate(_BASIS_MODES):
        for row, (j, k) in enumerate(_BASIS_MODES):
            block[row, col] = _permanent_2x2(network, (j, k), (i1, i2))
    return block


def _labeled_path_operators(network: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct and exchange path operators for distinguishable (labeled) photons.

    Direct: the signal-input photon exits in the signal arm and the
    meter-input photon in the meter arm. Exchange: both photons swap arms.
    With distinguishable photons these two coincidence paths add as
    probabilities; their coherent sum is the permanent block.
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
    """The visibility-independent superoperators (coherent, labeled) of the canonical network.

    Built on first use, not at import, and read-only: every map shares them.
    """
    network = build_network()
    coherent = _kraus_to_superoperator([_coincidence_block(network)])
    labeled = _kraus_to_superoperator(list(_labeled_path_operators(network)))
    for sup in (coherent, labeled):
        sup.setflags(write=False)
    return coherent, labeled


def effective_map(visibility: float) -> EffectiveMap:
    """Coincidence-post-selected gate channel at a given photon visibility.

    ``visibility`` interpolates between fully interfering photons (1, the
    coherent permanent map, an exact controlled-sign gate) and fully
    distinguishable photons (0, where the direct and exchange coincidence
    paths add as probabilities and no conditional phase survives) in the
    canonical PPBS network. Kraus form::

        E(rho) = xi * M rho M+  +  (1 - xi) * (Md rho Md+ + Mx rho Mx+)

    with M the coincidence permanent block and Md, Mx the labeled-path
    operators, M = Md + Mx. Consumers renormalize the output by its trace
    (the per-input success probability).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
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
    tol plus the peak's round-off 1e-13/K; a target that close to an end of
    the range returns that end. Raises ValueError unless tol is finite and
    nonnegative.
    """
    from . import experiment  # local import; experiment depends on this module

    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")

    gates = [experiment.GateModel(kind="ppbs", visibility=xi) for xi in (0.0, 1.0)]
    b_lo, b_hi = (experiment.b_max(knowledge, gate)[1] for gate in gates)
    # B's 1/K terms carry round-off that makes b_max non-monotone in xi near
    # the ends; near xi = 0 the peak also grows only as xi^2, so the quadratic
    # has a near-double root there and its roots are round-off
    slack = tol + 1e-13 / knowledge
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
