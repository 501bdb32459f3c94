"""Exact quantum primitives for one polarization qubit pair.

State conventions used throughout the package:

* Single-qubit amplitudes are ordered (H, V).
* Joint amplitudes are ordered (HH, HV, VH, VV) with the signal qubit as
  the major index, i.e. index = 2 * signal + meter.
* ``|D> = (|H> + |V>)/sqrt(2)`` and ``|A> = (|H> - |V>)/sqrt(2)``.
* The controlled-sign interaction flips the sign of the VV amplitude,
  with the signal photon in the control mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import _require_real

# Tolerance for exact-math identities (normalization, hermiticity, trace).
TOL_EXACT = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class BasisOutcome(Enum):
    """Single-qubit analyzer outcome: H/V (Z basis) or D/A (X basis)."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"

    @property
    def sign(self) -> int:
        """Assigned dichotomic value: +1 for H and D, -1 for V and A."""
        return +1 if self in (BasisOutcome.H, BasisOutcome.D) else -1

    def ket(self) -> np.ndarray:
        """Return the outcome's state vector in the (H, V) basis."""
        vectors = {
            BasisOutcome.H: (1.0, 0.0),
            BasisOutcome.V: (0.0, 1.0),
            BasisOutcome.D: (_INV_SQRT2, _INV_SQRT2),
            BasisOutcome.A: (_INV_SQRT2, -_INV_SQRT2),
        }
        return np.array(vectors[self], dtype=complex)


def _as_outcome(outcome: BasisOutcome | str) -> BasisOutcome:
    if isinstance(outcome, BasisOutcome):
        return outcome
    try:
        return BasisOutcome(str(outcome).upper())
    except ValueError:
        raise ValueError(f"unknown basis outcome {outcome!r}; expected one of H, V, D, A") from None


def _readonly_complex(values, size: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (size,):
        raise ValueError(f"{what} must have shape ({size},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    norm2 = float(np.real(np.vdot(arr, arr)))
    if abs(norm2 - 1.0) > TOL_EXACT:
        raise ValueError(f"{what} must be normalized; |amplitudes|^2 = {norm2!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized single-qubit state with amplitudes (a_H, a_V)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _readonly_complex(self.amplitudes, 2, "PureState"))


@dataclass(frozen=True)
class JointState:
    """Normalized two-qubit state over (HH, HV, VH, VV), signal-major."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", _readonly_complex(self.amplitudes, 4, "JointState"))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix of dimension 2 or 4."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"DensityOperator must be 2x2 or 4x4, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("DensityOperator must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > TOL_EXACT:
            raise ValueError("DensityOperator must be Hermitian within 1e-12")
        trace = float(np.real(np.trace(mat)))
        if abs(trace - 1.0) > TOL_EXACT:
            raise ValueError(f"DensityOperator must have unit trace, got {trace!r}")
        if float(np.min(np.linalg.eigvalsh(mat))) < -1e-10:
            raise ValueError("DensityOperator must be positive semidefinite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class MeterSetting:
    """Meter preparation gamma|D> + gamma_bar|A> of measurement strength K = 2 gamma^2 - 1.

    K is the one parameter; gamma and gamma_bar are computed from it.
    """

    knowledge: float   # K in [0, 1]

    def __post_init__(self) -> None:
        object.__setattr__(self, "knowledge", _require_real(self.knowledge, "knowledge", 0, 1))

    @property
    def gamma(self) -> float:
        """sqrt((1 + K)/2), in [1/sqrt(2), 1]."""
        return math.sqrt((1.0 + self.knowledge) / 2.0)

    @property
    def gamma_bar(self) -> float:
        """sqrt((1 - K)/2), in [0, 1/sqrt(2)]."""
        return math.sqrt((1.0 - self.knowledge) / 2.0)


def ket_signal(theta: float) -> PureState:
    """Signal preparation cos(theta/2)|H> + sin(theta/2)|V>.

    Parameters
    ----------
    theta : float
        Preparation angle in radians; any finite real value.
    """
    theta = _require_real(theta, "theta")
    return PureState(np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)]))


def from_knowledge(knowledge: float) -> MeterSetting:
    """Construct the meter setting realizing a given measurement strength K.

    K = 0 is constructible (the meter extracts nothing), but
    ``experiment.ExperimentConfig`` and every estimator that divides by K
    reject it.
    """
    return MeterSetting(knowledge)


def meter_ket(setting: MeterSetting) -> PureState:
    """Meter preparation gamma|D> + gamma_bar|A>, expressed in the (H, V) basis."""
    g, gb = setting.gamma, setting.gamma_bar
    return PureState(np.array([(g + gb) * _INV_SQRT2, (g - gb) * _INV_SQRT2]))


def tensor(signal: PureState, meter: PureState) -> JointState:
    """Kronecker product with the signal qubit as the major index."""
    return JointState(np.kron(signal.amplitudes, meter.amplitudes))


def apply_cz(state: JointState) -> JointState:
    """Apply the controlled-sign gate: negate the VV amplitude."""
    amps = state.amplitudes.copy()
    amps[3] = -amps[3]
    return JointState(amps)


def _joint_projector(meter_outcome: BasisOutcome | str, signal_outcome: BasisOutcome | str) -> np.ndarray:
    m = _as_outcome(meter_outcome)
    s = _as_outcome(signal_outcome)
    if m not in (BasisOutcome.D, BasisOutcome.A) or s not in (BasisOutcome.D, BasisOutcome.A):
        raise ValueError("readout outcomes must be D or A")
    return np.kron(s.ket(), m.ket())


def measure_joint(
    state: JointState | DensityOperator,
    meter_outcome: BasisOutcome | str,
    signal_outcome: BasisOutcome | str,
) -> float:
    """Born-rule probability of a joint D/A meter and D/A signal outcome.

    Parameters
    ----------
    state : JointState or DensityOperator
        Two-qubit state, pure or mixed.
    meter_outcome, signal_outcome : BasisOutcome or str
        Analyzer outcomes, each D or A.
    """
    proj = _joint_projector(meter_outcome, signal_outcome)
    if isinstance(state, JointState):
        amp = np.vdot(proj, state.amplitudes)
        prob = float(np.real(amp * np.conj(amp)))
    elif isinstance(state, DensityOperator):
        if state.dim != 4:
            raise ValueError("measure_joint needs a two-qubit density operator")
        prob = float(np.real(np.vdot(proj, state.matrix @ proj)))
    else:
        raise TypeError(f"unsupported state type {type(state).__name__}")
    return min(max(prob, 0.0), 1.0)
