"""The one-state reference for one polarization qubit pair, on plain arrays.

* Single-qubit amplitudes are ordered (H, V).
* Joint amplitudes are ordered (HH, HV, VH, VV) with the signal qubit as
  the major index, i.e. index = 2 * signal + meter.
* ``|D> = (|H> + |V>)/sqrt(2)`` and ``|A> = (|H> - |V>)/sqrt(2)``.
* The controlled-sign interaction flips the sign of the VV amplitude,
  with the signal photon in the control mode.

Kets are complex arrays; a mixed two-qubit state is a 4x4 density matrix.
Every function raises ValueError outside its domain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _require_real

# Tolerance for exact-math identities (normalization, hermiticity, trace).
TOL_EXACT = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_DA_KETS = {"D": (_INV_SQRT2, _INV_SQRT2), "A": (_INV_SQRT2, -_INV_SQRT2)}


def _state(values, size: int, mixed: bool = False) -> np.ndarray:
    """values as a complex array; ValueError unless a normalized ket of length size or, if mixed, a density matrix."""
    arr = np.asarray(values, dtype=complex)
    matrix = mixed and arr.shape == (size, size)
    if arr.shape != (size,) and not matrix or not np.all(np.isfinite(arr)):
        raise ValueError(f"a state must be a finite ket of length {size}{' or a density matrix' if mixed else ''}")
    if not matrix:
        norm2 = float(np.real(np.vdot(arr, arr)))
        if abs(norm2 - 1.0) > TOL_EXACT:
            raise ValueError(f"a ket must be normalized; |amplitudes|^2 = {norm2!r}")
    elif np.max(np.abs(arr - arr.conj().T)) > TOL_EXACT:
        raise ValueError("a density matrix must be Hermitian within 1e-12")
    elif abs(float(np.real(np.trace(arr))) - 1.0) > TOL_EXACT:
        raise ValueError("a density matrix must have unit trace within 1e-12")
    elif float(np.min(np.linalg.eigvalsh(arr))) < -1e-10:
        raise ValueError("a density matrix must be positive semidefinite")
    return arr


def ket_signal(theta: float) -> np.ndarray:
    """Signal preparation cos(theta/2)|H> + sin(theta/2)|V>, theta any finite real in radians."""
    theta = _require_real(theta, "theta")
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0)], dtype=complex)


def from_knowledge(knowledge: float) -> tuple[float, float]:
    """(gamma, gamma_bar) = (sqrt((1 + K)/2), sqrt((1 - K)/2)) for a measurement strength K in [0, 1]."""
    knowledge = _require_real(knowledge, "knowledge", 0, 1)
    return math.sqrt((1.0 + knowledge) / 2.0), math.sqrt((1.0 - knowledge) / 2.0)


def meter_ket(setting: tuple[float, float]) -> np.ndarray:
    """Meter preparation gamma|D> + gamma_bar|A> in the (H, V) basis, from (gamma, gamma_bar)."""
    _state(setting, 2)
    g, gb = setting
    return np.array([(g + gb) * _INV_SQRT2, (g - gb) * _INV_SQRT2], dtype=complex)


def tensor(signal, meter) -> np.ndarray:
    """Kronecker product of two kets with the signal qubit as the major index."""
    return np.kron(_state(signal, 2), _state(meter, 2))


def apply_cz(state) -> np.ndarray:
    """Apply the controlled-sign gate to a two-qubit ket: negate the VV amplitude."""
    amps = _state(state, 4).copy()
    amps[3] = -amps[3]
    return amps


def measure_joint(state, meter_outcome: str, signal_outcome: str) -> float:
    """Born-rule probability of a joint D/A meter and D/A signal outcome, for a two-qubit ket or density matrix."""
    if meter_outcome not in ("D", "A") or signal_outcome not in ("D", "A"):
        raise ValueError(f"readout outcomes must be D or A, got {meter_outcome!r} and {signal_outcome!r}")
    proj = np.kron(*(np.array(_DA_KETS[label], dtype=complex) for label in (signal_outcome, meter_outcome)))
    state = _state(state, 4, mixed=True)
    if state.ndim == 1:
        amp = np.vdot(proj, state)
        prob = float(np.real(amp * np.conj(amp)))
    else:
        prob = float(np.real(np.vdot(proj, state @ proj)))
    return min(max(prob, 0.0), 1.0)
