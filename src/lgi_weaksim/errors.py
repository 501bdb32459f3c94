"""Domain-specific error types shared across the package, the two domain
checks that every entry point applies to its numeric parameters, and the
base of the package's validated value classes."""

import math
import numbers
import operator
from collections import namedtuple


class DegenerateConditioningError(ValueError):
    """Conditioning on an outcome whose probability is numerically zero."""


class ZeroStrengthError(ValueError):
    """Measurement strength K is below the 1e-9 guard; 1/K calibration is undefined."""


class InsufficientPostselectionError(ValueError):
    """No post-selected coincidence counts; the conditional estimator is undefined."""


class UndefinedSignificanceError(ValueError):
    """Significance requested for an estimate with sigma = 0."""


class UnreachableTargetError(ValueError):
    """Requested target value lies outside the model's reachable range."""


def _real_or_nan(value) -> float:
    """value as a float; NaN unless it is a real number within the float range."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    return math.nan


def _require_real(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """value as a float; ValueError unless it is a finite real number in [low, high].

    numpy reals and bools pass; a str, None, a complex, NaN, an infinity and
    an int beyond the float range do not.
    """
    number = _real_or_nan(value)
    if not (math.isfinite(number) and low <= number <= high):
        where = f" in [{low}, {high}]" if math.isfinite(low) or math.isfinite(high) else ""
        raise ValueError(f"{name} must be a finite real number{where}, got {value!r}")
    return number


def _require_count(value, name: str, low: int = 0, high: float = math.inf) -> int:
    """value as an int; ValueError unless it is an integer in [low, high].

    numpy integers and bools pass; 2.5, 3.0, NaN and a str do not.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or not low <= number <= high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}], got {value!r}")
    return number


def _value_tuple(name: str, fields: str) -> type:
    """A namedtuple base for a value class that checks its fields in ``__new__``.

    Its ``_make``, and so ``_replace``, calls ``cls(*iterable)``, and so do
    ``pickle``, at every protocol, and ``copy``: namedtuple's own ``_make``,
    and pickle's protocols 0 and 1, build the tuple without ``__new__``.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base
