"""Exception hierarchy shared across the package, and the one gate through
which public entries read outside values: :func:`real`, :func:`reals` and
:func:`count` refuse what is no float, float array or integer count with
:class:`DomainError`, as metrics refuse a non-finite point or direction; a
malformed multi-index raises :class:`JetError`. So every public function
fails with a :class:`FinslerError` subclass."""

import operator

import numpy as np


class FinslerError(Exception):
    """Base class for all finslerlab errors."""


class DomainError(FinslerError):
    """A point outside the metric's domain, or an argument outside the call's."""


class DegenerateDirectionError(FinslerError):
    """y = 0 (or numerically indistinguishable from it) was supplied."""


class NumericError(FinslerError):
    """Numerical failure: singular systems, underflow, divergent extrapolation."""


class SingularMetricError(NumericError):
    """Fundamental tensor is singular or catastrophically ill-conditioned."""


class DegenerateFlagError(FinslerError):
    """Flag direction is numerically parallel to the pole direction y."""


class NotProjectivelyRelatedError(FinslerError):
    """Spray defect exceeded tolerance for a pair assumed projectively related."""


class FDOracleError(NumericError):
    """Richardson extrapolation failed to converge (non-smooth point or bad scaling)."""


class JetError(FinslerError):
    """Invalid jet-ring operation, context mismatch or malformed multi-index."""


def real(value, what):
    """``value`` as a float, or DomainError naming it as ``what``."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DomainError(f"needs a real {what}, got {value!r}") from None


def reals(value, what):
    """``value`` as a float array of its own shape, or DomainError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"needs real {what}, got {value!r}") from None


def count(value, least, what):
    """``value`` as an int; DomainError unless it is an integer >= ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"needs an integer {what}, got {value!r}") from None
    if value < least:
        raise DomainError(f"needs {what} >= {least}, got {value}")
    return value
