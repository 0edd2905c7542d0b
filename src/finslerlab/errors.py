"""Exception hierarchy shared across the package, and the one gate through
which public entries read outside values: :func:`real`, :func:`reals`,
:func:`finite`, :func:`count`, :func:`times`, :func:`span`,
:func:`points`, :func:`states` and :func:`kind` refuse what is no float,
float array, finite float, integer count, 1-D array of finite times, pair
of finite times, point or stack of points, state (x, y), or object of the
expected kind (a metric, a comparison case) with :class:`DomainError`; a
malformed multi-index raises :class:`JetError`. So every public function
fails with a :class:`FinslerError` subclass. A check passes only when its
value meets its bound (``value <= tol``), so a NaN fails; :func:`worst`
and :func:`least` reduce checks to their extreme, a NaN before all."""

import math
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
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"needs a real {what}, got {value!r}") from None


def reals(value, what):
    """``value`` as a float array of its own shape, or DomainError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"needs real {what}, got {value!r}") from None


def finite(value, what):
    """``value`` as a finite float, or DomainError naming it as ``what``."""
    value = real(value, what)
    if not math.isfinite(value):
        raise DomainError(f"needs a finite {what}; {value} is not finite")
    return value


def times(value):
    """Times, a scalar or a 1-D array of finite reals, as a 1-D float array,
    or DomainError."""
    ts = np.atleast_1d(reals(value, "times"))
    if ts.ndim != 1:
        raise DomainError(f"times must be a scalar or 1-D, got shape {ts.shape}")
    if not all(map(math.isfinite, ts.tolist())):
        raise DomainError(f"times must be finite, got {ts.tolist()}")
    return ts


def span(value, what):
    """Two finite times by :func:`times`, as a pair of floats, or
    DomainError naming them as ``what``."""
    ts = times(value).tolist()
    if len(ts) != 2:
        raise DomainError(f"{what} must hold two times, got {ts}")
    return tuple(ts)


def count(value, least, what):
    """``value`` as an int; DomainError unless it is an integer >= ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"needs an integer {what}, got {value!r}") from None
    if value < least:
        raise DomainError(f"needs {what} >= {least}, got {value}")
    return value


def kind(value, cls, what):
    """``value`` if it is a ``cls``, else DomainError naming ``what``: a
    single isinstance, cheap enough for every stage of a geodesic."""
    if isinstance(value, cls):
        return value
    raise DomainError(f"needs {what}, got {type(value).__name__}")


def _stacked(v):
    """The shape rule of a point and of a state: ``(n,)`` for one, or
    ``(B, n)`` with B >= 1 for a batch, n >= 1."""
    return 1 <= v.ndim <= 2 and v.size > 0


def points(value, what):
    """``value`` as a float array by the shape rule of :func:`states`,
    one point ``(n,)`` or a stack ``(B, n)`` with B >= 1, or DomainError."""
    v = reals(value, what)
    if not _stacked(v):
        raise DomainError(f"{what} must be of shape (n,) or (B, n) with "
                          f"B >= 1, got {v.shape}")
    return v


def states(x, y):
    """(x, y) as float arrays by the one rule for states: equal shapes,
    ``(n,)`` for one state or ``(B, n)`` with B >= 1 for a batch, finite
    entries. Else DomainError, naming both shapes or the non-finite state."""
    x, y = reals(x, "point coordinates"), reals(y, "direction coordinates")
    if x.shape != y.shape or not _stacked(x):
        raise DomainError(f"a state is x and y of one shape, (n,) or (B, n) "
                          f"with B >= 1, got {x.shape} and {y.shape}")
    if not all(map(math.isfinite, x.ravel().tolist() + y.ravel().tolist())):
        z = np.concatenate([x, y], axis=-1)
        z, where = first_bad(~np.isfinite(z).all(-1), z)
        raise DomainError(f"state (x, y) = {z.tolist()} not finite{where}")
    return x, y


def one_state(x, y):
    """(x, y) by :func:`states` where one state is taken: a batch raises."""
    x, y = states(x, y)
    if x.ndim != 1:
        raise DomainError(f"needs one state, got a batch of shape {x.shape}")
    return x, y


def first_bad(bad, values):
    """None where ``bad`` (one state's verdict or a batch's) flags no state;
    else that state's entry of ``values`` and " at state i" in a batch."""
    if bad.ndim == 0:  # a numpy reduction costs ~1.5 us per spray stage
        return (values, "") if bad else None
    i = int(np.argmax(bad))
    return (values[i], f" at state {i}") if bad[i] else None


def _extreme(pick, values):
    """The first NaN among ``values``, else ``pick(values)``, the same object
    (``min`` and ``max`` alone keep a value that a NaN follows)."""
    values = list(values)
    return next(filter(math.isnan, values), pick(values))


def worst(values):
    """The first NaN among ``values``, else their largest as ``max`` picks it."""
    return _extreme(max, values)


def least(values):
    """The first NaN among ``values``, else their smallest as ``min`` picks it."""
    return _extreme(min, values)
