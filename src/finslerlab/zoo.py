"""Catalog of concrete Finsler metrics on chart domains.

Closed-form families (Euclidean, Klein, Funk on the unit ball, the
positive-curvature sphere chart, Bryant's deformation, a hyperbolic metric
on a paraboloid interior) plus Funk and Hilbert metrics of arbitrary smooth
strongly convex bodies, where F is defined implicitly by the chord equation
phi(x + y / F) = 0 and evaluated by a Newton solve that also runs in the
jet ring.

The module also knows the closed-form evolution of each projectively flat
family along straight rays t -> x + t*y, reduced to the two scalars (a, b)
with value(t) = 1 / f(t)^2, f(t)^2 = (a + b*t)^2 + lam * t^2 / a^2, which
is ``comparison.f_squared`` of the flat-base case (0, lam, a, b).
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import comparison as cmp
from . import jets as jr
from .errors import DomainError, NumericError
from .metric import (
    ConvexInterior,
    FinslerMetric,
    FullSpace,
    ParaboloidInterior,
    UnitBall,
    _norm,
    dot,
    norm_sq,
)

# ---------------------------------------------------------------------------
# closed-form constructors


def euclidean(n=2):
    def F(x, y):
        return jr.sqrt(norm_sq(y))

    return FinslerMetric(n, F, FullSpace(n), "euclidean",
                         einstein_constant=0.0)


def klein(n=2):
    """Riemannian hyperbolic metric on the open unit ball, curvature -1."""

    def F(x, y):
        xx, yy, xy = norm_sq(x), norm_sq(y), dot(x, y)
        return jr.sqrt(yy - (xx * yy - xy * xy)) / (1.0 - xx)

    return FinslerMetric(n, F, UnitBall(n), "klein", einstein_constant=-1.0)


def funk_ball(sign=1, n=2):
    """Funk metric of the unit ball; sign=+1 forward, sign=-1 reverse."""
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")

    def F(x, y):
        xx, yy, xy = norm_sq(x), norm_sq(y), dot(x, y)
        return (jr.sqrt(yy - (xx * yy - xy * xy)) + sign * xy) / (1.0 - xx)

    tag = "funk-plus" if sign == 1 else "funk-minus"
    return FinslerMetric(n, F, UnitBall(n), tag, einstein_constant=-0.25)


def hilbert_ball(n=2):
    """Arithmetic symmetrization of the two ball Funk metrics."""

    def F(x, y):
        xx, yy, xy = norm_sq(x), norm_sq(y), dot(x, y)
        root = jr.sqrt(yy - (xx * yy - xy * xy))
        fp = (root + xy) / (1.0 - xx)
        fm = (root - xy) / (1.0 - xx)
        return 0.5 * (fp + fm)

    return FinslerMetric(n, F, UnitBall(n), "hilbert-ball",
                         einstein_constant=-1.0)


def spherical(n=2):
    """Gnomonic chart of the round sphere, curvature +1."""

    def F(x, y):
        xx, yy, xy = norm_sq(x), norm_sq(y), dot(x, y)
        return jr.sqrt(yy + (xx * yy - xy * xy)) / (1.0 + xx)

    return FinslerMetric(n, F, FullSpace(n), "spherical",
                         einstein_constant=1.0)


def bryant(eps, n=2):
    """Bryant's projectively flat family with flag curvature +1.

    eps in (0, 1]; eps = 1 collapses to the gnomonic sphere chart.
    """
    if not 0.0 < eps <= 1.0:
        raise DomainError(f"bryant parameter must lie in (0, 1], got {eps}")
    sig = math.sqrt(1.0 - eps * eps)

    def F(x, y):
        xx, yy, xy = norm_sq(x), norm_sq(y), dot(x, y)
        w = xx * yy - xy * xy
        delta = xx * xx + 2.0 * eps * xx + 1.0
        a = w + eps * yy + 2.0 * (1.0 - eps * eps) * xy * xy / delta
        b = w * w + 2.0 * eps * w * yy + yy * yy
        val = jr.sqrt((a + jr.sqrt(b)) / (2.0 * delta))
        if sig != 0.0:
            val = val + sig * xy / delta
        return val

    return FinslerMetric(n, F, FullSpace(n), f"bryant-{eps:g}",
                         einstein_constant=1.0,
                         meta={"eps": eps})


def paraboloid_metric(n=2):
    """Projectively flat metric of curvature -1 above a paraboloid graph.

    Chart: x_n > (x_1)^2 + ... + (x_{n-1})^2.
    """
    if n < 2:
        raise DomainError("paraboloid chart needs dimension >= 2")

    def F(x, y):
        xb, yb = x[:-1], y[:-1]
        h = x[-1] - norm_sq(xb)
        u = y[-1] - 2.0 * dot(xb, yb)
        return jr.sqrt(u * u + 4.0 * h * norm_sq(yb)) / (2.0 * h)

    return FinslerMetric(n, F, ParaboloidInterior(n), "paraboloid",
                         einstein_constant=-1.0)


def scaled(metric, factor, name=None):
    """The metric factor * F; Einstein constant rescales by 1/factor^2."""
    if factor <= 0.0:
        raise DomainError("scale factor must be positive")
    lam = metric.einstein_constant
    lam = None if lam is None else lam / (factor * factor)

    def F(x, y, inner=metric.F, c=factor):
        return c * inner(x, y)

    return FinslerMetric(metric.n, F, metric.domain,
                         name or f"{metric.name}-x{factor:g}",
                         einstein_constant=lam,
                         meta=dict(metric.meta, scale=factor, base=metric.name))


# ---------------------------------------------------------------------------
# convex bodies and their Funk / Hilbert metrics


@dataclass(frozen=True)
class ConvexBody:
    """Smooth strongly convex body {phi < 0} with ring-generic phi and grad."""

    name: str
    dim: int
    phi: Callable
    grad: Callable
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray

    def interior(self, shrink=0.7):
        return ConvexInterior(self.phi, self.bbox_lo, self.bbox_hi, shrink)


def ball_body(n=2, radius=1.0):
    r2 = radius * radius

    def phi(x):
        return norm_sq(x) - r2

    def grad(x):
        return [2.0 * v for v in x]

    e = radius * np.ones(n)
    return ConvexBody(f"ball-{radius:g}", n, phi, grad, -e, e)


def ellipsoid_body(semi_axes):
    semi = tuple(float(s) for s in semi_axes)
    if any(s <= 0 for s in semi):
        raise DomainError("semi-axes must be positive")
    w = [1.0 / (s * s) for s in semi]

    def phi(x):
        acc = w[0] * x[0] * x[0]
        for wi, v in zip(w[1:], x[1:]):
            acc = acc + wi * v * v
        return acc - 1.0

    def grad(x):
        return [2.0 * wi * v for wi, v in zip(w, x)]

    e = np.array(semi)
    return ConvexBody("ellipsoid-" + "x".join(f"{s:g}" for s in semi),
                      len(semi), phi, grad, -e, e)


def superellipse_body(p=4, semi=(1.0, 1.0)):
    if p < 4 or p % 2 != 0:
        raise DomainError("superellipse exponent must be an even integer >= 4")
    semi = tuple(float(s) for s in semi)
    w = [1.0 / s**p for s in semi]

    def phi(x):
        acc = w[0] * x[0] ** p
        for wi, v in zip(w[1:], x[1:]):
            acc = acc + wi * v**p
        return acc - 1.0

    def grad(x):
        return [p * wi * v ** (p - 1) for wi, v in zip(w, x)]

    e = np.array(semi)
    return ConvexBody(f"superellipse-p{p}", len(semi), phi, grad, -e, e)


def _chord_scalar_root(body, x, y, tol):
    """Positive root s of phi(x + s*y) = 0 for float inputs, to |phi| <= tol.

    psi and its slope run on Python floats, the same IEEE operations as on
    numpy scalars at a fraction of the cost. The slope adds its terms one
    by one: builtin ``sum`` compensates Python floats from Python 3.12.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xs, ys = x.tolist(), y.tolist()

    def psi(s):
        return float(body.phi([xi + s * yi for xi, yi in zip(xs, ys)]))

    def dpsi(s):
        g = body.grad([xi + s * yi for xi, yi in zip(xs, ys)])
        acc = 0.0
        for gi, yi in zip(g, ys):
            acc += gi * yi
        return float(acc)

    p0 = psi(0.0)
    if p0 >= -1e-14:
        raise DomainError(f"{body.name}: base point not interior (phi={p0:g})")
    scale = max(1.0, abs(p0))

    diam = _norm(body.bbox_hi - body.bbox_lo)
    hi = (diam + 1e-3) / max(_norm(y), 1e-300)
    for _ in range(80):
        if psi(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise NumericError(f"{body.name}: chord never exits the body")

    lo, s = 0.0, hi
    f_s = psi(s)
    for _ in range(200):
        if abs(f_s) <= tol * scale:
            return s
        if f_s > 0.0:
            hi = s
        else:
            lo = s
        d = dpsi(s)
        step_ok = d != 0.0 and math.isfinite(d)
        s_new = s - f_s / d if step_ok else 0.5 * (lo + hi)
        if not (lo < s_new < hi) or not math.isfinite(s_new):
            s_new = 0.5 * (lo + hi)
        s, f_s = s_new, psi(s_new)
        if hi - lo < 1e-17 * max(1.0, hi):
            return s
    raise NumericError(f"{body.name}: chord root did not converge")


def funk_general(body, x, y, sign=1, tol=1e-12):
    """Funk metric of an arbitrary convex body, float or jet arguments.

    Solves phi(x + (sign*y) / F... ) = 0 via the substitution s = 1 / F:
    the positive chord parameter where the ray exits the body. When the
    inputs are jets the float root is polished by Newton steps in the jet
    ring, which converges at contact order 2^k: k steps from the float
    root make the jet exact through degree 2^k - 1, and
    ``(order + 1).bit_length()`` steps (2 at orders 1-2, 3 at orders 3-4)
    take it past the jet order. On batched jets the float root is found
    per state and the Newton steps run on the whole batch.
    """
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    xs, ys = list(x), list(y)
    if len(xs) != body.dim or len(ys) != body.dim:
        raise DomainError(f"{body.name}: expected {body.dim} coordinates")
    sy = [sign * v for v in ys]
    jetlike = any(jr.is_jet(v) for v in xs + ys)

    # (n,), or (B, n) for batched jets
    x0 = np.array([v.value if jr.is_jet(v) else float(v) for v in xs]).T
    y0 = np.array([v.value if jr.is_jet(v) else float(v) for v in sy]).T
    if x0.ndim == 1:
        s0 = _chord_scalar_root(body, x0, y0, tol)
    else:
        s0 = np.array([_chord_scalar_root(body, xb, yb, tol)
                       for xb, yb in zip(x0, y0)])

    if not jetlike:
        return 1.0 / s0

    order = next(v for v in xs + ys if jr.is_jet(v)).order
    s = s0
    for _ in range((order + 1).bit_length()):
        z = [xi + s * vi for xi, vi in zip(xs, sy)]
        num = body.phi(z)
        den = dot(body.grad(z), sy)
        s = s - num / den
    return 1.0 / s


def funk_body_metric(body, sign=1):
    def F(x, y):
        return funk_general(body, x, y, sign=sign)

    tag = "funk-plus" if sign == 1 else "funk-minus"
    return FinslerMetric(body.dim, F, body.interior(), f"{tag}-{body.name}",
                         einstein_constant=-0.25,
                         meta={"body": body.name, "sign": sign})


def hilbert_general(body):
    def F(x, y):
        return 0.5 * (funk_general(body, x, y, 1) + funk_general(body, x, y, -1))

    return FinslerMetric(body.dim, F, body.interior(), f"hilbert-{body.name}",
                         einstein_constant=-1.0,
                         meta={"body": body.name})


# ---------------------------------------------------------------------------
# closed-form evolution along straight rays


@dataclass(frozen=True)
class EvolutionSource:
    """One source of the ray laws, read by every evolution function."""

    metric: Callable  # (n, body) -> the metric sampled along the ray
    half: float  # the law describes half * F
    law: Callable  # (x, y, fp, fm) -> (a, b, lam)
    window: Callable  # (x, y, fp, fm, a) -> (t_lo, t_hi), the life interval
    funk: bool = False  # law and window read the Funk values (fp, fm)


def _klein_law(x, y, fp, fm):
    xx, xy = float(np.dot(x, x)), float(np.dot(x, y))
    d = 1.0 - xx + xy * xy
    a = math.sqrt(1.0 - xx) / d**0.25
    b = -xy / (math.sqrt(1.0 - xx) * d**0.25)
    return a, b, -1.0


def _klein_window(x, y, fp, fm, a):
    xy, xx = float(np.dot(x, y)), float(np.dot(x, x))
    root = math.sqrt(xy * xy + 1.0 - xx)
    return -xy - root, -xy + root


def _spherical_law(x, y, fp, fm):
    xx, xy = float(np.dot(x, x)), float(np.dot(x, y))
    d = 1.0 + xx - xy * xy
    a = math.sqrt(1.0 + xx) / d**0.25
    b = xy / (math.sqrt(1.0 + xx) * d**0.25)
    return a, b, 1.0


def _hilbert_law(x, y, fp, fm):
    a = math.sqrt(2.0) / math.sqrt(fp + fm)
    b = (fm - fp) / (math.sqrt(2.0) * math.sqrt(fp + fm))
    return a, b, -1.0


def _paraboloid_law(x, y, fp, fm):
    if np.linalg.norm(y[:-1]) > 1e-12 or abs(y[-1] - 1.0) > 1e-9:
        raise DomainError("paraboloid law is for the unit vertical direction")
    h = x[-1] - float(np.dot(x[:-1], x[:-1]))
    if h <= 0.0:
        raise DomainError("point below the paraboloid chart")
    a = math.sqrt(2.0 * h)
    return a, 1.0 / a, -1.0


def _funk_window(x, y, fp, fm, a):
    return -1.0 / fm, 1.0 / fp


def _funk_source(sign):
    def law(x, y, fp, fm):
        a = math.sqrt(2.0 / (fp if sign == 1 else fm))
        return a, -sign / a, -1.0

    return EvolutionSource(
        lambda n, body: (funk_ball(sign, n) if body is None
                         else funk_body_metric(body, sign)),
        0.5, law, _funk_window, funk=True)


# value(t) = half * F along x + t y for klein / spherical / hilbert /
# paraboloid and for the half metric of the irreversible Funk sources, so
# every source is normalized to have lam in {-1, +1}
EVOLUTION_SOURCES = {
    "klein": EvolutionSource(lambda n, body: klein(n), 1.0, _klein_law,
                             _klein_window),
    "spherical": EvolutionSource(lambda n, body: spherical(n), 1.0,
                                 _spherical_law, lambda *_: (-3.0, 3.0)),
    "funk-plus": _funk_source(1),
    "funk-minus": _funk_source(-1),
    "hilbert": EvolutionSource(
        lambda n, body: hilbert_ball(n) if body is None else hilbert_general(body),
        1.0, _hilbert_law, _funk_window, funk=True),
    "paraboloid": EvolutionSource(
        lambda n, body: paraboloid_metric(n), 1.0, _paraboloid_law,
        lambda x, y, fp, fm, a: (-0.5 * a * a, 3.0)),
}


def _funk_values(x, y, body):
    """Forward and reverse Funk values (fp, fm) of the body, or of the unit
    ball when ``body`` is None."""
    if body is None:
        return funk_ball(1, x.size)(x, y), funk_ball(-1, x.size)(x, y)
    return (funk_general(body, list(x), list(y), 1),
            funk_general(body, list(x), list(y), -1))


def _ray(source, x, y, body):
    """The source's table entry, the validated ray and its Funk values."""
    if source not in EVOLUTION_SOURCES:
        raise DomainError(f"unknown evolution source {source!r}; "
                          f"choose one of {tuple(EVOLUTION_SOURCES)}")
    src = EVOLUTION_SOURCES[source]
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if abs(np.linalg.norm(y) - 1.0) > 1e-9:
        raise DomainError("evolution laws assume a Euclidean-unit direction")
    fp, fm = _funk_values(x, y, body) if src.funk else (None, None)
    return src, x, y, fp, fm


def evolution_coefficients(source, x, y, body=None):
    """Scalars (a, b, lam) of the ray law value(t) = 1/f^2 for the source.

    f(t)^2 = (a + b t)^2 + lam t^2 / a^2, with value(t) as set by the
    source's entry in :data:`EVOLUTION_SOURCES`.
    """
    src, x, y, fp, fm = _ray(source, x, y, body)
    return src.law(x, y, fp, fm)


def numeric_evolution_coefficients(Ffn, x, y):
    """(a, b) of t -> Ffn(x + t y, y)^(-1/2) by jet differentiation at t = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f0, grad = jr.derivative_tensors(jr.jet_of(Ffn, x, y, 1), 1)
    df_dt = float(np.dot(grad[: x.size], y))
    a = f0 ** (-0.5)
    b = -0.5 * f0 ** (-1.5) * df_dt
    return a, b


def verify_evolution(source, x, y, t_grid=None, body=None):
    """Max relative gap between the sampled metric along x + t y and the law,
    predicted as 1 / f^2 of the flat-base case (0, lam, a, b)."""
    src, x, y, fp, fm = _ray(source, x, y, body)
    a, b, lam = src.law(x, y, fp, fm)
    case = cmp.make_case(0.0, lam, a, b)
    if t_grid is None:
        t_lo, t_hi = src.window(x, y, fp, fm, a)
        t_grid = np.linspace(0.9 * t_lo, 0.9 * t_hi, 25)
    value = src.metric(x.size, body).F
    devs = []
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        actual = src.half * float(value(list(x + t * y), list(y)))
        f2 = cmp.f_squared(case, t)
        if f2 <= 0.0:
            raise DomainError("ray parameter outside the life interval of the law")
        pred = 1.0 / f2
        dev = abs(actual - pred) / max(abs(actual), 1e-300)
        devs.append(dev)
        rows.append((float(t), actual, pred, dev))
    return {
        "source": source,
        "a": a,
        "b": b,
        "lambda_tilde": lam,
        "max_rel_dev": max(devs),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# name-based catalog for the command line

_ELLIPSE_AXES = (2.0, 1.0)

_CATALOG = {
    "euclidean": lambda dim, eps: euclidean(dim),
    "klein": lambda dim, eps: klein(dim),
    "funk-plus": lambda dim, eps: funk_ball(1, dim),
    "funk-minus": lambda dim, eps: funk_ball(-1, dim),
    "half-funk-plus": lambda dim, eps: scaled(funk_ball(1, dim), 0.5),
    "half-funk-minus": lambda dim, eps: scaled(funk_ball(-1, dim), 0.5),
    "hilbert-ball": lambda dim, eps: hilbert_ball(dim),
    "spherical": lambda dim, eps: spherical(dim),
    "bryant": lambda dim, eps: bryant(eps, dim),
    "paraboloid": lambda dim, eps: paraboloid_metric(dim),
    # fixed 2-dimensional bodies
    "funk-ellipse-plus": lambda dim, eps: funk_body_metric(
        ellipsoid_body(_ELLIPSE_AXES), 1),
    "funk-ellipse-minus": lambda dim, eps: funk_body_metric(
        ellipsoid_body(_ELLIPSE_AXES), -1),
    "hilbert-ellipse": lambda dim, eps: hilbert_general(
        ellipsoid_body(_ELLIPSE_AXES)),
    "hilbert-superellipse": lambda dim, eps: hilbert_general(
        superellipse_body(4, (1.0, 1.0))),
}

METRIC_NAMES = tuple(_CATALOG)


def make_metric(name, dim=2, eps=0.9):
    """The catalog metric ``name`` in dimension ``dim``."""
    if name not in _CATALOG:
        raise DomainError(f"unknown metric {name!r}; "
                          f"choose one of: {', '.join(METRIC_NAMES)}")
    metric = _CATALOG[name](dim, eps)
    if metric.n != dim:
        raise DomainError(f"{name} is {metric.n}-dimensional; got dim {dim}")
    return metric
