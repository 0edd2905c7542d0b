"""Catalog of concrete Finsler metrics on chart domains.

Closed-form families (Euclidean, Klein, Funk on the unit ball, the
positive-curvature sphere chart, Bryant's deformation, a hyperbolic metric
on a paraboloid interior) plus Funk and Hilbert metrics of arbitrary smooth
strongly convex bodies, where F is defined implicitly by the chord equation
phi(x + y / F) = 0 and evaluated by a Newton solve that also runs in the
jet ring. The catalog's ellipse metrics take neither: Funk and Hilbert
metrics are natural under affine maps, so on the ellipsoid with semi-axes
a they are the ball's closed forms read at (x / a, y / a)
(:func:`ellipsoid_pullback`). The chord root serves the bodies given to
``funk_body_metric`` and ``hilbert_general``: the superellipse, and the
ellipses the acceptance criteria check the chord path on.

Along a straight ray t -> x + t*y of each projectively flat Einstein
source, the metric scaled to Einstein constant lam = +-1 obeys one law,
value(t) = 1 / f(t)^2 with f(t)^2 = (a + b*t)^2 + lam * t^2 / a^2, which
is ``comparison.f_squared`` of the flat-base case (0, lam, a, b). The
scalars (a, b, lam) are read off F's own 1-jet at t = 0 and the Einstein
constant, so every source and every direction share one rule.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import comparison as cmp
from . import jets as jr
from .errors import (DomainError, NumericError, count, finite, kind,
                     one_state, real, reals, worst)
from .metric import (
    ConvexInterior,
    FinslerMetric,
    FullSpace,
    ParaboloidInterior,
    UnitBall,
    _norm,
    as_metric,
    dot,
    norm_sq,
)

CHORD_TOL = 1e-12  # the tol of funk_general's float chord roots

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
        root, sxy = jr.sqrt(yy - (xx * yy - xy * xy)), sign * xy
        # root + sxy loses more than a bit where sxy < -root / 2: on a leg
        # that runs out to the rim both terms near |y| cancel to about
        # 1 - xx, and 7 digits go at 1e-10 from it. There F takes the
        # conjugate form, since (root + sxy) (root - sxy) = yy (1 - xx)
        steep = jr.base_value(sxy) < -0.5 * jr.base_value(root)
        return (jr.where(steep, yy, root + sxy)
                / jr.where(steep, root - sxy, 1.0 - xx))

    tag = "funk-plus" if sign == 1 else "funk-minus"
    return FinslerMetric(n, F, UnitBall(n), tag, einstein_constant=-0.25)


def hilbert_ball(n=2):
    """Hilbert metric of the unit ball, the mean of its two Funk metrics.

    The Funk terms (root +- xy) / (1 - xx) average to root / (1 - xx), the
    Klein F (Papadopoulos and Troyanov, Handbook of Hilbert Geometry,
    ch. 1), so the metric is Klein's under its own name.
    """
    return replace(klein(n), name="hilbert-ball")


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
    eps = real(eps, "bryant parameter")
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
                         einstein_constant=1.0)


def paraboloid_metric(n=2):
    """Projectively flat metric of curvature -1 above a paraboloid graph.

    Chart: x_n > (x_1)^2 + ... + (x_{n-1})^2.
    """
    if count(n, 0, "dimension") < 2:
        raise DomainError("paraboloid chart needs dimension >= 2")

    def F(x, y):
        xb, yb = x[:-1], y[:-1]
        h = x[-1] - norm_sq(xb)
        u = y[-1] - 2.0 * dot(xb, yb)
        return jr.sqrt(u * u + 4.0 * h * norm_sq(yb)) / (2.0 * h)

    return FinslerMetric(n, F, ParaboloidInterior(n), "paraboloid",
                         einstein_constant=-1.0)


def scaled(metric, factor):
    """The metric factor * F; Einstein constant rescales by 1/factor^2."""
    factor = finite(factor, "scale factor")
    if not factor > 0.0:
        raise DomainError(f"scale factor {factor} is not positive")
    lam = metric.einstein_constant
    lam = None if lam is None else lam / (factor * factor)

    def F(x, y, inner=metric.F, c=factor):
        return c * inner(x, y)

    return FinslerMetric(metric.n, F, metric.domain,
                         f"{metric.name}-x{factor:g}",
                         einstein_constant=lam)


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

    def interior(self):
        return ConvexInterior(self.phi, self.bbox_lo, self.bbox_hi)


def _check_body(body):
    """DomainError unless ``body`` is a :class:`ConvexBody`: the one check
    of a body argument."""
    kind(body, ConvexBody, "a ConvexBody")


def ball_body(n=2):
    def phi(x):
        return norm_sq(x) - 1.0

    def grad(x):
        return [2.0 * v for v in x]

    e = np.ones(count(n, 1, "dimension"))
    return ConvexBody("ball-1", e.size, phi, grad, -e, e)


def ellipsoid_body(semi_axes):
    semi = _semi_axes(semi_axes)
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


def _semi_axes(semi, p=2):
    semi = tuple(reals(semi, "semi-axes").ravel().tolist())
    if not all(s > 0.0 and abs(p * math.log(s)) < 700.0 for s in semi):
        raise DomainError(f"semi-axes need 0 < s^{p} < inf, got {semi}")
    return semi


def superellipse_body(p=4, semi=(1.0, 1.0)):
    p = count(p, 4, "superellipse exponent")
    if p % 2 != 0:
        raise DomainError("superellipse exponent must be an even integer >= 4")
    semi = _semi_axes(semi, p)
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
    """Positive root s of phi(x + s*y) = 0 for float arrays, to |phi| <= tol.

    psi and its slope run on Python floats, the same IEEE operations as on
    numpy scalars at a fraction of the cost. The slope adds its terms one
    by one: builtin ``sum`` compensates Python floats from Python 3.12.
    """
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
    ny = _norm(y)
    if ny < 1e-150:  # y.dot(y) underflows: take |y| without squaring
        ny = math.hypot(*ys)
    hi = (diam + 1e-3) / max(ny, 1e-300)
    for _ in range(80):
        p_hi = psi(hi)
        if p_hi > 0.0:
            break
        hi *= 2.0
    else:
        raise NumericError(f"{body.name}: chord never exits the body")

    # Newton starts at the positive root of the quadratic through psi(0),
    # psi'(0) and psi(hi), in the form that does not cancel (p0 < 0): the
    # root itself for an ellipsoid. Where the quadratic is not convex or
    # its root leaves (0, hi), it starts at hi.
    d0 = dpsi(0.0)
    c = (p_hi - p0 - d0 * hi) / (hi * hi)
    den = d0 + math.sqrt(d0 * d0 - 4.0 * c * p0) if c > 0.0 else 0.0
    s = -2.0 * p0 / den if den > 0.0 else hi
    if not 0.0 < s < hi:
        s = hi
    lo, f_s = 0.0, psi(s)
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


def funk_general(body, x, y, sign=1):
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
    _check_body(body)
    if sign not in (1, -1):
        raise DomainError("sign must be +1 or -1")
    xs, ys = list(x), list(y)
    if len(xs) != body.dim or len(ys) != body.dim:
        raise DomainError(f"{body.name}: expected {body.dim} coordinates")
    sy = [sign * v for v in ys]
    jetlike = any(jr.is_jet(v) for v in xs + ys)

    # (n,), or (B, n) for batched jets
    x0 = reals([jr.base_value(v) for v in xs], "point coordinates").T
    y0 = reals([jr.base_value(v) for v in sy], "direction coordinates").T
    if x0.ndim == 1:
        s0 = _chord_scalar_root(body, x0, y0, CHORD_TOL)
    else:
        s0 = np.array([_chord_scalar_root(body, xb, yb, CHORD_TOL)
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
    _check_body(body)

    def F(x, y):
        return funk_general(body, x, y, sign=sign)

    tag = "funk-plus" if sign == 1 else "funk-minus"
    return FinslerMetric(body.dim, F, body.interior(), f"{tag}-{body.name}",
                         einstein_constant=-0.25)


def hilbert_general(body):
    _check_body(body)

    def F(x, y):
        return 0.5 * (funk_general(body, x, y, 1) + funk_general(body, x, y, -1))

    return FinslerMetric(body.dim, F, body.interior(), f"hilbert-{body.name}",
                         einstein_constant=-1.0)


def ellipsoid_pullback(ball, semi_axes, tag):
    """The metric ``ball`` (a metric of the unit ball) pulled back to the
    ellipsoid with these semi-axes: F(x, y) = ball.F(x / a, y / a), on
    the ellipsoid's own interior, named ``<tag>-<body name>``.

    The Funk and Hilbert metrics of a body E = A(B) are F_B(A^-1 x, A^-1 y)
    (Papadopoulos and Troyanov, Handbook of Hilbert Geometry, chs. 1-2),
    so the ball's forward and reverse Funk and Klein metrics give E's
    Funk and Hilbert metrics in closed form, with their Einstein
    constants. A state of another length raises DomainError.
    """
    ball = as_metric(ball)
    if not isinstance(ball.domain, UnitBall):
        raise DomainError(f"{ball.name} is no metric of the unit ball")
    body = ellipsoid_body(semi_axes)
    if body.dim != ball.n:
        raise DomainError(f"{ball.name} is {ball.n}-dimensional; got "
                          f"{body.dim} semi-axes")
    name, n, semi = f"{tag}-{body.name}", body.dim, body.bbox_hi.tolist()

    def F(x, y, inner=ball.F):
        if len(x) != n or len(y) != n:
            raise DomainError(f"{name}: expected {n} coordinates")
        return inner([v / a for v, a in zip(x, semi)],
                     [v / a for v, a in zip(y, semi)])

    return FinslerMetric(n, F, body.interior(), name,
                         einstein_constant=ball.einstein_constant)


# ---------------------------------------------------------------------------
# the ray law, read off the metric's jet


def _bodiless(family):
    """The (n, body) factory of a source that takes no body: a body raises
    DomainError rather than being ignored."""
    def metric(n, body):
        if body is not None:
            raise DomainError(f"{family.__name__}() takes no body, "
                              f"got {body!r}")
        return family(n)

    return metric


# each source's metric, (n, body) -> FinslerMetric; a body stands in for
# the unit ball where the source takes one, and the others refuse it
EVOLUTION_SOURCES = {
    "klein": _bodiless(klein),
    "spherical": _bodiless(spherical),
    "funk-plus": lambda n, body: (funk_ball(1, n) if body is None
                                  else funk_body_metric(body, 1)),
    "funk-minus": lambda n, body: (funk_ball(-1, n) if body is None
                                   else funk_body_metric(body, -1)),
    "hilbert": lambda n, body: (hilbert_ball(n) if body is None
                                else hilbert_general(body)),
    "paraboloid": _bodiless(paraboloid_metric),
}


def _funk_values(x, y, body):
    """Forward and reverse Funk values (fp, fm) of the body, or of the unit
    ball when ``body`` is None."""
    if body is None:
        return funk_ball(1, x.size)(x, y), funk_ball(-1, x.size)(x, y)
    return (funk_general(body, list(x), list(y), 1),
            funk_general(body, list(x), list(y), -1))


def _ray(source, x, y, body):
    """The source's metric scaled by sqrt|c| to Einstein constant c = +-1,
    and the validated ray (x, y) in its domain."""
    if kind(source, str, "an evolution source name") not in EVOLUTION_SOURCES:
        raise DomainError(f"unknown evolution source {source!r}; "
                          f"choose one of {tuple(EVOLUTION_SOURCES)}")
    if body is not None:
        _check_body(body)
    x, y = one_state(x, y)
    if not abs(math.hypot(*y.tolist()) - 1.0) <= 1e-9:
        raise DomainError("evolution laws assume a Euclidean-unit direction")
    metric = EVOLUTION_SOURCES[source](x.size, body)
    x, y = metric.check_state(x, y)
    return scaled(metric, math.sqrt(abs(metric.einstein_constant))), x, y


def _law(metric, x, y):
    """(a, b, lam) of value(t) = F(x + t y, y): a = value^(-1/2) and
    b = -value^(-3/2) value' / 2 at t = 0 from F's 1-jet, lam = c."""
    f0, grad = jr.derivative_tensors(jr.jet_of(metric.F, x, y, 1))
    value, slope = float(f0), float(np.dot(grad[: x.size], y))
    return value**-0.5, -0.5 * value**-1.5 * slope, metric.einstein_constant


def evolution_coefficients(source, x, y, body=None):
    """Scalars (a, b, lam) of the ray law value(t) = 1/f^2 for the source.

    f(t)^2 = (a + b t)^2 + lam t^2 / a^2 along x + t y, y a Euclidean unit
    vector, with value(t) = s F(x + t y, y), the source's metric scaled to
    Einstein constant lam = +-1; a, b and lam are read off F's 1-jet.
    """
    return _law(*_ray(source, x, y, body))


def verify_evolution(source, x, y, body=None):
    """Max relative gap between the sampled metric along x + t y and the law,
    predicted as 1 / f^2 of the flat-base case (0, lam, a, b), at 25 times
    spanning 0.9 of the law's life interval, cut to |t| <= 3 and, on the
    unit ball or a convex body, to the ray's chord."""
    metric, x, y = _ray(source, x, y, body)
    a, b, lam = _law(metric, x, y)
    case = cmp.make_case(0.0, lam, a, b)
    t_lo, t_hi = cmp.maximal_interval(case)
    t_lo, t_hi = max(t_lo, -3.0), min(t_hi, 3.0)
    if isinstance(metric.domain, (UnitBall, ConvexInterior)):
        # the reverse side of a Funk ray: the law outlives the chart
        ball = isinstance(metric.domain, UnitBall)
        fp, fm = _funk_values(x, y, None if ball else body)
        t_lo, t_hi = max(t_lo, -1.0 / fm), min(t_hi, 1.0 / fp)
    ts = np.linspace(0.9 * t_lo, 0.9 * t_hi, 25)
    actual = metric(x + ts[:, None] * y, np.tile(y, (len(ts), 1)))
    pred = 1.0 / cmp.f_squared(case, ts)
    rows = [(t, f, p, abs(f - p) / max(abs(f), 1e-300))
            for t, f, p in zip(ts.tolist(), actual.tolist(), pred)]
    return {
        "source": source,
        "a": a,
        "b": b,
        "lambda_tilde": lam,
        "max_rel_dev": worst(row[3] for row in rows),
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
    # fixed 2-dimensional bodies: the ellipse's in closed form, the
    # superellipse's by its chord root
    "funk-ellipse-plus": lambda dim, eps: ellipsoid_pullback(
        funk_ball(1, 2), _ELLIPSE_AXES, "funk-plus"),
    "funk-ellipse-minus": lambda dim, eps: ellipsoid_pullback(
        funk_ball(-1, 2), _ELLIPSE_AXES, "funk-minus"),
    "hilbert-ellipse": lambda dim, eps: ellipsoid_pullback(
        klein(2), _ELLIPSE_AXES, "hilbert"),
    "hilbert-superellipse": lambda dim, eps: hilbert_general(
        superellipse_body(4, (1.0, 1.0))),
}

METRIC_NAMES = tuple(_CATALOG)


def make_metric(name, dim=2, eps=0.9):
    """The catalog metric ``name`` in dimension ``dim``."""
    if kind(name, str, "a metric name") not in _CATALOG:
        raise DomainError(f"unknown metric {name!r}; "
                          f"choose one of: {', '.join(METRIC_NAMES)}")
    dim = count(dim, 1, "dim")
    metric = _CATALOG[name](dim, eps)
    if metric.n != dim:
        raise DomainError(f"{name} is {metric.n}-dimensional; got dim {dim}")
    return metric
