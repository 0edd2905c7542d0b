"""Geodesic flow of a Finsler metric, with unit-speed normalization.

States are u = (x, v); the flow is x' = v, v' = -2 G(x, v). Initial
directions are rescaled to F(x, v) = 1, so the time parameter is the
metric arc length and F is conserved along the solution.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import ode
from .errors import (DegenerateDirectionError, DomainError,
                     SingularMetricError)
from .geometry import spray_coefficients

RIM_TOL = 1e-6


def geodesic_rhs(metric):
    """u' for u = (x, v); a stage outside the chart domain raises
    DomainError in :func:`spray_coefficients`, which vetoes it.

    Within RIM_TOL of the rim a unit-speed geodesic's v decays toward
    zero and g may turn singular, so a stage there that raises
    DegenerateDirectionError or SingularMetricError is vetoed as well.
    Deeper inside the chart both errors still raise.
    """
    n = metric.n

    def rhs(t, u):
        x, v = u[:n], u[n:]
        try:
            G = spray_coefficients(metric, x, v)
        except (DegenerateDirectionError, SingularMetricError) as exc:
            if metric.domain.signed(x) <= -RIM_TOL:
                raise
            raise DomainError(f"stage at the rim: {exc}") from exc
        return np.concatenate([v, -2.0 * G])

    return rhs


@dataclass
class GeodesicResult:
    metric_name: str
    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    status_forward: str
    status_backward: str
    t_span: tuple
    speeds: np.ndarray
    speed_drift: float
    legs: List[ode.OdeResult]

    def sample(self, ts):
        """Dense states at query times; returns (points, velocities)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        n = self.xs.shape[1]
        out = np.empty((ts.size, 2 * n))
        back, fwd = self.legs
        ahead = ts >= 0.0
        out[ahead] = fwd.sample(ts[ahead])
        out[~ahead] = back.sample(ts[~ahead])
        return out[:, :n], out[:, n:]


def integrate_geodesic(metric, x0, y0, t_span, rtol=1e-10, atol=1e-12):
    """Run the geodesic through (x0, y0) over t_span = (t_min <= 0 <= t_max).

    Each leg stops early with status "boundary" (chart exit, where the
    stage veto ends it: a step's sixth stage runs the rhs at its new state)
    or "blow_up" (speed explosion away from the rim); otherwise "t_limit".
    A step collapse at a point within RIM_TOL of the chart rim counts as a
    boundary exit: metrics singular on the rim stall the integrator there
    before any stage can land outside.
    """
    x0 = metric.check_point(x0)
    y0 = metric.check_direction(y0)
    t_min, t_max = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise DomainError(f"t_span {t_span} must be finite")
    if not (t_min <= 0.0 <= t_max):
        raise DomainError("t_span must contain 0")
    v0 = y0 / metric(x0, y0)
    u0 = np.concatenate([x0, v0])
    n = metric.n
    rhs = geodesic_rhs(metric)

    back = ode.integrate(rhs, 0.0, u0, t_min, rtol, atol)
    fwd = ode.integrate(rhs, 0.0, u0, t_max, rtol, atol)

    def status(leg):
        if leg.status == "blow_up" and \
                metric.domain.signed(leg.u_end[:n]) > -RIM_TOL:
            return "boundary"
        return leg.status

    ts = np.concatenate([back.ts[::-1], fwd.ts[1:]])
    us = np.concatenate([back.us[::-1], fwd.us[1:]])
    xs, vs = us[:, :n], us[:, n:]
    speeds = np.array([metric(x, v) for x, v in zip(xs, vs)])
    drift = float(np.max(np.abs(speeds - speeds[0])))
    return GeodesicResult(metric.name, ts, xs, vs, status(fwd), status(back),
                          (t_min, t_max), speeds, drift, [back, fwd])


# ---------------------------------------------------------------------------
# straightness diagnostics for projectively flat charts


# temporaries of the backward leg hold about this many floats
_BLOCK_FLOATS = 1 << 16
_CHORD_SAMPLES = 200


def _point_segment_distances(p, a, b):
    """Distances from points p to segments [a, b], broadcast over leading axes.

    A zero-length segment measures the distance to its point a.
    """
    ab = b - a
    denom = np.einsum("...i,...i->...", ab, ab)
    num = np.einsum("...i,...i->...", p - a, ab)
    s = np.clip(np.divide(num, denom, out=np.zeros_like(num),
                          where=denom != 0.0), 0.0, 1.0)
    return np.linalg.norm(p - (a + s[..., None] * ab), axis=-1)


def hausdorff_to_chord(points, anchor, direction):
    """Hausdorff distance between a polyline and its straight chord.

    The chord is the segment of the line anchor + s*direction spanned by
    the projections of the polyline's endpoints. The backward leg measures
    200 chord samples against the polyline, taking segments in blocks.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise DomainError("hausdorff_to_chord needs at least one point")
    d = np.asarray(direction, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(d)
    if not (math.isfinite(norm) and norm > 0.0):
        raise DomainError(f"hausdorff_to_chord needs a nonzero direction of "
                          f"finite length, got {d.tolist()}")
    d = d / norm
    a0 = np.asarray(anchor, dtype=float)
    s = (pts - a0) @ d
    lo, hi = float(np.min(s)), float(np.max(s))
    p_lo, p_hi = a0 + lo * d, a0 + hi * d

    d_fwd = float(np.max(_point_segment_distances(pts, p_lo, p_hi)))

    chord_samples = p_lo + np.linspace(0.0, 1.0, _CHORD_SAMPLES)[:, None] \
        * (p_hi - p_lo)
    # a single point is the zero-length segment from itself to itself
    seg_a, seg_b = (pts[:-1], pts[1:]) if len(pts) > 1 else (pts, pts)
    step = max(1, _BLOCK_FLOATS // (_CHORD_SAMPLES * pts.shape[1]))
    best = np.full(_CHORD_SAMPLES, np.inf)
    q = chord_samples[:, None, :]
    for j in range(0, len(seg_a), step):
        dist = _point_segment_distances(q, seg_a[j:j + step], seg_b[j:j + step])
        np.minimum(best, dist.min(axis=1), out=best)
    return max(d_fwd, float(np.max(best)))
