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
                     SingularMetricError, one_state, reals, span, times)
from .geometry import spray_coefficients
from .metric import as_metric

RIM_TOL = 1e-6


def geodesic_rhs(metric):
    """u' for u = (x, v); a stage outside the chart domain raises
    DomainError in :func:`spray_coefficients`, which vetoes it.

    Within RIM_TOL of the rim a unit-speed geodesic's v decays toward
    zero and g may turn singular, so a stage there that raises
    DegenerateDirectionError or SingularMetricError is vetoed as well.
    Deeper inside the chart both errors still raise.
    """
    n = as_metric(metric).n

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
        ts = times(ts)
        n = self.xs.shape[1]
        out = np.empty((ts.size, 2 * n))
        back, fwd = self.legs
        ahead = ts >= 0.0
        out[ahead] = fwd.sample(ts[ahead])
        out[~ahead] = back.sample(ts[~ahead])
        return out[:, :n], out[:, n:]


def integrate_geodesic(metric, x0, y0, t_span, rtol=1e-10, atol=1e-12):
    """Run the geodesic through (x0, y0) over t_span = (t_min <= 0 <= t_max).

    The backward leg runs first; the forward leg shares its start
    (``ode.two_legs``): it reuses the backward leg's slope at (x0, v0)
    and starts with the step that leg's controller proposed after its
    first accepted step, so it runs no starting-step probe.

    Each leg stops early with status "boundary" (chart exit, where the
    stage veto ends it: a step's twelfth stage runs the rhs at its new
    state, and a vetoed step just past the last vetoed stage ends the leg
    within about MIN_STEP |v| of the rim, as on the Funk-ball and ellipse
    rims) or "blow_up" (speed explosion or step collapse); otherwise
    "t_limit".
    """
    x0, y0 = as_metric(metric).check_state(*one_state(x0, y0))
    t_min, t_max = span(t_span, "t_span")
    if not (t_min <= 0.0 <= t_max):
        raise DomainError("t_span must contain 0")
    v0 = y0 / metric(x0, y0)
    u0 = np.concatenate([x0, v0])
    n = metric.n
    rhs = geodesic_rhs(metric)

    back, fwd = ode.two_legs(rhs, 0.0, u0, (t_min, t_max), rtol, atol,
                             ode.SPEED_LIMIT)

    ts = np.concatenate([back.ts[::-1], fwd.ts[1:]])
    us = np.concatenate([back.us[::-1], fwd.us[1:]])
    xs, vs = us[:, :n], us[:, n:]
    speeds = metric(xs, vs)
    drift = float(np.max(np.abs(speeds - speeds[0])))
    return GeodesicResult(ts, xs, vs, fwd.status, back.status, (t_min, t_max),
                          speeds, drift, [back, fwd])


# ---------------------------------------------------------------------------
# straightness diagnostics for projectively flat charts


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
    the projections of the polyline's nodes. The distance is the largest
    from a node to the chord: the polyline is connected, so each chord
    point is the projection of a polyline point p, and p lies no farther
    from the line than the farther end of its segment.
    """
    pts = reals(points, "points")
    if pts.ndim != 2 or pts.size == 0:
        raise DomainError(f"hausdorff_to_chord needs k >= 1 points as a (k, "
                          f"n) array, got shape {pts.shape}")
    d, a0 = reals(direction, "direction"), reals(anchor, "anchor")
    if d.shape != pts.shape[-1:] or a0.size not in (1, d.size):
        raise DomainError(f"hausdorff_to_chord: points of shape {pts.shape} "
                          f"against an anchor of shape {a0.shape} and a "
                          f"direction of shape {d.shape}")
    # a non-finite point or anchor, or a squared offset or chord length past
    # the float range, turns up as a distance that is not finite
    with np.errstate(all="ignore"):
        norm = np.linalg.norm(d)
        u = d / norm
        s = (pts - a0) @ u
        p_lo, p_hi = a0 + float(np.min(s)) * u, a0 + float(np.max(s)) * u
        dist = _point_segment_distances(pts, p_lo, p_hi)
    if not (math.isfinite(norm) and norm > 0.0):
        raise DomainError(f"hausdorff_to_chord needs a nonzero direction of "
                          f"finite length, got {d.tolist()}")
    if not np.isfinite(dist).all():
        raise DomainError("hausdorff_to_chord needs finite points and anchor "
                          "whose squared offsets and chord length are finite")
    return float(np.max(dist))
