"""Adaptive Dormand-Prince 5(4) integration with dense output.

Hand-rolled rather than delegated: the right-hand sides here raise
DomainError inside chart boundaries, and the controller treats a failed
stage as a rejected step, halving until either the step fits inside the
domain or the step floor is reached. That turns hard chart exits into
clean boundary localization instead of NaN-poisoned step control.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError, NumericError

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])

MIN_STEP = 1e-14
SPEED_LIMIT = 1e8
MAX_STEPS = 200_000


@dataclass
class Segment:
    t0: float
    t1: float
    u0: np.ndarray
    u1: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    def eval(self, t):
        dt = self.t1 - self.t0
        if dt == 0.0:
            return self.u0.copy()
        th = (t - self.t0) / dt
        h00 = (1.0 + 2.0 * th) * (1.0 - th) ** 2
        h10 = th * (1.0 - th) ** 2
        h01 = th * th * (3.0 - 2.0 * th)
        h11 = th * th * (th - 1.0)
        return h00 * self.u0 + h10 * dt * self.f0 + h01 * self.u1 + h11 * dt * self.f1


@dataclass
class OdeResult:
    ts: np.ndarray
    us: np.ndarray
    status: str  # "t_limit" | "boundary" | "blow_up"
    t_end: float
    u_end: np.ndarray
    n_accepted: int
    n_rejected: int
    segments: List[Segment] = field(default_factory=list)

    def sample(self, ts):
        """Dense cubic Hermite evaluation at query times inside the span."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty((ts.size, self.us.shape[1]))
        for i, k in enumerate(self._locate(ts)):
            out[i] = self.segments[k].eval(ts[i])
        return out

    def _locate(self, ts):
        """Index of the first segment whose span, widened by 1e-12, holds each t.

        Time is read in the direction of integration, where both ends of
        the segments grow along the list: a binary search over the ends
        finds the first candidate, and its start decides.
        """
        ahead = not self.segments or self.segments[0].t1 >= self.segments[0].t0
        sgn = 1.0 if ahead else -1.0
        starts = sgn * np.array([seg.t0 for seg in self.segments])
        ends = sgn * np.array([seg.t1 for seg in self.segments])
        idx = np.searchsorted(ends + 1e-12, sgn * ts)
        for t, k in zip(ts, idx):
            if k == len(ends) or not starts[k] - 1e-12 <= sgn * t:
                raise NumericError(f"time {t} outside integrated span")
        return idx


def _try_rhs(rhs, t, u):
    du = np.asarray(rhs(t, u), dtype=float)
    if not np.all(np.isfinite(du)):
        raise DomainError("non-finite derivative")
    return du


def integrate(rhs, t0, u0, t1, rtol=1e-10, atol=1e-12, max_step=np.inf,
              guard: Optional[Callable] = None, first_step=None,
              speed_limit=SPEED_LIMIT):
    """Integrate u' = rhs(t, u) from t0 to t1 (either direction).

    ``rhs`` may raise DomainError to veto a stage; the step is then halved.
    ``guard(u)`` (optional) returns False outside the admissible region;
    a crossing inside an accepted step is bisected to 1e-12 in t and the
    run ends with status "boundary".
    """
    u = np.asarray(u0, dtype=float).copy()
    t = float(t0)
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    if span == 0.0:
        return OdeResult(np.array([t]), u[None, :].copy(), "t_limit", t, u, 0, 0)

    K = np.empty((7, u.size))  # stage derivatives; row 0 is rhs at (t, u)
    K[0] = _try_rhs(rhs, t, u)  # initial point must be admissible
    h = min(first_step or 1e-4 * max(span, 1.0), span, max_step)

    ts, us, segments = [t], [u.copy()], []
    n_acc = n_rej = 0
    last_fail_domain = False

    while direction * (t1 - t) > 0 and n_acc + n_rej < MAX_STEPS:
        h = min(h, abs(t1 - t), max_step)
        if h < MIN_STEP:
            status = "boundary" if last_fail_domain else "blow_up"
            return OdeResult(np.array(ts), np.array(us), status, t, u,
                             n_acc, n_rej, segments)
        hs = direction * h
        try:
            for i in range(1, 7):
                ui = u + hs * (K[:i].T @ _A[i])
                K[i] = _try_rhs(rhs, t + _C[i] * hs, ui)
        except DomainError:
            last_fail_domain = True
            n_rej += 1
            h *= 0.5
            continue
        u5 = u + hs * (K.T @ _B5)
        u4 = u + hs * (K.T @ _B4)
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(u5))
        err = np.sqrt(np.mean(((u5 - u4) / scale) ** 2))
        if err > 1.0:
            last_fail_domain = False
            n_rej += 1
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue

        t_new = t + hs
        k_new = K[6].copy()  # FSAL: rhs at (t_new, u5) up to the b-row identity
        seg = Segment(t, t_new, u.copy(), u5.copy(), K[0].copy(), k_new)
        segments.append(seg)
        ts.append(t_new)
        us.append(u5.copy())
        n_acc += 1

        if float(np.linalg.norm(k_new)) > speed_limit:
            return OdeResult(np.array(ts), np.array(us), "blow_up", t_new, u5,
                             n_acc, n_rej, segments)
        if guard is not None and not guard(u5):
            lo, hi = t, t_new
            while abs(hi - lo) > 1e-12:
                mid = 0.5 * (lo + hi)
                if guard(seg.eval(mid)):
                    lo = mid
                else:
                    hi = mid
            u_b = seg.eval(lo)
            ts[-1], us[-1] = lo, u_b
            return OdeResult(np.array(ts), np.array(us), "boundary", lo, u_b,
                             n_acc, n_rej, segments)

        t, u = t_new, u5
        K[0] = k_new
        last_fail_domain = False
        h *= min(10.0, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 10.0))

    if n_acc + n_rej >= MAX_STEPS:
        raise NumericError("step budget exhausted")
    return OdeResult(np.array(ts), np.array(us), "t_limit", t, u,
                     n_acc, n_rej, segments)
