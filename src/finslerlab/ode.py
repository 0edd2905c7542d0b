"""Adaptive Dormand-Prince 5(4) integration with dense output.

Hand-rolled rather than delegated: the right-hand sides here raise
DomainError inside chart boundaries, and the controller treats a failed
stage as a rejected step, halving until either the step fits inside the
domain or the step floor is reached. That turns hard chart exits into
clean boundary localization instead of NaN-poisoned step control.

The starting step follows Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4, and the dense output is the method's own 4th-order continuous
extension (same book, II.6), the one scipy's ``RK45`` uses.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .errors import DomainError, NumericError

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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
# continuous extension: u(t0 + th*h) = u0 + h * (K.T @ _P) @ (th, th^2, th^3, th^4)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])

# Step floor, and the resolution of the guard bisection: a shorter step
# cannot place the end of a leg any better than the bisection does.
MIN_STEP = 1e-12
SPEED_LIMIT = 1e8
MAX_STEPS = 200_000


@dataclass
class Segment:
    """One accepted step; ``Q = K.T @ _P`` holds its dense-output polynomial."""
    t0: float
    t1: float
    u0: np.ndarray
    Q: np.ndarray

    def eval(self, t):
        dt = self.t1 - self.t0
        if dt == 0.0:
            return self.u0.copy()
        th = (t - self.t0) / dt
        return self.u0 + dt * (self.Q @ np.array([th, th**2, th**3, th**4]))


@dataclass
class OdeResult:
    ts: np.ndarray
    us: np.ndarray
    status: str  # "t_limit" | "boundary" | "blow_up"
    t_end: float
    u_end: np.ndarray
    n_accepted: int
    n_rejected: int
    n_vetoed: int  # rejected steps whose stage rhs vetoed or made non-finite
    segments: List[Segment] = field(default_factory=list)

    def sample(self, ts):
        """Dense-output evaluation at query times inside the span."""
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


def _rms(v):
    return math.sqrt(v.dot(v) / v.size)


def _starting_step(rhs, t, u, f0, direction, span, rtol, atol):
    """Hairer-Norsett-Wanner starting step from one probe evaluation.

    A vetoed or non-finite probe falls back to ``1e-4 * max(span, 1)``.
    """
    scale = atol + rtol * np.abs(u)
    d0, d1 = _rms(u / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    fallback = 1e-4 * max(span, 1.0)
    try:
        f1 = rhs(t + direction * h0, u + direction * h0 * f0)
    except DomainError:
        return fallback
    if not np.isfinite(f1).all():
        return fallback
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        return max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.2)


def integrate(rhs, t0, u0, t1, rtol=1e-10, atol=1e-12, max_step=np.inf,
              guard: Optional[Callable] = None, first_step=None,
              speed_limit=SPEED_LIMIT):
    """Integrate u' = rhs(t, u) from t0 to t1 (either direction).

    ``rhs`` may raise DomainError or return non-finite values to veto a
    stage; the step is then halved. The step after a rejected one may
    shrink but not grow (Hairer, Norsett & Wanner, II.4). A step the
    controller wants below MIN_STEP ends the run ("boundary" after a
    veto, else "blow_up").
    ``guard(u)`` (optional) returns False outside the admissible region;
    a crossing inside an accepted step is bisected on the dense output to
    MIN_STEP in t and the run ends with status "boundary".
    """
    t = float(t0)
    t1 = float(t1)
    if not (math.isfinite(t) and math.isfinite(t1)):
        raise DomainError(f"integration span ({t0}, {t1}) must be finite")
    if not max_step >= MIN_STEP:
        raise DomainError(f"max_step {max_step} is below the step floor "
                          f"{MIN_STEP}")
    u = np.asarray(u0, dtype=float).copy()
    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0.0:
        return OdeResult(np.array([t]), u[None, :].copy(), "t_limit", t, u,
                         0, 0, 0)

    K = np.empty((7, u.size))  # stage derivatives; row 0 is rhs at (t, u)
    K[0] = rhs(t, u)  # initial point must be admissible
    if not np.isfinite(K[0]).all():
        raise DomainError("non-finite derivative at the initial point")
    h = first_step or _starting_step(rhs, t, u, K[0], direction, span,
                                     rtol, atol)

    ts, us, segments = [t], [u], []
    n_acc = n_rej = n_vet = 0
    last_fail_domain = False
    grow_max = 10.0  # 1 right after a rejected step
    d = u.size

    while direction * (t1 - t) > 0 and n_acc + n_rej < MAX_STEPS:
        h = min(h, max_step)
        if h < MIN_STEP:
            status = "boundary" if last_fail_domain else "blow_up"
            return OdeResult(np.array(ts), np.array(us), status, t, u,
                             n_acc, n_rej, n_vet, segments)
        rest = abs(t1 - t)
        last = h >= rest  # a remainder below the floor is still stepped
        if last:
            h = rest
        hs = direction * h
        try:
            for i in range(1, 7):
                K[i] = rhs(t + _C[i] * hs, u + hs * (K[:i].T @ _A[i]))
                if not np.isfinite(K[i]).all():
                    raise DomainError("non-finite derivative")
        except DomainError:
            last_fail_domain = True
            n_vet += 1
            n_rej += 1
            grow_max = 1.0
            h *= 0.5
            continue
        u5 = u + hs * (K.T @ _B5)
        u4 = u + hs * (K.T @ _B4)
        q = (u5 - u4) / (atol + rtol * np.maximum(np.abs(u), np.abs(u5)))
        err = math.sqrt((q * q).sum() / d)
        if err > 1.0:
            last_fail_domain = False
            n_rej += 1
            grow_max = 1.0
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue

        t_new = t1 if last else t + hs
        seg = Segment(t, t_new, u, K.T @ _P)
        segments.append(seg)
        ts.append(t_new)
        us.append(u5)
        n_acc += 1

        k_new = K[6]  # FSAL: rhs at (t_new, u5) up to the b-row identity
        if math.sqrt(k_new.dot(k_new)) > speed_limit:
            return OdeResult(np.array(ts), np.array(us), "blow_up", t_new, u5,
                             n_acc, n_rej, n_vet, segments)
        if guard is not None and not guard(u5):
            lo, hi = t, t_new
            while abs(hi - lo) > MIN_STEP:
                mid = 0.5 * (lo + hi)
                if guard(seg.eval(mid)):
                    lo = mid
                else:
                    hi = mid
            u_b = seg.eval(lo)
            ts[-1], us[-1] = lo, u_b
            return OdeResult(np.array(ts), np.array(us), "boundary", lo, u_b,
                             n_acc, n_rej, n_vet, segments)

        t, u = t_new, u5
        K[0] = k_new
        last_fail_domain = False
        h *= min(grow_max, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 10.0))
        grow_max = 10.0

    if n_acc + n_rej >= MAX_STEPS:
        raise NumericError("step budget exhausted")
    return OdeResult(np.array(ts), np.array(us), "t_limit", t, u,
                     n_acc, n_rej, n_vet, segments)
