"""Adaptive Dormand-Prince 5(4) integration with dense output.

Hand-rolled rather than delegated: the right-hand sides here raise
DomainError inside chart boundaries, and the controller treats a failed
stage as a rejected step, halving until either the step fits inside the
domain or the step floor is reached. That turns hard chart exits into
clean boundary localization instead of NaN-poisoned step control.

The starting step follows Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4, and the dense output is the method's own 4th-order continuous
extension (same book, II.6), the one scipy's ``RK45`` uses.

A step keeps the stage sums K[:i].T @ a_i as BLAS calls (``ndarray.dot``
on views of one K.T): a sum on Python floats would not give their bits,
since OpenBLAS's gemv rounds its sums its own way. The rest of the error
test runs on Python floats:

- u5 is the sixth stage's argument. ``_A[6]`` is ``_B5`` without its zero
  last entry, and the 6-term product rounds as the 7-term one does (a
  test pins this on the BLAS at hand).
- u4 = u + h K.T @ b4 and q = (u5 - u4) / (atol + rtol max(|u|, |u5|))
  are formed per component, and the sum of q^2 follows numpy's own order
  (``_sum_of_squares``), so the error norm has the bits of the array
  form. |u5| is kept as the next step's |u|.
- A component whose u5 and u4 agree exactly adds 0 to the norm, one with
  a zero scale under a nonzero difference adds inf, and a nan norm
  rejects the step as a norm above 1 does.

So a stage makes four numpy calls (the stage sum, its scaling, the add
to u and the store into K) and an accepted step four more (the u4 sum,
two ``tolist`` and the copy of K), 28 in all.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
_B5 = np.append(_A[6], 0.0)
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


def _dense(u0, h, Q, th):
    """Dormand-Prince's continuous extension at fractions ``th`` of steps
    of length ``h`` from ``u0``: one step, or a stack of them."""
    p = np.stack([th, th**2, th**3, th**4], axis=-1)
    return u0 + np.asarray(h)[..., None] * (Q @ p[..., None])[..., 0]


@dataclass
class OdeResult:
    """Nodes ``ts``/``us`` and, per accepted step k from ``ts[k]``, its
    signed length ``hs[k]`` and dense-output polynomial ``Qs[k] = K.T @ _P``,
    formed for all steps at once when the run ends.

    A boundary leg ends at the guard crossing: ``ts[-1]`` lies inside its
    last step, and the span ends there.
    """
    ts: np.ndarray
    us: np.ndarray
    status: str  # "t_limit" | "boundary" | "blow_up"
    t_end: float
    u_end: np.ndarray
    n_accepted: int
    n_rejected: int
    n_vetoed: int  # rejected steps whose stage rhs vetoed or made non-finite
    hs: np.ndarray
    Qs: np.ndarray

    def sample(self, ts):
        """Dense output at query times inside the span; a node returns its
        row of ``us`` exactly."""
        t = np.atleast_1d(np.asarray(ts, dtype=float))
        k = self._locate(t)
        out = self.us[k]
        inner = k < len(self.hs)  # the last node starts no step
        k = k[inner]
        out[inner] = _dense(self.us[k], self.hs[k], self.Qs[k],
                            (t[inner] - self.ts[k]) / self.hs[k])
        return out

    def _locate(self, t):
        """Index of the last node at or before each t, read in the direction
        of integration; NumericError for a t outside the span widened by
        1e-12 (a t that far past the last node reads as that node)."""
        sgn = 1.0 if self.ts[-1] >= self.ts[0] else -1.0
        nodes, s = sgn * self.ts, sgn * t
        outside = ~((nodes[0] - 1e-12 <= s) & (s <= nodes[-1] + 1e-12))
        if outside.any():
            raise NumericError(f"time {t[outside][0]} outside integrated span")
        return np.maximum(np.searchsorted(nodes, s, side="right") - 1, 0)


def _rms(v):
    return math.sqrt(v.dot(v) / v.size)


def _sum_of_squares(q):
    """The sum of the squares of the floats ``q``, with the bits of numpy's
    ``(q * q).sum()``: numpy adds fewer than 8 terms left to right, and
    from 8 on it runs its own pairwise order, so those go to numpy."""
    if len(q) >= 8:
        v = np.array(q)
        return float((v * v).sum())
    s = 0.0
    for x in q:
        s += x * x
    return s


def _finite_entries(row):
    """``row`` (a list of floats, or a 1-D array, read by ``tolist``) as a
    list of Python floats, or None when one of them is inf or nan."""
    if isinstance(row, np.ndarray):
        row = row.tolist()
    return row if all(map(math.isfinite, row)) else None


def _starting_step(rhs, t, u, f0, direction, span, rtol, atol):
    """Hairer-Norsett-Wanner starting step from one probe evaluation.

    A vetoed or non-finite probe falls back to ``1e-4 * max(span, 1)``, and
    so does a probe step of zero (``f0 / scale`` overflowed) or nan (a zero
    scale over a zero entry). Under :func:`integrate`'s error state an
    overflow or a division by a zero scale in these norms reads as inf and
    a 0 / 0 as nan.
    """
    scale = atol + rtol * np.abs(u)
    d0, d1 = _rms(u / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    fallback = 1e-4 * max(span, 1.0)
    if not h0 > 0.0:
        return fallback
    try:
        f1 = np.asarray(rhs(t + direction * h0, u + direction * h0 * f0),
                        dtype=float)
    except DomainError:
        return fallback
    if _finite_entries(f1) is None:
        return fallback
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        return max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.2)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def integrate(rhs, t0, u0, t1, rtol=1e-10, atol=1e-12,
              guard: Optional[Callable] = None, speed_limit=SPEED_LIMIT):
    """Integrate u' = rhs(t, u) from t0 to t1 (either direction).

    ``rhs`` returns u' as a 1-D array or as a list of floats; a list is
    checked for finiteness as it is and stored without a ``tolist`` pass.
    It reads u and does not write into it: the sixth stage's u is the
    step's u5.
    It may raise DomainError or return non-finite values to veto a
    stage; the step is then halved. The step after a rejected one may
    shrink but not grow (Hairer, Norsett & Wanner, II.4). A step the
    controller wants below MIN_STEP ends the run ("boundary" after a
    veto, else "blow_up").
    ``guard(u)`` (optional) returns False outside the admissible region;
    a crossing inside an accepted step is bisected on the dense output to
    MIN_STEP in t and the run ends with status "boundary".
    The run, the rhs included, ignores numpy's divide, overflow and
    invalid warnings, so an overflowing stage reads inf and is vetoed.
    """
    t = float(t0)
    t1 = float(t1)
    if not (math.isfinite(t) and math.isfinite(t1)):
        raise DomainError(f"integration span ({t0}, {t1}) must be finite")
    u = np.asarray(u0, dtype=float).copy()
    d = u.size
    ts, us, dts, stages = [t], [u], [], []  # stages: each accepted step's K
    n_acc = n_rej = n_vet = 0

    def result(status, t_end, u_end):
        Qs = np.array(stages).reshape(-1, 7, d).transpose(0, 2, 1) @ _P
        return OdeResult(np.array(ts), np.array(us), status, t_end, u_end,
                         n_acc, n_rej, n_vet, np.array(dts), Qs)

    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0.0:
        return result("t_limit", t, u)

    K = np.empty((7, d))  # stage derivatives; row 0 is rhs at (t, u)
    KT = K.T  # ndarray.dot on it: @ costs more per call on tiny operands
    # stage i reads the rows before it: views of K, built once per call
    stage_rows = [(i, _C[i], KT[:, :i], _A[i]) for i in range(1, 7)]
    K[0] = rhs(t, u)  # initial point must be admissible
    if _finite_entries(K[0]) is None:
        raise DomainError("non-finite derivative at the initial point")
    h = _starting_step(rhs, t, u, K[0], direction, span, rtol, atol)
    w = u.tolist()  # u and |u| on Python floats, for the error norm
    abs_w = [abs(x) for x in w]
    last_fail_domain = False
    grow_max = 10.0  # 1 right after a rejected step

    while direction * (t1 - t) > 0 and n_acc + n_rej < MAX_STEPS:
        if h < MIN_STEP:
            return result("boundary" if last_fail_domain else "blow_up", t, u)
        rest = abs(t1 - t)
        last = h >= rest  # a remainder below the floor is still stepped
        if last:
            h = rest
        hs = direction * h
        try:
            for i, c, KTi, Ai in stage_rows:
                arg = u + hs * KTi.dot(Ai)
                row = rhs(t + c * hs, arg)
                k_row = _finite_entries(row)
                if k_row is None:
                    raise DomainError("non-finite derivative")
                K[i] = row
        except DomainError:
            last_fail_domain = True
            n_vet += 1
            n_rej += 1
            grow_max = 1.0
            h *= 0.5
            continue
        u5, w5 = arg, arg.tolist()  # the sixth stage's argument
        abs_w5, q = [], []
        for y, a, x, v in zip(w, abs_w, w5, KT.dot(_B4).tolist()):
            b = abs(x)
            abs_w5.append(b)
            diff = x - (y + hs * v)  # u5 - u4
            if diff == 0.0:
                q.append(0.0)
            else:
                scale = atol + rtol * (a if a >= b else b)
                q.append(diff / scale if scale else math.inf)
        err = math.sqrt(_sum_of_squares(q) / d)
        if not err <= 1.0:  # a nan err is rejected, and shrinks h by 0.2
            last_fail_domain = False
            n_rej += 1
            grow_max = 1.0
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue

        t_new = t1 if last else t + hs
        dt = t_new - t
        dts.append(dt)
        stages.append(K.copy())
        ts.append(t_new)
        us.append(u5)
        n_acc += 1

        # the speed from the floats of the finiteness check: hypot cannot
        # overflow as k_new.dot(k_new) would for entries near 1e300
        if math.hypot(*k_row) > speed_limit:
            return result("blow_up", t_new, u5)
        if guard is not None and not guard(u5):
            Q = KT @ _P
            lo, hi = t, t_new
            while abs(hi - lo) > MIN_STEP:
                mid = 0.5 * (lo + hi)
                if guard(_dense(u, dt, Q, (mid - t) / dt)):
                    lo = mid
                else:
                    hi = mid
            u_b = _dense(u, dt, Q, (lo - t) / dt)
            ts[-1], us[-1] = lo, u_b
            return result("boundary", lo, u_b)

        t, u, w, abs_w = t_new, u5, w5, abs_w5
        K[0] = K[6]  # FSAL: rhs at (t_new, u5) up to the b-row identity
        last_fail_domain = False
        h *= min(grow_max, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 10.0))
        grow_max = 10.0

    if n_acc + n_rej >= MAX_STEPS:
        raise NumericError("step budget exhausted")
    return result("t_limit", t, u)
