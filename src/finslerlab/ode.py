"""Adaptive embedded Runge-Kutta integration with dense output: Hairer's
DOP853.

Hand-rolled rather than delegated: the right-hand sides here raise
DomainError inside chart boundaries, and the controller treats a failed
stage as a rejected step. The vetoed stage's time brackets the exit:
later steps span at most ``BRACKET_THETA`` of the time left to it, until
a step at the floor probes past it and a veto there ends the leg. That
turns hard chart exits into clean boundary localization instead of
NaN-poisoned step control.

The method is DOP853, Hairer's 8th-order method with its 5th- and
3rd-order error estimates and 7th-order dense output (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.5 and II.6; the constants of his
``dop853.f``). Geodesics and the comparison ODE both run it: at their
rtol of 1e-9 to 1e-12 it takes far fewer stages than a 5th-order pair.
The dense output's matrix P follows Hairer's nested rule (``CONTD8``):
see ``_hairer_dense``.

Stage i runs the rhs at (t + c_i h, u + h K[:i].T @ a_i). The twelfth
stage runs it at the step's new state u8, whose weight row is the last
row of ``_A8``: that state is the twelfth stage's argument, its stage is
vetoed like the others, and FSAL copies it into row 0. The starting step
follows the same book, II.4. Two legs from one state share one start
(``two_legs``): the second reuses the first's slope at that state and,
for its first step, the step the first leg's controller proposed after
its first accepted step, so it runs neither the slope nor the probe
again.

A step keeps the stage sums K[:i].T @ a_i as BLAS calls (``ndarray.dot``
on views of one K.T): a sum on Python floats would not give their bits,
since OpenBLAS's gemv rounds its sums its own way. The rest of the error
test runs on Python floats, with the bits of the array form. It scales
e5 = K.T @ E5 and e3 = K.T @ E3 by atol + rtol max(|u|, |u8|) per
component, and its error is |h| n5 / sqrt(d (n5 + n3 / 100)) for the sums
n5 and n3 of their squares (Hairer's ``ERR``). Sums of squares follow
numpy's own order (``_sum_of_squares``), and |u8| is kept as the next
step's |u|. A zero entry adds 0, a nonzero one over a zero scale adds
inf, and a nan error rejects the step as an error above 1 does.

So a stage makes four numpy calls (the stage sum, its scaling, the add to
u and the store into K), an error row two (its sum and ``tolist``), and an
accepted step two more (the new state's ``tolist`` and the copy of K): 54
for the twelve stages and two error rows.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, finite, real, reals, times


def _e5e3_error(hs, e5, e3, abs_w, w8, rtol, atol):
    """DOP853's error from the row sums ``e5`` and ``e3``, with |u| and the
    new state on Python floats; and the |u8| it read."""
    abs_w8, q5, q3 = [], [], []
    for a, x, p, r in zip(abs_w, w8, e5, e3):
        b = abs(x)
        abs_w8.append(b)
        scale = atol + rtol * (a if a >= b else b)
        for q, v in ((q5, p), (q3, r)):
            q.append(0.0 if v == 0.0 else v / scale if scale else math.inf)
    n5, n3 = _sum_of_squares(q5), _sum_of_squares(q3)
    den = n5 + 0.01 * n3
    return (abs(hs) * n5 / math.sqrt(den * len(q5)) if den else 0.0), abs_w8


def _row(i, entries):
    """A weight row over stages 0..i-1 from its nonzero ``{stage: a}``."""
    a = np.zeros(i)
    a[list(entries)] = list(entries.values())
    return a


def _hairer_dense(b, D):
    """Hairer's dense output (``CONTD8``) as the matrix ``P`` of
    u(t0 + th h) = u0 + h (K.T @ P) @ (th, th^2, ..., th^m), for the weight
    row ``b`` of the new state, whose own stage is K[len(b)], and the rows
    ``D``.

    u0 + th (F0 + th1 (F1 + th (F2 + th1 (F3 + ... + th F6)))), th1 = 1 - th,
    with F0 = h K.T @ b, F1 = h K[0] - F0, F2 = 2 F0 - h (K[0] + K[len(b)])
    and F3.. = h D @ K, expanded in powers of th: row j of the result
    weighs K[j]."""
    s, m = D.shape[1], 3 + len(D)  # the stages read, the degree in th
    b, (e0, e_new) = np.pad(b, (0, s - len(b))), np.eye(s)[[0, len(b)]]
    P, mult = np.zeros((s, m)), [0.0, 1.0]  # F0's factor th, by powers
    for k, g in enumerate([b, e0 - b, 2 * b - e0 - e_new, *D]):
        P += np.outer(g, np.pad(mult, (0, m + 1 - len(mult)))[1:])
        mult = np.convolve(mult, [1.0, -1.0] if k % 2 == 0 else [0.0, 1.0])
    return P


# DOP853: the constants of Hairer's dop853.f, each the double nearest its
# 30 published digits. Stage i's row weighs stages 0..i-1 ({stage: a}); the
# twelfth row is the weight row b of the new state, stages 13-15 are the
# dense output's own, and E3 is b - bhh.
_C8 = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
       0.2816496580927726, 1 / 3, 0.25, 0.3076923076923077,
       0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0)
_A8 = [np.array([])] + [_row(i, a) for i, a in enumerate([
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386,
     4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596,
     5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235,
     8: -8.87285693353063, 9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
], 1)]
_E5 = _row(13, {0: 0.01312004499419488, 5: -1.2251564463762044,
                6: -0.4957589496572502, 7: 1.6643771824549864,
                8: -0.35032884874997366, 9: 0.3341791187130175,
                10: 0.08192320648511571, 11: -0.022355307863886294})
_E3 = np.append(_A8[12], 0.0) - _row(13, {0: 0.2440944881889764,
                                          8: 0.7338466882816118,
                                          11: 0.022058823529411766})
_C8_DENSE = (0.1, 0.2, 0.7777777777777778)
_A8_DENSE = tuple(_row(i, a) for i, a in enumerate([
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776,
     6: 0.053541988307438566, 7: -0.05492374857139099,
     10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
], 13))
_D8 = np.array([_row(16, d) for d in [
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973,
     10: 2.2404374302607883, 11: 0.6315787787694688, 12: -0.08899033645133331,
     13: 18.148505520854727, 14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963,
     10: -1.0006050966910838, 11: 0.7777137798053443, 12: -2.778205752353508,
     13: -60.19669523126412, 14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163,
     10: 104.0996495089623, 11: 29.8402934266605, 12: -43.53345659001114,
     13: 96.32455395918828, 14: -39.17726167561544, 15: -149.72683625798564},
]])

_P8 = _hairer_dense(_A8[12], _D8)
# the controller scales steps by 0.9 err^-_EXPONENT
_EXPONENT = 1 / 8

# Step floor, and the resolution of the guard bisection: a shorter step
# cannot place the end of a leg any better than the bisection does.
MIN_STEP = 1e-12
# after a veto a step spans at most this share of the time to the vetoed
# stage (see integrate)
BRACKET_THETA = 0.9
SPEED_LIMIT = 1e8
MAX_STEPS = 200_000


def _dense(u0, h, Q, th):
    """The dense output at fractions ``th`` of steps of length ``h``
    from ``u0``, for the polynomials ``Q`` of one step or a stack of them."""
    p = np.stack([th**j for j in range(1, Q.shape[-1] + 1)], axis=-1)
    return u0 + np.asarray(h)[..., None] * (Q @ p[..., None])[..., 0]


def _dense_polynomials(rhs, ts, us, hs, Ks):
    """Per step k, from ``ts[k]``, ``us[k]`` and length ``hs[k]``, the
    polynomial K.T @ P of the dense output: K is the step's stages
    ``Ks[k]`` and the three further stages P reads, one rhs call each. A
    vetoed or non-finite one raises DomainError."""
    n, s, d = Ks.shape
    Ks = np.concatenate([Ks, np.empty((n, len(_C8_DENSE), d))], 1)
    for K, t, u, h in zip(Ks, ts, us, hs):
        KT = K.T
        for i, c, a in zip(range(s, len(K)), _C8_DENSE, _A8_DENSE):
            row = rhs(t + c * h, u + h * KT[:, :i].dot(a))
            if _finite_entries(row) is None:
                raise DomainError("non-finite dense-output stage")
            K[i] = row
    return Ks.transpose(0, 2, 1) @ _P8


@dataclass
class OdeResult:
    """Nodes ``ts``/``us`` and, per accepted step k from ``ts[k]``, its
    signed length ``hs[k]`` and dense-output polynomial ``Qs[k] = K.T @ P``:
    u(ts[k] + th hs[k]) = us[k] + hs[k] Qs[k] @ (th, th^2, ..., th^7). The
    polynomials need three more stages per step: ``Qs`` is None until the
    first ``sample`` forms them, so a leg never sampled pays nothing for
    its dense output.

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
    Qs: Optional[np.ndarray]
    _form_Qs = None  # not a field: set by integrate, run by the first sample
    # not a field: (slope at the start, proposed step) once the controller
    # proposed a step after a first accepted step that no veto preceded;
    # two_legs hands it to the second leg
    _next_start = None

    def sample(self, ts):
        """Dense output at query times inside the span; a node returns its
        row of ``us`` exactly. The first call runs the rhs at the
        dense-output stages: DomainError if one is vetoed."""
        t = times(ts)
        if self.Qs is None:
            self.Qs, self._form_Qs = self._form_Qs(), None
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
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** _EXPONENT)


@np.errstate(all="ignore")
def integrate(rhs, t0, u0, t1, rtol=1e-10, atol=1e-12,
              guard: Optional[Callable] = None, speed_limit=SPEED_LIMIT, *,
              _start=None):
    """Integrate u' = rhs(t, u) from t0 to t1 (either direction) with
    DOP853.

    ``rhs`` returns u' as a 1-D array or as a list of floats; a list is
    checked for finiteness as it is and stored without a ``tolist`` pass.
    It reads u and does not write into it: the twelfth stage's u is the
    step's new state. The result keeps ``rhs`` for the dense output's
    stages, which its first ``sample`` runs.
    It may raise DomainError or return non-finite values to veto a
    stage. The vetoed stage's time t + c_i h is then the earliest time
    known to be bad: each later attempt spans at most BRACKET_THETA of the
    time left to it. Once that share is below MIN_STEP, the bound is
    dropped and one step of MIN_STEP / BRACKET_THETA probes past it; a
    veto there ends the run "boundary". The step after a rejected one may
    shrink but not grow (Hairer, Norsett & Wanner, II.4). A step the
    controller wants below MIN_STEP, or an accepted |u'| above
    ``speed_limit`` (read as a real), ends the run "blow_up". ``rtol``
    and ``atol`` are finite reals >= 0, not both 0.
    ``guard(u)`` (optional) returns False outside the admissible region;
    a crossing inside an accepted step is bisected on the dense output to
    MIN_STEP in t and the run ends with status "boundary".
    ``_start`` is the ``_next_start`` of a leg from the same (t0, u0) and
    rhs at the same tolerances, which only :func:`two_legs` passes: its
    slope stands for rhs(t0, u0) and its step for the starting step.
    The run, the rhs included, ignores numpy's floating-point warnings, so
    an overflowing stage reads inf and is vetoed, and an underflow reads 0.
    """
    t, t1 = finite(t0, "t0"), finite(t1, "t1")
    rtol, atol = finite(rtol, "rtol"), finite(atol, "atol")
    if min(rtol, atol) < 0.0 or rtol == atol == 0.0:
        raise DomainError(f"needs rtol and atol >= 0, not both 0; got "
                          f"{rtol} and {atol}")
    speed_limit = real(speed_limit, "speed_limit")
    u = reals(u0, "u0").copy()
    if u.ndim != 1 or not u.size:
        raise DomainError(f"u0 must be a non-empty 1-D vector, got {u.shape}")
    d, s = u.size, len(_C8)
    ts, us, dts, stages = [t], [u], [], []  # stages: each accepted step's K
    n_acc = n_rej = n_vet = 0
    t_bad = None  # the time of the last vetoed stage, while it bounds steps
    next_start = None

    def result(status, t_end, u_end):
        res = OdeResult(np.array(ts), np.array(us), status, t_end, u_end,
                        n_acc, n_rej, n_vet, np.array(dts), None)
        res._form_Qs = partial(_dense_polynomials, rhs, res.ts, res.us, res.hs,
                               np.array(stages).reshape(-1, s, d))
        res._next_start = next_start
        return res

    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0.0:
        return result("t_limit", t, u)

    K = np.empty((s, d))  # stage derivatives; row 0 is rhs at (t, u)
    KT = K.T  # ndarray.dot on it: @ costs more per call on tiny operands
    # stage i reads the rows before it: views of K, built once per call
    stage_rows = [(i, _C8[i], KT[:, :i], _A8[i]) for i in range(1, s)]
    if _start is None:
        K[0] = rhs(t, u)  # initial point must be admissible
        if _finite_entries(K[0]) is None:
            raise DomainError("non-finite derivative at the initial point")
        h = _starting_step(rhs, t, u, K[0], direction, span, rtol, atol)
    else:
        K[0], h = _start
    abs_w = [abs(x) for x in u.tolist()]  # |u| on Python floats
    grow_max = 10.0  # 1 right after a rejected step

    while direction * (t1 - t) > 0 and n_acc + n_rej < MAX_STEPS:
        probe = False
        if t_bad is not None:
            gap = direction * (t_bad - t)
            if BRACKET_THETA * gap >= MIN_STEP:
                h = min(h, BRACKET_THETA * gap)
            else:  # one step past the bracket: a veto there ends the leg
                h, t_bad, probe = MIN_STEP / BRACKET_THETA, None, True
        if h < MIN_STEP:
            return result("blow_up", t, u)
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
            n_vet += 1
            n_rej += 1
            if probe:
                return result("boundary", t, u)
            grow_max = 1.0
            t_bad = t + c * hs  # c: the vetoed stage's
            continue
        u_new = arg  # the twelfth stage's argument
        err, abs_w_new = _e5e3_error(hs, KT.dot(_E5).tolist(),
                                     KT.dot(_E3).tolist(), abs_w,
                                     arg.tolist(), rtol, atol)
        if not err <= 1.0:  # a nan err is rejected, and shrinks h by 0.2
            n_rej += 1
            grow_max = 1.0
            h *= max(0.2, 0.9 * err ** -_EXPONENT)
            continue

        t_new = t1 if last else t + hs
        dt = t_new - t
        dts.append(dt)
        stages.append(K.copy())
        ts.append(t_new)
        us.append(u_new)
        n_acc += 1

        # the speed from the floats of the finiteness check: hypot cannot
        # overflow as k_new.dot(k_new) would for entries near 1e300
        if math.hypot(*k_row) > speed_limit:
            return result("blow_up", t_new, u_new)
        if guard is not None and not guard(u_new):
            Q = _dense_polynomials(rhs, [t], [u], [dt], K[None])[0]
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

        t, u, abs_w = t_new, u_new, abs_w_new
        h *= min(grow_max, max(0.2, 0.9 * err ** -_EXPONENT
                               if err > 0 else 10.0))
        grow_max = 10.0
        if n_acc == 1 and not n_vet:  # K[0] is still rhs(t0, u0)
            next_start = K[0].copy(), h
        K[0] = K[-1]  # FSAL: rhs at (t_new, u_new) up to the b-row identity

    if n_acc + n_rej >= MAX_STEPS:
        raise NumericError("step budget exhausted")
    return result("t_limit", t, u)


def two_legs(rhs, t0, u0, ends, rtol, atol, speed_limit):
    """The two :func:`integrate` legs from (t0, u0) to ``ends[0]`` and then
    to ``ends[1]``, at the same tolerances.

    The second leg starts from what the first learned at the shared state:
    its first stage is the first leg's rhs(t0, u0), and its first step is
    the step the first leg's controller proposed after its first accepted
    step, h min(grow_max, max(0.2, 0.9 err^(-1/8))), taken at that state
    with the same local error constant. So it runs neither that slope nor
    the starting-step probe. A first leg that accepted no step, or was
    vetoed before its first accepted step (a bracket on its own side
    bounded that step), hands nothing on, and the second leg starts as a
    lone ``integrate`` does. The first leg always runs as a lone one.
    """
    first = integrate(rhs, t0, u0, ends[0], rtol, atol,
                      speed_limit=speed_limit)
    return first, integrate(rhs, t0, u0, ends[1], rtol, atol,
                            speed_limit=speed_limit, _start=first._next_start)
