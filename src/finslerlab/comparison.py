"""The scalar comparison ODE  f'' + lam f = lamt / f^3  and its taxonomy.

Along a common unit-speed geodesic of two projectively related Einstein
metrics with normalized constants lam, lamt in {-1, 0, 1}, the ratio
f = (F / F_cand)^(1/2) ... obeys the cubic-forcing oscillator above, the
candidate metric evolves as value(t) = 1 / f(t)^2, and first integrals
reduce everything to the invariant

    C = (lam a^2 + lamt / a^2 + b^2) / 2,   a = f(0) > 0,  b = f'(0),

with f'^2 = rad(f) / f^2 for the quartic rad(s) = -lam s^4 + 2C s^2 - lamt.

It is an Ermakov-Pinney equation (E. Pinney, Proc. AMS 1 (1950) 681): with
the solutions (c, s) = (cos t, sin t), (1, t) or (cosh t, sinh t) of
u'' + lam u = 0 (lam = 1, 0, -1), so that c' = -lam s and s' = c,

    f^2 = Q(c, s) = (a c + b s)^2 + (lamt / a^2) s^2

for all nine (lam, lamt) pairs: a binary quadratic form of discriminant
-lamt, definite for lamt = 1, the square of a c + b s for lamt = 0 and the
product of a c + (b -+ 1/a) s for lamt = -1. The life interval ends at the
zeros of these factors, the critical times are the zeros of the binary
quadratic (f^2)' / 2, and int dt / f^2 is dtau / Q(1, tau), tau = s / c.

The module computes maximal life intervals, candidate lengths int dt / f^2
in closed form, completeness flags, membership in the exceptional
borderline families, and cross-checks everything against direct numeric
integration and the inversion int_a^f s ds / sqrt(rad(s)) = +- t, in
closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import jets as jr
from . import ode
from .errors import DomainError, NumericError

ALLOWED_CONSTANTS = (-1.0, 0.0, 1.0)
FAMILY_TOL = 1e-9
F_FLOOR = 1e-9

DEFAULT_A_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                  1.9, 2.8, 3.7, 4.6, 5.5, 6.4, 7.3, 8.2, 9.1, 10.0)
DEFAULT_B_GRID = tuple(np.linspace(-10.0, 10.0, 41))


@dataclass(frozen=True)
class Case:
    lam: float
    lam_tilde: float
    a: float
    b: float
    C: float


def make_case(lam, lam_tilde, a, b):
    """Validated case with the conserved invariant C (snapped near zero)."""
    lam, lam_tilde = float(lam), float(lam_tilde)
    if lam not in ALLOWED_CONSTANTS or lam_tilde not in ALLOWED_CONSTANTS:
        raise DomainError("normalized Einstein constants must be -1, 0 or +1")
    a, b = float(a), float(b)
    if not (a > 0.0 and math.isfinite(a) and math.isfinite(b)):
        raise DomainError("need a > 0 and finite b")
    # C and the turning-point identity need a^2 > 0 and a^4, (a b)^2, b^2
    # and lamt / a^2 finite
    a2, ab = a * a, a * b
    if not (a2 > 0.0
            and math.isfinite(a2 * a2 + ab * ab + b * b + abs(lam_tilde) / a2)):
        raise DomainError(f"a = {a:g}, b = {b:g} put a^4, (a b)^2, b^2 or "
                          f"1/a^2 outside the float range")
    # snap relative to the terms that enter C, so an absent a^2 or 1/a^2
    # cannot swamp a small b^2
    scale = max(1.0, abs(lam) * a * a + abs(lam_tilde) / (a * a) + b * b)
    C = 0.5 * (lam * a * a + lam_tilde / (a * a) + b * b)
    if abs(C) < 1e-12 * scale:
        C = 0.0  # exact borderline families sit at C = 0
    defect = abs(-lam * a**4 + 2.0 * C * a * a - lam_tilde - (a * b) ** 2)
    if defect > 1e-11 * max(1.0, a**4, (a * b) ** 2):
        raise NumericError(f"turning-point identity violated by {defect:g}")
    return Case(lam, lam_tilde, a, b, C)


# ---------------------------------------------------------------------------
# the binary quadratic form


def _form(lam, t, scaled=False):
    """The linear forms (al, be) -> al c + be s at t: a float (on ``math``),
    an array or a jet (on the ring functions of ``jets``).

    (c, s) are homogeneous coordinates of tau = tan t, t, tanh t (lam = 1,
    0, -1): tau = +-inf is the point (0, +-1), and for lam = -1, (c, s) =
    2 e^{-|t|} (cosh t, sinh t) = (1, sg) + e (1, -sg) with e = e^{-2|t|}
    and sg the sign of t (per base value of a jet), finite at t = +-inf.
    ``scaled`` gives the solutions themselves: (1, e) becomes (e^{|t|},
    e^{-|t|}) / 2. The form keeps the split, so its small term survives
    when al + sg be cancels."""
    fn = math if isinstance(t, float) else jr
    if lam == 1.0:
        c, s = fn.cos(t), fn.sin(t)
        return lambda al, be: al * c + be * s
    if fn is math:
        sg = math.copysign(1.0, t)
        if lam == 0.0 and not math.isfinite(t):
            return lambda al, be: be * sg
    else:
        sg = np.copysign(1.0, t.value if jr.is_jet(t) else t)
    if lam == 0.0:
        return lambda al, be: al + be * t
    if scaled:
        big, small = 0.5 * fn.exp(sg * t), 0.5 * fn.exp(-sg * t)
        return lambda al, be: (al + sg * be) * big + (al - sg * be) * small
    e = fn.exp(-2.0 * abs(t)) if fn is math else fn.exp(-2.0 * (sg * t))
    return lambda al, be: (al + sg * be) + e * (al - sg * be)


def _factors(case):
    """The s-coefficients beta of the real linear factors a c + beta s of
    Q: none for lamt = 1, b (a double factor) for lamt = 0, b -+ 1/a for
    lamt = -1. For lam = 0 they are taken as (ab -+ 1) / a, which keeps
    its digits next to ab = +-1, where the life interval ends at -a / beta
    and b -+ 1/a cancels."""
    a, b = case.a, case.b
    if case.lam_tilde != -1.0:
        return {1.0: (), 0.0: (b,)}[case.lam_tilde]
    if case.lam == 0.0:
        return (_ab_plus(a, b, -1.0) / a, _ab_plus(a, b, 1.0) / a)
    return (b - 1.0 / a, b + 1.0 / a)


def _split(x):
    """Dekker's split of x into halves of 26 bits each: x = hi + lo."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _ab_plus(a, b, one):
    """a b + one (one = -+1) rounded once: a b = p + e exactly by Dekker's
    two-product (Python 3.11 has no ``math.fma``), and p + one is exact
    where the two cancel (Sterbenz). ``make_case``'s range keeps the
    splits finite."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return (p + one) + e


def _edge(case, beta, sg):
    """The factor a c + beta s at t = sg inf (lam = 0 or -1), the point
    (0, sg) or (1, sg) of ``_form``, read as 0 within rounding of its terms."""
    al = case.a if case.lam == -1.0 else 0.0
    v = al + sg * beta
    size = al + abs(case.b) + abs(case.lam_tilde) / case.a
    return 0.0 if abs(v) < 1e-12 * size else v


def _time(lam, gamma, delta):
    """The time t at which (c, s) is a multiple of (gamma, delta): the one
    in [0, pi] for lam = 1, where the point recurs every pi; None where no
    finite time reaches it (gamma = 0 for lam = 0, |delta| >= |gamma| for
    lam = -1). For lam = -1 it is atanh(delta / gamma), as a log1p that
    keeps its digits next to the ends."""
    if lam == 1.0:
        if math.copysign(1.0, delta) < 0.0:
            gamma, delta = -gamma, -delta
        return math.atan2(delta, gamma)
    if lam == 0.0:
        return delta / gamma if gamma != 0.0 else None
    if abs(delta) >= abs(gamma):
        return None
    return 0.5 * math.log1p(2.0 * delta / (gamma - delta))


def _roots(p, q, n):
    """The zeros (gamma, delta) of p c^2 + q c s + n s^2 on the projective
    line: tau = s / c solves n tau^2 + q tau + p = 0, and the roots are
    taken as w / n and p / w, free of cancellation."""
    disc = q * q - 4.0 * p * n
    if disc < 0.0:
        return ()
    w = -0.5 * (q + math.copysign(math.sqrt(disc), q))
    return ((n, w), (w, p))


def f_squared(case, t):
    """Closed-form f^2; accepts floats, numpy arrays, sequences, or jets."""
    # a float runs on ``math``; one past exp's range, any other number or
    # a sequence of times reads as an array
    if not (isinstance(t, float) and abs(t) < 700.0 or jr.is_jet(t)):
        try:
            t = np.asarray(t, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"f_squared needs real times: {exc}") from None
    form, a = _form(case.lam, t, scaled=True), case.a
    if case.lam_tilde == 1.0:
        lin, s = form(a, case.b), form(0.0, 1.0) / a
        return lin * lin + s * s
    lin = [form(a, beta) for beta in _factors(case)]
    return lin[0] * lin[-1]


def f_value(case, t):
    v = f_squared(case, t)
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError("t outside the life interval")
    return jr.sqrt(v)


def radicand(case, s):
    return -case.lam * s**4 + 2.0 * case.C * s * s - case.lam_tilde


def evolution_law(case, t):
    """Candidate value along the geodesic in the doubled-angle normal form,
    written independently of ``f_squared``, which it is checked against."""
    a, b, lt = case.a, case.b, case.lam_tilde
    s1 = a * a + lt / (a * a) + b * b
    s2 = a * a - lt / (a * a) - b * b
    if case.lam == 1.0:
        return 2.0 / (s2 * np.cos(2.0 * t) + 2.0 * a * b * np.sin(2.0 * t) + s1)
    if case.lam == 0.0:
        return 1.0 / ((a + b * t) ** 2 + lt * t * t / (a * a))
    return 2.0 / (s1 * np.cosh(2.0 * t) + 2.0 * a * b * np.sinh(2.0 * t) + s2)


def normal_form_defect(case, ts):
    """Max |law * f^2 - 1| across ts: the law must be 1/f^2 identically."""
    ts = np.asarray(ts, dtype=float)
    return float(np.max(np.abs(evolution_law(case, ts) * f_squared(case, ts) - 1.0)))


# ---------------------------------------------------------------------------
# maximal interval and critical times


def maximal_interval(case):
    """(t_lo, t_hi): the maximal interval around 0 with f^2 > 0, between
    the zeros of the linear factors of Q nearest to 0 on either side. For
    lam = 0 and -1 a factor (a > 0 at t = 0) has a zero on a side only
    where its edge is negative."""
    t_lo, t_hi = -math.inf, math.inf
    for beta in _factors(case):
        for sg in (1.0, -1.0):
            if case.lam != 1.0 and not _edge(case, beta, sg) < 0.0:
                continue
            # the zero (-beta, a), forward in time on the side sg (time
            # reversal flips the sign of s)
            t = _time(case.lam, -beta, sg * case.a)
            if sg > 0.0:
                t_hi = min(t_hi, t)
            else:
                t_lo = max(t_lo, -t)
    return t_lo, t_hi


def is_stationary(case):
    """True when f is constant: b = 0 at the equilibrium radius."""
    return case.b == 0.0 and \
        abs(case.lam * case.a**4 - case.lam_tilde) < 1e-12 * max(1.0, case.a**4)


def _slope_coeffs(case):
    """(p, q, n) of R = (f^2)' / 2 = p c^2 + q c s + n s^2."""
    lam, A, B = case.lam, case.a * case.a, case.a * case.b
    return B, 2.0 * case.C - 2.0 * lam * A, -lam * B


def _half_slope(case, t):
    """|R| at the float t: the product of the linear factors w c - n s and
    p c - w s of R over w (see ``_roots``), taken with the solutions
    themselves, so it keeps its digits where f^2 levels off."""
    p, q, n = _slope_coeffs(case)
    form, roots = _form(case.lam, t, scaled=True), _roots(p, q, n)
    w = roots[0][1] if roots else 0.0
    if w != 0.0:
        return abs(form(w, -n) * form(p, -w) / w)
    c, s = form(1.0, 0.0), form(0.0, 1.0)  # no real factors, or w = 0
    return abs(p * c * c + q * c * s + n * s * s)


def first_critical_time(case):
    """Smallest t > 0 with f'(t) = 0, or inf when f is forward-monotone.

    For Q = A c^2 + 2 B c s + D s^2 the derivative is (f^2)' = 2 R(c, s)
    with R = B c^2 + (D - lam A) c s - lam B s^2, whose zeros are read back
    as times; D = 2C - lam A takes the snapped invariant. A stationary
    point of the closed form beyond the life interval does not count: f
    collapses first, so the forward branch stays monotone.
    """
    if is_stationary(case):
        return math.inf
    lam = case.lam
    t_first = math.inf
    for gamma, delta in _roots(*_slope_coeffs(case)):
        t = _time(lam, gamma, delta)
        if lam == 1.0 and t <= 1e-15:
            t += math.pi
        if t is not None and 1e-15 < t < t_first:
            t_first = t
    if t_first < math.inf and t_first < maximal_interval(case)[1]:
        return t_first
    return math.inf


# ---------------------------------------------------------------------------
# lengths and completeness


def candidate_length(case, t_from, t_to):
    """int dt / f^2 over the window from t_from to t_to, in closed form.

    The window must lie in the closure of the maximal interval, else
    DomainError (so does a NaN end). A window that reaches a finite end
    of the interval, where 1/f^2 has a non-integrable pole, or an
    infinite end on a side where the length diverges, returns inf; a
    window with t_from > t_to returns the negated length.
    """
    t0, t1 = float(t_from), float(t_to)
    if math.isnan(t0) or math.isnan(t1):
        raise DomainError(f"candidate_length needs real ends, got ({t0}, {t1})")
    if t0 > t1:
        return -candidate_length(case, t1, t0)
    t_lo, t_hi = maximal_interval(case)
    if t0 < t_lo or t1 > t_hi:
        raise DomainError(f"window ({t0}, {t1}) leaves the life interval "
                          f"({t_lo}, {t_hi})")
    if t0 == t1:
        return 0.0
    if (t1 == t_hi and _cand_side_complete(case, t_hi, True)) or \
            (t0 == t_lo and _cand_side_complete(case, t_lo, False)):
        return np.inf
    return _window_length(case, t0, t1)


def _wedge(lam, t0, t1):
    """W = c0 s1 - s0 c1 of the coordinates of ``_form`` at t0 < t1, taken
    without cancellation."""
    if lam == 1.0:
        return math.sin(t1 - t0)
    if lam == 0.0:
        if math.isfinite(t1 - t0):
            return t1 - t0
        return 1.0 if math.isfinite(t0) or math.isfinite(t1) else 0.0
    near = 0.0 if t0 <= 0.0 <= t1 else min(abs(t0), abs(t1))
    return -2.0 * math.expm1(-2.0 * (t1 - t0)) * math.exp(-2.0 * near)


def _window_length(case, t0, t1):
    """int dt / f^2 for t0 < t1 inside the life interval (an infinite end
    where the length converges).

    tau = tan t, t, tanh t for lam = 1, 0, -1 turns every f^2 into the one
    quadratic of lam = 0: dt / f^2 = dtau / Q(tau), Q = a^2 + 2 a b tau +
    2 C0 tau^2 with C0 = (lamt / a^2 + b^2) / 2, and 2 C0 Q = z^2 + lamt
    for z = 2 C0 tau + a b (Gradshteyn & Ryzhik, ch. 2). Each branch
    is the difference of an antiderivative between the ends, written in
    homogeneous coordinates (so tau = +-inf is a point like any other) and
    through W, so that ends far out do not cancel. A denominator that
    rounds to zero or below sits at a root of Q: the length is inf.
    """
    a, b, lt = case.a, case.b, case.lam_tilde
    half_turns = 0
    if case.lam == 1.0 and lt == 1.0:  # each half-turn of t adds pi
        half_turns = math.floor((t1 - t0) / math.pi)
        t1 -= half_turns * math.pi
    at0, at1 = _form(case.lam, t0), _form(case.lam, t1)
    W = _wedge(case.lam, t0, t1)
    if lt == 0.0:  # Q = (a + b tau)^2: dtau / ((a + b tau0)(a + b tau1))
        den = at0(a, b) * at1(a, b)
        return W / den if den > 0.0 else math.inf
    ab = a * b
    C0 = case.C if case.lam == 0.0 else 0.5 * (lt / (a * a) + b * b)
    if lt == 1.0:  # atan z1 - atan z0: the angle from (c0, z0) to (c1, z1)
        z0, z1 = at0(ab, 2.0 * C0), at1(ab, 2.0 * C0)
        return half_turns * math.pi + math.atan2(
            max(0.0, 2.0 * C0 * W), at0(1.0, 0.0) * at1(1.0, 0.0) + z0 * z1)
    # lamt = -1: Q = (tau - rho)(2 C0 tau + ab + sg), exact also at C0 = 0,
    # and (sg / 2) log|(tau - rho) / (2 C0 tau + ab + sg)| its antiderivative
    sg = 1.0 if ab >= 0.0 else -1.0
    rho = -a * a / (ab + sg)
    near, far = (at0, at1) if sg > 0.0 else (at1, at0)
    den = near(-rho, 1.0) * far(ab + sg, 2.0 * C0)
    return 0.5 * math.log1p(2.0 * W / den) if den > 0.0 else math.inf


def _cand_side_complete(case, endpoint, forward):
    """Analytic divergence of the candidate length toward one endpoint."""
    if np.isfinite(endpoint):
        return True  # f^2 -> 0 at finite ends; 1/f^2 has a non-integrable pole
    if case.lam == 1.0:
        return True  # periodic positive f^2
    # Q at the end point, (0, +-1) for lam = 0 and (1, +-1) for lam = -1,
    # vanishes: f^2 is constant or linear in t, or bounded, instead of
    # growing like t^2 or e^{2|t|}
    sg = 1.0 if forward else -1.0
    return any(_edge(case, beta, sg) == 0.0 for beta in _factors(case))


def families(case):
    """Exceptional borderline families the initial data belongs to."""
    a, b = case.a, case.b
    tags = []
    tol = FAMILY_TOL

    def near(u, v):
        return abs(u - v) <= tol * max(1.0, abs(u), abs(v))

    if case.lam == 1.0 and case.lam_tilde == 1.0:
        tags.append("round")
    if case.lam == 0.0 and case.lam_tilde == 0.0 and abs(b) <= tol:
        tags.append("constant_ratio")
    if case.lam == 0.0 and case.lam_tilde == -1.0:
        if near(a * b, 1.0):
            tags.append("linear_plus")
        if near(a * b, -1.0):
            tags.append("linear_minus")
    if case.lam == -1.0 and case.lam_tilde == 0.0:
        if near(b, -a):
            tags.append("exp_plus")
        if near(b, a):
            tags.append("exp_minus")
    if case.lam == -1.0 and case.lam_tilde == -1.0:
        if near(a * (a + b), 1.0):
            tags.append("asymptote_plus")
        if near(a * (a - b), 1.0):
            tags.append("asymptote_minus")
        if near(a, 1.0) and abs(b) <= tol:
            tags.append("rigid")
    return tags


def classify_completeness(case):
    """Interval, one-sided completeness flags, finite candidate lengths,
    families and bi-completeness."""
    t_lo, t_hi = maximal_interval(case)
    base_fwd = not np.isfinite(t_hi)
    base_back = not np.isfinite(t_lo)
    cand_fwd = _cand_side_complete(case, t_hi, True)
    cand_back = _cand_side_complete(case, t_lo, False)
    return {
        "t_lo": t_lo,
        "t_hi": t_hi,
        "base_forward_complete": base_fwd,
        "base_backward_complete": base_back,
        "cand_forward_complete": cand_fwd,
        "cand_backward_complete": cand_back,
        "cand_forward_length": np.inf if cand_fwd else _window_length(case, 0.0, t_hi),
        "cand_backward_length": np.inf if cand_back else _window_length(case, t_lo, 0.0),
        "families": families(case),
        "bi_complete": base_fwd and base_back and cand_fwd and cand_back,
    }


def grid_completeness(lam, lam_tilde, a_grid=DEFAULT_A_GRID, b_grid=DEFAULT_B_GRID):
    """Exhaustive classification over the (a, b) grid for one constant pair."""
    rows = []
    for a in a_grid:
        for b in b_grid:
            case = make_case(lam, lam_tilde, a, b)
            rec = classify_completeness(case)
            rec["a"], rec["b"] = float(a), float(b)
            rows.append(rec)
    return rows


# ---------------------------------------------------------------------------
# cross-checks: jets, numeric integration, closed-form inversion


def ode_residual(case, ts):
    """Max |f'' + lam f - lamt / f^3| of the closed form, via 1-d jets.

    All times are seeded as one batch; the residual is then taken per
    time on Python floats.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not ts.size:
        return 0.0
    f = jr.sqrt(f_squared(case, jr.variables(ts[:, None], 2)[0]))
    worst = 0.0
    for fpp, fv in zip(jr.extract_derivative(f, [2]).tolist(), f.value.tolist()):
        worst = max(worst, abs(fpp + case.lam * fv - case.lam_tilde / fv**3))
    return worst


def _default_span(case, reach):
    t_lo, t_hi = maximal_interval(case)
    return (max(t_lo * 0.95, -reach) if np.isfinite(t_lo) else -reach,
            min(t_hi * 0.95, reach) if np.isfinite(t_hi) else reach)


def numeric_integrate(case, t_span=None, rtol=1e-12, atol=1e-14):
    """Integrate the ODE directly; stops with status "collapse" at f <= 1e-9."""

    lam, lamt = case.lam, case.lam_tilde

    def rhs(t, u):
        f, df = u.tolist()
        if f <= F_FLOOR:
            raise DomainError("f collapsed")
        try:
            pole = lamt / f**3
        except OverflowError:  # a float f**3 past the range reads as inf
            pole = lamt / math.inf
        return [df, -lam * f + pole]

    if t_span is None:
        t_span = _default_span(case, 8.0)
    u0 = np.array([case.a, case.b])
    legs = []
    for target in t_span:
        res = ode.integrate(rhs, 0.0, u0, target, rtol=rtol, atol=atol,
                            speed_limit=np.inf)
        status = res.status
        if status != "t_limit" and res.u_end[0] <= 1e-3 * max(1.0, case.a):
            status = "collapse"  # stalled against the f -> 0 pole
        legs.append((res, status))
    return legs


def numeric_vs_closed(case, t_span=None, rtol=1e-12, atol=1e-14):
    """Max |numeric f - closed-form f| over the integration nodes.

    The default window keeps |t| <= 1.2 so the hyperbolic solutions stay
    O(10) and the comparison is meaningful in absolute terms.
    """
    if t_span is None:
        t_span = _default_span(case, 1.2)
    worst = 0.0
    for res, _ in numeric_integrate(case, t_span, rtol, atol):
        exact = np.sqrt(f_squared(case, res.ts))
        worst = max(worst, float(np.max(np.abs(res.us[:, 0] - exact))))
    return worst


def arc_param_roundtrip(case, t):
    """Defect of int_a^{f(t)} s ds / sqrt(rad(s)) = |t| on a monotone leg.

    ``t`` must be finite and stay strictly inside the first forward (or
    backward) monotone segment of f; otherwise DomainError. So must a t at
    which f(t) rounds to f(0) while b != 0: the leg has no measurable motion
    to invert (b = 1e-200, say). At b = 0, a turning value of f, such a t
    reads the defect |t|.
    """
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"arc_param_roundtrip needs a finite t, got {t}")
    if t == 0.0:
        return 0.0
    if is_stationary(case):
        raise DomainError("stationary ratio: no monotone segment to invert")
    t_crit = first_critical_time(case) if t > 0 else first_critical_time(
        make_case(case.lam, case.lam_tilde, case.a, -case.b))  # time reflection
    t_lo, t_hi = maximal_interval(case)
    edge = t_hi if t > 0 else -t_lo
    if abs(t) >= min(t_crit, edge):
        raise DomainError("t beyond the first monotone segment")
    fb = float(f_value(case, t))
    if case.b != 0.0 and fb == float(f_value(case, 0.0)):
        raise DomainError("f(t) rounds to f(0): no measurable motion to invert")
    if case.lam == 0.0 and case.lam_tilde == 0.0:
        # rad(s) = (b s)^2 and f = a + b t: the integral is |f - a| / |b|, in
        # closed form as in candidate_length (a snapped C would zero rad)
        return abs(abs(fb - case.a) / abs(case.b) - abs(t))
    return abs(abs(_arc_time(case, fb, _half_slope(case, t))) - abs(t))


def _arc_time(case, f, r1=None):
    """int_a^f s ds / sqrt(rad(s)) in closed form.

    With u = s^2 it is half of int du / sqrt(P(u)) from a^2 to f^2, for
    P(u) = -lam u^2 + 2 C u - lamt, and sqrt(P(a^2)) = a |b| exactly.
    Along the solution, sqrt(P(f^2)) = |(f^2)'| / 2, which ``r1`` gives
    where the time of f is known (``_half_slope``); else P(f^2) is taken
    as P(a^2) plus its difference, which does not cancel next to a
    turning value, but does next to a double root of P.
    """
    C = case.C
    u0, u1 = case.a * case.a, f * f
    r0 = case.a * abs(case.b)
    if r1 is None:
        r1 = math.sqrt(max(0.0, r0 * r0
                           + (u1 - u0) * (2.0 * C - case.lam * (u0 + u1))))
    if u1 == u0:  # f(t) rounds to a; at b = 0 both roots vanish too
        return 0.0
    if case.lam == 0.0:  # (sqrt(P1) - sqrt(P0)) / (2 C), rationalized
        return (u1 - u0) / (r1 + r0)
    if case.lam == 1.0:  # P = (C^2 - lamt) - (u - C)^2: an arcsine
        return 0.5 * (math.atan2(u1 - C, r1) - math.atan2(u0 - C, r0))
    # P = v^2 - D for v = u + C: the antiderivative is log(v + sqrt(P))
    # for v >= 0 and -log(sqrt(P) - v) for v < 0; across a sign change
    # (D < 0) they differ by log(-D) = log(r0^2 - v0^2), so the sign of v
    # at f alone picks the form
    v0, v1 = u0 + C, u1 + C
    num, den = (r0 - v0, r1 - v1) if v1 < 0.0 else (v1 + r1, v0 + r0)
    if not (num > 0.0 and den > 0.0):
        return math.inf  # an end at a double root of P (D = 0)
    return 0.5 * math.log(num / den)
