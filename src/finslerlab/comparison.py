"""The scalar comparison ODE  f'' + lam f = lamt / f^3  and its taxonomy.

Along a common unit-speed geodesic of two projectively related Einstein
metrics with normalized constants lam, lamt in {-1, 0, 1}, the ratio
f = (F / F_cand)^(1/2) ... obeys the cubic-forcing oscillator above, the
candidate metric evolves as value(t) = 1 / f(t)^2, and first integrals
reduce everything to the invariant

    C = (lam a^2 + lamt / a^2 + b^2) / 2,   a = f(0) > 0,  b = f'(0),

with f'^2 = rad(f) / f^2 for the quartic rad(s) = -lam s^4 + 2C s^2 - lamt.

Closed forms (doubled-angle normal forms):

    lam = +1:  f^2 = (a^2 - C) cos 2t + a b sin 2t + C
    lam =  0:  f^2 = 2C t^2 + 2ab t + a^2  (= (a + b t)^2 + lamt t^2 / a^2)
    lam = -1:  f^2 = (a^2 + C) cosh 2t + a b sinh 2t - C

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


def _snap(v, scale):
    return 0.0 if abs(v) < 1e-12 * max(1.0, scale) else v


def f_squared(case, t):
    """Closed-form f^2; accepts floats, numpy arrays, sequences, or jets."""
    if isinstance(t, (list, tuple)):  # a sequence of times reads as an array
        try:
            t = np.asarray(t, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"f_squared needs real times: {exc}") from None
    a, b, C = case.a, case.b, case.C
    if case.lam == 1.0:
        return (a * a - C) * jr.cos(2.0 * t) + a * b * jr.sin(2.0 * t) + C
    if case.lam == 0.0:
        # the polynomials whose roots maximal_interval takes: the double
        # root -a/b for lamt = 0, else the quadratic in the snapped C
        if case.lam_tilde == 0.0:
            lin = a + b * t
            return lin * lin
        return 2.0 * C * t * t + 2.0 * a * b * t + a * a
    return (a * a + C) * jr.cosh(2.0 * t) + a * b * jr.sinh(2.0 * t) - C


def f_value(case, t):
    v = f_squared(case, t)
    if np.any(np.asarray(v) <= 0.0):
        raise DomainError("t outside the life interval")
    return jr.sqrt(v)


def radicand(case, s):
    return -case.lam * s**4 + 2.0 * case.C * s * s - case.lam_tilde


def evolution_law(case, t):
    """Candidate value along the geodesic in the doubled-angle normal form."""
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
# maximal interval


def _pq(case):
    """Snapped hyperbolic-form coefficients f^2 = p cosh 2t + q sinh 2t - C."""
    a, b, C = case.a, case.b, case.C
    p = _snap(a * a + C, a * a + abs(C))
    q = _snap(a * b, abs(a * b) + 1.0)
    return p, q


def _w_component(case):
    """For lam = -1: the w = e^{2t} component where f^2 > 0, around w = 1.

    f^2 = N(w) / (2w) with N(w) = (p+q) w^2 - 2C w + (p-q), N(1) = 2a^2 > 0,
    and the discriminant of N is exactly -4 lam_tilde.
    """
    C = case.C
    p, q = _pq(case)
    A, D = p + q, p - q
    if case.lam_tilde == 1.0:
        return 0.0, np.inf  # no real roots, N > 0 throughout
    if A == 0.0:
        if C == 0.0:
            return 0.0, np.inf  # N = D = 2a^2, constant
        w_star = D / (2.0 * C)
        if C > 0.0:  # N decreasing: positive below the root (root > 1)
            return 0.0, w_star
        return (0.0, np.inf) if w_star <= 0.0 else (w_star, np.inf)
    if case.lam_tilde == 0.0:
        w_star = C / A  # double root of N
        if w_star <= 0.0:
            return 0.0, np.inf
        return (w_star, np.inf) if w_star < 1.0 else (0.0, w_star)
    # roots (C -+ 1)/A, sqrt(disc)/2 = 1; the smaller-magnitude one comes
    # from the product of roots D/A, free of the cancellation in C -+ 1
    big = C + math.copysign(1.0, C)
    roots = sorted((big / A, D / big))
    w_lo, w_hi = 0.0, np.inf
    for r in roots:
        if 0.0 < r < 1.0:
            w_lo = max(w_lo, r)
        elif r > 1.0:
            w_hi = min(w_hi, r)
    return w_lo, w_hi


def maximal_interval(case):
    """(t_lo, t_hi): the maximal interval around 0 with f^2 > 0."""
    a, b, C = case.a, case.b, case.C
    if case.lam == 1.0:
        if case.lam_tilde == 1.0:
            return -np.inf, np.inf  # f^2 >= C - sqrt(C^2-1) > 0
        A = math.hypot(a * a - C, a * b)
        phi = math.atan2(a * a - C, a * b)
        s = max(-1.0, min(1.0, -C / A))
        u0 = math.asin(s)
        k = math.floor((phi - u0) / (2.0 * math.pi))
        if not (phi < math.pi - u0 + 2.0 * math.pi * k):
            k += 1
        return (u0 + 2.0 * math.pi * k - phi) / 2.0, \
               (math.pi - u0 + 2.0 * math.pi * k - phi) / 2.0

    if case.lam == 0.0:
        if case.lam_tilde == 1.0:
            return -np.inf, np.inf  # positive-definite quadratic
        if case.lam_tilde == 0.0:
            if b == 0.0:
                return -np.inf, np.inf
            t_star = -a / b  # f = a + b t, double zero
            return (t_star, np.inf) if b > 0.0 else (-np.inf, t_star)
        if C == 0.0:  # linear f^2 = 2ab t + a^2 with ab = +-1
            t_star = -a / (2.0 * b)
            return (t_star, np.inf) if b > 0.0 else (-np.inf, t_star)
        r1, r2 = sorted(((-a * b - 1.0) / (2.0 * C), (-a * b + 1.0) / (2.0 * C)))
        if r1 < 0.0 < r2:
            return r1, r2
        return (r2, np.inf) if r2 <= 0.0 else (-np.inf, r1)

    w_lo, w_hi = _w_component(case)
    t_lo = -np.inf if w_lo <= 0.0 else 0.5 * math.log(w_lo)
    t_hi = np.inf if not np.isfinite(w_hi) else 0.5 * math.log(w_hi)
    return t_lo, t_hi


def is_stationary(case):
    """True when f is constant: b = 0 at the equilibrium radius."""
    return case.b == 0.0 and \
        abs(case.lam * case.a**4 - case.lam_tilde) < 1e-12 * max(1.0, case.a**4)


def first_critical_time(case):
    """Smallest t > 0 with f'(t) = 0, or inf when f is forward-monotone.

    A stationary point of the closed form beyond the life interval does
    not count: f collapses first, so the forward branch stays monotone.
    """
    a, b, C = case.a, case.b, case.C
    if is_stationary(case):
        return np.inf
    if case.lam == 1.0:
        phi = math.atan2(a * a - C, a * b)
        k = math.ceil((phi - math.pi / 2.0) / math.pi)
        u = math.pi / 2.0 + k * math.pi
        if u <= phi + 1e-15:
            u += math.pi
        t = (u - phi) / 2.0
    elif case.lam == 0.0:
        if C == 0.0:
            return np.inf
        t = -a * b / (2.0 * C)
        if t <= 1e-15:
            return np.inf
    else:
        p, q = a * a + C, a * b
        if p == 0.0 or abs(q / p) >= 1.0:
            return np.inf
        t = 0.5 * math.atanh(-q / p)
        if t <= 1e-15:
            return np.inf
    t_hi = maximal_interval(case)[1]
    return t if t < t_hi else np.inf


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


def _form(lam, t):
    """The linear forms (al, be) -> al c + be s at tau = tan t, t or tanh t
    (lam = 1, 0, -1), for homogeneous coordinates (c, s) of tau: tau = +-inf
    is the point (0, +-1). For lam = -1, (c, s) = 2 e^{-|t|} (cosh t, sinh t)
    = (1, sg) + e (1, -sg) with e = e^{-2|t|} and sg the sign of t, finite
    at t = +-inf; the form keeps that split, so its e-term survives when
    al + sg be cancels."""
    if lam == 1.0:
        c, s = math.cos(t), math.sin(t)
        return lambda al, be: al * c + be * s
    sg = math.copysign(1.0, t)
    if lam == 0.0:
        if math.isfinite(t):
            return lambda al, be: al + be * t
        return lambda al, be: be * sg
    e = math.exp(-2.0 * abs(t))
    return lambda al, be: (al + sg * be) + e * (al - sg * be)


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
    if case.lam == 0.0:
        # constant or linear f^2 diverges, quadratic does not; for lamt = 0,
        # f^2 = (a + b t)^2 is constant exactly when b = 0 (C may be snapped)
        return case.b == 0.0 if case.lam_tilde == 0.0 else case.C == 0.0
    p, q = _pq(case)
    edge = _snap(p + q if forward else p - q, abs(p) + abs(q))
    return edge == 0.0  # f^2 bounded (or -> 0) instead of growing like e^{2|t|}


def length_classification(case):
    """Interval, one-sided completeness flags, and finite candidate lengths."""
    t_lo, t_hi = maximal_interval(case)
    base_fwd = not np.isfinite(t_hi)
    base_back = not np.isfinite(t_lo)
    cand_fwd = _cand_side_complete(case, t_hi, True)
    cand_back = _cand_side_complete(case, t_lo, False)
    out = {
        "t_lo": t_lo,
        "t_hi": t_hi,
        "base_forward_complete": base_fwd,
        "base_backward_complete": base_back,
        "cand_forward_complete": cand_fwd,
        "cand_backward_complete": cand_back,
        "cand_forward_length": np.inf if cand_fwd else _window_length(case, 0.0, t_hi),
        "cand_backward_length": np.inf if cand_back else _window_length(case, t_lo, 0.0),
    }
    return out


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
    out = length_classification(case)
    out["families"] = families(case)
    out["bi_complete"] = (
        out["base_forward_complete"] and out["base_backward_complete"]
        and out["cand_forward_complete"] and out["cand_backward_complete"]
    )
    return out


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

    guard = lambda u: u[0] > F_FLOOR
    if t_span is None:
        t_span = _default_span(case, 8.0)
    u0 = np.array([case.a, case.b])
    legs = []
    for target in t_span:
        res = ode.integrate(rhs, 0.0, u0, target, rtol=rtol, atol=atol,
                            guard=guard, speed_limit=np.inf)
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
    return abs(abs(_arc_time(case, fb)) - abs(t))


def _arc_time(case, f):
    """int_a^f s ds / sqrt(rad(s)) in closed form.

    With u = s^2 it is half of int du / sqrt(P(u)) from a^2 to f^2, for
    P(u) = -lam u^2 + 2 C u - lamt, and sqrt(P(a^2)) = a |b| exactly.
    P(f^2) is taken as P(a^2) plus its difference, which does not cancel
    next to a turning value.
    """
    C = case.C
    u0, u1 = case.a * case.a, f * f
    r0 = case.a * abs(case.b)
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
