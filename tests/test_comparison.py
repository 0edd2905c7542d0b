"""Comparison ODE f'' + lam f = lamt / f^3: closed forms and taxonomy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from finslerlab import comparison as cmp, jets as jr
from finslerlab.errors import DomainError

CONSTS = st.sampled_from([-1.0, 0.0, 1.0])
A_VALS = st.floats(min_value=0.1, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
B_VALS = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def _radicand(case, s):
    """P(s^2) of the arc-time integral s ds / sqrt(P(s^2))."""
    return -case.lam * s**4 + 2.0 * case.C * s * s - case.lam_tilde


def _evolution_law(case, t):
    """Candidate value along the geodesic in the doubled-angle normal form,
    written independently of ``f_squared``, which it is checked against."""
    t = np.asarray(t, dtype=float)
    a, b, lt = case.a, case.b, case.lam_tilde
    s1 = a * a + lt / (a * a) + b * b
    s2 = a * a - lt / (a * a) - b * b
    if case.lam == 1.0:
        return 2.0 / (s2 * np.cos(2.0 * t) + 2.0 * a * b * np.sin(2.0 * t) + s1)
    if case.lam == 0.0:
        return 1.0 / ((a + b * t) ** 2 + lt * t * t / (a * a))
    return 2.0 / (s1 * np.cosh(2.0 * t) + 2.0 * a * b * np.sinh(2.0 * t) + s2)


def _normal_form_defect(case, ts):
    """Max |law * f^2 - 1| across ts: the law must be 1/f^2 identically."""
    ts = np.asarray(ts, dtype=float)
    return float(np.max(np.abs(_evolution_law(case, ts)
                               * cmp.f_squared(case, ts) - 1.0)))


def test_make_case_validation():
    with pytest.raises(DomainError):
        cmp.make_case(2, 0, 1.0, 0.0)
    with pytest.raises(DomainError):
        cmp.make_case(1, 1, -1.0, 0.0)
    with pytest.raises(DomainError):
        cmp.make_case(1, 1, 1.0, np.inf)


@pytest.mark.parametrize("lam, lamt, a, b", [
    (1, 1, 1e100, 0.0), (1, 1, 1.0, 1e200),  # a^4, (a b)^2 overflow
    (1, 1, 1e-200, 0.0), (0, -1, 1e-170, 1.0),  # a^2 underflows to 0
    (-1, -1, 1e-160, 0.0),  # lamt / a^2 overflows
])
def test_make_case_refuses_terms_outside_the_float_range(lam, lamt, a, b):
    with pytest.raises(DomainError, match="outside the float range"):
        cmp.make_case(lam, lamt, a, b)


def test_conserved_quantity_snaps_to_zero_on_borderlines():
    case = cmp.make_case(0, -1, 1.0, 1.0)  # C = (0 - 1 + 1)/2
    assert case.C == 0.0
    assert cmp.families(case) == ["linear_plus"]


def test_f_squared_initial_data():
    for lam, lamt in ((-1, -1), (0, 1), (1, 1), (1, -1), (-1, 0)):
        case = cmp.make_case(lam, lamt, 1.7, -0.6)
        tj = jr.variables([0.0], 2)[0]
        g = cmp.f_squared(case, tj)
        assert g.coeffs[0] == pytest.approx(1.7 ** 2, rel=1e-14)
        assert jr.extract_derivative(g, [1]) == pytest.approx(
            2.0 * 1.7 * -0.6, rel=1e-13)


def test_f_value_takes_a_jet_as_f_squared_does():
    case = cmp.make_case(-1, -1, 1.0, 0.5)
    tj = jr.variables([0.3], 2)[0]
    got = cmp.f_value(case, tj)
    want = jr.sqrt(cmp.f_squared(case, tj))
    assert got.value == want.value
    assert jr.extract_derivative(got, [1]) == jr.extract_derivative(want, [1])


def test_ode_residual_on_a_coarse_grid():
    for lam in (-1, 0, 1):
        for lamt in (-1, 0, 1):
            case = cmp.make_case(lam, lamt, 0.7, -0.4)
            lo, hi = cmp.maximal_interval(case)
            ts = np.linspace(max(lo, -2.0) * 0.7, min(hi, 2.0) * 0.7, 7)
            assert cmp.ode_residual(case, ts) < 1e-11, (lam, lamt)


@pytest.mark.parametrize("ts", [[math.nan], [0.1, math.nan], [math.inf],
                                [-math.inf, 0.2]])
def test_ode_residual_refuses_a_non_finite_time(ts):
    # a NaN read as a perfect residual, and inf leaked a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            cmp.ode_residual(cmp.make_case(-1, -1, 0.7, -0.4), ts)


def test_ode_residual_refuses_a_time_outside_the_life_interval():
    # f^2 = -12.75 at t = 5 on a case whose life interval is (-2/3, 2):
    # the square root's JetError leaked where f_value raises DomainError
    case = cmp.make_case(0, -1, 1.0, 0.5)
    assert cmp.maximal_interval(case) == (-2.0 / 3.0, 2.0)
    with pytest.raises(DomainError, match="t outside the life interval"):
        cmp.f_value(case, 5.0)
    # the first time outside is named; f^2 reads 0 or below at t = 2
    for ts, bad in (([5.0], 5.0), ([0.1, 5.0, -3.0], 5.0), ([2.0], 2.0)):
        with pytest.raises(DomainError,
                           match=f"t = {bad} outside the life interval"):
            cmp.ode_residual(case, ts)
    assert cmp.ode_residual(case, [0.1, 1.9]) < 1e-11


def test_ode_residual_is_finite_or_refused_at_late_times():
    # f^3 overflowed from t = 300 and f^2 from t = 360 (warnings), and
    # exp's jet terms from t = 710 ("math range error")
    case = cmp.make_case(-1, -1, 1.0, 0.5)
    outcomes = []
    for t in np.arange(0.0, 800.5, 0.5):
        try:
            value = cmp.ode_residual(case, [t])
        except DomainError:
            outcomes.append("refused")
        else:
            assert isinstance(value, float) and math.isfinite(value), t
            outcomes.append("finite")
    assert outcomes[600] == "finite"  # t = 300: the pole term reads 0
    assert outcomes[720] == outcomes[-1] == "refused"  # t = 360 and 800


def test_normal_form_matches_direct_evaluation():
    ts = np.linspace(-0.2, 0.2, 9)
    for lam, lamt in ((1, 1), (0, -1), (-1, -1)):
        case = cmp.make_case(lam, lamt, 1.3, 0.8)
        assert _normal_form_defect(case, ts) < 1e-12


def test_evolution_law_is_inverse_square():
    case = cmp.make_case(-1, -1, 0.8, 0.3)
    for t in (-0.4, 0.0, 0.7, 1.9):
        assert _evolution_law(case, t) * cmp.f_squared(case, t) == \
            pytest.approx(1.0, rel=1e-12)


def test_maximal_interval_frozen_cases():
    # trig: f^2 = cos 2t
    lo, hi = cmp.maximal_interval(cmp.make_case(1, -1, 1.0, 0.0))
    assert lo == pytest.approx(-math.pi / 4, rel=1e-14)
    assert hi == pytest.approx(math.pi / 4, rel=1e-14)
    # linear: f^2 = 1 + 2t
    lo, hi = cmp.maximal_interval(cmp.make_case(0, -1, 1.0, 1.0))
    assert lo == pytest.approx(-0.5, rel=1e-14)
    assert hi == np.inf
    # borderline: f^2 = 1 - 0.75 exp(-2t)
    lo, hi = cmp.maximal_interval(cmp.make_case(-1, -1, 0.5, 1.5))
    assert lo == pytest.approx(-0.5 * math.log(4.0 / 3.0), rel=1e-12)
    assert hi == np.inf
    # positive clearance: f^2 >= C - sqrt(C^2 - 1) > 0 on all of R
    lo, hi = cmp.maximal_interval(cmp.make_case(1, 1, 2.0, 1.0))
    assert lo == -np.inf and hi == np.inf


def test_first_critical_time_frozen_cases():
    assert cmp.first_critical_time(cmp.make_case(1, 1, 2.0, 0.0)) == \
        pytest.approx(math.pi / 2, rel=1e-13)
    assert cmp.first_critical_time(cmp.make_case(0, -1, 1.0, 1.0)) == np.inf
    assert cmp.first_critical_time(cmp.make_case(-1, -1, 1.0, 0.0)) == np.inf
    # equilibria are stationary, nothing to invert
    assert cmp.is_stationary(cmp.make_case(-1, -1, 1.0, 0.0))
    assert cmp.is_stationary(cmp.make_case(1, 1, 1.0, 0.0))
    assert not cmp.is_stationary(cmp.make_case(1, 1, 2.0, 0.0))


def test_families_frozen_tags():
    assert cmp.families(cmp.make_case(1, 1, 2.0, 3.0)) == ["round"]
    assert cmp.families(cmp.make_case(0, 0, 2.0, 0.0)) == ["constant_ratio"]
    assert cmp.families(cmp.make_case(-1, -1, 1.0, 0.0)) == \
        ["asymptote_plus", "asymptote_minus", "rigid"]
    assert cmp.families(cmp.make_case(-1, -1, 0.5, 1.5)) == ["asymptote_plus"]
    assert cmp.families(cmp.make_case(0, -1, 0.5, 2.0)) == ["linear_plus"]
    assert cmp.families(cmp.make_case(0, -1, 0.5, -2.0)) == ["linear_minus"]
    assert cmp.families(cmp.make_case(-1, 0, 1.0, 1.0)) == ["exp_minus"]
    assert cmp.families(cmp.make_case(-1, 0, 1.0, -1.0)) == ["exp_plus"]
    assert cmp.families(cmp.make_case(-1, -1, 2.0, 0.0)) == []


def test_candidate_length_closed_form_value():
    # int_0^inf dt / (1.875 cosh 2t + 2.125) = (log 5 - log 3) / 2
    case = cmp.make_case(-1, -1, 2.0, 0.0)
    L = cmp.candidate_length(case, 0.0, np.inf)
    assert L == pytest.approx(0.5 * math.log(5.0 / 3.0), rel=1e-10)


def test_candidate_length_pi_quantization():
    case = cmp.make_case(1, 1, 0.7, 0.5)
    for t0 in (-1.0, 0.0, 2.3):
        L = cmp.candidate_length(case, t0, t0 + math.pi)
        assert L == pytest.approx(math.pi, abs=1e-10)
    flat = cmp.make_case(0, 1, 2.0, -0.6)
    assert cmp.candidate_length(flat, -np.inf, np.inf) == \
        pytest.approx(math.pi, abs=1e-10)


def test_classification_frozen_verdicts():
    rigid = cmp.classify_completeness(cmp.make_case(-1, -1, 1.0, 0.0))
    assert rigid["bi_complete"]
    edge = cmp.classify_completeness(cmp.make_case(-1, -1, 0.5, 1.5))
    assert not edge["bi_complete"]
    assert edge["base_forward_complete"]
    assert not edge["base_backward_complete"]
    assert edge["cand_forward_complete"]  # asymptotic plateau, f -> 1
    assert edge["cand_backward_complete"]  # pole of 1/f^2 at finite t
    generic = cmp.classify_completeness(cmp.make_case(-1, -1, 2.0, 0.0))
    assert not generic["cand_forward_complete"]
    assert generic["cand_forward_length"] == pytest.approx(
        0.5 * math.log(5.0 / 3.0), rel=1e-10)


def test_tiny_slope_flat_flat_lengths_are_finite():
    # f = a + b t: 1/f^2 integrates to 1/(a |b|) on the unbounded side,
    # although C = b^2/2 snaps to 0 for |b| below about 1.4e-6
    fwd = cmp.classify_completeness(cmp.make_case(0, 0, 1.0, 1e-6))
    assert not fwd["cand_forward_complete"]
    assert fwd["cand_forward_length"] == pytest.approx(1e6, rel=1e-12)
    assert fwd["cand_backward_complete"] and not fwd["bi_complete"]
    back = cmp.classify_completeness(cmp.make_case(0, 0, 1.0, -1e-6))
    assert not back["cand_backward_complete"]
    assert back["cand_backward_length"] == pytest.approx(1e6, rel=1e-12)
    assert back["cand_forward_complete"] and not back["bi_complete"]


def test_grid_completeness_exceptional_cells():
    rows = cmp.grid_completeness(-1, -1)
    bi = sorted((r["a"], r["b"]) for r in rows if r["bi_complete"])
    assert bi == [(1.0, 0.0)]
    ap = sorted((r["a"], r["b"]) for r in rows
                if "asymptote_plus" in r["families"])
    assert ap == [(0.5, 1.5), (1.0, 0.0)]


def test_grid_completeness_flat_flat():
    rows = cmp.grid_completeness(0, 0)
    for r in rows:
        assert r["bi_complete"] == (r["b"] == 0.0)


def test_numeric_integration_detects_collapse():
    legs = cmp.numeric_integrate(cmp.make_case(1, -1, 1.0, 0.0),
                                 t_span=(-2.0, 2.0))
    for res, status in legs:
        assert status == "collapse"
        assert abs(res.t_end) == pytest.approx(math.pi / 4, abs=1e-9)


def test_numeric_matches_closed_form():
    for lam, lamt in ((1, 1), (-1, -1), (0, 1), (-1, 0)):
        case = cmp.make_case(lam, lamt, 1.4, -0.7)
        assert cmp.numeric_vs_closed(case) < 1e-10


def test_arc_parameter_roundtrip():
    case = cmp.make_case(-1, -1, 0.5, 1.5)
    for t in (0.2, 0.9, -0.1):
        assert cmp.arc_param_roundtrip(case, t) < 1e-9
    with pytest.raises(DomainError):
        cmp.arc_param_roundtrip(cmp.make_case(-1, -1, 1.0, 0.0), 0.5)


def test_the_arc_round_trip_meets_criterion_6_down_to_tiny_slopes():
    # the nine pairs x 25 values of a in [0.3, 5] x +-36 values of |b| from
    # 1e-8 to 0.1, at criterion 6's time: every call keeps the round trip
    # within criterion 6's 1e-7 or raises DomainError, and only at
    # |b| <= 1e-7, where f(t) rounds too close to f(0) to be inverted
    from finslerlab.acceptance import NINE_PAIRS

    slopes = np.geomspace(1e-8, 0.1, 36)
    returned = 0
    for lam, lamt in NINE_PAIRS:
        for a in np.linspace(0.3, 5.0, 25):
            for b in np.concatenate([-slopes, slopes]):
                case = cmp.make_case(lam, lamt, a, b)
                t_hi = cmp.maximal_interval(case)[1]
                t = 0.5 * min(cmp.first_critical_time(case), t_hi, 2.0)
                try:
                    defect = cmp.arc_param_roundtrip(case, t)
                except DomainError:
                    assert abs(b) <= 1e-7, (lam, lamt, a, b)
                    continue
                assert defect <= 1e-7, (lam, lamt, a, b, defect)
                returned += 1
    assert returned > 15_000


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_arc_parameter_roundtrip_rejects_a_non_finite_time(t):
    with pytest.raises(DomainError, match="finite t"):
        cmp.arc_param_roundtrip(cmp.make_case(-1, -1, 0.5, 1.5), t)


@pytest.mark.parametrize("lam, lamt", [(l, lt) for l in (-1, 0, 1)
                                       for lt in (-1, 0, 1)])
def test_f_squared_reads_a_sequence_as_an_array(lam, lamt):
    case = cmp.make_case(lam, lamt, 1.7, -0.6)
    ts = [0.1, 0.2, -0.05]
    want = cmp.f_squared(case, np.array(ts))
    assert np.array_equal(cmp.f_squared(case, ts), want)
    assert np.array_equal(cmp.f_squared(case, tuple(ts)), want)
    with pytest.raises(DomainError, match="real times"):
        cmp.f_squared(case, ["soon"])


def test_arc_time_to_a_double_root_of_the_radicand_diverges():
    # the asymptote family approaches f^2 = -C = 1, a double root of P, as
    # t -> inf: f^2 = 1 - 0.75 e^{-2t}. sqrt(P(f^2)) = 0.75 e^{-2t} comes
    # from (f^2)' / 2, so the round trip keeps its digits at t = 10; by
    # t = 20 f^2 rounds to the root, and no finite time is left
    case = cmp.make_case(-1, -1, 0.5, 1.5)
    assert cmp.arc_param_roundtrip(case, 10.0) <= 1e-7
    assert float(cmp.f_squared(case, 20.0)) == 1.0
    assert cmp.arc_param_roundtrip(case, 20.0) == math.inf


def test_arc_roundtrip_of_a_leg_that_rounds_to_its_start():
    # b = 0 puts a^2 at a root of P; f^2 = 1 + 1e-20 rounds to a^2 = 1
    case = cmp.make_case(0, 1, 1.0, 0.0)
    assert cmp.arc_param_roundtrip(case, 1e-10) == 1e-10


def test_arc_roundtrip_refuses_a_leg_without_measurable_motion():
    # b^2 underflows, and f(t) rounds to f(0) = a all along [0, 1]: the
    # inversion would read a defect of |t| = 1
    case = cmp.make_case(-1, -1, 1.0, 1e-200)
    assert not cmp.is_stationary(case)
    assert float(cmp.f_value(case, 1.0)) == float(cmp.f_value(case, 0.0))
    for t in (1.0, -1.0, 1e-3):
        with pytest.raises(DomainError, match="no measurable motion"):
            cmp.arc_param_roundtrip(case, t)


def test_arc_roundtrip_of_a_tiny_slope_at_zero_constants():
    # C = b^2 / 2 snaps to 0, which zeroes rad(s) = 2 C s^2 outright
    case = cmp.make_case(0, 0, 2.87, -4.2e-7)
    assert case.C == 0.0
    assert cmp.arc_param_roundtrip(case, 1.0) <= 1e-7
    assert cmp.arc_param_roundtrip(case, -1.0) <= 1e-7


# ---------------------------------------------------------------------------
# properties


def _quad_arc_time(case, f):
    """|int_a^f s ds / sqrt(rad(s))| by adaptive quadrature."""
    def integrand(s):
        r = _radicand(case, s)
        return s / math.sqrt(r) if r > 0.0 else 0.0

    val, err = quad(integrand, *sorted((case.a, f)), epsabs=1e-13,
                    epsrel=1e-13, limit=400)
    assert err < 1e-10
    return val


@settings(max_examples=60, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=st.floats(0.2, 3.0),
       b=st.floats(0.1, 3.0), sign=st.sampled_from([-1.0, 1.0]),
       frac=st.floats(0.05, 0.95))
# lam = lamt = -1 with a < 1: v = f^2 + C changes sign along the leg, up
# (b > 0) and down (b < 0)
@example(lam=-1.0, lamt=-1.0, a=0.8, b=0.5, sign=1.0, frac=0.9)
@example(lam=-1.0, lamt=-1.0, a=1.0, b=0.3, sign=-1.0, frac=0.9)
def test_closed_form_arc_time_matches_quadrature(lam, lamt, a, b, sign, frac):
    case = cmp.make_case(lam, lamt, a, sign * b)
    t = frac * min(cmp.first_critical_time(case),
                   cmp.maximal_interval(case)[1], 2.0)
    f = float(cmp.f_value(case, t))
    want = _quad_arc_time(case, f)
    assert abs(abs(cmp._arc_time(case, f)) - want) <= 1e-10 * max(1.0, want)


@settings(max_examples=60, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=st.floats(0.2, 3.0),
       b=st.floats(1e-6, 2e-3), sign=st.sampled_from([-1.0, 1.0]))
def test_arc_roundtrip_at_a_small_slope(lam, lamt, a, b, sign):
    # a^2 sits next to a turning value of P; far below |b| = 1e-6 the
    # round trip t -> f(t) -> t itself loses digits like eps / |b|, since
    # f' is of order b along the leg
    case = cmp.make_case(lam, lamt, a, sign * b)
    t = 0.5 * min(cmp.first_critical_time(case),
                  cmp.maximal_interval(case)[1], 2.0)
    assume(np.isfinite(t) and t > 1e-12)
    assert cmp.arc_param_roundtrip(case, t) <= 1e-7


@settings(max_examples=60, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=A_VALS, b=B_VALS)
@example(lam=0.0, lamt=0.0, a=7.0, b=1e-5)  # C = 5e-11 once snapped to 0
def test_energy_identity_holds_everywhere(lam, lamt, a, b):
    # (d f^2/dt)^2 = 4 (-lam f^4 + 2 C f^2 - lamt) wherever f^2 > 0
    case = cmp.make_case(lam, lamt, a, b)
    lo, hi = cmp.maximal_interval(case)
    t = 0.3 * min(hi, 1.0) + 0.7 * max(lo, -1.0) * 0.0  # stay near 0, inside
    tj = jr.variables([t], 1)[0]
    g = cmp.f_squared(case, tj)
    g0 = g.coeffs[0]
    dg = jr.extract_derivative(g, [1])
    rad = -case.lam * g0 * g0 + 2.0 * case.C * g0 - case.lam_tilde
    scale = max(1.0, abs(dg) ** 2, abs(rad))
    assert abs(dg * dg - 4.0 * rad) <= 1e-9 * scale


@settings(max_examples=60, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=A_VALS, b=B_VALS)
@example(lam=-1.0, lamt=-1.0, a=0.99999, b=0.0)  # C + 1 cancels in the roots
@example(lam=0.0, lamt=-1.0, a=0.99999, b=0.99999)  # f^2 terms near 2.5e9
@example(lam=0.0, lamt=0.0, a=1.0, b=1e-7)  # C snaps to 0, f^2 = (a + b t)^2
def test_interval_endpoints_are_roots_or_infinite(lam, lamt, a, b):
    case = cmp.make_case(lam, lamt, a, b)
    lo, hi = cmp.maximal_interval(case)
    assert lo < 0.0 < hi
    for end in (lo, hi):
        if np.isfinite(end):
            assert abs(float(cmp.f_squared(case, end))) <= 1e-8 * max(
                1.0, a * a, abs(case.C))
        # interior positivity on a probe grid
    ts = np.linspace(max(lo, -3.0) * 0.97, min(hi, 3.0) * 0.97, 11)
    assert np.all(cmp.f_squared(case, ts) > 0.0)


@settings(max_examples=40, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=A_VALS, b=B_VALS)
def test_critical_time_is_a_zero_of_f_prime(lam, lamt, a, b):
    case = cmp.make_case(lam, lamt, a, b)
    tc = cmp.first_critical_time(case)
    if not np.isfinite(tc):
        return
    lo, hi = cmp.maximal_interval(case)
    assert 0.0 < tc <= hi + 1e-12
    tj = jr.variables([min(tc, hi)], 1)[0]
    g = cmp.f_squared(case, tj)  # (f^2)' = 2 f f' vanishes with f'
    scale = max(1.0, abs(g.coeffs[0]))
    assert abs(jr.extract_derivative(g, [1])) <= 1e-7 * scale


# ---------------------------------------------------------------------------
# closed-form candidate lengths against quadrature


def _quad_length(case, t0, t1):
    """int dt / f^2 by adaptive quadrature of f_squared; an f^2 past the
    float range (e^{|t|} overflows far out) reads as 1/f^2 = 0.

    For lam = -1, f_squared keeps the e^{|t|} and e^{-|t|} parts of each
    linear factor apart, so it keeps its relative digits where f^2 decays
    (f = a e^{-t}, say), and windows are drawn from |t| <= 6.
    """
    def integrand(t):
        v = float(cmp.f_squared(case, t))
        return 1.0 / v if math.isfinite(v) else 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        val, _ = quad(integrand, t0, t1, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


@settings(max_examples=150, deadline=None)
@given(lam=CONSTS, lamt=CONSTS, a=A_VALS,
       b=st.floats(0.1, 10.0), sign=st.sampled_from([-1.0, 1.0]),
       kind=st.sampled_from(["window", "forward", "backward"]),
       u=st.floats(0.01, 0.99), v=st.floats(0.01, 0.99))
def test_closed_form_lengths_match_quadrature(lam, lamt, a, b, sign, kind,
                                              u, v):
    case = cmp.make_case(lam, lamt, a, sign * b)
    t_lo, t_hi = cmp.maximal_interval(case)
    lo, hi = max(t_lo, -6.0), min(t_hi, 6.0)
    t0, t1 = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    if kind == "forward":
        assume(not cmp._cand_side_complete(case, t_hi, True))
        t1 = t_hi
    elif kind == "backward":
        assume(not cmp._cand_side_complete(case, t_lo, False))
        t0 = t_lo
    want = _quad_length(case, t0, t1)
    assert abs(cmp.candidate_length(case, t0, t1) - want) <= \
        1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("lam, lamt", [(l, lt) for l in (-1, 0, 1)
                                       for lt in (-1, 0, 1)])
def test_grid_lengths_match_quadrature(lam, lamt):
    for r in cmp.grid_completeness(lam, lamt):
        case = cmp.make_case(lam, lamt, r["a"], r["b"])
        for key, window in (("cand_forward_length", (0.0, r["t_hi"])),
                            ("cand_backward_length", (r["t_lo"], 0.0))):
            if np.isfinite(r[key]):
                want = _quad_length(case, *window)
                assert abs(r[key] - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("lam, lamt, a, b", [
    (-1, -1, 2.0, 0.0), (-1, -1, 0.5, 1.5), (-1, -1, 1.3, -0.4),
    (-1, 0, 1.0, -1.0), (-1, 0, 4.7, 4.7), (-1, 0, 1.3, 0.4),
    (-1, 1, 1.3, 0.4), (0, 1, 2.0, -0.6), (0, -1, 1.0, 3.0), (0, 0, 1.0, 0.5),
])
def test_candidate_length_keeps_its_digits_far_out(lam, lamt, a, b):
    # both ends of a window far out sit near the same limit of the
    # antiderivative; the reference is quadrature at 60 digits
    mp = pytest.importorskip("mpmath")
    case = cmp.make_case(lam, lamt, a, b)
    t_lo, t_hi = cmp.maximal_interval(case)
    windows = [w for w in ((5.6, 5.8), (-5.8, -5.6), (20.0, 20.5),
                           (-20.5, -20.0)) if t_lo < w[0] and w[1] < t_hi]
    assert windows
    with mp.workdps(60):
        A, B = mp.mpf(a), mp.mpf(b)
        C = (lam * A * A + lamt / (A * A) + B * B) / 2
        f2 = {0: lambda t: 2 * C * t * t + 2 * A * B * t + A * A,
              -1: lambda t: (A * A + C) * mp.cosh(2 * t)
              + A * B * mp.sinh(2 * t) - C}[lam]
        for t0, t1 in windows:
            want = mp.quad(lambda t: 1 / f2(t), [t0, t1])
            got = cmp.candidate_length(case, t0, t1)
            assert abs(got - want) <= 1e-13 * want, (t0, t1)


def _mp_f_squared(mp, lam, lamt, a, b, t):
    """(a c + b s)^2 + (lamt / a^2) s^2 at the float inputs, to 60 digits."""
    with mp.workdps(60):
        a, b, t = mp.mpf(a), mp.mpf(b), mp.mpf(t)
        c, s = {1: (mp.cos(t), mp.sin(t)), 0: (1, t),
                -1: (mp.cosh(t), mp.sinh(t))}[lam]
        return (a * c + b * s) ** 2 + lamt / (a * a) * s * s


def _values(case, t):
    """f_squared at the time t as a float and as the value of a jet."""
    return (float(cmp.f_squared(case, t)),
            float(cmp.f_squared(case, jr.variables([t], 1)[0]).value))


def test_f_squared_keeps_its_digits_where_the_exp_family_decays():
    # f = e^t: f^2 = e^{2t} is 2.8e-5 at t = -5.25, where cosh 2t and
    # sinh 2t are 1.8e4
    mp = pytest.importorskip("mpmath")
    want = _mp_f_squared(mp, -1, 0, 1.0, 1.0, -5.25)
    for got in _values(cmp.make_case(-1, 0, 1.0, 1.0), -5.25):
        assert abs(got - want) <= 1e-15 * want


def test_f_squared_matches_mpmath_on_random_states():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    pairs = [(l, lt) for l in (-1, 0, 1) for lt in (-1, 0, 1)]
    worst = 0.0
    for i in range(2007):
        lam, lamt = pairs[i % 9]
        case = cmp.make_case(lam, lamt, rng.uniform(0.1, 5.0),
                             rng.uniform(-5.0, 5.0))
        t_lo, t_hi = cmp.maximal_interval(case)
        lo, hi = max(t_lo, -6.0), min(t_hi, 6.0)
        t = float(lo + rng.uniform() * (hi - lo))
        want = _mp_f_squared(mp, lam, lamt, case.a, case.b, t)
        for got in _values(case, t):
            worst = max(worst, float(abs(got - want) / want))
    assert worst <= 5e-13  # 1.2e-13 measured


@pytest.mark.parametrize("ab", [1.0, -1.0])
def test_linear_factor_ends_keep_their_digits_next_to_ab_one(ab):
    # lam = 0, lamt = -1: the ends are -a / (b -+ 1/a) = -a^2 / (ab -+ 1),
    # and b -+ 1/a cancels next to ab = +-1
    mp = pytest.importorskip("mpmath")
    states = [(0.7, 1.4285714275714285)] if ab > 0 else []
    states += [(a, (ab + sg * k * 1e-9) / a) for a in (0.3, 0.7, 1.9, 3.7)
               for sg in (1.0, -1.0) for k in (1, 3, 10, 100)]
    for a, b in states:
        with mp.workdps(60):
            A, B = mp.mpf(a), mp.mpf(b)
            roots = [-A / (B - 1 / A), -A / (B + 1 / A)]
            want_hi = min([r for r in roots if r > 0], default=math.inf)
            want_lo = max([r for r in roots if r < 0], default=-math.inf)
        got_lo, got_hi = cmp.maximal_interval(cmp.make_case(0, -1, a, b))
        for got, want in ((got_lo, want_lo), (got_hi, want_hi)):
            if math.isinf(want):
                assert got == want, (a, b)
            else:
                assert abs(got - want) <= 1e-15 * abs(want), (a, b)


@pytest.mark.parametrize("case, window", [
    ((0, -1, 1.0, 0.3), (0.0, np.inf)),  # f^2 < 0 beyond t = 1.4286
    ((1, -1, 1.0, 0.5), (0.0, 3.0)),
    ((-1, -1, 0.5, 1.5), (-1.0, 0.0)),  # t_lo = -0.1438
    ((0, 1, 2.0, -0.6), (math.nan, 0.0)),
    ((0, 1, 2.0, -0.6), (0.0, math.nan)),
])
def test_candidate_length_refuses_a_window_outside_the_life_interval(case,
                                                                    window):
    with pytest.raises(DomainError):
        cmp.candidate_length(cmp.make_case(*case), *window)


def test_candidate_length_diverges_at_an_end_of_the_interval():
    # finite ends: the pole of 1/f^2 there is not integrable
    for args in ((0, -1, 1.0, 0.3), (1, -1, 1.0, 0.5), (-1, -1, 0.5, 1.5),
                 (0, 0, 1.0, -2.0), (1, 0, 1.0, 0.5)):
        case = cmp.make_case(*args)
        t_lo, t_hi = cmp.maximal_interval(case)
        ends = [e for e in (t_lo, t_hi) if np.isfinite(e)]
        assert ends, args
        for end in ends:
            assert cmp.candidate_length(case, min(end, 0.0),
                                        max(end, 0.0)) == np.inf
    # infinite ends on a side whose length diverges: periodic f^2, the
    # asymptote plateau, a constant ratio, and linear f^2
    assert cmp.candidate_length(cmp.make_case(1, 1, 0.7, 0.5),
                                0.0, np.inf) == np.inf
    assert cmp.candidate_length(cmp.make_case(-1, -1, 0.5, 1.5),
                                0.0, np.inf) == np.inf
    assert cmp.candidate_length(cmp.make_case(0, 0, 2.0, 0.0),
                                -np.inf, 0.0) == np.inf
    assert cmp.candidate_length(cmp.make_case(0, -1, 1.0, 1.0),
                                0.0, np.inf) == np.inf


def test_candidate_length_of_a_reversed_window_is_negated():
    case = cmp.make_case(-1, -1, 2.0, 0.0)
    assert cmp.candidate_length(case, np.inf, 0.0) == \
        -cmp.candidate_length(case, 0.0, np.inf)
    assert cmp.candidate_length(case, 1.0, -0.5) == \
        -cmp.candidate_length(case, -0.5, 1.0)
    edge = cmp.make_case(0, -1, 1.0, 0.3)
    assert cmp.candidate_length(edge, cmp.maximal_interval(edge)[1],
                                0.0) == -np.inf


def _former_ode_residual(case, ts):
    """The per-time jet loop ode_residual ran before it seeded one batch."""
    worst = 0.0
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        tj = jr.variables([t], 2)[0]
        f = jr.sqrt(cmp.f_squared(case, tj))
        fpp = jr.extract_derivative(f, [2])
        res = abs(fpp + case.lam * f.value - case.lam_tilde / f.value**3)
        worst = max(worst, res)
    return worst


def test_ode_residual_matches_the_former_loop_bit_for_bit():
    from finslerlab.acceptance import GRID_AB, NINE_PAIRS

    for lam, lamt in NINE_PAIRS:
        for a in GRID_AB[0]:
            for b in GRID_AB[1]:
                case = cmp.make_case(lam, lamt, a, b)
                t_lo, t_hi = cmp.maximal_interval(case)
                ts = np.linspace(max(t_lo, -3.0) * 0.8,
                                 min(t_hi, 3.0) * 0.8, 9)
                assert cmp.ode_residual(case, ts) == \
                    _former_ode_residual(case, ts), (lam, lamt, a, b)
