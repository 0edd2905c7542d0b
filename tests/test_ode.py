"""The DP5 integrator: starting step, step floor, dense output, spans."""

import dataclasses
import math
import re

import numpy as np
import pytest

from finslerlab import cli, ode, zoo
from finslerlab import comparison as cmp
from finslerlab import geodesic as gd
from finslerlab.acceptance import NINE_PAIRS
from finslerlab.errors import (DegenerateDirectionError, DomainError,
                               NumericError, SingularMetricError)

XG = np.array([0.31, -0.22])
YG = np.array([0.62, 0.81])


def _cos(t, u):
    return np.array([np.cos(t)])


def test_dense_output_is_fourth_order_between_the_nodes():
    res = ode.integrate(_cos, 0.0, np.array([0.0]), 3.0)
    ts = np.linspace(0.0, 3.0, 401)
    assert np.max(np.abs(res.sample(ts)[:, 0] - np.sin(ts))) < 1e-8


def test_dense_output_passes_through_both_ends_of_each_step():
    res = ode.integrate(lambda t, u: np.array([np.cos(t), -u[0]]), 0.0,
                        np.array([0.0, 1.0]), 3.0, rtol=1e-6, atol=1e-8)
    assert np.array_equal(res.sample(res.ts), res.us)
    # each step's polynomial reaches the next node to rounding
    ends = ode._dense(res.us[:-1], res.hs, res.Qs, np.ones(len(res.hs)))
    assert np.allclose(ends, res.us[1:], rtol=0, atol=1e-14)


def test_sampling_matches_a_per_step_loop():
    res = ode.integrate(lambda t, u: np.array([np.cos(t), -u[0]]), 0.0,
                        np.array([0.0, 1.0]), -3.0, rtol=1e-6, atol=1e-8)
    ths = np.linspace(0.0, 1.0, 7)[1:-1]
    ts = [res.ts[k] + th * h for k, h in enumerate(res.hs) for th in ths]
    want = [res.us[k] + h * (res.Qs[k] @ [th, th**2, th**3, th**4])
            for k, h in enumerate(res.hs) for th in ths]
    assert np.allclose(res.sample(ts), want, rtol=1e-14, atol=1e-15)


def test_a_boundary_leg_is_sampled_up_to_its_crossing():
    res = ode.integrate(_cos, 0.0, np.array([0.0]), 3.0,
                        guard=lambda u: u[0] < 0.5)
    assert res.status == "boundary"
    assert res.ts[-2] + res.hs[-1] > res.t_end  # inside the last step
    assert np.array_equal(res.sample([res.t_end]), res.us[-1:])
    assert res.sample(res.ts[-2:]).shape == (2, 1)
    with pytest.raises(NumericError):
        res.sample([res.t_end + 1e-9])


def test_guard_crossing_is_placed_on_the_dense_output():
    res = ode.integrate(_cos, 0.0, np.array([0.0]), 3.0,
                        guard=lambda u: u[0] < 0.5)
    assert res.status == "boundary"
    assert abs(res.t_end - math.pi / 6) < 1e-9


def test_first_step_is_near_the_natural_step():
    run = gd.integrate_geodesic(zoo.klein(), XG, YG, (-0.5, 0.5))
    for leg in run.legs:
        steps = np.abs(np.diff(leg.ts))
        assert steps[0] >= 0.1 * np.median(steps)


def test_funk_rim_leg_stops_at_the_step_floor():
    run = gd.integrate_geodesic(zoo.funk_ball(1), XG, YG, (-30.0, 1.0),
                                rtol=1e-8, atol=1e-10)
    back = run.legs[0]
    assert run.status_backward == "boundary"
    assert 1.0 - np.linalg.norm(back.u_end[:2]) < gd.RIM_TOL
    assert back.n_accepted <= 60
    assert 0 < back.n_vetoed <= back.n_rejected


def test_rim_leg_ending_by_veto_does_not_grow_after_rejections():
    # the chart refuses the stages before the guard sees a crossing; a step
    # that may grow 10x right after a veto is vetoed again, most of the time
    m = zoo.make_metric("funk-ellipse-plus", dim=2)
    run = gd.integrate_geodesic(m, XG, YG, (-30.0, 1.0), rtol=1e-8,
                                atol=1e-10)
    back = run.legs[0]
    assert run.status_backward == "boundary"
    assert 0 < back.n_vetoed <= back.n_rejected <= 50


def test_vetoed_stages_never_seed_a_jet(monkeypatch):
    from finslerlab import geometry as geo, jets as jr

    calls = {"assemble": 0, "seed": 0}
    assemble, seed = geo._assemble, jr.seed_variables

    def counted_assemble(*args):
        calls["assemble"] += 1
        return assemble(*args)

    def counted_seed(*args, **kwargs):
        calls["seed"] += 1
        return seed(*args, **kwargs)

    monkeypatch.setattr(geo, "_assemble", counted_assemble)
    monkeypatch.setattr(jr, "seed_variables", counted_seed)
    run = gd.integrate_geodesic(zoo.funk_ball(1), XG, YG, (-30.0, 1.0),
                                rtol=1e-8, atol=1e-10)
    assert run.legs[0].n_vetoed > 0
    assert calls["assemble"] == calls["seed"] > 0


def test_span_below_the_step_floor_is_still_stepped():
    res = ode.integrate(lambda t, u: -u, 0.0, np.array([1.0]), 5e-13)
    assert res.status == "t_limit"
    assert res.t_end == 5e-13
    assert res.n_accepted == 1


def test_non_finite_stages_are_counted_as_vetoes():
    rhs = lambda t, u: np.array([1.0 if u[0] < 2.0 else np.nan])
    res = ode.integrate(rhs, 0.0, np.array([0.0]), 10.0)
    assert res.status == "boundary"
    assert res.t_end == pytest.approx(2.0, abs=1e-9)
    assert 0 < res.n_vetoed <= res.n_rejected


@pytest.mark.parametrize("t0, t1", [(0.0, -np.inf), (0.0, np.nan),
                                    (np.inf, 1.0), (np.nan, 1.0)])
def test_non_finite_span_is_refused_at_once(t0, t1):
    with pytest.raises(DomainError):
        ode.integrate(lambda t, u: -u, t0, np.array([1.0]), t1)


@pytest.mark.parametrize("span", [(-np.inf, 1.0), (-1.0, np.inf),
                                  (np.nan, 1.0)])
def test_geodesic_with_non_finite_span_is_refused(span):
    with pytest.raises(DomainError):
        gd.integrate_geodesic(zoo.klein(), XG, YG, span)


def test_cli_geodesic_reports_the_steps_of_each_leg(capsys):
    code = cli.main(["geodesic", "--metric", "funk-plus", "--x0", "0.31,-0.22",
                     "--y0", "0.62,0.81", "--tspan=-30,1", "--rtol", "1e-8",
                     "--atol", "1e-10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    legs = dict(re.findall(r"^(backward|forward) +: (\d+ accepted, \d+ "
                           r"rejected, \d+ vetoed) steps$", out, re.M))
    assert set(legs) == {"backward", "forward"}
    assert not legs["backward"].endswith(" 0 vetoed")


# ---------------------------------------------------------------------------
# the former DP5 loop, kept as a bit-for-bit oracle: it checks every stage
# with np.isfinite, forms each step's K.T @ P as it accepts it, and takes
# |u| afresh on every step


def _oracle_starting_step(rhs, t, u, f0, direction, span, rtol, atol):
    scale = atol + rtol * np.abs(u)
    d0, d1 = ode._rms(u / scale), ode._rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    fallback = 1e-4 * max(span, 1.0)
    try:
        f1 = rhs(t + direction * h0, u + direction * h0 * f0)
    except DomainError:
        return fallback
    if not np.isfinite(f1).all():
        return fallback
    d2 = ode._rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        return max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.2)


def _oracle_integrate(rhs, t0, u0, t1, rtol=1e-10, atol=1e-12, guard=None,
                      speed_limit=ode.SPEED_LIMIT):
    t, t1 = float(t0), float(t1)
    u = np.asarray(u0, dtype=float).copy()
    d = u.size
    ts, us, dts, Qs = [t], [u], [], []
    n_acc = n_rej = n_vet = 0

    def result(status, t_end, u_end):
        return ode.OdeResult(np.array(ts), np.array(us), status, t_end, u_end,
                             n_acc, n_rej, n_vet, np.array(dts),
                             np.array(Qs).reshape(-1, d, 4))

    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0.0:
        return result("t_limit", t, u)
    K = np.empty((7, d))
    K[0] = rhs(t, u)
    if not np.isfinite(K[0]).all():
        raise DomainError("non-finite derivative at the initial point")
    h = _oracle_starting_step(rhs, t, u, K[0], direction, span, rtol, atol)
    last_fail_domain = False
    grow_max = 10.0
    while direction * (t1 - t) > 0 and n_acc + n_rej < ode.MAX_STEPS:
        if h < ode.MIN_STEP:
            return result("boundary" if last_fail_domain else "blow_up", t, u)
        rest = abs(t1 - t)
        last = h >= rest
        if last:
            h = rest
        hs = direction * h
        try:
            for i in range(1, 7):
                K[i] = rhs(t + ode._C[i] * hs, u + hs * (K[:i].T @ ode._A[i]))
                if not np.isfinite(K[i]).all():
                    raise DomainError("non-finite derivative")
        except DomainError:
            last_fail_domain = True
            n_vet += 1
            n_rej += 1
            grow_max = 1.0
            h *= 0.5
            continue
        u5 = u + hs * (K.T @ ode._B5)
        u4 = u + hs * (K.T @ ode._B4)
        q = (u5 - u4) / (atol + rtol * np.maximum(np.abs(u), np.abs(u5)))
        err = math.sqrt((q * q).sum() / d)
        if err > 1.0:
            last_fail_domain = False
            n_rej += 1
            grow_max = 1.0
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue
        t_new = t1 if last else t + hs
        dt, Q = t_new - t, K.T @ ode._P
        dts.append(dt)
        Qs.append(Q)
        ts.append(t_new)
        us.append(u5)
        n_acc += 1
        k_new = K[6]
        if math.sqrt(k_new.dot(k_new)) > speed_limit:
            return result("blow_up", t_new, u5)
        if guard is not None and not guard(u5):
            lo, hi = t, t_new
            while abs(hi - lo) > ode.MIN_STEP:
                mid = 0.5 * (lo + hi)
                if guard(ode._dense(u, dt, Q, (mid - t) / dt)):
                    lo = mid
                else:
                    hi = mid
            u_b = ode._dense(u, dt, Q, (lo - t) / dt)
            ts[-1], us[-1] = lo, u_b
            return result("boundary", lo, u_b)
        t, u = t_new, u5
        K[0] = k_new
        last_fail_domain = False
        h *= min(grow_max, max(0.2, 0.9 * err ** (-0.2) if err > 0 else 10.0))
        grow_max = 10.0
    if n_acc + n_rej >= ode.MAX_STEPS:
        raise NumericError("step budget exhausted")
    return result("t_limit", t, u)


def _oracle_comparison_rhs(case):
    """The comparison right-hand side on numpy scalars."""
    def rhs(t, u):
        f, df = u
        if f <= cmp.F_FLOOR:
            raise DomainError("f collapsed")
        return np.array([df, -case.lam * f + case.lam_tilde / f**3])

    return rhs


def _assert_bit_identical(got, want):
    for field in dataclasses.fields(ode.OdeResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


def test_comparison_legs_match_the_former_loop_bit_for_bit():
    rng = np.random.default_rng(6)
    for lam, lamt in NINE_PAIRS:
        case = cmp.make_case(lam, lamt, rng.uniform(0.3, 2.0),
                             rng.uniform(-1.5, 1.5))
        span = cmp._default_span(case, 1.2)
        rhs = _oracle_comparison_rhs(case)
        for (res, _), target in zip(cmp.numeric_integrate(case, span), span):
            want = _oracle_integrate(rhs, 0.0, np.array([case.a, case.b]),
                                     target, 1e-12, 1e-14,
                                     guard=lambda u: u[0] > cmp.F_FLOOR,
                                     speed_limit=np.inf)
            _assert_bit_identical(res, want)


def test_geodesic_legs_match_the_former_loop_bit_for_bit():
    # an interior klein run, and a funk_ball(1) run whose backward leg is
    # vetoed at the rim until it ends at the step floor
    for metric, span in ((zoo.klein(), (-0.3, 0.3)),
                         (zoo.funk_ball(1), (-30.0, 0.2))):
        run = gd.integrate_geodesic(metric, XG, YG, span, rtol=1e-8,
                                    atol=1e-10)
        rhs = gd.geodesic_rhs(metric)
        guard = lambda u: metric.domain.contains(u[:2])
        u0 = np.concatenate([XG, YG / metric(XG, YG)])
        for leg, target in zip(run.legs, span):
            want = _oracle_integrate(rhs, 0.0, u0, target, 1e-8, 1e-10,
                                     guard=guard)
            _assert_bit_identical(leg, want)
    assert run.legs[0].n_vetoed > 0


def test_a_guard_crossing_matches_the_former_loop_bit_for_bit():
    rhs = lambda t, u: np.array([np.cos(t), -u[0]])
    guard = lambda u: abs(u[0]) < 0.5
    for t1 in (3.0, -3.0):
        u0 = np.array([0.0, math.copysign(1.0, t1)])
        res = ode.integrate(rhs, 0.0, u0, t1, rtol=1e-9, atol=1e-11,
                            guard=guard)
        assert res.status == "boundary"
        _assert_bit_identical(res, _oracle_integrate(
            rhs, 0.0, u0, t1, 1e-9, 1e-11, guard=guard))


def test_the_stage_veto_leaves_the_former_guards_nothing_to_reject(
        monkeypatch):
    # the sixth stage runs the rhs at u5, so a state the guard would reject
    # is vetoed first: a funk rim leg and two collapse legs run without
    # their former guards as they run with them
    legs, integrate = [], ode.integrate

    def recording(rhs, *args, **kwargs):
        res = integrate(rhs, *args, **kwargs)
        legs.append((rhs, args, kwargs, res))
        return res

    monkeypatch.setattr(ode, "integrate", recording)
    funk = zoo.funk_ball(1)
    run = gd.integrate_geodesic(funk, XG, YG, (-30.0, 1.0), rtol=1e-8,
                                atol=1e-10)
    in_chart = lambda u: funk.domain.contains(u[:2])
    cases = [(leg, in_chart) for leg in legs]
    legs.clear()
    collapse = cmp.numeric_integrate(cmp.make_case(1, -1, 1.0, 0.0),
                                     t_span=(-2.0, 2.0))
    cases += [(leg, lambda u: u[0] > cmp.F_FLOOR) for leg in legs]
    assert run.status_backward == "boundary"
    assert [status for _, status in collapse] == ["collapse", "collapse"]
    for (rhs, args, kwargs, res), guard in cases:
        _assert_bit_identical(res, integrate(rhs, *args, guard=guard,
                                             **kwargs))


@pytest.mark.parametrize("n", [4, 8])
def test_wide_geodesic_legs_match_the_former_loop_bit_for_bit(n):
    # d = 2n = 8 and 16: the error norm's sum of squares takes numpy's
    # blocked branch, which the 2-d and 4-d legs above never reach
    metric = zoo.klein(n)
    x = np.linspace(-0.3, 0.25, n)
    y = np.cos(np.arange(n) + 0.5)
    y /= np.linalg.norm(y)
    span = (-0.2, 0.2)
    run = gd.integrate_geodesic(metric, x, y, span, rtol=1e-8, atol=1e-10)
    rhs = gd.geodesic_rhs(metric)
    guard = lambda u: metric.domain.contains(u[:n])
    u0 = np.concatenate([x, y / metric(x, y)])
    for leg, target in zip(run.legs, span):
        assert leg.us.shape[1] == 2 * n and leg.n_accepted > 0
        _assert_bit_identical(leg, _oracle_integrate(
            rhs, 0.0, u0, target, 1e-8, 1e-10, guard=guard))


# ---------------------------------------------------------------------------
# the error norm on Python floats


def test_sum_of_squares_follows_numpys_order():
    rng = np.random.default_rng(18)
    specials = [0.0, -0.0, 1.0, 1e300, -1e300, 1e-300, np.inf, -np.inf,
                np.nan]
    with np.errstate(all="ignore"):
        for d in [*range(1, 17), 129, 300]:  # above 128, numpy halves
            for k in range(400):
                q = (rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 8, d)
                     if k % 2 else rng.choice(specials, d))
                want = (q * q).sum()
                got = np.float64(ode._sum_of_squares(q.tolist()))
                assert got.tobytes() == want.tobytes(), q


def test_the_sixth_stage_argument_is_u5():
    # u5 is taken from the sixth stage's argument, u + hs K[:6].T @ _A[6],
    # in place of u + hs K.T @ _B5
    assert ode._B5[6] == 0.0 and ode._A[6].tolist() == ode._B5[:6].tolist()
    rng = np.random.default_rng(6)
    for d in range(1, 17):
        K = np.empty((7, d))
        KT = K.T  # the integrator's layout
        for _ in range(300):
            K[:] = rng.standard_normal((7, d)) * 10.0 ** rng.uniform(-4, 4,
                                                                     (7, d))
            got, want = KT[:, :6].dot(ode._A[6]), KT.dot(ode._B5)
            assert got.tobytes() == want.tobytes(), (
                "numpy's BLAS rounds a 6-term gemv and the 7-term gemv "
                "with a zero last weight differently, so the sixth "
                f"stage's argument is not u5 bit for bit (d = {d})")


def test_a_component_held_at_zero_keeps_the_error_norm_finite():
    # with atol = 0 the zero component's scale is 0 and its u5 - u4 is 0:
    # it adds 0 to the error norm, where 0 / 0 made it nan and accepted
    # every step with a 10x growth
    with np.errstate(all="raise"):
        res = ode.integrate(lambda t, u: np.array([0.0 * u[0], -u[1]]), 0.0,
                            np.array([0.0, 1.0]), 1.0, atol=0.0)
    assert res.status == "t_limit"
    assert res.u_end[0] == 0.0
    assert abs(res.u_end[1] - math.exp(-1.0)) <= 1e-8


def test_a_zero_scale_under_a_nonzero_difference_rejects_the_step():
    # u' = 0 from u = 0 with atol = 0, except at the sixth stage of the
    # first step, which _B5 weighs 0 and _B4 1/40: u5 = 0, u4 != 0
    calls = [0]

    def rhs(t, u):
        calls[0] += 1  # 1: the initial point; the probe is skipped
        return np.array([1.0 if calls[0] == 7 else 0.0])

    with np.errstate(all="raise"):
        res = ode.integrate(rhs, 0.0, np.array([0.0]), 1.0, atol=0.0)
    assert res.status == "t_limit"
    assert (res.n_rejected, res.n_vetoed) == (1, 0)
    assert not res.us.any()


def test_an_overflowing_step_is_rejected_and_not_stored():
    # u5 and u4 overflow to inf, so u5 - u4 and the error norm are nan:
    # the step is rejected, where a nan err used to accept an inf node
    # (the dense output of slopes of 1e308 overflows as well)
    with np.errstate(over="ignore", invalid="ignore"):
        res = ode.integrate(lambda t, u: np.array([1e308]), 0.0,
                            np.array([1.7e308]), 1.0, speed_limit=np.inf)
    assert res.status == "blow_up"
    assert np.isfinite(res.us).all() and res.n_rejected > 0


def test_an_overflow_under_raising_errstate_returns_the_blow_up():
    # the stage sums of slopes of 1e308 overflow; integrate ignores numpy's
    # overflow and invalid warnings itself, so a caller that raises on
    # every warning gets the result a caller that ignores them gets
    with np.errstate(all="raise"):
        res = ode.integrate(lambda t, u: np.array([1e308]), 0,
                            [1.7e308], 1, speed_limit=np.inf)
    assert res.status == "blow_up"
    assert res.t_end == 0.09769313486015462
    assert res.u_end.tolist() == [1.7976931348601546e+308]
    assert (res.n_accepted, res.n_rejected, res.n_vetoed) == (30, 30, 0)


def test_a_zero_scale_under_raising_errstate_takes_the_fallback_step():
    # atol = 0 and u = 0 give the starting step a zero scale: f0 / scale
    # divides by zero and reads inf, so the first step is the fallback
    with np.errstate(all="raise"):
        res = ode.integrate(lambda t, u: np.array([1.0]), 0.0,
                            np.array([0.0]), 1.0, atol=0.0)
    assert (res.status, res.n_accepted, res.n_rejected) == ("t_limit", 5, 0)
    assert res.hs[0] == 1e-4
    assert res.u_end[0] == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# one finiteness test at the initial point, the starting-step probe and
# every stage


def _poisoned(call, j, value, d=3, as_list=False):
    """u' = -u whose rhs call number ``call`` (0: the initial point, 1: the
    probe, 2-7: the stages of the first step) has ``value`` in entry j;
    the rows are lists of floats with ``as_list``."""
    calls = [0]

    def rhs(t, u):
        out = -u
        if calls[0] == call:
            out[j] = value
        calls[0] += 1
        return out.tolist() if as_list else out

    return ode.integrate(rhs, 0.0, np.ones(d), 1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_is_refused_everywhere(bad):
    with np.errstate(all="raise"):  # the check itself makes no fp warning
        for j in range(3):
            with pytest.raises(DomainError, match="initial point"):
                _poisoned(0, j, bad)
            assert _poisoned(1, j, bad).n_vetoed == 0  # probe: not a step
            for stage in range(1, 7):
                res = _poisoned(1 + stage, j, bad)
                assert res.status == "t_limit"
                assert res.n_vetoed == 1 <= res.n_rejected


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_of_a_list_row_is_vetoed(bad):
    with np.errstate(all="raise"):
        for j in range(3):
            with pytest.raises(DomainError, match="initial point"):
                _poisoned(0, j, bad, as_list=True)
            for stage in range(1, 7):
                res = _poisoned(1 + stage, j, bad, as_list=True)
                assert res.status == "t_limit"
                assert res.n_vetoed == 1 <= res.n_rejected


def _collapsing_rhs(as_array):
    """f'' = -f - 1 / f^3 (lam = 1, lamt = -1) on Python floats: from
    (1, 0), f collapses at t = pi / 4; stages with f <= 0.5 are vetoed."""
    def rhs(t, u):
        f, df = u.tolist()
        if f <= 0.5:
            raise DomainError("f below the floor")
        row = [df, -f - 1.0 / f**3]
        return np.array(row) if as_array else row

    return rhs


@pytest.mark.parametrize("t1, guard, status", [
    (2.0, None, "boundary"),  # vetoed stages end the leg at the floor
    (-2.0, lambda u: u[0] > 0.6, "boundary"),  # a guard crossing
    (0.5, None, "t_limit"),
])
def test_a_list_row_gives_the_result_of_an_array_row(t1, guard, status):
    got, want = (ode.integrate(_collapsing_rhs(as_array), 0.0,
                               np.array([1.0, 0.0]), t1, rtol=1e-12,
                               atol=1e-14, guard=guard, speed_limit=np.inf)
                 for as_array in (False, True))
    assert got.status == status
    assert (got.n_vetoed > 0) == (status == "boundary" and guard is None)
    _assert_bit_identical(got, want)


def test_a_huge_finite_entry_is_not_vetoed():
    # the step's error norm overflows to inf, which rejects it
    with np.errstate(over="ignore"):
        for j in range(3):
            assert _poisoned(1, j, 1e300).n_vetoed == 0
            for stage in range(1, 7):
                res = _poisoned(1 + stage, j, 1e300)
                assert res.status == "t_limit"
                assert res.n_vetoed == 0 < res.n_rejected


def test_an_overflowing_initial_slope_takes_the_fallback_step():
    # f0 / scale overflows, so the starting step's probe step would be 0
    with np.errstate(over="ignore"):
        res = ode.integrate(lambda t, u: np.array([1e300, -u[1]]), 0.0,
                            np.array([1.0, 1.0]), 1.0)
    assert res.status == "blow_up"
    assert res.n_accepted == 1
    assert res.hs.tolist() == [1e-4]


def test_an_overflowing_slope_raises_no_numpy_warning():
    # f0 / scale in the starting step and |k|^2 at the speed check of the
    # accepted step both overflow; a caller that raises on every numpy
    # warning still gets the blow_up
    with np.errstate(all="raise"):
        res = ode.integrate(lambda t, u: np.array([1e300, -u[1]]), 0.0,
                            np.array([1.0, 1.0]), 1.0)
    assert (res.status, res.n_accepted) == ("blow_up", 1)
    assert res.hs.tolist() == [1e-4]


# ---------------------------------------------------------------------------
# unit-speed geodesics that decay against the rim


@pytest.mark.parametrize("name, span", [("klein", (0.0, 15.0)),
                                        ("funk-plus", (0.0, 30.0)),
                                        ("funk-minus", (-30.0, 0.0))])
def test_a_leg_whose_speed_decays_at_the_rim_ends_at_the_boundary(name, span):
    m = zoo.make_metric(name, dim=2)
    run = gd.integrate_geodesic(m, np.array([0.3, -0.2]),
                                np.array([0.6, 0.8]), span)
    leg = run.legs[0] if span[0] < 0 else run.legs[1]
    status = run.status_backward if span[0] < 0 else run.status_forward
    assert status == leg.status == "boundary"
    assert -1e-9 < m.domain.signed(leg.u_end[:2]) < 0.0
    assert leg.n_vetoed > 0
    assert len(run.ts) == leg.n_accepted + 1
    assert np.array_equal(leg.us[-1], leg.u_end)


def test_degenerate_stages_are_vetoed_only_at_the_rim():
    rhs = gd.geodesic_rhs(zoo.klein())
    near = 1.0 - 0.5 * gd.RIM_TOL
    with pytest.raises(DomainError, match="rim"):
        rhs(0.0, np.array([near, 0.0, 0.0, 0.0]))
    with pytest.raises(DegenerateDirectionError):
        rhs(0.0, np.array([0.5, 0.0, 0.0, 0.0]))


def test_an_interior_singular_metric_still_raises():
    # the chord along the axis meets the superellipse where its curvature
    # vanishes, so g is singular at this interior state
    m = zoo.make_metric("hilbert-superellipse", dim=2)
    with pytest.raises(SingularMetricError):
        gd.integrate_geodesic(m, np.array([-0.7, 0.0]), np.array([1.0, 0.0]),
                              (-1.0, 1.0))
