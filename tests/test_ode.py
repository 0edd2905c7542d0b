"""The DOP853 integrator: starting step, step floor, dense output, spans."""

import dataclasses
import math
import re
from functools import partial

import numpy as np
import pytest

from finslerlab import cli, ode, zoo
from finslerlab import comparison as cmp
from finslerlab import geodesic as gd
from finslerlab.acceptance import GRID_AB, NINE_PAIRS
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
    k_max = [0.0]  # the largest |K| entry of any stage

    def rhs(t, u):
        row = np.array([np.cos(t), -u[0]])
        k_max[0] = max(k_max[0], np.abs(row).max())
        return row

    res = ode.integrate(rhs, 0.0, np.array([0.0, 1.0]), 3.0, rtol=1e-6,
                        atol=1e-8)
    assert np.array_equal(res.sample(res.ts), res.us)
    # each step's polynomial reaches the next node to rounding. P's rows
    # sum to b, and the reach u0 + h (K.T @ P) @ 1 rounds K.T @ P (16
    # products), its 7 terms and the add to u0: at most 32 eps (|hK| |P|
    # + |u|), where |hK| |P| is at most |h| k_max times the sum of |P|
    ends = ode._dense(res.us[:-1], res.hs, res.Qs, np.ones(len(res.hs)))
    eps = np.finfo(float).eps
    bound = 32 * eps * (np.abs(res.hs)[:, None] * k_max[0]
                        * np.abs(ode._P8).sum() + np.abs(res.us[1:]))
    assert np.all(np.abs(ends - res.us[1:]) <= bound)


def test_sampling_matches_a_per_step_loop():
    res = ode.integrate(lambda t, u: np.array([np.cos(t), -u[0]]), 0.0,
                        np.array([0.0, 1.0]), -3.0, rtol=1e-6, atol=1e-8)
    ths = np.linspace(0.0, 1.0, 7)[1:-1]
    ts = [res.ts[k] + th * h for k, h in enumerate(res.hs) for th in ths]
    got = res.sample(ts)  # forms Qs
    want = [res.us[k] + h * (res.Qs[k] @ [th, th**2, th**3, th**4, th**5,
                                          th**6, th**7])
            for k, h in enumerate(res.hs) for th in ths]
    assert np.allclose(got, want, rtol=1e-14, atol=1e-15)


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


def test_cli_geodesic_reports_the_rim_gap_of_each_leg(capsys):
    code = cli.main(["geodesic", "--metric", "funk-plus", "--x0", "0.31,-0.22",
                     "--y0", "0.62,0.81", "--tspan=-30,1", "--rtol", "1e-8",
                     "--atol", "1e-10"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    back, fwd = map(float, re.search(
        r"^rim gap  : backward (\S+), forward (\S+)$", out, re.M).groups())
    assert 0.0 < back < 4 * ode.MIN_STEP  # |v| is about 1.85 at the rim
    assert fwd > 0.1


# ---------------------------------------------------------------------------
# the DOP853 loop on plain numpy, kept as a bit-for-bit oracle: it checks
# every stage with np.isfinite, forms each step's dense-output stages and
# K.T @ P as it accepts it, scales the error sums on arrays as scipy does,
# and takes |u| afresh on every step. After a veto it bounds each step by
# 0.9 of the time left to the vetoed stage, and once that is below the
# floor it tries one step of MIN_STEP / 0.9 past it, whose veto ends the
# leg. A guard crossing is bisected on the step's dense output. A leg
# records as ``proposal`` its slope at the start and the step proposed
# after its first accepted step, if no veto came before that step; a
# second leg from the same state (``_oracle_two_legs``) starts from it.


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
    return min(100.0 * h0, (0.01 / max(d1, d2)) ** (1 / 8))


def _oracle_integrate8(rhs, t0, u0, t1, rtol, atol, guard=None,
                       speed_limit=np.inf, start=None):
    c = ode._C8 + ode._C8_DENSE  # stages 0-12, then the dense output's 13-15
    A = ode._A8 + list(ode._A8_DENSE)
    t, t1 = float(t0), float(t1)
    u = np.asarray(u0, dtype=float).copy()
    d = u.size
    ts, us, dts, Qs = [t], [u], [], []
    n_acc = n_rej = n_vet = 0
    proposal = None

    def result(status, t_end, u_end):
        res = ode.OdeResult(np.array(ts), np.array(us), status, t_end, u_end,
                            n_acc, n_rej, n_vet, np.array(dts),
                            np.array(Qs).reshape(-1, d, 7))
        res.proposal = proposal
        return res

    direction = 1.0 if t1 >= t else -1.0
    span = abs(t1 - t)
    if span == 0.0:
        return result("t_limit", t, u)
    K = np.empty((16, d))
    if start is None:
        K[0] = rhs(t, u)
        if not np.isfinite(K[0]).all():
            raise DomainError("non-finite derivative at the initial point")
        h = _oracle_starting_step(rhs, t, u, K[0], direction, span, rtol, atol)
    else:
        K[0], h = start
    f0 = K[0].copy()
    bad = None  # the time of the last vetoed stage
    grow_max = 10.0
    while direction * (t1 - t) > 0 and n_acc + n_rej < ode.MAX_STEPS:
        probing = bad is not None and 0.9 * abs(bad - t) < ode.MIN_STEP
        if probing:
            h, bad = ode.MIN_STEP / 0.9, None
        elif bad is not None:
            h = min(h, 0.9 * abs(bad - t))
        if h < ode.MIN_STEP:
            return result("blow_up", t, u)
        rest = abs(t1 - t)
        last = h >= rest
        if last:
            h = rest
        hs = direction * h
        try:
            for i in range(1, 13):
                K[i] = rhs(t + c[i] * hs, u + hs * (K[:i].T @ A[i]))
                if not np.isfinite(K[i]).all():
                    raise DomainError("non-finite derivative")
        except DomainError:
            n_vet += 1
            n_rej += 1
            if probing:
                return result("boundary", t, u)
            bad = t + c[i] * hs
            grow_max = 1.0
            continue
        u8 = u + hs * (K[:12].T @ A[12])
        scale = atol + rtol * np.maximum(np.abs(u), np.abs(u8))
        e5 = (K[:13].T @ ode._E5) / scale
        e3 = (K[:13].T @ ode._E3) / scale
        n5, n3 = (e5 * e5).sum(), (e3 * e3).sum()
        err = (0.0 if n5 == 0.0 and n3 == 0.0 else
               float(abs(hs) * n5 / np.sqrt((n5 + 0.01 * n3) * d)))
        if not err <= 1.0:
            n_rej += 1
            grow_max = 1.0
            h *= max(0.2, 0.9 * err ** (-1 / 8))
            continue
        t_new = t1 if last else t + hs
        dt = t_new - t
        for i in range(13, 16):
            K[i] = rhs(t + c[i] * dt, u + dt * (K[:i].T @ A[i]))
        Q = K.T @ ode._P8
        dts.append(dt)
        Qs.append(Q)
        ts.append(t_new)
        us.append(u8)
        n_acc += 1
        if math.sqrt(K[12].dot(K[12])) > speed_limit:
            return result("blow_up", t_new, u8)
        if guard is not None and not guard(u8):
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
        t, u = t_new, u8
        K[0] = K[12]
        h *= min(grow_max, max(0.2, 0.9 * err ** (-1 / 8) if err > 0 else 10.0))
        grow_max = 10.0
        if n_acc == 1 and n_vet == 0:
            proposal = f0, h
    if n_acc + n_rej >= ode.MAX_STEPS:
        raise NumericError("step budget exhausted")
    return result("t_limit", t, u)


def _oracle_two_legs(rhs, u0, ends, rtol, atol, **kwargs):
    """The oracle's legs from (0, u0) to each end, the second from the
    first's ``proposal``."""
    first = _oracle_integrate8(rhs, 0.0, u0, ends[0], rtol, atol, **kwargs)
    return first, _oracle_integrate8(rhs, 0.0, u0, ends[1], rtol, atol,
                                     start=first.proposal, **kwargs)


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


def test_geodesic_legs_match_the_former_loop_bit_for_bit():
    # an interior klein run, and a funk_ball(1) run whose backward leg is
    # vetoed at the rim until a step past its last veto is vetoed too
    for metric, span in ((zoo.klein(), (-0.3, 0.3)),
                         (zoo.funk_ball(1), (-30.0, 0.2))):
        run = gd.integrate_geodesic(metric, XG, YG, span, rtol=1e-8,
                                    atol=1e-10)
        rhs = gd.geodesic_rhs(metric)
        guard = lambda u: metric.domain.contains(u[:2])
        u0 = np.concatenate([XG, YG / metric(XG, YG)])
        wants = _oracle_two_legs(rhs, u0, span, 1e-8, 1e-10, guard=guard,
                                 speed_limit=ode.SPEED_LIMIT)
        for leg, want in zip(run.legs, wants):
            leg.sample(leg.ts)  # forms Qs
            _assert_bit_identical(leg, want)
        assert wants[0].proposal is not None
    assert run.legs[0].n_vetoed > 0


def test_a_guard_crossing_matches_the_former_loop_bit_for_bit():
    rhs = lambda t, u: np.array([np.cos(t), -u[0]])
    guard = lambda u: abs(u[0]) < 0.5
    for t1 in (3.0, -3.0):
        u0 = np.array([0.0, math.copysign(1.0, t1)])
        res = ode.integrate(rhs, 0.0, u0, t1, rtol=1e-9, atol=1e-11,
                            guard=guard)
        assert res.status == "boundary"
        res.sample(res.ts)  # forms Qs
        _assert_bit_identical(res, _oracle_integrate8(
            rhs, 0.0, u0, t1, 1e-9, 1e-11, guard=guard,
            speed_limit=ode.SPEED_LIMIT))


def test_the_stage_veto_leaves_the_former_guards_nothing_to_reject(
        monkeypatch):
    # the twelfth stage runs the rhs at u8, so a state the guard would reject
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
    assert len(legs) == 2  # both collapse legs ran through ode.integrate
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
    for leg, want in zip(run.legs, _oracle_two_legs(
            rhs, u0, span, 1e-8, 1e-10, guard=guard,
            speed_limit=ode.SPEED_LIMIT)):
        assert leg.us.shape[1] == 2 * n and leg.n_accepted > 0
        leg.sample(leg.ts)  # forms Qs
        _assert_bit_identical(leg, want)


def _counted(rhs):
    """``rhs`` recording the time of each call in ``rhs.times``."""
    def run(t, u):
        run.times.append(t)
        return rhs(t, u)

    run.times = []
    return run


def test_a_run_makes_two_fewer_rhs_calls_than_its_two_solo_legs(monkeypatch):
    # the forward leg runs neither the slope at the start nor the probe; on
    # this run it takes the attempts its solo leg takes
    metric, span = zoo.klein(), (-0.3, 0.3)
    rhs, *solo = [_counted(gd.geodesic_rhs(metric)) for _ in range(3)]
    monkeypatch.setattr(gd, "geodesic_rhs", lambda m: rhs)
    run = gd.integrate_geodesic(metric, XG, YG, span, rtol=1e-8, atol=1e-10)
    u0 = np.concatenate([XG, YG / metric(XG, YG)])
    legs = [ode.integrate(f, 0.0, u0, t1, 1e-8, 1e-10)
            for f, t1 in zip(solo, span)]
    attempts = lambda leg: (leg.n_accepted, leg.n_rejected, leg.n_vetoed)
    assert list(map(attempts, run.legs)) == list(map(attempts, legs))
    assert len(rhs.times) == sum(len(f.times) for f in solo) - 2
    _assert_bit_identical(run.legs[0], legs[0])


def test_the_forward_leg_starts_with_the_backward_legs_proposal():
    metric = zoo.klein()
    rhs = _counted(gd.geodesic_rhs(metric))
    u0 = np.concatenate([XG, YG / metric(XG, YG)])
    back, fwd = ode.two_legs(rhs, 0.0, u0, (-1.0, 1.0), 1e-8, 1e-10,
                             ode.SPEED_LIMIT)
    slope, h = back._next_start
    assert slope.tobytes() == gd.geodesic_rhs(metric)(0.0, u0).tobytes()
    # the backward leg took that step itself after its first one
    assert back.n_rejected == 0 and abs(back.hs[1]) == h
    assert 0.2 * abs(back.hs[0]) <= h <= 10.0 * abs(back.hs[0])
    # the forward leg's calls are those at t > 0: its first attempt runs
    # stages 1-12 at c_i h, the twelfth at the new state t = h
    ahead = [t for t in rhs.times if t > 0.0]
    assert ahead[:12] == [c * h for c in ode._C8[1:]]
    assert rhs.times.count(0.0) == 1  # the slope at the start, run once
    assert fwd.hs[0] == h


@pytest.mark.parametrize("edge", [
    0.0,  # vetoed until a probe past t = 0 ends it, with no step accepted
    -0.01,  # vetoed before its first accepted step
])
def test_a_vetoed_first_leg_hands_nothing_on(edge):
    def rhs(t, u):
        if t < edge:
            raise DomainError("vetoed")
        return np.array([np.cos(t), -u[0]])

    u0, span = np.array([0.2, 1.0]), (-1.0, 1.0)
    first, second = ode.two_legs(rhs, 0.0, u0, span, 1e-9, 1e-11,
                                 ode.SPEED_LIMIT)
    assert first._next_start is None
    assert (first.status, first.n_accepted > 0) == ("boundary", edge < 0.0)
    _assert_bit_identical(second, ode.integrate(rhs, 0.0, u0, span[1],
                                                1e-9, 1e-11))
    # the forward leg first: its hand-off reaches the vetoed side
    reverse = ode.two_legs(rhs, 0.0, u0, span[::-1], 1e-9, 1e-11,
                           ode.SPEED_LIMIT)
    for leg, t1 in zip(reverse, span[::-1]):
        assert leg.status == ("boundary" if t1 < edge else "t_limit")


def test_a_klein_run_over_a_zero_backward_span_runs_a_solo_forward_leg():
    metric = zoo.klein()
    run = gd.integrate_geodesic(metric, XG, YG, (0.0, 0.3))
    u0 = np.concatenate([XG, YG / metric(XG, YG)])
    _assert_bit_identical(run.legs[1], ode.integrate(
        gd.geodesic_rhs(metric), 0.0, u0, 0.3, 1e-10, 1e-12))
    assert run.legs[0].n_accepted == 0


def test_the_dop853_record_is_hairers_tableau():
    # scipy's module is a copy of Hairer's coefficients; the library itself
    # never imports it
    from scipy.integrate._ivp import dop853_coefficients as ref
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    same = lambda a, b: np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert same(ode._C8, ref.C[:13]) and same(ode._C8_DENSE, ref.C[13:])
    assert len(ode._A8) == 13 and same(ode._A8[12], ref.B)
    for i in range(1, 16):
        row = ode._A8[i] if i < 13 else ode._A8_DENSE[i - 13]
        assert same(row, ref.A[i, :i]), i
    assert same(ode._E5, ref.E5) and same(ode._E3, ref.E3)
    assert same(ode._D8, ref.D)
    # P is Hairer's nested interpolant written in powers of th
    rng = np.random.default_rng(853)
    ths = np.linspace(0.0, 1.0, 9)
    for h in (0.08, -0.5):
        K, u0 = rng.standard_normal((16, 3)), rng.standard_normal(3)
        du = h * K[:12].T @ ref.B
        F = np.vstack([du, h * K[0] - du, 2 * du - h * (K[0] + K[12]),
                       h * ref.D @ K])
        want = Dop853DenseOutput(0.0, h, u0, F)(ths * h).T
        got = [ode._dense(u0, h, K.T @ ode._P8, th) for th in ths]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_dop853_comparison_legs_match_a_numpy_loop_bit_for_bit():
    rng = np.random.default_rng(853)
    cases = [(cmp.make_case(lam, lamt, rng.uniform(0.3, 2.0),
                            rng.uniform(-1.5, 1.5)), None)
             for lam, lamt in NINE_PAIRS]
    cases.append((cmp.make_case(1, -1, 1.0, 0.0), (-2.0, 2.0)))  # collapse
    for case, span in cases:
        legs = cmp.numeric_integrate(case, span)
        wants = _oracle_two_legs(_oracle_comparison_rhs(case),
                                 [case.a, case.b],
                                 span or cmp._default_span(case, 8.0),
                                 1e-12, 1e-14)
        for (res, _), want in zip(legs, wants):
            assert res.Qs is None
            res.sample(res.ts)  # forms Qs
            _assert_bit_identical(res, want)
    assert [status for _, status in legs] == ["collapse", "collapse"]


def test_dop853_dense_output_is_formed_at_the_first_sample():
    rng = np.random.default_rng(7)
    for lam, lamt in NINE_PAIRS:
        case = cmp.make_case(lam, lamt, rng.uniform(0.3, 2.0),
                             rng.uniform(-1.5, 1.5))
        for target in cmp._default_span(case, 1.2):
            calls, rhs = [0], cmp.comparison_rhs(case)

            def counted(t, u):
                calls[0] += 1
                return rhs(t, u)

            res = ode.integrate(counted, 0.0, [case.a, case.b], target,
                                1e-12, 1e-14, speed_limit=np.inf)
            assert (res.status, res.n_vetoed) == ("t_limit", 0)
            # the initial point, the probe and twelve stages a step: no
            # dense-output stage ran
            assert calls[0] == 2 + 12 * (res.n_accepted + res.n_rejected)
            assert res.Qs is None
            mid = res.ts[:-1] + 0.5 * res.hs
            exact = np.sqrt(cmp.f_squared(case, mid))
            assert np.max(np.abs(res.sample(mid)[:, 0] - exact)) <= 1e-10
            assert calls[0] == 2 + 12 * (res.n_accepted + res.n_rejected) \
                + 3 * res.n_accepted
            assert res.Qs.shape == (res.n_accepted, 2, 7)
            assert np.array_equal(res.sample(res.ts), res.us)


def test_a_dop853_guard_crossing_is_placed_on_the_dense_output():
    res = ode.integrate(_cos, 0.0, np.array([0.0]), 3.0,
                        guard=lambda u: u[0] < 0.5)
    assert res.status == "boundary"
    assert abs(res.t_end - math.pi / 6) < 1e-9
    assert np.array_equal(res.sample([res.t_end]), res.us[-1:])


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


def test_a_component_held_at_zero_keeps_the_error_norm_finite():
    # with atol = 0 the zero component's scale is 0, and every stage of it
    # is 0, so its sums e5 = K.T @ E5 and e3 = K.T @ E3 are exactly 0
    # whatever E5 and E3 weigh: it adds 0 to the error norm, where 0 / 0
    # made it nan and accepted every step with a 10x growth
    with np.errstate(all="raise"):
        res = ode.integrate(lambda t, u: np.array([0.0 * u[0], -u[1]]), 0.0,
                            np.array([0.0, 1.0]), 1.0, atol=0.0)
    assert res.status == "t_limit"
    assert res.u_end[0] == 0.0
    assert abs(res.u_end[1] - math.exp(-1.0)) <= 1e-8


def test_a_zero_scale_under_a_nonzero_difference_rejects_the_step():
    # u' = 0 from u = 0 with atol = 0, except at stage 5 of the first step
    # (h = 1e-4), which reads 5e-324: b weighs it 4.45 and E5 -1.23, so
    # u8 = h (4.45 * 5e-324) underflows to 0 while e5 = -5e-324 does not.
    # The zero scale makes e5's term inf and the error inf / inf = nan
    calls = [0]

    def rhs(t, u):
        calls[0] += 1  # 1: the initial point; the probe is skipped
        return np.array([5e-324 if calls[0] == 6 else 0.0])

    with np.errstate(all="raise"):
        res = ode.integrate(rhs, 0.0, np.array([0.0]), 1.0, atol=0.0)
    assert res.status == "t_limit"
    assert (res.n_rejected, res.n_vetoed) == (1, 0)
    assert not res.us.any()


def test_an_overflowing_step_is_rejected_and_not_stored():
    # b weighs stage 5 by 4.45 and stage 7 by -5.80, and E3 = b - bhh
    # weighs them alike, so slopes of 1e308 make inf and -inf terms: u8, e3
    # and the error norm are nan, and every step is rejected, where a nan
    # err used to accept an inf node, until the floor ends the leg
    with np.errstate(over="ignore", invalid="ignore"):
        res = ode.integrate(lambda t, u: np.array([1e308]), 0.0,
                            np.array([1.7e308]), 1.0, speed_limit=np.inf)
    assert res.status == "blow_up"
    assert np.isfinite(res.us).all() and res.n_rejected > 0


def test_an_overflow_under_raising_errstate_returns_the_blow_up():
    # the stage sums of slopes of 1e308 overflow; integrate ignores numpy's
    # overflow and invalid warnings itself, so a caller that raises on
    # every warning gets the result a caller that ignores them gets
    run = partial(ode.integrate, lambda t, u: np.array([1e308]), 0,
                  [1.7e308], 1, speed_limit=np.inf)
    with np.errstate(all="raise"):
        res = run()
    assert res.status == "blow_up"
    assert res.t_end == 0.0
    assert res.u_end.tolist() == [1.7e+308]
    assert (res.n_accepted, res.n_rejected, res.n_vetoed) == (0, 16, 0)
    with np.errstate(all="ignore"):
        _assert_bit_identical(res, run())


def test_a_zero_scale_under_raising_errstate_takes_the_fallback_step():
    # atol = 0 and u = 0 give the starting step a zero scale: f0 / scale
    # divides by zero and reads inf, so the first step is the fallback
    run = partial(ode.integrate, lambda t, u: np.array([1.0]), 0.0,
                  np.array([0.0]), 1.0, atol=0.0)
    with np.errstate(all="raise"):
        res = run()
    assert (res.status, res.n_accepted, res.n_rejected) == ("t_limit", 7, 0)
    assert res.hs[0] == 1e-4
    assert res.u_end[0] == pytest.approx(1.0, abs=1e-15)
    with np.errstate(all="ignore"):
        _assert_bit_identical(res, run())


# ---------------------------------------------------------------------------
# one finiteness test at the initial point, the starting-step probe and
# every stage


def _poisoned(call, j, value, d=3, as_list=False):
    """u' = -u whose rhs call number ``call`` (0: the initial point, 1: the
    probe, 2-13: the stages of the first step) has ``value`` in entry j;
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


# ---------------------------------------------------------------------------
# the end game after a veto: steps bounded by the vetoed stage's time, and
# one step past it at the floor


def test_a_funk_rim_leg_ends_by_a_veto_just_past_its_bracket():
    # the backward leg of test_geodesic_legs_match_the_former_loop_bit_for_bit;
    # halving after each veto took 527 rhs calls there
    m = zoo.funk_ball(1)
    rhs, calls = gd.geodesic_rhs(m), [0, 0]  # integrate's, the oracle's

    def counted(k):
        def run(t, u):
            calls[k] += 1
            return rhs(t, u)
        return run

    u0 = np.concatenate([XG, YG / m(XG, YG)])
    res = ode.integrate(counted(0), 0.0, u0, -30.0, 1e-8, 1e-10)
    assert res.status == "boundary"
    assert res.n_vetoed > 0
    speed = np.linalg.norm(res.u_end[2:])
    assert 0.0 < -m.domain.signed(res.u_end[:2]) <= 2 * ode.MIN_STEP * speed
    assert calls[0] == 296 < 527
    res.sample(res.ts)  # three dense-output stages per accepted step
    _oracle_integrate8(counted(1), 0.0, u0, -30.0, 1e-8, 1e-10,
                       speed_limit=ode.SPEED_LIMIT)
    assert calls[0] == calls[1] == 296 + 3 * res.n_accepted


def test_a_stage_that_overshoots_a_path_inside_is_no_boundary():
    # u runs on the unit circle; long steps put stages outside |u| < 1.001
    # while the path stays on it, so each bracket is passed by a probe
    def rhs(t, u):
        if u.dot(u) >= 1.001**2:
            raise DomainError("outside the disc")
        return np.array([-u[1], u[0]])

    res = ode.integrate(rhs, 0.0, np.array([1.0, 0.0]), 10.0, rtol=1e-6,
                        atol=1e-8)
    assert res.status == "t_limit"
    assert res.n_vetoed > 0
    assert np.min(np.abs(res.hs)) < 2 * ode.MIN_STEP  # a probe was accepted
    assert np.allclose(res.u_end, [math.cos(10.0), math.sin(10.0)], rtol=0,
                       atol=1e-5)


def test_the_collapse_legs_of_criterion_6_still_read_collapse():
    # every grid case of criterion 6 with a finite end of life, run 0.5
    # past it: the leg stalls against the f -> 0 pole, by vetoes or not
    statuses, vetoed = [], 0
    for lam, lamt in NINE_PAIRS:
        for a in GRID_AB[0]:
            for b in GRID_AB[1]:
                case = cmp.make_case(lam, lamt, a, b)
                ends = cmp.maximal_interval(case)
                span = [e + math.copysign(0.5, e) if math.isfinite(e)
                        else 0.0 for e in ends]  # 0: an empty leg
                for (res, status), end in zip(
                        cmp.numeric_integrate(case, span), ends):
                    if math.isfinite(end):
                        statuses.append(status)
                        vetoed += res.n_vetoed > 0
    assert statuses == ["collapse"] * 190
    assert vetoed == 78


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
