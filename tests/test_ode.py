"""The DP5 integrator: starting step, step floor, dense output, spans."""

import math
import re

import numpy as np
import pytest

from finslerlab import cli, ode, zoo
from finslerlab import geodesic as gd
from finslerlab.errors import DomainError, NumericError

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

    def counted_seed(*args):
        calls["seed"] += 1
        return seed(*args)

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
