"""Spray, curvature, and geodesic machinery on the closed-form catalog."""

import signal
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finslerlab import (acceptance, comparison as cmp, geodesic as gd,
                        geometry as geo, jets as jr, ode, projective as pj,
                        sampling, zoo)
from finslerlab.errors import (DegenerateFlagError, DomainError, JetError,
                               NumericError, SingularMetricError)
from finslerlab.metric import FinslerMetric, FullSpace, UnitBall, dot

X = np.array([0.5, 0.0])
Y = np.array([1.0, 0.0])
XG = np.array([0.31, -0.22])
YG = np.array([0.62, 0.81])


def test_fundamental_tensor_euclidean_is_identity():
    g = geo.fundamental_tensor(zoo.euclidean(), X, np.array([0.3, 0.4]))
    assert np.allclose(g, np.eye(2), atol=1e-14)


def test_spray_closed_forms_on_the_ball():
    # klein: G = <x,y>/(1-|x|^2) y ; funk: G = (F/2) y
    kl, fp = zoo.klein(), zoo.funk_ball(1)
    for x, y in [(X, Y), (XG, YG)]:
        s = dot(x, y) / (1.0 - dot(x, x))
        assert np.allclose(geo.spray_coefficients(kl, x, y), s * y, atol=1e-12)
        f = fp(x, y)
        assert np.allclose(geo.spray_coefficients(fp, x, y), 0.5 * f * y,
                           atol=1e-12)


def test_assembled_connection_differentiates_the_spray():
    fp = zoo.funk_ball(1)
    N = geo._assemble(fp, XG, YG, 4)["N"]
    h = 1e-6
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (geo.spray_coefficients(fp, XG, YG + e)
              - geo.spray_coefficients(fp, XG, YG - e)) / (2 * h)
        assert np.allclose(N[:, k], fd, atol=1e-8)


def test_riemann_annihilates_the_flag_pole():
    for m in (zoo.klein(), zoo.funk_ball(1), zoo.spherical(), zoo.bryant(0.5)):
        R = geo.riemann_curvature(m, XG, YG)
        assert np.linalg.norm(R @ YG) < 1e-10


def test_riemann_is_g_symmetric():
    m = zoo.bryant(0.5)
    F, g, R = geo.curvature_data(m, XG, YG)
    gR = g @ R
    assert np.allclose(gR, gR.T, atol=1e-10)


def test_flag_curvature_constants():
    rows = [(zoo.klein(), -1.0), (zoo.funk_ball(1), -0.25),
            (zoo.funk_ball(-1), -0.25), (zoo.spherical(), 1.0),
            (zoo.scaled(zoo.funk_ball(1), 0.5), -1.0)]
    v = np.array([-0.35, 0.92])
    for m, expect in rows:
        K = geo.flag_curvature(m, XG, YG, v)
        assert K == pytest.approx(expect, abs=1e-10)


def test_flag_rejects_degenerate_span():
    with pytest.raises(DegenerateFlagError):
        geo.flag_curvature(zoo.klein(), XG, YG, 2.5 * YG)


def test_flag_rejects_a_zero_direction():
    # g(v, v) = 0 makes sin^2 of the angle 0 / 0
    with pytest.raises(DegenerateFlagError):
        geo.flag_curvature(zoo.klein(), XG, YG, np.zeros(2))


def test_flag_spread_is_tiny_for_constant_curvature():
    rep = geo.flag_spread(zoo.spherical(), XG, YG, flags=12)
    assert len(rep["values"]) == 12
    assert rep["spread"] < 1e-10
    assert rep["min"] == pytest.approx(1.0, abs=1e-10)


def test_flag_spread_without_transverse_directions():
    # at n = 1 every direction is parallel to y: no flag exists
    with pytest.raises(DegenerateFlagError):
        geo.flag_spread(zoo.euclidean(1), np.array([0.3]), np.array([1.0]),
                        flags=4)


def test_flag_spread_counts_the_directions_it_drops():
    # a state whose y is the first candidate direction drops that one; the
    # campaign's samples draw their y from the same stream, so sample i
    # drops candidate i while i < 3 flags + 8
    m, flags, x = zoo.klein(3), 4, np.array([0.31, -0.22, 0.1])
    V = geo._flag_directions(m.n, flags)
    assert geo.flag_spread(m, x, V[0], flags=flags)["dropped"] == 1
    assert geo.flag_spread(m, x, -V[0], flags=flags)["dropped"] == 1
    rep = geo.einstein_campaign(m, 30, flags=flags)
    total = sum(geo.flag_spread(m, np.array(r["x"]), np.array(r["y"]),
                                flags=flags)["dropped"] for r in rep["rows"])
    assert rep["flags_dropped"] == total == 20


@pytest.mark.parametrize("flags", [-1, 0, 1.5, "3"])
def test_flag_spread_refuses_a_flag_count_that_is_no_positive_integer(flags):
    with pytest.raises(DomainError, match="flags"):
        geo.flag_spread(zoo.spherical(), XG, YG, flags=flags)


def test_einstein_campaign_flag_count_must_be_an_integer():
    with pytest.raises(DomainError, match="flags"):
        geo.einstein_campaign(zoo.klein(), 3, flags=1.5)
    rep = geo.einstein_campaign(zoo.klein(), 3, flags=0)  # 0: no flags
    assert "flag_min" not in rep and "flag_min" not in rep["rows"][0]


def _catalog_keys():
    fixed_2d = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
                "hilbert-superellipse")
    return [(name, n) for name in zoo.METRIC_NAMES
            for n in ((2,) if name in fixed_2d else (2, 3, 4))]


@pytest.mark.parametrize("key", _catalog_keys(),
                         ids=lambda key: f"{key[0]}-{key[1]}")
def test_second_inverse_metric_derivative_matches_three_einsums(key):
    # the three-operand einsum formula the stacked matmuls replaced
    m = zoo.make_metric(*key)
    n = m.n
    X, Y = (np.array(v) for v in zip(*geo.sampling.state_pairs(m, 6)))
    data = geo._assemble(m, X, Y, 4)
    f = jr.jet_of(m.F, X, Y, 4)
    D3, D4 = jr.derivative_tensors(f * f)[3:]
    dg = 0.5 * geo._core(D3[..., n:, n:, :], 2, 0, 1)
    d2g = 0.5 * geo._core(D4[..., n:, n:, :, :], 2, 3, 0, 1)
    ginv = data["ginv"]
    dginv = -np.einsum("...ab,...mbc,...cd->...mad", ginv, dg, ginv)
    oracle = -(
        np.einsum("...nab,...mbc,...cd->...mnad", dginv, dg, ginv)
        + np.einsum("...ab,...mnbc,...cd->...mnad", ginv, d2g, ginv)
        + np.einsum("...ab,...mbc,...ncd->...mnad", ginv, dg, dginv)
    )
    for got, want in zip(data["d2ginv"], oracle[..., :, n:, :, :]):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_einstein_residual_and_campaign():
    assert geo.einstein_residual(zoo.klein(), XG, YG) < 1e-12
    rep = geo.einstein_campaign(zoo.paraboloid_metric(2), count=15, flags=4)
    assert rep["max_einstein_residual"] < 1e-10
    assert rep["flag_min"] == pytest.approx(-1.0, abs=1e-8)
    # refuses to judge an Einstein campaign without a constant to test
    with pytest.raises(DomainError):
        geo.einstein_campaign(
            FinslerMetric(2, lambda x, y: (dot(y, y)) ** 0.5, FullSpace(2),
                          name="plain"), count=3)


def test_einstein_campaign_assembles_once_per_sample(monkeypatch):
    m, count, flags = zoo.funk_ball(1), 7, 3
    orders = []
    assemble = geo._assemble

    def counted(metric, x, y, order):
        orders.append(order)
        return assemble(metric, x, y, order)

    monkeypatch.setattr(geo, "_assemble", counted)
    rep = geo.einstein_campaign(m, count, flags=flags)
    assert orders.count(4) == 1  # one batch holds all 7 samples
    # each row equals the single-state calls on its sample, bit for bit
    for row in rep["rows"]:
        x, y = np.array(row["x"]), np.array(row["y"])
        assert row["einstein_residual"] == geo.einstein_residual(m, x, y)
        sp = geo.flag_spread(m, x, y, flags=flags)
        assert (row["flag_min"], row["flag_max"]) == (sp["min"], sp["max"])


def test_einstein_campaign_arguments_fail_with_domain_error():
    with pytest.raises(DomainError, match="count >= 1"):
        geo.einstein_campaign(zoo.klein(), 0)
    with pytest.raises(DomainError, match="flags >= 0"):
        geo.einstein_campaign(zoo.klein(), 3, flags=-1)


def test_scaled_metric_scales_the_constant():
    half = zoo.scaled(zoo.funk_ball(1), 0.5)
    v = np.array([-0.35, 0.92])
    assert geo.flag_curvature(half, XG, YG, v) == pytest.approx(-1.0,
                                                                abs=1e-10)


def test_singular_metric_detected():
    # quartic norm: the vertical hessian of F^2 degenerates on the axes
    quartic = FinslerMetric(
        2, lambda x, y: (y[0] ** 4 + y[1] ** 4) ** 0.25, FullSpace(2),
        name="quartic")
    with pytest.raises(SingularMetricError):
        geo.fundamental_tensor(quartic, X, Y)


def test_check_minkowski_verdicts():
    assert geo.check_minkowski(zoo.euclidean(), budget=15)["passed"]
    rep = geo.check_minkowski(zoo.klein(), budget=15)
    assert rep["passed"] and rep["min_eig"] > 0.0


def test_check_minkowski_records_finsler_errors_and_passes_others_on():
    def refused(x, y):
        raise NumericError("no value here")

    rep = geo.check_minkowski(
        FinslerMetric(2, refused, FullSpace(2), name="refused"), budget=3)
    assert not rep["passed"]
    assert [f["error_class"] for f in rep["failures"]] == ["NumericError"] * 3

    def broken(x, y):
        raise KeyError("a bug in F, not a bad sample")

    with pytest.raises(KeyError):
        geo.check_minkowski(
            FinslerMetric(2, broken, FullSpace(2), name="broken"), budget=3)


# ---------------------------------------------------------------------------
# integrator


def test_integrator_matches_exponential_decay():
    res = ode.integrate(lambda t, u: -u, 0.0, np.array([1.0]), 5.0)
    assert res.status == "t_limit"
    assert res.u_end[0] == pytest.approx(np.exp(-5.0), rel=1e-9)


def test_integrator_guard_bisects_the_crossing():
    res = ode.integrate(lambda t, u: np.array([1.0]), 0.0, np.array([0.0]),
                        10.0, guard=lambda u: u[0] < 2.0)
    assert res.status == "boundary"
    assert res.t_end == pytest.approx(2.0, abs=1e-9)


def test_integrator_flags_blow_up():
    res = ode.integrate(lambda t, u: u * u, 0.0, np.array([1.0]), 5.0)
    assert res.status == "blow_up"
    assert res.t_end == pytest.approx(1.0, abs=1e-3)


def test_dense_output_interpolates_the_nodes():
    res = ode.integrate(lambda t, u: np.array([np.cos(t)]), 0.0,
                        np.array([0.0]), 3.0)
    ts = np.linspace(0.0, 3.0, 40)
    vals = res.sample(ts)[:, 0]
    assert np.max(np.abs(vals - np.sin(ts))) < 1e-6


def _scan_locate(res, t):
    """Reference lookup: the last node, in order, at or before t in the
    direction of integration, when t lies in the span widened by 1e-12."""
    sgn = 1.0 if res.ts[-1] >= res.ts[0] else -1.0
    if not sgn * res.ts[0] - 1e-12 <= sgn * t <= sgn * res.ts[-1] + 1e-12:
        return None
    at_or_before = [k for k, tk in enumerate(res.ts) if sgn * tk <= sgn * t]
    return at_or_before[-1] if at_or_before else 0


@pytest.mark.parametrize("t1", [3.0, -3.0])
def test_segment_lookup_matches_a_linear_scan(t1):
    res = ode.integrate(lambda t, u: np.array([np.cos(t), -u[0]]), 0.0,
                        np.array([0.0, 1.0]), t1, rtol=1e-6, atol=1e-8)
    nodes = np.asarray(res.ts)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    queries = np.concatenate([nodes, nodes - 1e-12, nodes + 1e-12,
                              nodes - 3e-12, nodes + 3e-12, mids])
    for t in queries:
        k = _scan_locate(res, t)
        if k is None:
            with pytest.raises(NumericError):
                res._locate(np.array([t]))
        else:
            assert res._locate(np.array([t]))[0] == k, t
    assert list(res._locate(nodes)) == [_scan_locate(res, t) for t in nodes]
    with pytest.raises(NumericError):
        res.sample([t1 + np.sign(t1)])


def _hausdorff_oracle(points, anchor, direction):
    """The loop hausdorff_to_chord once was, kept as a reference: each chord
    sample is measured against every segment at once, with the loop's own
    projection."""

    def point_segment(p, a, b):
        # distances from p to [a, b] over the rows of p, or of a and b
        ab = b - a
        denom = (ab * ab).sum(axis=-1)
        num = ((p - a) * ab).sum(axis=-1)
        degenerate = denom == 0.0
        s = np.where(degenerate, 0.0, np.clip(
            num / np.where(degenerate, 1.0, denom), 0.0, 1.0))
        gap = p - (a + s[..., None] * ab)
        return np.sqrt((gap * gap).sum(axis=-1))

    pts = np.asarray(points, dtype=float)
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    a0 = np.asarray(anchor, dtype=float)
    s = (pts - a0) @ d
    lo, hi = float(np.min(s)), float(np.max(s))
    p_lo, p_hi = a0 + lo * d, a0 + hi * d
    d_fwd = float(np.max(point_segment(pts, p_lo, p_hi)))
    chord_samples = p_lo + np.linspace(0.0, 1.0, 200)[:, None] * (p_hi - p_lo)
    d_back = 0.0
    for q in chord_samples:
        best = float(np.min(point_segment(q, pts[:-1], pts[1:]))) \
            if len(pts) > 1 else float(np.linalg.norm(q - pts[0]))
        d_back = max(d_back, best)
    return max(d_fwd, d_back)


def _polyline(n, nodes, shape, seed):
    """Polyline, anchor and direction for the Hausdorff comparison."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    d /= np.linalg.norm(d)
    a0 = rng.uniform(-1.0, 1.0, n)
    if shape == "scatter":
        pts = rng.uniform(-1.0, 1.0, (nodes, n))
    else:  # a wobbly trace along the line, as a geodesic gives
        s = np.sort(rng.uniform(-1.0, 1.0, nodes))
        pts = a0 + s[:, None] * d + 1e-3 * rng.standard_normal((nodes, n))
    if shape == "repeats":  # zero-length segments
        pts = pts[np.sort(rng.integers(0, nodes, nodes))]
    if shape == "flat_chord":  # every node projects to one chord point
        pts -= np.outer((pts - a0) @ d, d)
    return pts, a0, d


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 4), nodes=st.integers(1, 500),
       shape=st.sampled_from(["trace", "scatter", "repeats", "flat_chord"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, nodes=1, shape="trace", seed=0)
@example(n=3, nodes=40, shape="flat_chord", seed=1)
@example(n=4, nodes=60, shape="repeats", seed=2)
def test_hausdorff_matches_the_scalar_loop(n, nodes, shape, seed):
    pts, a0, d = _polyline(n, nodes, shape, seed)
    assert gd.hausdorff_to_chord(pts, a0, d) == \
        pytest.approx(_hausdorff_oracle(pts, a0, d), rel=0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# geodesics


def test_geodesics_trace_straight_chords():
    # the backward rim exit sits near t = -0.708, so this span stays interior
    run = gd.integrate_geodesic(zoo.funk_ball(1), XG, YG, (-0.5, 1.2))
    assert run.status_forward == "t_limit"
    assert run.status_backward == "t_limit"
    assert gd.hausdorff_to_chord(run.xs, XG, YG) < 1e-10
    assert run.speed_drift < 1e-8  # unit speed preserved


def test_geodesic_normalization_and_span_validation():
    run = gd.integrate_geodesic(zoo.klein(), XG, YG, (0.0, 1.0))
    assert run.speeds[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        gd.integrate_geodesic(zoo.klein(), XG, YG, (0.5, 1.0))


def test_geodesic_boundary_exit_is_localized():
    # euclidean metric restricted to the open ball: exits at |x| = 1, t = 1
    m = FinslerMetric(2, lambda x, y: dot(y, y) ** 0.5, UnitBall(2),
                      name="euclid-on-ball")
    run = gd.integrate_geodesic(m, np.zeros(2), np.array([1.0, 0.0]),
                                (0.0, 3.0))
    assert run.status_forward == "boundary"
    assert run.ts[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(run.xs[-1]) == pytest.approx(1.0, abs=1e-9)


def test_funk_backward_leg_hits_the_boundary():
    # the forward funk geodesic never reaches the rim; the backward one does
    run = gd.integrate_geodesic(zoo.funk_ball(1), XG, YG, (-30.0, 1.0),
                                rtol=1e-8, atol=1e-10)
    assert run.status_forward == "t_limit"
    assert run.status_backward == "boundary"
    assert np.linalg.norm(run.xs[0]) == pytest.approx(1.0, abs=1e-6)
    assert run.t_span[0] == -30.0  # requested span is reported unchanged


def test_geodesic_sampling_matches_nodes():
    run = gd.integrate_geodesic(zoo.klein(), XG, YG, (-0.5, 0.5))
    pts, vels = run.sample(np.array([0.0]))
    assert np.allclose(pts[0], XG, atol=1e-9)
    assert vels.shape == (1, 2)


def test_geodesic_sampling_matches_per_leg_lookup():
    run = gd.integrate_geodesic(zoo.klein(), XG, YG, (-0.5, 0.5))
    back, fwd = run.legs
    ts = np.array([0.3, -0.2, 0.0, -0.5, 0.5, -0.0, 0.1])
    pts, vels = run.sample(ts)
    want = np.array([(fwd if t >= 0.0 else back).sample([t])[0] for t in ts])
    assert np.array_equal(np.hstack([pts, vels]), want)


def test_hausdorff_rejects_an_empty_polyline():
    with pytest.raises(DomainError):
        gd.hausdorff_to_chord(np.empty((0, 2)), X, Y)


@pytest.mark.parametrize("direction", [(0.0, 0.0), (np.nan, 1.0),
                                       (np.inf, 0.0), (1e200, 1e200)])
def test_hausdorff_rejects_a_zero_or_non_finite_direction(direction):
    pts = np.array([[0.0, 0.0], [0.5, 0.1], [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(DomainError, match="direction"):
            gd.hausdorff_to_chord(pts, (0.0, 0.0), direction)


_CASE = cmp.make_case(-1, -1, 1.0, 0.5)
# a malformed coordinate or argument: "a" in place of a number
_X, _Y, _XA, _YA = (0.1, 0.2), (1.0, 0.0), ("a", 0.2), ("a", 0.0)
_BOX = (["a", 0], [1, 1])
_ELLIPSE = zoo.ellipsoid_body((2.0, 1.0))


def _geodesic():
    return gd.integrate_geodesic(zoo.klein(), _X, _Y, (-0.5, 0.5))


def _rhs(t, u):
    return -u


def _within(seconds, call):
    """``call()``, or AssertionError if it has not returned in ``seconds``."""
    def stalled(signum, frame):
        raise AssertionError(f"the call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: gd.integrate_geodesic(zoo.klein(), XG, YG, (0.0,)),
                 id="t-span-of-one-time"),
    pytest.param(lambda: gd.integrate_geodesic(zoo.klein(), XG, YG, 1.0),
                 id="t-span-a-number"),
    pytest.param(lambda: gd.integrate_geodesic(zoo.klein(), XG, YG, ("a", 1)),
                 id="t-span-a-string"),
    pytest.param(lambda: gd.hausdorff_to_chord(np.zeros((3, 2)), [0, 0, 0],
                                               [1, 0, 0]),
                 id="hausdorff-chord-of-another-dimension"),
    pytest.param(lambda: geo.flag_curvature(zoo.klein(), XG, YG, np.ones(3)),
                 id="flag-of-another-dimension"),
    pytest.param(lambda: cmp.make_case(-1, -1, 1.0, "x"), id="case-string-b"),
    pytest.param(lambda: cmp.make_case(-1, None, 1.0, 0.0),
                 id="case-none-lam-tilde"),
    pytest.param(lambda: cmp.candidate_length(_CASE, "a", 1.0),
                 id="length-string-end"),
    pytest.param(lambda: cmp.arc_param_roundtrip(_CASE, "a"),
                 id="roundtrip-string-time"),
    pytest.param(lambda: cmp.ode_residual(_CASE, ["a"]),
                 id="residual-string-time"),
    # points and directions
    pytest.param(lambda: zoo.klein()(_X, _YA), id="call-string-direction"),
    pytest.param(lambda: geo.spray_coefficients(zoo.klein(), _XA, _Y),
                 id="spray-string-point"),
    pytest.param(lambda: geo.flag_curvature(zoo.klein(), _X, _Y, ("a", 1)),
                 id="flag-string-direction"),
    pytest.param(lambda: pj.projective_factor(zoo.klein(), zoo.klein(), _XA,
                                              _Y), id="factor-string-point"),
    pytest.param(lambda: pj.rapcsak_residual(zoo.klein(), zoo.funk_ball(1),
                                             _X, _YA),
                 id="rapcsak-string-direction"),
    pytest.param(lambda: pj.xi_and_tau(zoo.klein(), zoo.klein(), _XA, _Y),
                 id="xi-tau-string-point"),
    pytest.param(lambda: pj.curvature_transform_check(
        zoo.euclidean(), zoo.funk_ball(1), _XA, _Y),
        id="transform-string-point"),
    pytest.param(lambda: jr.jet_of(zoo.klein().F, _XA, _Y, 2),
                 id="jet-of-string-point"),
    pytest.param(lambda: jr.variables(_XA, 2), id="variables-string-point"),
    pytest.param(lambda: jr.fd_oracle(zoo.klein().F, _XA, _Y, (1, 0, 0, 0)),
                 id="fd-oracle-string-point"),
    pytest.param(lambda: zoo.funk_general(_ELLIPSE, _XA, _Y),
                 id="funk-general-string-point"),
    pytest.param(lambda: zoo.evolution_coefficients("klein", _XA, _Y),
                 id="evolution-string-point"),
    pytest.param(lambda: zoo.verify_evolution("klein", _XA, _Y),
                 id="verify-evolution-string-point"),
    # samples
    pytest.param(lambda: _geodesic().sample(["a"]),
                 id="geodesic-sample-string-time"),
    pytest.param(lambda: _geodesic().legs[1].sample(["a"]),
                 id="ode-sample-string-time"),
    # scalars
    pytest.param(lambda: gd.integrate_geodesic(zoo.klein(), _X, _Y,
                                               (-0.5, 0.5), rtol="a"),
                 id="geodesic-string-rtol"),
    pytest.param(lambda: geo.einstein_residual(zoo.klein(), _X, _Y, lam="a"),
                 id="einstein-string-lam"),
    pytest.param(lambda: pj.funk_condition_residual(zoo.klein(), "a", _X, _Y),
                 id="funk-condition-string-mu"),
    pytest.param(lambda: ode.integrate(_rhs, "a", [1.0], 1.0),
                 id="integrate-string-t0"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, ["a"], 1.0),
                 id="integrate-string-u0"),
    pytest.param(lambda: zoo.bryant("a"), id="bryant-string-eps"),
    pytest.param(lambda: zoo.scaled(zoo.klein(), "a"),
                 id="scaled-string-factor"),
    pytest.param(lambda: zoo.ellipsoid_body(("a", 1)),
                 id="ellipsoid-string-axis"),
    pytest.param(lambda: zoo.superellipse_body("a"),
                 id="superellipse-string-p"),
    pytest.param(lambda: zoo.make_metric("klein", "a"),
                 id="make-metric-string-dim"),
    pytest.param(lambda: zoo.make_metric("bryant", 2, "a"),
                 id="make-metric-string-eps"),
    # boxes and spans
    pytest.param(lambda: sampling.state_pairs(zoo.klein(), 3, box=_BOX),
                 id="state-pairs-string-box"),
    pytest.param(lambda: sampling.points_in_domain(UnitBall(2), 3, box=_BOX),
                 id="points-string-box"),
    pytest.param(lambda: geo.einstein_campaign(zoo.klein(), 3, box=_BOX),
                 id="campaign-string-box"),
    pytest.param(lambda: pj.fit_einstein_constants(
        zoo.euclidean(), zoo.funk_ball(1), 3, box=_BOX), id="fit-string-box"),
    pytest.param(lambda: sampling.state_pairs(zoo.klein(), 3, box=1.0),
                 id="state-pairs-scalar-box"),
    pytest.param(lambda: cmp.numeric_vs_closed(_CASE, ("a", 1.0)),
                 id="numeric-vs-closed-string-span"),
    pytest.param(lambda: cmp.numeric_vs_closed(_CASE, 1.0),
                 id="numeric-vs-closed-scalar-span"),
    # arrays
    pytest.param(lambda: gd.hausdorff_to_chord([["a", 1]], (0, 0), (1, 0)),
                 id="hausdorff-string-point"),
    pytest.param(lambda: gd.hausdorff_to_chord(np.zeros(2), (0.0, 0.0),
                                               (1.0, 0.0)),
                 id="hausdorff-one-dimensional-points"),
    # non-finite points and directions, which evaluated to nan
    pytest.param(lambda: zoo.spherical()((np.nan, 0.0), _Y),
                 id="spherical-nan-point"),
    pytest.param(lambda: zoo.klein()(_X, (np.inf, 0.0)),
                 id="klein-inf-direction"),
    pytest.param(lambda: zoo.bryant(0.5)(_X, (np.nan, 0.0)),
                 id="bryant-nan-direction"),
    pytest.param(lambda: zoo.paraboloid_metric()((0.0, np.inf), (0.0, 1.0)),
                 id="paraboloid-inf-point"),
    # huge or infinite points, refused without a RuntimeWarning
    pytest.param(lambda: zoo.paraboloid_metric()((np.inf, np.inf), (0, 1)),
                 id="paraboloid-inf-inf-point"),
    pytest.param(lambda: zoo.paraboloid_metric()((1e200, 1e200), (0, 1)),
                 id="paraboloid-huge-point"),
    # counts, names and times of the wrong type
    pytest.param(lambda: jr.get_context("a", 2),
                 id="context-string-variable-count"),
    pytest.param(lambda: jr.get_context(2, "a"), id="context-string-order"),
    pytest.param(lambda: jr.variables(np.array(_X), "a"),
                 id="variables-string-order"),
    pytest.param(lambda: zoo.make_metric(["a"]), id="make-metric-list-name"),
    pytest.param(lambda: zoo.evolution_coefficients(["a"], _X, _Y),
                 id="evolution-list-source"),
    # points that are neither (n,) nor a (B, n) stack with B >= 1
    pytest.param(lambda: jr.variables(np.zeros((1, 1, 2)), 2),
                 id="variables-three-axis-stack"),
    pytest.param(lambda: jr.variables(np.zeros((0, 2)), 2),
                 id="variables-empty-stack"),
    pytest.param(lambda: jr.variables(0.5, 2), id="variables-0d-point"),
    # a body of another kind, which raised AttributeError
    pytest.param(lambda: zoo.funk_general(None, _X, _Y),
                 id="funk-general-none-body"),
    pytest.param(lambda: zoo.funk_body_metric("ellipse"),
                 id="funk-body-metric-string-body"),
    pytest.param(lambda: zoo.hilbert_general(3), id="hilbert-general-int-body"),
    pytest.param(lambda: zoo.verify_evolution("hilbert", _X, _Y,
                                              body="ellipse"),
                 id="verify-evolution-string-body"),
    # a ray law's point outside its chart, which raised ValueError
    pytest.param(lambda: zoo.evolution_coefficients("klein", (0.9, 0.9), _Y),
                 id="evolution-point-outside-the-ball"),
    # one-state entries given a (B, n) stack
    pytest.param(lambda: geo.flag_spread(zoo.klein(), np.tile(XG, (3, 1)),
                                         np.tile(YG, (3, 1))),
                 id="flag-spread-stack"),
    pytest.param(lambda: acceptance.fd_riemann(
        zoo.klein(), np.tile(XG, (3, 1)), np.tile(YG, (3, 1))),
        id="fd-riemann-stack"),
    # times and ODE vectors of another shape
    pytest.param(lambda: _geodesic().sample([[0.0, 0.01]]),
                 id="geodesic-sample-2d-times"),
    pytest.param(lambda: _geodesic().legs[1].sample([[0.0, 0.01]]),
                 id="ode-sample-2d-times"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [[1.0]], 1.0),
                 id="integrate-2d-u0"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [], 1.0),
                 id="integrate-empty-u0"),
    # a non-finite Einstein constant, which gave a NaN residual
    pytest.param(lambda: geo.einstein_residual(zoo.klein(), XG, YG,
                                               lam=np.nan),
                 id="einstein-residual-nan-lambda"),
    pytest.param(lambda: geo.einstein_campaign(zoo.klein(), 3, lam=np.inf),
                 id="einstein-campaign-inf-lambda"),
    pytest.param(lambda: geo.einstein_residual(zoo.klein(), XG, YG,
                                               lam=-np.inf),
                 id="einstein-residual-minus-inf-lambda"),
    # a budget of no samples, which passed vacuously
    pytest.param(lambda: geo.check_minkowski(zoo.klein(), budget=0),
                 id="minkowski-zero-budget"),
    # a direction whose |y|^2 overflows: numpy's overflow RuntimeWarning
    # escaped first
    pytest.param(lambda: zoo.klein()(_X, (1e200, 0.0)),
                 id="overflowing-direction"),
    pytest.param(lambda: zoo.klein()(np.array([_X, _X]),
                                     np.array([_Y, (1e200, 0.0)])),
                 id="overflowing-direction-batch"),
    # objects of the wrong kind, which leaked AttributeError
    pytest.param(lambda: cmp.f_squared("case", 0.1), id="f-squared-of-a-string"),
    pytest.param(lambda: cmp.maximal_interval(None),
                 id="maximal-interval-of-none"),
    pytest.param(lambda: cmp.classify_completeness(None),
                 id="classify-completeness-of-none"),
    pytest.param(lambda: cmp.numeric_vs_closed(None),
                 id="numeric-vs-closed-of-none"),
    pytest.param(lambda: cmp.ode_residual(None, [0.1]),
                 id="ode-residual-of-none"),
    pytest.param(lambda: geo.spray_coefficients("klein", XG, YG),
                 id="spray-of-a-string"),
    pytest.param(lambda: geo.flag_curvature("klein", XG, YG, (0.0, 1.0)),
                 id="flag-curvature-of-a-string"),
    pytest.param(lambda: geo.einstein_campaign(None, 5),
                 id="einstein-campaign-of-none"),
    pytest.param(lambda: geo.check_minkowski(None), id="minkowski-of-none"),
    pytest.param(lambda: gd.integrate_geodesic(None, XG, YG, (-0.1, 0.1)),
                 id="geodesic-of-none"),
    pytest.param(lambda: pj.projective_campaign(None, zoo.klein(), 5),
                 id="projective-campaign-of-none"),
    pytest.param(lambda: sampling.state_pairs(None, 3),
                 id="state-pairs-of-none"),
    pytest.param(lambda: sampling.joint_state_pairs(zoo.klein(), "klein", 3),
                 id="joint-state-pairs-of-a-string"),
    # names given as arrays, whose `in` test raised ValueError
    pytest.param(lambda: zoo.make_metric(np.array(["klein", "x"])),
                 id="make-metric-array-name"),
    pytest.param(lambda: zoo.evolution_coefficients(np.zeros((0, 2)), _X, _Y),
                 id="evolution-empty-array-source"),
    # Python-float powers past the float range, which raised OverflowError
    pytest.param(lambda: zoo.superellipse_body(4, (1.0, 1e80)),
                 id="superellipse-overflowing-semi-axis"),
    pytest.param(lambda: zoo.superellipse_body(4, (1.0, 1e-100)),
                 id="superellipse-vanishing-semi-axis"),
    pytest.param(lambda: zoo.ellipsoid_body((1e-200, 1.0)),
                 id="ellipsoid-vanishing-semi-axis"),
    pytest.param(lambda: zoo.make_metric("hilbert-superellipse")(
        (1e150, 1e150), (1.0, 0.0)), id="superellipse-overflowing-point"),
    # non-finite chord inputs: a warning at inf, a silent NaN at NaN
    pytest.param(lambda: gd.hausdorff_to_chord([[0.0, 0.0], [np.inf, 1.0]],
                                               (0.0, 0.0), (1.0, 0.0)),
                 id="chord-inf-point"),
    pytest.param(lambda: gd.hausdorff_to_chord([[0.0, 0.0], [np.nan, 1.0]],
                                               (0.0, 0.0), (1.0, 0.0)),
                 id="chord-nan-point"),
    pytest.param(lambda: gd.hausdorff_to_chord([[0.0, 0.0], [1.0, 1.0]],
                                               (np.inf, 0.0), (1.0, 0.0)),
                 id="chord-inf-anchor"),
    # finite chord points whose squared offsets overflow: inf / inf warned
    pytest.param(lambda: gd.hausdorff_to_chord([[0.0, 0.0], [1e308, 1e308]],
                                               (0.0, 0.0), (1.0, 0.0)),
                 id="chord-overflowing-point"),
    pytest.param(lambda: gd.hausdorff_to_chord([[0.0, 0.0], [1e200, 1e200]],
                                               (0.0, 0.0), (1.0, 0.0)),
                 id="chord-overflowing-square"),
    # boxes whose width is not finite, which warned in the Halton scaling
    pytest.param(lambda: sampling.state_pairs(
        zoo.klein(), 3, box=((-1e308, -1e308), (1e308, 1e308))),
        id="state-pairs-overflowing-box-width"),
    pytest.param(lambda: sampling.state_pairs(
        zoo.klein(), 3, box=((-np.inf, -0.5), (0.5, 0.5))),
        id="state-pairs-inf-box-corner"),
    # integers past the float range, which raised OverflowError
    pytest.param(lambda: geo.spray_coefficients(zoo.klein(), [0.1, 0.2],
                                                10**400),
                 id="spray-overflowing-integer-direction"),
    pytest.param(lambda: cmp.make_case(1, 1, 10**400, 0.5),
                 id="case-overflowing-integer-a"),
    pytest.param(lambda: gd.integrate_geodesic(zoo.klein(), XG, YG,
                                               (-0.5, 0.5), rtol=10**400),
                 id="geodesic-overflowing-integer-rtol"),
    # a speed limit that is no real, which raised TypeError mid-run
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0,
                                       speed_limit=None),
                 id="integrate-none-speed-limit"),
    # flag directions that warned in the matmuls
    pytest.param(lambda: geo.flag_curvature(zoo.klein(), [0.1, 0.2],
                                            [0.3, 0.1], [np.inf, 0.0]),
                 id="flag-inf-direction"),
    pytest.param(lambda: geo.flag_curvature(zoo.klein(), [0.1, 0.2],
                                            [0.3, 0.1], [1e308, 1e308]),
                 id="flag-overflowing-direction"),
    # closed forms at the edge of the float range, which warned
    pytest.param(lambda: cmp.f_squared(cmp.make_case(1, 1, 1.0, 0.5), np.inf),
                 id="f-squared-inf-time"),
    pytest.param(lambda: cmp.f_value(cmp.make_case(1, 1, 1.0, 0.5), -np.inf),
                 id="f-value-minus-inf-time"),
    pytest.param(lambda: cmp.arc_param_roundtrip(
        cmp.make_case(-1, -1, 1.0, 0.5), 1e308),
        id="roundtrip-overflowing-f"),
    pytest.param(lambda: cmp.numeric_vs_closed(
        cmp.make_case(-1, 0, 1.0, 0.5), (-1e308, 1e308)),
        id="numeric-vs-closed-overflowing-f-squared"),
    # tolerances that ran: a NaN ended "blow_up" at t0 (a one-node
    # geodesic), negative or infinite ones stepped, and two zeros ended
    # "blow_up" after 12 rejected steps
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0, rtol=np.nan),
                 id="integrate-nan-rtol"),
    pytest.param(lambda: gd.integrate_geodesic(
        zoo.klein(), [0.1, 0.2], [0.3, 0.1], (-1, 1), rtol=np.nan),
        id="geodesic-nan-rtol"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0, rtol=-1),
                 id="integrate-negative-rtol"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0, atol=-1),
                 id="integrate-negative-atol"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0, atol=np.inf),
                 id="integrate-inf-atol"),
    pytest.param(lambda: ode.integrate(_rhs, 0.0, [1.0], 1.0, rtol=0,
                                       atol=0),
                 id="integrate-zero-tolerances"),
    # an f^2 past the float range at late times: t = 360 and 400 warned in
    # a multiply, t = 800 raised "math range error"
    pytest.param(lambda: cmp.ode_residual(cmp.make_case(-1, -1, 1.0, 0.5),
                                          [360.0]),
                 id="ode-residual-overflowing-f-squared-jet"),
    pytest.param(lambda: cmp.ode_residual(cmp.make_case(-1, -1, 1.0, 0.5),
                                          [400.0]),
                 id="ode-residual-overflowing-f-squared"),
    pytest.param(lambda: cmp.ode_residual(cmp.make_case(-1, -1, 1.0, 0.5),
                                          [800.0]),
                 id="ode-residual-exp-past-its-range"),
])
def test_malformed_public_inputs_fail_with_domain_error(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: jr.extract_derivative(
        jr.jet_of(zoo.klein().F, _X, _Y, 2), ["a", 0, 0, 0]),
        id="extract-string-entry"),
    pytest.param(lambda: jr.fd_oracle(zoo.klein().F, _X, _Y, ["a", 0, 0, 0]),
                 id="fd-oracle-string-entry"),
    # the parent's oracle read (2, -1, 0, 0) as d^2/dx1^2 at the order-1 step
    pytest.param(lambda: jr.fd_oracle(zoo.klein().F, _X, _Y, (2, -1, 0, 0)),
                 id="fd-oracle-negative-entry"),
    # int(inf) raised OverflowError
    pytest.param(lambda: jr.extract_derivative(
        jr.jet_of(zoo.klein().F, _X, _Y, 2), [np.inf]),
        id="extract-inf-entry"),
    pytest.param(lambda: jr.fd_oracle(zoo.klein().F, _X, _Y, (np.inf, 0, 0, 0)),
                 id="fd-oracle-inf-entry"),
    # objects that are no jet, which leaked AttributeError
    pytest.param(lambda: jr.derivative_tensors(1.0),
                 id="derivative-tensors-of-a-float"),
    pytest.param(lambda: jr.extract_derivative(2.0, (1, 0)),
                 id="extract-derivative-of-a-float"),
    # jet sizes past the gate: the orders built without end, and the
    # variable count raised OverflowError
    pytest.param(lambda: _within(2, lambda: jr.get_context(2, 10**400)),
                 id="context-huge-order"),
    pytest.param(lambda: _within(2, lambda: jr.variables([0.1], 10**400)),
                 id="variables-huge-order"),
    pytest.param(lambda: jr.get_context(10**400, 2),
                 id="context-huge-variable-count"),
    # Taylor terms past the float range, which raised OverflowError or
    # ZeroDivisionError or warned
    *[pytest.param(lambda f=f, c=c, b=b: f(_jet_at(c, b)), id=f"{name}-{tag}")
      for name, f, c in (
          ("exp", jr.exp, 800.0), ("sinh", jr.sinh, 800.0),
          ("cosh", jr.cosh, 800.0), ("reciprocal", lambda j: 1.0 / j, 1e-80),
          ("sqrt", jr.sqrt, 1e-300), ("log", jr.log, 1e-320),
          ("power", lambda j: jr.power(j, 2.5), 1e200))
      for tag, b in (("one-state", False), ("batch", True))],
])
def test_malformed_multi_indices_fail_with_jet_error(call):
    with pytest.raises(JetError):
        call()


def _jet_at(c, batch):
    """An order-4 jet in one variable at base c: one state, or the second
    state of a batch whose first sits at 0.5."""
    return jr.variables([[0.5], [c]] if batch else [c], 4)[0]


def test_flag_directions_are_drawn_once_and_shared_read_only():
    V = geo._flag_directions(3, 20)
    assert geo._flag_directions(3, 20) is V
    assert np.array_equal(V, geo.sampling.directions(68, 3))
    with pytest.raises(ValueError):
        V[0, 0] = 0.0


@pytest.mark.parametrize("count, n", [(3, 0), (3, -1), (-1, 2)])
def test_directions_refuses_an_empty_space_or_a_negative_count(count, n):
    with pytest.raises(DomainError):
        _within(5, lambda: geo.sampling.directions(count, n))
