"""Closed-form metric catalog: frozen values, domains, evolution laws."""

import math

import numpy as np
import pytest

from finslerlab import geometry as geo, jets as jr, sampling, zoo
from finslerlab.errors import DomainError, FinslerError, NumericError
from finslerlab.metric import dot

X = np.array([0.5, 0.0])
Y = np.array([1.0, 0.0])


def test_frozen_values_on_the_axis():
    # chord through (0.5, 0) along +e1: forward gap 0.5, backward gap 1.5
    assert zoo.funk_ball(1)(X, Y) == pytest.approx(2.0, abs=1e-15)
    assert zoo.funk_ball(-1)(X, Y) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert zoo.klein()(X, Y) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert zoo.spherical()(X, Y) == pytest.approx(0.8, abs=1e-15)
    assert zoo.paraboloid_metric(2)(
        np.array([0.2, 1.0]), np.array([0.3, -0.4])
    ) == pytest.approx(math.sqrt(0.52**2 + 4 * 0.96 * 0.09) / (2 * 0.96),
                       abs=1e-15)


def test_a_float_f_that_is_not_finite_and_positive_is_a_numeric_error():
    # 1 + |x|^2 - <x, y>^2 / |y|^2 cancels to a negative at this far point,
    # so F's square root reads NaN: refused without a RuntimeWarning
    far, y = (6000000000.3, 7999999999.8), (0.6, 0.8)
    with pytest.raises(NumericError, match=r"F = nan at x = \[6000000000.3, "
                       r"7999999999.8\], y = \[0.6, 0.8\], not finite"):
        zoo.spherical()(far, y)
    with pytest.raises(NumericError, match="at state 1, not finite"):
        zoo.spherical()(np.array([X, far, far]), np.array([Y, y, y]))
    assert zoo.spherical()(np.array([X, X]), np.array([Y, Y])).tolist() == [
        zoo.spherical()(X, Y)] * 2


def test_hilbert_ball_is_the_klein_metric():
    # hilbert_ball is built as klein: check it is the symmetrization of the
    # two Funk metrics of the round ball
    hb, fp, fm = zoo.hilbert_ball(), zoo.funk_ball(1), zoo.funk_ball(-1)
    for x, y in [(X, Y), (np.array([0.1, -0.6]), np.array([-0.3, 0.8])),
                 (np.array([-0.4, 0.2]), np.array([0.9, 0.1]))]:
        assert hb(x, y) == pytest.approx(0.5 * (fp(x, y) + fm(x, y)),
                                         rel=1e-14)


def test_funk_reversal_swaps_sign():
    fp, fm = zoo.funk_ball(1), zoo.funk_ball(-1)
    x = np.array([0.3, -0.45])
    y = np.array([0.7, 0.55])
    assert fp(x, -y) == pytest.approx(fm(x, y), rel=1e-14)


def test_scaled_metric_value_and_constant():
    half = zoo.scaled(zoo.funk_ball(1), 0.5)
    assert half(X, Y) == pytest.approx(1.0, abs=1e-15)
    assert half.einstein_constant == pytest.approx(-1.0)
    assert zoo.funk_ball(1).einstein_constant == pytest.approx(-0.25)


def test_bryant_limit_is_the_sphere_chart():
    b1, sph = zoo.bryant(1.0), zoo.spherical()
    x = np.array([0.3, -0.2])
    y = np.array([0.4, 0.9])
    assert b1(x, y) == pytest.approx(sph(x, y), rel=1e-14)
    # interior eps stays positive and finite on a spread of states
    b = zoo.bryant(0.5)
    for x, y in [(X, Y), (np.array([-1.2, 0.7]), np.array([0.2, -1.0]))]:
        assert 0.0 < b(x, y) < np.inf


def test_bryant_eps_validation():
    with pytest.raises(DomainError):
        zoo.bryant(0.0)
    with pytest.raises(DomainError):
        zoo.bryant(1.5)


def test_domain_rejection():
    fp = zoo.funk_ball(1)
    with pytest.raises(DomainError):
        fp(np.array([1.2, 0.0]), Y)
    pb = zoo.paraboloid_metric(2)
    with pytest.raises(DomainError):
        pb(np.array([1.0, 0.5]), Y)  # below the paraboloid graph


def _funk_ball_mp(mp, sign, x, y):
    """The Funk ball's F at the exact binary values of x and y, at 50
    digits, in the plain form."""
    with mp.workdps(50):
        xm, ym = [mp.mpf(v) for v in x], [mp.mpf(v) for v in y]
        xx, yy = mp.fsum(v * v for v in xm), mp.fsum(v * v for v in ym)
        xy = mp.fsum(a * b for a, b in zip(xm, ym))
        return (mp.sqrt(yy - (xx * yy - xy * xy)) + sign * xy) / (1 - xx)


@pytest.mark.parametrize("sign", [1, -1])
def test_funk_ball_keeps_its_digits_on_legs_that_reach_the_rim(sign):
    mp = pytest.importorskip("mpmath")
    f = zoo.funk_ball(sign)
    e, side = np.array([0.6, 0.8]), np.array([-0.8, 0.6])
    # the states of a leg that runs out to the rim, sign x.y < 0: there the
    # plain form's numerator cancels to about 1 - |x|^2
    steep = [((1.0 - gap) * e, -sign * (e + tilt * side))
             for gap in (1e-6, 1e-8, 1e-10) for tilt in (0.0, 0.05)]
    inner = [(0.5 * e, sign * (e + 0.3 * side)),
             (np.array([0.2, -0.3]), np.array([0.6, 0.8]))]
    want = [_funk_ball_mp(mp, sign, x, y) for x, y in steep + inner]

    def rel(got, exact):
        return float(abs((got - exact) / exact))

    x, y = steep[5]  # 1e-10 from the rim: the plain form loses 7 digits
    xx, yy, xy = dot(x, x), dot(y, y), dot(x, y)
    plain = (math.sqrt(yy - (xx * yy - xy * xy)) + sign * xy) / (1.0 - xx)
    assert rel(plain, want[5]) > 1e-8
    floats = [f.F(x.tolist(), y.tolist()) for x, y in steep + inner]
    ones = [jr.jet_of(f.F, x, y, 2).value for x, y in steep + inner]
    X, Y = (np.array(v) for v in zip(*steep + inner))
    batch = jr.jet_of(f.F, X, Y, 2).value
    for k, exact in enumerate(want):
        for got in (floats[k], ones[k], batch[k]):
            assert rel(got, exact) <= 1e-13, (k, got)
    assert batch.tolist() == [float(v) for v in ones]


def test_funk_general_matches_closed_form_on_the_ball():
    body = zoo.ball_body(2)
    fp = zoo.funk_ball(1)
    for x, y in [(X, Y), (np.array([0.2, 0.55]), np.array([-0.4, 0.8])),
                 (np.array([-0.7, 0.1]), np.array([0.3, 0.2]))]:
        got = zoo.funk_general(body, x, y, sign=1)
        assert got == pytest.approx(fp(x, y), rel=1e-13)


def test_funk_general_ellipse_frozen_algebraic_value():
    # chord of (x1/2)^2 + x2^2 = 1 from (0.6, -0.3) along (0.8, 0.6):
    # s = 3/26 + 5 sqrt(43)/26, so F = 1/s = (5 sqrt(43) - 3)/41
    ell = zoo.ellipsoid_body((2.0, 1.0))
    got = zoo.funk_general(ell, np.array([0.6, -0.3]), np.array([0.8, 0.6]),
                           sign=1)
    assert got == pytest.approx((5.0 * math.sqrt(43.0) - 3.0) / 41.0,
                                rel=1e-14)


def test_the_ellipse_chord_root_starts_at_its_root():
    # psi is the quadratic through psi(0), psi'(0) and psi(hi), so Newton
    # starts at the root: psi runs at 0, at hi and at the start only
    ell = zoo.ellipsoid_body((2.0, 1.0))
    calls = []

    def phi(z):
        calls.append(z)
        return ell.phi(z)

    body = zoo.ConvexBody(ell.name, 2, phi, ell.grad, ell.bbox_lo,
                          ell.bbox_hi)
    s = zoo._chord_scalar_root(body, np.array([0.6, -0.3]),
                               np.array([0.8, 0.6]), zoo.CHORD_TOL)
    assert len(calls) == 3
    assert s == pytest.approx(41.0 / (5.0 * math.sqrt(43.0) - 3.0),
                              rel=1e-15)


def test_funk_general_scales_like_a_finsler_metric():
    ell = zoo.ellipsoid_body((2.0, 1.0))
    x = np.array([0.3, 0.4])
    y = np.array([-0.5, 0.2])
    v1 = zoo.funk_general(ell, x, y, sign=1)
    v3 = zoo.funk_general(ell, x, 3.0 * y, sign=1)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-13)


@pytest.mark.parametrize("body", [zoo.ellipsoid_body((2.0, 1.0)),
                                  zoo.superellipse_body(4)],
                         ids=lambda b: b.name)
@pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
def test_funk_general_at_a_tiny_direction_is_homogeneous_or_refused(body,
                                                                    scale):
    # below about 1e-154, y.dot(y) underflows to 0
    x, y = np.array([0.31, -0.22]), np.array([0.62, 0.81])
    want = scale * zoo.funk_general(body, x, y)
    try:
        got = zoo.funk_general(body, x, scale * y)
    except FinslerError:
        return
    assert abs(got - want) <= 1e-14 * want


def test_superellipse_catalog_entry():
    m = zoo.make_metric("hilbert-superellipse")
    assert m.name == "hilbert-superellipse-p4"
    assert m.einstein_constant == pytest.approx(-1.0)
    # regression pin for the quartic-body chord solver
    val = m(np.array([0.1, 0.2]), np.array([1.0, 0.5]))
    assert val == pytest.approx(1.0386283410687058, rel=1e-12)


def test_make_metric_rejects_unknown_names():
    with pytest.raises(DomainError):
        zoo.make_metric("not-a-metric")


def test_make_metric_rejects_other_dimensions_for_2d_bodies():
    for name in ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
                 "hilbert-superellipse"):
        assert zoo.make_metric(name, dim=2).n == 2
        with pytest.raises(DomainError):
            zoo.make_metric(name, dim=3)


def test_evolution_coefficients_frozen():
    rows = {
        "klein": (0.8660254037844386, -0.5773502691896258, -1.0),
        "spherical": (1.118033988749895, 0.4472135954999579, 1.0),
        "funk-plus": (1.0, -1.0, -1.0),
        "funk-minus": (1.7320508075688772, 0.5773502691896258, -1.0),
        "hilbert": (0.8660254037844387, -0.5773502691896257, -1.0),
    }
    for src, (a, b, lam) in rows.items():
        got = zoo.evolution_coefficients(src, X, Y)
        assert got[0] == pytest.approx(a, rel=1e-13)
        assert got[1] == pytest.approx(b, rel=1e-13)
        assert got[2] == lam


def test_evolution_law_matches_sampled_metric():
    for src in zoo.EVOLUTION_SOURCES:
        if src == "paraboloid":
            x, y = np.array([0.2, 1.0]), np.array([0.0, 1.0])
        else:
            x, y = np.array([0.15, -0.3]), np.array([0.8, 0.6])
        rep = zoo.verify_evolution(src, x, y)
        assert rep["max_rel_dev"] < 1e-10, (src, rep["max_rel_dev"])


def test_evolution_law_general_body():
    ell = zoo.ellipsoid_body((2.0, 1.0))
    rep = zoo.verify_evolution("hilbert", np.array([0.6, -0.3]),
                               np.array([0.8, 0.6]), body=ell)
    assert rep["max_rel_dev"] < 1e-8


@pytest.mark.parametrize("source", ["klein", "spherical", "paraboloid"])
def test_a_source_of_no_body_refuses_one(source):
    # the body was ignored: klein on the ellipse read the unit ball's law
    ell = zoo.ellipsoid_body((2.0, 1.0))
    for entry in (zoo.evolution_coefficients, zoo.verify_evolution):
        with pytest.raises(DomainError, match="takes no body"):
            entry(source, (0.1, 0.2), (1.0, 0.0), body=ell)
    with pytest.raises(DomainError, match="takes no body"):
        zoo.EVOLUTION_SOURCES[source](2, ell)


def test_evolution_requires_unit_direction():
    with pytest.raises(DomainError):
        zoo.evolution_coefficients("klein", X, np.array([2.0, 0.0]))


def _closed_form(source, x, y, body):
    """(a, b, lam) of the ray law as each family's own formula writes it."""
    xx, xy = float(x @ x), float(x @ y)
    if source in ("klein", "spherical"):
        k = -1.0 if source == "klein" else 1.0
        d = 1.0 + k * (xx - xy * xy)
        a = math.sqrt(1.0 + k * xx) / d**0.25
        return a, k * xy / (math.sqrt(1.0 + k * xx) * d**0.25), k
    if source == "paraboloid":
        # F = sqrt(u^2 + 4 h |yb|^2) / (2 h) with h and u = h' along the
        # ray, where the root is constant: u' = -2 |yb|^2
        xb, yb = x[:-1], y[:-1]
        h, u = x[-1] - float(xb @ xb), y[-1] - 2.0 * float(xb @ yb)
        a = math.sqrt(2.0 * h / math.sqrt(u * u + 4.0 * h * float(yb @ yb)))
        return a, a * u / (2.0 * h), -1.0
    fp, fm = zoo._funk_values(x, y, body)
    if source == "hilbert":
        return (math.sqrt(2.0) / math.sqrt(fp + fm),
                (fm - fp) / (math.sqrt(2.0) * math.sqrt(fp + fm)), -1.0)
    sign = 1 if source == "funk-plus" else -1
    a = math.sqrt(2.0 / (fp if sign == 1 else fm))
    return a, -sign / a, -1.0


@pytest.mark.parametrize("source, n, body", [
    *[(src, n, None) for src in zoo.EVOLUTION_SOURCES for n in (2, 3)],
    *[(src, 2, zoo.ellipsoid_body((2.0, 1.0)))
      for src in ("funk-plus", "funk-minus", "hilbert")],
])
def test_ray_law_from_the_jet_matches_each_familys_closed_form(source, n,
                                                               body):
    metric = zoo.EVOLUTION_SOURCES[source](n, body)
    for x, y in sampling.state_pairs(metric, 6):
        a, b, lam = zoo.evolution_coefficients(source, x, y, body=body)
        want = _closed_form(source, x, y, body)
        scale = max(abs(want[0]), abs(want[1]))
        assert abs(a - want[0]) <= 1e-13 * scale, (x, y)
        assert abs(b - want[1]) <= 1e-13 * scale, (x, y)
        assert lam == want[2]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("source", sorted(zoo.EVOLUTION_SOURCES))
def test_every_source_holds_its_law_in_any_direction(source, n):
    metric = zoo.EVOLUTION_SOURCES[source](n, None)
    for x, y in sampling.state_pairs(metric, 6):
        assert abs(y[-1]) < 0.999  # the paraboloid's too, off the vertical
        assert zoo.verify_evolution(source, x, y)["max_rel_dev"] < 1e-10


def test_the_sample_window_keeps_to_the_chord_and_the_law():
    # funk-plus at (0.5, 0) along +e1: the law lives on t < 1/fp = 0.5 and
    # for all t < 0, where the chord ends at -1/fm = -1.5
    rows = zoo.verify_evolution("funk-plus", X, Y)["rows"]
    assert rows[0][0] == pytest.approx(0.9 * -1.5, rel=1e-15)
    assert rows[-1][0] == pytest.approx(0.9 * 0.5, rel=1e-15)
    # the paraboloid's law lives on t > -a^2 / 2 = -h, and |t| <= 3 caps it
    rows = zoo.verify_evolution("paraboloid", (0.2, 1.0), (0.0, 1.0))["rows"]
    assert rows[0][0] == pytest.approx(0.9 * -0.96, rel=1e-14)
    assert rows[-1][0] == 0.9 * 3.0


# ---------------------------------------------------------------------------
# the jet Newton polish of convex-body metrics


def _funk_jet(body, xs, ys, sign, steps):
    """funk_general on one state's jets with a fixed number of Newton steps."""
    sy = [sign * v for v in ys]
    s = zoo._chord_scalar_root(body, np.array([v.value for v in xs]),
                               np.array([v.value for v in sy]), 1e-12)
    for _ in range(steps):
        z = [xi + s * vi for xi, vi in zip(xs, sy)]
        s = s - body.phi(z) / dot(body.grad(z), sy)
    return 1.0 / s


_ELLIPSE = zoo.ellipsoid_body((2.0, 1.0))
_SUPERELLIPSE = zoo.superellipse_body(4, (1.0, 1.0))
POLISHED = {  # catalog name: (body, Funk signs; two signs make Hilbert)
    "funk-ellipse-plus": (_ELLIPSE, (1,)),
    "funk-ellipse-minus": (_ELLIPSE, (-1,)),
    "hilbert-ellipse": (_ELLIPSE, (1, -1)),
    "hilbert-superellipse": (_SUPERELLIPSE, (1, -1)),
}


def _chord_metric(name):
    """The chord path's metric of the body of ``name``: funk_body_metric for
    one sign, hilbert_general for two (the catalog's ellipse names are
    pullbacks of the ball's closed forms and take no chord root)."""
    body, signs = POLISHED[name]
    return (zoo.funk_body_metric(body, signs[0]) if len(signs) == 1
            else zoo.hilbert_general(body))


def _reference_jet(name, x, y, order, steps):
    body, signs = POLISHED[name]

    def F(xs, ys):
        vals = [_funk_jet(body, xs, ys, sign, steps) for sign in signs]
        return vals[0] if len(vals) == 1 else 0.5 * (vals[0] + vals[1])

    return jr.jet_of(F, x, y, order)


def _polish_states(body, count=6, seed=5):
    """Interior states of the sample box, and states within 2e-3 of the rim
    (boundary points pulled in by 5e-4 of their length)."""
    rng = np.random.default_rng(seed)
    lo, hi = body.interior().sample_box()
    xs = [lo + rng.random(2) * (hi - lo) for _ in range(count)]
    for theta in rng.uniform(0.0, 2.0 * math.pi, count):
        c, s = math.cos(theta), math.sin(theta)
        if body is _ELLIPSE:
            p = np.array([2.0 * c, s])
        else:  # x^4 + y^4 = c^2 + s^2 = 1
            p = np.array([math.copysign(abs(c) ** 0.5, c),
                          math.copysign(abs(s) ** 0.5, s)])
        xs.append((1.0 - 5e-4) * p)
    ys = rng.standard_normal((2 * count, 2))
    return [(x, y) for x, y in zip(xs, ys) if body.phi(list(x)) < 0.0]


@pytest.mark.parametrize("name", sorted(POLISHED))
@pytest.mark.parametrize("order", [1, 2])
def test_two_newton_steps_reach_full_precision_at_orders_one_and_two(name,
                                                                     order):
    m = _chord_metric(name)
    states = _polish_states(POLISHED[name][0])
    assert len(states) == 12
    for x, y in states:
        got = jr.jet_of(m.F, x, y, order).coeffs
        want = _reference_jet(name, x, y, order, 6).coeffs
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("name", sorted(POLISHED))
@pytest.mark.parametrize("order", [3, 4])
def test_orders_three_and_four_keep_three_newton_steps(name, order):
    m = _chord_metric(name)
    for x, y in _polish_states(POLISHED[name][0], count=3):
        got = jr.jet_of(m.F, x, y, order).coeffs
        want = _reference_jet(name, x, y, order, 3).coeffs
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the catalog's ellipse metrics: the ball's closed forms pulled back

PULLBACKS = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse")
# relative gap max |pullback - chord| / max |chord| per state and entry;
# the worsts over 200 state_pairs and the 12 _polish_states are F 1.1e-13,
# g 2.2e-13, G 2.1e-12 and R 9.0e-11, each on a _polish_states state (5e-4
# from the rim F's condition number is some 2e3); the bounds are 10x them
PULLBACK_TOL = {"F": 1.1e-12, "g": 2.2e-12, "G": 2.1e-11, "R": 9e-10}


@pytest.mark.parametrize("name", PULLBACKS)
def test_the_ellipse_pullbacks_match_the_chord_path_at_order_four(name):
    m, chord = zoo.make_metric(name), _chord_metric(name)
    assert (m.name, m.einstein_constant) == (chord.name,
                                              chord.einstein_constant)
    assert isinstance(m.domain, zoo.ConvexInterior)
    assert m.domain.bbox_hi.tolist() == [2.0, 1.0]
    states = [(np.array(x), np.array(y))
              for x, y in sampling.state_pairs(m, 20)]
    states += _polish_states(_ELLIPSE)
    for x, y in states:
        got, want = geo._assemble(m, x, y, 4), geo._assemble(chord, x, y, 4)
        for key, tol in PULLBACK_TOL.items():
            gap = np.max(np.abs(got[key] - want[key]))
            assert gap <= tol * np.max(np.abs(want[key])), (key, x, y)


@pytest.mark.parametrize("name", PULLBACKS)
def test_a_catalog_ellipse_spray_takes_no_chord_root(name, monkeypatch):
    calls = []
    root = zoo._chord_scalar_root

    def counted(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(zoo, "_chord_scalar_root", counted)
    x, y = np.array([0.3, -0.2]), np.array([0.6, 0.8])
    geo.spray_coefficients(zoo.make_metric(name), x, y)
    assert not calls
    geo.spray_coefficients(_chord_metric(name), x, y)
    assert calls


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("name", PULLBACKS)
def test_a_catalog_ellipse_refuses_a_state_of_another_length(name, n):
    m = zoo.make_metric(name)
    x, y = [0.1, 0.2, 0.05][:n], [0.6, 0.8, 0.0][:n]
    for call in (lambda: m.F(x, y), lambda: m(x, y),
                 lambda: jr.jet_of(m.F, x, y, 2),
                 lambda: geo.spray_coefficients(m, x, y)):
        with pytest.raises(DomainError):
            call()


def test_the_pullback_takes_a_ball_metric_of_its_dimension():
    with pytest.raises(DomainError, match="no metric of the unit ball"):
        zoo.ellipsoid_pullback(zoo.spherical(2), (2.0, 1.0), "spherical")
    with pytest.raises(DomainError, match="2 semi-axes"):
        zoo.ellipsoid_pullback(zoo.klein(3), (2.0, 1.0), "hilbert")
    with pytest.raises(DomainError):
        zoo.ellipsoid_pullback("klein", (2.0, 1.0), "hilbert")
    # a 3-axis pullback is the chord path's metric of that ellipsoid
    m = zoo.ellipsoid_pullback(zoo.funk_ball(1, 3), (2.0, 1.0, 0.5),
                               "funk-plus")
    body = zoo.ellipsoid_body((2.0, 1.0, 0.5))
    x, y = np.array([0.4, -0.3, 0.1]), np.array([0.2, 0.5, -0.8])
    assert m.name == zoo.funk_body_metric(body).name
    assert m(x, y) == pytest.approx(zoo.funk_general(body, x, y), rel=1e-13)
