"""Property tests: geometric invariants across the catalog, n = 2..4."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finslerlab import geometry as geo, jets as jr, projective as pj, zoo
from finslerlab.errors import SingularMetricError

FIXED_2D = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
            "hilbert-superellipse")

metric_keys = st.sampled_from(zoo.METRIC_NAMES).flatmap(
    lambda name: st.tuples(
        st.just(name), st.just(2) if name in FIXED_2D else st.integers(2, 4)))
unit_cube = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
raw_direction = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
scales = st.floats(0.05, 20.0)


@lru_cache(maxsize=None)
def _metric(name, n):
    return zoo.make_metric(name, dim=n)


def _state(metric, u, w):
    """An interior point drawn from the sample box and a unit direction."""
    n = metric.n
    lo, hi = (np.asarray(v, dtype=float) for v in metric.domain.sample_box())
    x = lo + np.asarray(u[:n]) * (hi - lo)
    center = 0.5 * (lo + hi)
    while not metric.domain.contains(x):  # the box centre is interior
        x = center + 0.5 * (x - center)
    y = np.asarray(w[:n], dtype=float)
    y[0] += 1.5 if y[0] >= 0.0 else -1.5  # keeps |y| >= 0.5
    return x, y / np.linalg.norm(y)


def _fd_metric_eigenvalues(metric, x, y):
    """Eigenvalues of g = Hess_y F^2 / 2 by the finite-difference oracle."""
    n = metric.n
    energy = lambda X, Y: 0.5 * metric.F(list(X), list(Y)) ** 2
    g = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            idx = [0] * (2 * n)
            idx[n + i] += 1
            idx[n + j] += 1
            g[i, j] = jr.fd_oracle(energy, x, y, idx)
    return np.linalg.eigvalsh(0.5 * (g + g.T))


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(
        1.0, float(np.max(np.abs(b))))


@settings(max_examples=40, deadline=None)
@given(metric_keys, unit_cube, raw_direction, scales)
def test_metric_is_positively_homogeneous(key, u, w, c):
    m = _metric(*key)
    x, y = _state(m, u, w)
    assert m(x, c * y) == pytest.approx(c * m(x, y), rel=1e-11)


@settings(max_examples=25, deadline=None)
@given(metric_keys, unit_cube, raw_direction, scales)
def test_spray_is_homogeneous_of_degree_two(key, u, w, c):
    m = _metric(*key)
    x, y = _state(m, u, w)
    G = geo.spray_coefficients(m, x, y)
    assert _rel(geo.spray_coefficients(m, x, c * y) / (c * c), G) < 1e-9


@settings(max_examples=20, deadline=None)
@given(metric_keys, unit_cube, raw_direction)
# paraboloid rim state x = (-0.55, -0.468, 0.523), y = e1: g's eigenvalues
# span 219 to 3.5e5, which magnifies every rounding of the assembly in g R
@example(("paraboloid", 3), [0.0, (-0.468 + 0.55) / 1.1, (0.523 - 0.45) / 1.55,
                             0.0], [0.0, 0.0, 0.0, 0.0])
# superellipse state x = (-0.7, 0), y = e1: the chord meets the body at
# (+-1, 0), where its curvature vanishes, so g is singular there
@example(("hilbert-superellipse", 2), [0.0, 0.5, 0.0, 0.0],
         [0.0, 0.0, 0.0, 0.0])
def test_riemann_annihilates_y_and_is_g_symmetric(key, u, w):
    m = _metric(*key)
    x, y = _state(m, u, w)
    try:
        _, g, R = geo.curvature_data(m, x, y)
    except SingularMetricError:
        # refused only where finite differences find g singular too
        eigs = _fd_metric_eigenvalues(m, x, y)
        assert eigs[0] < 1e-6 * eigs[-1]
        return
    scale = max(1.0, float(np.max(np.abs(R))))
    assert float(np.max(np.abs(R @ y))) < 1e-9 * scale
    gR = g @ R
    assert _rel(gR, gR.T) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), unit_cube, raw_direction)
def test_reversing_a_funk_metric_flips_its_projective_factor(n, u, w):
    euc, plus, minus = (_metric(name, n) for name in
                        ("euclidean", "funk-plus", "funk-minus"))
    x, y = _state(plus, u, w)
    P_minus = pj.projective_factor(euc, minus, x, y)["P"]
    P_plus = pj.projective_factor(euc, plus, x, -y)["P"]
    assert P_minus == -P_plus
