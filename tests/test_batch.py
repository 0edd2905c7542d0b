"""Batched jets: every row of a batch equals the one-state result, bit for bit."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import _kernels, geometry as geo, jets as jr, projective as pj, zoo
from finslerlab import acceptance, geodesic as gd
from finslerlab.errors import (DegenerateDirectionError, DegenerateFlagError,
                               DomainError, FinslerError, JetError,
                               NotProjectivelyRelatedError, SingularMetricError)
from finslerlab.metric import FinslerMetric, FullSpace, dot

FIXED_2D = ("funk-ellipse-plus", "funk-ellipse-minus", "hilbert-ellipse",
            "hilbert-superellipse")

metric_keys = st.sampled_from(zoo.METRIC_NAMES).flatmap(
    lambda name: st.tuples(
        st.just(name), st.just(2) if name in FIXED_2D else st.integers(2, 4)))
# 5|6, 13|14 and 25|26 straddle the kernel's chunk of states for order 4 in
# 8 variables, order 4 in 6 and order 3 in 8; 16|17 the n = 4 campaign batch
batch_sizes = (st.sampled_from((1, 5, 6, 13, 14, 16, 17, 25, 26, 40))
               | st.integers(1, 40))


@lru_cache(maxsize=None)
def _metric(name, n):
    return zoo.make_metric(name, dim=n)


def _states(metric, count, seed):
    """``count`` interior points and unit directions as (count, n) stacks."""
    rng = np.random.default_rng(seed)
    lo, hi = (np.asarray(v, dtype=float) for v in metric.domain.sample_box())
    xs = []
    while len(xs) < count:
        x = lo + rng.random(metric.n) * (hi - lo)
        if metric.domain.contains(x):
            xs.append(x)
    ys = rng.standard_normal((count, metric.n))
    return np.array(xs), ys / np.linalg.norm(ys, axis=1, keepdims=True)


@settings(max_examples=40, deadline=None)
@given(key=metric_keys, count=batch_sizes, order=st.sampled_from((2, 4)),
       seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_states(key, count, order, seed):
    m = _metric(*key)
    X, Y = _states(m, count, seed)
    batch = geo._assemble(m, X, Y, order)
    for i in range(count):
        one = geo._assemble(m, X[i], Y[i], order)
        assert batch.keys() == one.keys()
        for name, value in one.items():
            assert np.array_equal(batch[name][i], value), (name, i)


@settings(max_examples=30, deadline=None)
@given(key=metric_keys, count=st.sampled_from((None, 1, 5, 40)),
       seed=st.integers(0, 2**32 - 1))
def test_metric_block_inverse_equals_a_solve_against_the_identity(key, count,
                                                                    seed):
    # count None: one state
    m = _metric(*key)
    X, Y = _states(m, count or 1, seed)
    if count is None:
        X, Y = X[0], Y[0]
    f = jr.jet_of(m.F, X, Y, 2)
    g, ginv = geo._metric_block(m, jr.derivative_tensors(f * f))
    want = np.linalg.solve(g, np.eye(m.n))
    assert ginv.shape == want.shape
    assert ginv.tobytes() == want.tobytes()


@pytest.mark.parametrize("base, cand, n", [
    ("euclidean", "funk-plus", 2), ("spherical", "klein", 3),
    ("bryant", "paraboloid", 4), ("spherical", "hilbert-ellipse", 2)])
def test_xi_and_tau_rows_equal_single_states(base, cand, n):
    base, cand = _metric(base, n), _metric(cand, n)
    X, Y = _states(cand, 7, 11)  # each base is defined on all of R^n
    batch = pj.xi_and_tau(base, cand, X, Y)
    for i in range(len(X)):
        one = pj.xi_and_tau(base, cand, X[i], Y[i])
        assert batch.keys() == one.keys()
        for name, value in one.items():
            assert np.array_equal(batch[name][i], value), (name, i)


def test_einstein_campaign_batches_at_n4_match_single_states(monkeypatch):
    m, count, flags = zoo.klein(4), 17, 2
    step = geo.BATCH_BYTES // (8 * 8**4)
    assert step == 16  # so the 17 states take two batches
    sizes = []
    assemble = geo._assemble

    def counted(metric, x, y, order):
        sizes.append(len(x))
        return assemble(metric, x, y, order)

    monkeypatch.setattr(geo, "_assemble", counted)
    rep = geo.einstein_campaign(m, count, flags=flags)
    assert sizes == [16, 1]
    monkeypatch.undo()
    for row in rep["rows"]:
        x, y = np.array(row["x"]), np.array(row["y"])
        assert row["einstein_residual"] == geo.einstein_residual(m, x, y)
        sp = geo.flag_spread(m, x, y, flags=flags)
        assert (row["flag_min"], row["flag_max"]) == (sp["min"], sp["max"])


def test_batched_product_rows_equal_single_states_across_chunks():
    ctx = jr.get_context(8, 4)  # 5 states per kernel chunk
    assert _kernels.CHUNK_PRODUCTS // len(ctx.mul_i) == 5
    rng = np.random.default_rng(3)
    a = rng.standard_normal((13, ctx.n_terms))
    b = rng.standard_normal((13, ctx.n_terms))
    batch = _kernels.multiply(a, b, ctx.mul_i, ctx.mul_j, ctx.mul_k,
                              ctx.n_terms)
    for i in range(13):
        one = _kernels.multiply(a[i], b[i], ctx.mul_i, ctx.mul_j, ctx.mul_k,
                                ctx.n_terms)
        assert np.array_equal(batch[i], one)


def test_ring_ops_on_a_batch_match_single_states():
    vals = np.array([[0.3, 1.7], [2.0, 0.4], [0.9, 0.9]])
    scale = np.array([0.5, -2.0, 3.0])

    def expr(u, v, s):
        w = jr.sqrt(u * u + 1.0) / (2.0 - v) + s * jr.exp(u) - jr.log(v) ** 3
        return jr.sin(w) * jr.cosh(u) - jr.cos(v) / jr.sinh(v) + (1.0 - w) * s

    batch = expr(*jr.variables(vals, 4), scale).coeffs
    for i in range(3):
        one = expr(*jr.variables(vals[i], 4), scale[i]).coeffs
        assert np.array_equal(batch[i], one)


def test_point_outside_the_domain_fails_the_batch():
    X = np.array([[0.1, 0.2], [0.9, 0.6], [0.0, 0.3]])  # row 1 has |x| > 1
    Y = np.array([[1.0, 0.0]] * 3)
    with pytest.raises(DomainError, match=r"\[0.9, 0.6\] outside domain"):
        geo.spray_coefficients(zoo.klein(), X, Y)


def test_non_positive_base_under_sqrt_fails_the_batch():
    (z,) = jr.variables(np.array([[1.0], [-1.0], [2.0]]), 2)
    with pytest.raises(JetError, match="got -1.0 at state 1"):
        jr.sqrt(z)
    with pytest.raises(JetError, match="got 0.0 at state 0"):
        1.0 / (z - np.array([1.0, 0.0, 0.0]))


def test_singular_state_fails_the_batch():
    quartic = FinslerMetric(
        2, lambda x, y: (y[0] ** 4 + y[1] ** 4) ** 0.25, FullSpace(2),
        name="quartic")
    X = np.zeros((3, 2))
    Y = np.array([[0.6, 0.8], [1.0, 0.0], [0.8, 0.6]])  # row 1 on an axis
    with pytest.raises(SingularMetricError, match="at state 1"):
        geo._assemble(quartic, X, Y, 2)


# every (x, y) entry that checks one state at a time, called on
# (base, cand, x, y); each pair is projectively related and the candidate's
# domain lies inside the base's
STATE_ENTRIES = {
    "F": lambda base, cand, x, y: cand(x, y),
    "flag_curvature": lambda base, cand, x, y: geo.flag_curvature(
        cand, x, y, np.roll(y, 1, axis=-1)),  # a flag of its own per state
    "projective_factor": pj.projective_factor,
    "curvature_transform_check": pj.curvature_transform_check,
    "funk_condition_residual": lambda base, cand, x, y:
        pj.funk_condition_residual(cand, 0.5, x, y),
}


@pytest.mark.parametrize("entry", STATE_ENTRIES)
@pytest.mark.parametrize("base, cand, n", [
    ("euclidean", "funk-plus", 2), ("spherical", "klein", 3),
    ("bryant", "paraboloid", 4), ("spherical", "hilbert-ellipse", 2)])
@pytest.mark.parametrize("size", ["3", "2n"])
def test_state_entries_take_a_stack_and_give_single_state_rows(entry, base,
                                                                cand, n, size):
    # at B = 2n a (B, 2n) derivative block also reads as two (n, 2n) halves,
    # so one-state slicing of a batch would pass silently with wrong values
    base, cand = _metric(base, n), _metric(cand, n)
    X, Y = _states(cand, 3 if size == "3" else 2 * n, 23)
    call = STATE_ENTRIES[entry]
    batch = call(base, cand, X, Y)
    for i in range(len(X)):
        one = call(base, cand, X[i], Y[i])
        if isinstance(one, dict):
            assert batch.keys() == one.keys()
            for name, value in one.items():
                assert np.array_equal(batch[name][i], value), (name, i)
        else:
            assert np.array_equal(batch[i], one), i


def test_a_failed_check_on_a_batch_names_its_state():
    X = np.array([[0.0, 0.2], [0.5, 0.1], [0.0, -0.3]])
    Y = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
    # conformal to the Euclidean metric by exp(x1^4): the sprays agree where
    # x1 = 0 and differ off y elsewhere
    bump = FinslerMetric(
        2, lambda x, y: jr.exp(x[0] ** 4) * jr.sqrt(dot(y, y)), FullSpace(2),
        name="bump")
    pj.projective_factor(zoo.euclidean(), bump, X[0], Y[0])
    with pytest.raises(NotProjectivelyRelatedError, match="at state 1"):
        pj.projective_factor(zoo.euclidean(), bump, X, Y)
    V = np.array([[0.0, 1.0], [0.6, 0.8], [1.0, 0.0]])  # row 1 along y
    with pytest.raises(DegenerateFlagError, match="at state 1"):
        geo.flag_curvature(zoo.klein(), X, Y, V)


# every public (x, y) entry, called on a point and direction of klein (or
# on the F of funk-ellipse-plus, which refuses other dimensions) in the plane
SHAPE_ENTRIES = {
    "F-klein": lambda x, y: zoo.klein()(x, y),
    "F-funk-ellipse-plus": lambda x, y: _metric("funk-ellipse-plus", 2)(x, y),
    "fundamental_tensor": lambda x, y: geo.fundamental_tensor(
        zoo.klein(), x, y),
    "spray_coefficients": lambda x, y: geo.spray_coefficients(
        zoo.klein(), x, y),
    "riemann_curvature": lambda x, y: geo.riemann_curvature(
        zoo.klein(), x, y),
    "curvature_data": lambda x, y: geo.curvature_data(zoo.klein(), x, y),
    "flag_curvature": lambda x, y: geo.flag_curvature(
        zoo.klein(), x, y, (0.0, 1.0)),
    "flag_spread": lambda x, y: geo.flag_spread(zoo.klein(), x, y, 4),
    "einstein_residual": lambda x, y: geo.einstein_residual(
        zoo.klein(), x, y),
    "rapcsak_residual": lambda x, y: pj.rapcsak_residual(
        zoo.euclidean(), zoo.klein(), x, y),
    "projective_factor": lambda x, y: pj.projective_factor(
        zoo.euclidean(), zoo.klein(), x, y),
    "xi_and_tau": lambda x, y: pj.xi_and_tau(
        zoo.euclidean(), zoo.klein(), x, y),
    "curvature_transform_check": lambda x, y: pj.curvature_transform_check(
        zoo.euclidean(), zoo.klein(), x, y),
    "funk_condition_residual": lambda x, y: pj.funk_condition_residual(
        zoo.klein(), 0.5, x, y),
    "integrate_geodesic": lambda x, y: gd.integrate_geodesic(
        zoo.klein(), x, y, (-0.1, 0.1)),
    "fd_riemann": lambda x, y: acceptance.fd_riemann(zoo.klein(), x, y),
    "jet_of": lambda x, y: jr.jet_of(
        _metric("funk-ellipse-plus", 2).F, x, y, 2),
    "fd_oracle": lambda x, y: jr.fd_oracle(
        _metric("funk-ellipse-plus", 2).F, x, y, (1, 0, 0, 0)),
    "evolution_coefficients": lambda x, y: zoo.evolution_coefficients(
        "klein", x, y),
    "verify_evolution": lambda x, y: zoo.verify_evolution("klein", x, y),
}

# (x shape, y shape) pairs that are no state of the plane: the shape rule
# takes (n,) or (B, n) with B >= 1 for both, of one shape
MALFORMED_SHAPES = {
    "point-row": ((1, 2), (2,)),
    "direction-row": ((2,), (1, 2)),
    "columns": ((2, 1), (2, 1)),
    "empty-stacks": ((0, 2), (0, 2)),
    "deep-stacks": ((1, 1, 2), (1, 1, 2)),
    "long-point": ((3,), (2,)),
    "long-states": ((3,), (3,)),
}


@pytest.mark.parametrize("shapes", MALFORMED_SHAPES)
@pytest.mark.parametrize("entry", SHAPE_ENTRIES)
def test_every_state_entry_refuses_a_shape_that_is_no_state(entry, shapes):
    x_shape, y_shape = MALFORMED_SHAPES[shapes]
    x = np.resize([0.1, 0.2], x_shape)
    y = np.resize([1.0, 0.0], y_shape)
    with pytest.raises(FinslerError):
        SHAPE_ENTRIES[entry](x, y)


def test_state_checks_run_in_turn_each_over_the_whole_stack():
    # row 0 has a zero direction and row 2 a point outside the ball: the
    # domain check runs before the |y| check, over every row
    X = np.array([[0.1, 0.2], [0.3, 0.1], [2.0, 0.0]])
    Y = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DomainError, match="outside domain at state 2"):
        zoo.klein()(X, Y)
    with pytest.raises(DegenerateDirectionError, match="at state 0"):
        zoo.klein()(X[:2], Y[:2])

