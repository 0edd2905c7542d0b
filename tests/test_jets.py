"""Jet arithmetic: exactness, chain rule, FD cross-checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import jets as jr
from finslerlab.errors import DomainError, FDOracleError, JetError


# ---------------------------------------------------------------------------
# seeding and extraction basics


def test_seed_variables_bases_and_gradients():
    zs = jr.seed_variables([2.0], [3.0], order=1)
    assert len(zs) == 2
    assert zs[0].value == 2.0 and zs[1].value == 3.0
    assert jr.extract_derivative(zs[0], (1, 0)) == 1.0
    assert jr.extract_derivative(zs[0], (0, 1)) == 0.0
    assert jr.extract_derivative(zs[1], (0, 1)) == 1.0


def test_mixed_partial_of_product():
    x, y = jr.seed_variables([2.0], [3.0], order=2)
    assert jr.extract_derivative(x * y, (1, 1)) == 1.0


def test_second_derivative_of_square():
    zs = jr.seed_variables([0.0, 0.0], [1.0, 2.0], order=2)
    q = zs[2] * zs[2] + zs[3] * zs[3]
    assert jr.extract_derivative(q, (0, 0, 2, 0)) == 2.0
    assert jr.extract_derivative(q, (0, 0, 0, 2)) == 2.0


def test_sin_derivative_at_zero():
    (v,) = jr.variables([0.0], order=3)
    assert jr.extract_derivative(jr.sin(v), (1,)) == 1.0


def test_constant_jet_has_zero_derivatives():
    ctx = jr.get_context(2, 3)
    c = jr.constant(ctx, 5.0)
    assert c.value == 5.0
    for idx in [(1, 0), (0, 2), (1, 1), (2, 1)]:
        assert jr.extract_derivative(c, idx) == 0.0


def test_order_validation():
    with pytest.raises(JetError):
        jr.seed_variables([0.0], [1.0], order=5)
    with pytest.raises(JetError):
        jr.seed_variables([0.0], [1.0], order=0)
    # an x-degree cap is an integer >= 1, or None for none; a string, a
    # fraction, a list or 0 is refused, not cached as a context
    x, y = [0.1, 0.2], [0.6, 0.8]
    for cap in ("a", 2.5, [2], 0):
        with pytest.raises(DomainError, match="x-degree cap"):
            jr.get_context(4, 4, x_degree=cap)
        with pytest.raises(DomainError, match="x-degree cap"):
            jr.jet_of(lambda x, y: x[0] * y[0], x, y, 2, x_degree=cap)
    assert jr.get_context(4, 4, x_degree=None) is jr.get_context(4, 4)
    assert (jr.get_context(4, 4, x_degree=np.int64(2))
            is jr.get_context(4, 4, x_degree=2))
    assert jr.get_context(4, 4, x_degree=2).n_terms == 53


def _half(n):
    return np.full(n // 2, 0.1)


# each public jet entry as a call of (variable count, order)
_JET_ENTRIES = {
    "get_context": lambda n, order: jr.get_context(n, order),
    "variables": lambda n, order: jr.variables(np.full(n, 0.1), order),
    "seed_variables": lambda n, order: jr.seed_variables(_half(n), _half(n),
                                                         order),
    "jet_of": lambda n, order: jr.jet_of(lambda x, y: x[0], _half(n),
                                         _half(n), order),
}


@pytest.mark.parametrize("entry", list(_JET_ENTRIES))
def test_jet_entries_share_one_rule_for_orders_and_variable_counts(entry):
    call = _JET_ENTRIES[entry]
    call(2 * jr.MAX_DIM, 1)
    call(2, jr.MAX_ORDER)
    for n, order in ((2, 0), (2, jr.MAX_ORDER + 1), (2 * jr.MAX_DIM + 2, 1)):
        with pytest.raises(JetError):
            call(n, order)
    for order in ("a", 2.5):
        with pytest.raises(DomainError):
            call(2, order)


def test_extract_rejects_excessive_order():
    zs = jr.seed_variables([0.0], [1.0], order=2)
    with pytest.raises(JetError):
        jr.extract_derivative(zs[0], (2, 1))


def test_context_mismatch_rejected():
    a = jr.variables([1.0, 2.0], order=2)[0]
    b = jr.variables([1.0], order=2)[0]
    with pytest.raises(JetError):
        _ = a + b


def test_zero_base_division_rejected():
    (v,) = jr.variables([0.0], order=2)
    with pytest.raises(JetError):
        _ = 1.0 / v


def test_zero_scalar_division_rejected():
    # the same error as a zero-base jet divisor, not a bare ZeroDivisionError
    (v,) = jr.variables([2.0], order=2)
    with pytest.raises(JetError):
        _ = v / 0.0


def test_negative_base_sqrt_and_log_rejected():
    (v,) = jr.variables([-1.0], order=2)
    with pytest.raises(JetError):
        jr.sqrt(v)
    with pytest.raises(JetError):
        jr.log(v)


# ---------------------------------------------------------------------------
# exact polynomial algebra against a naive dict-based oracle


def _naive_mul(p, q, n_vars, order):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mk = tuple(a + b for a, b in zip(ma, mb))
            if sum(mk) <= order:
                out[mk] = out.get(mk, 0.0) + ca * cb
    return out


def _naive_derivative(poly, alpha, point):
    # d^alpha of sum c * z^m evaluated at point
    total = 0.0
    for mono, coef in poly.items():
        term = coef
        ok = True
        for mi, ai, zi in zip(mono, alpha, point):
            if mi < ai:
                ok = False
                break
            term *= math.perm(mi, ai) * zi ** (mi - ai)
        if ok:
            total += term
    return total


def _poly_on_jets(poly, zs, ctx):
    acc = jr.constant(ctx, 0.0)
    for mono, coef in poly.items():
        term = jr.constant(ctx, float(coef))
        for v, e in zip(zs, mono):
            for _ in range(e):
                term = term * v
        acc = acc + term
    return acc


@st.composite
def _polys(draw, n_vars=3, max_deg=2):
    monos = [
        m
        for m in itertools.product(range(max_deg + 1), repeat=n_vars)
        if sum(m) <= max_deg
    ]
    coefs = draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=len(monos),
            max_size=len(monos),
        )
    )
    return {m: float(c) for m, c in zip(monos, coefs) if c != 0}


@settings(max_examples=25, deadline=None)
@given(_polys(), _polys())
def test_product_rule_matches_naive_polynomial_algebra(p, q):
    n_vars, order = 3, 4
    point = np.array([0.5, -1.25, 2.0])
    zs = jr.variables(point, order)
    ctx = zs[0].ctx
    jet = _poly_on_jets(p, zs, ctx) * _poly_on_jets(q, zs, ctx)
    prod = _naive_mul(p, q, n_vars, order)
    for alpha in itertools.product(range(order + 1), repeat=n_vars):
        if sum(alpha) > order:
            continue
        want = _naive_derivative(prod, alpha, point)
        got = jr.extract_derivative(jet, alpha)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_chain_rule_closed_form():
    # f(x) = sqrt(1 + x^2): derivatives known in closed form at x = 0.7
    (v,) = jr.variables([0.7], order=4)
    f = jr.sqrt(1.0 + v * v)
    s = math.sqrt(1.49)
    assert jr.extract_derivative(f, (1,)) == pytest.approx(0.7 / s, rel=1e-14)
    assert jr.extract_derivative(f, (2,)) == pytest.approx(1.0 / s - 0.49 / s**3, rel=1e-13)


def test_analytic_function_identities_on_jets():
    (v,) = jr.variables([0.37], order=4)
    ident = jr.log(jr.exp(v))
    assert np.allclose(ident.coeffs, v.coeffs, atol=1e-13)
    pyth = jr.sin(v) * jr.sin(v) + jr.cos(v) * jr.cos(v)
    one = jr.constant(v.ctx, 1.0)
    assert np.allclose(pyth.coeffs, one.coeffs, atol=1e-14)
    hyp = jr.cosh(v) * jr.cosh(v) - jr.sinh(v) * jr.sinh(v)
    assert np.allclose(hyp.coeffs, one.coeffs, atol=1e-14)
    # a/b*b == a
    a = jr.exp(v)
    b = 1.0 + v * v
    assert np.allclose(((a / b) * b).coeffs, a.coeffs, atol=1e-13)
    # integer power vs repeated multiplication, real power vs sqrt
    assert np.allclose((b**3).coeffs, (b * b * b).coeffs, atol=1e-13)
    assert np.allclose(jr.power(b, 0.5).coeffs, jr.sqrt(b).coeffs, atol=1e-14)
    assert np.allclose((b**-2).coeffs, (1.0 / (b * b)).coeffs, atol=1e-13)


# ---------------------------------------------------------------------------
# jet vs finite differences on transcendental compositions


def _sample_expr(x, y):
    # smooth, positively curved-ish composite touching every ring function
    s = x[0] * y[0] + x[1] * y[1]
    r = y[0] * y[0] + y[1] * y[1]
    return jr.sqrt(r + 0.5 * s * s) * jr.exp(0.1 * x[0]) + jr.log(2.0 + jr.sin(x[1]))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_matches_fd_oracle_low_orders(order):
    x = np.array([0.3, -0.4])
    y = np.array([0.9, 0.55])
    jet = jr.jet_of(_sample_expr, x, y, order=order)
    for alpha in itertools.product(range(order + 1), repeat=4):
        if not 1 <= sum(alpha) <= order:
            continue
        fd = jr.fd_oracle(_sample_expr, x, y, alpha)
        got = jr.extract_derivative(jet, alpha)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_jet_matches_fd_oracle_order_four():
    x = np.array([0.3, -0.4])
    y = np.array([0.9, 0.55])
    jet = jr.jet_of(_sample_expr, x, y, order=4)
    for alpha in [(1, 1, 1, 1), (0, 0, 4, 0), (2, 0, 0, 2), (0, 1, 2, 1)]:
        fd = jr.fd_oracle(_sample_expr, x, y, alpha)
        got = jr.extract_derivative(jet, alpha)
        # 4th-order differences carry visibly more round-off
        assert got == pytest.approx(fd, rel=2e-4, abs=2e-4)


def test_fd_oracle_norm_gradient_at_unit_vector():
    f = lambda x, y: np.sqrt(y[0] ** 2 + y[1] ** 2)
    got = jr.fd_oracle(f, [0.0, 0.0], [1.0, 0.0], (0, 0, 1, 0))
    assert got == pytest.approx(1.0, abs=1e-10)


def test_fd_oracle_euclidean_second_derivative():
    f = lambda x, y: y[0] ** 2 + y[1] ** 2
    got = jr.fd_oracle(f, [0.0, 0.0], [0.3, 0.4], (0, 0, 2, 0))
    assert got == pytest.approx(2.0, abs=1e-9)


def test_fd_oracle_flags_nonsmooth_point():
    f = lambda x, y: abs(y[0])
    with pytest.raises(FDOracleError):
        jr.fd_oracle(f, [0.0], [0.0], (0, 2))


def test_fd_oracle_refuses_a_non_finite_stencil_value():
    # the stencil reaches y = 1e-5 - 1e-4, where sqrt(y) is NaN: no estimate
    with np.errstate(invalid="ignore"), pytest.raises(FDOracleError):
        jr.fd_oracle(lambda x, y: np.sqrt(y[0]), [0.0], [1e-5], (0, 1))


def _sample_vector(z):
    return np.array([_sample_expr(z[:2], z[2:]), z[0] * z[3] ** 3,
                     math.cos(z[1] - z[2])])


def _rows(fz):
    """A one-point ``fz`` as the stack callback ``fd_derivative`` takes."""
    return lambda Z: np.array([fz(z) for z in Z])


@pytest.mark.parametrize("idx", [(1, 0, 0, 0), (0, 0, 1, 1), (2, 0, 0, 0),
                                 (0, 1, 2, 0), (1, 1, 1, 1)])
def test_fd_derivative_of_a_vector_stacks_the_scalar_calls(idx):
    z = np.array([0.3, -0.4, 0.9, 0.55])
    got = jr.fd_derivative(_rows(_sample_vector), z, idx)
    want = [jr.fd_derivative(
        _rows(lambda zz, i=i: float(_sample_vector(zz)[i])), z, idx)
        for i in range(3)]
    assert got.shape == (3,)
    assert np.array_equal(got, want)


def test_fd_derivative_of_a_vector_flags_a_nonsmooth_entry():
    f = _rows(lambda z: np.array([z[0] ** 2, abs(z[1])]))
    with pytest.raises(FDOracleError):
        jr.fd_derivative(f, [0.3, 0.0], (0, 2))


def test_fd_derivative_refuses_a_non_finite_entry():
    f = _rows(lambda z: np.array([z[0] ** 2, np.nan]))
    with pytest.raises(FDOracleError, match="non-finite"):
        jr.fd_derivative(f, [0.3, 0.1], (1, 0))


@pytest.mark.parametrize("fz", [lambda Z: np.sum(Z), lambda Z: Z[0] ** 2],
                         ids=["one-value", "one-point-callback"])
def test_fd_derivative_refuses_a_callback_without_one_row_per_point(fz):
    with pytest.raises(JetError, match="stencil points"):
        jr.fd_derivative(fz, [0.3, 0.1], (1, 0))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fd_derivative_calls_fz_once_on_the_whole_stencil(k):
    shapes = []

    def fz(Z):
        shapes.append(Z.shape)
        return np.sin(Z[:, 0]) * np.cos(Z[:, 1])

    jr.fd_derivative(fz, [0.3, -0.4], (k - k // 2, k // 2))
    assert shapes == [(3 * 2**k, 2)]


def _reference_fd_derivative(fz, z, idx):
    """The one-point recursion fd_derivative ran before it took stacks: one
    ``fz`` call per stencil point, each nested central difference reduced
    as soon as both of its halves are known."""
    z = np.asarray(z, dtype=float)
    coords = tuple(i for i, e in enumerate(idx) for _ in range(e))
    h0 = jr.FD_STEPS[len(coords)] * np.maximum(1.0, np.abs(z))

    def nested(z, coords, h):
        if not coords:
            return fz(z)
        i, rest = coords[0], coords[1:]
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        return (nested(zp, rest, h) - nested(zm, rest, h)) / (2.0 * h[i])

    e0, e1, e2 = (nested(z, coords, h0 / 2.0**lev) for lev in range(3))
    r0, r1 = (4.0 * e1 - e0) / 3.0, (4.0 * e2 - e1) / 3.0
    return (16.0 * r1 - r0) / 15.0


@pytest.mark.parametrize("idx", [(1, 0, 0, 0), (0, 0, 0, 1), (0, 2, 0, 0),
                                 (1, 0, 1, 0), (2, 0, 1, 0), (0, 1, 1, 1),
                                 (0, 0, 3, 0), (2, 0, 1, 1), (1, 1, 1, 1),
                                 (0, 0, 4, 0), (0, 1, 2, 1)])
@pytest.mark.parametrize("z", [(0.3, -0.4, 0.9, 0.55), (1.7, 0.02, -2.5, 3.0),
                               (-0.0, 0.0, 1e-3, -0.8)])
def test_the_stacked_stencil_keeps_the_bits_of_the_recursion(idx, z):
    scalar = lambda p: _sample_expr(p[:2], p[2:])
    for fz in (scalar, _sample_vector):
        got = jr.fd_derivative(_rows(fz), z, idx)
        assert np.array_equal(got, _reference_fd_derivative(fz, z, idx))
        assert np.shape(got) == np.shape(fz(np.asarray(z)))


# ---------------------------------------------------------------------------
# homogeneity transported to the jet level


def test_euler_scaling_of_homogeneous_expression():
    # F positively 1-homogeneous in y: y-derivatives of degree k scale as lam^(1-k)
    def F(x, y):
        r = y[0] * y[0] + y[1] * y[1]
        return jr.sqrt(r + 0.3 * (x[0] * y[0] + x[1] * y[1]) ** 2)

    x = np.array([0.2, -0.1])
    y = np.array([0.7, 0.4])
    base = jr.jet_of(F, x, y, order=3)
    for lam in (0.5, 2.0):
        scaled = jr.jet_of(F, x, lam * y, order=3)
        for alpha in itertools.product(range(4), repeat=4):
            k = alpha[2] + alpha[3]
            if sum(alpha) > 3 or sum(alpha[:2]) > 0 or k == 0:
                continue
            want = lam ** (1 - k) * jr.extract_derivative(base, alpha)
            got = jr.extract_derivative(scaled, alpha)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# derivative tensors


def test_derivative_tensors_and_inverse_roundtrip():
    zs = jr.seed_variables([0.1, 0.2], [0.5, -0.3], order=4)
    expr = jr.sqrt(1.0 + zs[0] * zs[2] + zs[1] * zs[3] + zs[2] * zs[2] + zs[3] * zs[3])
    tensors = jr.derivative_tensors(expr)
    # symmetry of every tensor under index permutations
    d2, d3 = tensors[2], tensors[3]
    assert np.allclose(d2, d2.T)
    assert np.allclose(d3, np.transpose(d3, (1, 0, 2)))
    assert np.allclose(d3, np.transpose(d3, (0, 2, 1)))
    # every slot reads back the partial of its multi-index, bit for bit
    for k in range(1, 5):
        for slot in itertools.product(range(4), repeat=k):
            idx = np.bincount(slot, minlength=4)
            assert tensors[k][slot] == jr.extract_derivative(expr, idx)


def test_where_picks_per_state():
    one = jr.variables([0.5, 2.0], 2)
    assert jr.where(True, one[0], one[1]) is one[0]
    assert jr.where(np.False_, one[0], 3.0) == 3.0
    # a batch of three states: rows of a, of b, and a float as a constant
    z = jr.variables(np.array([[0.5, 2.0], [1.5, -1.0], [0.25, 4.0]]), 2)
    a, b = z[0] * z[1], jr.sqrt(z[0])
    cond = np.array([True, False, True])
    got = jr.where(cond, a, b)
    assert got.hi == max(a.hi, b.hi)
    for i, pick in enumerate((a, b, a)):
        assert np.array_equal(got.coeffs[i], pick.coeffs[i])
    const = jr.where(cond, 7.0, b)
    assert np.array_equal(const.coeffs[1], b.coeffs[1])
    assert const.coeffs[0].tolist() == [7.0] + [0.0] * (z[0].ctx.n_terms - 1)
    assert jr.where(cond, np.ones(3), np.zeros(3)).tolist() == [1.0, 0.0, 1.0]
    with pytest.raises(JetError, match="contexts"):
        jr.where(cond, a, jr.variables(np.ones((3, 2)), 3)[0])


def test_a_batch_tests_its_taylor_terms_once(monkeypatch):
    calls = []
    terms = jr._terms

    def counted(f, c):
        calls.append(c)
        return terms(f, c)

    monkeypatch.setattr(jr, "_terms", counted)
    ok = jr.variables([[0.5], [1.5], [2.5]], 4)[0]
    rows = [jr.exp(jr.variables([c], 4)[0]).coeffs for c in (0.5, 1.5, 2.5)]
    assert np.array_equal(jr.exp(ok).coeffs, np.array(rows))
    assert calls == [0.5, 1.5, 2.5]  # the one-state jets' own checks
    # a batch that fails the test reruns state by state and names the
    # first finite base whose terms leave the float range
    calls.clear()
    with pytest.raises(JetError, match="at base value 800.0 leave"):
        jr.exp(jr.variables([[0.5], [800.0], [900.0]], 4)[0])
    assert calls == [0.5, 800.0]
    # a non-finite base passes through: its terms are not finite
    calls.clear()
    with np.errstate(invalid="ignore"):
        out = jr.exp(ok * np.array([1.0, math.inf, 1.0])).coeffs
    assert calls == [0.5, math.inf, 2.5]
    assert np.array_equal(out[[0, 2]], np.array(rows)[[0, 2]])
    assert not np.isfinite(out[1]).all()
