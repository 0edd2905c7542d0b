"""Degree spans: products and Horner steps over sub-tables, bit for bit.

Every jet carries ``hi``, a bound on the degree of its nonzero
coefficients, and ``vs``, the halves of the variables (x, y) they can
involve, and a product runs only the table entries whose factors can be
nonzero. The reference here is a context whose every product and Horner
step runs the full table: the results must agree in every bit.

The last section holds jets modulo x-degree above 2 to the same standard:
every coefficient they keep equals the full context's in every bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finslerlab import _kernels, geometry as geo, jets as jr
from finslerlab import projective as pj, sampling, zoo
from finslerlab.errors import JetError


class FullTableContext(jr.JetContext):
    """A context whose products and Horner steps all run the full table."""

    def product_table(self, ha, hb, va=3, vb=3):
        table = (self.mul_i, self.mul_j, self.mul_k, min(self.order, ha + hb))
        self.products[ha][va][hb][vb] = table
        return table

    def horner_tables(self, vs=3):
        self.horner[vs] = [(self.mul_i, self.mul_j, self.mul_k)] * (self.order - 1)
        return self.horner[vs]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def above(ctx, hi):
    """The coefficient slots of degree above ``hi``."""
    return slice(ctx.degree_start[min(hi, ctx.order) + 1], None)


orders = st.integers(1, 4)
n_vars = st.integers(1, 8)
batches = st.one_of(st.none(), st.integers(1, 40))  # None: one state


def _coeffs(ctx, hi, batch, rng):
    shape = (ctx.n_terms,) if batch is None else (batch, ctx.n_terms)
    c = rng.standard_normal(shape)
    c[..., above(ctx, hi)] = 0.0
    return c


@settings(max_examples=60, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1))
def test_sub_table_product_equals_full_table_product(order, n, batch, seed):
    ctx = jr.get_context(n, order)
    rng = np.random.default_rng(seed)
    for ha in range(order + 1):
        for hb in range(order + 1):
            a = _coeffs(ctx, ha, batch, rng)
            b = _coeffs(ctx, hb, batch, rng)
            mul_i, mul_j, mul_k, hi = ctx.product_table(ha, hb)
            assert hi == min(order, ha + hb)
            sub = _kernels.multiply(a, b, mul_i, mul_j, mul_k, ctx.n_terms)
            full = _kernels.multiply(a, b, ctx.mul_i, ctx.mul_j, ctx.mul_k,
                                     ctx.n_terms)
            assert same_bits(sub, full), (ha, hb)
            assert not sub[..., above(ctx, hi)].any()


def test_sub_table_sizes_at_order_four_in_eight_variables():
    ctx = jr.get_context(8, 4)
    assert len(ctx.mul_i) == 4845
    assert len(ctx.product_table(1, 1)[0]) == 81
    assert len(ctx.product_table(2, 2)[0]) == 2025
    assert ctx.product_table(4, 4)[0] is ctx.mul_i
    # steps 0..order - 2: step order - 1 is a scalar product, with no table
    assert sum(len(step[0]) for step in ctx.horner_tables()) == 5262


def test_masked_table_sizes_in_the_curvature_context():
    # x-degree at most 2 in 8 variables: the order-4 jets of n = 4 curvature
    ctx = jr.get_context(8, 4, x_degree=2)
    assert ctx.product_table(4, 4)[0] is ctx.mul_i  # 3435 entries
    assert len(ctx.product_table(4, 4, 3, 1)[0]) == 890  # full times x-only
    # Horner steps 0..order - 2 of a mixed, an x-only, a y-only and a
    # constant jet
    sizes = [sum(len(step[0]) for step in ctx.horner_tables(vs))
             for vs in (3, 1, 2, 0)]
    assert sizes == [3887, 90, 585, 0]


def _both(order, n, batch, seed):
    """Seeded variables in a real context and in a full-table one."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, (n,) if batch is None else (batch, n))
    zs = jr.variables(vals, order)
    ref = FullTableContext(n, order)
    return zs, [jr.Jet(ref, z.coeffs.copy(), z.hi) for z in zs], rng


FUNCTIONS = {
    "sqrt": jr.sqrt,
    "reciprocal": lambda v: 1.0 / v,
    "exp": jr.exp,
    "log": jr.log,
    "sin": jr.sin,
    "cube": lambda v: v**3,
    "fifth": lambda v: v**5,
    "inverse_square": lambda v: v**-2,
}


@settings(max_examples=60, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(sorted(FUNCTIONS)), arg=st.integers(0, 2))
def test_compose_equals_full_table_horner(order, n, batch, seed, name, arg):
    zs, refs, _ = _both(order, n, batch, seed)

    def argument(vs):  # degree spans 1, 2 and the order
        if arg == 0:
            return vs[0]
        if arg == 1:
            return vs[0] * vs[-1] + 0.5
        return jr.sqrt(vs[0] + vs[-1])

    fn = FUNCTIONS[name]
    out, ref = fn(argument(zs)), fn(argument(refs))
    assert same_bits(out.coeffs, ref.coeffs)


def _random_tree(vs, rng, steps):
    """Every intermediate of a random expression over ``vs``."""
    pool = list(vs) + [jr.constant(vs[0].ctx, 1.25)]
    for _ in range(steps):
        a, b = (pool[i] for i in rng.integers(0, len(pool), 2))
        op = rng.integers(0, 9)
        if op == 0:
            r = a + b
        elif op == 1:
            r = a - b
        elif op in (2, 3):
            r = a * b
        elif op == 4:
            r = 0.75 * a - 2.0
        elif op == 5:
            r = -a / 3.0
        elif op == 6:
            r = a**2
        elif op == 7:
            r = jr.exp(0.1 * a)
        else:
            r = 1.0 / (a * a + 1.0)
        if np.abs(r.coeffs).max() < 1e100:  # repeated squares overflow
            pool.append(r)
    return pool


@settings(max_examples=60, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1))
def test_coefficients_above_the_span_are_zero(order, n, batch, seed):
    zs, refs, rng = _both(order, n, batch, seed)
    tree_seed = int(rng.integers(2**32))
    jets = _random_tree(zs, np.random.default_rng(tree_seed), 12)
    full = _random_tree(refs, np.random.default_rng(tree_seed), 12)
    for jet, ref in zip(jets, full):
        assert 0 <= jet.hi <= order
        assert not jet.coeffs[..., above(jet.ctx, jet.hi)].any()
        assert same_bits(jet.coeffs, ref.coeffs)


def test_spans_of_the_constructors():
    ctx = jr.get_context(3, 4)
    x, y, z = jr.variables([0.3, 0.5, 0.7], 4)
    assert jr.constant(ctx, 2.0).hi == 0
    assert (x.hi, (x + 1.0).hi, (2.0 * x).hi, (-x).hi) == (1, 1, 1, 1)
    assert (x * y).hi == 2 and (x * y * z).hi == 3
    assert (x * y * z * x * y).hi == 4
    assert (x * y + z).hi == 2
    assert jr.sqrt(x).hi == 4 and (1.0 / x).hi == 4
    # variable spans: an odd count of variables reads them all as y
    assert (jr.constant(ctx, 2.0).vs, x.vs, (x * y + z).vs) == (0, 2, 2)
    a, b = jr.seed_variables([[0.1], [0.2]], [[0.5], [0.6]], 4)
    assert (a.vs, b.vs, (a + 1.0).vs, (2.0 * a).vs, (a - b).vs) == (1, 2, 1, 1, 3)
    assert ((a * a).vs, (a * b).vs, (a * jr.constant(a.ctx, 2.0)).vs) == (1, 3, 1)
    cond = np.array([True, False])
    assert (jr.where(cond, a, 2.0).vs, jr.where(cond, a, b).vs) == (1, 3)
    assert (jr.sqrt(a).vs, (1.0 / b).vs, jr.sqrt(a + b).vs) == (1, 2, 3)


def _outside(ctx, vs):
    """The coefficient slots of the monomials that involve a half of the
    variables outside the variable span ``vs`` (x the first half of an even
    count, y the rest)."""
    half = 0 if ctx.n_vars % 2 else ctx.n_vars // 2
    return np.array([any(m[:half]) and not vs & 1 or any(m[half:]) and not vs & 2
                     for m in ctx.monomials])


@settings(max_examples=60, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1))
def test_coefficients_outside_the_variable_span_are_zero(order, n, batch, seed):
    zs, refs, rng = _both(order, n, batch, seed)
    tree_seed = int(rng.integers(2**32))
    jets = _random_tree(zs, np.random.default_rng(tree_seed), 12)
    full = _random_tree(refs, np.random.default_rng(tree_seed), 12)
    for jet, ref in zip(jets, full):
        assert 0 <= jet.vs <= 3
        assert not jet.coeffs[..., _outside(jet.ctx, jet.vs)].any()
        assert same_bits(jet.coeffs, ref.coeffs)


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_compose_of_a_constant_jet_equals_the_full_table(order, batch):
    # a constant's Horner steps are empty tables
    value = 4.0 if batch is None else np.array([4.0, 0.25, 9.0])
    c = jr.constant(jr.get_context(4, order), value)
    ref = jr.Jet(FullTableContext(4, order), c.coeffs.copy(), 0, 0)
    for name, fn in sorted(FUNCTIONS.items()):
        out = fn(c)
        assert out.coeffs.dtype == np.float64, name
        assert same_bits(out.coeffs, fn(ref).coeffs), name
    assert same_bits(jr.sqrt(c).coeffs.T[0], np.sqrt(value))


# ---------------------------------------------------------------------------
# fixed-cost cuts: shared seed blocks and Horner's first step


RING_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "add_scalar": lambda a, b: 2.0 + a,
    "rsub_scalar": lambda a, b: 2.0 - a,
    "sub_scalar": lambda a, b: a - 0.5,
    "mul_scalar": lambda a, b: 3.0 * a,
    "div_scalar": lambda a, b: a / 3.0,
    "rdiv_scalar": lambda a, b: 3.0 / a,
    "neg": lambda a, b: -a,
    "int_pow": lambda a, b: a**3,
    "neg_pow": lambda a, b: a**-2,
    "real_pow": lambda a, b: a**0.75,
    "sqrt": lambda a, b: jr.sqrt(a),
    "exp": lambda a, b: jr.exp(a),
    "log": lambda a, b: jr.log(a),
    "sin": lambda a, b: jr.sin(a),
    "cos": lambda a, b: jr.cos(a),
}


@settings(max_examples=40, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1))
def test_no_ring_operation_writes_into_an_operand(order, n, batch, seed):
    # the seeded variables are rows of one block, so a write into any of
    # them would reach every other coordinate jet
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, (n,) if batch is None else (batch, n))
    zs = jr.variables(vals, order)
    pool = zs + [zs[0] * zs[-1] + 0.5, jr.sqrt(zs[0] + zs[-1]),
                 jr.constant(zs[0].ctx, 1.25)]
    if batch is not None:
        pool.append(zs[0] + rng.uniform(0.5, 1.5, batch))  # array scalar
    before = [p.coeffs.copy() for p in pool]
    for a in pool:
        for b in pool:
            for op in RING_OPS.values():
                op(a, b)
    for p, want in zip(pool, before):
        assert same_bits(p.coeffs, want)


def _former_compose(jet, series):
    """The former Horner loop: ``order`` full-table products, the first of
    the constant series[order] by the nilpotent part."""
    ctx = jet.ctx
    nil = jet.coeffs.copy()
    nil.T[0] = 0.0
    acc = jr.constant(ctx, series[ctx.order]).coeffs
    for k in range(ctx.order - 1, -1, -1):
        acc = _kernels.multiply(acc, nil, ctx.mul_i, ctx.mul_j, ctx.mul_k,
                                ctx.n_terms)
        acc.T[0] += series[k]
    return acc


COMPOSED = {
    "sqrt": jr.sqrt,
    "reciprocal": lambda v: 1.0 / v,
    "power": lambda v: jr.power(v, -1.5),
    "exp": jr.exp,
    "log": jr.log,
    "sin": jr.sin,
}


@settings(max_examples=60, deadline=None)
@given(order=orders, n=n_vars, batch=batches, seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(sorted(COMPOSED)), arg=st.integers(0, 2))
def test_compose_equals_the_former_full_horner_loop(order, n, batch, seed,
                                                     name, arg):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, (n,) if batch is None else (batch, n))
    zs = jr.variables(vals, order)
    operand = (zs[0], zs[0] * zs[-1] + 0.5, jr.sqrt(zs[0] + zs[-1]))[arg]
    calls = []
    compose = jr._compose
    jr._compose = lambda jet, series: calls.append(
        (jet, series)) or compose(jet, series)
    try:
        out = COMPOSED[name](operand).coeffs
    finally:
        jr._compose = compose
    jet, series = calls[-1]
    want = _former_compose(jet, series)
    if order == 1:
        # the scalar product is the result, and its zeros may carry a sign
        # that the former table sum (0.0 + p) dropped
        assert np.array_equal(out, want)
        out = out + 0.0
    assert same_bits(out, want)


# ---------------------------------------------------------------------------
# jets modulo x-degree above 2


def _kept(ctx, cut):
    """The positions in ``ctx`` of the monomials that ``cut`` keeps."""
    return [ctx.index[m] for m in cut.monomials]


def _x_degrees(n, k):
    """The x-degree of every slot of an order-k tensor in (x, y) of size n
    each."""
    return sum((axis < n).astype(int) for axis in np.indices((2 * n,) * k))


def test_truncated_table_sizes():
    assert len(jr.get_context(8, 4, x_degree=2).mul_i) == 3435
    assert len(jr.get_context(6, 4, x_degree=2).mul_i) == 1302
    assert len(jr.get_context(4, 4, x_degree=2).mul_i) == 360
    for d in (2, 4, 6, 8):  # order 2 drops nothing
        assert jr.get_context(d, 2, x_degree=2) is jr.get_context(d, 2)
    assert jr.get_context(8, 4, x_degree=2) is jr.get_context(8, 4, x_degree=2)
    with pytest.raises(JetError, match="x-degree"):
        jr.get_context(3, 4).x_truncated(2)
    with pytest.raises(JetError, match="cap"):
        jr.get_context(4, 4).x_truncated(0)


TREE_OPS = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: 0.75 * a - 2.0,
    lambda a, b: -a / 3.0,
    lambda a, b: a**2,
    lambda a, b: jr.exp(0.1 * a),
    lambda a, b: 1.0 / (a * a + 1.0),
    lambda a, b: jr.sqrt(a * a + b * b + 1.0),
)


def _lockstep_trees(seedings, rng, steps):
    """One random expression over each list of seeded variables, all by the
    same operations; a result joins while the first list's stays finite."""
    pools = [list(vs) + [jr.constant(vs[0].ctx, 1.25)] for vs in seedings]
    for _ in range(steps):
        i, j = rng.integers(0, len(pools[0]), 2)
        op = TREE_OPS[rng.integers(0, len(TREE_OPS))]
        out = [op(p[i], p[j]) for p in pools]
        if np.abs(out[0].coeffs).max() < 1e100:  # repeated squares overflow
            for p, r in zip(pools, out):
                p.append(r)
    return pools


@settings(max_examples=60, deadline=None)
@given(order=orders, half=st.integers(1, 4), batch=batches,
       seed=st.integers(0, 2**32 - 1))
def test_truncated_ring_keeps_every_coefficient_bit_for_bit(order, half, batch,
                                                            seed):
    # against the full context, and against a truncated full-table one
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.5, 1.5, (2 * half,) if batch is None
                       else (batch, 2 * half))
    full = jr.variables(vals, order)
    cut = jr.variables(vals, order, x_degree=2)
    ref = FullTableContext(2 * half, order).x_truncated(2)
    refs = [jr.Jet(ref, z.coeffs.copy(), z.hi) for z in cut]
    keep = _kept(full[0].ctx, cut[0].ctx)
    trees = _lockstep_trees((full, cut, refs), rng, 12)
    for f, c, r in zip(*trees):
        assert same_bits(f.coeffs[..., keep], c.coeffs)
        assert same_bits(c.coeffs, r.coeffs)
        assert c.hi == f.hi


# the catalog without hilbert-superellipse, whose F takes roots, as
# (name, n); the ellipse metrics, pullbacks of the ball's closed forms,
# take only n = 2
CLOSED_FORM = [(name, n) for name in zoo.METRIC_NAMES
               if name != "hilbert-superellipse" for n in (2, 3, 4)
               if n == 2 or name not in ("funk-ellipse-plus",
                                         "funk-ellipse-minus",
                                         "hilbert-ellipse")]


def _states(m, count=5):
    return (np.array(v) for v in zip(*sampling.state_pairs(m, count)))


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name, n", CLOSED_FORM)
def test_truncated_metric_jets_equal_the_full_ones(name, n, order):
    m = zoo.make_metric(name, n)
    X, Y = _states(m)
    for x, y in ((X[0], Y[0]), (X, Y)):
        full = jr.jet_of(m.F, x, y, order)
        cut = jr.jet_of(m.F, x, y, order, x_degree=2)
        keep = _kept(full.ctx, cut.ctx)
        assert len(keep) < full.ctx.n_terms
        for f, c in ((full, cut), (full * full, cut * cut)):
            assert same_bits(f.coeffs[..., keep], c.coeffs)
            tensors = zip(jr.derivative_tensors(f), jr.derivative_tensors(c))
            for k, (tf, tc) in enumerate(tensors):
                if k < 3:
                    assert same_bits(tf, tc)
                    continue
                dropped = np.broadcast_to(_x_degrees(n, k) > 2, tc.shape)
                assert np.isnan(tc[dropped]).all()
                assert same_bits(tf[~dropped], tc[~dropped])


@pytest.mark.parametrize("name, n", CLOSED_FORM)
def test_assembly_and_transport_read_no_dropped_partial(name, n):
    m = zoo.make_metric(name, n)
    base = zoo.make_metric("euclidean", n)
    X, Y = _states(m)
    for x, y in ((X[0], Y[0]), (X, Y)):
        for order in (2, 4):
            for key, value in geo._assemble(m, x, y, order).items():
                assert not np.isnan(value).any(), (order, key)
    pairs = sampling.joint_state_pairs(base, m, 5)
    X, Y = (np.array(v) for v in zip(*pairs))
    for x, y in ((X[0], Y[0]), (X, Y)):
        for key, value in pj.xi_and_tau(base, m, x, y).items():
            assert not np.isnan(value).any(), key


def test_second_spray_derivative_is_the_y_derivative_of_the_first():
    # d2G[mu, nu, i] = d2G^i/dz^mu dy^nu, against differences of dG
    m = zoo.bryant(0.7, 3)
    x, y = (np.array(v) for v in sampling.state_pairs(m, 3)[1])
    n = m.n
    d2G = geo._assemble(m, x, y, 4)["d2G"]
    assert d2G.shape == (2 * n, n, n)
    z = np.concatenate([x, y])

    def dG(z):
        return geo._assemble(m, z[:n], z[n:], 4)["dG"].ravel()

    for nu in range(n):
        idx = np.zeros(2 * n, dtype=int)
        idx[n + nu] = 1
        fd = jr.fd_derivative(lambda Z: np.array([dG(r) for r in Z]), z,
                              idx).reshape(2 * n, n)
        assert np.max(np.abs(d2G[:, nu, :] - fd)) <= 1e-7 * np.max(np.abs(fd))


def test_a_dropped_partial_cannot_be_extracted():
    cut = jr.jet_of(zoo.klein().F, [0.1, 0.2], [0.5, -0.3], 4, x_degree=2)
    assert jr.extract_derivative(cut, (2, 0, 1, 0)) == jr.extract_derivative(
        jr.jet_of(zoo.klein().F, [0.1, 0.2], [0.5, -0.3], 4), (2, 0, 1, 0))
    with pytest.raises(JetError, match="x-degree above 2"):
        jr.extract_derivative(cut, (2, 1, 0, 0))
    with pytest.raises(JetError, match="different contexts"):
        cut + jr.jet_of(zoo.klein().F, [0.1, 0.2], [0.5, -0.3], 4)
