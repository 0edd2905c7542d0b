"""Forward-mode truncated Taylor arithmetic (multivariate jets).

A :class:`Jet` stores the Taylor coefficients of a scalar expression in
``n_vars`` real variables, truncated at total degree ``order``.  The
coefficient of the monomial z^alpha sits at a fixed position in a dense
array ordered by (degree, lexicographic index pattern), and the mixed
partial d^alpha f equals ``coeff(alpha) * alpha!``. :func:`get_context`
takes orders 1..4 (``MAX_ORDER``) and 1..16 variables (a seeded (x, y) in
``metric.MAX_DIM`` = 8 dimensions), and refuses others with JetError.

Arithmetic (+, -, *, /, integer and real powers) and the analytic
functions below (sqrt, exp, log, sin, cos, sinh, cosh) are closed on jets
and exact to the truncation order; composition happens through the
univariate Taylor series of the outer function evaluated by Horner's rule
in the nilpotent part.  Any code written against the module-level
functions runs unchanged on plain floats and on jets.  That shared scalar
ring is the architectural contract of the package: one metric definition
serves point evaluation, spray/curvature assembly, and the implicit
root-finding used for convex-body metrics.

A jet holds one state, ``coeffs`` of shape ``(n_terms,)``, or a batch of
B states, ``(B, n_terms)``: every operation reads the coefficient axis as
``coeffs[..., k]``, so one code path serves both, and each row of a batch
equals the jet of that state alone bit for bit.  A float array of shape
``(B,)`` acts as one ring scalar per state.  Base values are read and
written as ``coeffs.T[0]``: a scalar for one state and a view of the B
base values for a batch (on one state it costs a tenth of
``coeffs[..., 0] += c``); :func:`_compose`, which writes them order + 1
times, indexes them by ``[0]`` on one state and ``[..., 0]`` on a batch,
cheaper still. A branch on base values goes through
:func:`where`, which picks per state, so each row of a batch takes the
branch its state takes alone.

Every jet also carries ``hi``, its degree span: an upper bound on the
degree of its nonzero coefficients (0 for a constant, 1 for a seeded
variable, the larger span for a sum, the sum of the spans, capped at the
order, for a product, and the order for anything composed). A product
runs the part of the multiplication table whose factors can be nonzero,
and Horner's rule in :func:`_compose` only the part that reaches the
result. Each skipped entry multiplies an exact zero, so every coefficient
sums the same nonzero products in the same order as over the full table:
the result is the same bit for bit (for finite coefficients, where
0 * x = 0).

Beside ``hi`` every jet carries ``vs``, its variable span: a two-bit mask
of the halves of the chart variables its nonzero coefficients can
involve, bit 0 for the x half and bit 1 for the y half of the seeded
(x, y) (a context in an odd number of variables reads them all as y). A
constant has 0, a seeded x_i 1 and a seeded y_i 2; a sum, a difference,
:func:`where` and a product take the union, and a scalar operation or a
composition keeps the operand's. Every monomial has the mask of the
variables it involves, and products and Horner steps run only the entries
whose factors' monomials lie inside their jets' masks, by the same rule
and to the same bits: the x-only reciprocal of 1 - |x|^2 in a curvature
jet composes over 90 entries, not 3887.

A context may also run modulo x-degree: :meth:`JetContext.x_truncated`
keeps only the monomials whose degree in the x variables (the first half
of the seeded (x, y)) is at most a cap, and the table entries whose
target survives. Those dropped monomials form an ideal (a product has the
x-degrees of its factors summed), so a kept target's entries are exactly
the full table's, in the same order, and every kept coefficient is the
same bit for bit: the jets compute F in the quotient ring. Curvature
needs cap 2. The order-4 assembly of :mod:`finslerlab.geometry` reads Q =
F^2 partials with at most two x-derivatives: the spray G already holds
one (Q_x and Q_{xy} y), and the Riemann tensor differentiates G once
more in x, while every further derivative is in y. A dropped partial
reads as NaN in :func:`derivative_tensors`, never as a silent 0, and
:func:`extract_derivative` refuses it.

:func:`jet_of` on one state runs F's ring program, not F. The first call
for a pair (F, context) runs F once over recording jets: each does the
live operation and writes its step, a kernel product with its sub-table,
a composition with its Taylor terms and base test, an add or scale with
its constant, as one line of a straight-line Python function of the
seeded jets. Later one-state calls of that pair run the function: the
same numpy calls on the same operands in the same order, so every
coefficient, ``hi`` and ``vs`` is the same bit for bit, with no jet per
operation and no span lookup. It reaches ``_kernels.multiply``,
:func:`_compose` and :func:`_series` through their modules at call time,
so a patched one sees every call, and it runs each base test (a zero
reciprocal, a power or log of a non-positive base) where F does, to the
same JetError. A context holds its programs per F by a weak reference,
so a discarded metric frees them. An F that reads a base value outside a
ring operation (``value``, ``coeffs``, :func:`base_value` or
:func:`where` on a jet) may branch on it, so it runs live for that
context, as every batch does.

An independent finite-difference oracle (:func:`fd_oracle`) cross-checks
any jet derivative with nested central differences plus two-level
Richardson extrapolation, evaluating all stencil points of one derivative
as one stack of float states; it never touches the jet code path.
"""

import copy
import itertools
import math
import operator
import sys
import weakref
from functools import lru_cache

import numpy as np

from . import _kernels
from .errors import (FDOracleError, JetError, count, first_bad, one_state,
                     points, reals, states)
from .metric import MAX_DIM

MAX_ORDER = 4  # the highest jet order: curvature needs four derivatives


# ---------------------------------------------------------------------------
# context: monomial bookkeeping shared by every jet of a given (n_vars, order)


class JetContext:
    """Precomputed monomial tables for jets in ``n_vars`` variables.

    Holds the graded monomial list, the sparse multiplication table
    (triples i, j -> k with monomial_i * monomial_j = monomial_k kept when
    the degrees fit), the multi-index factorials used to convert
    coefficients to derivatives, and scatter maps used to reshape
    coefficient data into dense symmetric derivative tensors.

    ``products[ha][va][hb][vb]`` is the sub-table for a product of jets
    of degree spans ha, hb and variable spans va, vb, and ``horner[vs][k]``
    the one for Horner step k of :func:`_compose` on a jet of variable span
    vs; both are built on first use (see :meth:`product_table` and
    :meth:`horner_tables`) and keep table order. ``masks`` holds each
    monomial's variable span.
    ``x_degree`` is the cap of a context from :meth:`x_truncated`, and
    None for the full one; :func:`get_context` checks both sizes.
    ``programs`` maps each F that :func:`jet_of` has seen on one state of
    this context, held by a weak reference, to its recorded program, or
    to None when F runs live; ``codes`` holds the compiled programs by
    their source, which the Fs that make the same steps share (each
    binds its own tables and constants).
    """

    x_degree = None

    def __init__(self, n_vars, order):
        self.n_vars = n_vars
        self.order = order
        # the graded monomials, by (degree, lexicographic index pattern)
        monos = [tuple(map(combo.count, range(n_vars))) for d in range(order + 1)
                 for combo in itertools.combinations_with_replacement(range(n_vars), d)]
        index = {m: p for p, m in enumerate(monos)}
        by_degree = [[(p, m) for p, m in enumerate(monos) if sum(m) == d]
                     for d in range(order + 1)]
        table = [(i, j, index[tuple(map(operator.add, a, b))])
                 for da in range(order + 1) for db in range(order + 1 - da)
                 for i, a in by_degree[da] for j, b in by_degree[db]]
        self._tables(monos, *np.array(list(zip(*table)), dtype=np.int64))

    def _tables(self, monos, mul_i, mul_j, mul_k):
        """Derive every table from the graded monomial list ``monos`` and
        the multiplication table (mul_i, mul_j, mul_k) over its positions;
        the sub-tables and tensor maps start empty."""
        self.monomials = monos
        self.n_terms = len(monos)
        self.index = {m: p for p, m in enumerate(monos)}
        self.degrees = np.array([sum(m) for m in monos], dtype=np.int64)
        self.degree_start = np.searchsorted(self.degrees,
                                            np.arange(self.order + 2))
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in m) for m in monos]
        )
        # bit 0 for a monomial in the x half, bit 1 in the y half (all of
        # an odd count of variables)
        half = 0 if self.n_vars % 2 else self.n_vars // 2
        self.masks = np.array([any(m[:half]) | any(m[half:]) << 1 for m in monos],
                              dtype=np.int64)
        self.mul_i, self.mul_j, self.mul_k = mul_i, mul_j, mul_k
        self.products = [[[[None] * 4 for _ in range(self.order + 1)]
                          for _ in range(4)] for _ in range(self.order + 1)]
        self.horner = [None] * 4
        self.programs = weakref.WeakKeyDictionary()
        self.codes = {}
        # row i: the coefficients of the seeded variable z_i at z = 0 (an
        # x-truncated context keeps every degree-1 monomial)
        self._units = np.zeros((self.n_vars, self.n_terms))
        self._units[:, 1:self.n_vars + 1] = np.eye(self.n_vars)
        self._units.setflags(write=False)
        self._seed_spans = self.masks[1:self.n_vars + 1].tolist()
        self._tensor_maps = {}

    # -- span-aware sub-tables ---------------------------------------------

    def _sub_table(self, keep):
        """The table entries where ``keep`` holds, in table order."""
        if keep.all():
            return self.mul_i, self.mul_j, self.mul_k
        return self.mul_i[keep], self.mul_j[keep], self.mul_k[keep]

    def _inside(self, va, vb):
        """Per table entry: both factors' monomials lie inside the variable
        spans va and vb."""
        return (((self.masks[self.mul_i] & ~va) == 0)
                & ((self.masks[self.mul_j] & ~vb) == 0))

    def product_table(self, ha, hb, va=3, vb=3):
        """``(mul_i, mul_j, mul_k, hi)`` for a product of jets of degree spans
        ha, hb and variable spans va, vb: the entries whose factors can both
        be nonzero, and the product's degree span."""
        da, db = self.degrees[self.mul_i], self.degrees[self.mul_j]
        table = (self._sub_table((da <= ha) & (db <= hb) & self._inside(va, vb))
                 + (min(self.order, ha + hb),))
        self.products[ha][va][hb][vb] = table
        return table

    def horner_tables(self, vs=3):
        """``(mul_i, mul_j, mul_k)`` per Horner step k of :func:`_compose`
        on a jet of variable span ``vs``.

        Step k multiplies the accumulator by the nilpotent part, which has
        no degree-0 term, and raises every degree by at least one in each
        of the k steps after it: only its degrees <= order - k reach the
        result. So step k reads the accumulator up to degree order - k - 1,
        the nilpotent part from degree 1, and writes degrees <= order - k.
        :func:`_compose` runs the first, step order - 1, as a scalar product,
        so it has no table here. Both factors lie inside ``vs``, and a
        constant's (``vs`` 0) steps are empty.
        """
        da, db = self.degrees[self.mul_i], self.degrees[self.mul_j]
        inside = self._inside(vs, vs)
        self.horner[vs] = [
            self._sub_table((da < self.order - k) & (db >= 1)
                            & (da + db <= self.order - k) & inside)
            for k in range(self.order - 1)]
        return self.horner[vs]

    # -- x-degree truncation ------------------------------------------------

    def x_truncated(self, cap):
        """This context modulo the monomials of x-degree above ``cap``.

        The x variables are the first half of the seeded (x, y). The
        derived context keeps the monomials and the table entries whose
        target survives, in table order (see the module docstring), and is
        this context itself when nothing is dropped, as at order <= cap.
        """
        if self.n_vars % 2:
            raise JetError(f"x-degree needs seeded (x, y), got {self.n_vars} variables")
        if cap < 1:
            raise JetError(f"x-degree cap must be >= 1, got {cap}")
        half = self.n_vars // 2
        kept = np.array([sum(m[:half]) <= cap for m in self.monomials])
        if kept.all():
            return self
        pos = np.flatnonzero(kept)
        new = np.full(self.n_terms, -1, dtype=np.int64)
        new[pos] = np.arange(pos.size)
        rows = kept[self.mul_k]

        # a copy, not a new build: only __init__ builds the full tables
        ctx = copy.copy(self)
        ctx.x_degree = cap
        ctx._tables([self.monomials[p] for p in pos], *(
            new[t[rows]] for t in (self.mul_i, self.mul_j, self.mul_k)))
        return ctx

    # -- derivative-tensor scatter ---------------------------------------

    def tensor_map(self, k):
        """Map from degree-k coefficients to the dense d^k derivative tensor.

        Returns (slot_mono, slot_fact): for each flat slot of the
        (n_vars,)*k tensor the monomial position and its alpha!. A slot
        whose monomial an x-truncated context drops reads the base value
        with a NaN factor.
        """
        if k in self._tensor_maps:
            return self._tensor_maps[k]
        if not 1 <= k <= self.order:
            raise JetError(f"tensor order {k} outside 1..{self.order}")
        d = self.n_vars
        size = d**k
        slot_mono = np.empty(size, dtype=np.int64)
        slot_fact = np.empty(size)
        for flat, combo in enumerate(itertools.product(range(d), repeat=k)):
            e = [0] * d
            for i in combo:
                e[i] += 1
            pos = self.index.get(tuple(e))
            slot_mono[flat] = 0 if pos is None else pos
            slot_fact[flat] = np.nan if pos is None else self.factorials[pos]
        self._tensor_maps[k] = (slot_mono, slot_fact)
        return self._tensor_maps[k]


@lru_cache(maxsize=None)
def _cached_context(n_vars, order, x_degree):
    if x_degree is None:
        return JetContext(n_vars, order)
    return _cached_context(n_vars, order, None).x_truncated(x_degree)


def get_context(n_vars, order, *, x_degree=None):
    """The shared context of jets in ``n_vars`` variables to ``order``,
    modulo x-degree above ``x_degree`` when it is given (see
    :meth:`JetContext.x_truncated`). The one gate of jet sizes: orders
    1..MAX_ORDER and 1..2 MAX_DIM variables, else JetError; :func:`count`
    reads each number before the cache hashes it."""
    n_vars = count(n_vars, -math.inf, "jet variable count")
    order = count(order, -math.inf, "jet order")
    if not (1 <= order <= MAX_ORDER and 1 <= n_vars <= 2 * MAX_DIM):
        raise JetError(f"jets take orders 1..{MAX_ORDER} in 1..{2 * MAX_DIM} "
                       f"variables, got order {order} in {n_vars}")
    cap = None if x_degree is None else count(x_degree, 1, "jet x-degree cap")
    return _cached_context(n_vars, order, cap)


# ---------------------------------------------------------------------------
# the jet scalar


def _coerce(value):
    """A ring scalar as a float, or a float array of batch shape ``(B,)`` as
    a ``(B, 1)`` column (one scalar per state); None for anything else."""
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return value.astype(float)[..., None]
    return None


def _add_base(out, c):
    """``out``, a new coefficient array, with the ring scalar ``c`` added to
    the base value of each state."""
    if not isinstance(c, float):
        out = np.broadcast_to(out, np.broadcast_shapes(out.shape, c.shape)).copy()
        c = c[..., 0]
    out.T[0] += c
    return out


def _series(base, terms):
    """``terms(c)`` (the Taylor coefficients of an outer function about the
    scalar c) for one base value, or per state of a batch as rows of a
    ``(order + 1, B)`` array; each state runs the same arithmetic on Python
    floats (libm's pow, exp, ... and not numpy's vector versions, which
    round differently). A term past the float range at a finite base
    raises JetError naming that base: a batch's rows are tested once, and
    only a batch that fails the test is run again state by state."""
    if base.ndim == 0:  # float() costs a tenth of a numpy scalar's tolist()
        return _terms(terms, float(base))
    cs = base.tolist()
    try:
        rows = np.array([terms(c) for c in cs])
        if np.isfinite(rows).all():
            return rows.T
    except (OverflowError, ZeroDivisionError):
        pass
    return np.array([_terms(terms, c) for c in cs]).T


def _terms(terms, c):
    """``terms(c)`` at the Python float c, or JetError when c is finite and
    a term overflows, divides by an underflowed power or is not finite."""
    try:
        series = terms(c)
        if all(map(math.isfinite, series)) or not math.isfinite(c):
            return series
    except (OverflowError, ZeroDivisionError):
        pass
    raise JetError(f"Taylor terms at base value {c!r} leave the float range")


_MIXED_CONTEXTS = "jets from different contexts cannot be combined"


class Jet:
    """Truncated Taylor expansion of a scalar expression.

    ``hi`` bounds the degree of its nonzero coefficients and ``vs`` names
    the halves of the variables they can involve (see the module
    docstring; 3, both halves, by default): every other coefficient is
    exactly zero.
    """

    __slots__ = ("ctx", "coeffs", "hi", "vs")
    # keep numpy from hijacking scalar-op dispatch so float64 * Jet works
    __array_ufunc__ = None

    def __init__(self, ctx, coeffs, hi, vs=3):
        self.ctx = ctx
        self.coeffs = coeffs
        self.hi = hi
        self.vs = vs

    # -- introspection -----------------------------------------------------

    @property
    def order(self):
        return self.ctx.order

    @property
    def n_vars(self):
        return self.ctx.n_vars

    @property
    def value(self):
        """Base (degree-0) value: a scalar, or one per state of a batch."""
        return self.coeffs.T[0]

    def __repr__(self):
        return (
            f"Jet(n_vars={self.ctx.n_vars}, order={self.ctx.order}, "
            f"value={self.value!r})"
        )

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return Jet(self.ctx, -self.coeffs, self.hi, self.vs)

    def __pos__(self):
        return self

    def __add__(self, other):
        if isinstance(other, Jet):
            if other.ctx is not self.ctx:
                raise JetError(_MIXED_CONTEXTS)
            ha, hb = self.hi, other.hi
            return Jet(self.ctx, self.coeffs + other.coeffs, ha if ha >= hb else hb,
                       self.vs | other.vs)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.ctx, _add_base(self.coeffs.copy(), c), self.hi, self.vs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            if other.ctx is not self.ctx:
                raise JetError(_MIXED_CONTEXTS)
            ha, hb = self.hi, other.hi
            return Jet(self.ctx, self.coeffs - other.coeffs, ha if ha >= hb else hb,
                       self.vs | other.vs)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.ctx, _add_base(self.coeffs.copy(), -c), self.hi, self.vs)

    def __rsub__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.ctx, _add_base(-self.coeffs, c), self.hi, self.vs)

    def __mul__(self, other):
        if isinstance(other, Jet):
            ctx = self.ctx
            if other.ctx is not ctx:
                raise JetError(_MIXED_CONTEXTS)
            va, vb = self.vs, other.vs
            mul_i, mul_j, mul_k, hi = (ctx.products[self.hi][va][other.hi][vb]
                                       or ctx.product_table(self.hi, other.hi, va, vb))
            out = _kernels.multiply(self.coeffs, other.coeffs, mul_i, mul_j, mul_k,
                                    ctx.n_terms)
            return Jet(ctx, out, hi, va | vb)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return Jet(self.ctx, self.coeffs * c, self.hi, self.vs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * _reciprocal(other)
        c = _coerce(other)
        if c is None:
            return NotImplemented
        if np.count_nonzero(c == 0.0):
            raise JetError("jet divided by zero scalar")
        return Jet(self.ctx, self.coeffs / c, self.hi, self.vs)

    def __rtruediv__(self, other):
        c = _coerce(other)
        if c is None:
            return NotImplemented
        return _reciprocal(self) * c

    def __pow__(self, p):
        if isinstance(p, (int, np.integer)):
            p = int(p)
            if p < 0:
                return _reciprocal(self._int_pow(-p))
            return self._int_pow(p)
        c = _coerce(p)
        if not isinstance(c, float):
            return NotImplemented
        return power(self, c)

    def _analytic(self, terms, guard=None, name=None, p=None):
        """g(self) for the outer function g whose Taylor terms about a base
        value c are ``terms(c)``: ``guard(base, name, p)`` tests the base
        values first, when given, then :func:`_series` and :func:`_compose`
        run on them."""
        c = self.coeffs.T[0]  # the value property's read, without its call
        if guard is not None:
            guard(c, name, p)
        return _compose(self, _series(c, terms))

    def _int_pow(self, p):
        result = constant(self.ctx, 1.0)
        base = self
        while p:
            if p & 1:
                result = result * base
            base_needed = p >> 1
            if base_needed:
                base = base * base
            p = base_needed
        return result


# ---------------------------------------------------------------------------
# constructors


def constant(ctx, value):
    """The constant jet ``value``: a scalar, or one per state of a batch."""
    shape = value.shape if isinstance(value, np.ndarray) else ()
    coeffs = np.zeros(shape + (ctx.n_terms,))
    coeffs.T[0] = value
    return Jet(ctx, coeffs, 0, 0)


def variables(values, order, *, x_degree=None):
    """Seed one jet per coordinate of ``values``, each with a unit linear
    coefficient: one point ``(n,)`` or a ``(B, n)`` stack of batched jets,
    by :func:`errors.points`; any other shape raises DomainError.
    ``order``, n and ``x_degree`` select the context by :func:`get_context`.

    The jets are rows of one coefficient block, ``(n, n_terms)`` or
    ``(n, B, n_terms)``; they may share it because no ring operation
    writes into an operand.
    """
    vals = points(values, "point coordinates")
    return _seeded(vals, get_context(vals.shape[-1], order, x_degree=x_degree))


def _seeded(vals, ctx):
    """The jets of ``ctx``'s variables at the checked point or stack
    ``vals``, rows of one block, each with its variable's span."""
    units = ctx._units
    block = (units.copy() if vals.ndim == 1
             else np.repeat(units[:, None], vals.shape[0], axis=1))
    block.T[0] = vals
    return [Jet(ctx, coeffs, 1, vs) for coeffs, vs in zip(block, ctx._seed_spans)]


def seed_variables(x, y, order, *, x_degree=None):
    """Seed the 2n coordinate jets for a tangent-space point (x, y).

    ``order`` and the 2n variables are read by :func:`get_context`; the
    returned list holds the x-jets followed by the y-jets, each carrying
    its own unit first-order coefficient. (x, y) is one state or a batch
    by :func:`errors.states`.
    ``x_degree`` drops the monomials of higher degree in x (see
    :meth:`JetContext.x_truncated`).
    """
    x, y = states(x, y)
    ctx = get_context(2 * x.shape[-1], order, x_degree=x_degree)
    return _seeded(np.concatenate([x, y], axis=-1), ctx)


# ---------------------------------------------------------------------------
# derivative access


def _normalize_idx(idx, size):
    """``idx`` as a tuple of ``size`` integers >= 0, or JetError."""
    try:
        idx = tuple(int(e) for e in np.asarray(idx).ravel())
    except (TypeError, ValueError, OverflowError):
        raise JetError(f"multi-index {idx!r} needs integer entries") from None
    if len(idx) != size:
        raise JetError(f"multi-index length {len(idx)} does not match the "
                       f"{size} variables")
    if any(e < 0 for e in idx):
        raise JetError(f"multi-index entries must be >= 0, got {idx}")
    return idx


def extract_derivative(jet, idx):
    """Mixed partial d^idx f at the seed point (coefficient times idx!)."""
    if not isinstance(jet, Jet):
        raise JetError(f"a derivative needs a Jet, got {type(jet).__name__}")
    ctx = jet.ctx
    idx = _normalize_idx(idx, ctx.n_vars)
    total = sum(idx)
    if total > ctx.order:
        raise JetError(f"|idx| = {total} exceeds jet order {ctx.order}")
    pos = ctx.index.get(idx)
    if pos is None:
        raise JetError(f"multi-index {idx} has x-degree above {ctx.x_degree}, "
                       "which this jet's context drops")
    return jet.coeffs.T[pos] * ctx.factorials[pos]


def derivative_tensors(jet):
    """Dense symmetric derivative tensors [f, Df, D2f, ...] up to the
    jet's order.

    For a batch of B states each entry gains a leading axis: f is ``(B,)``
    and the order-k tensor ``(B,) + (d,) * k``.
    """
    if not isinstance(jet, Jet):
        raise JetError(f"a derivative needs a Jet, got {type(jet).__name__}")
    ctx = jet.ctx
    out = [jet.value]
    d = ctx.n_vars
    batch = jet.coeffs.shape[:-1]
    for k in range(1, ctx.order + 1):
        slot_mono, slot_fact = ctx.tensor_map(k)
        # take() keeps a batch C-ordered (coeffs[..., idx] would not): BLAS
        # then sees every state's tensor with the strides of a lone state's
        out.append((jet.coeffs.take(slot_mono, axis=-1) * slot_fact)
                   .reshape(batch + (d,) * k))
    return out


# ---------------------------------------------------------------------------
# analytic functions on the scalar ring


def _compose(jet, series):
    """g(f) for g given by its Taylor coefficients about f's base value.

    ``series[k]`` = g^(k)(f0)/k!, a scalar or one per state of a batch.
    Horner evaluation in the nilpotent part f - f0 costs ``order - 1``
    table multiplications, step k over ``ctx.horner[jet.vs][k]``, after a
    first step that is a scalar product. At order 1 that product is the result,
    and a zero coefficient may carry the sign of its factors (-0.0).
    """
    ctx = jet.ctx
    nil = jet.coeffs.copy()
    one = nil.ndim == 1
    # the base slot of each state, an index cheaper than .T[0] here
    at = (0,) if one else (Ellipsis, 0)
    nil[at] = 0.0
    # step order - 1 multiplies the constant series[order] by the degree-1
    # part, one table entry per slot: a scalar product gives the same
    # products (and leaves higher degrees that no later step reads)
    top = series[ctx.order]
    acc = nil * (top if one else top[:, None])
    acc[at] += series[ctx.order - 1]
    steps = ctx.horner[jet.vs]
    if steps is None:  # at order 1 an empty list, built once
        steps = ctx.horner_tables(jet.vs)
    for k in range(ctx.order - 2, -1, -1):
        mul_i, mul_j, mul_k = steps[k]
        # a constant's steps are empty: its nilpotent part is zero, and the
        # kernel would return integer zeros on one state
        acc = (_kernels.multiply(acc, nil, mul_i, mul_j, mul_k, ctx.n_terms)
               if mul_i.size else np.zeros(acc.shape))
        acc[at] += series[k]
    return Jet(ctx, acc, ctx.order, jet.vs)


def _nonzero_base(c, name=None, p=None):
    """JetError naming the first zero among the base values ``c`` (a
    guard of :meth:`Jet._analytic`, which passes every guard a name and
    an exponent)."""
    hit = first_bad(c == 0.0, c)
    if hit:
        raise JetError(f"division by a jet of zero base, got {hit[0]}{hit[1]}")


def _positive_base(c, name, p=None):
    """JetError naming the first base value in ``c`` that is not positive,
    for the function ``name`` (with its exponent ``p`` for power)."""
    hit = first_bad(c <= 0.0, c)
    if hit:
        label = name if p is None else f"{name}({p})"
        raise JetError(f"{label} needs a positive base, got {hit[0]}{hit[1]}")


def _reciprocal(jet):
    order = jet.ctx.order
    return jet._analytic(
        lambda c: [(-1.0) ** k / c ** (k + 1) for k in range(order + 1)],
        _nonzero_base)


def sqrt(v):
    if isinstance(v, Jet):
        return power(v, 0.5)
    return np.sqrt(v)


def power(v, p):
    """v**p for real p (positive base required on the jet path)."""
    if isinstance(v, Jet):
        order = v.ctx.order

        def terms(c):
            series = []
            binom = 1.0
            for k in range(order + 1):
                series.append(binom * c ** (p - k))
                binom *= (p - k) / (k + 1)
            return series

        return v._analytic(terms, _positive_base, "power", p)
    return np.power(v, p)


def exp(v):
    if isinstance(v, Jet):
        order = v.ctx.order

        def terms(c):
            e = math.exp(c)
            return [e / math.factorial(k) for k in range(order + 1)]

        return v._analytic(terms)
    return np.exp(v)


def log(v):
    if isinstance(v, Jet):
        order = v.ctx.order

        def terms(c):
            series = [math.log(c)]
            for k in range(1, order + 1):
                series.append((-1.0) ** (k + 1) / (k * c**k))
            return series

        return v._analytic(terms, _positive_base, "log")
    return np.log(v)


def _cyclic(v, table):
    order = v.ctx.order
    return v._analytic(lambda c: [
        table[k % 4](c) / math.factorial(k) for k in range(order + 1)])


def sin(v):
    if isinstance(v, Jet):
        return _cyclic(v, (math.sin, math.cos, lambda c: -math.sin(c), lambda c: -math.cos(c)))
    return np.sin(v)


def cos(v):
    if isinstance(v, Jet):
        return _cyclic(v, (math.cos, lambda c: -math.sin(c), lambda c: -math.cos(c), math.sin))
    return np.cos(v)


def sinh(v):
    if isinstance(v, Jet):
        return _cyclic(v, (math.sinh, math.cosh, math.sinh, math.cosh))
    return np.sinh(v)


def cosh(v):
    if isinstance(v, Jet):
        return _cyclic(v, (math.cosh, math.sinh, math.cosh, math.sinh))
    return np.cosh(v)


def is_jet(v):
    return isinstance(v, Jet)


def base_value(v):
    """The base value of a ring scalar: a jet's ``value``, else ``v``."""
    return v.value if isinstance(v, Jet) else v


def where(cond, a, b):
    """The ring scalar ``a`` at the states where ``cond`` holds and ``b`` at
    the others. A single bool returns one of the two as it is; a ``(B,)``
    array of bools picks per state, among the rows of batched jets (a float
    operand acts as a constant jet) or among float arrays."""
    if isinstance(a, _Recording):  # cond tests a base value
        a.tape.live = True
    if isinstance(b, _Recording):
        b.tape.live = True
    if np.ndim(cond) == 0:
        return a if cond else b
    jets = [v for v in (a, b) if isinstance(v, Jet)]
    if not jets:
        return np.where(cond, a, b)
    ctx = jets[0].ctx
    if any(v.ctx is not ctx for v in jets):
        raise JetError(_MIXED_CONTEXTS)
    a, b = (v if isinstance(v, Jet) else constant(ctx, v) for v in (a, b))
    return Jet(ctx, np.where(np.asarray(cond)[:, None], a.coeffs, b.coeffs),
               max(a.hi, b.hi), a.vs | b.vs)


# ---------------------------------------------------------------------------
# finite-difference oracle (independent of the jet code path)

# base steps balance truncation against round-off per derivative order;
# two Richardson levels then push truncation to O(h^6).  The smallest step
# actually used is base/4, and cancellation noise grows like eps/h^order,
# so higher orders need visibly larger bases to keep the noise floor under
# the 1e-6 relative target once extrapolation has killed the truncation.
FD_STEPS = {1: 1e-4, 2: 5e-4, 3: 2e-2, 4: 2.5e-2}


def fd_derivative(fz, z, idx):
    """Central-difference mixed partial of ``fz`` at ``z`` with extrapolation.

    ``idx`` is an exponent multi-index over the entries of ``z``. The
    nested central stencils of the three Richardson levels, 3 * 2^k points
    for a k-th derivative, reach ``fz`` as one ``(P, d)`` stack; ``fz``
    returns one float or one vector per row, and vector entries are
    differentiated alike. Raises :class:`JetError` when ``fz`` returns
    another number of rows, and :class:`FDOracleError` when a stencil value
    is not finite or successive extrapolation levels fail to contract in
    the max norm (non-smooth point or hopeless scaling).
    """
    z = reals(z, "point coordinates").ravel()
    idx = _normalize_idx(idx, z.size)
    k = sum(idx)
    if not 1 <= k <= MAX_ORDER:
        raise JetError(f"fd oracle takes derivative orders 1..{MAX_ORDER}, got {k}")
    coords = tuple(i for i, e in enumerate(idx) for _ in range(e))
    h = FD_STEPS[k] * np.maximum(1.0, np.abs(z)) / 2.0**np.arange(3)[:, None]

    # each point adds each coordinate's +h, then -h, in turn: (level, point, z)
    pts = np.repeat(z[None, None], 3, axis=0)
    for i in coords:
        pts = np.repeat(pts, 2, axis=1)
        pts[:, 0::2, i] += h[:, i, None]
        pts[:, 1::2, i] -= h[:, i, None]
    stack = pts.reshape(-1, z.size)
    vals = np.asarray(fz(stack), dtype=float)
    if vals.shape[:1] != (len(stack),):
        raise JetError(f"fz returned shape {vals.shape} for a stack of "
                       f"{len(stack)} stencil points")
    if not np.isfinite(vals).all():
        raise FDOracleError(f"non-finite stencil value at z={z}, idx={idx}")
    vals = vals.T.reshape(vals.T.shape[:-1] + (3, -1))  # (..., level, point)
    for i in reversed(coords):  # (f+ - f-) / 2h, innermost coordinate first
        vals = vals.reshape(vals.shape[:-1] + (-1, 2))
        vals = (vals[..., 0] - vals[..., 1]) / (2.0 * h[:, i, None])
    e0, e1, e2 = vals[..., 0].T
    r0, r1 = (4.0 * e1 - e0) / 3.0, (4.0 * e2 - e1) / 3.0
    best = (16.0 * r1 - r0) / 15.0

    d0 = np.max(np.abs(e1 - e0))
    d1 = np.max(np.abs(r1 - r0))
    if d1 > 0.5 * d0 and d1 > 1e-6 * max(1.0, np.max(np.abs(best))):
        raise FDOracleError(
            f"Richardson extrapolation diverges at z={z}, idx={idx}: "
            f"level differences {d0:.3e} -> {d1:.3e}"
        )
    return best


def fd_oracle(f, x, y, idx):
    """Finite-difference estimate of d^idx f(x, y) over the joined (x, y) slots.

    ``f`` is called as a metric's ``F`` is called on a batch: on lists of
    float columns, one float array per coordinate of x and of y, and
    returns one float per stencil point; ``idx`` has one exponent per
    entry of (x, y).  Documented accuracy target: 1e-6 relative for
    well-scaled smooth inputs at derivative order <= 3.
    """
    x, y = one_state(x, y)
    n = x.size
    return float(fd_derivative(lambda Z: f(list(Z.T[:n]), list(Z.T[n:])),
                               np.concatenate([x, y]), idx))


# ---------------------------------------------------------------------------
# one-state ring programs: F recorded once per context, then replayed


class _Tape:
    """The ring program of one F on one context, written while F runs once
    over :class:`_Recording` jets: lines of Python over slots ``v0, v1,
    ...`` that name coefficient arrays, and the globals ``k0, k1, ...``
    that name their tables and constants. A base-value read sets ``live``:
    the tape stops writing, and F's later steps return plain jets."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.live = False
        self.lines = []
        self.slots = 0
        self.names = {"Jet": Jet, "ctx": ctx, "N": ctx.n_terms,
                      "_kernels": _kernels, "_jets": sys.modules[__name__]}

    def bind(self, value):
        """The program's global name for ``value``."""
        name = f"k{len(self.names)}"
        self.names[name] = value
        return name

    def write(self, jet, step):
        """A recording of ``jet``, the result of ``step``: lines over the
        new slot ``{0}``, or None for a step that the first lines make."""
        out = _Recording(jet, self, f"v{self.slots}")
        self.slots += 1
        if step is not None:
            self.lines.append(step.format(out.slot))
        return out

    def slot(self, v):
        """The slot of the jet ``v``: its own on this tape, a new one that
        holds a plain one-state jet of this context as the constant it is,
        or None (the tape goes live) for a recording of another tape or a
        batch."""
        if isinstance(v, _Recording):
            if v.tape is self:
                return v.slot
            v.tape.live = True  # its value leaves its own program
        elif v.ctx is self.ctx and v.coeffs.ndim == 1:
            return self.write(v, f"{{0}} = {self.bind(v.coeffs.copy())}.copy()").slot
        self.live = True
        return None

    def binary(self, op, a, b):
        """``op(a, b)``, one of add, sub, mul and truediv, as it runs on
        the plain jets and scalars, and its step: the same numpy call."""
        plain = [v.jet if isinstance(v, _Recording) else v for v in (a, b)]
        out = op(*plain)
        if not self.live:
            step = self._binary(op, a, b, *plain)
            if not self.live:
                return self.write(out, step)
        return out

    def _binary(self, op, a, b, pa, pb):
        if isinstance(pa, Jet) and isinstance(pb, Jet):
            sa, sb = self.slot(a), self.slot(b)
            if op is operator.mul:
                table = self.ctx.products[pa.hi][pa.vs][pb.hi][pb.vs][:3]
                return (f"{{0}} = mul({sa}, {sb}, "
                        f"{', '.join(map(self.bind, table))}, N)")
            return f"{{0}} = {sa} {_SYMBOLS[op]} {sb}"
        jet_first = isinstance(pa, Jet)
        s = self.slot(a if jet_first else b)
        c = _coerce(pb if jet_first else pa)
        if not isinstance(c, float):  # one scalar per state of a batch
            self.live = True
            return None
        if op is operator.mul or op is operator.truediv:
            return f"{{0}} = {s} {_SYMBOLS[op]} {self.bind(c)}"
        # _add_base of the jet's copy, or of its negative for c - jet
        if op is operator.sub and jet_first:
            c = -c
        head = f"-{s}" if op is operator.sub and not jet_first else f"{s}.copy()"
        return f"{{0}} = {head}\n{{0}}[0] += {self.bind(c)}"

    def analytic(self, a, terms, guard, name, p):
        """``a._analytic(terms, guard, name, p)`` as it runs live, and its
        step: the same base test, :func:`_series` and :func:`_compose`."""
        out = a.jet._analytic(terms, guard, name, p)
        if self.live:
            return out
        s = a.slot
        step = [f"b = {s}[0]"]
        if guard is not None:
            call = ", ".join(["b", *map(self.bind, (name, p))])
            step.append(f"if b {_GUARD_TESTS[guard]}: {self.bind(guard)}({call})")
        step.append(f"{{0}} = compose(Jet(ctx, {s}, {a.hi}, {a.vs}), "
                    f"series(b, {self.bind(terms)})).coeffs")
        return self.write(out, "\n".join(step))

    def program(self, seeds, out):
        """The replay of this tape, a function of the seeded jets that
        returns the plain jet of ``out``; None when the tape went live or
        ``out`` is not one of its recordings."""
        if self.live or not (isinstance(out, _Recording) and out.tape is self):
            return None
        body = ["mul = _kernels.multiply", "compose = _jets._compose",
                "series = _jets._series",
                *(f"{z.slot} = zs[{i}].coeffs" for i, z in enumerate(seeds)),
                *self.lines, f"return Jet(ctx, {out.slot}, {out.hi}, {out.vs})"]
        source = "def replay(zs):\n" + "".join(
            f"    {line}\n" for step in body for line in step.splitlines())
        code = self.ctx.codes.get(source)
        if code is None:  # compiling costs twice the recording
            code = self.ctx.codes[source] = compile(source, "<ring program>", "exec")
        exec(code, self.names)
        return self.names["replay"]


_SYMBOLS = {operator.add: "+", operator.sub: "-", operator.mul: "*",
            operator.truediv: "/"}
_GUARD_TESTS = {_nonzero_base: "== 0.0", _positive_base: "<= 0.0"}


class _Recording(Jet):
    """A one-state jet of F while its :class:`_Tape` records: each ring
    operation runs on the plain jet it holds, as live, and writes its step
    to the tape. A read of its coefficients (``coeffs`` or ``value``, and
    so :func:`base_value` and :func:`where`) sends the tape live."""

    __slots__ = ("jet", "tape", "slot")

    def __init__(self, jet, tape, slot):
        self.ctx, self.hi, self.vs = jet.ctx, jet.hi, jet.vs
        self.jet, self.tape, self.slot = jet, tape, slot

    @property
    def coeffs(self):
        self.tape.live = True
        return self.jet.coeffs

    def __neg__(self):
        out = -self.jet
        return out if self.tape.live else self.tape.write(out, f"{{0}} = -{self.slot}")

    def __add__(self, other):
        return self.tape.binary(operator.add, self, other)

    def __radd__(self, other):
        return self.tape.binary(operator.add, other, self)

    def __sub__(self, other):
        return self.tape.binary(operator.sub, self, other)

    def __rsub__(self, other):
        return self.tape.binary(operator.sub, other, self)

    def __mul__(self, other):
        return self.tape.binary(operator.mul, self, other)

    def __rmul__(self, other):
        return self.tape.binary(operator.mul, other, self)

    def __truediv__(self, other):
        if isinstance(other, Jet):  # self * _reciprocal(other)
            return Jet.__truediv__(self, other)
        return self.tape.binary(operator.truediv, self, other)

    def _analytic(self, terms, guard=None, name=None, p=None):
        return self.tape.analytic(self, terms, guard, name, p)


_UNSEEN = object()


def _record(f, zs):
    """F over the one-state jets ``zs``, run once over recordings of them;
    stores its program, or None, in their context's ``programs``."""
    n, tape = len(zs) // 2, _Tape(zs[0].ctx)
    seeds = [tape.write(z, None) for z in zs]
    out = f(seeds[:n], seeds[n:])
    tape.ctx.programs[f] = tape.program(seeds, out)
    tape.live = True  # a recording that F keeps writes nothing more
    return out.jet if isinstance(out, _Recording) else out


def jet_of(f, x, y, order, *, x_degree=None):
    """Evaluate a scalar-ring-generic f(x, y) over jets seeded at (x, y).

    The package's one derivative path: every jet of a function of the
    chart variables comes from here, and :func:`derivative_tensors` of the
    result gives its value and derivative tensors. ``(B, n)`` stacks of
    x and y evaluate f once over batched jets. ``x_degree`` computes f
    modulo x-degree above it (see :meth:`JetContext.x_truncated`). On one
    state it runs f's ring program, recorded on f's first call in the
    context (see the module docstring), unless f reads a base value.
    """
    zs = seed_variables(x, y, order, x_degree=x_degree)
    if zs[0].coeffs.ndim == 1:
        try:
            program = zs[0].ctx.programs.get(f, _UNSEEN)
        except TypeError:  # an F that takes no weak reference runs live
            program = None
        if program is _UNSEEN:
            return _record(f, zs)
        if program is not None:
            return program(zs)
    n = len(zs) // 2
    return f(zs[:n], zs[n:])
