"""Deterministic low-discrepancy sampling.

All sampling is Halton-based with a fixed index offset so every run of the
library sees exactly the same points, which keeps test campaigns and CLI
reports reproducible bit for bit.

The Halton unit-cube rows of each (dim, offset) are drawn once, into a
read-only table that grows in blocks on demand; every entry equals
:func:`radical_inverse` at its index bit for bit. Points are mapped into
their box a block of rows at a time, then rejection-tested one by one in
index order, so a table-backed draw accepts the same points as a scalar
loop would and gives up after the same number of candidates. The unit
directions of each (count, n) are drawn once too.
"""

import functools
import math

import numpy as np

from . import errors
from .errors import DomainError, NumericError
from .metric import as_metric

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

HALTON_OFFSET = 20  # skip the early, badly equidistributed prefix
DIRECTION_OFFSET = 101  # decorrelate direction draws from point draws
MIN_RAW_DIRECTION = 0.3
_BLOCK = 256  # Halton rows mapped and tested per step; the least growth

# (dim, offset) -> read-only Halton rows, row k at index offset + k; a
# growth only appends rows, so every entry ever handed out stays valid
_TABLES = {}


def radical_inverse(i, base):
    inv = 0.0
    f = 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def _radical_inverses(i, base):
    """:func:`radical_inverse` of every entry of the index array ``i``, in
    the same operation order, so each entry equals the scalar value (0 for
    an index below 1)."""
    i = np.maximum(i, 0)
    inv = np.zeros(i.shape)
    f = 1.0 / base
    while i.any():
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def _halton_rows(dim, offset, stop):
    """The Halton table of (dim, offset), grown to at least ``stop`` rows."""
    if not 1 <= dim <= len(_PRIMES):
        raise DomainError(f"Halton sampling needs 1..{len(_PRIMES)} "
                          f"coordinates, got {dim}")
    table = _TABLES.get((dim, offset))
    have = 0 if table is None else len(table)
    if have < stop:
        size = max(stop, 2 * have, _BLOCK)
        idx = np.arange(offset + have, offset + size, dtype=np.int64)
        new = np.stack([_radical_inverses(idx, _PRIMES[c])
                        for c in range(dim)], axis=1)
        table = new if table is None else np.concatenate([table, new])
        table.setflags(write=False)
        _TABLES[dim, offset] = table
    return table


def _blocks(dim, offset):
    """Halton rows of (dim, offset) in index order, a block at a time."""
    start = 0
    while True:
        yield _halton_rows(dim, offset, start + _BLOCK)[start:start + _BLOCK]
        start += _BLOCK


def _box(box, n=None):
    """(lo, hi) of a sampling box as float vectors of one length, which
    must be ``n`` when given, with finite corners and a finite width
    ``hi - lo``."""
    box = errors.reals(box, "box corners")
    if box.ndim != 2 or len(box) != 2:
        raise DomainError(f"a sampling box needs two corners of one length, "
                          f"got {box.tolist()}")
    lo, hi = box
    if n is not None and lo.size != n:
        raise DomainError(f"a sampling box of {lo.size} coordinates for a "
                          f"{n}-dimensional metric")
    # a width is finite only between finite corners; as Python floats an
    # overflowing width is inf, without a warning
    if not all(math.isfinite(h - l) for l, h in zip(lo.tolist(), hi.tolist())):
        raise DomainError(f"a sampling box needs finite corners and width, "
                          f"got {box.tolist()}")
    return lo, hi


def points_in_domain(domain, count, box=None):
    """First ``count`` Halton points of the box that land inside ``domain``."""
    count = errors.count(count, 0, "count")
    lo, hi = _box(box if box is not None else domain.sample_box())
    limit = 1000 * count + 1000
    blocks = _blocks(lo.size, HALTON_OFFSET)
    pts = []
    tried = 0
    while len(pts) < count:
        for x in lo + next(blocks) * (hi - lo):
            if domain.contains(x):
                pts.append(x)
            tried += 1
            if tried > limit:
                raise NumericError("domain rejection rate too high for sampling box")
            if len(pts) == count:
                break
    return np.array(pts)


@functools.lru_cache(maxsize=64)
def _directions(count, n):
    blocks = _blocks(n, DIRECTION_OFFSET)
    dirs = []
    while len(dirs) < count:
        for v in 2.0 * next(blocks) - 1.0:
            r = np.linalg.norm(v)
            if r >= MIN_RAW_DIRECTION:
                dirs.append(v / r)
                if len(dirs) == count:
                    break
    V = np.array(dirs)
    V.setflags(write=False)
    return V


def directions(count, n):
    """Euclidean-unit directions, rejection-sampled away from the cube center.

    Drawn once per (count, n); each call returns a writable copy.
    """
    count = errors.count(count, 0, "count")
    n = errors.count(n, 1, "n")
    return _directions(count, n).copy()


def state_pairs(metric, count, box=None):
    """Deterministic (point, unit direction) pairs inside the metric's domain."""
    as_metric(metric)
    if box is not None:
        box = _box(box, metric.n)
    xs = points_in_domain(metric.domain, count, box=box)
    ys = directions(count, metric.n)
    return list(zip(xs, ys))


def _stacked(pairs):
    """State pairs as the (B, n) stacks X, Y that batched entries take."""
    return tuple(np.array(v) for v in zip(*pairs))


class _JointDomain:
    """Intersection of two domains, for sampling metric pairs."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def contains(self, x):
        return self.a.contains(x) and self.b.contains(x)


def joint_state_pairs(metric_a, metric_b, count, box=None):
    """State pairs landing inside both metrics' domains (boxes intersected)."""
    if as_metric(metric_a).n != as_metric(metric_b).n:
        raise DomainError(f"{metric_a.name} is {metric_a.n}-dimensional and "
                          f"{metric_b.name} {metric_b.n}-dimensional")
    if box is None:
        lo_a, hi_a = metric_a.domain.sample_box()
        lo_b, hi_b = metric_b.domain.sample_box()
        lo = np.maximum(np.asarray(lo_a, dtype=float),
                        np.asarray(lo_b, dtype=float))
        hi = np.minimum(np.asarray(hi_a, dtype=float),
                        np.asarray(hi_b, dtype=float))
        if np.any(lo >= hi):
            raise NumericError("metric domains have no common sampling box")
        box = (lo, hi)
    box = _box(box, metric_a.n)
    joint = _JointDomain(metric_a.domain, metric_b.domain)
    xs = points_in_domain(joint, count, box=box)
    ys = directions(count, metric_a.n)
    return list(zip(xs, ys))


# perfbench counts and patches this name; nothing in the package calls it
def pmap(fn, items):
    """Order-preserving serial map: ``[fn(it) for it in items]``."""
    return [fn(it) for it in items]
