"""Deterministic low-discrepancy sampling.

All sampling is Halton-based with a fixed index offset so every run of the
library sees exactly the same points, which keeps test campaigns and CLI
reports reproducible bit for bit.
"""

import numpy as np

from .errors import DomainError, NumericError

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

HALTON_OFFSET = 20  # skip the early, badly equidistributed prefix
DIRECTION_OFFSET = 101  # decorrelate direction draws from point draws
MIN_RAW_DIRECTION = 0.3


def radical_inverse(i, base):
    inv = 0.0
    f = 1.0 / base
    while i > 0:
        inv += f * (i % base)
        i //= base
        f /= base
    return inv


def points_in_domain(domain, count, box=None, offset=HALTON_OFFSET):
    """First ``count`` Halton points of the box that land inside ``domain``."""
    lo, hi = box if box is not None else domain.sample_box()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    dim = lo.size
    pts = []
    i = offset
    tried = 0
    while len(pts) < count:
        u = np.array([radical_inverse(i, _PRIMES[c]) for c in range(dim)])
        x = lo + u * (hi - lo)
        if domain.contains(x):
            pts.append(x)
        i += 1
        tried += 1
        if tried > 1000 * count + 1000:
            raise NumericError("domain rejection rate too high for sampling box")
    return np.array(pts)


def directions(count, n, offset=DIRECTION_OFFSET):
    """Euclidean-unit directions, rejection-sampled away from the cube center."""
    if n < 1 or count < 0:
        raise DomainError(f"directions needs n >= 1 and count >= 0, "
                          f"got n = {n}, count = {count}")
    dirs = []
    i = offset
    while len(dirs) < count:
        u = np.array([radical_inverse(i, _PRIMES[c]) for c in range(n)])
        v = 2.0 * u - 1.0
        r = np.linalg.norm(v)
        if r >= MIN_RAW_DIRECTION:
            dirs.append(v / r)
        i += 1
    return np.array(dirs)


def state_pairs(metric, count, box=None):
    """Deterministic (point, unit direction) pairs inside the metric's domain."""
    xs = points_in_domain(metric.domain, count, box=box)
    ys = directions(count, metric.n)
    return list(zip(xs, ys))


class _JointDomain:
    """Intersection of two domains, for sampling metric pairs."""

    def __init__(self, a, b):
        self.a, self.b = a, b

    def contains(self, x):
        return self.a.contains(x) and self.b.contains(x)


def joint_state_pairs(metric_a, metric_b, count, box=None):
    """State pairs landing inside both metrics' domains (boxes intersected)."""
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
    joint = _JointDomain(metric_a.domain, metric_b.domain)
    xs = points_in_domain(joint, count, box=box)
    ys = directions(count, metric_a.n)
    return list(zip(xs, ys))


# perfbench counts and patches this name; nothing in the package calls it
def pmap(fn, items):
    """Order-preserving serial map: ``[fn(it) for it in items]``."""
    return [fn(it) for it in items]
