"""Metric containers and the chart-local domains they live on.

Everything is chart-local: a metric is a scalar function F(x, y) on an
open subset of R^n times R^n \\ {0}, written against the shared scalar
ring of :mod:`finslerlab.jets` so the same definition evaluates on floats
and on jets.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateDirectionError, DomainError, NumericError,
                     count, first_bad, kind, states)

MAX_DIM = 8
MIN_DIRECTION_NORM = 1e-12


def dot(u, v):
    """Ring-generic inner product of two coordinate sequences."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


def norm_sq(u):
    return dot(u, u)


def _norm(v):
    """Euclidean norm of a float array, as ``np.linalg.norm`` computes it
    (the square root of ``v.dot(v)`` over the flattened entries) at a
    fraction of its fixed cost."""
    v = v.ravel()
    return math.sqrt(v.dot(v))


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Containment predicate with a signed inside/outside hint (< 0 inside)."""

    def contains(self, x):
        return self.signed(x) < 0.0

    def signed(self, x):
        raise NotImplementedError

    def sample_box(self):
        """Default axis-aligned box the Halton sampler draws from."""
        raise NotImplementedError


@dataclass(frozen=True)
class FullSpace(Domain):
    n: int

    def signed(self, x):
        return -1.0

    def sample_box(self):
        return -1.5 * np.ones(self.n), 1.5 * np.ones(self.n)


@dataclass(frozen=True)
class UnitBall(Domain):
    n: int

    def signed(self, x):
        return _norm(np.asarray(x, dtype=float)) - 1.0

    def sample_box(self):
        # corners stay interior: |x| <= 0.8 over the whole box
        h = 0.8 / np.sqrt(self.n)
        return -h * np.ones(self.n), h * np.ones(self.n)


@dataclass(frozen=True)
class ConvexInterior(Domain):
    """Interior of a smooth convex body given by a level function phi < 0;
    its sample box is the bounding box shrunk to 0.7 about its center."""

    phi: Callable
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray

    def signed(self, x):
        try:
            return float(self.phi(np.asarray(x, dtype=float).tolist()))
        except OverflowError:  # a Python-float power past the float range
            return math.inf

    def sample_box(self):
        center = 0.5 * (self.bbox_lo + self.bbox_hi)
        half = 0.5 * (self.bbox_hi - self.bbox_lo)
        return center - 0.7 * half, center + 0.7 * half


@dataclass(frozen=True)
class ParaboloidInterior(Domain):
    """Points above the graph x_n = sum of squares of the other coordinates."""

    n: int

    def signed(self, x):
        # on Python floats an overflow (inf) does not warn
        *head, last = np.asarray(x, dtype=float).tolist()
        return norm_sq(head) - last

    def sample_box(self):
        lo = np.full(self.n, -0.55)
        hi = np.full(self.n, 0.55)
        lo[-1], hi[-1] = 0.45, 2.0  # vertical slab; rejection trims the rest
        return lo, hi


# ---------------------------------------------------------------------------
# the metric container


@dataclass(frozen=True)
class FinslerMetric:
    """A chart-local Finsler metric F(x, y).

    ``F`` must accept sequences of ring scalars (floats, jets or arrays of
    one float per state) for both arguments and combine them only through
    ring operations, so jet evaluation yields exact derivatives. It is a
    pure ring program of its arguments: it reads nothing that changes
    between calls and catches no error of a ring operation, since
    ``jets.jet_of`` records its operations once per jet context and
    replays them on later one-state calls. An F that reads a jet's base
    value (``value``, ``coeffs``, ``jets.base_value`` or ``jets.where``) to
    branch on it is run live on every call instead.
    """

    n: int
    F: Callable
    domain: Domain
    name: str
    einstein_constant: Optional[float] = None

    def __post_init__(self):
        if not 1 <= count(self.n, 0, "dimension") <= MAX_DIM:
            raise DomainError(f"dimension {self.n} outside 1..{MAX_DIM}")

    def __call__(self, x, y):
        """Validated float evaluation: F at one state, or one F per row of
        ``(B, n)`` stacks of points and directions. An F that is not finite
        and positive (a cancellation's square root of a negative, say)
        raises NumericError naming the first such state, not a warning."""
        x, y = self.check_state(x, y)
        with np.errstate(invalid="ignore"):
            f = (np.float64(self.F(x.tolist(), y.tolist())) if x.ndim == 1
                 else np.asarray(self.F(list(x.T), list(y.T)), dtype=float))
        bad = ~((f > 0.0) & (f < math.inf))  # a NaN F too
        if bad.any():
            z, where = first_bad(bad, np.concatenate([x, y, f[..., None]], -1))
            raise NumericError(
                f"{self.name}: F = {z[-1]} at x = {z[:self.n].tolist()}, "
                f"y = {z[self.n:-1].tolist()}{where}, not finite and positive")
        return float(f) if x.ndim == 1 else f

    def check_state(self, x, y):
        """(x, y) by :func:`errors.states`, then checked in turn, each check
        once over the stack and naming the first state it fails: DomainError
        for another dimension, then for a point outside the domain (only
        ``domain.contains`` runs per row), then DomainError for an overflowing
        |y|^2 or DegenerateDirectionError for |y| too small."""
        x, y = states(x, y)
        if x.shape[-1] != self.n:
            raise DomainError(f"{self.name}: states of shape {x.shape}, n = {self.n}")
        inside = list(map(self.domain.contains, x if x.ndim == 2 else (x,)))
        if not all(inside):
            p, where = first_bad(~np.reshape(inside, x.shape[:-1]), x)
            raise DomainError(f"{self.name}: point {p.tolist()} outside domain{where}")
        # |y|^2, inf where it overflows (and F would too): Python floats, the
        # cheaper for one state, and einsum give that inf without a warning
        sq = (np.float64(sum(v * v for v in y.tolist())) if y.ndim == 1
              else np.einsum("...i,...i->...", y, y))
        hit = first_bad((sq <= MIN_DIRECTION_NORM**2) | (sq == math.inf), sq)
        if hit:
            error = DomainError if hit[0] == math.inf else DegenerateDirectionError
            raise error(f"{self.name}: |y|^2 = {hit[0]:g}, not in "
                        f"({MIN_DIRECTION_NORM**2:g}, inf){hit[1]}")
        return x, y


def as_metric(value):
    """``value`` if it is a :class:`FinslerMetric`, else DomainError: the
    one check of a metric argument."""
    return kind(value, FinslerMetric, "a FinslerMetric")
