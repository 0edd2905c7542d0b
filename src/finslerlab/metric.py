"""Metric containers and the chart-local domains they live on.

Everything is chart-local: a metric is a scalar function F(x, y) on an
open subset of R^n times R^n \\ {0}, written against the shared scalar
ring of :mod:`finslerlab.jets` so the same definition evaluates on floats
and on jets.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import jets as jr
from .errors import DegenerateDirectionError, DomainError

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
    box_halfwidth: float = 1.5

    def signed(self, x):
        return -1.0

    def contains(self, x):
        return True

    def sample_box(self):
        h = self.box_halfwidth
        return -h * np.ones(self.n), h * np.ones(self.n)


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
    """Interior of a smooth convex body given by a level function phi < 0."""

    phi: Callable
    bbox_lo: np.ndarray
    bbox_hi: np.ndarray
    shrink: float = 0.7

    def signed(self, x):
        return float(self.phi(np.asarray(x, dtype=float).tolist()))

    def sample_box(self):
        center = 0.5 * (self.bbox_lo + self.bbox_hi)
        half = 0.5 * (self.bbox_hi - self.bbox_lo)
        return center - self.shrink * half, center + self.shrink * half


@dataclass(frozen=True)
class ParaboloidInterior(Domain):
    """Points above the graph x_n = sum of squares of the other coordinates."""

    n: int

    def signed(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.dot(x[:-1], x[:-1]) - x[-1])

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

    ``F`` must accept sequences of ring scalars (floats or jets) for both
    arguments and combine them only through ring operations, so jet
    evaluation yields exact derivatives.
    """

    n: int
    F: Callable
    domain: Domain
    name: str
    einstein_constant: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise DomainError(f"dimension {self.n} outside 1..{MAX_DIM}")

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.size != self.n:
            raise DomainError(f"{self.name}: point has size {x.size}, expected {self.n}")
        if not self.domain.contains(x):
            raise DomainError(f"{self.name}: point {x.tolist()} outside domain")
        return x

    def check_direction(self, y):
        y = np.asarray(y, dtype=float)
        if y.size != self.n:
            raise DomainError(
                f"{self.name}: direction has size {y.size}, expected {self.n}"
            )
        if _norm(y) <= MIN_DIRECTION_NORM:
            raise DegenerateDirectionError(f"{self.name}: |y| below {MIN_DIRECTION_NORM}")
        return y

    def __call__(self, x, y):
        """Validated float evaluation."""
        x = self.check_point(x)
        y = self.check_direction(y)
        return float(self.F(x.tolist(), y.tolist()))

    def check_state(self, x, y):
        """(x, y) validated, as float arrays.

        ``(B, n)`` stacks of points and directions are validated row by
        row, and the first bad row fails the batch.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.ndim == 2 and y.ndim == 2 and x.shape[0] == y.shape[0]:
            for xi, yi in zip(x, y):
                self.check_point(xi)
                self.check_direction(yi)
            return x, y
        return self.check_point(x), self.check_direction(y)

    def value_jet(self, x, y, order):
        """F over jets seeded at a validated (x, y): the metric's entry to
        :func:`finslerlab.jets.jet_of`. Square the jet for Q = F^2.

        ``(B, n)`` stacks of points and directions give one batched jet;
        see :meth:`check_state`.
        """
        x, y = self.check_state(x, y)
        return jr.jet_of(self.F, x, y, order)
