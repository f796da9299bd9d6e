"""Snowflake and rug metrics as sampleable metric spaces.

A snowflake metric raises Euclidean distance on [0, 1] to a power in (0, 1],
which raises the space's dimension to the reciprocal of that power.  A rug is
a product of a first factor (snowflaked interval, or a curve model carrying
its ambient Euclidean metric) with [0, 1], under the max metric.

Every space gives ``within`` (the ball test the net counter decides with)
and ``reach`` (how far along axis 0 that ball can reach).  A snowflake's
ball on [0, 1] is the float test ``|v - c| < reach(r)`` itself, so the net
counter walks its sample; only the ``ArcFactor``, Euclidean on several
axes, is searched in the axis-0 slab of half-width ``reach``.  A grid sample
is a ``UnitGrid``: 2^resolution values of [0, 1] computed on demand, no
array.  Samples over ``DEFAULT_SAMPLE_BUDGET`` points are refused.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Snowflake exponent whose metric space matches the classical von Koch curve.
VON_KOCH_EXPONENT = math.log(3.0) / math.log(4.0)

DEFAULT_SAMPLE_BUDGET = 2 ** 21


def _check_budget(kind: str, resolution: int) -> None:
    """Refuse a 2^resolution-point sample over the budget before building it."""
    if resolution >= DEFAULT_SAMPLE_BUDGET.bit_length():  # 2^resolution > budget
        raise ValueError(f"{kind} sample of 2^{resolution} points exceeds the budget "
                         f"{DEFAULT_SAMPLE_BUDGET}")


class UnitGrid(Sequence):
    """The n = 2^resolution evenly spaced floats of [0, 1], ends included,
    computed on demand: item i is ``i * (1.0 / (n - 1))``.  That is numpy's
    ``linspace(0.0, 1.0, n)`` bit for bit: numpy multiplies ``arange(n)`` by
    the same step and then sets the last item to 1.0, which ``(2^g - 1) *
    (1.0 / (2^g - 1))`` already is.  A grid materialises as ``np.array(grid)``.

    A snowflake's ball about a grid point c holds exactly the v with
    ``|v - c| < reach``, one float comparison, and float subtraction is
    monotone.  So from a net point c the later points its ball covers come
    first and the rest follow, and a point an earlier net point's ball
    covers, c's covers too: the greedy net in grid order is a walk
    (``net_count``)."""

    __slots__ = ("_n", "_step")

    def __init__(self, resolution: int):
        if resolution < 0:
            raise ValueError(f"grid resolution must be non-negative, got {resolution}")
        self._n = n = 2 ** resolution
        self._step = 1.0 / (n - 1) if n > 1 else 0.0

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> float:
        if not 0 <= i < self._n:
            raise IndexError("grid index out of range")
        return i * self._step

    def net_count(self, reach: float) -> int:
        """Size of the greedy net in grid order under the balls ``|v - c| <
        reach``: from each net point c the next is the first later v with
        ``v - c < reach`` false, one bisection away.  A count at N net
        points costs O(N log n) and allocates nothing."""
        count, i, n = 0, 0, self._n
        while i < n:
            count += 1
            c = self[i]
            i = bisect_left(self, True, i + 1, key=lambda v: not v - c < reach)
        return count


@dataclass(frozen=True)
class SnowflakeMetric:
    """d(x, y) = |x - y|^exponent on [0, 1], exponent in (0, 1]."""

    exponent: float = VON_KOCH_EXPONENT

    def __post_init__(self):
        if not 0.0 < self.exponent <= 1.0:
            raise ValueError(f"snowflake exponent must lie in (0, 1], got {self.exponent}")

    @property
    def point_dimension(self) -> int:
        return 1

    def distance(self, x, y) -> float:
        # accepts scalars or length-1 point vectors
        if isinstance(x, (tuple, list, np.ndarray)):
            x = x[0]
        if isinstance(y, (tuple, list, np.ndarray)):
            y = y[0]
        return abs(float(x) - float(y)) ** self.exponent

    def within(self, points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
        # |x-y|^eps < r  iff  |x-y| < r^(1/eps); avoids a pow per point
        return np.abs(points[:, 0] - center[0]) < self.reach(r)

    def reach(self, r: float) -> float:
        """The axis-0 half-width: ``within(p, c, r)`` implies that the float
        ``|p_0 - c_0|`` is below ``reach(r)``."""
        try:
            return r ** (1.0 / self.exponent)
        except OverflowError:  # r > 1 to a huge power: the ball holds [0, 1]
            return math.inf

    def sample(self, resolution: int) -> UnitGrid:
        """2^resolution evenly spaced points of [0, 1], ends included."""
        _check_budget("snowflake", resolution)
        return UnitGrid(resolution)


@dataclass(frozen=True)
class EuclideanMetric:
    """Plain Euclidean metric on points in R^m."""

    point_dimension: int

    def distance(self, p, q) -> float:
        return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))

    def within(self, points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
        diff = points - center
        return np.einsum("ij,ij->i", diff, diff) < r * r

    def reach(self, r: float) -> float:
        # the float sum of squares is never below its axis-0 term
        return r


class ArcFactor:
    """A built curve model used as a rug's first factor, with its ambient
    Euclidean metric; samples are the model's vertex cloud."""

    def __init__(self, arc):
        self.arc = arc
        self.metric = EuclideanMetric(arc.ambient_dimension)

    @property
    def point_dimension(self) -> int:
        return self.arc.ambient_dimension

    def distance(self, p, q) -> float:
        return self.metric.distance(p, q)

    def within(self, points, center, r):
        return self.metric.within(points, center, r)

    def reach(self, r: float) -> float:
        return self.metric.reach(r)

    def sample(self, resolution: int) -> np.ndarray:
        k = min(resolution, self.arc.depth)
        return np.array(self.arc.vertex_cloud(k), dtype=float)


class RugSpace:
    """Product of a first factor with [0, 1] under the max metric.

    Points are flat float vectors: the factor coordinates followed by one
    second-factor coordinate.  ``sample`` lists the first factor's sample
    against a grid of [0, 1] in row-major order, the first factor's index
    varying slowest, and ``within`` is the AND of the two factors' ball
    tests, the second one being ``SnowflakeMetric(1.0).within`` on
    ``SnowflakeMetric(1.0).sample`` bit for bit (``r ** 1.0 == r``).  So
    the greedy net of the sample is the product of the factors' greedy
    nets: a row is either wholly covered by an earlier net row or holds
    exactly the grid's net.  That needs each factor's ball to contain its
    own centre, which holds while its cutoff (the reach, or r * r for a
    Euclidean first factor) does not underflow to 0.  ``factors`` hands out
    the two factor samples for that count; ``sample``, ``within`` and
    ``reach`` define the space and are what the count is checked against.
    """

    def __init__(self, first):
        self.first = first
        self.point_dimension = first.point_dimension + 1

    def distance(self, p, q) -> float:
        m = self.first.point_dimension
        return max(self.first.distance(p[:m], q[:m]),
                   abs(float(p[m]) - float(q[m])))

    def within(self, points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
        m = self.first.point_dimension
        first_near = self.first.within(points[:, :m], center[:m], r)
        return first_near & (np.abs(points[:, m] - center[m]) < r)

    def reach(self, r: float) -> float:
        return self.first.reach(r)

    def factors(self, resolution: int) -> list[tuple[object, Sequence]]:
        """``[(first, its sample), (SnowflakeMetric(1.0), its 2^resolution
        grid)]``, the factors whose row-major product is
        ``sample(resolution)``, refused as ``sample`` refuses: the product
        stays capped at the budget although it is never allocated.  A
        snowflake's sample is its ``UnitGrid``, an ``ArcFactor``'s a float
        array."""
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        _check_budget("rug", resolution)
        first = self.first.sample(resolution)
        interval = SnowflakeMetric(1.0)
        second = interval.sample(resolution)
        total = len(first) * len(second)
        if total > DEFAULT_SAMPLE_BUDGET:
            raise ValueError(f"rug sample of {total} points exceeds the budget "
                             f"{DEFAULT_SAMPLE_BUDGET}")
        return [(self.first, first), (interval, second)]

    def sample(self, resolution: int) -> np.ndarray:
        """Deterministic product sample: factor sample times a uniform grid of
        2^resolution second-factor values."""
        (_, first), (_, second) = self.factors(resolution)
        first = np.asarray(first, dtype=float).reshape(len(first), -1)
        second = np.array(second).reshape(-1, 1)
        return np.hstack([np.repeat(first, len(second), axis=0),
                          np.tile(second, (len(first), 1))])
