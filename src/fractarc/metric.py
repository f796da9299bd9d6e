"""Snowflake and rug metrics as sampleable metric spaces.

A snowflake metric raises Euclidean distance on [0, 1] to a power in (0, 1],
which raises the space's dimension to the reciprocal of that power.  A rug is
a product of a first factor (snowflaked interval, or a curve model carrying
its ambient Euclidean metric) with [0, 1], under the max metric.

Every space gives ``within`` (the ball test the net counter decides with)
and ``reach`` (per-axis bounds on where that ball can reach, which the net
counter buckets on).  Grid samples hold 2^resolution values per axis and are
refused before allocation when that exceeds ``DEFAULT_SAMPLE_BUDGET``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Snowflake exponent whose metric space matches the classical von Koch curve.
VON_KOCH_EXPONENT = math.log(3.0) / math.log(4.0)

DEFAULT_SAMPLE_BUDGET = 2 ** 21


def _check_budget(kind: str, resolution: int, budget: int) -> None:
    """Refuse a 2^resolution-point grid over the budget before allocating it."""
    if resolution >= budget.bit_length():  # 2^resolution > budget
        raise ValueError(f"{kind} sample of 2^{resolution} points exceeds the budget {budget}")


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
        cutoff = self.reach(r)[0]
        return np.abs(points[:, 0] - center[0]) < cutoff

    def reach(self, r: float) -> list[float]:
        """Per-axis half-widths: ``within(p, c, r)`` implies
        ``|p_k - c_k| < reach(r)[k]`` on every axis."""
        return [r ** (1.0 / self.exponent)]

    def sample(self, resolution: int) -> np.ndarray:
        """2^resolution evenly spaced points of [0, 1], ends included."""
        _check_budget("snowflake", resolution, DEFAULT_SAMPLE_BUDGET)
        return np.linspace(0.0, 1.0, 2 ** resolution).reshape(-1, 1)


@dataclass(frozen=True)
class EuclideanMetric:
    """Plain Euclidean metric on points in R^m."""

    point_dimension: int

    def distance(self, p, q) -> float:
        return math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(p, q)))

    def within(self, points: np.ndarray, center: np.ndarray, r: float) -> np.ndarray:
        diff = points - center
        return np.einsum("ij,ij->i", diff, diff) < r * r

    def reach(self, r: float) -> list[float]:
        return [r] * self.point_dimension


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

    def reach(self, r: float) -> list[float]:
        return self.metric.reach(r)

    def sample(self, resolution: int) -> np.ndarray:
        k = min(resolution, self.arc.depth)
        return self.arc.vertex_cloud(k)


class RugSpace:
    """Product of a first factor with [0, 1] under the max metric.

    Points are flat float vectors: the factor coordinates followed by one
    second-factor coordinate.
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

    def reach(self, r: float) -> list[float]:
        return self.first.reach(r) + [r]

    def sample(self, resolution: int) -> np.ndarray:
        """Deterministic product sample: factor sample times a uniform grid of
        2^resolution second-factor values."""
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        _check_budget("rug", resolution, DEFAULT_SAMPLE_BUDGET)
        first = np.asarray(self.first.sample(resolution), dtype=float)
        second = np.linspace(0.0, 1.0, 2 ** resolution)
        total = first.shape[0] * second.shape[0]
        if total > DEFAULT_SAMPLE_BUDGET:
            raise ValueError(f"rug sample of {total} points exceeds the budget "
                             f"{DEFAULT_SAMPLE_BUDGET}")
        reps = np.repeat(first, second.shape[0], axis=0)
        tile = np.tile(second, first.shape[0]).reshape(-1, 1)
        return np.hstack([reps, tile])
