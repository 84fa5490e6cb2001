"""Comlink plane geometry: slopes, segment lengths, shared-arc
bookkeeping, midpoint Riemann sums and planar kinematics."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError

FOLD_TOL = 1e-12
ARC_TOL = 1e-9


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("point coordinates must be finite")


@dataclass(frozen=True)
class ArcDecomposition:
    """Two decompositions of a pair of overlapping arcs sharing PP'."""

    total_ab: float
    ap_prime: float
    pb: float
    total_ba: float
    bp_prime: float
    pa_prime: float

    def __post_init__(self):
        if min(self.total_ab, self.ap_prime, self.pb,
               self.total_ba, self.bp_prime, self.pa_prime) < 0:
            raise DomainError("arc lengths must be nonnegative")
        if self.ap_prime + self.pb > self.total_ab:
            raise DomainError("AB decomposition exceeds total arc length")
        if self.bp_prime + self.pa_prime > self.total_ba:
            raise DomainError("BA decomposition exceeds total arc length")


@dataclass(frozen=True)
class PlanarMotion:
    displacement: tuple[float, float]
    t_s: float
    t_parallel_s: float

    def __post_init__(self):
        if self.t_s <= 0 or self.t_parallel_s <= 0:
            raise DomainError("motion times must be strictly positive")


def slope(p1: Point2, p2: Point2) -> float:
    """Segment slope (y2 - y1)/(x2 - x1); vertical segments are excluded."""
    if p2.x == p1.x:
        raise DomainError("slope undefined for vertical segment")
    return (p2.y - p1.y) / (p2.x - p1.x)


def segment_length(p1: Point2, p2: Point2) -> float:
    return math.hypot(p2.x - p1.x, p2.y - p1.y)


def shared_arc(d: ArcDecomposition) -> tuple[float, bool]:
    """Shared-arc length PP' from the AB decomposition, plus a flag saying
    whether the BA decomposition gives the same length."""
    l1 = d.total_ab - d.ap_prime - d.pb
    l2 = d.total_ba - d.bp_prime - d.pa_prime
    return (l1, abs(l1 - l2) <= ARC_TOL)


def _midpoint_sum(f: Callable[..., float], bounds: tuple[float, ...],
                  counts: tuple[int, ...]) -> float:
    """Midpoint-rule sum of f over the box bounds = (lo, hi, lo, hi, ...)
    with counts[i] cells along axis i, times the cell volume."""
    if min(counts) < 1:
        raise DomainError("grid resolution must be >= 1")
    lows = bounds[::2]
    steps = [(hi - lo) / n for lo, hi, n in zip(lows, bounds[1::2], counts, strict=True)]
    if 0 in steps:
        return 0.0
    axes = [[lo + (i + 0.5) * h for i in range(n)] for lo, h, n in zip(lows, steps, counts)]
    return math.prod(steps, start=sum(itertools.starmap(f, itertools.product(*axes))))


def riemann_area(f: Callable[[float, float], float],
                 domain: tuple[float, float, float, float],
                 m: int, n: int) -> float:
    """Midpoint-rule double sum of f over [x0,x1] x [y0,y1] on an m*n grid."""
    return _midpoint_sum(f, domain, (m, n))


def triple_integral(f: Callable[[float, float, float], float],
                    region: tuple[float, float, float, float, float, float],
                    mx: int, my: int, mt: int) -> float:
    """Midpoint-rule triple sum of f(x, y, t) over an axis-aligned box."""
    return _midpoint_sum(f, region, (mx, my, mt))


def time_split_check(t_s: float, t_parallel_s: float) -> tuple[float, bool]:
    """Base-t logarithm of t * t_parallel and whether it hits the fold
    value 2 (which happens exactly when t_parallel equals t)."""
    if t_s <= 0 or t_s == 1:
        raise DomainError("log base must be positive and != 1")
    if t_parallel_s <= 0:
        raise DomainError("parallel time must be positive")
    # A sum of logs, as the product t * t_parallel can underflow or overflow.
    value = (math.log(t_s) + math.log(t_parallel_s)) / math.log(t_s)
    return (value, abs(value - 2.0) <= FOLD_TOL)


def planar_kinematics(m: PlanarMotion) -> tuple[float, float, float]:
    """(v, a, v_sync) of a planar displacement over (t, t_parallel).

    v = |d|/t, a = |d|/(t*t_parallel); v_sync is the same speed law applied
    to the synchronization displacement, identical here by construction.
    """
    d = math.hypot(*m.displacement)
    v = d / m.t_s
    a = d / (m.t_s * m.t_parallel_s)
    return (v, a, v)
