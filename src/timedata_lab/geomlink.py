"""Comlink plane geometry: slopes, segment lengths, shared-arc
bookkeeping, midpoint Riemann sums and planar kinematics."""

import itertools
import math
from collections.abc import Callable

from .errors import (LARGEST, TINY, DomainError, exact_ratio, finite, listed, ratio, record,
                     within, within_int)

FOLD_TOL = 1e-12
ARC_TOL = 1e-9
_LOG_BASE = "log base must be positive and != 1"
# Most cells in one midpoint sum; checked before any axis list is built.
MAX_GRID_CELLS = 10 ** 8


class Point2(record("Point2", "x y")):
    __slots__ = ()

    def __init__(self, x: float, y: float):
        finite(x, "point x")
        finite(y, "point y")


class ArcDecomposition(record("ArcDecomposition",
                              "total_ab ap_prime pb total_ba bp_prime pa_prime")):
    """Two decompositions of a pair of overlapping arcs sharing PP'."""

    __slots__ = ()

    def __init__(self, total_ab: float, ap_prime: float, pb: float,
                 total_ba: float, bp_prime: float, pa_prime: float):
        for value in self:
            within(value, "arc lengths must be nonnegative", 0.0)
        within(ap_prime + pb, "AB decomposition exceeds total arc length", high=total_ab)
        within(bp_prime + pa_prime, "BA decomposition exceeds total arc length", high=total_ba)


class PlanarMotion(record("PlanarMotion", "displacement t_s t_parallel_s")):
    __slots__ = ()

    def __init__(self, displacement: tuple[float, float], t_s: float, t_parallel_s: float):
        try:
            dx, dy = displacement
            len(displacement)  # an iterator has none; the record would keep it spent
        except (TypeError, ValueError):  # a number, an iterator, or not two parts
            raise DomainError(f"displacement must be (dx, dy), got {displacement!r}") from None
        for part in (dx, dy):
            within(part, "displacement must be finite, got {!r}")
        for value in (t_s, t_parallel_s):
            within(value, "motion times must be strictly positive", TINY)


def slope(p1: Point2, p2: Point2) -> float:
    """Segment slope (y2 - y1)/(x2 - x1); vertical segments are excluded. Where a
    difference leaves the float range, both are taken exactly."""
    if p2.x == p1.x:
        raise DomainError("slope undefined for vertical segment")
    dy, dx = p2.y - p1.y, p2.x - p1.x
    if math.inf in (abs(dy), abs(dx)):  # y2 - y1 = (c*b - a*d) / (b*d), x2 - x1 likewise
        (a, b), (c, d), (e, f), (g, h) = (v.as_integer_ratio() for v in (p1.y, p2.y, p1.x, p2.x))
        return exact_ratio((c * b - a * d, f * h), (b * d, g * f - e * h), "slope")
    return ratio((dy,), (dx,), "slope")


def segment_length(p1: Point2, p2: Point2) -> float:
    return finite(math.hypot(p2.x - p1.x, p2.y - p1.y), "segment length")


def shared_arc(d: ArcDecomposition) -> tuple[float, bool]:
    """Shared-arc length PP' from the AB decomposition, plus a flag saying
    whether the BA decomposition gives the same length."""
    l1 = d.total_ab - d.ap_prime - d.pb
    l2 = d.total_ba - d.bp_prime - d.pa_prime
    return (l1, abs(l1 - l2) <= ARC_TOL)


def _midpoint_sum(f: Callable[..., float], bounds: tuple[float, ...],
                  counts: tuple[int, ...]) -> float:
    """Midpoint-rule sum of f over the box bounds = (lo, hi, lo, hi, ...)
    with counts[i] cells along axis i, times the cell volume. The bounds may
    be an iterator, read once. Where fsum cannot add the values, f runs a second
    time over the grid, so that an error of its own passes through, and the finite
    values and the volume are taken exactly as Fractions (some microseconds a
    cell) and rounded once. Where a side hi - lo is past the float range (as floats it
    overflows; as ints or Fractions its step would not convert), each midpoint of its
    axis weighs lo and hi, and the volume is taken from the exact sides."""
    bounds = listed(bounds, "integration bounds")
    if len(bounds) != 2 * len(counts):
        raise DomainError(f"need {2 * len(counts)} bounds (lo, hi per axis), got {bounds!r}")
    for n in counts:
        within_int(n, "grid resolution must be >= 1", 1)
    within(math.prod(counts), f"grid must have <= {MAX_GRID_CELLS} cells", high=MAX_GRID_CELLS)
    for bound in bounds:
        within(bound, "integration bounds must be finite, got {!r}")
    lows, highs = bounds[::2], bounds[1::2]
    steps = [(hi - lo) / n if abs(hi - lo) <= LARGEST else math.inf
             for lo, hi, n in zip(lows, highs, counts)]
    if 0 in steps:
        return 0.0
    axes = [[lo + (i + 0.5) * h for i in range(n)] if abs(h) != math.inf else
            [lo * ((n - i - 0.5) / n) + hi * ((i + 0.5) / n) for i in range(n)]
            for lo, hi, h, n in zip(lows, highs, steps, counts)]
    if wide := math.inf in map(abs, steps):  # hi - lo overflows: every side taken exactly
        from fractions import Fraction  # imported at start, it would cost 3-4 ms
        steps = [(Fraction(hi) - Fraction(lo)) / n for lo, hi, n in zip(lows, highs, counts)]
    try:  # fsum rounds once, so the sum is the same on every Python version
        total = math.fsum(itertools.starmap(f, itertools.product(*axes)))
    except (OverflowError, TypeError, ValueError):  # f's own errors too: raised again below
        from fractions import Fraction  # imported at start, it would cost 3-4 ms
        total, infs = 0, 0.0  # finite values added exactly, infinite ones as floats
        for value in itertools.starmap(f, itertools.product(*axes)):
            if abs(within(value, "integral not a number: {!r}", -math.inf, math.inf)) == math.inf:
                infs += value  # nan for inf - inf
            else:
                total += Fraction(value)
        return exact_ratio((infs or total, *steps), (), "integral")
    return (exact_ratio if wide else ratio)((finite(total, "integral"), *steps), (), "integral")


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
    if within(t_s, _LOG_BASE, TINY) == 1:
        raise DomainError(_LOG_BASE)
    within(t_parallel_s, "parallel time must be positive", TINY)
    # A sum of logs, as the product t * t_parallel can underflow or overflow.
    value = (math.log(t_s) + math.log(t_parallel_s)) / math.log(t_s)
    return (value, abs(value - 2.0) <= FOLD_TOL)


def planar_kinematics(m: PlanarMotion) -> tuple[float, float, float]:
    """(v, a, v_sync) of a planar displacement over (t, t_parallel).

    v = |d|/t, a = |d|/(t*t_parallel); v_sync is the same speed law applied
    to the synchronization displacement, identical here by construction.
    |d| is rounded once, by hypot, and each quotient of it once more, past the
    normal floats as within them, so v can sit 1 ulp and a 2 ulps from their
    correctly rounded values: (5e-324, 5e-324) over 1e-300 s gives v =
    6.987143370513133e-24 for ...131e-24.
    """
    # |d| = h * 2**e: e the larger frexp exponent of the parts, h the hypot of the parts
    # scaled by 2**-e, and 2**e two normal factors of ratio's, so that |d| keeps the bits
    # of hypot(dx, dy) where that is a normal float, and is rounded once where it is not.
    e = max(math.frexp(part)[1] for part in m.displacement)
    length = (math.hypot(*(math.ldexp(part, -e) for part in m.displacement)),
              2.0 ** (e // 2), 2.0 ** (e - e // 2))
    v = ratio(length, (m.t_s,), "speed")
    return (v, ratio(length, (m.t_s, m.t_parallel_s), "acceleration"), v)
