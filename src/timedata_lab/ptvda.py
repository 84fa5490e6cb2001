"""Partitioned sort with complexity instrumentation and asymptotic-ratio
classification."""

from __future__ import annotations

import math
import random
import statistics
import time
from enum import Enum

from .errors import TINY, DomainError, listed, quotient, record, within, within_int

# Default asymptotic-ratio bound M.
DEFAULT_RATIO_BOUND = 1e6

# Largest probe size (criterion 10's top size); checked before any list is built.
MAX_PROBE_SIZE = 10 ** 6
MAX_PROBE_WORK = 10 * MAX_PROBE_SIZE  # elements sorted over all sizes and trials
_SIZES = f"probe sizes must be in [2, {MAX_PROBE_SIZE}]"
_WORK = f"probe work trials * sum(sizes) must be <= {MAX_PROBE_WORK}, got {{}}"

# Timings shorter than this are considered below clock resolution.
MIN_TIMABLE_S = 10 * time.get_clock_info("perf_counter").resolution


class SortInstance(record("SortInstance", "elements partitions", defaults=(1,))):
    __slots__ = ()

    def __init__(self, elements: list, partitions: int = 1):
        within_int(partitions, "partition count must be >= 1", 1, math.inf)
        try:
            size = len(elements)  # an iterator has none; the record would keep it spent
        except TypeError:
            raise DomainError(f"sort elements must be a list, got {elements!r}") from None
        within(partitions, "more partitions than elements", high=max(1, size))


class RatioClass(Enum):
    UNIT = "Unit"
    VANISHING = "Vanishing"
    DIVERGING = "Diverging"


# Measured sort timings (sizes: list[int], measured: {size: seconds}) with an
# a*n*log(n) + b least-squares fit; the fit is None when a timing is below clock
# resolution.
ComplexityProbe = record("ComplexityProbe",
                         "sizes measured fit_a fit_b fit_residual loglog_slope",
                         defaults=(None,) * 4)


def parallel_sort(instance: SortInstance) -> list:
    """Sort the instance's elements; the result is the same for every p.

    Splitting into p stably sorted partitions and merging them with ties
    going to the lower partition is exactly one stable sort of the whole
    list, so that is what runs. Sorting the partitions on threads would
    not be faster: the interpreter lock serialises them, and a merge in
    Python costs more than the sort it saves.
    """
    return sorted(instance.elements)


def classify_ratio(n, n_prime, m_bound: float = DEFAULT_RATIO_BOUND) -> RatioClass:
    """Classify the asymptotic ratio n/n' into {Unit, Vanishing, Diverging}.

    math.inf is the explicit infinity marker; finite ratios beyond m_bound
    (or below 1/m_bound) collapse to the corresponding limit class.
    """
    within(m_bound, "ratio bound must be positive", TINY, math.inf)
    if n == n_prime == math.inf:
        raise DomainError("both sizes infinite: ratio ambiguous")
    within(n, "n must be >= 1", 1, math.inf)
    within(n_prime, "n' must be >= 1", 1, math.inf)
    if n == math.inf:
        return RatioClass.DIVERGING
    if n_prime == math.inf:
        return RatioClass.VANISHING
    if n == n_prime:
        return RatioClass.UNIT
    # A ratio beyond the float range is refused: quotient keeps every other exact.
    if quotient(n, n_prime, "size ratio") > m_bound:
        return RatioClass.DIVERGING
    if quotient(n_prime, n, "size ratio") > m_bound:
        return RatioClass.VANISHING
    return RatioClass.UNIT


def scaling_probe(sizes: list[int], trials: int = 3,
                  seed: int | None = None) -> ComplexityProbe:
    """Time parallel_sort on random instances and fit the growth model.

    Fits elapsed ~ a*n*log(n) + b by least squares and reports the log-log
    slope; sub-quadratic growth shows as slope comfortably below 2. `sizes`
    may be an iterator, read once.
    """
    sizes = listed(sizes, "probe sizes")
    if len(sizes) < 2:
        raise DomainError("need at least 2 sizes for a fit")
    within_int(trials, "need at least 3 trials per size", 3, math.inf)
    for n in sizes:
        within_int(n, _SIZES, 2, MAX_PROBE_SIZE)
    for a, b in zip(sizes, sizes[1:]):
        within(b, "probe sizes must be strictly increasing", a + 1)
    within(trials * sum(sizes), _WORK, high=MAX_PROBE_WORK)
    rng = random.Random(seed)
    measured = {}
    for n in sizes:
        best = math.inf
        for _ in range(trials):
            data = [rng.random() for _ in range(n)]
            start = time.perf_counter()
            parallel_sort(SortInstance(data))
            best = min(best, time.perf_counter() - start)
        measured[n] = best
    if any(t < MIN_TIMABLE_S for t in measured.values()):
        return ComplexityProbe(sizes, measured)

    xs = [n * math.log(n) for n in sizes]
    ts = [measured[n] for n in sizes]
    fit_a, fit_b = statistics.linear_regression(xs, ts)
    residual = math.sqrt(statistics.fmean(
        (fit_a * x + fit_b - t) ** 2 for x, t in zip(xs, ts)))
    slope = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(t) for t in ts]).slope
    return ComplexityProbe(sizes, measured, fit_a, fit_b, residual, slope)
