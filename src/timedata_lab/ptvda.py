"""Partitioned sort with complexity instrumentation and asymptotic-ratio
classification."""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

# Default asymptotic-ratio bound M.
DEFAULT_RATIO_BOUND = 1e6

# Largest probe size (criterion 10's top size); checked before any list is built.
MAX_PROBE_SIZE = 10 ** 6

# Timings shorter than this are considered below clock resolution.
MIN_TIMABLE_S = 10 * time.get_clock_info("perf_counter").resolution


@dataclass(frozen=True)
class SortInstance:
    elements: list
    partitions: int = 1

    def __post_init__(self):
        if self.partitions < 1:
            raise DomainError("partition count must be >= 1")
        if self.partitions > max(1, len(self.elements)):
            raise DomainError("more partitions than elements")


class RatioClass(Enum):
    UNIT = "Unit"
    VANISHING = "Vanishing"
    DIVERGING = "Diverging"


@dataclass
class ComplexityProbe:
    """Measured sort timings with an a*n*log(n) + b least-squares fit; the
    fit stays None when a timing is below clock resolution."""

    sizes: list[int]
    measured: dict[int, float]
    fit_a: float | None = None
    fit_b: float | None = None
    fit_residual: float | None = None
    loglog_slope: float | None = None

    def __post_init__(self):
        if any(not 2 <= n <= MAX_PROBE_SIZE for n in self.sizes):
            raise DomainError(f"probe sizes must be in [2, {MAX_PROBE_SIZE}]")
        if any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise DomainError("probe sizes must be strictly increasing")


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
    # Each range check is written so that nan fails it.
    if not m_bound > 0:
        raise DomainError("ratio bound must be positive")
    n_inf = n == math.inf
    np_inf = n_prime == math.inf
    if n_inf and np_inf:
        raise DomainError("both sizes infinite: ratio ambiguous")
    if not n_inf and not n >= 1:
        raise DomainError("n must be >= 1")
    if not np_inf and not n_prime >= 1:
        raise DomainError("n' must be >= 1")
    if n_inf:
        return RatioClass.DIVERGING
    if np_inf:
        return RatioClass.VANISHING
    if n == n_prime:
        return RatioClass.UNIT
    if n / n_prime > m_bound:
        return RatioClass.DIVERGING
    if n_prime / n > m_bound:
        return RatioClass.VANISHING
    return RatioClass.UNIT


def scaling_probe(sizes: list[int], trials: int = 3,
                  seed: int | None = None) -> ComplexityProbe:
    """Time parallel_sort on random instances and fit the growth model.

    Fits elapsed ~ a*n*log(n) + b by least squares and reports the log-log
    slope; sub-quadratic growth shows as slope comfortably below 2.
    """
    if len(sizes) < 2:
        raise DomainError("need at least 2 sizes for a fit")
    if trials < 3:
        raise DomainError("need at least 3 trials per size")
    rng = random.Random(seed)

    probe = ComplexityProbe(sizes=list(sizes), measured={})
    for n in sizes:
        best = math.inf
        for _ in range(trials):
            data = [rng.random() for _ in range(n)]
            start = time.perf_counter()
            parallel_sort(SortInstance(data))
            best = min(best, time.perf_counter() - start)
        probe.measured[n] = best

    if any(t < MIN_TIMABLE_S for t in probe.measured.values()):
        return probe

    xs = [n * math.log(n) for n in sizes]
    ts = [probe.measured[n] for n in sizes]
    probe.fit_a, probe.fit_b = statistics.linear_regression(xs, ts)
    probe.fit_residual = math.sqrt(statistics.fmean(
        (probe.fit_a * x + probe.fit_b - t) ** 2 for x, t in zip(xs, ts)))
    probe.loglog_slope = statistics.linear_regression(
        [math.log(n) for n in sizes], [math.log(t) for t in ts]).slope
    return probe
