"""Partitioned sort with complexity instrumentation and asymptotic-ratio
classification."""

import math
import operator
import time
from collections import Counter
from itertools import chain, repeat

from .errors import TINY, DomainError, listed, ratio, record, within, within_int

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


# Measured sort timings ({size: best seconds}, in the order the sizes were given)
# and their log-log slope, None when a timing is below clock resolution.
ComplexityProbe = record("ComplexityProbe", "measured loglog_slope", defaults=(None,))


def parallel_sort(instance: SortInstance) -> list:
    """Sort the instance's elements; the result is the same for every p.

    Splitting into p stably sorted partitions and merging them with ties
    going to the lower partition is exactly one stable sort of the whole
    list, so that is what runs. Sorting the partitions on threads would
    not be faster: the interpreter lock serialises them, and a merge in
    Python costs more than the sort it saves. Elements that do not order
    against each other (1 and "a", None and None, an array and 1) raise
    DomainError, as does nan, which compares false with everything, so that no
    order holds around it. The elements are scanned for nan only where their sum is nan (a nan, or
    inf beside -inf) or cannot be taken as a float; elements that do not add
    (text, Decimals) are not scanned, and sorted() signals a Decimal nan.

    A list of exact str whose every 16th element holds at most half as many
    distinct texts as elements (HH:MM:SS clocks take at most 86,400 values) is
    sorted by counting: each distinct text is sorted once and repeated by its
    count. The result equals sorted()'s, but equal texts come back as one
    object, the first seen. The gate decides only the speed; it costs text
    with few repeats 1-3%.
    """
    elements = instance.elements
    try:
        total = sum(elements, 0.0)  # a float, so that Fractions add in constant time
    except (TypeError, ValueError):  # text, which holds no nan, or arrays of other shapes
        sample = elements[::16] if type(elements) is list else ()  # Counter reads a dict's counts
        # The sample's types are read before its texts are hashed, so that an unhashable
        # element goes on to sorted(), and every element's before any is counted, so
        # that a str subclass is never merged with an equal str.
        if ({str} == set(map(type, sample)) and 2 * len(set(sample)) <= len(sample)
                and list(map(type, elements)).count(str) == len(elements)):
            counts = Counter(elements)
            keys = sorted(counts)
            return list(chain.from_iterable(map(repeat, keys, map(counts.__getitem__, keys))))
        total = 0
    except OverflowError:  # an int beyond the float range beside a float
        total = math.nan
    # x != x is math.isnan(x) for a float, and false for any int, which isnan
    # cannot take beyond the float range.
    try:
        if total != total and any(map(operator.ne, elements, elements)):
            raise ArithmeticError  # a float nan, around which sorted() would not fail
        return sorted(elements)
    except (TypeError, ValueError) as exc:  # ValueError: an array asked for its truth
        raise DomainError(f"sort elements do not order: {exc}") from None
    except ArithmeticError:  # decimal.InvalidOperation too: a Decimal nan ordered
        raise DomainError("sort elements hold nan, which orders against nothing") from None


def classify_ratio(n, n_prime, m_bound: float = DEFAULT_RATIO_BOUND) -> str:
    """Classify the asymptotic ratio n/n' as "Unit", "Vanishing" or "Diverging".

    math.inf is the explicit infinity marker; finite ratios beyond m_bound
    (or below 1/m_bound) collapse to the corresponding limit class.
    """
    within(m_bound, "ratio bound must be positive", TINY, math.inf)
    within(n, "n must be >= 1", 1, math.inf)
    within(n_prime, "n' must be >= 1", 1, math.inf)
    if n == n_prime == math.inf:
        raise DomainError("both sizes infinite: ratio ambiguous")
    if n == math.inf:
        return "Diverging"
    if n_prime == math.inf:
        return "Vanishing"
    if n == n_prime:
        return "Unit"
    if ratio((n,), (n_prime,), "size ratio") > m_bound:
        return "Diverging"
    if ratio((n_prime,), (n,), "size ratio") > m_bound:
        return "Vanishing"
    return "Unit"


def scaling_probe(sizes: list[int], trials: int = 3,
                  seed: int | None = None) -> ComplexityProbe:
    """Time parallel_sort on random instances and report the growth exponent.

    The slope is the least-squares fit of log(time) on log(size): about 1
    for n log n growth, 2 for quadratic. `sizes` may be an iterator, read
    once.
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
    import random, statistics  # imported at start, sort run and classify would pay 4-5 ms
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
        return ComplexityProbe(measured)
    return ComplexityProbe(measured, statistics.linear_regression(
        [math.log(n) for n in measured], [math.log(t) for t in measured.values()]).slope)
