import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import ptvda
from timedata_lab.errors import DomainError
from timedata_lab.ptvda import SortInstance


class S(str):
    pass


@st.composite
def _repeated_text(draw):
    pool = draw(st.lists(st.text(max_size=3), min_size=1, max_size=5))
    data = draw(st.lists(st.sampled_from(pool), min_size=32, max_size=200))
    return data + [S(text) for text in draw(st.lists(st.sampled_from(pool), max_size=2))]


class TestParallelSort:
    def test_empty(self):
        assert ptvda.parallel_sort(SortInstance([], 1)) == []

    def test_sequential_degenerate(self):
        assert ptvda.parallel_sort(SortInstance([3, 1, 2], 1)) == [1, 2, 3]

    def test_matches_oracle_random(self):
        rng = random.Random(0)
        data = [rng.uniform(0, 1) for _ in range(1000)]
        assert ptvda.parallel_sort(SortInstance(data, 4)) == sorted(data)

    def test_partition_count_independence(self):
        rng = random.Random(1)
        data = [rng.randint(0, 50) for _ in range(500)]
        results = {p: ptvda.parallel_sort(SortInstance(data, p))
                   for p in (1, 2, 4, 8)}
        assert all(r == results[1] for r in results.values())

    def test_multiset_preserved(self):
        rng = random.Random(2)
        data = [rng.randint(0, 9) for _ in range(300)]
        out = ptvda.parallel_sort(SortInstance(data, 4))
        assert sorted(data) == out

    def test_identical_keys(self):
        assert ptvda.parallel_sort(SortInstance([7] * 100, 8)) == [7] * 100

    # nan orders against nothing, so no result is sorted around it; an int beyond
    # the float range beside a float leaves the sum no float, and is scanned too. A
    # Decimal adds to no float, so is not scanned: a Decimal nan signals when sorted.
    @pytest.mark.parametrize("elements", [
        [3.0, math.nan, 1.0, 2.0], [math.nan], [math.inf, -math.inf, math.nan],
        [10 ** 400, 1.5, math.nan], [Fraction(1, 3), math.nan],
        [Decimal("NaN"), Decimal(1)], [Decimal(1), math.nan, 2.0],
        [Decimal("NaN")] + [Decimal(1)] * 50])
    def test_nan_refused(self, elements):
        with pytest.raises(DomainError, match="^sort elements hold nan, which orders "
                                              "against nothing$"):
            ptvda.parallel_sort(SortInstance(elements, 1))

    # inf and -inf sum to nan, but order; text adds to nothing and is not scanned, nor
    # are repeated lists, which are not counted, as they do not hash.
    @pytest.mark.parametrize("elements,expected", [
        ([math.inf, -math.inf, 1.0], [-math.inf, 1.0, math.inf]),
        ([10 ** 400, 1.5], [1.5, 10 ** 400]),
        (["nan", "10:00:00", "09:59:59"], ["09:59:59", "10:00:00", "nan"]),
        ([[1], [0]] * 50, [[0]] * 50 + [[1]] * 50)])
    def test_elements_that_sum_to_no_float_sorted(self, elements, expected):
        assert ptvda.parallel_sort(SortInstance(elements, 1)) == expected

    @pytest.mark.parametrize("elements", [[1, "a"], [None, None], [1, "a"] * 50, [None] * 100])
    def test_elements_that_do_not_order_refused(self, elements):
        with pytest.raises(DomainError, match="^sort elements do not order: "):
            ptvda.parallel_sort(SortInstance(elements, 1))

    # Text with many repeats is sorted by counting, text with few by sorted(); either
    # gives sorted()'s list, element types included, as a new list. A str subclass
    # equal to a str in the list keeps the list off the counting path.
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(_repeated_text(), st.lists(st.text(), unique=True, max_size=200)))
    def test_text_equals_sorted(self, data):
        out = ptvda.parallel_sort(SortInstance(data, 1))
        expected = sorted(data)
        assert out == expected and out is not data
        assert list(map(type, out)) == list(map(type, expected))

    def test_repeated_text_comes_back_as_the_first_object_seen(self):
        data = ["".join(("10:", f"{i % 2:02d}", ":00")) for i in range(100)]
        out = ptvda.parallel_sort(SortInstance(data, 1))
        assert out == sorted(data)
        assert [id(x) for x in out] == [id(data[0])] * 50 + [id(data[1])] * 50

    def test_str_subclass_kept_among_repeated_text(self):
        data = ["a"] * 50 + [S("a")]
        out = ptvda.parallel_sort(SortInstance(data, 1))
        assert out == data and type(out[-1]) is S

    def test_too_many_partitions(self):
        with pytest.raises(DomainError):
            SortInstance([1, 2], 3)

    # A record would keep an iterator spent, so it is refused, not read.
    @pytest.mark.parametrize("elements", [iter([3.0, 1.0]), None, 3])
    def test_elements_without_a_length_rejected(self, elements):
        with pytest.raises(DomainError, match="^sort elements must be a list, got "):
            SortInstance(elements, 1)

    @pytest.mark.parametrize("partitions", [1.5, 1.0, "1", None])
    def test_partition_count_not_an_int_rejected(self, partitions):
        with pytest.raises(DomainError, match="^partition count must be >= 1$"):
            SortInstance([3.0, 1.0, 2.0], partitions)


class TestClassifyRatio:
    def test_unit(self):
        assert ptvda.classify_ratio(42, 42) == "Unit"

    def test_diverging_marker(self):
        assert ptvda.classify_ratio(math.inf, 10) == "Diverging"

    def test_vanishing_marker(self):
        assert ptvda.classify_ratio(10, math.inf) == "Vanishing"

    def test_vanishing_by_bound(self):
        assert ptvda.classify_ratio(10, 10 ** 7, 1e3) == "Vanishing"

    def test_diverging_by_bound(self):
        assert ptvda.classify_ratio(10 ** 7, 10, 1e3) == "Diverging"

    def test_near_unity_within_bound(self):
        assert ptvda.classify_ratio(10, 20) == "Unit"

    def test_both_infinite_ambiguous(self):
        with pytest.raises(DomainError):
            ptvda.classify_ratio(math.inf, math.inf)

    # An inf bound still lets an inf size mark its class.
    @pytest.mark.parametrize("n,n_prime,expected", [
        (math.inf, 10, "Diverging"), (10, math.inf, "Vanishing"),
        (10 ** 400, math.inf, "Vanishing"), (10 ** 400, 10 ** 400, "Unit")])
    def test_inf_bound(self, n, n_prime, expected):
        assert ptvda.classify_ratio(n, n_prime, math.inf) == expected

    @pytest.mark.parametrize("n,n_prime,message", [
        (math.nan, 10, "n must be >= 1"), (-math.inf, 10, "n must be >= 1"),
        (10, math.nan, "n' must be >= 1"), (math.inf, -math.inf, "n' must be >= 1")])
    def test_nan_and_negative_infinity_refused(self, n, n_prime, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ptvda.classify_ratio(n, n_prime)

    def test_size_preconditions(self):
        with pytest.raises(DomainError):
            ptvda.classify_ratio(0, 10)
        with pytest.raises(DomainError):
            ptvda.classify_ratio(10, 10, m_bound=0)


class TestScalingProbe:
    def test_slope_subquadratic(self):
        probe = ptvda.scaling_probe([10 ** 3, 10 ** 4, 10 ** 5], trials=3, seed=0)
        if probe.loglog_slope is None:
            pytest.skip("clock resolution too coarse on this machine")
        assert probe.loglog_slope < 1.5

    def test_slope_recovers_exact_model(self, monkeypatch):
        # Each timed sort takes exactly a*n*ln(n) + b on a fake clock.
        a, b, sizes, trials = 2e-8, 1e-4, [100, 1000, 10000], 3
        model = {n: a * n * math.log(n) + b for n in sizes}
        ticks = iter([tick for n in sizes for _ in range(trials)
                      for tick in (0.0, model[n])])
        monkeypatch.setattr(ptvda.time, "perf_counter", lambda: next(ticks))
        probe = ptvda.scaling_probe(sizes, trials=trials, seed=0)
        assert probe.measured == model
        # Least-squares slope of ln t on ln n, in closed form.
        xs = [math.log(n) for n in sizes]
        ys = [math.log(model[n]) for n in sizes]
        x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
                 / sum((x - x_bar) ** 2 for x in xs))
        assert probe.loglog_slope == pytest.approx(slope, rel=1e-9)

    def test_sizes_iterator_read_once(self):
        probe = ptvda.scaling_probe(iter([100, 200]), trials=3, seed=0)
        assert list(probe.measured) == [100, 200]

    @pytest.mark.parametrize("sizes", [None, 100])
    def test_sizes_not_iterable(self, sizes):
        with pytest.raises(DomainError, match=f"^probe sizes must be iterable, got {sizes}$"):
            ptvda.scaling_probe(sizes, trials=3)

    def test_single_size_rejected(self):
        with pytest.raises(DomainError):
            ptvda.scaling_probe([1000], trials=3)

    def test_too_few_trials(self):
        with pytest.raises(DomainError):
            ptvda.scaling_probe([100, 200], trials=2)

    def test_sizes_strictly_increasing(self):
        with pytest.raises(DomainError, match="^probe sizes must be strictly increasing$"):
            ptvda.scaling_probe([100, 100], trials=3)

    def test_size_limit(self):
        # The largest size passes the range check and meets the work limit.
        with pytest.raises(DomainError, match="^probe work"):
            ptvda.scaling_probe([2, ptvda.MAX_PROBE_SIZE], trials=10)
        with pytest.raises(DomainError, match=r"probe sizes must be in \[2, 1000000\]"):
            ptvda.scaling_probe([2, ptvda.MAX_PROBE_SIZE + 1], trials=3)

    @pytest.mark.parametrize("sizes,trials,message", [
        ([2.5, 4], 3, r"probe sizes must be in \[2, 1000000\]"),
        ([2, 4.0], 3, r"probe sizes must be in \[2, 1000000\]"),
        ([2, 4], 3.5, "need at least 3 trials per size"),
    ])
    def test_size_or_trials_not_an_int_rejected(self, sizes, trials, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ptvda.scaling_probe(sizes, trials=trials)

    # Where several rules fail, the first in this order is reported.
    @pytest.mark.parametrize("sizes,trials,message", [
        ([0], 2, "need at least 2 sizes for a fit"),
        ([0, 0], 2, "need at least 3 trials per size"),
        ([0, 0], 10 ** 9, r"probe sizes must be in \[2, 1000000\]"),
        ([3, 2], 10 ** 9, "probe sizes must be strictly increasing"),
    ])
    def test_rule_order(self, sizes, trials, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ptvda.scaling_probe(sizes, trials=trials)

    def test_probe_is_frozen(self, monkeypatch):
        monkeypatch.setattr(ptvda, "MIN_TIMABLE_S", math.inf)  # no slope
        probe = ptvda.scaling_probe([2, 3], trials=3, seed=0)
        assert (list(probe.measured), probe.loglog_slope) == ([2, 3], None)
        with pytest.raises(AttributeError):
            probe.loglog_slope = 1.0

    @pytest.mark.parametrize("sizes,trials", [
        ([2, 3], 10 ** 9),
        ([5 * 10 ** 5, 10 ** 6], 7),
        (list(range(2, 4000)), 3),
    ])
    def test_work_limit(self, sizes, trials):
        # Refused before any list is built, so these return at once.
        with pytest.raises(DomainError, match=r"^probe work trials \* sum\(sizes\) "
                                              r"must be <= 10000000, got \d+$"):
            ptvda.scaling_probe(sizes, trials=trials)
