import math
import random

import pytest

from timedata_lab import ptvda
from timedata_lab.errors import DomainError
from timedata_lab.ptvda import RatioClass, SortInstance


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

    def test_too_many_partitions(self):
        with pytest.raises(DomainError):
            SortInstance([1, 2], 3)


class TestClassifyRatio:
    def test_unit(self):
        assert ptvda.classify_ratio(42, 42) is RatioClass.UNIT

    def test_diverging_marker(self):
        assert ptvda.classify_ratio(math.inf, 10) is RatioClass.DIVERGING

    def test_vanishing_marker(self):
        assert ptvda.classify_ratio(10, math.inf) is RatioClass.VANISHING

    def test_vanishing_by_bound(self):
        assert ptvda.classify_ratio(10, 10 ** 7, 1e3) is RatioClass.VANISHING

    def test_diverging_by_bound(self):
        assert ptvda.classify_ratio(10 ** 7, 10, 1e3) is RatioClass.DIVERGING

    def test_near_unity_within_bound(self):
        assert ptvda.classify_ratio(10, 20) is RatioClass.UNIT

    def test_both_infinite_ambiguous(self):
        with pytest.raises(DomainError):
            ptvda.classify_ratio(math.inf, math.inf)

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
        assert probe.fit_a is not None
        assert probe.fit_residual >= 0.0

    def test_fit_recovers_exact_model(self, monkeypatch):
        # Each timed sort takes exactly a*n*ln(n) + b on a fake clock.
        a, b, sizes, trials = 2e-8, 1e-4, [100, 1000, 10000], 3
        model = {n: a * n * math.log(n) + b for n in sizes}
        ticks = iter([tick for n in sizes for _ in range(trials)
                      for tick in (0.0, model[n])])
        monkeypatch.setattr(ptvda.time, "perf_counter", lambda: next(ticks))
        probe = ptvda.scaling_probe(sizes, trials=trials, seed=0)
        assert probe.measured == model
        assert probe.fit_a == pytest.approx(a, rel=1e-9)
        assert probe.fit_b == pytest.approx(b, rel=1e-9)
        assert probe.fit_residual == pytest.approx(0.0, abs=1e-12)
        # Least-squares slope of ln t on ln n, in closed form.
        xs = [math.log(n) for n in sizes]
        ys = [math.log(model[n]) for n in sizes]
        x_bar, y_bar = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
                 / sum((x - x_bar) ** 2 for x in xs))
        assert probe.loglog_slope == pytest.approx(slope, rel=1e-9)

    def test_single_size_rejected(self):
        with pytest.raises(DomainError):
            ptvda.scaling_probe([1000], trials=3)

    def test_too_few_trials(self):
        with pytest.raises(DomainError):
            ptvda.scaling_probe([100, 200], trials=2)

    def test_sizes_strictly_increasing(self):
        with pytest.raises(DomainError):
            ptvda.ComplexityProbe(sizes=[100, 100], measured={})

    def test_size_limit(self):
        ptvda.ComplexityProbe(sizes=[2, ptvda.MAX_PROBE_SIZE], measured={})
        with pytest.raises(DomainError, match=r"probe sizes must be in \[2, 1000000\]"):
            ptvda.ComplexityProbe(sizes=[2, ptvda.MAX_PROBE_SIZE + 1], measured={})
