import math

import pytest
from hypothesis import given, strategies as st

from timedata_lab import linkmodel as lm
from timedata_lab.errors import (DivergenceSignal, DivisionByZeroSignal,
                                 DomainError)
from timedata_lab.linkmodel import AmplitudeOverlap, Timestamp

SUN_KM = 1.46e8
SUN_RANGE_LM = 8.3


class TestEpsilon:
    def test_sixteen_percent(self):
        assert lm.epsilon_from_progress(16, SUN_RANGE_LM) == pytest.approx(1.328)

    def test_zero_progress(self):
        assert lm.epsilon_from_progress(0, SUN_RANGE_LM) == 0.0

    def test_ninety_six_percent(self):
        assert lm.epsilon_from_progress(96, SUN_RANGE_LM) == pytest.approx(7.968)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            lm.epsilon_from_progress(101, SUN_RANGE_LM)
        with pytest.raises(DomainError):
            lm.epsilon_from_progress(-1, SUN_RANGE_LM)

    @given(st.floats(min_value=0, max_value=50),
           st.floats(min_value=0.1, max_value=100))
    def test_linearity(self, p, r):
        double = lm.epsilon_from_progress(2 * p, r)
        single = lm.epsilon_from_progress(p, r)
        assert double == pytest.approx(2 * single, abs=1e-12)


class TestTimestamp:
    def test_parse_and_str(self):
        t = Timestamp.parse("13:35:00")
        assert (t.hours, t.minutes, t.seconds) == (13, 35, 0)
        assert str(t) == "13:35:00"

    @pytest.mark.parametrize("text", ["ab:cd:ef", "13:35", "13:35:00:00", "",
                                      "13:35:0.5", "1_3:35:00", "١٣:٣٥:٠٠",
                                      " 13:35:00", "13:35:00\n", "+1:35:00",
                                      "13:35:0"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DomainError, match="expected HH:MM:SS"):
            Timestamp.parse(text)

    def test_field_ranges(self):
        with pytest.raises(DomainError):
            Timestamp(24, 0, 0)
        with pytest.raises(DomainError):
            Timestamp(0, 60, 0)

    def test_shift_paper_case(self):
        # 1.33 min = 79.8 s, rounds to 80 s
        assert str(lm.shift_timestamp(Timestamp(13, 35, 0), 1.33)) == "13:33:40"

    def test_shift_identity(self):
        t = Timestamp(13, 35, 0)
        assert lm.shift_timestamp(t, 0) == t

    def test_shift_unrounded_epsilon(self):
        # 1.328 min = 79.68 s, also rounds to 80 s
        assert str(lm.shift_timestamp(Timestamp(13, 35, 0), 1.328)) == "13:33:40"

    @pytest.mark.parametrize("eps", [-1.0, float("nan")])
    def test_shift_refuses_negative_and_nan(self, eps):
        with pytest.raises(DomainError, match="epsilon must be nonnegative"):
            lm.shift_timestamp(Timestamp(1, 0, 0), eps)

    def test_underflow_past_midnight(self):
        with pytest.raises(DomainError):
            lm.shift_timestamp(Timestamp(0, 0, 30), 1.0)

    @given(st.integers(min_value=7200, max_value=86399),
           st.floats(min_value=0, max_value=60))
    def test_shift_round_trip_within_one_second(self, total, eps):
        t = Timestamp(total // 3600, (total % 3600) // 60, total % 60)
        shifted = lm.shift_timestamp(t, eps)
        back = shifted.total_seconds() + round(eps * 60)
        assert abs(back - t.total_seconds()) <= 1


class TestFrequencyResolution:
    def test_paper_value(self):
        assert lm.frequency_resolution(SUN_KM, 16) == pytest.approx(0.0128425, abs=1e-4)

    def test_zero_progress_signals(self):
        with pytest.raises(DivisionByZeroSignal):
            lm.frequency_resolution(SUN_KM, 0)

    def test_negative_progress(self):
        with pytest.raises(DomainError):
            lm.frequency_resolution(SUN_KM, -5)

    def test_c_over_c(self):
        assert lm.frequency_resolution(3e5, 100) == pytest.approx(1.0)

    @given(st.floats(min_value=1e3, max_value=1e10),
           st.floats(min_value=0.1, max_value=100))
    def test_product_constant_in_progress(self, d, p):
        # nu * p = 100 c / d independent of p
        assert lm.frequency_resolution(d, p) * p == pytest.approx(
            100 * 300000 / d, rel=1e-9)


class TestDisplacedResolution:
    def test_paper_value(self):
        assert lm.displaced_frequency_resolution(SUN_KM, 96) == pytest.approx(
            0.0513699, abs=1e-3)

    def test_zero_progress(self):
        assert lm.displaced_frequency_resolution(SUN_KM, 0) == pytest.approx(
            300000 / SUN_KM)

    def test_divergence_at_100(self):
        with pytest.raises(DivergenceSignal):
            lm.displaced_frequency_resolution(SUN_KM, 100)

    def test_strictly_monotone(self):
        values = [lm.displaced_frequency_resolution(SUN_KM, p)
                  for p in [0, 10, 20, 50, 90, 99, 99.9]]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestUncertainty:
    def test_boundary_equality(self):
        assert lm.uncertainty_satisfied(2 * math.pi, 1)

    def test_below(self):
        assert not lm.uncertainty_satisfied(1, 1)

    def test_sun_case(self):
        assert lm.uncertainty_satisfied(0.0128425, 500)

    def test_negative_inputs(self):
        with pytest.raises(DomainError):
            lm.uncertainty_satisfied(-1, 1)


class TestTimedataProbability:
    def test_certain_transition(self):
        o = AmplitudeOverlap(1.0, 0.0)
        assert lm.timedata_probability(3, 4, o) == 12

    def test_orthogonal(self):
        assert lm.timedata_probability(3, 4, AmplitudeOverlap(0, 0)) == 0

    def test_half_modulus(self):
        o = AmplitudeOverlap(0.5, 0.5)
        assert lm.timedata_probability(2, 3, o) == pytest.approx(3.0)

    def test_overlap_invariant(self):
        with pytest.raises(DomainError):
            AmplitudeOverlap(1.0, 0.5)
