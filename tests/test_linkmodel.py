import math
import operator
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from timedata_lab import errors, linkmodel as lm
from timedata_lab.errors import (DivergenceSignal, DivisionByZeroSignal,
                                 DomainError, TimedataError)
from timedata_lab.linkmodel import AmplitudeOverlap, Target, Timestamp

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


class TestTarget:
    @pytest.mark.parametrize("distance,range_lm", [
        (0.0, 8.3), (SUN_KM, -1.0), (math.inf, 8.3), (SUN_KM, math.inf),
        (math.nan, 8.3), (SUN_KM, math.nan),
        pytest.param(10**400, 8.3, id="10**400-8.3"),
        pytest.param(SUN_KM, 10**400, id="146000000.0-10**400")])
    def test_refuses_fields_not_positive_and_finite(self, distance, range_lm):
        with pytest.raises(DomainError, match="^target distance and range must be positive$"):
            Target("a", distance, range_lm)

    def test_largest_finite_fields(self):
        assert Target("a", 1.7e308, 1e-300).range_lm == 1e-300

    # A name that is no text would reach the CSV as its repr and break the chart.
    @pytest.mark.parametrize("name", [5, None, b"Sun"])
    def test_refuses_a_name_not_text(self, name):
        with pytest.raises(DomainError, match=f"^target name must be text, got {name!r}$"):
            Target(name, 1.46e8, 8.3)


class TestTimestamp:
    def test_parse_and_str(self):
        t = Timestamp.parse("13:35:00")
        assert (t.hours, t.minutes, t.seconds) == (13, 35, 0)
        assert str(t) == "13:35:00"

    def test_every_clock_prints_and_parses_back(self):
        for h in range(24):
            for m in range(60):
                for s in range(60):
                    t = Timestamp(h, m, s)
                    assert str(t) == f"{h:02d}:{m:02d}:{s:02d}"
                    assert Timestamp.parse(str(t)) == t

    def test_from_seconds_inverts_total_seconds(self):
        for total in range(86400):
            assert Timestamp.from_seconds(total).total_seconds() == total
        assert Timestamp.from_seconds(True) == (0, 0, 1)
        for total, field in ((-1, "-1"), (86400, "24"), (1.0, "0.0")):
            with pytest.raises(DomainError, match=f"^timestamp fields out of range: {field}$"):
                Timestamp.from_seconds(total)

    @pytest.mark.parametrize("text", ["ab:cd:ef", "13:35", "13:35:00:00", "",
                                      "13:35:0.5", "1_3:35:00", "١٣:٣٥:٠٠",
                                      " 13:35:00", "13:35:00\n", "+1:35:00",
                                      "13:35:0", "13a35:00", "13:35a00", "13-35-00",
                                      "13:35;00"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DomainError, match="expected HH:MM:SS"):
            Timestamp.parse(text)

    # Clock text is read by table where each field is in range; other text, and what is
    # no str, is read as before, for the same errors.
    @pytest.mark.parametrize("text,field", [("24:00:00", 24), ("23:60:00", 60),
                                            ("23:59:60", 60), ("99:99:99", 99)])
    def test_parse_refuses_fields_out_of_range(self, text, field):
        with pytest.raises(DomainError, match=f"^timestamp fields out of range: {field}$"):
            Timestamp.parse(text)

    def test_parse_reads_a_str_subclass(self):
        class Text(str):
            pass
        clock = Timestamp.parse(Text("13:35:00"))
        assert type(clock) is Timestamp and clock == (13, 35, 0)
        assert {type(field) for field in clock} == {int}

    # Its own characters are read, not what its methods make of them.
    @pytest.mark.parametrize("text,expected", [("13:35:00", (13, 35, 0)),
                                               ("99:00:00", "timestamp fields out of range: 99"),
                                               ("13-35-00", "expected HH:MM:SS, got '13-35-00'")])
    def test_parse_reads_a_str_subclass_by_its_characters(self, text, expected):
        class Text(str):
            def __getitem__(self, index):
                return "00:00:00"[index]

            def __len__(self):
                return 8

        if isinstance(expected, tuple):
            assert Timestamp.parse(Text(text)) == expected
        else:
            with pytest.raises(DomainError, match=f"^{re.escape(expected)}$"):
                Timestamp.parse(Text(text))

    @pytest.mark.parametrize("value", [None, b"13:35:00", 1])
    def test_parse_refuses_what_is_no_text(self, value):
        message = f"expected HH:MM:SS, got {value!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Timestamp.parse(value)

    # A subclass's own checks run for each clock it builds.
    def test_a_subclass_builds_its_clocks_through_its_class(self):
        built = []

        class Clock(Timestamp):
            __slots__ = ()

            def __init__(self, *fields):
                built.append(fields)

        assert type(Clock.parse("13:35:00")) is type(Clock.from_seconds(3661)) is Clock
        assert built == [(13, 35, 0), (1, 1, 1)]

    def test_field_ranges(self):
        # A field that is no int could not be printed as HH:MM:SS.
        for fields in [(24, 0, 0), (0, 60, 0), (1.5, 2, 3), (1, "2", 3), (1, 2, None)]:
            with pytest.raises(DomainError, match="^timestamp fields out of range: "):
                Timestamp(*fields)

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

    @pytest.mark.parametrize("eps,message", [
        (-1.0, "epsilon must be nonnegative"), (math.nan, "epsilon must be nonnegative"),
        (1440.01, "timestamp shift rolls back past midnight"),
        (math.inf, "timestamp shift rolls back past midnight")])
    def test_shift_seconds_refuses(self, eps, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            lm.shift_seconds(eps)

    def test_shift_seconds_rounds(self):
        assert lm.shift_seconds(1.328) == 80
        assert lm.shift_seconds(1440.0) == 86400

    @pytest.mark.parametrize("local", ["13:35:00", None, (13, 35, 0)])
    def test_shift_refuses_a_clock_that_is_no_timestamp(self, local):
        message = f"^base time must be a Timestamp, got {re.escape(repr(local))}$"
        with pytest.raises(DomainError, match=message):
            lm.shift_timestamp(local, 1.0)

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


def _cells(p, distance, range_lm, clock):
    """The _bits of the scalar kernels' epsilon, shift seconds and resolutions for one
    record, a signal as "div0" or "diverges"."""
    eps = lm.epsilon_from_progress(p, range_lm)
    lm.shift_timestamp(clock, eps)
    cells = [eps, lm.shift_seconds(eps)]
    for kernel, signal, cell in ((lm.frequency_resolution, DivisionByZeroSignal, "div0"),
                                 (lm.displaced_frequency_resolution, DivergenceSignal,
                                  "diverges")):
        try:
            cells.append(kernel(distance, p))
        except signal:
            cells.append(cell)
    return _bits(cells)


def _bits(cells):
    """Each cell with its type, a float as its bits: -0.0 is not 0.0 here."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in cells]


def _off_the_float_path(p, distance) -> bool:
    """Whether errors.ratio leaves its float path for a denominator of the record."""
    try:
        errors._product((distance, p)), errors._product((distance, 100.0 - p))
    except OverflowError:
        return True
    return False


# Ints and floats across every decimal exponent, past the float range, and not finite.
_NUMBER = st.one_of(st.floats(), st.builds(lambda m, e: m * 10.0 ** e, st.floats(0.1, 9.99),
                                           st.integers(-323, 307)),
                    st.floats(0.01, 1e3), st.integers(-5, 10**6), st.just(10**400))
_PERCENT = st.one_of(st.floats(0, 100), st.integers(0, 100),
                     st.sampled_from([0, -0.0, 100, 100.0, 5e-324, -1e-300, 100.5, math.nan]))


class TestProgressColumn:
    @pytest.mark.parametrize("local", ["13:35:00", None, (13, 35, 0)])
    def test_refuses_a_clock_that_is_no_timestamp(self, local):
        message = f"^base time must be a Timestamp, got {re.escape(repr(local))}$"
        with pytest.raises(DomainError, match=message):
            lm.ProgressColumn([50], local)

    def test_progress_not_iterable(self):
        with pytest.raises(DomainError, match="^progress values must be iterable, got None$"):
            lm.ProgressColumn(None, Timestamp(13, 35, 0))

    # Sun's row takes the column path and Far's, where d * p overflows, the kernels':
    # the same shift gives one clock object and one delta-t float in both.
    def test_rows_share_one_clock_and_delta_t_per_shift(self):
        clock = Timestamp(13, 35, 0)
        column = lm.ProgressColumn(iter([0, 16, 50, 100]), clock)
        assert lm._row_columns(column, SUN_KM, SUN_RANGE_LM, "a", "b") is not None
        assert lm._row_columns(column, 1e308, SUN_RANGE_LM, "a", "b") is None
        sun = column.row(SUN_KM, SUN_RANGE_LM, "div0", "diverges")
        far = column.row(1e308, SUN_RANGE_LM, "div0", "diverges")
        assert far[:3] == sun[:3] and len(set(sun[0])) == 4
        for shared in (sun[0], far[0]), (sun[2], far[2]):  # the clocks, the delta-t floats
            assert all(map(operator.is_, *shared))


class TestRowColumns:
    # Columns _row_columns gives are the scalar kernels' cells bit for bit, signals
    # replaced by the given cells; a row it declines has a record a kernel refuses or
    # a denominator that takes errors.ratio off its float path. The examples: an empty
    # row, sentinels at 0 and 100, d * p past the float range, a subnormal distance, and
    # an epsilon whose seconds pass the float range.
    @example(progress=[], distance=5e-324, range_lm=-1.0, clock=Timestamp(0, 0, 0))
    @example(progress=[100.0], distance=SUN_KM, range_lm=1e308, clock=Timestamp(23, 0, 0))
    @example(progress=[0, 100.0, -0.0, 16], distance=SUN_KM, range_lm=SUN_RANGE_LM,
             clock=Timestamp(13, 35, 0))
    @example(progress=[50.0], distance=1e308, range_lm=1.0, clock=Timestamp(13, 35, 0))
    @example(progress=[0, 50.0], distance=5e-324, range_lm=1.0, clock=Timestamp(13, 35, 0))
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(progress=st.lists(_PERCENT, max_size=6), distance=_NUMBER, range_lm=_NUMBER,
           clock=st.builds(Timestamp, st.integers(0, 23), st.integers(0, 59),
                           st.integers(0, 59)))
    def test_columns_are_the_kernels_or_declined_for_a_reason(self, progress, distance,
                                                               range_lm, clock):
        columns = lm._row_columns(lm.ProgressColumn(progress, clock), distance, range_lm,
                                  "div0", "diverges")
        if columns is not None:
            assert list(map(_bits, zip(*columns))) == [
                _cells(p, distance, range_lm, clock) for p in progress]
            assert all(len(column) == len(progress) for column in columns)
            return
        for p in progress:
            try:
                _cells(p, distance, range_lm, clock)
            except TimedataError:
                return
        assert any(_off_the_float_path(p, distance) for p in progress)


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

    @pytest.mark.parametrize("delta_omega,delta_t", [(math.nan, 1.0), (1.0, math.nan)])
    def test_nan_inputs(self, delta_omega, delta_t):
        with pytest.raises(DomainError, match="must be nonnegative"):
            lm.uncertainty_satisfied(delta_omega, delta_t)


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
