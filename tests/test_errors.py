"""The one number rule: finite_float(), finite_floats(), plain_float(), plain_int(),
plain_ints(), within(), within_int(), finite(), ratio() and finite_text(); and record(),
whose checked records check a replaced field as the constructor does and keep no
instance dict."""

import copy
import importlib
import math
import numbers
import pickle
import pkgutil
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import timedata_lab
from timedata_lab import (analysis, errors, geomlink, linkmodel, memtiming, optics, ptvda,
                          relativity)
from timedata_lab.errors import (LARGEST, DomainError, TimedataError, finite, finite_float,
                                 ratio, within, within_int)


def test_the_sheet_pipeline_reads_and_prints_numbers_through_errors():
    assert analysis.finite_float is errors.finite_float
    assert analysis.finite_text is errors.finite_text


# ratio's two-operand case, a quotient.
@pytest.mark.parametrize("numerator,denominator,message", [
    (1.0, 0.0, "q not finite: inf"),
    (-1.0, 0.0, "q not finite: -inf"),
    (0.0, 0.0, "q not finite: nan"),
    (1e308, 1e-10, "q not finite: inf"),
    (10**400, 1, "q not finite: inf"),
    (-10**400, 3, "q not finite: -inf"),
])
def test_quotient_out_of_range(numerator, denominator, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ratio((numerator,), (denominator,), "q")


@pytest.mark.parametrize("value,message", [
    (None, "x not a number: None"), ("abc", "x not a number: 'abc'"),
    (1j, "x not a number: 1j"), (Decimal("1.5"), "x not a number: Decimal('1.5')")])
def test_finite_refuses_what_float_cannot_read(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        finite(value, "x")


def test_finite_text_prints_numbers_only():
    assert errors.finite_text(0.1) == "0.1"
    for sentinel in (analysis.DIV0, analysis.DIVERGES):
        with pytest.raises(DomainError, match="^result not a number: '#"):
            errors.finite_text(sentinel)


class _Float(float):
    pass


# Just beyond LARGEST, an exact number that rounds to it: finite refuses it, as within
# does, and finite_text prints it, as its correctly rounded float.
BAND = int(LARGEST) + 1


def _rounded(value):
    """value's correctly rounded float where it is a number that has one, else value."""
    try:
        return float(value) if isinstance(value, numbers.Real) else value
    except OverflowError:
        return value


# finite_text prints a number by its correctly rounded float, through finite: it
# prints, or refuses with the text, that finite gives for the rounded value.
@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -5e-324, LARGEST, -LARGEST, math.inf,
                                   -math.inf, math.nan, _Float(2.5), 1, 10**400,
                                   Fraction(1, 3), Decimal("1"), None, "1",
                                   BAND, -BAND, Fraction(BAND), Fraction(-BAND)],
                         ids=lambda v: f"{type(v).__name__}-{v!r:.12}")
def test_finite_text_formats_as_finite_checks(value):
    try:
        expected = f"{finite(_rounded(value), 'result'):.6g}"
    except DomainError as exc:
        expected = exc
    if isinstance(expected, DomainError):
        with pytest.raises(DomainError) as exc:
            errors.finite_text(value)
        assert str(exc.value) == str(expected)
    else:
        assert errors.finite_text(value) == expected


def test_a_result_that_rounds_to_largest_prints_and_an_argument_is_refused():
    charge = Fraction(LARGEST) + Fraction(5e-324)  # rel charge --q1 LARGEST --qin 5e-324
    assert errors.exact_ratio((BAND,), (), "x") == LARGEST
    for value in (charge, BAND, Fraction(BAND)):
        assert errors.finite_text(value) == "1.79769e+308"
        assert errors.finite_text(-value) == "-1.79769e+308"
        with pytest.raises(DomainError, match="^x not finite: inf$"):
            finite(value, "x")
    with pytest.raises(DomainError, match="^point x not finite: inf$"):
        geomlink.Point2(BAND, 0)
    with pytest.raises(DomainError, match="^result not finite: -inf$"):  # -LARGEST - 1e308
        errors.finite_text(Fraction(-LARGEST) - Fraction(1e308))


def _grid():
    """(id, value) of Fractions around +-LARGEST, +-NORMAL and 0: each centre, a half
    ulp off (LARGEST's rounds to 2**1024), just inside and outside it, an ulp, a tiny
    step and 1 off either way; and ints around +-LARGEST and 0."""
    tiny, half = Fraction(1, 2**1200), 2**970  # half an ulp of LARGEST
    centres = {"LARGEST": LARGEST, "-LARGEST": -LARGEST, "NORMAL": errors.NORMAL,
               "-NORMAL": -errors.NORMAL, "0": 0.0}
    for name, centre in centres.items():
        exact, ulp = Fraction(centre), Fraction(math.ulp(centre))
        steps = {"0": 0, "half-ulp": ulp / 2, "half-ulp-tiny": ulp / 2 - tiny,
                 "half-ulp+tiny": ulp / 2 + tiny, "ulp": ulp, "tiny": tiny, "1": 1}
        for step_name, step in steps.items():
            yield f"Fraction-{name}+{step_name}", exact + step
            yield f"Fraction-{name}-{step_name}", exact - step
    for sign in (1, -1):
        for step_name, step in {"+0": 0, "-1": -1, "+1": 1, "+half-ulp-1": half - 1,
                                "+half-ulp": half}.items():
            yield f"int-{'+-'[sign < 0]}(LARGEST{step_name})", sign * (int(LARGEST) + step)
    for name, value in {"0": 0, "1": 1, "-1": -1, "10**400": 10**400, "-10**400": -10**400}.items():
        yield f"int-{name}", value


def _finite_by_within(value):
    """float(within(value, "")), or finite's text for the value within refuses."""
    try:
        return float(within(value, ""))
    except DomainError:
        return f"x not finite: {'inf' if value > 0 else '-inf'}"


# finite is within with the default bounds, as a float: a Fraction is rounded first and
# left to within only where it rounds to +-LARGEST or past it, an int always is.
@pytest.mark.parametrize("value", [pytest.param(v, id=i) for i, v in _grid()])
def test_finite_is_float_of_within_exactly(value, monkeypatch):
    expected = _finite_by_within(value)
    calls = []
    monkeypatch.setattr(errors, "within", lambda *args: calls.append(args) or within(*args))
    try:
        got = finite(value, "x")
    except DomainError as exc:
        got = str(exc)
    assert got == expected and type(got) is type(expected)
    rounded = _rounded(value)
    inline = type(value) is Fraction and type(rounded) is float and abs(rounded) < LARGEST
    assert calls == ([] if inline else [(value, "")])


def _read(read, text):
    """read(text)'s values by float.hex, which tells -0.0 from 0.0, or its error."""
    try:
        values = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    assert type(values) is tuple and all(type(value) is float for value in values)
    return [value.hex() for value in values]


def _each_item(text):
    return tuple(map(finite_float, [item for item in text.split(",") if item]))


def _list_refusal(text):
    """finite_floats' refusal of a list finite_float refuses an item of: `_` anywhere,
    else the first item float() cannot read, which names itself, else an inf or nan
    item, which names the whole list."""
    if "_" in text:
        return ValueError, f"digit grouping in number: {text!r}"
    for item in filter(None, text.split(",")):
        try:
            float(item)
        except ValueError as exc:
            return ValueError, str(exc)
    return ValueError, f"not finite: {text!r}"


def _read_as_each_item(text):
    """_read of _each_item, with the list's refusal in place of the first bad item's."""
    read = _read(_each_item, text)
    return _list_refusal(text) if type(read) is tuple else read


# finite_floats reads a list as finite_float reads each item but empty ones: the same
# values bit for bit, -0.0 and a list whose sum overflows included, and a refusal for
# the same lists, whose text names the list where finite_float's names the item.
@pytest.mark.parametrize("text", ["", ",,", " 1, 2", "-0.0", "1,,2,", "1e308,1e308", "1,nan",
                                  "1,inf", "inf,-inf", "inf,abc", "abc,inf", "1_0,2", "2,1_0",
                                  "5e-324,-5e-324", "3,1.5,-0.0"])
def test_finite_floats_reads_as_finite_float_reads_each_item(text):
    assert _read(errors.finite_floats, text) == _read_as_each_item(text)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats().map(repr), st.sampled_from(
    ["", " 1", "1_0", "abc", "1e308", "-1e308", "5e-324"])), max_size=6).map(",".join))
def test_finite_floats_reads_any_list_as_finite_float_reads_each_item(text):
    assert _read(errors.finite_floats, text) == _read_as_each_item(text)


def test_finite_passes_floats_ints_and_fractions_in_range():
    assert finite(Fraction(1, 3), "x") == 1 / 3
    assert finite(10**300, "x") == 1e300
    assert ratio((1,), (4,), "x") == 0.25
    with pytest.raises(DomainError, match="^x not finite: -inf$"):
        finite(-Fraction(10**400), "x")


# An int operand beyond the float range with a float or zero denominator.
@pytest.mark.parametrize("numerator,denominator,message", [
    (10**400, 2.0, "x not finite: inf"),
    (-10**400, 2.0, "x not finite: -inf"),
    (10**400, 0, "x not finite: inf"),
    (10**400, 0.0, "x not finite: inf"),
    (-10**400, 0, "x not finite: -inf"),
    (math.inf, -10**400, "x not finite: -inf"),
    (math.nan, 10**400, "x not finite: nan"),
    (10**400, math.nan, "x not finite: nan"),
], ids=["big/2.0", "-big/2.0", "big/0", "big/0.0", "-big/0", "inf/-big", "nan/big", "big/nan"])
def test_quotient_of_a_huge_int_is_a_domain_error(numerator, denominator, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        ratio((numerator,), (denominator,), "x")


def test_quotient_of_a_huge_int_is_exact_when_it_fits():
    assert ratio((10**400,), (1e300,), "x") == 1e100
    assert ratio((10**400,), (10**399,), "x") == 10.0
    assert ratio((1.0,), (10**400,), "x") == 0.0
    assert ratio((10**400,), (Fraction(10**398),), "x") == 100.0
    # As for 1e300 / inf, the quotient of a finite operand by inf is zero.
    for denominator in (math.inf, -math.inf):
        value = ratio((10**400,), (denominator,), "x")
        assert (value, math.copysign(1.0, value)) == (0.0, math.copysign(1.0, denominator))


# No float multiplies a Decimal; its exact value is rounded once, as an int's is.
def test_ratio_takes_a_decimal_operand_exactly():
    assert ratio((Decimal("0.1"), 3), (Decimal("0.7"),), "x") == float(Fraction(3, 7))


def test_within_returns_a_number_in_range_unchanged():
    for value in (0, 10**300, Fraction(1, 3), 1.5, True):
        assert within(value, "m") is value
    assert within(10**400, "m", high=math.inf) == 10**400
    assert within(math.inf, "m", 0, math.inf) == math.inf
    # The message is formatted only on failure: "{:d}" cannot format 1.5.
    assert within(1.5, "{:d}", 0, 2) == 1.5


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, -10**400,
                                   Fraction(10**400), None, "1.5", "abc", b"1", 1j,
                                   Decimal("1.5")])
def test_within_default_bounds_refuse_what_is_no_finite_number(value):
    with pytest.raises(DomainError, match=f"^got {re.escape(repr(value))}$"):
        within(value, "got {!r}")
    with pytest.raises(errors.DivisionByZeroSignal, match="^m$"):
        within(value, "m", error=errors.DivisionByZeroSignal)


def test_within_bounds_are_closed():
    assert within(0.0, "m", 0.0, 1.0) == 0.0 and within(1.0, "m", 0.0, 1.0) == 1.0
    for value in (-1e-300, 1.0000000000000002):
        with pytest.raises(DomainError, match="^in \\[0, 1\\], got "):
            within(value, "in [0, 1], got {}", 0.0, 1.0)
    with pytest.raises(DomainError):
        within(0.0, "m", errors.TINY)  # a low bound of TINY: positive


def test_within_int_refuses_a_value_that_is_no_int():
    assert within_int(3, "m", 1) == 3
    for value in (0, 1.5, 2.0, Fraction(2), "2", None, 10**400):
        with pytest.raises(DomainError, match=f"^got {re.escape(repr(value))}$"):
            within_int(value, "got {!r}", 1)


# float() and int() read `1_0` as 10, a digit grouping no toolkit output writes.
@pytest.mark.parametrize("read", [errors.finite_float, errors.plain_float, errors.plain_int])
def test_readers_refuse_digit_grouping(read):
    assert read("10") == 10
    with pytest.raises(ValueError, match="^digit grouping in number: '1_0'$"):
        read("1_0")


# plain_ints reads each item as plain_int does, empty items skipped, and the first
# bad item's error is plain_int's.
def test_plain_ints_reads_each_item_as_plain_int():
    assert errors.plain_ints(",10,-3,,7,") == (10, -3, 7)
    assert errors.plain_ints(",") == ()
    with pytest.raises(ValueError, match="^digit grouping in number: '2_0'$"):
        errors.plain_ints("1,2_0,x")
    with pytest.raises(ValueError, match="^invalid literal for int"):
        errors.plain_ints("1,x,2_0")
    assert errors.plain_ints.__name__ == "int list"  # as usage errors name it


# Each raised a bare OverflowError or TypeError, or (Point2) took text.
@pytest.mark.parametrize("call", [
    lambda: linkmodel.epsilon_from_progress(5, 10**400),
    lambda: linkmodel.frequency_resolution(10**400, 5),
    lambda: linkmodel.displaced_frequency_resolution(10**400, 5),
    lambda: linkmodel.timedata_probability(10**400, 1, linkmodel.AmplitudeOverlap(0.5, 0)),
    lambda: optics.snell_refracted_angle(10**400, 1, 1),
    lambda: optics.v_number(optics.FiberSpec(10**400, 1, 1.5, 1.4)),
    lambda: relativity.stored_proper_time(10**400),
    lambda: relativity.proper_time_delta_general(10**400, 0, 0, 0),
    lambda: relativity.polar_from_cartesian(10**400, 0),
    lambda: memtiming.resistance(memtiming.ElectrodeGeometry(10**400, 1, 1, 1)),
    lambda: geomlink.planar_kinematics(geomlink.PlanarMotion((10**400, 0), 1, 1)),
    lambda: ptvda.classify_ratio(10**400, 5),
    lambda: linkmodel.Target("a", "1e8", 8.3),
    lambda: memtiming.Carrier(0, None),
    lambda: relativity.Velocity("0.5"),
    lambda: ptvda.classify_ratio("5", 3),
    lambda: ptvda.scaling_probe([2, "3"], 3),
    lambda: geomlink.Point2("1.5", 0),
    lambda: linkmodel.Timestamp(1.5, 2, 3),
])
def test_a_value_that_is_no_finite_number_is_a_typed_error(call):
    with pytest.raises(TimedataError):
        call()


# A record with one field replaced by a bad value: the constructor's own error.
@pytest.mark.parametrize("good,change,message", [
    (relativity.Velocity(0.6), {"fraction_of_c": 1.0}, "beta must be in [0, 1), got 1.0"),
    (linkmodel.Timestamp(13, 35, 0), {"minutes": 60}, "timestamp fields out of range: 60"),
    (memtiming.Carrier(0, 0.0), {"arrival_time_s": -1.0}, "arrival time must be nonnegative"),
    (memtiming.CellMap([(0, 0), (1, 1)]), {"cells": [(0, 0), (1, 2)]},
     "distance ranks must be a permutation 0..N-1"),
    (ptvda.SortInstance([3, 1], 2), {"partitions": 3}, "more partitions than elements"),
    (geomlink.ArcDecomposition(3, 1, 1, 3, 1, 1), {"pb": 3},
     "AB decomposition exceeds total arc length"),
    (analysis.LinkRecord("Sun", 16.0, "f", linkmodel.Timestamp(13, 33, 40), 1.328, 80.0,
                         0.0128425, "#Inf!"), {"nu_delta_omega_hz": "x"},
     "nu_delta_omega_hz not a number: 'x'"),
    (analysis.Sheet([]), {"records": [("Sun",)]},
     "sheet records must be LinkRecords, got ('Sun',)"),
])
def test_replace_checks_the_new_field(good, change, message):
    assert good._replace() == good and type(good._replace()) is type(good)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        good._replace(**change)
    if sys.version_info >= (3, 13):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            copy.replace(good, **change)


# pickle looks a record's class up by its module and name; copy and pickle
# rebuild a valid record, so __new__ alone suffices for a record that only checks.
@pytest.mark.parametrize("value", [
    analysis.Sheet([analysis.LinkRecord("Sun", 16.0, "f", linkmodel.Timestamp(13, 33, 40),
                                        1.328, 80.0, 0.0128425, "#Div/0!")]),
    ptvda.ComplexityProbe({10: 1e-6, 20: 2e-6}, 1.0),
    geomlink.PlanarMotion((3, 4), 1, 2),
    memtiming.CellMap([(5, 1), (7, 0)]),
])
def test_records_survive_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and type(copied) is type(value)
    if isinstance(value, memtiming.CellMap):
        assert pickle.loads(pickle.dumps(value)).address_at_rank(0) == 7


# A record's `__slots__ = ()` leaves it no instance dict, so no attribute beyond its
# fields; CellMap alone keeps one, for its rank map.
def test_records_have_no_instance_dict_but_cell_map():
    records = {obj for info in pkgutil.iter_modules(timedata_lab.__path__, "timedata_lab.")
               for obj in vars(importlib.import_module(info.name)).values()
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
               and obj.__module__ == info.name}
    assert len(records) >= 20 and memtiming.CellMap in records
    assert [cls for cls in records if cls.__dictoffset__] == [memtiming.CellMap]
