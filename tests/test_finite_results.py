"""Every public kernel, given finite inputs from across the float range, or
ints beyond it, None, text, a Decimal or an array, returns a finite result (or
None) or raises a TimedataError, and nothing else."""

import inspect
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import analysis, geomlink, linkmodel, memtiming, optics, ptvda, relativity
from timedata_lab.errors import LARGEST, DomainError, TimedataError

MODULES = {m.__name__.rsplit(".", 1)[-1]: m
           for m in (geomlink, linkmodel, memtiming, optics, ptvda, relativity)}

# Plain float draws favour small values, so the others are spread over every
# decimal exponent of a float, or near its ends, or are percentages.
F = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              *(st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), exponent)
                for exponent in (st.integers(-323, 307),
                                 st.sampled_from([-323, -300, 300, 307]))),
              st.floats(0, 100))
class _Truthless:
    """What a comparison with an array gives: asking its truth raises ValueError."""

    def __bool__(self):
        raise ValueError("the truth value of an array with more than one element is ambiguous")


class _ArrayLike:
    """An array of numbers as numpy makes one, without numpy: each comparison gives
    a _Truthless, and arithmetic with it is a TypeError."""

    def _compare(self, other):
        return _Truthless()

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _compare
    __hash__ = None

    def __repr__(self):
        return "array([1e8, 2e8])"


# No number to a library call: ints beyond the float range, None, text, text that
# float() reads included, a Decimal and an array. Drawn in about one case in five.
NOT_A_NUMBER = st.sampled_from([2**1024, -10**400, None, "abc", "1.5", Decimal(50),
                                _ArrayLike()])
# A float argument or field; an int inside the float range, whose products
# leave it, too (not for counts: 10**300 grid cells would fill the memory).
X = st.one_of(F, NOT_A_NUMBER, st.sampled_from([10**300, -10**308]))
INT = st.one_of(st.integers(-3, 10), st.integers(-10**400, 10**400), NOT_A_NUMBER)
PAIRS = st.lists(st.tuples(X, X), min_size=3, max_size=5)
POINT = st.builds(geomlink.Point2, X, X)
POLAR = st.builds(relativity.PolarPoint, X, st.one_of(X, st.floats(-math.pi, math.pi)))
ELECTRODE = st.builds(memtiming.ElectrodeGeometry, X, X, X, X)
COMPLEX = st.one_of(st.builds(complex, F, F), NOT_A_NUMBER)
INTEGRAND = st.sampled_from([lambda *point: sum(point) + 1.0, lambda *point: -10**400,
                             # 0.5 and 10**400 in turn: a float plus an int past its range
                             lambda *point, values=itertools.cycle((0.5, 10**400)): next(values),
                             # values that are no number
                             lambda *point: "1.5", lambda *point: None, lambda *point: 1j])


def _small(high):
    return st.one_of(st.integers(0, high), NOT_A_NUMBER)


def _carriers(arrivals):
    return [memtiming.Carrier(i, t) for i, t in enumerate(arrivals)]


def _allocation(arrivals):
    return st.tuples(st.just(_carriers(arrivals)),
                     st.builds(lambda n: memtiming.CellMap([(a, a) for a in range(n)]),
                               st.integers(0, 5)))


# Public kernel name -> strategy for its argument tuple. A record argument
# is drawn through its constructor, whose own DomainError counts as typed.
# Sort elements mix floats with values that may not order against them (None, text).
KERNELS = {
    "geomlink.slope": st.tuples(POINT, POINT),
    "geomlink.segment_length": st.tuples(POINT, POINT),
    "geomlink.shared_arc": st.tuples(st.builds(geomlink.ArcDecomposition, *[X] * 6)),
    "geomlink.riemann_area": st.tuples(INTEGRAND, st.tuples(*[X] * 4),
                                       _small(3), _small(3)),
    "geomlink.triple_integral": st.tuples(INTEGRAND, st.tuples(*[X] * 6),
                                          *[_small(2)] * 3),
    "geomlink.time_split_check": st.tuples(X, X),
    "geomlink.planar_kinematics": st.tuples(
        st.builds(geomlink.PlanarMotion, st.tuples(X, X), X, X)),
    "linkmodel.epsilon_from_progress": st.tuples(X, X),
    "linkmodel.shift_seconds": st.tuples(X),
    "linkmodel.shift_timestamp": st.tuples(
        st.builds(linkmodel.Timestamp, _small(23), *[_small(59)] * 2), X),
    "linkmodel.frequency_resolution": st.tuples(X, X),
    "linkmodel.displaced_frequency_resolution": st.tuples(X, X),
    "linkmodel.uncertainty_satisfied": st.tuples(X, X),
    "linkmodel.timedata_probability": st.tuples(
        X, X, st.builds(linkmodel.AmplitudeOverlap, X, X)),
    "memtiming.bit_frequency": st.tuples(X, X, X),
    "memtiming.validate_qubit": st.tuples(
        st.builds(memtiming.QubitState, COMPLEX, COMPLEX)),
    "memtiming.phase_ratio_means": st.tuples(
        PAIRS, PAIRS, st.lists(st.tuples(X, X), min_size=2, max_size=2)),
    "memtiming.sheet_resistance": st.tuples(ELECTRODE),
    "memtiming.resistance": st.tuples(ELECTRODE),
    "memtiming.transconductance_baseline": st.tuples(X, X),
    "memtiming.quantum_efficiency": st.tuples(INT, INT),
    "memtiming.fifo_order": st.lists(X, max_size=4).map(lambda arrivals: (_carriers(arrivals),)),
    "memtiming.waterfall_allocate": st.lists(X, max_size=4).flatmap(_allocation),
    "optics.v_number": st.tuples(st.builds(optics.FiberSpec, X, X, X, X)),
    "optics.is_single_mode": st.tuples(X),
    "optics.snell_refracted_angle": st.tuples(X, X, X),
    "optics.faraday_rotation": st.tuples(st.builds(optics.FaradayCell, X, X, X)),
    "optics.isolation_geometry": st.tuples(st.builds(optics.IsolationShell, X, X, X, X)),
    "ptvda.parallel_sort": st.tuples(
        st.builds(ptvda.SortInstance, st.lists(st.one_of(F, NOT_A_NUMBER), max_size=6),
                  _small(7))),
    "ptvda.classify_ratio": st.tuples(X, X, X),
    # Small sizes and trials: a probe times real sorts.
    "ptvda.scaling_probe": st.tuples(st.lists(st.one_of(st.integers(-1, 40), NOT_A_NUMBER),
                                              max_size=4), _small(4)),
    "relativity.time_factor": st.tuples(st.builds(relativity.Velocity, X)),
    "relativity.proper_time_delta_general": st.tuples(X, X, X, X),
    "relativity.stored_proper_time": st.tuples(X),
    "relativity.polar_from_cartesian": st.tuples(X, X),
    "relativity.cartesian_from_polar": st.tuples(POLAR),
    "relativity.jacobian_polar": st.tuples(POLAR),
    "relativity.charge_balance": st.tuples(st.builds(relativity.ChargeLedger, X, X, X)),
    "relativity.charge_balance_inverse": st.tuples(X, X, X),
    "relativity.charge_density": st.tuples(X, X),
    "relativity.moire_wavelength": st.tuples(X, X, X),
}


def _floats(result):
    """Every float in a result, through tuples (records included), lists and dicts; an
    int or Fraction as the float it rounds to, or as inf or -inf where that overflows."""
    if isinstance(result, float):
        yield result
    elif isinstance(result, (int, Fraction)):
        try:
            yield float(result)
        except OverflowError:
            yield math.inf if result > 0 else -math.inf
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _floats(item)
    elif isinstance(result, dict):
        yield from _floats(list(result.values()))


def test_result_walker_reads_record_fields():
    assert list(_floats(relativity.PolarPoint(1.0, 0.5))) == [1.0, 0.5]


def test_result_walker_rounds_exact_numbers_and_sees_them_overflow():
    assert list(_floats([3, Fraction(1, 4), 10**400, -Fraction(2 * 10**308)])) == [
        3.0, 0.25, math.inf, -math.inf]


@pytest.mark.parametrize("ledger, shown", [
    ((1e308, 1e308, 0.0), "inf"), ((-LARGEST, 0.0, 1e308), "-inf")])
def test_charge_balance_whose_float_overflows_is_refused(ledger, shown):
    with pytest.raises(DomainError, match=f"^charge balance not finite: {shown}$"):
        relativity.charge_balance(relativity.ChargeLedger(*ledger))


def test_charge_balance_that_rounds_to_the_largest_float_is_exact():
    balance = relativity.charge_balance(relativity.ChargeLedger(LARGEST, 5e-324, 0.0))
    assert balance == Fraction(LARGEST) + Fraction(5e-324)
    assert float(balance) == LARGEST


# A balance past the float range, as charge_balance once returned, and a recovered
# charge past it: each refused on one short line, not by its 309 digits.
@pytest.mark.parametrize("args, shown", [
    ((Fraction(2 * 10**308), 0.0, 0.0), "inf"), ((-Fraction(2 * 10**308), 0.0, 0.0), "-inf"),
    ((1e308, 0.0, 1e308), "inf")])
def test_charge_balance_inverse_shows_a_charge_past_the_float_range_as_inf(args, shown):
    with pytest.raises(DomainError, match=f"^charge not finite: {shown}$"):
        relativity.charge_balance_inverse(*args)


def test_table_names_every_public_kernel():
    public = {f"{short}.{name}"
              for short, module in MODULES.items() for name, fn in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == module.__name__}
    assert set(KERNELS) == public


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_result_is_finite_or_typed_error(name):
    module, attr = name.split(".")
    kernel = getattr(MODULES[module], attr)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def check(data):
        try:
            args = data.draw(KERNELS[name])
            result = kernel(*args)
        except TimedataError:
            return
        if name == "ptvda.parallel_sort":  # it computes no number: it gives its elements back
            elements = args[0].elements
            assert len(result) == len(elements), result
            assert all(any(x is e for e in elements) for x in result), result
        else:
            assert all(map(math.isfinite, _floats(result))), result

    check()


# A sheet's rows, through the method that gives them: empty lists, text and huge ints
# among the progress values, and each distance and range an X.
ROW = st.tuples(
    st.builds(linkmodel.ProgressColumn, st.lists(st.one_of(X, st.floats(0, 100)), max_size=5),
              st.builds(linkmodel.Timestamp, _small(23), *[_small(59)] * 2)),
    X, X, st.just("#Div/0!"), st.just("#Inf!"))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_sheet_row_is_finite_or_typed_error(data):
    try:
        column, *args = data.draw(ROW)
        result = column.row(*args)
    except TimedataError:
        return
    assert all(map(math.isfinite, _floats(result))), result


# A sheet's rows in its domain: one to three progress values in [0, 100], a clock in
# range, and each distance and range positive, a percentage or spread over every decimal
# exponent up to LARGEST. sampled_from leans to the lower exponents, where st.integers
# would not; a range past about 1e3 Lm shifts a clock back past midnight.
POSITIVE = st.one_of(st.builds(lambda m, e: min(m * 10.0 ** e, LARGEST),
                               st.floats(1, 9.99), st.sampled_from(range(-323, 309))),
                     st.floats(0, 100, exclude_min=True))
IN_DOMAIN_ROW = st.tuples(
    st.builds(linkmodel.ProgressColumn, st.lists(st.floats(0, 100), min_size=1, max_size=3),
              st.builds(linkmodel.Timestamp, st.integers(0, 23), *[st.integers(0, 59)] * 2)),
    POSITIVE, POSITIVE, st.just("#Div/0!"), st.just("#Inf!"))


def test_in_domain_sheet_row_is_finite_or_typed_error():
    rows = []

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(IN_DOMAIN_ROW)
    def check(drawn):
        column, *args = drawn
        try:
            result = column.row(*args)
        except TimedataError:
            rows.append(False)
            return
        assert all(map(math.isfinite, _floats(result))), result
        rows.append(bool(result[0]))

    check()
    # else the property above rests on the few draws that reach a row
    assert 2 * sum(rows) >= len(rows), f"{sum(rows)} of {len(rows)} draws gave a nonempty row"


# The calls that ended in a bare TypeError or ValueError on a Decimal or an array; the
# sort takes a Decimal, which orders against floats, as an element.
REFUSING = {
    "build_sheet": lambda x: analysis.build_sheet(
        [linkmodel.Target("A", 1e8, 8.3)], [x], linkmodel.Timestamp(13, 35, 0)),
    "frequency_resolution": lambda x: linkmodel.frequency_resolution(x, 50),
    "classify_ratio": lambda x: ptvda.classify_ratio(x, 2.0),
    "LinkRecord": lambda x: analysis.LinkRecord(
        "A", 50, "f(x,y)|A", linkmodel.Timestamp(13, 35, 0), 1.0, 1.0, x, 1.0),
    "parallel_sort": lambda x: ptvda.parallel_sort(ptvda.SortInstance([x, 1.0])),
}


@pytest.mark.parametrize("name,value", [
    pytest.param(name, value, id=f"{name}-{type(value).__name__}")
    for name in REFUSING for value in (Decimal(50), _ArrayLike())
    if (name, type(value)) != ("parallel_sort", Decimal)])
def test_a_decimal_or_an_array_is_refused_by_message(name, value):
    with pytest.raises(TimedataError):
        REFUSING[name](value)
