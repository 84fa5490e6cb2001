"""Every product and quotient kernel against an exact oracle, over finite inputs
in its domain drawn from across the float range (test_finite_results.F). Where
the exact value rounds to a finite float, the kernel returns it within the ulp
bound its test states, and correctly rounded where its float steps would leave
the normal floats (errors.ratio's exact path); where the exact value rounds past
the float range, the kernel raises DomainError.

The oracle is a Fraction of the drawn inputs in the kernel's own formula, with its
float constants (c, 2 * pi); the square roots of the V-number and of a planar
displacement's length are taken in decimal at 60 digits. Three values are the
kernel's own floats, as they are no product: sin(theta) in the Snell ratio, the
hypot of a planar displacement scaled to [0.5, 1.5), checked against its exact root
on its own, and the cell sides (hi - lo) / n of a midpoint sum whose sides are all
within the float range. Each @example
is a case some version of the toolkit lost or refused."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_finite_results import F
from timedata_lab import analysis, geomlink, linkmodel, memtiming, optics, ptvda, relativity
from timedata_lab.errors import LARGEST, NORMAL, DomainError
from timedata_lab.units import C_KM_PER_S

POSITIVE = F.map(abs).filter(bool)
NONNEGATIVE = F.map(abs)
NONZERO = F.filter(bool)
INDEX = F.map(abs).filter(lambda x: x >= 1)  # a refractive index or a size
PERCENT = st.one_of(st.floats(0, 100), F.map(abs).filter(lambda x: x <= 100))
PART = F.filter(lambda x: abs(x) <= 0.7)  # an overlap part: |overlap|^2 <= 0.98
EXACT = settings(derandomize=True, deadline=None, max_examples=200)


def _exact(factors, divisors=()) -> Fraction:
    return math.prod(map(Fraction, factors)) / math.prod(map(Fraction, divisors))


def _rounded(x) -> float:
    """x correctly rounded to a float, a signed inf past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_path(factors, divisors) -> bool:
    """Whether errors.ratio keeps its float path: each partial product of the factors,
    then of the divisors, is a normal float or 0 beside a factor of 0, and the
    divisors' product is not 0."""
    for values in (factors, divisors):
        product = 1.0
        for value in values:
            product *= value
            if not NORMAL <= abs(product) <= LARGEST and (product or 0 not in values):
                return False
    return product != 0


def _check(kernel, args, exact, ulps, parts=None, limit=LARGEST):
    """kernel(*args) against the exact value (math.inf where the kernel's own floats
    leave none): within ulps of it, refused only within ulps of past the limit, and
    where parts, the operands the kernel hands errors.ratio, leave its float path,
    their exact value correctly rounded."""
    exact_path = parts is not None and not _float_path(*parts)
    try:
        value = kernel(*args)
    except DomainError:
        assert abs(exact) > limit - ulps * math.ulp(limit), (args, _rounded(exact))
        if exact_path:
            assert abs(_rounded(_exact(*parts))) > limit, args
        return
    expected = _rounded(exact)
    assert math.isfinite(value)
    assert abs(Fraction(value) - exact) <= Fraction(ulps) * Fraction(
        math.ulp(min(abs(expected), limit))), (args, value, expected)
    if exact_path:
        assert value == _rounded(_exact(*parts)), (args, value)


@EXACT
@given(NONNEGATIVE, POSITIVE, POSITIVE)
@example(1e-300, 1e-200, 1e-200)
def test_bit_frequency(a, b, t):
    _check(memtiming.bit_frequency, (a, b, t), _exact((a,), (b, t)), 2, ((a,), (b, t)))


@EXACT
@given(POSITIVE, POSITIVE, POSITIVE, POSITIVE)
@example(1e300, 1e-10, 1e-20, 1.0)
@example(1e-300, 1.0, 1e300, 1e-10)
def test_resistances(length, width, resistivity, thickness):
    g = memtiming.ElectrodeGeometry(length, width, resistivity, thickness)
    _check(memtiming.sheet_resistance, (g,), _exact((resistivity,), (thickness,)), 0.5)
    _check(memtiming.resistance, (g,), _exact((length, resistivity), (width, thickness)), 0.5)


@EXACT
@given(F, NONZERO)
def test_transconductance(d_i, d_v):
    _check(memtiming.transconductance_baseline, (d_i, d_v), _exact((d_i,), (d_v,)), 0.5)


@EXACT
@given(NONNEGATIVE, POSITIVE)
def test_quantum_efficiency(collected, storable):
    _check(memtiming.quantum_efficiency, (collected, storable),
           _exact((collected,), (storable,)), 0.5)


@EXACT
@given(F, F, NONNEGATIVE)
@example(1e-200, 1e-200, 1e300)
@example(1e200, 1e200, 1e-300)
def test_faraday_rotation(verdet, field, path):
    _check(optics.faraday_rotation, (optics.FaradayCell(verdet, field, path),),
           _exact((verdet, field, path)), 2, ((verdet, field, path), ()))


def _returned(value):
    """A kernel that returns value."""
    return lambda: value


# A refusal of either result refuses both.
@EXACT
@given(POSITIVE, POSITIVE, POSITIVE, POSITIVE)
@example(1e-300, 1e300, 1e10, 1e10)
def test_isolation_geometry(b, length, mean_radius, circular_radius):
    assume(b <= math.nextafter(optics.THIN_SHELL_FACTOR * circular_radius, 0.0)
           and mean_radius - b / 2 > 0)
    area = _exact((math.tau, b)) * (Fraction(b) + Fraction(length))
    volume = _exact((math.tau, mean_radius, length, b))
    try:
        results = optics.isolation_geometry(
            optics.IsolationShell(b, length, mean_radius, circular_radius))
    except DomainError:
        assert max(area, volume) > LARGEST - 3 * math.ulp(LARGEST)
        return
    _check(_returned(results[0]), (), area, 3, ((math.tau, b, b + length), ()))
    _check(_returned(results[1]), (), volume, 3, ((math.tau, mean_radius, length, b), ()))


def _root(x: Fraction) -> Fraction:
    """The square root of x, taken in decimal at 60 digits."""
    with localcontext() as context:
        context.prec = 60
        return Fraction((Decimal(x.numerator) / Decimal(x.denominator)).sqrt())


def _v_number(radius, wavelength, n1, n2) -> Fraction:
    return _exact((math.tau, radius), (wavelength,)) * _root(
        Fraction(n1) ** 2 - Fraction(n2) ** 2)


# The float steps round up to 8 times (about 7.25 ulp at most).
@EXACT
@given(POSITIVE, POSITIVE, INDEX, INDEX)
@example(1e-6, 1.55e-6, 1.4500000000000001, 1.45)
@example(1e-10, 1.0, LARGEST, 1.0)
def test_v_number(radius, wavelength, n1, n2):
    n1, n2 = max(n1, n2), min(n1, n2)
    _check(optics.v_number, (optics.FiberSpec(radius, wavelength, n1, n2),),
           _v_number(radius, wavelength, n1, n2), 8)


# The angle's sine: asin and sin add up to about 2 ulp to the ratio's 1.5.
@EXACT
@given(F, F, NONZERO)
def test_snell_ratio(theta, n1, n2):
    _check(lambda *args: math.sin(optics.snell_refracted_angle(*args)), (theta, n1, n2),
           _exact((math.sin(theta), n1), (n2,)), 4, limit=1.0)


@EXACT
@given(F, POSITIVE)
@example(5e-324, 0.5)
def test_charge_density(charge, volume):
    _check(relativity.charge_density, (charge, volume), _exact((charge,), (2, volume)), 0.5,
           ((charge,), (2.0, volume)))


@EXACT
@given(F, F, POSITIVE)
def test_moire_wavelength(x_delta0, x_delta, x_pattern):
    _check(relativity.moire_wavelength, (x_delta0, x_delta, x_pattern),
           _exact((x_delta0, x_delta), (x_pattern,)), 2, ((x_delta0, x_delta), (x_pattern,)))


@EXACT
@given(POSITIVE, PERCENT.filter(bool))
@example(1e308, 50.0)
def test_frequency_resolution(distance, progress):
    _check(linkmodel.frequency_resolution, (distance, progress),
           _exact((C_KM_PER_S, 100), (distance, progress)), 2,
           ((C_KM_PER_S, 100.0), (distance, progress)))


# 100 - progress rounds below 50%; 1 - progress / 100 cancelled near 100%.
@EXACT
@given(POSITIVE, PERCENT.filter(lambda p: p < 100))
@example(1e308, 50.0)
@example(1.0, 99.99999999999999)
def test_displaced_frequency_resolution(distance, progress):
    _check(linkmodel.displaced_frequency_resolution, (distance, progress),
           _exact((C_KM_PER_S, 100), (distance, 100 - Fraction(progress))), 3,
           ((C_KM_PER_S, 100.0), (distance, 100.0 - progress)))


# A sum of two terms, each rounded up to 3 times.
@EXACT
@given(NONNEGATIVE, NONNEGATIVE, PART, PART)
@example(1e200, 1e200, 1e-150, 0.0)
@example(1e200, 1e200, 1e-170, 0.0)
@example(LARGEST, LARGEST, 5e-324, 5e-324)
def test_timedata_probability(t, delta, re, im):
    _check(linkmodel.timedata_probability, (t, delta, linkmodel.AmplitudeOverlap(re, im)),
           _exact((t, delta)) * (Fraction(re) ** 2 + Fraction(im) ** 2), 4)


# The length is h * 2**e, e the larger frexp exponent of dx and dy and h the hypot of
# both scaled by 2**-e: within 1 ulp of h, at that scale, of the exact root (hypot's
# bound from Python 3.10 on), and each result that length's quotient. A refusal of
# either result refuses both.
@EXACT
@given(F, F, POSITIVE, POSITIVE)
@example(1e300, 0.0, 1e200, 1e200)
@example(1.5e308, 1.5e308, 1e10, 1.0)
@example(5e-324, 5e-324, 1e-300, 1.0)
def test_planar_kinematics(dx, dy, t, t_parallel):
    e = max(math.frexp(dx)[1], math.frexp(dy)[1])
    h = math.hypot(math.ldexp(dx, -e), math.ldexp(dy, -e))
    parts = (h, 2.0 ** (e // 2), 2.0 ** (e - e // 2))
    length = _exact(parts)
    assert abs(length - _root(Fraction(dx) ** 2 + Fraction(dy) ** 2)) <= _exact(
        (math.ulp(h), *parts[1:])), (dx, dy, h)
    speed, acceleration = length / Fraction(t), length / _exact((t, t_parallel))
    try:
        v, a, v_sync = geomlink.planar_kinematics(geomlink.PlanarMotion((dx, dy), t, t_parallel))
    except DomainError:
        assert max(speed, acceleration) > LARGEST - 2 * math.ulp(LARGEST)
        return
    assert v_sync == v
    _check(_returned(v), (), speed, 0.5, (parts, (t,)))
    _check(_returned(a), (), acceleration, 2, (parts, (t, t_parallel)))


# A constant integrand on one cell: the sum is the value, and its product with the
# cell's sides is errors.ratio's; where a side is past the float range (an int side
# too), that with the exact sides, rounded once.
@EXACT
@given(F, F, F, F, F)
@example(1e-300, 0.0, 1e-20, 0.0, 1e20)
@example(1e-300, -1e308, 1e308, 0.0, 1.0)
@example(1e-300, -10**308, 10**308, 0, 1)
def test_midpoint_sum_product(value, x0, x1, y0, y1):
    sides = (x1 - x0, y1 - y0)
    # a side of 0 gives 0, as in the kernel
    if 0 in sides or all(abs(side) <= LARGEST for side in sides):
        exact, ulps, parts = _exact((value, *sides)), 2, ((value, *sides), ())
    else:
        exact, ulps, parts = Fraction(value) * (Fraction(x1) - Fraction(x0)) * (
            Fraction(y1) - Fraction(y0)), 0.5, None
    _check(geomlink.riemann_area, (lambda x, y: value, (x0, x1, y0, y1), 1, 1), exact, ulps,
           parts)


@EXACT
@given(F, F, F, F)
@example(0.0, -1e308, 1e300, 1e308)
@example(-1e308, -1e308, 1e308, 1e308)
def test_slope(x1, y1, x2, y2):
    assume(x1 != x2)
    exact = (Fraction(y2) - Fraction(y1)) / (Fraction(x2) - Fraction(x1))
    _check(geomlink.slope, (geomlink.Point2(x1, y1), geomlink.Point2(x2, y2)), exact, 2)


# The class, or refusal, from the exact size ratio, taken in the kernel's order;
# within 2 ulp of the bound either class serves.
@EXACT
@given(st.one_of(INDEX, st.integers(1, 10**400)), st.one_of(INDEX, st.integers(1, 10**400)),
       POSITIVE)
@example(10**400, 10**399, 5.0)
def test_classify_ratio(n, n_prime, m_bound):
    r = Fraction(n) / Fraction(n_prime)

    def outcome(bound):
        if n == n_prime:
            return "Unit"
        if _rounded(r) == math.inf:
            return DomainError
        if r > bound:
            return "Diverging"
        if _rounded(1 / r) == math.inf:
            return DomainError
        return "Vanishing" if 1 / r > bound else "Unit"

    try:
        got = ptvda.classify_ratio(n, n_prime, m_bound)
    except DomainError:
        got = DomainError
    slack = 2 * Fraction(math.ulp(m_bound))
    assert got in {outcome(m_bound - slack), outcome(m_bound + slack)}


# d * p overflows, so the row is built by the kernels: at 50% both resolutions are
# c / (d / 2), where nu_dw_hz was once written as 0 beside a nu_dw_x_hz of 6e-303.
def test_a_sheet_row_past_the_float_path_writes_the_exact_resolutions(tmp_path):
    sheet = analysis.build_sheet([linkmodel.Target("X", 1e308, 1.0)], [50.0],
                                 linkmodel.Timestamp(12, 0, 0))
    analysis.emit_csv(sheet, tmp_path / "sheet.csv")
    row = (tmp_path / "sheet.csv").read_text().splitlines()[1]
    assert row.endswith(",6e-303,6e-303")
