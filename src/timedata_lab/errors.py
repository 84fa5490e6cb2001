"""Exception types of timedata-lab, the record base of its value types, the one
reader of list arguments (`listed`), and its one rule for numbers: each is an int,
a float or another numbers.Real, finite and in its declared range, text is a number
only to `finite_float`, `finite_floats`, `plain_float`, `plain_int` and `plain_ints`,
a result number becomes text by `finite_text`'s format, and a product or quotient
leaves the normal floats only exactly."""

import math
import numbers
import sys
from collections import namedtuple

LARGEST = math.nextafter(math.inf, 0.0)  # sys.float_info.max
TINY = math.ulp(0.0)  # the least positive float: a low bound of TINY means > 0
# The least positive normal float: a result below it keeps fewer than 53 bits.
NORMAL = sys.float_info.min
PLAIN = {float, int}  # the plain number types, tested before the slower numbers.Real


class TimedataError(Exception):
    """Base class for all toolkit errors; the CLI exits 1 on one."""


class DomainError(TimedataError):
    """Input outside an operation's declared domain."""


class DivisionByZeroSignal(TimedataError):
    """Division by zero that maps to the spreadsheet '#Div/0!' sentinel."""


class DivergenceSignal(TimedataError):
    """Declared divergent limit (distinct from plain division by zero)."""


def finite_float(text: str) -> float:
    """The one parser of numbers read from outside (CLI flags, config values,
    CSV cells): a float that is neither nan nor infinite. It refuses `_` as
    plain_float does, inline, as parse_csv calls it up to 5 times a record."""
    if "_" in text:
        raise ValueError(_GROUPED.format(text))
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not finite: {text!r}")
    return value


def finite_floats(text: str) -> tuple:
    """float() of each comma-separated item but empty ones, refusing `_` and an inf
    or nan item as finite_float does; the error names the whole list."""
    if "_" in text:
        raise ValueError(_GROUPED.format(text))
    values = tuple(map(float, filter(None, text.split(","))))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"not finite: {text!r}")
    return values


def plain_float(text: str) -> float:
    """float(text), inf and nan included (sort classify's infinity marker), but not
    the `_` digit grouping Python reads (`1_0` is 10), which no toolkit output writes."""
    return float(_ungrouped(text))


def plain_int(text: str) -> int:
    """int(text), refusing `_` as plain_float does: every int flag's type."""
    return int(_ungrouped(text))


def plain_ints(text: str) -> tuple:
    """plain_int of each comma-separated item but empty ones: the int list flag's type."""
    return tuple(map(plain_int, filter(None, text.split(","))))


_GROUPED = "digit grouping in number: {!r}"


def _ungrouped(text: str) -> str:
    if "_" in text:
        raise ValueError(_GROUPED.format(text))
    return text


# a usage error names a flag's type, as argparse does
finite_float.__name__, plain_float.__name__, plain_int.__name__ = "finite float", "float", "int"
finite_floats.__name__, plain_ints.__name__ = "finite float list", "int list"


def finite_text(value) -> str:
    """The one formatter of result numbers (CLI output, CSV cells, chart labels): 6
    significant digits of the number's correctly rounded float, never nan or inf, so an
    exact result just beyond LARGEST that rounds to it prints. Outputs that keep their
    own format: `link eps` at 6 decimals, the probe's log-log slope at 4 and SVG
    coordinates at 2; `sort run` writes its values, finite floats already, by this
    format itself, all in one."""
    if type(value) is not float and isinstance(value, numbers.Real):
        value = _rounded(value)
    return f"{finite(value, 'result'):.6g}"


def within(value, message: str, low=-LARGEST, high=LARGEST, error=DomainError):
    """value unchanged (ints and Fractions stay exact) if it is a number, an int, a float
    or another numbers.Real, and low <= value <= high, else error(message.format(value)).
    Text, None, complex, a Decimal and an array are no number, and nan fails the bounds;
    the default bounds also refuse inf and ints beyond the float range."""
    if (type(value) in PLAIN or isinstance(value, numbers.Real)) and low <= value <= high:
        return value
    raise error(message.format(value))


def within_int(value, message: str, low, high=LARGEST):
    """within(value, ...) for a value that must also be an int."""
    if isinstance(value, int) and low <= value <= high:
        return value
    raise DomainError(message.format(value))


def listed(values, name: str) -> list:
    """A new list of values, read once, so that an iterator serves where a list
    does; a value that is not iterable (None, a number) raises DomainError."""
    try:
        values = iter(values)
    except TypeError:
        raise DomainError(f"{name} must be iterable, got {values!r}") from None
    return list(values)


def record(name: str, fields: str, defaults=()):
    """The namedtuple base of an immutable record class. A record that only checks its
    fields checks them in __init__, but memtiming.Carrier, of which an allocation builds
    thousands, checks them in __new__, in one frame. It and the records that normalise
    their input (CellMap, analysis.LinkRecord and analysis.Sheet) build themselves in
    __new__, which copy and pickle call too, so a copy of one is checked again.
    analysis.build_sheet and parse_csv build LinkRecord and Sheet, and
    linkmodel.Timestamp.parse and Timestamp.from_seconds build Timestamp, with
    tuple.__new__, from fields they have checked. _make calls the class, so _replace
    and copy.replace check too, where namedtuple's _make calls tuple.__new__ alone."""
    # the caller's module, not this one, so that pickle finds the record's class
    base = namedtuple(name, fields, defaults=defaults,
                      module=sys._getframe(1).f_globals["__name__"])
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def finite(value, what: str) -> float:
    """within(value) with the default bounds, as a float; the DomainError names
    what, and shows a number beyond the float range as the inf it rounds to. A Real
    that is no plain number (a Fraction) is rounded first: rounding is monotonic, so
    one whose float is below LARGEST in size is exactly within the bounds, with no
    exact compare against a float; one that rounds to +-LARGEST or past it, or to nan,
    is left to within."""
    if type(value) not in PLAIN and isinstance(value, numbers.Real):
        if abs(rounded := _rounded(value)) < LARGEST:
            return rounded
    try:
        return float(within(value, ""))
    except DomainError:
        if not isinstance(value, numbers.Real):
            raise DomainError(f"{what} not a number: {value!r}") from None
        shown = math.inf if value > 0 else -math.inf if value < 0 else math.nan
        raise DomainError(f"{what} not finite: {shown}") from None


def _rounded(real):
    """float(real), correctly rounded, or real itself where that float overflows."""
    try:
        return float(real)
    except OverflowError:
        return real


def ratio(factors, divisors, what: str) -> float:
    """finite(product of factors / product of divisors, what): the factors multiplied
    left to right, then the divisors, and divided, while each partial product is a
    normal float, or 0 as a factor is 0; else, or for an int beyond the float range,
    a Decimal or a zero divisor, exact_ratio's value."""
    try:
        return finite(_product(factors) / _product(divisors), what)
    except (OverflowError, TypeError, ZeroDivisionError):
        return exact_ratio(factors, divisors, what)


def exact_ratio(factors, divisors, what: str) -> float:
    """finite(product of factors / product of divisors, what), rounded once from
    the exact value: the products of the operands' ratios of ints, divided as ints.
    A zero divisor gives a signed inf (nan for 0 / 0), and beside an inf or nan
    operand the others count only by their signs."""
    try:
        ratios = ([x.as_integer_ratio() for x in factors]
                  + [x.as_integer_ratio()[::-1] for x in divisors])
    except (OverflowError, ValueError):  # no ratio of ints is an inf or nan
        ratios = [(_sign(x), 1) for x in factors] + [(1, _sign(x)) for x in divisors]
    numerator, denominator = math.prod(r[0] for r in ratios), math.prod(r[1] for r in ratios)
    try:
        value = numerator / denominator
    except (ZeroDivisionError, OverflowError):  # OverflowError: past the float range
        value = _sign(numerator) * _sign(denominator or 1) * math.inf  # nan for 0 / 0
    return finite(value, what)


def _product(values) -> float:
    """The float product of values, left to right; OverflowError once a partial
    product leaves the normal floats, unless it is 0 as a value is 0."""
    product = 1.0
    for value in values:
        product *= value
        if not NORMAL <= abs(product) <= LARGEST and (product or 0 not in values):
            raise OverflowError
    return product


def _sign(number):
    """The sign of number, or number itself where it is an inf or nan."""
    return number if abs(number) == math.inf or number != number else (number > 0) - (number < 0)
