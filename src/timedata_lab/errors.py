"""Exception hierarchy shared by all timedata-lab modules, and their one result check."""

import math


class TimedataError(Exception):
    """Base class for all toolkit errors."""


class DomainError(TimedataError):
    """Input outside an operation's declared domain."""


class DivisionByZeroSignal(TimedataError):
    """Division by zero that maps to the spreadsheet '#Div/0!' sentinel."""


class DivergenceSignal(TimedataError):
    """Declared divergent limit (distinct from plain division by zero)."""


class TotalInternalReflection(TimedataError):
    """Snell ratio exceeded 1; refracted ray does not exist."""


class ThinShellError(DomainError):
    """Shell thickness too large for the thin-shell approximation."""


class CapacityError(TimedataError):
    """More carriers than memory cells."""


class CsvParseError(TimedataError):
    """Malformed CSV row; carries the 1-based line number."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class ChartError(TimedataError):
    """Radar chart cannot be drawn from the given sheet."""


def finite(value, what: str) -> float:
    """value as a float; DomainError naming what when it is nan or infinite,
    or an int or Fraction beyond the float range."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf if value > 0 else -math.inf
    if not math.isfinite(result):
        raise DomainError(f"{what} not finite: {result}")
    return result


def quotient(numerator, denominator, what: str) -> float:
    """finite(numerator / denominator, what), also where a denominator
    underflowed to 0 or an int quotient is beyond the float range."""
    try:
        value = numerator / denominator
    except ZeroDivisionError:
        value = numerator * math.inf  # nan for 0 / 0
    except OverflowError:
        value = numerator // denominator  # an exact int that finite() refuses
    return finite(value, what)
