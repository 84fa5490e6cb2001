"""Exception hierarchy shared by all timedata-lab modules."""


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
