"""Comlink time-data model: progress-to-reach conversion, timestamp shift, frequency
resolution and its displacement, uncertainty check and jump probability; ProgressColumn
gives a sheet's rows of their cells, each distinct shifted clock made once per sheet."""

import math

from .errors import (LARGEST, NORMAL, PLAIN, TINY, DivergenceSignal, DivisionByZeroSignal,
                     DomainError, finite, listed, ratio, record, within, within_int)
from .units import C_KM_PER_S

TWO_PI = 2.0 * math.pi
_PROGRESS = "progress must be in [0, 100], got {}"
_DISTANCE = "distance must be positive"
_PAST_MIDNIGHT = "timestamp shift rolls back past midnight"
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(100))  # a two-digit field's text, by value
# A field's value by its text: in _HOURS and _SIXTIETHS, finding it is the range check.
_HOURS, _SIXTIETHS, _FIELDS = ({text: value for value, text in enumerate(_TWO_DIGITS[:n])}
                               for n in (24, 60, 100))


class Target(record("Target", "name distance_km range_lm")):
    """A remote comlink target: static distance and light-minute range."""

    __slots__ = ()

    def __init__(self, name: str, distance_km: float, range_lm: float):
        if not isinstance(name, str):
            raise DomainError(f"target name must be text, got {name!r}")
        for value in (distance_km, range_lm):
            within(value, "target distance and range must be positive", TINY)


class Timestamp(record("Timestamp", "hours minutes seconds")):
    """A clock time; as the tuple (hours, minutes, seconds) it orders chronologically."""

    __slots__ = ()

    def __init__(self, hours: int, minutes: int, seconds: int):
        for value, high in ((hours, 23), (minutes, 59), (seconds, 59)):
            within_int(value, "timestamp fields out of range: {!r}", 0, high)

    @classmethod
    def parse(cls, text: str) -> "Timestamp":
        """The clock HH:MM:SS names, each field two ASCII digits. A str's fields in range
        are read by table; other clock text (a str subclass by its own characters) is read
        as any two digits and checked by cls, for the same errors. A value that is no text
        (None, bytes, a number) is refused as malformed text is."""
        if (cls is Timestamp and type(text) is str and len(text) == 8
                and text[2] == text[5] == ":"):
            hours, minutes, seconds = (_HOURS.get(text[:2]), _SIXTIETHS.get(text[3:5]),
                                       _SIXTIETHS.get(text[6:]))
            if hours is not None and minutes is not None and seconds is not None:
                return tuple.__new__(cls, (hours, minutes, seconds))
        chars = str.__str__(text) if isinstance(text, str) else ""
        fields = [_FIELDS.get(chars[i:i + 2]) for i in (0, 3, 6)]
        if len(chars) != 8 or chars[2] != ":" or chars[5] != ":" or None in fields:
            raise DomainError(f"expected HH:MM:SS, got {text!r}")
        return cls(*fields)

    @classmethod
    def from_seconds(cls, total: int) -> "Timestamp":
        """The clock total seconds after 00:00:00, the inverse of total_seconds. An int
        in [0, 86400) gives fields in range, so only other totals (and a subclass's
        clocks) are checked, by cls."""
        fields = (total // 3600, total % 3600 // 60, total % 60)
        if cls is Timestamp and type(total) is int and 0 <= total < 86400:
            return tuple.__new__(cls, fields)
        return cls(*fields)

    def total_seconds(self) -> int:
        return self.hours * 3600 + self.minutes * 60 + self.seconds

    def __str__(self):
        return (f"{_TWO_DIGITS[self.hours]}:{_TWO_DIGITS[self.minutes]}:"
                f"{_TWO_DIGITS[self.seconds]}")


class AmplitudeOverlap(record("AmplitudeOverlap", "re im")):
    """Complex transition amplitude between two states."""

    __slots__ = ()

    def __init__(self, re: float, im: float):
        for part in (re, im):
            within(part, "overlap parts must be finite numbers, got {!r}")
        within(float(re) * re + float(im) * im, "overlap modulus squared {} exceeds 1",
               high=1 + 1e-12)


def epsilon_from_progress(progress_pct: float, range_lm: float) -> float:
    """Light-minutes already covered at a given progress percentage. Linear in
    the range: at a range of 1.0 it is progress_pct / 100 exactly, and that times
    range_lm is the same float."""
    within(progress_pct, _PROGRESS, 0.0, 100.0)
    return (progress_pct / 100.0) * within(range_lm, "range must be positive", TINY)


def shift_seconds(epsilon_lm: float) -> int:
    """round(epsilon * 60): whole seconds of travel time in epsilon light-minutes.
    More than a day (1440 Lm) rolls any clock back past 00:00:00."""
    within(epsilon_lm, "epsilon must be nonnegative", 0.0, math.inf)
    return round(within(epsilon_lm, _PAST_MIDNIGHT, high=1440.0) * 60.0)


def shift_timestamp(local: Timestamp, epsilon_lm: float) -> Timestamp:
    """Shift a local clock back by epsilon light-minutes of travel time.

    Subtracts shift_seconds(epsilon); no day arithmetic, rolling back
    past 00:00:00 is a range error.
    """
    if not isinstance(local, Timestamp):
        raise DomainError(f"base time must be a Timestamp, got {local!r}")
    return Timestamp.from_seconds(
        within(local.total_seconds() - shift_seconds(epsilon_lm), _PAST_MIDNIGHT, 0))


def frequency_resolution(distance_km: float, progress_pct: float) -> float:
    """Effective frequency c / (distance * progress fraction), in Hz: c * 100 / (d * p)."""
    within(distance_km, _DISTANCE, TINY)
    within(progress_pct, _PROGRESS, 0.0, 100.0)
    if progress_pct == 0:
        raise DivisionByZeroSignal("frequency resolution undefined at 0% progress")
    return ratio((C_KM_PER_S, 100.0), (distance_km, progress_pct), "frequency resolution")


def displaced_frequency_resolution(distance_km: float, progress_pct: float) -> float:
    """Displaced resolution c / (distance * remaining fraction), in Hz: c * 100 /
    (d * (100 - p)), where 100 - p is exact from 50% up and 1 - p / 100 would cancel.

    Strictly increasing in progress; progress = 100 is a declared
    divergent limit, not a plain division error.
    """
    within(distance_km, _DISTANCE, TINY)
    within(progress_pct, _PROGRESS, 0.0, 100.0)
    if progress_pct == 100.0:
        raise DivergenceSignal("displaced resolution diverges at 100% progress")
    return ratio((C_KM_PER_S, 100.0), (distance_km, 100.0 - progress_pct),
                 "displaced frequency resolution")


class ProgressColumn:
    """A sheet's progress values, read once into a list, at its base clock local, which
    must be a Timestamp; row gives each target's row of cells at them. shares is None
    unless every value is an int or float in [0, 100]; then shares and rests hold each
    value's p / 100 and 100 - p as the kernels compute them, top_share the largest share,
    and edges the values at which a row's denominators d * p and d * rest, each monotonic
    in the value, are least and greatest (a record with a sentinel has none)."""

    def __init__(self, progress, local: Timestamp):
        progress = self.progress = listed(progress, "progress values")
        if not isinstance(local, Timestamp):
            raise DomainError(f"base time must be a Timestamp, got {local!r}")
        # a whole-second shift -> its clock and its float, which the sheet's rows share
        self.local, self.shares, self._clocks, self._delta_ts = local, None, {}, {}
        if all(type(p) in PLAIN and 0 <= p <= 100 for p in progress):
            self.shares = [p / 100.0 for p in progress]
            self.rests = [100.0 - p for p in progress]
            self.top_share = max(self.shares, default=0.0)
            nonzero, rests = [p for p in progress if p], [rest for rest in self.rests if rest]
            self.edges = ((nonzero and [min(nonzero), max(nonzero)])
                          + (rests and [min(rests), max(rests)]))

    def row(self, distance_km: float, range_lm: float, div0, diverges) -> tuple:
        """A row's clocks, epsilons, delta-t, resolutions and displaced resolutions, five
        lists in LinkRecord's field order: shift_timestamp's clocks and the kernels' floats
        bit for bit, div0 and diverges where they signal. They are _row_columns' cells, else
        the kernels', record by record, so that the first record they refuse decides the error."""
        clocks, delta_ts = self._clocks, self._delta_ts
        if (columns := _row_columns(self, distance_km, range_lm, div0, diverges)) is None:
            columns = [], [], [], []
            for p in self.progress:
                e = epsilon_from_progress(p, range_lm)
                if (s := shift_seconds(e)) not in clocks:
                    clocks[s], delta_ts[s] = shift_timestamp(self.local, e), float(s)
                try:
                    f = frequency_resolution(distance_km, p)
                except DivisionByZeroSignal:
                    f = div0
                try:
                    f_x = displaced_frequency_resolution(distance_km, p)
                except DivergenceSignal:
                    f_x = diverges
                for cells, cell in zip(columns, (float(e), s, f, f_x)):
                    cells.append(cell)
        eps, seconds, nu, nu_x = columns
        if new := set(seconds).difference(clocks):
            base = self.local.total_seconds()
            for s in new:  # shift_timestamp's clock, which _row_columns keeps in range
                clocks[s], delta_ts[s] = Timestamp.from_seconds(base - s), float(s)
        return (list(map(clocks.__getitem__, seconds)), eps,
                list(map(delta_ts.__getitem__, seconds)), nu, nu_x)


def _row_columns(column: ProgressColumn, distance_km: float, range_lm: float, div0, diverges):
    """One row's epsilons, shift seconds, resolutions and displaced resolutions at the
    column's progress values, as four lists: each cell bit for bit what
    epsilon_from_progress, shift_seconds, frequency_resolution and
    displaced_frequency_resolution return, or div0 and diverges where the last two signal.

    None unless, read at the row's extremes, these kernels and shift_timestamp from the
    column's clock refuse none of the row's records and errors.ratio keeps its float path:
    ints and floats, progress in [0, 100], epsilon at most 1440 Lm, no shift past
    midnight, and a normal distance and denominators with c * 100 over each finite. Each
    cell is then the kernel's own expression, in its float order.
    """
    if column.shares is None or type(distance_km) not in PLAIN or type(range_lm) not in PLAIN:
        return None
    if not column.progress:  # no record to refuse
        return [], [], [], []
    # The 1440 Lm bound keeps top * 60.0 finite, so round() cannot raise OverflowError,
    # and the kernels read the clock once the first record's epsilon is within it, so an
    # error the clock raises here is theirs.
    c = C_KM_PER_S * 100.0
    if not (NORMAL <= distance_km <= LARGEST and TINY <= range_lm <= LARGEST
            and (top := column.top_share * range_lm) <= 1440.0
            and type(base := column.local.total_seconds()) is int
            and round(top * 60.0) <= base < 86400
            and all(NORMAL <= (den := float(distance_km) * v) <= LARGEST and c / den <= LARGEST
                    for v in column.edges)):
        return None
    eps, d = [share * range_lm for share in column.shares], float(distance_km)
    # The signals: at progress 0, the one falsy value, and at 100, whose rest is the one 0.
    return (eps, list(map(round, [e * 60.0 for e in eps])),
            [c / (d * p) if p else div0 for p in column.progress],
            [c / (d * rest) if rest else diverges for rest in column.rests])


def uncertainty_satisfied(delta_omega: float, delta_t: float) -> bool:
    """Bandwidth-time uncertainty check: product must reach 2*pi."""
    for value in (delta_omega, delta_t):
        within(value, "uncertainty inputs must be nonnegative", 0.0)
    return delta_omega * delta_t >= TWO_PI


def timedata_probability(t_s: float, delta_bits: float,
                         overlap: AmplitudeOverlap) -> float:
    """Jump probability t * delta * |overlap|^2, as t * delta * re^2 + t * delta * im^2:
    no square underflows before the product."""
    for value in (t_s, delta_bits):
        within(value, "time and bit count must be nonnegative", 0.0)
    return finite(ratio((t_s, delta_bits, overlap.re, overlap.re), (), "jump probability")
                  + ratio((t_s, delta_bits, overlap.im, overlap.im), (), "jump probability"),
                  "jump probability")
