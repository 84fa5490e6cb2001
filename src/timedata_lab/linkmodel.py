"""Comlink time-data model: progress-to-reach conversion, timestamp shift,
frequency-resolution displacement, uncertainty check and jump probability.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import DivergenceSignal, DivisionByZeroSignal, DomainError
from .units import C_KM_PER_S

TWO_PI = 2.0 * math.pi
_HHMMSS = re.compile(r"([0-9]{2}):([0-9]{2}):([0-9]{2})")  # int() also takes "1_3"


@dataclass(frozen=True)
class Target:
    """A remote comlink target: static distance and light-minute range."""

    name: str
    distance_km: float
    range_lm: float

    def __post_init__(self):
        if self.distance_km <= 0 or self.range_lm <= 0:
            raise DomainError("target distance and range must be positive")


@dataclass(frozen=True)
class Timestamp:
    hours: int
    minutes: int
    seconds: int

    def __post_init__(self):
        if not (0 <= self.hours <= 23 and 0 <= self.minutes <= 59
                and 0 <= self.seconds <= 59):
            raise DomainError(f"timestamp fields out of range: {self}")

    @classmethod
    def parse(cls, text: str) -> "Timestamp":
        if (match := _HHMMSS.fullmatch(text)) is None:
            raise DomainError(f"expected HH:MM:SS, got {text!r}")
        return cls(int(match[1]), int(match[2]), int(match[3]))

    def total_seconds(self) -> int:
        return self.hours * 3600 + self.minutes * 60 + self.seconds

    def __str__(self):
        return f"{self.hours:02d}:{self.minutes:02d}:{self.seconds:02d}"


@dataclass(frozen=True)
class AmplitudeOverlap:
    """Complex transition amplitude between two states."""

    re: float
    im: float

    def modulus_squared(self) -> float:
        return self.re * self.re + self.im * self.im

    def __post_init__(self):
        m2 = self.modulus_squared()
        if m2 > 1.0 + 1e-12:
            raise DomainError(f"overlap modulus squared {m2} exceeds 1")


def _check_progress(progress_pct: float) -> None:
    if not 0.0 <= progress_pct <= 100.0:
        raise DomainError(f"progress must be in [0, 100], got {progress_pct}")


def epsilon_from_progress(progress_pct: float, range_lm: float) -> float:
    """Light-minutes already covered at a given progress percentage."""
    _check_progress(progress_pct)
    if range_lm <= 0:
        raise DomainError("range must be positive")
    return (progress_pct / 100.0) * range_lm


def shift_timestamp(local: Timestamp, epsilon_lm: float) -> Timestamp:
    """Shift a local clock back by epsilon light-minutes of travel time.

    Subtracts round(epsilon * 60) seconds; no day arithmetic, rolling back
    past 00:00:00 is a range error.
    """
    if not epsilon_lm >= 0:  # nan too
        raise DomainError("epsilon must be nonnegative")
    # More than a day (1440 Lm) always rolls back, and round() overflows on inf.
    if (epsilon_lm > 1440.0
            or (total := local.total_seconds() - round(epsilon_lm * 60.0)) < 0):
        raise DomainError("timestamp shift rolls back past midnight")
    return Timestamp(total // 3600, (total % 3600) // 60, total % 60)


def _check_link(distance_km: float, progress_pct: float) -> None:
    if distance_km <= 0:
        raise DomainError("distance must be positive")
    _check_progress(progress_pct)


def _resolution(denominator_km: float) -> float:
    """c / denominator in Hz; a denominator that underflowed to 0, or one
    so small that the quotient overflows, is out of the domain."""
    if denominator_km == 0 or math.isinf(hz := C_KM_PER_S / denominator_km):
        raise DomainError(
            f"frequency resolution overflows: c / {denominator_km:.6g} km")
    return hz


def frequency_resolution(distance_km: float, progress_pct: float) -> float:
    """Effective frequency c / (distance * progress fraction), in Hz."""
    _check_link(distance_km, progress_pct)
    if progress_pct == 0:
        raise DivisionByZeroSignal("frequency resolution undefined at 0% progress")
    return _resolution(distance_km * progress_pct / 100.0)


def displaced_frequency_resolution(distance_km: float, progress_pct: float) -> float:
    """Displaced resolution c / (distance * remaining fraction), in Hz.

    Strictly increasing in progress; progress = 100 is a declared
    divergent limit, not a plain division error.
    """
    _check_link(distance_km, progress_pct)
    if progress_pct == 100.0:
        raise DivergenceSignal("displaced resolution diverges at 100% progress")
    return _resolution(distance_km * (1.0 - progress_pct / 100.0))


def uncertainty_satisfied(delta_omega: float, delta_t: float) -> bool:
    """Bandwidth-time uncertainty check: product must reach 2*pi."""
    if delta_omega < 0 or delta_t < 0:
        raise DomainError("uncertainty inputs must be nonnegative")
    return delta_omega * delta_t >= TWO_PI


def timedata_probability(t_s: float, delta_bits: float,
                         overlap: AmplitudeOverlap) -> float:
    """Jump probability t * delta * |overlap|^2."""
    if t_s < 0 or delta_bits < 0:
        raise DomainError("time and bit count must be nonnegative")
    return t_s * delta_bits * overlap.modulus_squared()
