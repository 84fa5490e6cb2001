"""Relativistic timing kernel: time factor, proper-time deltas, stored
proper time, polar/Jacobian machinery, charge bookkeeping and Moire
wavelength."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZeroSignal, DomainError
from .units import C_KM_PER_S

# Stationary storage projection factor, exact cos(pi/4).
STORAGE_FACTOR = math.cos(math.pi / 4.0)


@dataclass(frozen=True)
class Velocity:
    """Speed as a fraction of c."""

    fraction_of_c: float

    def __post_init__(self):
        if not 0.0 <= self.fraction_of_c < 1.0:
            raise DomainError(f"beta must be in [0, 1), got {self.fraction_of_c}")


@dataclass(frozen=True)
class PolarPoint:
    r: float
    phi: float

    def __post_init__(self):
        if self.r < 0:
            raise DomainError("radius must be nonnegative")
        if not -math.pi < self.phi <= math.pi + 1e-15:
            raise DomainError(f"phi must lie in (-pi, pi], got {self.phi}")


@dataclass(frozen=True)
class ChargeLedger:
    q_t1: float
    q_in: float
    q_out: float

    def __post_init__(self):
        if self.q_in < 0 or self.q_out < 0:
            raise DomainError("charge flows must be nonnegative")


def time_factor(v: Velocity) -> float:
    """Time dilation factor 1 / sqrt(1 - beta^2), always >= 1."""
    return 1.0 / math.sqrt(1.0 - v.fraction_of_c ** 2)


def proper_time_delta_general(dt_s: float, vx_km_s: float, vy_km_s: float,
                              vz_km_s: float) -> float:
    """Proper-time interval dt * sqrt(1 - v^2/c^2) for a 3-velocity."""
    speed2 = vx_km_s ** 2 + vy_km_s ** 2 + vz_km_s ** 2
    c2 = C_KM_PER_S ** 2
    if speed2 >= c2:
        raise DomainError("total speed must stay below c")
    return dt_s * math.sqrt(1.0 - speed2 / c2)


def stored_proper_time(t_dot_0: float) -> float:
    """Stored proper time |t_dot_0| * cos(pi/4)."""
    return abs(t_dot_0) * STORAGE_FACTOR


def polar_from_cartesian(x: float, y: float) -> PolarPoint:
    """Polar coordinates of (x, y); the origin maps to (0, 0) by convention."""
    r = math.hypot(x, y)
    phi = math.atan2(y, x) if r > 0 else 0.0
    if phi <= -math.pi:
        phi = math.pi
    return PolarPoint(r, phi)


def cartesian_from_polar(p: PolarPoint) -> tuple[float, float]:
    return (p.r * math.cos(p.phi), p.r * math.sin(p.phi))


def jacobian_polar(p: PolarPoint) -> float:
    """Jacobian determinant of the polar map, from the four explicit partials."""
    dx_dr = math.cos(p.phi)
    dx_dphi = -p.r * math.sin(p.phi)
    dy_dr = math.sin(p.phi)
    dy_dphi = p.r * math.cos(p.phi)
    return dx_dr * dy_dphi - dx_dphi * dy_dr


def charge_balance(ledger: ChargeLedger) -> Fraction:
    """Charge at t2: Q(t1) + Q_in - Q_out.

    Computed in exact rational arithmetic so conservation holds to the
    last bit; the result compares and mixes transparently with floats.
    """
    return Fraction(ledger.q_t1) + Fraction(ledger.q_in) - Fraction(ledger.q_out)


def charge_balance_inverse(q_t2, q_in: float, q_out: float) -> Fraction:
    """Recover Q(t1) from the balance output and the same flows, exactly."""
    return Fraction(q_t2) - Fraction(q_in) + Fraction(q_out)


def charge_density(q_total_c: float, volume_m3: float) -> float:
    """Plate charge density Q / (2 * V); the factor 2 is part of the model."""
    if volume_m3 <= 0:
        raise DivisionByZeroSignal("volume must be positive")
    return q_total_c / (2.0 * volume_m3)


def moire_wavelength(x_delta0: float, x_delta: float, x_pattern: float) -> float:
    """Moire wavelength x_delta0 * x_delta / x_pattern."""
    if x_pattern <= 0:
        raise DivisionByZeroSignal("pattern length must be positive")
    return x_delta0 * x_delta / x_pattern
