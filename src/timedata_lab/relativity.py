"""Relativistic timing kernel: time factor, proper-time deltas, stored
proper time, polar/Jacobian machinery, charge bookkeeping and Moire
wavelength."""

import math

from .errors import TINY, DivisionByZeroSignal, _rounded, finite, ratio, record, within
from .units import C_KM_PER_S

# Stationary storage projection factor, exact cos(pi/4).
STORAGE_FACTOR = math.cos(math.pi / 4.0)


class Velocity(record("Velocity", "fraction_of_c")):
    """Speed as a fraction of c."""

    __slots__ = ()

    def __init__(self, fraction_of_c: float):
        within(fraction_of_c, "beta must be in [0, 1), got {}", 0.0, math.nextafter(1.0, 0.0))


class PolarPoint(record("PolarPoint", "r phi")):
    __slots__ = ()

    def __init__(self, r: float, phi: float):
        within(r, "radius must be nonnegative", 0.0)
        within(phi, "phi must lie in (-pi, pi], got {}", math.nextafter(-math.pi, 0.0),
               math.pi + 1e-15)


class ChargeLedger(record("ChargeLedger", "q_t1 q_in q_out")):
    __slots__ = ()

    def __init__(self, q_t1: float, q_in: float, q_out: float):
        within(q_t1, "charge must be a finite number, got {!r}")
        for value in (q_in, q_out):
            within(value, "charge flows must be nonnegative", 0.0)


def time_factor(v: Velocity) -> float:
    """Time dilation factor 1 / sqrt(1 - beta^2), always >= 1."""
    return 1.0 / math.sqrt(1.0 - v.fraction_of_c ** 2)


def proper_time_delta_general(dt_s: float, vx_km_s: float, vy_km_s: float,
                              vz_km_s: float) -> float:
    """Proper-time interval dt * sqrt(1 - v^2/c^2) for a 3-velocity."""
    vx, vy, vz = (finite(v, "velocity") for v in (vx_km_s, vy_km_s, vz_km_s))
    speed2 = vx * vx + vy * vy + vz * vz
    within(speed2, "total speed must stay below c", high=math.nextafter(C_KM_PER_S ** 2, 0.0))
    return finite(dt_s, "time interval") * math.sqrt(1.0 - speed2 / C_KM_PER_S ** 2)


def stored_proper_time(t_dot_0: float) -> float:
    """Stored proper time |t_dot_0| * cos(pi/4)."""
    return abs(finite(t_dot_0, "proper time rate")) * STORAGE_FACTOR


def polar_from_cartesian(x: float, y: float) -> PolarPoint:
    """Polar coordinates of (x, y); the origin maps to (0, 0) by convention."""
    r = finite(math.hypot(finite(x, "x"), finite(y, "y")), "radius")
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
    return finite(dx_dr * dy_dphi - dx_dphi * dy_dr, "Jacobian")


def charge_balance(ledger: ChargeLedger):
    """Charge at t2, Q(t1) + Q_in - Q_out, as an exact Fraction, so that conservation
    holds to the last bit; it compares and mixes with floats. A balance whose correctly
    rounded float overflows is refused; one past LARGEST that rounds to it is returned."""
    from fractions import Fraction  # imported at start, every `rel` leaf would pay 5-7 ms
    balance = Fraction(ledger.q_t1) + Fraction(ledger.q_in) - Fraction(ledger.q_out)
    finite(_rounded(balance), "charge balance")
    return balance


def charge_balance_inverse(q_t2, q_in: float, q_out: float):
    """Recover Q(t1) from the balance output and the same flows, as an exact Fraction."""
    from fractions import Fraction
    for value in (q_t2, q_in, q_out):
        finite(value, "charge")
    q_t1 = Fraction(q_t2) - Fraction(q_in) + Fraction(q_out)
    finite(_rounded(q_t1), "charge")  # refused, as a balance is, where its float overflows
    return q_t1


def charge_density(q_total_c: float, volume_m3: float) -> float:
    """Plate charge density Q / (2 * V); the factor 2 is part of the model."""
    within(volume_m3, "volume must be positive", TINY, error=DivisionByZeroSignal)
    return ratio((finite(q_total_c, "charge"),), (2.0, volume_m3), "charge density")


def moire_wavelength(x_delta0: float, x_delta: float, x_pattern: float) -> float:
    """Moire wavelength x_delta0 * x_delta / x_pattern."""
    within(x_pattern, "pattern length must be positive", TINY, error=DivisionByZeroSignal)
    for value in (x_delta0, x_delta):
        within(value, "Moire lengths must be finite numbers, got {!r}")
    return ratio((x_delta0, x_delta), (x_pattern,), "Moire wavelength")
