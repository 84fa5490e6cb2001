"""Fiber and Faraday-filter calculations: V-number, single-mode test,
Snell ratio, rotation angle and thin-shell isolation geometry."""

import math

from .errors import TINY, DomainError, finite, ratio, record, within

# Single-mode cutoff used by this toolkit (documented divergence from the
# textbook 2.405).
SINGLE_MODE_CUTOFF = 1.57

# "b much less than r_C" operationalized as a 10x margin.
THIN_SHELL_FACTOR = 0.1
_THIN_SHELL = f"thin-shell assumption violated: b={{}} >= {THIN_SHELL_FACTOR:g} * r_C"


class FiberSpec(record("FiberSpec", "core_radius_m wavelength_m n1 n2")):
    __slots__ = ()

    def __init__(self, core_radius_m: float, wavelength_m: float, n1: float, n2: float):
        for value in (core_radius_m, wavelength_m):
            within(value, "core radius and wavelength must be positive", TINY)
        for value in (n1, n2):
            within(value, "refractive indices must be >= 1", 1.0)
        within(n1, "guided modes need n1 >= n2", n2)


class FaradayCell(record("FaradayCell", "verdet_rad_per_T_m b_field_T path_m")):
    __slots__ = ()

    def __init__(self, verdet_rad_per_T_m: float, b_field_T: float, path_m: float):
        finite(verdet_rad_per_T_m, "Verdet constant")
        finite(b_field_T, "magnetic field")
        within(path_m, "path length must be nonnegative", 0.0)


class IsolationShell(record("IsolationShell",
                            "shell_thickness_m length_m mean_radius_m circular_radius_m")):
    __slots__ = ()

    def __init__(self, shell_thickness_m: float, length_m: float, mean_radius_m: float,
                 circular_radius_m: float):
        for value in (shell_thickness_m, length_m, mean_radius_m, circular_radius_m):
            within(value, "shell dimensions must be positive", TINY)
        within(mean_radius_m - shell_thickness_m / 2, "inner shell radius must be positive",
               TINY)


def v_number(f: FiberSpec) -> float:
    """Normalized frequency (2*pi*a/lambda) * sqrt(n1^2 - n2^2), with the root taken
    as n1 * sqrt((n1 - n2) / n1 * (1 + n2 / n1)), which neither overflows nor cancels."""
    root = math.sqrt((f.n1 - f.n2) / f.n1 * (1.0 + f.n2 / f.n1))
    return ratio((math.tau, f.core_radius_m, f.n1, root), (f.wavelength_m,), "V-number")


def is_single_mode(v: float) -> bool:
    """True when the fiber supports only one propagation mode (strict)."""
    return within(v, "V-number must be nonnegative", 0.0) < SINGLE_MODE_CUTOFF


def snell_refracted_angle(theta1_rad: float, n1: float, n2: float) -> float:
    """Refracted angle arcsin(sin(theta1) * n1/n2).

    Raises DomainError when the Snell ratio exceeds 1 (total internal reflection).
    """
    sine = ratio((math.sin(finite(theta1_rad, "incidence angle")), finite(n1, "n1")),
                 (finite(n2, "n2"),), "Snell ratio")
    if abs(sine) > 1.0:
        raise DomainError(f"sin(theta1)*n1/n2 = {sine:.6g} outside [-1, 1]")
    return math.asin(sine)


def faraday_rotation(cell: FaradayCell) -> float:
    """Polarization rotation angle verdet * B * path, in radians."""
    return ratio((cell.verdet_rad_per_T_m, cell.b_field_T, cell.path_m), (), "Faraday rotation")


def isolation_geometry(s: IsolationShell) -> tuple[float, float]:
    """(surface area, volume) of the thin cylindrical isolation shell.

    Area 2*pi*b*(b + l); volume 2*pi*<r>*l*b (shell method).
    """
    b = within(s.shell_thickness_m, _THIN_SHELL,
               high=math.nextafter(THIN_SHELL_FACTOR * s.circular_radius_m, 0.0))
    return (ratio((math.tau, b, b + s.length_m), (), "shell area"),
            ratio((math.tau, s.mean_radius_m, s.length_m, b), (), "shell volume"))
