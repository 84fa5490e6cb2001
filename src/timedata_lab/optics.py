"""Fiber and Faraday-filter calculations: V-number, single-mode test,
Snell ratio, rotation angle and thin-shell isolation geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, ThinShellError, TotalInternalReflection, finite, quotient

# Single-mode cutoff used by this toolkit (documented divergence from the
# textbook 2.405).
SINGLE_MODE_CUTOFF = 1.57

# "b much less than r_C" operationalized as a 10x margin.
THIN_SHELL_FACTOR = 0.1


@dataclass(frozen=True)
class FiberSpec:
    core_radius_m: float
    wavelength_m: float
    n1: float
    n2: float

    def __post_init__(self):
        if self.core_radius_m <= 0 or self.wavelength_m <= 0:
            raise DomainError("core radius and wavelength must be positive")
        if self.n1 < 1 or self.n2 < 1:
            raise DomainError("refractive indices must be >= 1")
        if self.n1 < self.n2:
            raise DomainError("guided modes need n1 >= n2")


@dataclass(frozen=True)
class FaradayCell:
    verdet_rad_per_T_m: float
    b_field_T: float
    path_m: float

    def __post_init__(self):
        if self.path_m < 0:
            raise DomainError("path length must be nonnegative")


@dataclass(frozen=True)
class IsolationShell:
    shell_thickness_m: float
    length_m: float
    mean_radius_m: float
    circular_radius_m: float

    def __post_init__(self):
        if min(self.shell_thickness_m, self.length_m,
               self.mean_radius_m, self.circular_radius_m) <= 0:
            raise DomainError("shell dimensions must be positive")
        if self.mean_radius_m - self.shell_thickness_m / 2 <= 0:
            raise DomainError("inner shell radius must be positive")


def v_number(f: FiberSpec) -> float:
    """Normalized frequency (2*pi*a/lambda) * sqrt(n1^2 - n2^2)."""
    na = math.sqrt(f.n1 * f.n1 - f.n2 * f.n2)
    return finite(2.0 * math.pi * f.core_radius_m / f.wavelength_m * na, "V-number")


def is_single_mode(v: float) -> bool:
    """True when the fiber supports only one propagation mode (strict)."""
    if v < 0:
        raise DomainError("V-number must be nonnegative")
    return v < SINGLE_MODE_CUTOFF


def snell_refracted_angle(theta1_rad: float, n1: float, n2: float) -> float:
    """Refracted angle arcsin(sin(theta1) * n1/n2).

    Raises TotalInternalReflection when the Snell ratio exceeds 1.
    """
    ratio = quotient(math.sin(theta1_rad) * n1, n2, "Snell ratio")
    if abs(ratio) > 1.0:
        raise TotalInternalReflection(
            f"sin(theta1)*n1/n2 = {ratio:.6g} outside [-1, 1]")
    return math.asin(ratio)


def faraday_rotation(cell: FaradayCell) -> float:
    """Polarization rotation angle verdet * B * path, in radians."""
    return finite(cell.verdet_rad_per_T_m * cell.b_field_T * cell.path_m,
                  "Faraday rotation")


def isolation_geometry(s: IsolationShell) -> tuple[float, float]:
    """(surface area, volume) of the thin cylindrical isolation shell.

    Area 2*pi*b*(b + l); volume 2*pi*<r>*l*b (shell method).
    """
    b = s.shell_thickness_m
    if b >= THIN_SHELL_FACTOR * s.circular_radius_m:
        raise ThinShellError(
            f"thin-shell assumption violated: b={b:g} >= "
            f"{THIN_SHELL_FACTOR:g} * r_C={s.circular_radius_m:g}")
    area = 2.0 * math.pi * b * (b + s.length_m)
    volume = 2.0 * math.pi * s.mean_radius_m * s.length_m * b
    return (finite(area, "shell area"), finite(volume, "shell volume"))
