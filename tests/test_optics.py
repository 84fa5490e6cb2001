import math

import pytest
from hypothesis import given, strategies as st

from timedata_lab import optics
from timedata_lab.errors import (DomainError, ThinShellError,
                                 TotalInternalReflection)
from timedata_lab.optics import FaradayCell, FiberSpec, IsolationShell


def test_v_number_worked_example():
    # (2*pi/1.55) * sqrt(1.48^2 - 1.46^2) by hand
    spec = FiberSpec(1e-6, 1.55e-6, 1.48, 1.46)
    assert optics.v_number(spec) == pytest.approx(0.983, abs=1e-3)


def test_v_number_zero_aperture():
    assert optics.v_number(FiberSpec(1e-6, 1.55e-6, 1.48, 1.48)) == 0.0


def test_v_number_linear_in_radius():
    base = optics.v_number(FiberSpec(1e-6, 1.55e-6, 1.48, 1.46))
    doubled = optics.v_number(FiberSpec(2e-6, 1.55e-6, 1.48, 1.46))
    assert doubled == pytest.approx(2 * base)


@given(st.floats(min_value=0.1, max_value=10))
def test_v_number_homogeneous(scale):
    base = optics.v_number(FiberSpec(1e-6, 1.55e-6, 1.48, 1.46))
    scaled = optics.v_number(FiberSpec(scale * 1e-6, scale * 1.55e-6, 1.48, 1.46))
    assert scaled == pytest.approx(base, rel=1e-9)


def test_guided_mode_condition():
    with pytest.raises(DomainError):
        FiberSpec(1e-6, 1.55e-6, 1.44, 1.46)


@pytest.mark.parametrize("v,expected", [
    (0.983, True),
    (1.57, False),   # strict threshold
    (0.0, True),
    (2.405, False),
])
def test_single_mode(v, expected):
    assert optics.is_single_mode(v) is expected


def test_snell_normal_incidence():
    assert optics.snell_refracted_angle(0.0, 1.0, 1.5) == 0.0


def test_snell_identical_media():
    theta = 0.4
    assert optics.snell_refracted_angle(theta, 1.5, 1.5) == pytest.approx(theta)


def test_snell_worked_example():
    out = optics.snell_refracted_angle(math.pi / 6, 1.0, 1.5)
    assert out == pytest.approx(math.asin(1 / 3), abs=1e-6)


def test_total_internal_reflection_signal():
    with pytest.raises(TotalInternalReflection):
        optics.snell_refracted_angle(math.pi / 3, 1.5, 1.0)


def test_faraday_zero_factor():
    assert optics.faraday_rotation(FaradayCell(0.0, 0.5, 0.02)) == 0.0
    assert optics.faraday_rotation(FaradayCell(3.0, 0.0, 0.02)) == 0.0


def test_faraday_worked_example():
    assert optics.faraday_rotation(FaradayCell(3.0, 0.5, 0.02)) == pytest.approx(0.03)


def test_faraday_odd_in_field():
    plus = optics.faraday_rotation(FaradayCell(3.0, 0.5, 0.02))
    minus = optics.faraday_rotation(FaradayCell(3.0, -0.5, 0.02))
    assert minus == -plus


@given(st.floats(min_value=-10, max_value=10),
       st.floats(min_value=-2, max_value=2),
       st.floats(min_value=0, max_value=1),
       st.floats(min_value=0.5, max_value=2))
def test_faraday_trilinear(verdet, b, path, k):
    base = optics.faraday_rotation(FaradayCell(verdet, b, path))
    assert optics.faraday_rotation(FaradayCell(k * verdet, b, path)) == pytest.approx(
        k * base, abs=1e-9)
    assert optics.faraday_rotation(FaradayCell(verdet, k * b, path)) == pytest.approx(
        k * base, abs=1e-9)
    assert optics.faraday_rotation(FaradayCell(verdet, b, k * path)) == pytest.approx(
        k * base, abs=1e-9)


class TestIsolationShell:
    def test_worked_example(self):
        s = IsolationShell(1e-4, 1e-2, 1e-3, 1e-2)
        area, volume = optics.isolation_geometry(s)
        assert area == pytest.approx(2 * math.pi * 1e-4 * 1.01e-2, rel=1e-9)
        assert volume == pytest.approx(2 * math.pi * 1e-9, rel=1e-9)

    def test_thin_shell_violation(self):
        with pytest.raises(ThinShellError):
            optics.isolation_geometry(IsolationShell(2e-3, 1e-2, 5e-3, 1e-2))

    def test_doubling_mean_radius(self):
        a1, v1 = optics.isolation_geometry(IsolationShell(1e-4, 1e-2, 1e-3, 1e-2))
        a2, v2 = optics.isolation_geometry(IsolationShell(1e-4, 1e-2, 2e-3, 1e-2))
        assert a2 == a1
        assert v2 == pytest.approx(2 * v1)

    def test_shell_method_identity(self):
        # volume equals outer minus inner cylinder
        b, length, r_mean = 1e-4, 1e-2, 5e-3
        s = IsolationShell(b, length, r_mean, 1e-1)
        _, volume = optics.isolation_geometry(s)
        outer = math.pi * (r_mean + b / 2) ** 2 * length
        inner = math.pi * (r_mean - b / 2) ** 2 * length
        assert volume == pytest.approx(outer - inner, rel=1e-12)
