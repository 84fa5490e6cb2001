import math
import random

import pytest
from hypothesis import given, strategies as st

from timedata_lab import relativity as rel
from timedata_lab.errors import DivisionByZeroSignal, DomainError
from timedata_lab.relativity import ChargeLedger, PolarPoint, Velocity


class TestTimeFactor:
    def test_rest_frame(self):
        assert rel.time_factor(Velocity(0)) == 1.0

    def test_beta_06(self):
        assert rel.time_factor(Velocity(0.6)) == pytest.approx(1.25)

    def test_beta_099(self):
        assert rel.time_factor(Velocity(0.99)) == pytest.approx(7.0888, abs=1e-4)

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            Velocity(1.0)

    @given(st.floats(min_value=0, max_value=0.999))
    def test_definitional_inverse(self, beta):
        assert rel.time_factor(Velocity(beta)) * math.sqrt(1 - beta ** 2) == \
            pytest.approx(1.0, abs=1e-12)


class TestProperTime:
    def test_at_rest(self):
        assert rel.proper_time_delta_general(5.0, 0, 0, 0) == 5.0

    def test_single_axis(self):
        assert rel.proper_time_delta_general(1.0, 0.6 * 3e5, 0, 0) == \
            pytest.approx(0.8)

    def test_two_axis(self):
        out = rel.proper_time_delta_general(1.0, 0.3 * 3e5, 0.4 * 3e5, 0)
        assert out == pytest.approx(math.sqrt(0.75), abs=1e-9)

    def test_speed_limit(self):
        with pytest.raises(DomainError):
            rel.proper_time_delta_general(1.0, 3e5, 0, 0)

    @given(st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0, max_value=1.7e5),
           st.floats(min_value=0, max_value=1.7e5),
           st.floats(min_value=0, max_value=1.7e5))
    def test_never_exceeds_coordinate_time(self, dt, vx, vy, vz):
        tau = rel.proper_time_delta_general(dt, vx, vy, vz)
        assert tau <= dt
        if vx == vy == vz == 0:
            assert tau == dt


def test_stored_proper_time():
    assert rel.stored_proper_time(1) == pytest.approx(0.70711, abs=1e-4)
    assert rel.stored_proper_time(0) == 0.0
    assert rel.stored_proper_time(2) == pytest.approx(1.41421, abs=1e-4)
    assert rel.stored_proper_time(-1) == rel.stored_proper_time(1)


class TestPolar:
    def test_unit_x(self):
        p = rel.polar_from_cartesian(1, 0)
        assert (p.r, p.phi) == (1.0, 0.0)

    def test_unit_y(self):
        p = rel.polar_from_cartesian(0, 2)
        assert p.r == 2.0
        assert p.phi == pytest.approx(math.pi / 2)

    def test_three_four_five(self):
        p = rel.polar_from_cartesian(3, 4)
        assert p.r == pytest.approx(5.0)
        assert p.phi == pytest.approx(0.9273, abs=1e-4)

    def test_origin_convention(self):
        p = rel.polar_from_cartesian(0, 0)
        assert (p.r, p.phi) == (0.0, 0.0)

    def test_round_trip_samples(self):
        rng = random.Random(0)
        for _ in range(10_000):
            x = rng.uniform(-1e3, 1e3)
            y = rng.uniform(-1e3, 1e3)
            p = rel.polar_from_cartesian(x, y)
            bx, by = rel.cartesian_from_polar(p)
            assert abs(bx - x) <= 1e-12 * max(p.r, 1.0)
            assert abs(by - y) <= 1e-12 * max(p.r, 1.0)


class TestJacobian:
    def test_zero_radius(self):
        assert rel.jacobian_polar(PolarPoint(0, 0)) == 0.0

    def test_from_cartesian_example(self):
        p = rel.polar_from_cartesian(3, 4)
        assert rel.jacobian_polar(p) == pytest.approx(5.0, abs=1e-12)

    def test_unit_circle(self):
        for phi in [-3.0, -1.0, 0.0, 0.5, 2.0, math.pi]:
            assert rel.jacobian_polar(PolarPoint(1.0, phi)) == pytest.approx(
                1.0, abs=1e-12)

    def test_equals_r_randomized(self):
        rng = random.Random(1)
        worst = 0.0
        for _ in range(10_000):
            r = rng.uniform(0, 1e3)
            phi = rng.uniform(-math.pi + 1e-9, math.pi)
            worst = max(worst, abs(rel.jacobian_polar(PolarPoint(r, phi)) - r))
        assert worst <= 1e-12 * 1e3


class TestCharge:
    def test_no_flow(self):
        assert rel.charge_balance(ChargeLedger(2.5, 0, 0)) == 2.5

    def test_hand_sum(self):
        assert rel.charge_balance(ChargeLedger(1.0, 0.5, 0.2)) == pytest.approx(1.3)

    def test_balanced_flow(self):
        assert rel.charge_balance(ChargeLedger(0, 3.0, 3.0)) == 0.0

    def test_negative_flow_rejected(self):
        with pytest.raises(DomainError):
            ChargeLedger(0, -1, 0)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    def test_inverse_is_identity(self, q1, qin, qout):
        q2 = rel.charge_balance(ChargeLedger(q1, qin, qout))
        assert rel.charge_balance_inverse(q2, qin, qout) == pytest.approx(
            q1, abs=1e-12)


class TestChargeDensity:
    def test_factor_two(self):
        assert rel.charge_density(2, 1) == 1.0

    def test_zero_charge(self):
        assert rel.charge_density(0, 5) == 0.0

    def test_electron_in_tiny_volume(self):
        assert rel.charge_density(1.6e-19, 1e-24) == pytest.approx(8e4)

    def test_zero_volume(self):
        with pytest.raises(DivisionByZeroSignal):
            rel.charge_density(1, 0)


class TestMoire:
    def test_all_equal(self):
        assert rel.moire_wavelength(3, 3, 3) == 3.0

    def test_hand_arithmetic(self):
        assert rel.moire_wavelength(2, 3, 6) == 1.0

    def test_zero_denominators(self):
        with pytest.raises(DivisionByZeroSignal):
            rel.moire_wavelength(1, 1, 0)
