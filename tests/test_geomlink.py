import math

import pytest
from hypothesis import given, strategies as st

from timedata_lab import geomlink as gl
from timedata_lab.errors import DomainError
from timedata_lab.geomlink import ArcDecomposition, PlanarMotion, Point2


class TestSlope:
    def test_diagonal(self):
        assert gl.slope(Point2(0, 0), Point2(1, 1)) == 1.0

    def test_hand_case(self):
        assert gl.slope(Point2(1, 2), Point2(3, 6)) == 2.0

    def test_vertical_rejected(self):
        with pytest.raises(DomainError):
            gl.slope(Point2(2, 0), Point2(2, 5))


class TestSegmentLength:
    def test_identical_points(self):
        assert gl.segment_length(Point2(1, 1), Point2(1, 1)) == 0.0

    def test_three_four_five(self):
        assert gl.segment_length(Point2(0, 0), Point2(3, 4)) == 5.0

    @given(st.floats(-100, 100), st.floats(-100, 100),
           st.floats(-100, 100), st.floats(-100, 100))
    def test_symmetric(self, x1, y1, x2, y2):
        a, b = Point2(x1, y1), Point2(x2, y2)
        assert gl.segment_length(a, b) == gl.segment_length(b, a)


class TestSharedArc:
    def test_consistent(self):
        length, ok = gl.shared_arc(ArcDecomposition(10, 3, 2, 10, 4, 1))
        assert length == 5.0
        assert ok

    def test_tangency(self):
        length, ok = gl.shared_arc(ArcDecomposition(5, 3, 2, 5, 4, 1))
        assert length == 0.0
        assert ok

    def test_inconsistent_flag(self):
        length, ok = gl.shared_arc(ArcDecomposition(10, 3, 2, 12, 4, 1))
        assert length == 5.0
        assert not ok

    def test_invariant_violation(self):
        with pytest.raises(DomainError):
            ArcDecomposition(4, 3, 2, 10, 4, 1)

    @given(st.floats(min_value=0, max_value=10),
           st.floats(min_value=0, max_value=10),
           st.floats(min_value=0, max_value=10),
           st.floats(min_value=0, max_value=10),
           st.floats(min_value=0, max_value=10))
    def test_same_split_always_consistent(self, shared, a1, a2, b1, b2):
        d = ArcDecomposition(a1 + a2 + shared, a1, a2,
                             b1 + b2 + shared, b1, b2)
        length, ok = gl.shared_arc(d)
        assert ok
        assert length == pytest.approx(shared, abs=1e-9)


class TestRiemannArea:
    def test_constant_exact(self):
        for m, n in [(1, 1), (3, 7), (50, 50)]:
            assert gl.riemann_area(lambda x, y: 1.0, (0, 1, 0, 1), m, n) == \
                pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        out = gl.riemann_area(lambda x, y: x + y, (0, 1, 0, 1), 100, 100)
        assert out == pytest.approx(1.0, abs=1e-3)

    def test_product(self):
        out = gl.riemann_area(lambda x, y: x * y, (0, 1, 0, 1), 100, 100)
        assert out == pytest.approx(0.25, abs=1e-3)

    def test_degenerate_domain(self):
        assert gl.riemann_area(lambda x, y: 5.0, (2, 2, 0, 1), 10, 10) == 0.0

    def test_convergence_order(self):
        # error should at least halve when the grid doubles
        exact = (math.e - 1) ** 2
        f = lambda x, y: math.exp(x + y)
        errors = [abs(gl.riemann_area(f, (0, 1, 0, 1), m, m) - exact)
                  for m in (8, 16, 32, 64)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 2


class TestTripleIntegral:
    def test_unit_cube(self):
        assert gl.triple_integral(lambda x, y, t: 1.0,
                                  (0, 1, 0, 1, 0, 1), 10, 10, 10) == \
            pytest.approx(1.0, abs=1e-3)

    def test_linear_in_t(self):
        assert gl.triple_integral(lambda x, y, t: t,
                                  (0, 1, 0, 1, 0, 1), 50, 50, 50) == \
            pytest.approx(0.5, abs=1e-3)

    def test_product(self):
        assert gl.triple_integral(lambda x, y, t: x * y * t,
                                  (0, 1, 0, 1, 0, 1), 50, 50, 50) == \
            pytest.approx(0.125, abs=1e-3)

    def test_degenerate_box(self):
        assert gl.triple_integral(lambda x, y, t: 1.0,
                                  (0, 1, 1, 1, 0, 1), 5, 5, 5) == 0.0


class TestTimeSplit:
    def test_fold(self):
        value, fold = gl.time_split_check(2, 2)
        assert value == pytest.approx(2.0, abs=1e-12)
        assert fold

    def test_not_fold(self):
        value, fold = gl.time_split_check(3, 9)
        assert value == pytest.approx(3.0, abs=1e-12)
        assert not fold

    def test_unit_parallel_time(self):
        value, fold = gl.time_split_check(10, 1)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert not fold

    def test_base_one_rejected(self):
        with pytest.raises(DomainError):
            gl.time_split_check(1, 2)
        with pytest.raises(DomainError):
            gl.time_split_check(-2, 2)

    @given(st.floats(min_value=1.1, max_value=10),
           st.floats(min_value=1.1, max_value=10))
    def test_fold_iff_equal(self, t, t_par):
        _, fold = gl.time_split_check(t, t_par)
        assert fold == (abs(t_par - t) <= 1e-12 * t)


class TestPlanarKinematics:
    def test_hand_case(self):
        v, a, v_sync = gl.planar_kinematics(PlanarMotion((10, 0), 2, 2))
        assert v == 5.0
        assert a == 2.5
        assert v_sync == v

    def test_zero_displacement(self):
        assert gl.planar_kinematics(PlanarMotion((0, 0), 1, 1)) == (0, 0, 0)

    def test_equal_times(self):
        v, a, _ = gl.planar_kinematics(PlanarMotion((6, 8), 2, 2))
        assert a == pytest.approx(v / 2)

    def test_nonpositive_times(self):
        with pytest.raises(DomainError):
            PlanarMotion((1, 1), 0, 1)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0.01, max_value=100))
    def test_recovery_identities(self, dx, dy, t, t_par):
        motion = PlanarMotion((dx, dy), t, t_par)
        v, a, _ = gl.planar_kinematics(motion)
        d = math.hypot(dx, dy)
        assert abs(v * t - d) <= 1e-12 * max(d, 1.0)
        assert abs(a * t * t_par - d) <= 1e-12 * max(d, 1.0)
