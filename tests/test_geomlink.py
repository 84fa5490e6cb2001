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


def _loop_reference(f, bounds, counts):
    """The midpoint rule as one nested loop per axis, summed row by row."""
    lo, hi = bounds[:2]
    h = (hi - lo) / counts[0]
    total = 0.0
    for i in range(counts[0]):
        x = lo + (i + 0.5) * h
        total += (f(x) if len(counts) == 1 else
                  _loop_reference(lambda *rest: f(x, *rest), bounds[2:], counts[1:]))
    return total * h


# Spans are 0 or at least 0.25, so no product underflows, and the
# integrands lie between 1 and 3, so no sum cancels to near 0.
_BOUND = st.integers(-40, 40).map(lambda k: k / 4)
_COUNT = st.integers(1, 12)


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

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-3, 4), (2, -1)])
    def test_resolution_below_one_rejected(self, m, n):
        with pytest.raises(DomainError, match="grid resolution must be >= 1"):
            gl.riemann_area(lambda x, y: 1.0, (0, 1, 0, 1), m, n)

    def test_one_cell_evaluates_the_centre(self):
        calls = []
        out = gl.riemann_area(lambda x, y: calls.append((x, y)) or 3.0,
                              (1, 2, -4, 0), 1, 1)
        assert calls == [(1.5, -2.0)]
        assert out == 3.0 * 1 * 4

    def test_reversed_bounds_negate(self):
        f = lambda x, y: math.exp(x) * math.cos(y)
        forward = gl.riemann_area(f, (0.2, 1.7, -1, 2), 13, 9)
        assert gl.riemann_area(f, (1.7, 0.2, -1, 2), 13, 9) == \
            pytest.approx(-forward, rel=1e-12)
        assert gl.riemann_area(f, (1.7, 0.2, 2, -1), 13, 9) == \
            pytest.approx(forward, rel=1e-12)

    @given(st.tuples(*[_BOUND] * 4), _COUNT, _COUNT)
    def test_matches_loop_reference(self, domain, m, n):
        f = lambda x, y: 2.0 + math.sin(x * y)
        assert math.isclose(gl.riemann_area(f, domain, m, n),
                            _loop_reference(f, domain, (m, n)), rel_tol=1e-12)

    def test_affine_closed_form(self):
        # The midpoint rule is exact for an affine integrand, up to rounding.
        x0, x1, y0, y1 = 0.5, 3.25, -2.0, 1.5
        f = lambda x, y: 0.75 + 2.0 * x - 1.25 * y
        exact = (x1 - x0) * (y1 - y0) * f((x0 + x1) / 2, (y0 + y1) / 2)
        assert gl.riemann_area(f, (x0, x1, y0, y1), 37, 23) == \
            pytest.approx(exact, rel=1e-12)


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

    @pytest.mark.parametrize("counts", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (2, 2, -5)])
    def test_resolution_below_one_rejected(self, counts):
        with pytest.raises(DomainError, match="grid resolution must be >= 1"):
            gl.triple_integral(lambda x, y, t: 1.0, (0, 1, 0, 1, 0, 1), *counts)

    def test_one_cell_evaluates_the_centre(self):
        calls = []
        out = gl.triple_integral(lambda x, y, t: calls.append((x, y, t)) or 3.0,
                                 (1, 2, -4, 0, 0, 0.5), 1, 1, 1)
        assert calls == [(1.5, -2.0, 0.25)]
        assert out == 3.0 * 1 * 4 * 0.5

    def test_reversed_bounds_negate(self):
        f = lambda x, y, t: math.exp(x) * math.cos(y) + t * t
        box = (0.2, 1.7, -1, 2, 0, 3)
        forward = gl.triple_integral(f, box, 7, 5, 6)
        assert gl.triple_integral(f, (1.7, 0.2, -1, 2, 0, 3), 7, 5, 6) == \
            pytest.approx(-forward, rel=1e-12)
        assert gl.triple_integral(f, (0.2, 1.7, -1, 2, 3, 0), 7, 5, 6) == \
            pytest.approx(-forward, rel=1e-12)

    @given(st.tuples(*[_BOUND] * 6), _COUNT, _COUNT, _COUNT)
    def test_matches_loop_reference(self, region, mx, my, mt):
        f = lambda x, y, t: 2.0 + math.sin(x * y - t)
        assert math.isclose(gl.triple_integral(f, region, mx, my, mt),
                            _loop_reference(f, region, (mx, my, mt)), rel_tol=1e-12)

    def test_affine_closed_form(self):
        # The midpoint rule is exact for an affine integrand, up to rounding.
        box = (0.5, 3.25, -2.0, 1.5, 1.0, 4.5)
        f = lambda x, y, t: 0.75 + 2.0 * x - 1.25 * y + 0.5 * t
        centre = [(lo + hi) / 2 for lo, hi in zip(box[::2], box[1::2])]
        volume = math.prod(hi - lo for lo, hi in zip(box[::2], box[1::2]))
        assert gl.triple_integral(f, box, 11, 13, 7) == \
            pytest.approx(volume * f(*centre), rel=1e-12)


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
