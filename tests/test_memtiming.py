import cmath
import random

import pytest
from hypothesis import given, strategies as st

from timedata_lab import memtiming as mt
from timedata_lab.errors import (CapacityError, DivisionByZeroSignal,
                                 DomainError)
from timedata_lab.memtiming import (Carrier, CellMap, ElectrodeGeometry,
                                    QubitState)


class TestBitFrequency:
    @pytest.mark.parametrize("n", range(10))
    def test_min_case_all_decades(self, n):
        assert mt.bit_frequency(1, 2, 10.0 ** -n) == pytest.approx(
            0.5 * 10 ** n, rel=1e-12)

    def test_zero_bits(self):
        assert mt.bit_frequency(0, 2, 1) == 0.0

    def test_unit_case(self):
        assert mt.bit_frequency(1, 2, 1) == 0.5

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZeroSignal):
            mt.bit_frequency(1, 0, 1)
        with pytest.raises(DivisionByZeroSignal):
            mt.bit_frequency(1, 2, 0)

    @given(st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0.01, max_value=100),
           st.floats(min_value=0.5, max_value=10))
    def test_ratio_homogeneity(self, a, b, k):
        assert mt.bit_frequency(k * a, k * b, 1.0) == pytest.approx(
            mt.bit_frequency(a, b, 1.0), rel=1e-9)


class TestQubit:
    def test_basis_state(self):
        assert mt.validate_qubit(QubitState(1, 0))

    def test_equal_superposition(self):
        s = 2 ** -0.5
        assert mt.validate_qubit(QubitState(s, s))

    def test_three_four_five(self):
        assert mt.validate_qubit(QubitState(0.6, 0.8))
        assert not mt.validate_qubit(QubitState(0.6, 0.7))

    @given(st.floats(min_value=-3.14, max_value=3.14))
    def test_global_phase_invariance(self, theta):
        phase = cmath.exp(1j * theta)
        assert mt.validate_qubit(QubitState(0.6 * phase, 0.8j * phase))


class TestPhaseRatios:
    def test_constant_lists(self):
        means = mt.phase_ratio_means([(2, 1)] * 4, [(2, 1)] * 5, [(2, 1)] * 2)
        assert means == {"alpha": 2.0, "beta": 2.0, "delta": 2.0}

    def test_hand_averages(self):
        means = mt.phase_ratio_means(
            [(1, 1), (2, 1), (3, 1), (2, 2)],
            [(1, 1)] * 4,
            [(1, 2), (3, 2)])
        assert means["alpha"] == pytest.approx(1.75)
        assert means["delta"] == pytest.approx(1.0)

    def test_sample_count_preconditions(self):
        with pytest.raises(DomainError):
            mt.phase_ratio_means([(1, 1)] * 3, [(1, 1)] * 4, [(1, 1)] * 2)
        with pytest.raises(DomainError):
            mt.phase_ratio_means([(1, 1)] * 4, [(1, 1)] * 4, [(1, 1)] * 3)

    def test_zero_read_phase(self):
        with pytest.raises(DivisionByZeroSignal):
            mt.phase_ratio_means([(1, 0)] * 4, [(1, 1)] * 4, [(1, 1)] * 2)


class TestResistance:
    def test_sheet_resistance_unit(self):
        g = ElectrodeGeometry(1, 1, 2.0, 2.0)
        assert mt.sheet_resistance(g) == 1.0

    def test_aluminium_film(self):
        g = ElectrodeGeometry(1, 1, 2.65e-8, 1e-7)
        assert mt.sheet_resistance(g) == pytest.approx(0.265)

    def test_square_rule(self):
        g = ElectrodeGeometry(5e-6, 5e-6, 2.65e-8, 1e-7)
        assert mt.resistance(g) == mt.sheet_resistance(g)

    def test_two_squares(self):
        g = ElectrodeGeometry(2.0, 1.0, 2.65e-8, 1e-7)
        assert mt.resistance(g) == pytest.approx(0.53)

    @given(st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1.0))
    def test_square_rule_property(self, rho, theta, side):
        g = ElectrodeGeometry(side, side, rho, theta)
        assert mt.resistance(g) == mt.sheet_resistance(g)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(DomainError):
            ElectrodeGeometry(0, 1, 1, 1)


class TestTransconductance:
    def test_baseline(self):
        assert mt.transconductance_baseline(1e-3, 1.0) == pytest.approx(1e-3)
        assert mt.transconductance_baseline(0.0, 2.0) == 0.0
        assert mt.transconductance_baseline(-1e-3, 1.0) < 0

    def test_baseline_zero_step(self):
        with pytest.raises(DivisionByZeroSignal):
            mt.transconductance_baseline(1e-3, 0.0)

class TestQuantumEfficiency:
    def test_cases(self):
        assert mt.quantum_efficiency(5, 5) == 1.0
        assert mt.quantum_efficiency(0, 5) == 0.0
        assert mt.quantum_efficiency(3, 4) == 0.75

    def test_zero_storable(self):
        with pytest.raises(DivisionByZeroSignal):
            mt.quantum_efficiency(1, 0)


def make_cells(n, shuffle_seed=None):
    addresses = list(range(100, 100 + n))
    ranks = list(range(n))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(ranks)
    return CellMap(cells=list(zip(addresses, ranks)))


class TestWaterfall:
    def test_single_carrier_nearest_cell(self):
        cells = make_cells(3, shuffle_seed=1)
        alloc = mt.waterfall_allocate([Carrier(7, 0.5)], cells)
        assert alloc == {7: cells.address_at_rank(0)}

    def test_fifo_order(self):
        cells = make_cells(3)
        carriers = [Carrier(0, 3.0), Carrier(1, 1.0), Carrier(2, 2.0)]
        alloc = mt.waterfall_allocate(carriers, cells)
        assert alloc[1] == cells.address_at_rank(0)
        assert alloc[2] == cells.address_at_rank(1)
        assert alloc[0] == cells.address_at_rank(2)

    def test_tie_break_by_id(self):
        cells = make_cells(2)
        alloc = mt.waterfall_allocate([Carrier(5, 1.0), Carrier(3, 1.0)], cells)
        assert alloc[3] == cells.address_at_rank(0)
        assert alloc[5] == cells.address_at_rank(1)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            mt.waterfall_allocate([Carrier(i, float(i)) for i in range(4)],
                                  make_cells(3))

    def test_injective(self):
        rng = random.Random(42)
        carriers = [Carrier(i, rng.random()) for i in range(20)]
        alloc = mt.waterfall_allocate(carriers, make_cells(25, shuffle_seed=2))
        assert len(set(alloc.values())) == len(carriers)

    def test_prefix_stability(self):
        rng = random.Random(7)
        carriers = [Carrier(i, rng.random()) for i in range(10)]
        cells = make_cells(10, shuffle_seed=3)
        full = mt.waterfall_allocate(carriers, cells)
        latest = max(carriers, key=lambda c: (c.arrival_time_s, c.id))
        reduced = mt.waterfall_allocate(
            [c for c in carriers if c.id != latest.id], cells)
        for cid, addr in reduced.items():
            assert full[cid] == addr

    def test_rank_permutation_invariant(self):
        with pytest.raises(DomainError):
            CellMap(cells=[(0, 0), (1, 0)])

    def test_address_at_rank_matches_cells(self):
        cells = make_cells(50, shuffle_seed=4)
        for address, rank in cells.cells:
            assert cells.address_at_rank(rank) == address
        with pytest.raises(DomainError, match="no cell with distance rank 50"):
            cells.address_at_rank(50)
        assert cells == make_cells(50, shuffle_seed=4)
        assert "_address_by_rank" not in repr(cells)
