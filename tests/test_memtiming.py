import cmath
import copy
import math
import pickle
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import errors, memtiming as mt
from timedata_lab.errors import LARGEST, DivisionByZeroSignal, DomainError
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

    # qbits * time overflows, or underflows to 0, while the result is a float.
    @pytest.mark.parametrize("a,b,t,expected", [
        (1e300, 1e200, 1e200, Fraction(1e300) / (Fraction(1e200) * Fraction(1e200))),
        (1e-300, 1e-200, 1e-200, Fraction(1e-300) / (Fraction(1e-200) * Fraction(1e-200))),
    ], ids=["overflow", "underflow"])
    def test_denominator_beyond_the_normal_floats(self, a, b, t, expected):
        assert mt.bit_frequency(a, b, t) == float(expected)

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

    @pytest.mark.parametrize("sample", [(1, 2, 3), (1,), 1, None])
    def test_sample_not_a_pair(self, sample):
        with pytest.raises(DomainError, match=r"^samples must be \(write, read\) pairs, got "):
            mt.phase_ratio_means([(1, 1)] * 3 + [sample], [(1, 1)] * 4, [(1, 1)] * 2)

    def test_mean_near_the_float_range(self):  # the sum of the ratios passes it
        means = mt.phase_ratio_means([(1e308, 1)] * 4, [(1, 1)] * 4, [(1, 1)] * 2)
        assert means == {"alpha": 1e308, "beta": 1.0, "delta": 1.0}

    def test_zero_read_phase(self):
        with pytest.raises(DivisionByZeroSignal):
            mt.phase_ratio_means([(1, 0)] * 4, [(1, 1)] * 4, [(1, 1)] * 2)

    # Each pole is read once before its sample count is checked.
    def test_iterators_read_once(self):
        poles = ([(1, 1), (2, 1), (3, 1), (2, 2)], [(1, 1)] * 4, [(1, 2), (3, 2)])
        assert mt.phase_ratio_means(*map(iter, poles)) == mt.phase_ratio_means(*poles)

    @pytest.mark.parametrize("pole", [0, 1, 2])
    @pytest.mark.parametrize("value", [None, 4])
    def test_pole_not_iterable(self, pole, value):
        poles = [[(1, 1)] * 4, [(1, 1)] * 4, [(1, 1)] * 2]
        poles[pole] = value
        name = ("alpha", "beta", "delta")[pole]
        with pytest.raises(DomainError, match=f"^{name} samples must be iterable, got {value}$"):
            mt.phase_ratio_means(*poles)


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

    # length / width, or resistivity / thickness, passes the float range; the
    # resistance is 1e290 or 1e10.
    @pytest.mark.parametrize("g", [ElectrodeGeometry(1e300, 1e-10, 1e-20, 1.0),
                                   ElectrodeGeometry(1e-300, 1.0, 1e300, 1e-10)],
                             ids=["squares", "sheet resistance"])
    def test_factor_past_the_float_range(self, g):
        length, width, resistivity, thickness = map(Fraction, g)
        assert mt.resistance(g) == float(length * resistivity / (width * thickness))

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


class _Float(float):
    pass


# Plain floats in [0, LARGEST], the only arrivals Carrier checks without errors.within,
# and 20 arrivals it hands to within: each side of both bounds, no float, a float subclass.
INLINE_ARRIVALS = [0.0, -0.0, 5e-324, LARGEST]
OTHER_ARRIVALS = [-5e-324, -LARGEST, math.inf, -math.inf, math.nan, 0, 1, -1, True, False,
                  10**400, Fraction(1, 2), -Fraction(1, 2), Decimal("1.5"), None, "1", 1j,
                  _Float(2.0), _Float(-1.0), _Float("nan")]


def _arrival_id(value):
    return f"{type(value).__name__}-{value!r:.12}"


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

    # Sorted beside a nan arrival, carrier 0 would take the nearest cell.
    @pytest.mark.parametrize("arrival", [-1.0, float("nan"), float("-inf")])
    def test_arrival_not_nonnegative_rejected(self, arrival):
        with pytest.raises(DomainError, match="^arrival time must be nonnegative$"):
            Carrier(0, arrival)

    # Carrier takes a plain float in [0, LARGEST] inline and hands every other arrival
    # to errors.within; either way it accepts and refuses as within does, with within's
    # text, and keeps the very object it was given.
    @pytest.mark.parametrize("arrival", INLINE_ARRIVALS + OTHER_ARRIVALS, ids=_arrival_id)
    def test_arrival_checked_as_within_checks_it(self, arrival, monkeypatch):
        message = "arrival time must be nonnegative"
        try:
            expected = errors.within(arrival, message, 0.0)
        except DomainError as exc:
            expected = exc
        calls = []
        monkeypatch.setattr(mt, "within", lambda *args: calls.append(args) or errors.within(*args))
        if isinstance(expected, DomainError):
            with pytest.raises(DomainError) as exc:
                Carrier(0, arrival)
            assert str(exc.value) == str(expected) == message
        else:
            assert Carrier(0, arrival).arrival_time_s is arrival is expected
        inline = any(arrival is value for value in INLINE_ARRIVALS)
        assert calls == ([] if inline else [(arrival, message, 0.0)])

    # copy, deepcopy and pickle rebuild a record through its __new__, so a carrier
    # planted with tuple.__new__ and a bad field survives none of them.
    def test_every_copy_checks_the_fields(self):
        rebuilds = (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)))
        for fields, message in [((0, -1.0), "^arrival time must be nonnegative$"),
                                (("a", 1.0), "^carrier id must be an int, got 'a'$")]:
            planted = tuple.__new__(Carrier, fields)
            for rebuild in rebuilds:
                with pytest.raises(DomainError, match=message):
                    rebuild(planted)
        carrier = Carrier(3, 0.5)
        for rebuild in rebuilds:
            assert rebuild(carrier) == carrier and type(rebuild(carrier)) is Carrier

    # mem waterfall orders the carriers Carrier builds of its arrivals, one by one as
    # fifo_order reads them: the order of [Carrier(i, t) ...], or Carrier's refusal.
    @pytest.mark.parametrize("arrivals", [
        [], [-0.0], [LARGEST], [LARGEST, LARGEST], [0.5, 2.0, 0.5], [1.0, math.nan, 2.0],
        [math.nan, 1.0], [1.0, math.inf], [1.0, -1e-3], [True], [1], [Fraction(1, 2)],
        [Decimal("1.5")], [None], ["1"], [_Float(2.0)], [1.0, _Float(-1.0)],
    ], ids=repr)
    def test_carriers_built_as_carrier_builds_each(self, arrivals):
        try:
            expected = sorted([Carrier(i, t) for i, t in enumerate(arrivals)],
                              key=lambda c: (c.arrival_time_s, c.id))
        except DomainError as exc:
            expected = exc
        built = map(Carrier, range(len(arrivals)), arrivals)
        if isinstance(expected, DomainError):
            with pytest.raises(DomainError) as exc:
                mt.fifo_order(built)
            assert str(exc.value) == str(expected)
            return
        order = mt.fifo_order(built)
        assert order == expected and type(order) is list
        assert [type(c) for c in order] == [Carrier] * len(arrivals)
        assert all(arrivals[c.id] is c.arrival_time_s for c in order)

    # An item that is no Carrier has no id to sort by: fifo_order names the first such
    # item, before waterfall_allocate counts the carriers against the cells.
    @pytest.mark.parametrize("carriers,shown", [
        ([1, 2], "1"), ([(0, 1.0)], r"\(0, 1\.0\)"), ([None], "None"),
        ([Carrier(0, 0.0), Carrier(1, 1.0), None], "None")])
    def test_an_item_that_is_no_carrier_is_refused(self, carriers, shown):
        message = f"^carriers must be Carriers, got {shown}$"
        with pytest.raises(DomainError, match=message):
            mt.fifo_order(carriers)
        with pytest.raises(DomainError, match=message):  # 3 items for 1 cell, too
            mt.waterfall_allocate(carriers, CellMap([(0, 0)]))

    def test_a_carrier_whose_field_fails_is_not_renamed(self):
        class Broken(Carrier):
            __slots__ = ()

            @property
            def arrival_time_s(self):
                raise AttributeError("broken")

        with pytest.raises(AttributeError, match="^broken$"):
            mt.fifo_order([Carrier(0, 0.0), Broken(1, 1.0)])

    # Tied arrivals are ordered by id, and "a" and 1 do not order.
    @pytest.mark.parametrize("carrier_id", ["a", 1.5, None])
    def test_id_not_an_int_rejected(self, carrier_id):
        with pytest.raises(DomainError, match="^carrier id must be an int, got "):
            mt.waterfall_allocate([Carrier(carrier_id, 1.0), Carrier(1, 1.0)],
                                  CellMap([(0, 0), (1, 1)]))

    def test_repeated_id_rejected(self):
        # One dict entry per id would drop the earlier carrier's cell.
        with pytest.raises(DomainError, match="^carrier ids must be distinct$"):
            mt.waterfall_allocate([Carrier(0, 0.0), Carrier(0, 1.0)],
                                  CellMap([(0, 0), (1, 1)]))

    def test_capacity_error(self):
        with pytest.raises(DomainError, match="^4 carriers exceed 3 cells$"):
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
        with pytest.raises(DomainError, match="permutation"):
            CellMap(cells=[(0, 0), (1, "1")])  # a rank no int equals

    @pytest.mark.parametrize("cells", [[(0, 0.0), (1, 1)], [(0, 0), (1, 1.5)],
                                       [(0, 0), (1, None)], [(0, 0), (1, 2)],
                                       [(0, -1), (1, 1), (2, 3)]])  # the sum of 0..2
    def test_ranks_must_be_the_ints_0_to_n(self, cells):
        with pytest.raises(DomainError, match="^distance ranks must be a permutation 0..N-1$"):
            CellMap(cells)

    @pytest.mark.parametrize("address", [0.5, 1.0, "a", None, 2 + 0j])
    def test_addresses_must_be_ints(self, address):
        # Else waterfall_allocate would hand out an address that is no int.
        with pytest.raises(DomainError, match="^cell addresses must be ints$"):
            CellMap([(address, 0), (1, 1)])

    @pytest.mark.parametrize("cells", [[(0,)], [(0, 0, 0)], [0, 1]])
    def test_cell_not_a_pair_rejected(self, cells):
        with pytest.raises(DomainError, match=r"^cells must be \(address, rank\) pairs$"):
            CellMap(cells)

    def test_cells_cannot_be_replaced(self):
        # The rank map is built once, so it would go stale.
        cells = CellMap([(0, 0)])
        with pytest.raises(AttributeError):
            cells.cells = [(5, 0)]
        assert mt.waterfall_allocate([Carrier(0, 0.0)], cells) == {0: 0}

    def test_caller_list_edited_later_leaves_the_map_alone(self):
        # The rank map is built once, so cells edited after it would go stale.
        given = [(0, 0), (1, 1)]
        cells = CellMap(given)
        given[0] = (9, 0)
        given.append((2, 2))
        assert cells == CellMap([(0, 0), (1, 1)])
        assert repr(cells) == "CellMap(cells=((0, 0), (1, 1)))"
        assert hash(cells) == hash(CellMap([(0, 0), (1, 1)]))
        with pytest.raises(DomainError, match="^3 carriers exceed 2 cells$"):
            mt.waterfall_allocate([Carrier(i, 0.0) for i in range(3)], cells)
        assert mt.waterfall_allocate([Carrier(0, 0.0)], cells) == {0: 0}
        # Pairs given as lists are copied too, so the map stays hashable.
        pair = [0, 0]
        listed = CellMap([pair, [1, 1]])
        pair[0] = 9
        assert (listed, repr(listed), hash(listed)) == (cells, repr(cells), hash(cells))

    def test_repeated_address_rejected(self):
        # Two ranks on one address would put two carriers in one cell.
        with pytest.raises(DomainError, match="^cell addresses must be distinct$"):
            CellMap(cells=[(0, 0), (0, 1)])

    def test_address_at_rank_matches_cells(self):
        cells = make_cells(50, shuffle_seed=4)
        for address, rank in cells.cells:
            assert cells.address_at_rank(rank) == address
        with pytest.raises(DomainError, match="no cell with distance rank 50"):
            cells.address_at_rank(50)
        assert cells == make_cells(50, shuffle_seed=4)
        assert "_address_by_rank" not in repr(cells)

    def test_iterator_read_once(self):
        carriers = [Carrier(2, 1.0), Carrier(0, 0.5), Carrier(1, 1.0)]
        cells = make_cells(3, shuffle_seed=5)
        assert mt.waterfall_allocate(iter(carriers), cells) == \
            mt.waterfall_allocate(carriers, cells)
        with pytest.raises(DomainError, match="^4 carriers exceed 3 cells$"):
            mt.waterfall_allocate(iter(carriers + [Carrier(3, 0.0)]), cells)

    @pytest.mark.parametrize("carriers", [None, 3, 1.5])
    def test_carriers_not_iterable(self, carriers):
        with pytest.raises(DomainError, match="^carriers must be iterable, got "):
            mt.waterfall_allocate(carriers, make_cells(2))
        with pytest.raises(DomainError, match="^carriers must be iterable, got "):
            mt.fifo_order(carriers)

    def test_allocation_copies_the_carriers_once(self, monkeypatch):
        copies = []
        monkeypatch.setattr(mt, "listed",
                            lambda values, name: copies.append(name) or errors.listed(values, name))
        assert mt.waterfall_allocate([Carrier(1, 0.5), Carrier(0, 0.5)], make_cells(2)) == {
            0: 100, 1: 101}
        assert copies == ["carriers"]


def _reference_allocation(carriers, cells):
    """The allocation by the definition: rank k to the k-th carrier by (arrival, id)."""
    ordered = sorted(carriers, key=lambda c: (c.arrival_time_s, c.id))
    return {c.id: cells.address_at_rank(rank) for rank, c in enumerate(ordered)}


# Few distinct values, so arrivals tie often, also across int, float and Fraction.
ARRIVALS = st.one_of(st.sampled_from([0, 1, 2, 0.5, 1.0, 2.5, Fraction(1, 2), Fraction(2)]),
                     st.fractions(0, 3, max_denominator=4))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_allocation_matches_tuple_key_reference(data):
    n_cells = data.draw(st.integers(0, 12), label="cells")
    arrivals = data.draw(st.lists(ARRIVALS, max_size=n_cells), label="arrivals")
    ids = data.draw(st.permutations(range(-4, 16)), label="ids")  # distinct, shuffled
    carriers = [Carrier(i, t) for i, t in zip(ids, arrivals)]
    ranks = data.draw(st.permutations(range(n_cells)), label="ranks")
    cells = CellMap(list(zip(range(100, 100 + n_cells), ranks)))
    given_carriers = list(carriers)
    as_iterator = data.draw(st.booleans(), label="iterator")
    alloc = mt.waterfall_allocate(iter(carriers) if as_iterator else carriers, cells)
    expected = _reference_allocation(carriers, cells)
    assert list(alloc.items()) == list(expected.items())  # equal, and inserted in rank order
    assert list(alloc.values()) == [cells.address_at_rank(r) for r in range(len(carriers))]
    assert carriers == given_carriers  # the caller's list keeps its order


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_fifo_order_is_the_tuple_key_order(data):
    arrivals = data.draw(st.lists(ARRIVALS, max_size=12), label="arrivals")
    ids = data.draw(st.permutations(range(-4, 16)), label="ids")  # distinct, shuffled
    carriers = [Carrier(i, t) for i, t in zip(ids, arrivals)]
    given_carriers = list(carriers)
    as_iterator = data.draw(st.booleans(), label="iterator")
    order = mt.fifo_order(iter(carriers) if as_iterator else carriers)
    assert order == sorted(carriers, key=lambda c: (c.arrival_time_s, c.id))
    assert type(order) is list and order is not carriers
    assert carriers == given_carriers  # a new list: the caller's keeps its order
