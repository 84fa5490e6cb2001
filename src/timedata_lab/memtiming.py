"""Memory-chip timing and electrical model: bit frequencies, qubit norm
validation, phase ratios, sheet resistance, transconductance, quantum
efficiency and FIFO waterfall allocation."""

import math
from operator import attrgetter

from .errors import (LARGEST, TINY, DivisionByZeroSignal, DomainError, exact_ratio, finite,
                     listed, ratio, record, within)

QUBIT_NORM_TOL = 1e-9

# Minimum per-pole sample count for the alpha/beta phase-ratio means.
MIN_POLE_SAMPLES = 4


class QubitState(record("QubitState", "a b")):
    __slots__ = ()

    def __init__(self, a: complex, b: complex):
        # None and text have no real part, so getattr gives None
        for value in [getattr(z, p, None) for z in (a, b) for p in ("real", "imag")]:
            within(value, "qubit amplitudes must be finite complex numbers")


class Carrier(record("Carrier", "id arrival_time_s")):
    __slots__ = ()

    def __new__(cls, id: int, arrival_time_s: float):  # one frame: allocations build thousands
        # inline: within_int would add ~100 ns a carrier, and within ~40 ns a plain float
        if not isinstance(id, int):
            raise DomainError(f"carrier id must be an int, got {id!r}")
        if not (type(arrival_time_s) is float and 0.0 <= arrival_time_s <= LARGEST):
            within(arrival_time_s, "arrival time must be nonnegative", 0.0)
        return tuple.__new__(cls, (id, arrival_time_s))


def _int_sum(values) -> int | None:
    """sum(values) where every value is an int, else None; a quarter of the time
    of an isinstance check per value, as any other number makes the sum no int."""
    try:
        total = sum(values)
    except TypeError:  # text, None
        return None
    return total if isinstance(total, int) else None


class CellMap(record("CellMap", "cells")):
    """Distance-ordered memory cells; each address holds at most one carrier.
    The instance dict holds the derived rank map, outside repr and ==."""

    def __new__(cls, cells: list[tuple[int, int]]):  # (address, distance_rank)
        try:
            cells = tuple(map(tuple, cells))  # copies the caller cannot edit: by_rank stays true
            by_rank = {rank: address for address, rank in cells}
        except (TypeError, ValueError):  # a cell that is no pair, or a rank no dict can key
            raise DomainError("cells must be (address, rank) pairs") from None
        n = len(cells)
        # n distinct ints >= 0 sum to n(n-1)/2 or more, and to exactly that only as 0..n-1.
        if (len(by_rank) != n or _int_sum(by_rank) != n * (n - 1) // 2
                or min(by_rank, default=0) < 0):
            raise DomainError("distance ranks must be a permutation 0..N-1")
        if _int_sum(by_rank.values()) is None:
            raise DomainError("cell addresses must be ints")
        if len(set(by_rank.values())) != n:
            raise DomainError("cell addresses must be distinct")
        self = tuple.__new__(cls, (cells,))
        self._address_by_rank = by_rank
        return self

    def address_at_rank(self, rank: int) -> int:
        try:
            return self._address_by_rank[rank]
        except KeyError:
            raise DomainError(f"no cell with distance rank {rank}") from None


class ElectrodeGeometry(record("ElectrodeGeometry", "length width resistivity thickness")):
    __slots__ = ()

    def __init__(self, length: float, width: float, resistivity: float, thickness: float):
        for value in (length, width, resistivity, thickness):
            within(value, "electrode geometry fields must be positive", TINY)


def bit_frequency(a_in_bits: float, b_in_qbits: float, t_s: float) -> float:
    """Classical bit input per qubit-unit input per second, in Hz."""
    within(a_in_bits, "bit input must be nonnegative", 0.0)
    for value in (b_in_qbits, t_s):
        within(value, "qubit input and time must be positive", TINY, error=DivisionByZeroSignal)
    return ratio((a_in_bits,), (b_in_qbits, t_s), "bit frequency")


def validate_qubit(q: QubitState) -> bool:
    """True iff |a|^2 + |b|^2 is unit-norm within 1e-9."""
    return abs(math.hypot(q.a.real, q.a.imag, q.b.real, q.b.imag) - 1.0) <= QUBIT_NORM_TOL


def phase_ratio_means(alpha: list[tuple[float, float]],
                      beta: list[tuple[float, float]],
                      delta: list[tuple[float, float]]) -> dict[str, float]:
    """Mean write/read phase ratio per pole.

    Alpha and beta need at least 4 samples each; the delta pole takes
    exactly 2 by definition. Each pole may be an iterator, read once.
    """
    alpha, beta = listed(alpha, "alpha samples"), listed(beta, "beta samples")
    delta = listed(delta, "delta samples")
    if len(alpha) < MIN_POLE_SAMPLES or len(beta) < MIN_POLE_SAMPLES:
        raise DomainError(f"alpha and beta poles need >= {MIN_POLE_SAMPLES} samples")
    if len(delta) != 2:
        raise DomainError("delta pole takes exactly 2 samples")

    def mean_ratio(pairs):
        from statistics import mean  # exact; imported at start, it would cost 5 ms
        ratios = []
        for pair in pairs:
            try:
                wr, rd = pair
            except (TypeError, ValueError):  # a number, or not two parts
                raise DomainError(f"samples must be (write, read) pairs, got {pair!r}") from None
            if finite(rd, "read phase") == 0:
                raise DivisionByZeroSignal("zero read phase")
            ratios.append(finite(wr, "write phase") / rd)
        return finite(mean(ratios), "mean phase ratio")  # no partial sum can overflow

    return {"alpha": mean_ratio(alpha),
            "beta": mean_ratio(beta),
            "delta": mean_ratio(delta)}


def sheet_resistance(g: ElectrodeGeometry) -> float:
    """Sheet resistance resistivity / thickness, in ohms per square."""
    return ratio((g.resistivity,), (g.thickness,), "sheet resistance")


def resistance(g: ElectrodeGeometry) -> float:
    """Electrode resistance Z * R_s with Z = L/W, rounded once from the exact value:
    square electrodes give R_s, and Z or R_s beyond the normal floats costs nothing."""
    return exact_ratio((g.length, g.resistivity), (g.width, g.thickness), "resistance")


def transconductance_baseline(d_i_ds_a: float, d_v_gs_v: float) -> float:
    """Field-effect transconductance dI_ds / dV_gs, in siemens."""
    if finite(d_v_gs_v, "gate-source voltage step") == 0:
        raise DivisionByZeroSignal("zero gate-source voltage step")
    return ratio((finite(d_i_ds_a, "drain current step"),), (d_v_gs_v,), "transconductance")


def quantum_efficiency(n_collected: int, n_entangled_storable: int) -> float:
    """Fermionic quantum efficiency: collected over storable carriers."""
    within(n_entangled_storable, "storable carrier count must be positive", TINY, math.inf,
           DivisionByZeroSignal)
    within(n_collected, "collected count must be nonnegative", 0, math.inf)
    return ratio((n_collected,), (n_entangled_storable,), "quantum efficiency")


def fifo_order(carriers: list[Carrier]) -> list[Carrier]:
    """The carriers in FIFO order, earliest arrival first and ties by ascending id, as a
    new list: `carriers` is read once (an iterator serves), and the order costs n log n.
    An item that is no Carrier raises DomainError."""
    carriers = listed(carriers, "carriers")
    # Two stable sorts, by id and then by arrival, give the order of (arrival, id);
    # a one-field key compares faster than a tuple.
    try:
        carriers.sort(key=attrgetter("id"))
        carriers.sort(key=attrgetter("arrival_time_s"))
    except AttributeError:  # no id or arrival: the first item that is no Carrier, if any
        for item in carriers:
            if not isinstance(item, Carrier):
                raise DomainError(f"carriers must be Carriers, got {item!r}") from None
        raise
    return carriers


def waterfall_allocate(carriers: list[Carrier], cells: CellMap) -> dict[int, int]:
    """FIFO allocation: earliest arrival gets the nearest cell.

    The carriers in fifo_order take the cells in rank order. Returns carrier id ->
    cell address, inserted in rank order; the input CellMap is not mutated.
    """
    carriers = fifo_order(carriers)
    if len(carriers) > len(cells.cells):
        raise DomainError(f"{len(carriers)} carriers exceed {len(cells.cells)} cells")
    by_rank = cells._address_by_rank  # ranks 0..N-1 for N cells, and N >= len(carriers)
    alloc = {c.id: by_rank[rank] for rank, c in enumerate(carriers)}
    if len(alloc) < len(carriers):  # a repeated id kept only its last cell
        raise DomainError("carrier ids must be distinct")
    return alloc
