"""Memory-chip timing and electrical model: bit frequencies, qubit norm
validation, phase ratios, sheet resistance, transconductance, quantum
efficiency and FIFO waterfall allocation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CapacityError, DivisionByZeroSignal, DomainError

QUBIT_NORM_TOL = 1e-9

# Minimum per-pole sample count for the alpha/beta phase-ratio means.
MIN_POLE_SAMPLES = 4


@dataclass(frozen=True)
class QubitState:
    a: complex
    b: complex

    def norm(self) -> float:
        return (abs(self.a) ** 2 + abs(self.b) ** 2) ** 0.5


@dataclass(frozen=True)
class Carrier:
    id: int
    arrival_time_s: float

    def __post_init__(self):
        if self.arrival_time_s < 0:
            raise DomainError("arrival time must be nonnegative")


@dataclass
class CellMap:
    """Distance-ordered memory cells; each address holds at most one carrier."""

    cells: list[tuple[int, int]]  # (address, distance_rank)
    _address_by_rank: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._address_by_rank = {rank: address for address, rank in self.cells}
        if sorted(self._address_by_rank) != list(range(len(self.cells))):
            raise DomainError("distance ranks must be a permutation 0..N-1")

    def address_at_rank(self, rank: int) -> int:
        try:
            return self._address_by_rank[rank]
        except KeyError:
            raise DomainError(f"no cell with distance rank {rank}") from None


@dataclass(frozen=True)
class ElectrodeGeometry:
    length: float
    width: float
    resistivity: float
    thickness: float

    def __post_init__(self):
        if min(self.length, self.width, self.resistivity, self.thickness) <= 0:
            raise DomainError("electrode geometry fields must be positive")

    @property
    def squares(self) -> float:
        return self.length / self.width


def bit_frequency(a_in_bits: float, b_in_qbits: float, t_s: float) -> float:
    """Classical bit input per qubit-unit input per second, in Hz."""
    if a_in_bits < 0:
        raise DomainError("bit input must be nonnegative")
    if b_in_qbits <= 0 or t_s <= 0:
        raise DivisionByZeroSignal("qubit input and time must be positive")
    return a_in_bits / (b_in_qbits * t_s)


def validate_qubit(q: QubitState) -> bool:
    """True iff |a|^2 + |b|^2 is unit-norm within 1e-9."""
    return abs(q.norm() - 1.0) <= QUBIT_NORM_TOL


def phase_ratio_means(alpha: list[tuple[float, float]],
                      beta: list[tuple[float, float]],
                      delta: list[tuple[float, float]]) -> dict[str, float]:
    """Mean write/read phase ratio per pole.

    Alpha and beta need at least 4 samples each; the delta pole takes
    exactly 2 by definition.
    """
    if len(alpha) < MIN_POLE_SAMPLES or len(beta) < MIN_POLE_SAMPLES:
        raise DomainError(f"alpha and beta poles need >= {MIN_POLE_SAMPLES} samples")
    if len(delta) != 2:
        raise DomainError("delta pole takes exactly 2 samples")

    def mean_ratio(pairs):
        total = 0.0
        for wr, rd in pairs:
            if rd == 0:
                raise DivisionByZeroSignal("zero read phase")
            total += wr / rd
        return total / len(pairs)

    return {"alpha": mean_ratio(alpha),
            "beta": mean_ratio(beta),
            "delta": mean_ratio(delta)}


def sheet_resistance(g: ElectrodeGeometry) -> float:
    """Sheet resistance resistivity / thickness, in ohms per square."""
    return g.resistivity / g.thickness


def resistance(g: ElectrodeGeometry) -> float:
    """Electrode resistance Z * R_s with Z = L/W; square electrodes give R_s."""
    return g.squares * sheet_resistance(g)


def transconductance_baseline(d_i_ds_a: float, d_v_gs_v: float) -> float:
    """Field-effect transconductance dI_ds / dV_gs, in siemens."""
    if d_v_gs_v == 0:
        raise DivisionByZeroSignal("zero gate-source voltage step")
    return d_i_ds_a / d_v_gs_v


def quantum_efficiency(n_collected: int, n_entangled_storable: int) -> float:
    """Fermionic quantum efficiency: collected over storable carriers."""
    if n_entangled_storable <= 0:
        raise DivisionByZeroSignal("storable carrier count must be positive")
    if n_collected < 0:
        raise DomainError("collected count must be nonnegative")
    return n_collected / n_entangled_storable


def waterfall_allocate(carriers: list[Carrier], cells: CellMap) -> dict[int, int]:
    """FIFO allocation: earliest arrival gets the nearest cell.

    Ties break by ascending carrier id. Returns carrier id -> cell address;
    the input CellMap is not mutated.
    """
    if len(carriers) > len(cells.cells):
        raise CapacityError(
            f"{len(carriers)} carriers exceed {len(cells.cells)} cells")
    ordered = sorted(carriers, key=lambda c: (c.arrival_time_s, c.id))
    return {c.id: cells.address_at_rank(rank) for rank, c in enumerate(ordered)}
