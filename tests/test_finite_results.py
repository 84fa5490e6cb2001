"""Every public kernel, given finite inputs from across the float range,
returns a finite result or raises a TimedataError, and nothing else."""

import dataclasses
import inspect
import math

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import geomlink, linkmodel, memtiming, optics, ptvda, relativity
from timedata_lab.errors import TimedataError

MODULES = {m.__name__.rsplit(".", 1)[-1]: m
           for m in (geomlink, linkmodel, memtiming, optics, ptvda, relativity)}

# Plain float draws favour small values, so the others are spread over every
# decimal exponent of a float, or near its ends, or are percentages.
F = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
              *(st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), exponent)
                for exponent in (st.integers(-323, 307),
                                 st.sampled_from([-323, -300, 300, 307]))),
              st.floats(0, 100))
INT = st.one_of(st.integers(-3, 10), st.integers(-10**400, 10**400))
PAIRS = st.lists(st.tuples(F, F), min_size=3, max_size=5)
POINT = st.builds(geomlink.Point2, F, F)
POLAR = st.builds(relativity.PolarPoint, F, st.one_of(F, st.floats(-math.pi, math.pi)))
ELECTRODE = st.builds(memtiming.ElectrodeGeometry, F, F, F, F)
COMPLEX = st.builds(complex, F, F)
INTEGRAND = st.just(lambda *point: sum(point) + 1.0)


def _allocation(arrivals):
    return st.tuples(st.just([memtiming.Carrier(i, t) for i, t in enumerate(arrivals)]),
                     st.builds(lambda n: memtiming.CellMap([(a, a) for a in range(n)]),
                               st.integers(0, 5)))


# Public kernel name -> strategy for its argument tuple. A dataclass argument
# is drawn through its constructor, whose own DomainError counts as typed.
KERNELS = {
    "geomlink.slope": st.tuples(POINT, POINT),
    "geomlink.segment_length": st.tuples(POINT, POINT),
    "geomlink.shared_arc": st.tuples(st.builds(geomlink.ArcDecomposition, *[F] * 6)),
    "geomlink.riemann_area": st.tuples(INTEGRAND, st.tuples(*[F] * 4),
                                       st.integers(0, 3), st.integers(0, 3)),
    "geomlink.triple_integral": st.tuples(INTEGRAND, st.tuples(*[F] * 6),
                                          *[st.integers(0, 2)] * 3),
    "geomlink.time_split_check": st.tuples(F, F),
    "geomlink.planar_kinematics": st.tuples(
        st.builds(geomlink.PlanarMotion, st.tuples(F, F), F, F)),
    "linkmodel.epsilon_from_progress": st.tuples(F, F),
    "linkmodel.shift_timestamp": st.tuples(
        st.builds(linkmodel.Timestamp, st.integers(0, 23), *[st.integers(0, 59)] * 2), F),
    "linkmodel.frequency_resolution": st.tuples(F, F),
    "linkmodel.displaced_frequency_resolution": st.tuples(F, F),
    "linkmodel.uncertainty_satisfied": st.tuples(F, F),
    "linkmodel.timedata_probability": st.tuples(
        F, F, st.builds(linkmodel.AmplitudeOverlap, F, F)),
    "memtiming.bit_frequency": st.tuples(F, F, F),
    "memtiming.validate_qubit": st.tuples(
        st.builds(memtiming.QubitState, COMPLEX, COMPLEX)),
    "memtiming.phase_ratio_means": st.tuples(
        PAIRS, PAIRS, st.lists(st.tuples(F, F), min_size=2, max_size=2)),
    "memtiming.sheet_resistance": st.tuples(ELECTRODE),
    "memtiming.resistance": st.tuples(ELECTRODE),
    "memtiming.transconductance_baseline": st.tuples(F, F),
    "memtiming.quantum_efficiency": st.tuples(INT, INT),
    "memtiming.waterfall_allocate": st.lists(F, max_size=4).flatmap(_allocation),
    "optics.v_number": st.tuples(st.builds(optics.FiberSpec, F, F, F, F)),
    "optics.is_single_mode": st.tuples(F),
    "optics.snell_refracted_angle": st.tuples(F, F, F),
    "optics.faraday_rotation": st.tuples(st.builds(optics.FaradayCell, F, F, F)),
    "optics.isolation_geometry": st.tuples(st.builds(optics.IsolationShell, F, F, F, F)),
    "ptvda.parallel_sort": st.tuples(
        st.builds(ptvda.SortInstance, st.lists(F, max_size=6), st.integers(0, 7))),
    "ptvda.classify_ratio": st.tuples(F, F, F),
    # Small sizes and trials: a probe times real sorts.
    "ptvda.scaling_probe": st.tuples(st.lists(st.integers(-1, 40), max_size=4),
                                     st.integers(0, 4)),
    "relativity.time_factor": st.tuples(st.builds(relativity.Velocity, F)),
    "relativity.proper_time_delta_general": st.tuples(F, F, F, F),
    "relativity.stored_proper_time": st.tuples(F),
    "relativity.polar_from_cartesian": st.tuples(F, F),
    "relativity.cartesian_from_polar": st.tuples(POLAR),
    "relativity.jacobian_polar": st.tuples(POLAR),
    "relativity.charge_balance": st.tuples(st.builds(relativity.ChargeLedger, F, F, F)),
    "relativity.charge_balance_inverse": st.tuples(F, F, F),
    "relativity.charge_density": st.tuples(F, F),
    "relativity.moire_wavelength": st.tuples(F, F, F),
}


def _floats(result):
    """Every float in a result, through tuples, lists, dicts and dataclasses;
    ints and Fractions are exact and never leave the float range by rounding."""
    if isinstance(result, float):
        yield result
    elif dataclasses.is_dataclass(result):
        yield from _floats(dataclasses.astuple(result))
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _floats(item)
    elif isinstance(result, dict):
        yield from _floats(list(result.values()))


def test_table_names_every_public_kernel():
    public = {f"{short}.{name}"
              for short, module in MODULES.items() for name, fn in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == module.__name__}
    assert set(KERNELS) == public


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_result_is_finite_or_typed_error(name):
    module, attr = name.split(".")
    kernel = getattr(MODULES[module], attr)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def check(data):
        try:
            args = data.draw(KERNELS[name])
            result = kernel(*args)
        except TimedataError:
            return
        assert all(map(math.isfinite, _floats(result))), result

    check()
