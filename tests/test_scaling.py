"""Scaling gate: each leaf that takes a list runs through cli.main at n and at
8n, and its CPU time may grow at most 20-fold; so may parallel_sort's on
repeated text, called directly. Linear work grows about 8x, n log n a little
more, and a quadratic scan about 64x, so the wide bound catches a quadratic
cliff without failing on a noisy machine. Each size takes the least of 3 runs
of time.process_time(). A failure also reports the growth exponent
log(ratio) / log(GROWTH): 1 for linear, 2 for quadratic.

This is the paper's timing probe (`ptvda.scaling_probe`) turned on the
toolkit itself.
"""

import contextlib
import io
import math
import time

import pytest

from timedata_lab import ptvda
from timedata_lab.analysis import MAX_SPOKES
from timedata_lab.cli import main

GROWTH = 8
MAX_RATIO = 20
RUNS = 3


def _progress(n):
    # Strictly between 0 and 100, so no sentinel cell takes a chart spoke out.
    return ",".join(f"{100 * (i + 0.5) / n:.6g}" for i in range(n))


def _config(tmp_path, targets):
    path = tmp_path / f"targets-{targets}.ini"
    path.write_text("".join(f"[target.T{i}]\ndistance_km = {1e6 * (i + 1)}\nrange_lm = 8.3\n"
                            for i in range(targets)))
    return str(path)


def _waterfall(tmp_path, n):
    return ["mem", "waterfall", "--arrivals", ",".join(str(i % 97 * 0.5) for i in range(n))]


def _sort(tmp_path, n):
    return ["sort", "run", "--values", ",".join(str((i * 7919) % n) for i in range(n))]


def _sheet_progress(tmp_path, n):
    return ["sheet", "--config", _config(tmp_path, 2), "--progress", _progress(n),
            "--out", str(tmp_path / "p.csv")]


def _sheet_targets(tmp_path, n):
    return ["sheet", "--config", _config(tmp_path, n), "--progress", _progress(4),
            "--out", str(tmp_path / "t.csv")]


def _chart(tmp_path, n):
    assert n <= MAX_SPOKES
    csv_path = tmp_path / f"chart-{n}.csv"
    assert _run(["sheet", "--config", _config(tmp_path, 2), "--progress", _progress(n // 2),
                 "--out", str(csv_path)]) == 0
    return ["chart", "--in", str(csv_path), "--out", str(tmp_path / "c.svg")]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _exits_0(argv):
    assert _run(argv) == 0


def _least_cpu_time(call, arg):
    times = []
    for _ in range(RUNS):
        start = time.process_time()
        call(arg)
        times.append(time.process_time() - start)
    return min(times)


def _check_growth(call, small, large):
    ratio = _least_cpu_time(call, large) / _least_cpu_time(call, small)
    assert ratio <= MAX_RATIO, (f"{GROWTH}x the input took {ratio:.1f}x the CPU time, "
                                f"growth exponent {math.log(ratio) / math.log(GROWTH):.2f}")


# (leaf, argv for a list of size n, n)
LEAVES = [
    ("mem waterfall", _waterfall, 2000),
    ("sort run", _sort, 5000),
    ("sheet progress axis", _sheet_progress, 1000),
    ("sheet target axis", _sheet_targets, 250),
    ("chart", _chart, 180),
]


@pytest.mark.parametrize("argv_of,n", [(a, n) for _, a, n in LEAVES],
                         ids=[leaf for leaf, _, _ in LEAVES])
def test_cpu_time_grows_less_than_quadratically(tmp_path, argv_of, n):
    small, large = argv_of(tmp_path, n), argv_of(tmp_path, GROWTH * n)
    _exits_0(small)  # warm-up: the first call loads the leaf's module
    _check_growth(_exits_0, small, large)


def _clocks(n):
    # n clocks from n // 60 values, as perfbench's sort workload draws them
    values = n // 60
    return [f"{k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d}"
            for k in ((i * 7919) % values * 31 for i in range(n))]


# `sort run` reads floats, so repeated text, which parallel_sort sorts by counting
# its distinct values, is timed through the library. Its distinct values grow with
# n, so a scan of the whole list per value would grow quadratically.
def test_repeated_text_sort_grows_less_than_quadratically():
    _check_growth(lambda data: ptvda.parallel_sort(ptvda.SortInstance(data)),
                  _clocks(20_000), _clocks(GROWTH * 20_000))
