import copy
import errno
import hashlib
import io
import math
import os
import pickle
import random
import re
import stat
import sys
import tempfile
import threading
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from timedata_lab import analysis, linkmodel
from timedata_lab.analysis import DIV0, DIVERGES, LinkRecord, Sheet
from timedata_lab.errors import (LARGEST, DivergenceSignal, DivisionByZeroSignal, DomainError,
                                 TimedataError, finite_text)
from timedata_lab.linkmodel import Target, Timestamp

SUN = Target("Sun", 1.46e8, 8.3)
BASE = Timestamp(13, 35, 0)
PROGRESS = [0, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96]


# Printable names without surrogates or CR; the csv writer must quote
# the comma, the quote and the LF.
_NAME = st.text(st.one_of(st.characters(exclude_categories=("Cc", "Cs")),
                          st.sampled_from(',"\n')), min_size=1, max_size=8)


_TEXT = st.one_of(st.just(""), _NAME)
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6),
                    st.booleans(), st.fractions())
_CLOCK = st.builds(Timestamp, st.integers(0, 23), st.integers(0, 59), st.integers(0, 59))
_RESOLUTION = st.one_of(_NUMBER, st.sampled_from([DIV0, DIVERGES]))
# A cell of any kind a caller may pass: text (sentinels and numeric text too), ints
# past the float range, floats with +-0.0, inf and nan, Fractions, and clocks as
# Timestamps and as plain tuples.
_CELL = st.one_of(
    _TEXT, st.sampled_from([DIV0, DIVERGES, "1.5", "12:00:00"]), st.integers(),
    st.sampled_from([10**400, -(10**309), 0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(), st.fractions(), _CLOCK,
    st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)))


@st.composite
def _record_cells(draw):
    """Eight cells, each of its column's kind, up to three of them then replaced by a
    cell of any kind."""
    cells = [draw(kind) for kind in (_TEXT, _NUMBER, _TEXT, _CLOCK, _NUMBER, _NUMBER,
                                     _RESOLUTION, _RESOLUTION)]
    for column in draw(st.lists(st.integers(0, 7), max_size=3, unique=True)):
        cells[column] = draw(_CELL)
    return cells


def _takes(column, cell) -> bool:
    """Whether LinkRecord takes cell in column: text, a finite number, text, a
    Timestamp, then finite numbers, where either resolution may be a sentinel."""
    if column in (0, 2):
        return isinstance(cell, str)
    if column == 3:
        return isinstance(cell, Timestamp)
    if column >= 6 and cell in (DIV0, DIVERGES):
        return True
    if isinstance(cell, float):
        return math.isfinite(cell)
    return isinstance(cell, (int, Fraction)) and abs(cell) <= LARGEST


def _sentinels(sheet):
    return sum(isinstance(cell, str) for r in sheet.records
               for cell in (r.nu_delta_omega_hz, r.nu_displaced_hz))


class _FirstRecord(Exception):
    pass


def _kernel_record(target, progress, base):
    """The record for one (target, progress) pair, from the scalar kernels alone."""
    eps = linkmodel.epsilon_from_progress(progress, target.range_lm)
    stamp = linkmodel.shift_timestamp(base, eps)
    delta_t = float(linkmodel.shift_seconds(eps))
    try:
        nu = linkmodel.frequency_resolution(target.distance_km, progress)
    except DivisionByZeroSignal:
        nu = DIV0
    try:
        nu_x = linkmodel.displaced_frequency_resolution(target.distance_km, progress)
    except DivergenceSignal:
        nu_x = DIVERGES
    return LinkRecord(target.name, progress, f"f(x,y)|{target.name}", stamp, eps, delta_t,
                      nu, nu_x)


def _bits(record):
    """Each field with its type, a float as its bits: -0.0 is not 0.0 here."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in record]


def _by_the_kernels():
    """A patch under which build_sheet builds every row record by record from the
    kernels: linkmodel._row_columns gives no row's columns."""
    return mock.patch.object(linkmodel, "_row_columns", lambda *args: None)


def _unchecked(*fields):
    """A Target as a tuple holds it unchecked, as pickle can restore one."""
    return tuple.__new__(Target, fields)


def _seeded_sheet(seed, targets, progress):
    """A sheet of targets x progress records with 0% and 100% rows, built from seed as
    the bulk-sheet benchmark builds one."""
    rng = random.Random(seed)
    targets = [Target(f"T{i:03d}", rng.uniform(1e6, 1e9), rng.uniform(0.5, 50.0))
               for i in range(targets)]
    progress = [0.0, 100.0] + [rng.uniform(0.0, 100.0) for _ in range(progress - 2)]
    rng.shuffle(progress)
    base = Timestamp(rng.randrange(6, 23), rng.randrange(60), rng.randrange(60))
    return analysis.build_sheet(targets, progress, base)


def _memo_sheets():
    """The Sun/Moon sheet, whose records share their cells, and the seeded 10 x 40 sheet,
    whose clocks are nearly all distinct."""
    return [analysis.build_sheet([SUN, Target("Moon", 384400, 0.0214)], PROGRESS, BASE),
            _seeded_sheet(44, 10, 40)]


class _Text(str):
    """Text that prints one way through str() and another through format()."""

    def __str__(self):
        return f"<{super().__str__()}>"

    def __format__(self, spec):
        return f"[{super().__str__()}]"


def _text_records():
    """Records whose name, label and sentinels are exact str or _Text, of equal values,
    one _Text object of each value shared between rows."""
    name, label, div0, inf = _Text("A"), _Text("f|A"), _Text(DIV0), _Text(DIVERGES)
    return [LinkRecord(*cells[:3], Timestamp(12, 0, 0), 0.5, 60.0, *cells[3:]) for cells in [
        ("A", 1.0, "f|A", DIV0, 2.5), (name, 1.0, label, div0, inf),
        (_Text("B,"), 1.0, "f|A", 0.5, div0), ("A", 1.0, label, DIV0, DIVERGES),
        (name, 1.0, "f|A", div0, 0.5)]]


def _small_memo(monkeypatch, cells):
    """Give every CSV memo room for cells entries, and check after each entry that the
    memo holds no more (one at 0 cells: the entry just made)."""
    remember = analysis._remember

    def checked(memo, key, value):
        assert remember(memo, key, value) is value is memo[key]
        assert len(memo) <= max(cells, 1)
        return value
    monkeypatch.setattr(analysis, "_MEMO_CELLS", cells)
    monkeypatch.setattr(analysis, "_remember", checked)


# Targets as Target builds them, and unchecked (a distance or range out of range).
# Ranges reach past 1,440 Lm, where a shift rolls back past midnight; distances reach
# down to where c / distance is inf.
_DISTANCE = st.one_of(st.floats(1e-3, 1e12), st.sampled_from([5e-324, 1e-300]))
_RANGE = st.one_of(st.floats(1e-3, 3000), st.sampled_from([1440.0, 1e300]))
_TARGET = st.one_of(
    st.builds(Target, st.sampled_from(["A", "B,", ""]), _DISTANCE, _RANGE),
    st.builds(_unchecked, st.just("U"),
              st.one_of(_DISTANCE, st.sampled_from([0.0, -1.0, math.inf, math.nan])),
              st.one_of(_RANGE, st.sampled_from([0.0, -1.0, math.inf, math.nan]))))
_PROGRESS = st.one_of(st.floats(-10, 110), st.integers(-10, 110),
                      st.sampled_from([-0.0, 0, 0.0, 100, 100.0]))


# Sheets of plain rows, each with one or two faults planted in rows and progress
# values of their own: a progress value out of range or nan late in the list, a later
# range that takes epsilon past 1,440 Lm, a base clock the shift rolls past midnight,
# a distance at which c / (d * p / 100) overflows, one at which a denominator
# underflows to 0, and one at which d * p overflows (not refused: 0 Hz).
_PLAIN_TARGET = st.builds(Target, st.sampled_from(["A", "B,"]), st.floats(1e3, 1e9),
                          st.floats(0.5, 50.0))
_PLAIN_PROGRESS = st.one_of(st.floats(0, 100), st.integers(0, 100),
                            st.sampled_from([0, 0.0, -0.0, 100, 100.0]))


@st.composite
def _planted_sheets(draw):
    targets = draw(st.lists(_PLAIN_TARGET, min_size=2, max_size=5))
    progress = draw(st.lists(_PLAIN_PROGRESS, min_size=2, max_size=8))
    base = draw(st.builds(Timestamp, st.integers(1, 23), st.integers(0, 59),
                          st.integers(0, 59)))
    faults = ["progress", "range", "midnight", "overflow", "underflow", "huge"]
    for fault in draw(st.lists(st.sampled_from(faults), min_size=1, max_size=2,
                               unique=True)):
        row = draw(st.integers(1 if fault == "range" else 0, len(targets) - 1))
        name, distance, range_lm = targets[row]
        if fault == "progress":
            late = draw(st.integers(len(progress) // 2, len(progress) - 1))
            progress[late] = draw(st.sampled_from([-5.0, 100.5, 150, math.nan]))
        elif fault == "range":
            targets[row] = Target(name, distance, draw(st.floats(1.5e3, 1e300)))
        elif fault == "midnight":
            base = Timestamp(0, draw(st.integers(0, 1)), draw(st.integers(0, 59)))
        else:
            distance = draw({"overflow": st.floats(1e-315, 1e-301),
                             "underflow": st.sampled_from([5e-324, 1e-323]),
                             "huge": st.floats(1e306, 1.7e308)}[fault])
            targets[row] = Target(name, distance, range_lm)
    return targets, progress, base


@pytest.fixture
def sun_sheet():
    return analysis.build_sheet([SUN], PROGRESS, BASE)


class TestBuildSheet:
    def test_record_per_pair(self, sun_sheet):
        assert len(sun_sheet.records) == len(PROGRESS)
        assert [r.progress_pct for r in sun_sheet.records] == PROGRESS

    def test_sixteen_percent_row(self, sun_sheet):
        row = sun_sheet.records[PROGRESS.index(16)]
        assert row.epsilon_lm == pytest.approx(1.328)
        assert str(row.t_stamp) == "13:33:40"
        assert row.nu_delta_omega_hz == pytest.approx(0.0128425, abs=1e-4)

    def test_ninety_six_percent_row(self, sun_sheet):
        row = sun_sheet.records[PROGRESS.index(96)]
        assert row.epsilon_lm == pytest.approx(7.968)
        assert row.nu_displaced_hz == pytest.approx(0.0513699, abs=1e-3)

    def test_zero_percent_sentinel(self, sun_sheet):
        row = sun_sheet.records[0]
        assert row.nu_delta_omega_hz == DIV0

    def test_divergence_sentinel(self):
        sheet = analysis.build_sheet([SUN], [50, 100], BASE)
        assert sheet.records[1].nu_displaced_hz == DIVERGES

    def test_pure_function(self, sun_sheet):
        again = analysis.build_sheet([SUN], PROGRESS, BASE)
        assert again == sun_sheet

    def test_records_are_immutable_values(self, sun_sheet):
        row = sun_sheet.records[1]
        with pytest.raises(AttributeError):
            row.epsilon_lm = 0.0
        assert LinkRecord(*row) == row
        assert row._replace(epsilon_lm=0.0) != row

    def test_fields_in_csv_column_order(self):
        assert analysis.CSV_HEADER == ("target,progress_pct,f_xy,t,epsilon_lm,"
                                       "delta_t_s,nu_dw_hz,nu_dw_x_hz")
        assert LinkRecord._fields == ("target_name", "progress_pct", "f_xy_label",
                                      "t_stamp", "epsilon_lm", "delta_t_s",
                                      "nu_delta_omega_hz", "nu_displaced_hz")

    def test_empty_inputs(self):
        with pytest.raises(DomainError):
            analysis.build_sheet([], PROGRESS, BASE)
        with pytest.raises(DomainError):
            analysis.build_sheet([SUN], [], BASE)

    # Iterators are read once, before the emptiness check: none loses rows.
    def test_iterators_read_once(self):
        targets = [SUN, Target("Moon", 384400, 0.0214)]
        sheet = analysis.build_sheet(targets, [16.0, 32.0], BASE)
        assert len(sheet.records) == 4
        assert analysis.build_sheet(targets, iter([16.0, 32.0]), BASE) == sheet
        assert analysis.build_sheet(iter(targets), iter([16.0, 32.0]), BASE) == sheet
        with pytest.raises(DomainError, match="^need at least one target"):
            analysis.build_sheet(iter([]), [16.0], BASE)
        with pytest.raises(DomainError, match="^need at least one target"):
            analysis.build_sheet(targets, iter([]), BASE)

    # ProgressColumn.row raising _FirstRecord marks the first record being built: each
    # row's cells, on either path, are made there.
    def test_record_cap_checked_before_the_first_record(self, monkeypatch):
        def first_record(*args):
            raise _FirstRecord
        monkeypatch.setattr(linkmodel.ProgressColumn, "row", first_record)
        with pytest.raises(_FirstRecord):  # the cap itself is allowed
            analysis.build_sheet([SUN] * 1000, [16.0] * 1000, BASE)
        with pytest.raises(DomainError, match="^sheet takes <= 1000000 records, got 1001000$"):
            analysis.build_sheet([SUN] * 1001, [16.0] * 1000, BASE)

    # The base clock is checked once, before any row is built, by whichever path.
    @pytest.mark.parametrize("base", ["13:35:00", None, (13, 35, 0)])
    def test_base_clock_that_is_no_timestamp(self, monkeypatch, base):
        message = f"^base time must be a Timestamp, got {re.escape(repr(base))}$"
        with pytest.raises(DomainError, match=message):
            analysis.build_sheet([Target("A", 1e8, 8.3)], [50], base)
        monkeypatch.setattr(linkmodel.ProgressColumn, "row",
                            lambda *args: pytest.fail("a row was built"))
        with pytest.raises(DomainError, match=message):
            analysis.build_sheet([SUN], PROGRESS, base)

    @pytest.mark.parametrize("targets,progress,name", [
        (None, [16.0], "targets"), ([SUN], 16.0, "progress values")])
    def test_arguments_not_iterable(self, targets, progress, name):
        with pytest.raises(DomainError, match=f"^{name} must be iterable, got "):
            analysis.build_sheet(targets, progress, BASE)

    # A finite shift of more than a day never reuses a clock shifted before.
    def test_shift_beyond_a_day_rolls_back(self):
        with pytest.raises(DomainError, match="^timestamp shift rolls back past midnight$"):
            analysis.build_sheet([SUN, Target("Far", 1.46e8, 1e307)], [50, 100], BASE)

    # Each record, or the error of the first refused one, is what the kernels give
    # one pair at a time. The examples pin which check a record meets first: the range
    # before the progress value of a later record, the shift before the distance, a
    # first-row progress value before the distance of a later row, and the shift of a
    # later record after a row's first.
    @example(targets=[_unchecked("U", 1e8, math.nan)], progress=[16, 120], base=BASE)
    @example(targets=[_unchecked("U", math.nan, 1e300)], progress=[50], base=BASE)
    @example(targets=[SUN, _unchecked("U", -1.0, 8.3)], progress=[16, 32, 150], base=BASE)
    @example(targets=[SUN, _unchecked("U", 1e8, 1e300)], progress=[0, 50], base=BASE)
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(targets=st.lists(_TARGET, min_size=1, max_size=4),
           progress=st.lists(_PROGRESS, min_size=1, max_size=6),
           base=st.builds(Timestamp, st.integers(0, 23), st.integers(0, 59),
                          st.integers(0, 59)))
    def test_records_equal_the_kernels_one_pair_at_a_time(self, targets, progress, base):
        try:
            want = [_kernel_record(t, p, base) for t in targets for p in progress]
        except TimedataError as exc:
            with pytest.raises(TimedataError) as got:
                analysis.build_sheet(targets, progress, base)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            sheet = analysis.build_sheet(targets, progress, base)
            assert list(map(_bits, sheet.records)) == list(map(_bits, want))

    # Repeated progress values and targets give repeated clocks.
    def test_repeated_clocks_equal_records_built_one_by_one(self):
        targets = [SUN, Target("Moon", 384400, 0.0214), SUN]
        progress = [16, 0, 16, 100, 33.3, 0]
        sheet = analysis.build_sheet(targets, progress, BASE)
        one_by_one = [analysis.build_sheet([t], [p], BASE).records[0]
                      for t in targets for p in progress]
        assert sheet.records == tuple(one_by_one)
        clocks = {r.t_stamp for r in sheet.records}
        assert len({id(r.t_stamp) for r in sheet.records}) == len(clocks) < len(sheet.records)

    # Rows built a column at a time and rows built record by record from the kernels
    # give the same cells, bit for bit, or the same first error.
    @example(sheet=([SUN, Target("Far", 1.46e8, 2e3)], [16.0, 99.0], BASE))
    @example(sheet=([SUN], [16.0, 50.0, math.nan], BASE))
    @example(sheet=([SUN, Target("X", 5e-324, 1.0)], [0, 50.0], Timestamp(0, 0, 30)))
    @example(sheet=([Target("X", 1e-300, 1.0)], [50.0, 99.99], BASE))
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(sheet=_planted_sheets())
    def test_rows_equal_rows_built_by_the_kernels(self, sheet):
        def build():
            try:
                return list(map(_bits, analysis.build_sheet(*sheet).records))
            except TimedataError as exc:
                return type(exc), str(exc)

        by_rows = build()
        with _by_the_kernels():
            assert build() == by_rows

    # A plain sheet, sentinels included, calls no kernel for its cells.
    def test_plain_rows_are_built_without_the_kernels(self, monkeypatch):
        def kernel(*args):
            raise AssertionError("kernel called")
        targets, progress = [SUN, Target("Moon", 384400, 0.0214)], PROGRESS + [100]
        for name in ("epsilon_from_progress", "shift_seconds", "shift_timestamp",
                     "frequency_resolution", "displaced_frequency_resolution"):
            monkeypatch.setattr(linkmodel, name, kernel)
        sheet = analysis.build_sheet(targets, progress, BASE)
        monkeypatch.undo()
        assert list(map(_bits, sheet.records)) == [
            _bits(_kernel_record(t, p, BASE)) for t in targets for p in progress]

    # d * p overflows at 1e308 km and 50%, so the row is the kernels': the sheet
    # writes what frequency_resolution returns, whatever rule it follows.
    def test_a_row_the_check_refuses_is_the_kernels(self, monkeypatch):
        calls, kernel = [], linkmodel.frequency_resolution
        monkeypatch.setattr(linkmodel, "frequency_resolution",
                            lambda *args: calls.append(args) or kernel(*args))
        record, = analysis.build_sheet([Target("X", 1e308, 1.0)], [50.0], BASE).records
        assert calls == [(1e308, 50.0)]
        assert record.nu_delta_omega_hz.hex() == kernel(1e308, 50.0).hex()
        assert record.nu_displaced_hz.hex() == (
            linkmodel.displaced_frequency_resolution(1e308, 50.0).hex())

    # A Target that pickle rebuilt is unchecked: a name that is no text is refused for
    # its row before the kernels or the column path read it.
    @pytest.mark.parametrize("target", [_unchecked(5, 1e8, 8.3), _unchecked(["A"], 1e308, 1e300)],
                             ids=["column path", "kernel path"])
    def test_unchecked_target_name_refused(self, target):
        with pytest.raises(DomainError, match=r"^target name must be text, got (5|\['A'\])$"):
            analysis.build_sheet([SUN, target], [16.0, 32.0], BASE)

    # A target that is no Target is refused when its row is reached: after the rows
    # before it, whose first refused record still decides the error.
    @pytest.mark.parametrize("target", [None, "Sun", ("Sun", 1.46e8, 8.3)])
    def test_target_that_is_no_target_refused(self, target):
        message = f"^sheet targets must be Targets, got {re.escape(repr(target))}$"
        with pytest.raises(DomainError, match=message):
            analysis.build_sheet([SUN, target], [16.0, 32.0], BASE)
        with pytest.raises(DomainError, match="^range must be positive$"):
            analysis.build_sheet([_unchecked("U", 1e8, math.nan), target], [16.0], BASE)

    # A range whose type keeps its own products, as numpy's floats do, takes the kernel
    # path, whose epsilon cells are floats still, as LinkRecord's would be.
    def test_epsilon_cells_are_floats_for_a_range_that_keeps_its_type(self):
        class Scaled(float):
            def __rmul__(self, other):
                return Scaled(float(self) * other)
        record, = analysis.build_sheet([Target("X", 1e8, Scaled(8.3))], [16], BASE).records
        assert type(record.epsilon_lm) is float
        assert pickle.dumps(record) == pickle.dumps(LinkRecord(*record))

    # The column path, the kernel path and parse_csv build records without calling
    # LinkRecord: each is one, equal to and pickled as the LinkRecord of its fields.
    def test_records_are_link_records_however_built(self, tmp_path):
        targets, progress = [SUN, Target("Moon", 384400, 0.0214)], PROGRESS + [100]
        columns = analysis.build_sheet(targets, progress, BASE)
        with _by_the_kernels():
            kernels = analysis.build_sheet(targets, progress, BASE)
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(columns, path)
        parsed = analysis.parse_csv(path)
        assert _sentinels(parsed) == _sentinels(kernels) == 4
        for record in columns.records + kernels.records + parsed.records:
            built = LinkRecord(*record)
            assert type(record) is LinkRecord
            assert record == built
            assert pickle.dumps(record) == pickle.dumps(built)


class TestRecords:
    # A record refuses its first bad cell in column order, naming the field; a record
    # it makes holds each number but progress_pct as a float, and comes back from a CSV
    # of its own within 6 digits, its text, clock and sentinels exact.
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(cells=_record_cells())
    def test_a_record_refuses_its_first_bad_cell_or_round_trips(self, cells):
        bad = [field for column, (field, cell) in enumerate(zip(LinkRecord._fields, cells))
               if not _takes(column, cell)]
        if bad:
            with pytest.raises(DomainError) as exc:
                LinkRecord(*cells)
            assert str(exc.value).startswith(f"{bad[0]} "), (cells, str(exc.value))
            return
        record = LinkRecord(*cells)
        assert record[:4] == tuple(cells[:4]) and record.progress_pct is cells[1]
        for made, cell in zip(record[4:], cells[4:]):
            if isinstance(cell, str):
                assert made is cell
            else:
                assert type(made) is float and made.hex() == float(cell).hex()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory, "one.csv")
            analysis.emit_csv(Sheet(records=[record]), path)
            back, = analysis.parse_csv(path).records
        for column, (made, read) in enumerate(zip(record, back)):
            if column in (0, 2, 3) or isinstance(made, str):
                assert read == made, (column, made, read)
            else:
                assert finite_text(read) == finite_text(made), (column, made, read)

    # A Sheet reads its records once into a tuple and refuses any that is not a
    # LinkRecord: a plain tuple of the same cells, a short tuple, or no iterable at all.
    def test_sheet_takes_link_records_only(self, sun_sheet):
        record = sun_sheet.records[1]
        for others in ([tuple(record)], [record, tuple(record)[:5]]):
            with pytest.raises(DomainError) as exc:
                Sheet(records=others)
            assert str(exc.value) == f"sheet records must be LinkRecords, got {others[-1]!r}"
        with pytest.raises(DomainError, match="^records must be iterable, got 5$"):
            Sheet(records=5)
        once = iter(sun_sheet.records)
        assert Sheet(records=once) == sun_sheet and next(once, None) is None
        assert type(Sheet(records=list(sun_sheet.records)).records) is tuple

    # _replace, copy.replace (Python 3.13 on), copy and pickle all make a record
    # through its class, so each refuses a bad cell; a record with a bad cell made
    # with tuple.__new__ does not survive a copy.
    def test_every_copy_checks_the_cells(self, sun_sheet):
        record = sun_sheet.records[1]
        with pytest.raises(DomainError, match="^epsilon_lm not finite: inf$"):
            record._replace(epsilon_lm=math.inf)
        with pytest.raises(DomainError, match="^t_stamp must be a Timestamp, got '12:00:00'$"):
            record._replace(t_stamp="12:00:00")
        if sys.version_info >= (3, 13):
            with pytest.raises(DomainError, match=r"^t_stamp must be a Timestamp, got \("):
                copy.replace(record, t_stamp=(12, 0, 0))
        planted = tuple.__new__(LinkRecord, (*record[:4], math.inf, *record[5:]))
        for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(DomainError, match="^epsilon_lm not finite: inf$"):
                rebuild(planted)
            with pytest.raises(DomainError, match="^sheet records must be LinkRecords, got "):
                rebuild(tuple.__new__(Sheet, ((tuple(record),),)))


class TestCsv:
    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        analysis.emit_csv(Sheet(records=[]), path)
        assert path.read_text() == analysis.CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path, sun_sheet):
        path = tmp_path / "one.csv"
        analysis.emit_csv(Sheet(records=sun_sheet.records[:1]), path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip(self, tmp_path, sun_sheet):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        parsed = analysis.parse_csv(path)
        assert len(parsed.records) == len(sun_sheet.records)
        for orig, back in zip(sun_sheet.records, parsed.records):
            assert back.target_name == orig.target_name
            assert back.t_stamp == orig.t_stamp
            assert back.f_xy_label == orig.f_xy_label
            for attr in ("progress_pct", "epsilon_lm", "delta_t_s",
                         "nu_delta_omega_hz", "nu_displaced_hz"):
                a, b = getattr(orig, attr), getattr(back, attr)
                if isinstance(a, str):
                    assert b == a
                else:
                    assert b == pytest.approx(a, rel=1e-5)

    def test_parsed_repeated_clocks_equal_records_parsed_one_by_one(self, tmp_path):
        sheet = analysis.build_sheet([SUN, SUN], [16, 0, 16, 100], BASE)
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sheet, path)
        parsed = analysis.parse_csv(path).records
        one_by_one = []
        for record in sheet.records:
            analysis.emit_csv(Sheet(records=[record]), path)
            one_by_one += analysis.parse_csv(path).records
        assert parsed == tuple(one_by_one)
        assert len({id(r.t_stamp) for r in parsed}) == len({r.t_stamp for r in parsed}) == 3

    # The bytes of a seeded 50 x 200 sheet with 0% and 100% rows, as the bulk-sheet
    # benchmark builds one: a change to how emit_csv writes must keep them.
    def test_seeded_sheet_bytes(self, tmp_path):
        path = tmp_path / "seeded.csv"
        analysis.emit_csv(_seeded_sheet(32, 50, 200), path)
        data = path.read_bytes()
        assert (data.count(DIV0.encode()), data.count(DIVERGES.encode())) == (50, 50)
        assert hashlib.sha256(data).hexdigest() == (
            "a3890026819f6a053a5cf7c75e0a3e550119373cd698995a75ff50b9e664c195")
        # Read back, each record holds fresh name and label texts: the same bytes.
        analysis.emit_csv(analysis.parse_csv(path), path)
        assert path.read_bytes() == data

    # The bytes of a seeded 10 x 40 sheet, the size of the benchmark's probe sheet, whose
    # clocks are nearly all distinct (318 of 400), and of the chart drawn from its CSV as
    # the `chart` command draws it: the 50 x 200 sheet above shares its clocks.
    def test_seeded_small_sheet_and_chart_bytes(self, tmp_path):
        csv_path, svg_path = tmp_path / "small.csv", tmp_path / "small.svg"
        sheet = _seeded_sheet(44, 10, 40)
        assert len({record.t_stamp for record in sheet.records}) == 318
        analysis.emit_csv(sheet, csv_path)
        assert analysis.render_radar_chart(analysis.parse_csv(csv_path), svg_path) == []
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
            "3e98c5d561ee7449463cb7e6b0037a6fb340ac17d358cda4f65eafe956dae5bd")
        assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == (
            "bbd39e55019bcc4e66643e5282e60189c39ccfa0456c564f011eee1b680902a8")

    # Cells that compare equal but print differently, some of them the same object
    # in several rows or columns: -0.0 and 0.0, 1 and True, and the names "1" and "1.0".
    def test_equal_cells_that_print_differently(self, tmp_path):
        minus_zero, zero, clock = -0.0, 0.0, Timestamp(12, 0, 0)
        records = [
            LinkRecord('a,"b"', minus_zero, 'f(x,y)|a,"b"', clock, zero, minus_zero, 1, True),
            LinkRecord("", zero, "", clock, minus_zero, zero, DIV0, DIVERGES),
            LinkRecord("1", True, "f(x,y)|1", clock, 1, True, zero, minus_zero),
            LinkRecord("1.0", 1, "f(x,y)|1.0", clock, True, 1, float("-0"), 0),
            LinkRecord('a,"b"', 0.0 * -1, 'f(x,y)|a,"b"', clock, -0.0, 0.0, DIV0, 2.5),
        ]
        path = tmp_path / "equal.csv"
        analysis.emit_csv(Sheet(records=records), path)
        assert path.read_text() == analysis.CSV_HEADER + "\n" + "".join(
            f"{line}\n" for line in (
                '"a,""b""",-0,"f(x,y)|a,""b""",12:00:00,0,-0,1,1',
                ",0,,12:00:00,-0,0,#Div/0!,#Inf!",
                '1,1,"f(x,y)|1",12:00:00,1,1,0,-0',
                '1.0,1,"f(x,y)|1.0",12:00:00,1,1,-0,0',
                '"a,""b""",-0,"f(x,y)|a,""b""",12:00:00,-0,0,#Div/0!,2.5'))

    # A bad cell is refused when its record is made, so no sheet holding it is ever
    # written: here an epsilon at record 1 before text in nu_dw_hz at record 3.
    @pytest.mark.parametrize("eps,message", [
        (math.inf, "epsilon_lm not finite: inf"), (DIV0, "epsilon_lm not a number: '#Div/0!'")])
    def test_first_bad_record_decides_the_error_across_columns(self, tmp_path, sun_sheet,
                                                               eps, message):
        records = list(sun_sheet.records)
        with pytest.raises(DomainError, match=f"^{message}$"):
            records[1] = records[1]._replace(epsilon_lm=eps)
            records[3] = records[3]._replace(nu_delta_omega_hz="x")
            analysis.emit_csv(Sheet(records=records), tmp_path / "bad.csv")
        assert os.listdir(tmp_path) == []

    # More cases of the same rule, each refused in its record's column order: a
    # sentinel or text in a column that cannot hold it, an inf nu_dw_x_hz before a
    # later record's bad progress value (and after its own record's), and a bad cell
    # before a record too short to be one (None), which Sheet would refuse.
    @pytest.mark.parametrize("first,later,message", [
        ({"epsilon_lm": DIVERGES}, {"progress_pct": math.nan},
         "epsilon_lm not a number: '#Inf!'"),
        ({"nu_delta_omega_hz": "x"}, {"epsilon_lm": math.inf},
         "nu_delta_omega_hz not a number: 'x'"),
        ({"nu_displaced_hz": math.inf}, {"progress_pct": "a"}, "nu_displaced_hz not finite: inf"),
        ({"progress_pct": "a", "epsilon_lm": math.inf, "nu_displaced_hz": -math.inf}, {},
         "progress_pct not a number: 'a'"),
        ({"delta_t_s": math.nan}, None, "delta_t_s not finite: nan"),
    ], ids=["sentinel epsilon", "text nu", "inf nu_x before progress",
            "progress before inf nu_x", "before a short record"])
    def test_first_bad_cell_in_record_then_column_order_decides_the_error(
            self, tmp_path, sun_sheet, first, later, message):
        records = list(sun_sheet.records)
        with pytest.raises(DomainError, match=f"^{message}$"):
            records[1] = records[1]._replace(**first)
            records[3] = records[3][:5] if later is None else records[3]._replace(**later)
            analysis.emit_csv(Sheet(records=records), tmp_path / "bad.csv")
        assert os.listdir(tmp_path) == []

    # Number cells other than progress_pct are stored as floats, so cells of other
    # types are written as finite_text writes them, whatever their type formats itself
    # as, in each column that holds them; the other records are not changed by them.
    class _Shown(float):
        def __format__(self, spec):
            return "shown"

    @pytest.mark.parametrize("cell", [3, True, False, _Shown(2.5), Fraction(1, 3),
                                      Fraction(-7, 2), 10 ** 20])
    @pytest.mark.parametrize("field", ["epsilon_lm", "nu_delta_omega_hz", "nu_displaced_hz",
                                       "delta_t_s"])
    def test_number_cells_of_other_types_written_as_floats(self, tmp_path, sun_sheet, cell,
                                                           field):
        odd = LinkRecord("X", 1.0, "f", Timestamp(12, 0, 0), 0.5, 60.0, 0.5, 0.5)
        odd = odd._replace(**{field: cell})
        assert type(getattr(odd, field)) is float
        path = tmp_path / "odd.csv"
        analysis.emit_csv(Sheet(records=sun_sheet.records + (odd,)), path)
        analysis.emit_csv(sun_sheet, tmp_path / "plain.csv")
        *lines, last = path.read_text().splitlines(keepends=True)
        assert "".join(lines) == (tmp_path / "plain.csv").read_text()
        assert last == "X,1,f,12:00:00,{},{},{},{}\n".format(*map(finite_text, odd[4:]))
        assert "shown" not in last

    # A sheet build_sheet made with tuple.__new__ and the same records checked one by
    # one through LinkRecord and Sheet, from a list or an iterator, write the same bytes.
    def test_records_checked_one_by_one_write_the_same_bytes(self, tmp_path):
        sheet = analysis.build_sheet([SUN, Target("Moon", 384400, 0.0214)],
                                     PROGRESS + [100, -0.0], BASE)
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sheet, path)
        written = path.read_bytes()
        analysis.emit_csv(analysis.parse_csv(path), path)
        assert path.read_bytes() == written
        for records in ([LinkRecord(*r) for r in sheet.records],
                        map(LinkRecord._make, sheet.records)):
            checked = Sheet(records=records)
            assert checked == sheet
            analysis.emit_csv(checked, path)
            assert path.read_bytes() == written

    # A Timestamp's HH:MM:SS is written unquoted; a subclass's text keeps csv's quoting,
    # here of a comma and of a quote.
    def test_clock_of_a_timestamp_subclass_is_quoted(self, tmp_path):
        class Clock(Timestamp):
            __slots__ = ()

            def __str__(self):
                return f'{self.hours},{self.minutes}"'

        records = [LinkRecord("A", 1, "f", clock, 0, 0, 1, 1)
                   for clock in (Timestamp(13, 35, 0), Clock(13, 35, 0), Clock(13, 35, 0))]
        path = tmp_path / "clocks.csv"
        analysis.emit_csv(Sheet(records=records), path)
        assert path.read_text().splitlines()[1:] == [
            "A,1,f,13:35:00,0,0,1,1", 'A,1,f,"13,35""",0,0,1,1', 'A,1,f,"13,35""",0,0,1,1']

    # Text cells of a str subclass: a name or label is written as its __str__ gives it,
    # quoted as csv quotes that, and a sentinel as its __format__ gives it; exact texts of
    # the same value, in the rows around them, are written as themselves.
    def test_text_cells_of_a_str_subclass(self, tmp_path):
        path = tmp_path / "text.csv"
        analysis.emit_csv(Sheet(records=_text_records()), path)
        assert path.read_text().splitlines()[1:] == [
            "A,1,f|A,12:00:00,0.5,60,#Div/0!,2.5",
            "<A>,1,<f|A>,12:00:00,0.5,60,[#Div/0!],[#Inf!]",
            '"<B,>",1,f|A,12:00:00,0.5,60,0.5,[#Div/0!]',
            "A,1,<f|A>,12:00:00,0.5,60,#Div/0!,#Inf!",
            "<A>,1,f|A,12:00:00,0.5,60,[#Div/0!],0.5"]

    # A sheet parse_csv read holds fresh name and label texts in every record; each
    # distinct one is still made once, as for the sheet build_sheet made.
    def test_each_name_and_label_text_made_once(self, tmp_path, monkeypatch):
        sheet = analysis.build_sheet([SUN, Target("Moon", 384400, 0.0214)], PROGRESS, BASE)
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sheet, path)
        made, remember = [], analysis._remember
        monkeypatch.setattr(analysis, "_remember",
                            lambda memo, key, text: made.append(text) or remember(memo, key, text))
        for written in (sheet, analysis.parse_csv(path)):
            made.clear()
            analysis.emit_csv(written, path)
            assert sorted(text for text in made if not text[0].isdigit()) == [
                '"f(x,y)|Moon",', '"f(x,y)|Sun",', "Moon,", "Sun,"]

    # A memo with room for a few cells starts over often, and writes the same bytes.
    @pytest.mark.parametrize("cells", [0, 1, 2, 5])
    def test_memo_starting_over_writes_the_same_bytes(self, tmp_path, monkeypatch, cells):
        sheets, paths = _memo_sheets(), [tmp_path / "sun_moon.csv", tmp_path / "seeded.csv"]
        for sheet, path in zip(sheets, paths):
            analysis.emit_csv(sheet, path)
        full = [path.read_bytes() for path in paths]
        _small_memo(monkeypatch, cells)
        for sheet, path in zip(sheets, paths):
            analysis.emit_csv(sheet, path)
        assert [path.read_bytes() for path in paths] == full

    # The parse memos of clocks and of progress and delta t texts, starting over as
    # often, give the same records, bit for bit, and every clock an exact Timestamp.
    @pytest.mark.parametrize("cells", [0, 1, 2, 5])
    def test_memo_starting_over_parses_the_same_records(self, tmp_path, monkeypatch, cells):
        paths = [tmp_path / "sun_moon.csv", tmp_path / "seeded.csv"]
        for sheet, path in zip(_memo_sheets(), paths):
            analysis.emit_csv(sheet, path)
        full = [list(map(_bits, analysis.parse_csv(path).records)) for path in paths]
        _small_memo(monkeypatch, cells)
        parsed = [analysis.parse_csv(path).records for path in paths]
        assert [list(map(_bits, records)) for records in parsed] == full
        assert {type(record.t_stamp) for records in parsed for record in records} == {Timestamp}

    # Chunks of 1, 2, 5, 7 and 14 records, written in pieces of 5, 5, 5, 3 and 1 rows,
    # with the memo at its size and starting over at each entry, write the bytes of the
    # default sizes: the Sun/Moon sheets, one with a 100% row, whose sentinel rows fall
    # at a chunk's first and at its last row, the seeded 10 x 40 sheet and the
    # str-subclass records, whose rows key their names by value or by id.
    @pytest.mark.parametrize("cells", [0, analysis._MEMO_CELLS])
    @pytest.mark.parametrize("records,piece", [(1, 5), (2, 5), (5, 5), (7, 3), (14, 1)])
    def test_chunks_write_the_same_bytes(self, tmp_path, monkeypatch, records, piece, cells):
        sun_moon = analysis.build_sheet([SUN, Target("Moon", 384400, 0.0214)],
                                        PROGRESS + [100], BASE)
        sentinel_rows = {i % records for i, record in enumerate(sun_moon.records)
                         if DIV0 in record or DIVERGES in record}
        assert {0, records - 1} <= sentinel_rows
        sheets = [*_memo_sheets(), sun_moon, Sheet(records=_text_records())]
        paths = [tmp_path / f"{i}.csv" for i in range(len(sheets))]
        for sheet, path in zip(sheets, paths):
            analysis.emit_csv(sheet, path)
        whole = [path.read_bytes() for path in paths]
        _small_memo(monkeypatch, cells)
        monkeypatch.setattr(analysis, "_CHUNK_RECORDS", records)
        monkeypatch.setattr(analysis, "_PIECE_RECORDS", piece)
        for sheet, path in zip(sheets, paths):
            analysis.emit_csv(sheet, path)
        assert [path.read_bytes() for path in paths] == whole

    # "-0" and "0" are parsed to -0.0 and 0.0 in every number column, however often
    # either text repeats, and written back as they were read.
    def test_signed_zero_cells_keep_their_signs(self, tmp_path):
        rows = [f"X,{z},f,12:00:00,{z},{z},{z},{z}\n" for z in ("-0", "0", "-0", "0", "-0")]
        path = tmp_path / "zeros.csv"
        path.write_text(analysis.CSV_HEADER + "\n" + "".join(rows))
        records = analysis.parse_csv(path).records
        assert [{math.copysign(1.0, cell) for cell in record[4:] + record[1:2]}
                for record in records] == [{-1.0}, {1.0}, {-1.0}, {1.0}, {-1.0}]
        analysis.emit_csv(Sheet(records=records), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text() == path.read_text()

    def test_sentinel_literal_in_file(self, tmp_path, sun_sheet):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        first_data_row = path.read_text().splitlines()[1]
        assert "#Div/0!" in first_data_row

    # A lone surrogate fails to encode when the CSV is written; an inf cell, text in a
    # numeric cell and a sentinel outside the two resolution columns are refused when
    # the record is made. Either way the old file stays.
    @pytest.mark.parametrize("spoil,message", [
        (lambda r: r._replace(target_name="A\udc80B"),
         r"text cannot be encoded as UTF-8: '\\udc80'"),
        (lambda r: r._replace(epsilon_lm=math.inf), "epsilon_lm not finite: inf"),
        (lambda r: r._replace(progress_pct="abc"), "progress_pct not a number: 'abc'"),
        (lambda r: r._replace(epsilon_lm="abc"), "epsilon_lm not a number: 'abc'"),
        (lambda r: r._replace(delta_t_s="abc"), "delta_t_s not a number: 'abc'"),
        (lambda r: r._replace(nu_delta_omega_hz="#What!"),
         "nu_delta_omega_hz not a number: '#What!'"),
        (lambda r: r._replace(nu_displaced_hz="abc"), "nu_displaced_hz not a number: 'abc'"),
        (lambda r: r._replace(progress_pct=DIV0), "progress_pct not a number: '#Div/0!'"),
        (lambda r: r._replace(delta_t_s=DIVERGES), "delta_t_s not a number: '#Inf!'"),
        (lambda r: r._replace(epsilon_lm="1.5"), "epsilon_lm not a number: '1.5'"),
    ], ids=["surrogate name", "inf cell", "text progress", "text epsilon", "text delta t",
            "unknown sentinel", "text nu_x", "sentinel progress", "sentinel delta t",
            "numeric text"])
    def test_failed_write_keeps_old_file(self, tmp_path, sun_sheet, spoil, message):
        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        old = path.read_bytes()
        with pytest.raises(DomainError, match=f"^{message}$"):
            records = sun_sheet.records[:-1] + (spoil(sun_sheet.records[-1]),)
            analysis.emit_csv(Sheet(records=records), path)
        assert path.read_bytes() == old

    # A full disk: the write stops after a few bytes and raises.
    def test_write_that_fails_midway_keeps_old_file(self, tmp_path, sun_sheet,
                                                    monkeypatch):
        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(data[:10])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        path = tmp_path / "sheet.csv"
        analysis.emit_csv(sun_sheet, path)
        old = path.read_bytes()
        monkeypatch.setattr(analysis, "open", FullDisk, raising=False)
        with pytest.raises(OSError) as exc:
            analysis.emit_csv(Sheet(records=sun_sheet.records[:1]), path)
        assert exc.value.errno == errno.ENOSPC
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["sheet.csv"]

    def test_write_replaces_whole_file_through_a_symlink(self, tmp_path, sun_sheet):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("x" * 100_000)
        link.symlink_to(real)
        analysis.emit_csv(Sheet(records=[]), link)
        assert link.is_symlink()
        assert real.read_text() == analysis.CSV_HEADER + "\n"
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]

    def test_write_keeps_mode_of_replaced_file(self, tmp_path, sun_sheet):
        path = tmp_path / "sheet.csv"
        path.write_text("old")
        path.chmod(0o640)
        analysis.emit_csv(sun_sheet, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text().startswith(analysis.CSV_HEADER)

    # Replacing a hard-linked file would leave the old text under its other name.
    def test_write_through_a_hard_link_in_place(self, tmp_path):
        path, other = tmp_path / "sheet.csv", tmp_path / "other.csv"
        path.write_text("x" * 1000)
        os.link(path, other)
        analysis.emit_csv(Sheet(records=[]), path)
        assert other.read_text() == path.read_text() == analysis.CSV_HEADER + "\n"

    # Run as root, a rename onto os.devnull would replace the device with a
    # regular file, so the test refuses every rename and checks none is tried.
    def test_write_to_devnull_keeps_the_device(self, sun_sheet, monkeypatch):
        renamed = []

        def refuse(src, dst):
            renamed.append(dst)
            os.remove(src)
            raise OSError(errno.EPERM, os.strerror(errno.EPERM), src, None, dst)

        kind = stat.S_IFMT(os.stat(os.devnull).st_mode)
        monkeypatch.setattr(analysis.os, "replace", refuse)
        analysis.emit_csv(sun_sheet, os.devnull)
        analysis.render_radar_chart(sun_sheet, os.devnull)
        assert renamed == []
        assert stat.S_IFMT(os.stat(os.devnull).st_mode) == kind

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_write_to_a_fifo_keeps_the_fifo(self, tmp_path, sun_sheet):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        analysis.emit_csv(sun_sheet, fifo)
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received[0].decode().startswith(analysis.CSV_HEADER + "\n")
        assert os.listdir(tmp_path) == ["pipe"]

    # A file mounted on its own cannot be renamed onto (EBUSY): written in place.
    def test_write_in_place_when_rename_fails(self, tmp_path, sun_sheet, monkeypatch):
        path = tmp_path / "sheet.csv"
        path.write_text("x" * 100_000)

        def busy(src, dst):
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), src, None, dst)

        monkeypatch.setattr(analysis.os, "replace", busy)
        analysis.emit_csv(Sheet(records=[]), path)
        assert path.read_text() == analysis.CSV_HEADER + "\n"
        assert os.listdir(tmp_path) == ["sheet.csv"]

    def test_longest_file_name_written(self, tmp_path):
        path = tmp_path / ("x" * 251 + ".csv")
        analysis.emit_csv(Sheet(records=[]), path)
        assert os.listdir(tmp_path) == [path.name]

    # A bytes path, which open() takes too, writes what the same path as text does,
    # to a new file and over an old one.
    @pytest.mark.parametrize("write", [analysis.emit_csv, analysis.render_radar_chart])
    def test_bytes_path_writes_the_same_bytes(self, tmp_path, sun_sheet, write):
        text_path, bytes_path = tmp_path / "text.out", os.fsencode(tmp_path / "bytes.out")
        write(sun_sheet, text_path)
        write(sun_sheet, bytes_path)
        assert (tmp_path / "bytes.out").read_bytes() == text_path.read_bytes()
        (tmp_path / "bytes.out").write_text("old")
        write(sun_sheet, bytes_path)
        assert (tmp_path / "bytes.out").read_bytes() == text_path.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["bytes.out", "text.out"]

    # What is no Sheet is refused before anything is written: an old file is kept and
    # no new one made, even for an object that holds a sheet's records.
    @pytest.mark.parametrize("write", [analysis.emit_csv, analysis.render_radar_chart])
    def test_what_is_no_sheet_is_refused(self, tmp_path, sun_sheet, write):
        old = tmp_path / "old.out"
        old.write_text("old")
        for other in (None, "x", sun_sheet.records, SimpleNamespace(records=sun_sheet.records)):
            for path in (old, tmp_path / "new.out"):
                with pytest.raises(DomainError) as exc:
                    write(other, path)
                assert str(exc.value) == f"sheet must be a Sheet, got {other!r}"
        assert os.listdir(tmp_path) == ["old.out"] and old.read_text() == "old"

    def test_error_names_the_output_path(self, tmp_path, sun_sheet):
        with pytest.raises(IsADirectoryError) as exc:
            analysis.emit_csv(sun_sheet, tmp_path)
        assert str(exc.value) == f"[Errno 21] Is a directory: {str(tmp_path)!r}"
        assert os.listdir(tmp_path) == []
        missing = tmp_path / "no" / "t.csv"
        with pytest.raises(FileNotFoundError) as exc:
            analysis.emit_csv(sun_sheet, missing)
        assert exc.value.filename == str(missing)

    # The csv writer leaves a CR unquoted, and the reader ends a row there.
    def test_carriage_return_in_name_refused(self, tmp_path):
        sheet = analysis.build_sheet([Target("A\rB", 1.46e8, 8.3)], PROGRESS, BASE)
        path = tmp_path / "cr.csv"
        with pytest.raises(DomainError, match="carriage return"):
            analysis.emit_csv(sheet, path)
        assert not path.exists()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(names=st.lists(_NAME, min_size=1, max_size=3),
           progress=st.lists(st.floats(0, 100), max_size=4))
    def test_emit_parse_emit_same_bytes(self, names, progress):
        targets = [Target(name, 1.46e8, 8.3) for name in names]
        sheet = analysis.build_sheet(targets, [0.0, *progress, 100.0], BASE)
        with tempfile.TemporaryDirectory() as directory:
            first, second = Path(directory, "a.csv"), Path(directory, "b.csv")
            analysis.emit_csv(sheet, first)
            parsed = analysis.parse_csv(first)
            analysis.emit_csv(parsed, second)
            assert second.read_bytes() == first.read_bytes()
            assert analysis.parse_csv(second) == parsed
        assert _sentinels(parsed) == _sentinels(sheet) >= 2 * len(names)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\nSun,1,f,13:00:00,1,60\n")
        with pytest.raises(DomainError, match="^line 2: "):
            analysis.parse_csv(path)

    @pytest.mark.parametrize("row,message", [
        ("Sun,x1,f,ab:cd:ef,1,60,0.1,0.1", "could not convert string to float: 'x1'"),
        ("Sun,1,f,ab:cd:ef,x2,60,0.1,#What!", "expected HH:MM:SS, got 'ab:cd:ef'"),
        ("Sun,1,f,13:00:00,1,60,#What!,nan", "could not convert string to float: '#What!'"),
    ], ids=["progress before t", "t before epsilon", "nu_dw before nu_dw_x"])
    def test_first_bad_cell_in_column_order_reported(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\n" + row + "\n")
        with pytest.raises(DomainError) as exc:
            analysis.parse_csv(path)
        assert str(exc.value) == f"line 2: {message}"

    def test_bad_timestamp_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER +
                        "\nSun,1,f,ab:cd:ef,1,60,0.1,0.1\n")
        with pytest.raises(DomainError, match="^line 2: "):
            analysis.parse_csv(path)

    # Each record here spans three file lines: the name and the label hold an LF.
    def test_error_names_the_file_line(self, tmp_path):
        sheet = analysis.build_sheet([Target("A\nB", 1e8, 8.3)], [8, 16, 24], BASE)
        path = tmp_path / "lf.csv"
        analysis.emit_csv(sheet, path)
        lines = path.read_text().split("\n")
        assert lines[6].startswith('B",13:')
        lines[6] = lines[6].replace("13:", "ab:", 1)
        path.write_text("\n".join(lines))
        with pytest.raises(DomainError) as exc:
            analysis.parse_csv(path)
        assert str(exc.value) == "line 7: expected HH:MM:SS, got 'ab:33:40'"

    def test_empty_file_reports_line_one(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DomainError, match="^line 1: missing or wrong header row$"):
            analysis.parse_csv(path)

    @pytest.mark.parametrize("row", ["Sun,1,f,13:00:00,inf,60,0.1,0.1",
                                     "Sun,1,f,13:00:00,1,60,nan,0.1"],
                             ids=["epsilon_lm inf", "nu_dw_hz nan"])
    def test_non_finite_cell_reports_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\nSun,1,f,13:00:00,1,60,0.1,0.1\n"
                        + row + "\n")
        with pytest.raises(DomainError, match="^line 3: .*not finite"):
            analysis.parse_csv(path)

    def test_digit_grouped_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER + "\nSun,1,f,13:00:00,1,60,0.1,0.1\n"
                        + "Sun,1_0,f,13:00:00,1,60,0.1,0.1\n")
        with pytest.raises(DomainError) as exc:  # float() would read 10
            analysis.parse_csv(path)
        assert str(exc.value) == "line 3: digit grouping in number: '1_0'"

    def test_unknown_sentinel(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(analysis.CSV_HEADER +
                        "\nSun,1,f,13:00:00,1,60,#What!,0.1\n")
        with pytest.raises(DomainError, match="^line 2: could not convert .* '#What!'$"):
            analysis.parse_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(DomainError, match="^line 1: missing or wrong header row$"):
            analysis.parse_csv(path)


class TestRadarChart:
    def test_too_few_records(self, tmp_path, sun_sheet):
        with pytest.raises(DomainError, match="^radar chart needs >= 3 records, got 2$"):
            analysis.render_radar_chart(Sheet(records=sun_sheet.records[:2]),
                                        tmp_path / "c.svg")

    def test_well_formed_xml(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_one_closed_polyline_per_attribute(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        assert analysis.render_radar_chart(sun_sheet, path) == []  # none omitted
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f"{ns}polyline")
        assert len(polylines) == 4
        for poly in polylines:
            points = poly.get("points").split()
            assert points[0] == points[-1]  # closed loop

    def test_sentinel_markers_present(self, tmp_path, sun_sheet):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        assert 'class="sentinel"' in path.read_text()

    def test_deterministic_bytes(self, tmp_path, sun_sheet):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        analysis.render_radar_chart(sun_sheet, p1)
        analysis.render_radar_chart(sun_sheet, p2)
        assert p1.read_bytes() == p2.read_bytes()

    # A sheet -> chart job of 1,000 records, each name repeated 500 times; the 0%
    # and 100% rows of both targets give four sentinel markers. The sha256 pins
    # the bytes of every spoke, label, polyline point and marker.
    def test_thousand_record_chart_bytes(self, tmp_path):
        targets = [SUN, Target("Moon", 384400, 0.0213)]
        sheet = analysis.build_sheet(targets, [100 * i / 499 for i in range(500)], BASE)
        csv_path, svg_path = tmp_path / "t.csv", tmp_path / "t.svg"
        analysis.emit_csv(sheet, csv_path)
        assert analysis.render_radar_chart(analysis.parse_csv(csv_path), svg_path) == []
        data = svg_path.read_bytes()
        assert data.count(b'class="sentinel"') == 4
        assert hashlib.sha256(data).hexdigest() == (
            "d09d5918e1f3a635605442e2815f0438108022ea283314ca92a57d1bc8a8437f")

    # Cells a CSV never holds but a caller may pass: epsilon spans more than the
    # float range (so the span is halved), -0.0, the least subnormal, ints and a
    # Fraction; names the XML escapes or that read as % directives; int progress.
    def test_edge_cell_chart_bytes(self, tmp_path):
        stamp = Timestamp(12, 0, 0)
        records = [
            LinkRecord("A & B", 0, "f", stamp, 1e308, 60.0, DIV0, 0.1),
            LinkRecord("<tag>", 12.5, "f", stamp, -1e308, -0.0, 0.5, DIVERGES),
            LinkRecord("100%s", 25, "f", stamp, -0.0, 5e-324, 2, 0.3),
            LinkRecord("%d %%", 50.0, "f", stamp, 5e-324, Fraction(1, 3), Fraction(7, 2), 0.2),
            LinkRecord("A & B", 100, "f", stamp, 3, 1, DIV0, 0.4),
        ]
        path = tmp_path / "edge.svg"
        assert analysis.render_radar_chart(Sheet(records=records), path) == []
        data = path.read_bytes()
        assert b"A &amp; B 0%" in data and b"&lt;tag&gt; 12.5%" in data
        assert b"100%s 25%" in data and b"%d %% 50%" in data
        assert data.count(b'class="sentinel"') == 3
        assert hashlib.sha256(data).hexdigest() == (
            "44be71d2636ebada26ff0cf57f1f9477a5e6e014a979590f0bf13205a9836ac9")

    # Records are read in order: the first name XML cannot carry decides the error,
    # after the records before it. A progress cell of text, which could break the
    # XML, is refused when its record is made.
    def test_first_bad_record_decides_the_error(self, tmp_path):
        good = LinkRecord("A", 1.0, "f", Timestamp(12, 0, 0), 1.0, 60.0, 0.1, 0.2)
        path = tmp_path / "chart.svg"
        with pytest.raises(DomainError, match=r"^target name 'A\\x01' holds a character XML"):
            analysis.render_radar_chart(Sheet(records=[
                good, good, good._replace(target_name="A\x01"),
                good._replace(target_name="B\x02")]), path)
        with pytest.raises(DomainError, match="^progress_pct not a number: '<abc'$"):
            good._replace(target_name="A\x01", progress_pct="<abc")
        assert not path.exists()

    # A lone surrogate cannot come from a UTF-8 file, only from a caller; a name that
    # is no text is refused when its record is made.
    @pytest.mark.parametrize("name,message", [
        ("A\x01B", "XML cannot carry"), ("\ufffe", "XML cannot carry"),
        ("A\udc80B", "XML cannot carry"), (5, "^target_name must be text, got 5$"),
        (["A"], r"^target_name must be text, got \['A'\]$")],
        ids=["A\x01B", "\ufffe", "A\udc80B", "5", "['A']"])
    def test_name_xml_cannot_carry(self, tmp_path, name, message):
        path = tmp_path / "chart.svg"
        with pytest.raises(DomainError, match=message):
            records = [LinkRecord(name, float(p), "f", Timestamp(12, 0, 0),
                                  1.0, 60.0, 0.1, 0.2) for p in range(3)]
            analysis.render_radar_chart(Sheet(records=records), path)
        assert not path.exists()

    # Passed through, a label's text could break the XML: its record refuses it.
    def test_text_progress_refused(self, sun_sheet):
        with pytest.raises(DomainError, match="^progress_pct not a number: '<abc'$"):
            sun_sheet.records[-1]._replace(progress_pct="<abc")

    # An inf cell would give nan points, and other text, or a sentinel outside the
    # two resolution fields, would be drawn as a sentinel: each is refused when its
    # record is made, so no chart is drawn and the old file stays.
    @pytest.mark.parametrize("value,message", [
        (math.inf, "epsilon_lm not finite: inf"), ("abc", "epsilon_lm not a number: 'abc'"),
        (DIV0, "epsilon_lm not a number: '#Div/0!'"),
    ], ids=["inf epsilon", "text epsilon", "sentinel epsilon"])
    def test_cell_not_a_finite_number_keeps_old_file(self, tmp_path, sun_sheet, value,
                                                     message):
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(sun_sheet, path)
        old = path.read_bytes()
        with pytest.raises(DomainError, match=f"^{message}$"):
            records = sun_sheet.records[:-1] + (sun_sheet.records[-1]._replace(epsilon_lm=value),)
            analysis.render_radar_chart(Sheet(records=records), path)
        assert path.read_bytes() == old

    def test_all_sentinel_attribute_omitted(self, tmp_path):
        records = [LinkRecord("X", float(p), "f", Timestamp(12, 0, 0),
                              1.0, 60.0, DIV0, 0.1 * (p + 1))
                   for p in range(3)]
        path = tmp_path / "chart.svg"
        assert analysis.render_radar_chart(Sheet(records=records), path) == [
            "nu_delta_omega_hz"]
        ns = "{http://www.w3.org/2000/svg}"
        root = ET.parse(path).getroot()
        assert len(root.findall(f"{ns}polyline")) == 3

    def test_omitted_attributes_in_chart_order(self, tmp_path):
        records = [LinkRecord("X", float(p), "f", Timestamp(12, 0, 0),
                              1.0, 60.0, DIV0, DIVERGES) for p in range(3)]
        path = tmp_path / "chart.svg"
        assert analysis.render_radar_chart(Sheet(records=records), path) == [
            "nu_delta_omega_hz", "nu_displaced_hz"]
        ns = "{http://www.w3.org/2000/svg}"
        assert len(ET.parse(path).getroot().findall(f"{ns}polyline")) == 2

    def test_constant_attribute_fixed_radius(self, tmp_path):
        records = [LinkRecord("X", float(p), "f", Timestamp(12, 0, 0),
                              2.0, 60.0, 0.5, 0.1 * (p + 1))
                   for p in range(3)]
        path = tmp_path / "chart.svg"
        analysis.render_radar_chart(Sheet(records=records), path)
        # constant series normalizes to the full radius on every spoke
        assert path.exists()
