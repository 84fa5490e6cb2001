"""Spreadsheet pipeline: builds link-model sheets, serializes them to CSV
with typed error sentinels, and renders the radar chart as standalone SVG.
"""

import contextlib
import csv
import html
import math
import os
import re
import stat
from itertools import chain, repeat
from operator import attrgetter, mod

from . import linkmodel
from .errors import DomainError, finite, finite_float, finite_text, listed, record, within
from .linkmodel import Target, Timestamp

DIV0 = "#Div/0!"
DIVERGES = "#Inf!"
_SENTINELS = (DIV0, DIVERGES)

# The CSV header, one name per LinkRecord field in field order.
_COLUMNS = ("target", "progress_pct", "f_xy", "t", "epsilon_lm", "delta_t_s",
            "nu_dw_hz", "nu_dw_x_hz")
CSV_HEADER = ",".join(_COLUMNS)
MAX_SHEET_RECORDS = 10 ** 6


class LinkRecord(record("LinkRecord", "target_name progress_pct f_xy_label t_stamp epsilon_lm "
                                       "delta_t_s nu_delta_omega_hz nu_displaced_hz")):
    """One CSV row, its cells checked in column order; the numbers but progress_pct as floats."""

    __slots__ = ()

    def __new__(cls, target_name, progress_pct, f_xy_label, t_stamp, epsilon_lm, delta_t_s,
                nu_delta_omega_hz, nu_displaced_hz):
        if not isinstance(target_name, str):
            raise DomainError(f"target_name must be text, got {target_name!r}")
        finite(progress_pct, "progress_pct")
        if not isinstance(f_xy_label, str):
            raise DomainError(f"f_xy_label must be text, got {f_xy_label!r}")
        if not isinstance(t_stamp, Timestamp):
            raise DomainError(f"t_stamp must be a Timestamp, got {t_stamp!r}")
        return tuple.__new__(cls, (  # the cells run left to right, as the columns do
            target_name, progress_pct, f_xy_label, t_stamp, finite(epsilon_lm, "epsilon_lm"),
            finite(delta_t_s, "delta_t_s"),
            # a resolution's type is read first, so that no foreign __eq__ runs
            nu_delta_omega_hz if isinstance(nu_delta_omega_hz, str)
            and nu_delta_omega_hz in _SENTINELS
            else finite(nu_delta_omega_hz, "nu_delta_omega_hz"),
            nu_displaced_hz if isinstance(nu_displaced_hz, str)
            and nu_displaced_hz in _SENTINELS
            else finite(nu_displaced_hz, "nu_displaced_hz")))


class Sheet(record("Sheet", "records")):
    """The records, read once into a tuple; each must be a LinkRecord."""

    __slots__ = ()

    def __new__(cls, records):
        records = tuple(listed(records, "records"))
        if others := [rec for rec in records if not isinstance(rec, LinkRecord)]:
            raise DomainError(f"sheet records must be LinkRecords, got {others[0]!r}")
        return tuple.__new__(cls, (records,))


def build_sheet(targets: list[Target], progress_list: list[float],
                base_time: Timestamp) -> Sheet:
    """One record per (target, progress) in declared order; either may be an
    iterator, read once. More than MAX_SHEET_RECORDS raise DomainError before one is
    built: at 195 B a record, and 158 B more in emit_csv, the cap peaks at 0.35 GB
    under tracemalloc (measured at 1e5 records).

    Each target's row holds the cells linkmodel.ProgressColumn.row gives, the kernels'
    own bit for bit, so the first record they refuse decides the error; a target that is
    no Target, or whose name is no text, is refused when its row is reached. The kernels'
    division-by-zero and divergence signals become typed sentinel cells, never raised.
    """
    targets, progress_list = listed(targets, "targets"), listed(progress_list, "progress values")
    if not targets or not progress_list:
        raise DomainError("need at least one target and one progress value")
    within(len(targets) * len(progress_list),
           f"sheet takes <= {MAX_SHEET_RECORDS} records, got {{}}", high=MAX_SHEET_RECORDS)
    column, records = linkmodel.ProgressColumn(progress_list, base_time), []
    for target in targets:
        if not isinstance(target, Target):
            raise DomainError(f"sheet targets must be Targets, got {target!r}")
        if not isinstance(name := target.name, str):  # a Target that pickle rebuilt is unchecked
            raise DomainError(f"target name must be text, got {name!r}")
        # Each cell is one LinkRecord takes, so tuple.__new__ builds the records its class would.
        records += map(tuple.__new__, repeat(LinkRecord), zip(
            repeat(name), column.progress, repeat(f"f(x,y)|{name}"),
            *column.row(target.distance_km, target.range_lm, DIV0, DIVERGES)))
    return tuple.__new__(Sheet, (tuple(records),))  # each record built from checked cells


def _write_text(path, text: str) -> None:
    """Write text as UTF-8 to path: as _replace_file does, or else in place
    as open() does. Text UTF-8 cannot encode raises DomainError first."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise DomainError("text cannot be encoded as UTF-8: "
                          f"{exc.object[exc.start]!r}") from None
    if not _replace_file(path, data):
        with open(path, "wb") as fh:
            fh.write(data)


def _replace_file(path, data: bytes) -> bool:
    """Write data to a temp file beside path and rename it onto path, so a
    write that fails leaves the old file and no temp file; until a system
    crash, as nothing is synced. The file keeps its mode, not its owner.
    False, with nothing written, where path exists but is no regular file
    with one link (a symlink, a device, a FIFO, a hard link), or no temp
    file can be made or renamed onto it (a directory the writer cannot
    write, a file mounted on its own)."""
    path = os.fsdecode(path)  # bytes too, as open() takes them: the temp name is text
    try:
        old = os.lstat(path)
    except OSError:
        old = None  # no file yet; open() reports a missing directory by path
    if old is not None and not (stat.S_ISREG(old.st_mode) and old.st_nlink == 1):
        return False
    # Not named after path: a long file name would leave no room for a suffix.
    temp = os.path.join(os.path.dirname(path), f".timedata-lab-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(temp, "xb")
    except OSError:
        return False
    try:
        with fh:
            if old is not None:
                os.chmod(temp, stat.S_IMODE(old.st_mode))
            fh.write(data)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
    try:
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temp)
        return False
    return True


_MEMO_CELLS = 2 ** 16  # about 3 MB of remembered cells, traced


def _remember(memo: dict, key, value):
    """value, stored in memo under key; a full memo starts over: every CSV memo is bounded."""
    if len(memo) >= _MEMO_CELLS:
        memo.clear()
    memo[key] = value
    return value


class _Line:
    """The file of a csv writer whose writerow returns the line, written nowhere."""
    write = staticmethod(str)


# Records whose cells are looked up together, and rows one % format writes: five rows
# of about 70 characters stay under the 512 bytes CPython's small-object allocator
# serves, so the pieces held until the join go back to the system with its arenas,
# where longer ones stay in the C heap (one piece a chunk of 256 rows raised the
# bulk-sheet benchmark's peak RSS by 0.5 MB). Constants of their own, never 0.
_CHUNK_RECORDS = 250
_PIECE_RECORDS = 5

# A row's % template after its four memoised cells, each text ending in its comma, by
# the types of its two resolution cells: a float as %.6g, a sentinel, exact text, as %s.
# A row whose resolution is of another type has none.
_ROWS = {(nu, nu_x): "%s%s%s%s%.6g,%.6g," + ("%.6g," if nu is float else "%s,")
         + ("%.6g\n" if nu_x is float else "%s\n") for nu in (float, str) for nu_x in (float, str)}


def emit_csv(sheet: Sheet, path) -> None:
    """Write the sheet as UTF-8 CSV with LF line endings, the f(x,y) label
    quoted. A text cell that holds a CR or that UTF-8 cannot encode raises before
    an existing file is touched; LinkRecord has checked every other cell. What is
    no Sheet raises DomainError, and nothing is written.

    The records are read _CHUNK_RECORDS at a time into one flat list of cells, whose
    name, progress, label and clock cells are replaced by their memoised texts, and
    written _PIECE_RECORDS rows at a time by one % format over the rows' templates."""
    if not isinstance(sheet, Sheet):
        raise DomainError(f"sheet must be a Sheet, got {sheet!r}")
    records = sheet.records
    line = csv.writer(_Line(), lineterminator="\n").writerow
    # A cell's CSV text and the comma after it, made once per key: name and label cells
    # keyed by value where a chunk's column holds only exact str (a parsed sheet's are
    # fresh objects of a few values), else, as progress and clock cells, by the id of the
    # cell object, which build_sheet shares between records. The sheet's tuple keeps each
    # cell, and so its id, alive: two cells, equal (0.0 and -0.0) or not, never share an
    # id entry. The memo starts over (_remember), so a sheet of fresh objects costs
    # bounded memory. The other numbers, LinkRecord's floats, are formatted by the row's
    # template, as finite_text would format them.
    memo = {}
    known = memo.get

    def new(key, cell):  # HH:MM:SS needs no quotes; text, a Timestamp subclass's too, csv quotes
        return _remember(memo, key, f"{cell}," if type(cell) is Timestamp
                         # two cells, so that an empty one is not written as ""
                         else line((str(cell), ""))[:-1] if isinstance(cell, (str, Timestamp))
                         else finite_text(cell) + ",")

    def chunk(start):
        """The CSV rows of the records from start on, _CHUNK_RECORDS at most, in pieces
        of _PIECE_RECORDS rows and a last piece of the rest."""
        cells = list(chain.from_iterable(records[start:start + _CHUNK_RECORDS]))
        for column in range(4):  # name, progress, label, clock
            column_cells = cells[column::8]
            cells[column::8] = (
                [known(cell) or new(cell, cell) for cell in column_cells]
                if column in (0, 2) and set(map(type, column_cells)) == {str} else
                [known(id(cell)) or new(id(cell), cell) for cell in column_cells])
        rows = list(map(_ROWS.get, zip(map(type, cells[6::8]), map(type, cells[7::8]))))
        # A sentinel of a str subclass: as format() gives it, as %s (str()) might not.
        for _ in range(rows.count(None)):
            i = rows.index(None)
            rows[i] = _ROWS[str, str]
            cells[8 * i + 6:8 * i + 8] = [format(nu, ".6g" if type(nu) is float else "")
                                          for nu in cells[8 * i + 6:8 * i + 8]]
        whole = len(rows) - len(rows) % _PIECE_RECORDS
        pieces = list(map(mod, map("".join, zip(*[iter(rows)] * _PIECE_RECORDS)),
                          zip(*[iter(cells)] * (8 * _PIECE_RECORDS))))
        pieces.append("".join(rows[whole:]) % tuple(cells[8 * whole:]))
        return pieces

    text = "".join([CSV_HEADER + "\n", *chain.from_iterable(
        map(chunk, range(0, len(records), _CHUNK_RECORDS)))])
    if "\r" in text:  # unquoted, a CR ends a row
        raise DomainError("a text cell holds a carriage return, which CSV cannot carry")
    _write_text(path, text)


def parse_csv(path) -> Sheet:
    """Inverse of emit_csv, up to 6-significant-digit rounding. An error
    names the file line on which the offending row ends."""
    # HH:MM:SS text -> its Timestamp, and progress or delta-t text -> its float ("-0" and
    # "0" are two texts; a zero, being falsy, is parsed again each time it is read), for
    # this call only, each memo starting over as _remember does
    records, clocks, floats = [], {}, {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(_COLUMNS):
                raise ValueError("missing or wrong header row")
            for cells in reader:
                if len(cells) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} columns, got {len(cells)}")
                name, progress, label, clock, eps, delta_t, nu, nu_x = cells
                # Arguments run left to right: the first bad cell in column order raises.
                records.append(tuple.__new__(LinkRecord, (
                    name,
                    floats.get(progress) or _remember(floats, progress, finite_float(progress)),
                    label, clocks.get(clock) or _remember(clocks, clock, Timestamp.parse(clock)),
                    finite_float(eps),
                    floats.get(delta_t) or _remember(floats, delta_t, finite_float(delta_t)),
                    nu if nu in _SENTINELS else finite_float(nu),
                    nu_x if nu_x in _SENTINELS else finite_float(nu_x))))
        except UnicodeDecodeError:
            raise  # not a CSV fault: the file is not UTF-8
        except (csv.Error, ValueError, DomainError) as exc:  # their messages quote the cell
            raise DomainError(f"line {reader.line_num or 1}: {exc}") from None  # 0: empty file
    return tuple.__new__(Sheet, (tuple(records),))  # each record built from checked cells


# Radar chart layout constants.
_SIZE = 640
_CENTER = _SIZE / 2
_RADIUS = 240
# Above this many records the spokes on the rim (2 pi x 240 px) are closer
# than a pixel apart, and the SVG grows by ~225 bytes per record.
MAX_SPOKES = 1500
# Characters XML 1.0 forbids, which no escaping can carry into a label.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# One spoke's line and label from 6 cells: x2, y2, label x, label y, name, progress.
_SPOKE = (f'<line x1="{_CENTER}" y1="{_CENTER}" x2="%.2f" y2="%.2f" stroke="#cccccc" '
          'stroke-width="1"/>\n<text x="%.2f" y="%.2f" font-size="11" '
          'text-anchor="middle">%s %s%%</text>')

_ATTRIBUTES = (  # field, legend label, colour
    ("epsilon_lm", "epsilon (Lm)", "#1f77b4"),
    ("delta_t_s", "delta t (s)", "#ff7f0e"),
    ("nu_delta_omega_hz", "nu_dw (Hz)", "#2ca02c"),
    ("nu_displaced_hz", "nu_dw_x (Hz)", "#d62728"),
)


def _normalize(cells):
    """Radius fractions and the cells, a sentinel (text) as 0.0 and None; None if all are."""
    values = [None if isinstance(v, str) else v for v in cells]
    if not (numeric := [v for v in values if v is not None]):
        return None
    lo, hi = min(numeric), max(numeric)
    # Halving keeps a span wider than a float finite; it would round
    # subnormal cells, so only such spans are halved.
    k = 0.5 if math.isinf(hi - lo) else 1.0
    span = k * hi - k * lo
    return [0.0 if v is None else (k * v - k * lo) / span if span else 1.0
            for v in values], values


def render_radar_chart(sheet: Sheet, path) -> list[str]:
    """Render one spoke per record and one closed polyline per attribute;
    return the fields left out as all sentinels, in _ATTRIBUTES order.

    Per-attribute min-max normalization to radius [0, 1]; sentinel cells
    sit at radius 0 with a marker. Output bytes are deterministic. What is no
    Sheet raises DomainError, and nothing is written.
    """
    if not isinstance(sheet, Sheet):
        raise DomainError(f"sheet must be a Sheet, got {sheet!r}")
    n = len(records := sheet.records)
    if n < 3:
        raise DomainError(f"radar chart needs >= 3 records, got {n}")
    if n > MAX_SPOKES:
        raise DomainError(f"radar chart takes <= {MAX_SPOKES} records, got {n}")

    # cos and sin of each spoke; a point at radius frac is _CENTER + _RADIUS * frac * cos.
    angles = [-math.pi / 2 + 2 * math.pi * i / n for i in range(n)]
    cos, sin = list(map(math.cos, angles)), list(map(math.sin, angles))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}" version="1.1">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # Record labels in record order, a name before its progress; each distinct
    # name is checked for XML and escaped once, and each progress cell object
    # formatted once. %s inserts them as data.
    escaped, formatted, names, labels = {}, {}, [], []
    for name, progress in map(attrgetter("target_name", "progress_pct"), records):
        if (text := escaped.get(name)) is None:
            if _NOT_XML.search(name):
                raise DomainError(f"target name {name!r} holds a character XML cannot carry")
            text = escaped[name] = html.escape(name, quote=False)
        names.append(text)
        if (text := formatted.get(id(progress))) is None:
            text = formatted[id(progress)] = finite_text(progress)
        labels.append(text)
    cells = [None] * (6 * n)
    cells[0::6] = [_CENTER + _RADIUS * c for c in cos]
    cells[1::6] = [_CENTER + _RADIUS * s for s in sin]
    cells[2::6] = [_CENTER + _RADIUS * 1.08 * c for c in cos]
    cells[3::6] = [_CENTER + _RADIUS * 1.08 * s for s in sin]
    cells[4::6], cells[5::6] = names, labels
    parts.append("\n".join([_SPOKE] * n) % tuple(cells))

    points = " ".join(["%.2f,%.2f"] * (n + 1))  # closed: the first point again
    legend_y = 20
    omitted = []
    for attr, label, color in _ATTRIBUTES:
        normalized = _normalize(map(attrgetter(attr), records))
        if normalized is None:
            omitted.append(attr)
            continue
        fracs, values = normalized
        xy = [0.0] * (2 * n + 2)
        xy[0:-2:2] = [_CENTER + _RADIUS * frac * c for frac, c in zip(fracs, cos)]
        xy[1:-2:2] = [_CENTER + _RADIUS * frac * s for frac, s in zip(fracs, sin)]
        xy[-2:] = xy[:2]
        parts.append(
            f'<polyline points="{points % tuple(xy)}" fill="none" stroke="{color}" '
            'stroke-width="2"/>')
        parts += [f'<circle cx="{xy[2 * i]:.2f}" cy="{xy[2 * i + 1]:.2f}" r="4" '
                  f'fill="{color}" class="sentinel"/>'
                  for i, v in enumerate(values) if v is None]
        parts.append(
            f'<rect x="16" y="{legend_y - 10}" width="12" height="12" '
            f'fill="{color}"/>')
        parts.append(
            f'<text x="34" y="{legend_y}" font-size="12">{label}</text>')
        legend_y += 18

    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")
    return omitted
