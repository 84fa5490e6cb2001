"""Spreadsheet pipeline: builds link-model sheets, serializes them to CSV
with typed error sentinels, and renders the radar chart as standalone SVG.
"""

from __future__ import annotations

import csv
import html
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from . import linkmodel
from .errors import (ChartError, CsvParseError, DivergenceSignal,
                     DivisionByZeroSignal, DomainError)
from .linkmodel import Target, Timestamp

DIV0 = "#Div/0!"
DIVERGES = "#Inf!"
_SENTINELS = (DIV0, DIVERGES)


def finite_float(text: str) -> float:
    """The one parser of numbers read from outside (CLI flags, config
    values, CSV cells): a float that is neither nan nor infinite."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"not finite: {text!r}")
    return value


finite_float.__name__ = "finite float"  # argparse names the type in its messages


def finite_text(value) -> str:
    """The one formatter of result numbers (CLI output, CSV cells, chart
    labels): 6 significant digits, never nan or inf; sentinels pass through."""
    if isinstance(value, str):
        return value
    if not math.isfinite(value):
        raise DomainError(f"result not finite: {value}")
    return f"{value:.6g}"


def _resolution(cell: str) -> float | str:
    return cell if cell in _SENTINELS else finite_float(cell)


# The CSV columns in LinkRecord's field order: header name -> (reader, writer).
_COLUMNS = {
    "target": (str, str),
    "progress_pct": (finite_float, finite_text),
    "f_xy": (str, str),
    "t": (Timestamp.parse, str),
    "epsilon_lm": (finite_float, finite_text),
    "delta_t_s": (finite_float, finite_text),
    "nu_dw_hz": (_resolution, finite_text),
    "nu_dw_x_hz": (_resolution, finite_text),
}
_READERS, _WRITERS = zip(*_COLUMNS.values())
CSV_HEADER = ",".join(_COLUMNS)


class LinkRecord(NamedTuple):
    target_name: str
    progress_pct: float
    f_xy_label: str
    t_stamp: Timestamp
    epsilon_lm: float
    delta_t_s: float
    nu_delta_omega_hz: float | str
    nu_displaced_hz: float | str


@dataclass
class Sheet:
    records: list[LinkRecord]


def build_sheet(targets: list[Target], progress_list: list[float],
                base_time: Timestamp) -> Sheet:
    """One record per (target, progress) in declared order.

    Division-by-zero and divergence signals from the link model are
    captured as typed sentinel cells, never raised to the caller.
    """
    if not targets or not progress_list:
        raise DomainError("need at least one target and one progress value")
    records = []
    for target in targets:
        for progress in progress_list:
            eps = linkmodel.epsilon_from_progress(progress, target.range_lm)
            stamp = linkmodel.shift_timestamp(base_time, eps)
            delta_t = float(round(eps * 60.0))
            try:
                nu = linkmodel.frequency_resolution(target.distance_km, progress)
            except DivisionByZeroSignal:
                nu = DIV0
            try:
                nu_x = linkmodel.displaced_frequency_resolution(
                    target.distance_km, progress)
            except DivergenceSignal:
                nu_x = DIVERGES
            records.append(LinkRecord(target.name, progress, f"f(x,y)|{target.name}",
                                      stamp, eps, delta_t, nu, nu_x))
    return Sheet(records=records)


def _write_text(path, text: str) -> None:
    """Write text as UTF-8; text it cannot encode raises DomainError and
    leaves an existing file as it was."""
    try:
        data = text.encode("utf-8")  # before the file is opened and truncated
    except UnicodeEncodeError as exc:
        raise DomainError("text cannot be encoded as UTF-8: "
                          f"{exc.object[exc.start]!r}") from None
    with open(path, "wb") as fh:
        fh.write(data)


def emit_csv(sheet: Sheet, path) -> None:
    """Write the sheet as UTF-8 CSV with LF line endings, the f(x,y) label
    quoted. A record that cannot be written (a number not finite, a CR in a
    text cell) raises before an existing file is touched."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMNS)
    writer.writerows([write(value) for write, value in zip(_WRITERS, r)]
                     for r in sheet.records)
    if "\r" in (text := buffer.getvalue()):  # unquoted, a CR ends a row
        raise DomainError("a text cell holds a carriage return, which CSV cannot carry")
    _write_text(path, text)


def parse_csv(path) -> Sheet:
    """Inverse of emit_csv, up to 6-significant-digit rounding. An error
    names the file line on which the offending row ends."""
    records = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != list(_COLUMNS):
                raise ValueError("missing or wrong header row")
            for cells in reader:
                if len(cells) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} columns, got {len(cells)}")
                records.append(LinkRecord._make([read(c) for read, c in zip(_READERS, cells)]))
        except UnicodeDecodeError:
            raise  # not a CSV fault: the file is not UTF-8
        except (csv.Error, ValueError, DomainError) as exc:  # their messages quote the cell
            raise CsvParseError(str(exc), reader.line_num or 1) from None  # 0: empty file
    return Sheet(records=records)


# Radar chart layout constants.
_SIZE = 640
_CENTER = _SIZE / 2
_RADIUS = 240
# Above this many records the spokes on the rim (2 pi x 240 px) are closer
# than a pixel apart, and the SVG grows by ~225 bytes per record.
MAX_SPOKES = 1500
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728")
# Characters XML 1.0 forbids, which no escaping can carry into a label.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")

_ATTRIBUTES = (
    ("epsilon_lm", "epsilon (Lm)"),
    ("delta_t_s", "delta t (s)"),
    ("nu_delta_omega_hz", "nu_dw (Hz)"),
    ("nu_displaced_hz", "nu_dw_x (Hz)"),
)


def _normalize(values):
    numeric = [v for v in values if not isinstance(v, str)]
    if not numeric:
        return None
    lo, hi = min(numeric), max(numeric)
    # Halving keeps a span wider than a float finite; it would round
    # subnormal cells, so only such spans are halved.
    k = 0.5 if math.isinf(hi - lo) else 1.0
    span = k * hi - k * lo
    return [(0.0, True) if isinstance(v, str)
            else ((k * v - k * lo) / span if span else 1.0, False)
            for v in values]


def render_radar_chart(sheet: Sheet, path) -> None:
    """Render one spoke per record and one closed polyline per attribute.

    Per-attribute min-max normalization to radius [0, 1]; sentinel cells
    sit at radius 0 with a marker. Output bytes are deterministic.
    """
    n = len(sheet.records)
    if n < 3:
        raise ChartError(f"radar chart needs >= 3 records, got {n}")
    if n > MAX_SPOKES:
        raise ChartError(f"radar chart takes <= {MAX_SPOKES} records, got {n}")

    def spoke_xy(index, radius_frac):
        angle = -math.pi / 2 + 2 * math.pi * index / n
        return (_CENTER + _RADIUS * radius_frac * math.cos(angle),
                _CENTER + _RADIUS * radius_frac * math.sin(angle))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}" version="1.1">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # Spokes and record labels.
    for i, record in enumerate(sheet.records):
        if _NOT_XML.search(record.target_name):
            raise ChartError(f"target name {record.target_name!r} holds a "
                             "character XML cannot carry")
        x, y = spoke_xy(i, 1.0)
        parts.append(
            f'<line x1="{_CENTER}" y1="{_CENTER}" x2="{x:.2f}" y2="{y:.2f}" '
            'stroke="#cccccc" stroke-width="1"/>')
        lx, ly = spoke_xy(i, 1.08)
        parts.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="11" '
            f'text-anchor="middle">{html.escape(record.target_name, quote=False)} '
            f'{finite_text(record.progress_pct)}%</text>')

    legend_y = 20
    for color_index, (attr, label) in enumerate(_ATTRIBUTES):
        normalized = _normalize([getattr(r, attr) for r in sheet.records])
        if normalized is None:
            warnings.warn(f"attribute {attr} is all sentinels; omitted",
                          stacklevel=2)
            continue
        color = _COLORS[color_index % len(_COLORS)]
        points = [spoke_xy(i, frac) for i, (frac, _) in enumerate(normalized)]
        points.append(points[0])  # close the loop
        point_text = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        parts.append(
            f'<polyline points="{point_text}" fill="none" stroke="{color}" '
            'stroke-width="2"/>')
        for i, (frac, is_sentinel) in enumerate(normalized):
            if is_sentinel:
                x, y = spoke_xy(i, frac)
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="{color}" '
                    'class="sentinel"/>')
        parts.append(
            f'<rect x="16" y="{legend_y - 10}" width="12" height="12" '
            f'fill="{color}"/>')
        parts.append(
            f'<text x="34" y="{legend_y}" font-size="12">{label}</text>')
        legend_y += 18

    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")
