"""Per-layer metrics of a traced run, one layer per package module.

Times are self times (span minus its traced children) summed over one
round, the median over rounds; ``*_ms`` metrics are the median per call.
Counts are exact and taken from the first round: every round does the
same work. ``units`` does no work on any workload and has no metric.
"""

from __future__ import annotations

import os
import statistics

from tracing import self_times


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _count_sheet(sheet, args, counts):
    _add(counts, "analysis.records", len(sheet.records))
    _add(counts, "analysis.sentinel_cells", sum(
        isinstance(r.nu_delta_omega_hz, str) + isinstance(r.nu_displaced_hz, str)
        for r in sheet.records))


def _count_bytes(key):
    def count(result, args, counts):
        _add(counts, key, os.path.getsize(args[1]))
    return count


# Counts taken where a traced call returns: span name -> fn(result, args, counts).
COUNTERS = {
    "analysis.build_sheet": _count_sheet,
    "analysis.emit_csv": _count_bytes("analysis.csv_bytes"),
    "analysis.render_radar_chart": _count_bytes("analysis.svg_bytes"),
    "memtiming.waterfall_allocate":
        lambda alloc, args, counts: _add(counts, "memtiming.carriers", len(alloc)),
    "cli.main":
        lambda code, args, counts: _add(counts, "errors.typed_exits", code == 1),
}

PER_CALL_MS = {"cli.build_parser": "cli.build_parser_ms",
               "cli.main": "cli.main_self_ms",
               "cli.load_config": "cli.load_config_ms"}

# Module-wide self time and call count, excluding the functions that have
# metrics of their own.
SCALAR_GROUPS = {
    "optics": ("optics.s", "optics.calls", ()),
    "relativity": ("relativity.s", "relativity.calls", ()),
    "memtiming": ("memtiming.scalar_s", "memtiming.scalar_calls",
                  ("memtiming.waterfall_allocate", "memtiming.occupy", "memtiming.CellMap")),
    "geomlink": ("geomlink.scalar_s", "geomlink.scalar_calls",
                 ("geomlink.riemann_area", "geomlink.triple_integral")),
    "linkmodel": ("linkmodel.s", "linkmodel.calls", ()),
}

SORT_CASES = ("float_p1", "float_p2", "str_p1", "str_p2")

PER_LAYER_UNITS = {
    "cli.build_parser_ms": "ms", "cli.main_self_ms": "ms", "cli.main_calls": "count",
    "cli.load_config_ms": "ms",
    "setup.numpy_import_s": "s", "setup.package_import_s": "s",
    "analysis.build_sheet_s": "s", "analysis.emit_csv_s": "s",
    "analysis.parse_csv_s": "s", "analysis.render_radar_chart_s": "s",
    "analysis.records": "count", "analysis.csv_bytes": "bytes",
    "analysis.svg_bytes": "bytes", "analysis.sentinel_cells": "count",
    "linkmodel.calls": "count", "linkmodel.s": "s",
    **{f"ptvda.parallel_sort_{case}_s": "s" for case in SORT_CASES},
    **{f"ptvda.vs_sorted_{case}": "ratio" for case in SORT_CASES},
    "memtiming.cellmap_build_s": "s", "memtiming.waterfall_allocate_s": "s",
    "memtiming.carriers": "count", "memtiming.scalar_s": "s",
    "memtiming.scalar_calls": "count",
    "geomlink.riemann_area_s": "s", "geomlink.triple_integral_s": "s",
    "geomlink.evals": "count", "geomlink.scalar_s": "s", "geomlink.scalar_calls": "count",
    "optics.s": "s", "optics.calls": "count",
    "relativity.s": "s", "relativity.calls": "count",
    "errors.typed_exits": "count", "errors.typed_raised": "count",
    "trace.overhead_frac": "ratio",
}


def round_summary(tracer, samples):
    """Aggregate the spans of one round (one traced pass per component)."""
    selfs = self_times(tracer.spans)
    summary = {"times": {}, "counts": dict(tracer.counts),
               "per_call_ms": {metric: [] for metric in PER_CALL_MS.values()}}
    times, counts = summary["times"], summary["counts"]
    for sid, _, op_id, name, start, end, _ in tracer.spans:
        seconds = selfs[sid] / 1e9
        module = name.split(".", 1)[0]
        if name in PER_CALL_MS:
            summary["per_call_ms"][PER_CALL_MS[name]].append(seconds * 1e3)
        if module in SCALAR_GROUPS:
            time_key, calls_key, excluded = SCALAR_GROUPS[module]
            if name not in excluded:
                _add(times, time_key, seconds)
                _add(counts, calls_key, 1)
        kind = tracer.op_kinds.get(op_id, "")
        if name == "ptvda.parallel_sort" and kind.startswith("sort."):
            _add(times, f"ptvda.parallel_sort_{kind[len('sort.'):]}_s", seconds)
        elif name == "memtiming.waterfall_allocate" and kind == "alloc.waterfall":
            _add(times, "memtiming.waterfall_allocate_s", seconds)
        elif name == "memtiming.CellMap":
            _add(times, "memtiming.cellmap_build_s", seconds)
        elif name.startswith(("analysis.", "geomlink.riemann", "geomlink.triple")):
            _add(times, name + "_s", seconds)
    for case in SORT_CASES:
        label = case.split("_")[0]
        reference = sum(samples.get(f"sorted_{label}_s", ()))
        if reference:
            times[f"ptvda.vs_sorted_{case}"] = \
                times.get(f"ptvda.parallel_sort_{case}_s", 0.0) / reference
    return summary


def layer_metrics(summaries, walls, imports):
    """Result metrics from the round summaries, wall times and import times."""
    first = summaries[0]["counts"]
    values = {}
    for name in PER_LAYER_UNITS:
        if name in first:
            values[name] = first[name]
        else:
            per_round = [s["times"].get(name, 0.0) for s in summaries]
            values[name] = statistics.median(per_round)
    for metric in PER_CALL_MS.values():
        calls = [ms for s in summaries for ms in s["per_call_ms"][metric]]
        values[metric] = statistics.median(calls) if calls else 0.0
    values["cli.main_calls"] = len(summaries[0]["per_call_ms"]["cli.main_self_ms"])
    values["setup.numpy_import_s"] = statistics.median(n for n, _ in imports)
    values["setup.package_import_s"] = statistics.median(p for _, p in imports)
    untraced, traced = walls
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}
