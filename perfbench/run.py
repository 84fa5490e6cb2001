"""timedata-lab benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload sort --seed 1 --seconds 20 --trace 0

Run from a source checkout: the package is imported from ./src. With
``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` a separate traced
run reports the per-layer metrics instead. End-to-end samples are scaled
to a reference machine speed measured beside them (see CAL_REF_S). A
full report (environment, sample counts, tail percentiles, failures,
uncorrected medians) goes to ``.perfbench/results/`` and the spans of a
traced run to ``.perfbench/spans-<workload>.csv``. ``--workload all`` runs the four
workloads one after another and prints one table.

See perfbench/DESIGN.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Workload -> the component it runs at full size; the others run at probe size.
WORKLOADS = {"cli-session": "cli", "bulk-sheet": "sheet", "sort": "sort",
             "alloc-integrate": "alloc"}
MAIN_SHARE, PROBE_SHARE = 0.6, 0.1
MIN_MAIN_PASSES, MIN_PROBE_PASSES = 2, 3
COLD_STARTS = 15
IMPORTTIME_STARTS = 5
# A traced pass costs about 1.5 untraced passes; a round is one of each.
TRACE_ROUND_FACTOR = 2.5
# Tail = the highest of these percentiles with at least 10 samples beyond it.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10

# Speed correction. The speed of a shared VM drifts by 20-40 % over tens
# of seconds, and every kind of work here slows with it. Before each step
# of the schedule the runner times sorted() of CAL_SIZE floats that are in
# order already, one copy and one comparison scan of the list; each
# sample is scaled by CAL_REF_S over the median calibration time of the
# steps within CAL_HALF_WINDOW of its own. The end-to-end metrics are thus
# the figures of a machine on which that sort takes CAL_REF_S (about the
# quiet speed of the 2-CPU Xeon the sizes were set on); the report keeps
# the uncorrected medians too.
CAL_SIZE = 50_000
CAL_REF_S = 0.00025
CAL_HALF_WINDOW = 3

COLD_START_CODE = ("import sys; sys.path.insert(0, {src!r}); "
                   "from timedata_lab import cli; cli.build_parser()")

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "scalar_cmd_p50_ms": "ms", "scalar_cmd_tail_ms": "ms",
    "job_p50_ms": "ms", "job_tail_ms": "ms",
    "write_records_per_s": "records/s", "read_records_per_s": "records/s",
    "sort_float_elems_per_s": "elems/s", "sort_str_elems_per_s": "elems/s",
    "alloc_carriers_per_s": "carriers/s", "integrate_evals_per_s": "evals/s",
}

RATES = ("write_records_per_s", "read_records_per_s", "sort_float_elems_per_s",
         "sort_str_elems_per_s", "alloc_carriers_per_s", "integrate_evals_per_s")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    if not (SRC / "timedata_lab" / "__init__.py").is_file():
        raise BenchError(f"no timedata_lab sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import timedata_lab
    if Path(timedata_lab.__file__).resolve().parent != SRC / "timedata_lab":
        raise BenchError(f"imported timedata_lab from {timedata_lab.__file__}, not {SRC}")


# --- statistics -------------------------------------------------------------

def nearest_rank(ordered, q):
    """The q-th percentile of sorted samples by nearest rank, and its rank."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], rank


def tail(samples):
    """(percentile, value, samples beyond) for the highest ladder percentile
    with at least TAIL_MIN_BEYOND samples beyond it; p50 if none has."""
    ordered = sorted(samples)
    best = None
    for q in TAIL_LADDER:
        value, rank = nearest_rank(ordered, q)
        if best is None or len(ordered) - rank >= TAIL_MIN_BEYOND:
            best = (q, value, len(ordered) - rank)
    return best


def median(values):
    return statistics.median(values) if values else 0.0


# --- set-up time ------------------------------------------------------------

def cold_start(importtime=False):
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", COLD_START_CODE.format(src=str(SRC))]
    start = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"cold start failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stderr


def import_times(stderr):
    """(numpy, package) cumulative import seconds from -X importtime output.

    The package figure sums the outermost timedata_lab entries, so it
    includes numpy when the package is what first imports it.
    """
    numpy_us, package_us = None, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        if name == "numpy" and numpy_us is None:
            numpy_us = int(cumulative)
        if depth == 1 and name.startswith("timedata_lab"):
            package_us += int(cumulative)
    return (numpy_us or 0) / 1e6, package_us / 1e6


# --- environment ------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "timedata_lab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "source_digest": source_digest(),
    }


# --- the run ----------------------------------------------------------------

def build_components(workload, seed, workdir, sizes):
    from loads import COMPONENTS
    main = WORKLOADS[workload]
    components = []
    for name, cls in COMPONENTS.items():
        role = "main" if name == main else "probe"
        rng = random.Random(f"{seed}:{workload}:{name}")
        components.append((name, role, cls(rng, sizes[name][role], str(workdir))))
    return components


def planned_passes(role, pass_s, seconds):
    share, floor = ((MAIN_SHARE, MIN_MAIN_PASSES) if role == "main"
                    else (PROBE_SHARE, MIN_PROBE_PASSES))
    return max(floor, round(seconds * share / pass_s))


def run_untraced(components, sizes, seconds, run, report):
    """Interleave the steps of every component and the cold starts evenly
    over the run, so that each metric samples the same stretch of time on
    a machine whose speed drifts. Returns the calibration time before
    each step."""
    plan = []
    for order, (name, role, component) in enumerate(components):
        passes = planned_passes(role, sizes[name][role]["pass_s"], seconds)
        report["passes"][name] = passes
        steps = component.steps()
        total = passes * len(steps)
        plan += [((k + 0.5) / total, order, steps[k % len(steps)]) for k in range(total)]
    plan += [((j + 0.5) / COLD_STARTS, -1, lambda run: run.record("setup_s", cold_start()[0]))
             for j in range(COLD_STARTS)]
    cal_data = [k / CAL_SIZE for k in range(CAL_SIZE)]
    calibration = []
    for index, (_, _, step) in enumerate(sorted(plan, key=lambda item: item[:2])):
        run.step = index
        start = perf_counter()
        sorted(cal_data)
        calibration.append(perf_counter() - start)
        step(run)
    return calibration


def corrected(run, key, calibration):
    """The samples of `key` at the reference speed: times are scaled by
    CAL_REF_S / local calibration time, rates (`*_per_s`) by its inverse."""
    values = []
    for value, step in zip(run.samples[key], run.sample_steps[key]):
        local = statistics.median(
            calibration[max(0, step - CAL_HALF_WINDOW):step + CAL_HALF_WINDOW + 1])
        factor = local / CAL_REF_S
        values.append(value * factor if key.endswith("_per_s") else value / factor)
    return values


def untraced_metrics(run, report, calibration):
    ms = 1000.0
    samples = {key: corrected(run, key, calibration)
               for key in ("setup_s", "scalar_cmd_s", "job_s", *RATES)}
    report["uncorrected_medians"] = {key: median(values)
                                     for key, values in run.samples.items()}
    report["calibration_s"] = {"median": median(calibration), "min": min(calibration),
                               "max": max(calibration), "reference": CAL_REF_S}
    metrics = {"setup_s": median(samples["setup_s"]),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for prefix, key in (("scalar_cmd", "scalar_cmd_s"), ("job", "job_s")):
        metrics[f"{prefix}_p50_ms"] = median(samples[key]) * ms
        if samples[key]:
            q, value, beyond = tail(samples[key])
            metrics[f"{prefix}_tail_ms"] = value * ms
            report["tail"][f"{prefix}_tail_ms"] = {
                "percentile": q, "samples": len(samples[key]), "beyond": beyond}
        else:
            metrics[f"{prefix}_tail_ms"] = 0.0
    for name in RATES:
        metrics[name] = median(samples[name])
    report["samples"] = {key: len(values) for key, values in run.samples.items()}
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def run_traced(components, sizes, seconds, run, report, modules):
    from tracing import Tracer
    from layers import COUNTERS, round_summary
    round_s = sum(sizes[name][role]["pass_s"] for name, role, _ in components)
    rounds = max(1, round(seconds / (TRACE_ROUND_FACTOR * round_s)))
    report["passes"] = {"rounds": rounds}
    summaries, walls, first = [], [0.0, 0.0], None
    for _ in range(rounds):
        tracer = Tracer(COUNTERS)
        for name, role, component in components:
            for traced in (False, True):
                gc.collect()
                run.tracer = tracer if traced else None
                start = perf_counter()
                if traced:
                    with tracer.instrument(modules):
                        component.run_pass(run)
                else:
                    component.run_pass(run)
                walls[traced] += perf_counter() - start
        run.tracer = None
        summaries.append(round_summary(tracer, run.samples))
        run.samples.clear()
        run.sample_steps.clear()
        if first is None:
            first = tracer
    return summaries, walls, first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
        if args.workload == "all":
            return run_all(args)
        result, report_path = run_workload(args.workload, args.seed, args.seconds,
                                           args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}; "
          f"report {report_path.relative_to(OUT.parent)}")
    print(json.dumps(result))
    return 0


def run_workload(workload, seed, seconds, trace, sizes=None):
    """Run one workload; returns the result object and the report's path."""
    from loads import SIZES, Run
    from timedata_lab import (analysis, cli, geomlink, linkmodel, memtiming, optics,
                              ptvda, relativity, units)
    sizes = sizes or SIZES
    OUT.mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    report = {"workload": workload, "seconds": seconds, "trace": trace,
              "env": environment(seed), "passes": {}, "tail": {}}
    run = Run()
    try:
        if trace:
            cold_start(importtime=True)  # compiles bytecode; not measured
            imports = [import_times(cold_start(importtime=True)[1])
                       for _ in range(IMPORTTIME_STARTS)]
        else:
            cold_start()  # compiles bytecode; not measured
        components = build_components(workload, seed, workdir, sizes)
        # The inputs live for the whole run; keep the collector from
        # rescanning them inside timed operations, a cost that a caller's
        # own process would not carry.
        gc.freeze()
        if trace:
            from layers import layer_metrics
            modules = (analysis, cli, geomlink, linkmodel, memtiming, optics, ptvda,
                       relativity, units)
            summaries, walls, first = run_traced(components, sizes, seconds, run,
                                                 report, modules)
            metrics = layer_metrics(summaries, walls, imports)
            spans_path = OUT / f"spans-{workload}.csv"
            from tracing import write_spans
            write_spans(spans_path, first.spans, first.op_kinds)
            report["spans_file"] = str(spans_path.relative_to(OUT.parent))
        else:
            calibration = run_untraced(components, sizes, seconds, run, report)
            metrics = untraced_metrics(run, report, calibration)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    report.update(result, problems=run.problems,
                  ops_failed_frac=run.failed / max(1, run.attempted))
    report_path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    return result, report_path


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-500:]}")
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = next(iter(results.values()))["metrics"]
    print(f"{'metric':40s}" + "".join(f"{w:>18s}" for w in results) + "  unit")
    for name, metric in metrics.items():
        cells = "".join(f"{r['metrics'][name]['value']:>18.6g}" for r in results.values())
        print(f"{name:40s}{cells}  {metric['unit']}")
    for workload, r in results.items():
        print(f"{workload}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} ops_failed_frac={r['failed'] / r['attempted']:.6g}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
