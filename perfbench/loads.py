"""The four benchmark components, their seeded inputs and output checks.

A workload runs all four components: its own at full size, the other
three at probe size, so every end-to-end metric is measured in every run.
One pass of a component is a list of short steps over inputs generated
before any timing. A step records latency samples of the operations that
passed their check and counts every operation in ``Run``. Steps are short
so that the runner can interleave the components over the whole run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import xml.etree.ElementTree as ET
from collections import defaultdict
from time import perf_counter

from timedata_lab import analysis, cli, geomlink, linkmodel, memtiming, ptvda

import reference

SVG_LINE = "{http://www.w3.org/2000/svg}line"

# Parsed CSV cells carry 6 significant digits, so a round trip may move a
# value by half a unit in the sixth digit.
ROUNDTRIP_REL_TOL = 5e-6

# Sizes per component: "main" in the workload named after it, "probe"
# elsewhere. `pass_s` is the time of one untraced pass on a 2-CPU Xeon,
# used to turn --seconds into a fixed number of passes, so a run does the
# same work, and takes the same number of samples, on every commit.
SIZES = {
    "cli": {
        "main": dict(per_leaf=37, per_error=13, jobs=100, job_records=(20, 1000), pass_s=8.2),
        "probe": dict(per_leaf=4, per_error=2, jobs=20, job_records=(20, 100), pass_s=0.9),
    },
    "sheet": {
        "main": dict(targets=50, progress=200, pass_s=0.27),
        "probe": dict(targets=10, progress=40, pass_s=0.01),
    },
    "sort": {
        "main": dict(floats=200_000, strings=60_000, pass_s=0.17),
        "probe": dict(floats=20_000, strings=6_000, pass_s=0.016),
    },
    "alloc": {
        "main": dict(carriers=4096, riemann=300, triple=40, pass_s=0.2),
        "probe": dict(carriers=1024, riemann=100, triple=24, pass_s=0.02),
    },
}


class Run:
    """Operation tally, latency samples and the tracer of one invocation.

    One operation is one CLI command, one sheet + chart job, one sheet
    write (build + emit), one sheet read, one parallel_sort call, one
    allocation or one Riemann sum. It fails if it raises unexpectedly,
    returns the wrong exit code or fails its output check.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = defaultdict(list)
        # The schedule's step index at each sample, for the speed correction.
        self.sample_steps = defaultdict(list)
        self.step = 0
        self.tracer = None

    def record(self, key, value):
        self.samples[key].append(value)
        self.sample_steps[key].append(self.step)

    def op(self, kind, fn, *args):
        """Run and time one operation; (result, seconds), or (None, None)."""
        self.attempted += 1
        scope = self.tracer.op(kind) if self.tracer else contextlib.nullcontext()
        try:
            with scope:
                start = perf_counter()
                result = fn(*args)
                elapsed = perf_counter() - start
        except Exception as exc:  # any escape from the toolkit is a failure
            self._fail(kind, f"raised {type(exc).__name__}: {exc}")
            return None, None
        return result, elapsed

    def check(self, kind, problems):
        """Count the operation as failed if its output check found problems."""
        if problems:
            self._fail(kind, problems[0])
            return False
        return True

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _fail(self, kind, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {message}")


class Component:
    def steps(self):
        """The steps of one pass, in order; each takes the Run."""
        raise NotImplementedError

    def run_pass(self, run):
        for step in self.steps():
            step(run)


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _geometric(count, lo, hi):
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


class CliSession(Component):
    """One-shot commands and sheet -> chart jobs through cli.main in-process.

    Record counts per job follow a fixed geometric ladder, so the latency
    distribution does not depend on the seed; the seed picks the values
    and the order.
    """

    # Commands and jobs per step: small, so a burst of machine noise hits
    # few samples.
    CHUNK = 10

    def __init__(self, rng, size, workdir):
        self.sequence = []
        for make in reference.ONE_SHOT:
            for _ in range(size["per_leaf"]):
                argv, text = make(rng)
                self.sequence.append(("cmd", argv, 0, text))
        for make in reference.TYPED_ERRORS:
            for _ in range(size["per_error"]):
                self.sequence.append(("cmd", make(rng), 1, ""))
        for j, records in enumerate(_geometric(size["jobs"], *size["job_records"])):
            self.sequence.append(("job",) + self._make_job(rng, j, records, workdir))
        rng.shuffle(self.sequence)

    @staticmethod
    def _make_job(rng, j, records, workdir):
        n_progress = max(3, min(100, round(math.sqrt(records) * 2)))
        n_targets = max(1, round(records / n_progress))
        progress = [0.0, 100.0] + [round(rng.uniform(0.0, 100.0), 2)
                                   for _ in range(n_progress - 2)]
        rng.shuffle(progress)
        base = rng.randrange(6 * 3600, 23 * 3600)
        lines = ["[defaults]",
                 f"base_time = {base // 3600:02d}:{base % 3600 // 60:02d}:{base % 60:02d}"]
        for t in range(n_targets):
            lines += [f"[target.J{j}T{t}]",
                      f"distance_km = {rng.uniform(1e6, 1e9)!r}",
                      f"range_lm = {rng.uniform(0.5, 50.0)!r}"]
        config, csv_path, svg_path = (os.path.join(workdir, f"job{j}.{ext}")
                                      for ext in ("ini", "csv", "svg"))
        with open(config, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        sheet_argv = ["sheet", "--config", config, "--out", csv_path,
                      "--progress", ",".join(map(repr, progress))]
        chart_argv = ["chart", "--in", csv_path, "--out", svg_path]
        return sheet_argv, chart_argv, n_targets * n_progress, svg_path

    def steps(self):
        return [lambda run, chunk=self.sequence[i:i + self.CHUNK]: self._run(run, chunk)
                for i in range(0, len(self.sequence), self.CHUNK)]

    @staticmethod
    def _run(run, items):
        for item in items:
            if item[0] == "cmd":
                _, argv, want_code, want_out = item
                got, seconds = run.op("cli.oneshot", _invoke, argv)
                if got is not None and run.check("cli.oneshot", command_problems(
                        argv, got, (want_code, want_out))):
                    run.record("scalar_cmd_s", seconds)
            else:
                _, sheet_argv, chart_argv, records, svg_path = item
                got, seconds = run.op(
                    "cli.job", lambda: (_invoke(sheet_argv), _invoke(chart_argv)))
                if got is not None and run.check("cli.job", job_problems(
                        got, sheet_argv[4], svg_path, records)):
                    run.record("job_s", seconds)


def command_problems(argv, got, want):
    if got != want:
        return [f"{' '.join(argv)}: got {got!r}, want {want!r}"]
    return []


def job_problems(got, csv_path, svg_path, records):
    want = ((0, f"wrote {records} records to {csv_path}\n"),
            (0, f"wrote radar chart to {svg_path}\n"))
    if got != want:
        return [f"job {csv_path}: got {got!r}, want {want!r}"]
    try:
        spokes = sum(1 for _ in ET.parse(svg_path).getroot().iter(SVG_LINE))
    except ET.ParseError as exc:
        return [f"{svg_path} is not XML: {exc}"]
    if spokes != records:
        return [f"{svg_path}: {spokes} spokes for {records} records"]
    return []


class BulkSheet(Component):
    """build_sheet -> emit_csv, then parse_csv of the same file."""

    def __init__(self, rng, size, workdir):
        self.targets = [linkmodel.Target(f"T{i:03d}", rng.uniform(1e6, 1e9),
                                         rng.uniform(0.5, 50.0))
                        for i in range(size["targets"])]
        self.progress = [0.0, 100.0] + [rng.uniform(0.0, 100.0)
                                        for _ in range(size["progress"] - 2)]
        rng.shuffle(self.progress)
        self.base_time = linkmodel.Timestamp(rng.randrange(6, 23), rng.randrange(60),
                                             rng.randrange(60))
        self.path = os.path.join(workdir, "bulk.csv")
        n_edges = sum(p in (0.0, 100.0) for p in self.progress)
        self.records = len(self.targets) * len(self.progress)
        self.sentinels = len(self.targets) * n_edges

        self._written = None  # (sheet, seconds) between the two steps

    def _build_and_emit(self):
        sheet = analysis.build_sheet(self.targets, self.progress, self.base_time)
        analysis.emit_csv(sheet, self.path)
        return sheet

    def steps(self):
        return [self._write, self._read]

    def _write(self, run):
        sheet, seconds = run.op("sheet.write", self._build_and_emit)
        self._written = None if sheet is None else (sheet, seconds)

    def _read(self, run):
        if self._written is None:
            return
        (sheet, t_write), self._written = self._written, None
        parsed, t_read = run.op("sheet.read", analysis.parse_csv, self.path)
        if parsed is not None and run.check("sheet.read", roundtrip_problems(
                sheet.records, parsed.records, self.records, self.sentinels)):
            run.record("write_records_per_s", self.records / t_write)
            run.record("read_records_per_s", self.records / t_read)


def _sentinel_count(records):
    return sum(isinstance(r.nu_delta_omega_hz, str) + isinstance(r.nu_displaced_hz, str)
               for r in records)


def _close(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=ROUNDTRIP_REL_TOL)


def roundtrip_problems(built, parsed, want_records, want_sentinels):
    """Problems between the built records and the ones parsed back."""
    problems = []
    for label, records in (("built", built), ("parsed", parsed)):
        if len(records) != want_records:
            problems.append(f"{label}: {len(records)} records, want {want_records}")
        if _sentinel_count(records) != want_sentinels:
            problems.append(f"{label}: {_sentinel_count(records)} sentinel cells, "
                            f"want {want_sentinels}")
    for line, (a, b) in enumerate(zip(built, parsed), start=2):
        if (a.target_name, a.f_xy_label, a.t_stamp) != (b.target_name, b.f_xy_label,
                                                          b.t_stamp):
            problems.append(f"line {line}: labels or timestamp differ")
        elif not all(_close(x, y) for x, y in (
                (a.progress_pct, b.progress_pct), (a.epsilon_lm, b.epsilon_lm),
                (a.delta_t_s, b.delta_t_s), (a.nu_delta_omega_hz, b.nu_delta_omega_hz),
                (a.nu_displaced_hz, b.nu_displaced_hz))):
            problems.append(f"line {line}: a value differs beyond 6 digits")
        if len(problems) >= 5:
            break
    return problems


def _stamp(rng):
    return f"{rng.randrange(24):02d}:{rng.randrange(60):02d}:{rng.randrange(60):02d}"


class SortLoad(Component):
    """parallel_sort at partitions 1 and 2 on random floats and on
    HH:MM:SS strings drawn from a small pool, so they repeat heavily."""

    def __init__(self, rng, size, workdir):
        pool = [_stamp(rng) for _ in range(max(1, size["strings"] // 60))]
        self.inputs = {
            "float": [rng.random() for _ in range(size["floats"])],
            "str": [rng.choice(pool) for _ in range(size["strings"])],
        }
        self.expected = {label: sorted(data) for label, data in self.inputs.items()}
        self._p1_seconds = {}

    def steps(self):
        return [lambda run, label=label, p=p: self._sort(run, label, p)
                for label in self.inputs for p in (1, 2)]

    def _sort(self, run, label, p):
        data, kind = self.inputs[label], f"sort.{label}_p{p}"
        out, t = run.op(kind, lambda: ptvda.parallel_sort(ptvda.SortInstance(data, p)))
        ok = out is not None and run.check(kind, sort_problems(out, self.expected[label]))
        if p == 1:
            self._p1_seconds[label] = t if ok else None
            return
        t1 = self._p1_seconds.pop(label, None)
        if ok and t1 is not None:
            run.record(f"sort_{label}_elems_per_s", 2 * len(data) / (t1 + t))
        if run.tracer is not None:
            # Reference for the per-layer vs_sorted ratio; not an operation.
            start = perf_counter()
            sorted(data)
            run.record(f"sorted_{label}_s", perf_counter() - start)


def sort_problems(out, expected):
    if out != expected:
        first = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b),
                     min(len(out), len(expected)))
        return [f"output differs from sorted(input) at index {first} "
                f"(lengths {len(out)} and {len(expected)})"]
    return []


def _counting(fn, counts):
    def counted(*args):
        counts["geomlink.evals"] = counts.get("geomlink.evals", 0) + 1
        return fn(*args)
    return counted


class AllocIntegrate(Component):
    """waterfall_allocate with tied arrivals onto a shuffled CellMap, and
    the two midpoint Riemann sums on integrands with closed forms."""

    def __init__(self, rng, size, workdir):
        n = size["carriers"]
        self.arrivals = [rng.randrange(n // 4) * 0.5 for _ in range(n)]  # ~4 per time
        addresses = rng.sample(range(16 * n), n)
        ranks = list(range(n))
        rng.shuffle(ranks)
        self.cells = list(zip(addresses, ranks))
        self.expected = reference.waterfall_reference(
            self.arrivals, {rank: addr for addr, rank in self.cells})

        m = size["riemann"]
        x0, y0 = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        self.area_args = ((x0, x0 + rng.uniform(1, 3), y0, y0 + rng.uniform(1, 3)), m, m)
        self.area_coef = [rng.uniform(0.5, 2.0) for _ in range(4)]
        c = self.area_coef
        self.area_f = lambda x, y: c[0] + c[1] * x + c[2] * y + c[3] * x * y

        k = size["triple"]
        lo = [rng.uniform(0.5, 1.0) for _ in range(3)]
        box = tuple(v for a in lo for v in (a, a + rng.uniform(1, 2)))
        self.volume_args = (box, k, k, k)
        self.volume_coef = [rng.uniform(0.5, 2.0) for _ in range(3)]
        d = self.volume_coef
        self.volume_f = lambda x, y, t: d[0] + d[1] * x * y * t + d[2] * t
        self.evals = m * m + k ** 3
        self._riemann_seconds = None

    def _allocate(self, run):
        carriers = [memtiming.Carrier(i, t) for i, t in enumerate(self.arrivals)]
        with run.span("memtiming.CellMap"):
            cells = memtiming.CellMap(cells=list(self.cells))
        return memtiming.waterfall_allocate(carriers, cells)

    def steps(self):
        return [self._alloc, self._riemann, self._triple]

    def _alloc(self, run):
        alloc, t = run.op("alloc.waterfall", self._allocate, run)
        if alloc is not None and run.check("alloc.waterfall", [] if alloc == self.expected
                                           else ["allocation differs from the reference"]):
            run.record("alloc_carriers_per_s", len(self.arrivals) / t)

    def _integrate(self, run, kind, fn, f, args, exact):
        if run.tracer is not None:
            f = _counting(f, run.tracer.counts)
        value, t = run.op(kind, fn, f, *args)
        ok = value is not None and run.check(kind, integral_problems(value, exact))
        return t if ok else None

    def _riemann(self, run):
        self._riemann_seconds = self._integrate(
            run, "integrate.riemann", geomlink.riemann_area, self.area_f, self.area_args,
            reference.area_closed_form(self.area_coef, self.area_args[0]))

    def _triple(self, run):
        t = self._integrate(
            run, "integrate.triple", geomlink.triple_integral, self.volume_f,
            self.volume_args, reference.volume_closed_form(self.volume_coef,
                                                           self.volume_args[0]))
        if t is not None and self._riemann_seconds is not None:
            run.record("integrate_evals_per_s", 
                self.evals / (self._riemann_seconds + t))
        self._riemann_seconds = None


def integral_problems(value, exact):
    if not math.isclose(value, exact, rel_tol=reference.INTEGRAL_REL_TOL):
        return [f"sum {value!r} differs from closed form {exact!r}"]
    return []


COMPONENTS = {"cli": CliSession, "sheet": BulkSheet, "sort": SortLoad,
              "alloc": AllocIntegrate}
