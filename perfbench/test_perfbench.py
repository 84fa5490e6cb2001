"""Tests of the benchmark itself: metric names, checks and failure counts."""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import loads
import run
from timedata_lab import analysis, ptvda

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "cli": {"main": dict(per_leaf=1, per_error=1, jobs=2, job_records=(20, 30), pass_s=1.0),
            "probe": dict(per_leaf=1, per_error=1, jobs=1, job_records=(20, 20), pass_s=1.0)},
    "sheet": {"main": dict(targets=3, progress=6, pass_s=1.0),
              "probe": dict(targets=2, progress=4, pass_s=1.0)},
    "sort": {"main": dict(floats=300, strings=120, pass_s=1.0),
             "probe": dict(floats=50, strings=30, pass_s=1.0)},
    "alloc": {"main": dict(carriers=40, riemann=8, triple=4, pass_s=1.0),
              "probe": dict(carriers=8, riemann=3, triple=2, pass_s=1.0)},
}


@pytest.fixture
def tiny_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(run, "IMPORTTIME_STARTS", 1)
    monkeypatch.setattr(run, "MIN_MAIN_PASSES", 1)
    monkeypatch.setattr(run, "MIN_PROBE_PASSES", 1)
    run.load_package()

    def go(workload, trace):
        return run.run_workload(workload, seed=5, seconds=0.01, trace=trace, sizes=TINY)
    return go


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny_run, workload, trace):
    result, report_path = tiny_run(workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    report = json.loads(report_path.read_text())
    assert report["ops_failed_frac"] == 0
    assert {"seed", "nproc", "cpu_model", "python", "numpy", "commit"} <= set(report["env"])
    if not trace:
        assert set(report["tail"]) == {"scalar_cmd_tail_ms", "job_tail_ms"}


def test_wrong_sort_result_counts_as_failed(tiny_run, monkeypatch):
    monkeypatch.setattr(ptvda, "parallel_sort",
                        lambda instance: sorted(instance.elements, reverse=True))
    result, report_path = tiny_run("sort", 0)
    assert not result["correct"]
    assert result["failed"] > 0
    assert json.loads(report_path.read_text())["ops_failed_frac"] > 0


def _corrupting_emit(corrupt):
    emit = analysis.emit_csv

    def emit_then_corrupt(sheet, path):
        emit(sheet, path)
        lines = Path(path).read_text().splitlines(keepends=True)
        lines[2] = corrupt(lines[2])
        Path(path).write_text("".join(lines))
    return emit_then_corrupt


@pytest.mark.parametrize("corrupt", [
    lambda line: line.replace(",", ",9", 1),            # a value changes
    lambda line: line.rsplit(",", 1)[0] + "\n",          # a column goes missing
])
def test_corrupted_csv_counts_as_failed(monkeypatch, tmp_path, corrupt):
    sheet = loads.BulkSheet(random.Random(1), TINY["sheet"]["main"], str(tmp_path))
    monkeypatch.setattr(analysis, "emit_csv", _corrupting_emit(corrupt))
    tally = loads.Run()
    sheet.run_pass(tally)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_roundtrip_check_compares_counts_and_values(tmp_path):
    sheet = loads.BulkSheet(random.Random(2), TINY["sheet"]["main"], str(tmp_path))
    built = analysis.build_sheet(sheet.targets, sheet.progress, sheet.base_time)
    assert loads.roundtrip_problems(built.records, built.records, sheet.records,
                                    sheet.sentinels) == []
    assert loads.roundtrip_problems(built.records, built.records[:-1], sheet.records,
                                    sheet.sentinels)
    assert loads.roundtrip_problems(built.records, built.records, sheet.records,
                                    sheet.sentinels + 1)


def test_job_check_rejects_bad_svg(tmp_path):
    svg = tmp_path / "x.svg"
    svg.write_text("<svg><line/>")
    got = ((0, "wrote 1 records to a.csv\n"), (0, f"wrote radar chart to {svg}\n"))
    assert loads.job_problems(got, "a.csv", str(svg), 1)
    svg.write_text('<svg xmlns="http://www.w3.org/2000/svg"><line/></svg>')
    assert loads.job_problems(got, "a.csv", str(svg), 1) == []
    assert loads.job_problems(got, "a.csv", str(svg), 2)


def test_integral_and_sort_checks():
    assert loads.integral_problems(1.0, 1.0 + 1e-12) == []
    assert loads.integral_problems(1.0, 1.001)
    assert loads.sort_problems([1, 2, 3], [1, 2, 3]) == []
    assert loads.sort_problems([1, 3, 2], [1, 2, 3])


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1000)))[:1] == (99,)
    assert run.tail(list(range(1000)))[2] >= 10
    assert run.tail(list(range(200)))[:1] == (95,)
    assert run.tail(list(range(40)))[:1] == (75,)
    assert run.tail(list(range(5)))[:1] == (50,)


def test_speed_correction_scales_times_and_rates_by_local_calibration():
    tally = loads.Run()
    for step, value in ((0, 0.010), (20, 0.020)):
        tally.step = step
        tally.record("x_s", value)
        tally.record("x_per_s", 1 / value)
    # The machine runs at half the reference speed from step 10 on.
    calibration = [run.CAL_REF_S] * 10 + [2 * run.CAL_REF_S] * 20
    assert run.corrected(tally, "x_s", calibration) == pytest.approx([0.010, 0.010])
    assert run.corrected(tally, "x_per_s", calibration) == pytest.approx([100, 100])


def test_import_times_reads_cumulative_microseconds():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   _io",
        "import time:       200 |       5000 |     numpy",
        "import time:       300 |       9000 |   timedata_lab.ptvda",
        "import time:        50 |         50 | timedata_lab",
        "import time:       400 |      20000 | timedata_lab.cli",
    ])
    assert run.import_times(text) == (0.005, 0.02005)


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
