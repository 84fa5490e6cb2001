import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import timedata_lab
from timedata_lab import analysis, ptvda
from timedata_lab.cli import load_config, main

SUN_INI = """\
[defaults]
base_time = 13:35:00

[target.Sun]
distance_km = 1.46e8
range_lm = 8.3
"""


@pytest.fixture
def sun_config(tmp_path):
    path = tmp_path / "sun.ini"
    path.write_text(SUN_INI)
    return str(path)


def test_no_arguments_usage(capsys):
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_link_eps(capsys):
    assert main(["link", "eps", "--progress", "16", "--range", "8.3"]) == 0
    assert capsys.readouterr().out.strip() == "1.328000 Lm"


def test_link_shift(capsys):
    assert main(["link", "shift", "--time", "13:35:00", "--epsilon", "1.33"]) == 0
    assert capsys.readouterr().out.strip() == "13:33:40"


def test_link_fres_domain_error(capsys):
    assert main(["link", "fres", "--distance", "1.46e8", "--progress", "0"]) == 1


def test_optics_vnum(capsys):
    assert main(["optics", "vnum", "--radius", "1e-6", "--wavelength",
                 "1.55e-6", "--n1", "1.48", "--n2", "1.46"]) == 0
    out = capsys.readouterr().out
    assert "single-mode" in out


def test_mem_bitfreq(capsys):
    assert main(["mem", "bitfreq", "--bits", "1", "--qbits", "2",
                 "--time", "1"]) == 0
    assert "0.5 Hz" in capsys.readouterr().out


def test_mem_waterfall(capsys):
    assert main(["mem", "waterfall", "--arrivals", "3.0,1.0,2.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["carrier 0 -> cell 2", "carrier 1 -> cell 0",
                     "carrier 2 -> cell 1"]


def test_rel_gamma(capsys):
    assert main(["rel", "gamma", "--beta", "0.6"]) == 0
    assert capsys.readouterr().out.strip() == "1.25"


def test_rel_superluminal_is_domain_error(capsys):
    assert main(["rel", "gamma", "--beta", "1.5"]) == 1


def test_sort_run(capsys):
    assert main(["sort", "run", "--values", "3,1,2", "--partitions", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,3"


def test_sort_classify(capsys):
    assert main(["sort", "classify", "--n", "inf", "--nprime", "10"]) == 0
    assert capsys.readouterr().out.strip() == "Diverging"


def test_geom_split(capsys):
    assert main(["geom", "split", "--t", "2", "--tpar", "2"]) == 0
    assert "fold" in capsys.readouterr().out


def test_load_config(sun_config):
    targets, base_time = load_config(sun_config)
    assert len(targets) == 1
    assert targets[0].name == "Sun"
    assert targets[0].distance_km == 1.46e8
    assert str(base_time) == "13:35:00"


def test_load_config_missing_file(tmp_path):
    assert main(["sheet", "--config", str(tmp_path / "nope.ini"),
                 "--progress", "16", "--out", str(tmp_path / "o.csv")]) == 1


def test_sheet_and_chart_end_to_end(sun_config, tmp_path, capsys):
    csv_path = tmp_path / "t31.csv"
    progress = ",".join(str(p) for p in range(0, 97, 8))
    assert main(["sheet", "--config", sun_config, "--progress", progress,
                 "--out", str(csv_path)]) == 0
    sheet = analysis.parse_csv(csv_path)
    assert len(sheet.records) == 13

    svg_path = tmp_path / "t31.svg"
    assert main(["chart", "--in", str(csv_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<?xml")


def test_sort_probe_warns_once(capsys, monkeypatch):
    monkeypatch.setattr(ptvda.time, "perf_counter", lambda: 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a Python warning would be a second copy
        assert main(["sort", "probe", "--sizes", "1000,2000"]) == 0
    out, err = capsys.readouterr()
    assert err.count("timing below clock resolution; fit skipped") == 1
    assert "log-log slope" not in out


def test_chart_reports_an_omitted_attribute_on_one_line(tmp_path, capsys):
    path = tmp_path / "in.csv"
    path.write_text(analysis.CSV_HEADER + "".join(
        f"\nSun,{p},f,13:00:00,{p + 1},60,0.1,#Div/0!" for p in range(3)) + "\n")
    # pytest turns warnings into errors here, as `python -W error` does.
    assert main(["chart", "--in", str(path), "--out", str(tmp_path / "c.svg")]) == 0
    assert capsys.readouterr().err == (
        "warning: attribute nu_displaced_hz is all sentinels; omitted\n")


def test_sort_probe_runs_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from timedata_lab.cli import main\n"
            "sys.exit(main(['sort', 'probe', '--sizes', '1000,10000', '--seed', '0']))")
    src = str(Path(timedata_lab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n = 1000: ")


# A module the lazy loader has not run yet is of the loader's own subclass of
# ModuleType; one that has run, or was imported as usual, is a plain module.
# A `rel` leaf loads none of the costly modules the kernels once imported.
LAZY_CODE = """\
import sys, types
KERNELS = ["configparser"] + ["timedata_lab." + name for name in (
    "analysis", "geomlink", "linkmodel", "memtiming", "optics", "ptvda", "relativity")]
def ran():
    return [name for name in KERNELS if type(sys.modules.get(name)) is types.ModuleType]
from timedata_lab import cli
cli.build_parser()
print(ran())
cli.main(["rel", "gamma", "--beta", "0.6"])
print(ran())
print([name for name in ("dataclasses", "inspect", "fractions") if name in sys.modules])
import timedata_lab.optics
print(timedata_lab.optics.v_number.__name__, cli.optics is sys.modules["timedata_lab.optics"])
"""


def test_a_leaf_loads_only_the_kernel_it_runs():
    src = str(Path(timedata_lab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", LAZY_CODE], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert (proc.stderr, proc.returncode) == ("", 0)
    assert proc.stdout.splitlines() == [
        "[]", "1.25", "['timedata_lab.relativity']", "[]", "v_number True"]


def test_reader_that_leaves_early_gets_exit_1_and_no_traceback():
    # ~390 KB of output against a 64 KiB pipe buffer: the write blocks until
    # the pipe closes, then fails. The argument (~79 KB) fits Linux's 128 KiB.
    arrivals = ",".join(map(str, range(15000)))
    src = str(Path(timedata_lab.__file__).parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "timedata_lab.cli", "mem", "waterfall", "--arrivals", arrivals],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.read(10) == b"carrier 0 "
    proc.stdout.close()  # as `| head` does once it has its lines
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), stderr) == (1, b"")
