"""Golden transcript of the CLI: stdout and exit code of every leaf subcommand.

The expected strings are fixed text, not recomputed from the toolkit, so
any change to what a command prints or returns fails here. ``sort probe``
prints wall-clock timings; only its exit code and line shapes are pinned.
Property tests run generated argv through every other leaf, `sheet` and
`chart` with generated input files, and check that the one parser of the
leaf an argv names reads it as the whole tree does.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import os
import re
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from timedata_lab import cli
from timedata_lab.analysis import CSV_HEADER, DIV0, DIVERGES, finite_float
from timedata_lab.cli import COMMANDS, build_parser, main

# (argv, stdout) of commands that exit 0.
SUCCESS = [
    (["link", "eps", "--progress", "16", "--range", "8.3"], "1.328000 Lm\n"),
    (["link", "shift", "--time", "13:35:00", "--epsilon", "1.33"], "13:33:40\n"),
    (["link", "fres", "--distance", "1.46e8", "--progress", "16"], "0.0128425 Hz\n"),
    (["link", "fdisp", "--distance", "1.46e8", "--progress", "16"], "0.00244618 Hz\n"),
    (["link", "unc", "--domega", "2", "--dt", "4"], "satisfied\n"),
    (["link", "unc", "--domega", "1", "--dt", "1"], "violated\n"),
    (["optics", "vnum", "--radius", "1e-6", "--wavelength", "1.55e-6",
      "--n1", "1.48", "--n2", "1.46"], "V = 0.982962 (single-mode)\n"),
    (["optics", "vnum", "--radius", "5e-6", "--wavelength", "1.55e-6",
      "--n1", "1.48", "--n2", "1.46"], "V = 4.91481 (multi-mode)\n"),
    (["optics", "snell", "--theta1", "0.5", "--n1", "1.0", "--n2", "1.5"],
     "0.325325 rad\n"),
    (["optics", "faraday", "--verdet", "3.8", "--bfield", "0.5", "--path", "0.2"],
     "0.38 rad\n"),
    (["optics", "shell", "--thickness", "0.001", "--length", "1",
      "--mean-radius", "0.05", "--circ-radius", "0.05"],
     "A = 0.00628947 m^2, V = 0.000314159 m^3\n"),
    (["mem", "bitfreq", "--bits", "1", "--qbits", "2", "--time", "1"], "0.5 Hz\n"),
    (["mem", "sheetres", "--length", "2e-4", "--width", "1e-4",
      "--resistivity", "1e-6", "--thickness", "1e-7"],
     "R_s = 10 Ohm/sq, R = 20 Ohm\n"),
    (["mem", "gm", "--di", "2e-4", "--dv", "0.5"], "0.0004 S\n"),
    (["mem", "eta", "--collected", "3", "--storable", "4"], "0.75\n"),
    (["mem", "waterfall", "--arrivals", "3.0,1.0,2.0"],
     "carrier 0 -> cell 2\ncarrier 1 -> cell 0\ncarrier 2 -> cell 1\n"),
    (["mem", "waterfall", "--arrivals", "1,1,0.5,"],
     "carrier 0 -> cell 1\ncarrier 1 -> cell 2\ncarrier 2 -> cell 0\n"),
    (["mem", "waterfall", "--arrivals", ""], ""),
    (["rel", "gamma", "--beta", "0.6"], "1.25\n"),
    (["rel", "tau", "--tdot", "-2"], "1.41421\n"),
    (["rel", "proper", "--dt", "10"], "10 s\n"),
    (["rel", "proper", "--dt", "10", "--vx", "1e5", "--vy", "1e5", "--vz", "1e4"],
     "8.81287 s\n"),
    (["rel", "proper", "--dt", "10", "--vx", "-1e5"], "9.42809 s\n"),
    (["rel", "polar", "--x", "1", "--y", "1"],
     "r = 1.41421, phi = 0.785398 rad, J = 1.41421\n"),
    (["rel", "charge", "--q1", "1e-6", "--qin", "3e-7"], "1.3e-06 C\n"),
    (["rel", "charge", "--q1", "0.1", "--qin", "0.2", "--qout", "0.3"],
     "2.77556e-17 C\n"),
    (["sort", "run", "--values", "3,1,2", "--partitions", "2"], "1,2,3\n"),
    (["sort", "run", "--values", "5,-1.5,2e3,0,2"], "-1.5,0,2,5,2000\n"),
    (["sort", "run", "--values", "3,1,2"], "1,2,3\n"),
    (["sort", "classify", "--n", "inf", "--nprime", "10"], "Diverging\n"),
    (["sort", "classify", "--n", "10", "--nprime", "1e8"], "Vanishing\n"),
    (["sort", "classify", "--n", "5", "--nprime", "7", "--bound", "1.1"],
     "Vanishing\n"),
    (["geom", "slope", "--x1", "0", "--y1", "0", "--x2", "3", "--y2", "4"],
     "slope = 1.33333, length = 5\n"),
    (["geom", "slope", "--x1", "-1e308", "--y1", "0", "--x2", "1", "--y2", "1"],
     "slope = 1e-308, length = 1e+308\n"),
    (["geom", "split", "--t", "2", "--tpar", "2"], "2 (fold)\n"),
    (["geom", "split", "--t", "3", "--tpar", "2"], "1.63093 (no fold)\n"),
    (["geom", "split", "--t", "1e-200", "--tpar", "1e-200"], "2 (fold)\n"),
    (["geom", "kin", "--dx", "3", "--dy", "4", "--t", "2", "--tpar", "1"],
     "v = 2.5, a = 2.5, v_sync = 2.5\n"),
]

# Usage errors: exit 2, nothing on stdout.
USAGE_ERRORS = [
    [],
    ["frobnicate"],
    ["link"],
    ["rel", "gamma", "--beta", "abc"],
    ["sort", "run", "--values", "1,x"],
    ["sort", "classify", "--n", "abc", "--nprime", "1"],
    ["sort", "probe", "--sizes", "1000,x"],
    ["mem", "waterfall", "--arrivals", "1,x"],
    ["sheet", "--config", "targets.ini", "--progress", "16,x", "--out", "t.csv"],
    ["link", "shift", "--time", "13:35:00", "--epsilon", "nan"],
    ["rel", "proper", "--dt", "1", "--vx", "nan"],
    ["optics", "faraday", "--verdet", "nan", "--bfield", "1", "--path", "1"],
    ["link", "fres", "--distance", "inf", "--progress", "16"],
    ["sort", "run", "--values", "1,nan"],
    ["rel", "tau", "--tdot=--"],
    ["link", "shift", "--time=--", "--epsilon", "1"],
    ["mem", "eta", "--collected=--", "--storable", "1"],
    ["mem", "waterfall", "--arrivals=--"],
    ["sort", "run", "--values=--"],
    ["sort", "probe", "--sizes=--"],
    ["sheet", "--config=c.ini", "--progress=--", "--out=o.csv"],
]

# (argv, stderr) of typed errors: exit 1, nothing on stdout.
TYPED_ERRORS = [
    (["link", "fres", "--distance", "1.46e8", "--progress", "0"],
     "error: frequency resolution undefined at 0% progress\n"),
    (["rel", "gamma", "--beta", "1.5"], "error: beta must be in [0, 1), got 1.5\n"),
    (["sort", "classify", "--n", "inf", "--nprime", "inf"],
     "error: both sizes infinite: ratio ambiguous\n"),
    (["link", "shift", "--time", "ab:cd:ef", "--epsilon", "1"],
     "error: expected HH:MM:SS, got 'ab:cd:ef'\n"),
    (["link", "shift", "--time", "1_3:35:00", "--epsilon", "1"],
     "error: expected HH:MM:SS, got '1_3:35:00'\n"),
    (["link", "fres", "--distance", "1.46e8", "--progress", "150"],
     "error: progress must be in [0, 100], got 150.0\n"),
    (["link", "fres", "--distance", "1e-300", "--progress", "1e-300"],
     "error: frequency resolution overflows: c / 0 km\n"),
    (["link", "fdisp", "--distance", "1e-320", "--progress", "16"],
     "error: frequency resolution overflows: c / 8.39912e-321 km\n"),
    (["link", "shift", "--time", "13:35:00", "--epsilon", "1e308"],
     "error: timestamp shift rolls back past midnight\n"),
    (["mem", "bitfreq", "--bits", "1e308", "--qbits", "1e-10", "--time", "1e-10"],
     "error: result not finite: inf\n"),
    (["mem", "gm", "--di", "1e308", "--dv", "1e-10"],
     "error: result not finite: inf\n"),
    (["mem", "sheetres", "--length", "1e308", "--width", "1e-10",
      "--resistivity", "1", "--thickness", "1"], "error: result not finite: inf\n"),
    (["optics", "faraday", "--verdet", "1e200", "--bfield", "1e200", "--path", "1"],
     "error: result not finite: inf\n"),
    (["optics", "vnum", "--radius", "1e308", "--wavelength", "1e-10",
      "--n1", "1.5", "--n2", "1.4"], "error: result not finite: inf\n"),
    (["optics", "shell", "--thickness", "1", "--length", "1e308",
      "--mean-radius", "1e308", "--circ-radius", "1e308"],
     "error: result not finite: inf\n"),
    (["geom", "slope", "--x1=-1e308", "--y1=-1e308", "--x2=1e308", "--y2=1e308"],
     "error: result not finite: nan\n"),
    (["mem", "eta", "--collected", "1" + "0" * 400, "--storable", "1"],
     "error: integer division result too large for a float\n"),
    (["rel", "charge", "--q1", "1e308", "--qin", "1e308"],
     "error: integer division result too large for a float\n"),
    (["mem", "bitfreq", "--bits", "1", "--qbits", "1e-200", "--time", "1e-200"],
     "error: float division by zero\n"),
    (["geom", "kin", "--dx", "3", "--dy", "4", "--t", "1e-200", "--tpar", "1e-200"],
     "error: float division by zero\n"),
    (["sort", "classify", "--n", "nan", "--nprime", "1"], "error: n must be >= 1\n"),
    (["sort", "classify", "--n", "5", "--nprime", "7", "--bound", "nan"],
     "error: ratio bound must be positive\n"),
    (["mem", "waterfall", "--arrivals", "-1e-3,2"],
     "error: arrival time must be nonnegative\n"),
    # The huge size comes first: a build without the size limit refuses the
    # list as out of order instead of allocating it.
    (["sort", "probe", "--sizes", f"{10 ** 12},2"],
     "error: probe sizes must be in [2, 1000000]\n"),
]

SUN_MOON_INI = """\
[defaults]
base_time = 13:35:00

[target.Sun]
distance_km = 1.46e8
range_lm = 8.3

[target.Moon]
distance_km = 384400
range_lm = 0.0213
"""

# 0% gives #Div/0! cells and 100% gives #Inf! cells.
PROGRESS = "0,8,16,24,32,40,48,56,64,72,80,88,96,100"
CSV_SHA256 = "c04f8dcf2b3e3cf9a713102b058b3417f3b4e04be799e43eee99b6630498929e"
SVG_SHA256 = "69da3e26094db5e8c99bb8c096f9ead253ebe882c09474e11212a28b465f3b2e"


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv,stdout", SUCCESS,
                         ids=[" ".join(a) for a, _ in SUCCESS])
def test_success_transcript(capsys, argv, stdout):
    assert _run(capsys, argv) == (0, stdout, "")


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=lambda v: " ".join(v) or "none")
def test_usage_error_transcript(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error:" in err.splitlines()[-1]


TOP_USAGE = "usage: timedata-lab [-h] {link,optics,mem,rel,sort,geom,sheet,chart} ...\n"
TOP_HELP = TOP_USAGE + """
Comlink latency, optics, memory-timing, relativity, sorting and spreadsheet
toolkit

positional arguments:
  {link,optics,mem,rel,sort,geom,sheet,chart}
    link                comlink time-data model
    optics              fiber and Faraday optics
    mem                 memory timing and electrical model
    rel                 relativistic timing
    sort                partitioned parallel sort harness
    geom                comlink plane geometry
    sheet               build the link spreadsheet CSV
    chart               render the radar chart SVG

options:
  -h, --help            show this help message and exit
"""
LINK_USAGE = "usage: timedata-lab link [-h] {eps,shift,fres,fdisp,unc} ...\n"
LINK_HELP = LINK_USAGE + """
positional arguments:
  {eps,shift,fres,fdisp,unc}

options:
  -h, --help            show this help message and exit
"""
EPS_USAGE = "usage: timedata-lab link eps [-h] --progress PROGRESS --range RANGE\n"
EPS_HELP = EPS_USAGE + """
options:
  -h, --help           show this help message and exit
  --progress PROGRESS
  --range RANGE
"""
SHEET_USAGE = ("usage: timedata-lab sheet [-h] --config CONFIG --progress PROGRESS "
               "--out OUT\n")
SHEET_HELP = SHEET_USAGE + """
options:
  -h, --help           show this help message and exit
  --config CONFIG
  --progress PROGRESS
  --out OUT
"""

# (argv, exit code, stdout, stderr) of help and usage output, byte for byte.
HELP_AND_USAGE = [
    ("", 2, "", TOP_USAGE
     + "timedata-lab: error: the following arguments are required: command\n"),
    ("-h", 0, TOP_HELP, ""),
    ("--help", 0, TOP_HELP, ""),
    ("frobnicate", 2, "", TOP_USAGE
     + "timedata-lab: error: argument command: invalid choice: 'frobnicate' (choose "
       "from 'link', 'optics', 'mem', 'rel', 'sort', 'geom', 'sheet', 'chart')\n"),
    ("link", 2, "", LINK_USAGE
     + "timedata-lab link: error: the following arguments are required: action\n"),
    ("link -h", 0, LINK_HELP, ""),
    ("link bogus", 2, "", LINK_USAGE
     + "timedata-lab link: error: argument action: invalid choice: 'bogus' (choose "
       "from 'eps', 'shift', 'fres', 'fdisp', 'unc')\n"),
    ("link -h eps", 0, LINK_HELP, ""),
    ("link eps -h", 0, EPS_HELP, ""),
    ("link eps", 2, "", EPS_USAGE + "timedata-lab link eps: error: the following "
     "arguments are required: --progress, --range\n"),
    ("sheet -h", 0, SHEET_HELP, ""),
    ("sheet", 2, "", SHEET_USAGE + "timedata-lab sheet: error: the following "
     "arguments are required: --config, --progress, --out\n"),
    ("link eps --progress 1 --range 2 extra", 2, "", TOP_USAGE
     + "timedata-lab: error: unrecognized arguments: extra\n"),
    ("sheet --config c --progress 1 --out o extra", 2, "", TOP_USAGE
     + "timedata-lab: error: unrecognized arguments: extra\n"),
    ("link eps --progress 1 --range 2 -- extra", 2, "", TOP_USAGE
     + "timedata-lab: error: unrecognized arguments: -- extra\n"),
    ("link eps --bogus", 2, "", EPS_USAGE + "timedata-lab link eps: error: the "
     "following arguments are required: --progress, --range\n"),
]


@pytest.mark.parametrize("argv,code,stdout,stderr", HELP_AND_USAGE,
                         ids=[a or "none" for a, *_ in HELP_AND_USAGE])
def test_help_and_usage_transcript(capsys, monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    assert _run(capsys, argv.split()) == (code, stdout, stderr)


@st.composite
def _parser_argv(draw):
    """A leaf's argv with every flag set to 1, cut short anywhere, then that
    leaf's flags (alone, as `--flag=--` or the first one abbreviated), help
    flags, other choices, numbers and junk."""
    command = draw(st.sampled_from(list(COMMANDS)))
    actions = COMMANDS[command][1]
    action = draw(st.sampled_from(list(actions)))
    flags = ["--" + name for name, _, _ in actions[action][0]]
    head = [command] + [action] * (action is not None) + [
        token for flag in flags for token in (flag, "1")]
    tokens = (flags + [flag + "=--" for flag in flags] + [flags[0][:6]]
              + list(COMMANDS) + [a for a in actions if a]
              + ["-h", "--help", "--he", "--", "bogus", "1", "-1", "-1e5"])
    return head[:draw(st.integers(0, len(head)))] + draw(
        st.lists(st.sampled_from(tokens), max_size=4))


def _parsed(parse, argv):
    """The namespace without `command` and `action`, or the exit code, and
    what parse wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
            result.pop("command", None)
            result.pop("action", None)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_parser_argv())
def test_parser_built_for_argv_reads_it_as_the_whole_tree(argv):
    joined = list(argv)  # _parse joins the leaf's negative values in place
    leaf = _parsed(cli._parse, joined)
    assert leaf == _parsed(build_parser().parse_args, joined)


def test_leaf_argv_builds_one_parser(capsys, monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert main(["link", "eps", "--progress", "16", "--range", "8.3"]) == 0
    assert capsys.readouterr().out == "1.328000 Lm\n"
    assert built == ["timedata-lab link eps"]


@pytest.mark.parametrize("argv,stderr", TYPED_ERRORS,
                         ids=[" ".join(a) for a, _ in TYPED_ERRORS])
def test_typed_error_transcript(capsys, argv, stderr):
    assert _run(capsys, argv) == (1, "", stderr)


def test_negative_values_join_only_the_leaf_flags(capsys):
    # Unknown flags and non-numbers after a flag give argparse's own errors.
    code, out, err = _run(capsys, ["geom", "slope", "--x1", "1", "--y1", "1", "--x2",
                                   "1", "--y2", "1", "--bogus", "-1e5"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --bogus -1e5\n")
    code, out, err = _run(capsys, ["geom", "slope", "--x1", "-h"])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --x1: expected one argument\n")


def _assert_probe_shape(capsys, sizes):
    code, out, _ = _run(capsys, ["sort", "probe", "--sizes",
                                 ",".join(map(str, sizes)), "--seed", "0"])
    assert code == 0
    lines = out.splitlines()
    for n, line in zip(sizes, lines):
        assert re.fullmatch(rf"n = {n}: \S+ s", line), line
    assert len(lines) in (2, 3)
    if len(lines) == 3:
        assert re.fullmatch(r"log-log slope: -?\d+\.\d{4}", lines[2]), lines[2]


def test_sort_probe_shape(capsys):
    _assert_probe_shape(capsys, (2000, 4000))


def test_sort_probe_fewer_elements_than_partitions(capsys):
    # The probe sorts one partition, so sizes below the old fixed 4 succeed.
    _assert_probe_shape(capsys, (2, 3))


def test_sheet_and_chart_transcript(capsys, tmp_path):
    config = tmp_path / "targets.ini"
    config.write_text(SUN_MOON_INI)
    csv_path, svg_path = tmp_path / "t.csv", tmp_path / "t.svg"
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", PROGRESS,
                         "--out", str(csv_path)]) == (
        0, f"wrote 28 records to {csv_path}\n", "")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == CSV_SHA256
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        0, f"wrote radar chart to {svg_path}\n", "")
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == SVG_SHA256


def test_sheet_and_chart_typed_errors(capsys, tmp_path):
    config = tmp_path / "targets.ini"
    config.write_text(SUN_MOON_INI)
    missing = tmp_path / "nope.ini"
    csv_path = tmp_path / "small.csv"
    assert _run(capsys, ["sheet", "--config", str(missing), "--progress", "16",
                         "--out", str(csv_path)]) == (
        1, "", f"error: cannot read config file {str(missing)!r}\n")
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "16",
                         "--out", str(csv_path)]) == (
        0, f"wrote 2 records to {csv_path}\n", "")
    assert _run(capsys, ["chart", "--in", str(csv_path),
                         "--out", str(tmp_path / "small.svg")]) == (
        1, "", "error: radar chart needs >= 3 records, got 2\n")


# (config text, stderr with {path} for the config's path) of configs that
# `sheet` rejects.
BAD_CONFIGS = [
    ("[target.Sun]\ndistance_km = abc\nrange_lm = 8.3\n",
     "error: [target.Sun] distance_km in {path!r}: "
     "could not convert string to float: 'abc'\n"),
    ("[target.Sun]\ndistance_km = 1.46e8\n",
     "error: [target.Sun] range_lm in {path!r}: "
     "No option 'range_lm' in section: 'target.Sun'\n"),
    ("distance_km = 1.46e8\n",
     "error: File contains no section headers. file: {path!r}, line: 1 "
     "'distance_km = 1.46e8\\n'\n"),
    ("[target.Sun]\ndistance_km = 1e-320\nrange_lm = 8.3\n",
     "error: frequency resolution overflows: c / 1.60077e-321 km\n"),
    ("[defaults]\nbase_time = 1%\n[target.Sun]\ndistance_km = 1.46e8\nrange_lm = 8.3\n",
     "error: expected HH:MM:SS, got '1%'\n"),
]


@pytest.mark.parametrize("text,stderr", BAD_CONFIGS,
                         ids=["bad number", "missing key", "no section",
                              "tiny distance", "percent base time"])
def test_bad_config_transcript(capsys, tmp_path, text, stderr):
    config = tmp_path / "bad.ini"
    config.write_text(text)
    csv_path = tmp_path / "t.csv"
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "16",
                         "--out", str(csv_path)]) == (
        1, "", stderr.format(path=str(config)))
    assert not csv_path.exists()


GOOD_ROW = ["Sun", "16", '"f(x,y)|Sun"', "13:33:40", "1.328", "80", "0.0128425",
            "0.00244618"]


# (column, cell, message): non-numeric cells in the plain numeric columns
# get float's own message, nan and inf cells in any numeric column another.
BAD_CELLS = [
    (1, "abc", "could not convert string to float: 'abc'"),
    (4, "#Div/0!", "could not convert string to float: '#Div/0!'"),
    (5, "", "could not convert string to float: ''"),
    (4, "inf", "not finite: 'inf'"),
    (6, "nan", "not finite: 'nan'"),
]


@pytest.mark.parametrize("column,cell,message", BAD_CELLS,
                         ids=["progress_pct", "epsilon_lm", "delta_t_s",
                              "epsilon_lm inf", "nu_dw_hz nan"])
def test_bad_csv_cell_transcript(capsys, tmp_path, column, cell, message):
    bad_row = GOOD_ROW[:column] + [cell] + GOOD_ROW[column + 1:]
    csv_path, svg_path = tmp_path / "bad.csv", tmp_path / "bad.svg"
    csv_path.write_text("\n".join([CSV_HEADER] + [",".join(GOOD_ROW)] * 2
                                  + [",".join(bad_row)]) + "\n")
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        1, "", f"error: line 4: {message}\n")
    assert not svg_path.exists()


def test_chart_of_cells_spanning_more_than_a_float(capsys, tmp_path):
    rows = [GOOD_ROW[:4] + [eps] + GOOD_ROW[5:] for eps in ("1e308", "-1e308", "0")]
    csv_path, svg_path = tmp_path / "wide.csv", tmp_path / "wide.svg"
    csv_path.write_text("\n".join([CSV_HEADER] + [",".join(r) for r in rows]) + "\n")
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        0, f"wrote radar chart to {svg_path}\n", "")
    ET.parse(svg_path)
    assert "nan" not in svg_path.read_text()


def test_chart_over_the_spoke_cap(capsys, tmp_path):
    csv_path, svg_path = tmp_path / "big.csv", tmp_path / "big.svg"
    csv_path.write_text("\n".join([CSV_HEADER] + [",".join(GOOD_ROW)] * 1501) + "\n")
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        1, "", "error: radar chart takes <= 1500 records, got 1501\n")
    assert not svg_path.exists()


def test_chart_of_a_cell_over_the_field_limit(capsys, tmp_path):
    csv_path, svg_path = tmp_path / "huge.csv", tmp_path / "huge.svg"
    row = ["x" * 200_000] + GOOD_ROW[1:]
    csv_path.write_text("\n".join([CSV_HEADER] + [",".join(row)] * 3) + "\n")
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        1, "", "error: line 2: field larger than field limit (131072)\n")
    assert not svg_path.exists()


def test_chart_escapes_target_names(capsys, tmp_path):
    config = tmp_path / "targets.ini"
    config.write_text("[target.A<&B]\ndistance_km = 1e8\nrange_lm = 1\n")
    csv_path, svg_path = tmp_path / "t.csv", tmp_path / "t.svg"
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "8,16,24",
                         "--out", str(csv_path)])[0] == 0
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        0, f"wrote radar chart to {svg_path}\n", "")
    labels = [e.text for e in ET.parse(svg_path).getroot()
              if e.tag == "{http://www.w3.org/2000/svg}text"]
    assert labels[:3] == ["A<&B 8%", "A<&B 16%", "A<&B 24%"]


def test_chart_refuses_target_names_xml_cannot_carry(capsys, tmp_path):
    config = tmp_path / "targets.ini"
    config.write_text("[target.A\x01B]\ndistance_km = 1e8\nrange_lm = 1\n")
    csv_path, svg_path = tmp_path / "t.csv", tmp_path / "t.svg"
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "8,16,24",
                         "--out", str(csv_path)])[0] == 0
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        1, "", "error: target name 'A\\x01B' holds a character XML cannot carry\n")
    assert not svg_path.exists()


def test_file_error_transcript(capsys, tmp_path):
    config, csv_path, svg_path = (tmp_path / n for n in ("t.ini", "t.csv", "t.svg"))
    config.write_text(SUN_MOON_INI)
    missing = tmp_path / "nope.csv"
    assert _run(capsys, ["chart", "--in", str(missing), "--out", str(svg_path)]) == (
        1, "", f"file error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    missing = tmp_path / "no" / "t.csv"
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "16",
                         "--out", str(missing)]) == (
        1, "", f"file error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    not_utf8 = ("file error: 'utf-8' codec can't decode byte 0xff in position 0: "
                "invalid start byte\n")
    config.write_bytes(b"\xff\xfe" + SUN_MOON_INI.encode("utf-16-le"))
    assert _run(capsys, ["sheet", "--config", str(config), "--progress", "16",
                         "--out", str(csv_path)]) == (1, "", not_utf8)
    assert not csv_path.exists()
    csv_path.write_bytes(b"\xff\xfe" + CSV_HEADER.encode("utf-16-le"))
    assert _run(capsys, ["chart", "--in", str(csv_path), "--out", str(svg_path)]) == (
        1, "", not_utf8)
    assert not svg_path.exists()


# Plain float draws favour small values, so half the draws are spread
# evenly over every decimal exponent of a float.
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-9.99, 9.99), st.integers(-323, 307)))
_STAMP = st.times().map(lambda t: t.strftime("%H:%M:%S"))
# Flag type -> strategy for its text; every other type is a list of finite
# floats (`_csv_of(finite_float)`), half the time all of them in [0, 100].
_FLAG_TEXT = {
    finite_float: _FINITE.map(repr),
    float: st.floats().map(repr),
    int: st.integers(-10**400, 10**400).map(str),
    str: st.one_of(_STAMP, st.text()),
}
_FLOAT_LIST = st.one_of(st.lists(_FINITE, max_size=8),
                        st.lists(st.floats(0, 100), min_size=1, max_size=8)).map(
    lambda v: ",".join(map(repr, v)))
# Files are drawn valid, and half the time one cell is replaced by a bad one.
_NAME = st.text("abXY<&>", min_size=1, max_size=4)
_RESOLUTION = st.one_of(_FINITE.map(repr), st.sampled_from([DIV0, DIVERGES]))
_BAD = st.one_of(_FINITE.map(repr), st.text(),
                 st.sampled_from([DIV0, DIVERGES, "nan", "inf", "%", ""]))


def _spoiled(draw, cells):
    if cells and draw(st.booleans()):
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_BAD)
    return cells


_TARGET = st.tuples(_NAME, st.floats(1.0, 1e9).map(repr),
                    st.floats(1e-3, 60.0).map(repr))
_ROW = st.tuples(_NAME, st.floats(0, 100).map(repr), st.text(max_size=4), _STAMP,
                 _FINITE.map(repr), _FINITE.map(repr), _RESOLUTION, _RESOLUTION)


@st.composite
def _config_text(draw):
    targets = draw(st.lists(_TARGET, min_size=1, max_size=3))
    base_time, *cells = _spoiled(draw, [draw(_STAMP)] + [c for t in targets for c in t])
    lines = ["[defaults]", f"base_time = {base_time}"]
    for name, distance, range_lm in zip(*[iter(cells)] * 3):
        lines += [f"[target.{name}]", f"distance_km = {distance}",
                  f"range_lm = {range_lm}"]
    return "\n".join(lines) + "\n"


@st.composite
def _csv_text(draw):
    cells = _spoiled(draw, [c for row in draw(st.lists(_ROW, max_size=6)) for c in row])
    text = io.StringIO()
    csv.writer(text).writerows([CSV_HEADER.split(",")] + list(zip(*[iter(cells)] * 8)))
    return text.getvalue()


# Strategy for the text of the file that each input-file flag names.
_FILE_TEXT = {"config": _config_text(), "in": _csv_text()}
# `sort probe` allocates its sizes. Half the draws are `sheet` or `chart`,
# which read and write files.
_LEAVES = [(command, action, flags)
           for command, (_, actions) in COMMANDS.items()
           for action, (flags, _) in actions.items()
           if (command, action) != ("sort", "probe")]
_LEAF = st.one_of(st.sampled_from([leaf for leaf in _LEAVES if leaf[1] is not None]),
                  st.sampled_from([leaf for leaf in _LEAVES if leaf[1] is None]))


@st.composite
def _argv(draw, directory):
    """A leaf's argv; each value follows its flag as `--flag=value` or, half
    the time, as a separate token. Input files are written to directory."""
    command, action, flags = draw(_LEAF)
    argv = [command] + [action] * (action is not None)
    for name, type_, _ in flags:
        if name in _FILE_TEXT or name == "out":
            value = os.path.join(directory, name)
            if name in _FILE_TEXT:
                with open(value, "w", encoding="utf-8") as fh:
                    fh.write(draw(_FILE_TEXT[name]))
        elif draw(st.integers(0, 9)) == 0:
            value = "--"  # the argparse of Python 3.10 and 3.11 drops `--flag=--`
        else:
            value = draw(_FLAG_TEXT.get(type_, _FLOAT_LIST))
        argv += [f"--{name}", value] if draw(st.booleans()) else [f"--{name}={value}"]
    return argv


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.data())
def test_generated_argv_exits_cleanly(data):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(_argv(directory))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2)
    assert not re.search(r"\b(inf|nan)\b", out.getvalue(), re.I), out.getvalue()
