import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import timedata_lab
from timedata_lab import analysis, cli, memtiming, ptvda
from timedata_lab.cli import load_config, main
from timedata_lab.errors import LARGEST, DomainError, finite_text

SUN_INI = """\
[defaults]
base_time = 13:35:00

[target.Sun]
distance_km = 1.46e8
range_lm = 8.3
"""


def test_load_config(tmp_path):
    path = tmp_path / "sun.ini"
    path.write_text(SUN_INI)
    targets, base_time = load_config(str(path))
    assert len(targets) == 1
    assert targets[0].name == "Sun"
    assert targets[0].distance_km == 1.46e8
    assert str(base_time) == "13:35:00"


def _allocated_text(arrivals):
    """mem waterfall's text through an identity cell map (cell i at address i and
    rank i), or the DomainError's text."""
    try:
        cells = memtiming.CellMap(enumerate(range(len(arrivals))))
        carriers = [memtiming.Carrier(i, t) for i, t in enumerate(arrivals)]
        alloc = memtiming.waterfall_allocate(carriers, cells)
    except DomainError as exc:
        return str(exc)
    return "\n".join(f"carrier {i} -> cell {alloc[i]}" for i in sorted(alloc))


# Arrivals as --arrivals gives them: a tuple of floats, which tie often here.
@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324, LARGEST]),
                          st.floats(0), st.floats()), max_size=70).map(tuple))
def test_waterfall_prints_the_identity_cell_map_allocation(arrivals):
    try:
        text = cli._waterfall(types.SimpleNamespace(arrivals=arrivals))
    except DomainError as exc:
        text = str(exc)
    assert text == _allocated_text(arrivals)


# sort run prints its values as finite_text prints each, in order. Values as --values
# gives them, written by repr, which reads back to the same float: subnormals, signed
# zeros and +-LARGEST, often with a sum that overflows.
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, LARGEST,
                                           -LARGEST, 1e308, -1e308]),
                          st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307)),
                max_size=100), st.integers(1, 4))
@example([1e308, 1e308, -0.0, 0.0, 5e-324], 2)
def test_sort_run_prints_each_value_as_finite_text(capsys, values, partitions):
    argv = ["sort", "run", "--values", ",".join(map(repr, values)),
            "--partitions", str(partitions)]
    try:
        ptvda.SortInstance(values, partitions)
    except DomainError as exc:  # more partitions than values
        expected = 1, ("", f"error: {exc}\n")
    else:
        text = ",".join(map(finite_text, sorted(values)))
        expected = 0, (text and text + "\n", "")  # an empty result prints no line
    assert (main(argv), capsys.readouterr()) == expected


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


def test_each_leaf_table_reads_the_flags_argparse_declares_in_order():
    for command, (_, actions) in cli.COMMANDS.items():
        for action, (flags, _) in actions.items():
            leaf = cli.build_parser((command, action) if action else (command,))
            # name, attribute and whether required, against argparse's own actions
            assert [("--" + name, name.replace("-", "_"), default is cli._REQUIRED)
                    for name, _, default in flags] == [
                (option.option_strings[0], option.dest, option.required)
                for option in leaf._actions[1:]]


def test_parse_returns_a_new_namespace_each_call():
    argv = ["rel", "proper", "--dt", "2"]
    first, second = cli._parse(argv), cli._parse(argv)
    assert type(first) is types.SimpleNamespace and first is not second
    assert vars(first) == vars(second) == {
        "run": cli.COMMANDS["rel"][1]["proper"][1], "dt": 2.0, "vx": 0.0, "vy": 0.0, "vz": 0.0}


def test_a_runner_that_changes_its_namespace_leaves_the_defaults():
    argv = ["sort", "probe", "--sizes", "10,20"]
    expected = vars(cli._parse(argv)).copy()
    args = cli._parse(argv)
    args.trials, args.extra = 99, 1  # as a runner could
    del args.seed, args.run
    assert vars(cli._parse(argv)) == expected


def test_sort_probe_runs_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from timedata_lab.cli import main\n"
            "sys.exit(main(['sort', 'probe', '--sizes', '1000,10000', '--seed', '0']))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n = 1000: ")


# What a fresh process imports, under -S so that no .pth file loads a module first:
# each of names that is in sys.modules after the code and was not before it.
LOADED_CODE = """\
import sys
PRELOADED = set(sys.modules)
def ran(names):
    return [name for name in names if name in sys.modules and name not in PRELOADED]
"""
KERNELS = ["configparser"] + ["timedata_lab." + name for name in (
    "analysis", "geomlink", "linkmodel", "memtiming", "optics", "ptvda", "relativity")]
# Modules that a `rel` leaf loads none of: costly ones the package once imported at start.
COSTLY = ["argparse", "dataclasses", "fractions", "importlib.util", "inspect", "random",
          "statistics"]


def _loaded(code):
    proc = subprocess.run([sys.executable, "-S", "-c", LOADED_CODE + code],
                          capture_output=True, text=True, timeout=120, env=_cli_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_leaf_loads_only_the_kernel_it_runs():
    # cli binds each kernel module to a proxy that imports it on the first attribute
    # read and writes the module itself over the proxy in cli's globals.
    assert _loaded(f"""\
from timedata_lab import cli
print(ran({KERNELS!r}))
cli.main(["rel", "gamma", "--beta", "0.6"])
print(ran({KERNELS!r}))
print(ran({COSTLY!r}))
import timedata_lab.optics
print(cli.optics.v_number is timedata_lab.optics.v_number,
      cli.optics is sys.modules["timedata_lab.optics"])
""") == ["[]", "1.25", "['timedata_lab.relativity']", "[]", "True True"]


# argv -> its exit code and what it loads of argparse, re, the probe's modules and the
# kernels: only help and usage errors build an argparse parser, which loads no kernel,
# only `sort probe` draws and fits, and a clock is read without re.
@pytest.mark.parametrize("argv, code, loaded", [
    (["sort", "run", "--values", "3,1,2"], 0, ["timedata_lab.ptvda"]),
    (["sort", "classify", "--n", "5", "--nprime", "7"], 0, ["timedata_lab.ptvda"]),
    (["sort", "probe", "--sizes", "100,200", "--seed", "1"], 0,
     ["re", "random", "statistics", "timedata_lab.ptvda"]),  # re through fractions
    (["-h"], 0, ["argparse", "re"]),
    (["rel", "gamma"], 2, ["argparse", "re"]),
    (["link", "shift", "--time", "13:35:00", "--epsilon", "1.33"], 0,
     ["timedata_lab.linkmodel"]),
], ids=["sort-run", "sort-classify", "sort-probe", "help", "usage-error", "link-shift"])
def test_argparse_random_and_statistics_load_only_where_used(argv, code, loaded):
    names = ["argparse", "re", "random", "statistics"] + KERNELS
    assert _loaded(f"""\
from timedata_lab.cli import main
code = main({argv!r})
print(code, ran({names!r}))
""")[-1] == f"{code} {loaded}"


def _cli_env(unbuffered=True):
    """The test's environment with src on the path and PYTHONUNBUFFERED=1 set, or
    removed: unbuffered, Python writes each print at once instead of at the flush."""
    env = {**os.environ, "PYTHONPATH": str(Path(timedata_lab.__file__).parents[1]),
           "PYTHONUNBUFFERED": "1"}
    if not unbuffered:
        del env["PYTHONUNBUFFERED"]
    return env


def _cli(*argv):
    return [sys.executable, "-m", "timedata_lab.cli", *argv]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_that_leaves_early_gets_exit_1_and_no_traceback(unbuffered):
    # ~390 KB of output against a 64 KiB pipe buffer: the write blocks until
    # the pipe closes, then fails. The argument (~79 KB) fits Linux's 128 KiB.
    # Unbuffered, one write of the text and its newline could come up short
    # without raising; buffered, the failure comes at the flush.
    arrivals = ",".join(map(str, range(15000)))
    proc = subprocess.Popen(
        _cli("mem", "waterfall", "--arrivals", arrivals),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(unbuffered))
    assert proc.stdout.read(10) == b"carrier 0 "
    proc.stdout.close()  # as `| head` does once it has its lines
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), stderr) == (1, b"")


EPS = ("link", "eps", "--progress", "16", "--range", "8.3")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    (EPS, True), (EPS, False), (("-h",), False), (("-h",), True),
], ids=["leaf-unbuffered", "leaf-buffered", "help-buffered", "help-unbuffered"])
def test_full_device_on_stdout_gets_exit_1_and_no_traceback(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(_cli(*argv), stdout=full, stderr=subprocess.PIPE,
                              env=_cli_env(unbuffered), timeout=120)
    assert (proc.returncode, proc.stderr) == (1, b"")  # no `Exception ignored` either


@pytest.mark.skipif(not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
                    reason="no /dev/full or /proc/self/fd")
def test_failed_write_leaves_no_descriptor_open(monkeypatch):
    # The stream that raised is pointed at os.devnull; the descriptor opened
    # for that must not outlive the call, or each failed write in one process
    # keeps one more open.
    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert main(["rel", "gamma", "--beta", "0.6"]) == 1
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("closed", [False, True], ids=["reader-gone", "descriptor-closed"])
def test_chart_whose_warning_cannot_be_written_still_reports_its_chart(tmp_path, closed):
    path, out = tmp_path / "in.csv", tmp_path / "c.svg"
    path.write_text(analysis.CSV_HEADER + "".join(
        f"\nSun,{p},f,13:00:00,{p + 1},60,0.1,#Div/0!" for p in range(3)) + "\n")
    read, write = os.pipe()
    os.close(read)  # the stderr reader has left before the warning
    try:
        proc = subprocess.run(
            _cli("chart", "--in", str(path), "--out", str(out)), stdout=subprocess.PIPE,
            stderr=write, preexec_fn=(lambda: os.close(2)) if closed else None,
            env=_cli_env(), timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stdout) == (1, f"wrote radar chart to {out}\n".encode())
    assert out.read_text().endswith("</svg>\n")


@pytest.mark.parametrize("fd, argv", [
    (2, ("link", "eps", "--progress", "200", "--range", "8.3")),  # a typed error
    (1, ("rel", "gamma", "--beta", "0.6")),  # a success
    (2, ("rel", "gamma")),  # a usage error: its usage text must not go to stdout
    (1, ("-h",)),  # help: its text must not go to stderr
], ids=["stderr", "stdout", "stderr-usage", "stdout-help"])
def test_descriptor_closed_at_start_gets_exit_1_and_no_output(fd, argv):
    # Python sets the stream of a descriptor closed at start to None.
    proc = subprocess.run(_cli(*argv), capture_output=True, env=_cli_env(),
                          preexec_fn=lambda: os.close(fd), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", b"")
