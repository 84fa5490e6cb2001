"""Imports every local module before the first test runs. Hypothesis adds the
literal constants of each local module in sys.modules to its draws, so without
this a test's examples, derandomized or not, would change with the modules the
tests before it happened to load."""

import importlib
import pkgutil
import sys
from pathlib import Path

import timedata_lab

PERFBENCH = str(Path(__file__).parent / "perfbench")
sys.path.insert(0, PERFBENCH)  # as for its tests: its modules import each other by name
for info in [*pkgutil.iter_modules(timedata_lab.__path__, "timedata_lab."),
             *pkgutil.iter_modules([PERFBENCH])]:
    if not info.name.startswith("test_"):
        importlib.import_module(info.name)
