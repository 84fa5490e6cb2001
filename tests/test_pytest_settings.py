"""The pytest settings in pyproject.toml let every test report, also after a
failing Hypothesis test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

PROPERTY_FILE = """\
from hypothesis import given, strategies as st


def test_before():
    pass


@given(st.integers())
def test_fails(n):
    assert n != n


def test_after():
    pass
"""


def test_a_failing_property_test_lets_the_next_test_report(tmp_path):
    (tmp_path / "test_order.py").write_text(PROPERTY_FILE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_order.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "PASSED test_order.py::test_after" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 2 passed")
    assert proc.returncode == 1  # tests failed; an internal error exits 3
