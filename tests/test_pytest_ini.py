"""The repository's pytest settings report a failing Hypothesis test by name."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small_integers_only(n):
    assert n < 5
"""


def test_a_failing_hypothesis_test_is_named(tmp_path):
    # on a failure the Hypothesis plugin imports code that warns; with
    # warnings as errors that ended the run with INTERNALERROR and no name
    (tmp_path / "test_failing.py").write_text(FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin", "test_failing.py"],
        cwd=tmp_path,
        # the Hypothesis plugin alone, whatever else is installed
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_failing.py::test_small_integers_only" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
