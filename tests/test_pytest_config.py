"""The suite's pytest settings let a failing property report its example
(on a CI host, with the blob that replays it) and fail the run on a
passing xfail."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""

PASSING_XFAIL = """
import pytest


@pytest.mark.xfail(reason="fixed since")
def test_passes():
    pass
"""


def run_suite(tmp_path, source, **env):
    """pytest under the suite's settings on one test file holding ``source``,
    with ``env`` added to the environment."""
    (tmp_path / "test_case.py").write_text(source)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, env={**os.environ, **env},
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    return result.returncode, output


def test_failing_property_reports_its_example(tmp_path):
    code, output = run_suite(tmp_path, FAILING_PROPERTY)
    assert "Falsifying example" in output
    assert code == 1


def test_ci_host_prints_the_blob_that_replays_a_failure(tmp_path):
    """Where ``CI`` is set, as on GitHub Actions, hypothesis loads its own
    ``ci`` profile: the same examples every run, and a replay blob."""
    code, output = run_suite(tmp_path, FAILING_PROPERTY, CI="true")
    assert "Falsifying example" in output and "@reproduce_failure" in output
    assert code == 1


def test_passing_xfail_without_strict_fails_the_run(tmp_path):
    code, output = run_suite(tmp_path, PASSING_XFAIL)
    assert "[XPASS(strict)] fixed since" in output
    assert code == 1
