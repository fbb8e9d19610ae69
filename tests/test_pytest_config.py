"""The repository's pytest configuration reports what a failing test needs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_probe_fails(n):
    assert n < 10
"""


def test_a_failing_property_test_names_itself_and_its_example(tmp_path):
    """Under pyproject.toml's filterwarnings a failing @given test is
    reported by id with its falsifying example, not as an INTERNALERROR
    from the warning hypothesis's report hook raises."""
    (tmp_path / "test_probe.py").write_text(_PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_probe.py::test_probe_fails" in run.stdout
    assert "Falsifying example:" in run.stdout
