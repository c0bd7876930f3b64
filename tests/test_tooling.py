"""The test harness itself: a failing test must be reported, not abort the run."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_under_repo_ini(tmp_path):
    # hypothesis reports a failure through modules that warn on import; with
    # warnings as errors that used to end the session with INTERNALERROR
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(tmp_path / "test_prop.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out[-2000:]
    assert "1 failed" in out
