"""The test harness itself: a failing test must be reported, not abort the run."""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "pathmine"


def test_sources_parse_as_the_oldest_supported_python():
    # requires-python is >=3.10; CI's 3.10 job is the only other check
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_copy_under_another_name_reads_its_own_stopwords(tmp_path):
    # a copy of the package imported under another name, with no
    # ``pathmine`` importable, finds the stopword list packaged with it
    shutil.copytree(PACKAGE, tmp_path / "pathmine_copy", ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import sys\n"
        "sys.modules['pathmine'] = None  # import pathmine now fails\n"
        "from pathmine_copy import Config\n"
        "assert {'a', 'the'} <= Config().stopwords\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


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
