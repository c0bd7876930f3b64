"""The test harness itself: a failing test must be reported, not abort the run."""

from __future__ import annotations

import ast
import importlib.util
import inspect
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


# public names that nothing in the package calls, and why each stays
UNREFERENCED_BY_DESIGN = {
    "build_index_cmd": "a click command callback: click calls it",
    "extract_cmd": "a click command callback: click calls it",
    "explain_cmd": "a click command callback: click calls it",
    "token_count": "perfbench/ reads it for grounding.tokens until it reads a metrics recorder",
    "edge_start": "perfbench/ checks the index through this view until it reads the CSR",
    "edge_rel": "perfbench/ checks the index through this view until it reads the CSR",
    "edge_end": "perfbench/ checks the index through this view until it reads the CSR",
}


def test_every_public_definition_is_used_or_exported():
    # a public function, method or class that the package never names and
    # does not export, or a public dataclass field that it never reads, is
    # code or state the pipeline does not use
    import pathmine

    defined, fields, referenced, read = {}, {}, set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *members]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)) and not item.name.startswith("_"):
                    defined.setdefault(item.name, f"{path.name}:{item.lineno}")
            if members and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                for item in members:
                    if isinstance(item, ast.AnnAssign) and not item.target.id.startswith("_"):
                        fields[f"{node.name}.{item.target.id}"] = f"{path.name}:{item.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    assert set(UNREFERENCED_BY_DESIGN) <= set(defined) and len(fields) > 20
    unused = {
        name: where
        for name, where in defined.items()
        if name not in referenced and name not in pathmine.__all__ and name not in UNREFERENCED_BY_DESIGN
    }
    unread = {name: where for name, where in fields.items() if name.split(".")[1] not in read}
    assert not unused and not unread, (unused, unread)


def test_tracer_hooks_install_and_restore(monkeypatch):
    # perfbench's tracer wraps pipeline functions at the names their
    # callers look them up by; a refactor that moves or renames one makes
    # ``install`` raise HookMissing, which only a traced benchmark run
    # would otherwise show
    spec = importlib.util.spec_from_file_location("tracer", PYPROJECT.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    hooks = tracer.SERVE_HOOKS + tracer.BUILD_HOOKS
    t = tracer.Tracer()
    t.install(hooks)
    try:
        wrapped = [_function(inspect.getattr_static(hook.owner(), hook.attr)) for hook in hooks]
    finally:
        t.restore()
    restored = [_function(inspect.getattr_static(hook.owner(), hook.attr)) for hook in hooks]
    assert all(fn.__wrapped__ is raw for fn, raw in zip(wrapped, restored))


def _function(attr):
    """The function of a class or module attribute, unwrapped from its
    classmethod or staticmethod."""
    return attr.__func__ if isinstance(attr, (classmethod, staticmethod)) else attr
