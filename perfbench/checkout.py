"""Locate the checkout the benchmark belongs to and import its pathmine.

The benchmark always measures the code in ``<checkout>/src``.  Importing
some other installed copy would time the wrong program, so the import is
checked and the benchmark refuses to run when it does not resolve there.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
TESTS = ROOT / "tests"
CACHE = BENCH_DIR / ".cache"


class CheckoutError(RuntimeError):
    """The checkout lacks the program the benchmark measures."""


def import_pathmine():
    """Import ``pathmine`` from this checkout's ``src/`` or raise CheckoutError."""
    package = SRC / "pathmine" / "__init__.py"
    if not package.is_file():
        raise CheckoutError(f"no pathmine package under {SRC}")
    for path in (str(TESTS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import pathmine

    if Path(pathmine.__file__).resolve() != package.resolve():
        raise CheckoutError(f"pathmine imported from {pathmine.__file__}, not from {SRC}")
    return pathmine


def tree_digest(*paths: Path) -> str:
    """sha256 over the relative names and bytes of every source file given.

    Directories are walked; bytecode caches and build metadata are skipped,
    so the digest changes exactly when a source file changes.
    """
    h = hashlib.sha256()
    for top in paths:
        files = [top] if top.is_file() else sorted(p for p in top.rglob("*") if p.is_file())
        for f in files:
            if "__pycache__" in f.parts or f.suffix == ".pyc" or any(
                part.endswith(".egg-info") for part in f.parts
            ):
                continue
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
            h.update(b"\0")
    return h.hexdigest()
