"""Child processes of the benchmark.

    python3 perfbench/child.py dump <dir> <lines> <concepts> <hub_pool> <seed>
    python3 perfbench/child.py build <dump> <index> [<spans.jsonl>]

``dump`` writes ``<dir>/dump.tsv`` with the criterion-7 generator of
``tests/test_acceptance.py`` and parses it into the edge keys the output
check uses.  ``build`` runs ``pathmine build-index`` through ``cli.main``;
given a spans file it traces the build and writes the spans there.  The
last line of stdout is a JSON report; a build reports its exit code and
the child's peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from checkout import CheckoutError, import_pathmine


def dump(out_dir: str, lines: str, concepts: str, hub_pool: str, seed: str) -> dict:
    from test_acceptance import _write_synthetic_dump

    from inputs import parse_dump

    path = Path(out_dir) / "dump.tsv"
    _write_synthetic_dump(path, n_lines=int(lines), n_concepts=int(concepts),
                          hub_pool=int(hub_pool), seed=int(seed))
    parse_dump(path, Path(out_dir), int(concepts))
    return {"dump": str(path)}


def build(dump_path: str, index_path: str, spans_path: str | None = None) -> dict:
    from pathmine import cli

    argv = ["build-index", dump_path, "-o", index_path]
    if spans_path is None:
        code = cli.main(argv)
    else:
        from tracer import BUILD_HOOKS, Tracer

        tracer = Tracer()
        tracer.install(BUILD_HOOKS)
        try:
            code = cli.main(argv)
        finally:
            tracer.restore()
        tracer.write(spans_path)
    return {"exit": code, "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def main(argv: list[str]) -> int:
    try:
        import_pathmine()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    command, *rest = argv
    report = {"dump": dump, "build": build}[command](*rest)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
