"""Command-line interface: build-index, extract, explain.

Exit codes are a stable contract: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import gzip
import sys
from typing import IO, Iterator

import click

from .kg import PathmineError, WalkStats, ingest_csv, load_index, save_index
from .pipeline import Config, ExtractionRequest, Extractor, run_batch
from .scoring import SCORE_SENTINEL
from .selector import top_children, top_leaves

USAGE_ERROR = 1
DATA_ERROR = 2


def _config_from_options(config_path: str | None, **overrides) -> Config:
    """The file's config (or the defaults) with every given flag on top; any
    invalid value is a usage error."""
    given = {name: value for name, value in overrides.items() if value is not None}
    try:
        return Config.from_file(config_path, **given) if config_path else Config(**given)
    except ValueError as exc:
        raise click.UsageError(f"invalid config: {exc}") from exc


def _open_dump(path: str) -> IO[bytes]:
    if path.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


@click.group()
def cli() -> None:
    """Mine grounded multi-hop concept paths from a knowledge graph."""


@cli.command("build-index")
@click.argument("dump", type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "-o", required=True, type=click.Path(dir_okay=False))
@click.option("--lang", default=None, help="Language tag to keep (default en).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
def build_index_cmd(dump: str, output: str, lang: str | None, config_path: str | None) -> None:
    """Ingest an assertion dump and write a versioned binary index."""
    config = _config_from_options(config_path, lang=lang)
    with _open_dump(dump) as fh:
        graph, report = ingest_csv(fh, config.lang)
    stats = WalkStats.from_graph(graph)
    save_index(graph, output, stats)
    click.echo(
        f"ingested {report.summary()}; concepts={graph.node_count} "
        f"relations={len(graph.relation_names)}",
        err=True,
    )


@cli.command("extract")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--input", "input_path", required=True, help="JSON-lines requests, or - for stdin.")
@click.option("--output", "output_path", required=True, help="JSON-lines results, or - for stdout.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--max-total-paths", type=int, default=None)
def extract_cmd(
    graph_path: str,
    input_path: str,
    output_path: str,
    config_path: str | None,
    seed: int | None,
    workers: int,
    max_total_paths: int | None,
) -> None:
    """Extract path token sequences for each context/query request."""
    if workers < 1:
        raise click.BadParameter("workers must be >= 1")
    config = _config_from_options(config_path, seed=seed, max_total_paths=max_total_paths)
    graph, stats = load_index(graph_path)
    extractor = Extractor(graph, stats, config)

    if input_path == "-":
        lines = list(_request_lines(sys.stdin.buffer))
    else:
        with open(input_path, "rb") as fh:
            lines = list(_request_lines(fh))

    out = sys.stdout if output_path == "-" else open(output_path, "w", encoding="utf-8")
    try:
        for result in run_batch(extractor, lines, workers=workers):
            out.write(result.to_json())
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _request_lines(fh: IO[bytes]) -> Iterator[str | bytes]:
    """The non-blank lines of a request stream, split at \\n, \\r or \\r\\n
    and decoded one at a time.  A line that is not UTF-8 is passed on as
    bytes, which ``run_batch`` answers with a bad-request result."""
    for chunk in fh:
        for raw in chunk.splitlines():
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                yield raw
                continue
            if line.strip():
                yield line


@cli.command("explain")
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--context", required=True)
@click.option("--query", required=True)
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None)
def explain_cmd(
    graph_path: str, context: str, query: str, config_path: str | None, seed: int | None
) -> None:
    """Print every scored tree with per-node scores and keep/drop decisions."""
    try:
        ExtractionRequest(context=context, query=query)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    config = _config_from_options(config_path, seed=seed)
    graph, stats = load_index(graph_path)
    extractor = Extractor(graph, stats, config)
    click.echo(render_explanation(extractor, context, query))


def render_explanation(extractor: Extractor, context: str, query: str) -> str:
    graph = extractor.graph
    result = extractor.analyze(context, query)
    if result is None:
        pair = extractor.ground(context, query)
        if pair.context_mentions.source_len == 0:
            return "context has no tokens; no paths"
        return "no query concepts grounded; no paths"
    scored, selections = result
    tree = scored.tree
    sizes = tree.sizes()

    def fmt(value: float) -> str:
        return "-inf" if value == SCORE_SENTINEL else f"{value:.6f}"

    def line(depth, concept, rel, raw, n, c, kept) -> str:
        return (
            f"{'  ' * depth}{graph.surfaces[concept]} via {graph.relation_names[rel]} "
            f"raw={fmt(raw)} n={fmt(n)} c={fmt(c)} [{'kept' if kept else 'dropped'}]"
        )

    lines: list[str] = []
    for root, selection in enumerate(selections):
        root_surface = graph.surfaces[tree.concepts[root]]
        lines.append(f"tree rooted at {root_surface!r} ({sizes[root]} nodes)")
        lines.append(f"{root_surface} (root)")
        # depth-first with an explicit stack: a recursive closure would form a
        # reference cycle holding the tree until the next full collection
        stack = [(root, 0, True)]
        while stack:
            idx, depth, kept = stack.pop()
            if depth:
                lines.append(line(depth, tree.concepts[idx], tree.rels[idx], scored.raw[idx],
                                  scored.n_score[idx], scored.c_score[idx], kept))
            # level-5 children are leaves, re-grown for this node alone
            best, l5 = top_leaves(scored, idx) if kept else (), tree.level5
            for p, r, v in zip(*scored.level5_scores(idx)):
                lines.append(line(depth + 1, l5.concepts[p], l5.rels[p], r, v, v, p in best))
            kept_set = set(top_children(scored, idx)) if kept else set()
            for child in range(tree.child_end[idx] - 1, tree.child_start[idx] - 1, -1):
                stack.append((child, depth + 1, child in kept_set))  # the first child pops first
        if selection.full_paths:
            lines.append("selected paths:")
            for tokens in selection.realized:
                lines.append("  " + " ".join(tokens))
        else:
            lines.append("no paths")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Entry point with the stable exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return USAGE_ERROR
    except click.Abort:
        return USAGE_ERROR
    except click.ClickException as exc:
        exc.show()
        return USAGE_ERROR
    except (PathmineError, OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return DATA_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
