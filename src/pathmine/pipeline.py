"""Batch extraction pipeline: requests in, realized path sequences out.

Requests are processed by a bounded thread pool over the shared immutable
graph; results are emitted in input order no matter how many workers run.
Every per-path random draw comes from a generator seeded by
(config seed, request index, tree index), so output bytes are identical
for any worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, get_type_hints

import numpy as np

from .grounding import (
    extract_concepts,
    load_stopwords,
    tokenize,
)
from .grounding import GroundedPair
from .kg import KnowledgeGraph, WalkStats
from .scoring import ScoredTree, score_tree
from .selector import PathSelection, realize_selection
from .tree import BuildConfig, PathTree, build_tree


def _json(text: str):
    """``json.loads``, with nesting too deep for the parser a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None


@dataclass(frozen=True)
class Config:
    lang: str = "en"
    max_ngram: int = 4
    max_children_per_node: int = 100
    max_total_paths: int | None = None
    seed: int = 0
    stopword_path: str | None = None

    def __post_init__(self):
        for name, hint in get_type_hints(Config).items():
            value = getattr(self, name)
            # bool is an int subclass, but never a valid count or seed
            if isinstance(value, bool) or not isinstance(value, hint):
                raise ValueError(f"{name} must be {getattr(hint, '__name__', hint)}, got {value!r}")
        if not self.lang:
            raise ValueError("lang must be non-empty")
        if self.max_ngram < 1:
            raise ValueError("max_ngram must be >= 1")
        if self.max_total_paths is not None and self.max_total_paths < 0:
            raise ValueError("max_total_paths must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # BuildConfig checks the cap; the one instance serves every tree
        object.__setattr__(self, "build", BuildConfig(self.max_children_per_node))
        try:
            stopwords = load_stopwords(self.stopword_path)
        except (OSError, ValueError) as exc:  # missing, unreadable or not UTF-8
            raise ValueError(f"stopword_path {self.stopword_path!r}: {exc}") from None
        object.__setattr__(self, "stopwords", stopwords)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "Config":
        with open(path, encoding="utf-8") as fh:
            data = _json(fh.read())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update(overrides)
        return cls(**data)


@dataclass(frozen=True)
class ExtractionRequest:
    context: str
    query: str
    id: str | None = None

    def __post_init__(self):
        if not self.context.strip() or not self.query.strip():
            raise ValueError("context and query must be non-empty")


@dataclass
class TreeAnalysis:
    """One query concept's tree: its root's index in the request's forest,
    the scored forest it shares with its siblings, and its selection;
    explain/debug view."""

    root: int
    tree: PathTree
    scored: ScoredTree
    selection: PathSelection

    @property
    def root_concept(self) -> int:
        return int(self.tree.concepts[self.root])


@dataclass
class ExtractionResult:
    id: str | None
    paths: list[list[str]]
    error: str | None = None
    stats: dict = field(default_factory=dict)
    elapsed: float = 0.0  # kept out of serialized output; wall time varies

    def to_json(self) -> str:
        return json.dumps(
            {"id": self.id, "paths": self.paths, "stats": self.stats, "error": self.error},
            ensure_ascii=False,
            separators=(",", ":"),
        )


class Extractor:
    """Reusable extraction engine bound to one graph and configuration."""

    def __init__(self, graph: KnowledgeGraph, stats: WalkStats, config: Config | None = None):
        self.graph = graph
        self.stats = stats
        self.config = config or Config()

    def ground(self, context: str, query: str) -> GroundedPair:
        ctx = extract_concepts(
            tokenize(context), self.graph, self.config.max_ngram, self.config.stopwords
        )
        query_mentions = extract_concepts(
            tokenize(query), self.graph, self.config.max_ngram, self.config.stopwords
        )
        return GroundedPair(context_mentions=ctx, query_concepts=list(query_mentions.mentions))

    def analyze(self, context: str, query: str, request_index: int = 0) -> list[TreeAnalysis]:
        """Build and score one forest over every grounded query concept, then
        select each tree's paths."""
        pair = self.ground(context, query)
        if pair.context_mentions.source_len == 0 or not pair.query_concepts:
            return []
        forest = build_tree(pair.query_concepts, pair, self.graph, self.config.build)
        scored = score_tree(forest, pair, self.graph, self.stats)
        analyses: list[TreeAnalysis] = []
        for root in range(forest.root_count):
            if forest.child_start[root] == forest.child_end[root]:
                # a bare root has no path: skip seeding a generator never drawn from
                selection = PathSelection(full_paths=[], truncations=[], realized=[])
            else:
                rng = np.random.default_rng([self.config.seed, request_index, root])
                selection = realize_selection(scored, self.graph, rng, root)
            analyses.append(TreeAnalysis(root=root, tree=forest, scored=scored, selection=selection))
        return analyses

    def extract(self, request: ExtractionRequest, request_index: int = 0) -> ExtractionResult:
        started = time.perf_counter()
        try:
            analyses = self.analyze(request.context, request.query, request_index)
        except Exception as exc:  # per-request failures never abort a batch
            return ExtractionResult(
                id=request.id,
                paths=[],
                error=f"{type(exc).__name__}: {exc}",
                elapsed=time.perf_counter() - started,
            )
        paths: list[list[str]] = []
        for analysis in analyses:
            paths.extend(analysis.selection.realized)
        if self.config.max_total_paths is not None:
            paths = paths[: self.config.max_total_paths]
        forest = analyses[0].tree if analyses else None
        stats = {
            "trees": len(analyses),
            "tree_nodes": forest.node_count + int(forest.level5.count.sum()) if forest else 0,
            "full_paths": sum(len(a.selection.full_paths) for a in analyses),
            "truncations": sum(len(a.selection.truncations) for a in analyses),
        }
        return ExtractionResult(
            id=request.id,
            paths=paths,
            stats=stats,
            elapsed=time.perf_counter() - started,
        )


def parse_request_line(line: str) -> ExtractionRequest:
    data = _json(line)
    if not isinstance(data, dict):
        raise ValueError("request line must be a JSON object")
    if "context" not in data or "query" not in data:
        raise ValueError("request needs 'context' and 'query' fields")
    if not isinstance(data["context"], str) or not isinstance(data["query"], str):
        raise ValueError("'context' and 'query' must be strings")
    if not isinstance(data.get("id"), (str, type(None))):
        raise ValueError("'id' must be a string or null")
    # JSON escapes can spell a lone surrogate, which no UTF-8 output can hold
    for name in ("context", "query", "id"):
        try:
            (data.get(name) or "").encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"'{name}' is not valid Unicode (lone surrogate)") from None
    return ExtractionRequest(context=data["context"], query=data["query"], id=data.get("id"))


def run_batch(
    extractor: Extractor, lines: Iterable[str | bytes], workers: int = 1
) -> Iterator[ExtractionResult]:
    """Process JSON-lines requests, preserving input order across workers.

    A ``bytes`` line is decoded as UTF-8 on its own; one that does not
    decode is a bad request, as is a line that is not a JSON request.
    """

    def process(item: tuple[int, str | bytes]) -> ExtractionResult:
        index, line = item
        try:
            # UnicodeDecodeError is a ValueError
            request = parse_request_line(line if isinstance(line, str) else line.decode("utf-8"))
        except ValueError as exc:
            return ExtractionResult(id=None, paths=[], error=f"bad request: {exc}")
        return extractor.extract(request, request_index=index)

    items = list(enumerate(lines))
    if workers <= 1:
        for item in items:
            yield process(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(process, items)
