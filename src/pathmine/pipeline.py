"""Batch extraction pipeline: requests in, realized path sequences out.

Requests stream through a bounded thread pool over the shared immutable
graph, at most two per worker read ahead; results come in input order.
Every per-path random draw comes from a generator seeded by (config seed,
request index, tree index), so output bytes are identical for any worker
count.

Threads pay only where numpy releases the interpreter lock (on 2 CPUs,
two workers ran long contexts 1.3-1.45x as fast as one, short requests
0.6-0.8x), and the pool never outnumbers the CPUs this process may use.
"""

from __future__ import annotations

import functools
import json
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, get_type_hints

import numpy as np

# ground_pair calls tokenize and extract_concepts through this module's
# names, which is where perfbench/tracer.py hooks them
from .grounding import (
    DEFAULT_MAX_NGRAM,
    GroundedPair,
    extract_concepts,
    load_stopwords,
    tokenize,
)
from .kg import KnowledgeGraph, WalkStats
from .scoring import ScoredTree, score_tree
from .selector import PathSelection, realize_selection, select_paths
from .tree import BuildConfig, build_tree

# the packaged list, read on first use
_packaged_stopwords = functools.lru_cache(maxsize=1)(load_stopwords)


def ground_pair(
    context: str,
    query: str,
    g: KnowledgeGraph,
    max_ngram: int = DEFAULT_MAX_NGRAM,
    stopwords: frozenset[str] | None = None,
) -> GroundedPair:
    """Ground a context/query pair; query concepts keep first-occurrence order.

    The context counts span the graph only for a pair that can grow a tree:
    with no context token or no query concept they are empty."""
    if stopwords is None:
        stopwords = _packaged_stopwords()
    ctx = extract_concepts(tokenize(context), g, max_ngram, stopwords)
    # mentions keep first-mention order; counts are irrelevant for the query
    query_concepts = extract_concepts(tokenize(query), g, max_ngram, stopwords).mentions.tolist()
    counts = np.zeros(0, dtype=np.int32)
    if ctx.source_len and query_concepts:
        counts = np.zeros(g.node_count, dtype=np.int32)
        counts[ctx.mentions] = ctx.counts
    return GroundedPair(ctx, query_concepts, counts)


def _json(text: str):
    """``json.loads``, with nesting too deep for the parser a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nests too deeply") from None


@dataclass(frozen=True)
class Config:
    lang: str = "en"
    max_ngram: int = DEFAULT_MAX_NGRAM
    max_children_per_node: int = BuildConfig.max_children_per_node
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
            path = self.stopword_path
            stopwords = _packaged_stopwords() if path is None else load_stopwords(path)
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
class ExtractionResult:
    id: str | None
    paths: list[list[str]]
    error: str | None = None
    stats: dict = field(default_factory=dict)

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
        return ground_pair(context, query, self.graph, self.config.max_ngram, self.config.stopwords)

    def analyze(
        self, pair: GroundedPair, request_index: int = 0
    ) -> tuple[ScoredTree, list[PathSelection]] | None:
        """Build and score one forest over the pair's query concepts, then
        select each root's paths: the scored forest and one selection per
        root in root order, or None when the context has no token or no
        query concept grounds."""
        if pair.context_mentions.source_len == 0 or not pair.query_concepts:
            return None
        forest = build_tree(pair.query_concepts, pair, self.graph, self.config.build)
        scored = score_tree(forest, pair, self.graph, self.stats)
        selections: list[PathSelection] = []
        for root, full in enumerate(select_paths(scored, pair, self.graph, self.config.build)):
            if full:
                rng = np.random.default_rng([self.config.seed, request_index, root])
                selections.append(realize_selection(full, self.graph, rng))
            else:
                # a bare root has no path: skip seeding a generator never drawn from
                selections.append(PathSelection(full_paths=[], truncations=[], realized=[]))
        return scored, selections

    def extract(self, request: ExtractionRequest, request_index: int = 0) -> ExtractionResult:
        try:
            result = self.analyze(self.ground(request.context, request.query), request_index)
        except Exception as exc:  # per-request failures never abort a batch
            return ExtractionResult(id=request.id, paths=[], error=f"{type(exc).__name__}: {exc}")
        scored, selections = result or (None, [])
        paths = [tokens for selection in selections for tokens in selection.realized]
        if self.config.max_total_paths is not None:
            paths = paths[: self.config.max_total_paths]
        forest = scored.tree if scored is not None else None
        stats = {
            "trees": len(selections),
            "tree_nodes": forest.node_count + int(forest.level5.count.sum()) if forest else 0,
            "full_paths": sum(len(s.full_paths) for s in selections),
            "truncations": sum(len(s.truncations) for s in selections),
        }
        return ExtractionResult(id=request.id, paths=paths, stats=stats)


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

    ``workers`` is capped at the CPUs this process may use.  ``lines``
    streams: one worker reads a line per result, a pool at most
    ``2 * workers`` lines ahead of the result it yields.
    """

    def process(item: tuple[int, str | bytes]) -> ExtractionResult:
        index, line = item
        try:
            # UnicodeDecodeError is a ValueError
            request = parse_request_line(line if isinstance(line, str) else line.decode("utf-8"))
        except ValueError as exc:
            return ExtractionResult(id=None, paths=[], error=f"bad request: {exc}")
        return extractor.extract(request, request_index=index)

    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    workers = min(workers, len(cpus))
    if workers <= 1:
        yield from map(process, enumerate(lines))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # a window of futures in input order, refilled one per result
        items = enumerate(lines)
        pending = deque(pool.submit(process, item) for item in islice(items, 2 * workers))
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(process, item) for item in islice(items, 1))
