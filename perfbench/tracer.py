"""Tracing for the per-layer run, installed from outside the program.

Each hook replaces one pathmine function at the name its caller looks it
up by (a module global, a module attribute such as ``kernels.x``, a class
attribute, or the click command's ``callback``) with a wrapper that
records a span: name, start, end, parent span and request.  A span's
counts are read from the call's arguments or result.  Spans stay in
memory until the run ends and ``write`` puts them in a file.
``restore`` puts every original back.

Only ``run.py --trace 1`` and the build child given a spans file import
this module; an untraced run never loads it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from pathmine import SCORE_SENTINEL, BuildConfig

LEVELS = (2, 3, 4, 5)


class HookMissing(RuntimeError):
    """A function the tracer wraps is not where its caller looks it up."""


class CountMismatch(RuntimeError):
    """A count differs between passes over the same inputs."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    request: int | None
    unit: str | None
    # [begin, start) and (end, done] are the tracer's own bookkeeping: not
    # the call's time, and not its parent's self time either
    begin: float = 0.0
    start: float = 0.0
    end: float = 0.0
    done: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Hook:
    """Wrap ``<module>:<object path>.<attr>`` and record spans called ``name``.

    ``self_metric`` receives the span's self time (formatted with the
    span's counts, e.g. its level); ``total_metric`` its whole duration;
    ``calls_metric`` one per call.  ``count`` returns the span's counts:
    keys with a dot are metric names and are summed, others only label it.
    ``before`` runs ahead of the call with the same bound arguments.
    A ``generator`` hook's span runs from the first item asked of the
    generator to its end; it is nobody's parent, as the caller runs
    between items.
    """

    target: str
    attr: str
    name: str
    self_metric: str | None = None
    total_metric: str | None = None
    calls_metric: str | None = None
    count: Callable | None = None
    before: Callable | None = None
    request_root: bool = False
    generator: bool = False

    def owner(self):
        module_name, _, path = self.target.partition(":")
        try:
            obj = importlib.import_module(module_name)
            for part in filter(None, path.split(".")):
                obj = getattr(obj, part)
        except (ImportError, AttributeError) as exc:
            raise HookMissing(f"cannot resolve {self.target}: {exc}") from exc
        return obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit: str | None = None  # stamped on every span started while set
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._installed: list[tuple[object, str, object, bool]] = []

    # -- hooks -------------------------------------------------------------

    def install(self, hooks) -> None:
        """Wrap every hook, or none: a missing target restores all and raises."""
        if self._installed:
            raise RuntimeError("tracer hooks are already installed")
        try:
            for hook in hooks:
                self._wrap(hook)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._installed:
            owner, attr, raw, owned = self._installed.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def _wrap(self, hook: Hook) -> None:
        owner = hook.owner()
        try:
            raw = inspect.getattr_static(owner, hook.attr)
        except AttributeError:
            raise HookMissing(f"{hook.target}.{hook.attr} does not exist") from None
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        if not callable(fn):
            raise HookMissing(f"{hook.target}.{hook.attr} is not callable")
        bind = _binder(inspect.signature(fn)) if hook.count or hook.before else None
        call = self._iterate if hook.generator else self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(hook, bind, fn, args, kwargs)

        owned = hook.attr in vars(owner)
        setattr(owner, hook.attr, kind(wrapper) if kind else wrapper)
        self._installed.append((owner, hook.attr, raw, owned))

    # -- spans -------------------------------------------------------------

    def _call(self, hook, bind, fn, args, kwargs):
        begin = perf_counter()
        local = self._local
        stack = local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        span = Span(
            next(self._ids), hook.name,
            parent.id if parent else None,
            parent.request if parent else None,
            self.unit, begin,
        )
        if hook.request_root and span.request is None:
            span.request = span.id
        bound = None
        if hook.count or hook.before:
            bound = bind(args, kwargs)
            if hook.before:
                hook.before(bound, local)
        stack.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            span.end = perf_counter()
            if hook.count:
                span.counts = hook.count(bound, result, local)
            return result
        finally:
            if not span.end:
                span.end = perf_counter()
            span.done = perf_counter()
            stack.pop()
            self.spans.append(span)  # list.append is atomic under the GIL

    def _iterate(self, hook, bind, fn, args, kwargs):
        span = Span(next(self._ids), hook.name, None, None, self.unit, perf_counter())
        if hook.count:
            span.counts = hook.count(bind(args, kwargs), None, self._local)
        span.start = perf_counter()
        try:
            yield from fn(*args, **kwargs)
        finally:
            span.end = span.done = perf_counter()
            self.spans.append(span)

    def add_spans(self, path, unit: str) -> None:
        """Adopt the spans another process wrote to ``path``, stamped with ``unit``."""
        offset = top = next(self._ids)
        with open(path, encoding="utf-8") as fh:
            exported = [json.loads(line) for line in fh]
        for d in exported:
            span = Span(**{**d, "unit": unit})
            span.id += offset
            if span.parent is not None:
                span.parent += offset
            if span.request is not None:
                span.request += offset
            top = max(top, span.id)
            self.spans.append(span)
        self._ids = itertools.count(top + 1)

    def write(self, path) -> None:
        """Write every span out, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(vars(span)) + "\n" for span in self.spans)


def _binder(signature: inspect.Signature) -> Callable[[tuple, dict], dict]:
    """A fast ``signature.bind(...).apply_defaults()``, to keep bookkeeping short."""
    params = list(signature.parameters.values())
    if any(p.kind != p.POSITIONAL_OR_KEYWORD for p in params):
        raise TypeError(f"cannot bind {signature}: only plain parameters are supported")
    names = [p.name for p in params]
    defaults = {p.name: p.default for p in params if p.default is not p.empty}

    def bind(args, kwargs):
        bound = dict(defaults)
        bound.update(zip(names, args))
        bound.update(kwargs)
        return bound

    return bind


# ---------------------------------------------------------------------------
# counts read at the hooks


def _build_tree_cap(a, local):
    cfg = a["cfg"] if a["cfg"] is not None else BuildConfig()
    local.cap = cfg.max_children_per_node


def _tree_nodes(a, tree, local):
    per_level = np.bincount(tree.levels, minlength=max(LEVELS) + 1)
    return {f"tree.nodes_l{lv}": int(per_level[lv]) for lv in LEVELS}


def _expansion(a, result, local):
    ancestors = np.asarray(a["ancestors"])
    level = int((ancestors[:1] >= 0).sum()) + 1
    parents = np.asarray(a["parents"], dtype=np.int64)
    # every adjacency row the kernel is handed for these parents
    rows = sum(
        int((v[parents + 1] - v[parents]).sum()) for k, v in a.items() if k.endswith("indptr")
    )
    cand, _, offsets = result
    return {
        "level": level,
        f"tree.rows_scanned_l{level}": rows,
        f"tree.candidates_l{level}": int(np.asarray(cand).size),
        f"tree.capped_parents_l{level}": int((np.diff(offsets) > local.cap).sum()),
    }


def _association(a, scores, local):
    return {
        "scoring.level4_hops": int(len(a["c4s"])),
        "scoring.sentinel_hops": int((np.asarray(scores) == SCORE_SENTINEL).sum()),
    }


SERVE_HOOKS = (
    Hook("pathmine.kg", "load_index", "kg.load_index", self_metric="kg.load_index_s"),
    Hook("pathmine.kg:KnowledgeGraph", "__init__", "kg.graph_init", self_metric="kg.graph_init_s"),
    Hook("pathmine.kernels", "neighbor_counts", "kernels.neighbor_counts",
         self_metric="kernels.neighbor_counts_s"),
    Hook("pathmine.pipeline:Extractor", "extract", "pipeline.extract",
         self_metric="pipeline.extract_self_s", total_metric="pipeline.extract_s",
         count=lambda a, r, _: {"pipeline.failed": int(r.error is not None)}, request_root=True),
    Hook("pathmine.pipeline:Extractor", "ground", "pipeline.ground",
         self_metric="pipeline.extract_self_s",
         count=lambda a, r, _: {"grounding.context_concepts": len(r.context_mentions.mentions),
                                "grounding.query_concepts": len(r.query_concepts)}),
    Hook("pathmine.pipeline", "tokenize", "grounding.tokenize", self_metric="grounding.tokenize_s",
         count=lambda a, r, _: {"grounding.tokens": r.token_count}),
    Hook("pathmine.pipeline", "extract_concepts", "grounding.extract_concepts",
         self_metric="grounding.extract_concepts_s"),
    Hook("pathmine.pipeline", "build_tree", "tree.build_tree", self_metric="tree.build_tree_self_s",
         count=_tree_nodes, before=_build_tree_cap),
    Hook("pathmine.kernels", "expand_candidates", "kernels.expand",
         self_metric="kernels.expand_l{level}_s", count=_expansion),
    Hook("pathmine.scoring", "score_raw", "scoring.score_raw", self_metric="scoring.score_raw_self_s"),
    Hook("pathmine.kernels", "association_scores", "kernels.association_scores",
         self_metric="kernels.association_scores_s", calls_metric="kernels.assoc_calls",
         count=_association),
    Hook("pathmine.scoring", "sibling_softmax", "scoring.sibling_softmax",
         self_metric="scoring.sibling_softmax_s"),
    Hook("pathmine.scoring", "cumulative_score", "scoring.cumulative_score",
         self_metric="scoring.cumulative_score_s"),
    Hook("pathmine.pipeline", "realize_selection", "selector.realize_selection",
         self_metric="selector.realize_selection_s",
         count=lambda a, r, _: {"selector.full_paths": len(r.full_paths),
                                "selector.truncations": len(r.truncations)}),
    Hook("pathmine.kg:KnowledgeGraph", "edges_between", "kg.edges_between",
         self_metric="kg.edges_between_s", calls_metric="selector.edges_between_calls"),
    Hook("pathmine.pipeline:ExtractionResult", "to_json", "pipeline.serialize",
         self_metric="pipeline.serialize_s"),
    Hook("pathmine.pipeline", "run_batch", "pipeline.run_batch", generator=True,
         count=lambda a, r, _: {"workers": max(1, a["workers"])}),
)

BUILD_HOOKS = (
    Hook("pathmine.cli:build_index_cmd", "callback", "cli.build_index", total_metric="cli.build_index_s"),
    Hook("pathmine.cli", "ingest_csv", "kg.ingest_csv", self_metric="kg.ingest_csv_s",
         count=lambda a, r, _: {"kg.ingest_lines": r[1].lines_total,
                                "kg.ingest_skipped": r[1].skipped_malformed + r[1].skipped_language}),
    Hook("pathmine.kg:WalkStats", "from_graph", "kg.walk_stats", self_metric="kg.walk_stats_s"),
    Hook("pathmine.kernels", "walk_totals", "kernels.walk_totals", self_metric="kernels.walk_totals_s"),
    Hook("pathmine.cli", "save_index", "kg.save_index", self_metric="kg.save_index_s",
         count=lambda a, r, _: {"kg.index_bytes": os.path.getsize(a["sink"])}),
)

_HOOK_BY_NAME = {h.name: h for h in SERVE_HOOKS + BUILD_HOOKS}

# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, the unit of work it is summed over)
# "setup" = one load to a served tiny request, "build" = one build-index
# command, "pass" = one pass over the workload's request list, "check" =
# short-batch's untimed pass at two workers, the only one that uses the
# thread pool.

_SETUP = ("kg.load_index_s", "kg.graph_init_s", "kernels.neighbor_counts_s")
_BUILD = ("kg.ingest_csv_s", "kg.walk_stats_s", "kernels.walk_totals_s", "kg.save_index_s",
          "cli.build_index_s")
_BUILD_COUNTS = ("kg.ingest_lines", "kg.ingest_skipped", "kg.index_bytes")
_PASS = (
    *(f"kernels.expand_l{lv}_s" for lv in LEVELS),
    "kernels.association_scores_s", "scoring.score_raw_self_s", "scoring.sibling_softmax_s",
    "scoring.cumulative_score_s", "tree.build_tree_self_s", "grounding.tokenize_s",
    "grounding.extract_concepts_s", "pipeline.extract_self_s", "pipeline.serialize_s",
    "pipeline.extract_s", "selector.realize_selection_s", "kg.edges_between_s",
)
_PASS_COUNTS = (
    *(f"tree.{kind}_l{lv}" for kind in ("rows_scanned", "candidates", "nodes", "capped_parents")
      for lv in LEVELS),
    "kernels.assoc_calls", "scoring.level4_hops", "scoring.sentinel_hops", "grounding.tokens",
    "grounding.context_concepts", "grounding.query_concepts", "pipeline.failed",
    "selector.edges_between_calls", "selector.full_paths", "selector.truncations",
)
_RATIOS = ("tree.yield_l5", "trace.overhead", "trace.coverage")

PER_LAYER: dict[str, tuple[str, str]] = {
    **{m: ("s", "setup") for m in _SETUP},
    **{m: ("s", "build") for m in _BUILD},
    **{m: ("count", "build") for m in _BUILD_COUNTS},
    **{m: ("s", "pass") for m in _PASS},
    **{m: ("count", "pass") for m in _PASS_COUNTS},
    **{m: ("ratio", "pass") for m in _RATIOS},
    "pipeline.batch_wait_s": ("s", "check"),
    "pipeline.worker_busy_share": ("ratio", "check"),
}


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.begin, s.done))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) for s in spans}


def _unit_sums(spans: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    sums: dict[str, float] = defaultdict(float)
    for s in spans:
        hook = _HOOK_BY_NAME[s.name]
        if hook.self_metric:
            sums[hook.self_metric.format(**s.counts)] += selfs[s.id]
        if hook.total_metric:
            sums[hook.total_metric] += s.end - s.start
        if hook.calls_metric:
            sums[hook.calls_metric] += 1
        if s.request is not None:  # inside an extract call
            sums["request_self_s"] += selfs[s.id]
        for key, value in s.counts.items():
            if "." in key:
                sums[key] += value
    return sums


def _batch_sums(spans: list[Span]) -> dict[str, float]:
    """Mean wait from a batch's start to a request's ``extract``, and worker busy share.

    A request belongs to the batch whose span holds its start; busy share
    is the requests' extract time over workers x batch wall time.
    """
    batches = [s for s in spans if s.name == "pipeline.run_batch"]
    if not batches:
        return {}
    extracts = [s for s in spans if s.name == "pipeline.extract"]
    waits, busy, capacity = [], 0.0, 0.0
    for b in batches:
        inside = [e for e in extracts if b.start <= e.start <= b.end]
        waits.extend(e.start - b.start for e in inside)
        busy += sum(e.end - e.start for e in inside)
        capacity += b.counts["workers"] * (b.end - b.start)
    return {
        "pipeline.batch_wait_s": statistics.fmean(waits) if waits else 0.0,
        "pipeline.worker_busy_share": busy / capacity if capacity else 0.0,
    }


def layer_metrics(spans: list[Span], overhead: float) -> dict[str, dict]:
    """Every PER_LAYER metric, as the median over the units of its kind.

    Counts must agree across all units of one kind and are reported exactly.
    """
    selfs = self_times(spans)
    by_unit: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.unit is not None:
            by_unit[s.unit].append(s)
    per_unit = {unit: _unit_sums(us, selfs) for unit, us in by_unit.items()}
    for unit, sums in per_unit.items():
        sums.update(_batch_sums(by_unit[unit]))
        if sums["tree.rows_scanned_l5"]:
            sums["tree.yield_l5"] = sums["tree.nodes_l5"] / sums["tree.rows_scanned_l5"]
        if sums["pipeline.extract_s"]:
            sums["trace.coverage"] = sums["request_self_s"] / sums["pipeline.extract_s"]

    out = {}
    for name, (unit, kind) in PER_LAYER.items():
        values = [sums.get(name, 0) for u, sums in per_unit.items() if u.split(":")[0] == kind]
        if name == "trace.overhead":
            value = overhead
        elif unit == "count":
            if len(set(values)) > 1:
                raise CountMismatch(f"{name} differs between {kind} units: {values}")
            value = int(values[0]) if values else 0
        else:
            value = statistics.median(values) if values else 0.0
        out[name] = {"value": value, "unit": unit}
    return out
