"""Benchmark inputs: the cached synthetic dump and index, and seeded requests.

The graph is the one the criterion-7 acceptance test builds (seed 99,
1.05 M lines, 120 k concepts, a 2,500-concept hub pool), written by that
test's own generator.  The dump and the index built from it are cached
under ``perfbench/.cache``; the dump's key hashes the generator's file and
this benchmark's input code, the index's key adds every file under
``src/``, so a cache is never reused across code versions.

Request lists depend only on ``--seed`` and the scale, never on the code
under test, so two commits are timed on identical inputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checkout import BENCH_DIR, CACHE, SRC, TESTS, tree_digest

# words that are never concept surfaces of the synthetic graph (its
# surfaces are all of the form w<number>), so they pad passages without
# grounding
FILLER = ("the", "a", "of", "and", "to", "in", "is", "was", "for", "on",
          "with", "as", "by", "at", "that", "it", "from", "but", "or", "be")


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    name: str
    dump_lines: int
    concepts: int
    hub_pool: int
    graph_seed: int
    long_tokens: int  # passage length of a long-context request
    long_requests: int  # requests in one long-context pass
    short_requests: int  # requests in one short-batch pass
    check_requests: int  # short requests served from a freshly built index
    setup_repeats: int  # set-ups per run; setup_s is their median


CRITERION7 = Scale("criterion7", 1_050_000, 120_000, 2_500, 99, 1000, 8, 256, 8, 3)
# the self-checks' graph: same generator, small enough to build in a second
SMOKE = Scale("smoke", 5_000, 2_000, 50, 99, 50, 3, 40, 8, 3)


@dataclass(frozen=True)
class Request:
    id: str
    context: str
    query: str
    query_concepts: frozenset[int]
    context_concepts: frozenset[int]

    def line(self) -> str:
        return json.dumps({"id": self.id, "context": self.context, "query": self.query})


@dataclass(frozen=True)
class DumpEdges:
    """Edges of the dump as sorted keys, parsed without the code under test."""

    keys: np.ndarray  # sorted unique int64 (start * C + end) * R + relation
    relations: list[str]  # relation names; the index into it is the key's relation
    concepts: int  # distinct concepts named in the dump
    bound: int  # C, an upper bound on concept numbers

    def key(self, start, end, rel):
        return (np.asarray(start, np.int64) * self.bound + end) * len(self.relations) + rel

    def contains(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.keys, keys)
        pos = np.minimum(pos, self.keys.size - 1)
        return self.keys[pos] == keys


def _generator_key(scale: Scale) -> str:
    params = (scale.dump_lines, scale.concepts, scale.hub_pool, scale.graph_seed)
    digest = tree_digest(TESTS / "test_acceptance.py", BENCH_DIR / "inputs.py", BENCH_DIR / "child.py")
    return f"{scale.name}-{digest[:12]}-{'-'.join(map(str, params))}"


def _publish(tmp: Path, final: Path, kind: str, scale: Scale) -> None:
    """Move a finished cache entry in place and drop stale entries of its kind."""
    try:
        os.replace(tmp, final)
    except OSError:  # another run published it first
        shutil.rmtree(tmp, ignore_errors=True)
    for stale in CACHE.glob(f"{kind}-{scale.name}-*"):
        if stale != final:
            shutil.rmtree(stale, ignore_errors=True)


def index_key(scale: Scale) -> str:
    return f"{_generator_key(scale)}-src{tree_digest(SRC)[:12]}"


def run_child(*args: str) -> dict:
    """Run ``child.py`` with ``args``; return its JSON report (last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args[0]} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def ensure_dump(scale: Scale) -> Path:
    """Directory holding ``dump.tsv`` and its parsed edges; created once per key."""
    final = CACHE / f"dump-{_generator_key(scale)}"
    if not (final / "edges.npy").is_file():
        tmp = CACHE / f"tmp-{os.getpid()}-dump"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        run_child(
            "dump", str(tmp), str(scale.dump_lines), str(scale.concepts),
            str(scale.hub_pool), str(scale.graph_seed),
        )
        _publish(tmp, final, "dump", scale)
    return final


def ensure_index(scale: Scale) -> Path:
    """Index built from the dump by this checkout's ``pathmine build-index``."""
    dump_dir = ensure_dump(scale)
    final = CACHE / f"index-{index_key(scale)}"
    if not (final / "graph.idx").is_file():
        tmp = CACHE / f"tmp-{os.getpid()}-index"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        report = run_child("build", str(dump_dir / "dump.tsv"), str(tmp / "graph.idx"))
        if report["exit"] != 0:
            raise RuntimeError(f"build-index exited with {report['exit']}")
        _publish(tmp, final, "index", scale)
    return final / "graph.idx"


def load_dump_edges(dump_dir: Path, scale: Scale) -> DumpEdges:
    meta = json.loads((dump_dir / "edges.json").read_text())
    return DumpEdges(np.load(dump_dir / "edges.npy"), meta["relations"], meta["concepts"], scale.concepts)


def parse_dump(dump: Path, out_dir: Path, bound: int) -> None:
    """Write the dump's edges as sorted keys (``edges.npy``) plus ``edges.json``."""
    starts, ends, rels = [], [], []
    rel_ids: dict[str, int] = {}
    with open(dump, encoding="utf-8") as fh:
        for line in fh:
            _, rel, start, end, _ = line.split("\t")
            starts.append(int(start.rsplit("/w", 1)[1]))
            ends.append(int(end.rsplit("/w", 1)[1]))
            rels.append(rel_ids.setdefault(rel[3:], len(rel_ids)))
    names = sorted(rel_ids)
    remap = np.asarray([names.index(n) for n in sorted(rel_ids, key=rel_ids.get)], np.int64)
    s = np.asarray(starts, np.int64)
    e = np.asarray(ends, np.int64)
    keys = np.unique((s * bound + e) * len(names) + remap[np.asarray(rels)])
    np.save(out_dir / "edges.npy", keys)
    concepts = int(np.unique(np.concatenate([s, e])).size)
    (out_dir / "edges.json").write_text(json.dumps({"relations": names, "concepts": concepts}))


def hub_adjacency(edges: DumpEdges, hub_pool: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (hub, neighboring hub) pairs of the dump, both directions."""
    n_rel = len(edges.relations)
    start, end = divmod(edges.keys // n_rel, edges.bound)
    both = (start < hub_pool) & (end < hub_pool) & (start != end)
    pairs = np.unique(np.concatenate([start[both] * hub_pool + end[both],
                                      end[both] * hub_pool + start[both]]))
    return divmod(pairs, hub_pool)


def long_context_requests(scale: Scale, seed: int, edges: DumpEdges) -> list[Request]:
    """A 1000-token passage of hub concepts per request, asked about one hub concept.

    The question concept is drawn among the hubs with the median number of
    distinct neighbors in the passage.  That number is the tree's level-2
    width, which sets most of a request's cost, so requests cost alike and
    a pass of a few requests measures the same work for every seed.
    """
    rng = np.random.default_rng([seed, 1])
    hub, neighbor = hub_adjacency(edges, scale.hub_pool)
    out = []
    for i in range(scale.long_requests):
        ctx = rng.integers(0, scale.hub_pool, size=scale.long_tokens)
        in_passage = np.zeros(scale.hub_pool, dtype=bool)
        in_passage[ctx] = True
        width = np.bincount(hub[in_passage[neighbor]], minlength=scale.hub_pool)
        typical = np.flatnonzero(width == int(np.median(width)))
        q = int(rng.choice(typical))
        out.append(
            Request(
                id=f"long-{i}",
                context=" ".join(f"w{int(c)}" for c in ctx),
                query=f"what about w{q}",
                query_concepts=frozenset({q}),
                context_concepts=frozenset(int(c) for c in ctx),
            )
        )
    return out


def _concept(rng: np.random.Generator, scale: Scale) -> int:
    # a quarter of concept tokens come from the hub pool
    top = scale.hub_pool if rng.random() < 0.25 else scale.concepts
    return int(rng.integers(0, top))


def short_requests(scale: Scale, seed: int, count: int) -> list[Request]:
    """80-150 token passages, half stopword filler, with three-concept questions.

    A list of ``count`` is a prefix of any longer list of the same seed.
    """
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(count):
        words, concepts = [], set()
        for _ in range(int(rng.integers(80, 151))):
            if rng.random() < 0.5:
                words.append(FILLER[int(rng.integers(len(FILLER)))])
            else:
                c = _concept(rng, scale)
                concepts.add(c)
                words.append(f"w{c}")
        question: list[int] = []
        while len(question) < 3:
            c = _concept(rng, scale)
            if c not in question:
                question.append(c)
        out.append(
            Request(
                id=f"short-{i}",
                context=" ".join(words),
                query="how are w{} w{} and w{} related".format(*question),
                query_concepts=frozenset(question),
                context_concepts=frozenset(concepts),
            )
        )
    return out
