"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's indexed/vectorized code paths:
they work from the raw edge table with plain-Python scans and recursion, so
agreement with the production implementations is meaningful.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pathmine
from pathmine import KnowledgeGraph, graph_from_triples
from pathmine import kernels

STORY_TRIPLES = [
    ("lady", "AtLocation", "church"),
    ("lady", "RelatedTo", "mother"),
    ("lady", "RelatedTo", "person"),
    ("church", "RelatedTo", "house"),
    ("mother", "RelatedTo", "daughter"),
    ("person", "RelatedTo", "lover"),
    ("house", "RelatedTo", "child"),
    ("daughter", "RelatedTo", "child"),
    ("child", "RelatedTo", "their"),
]

STORY_CONTEXT = (
    "The lady went to the church. The church stood by a house. "
    "A child lived in the house, and the child loved their mother. "
    "The mother had a daughter. A person, her lover, came by."
)
STORY_QUERY = "What happened to the lady?"

STORY_FULL_PATH = [
    "lady",
    "AtLocation",
    "church",
    "RelatedTo",
    "house",
    "RelatedTo",
    "child",
    "RelatedTo",
    "their",
]
STORY_TRUNCATION = STORY_FULL_PATH[:7]


def story_dump_bytes() -> bytes:
    lines = []
    for i, (s, r, e) in enumerate(STORY_TRIPLES):
        lines.append(
            f"/a/[{i}]\t/r/{r}\t/c/en/{s}\t/c/en/{e}\t" + '{"weight": 1.0}'
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    # interpreters started by tests import the same pathmine as this one
    patch = pytest.MonkeyPatch()
    patch.setenv("PYTHONPATH", str(Path(pathmine.__file__).resolve().parents[1]), prepend=os.pathsep)
    yield
    patch.undo()


@pytest.fixture(scope="session")
def story_graph() -> KnowledgeGraph:
    return graph_from_triples(STORY_TRIPLES)


@pytest.fixture()
def story_dump() -> bytes:
    return story_dump_bytes()


# ---------------------------------------------------------------------------
# random graph generation


RELATION_POOL = ["RelatedTo", "AtLocation", "IsA", "Antonym", "PartOf", "UsedFor"]


def random_multigraph(
    rng: np.random.Generator,
    max_nodes: int = 50,
    max_edges: int = 200,
    connected: bool = False,
    self_loops: bool = True,
) -> KnowledgeGraph:
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_edges + 1))
    names = [f"n{i}" for i in range(n)]
    triples = []
    if connected:
        for i in range(1, n):
            j = int(rng.integers(0, i))
            triples.append((names[j], RELATION_POOL[int(rng.integers(len(RELATION_POOL)))], names[i]))
    while len(triples) < max(m, len(triples)):
        a = int(rng.integers(n))
        b = int(rng.integers(n))
        if a == b and not self_loops:
            continue
        rel = RELATION_POOL[int(rng.integers(len(RELATION_POOL)))]
        triples.append((names[a], rel, names[b]))
    return graph_from_triples(triples, extra_concepts=names)


# ---------------------------------------------------------------------------
# oracles (edge-table based, no CSR indices)


def edge_table(g: KnowledgeGraph) -> list[tuple[int, int, int]]:
    return [
        (int(s), int(r), int(e))
        for s, r, e in zip(g.edge_start, g.edge_rel, g.edge_end)
    ]


def multiplicity_oracle(g: KnowledgeGraph, a: int, b: int) -> int:
    # per-direction counting mirrors the A + A^T walk operator, so a
    # self-loop offers two traversals
    count = 0
    for s, _, e in edge_table(g):
        if s == a and e == b:
            count += 1
        if s == b and e == a:
            count += 1
    return count


def adjacency_with_multiplicity(g: KnowledgeGraph) -> dict[int, dict[int, int]]:
    mult: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for s, _, e in edge_table(g):
        mult[s][e] += 1
        mult[e][s] += 1
    return mult


def count_walks_oracle(g: KnowledgeGraph, k: int) -> int:
    """Exhaustive DFS over node sequences; parallel edges multiply choices."""
    mult = adjacency_with_multiplicity(g)

    def walks_from(v: int, steps: int) -> int:
        if steps == 0:
            return 1
        total = 0
        for u, c in mult[v].items():
            total += c * walks_from(u, steps - 1)
        return total

    return sum(walks_from(v, k) for v in range(g.node_count))


def walks_through_oracle(g: KnowledgeGraph, seq: list[int]) -> int:
    total = 1
    for a, b in zip(seq, seq[1:]):
        total *= multiplicity_oracle(g, a, b)
    return total


def partner_count_oracle(g: KnowledgeGraph, c: int) -> int:
    partners = set()
    for s, _, e in edge_table(g):
        if s == c:
            partners.add(e)
        if e == c:
            partners.add(s)
    return len(partners)


def npmi_oracle(g: KnowledgeGraph, c1: int, c2: int, c3: int, c4: int) -> float:
    """Association score from exhaustively enumerated probabilities."""
    walks3 = count_walks_oracle(g, 2)
    walks4 = count_walks_oracle(g, 3)
    joint_count = walks_through_oracle(g, [c1, c2, c3, c4])
    if joint_count == 0:
        return kernels.SCORE_SENTINEL
    if joint_count == walks4:
        return 1.0
    joint = joint_count / walks4
    p_prefix = walks_through_oracle(g, [c1, c2, c3]) / walks3
    p_hop = partner_count_oracle(g, c4) / g.node_count
    pmi = math.log(joint / (p_hop * p_prefix))
    return pmi / (-math.log(joint))


def probabilities_oracle(g: KnowledgeGraph, c1: int, c2: int, c3: int, c4: int):
    walks3 = count_walks_oracle(g, 2)
    walks4 = count_walks_oracle(g, 3)
    return (
        walks_through_oracle(g, [c1, c2, c3, c4]) / walks4,
        partner_count_oracle(g, c4) / g.node_count,
        walks_through_oracle(g, [c1, c2, c3]) / walks3,
    )


def neighbors_oracle(g: KnowledgeGraph, c: int) -> list[tuple[int, int]]:
    pairs = set()
    for s, r, e in edge_table(g):
        if s == c:
            pairs.add((r, e))
        if e == c:
            pairs.add((r, s))
    return sorted(pairs, key=lambda p: (p[1], p[0]))


def reference_token_count(text: str) -> int:
    """Character-scan tokenizer: word runs plus apostrophe-led clitics."""
    count = 0
    i = 0
    text = text.lower()
    n = len(text)

    def wordish(ch: str) -> bool:
        return ch.isalnum() or ch == "_"

    while i < n:
        ch = text[i]
        if wordish(ch):
            count += 1
            while i < n and wordish(text[i]):
                i += 1
        elif ch == "'" and i + 1 < n and wordish(text[i + 1]):
            count += 1
            i += 1
            while i < n and wordish(text[i]):
                i += 1
        else:
            i += 1
    return count
