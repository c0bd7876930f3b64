"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's indexed/vectorized code paths:
they work from the raw edge table with plain-Python scans and recursion, so
agreement with the production implementations is meaningful.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
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


SYMMETRIC = {
    "RelatedTo",
    "Synonym",
    "Antonym",
    "DistinctFrom",
    "SimilarTo",
    "LocatedNear",
    "EtymologicallyRelatedTo",
}


def _concept_oracle(uri: str) -> tuple[str, str] | None:
    parts = uri.split("/")
    if len(parts) < 4 or parts[0] != "" or parts[1] != "c":
        return None
    surface = parts[3].strip().lower().replace(" ", "_")
    if not parts[2] or not surface:
        return None
    return parts[2], surface


def _weight_oracle(meta: str) -> float | None:
    try:
        weight = float(json.loads(meta).get("weight", 1.0)) if meta.strip() else 1.0
        struct.pack("<f", weight)  # OverflowError beyond the float32 range
    except (ValueError, TypeError, AttributeError, OverflowError, RecursionError):
        return None
    return weight if weight >= 0 and math.isfinite(weight) else None


def ingest_oracle(dump: bytes, lang: str) -> tuple[KnowledgeGraph | None, dict[str, int]]:
    """Line-at-a-time reference for ``ingest_csv``: the graph (None when no
    edge survives) and the report's fields.

    Lines split as a binary file splits them; a weight must be finite and
    non-negative as float32.
    """
    report = dict.fromkeys(
        ["lines_total", "edges_kept", "skipped_malformed", "skipped_language", "duplicates_removed"], 0
    )
    surfaces: dict[str, int] = {}
    relations: dict[str, int] = {}
    seen: set[tuple[int, int, int]] = set()
    edges: list[tuple[int, int, int, float]] = []
    for raw in io.BytesIO(dump):
        report["lines_total"] += 1
        try:
            fields = raw.decode("utf-8").rstrip("\r\n").split("\t")
        except UnicodeDecodeError:
            fields = []
        if len(fields) != 5:
            report["skipped_malformed"] += 1
            continue
        _, rel_uri, start_uri, end_uri, meta = fields
        start, end = _concept_oracle(start_uri), _concept_oracle(end_uri)
        weight = _weight_oracle(meta)
        if not rel_uri.startswith("/r/") or len(rel_uri) <= 3 or None in (start, end, weight):
            report["skipped_malformed"] += 1
            continue
        if start[0] != lang or end[0] != lang:
            report["skipped_language"] += 1
            continue
        s = surfaces.setdefault(start[1], len(surfaces))
        r = relations.setdefault(rel_uri[3:], len(relations))
        e = surfaces.setdefault(end[1], len(surfaces))
        key = (min(s, e), r, max(s, e)) if rel_uri[3:] in SYMMETRIC else (s, r, e)
        if key in seen:
            report["duplicates_removed"] += 1
            continue
        seen.add(key)
        edges.append((s, r, e, weight))
    report["edges_kept"] = len(edges)
    if not edges:
        return None, report
    start, rel, end, weight = zip(*edges)
    graph = KnowledgeGraph(lang, list(surfaces), list(relations), start, rel, end, weight)
    return graph, report


def index_sections(blob: bytes) -> dict[bytes, bytes]:
    """Section tag to contents, in file order, of a well-formed index ``blob``."""
    sections, pos = {}, 8  # after magic and version
    while pos < len(blob) - 8:
        size = struct.unpack("<Q", blob[pos + 4 : pos + 12])[0]
        sections[blob[pos : pos + 4]] = blob[pos + 12 : pos + 12 + size]
        pos += 12 + size
    return sections


def sealed_index(sections: dict[bytes, bytes], version: int = pathmine.kg.FORMAT_VERSION) -> bytes:
    """An index file of the given sections under a valid checksum."""
    body = pathmine.kg.MAGIC + struct.pack("<I", version)
    body += b"".join(tag + struct.pack("<Q", len(payload)) + payload for tag, payload in sections.items())
    return body + struct.pack("<Q", pathmine.kg._checksum(body))


def _resealed(blob: bytes, tag: bytes, payload: bytes | None) -> bytes:
    """The index ``blob`` with section ``tag`` replaced by ``payload`` (dropped
    when None), under a re-computed checksum, so only the section checks
    can reject it."""
    sections = index_sections(blob)
    if payload is None:
        del sections[tag]
    else:
        sections[tag] = payload
    return sealed_index(sections)


def format1_index(g: KnowledgeGraph, stats: pathmine.WalkStats) -> bytes:
    """The graph as index format 1 stored it: every string length-prefixed,
    the counts in META and a symmetric flag after each relation name."""

    def text(s: str) -> bytes:
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    sections = {
        b"META": text(g.lang) + struct.pack("<QQQ", g.node_count, len(g.relation_names), g.edge_count),
        b"CONC": b"".join(map(text, g.surfaces)),
        b"RELS": b"".join(text(name) + bytes([name in SYMMETRIC]) for name in g.relation_names),
        b"EDGE": np.concatenate([g.edge_start, g.edge_rel, g.edge_end]).astype("<i4").tobytes()
        + g.edge_weight.astype("<f4").tobytes(),
        b"STAT": struct.pack("<QQQ", stats.walks_len3, stats.walks_len4, stats.node_count),
    }
    return sealed_index(sections, version=1)


def write_defective_index(path: str, defect: str) -> None:
    """Save the story graph with one hostile value, under a valid checksum.

    ``defect`` is "start", "end" or "relation" (an edge id one past its
    range), "stat_nodes" (walk statistics for one concept too many),
    "stat_len3_zero"/"stat_len4_zero"/"stat_len4_huge" (a walk total of 0
    or 2**63), "stat_short" (a 16-byte statistics section), "stat_missing"
    (no statistics section), "conc_duplicate" (two concepts named alike),
    "conc_undecodable" (a concept name that is not UTF-8),
    "meta_undecodable" (a language tag that is not UTF-8) or "format_1"
    (the whole graph in index format 1).
    """
    g = graph_from_triples(STORY_TRIPLES)
    stats = pathmine.WalkStats.from_graph(g)
    section = None
    if defect == "format_1":
        Path(path).write_bytes(format1_index(g, stats))
        return
    if defect == "stat_missing":
        section = b"STAT", None
    elif defect.startswith("stat_"):
        w3, w4, nodes = stats.walks_len3, stats.walks_len4, g.node_count
        section = b"STAT", struct.pack(
            "<QQQ",
            0 if defect == "stat_len3_zero" else w3,
            {"stat_len4_zero": 0, "stat_len4_huge": 1 << 63}.get(defect, w4),
            nodes + 1 if defect == "stat_nodes" else nodes,
        )[: 16 if defect == "stat_short" else 24]
    elif defect.startswith("conc_"):
        names = [s.encode("utf-8") for s in g.surfaces]
        names[-1] = names[0] if defect == "conc_duplicate" else b"caf\xe9"
        section = b"CONC", b"\n".join(names)
    elif defect == "meta_undecodable":
        section = b"META", b"e\xff"
    else:
        column, bound = {
            "start": ("edge_start", g.node_count),
            "end": ("edge_end", g.node_count),
            "relation": ("edge_rel", len(g.relation_names)),
        }[defect]
        ids = getattr(g, column).copy()
        ids[-1] = bound
        setattr(g, column, ids)
    buf = io.BytesIO()
    pathmine.save_index(g, buf, stats)
    blob = buf.getvalue() if section is None else _resealed(buf.getvalue(), *section)
    Path(path).write_bytes(blob)


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
