"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's indexed/vectorized code paths:
they work from the raw edge table with plain-Python scans and recursion, so
agreement with the production implementations is meaningful.
"""

from __future__ import annotations

import io
import math
import os
import struct
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import pathmine
from pathmine import KnowledgeGraph, graph_from_triples
from pathmine import kernels
from pathmine.scoring import cumulative_score, level5_scores, sibling_softmax

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


def random_triples(
    rng: np.random.Generator,
    max_nodes: int = 50,
    max_edges: int = 200,
    connected: bool = False,
    self_loops: bool = True,
) -> tuple[list[str], list[tuple[str, str, str]]]:
    """Concept names and (start, relation, end) triples of a random
    multigraph, repeats and mirror images included."""
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
    return names, triples


def random_multigraph(rng: np.random.Generator, **shape) -> KnowledgeGraph:
    """The graph of :func:`random_triples`; concept ``n{i}`` has id ``i``."""
    names, triples = random_triples(rng, **shape)
    return graph_from_triples(triples, extra_concepts=names)


# ten words for multiword surfaces: two stopwords, and few enough that
# surfaces share first words
WORD_POOL = ["the", "of", "red", "apple", "pie", "big", "tree", "old", "house", "door"]


def random_multiword_graph(rng: np.random.Generator, **shape) -> KnowledgeGraph:
    """The graph of :func:`random_triples` with concept ``n{i}`` renamed
    to a distinct surface of 1-4 words drawn from ``WORD_POOL``; it keeps
    id ``i``."""
    names, triples = random_triples(rng, **shape)
    label: dict[str, str] = {}
    for name in names:
        surface = None
        while surface is None or surface in label.values():
            surface = "_".join(rng.choice(WORD_POOL, size=int(rng.integers(1, 5))))
        label[name] = surface
    relabeled = [(label[s], r, label[e]) for s, r, e in triples]
    return graph_from_triples(relabeled, extra_concepts=list(label.values()))


def kept_triples(triples: list[tuple[str, str, str]]) -> list[tuple[str, str, str]]:
    """The triples a graph keeps, by a plain scan: the first of each
    repeat, a symmetric relation's mirror image counting as a repeat."""
    seen, kept = set(), []
    for s, r, e in triples:
        key = (min(s, e), r, max(s, e)) if r in SYMMETRIC else (s, r, e)
        if key not in seen:
            seen.add(key)
            kept.append((s, r, e))
    return kept


def regrown(
    tree: pathmine.PathTree,
    pair: pathmine.grounding.GroundedPair,
    g: KnowledgeGraph,
    cfg: pathmine.BuildConfig = pathmine.BuildConfig(),
    scored: pathmine.ScoredTree | None = None,
):
    """``tree``, built from ``pair``, ``g`` and ``cfg``, with every kept
    level-5 child re-grown, through ``regrow5``, into the arrays: level 5
    follows level 4 in parent order, so the order stays breadth-first.  A
    level-5 node's edge count is 0: the summary keeps none.  With
    ``scored``, also a ``ScoredTree`` of the same nodes' raw, normalized
    and cumulative scores, from ``level5_scores`` (a level-5 leaf's
    cumulative score is its normalized one)."""
    idx4 = level_indices(tree, 4)
    c5, r5, offsets = tree.regrow5(idx4, pair, g, cfg)
    full = pathmine.PathTree(
        np.concatenate([tree.concepts, c5]),
        np.concatenate([tree.parents, np.repeat(idx4, np.diff(offsets))]),
        np.concatenate([tree.rels, r5]),
        np.concatenate([tree.mults, np.zeros(c5.size, dtype=np.int32)]),
        np.concatenate([tree.levels, np.full(c5.size, 5, dtype=np.int8)]),
    )
    if scored is None:
        return full
    raw5, n5 = level5_scores(tree, pair, idx4, c5, offsets)
    return full, pathmine.ScoredTree(
        tree=full,
        raw=np.concatenate([scored.raw, raw5]),
        n_score=np.concatenate([scored.n_score, n5]),
        c_score=np.concatenate([scored.c_score, n5]),
    )


def mention_counts(mentions: pathmine.grounding.ConceptMentionSet) -> dict[int, int]:
    """A mention set's concept -> count, in first-mention order."""
    return dict(zip(mentions.mentions.tolist(), mentions.counts.tolist()))


def level_indices(tree: pathmine.PathTree, level: int) -> np.ndarray:
    """Array indices of the forest's nodes at ``level``, in order."""
    return np.flatnonzero(tree.levels == level)


def root_of(tree: pathmine.PathTree) -> np.ndarray:
    """Index of the root above every node (a root's own index)."""
    out = np.arange(tree.node_count, dtype=np.int64)
    # parents sit one level up, so resolving the levels in order needs
    # one gather each
    for level in range(2, pathmine.tree.MAX_LEVEL + 1):
        idx = level_indices(tree, level)
        out[idx] = out[tree.parents[idx]]
    return out


def scored_from_raw(tree: pathmine.PathTree, raw) -> pathmine.ScoredTree:
    """The scored tree of a hand-built forest without level-5 lists, whose
    nodes have the raw scores ``raw``."""
    raw = np.asarray(raw, dtype=np.float64)
    n_score = sibling_softmax(tree, raw)
    return pathmine.ScoredTree(tree, raw, n_score, cumulative_score(tree, n_score))


def random_path_tree(rng: np.random.Generator, g: KnowledgeGraph) -> pathmine.PathTree:
    """Four levels of random concepts, so most fourth hops are not edges;
    each node carries its edge count to its parent, read from the edge
    table (0 for no edge)."""
    concepts, parents, levels = [int(rng.integers(g.node_count))], [-1], [1]
    frontier = [0]
    for level in range(2, 5):
        nxt = []
        for parent in frontier:
            for _ in range(int(rng.integers(0, 4))):
                nxt.append(len(concepts))
                concepts.append(int(rng.integers(g.node_count)))
                parents.append(parent)
                levels.append(level)
        frontier = nxt
    mults = [0] + [multiplicity_oracle(g, concepts[p], c) for c, p in zip(concepts[1:], parents[1:])]
    return pathmine.PathTree(concepts, parents, [-1] + list(range(len(concepts) - 1)), mults, levels)


def children(tree: pathmine.PathTree, idx: int) -> list[int]:
    """Array indices of a node's children, in order."""
    return list(range(int(tree.child_start[idx]), int(tree.child_end[idx])))


def path_to(tree: pathmine.PathTree, idx: int) -> list[int]:
    """Concepts from the root down to node ``idx``."""
    out = []
    while idx >= 0:
        out.append(int(tree.concepts[idx]))
        idx = int(tree.parents[idx])
    return out[::-1]


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


def neighbor_lists(g: KnowledgeGraph) -> dict[int, list[tuple[int, int]]]:
    """Each concept's distinct (relation, neighbour) pairs, either edge
    direction, sorted by (neighbour, relation); no entry for a concept
    without edges."""
    pairs: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for s, r, e in edge_table(g):
        pairs[s].add((r, e))
        pairs[e].add((r, s))
    return {c: sorted(p, key=lambda p: (p[1], p[0])) for c, p in pairs.items()}


def assert_same_tables(a: KnowledgeGraph, b: KnowledgeGraph) -> None:
    """Same language, names and relations, and the same four CSR arrays."""
    assert (a.lang, a.surfaces, a.relation_names) == (b.lang, b.surfaces, b.relation_names)
    for name in ("adj_indptr", "adj_dst", "adj_rel", "adj_incoming"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


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


def ingest_oracle(dump: bytes, lang: str) -> tuple[KnowledgeGraph | None, dict[str, int]]:
    """Line-at-a-time reference for ``ingest_csv``: the graph (None when no
    edge survives) and the report's fields.

    Lines split as a binary file splits them; the metadata field is never
    read.
    """
    report = dict.fromkeys(
        ["lines_total", "edges_kept", "skipped_malformed", "skipped_language", "duplicates_removed"], 0
    )
    surfaces: dict[str, int] = {}
    relations: dict[str, int] = {}
    seen: set[tuple[int, int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    for raw in io.BytesIO(dump):
        report["lines_total"] += 1
        try:
            fields = raw.decode("utf-8").rstrip("\r\n").split("\t")
        except UnicodeDecodeError:
            fields = []
        if len(fields) != 5:
            report["skipped_malformed"] += 1
            continue
        _, rel_uri, start_uri, end_uri, _ = fields
        start, end = _concept_oracle(start_uri), _concept_oracle(end_uri)
        if not rel_uri.startswith("/r/") or len(rel_uri) <= 3 or None in (start, end):
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
        edges.append((s, r, e))
    report["edges_kept"] = len(edges)
    if not edges:
        return None, report
    start, rel, end = np.array(edges, dtype=np.int32).T
    upper = [np.minimum(start, end), np.maximum(start, end), rel, start > end]
    return KnowledgeGraph(lang, list(surfaces), list(relations), upper), report


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes ``tracemalloc`` traced during the call."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    the counts in META and a symmetric flag after each relation name (its
    edges are written as format 3 writes them; the version alone refuses
    the file)."""

    def text(s: str) -> bytes:
        raw = s.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    sections = {
        b"META": text(g.lang) + struct.pack("<QQQ", g.node_count, len(g.relation_names), g.edge_count),
        b"CONC": b"".join(map(text, g.surfaces)),
        b"RELS": b"".join(text(name) + bytes([name in SYMMETRIC]) for name in g.relation_names),
        b"EDGE": _edge_table_bytes(g),
        b"STAT": struct.pack("<QQQ", stats.walks_len3, stats.walks_len4, stats.node_count),
    }
    return sealed_index(sections, version=1)


def _edge_table_bytes(g: KnowledgeGraph) -> bytes:
    """The edge table as formats 1 to 3 stored it: three i32 columns of
    start, relation and end ids (12 bytes an edge)."""
    return np.concatenate([g.edge_start, g.edge_rel, g.edge_end]).astype("<i4").tobytes()


def format3_index(g: KnowledgeGraph, stats: pathmine.WalkStats, version: int = 3) -> bytes:
    """The graph as index format 3 stored it: today's name tables and walk
    statistics around an ``EDGE`` table in place of the upper-half
    sections.  Version 2 (``version=2``) also held a float32 weight
    column, all 1.0, after the three id columns."""
    buf = io.BytesIO()
    pathmine.save_index(g, buf, stats)
    current = index_sections(buf.getvalue())
    edges = _edge_table_bytes(g)
    if version == 2:
        edges += np.ones(g.edge_count, dtype="<f4").tobytes()
    sections = {tag: current[tag] for tag in (b"META", b"CONC", b"RELS")}
    sections.update({b"EDGE": edges, b"STAT": current[b"STAT"]})
    return sealed_index(sections, version=version)


def write_defective_index(path: str, defect: str) -> None:
    """Save the story graph with one hostile value, under a valid checksum.

    ``defect`` is one of:

    - "start" or "end": an edge that starts, or ends, at its higher
      endpoint with that endpoint one past the concept range;
    - "relation": a relation id one past its range;
    - "below_diagonal": an edge stored under a higher row than its
      neighbour;
    - "rows_sum": row counts that sum to one edge more than are stored;
    - "erel_width": relation ids two bytes wide where one is;
    - "flip_length": an orientation section one byte too long;
    - "stat_nodes" (walk statistics for one concept too many),
      "stat_len3_zero"/"stat_len4_zero"/"stat_len4_huge" (a walk total of
      0 or 2**63), "stat_short" (a 16-byte statistics section) or
      "stat_missing" (no statistics section);
    - "conc_duplicate" (two concepts named alike), "conc_undecodable" (a
      concept name that is not UTF-8) or "meta_undecodable" (a language
      tag that is not UTF-8);
    - "format_1", "format_2" or "format_3": the whole graph in that older
      index format.
    """
    g = graph_from_triples(STORY_TRIPLES)
    stats = pathmine.WalkStats.from_graph(g)
    if defect in ("format_1", "format_2", "format_3"):
        version = int(defect[-1])
        blob = format1_index(g, stats) if version == 1 else format3_index(g, stats, version)
        Path(path).write_bytes(blob)
        return
    buf = io.BytesIO()
    pathmine.save_index(g, buf, stats)
    sections = index_sections(buf.getvalue())
    rows = np.frombuffer(sections[b"ROWS"], "<u4").copy()
    higher = np.frombuffer(sections[b"NBRS"], "<i4").copy()
    flip = np.unpackbits(np.frombuffer(sections[b"FLIP"], np.uint8), bitorder="little")
    if defect in ("start", "end"):
        higher[-1] = g.node_count
        flip[higher.size - 1] = defect == "start"
        sections[b"NBRS"] = higher.tobytes()
        sections[b"FLIP"] = np.packbits(flip, bitorder="little").tobytes()
    elif defect == "relation":
        rel = bytearray(sections[b"EREL"])
        rel[-1] = len(g.relation_names)
        sections[b"EREL"] = bytes(rel)
    elif defect == "below_diagonal":
        # the last edge sits in the highest row that stores any
        higher[-1] = np.flatnonzero(rows)[-1] - 1
        sections[b"NBRS"] = higher.tobytes()
    elif defect == "rows_sum":
        rows[-1] += 1
        sections[b"ROWS"] = rows.tobytes()
    elif defect == "erel_width":
        sections[b"EREL"] = np.frombuffer(sections[b"EREL"], np.uint8).astype("<u2").tobytes()
    elif defect == "flip_length":
        sections[b"FLIP"] += b"\0"
    elif defect == "stat_missing":
        del sections[b"STAT"]
    elif defect.startswith("stat_"):
        w3, w4, nodes = stats.walks_len3, stats.walks_len4, g.node_count
        sections[b"STAT"] = struct.pack(
            "<QQQ",
            0 if defect == "stat_len3_zero" else w3,
            {"stat_len4_zero": 0, "stat_len4_huge": 1 << 63}.get(defect, w4),
            nodes + 1 if defect == "stat_nodes" else nodes,
        )[: 16 if defect == "stat_short" else 24]
    elif defect.startswith("conc_"):
        names = [s.encode("utf-8") for s in g.surfaces]
        names[-1] = names[0] if defect == "conc_duplicate" else b"caf\xe9"
        sections[b"CONC"] = b"\n".join(names)
    elif defect == "meta_undecodable":
        sections[b"META"] = b"e\xff"
    else:
        raise ValueError(f"unknown defect {defect!r}")
    Path(path).write_bytes(sealed_index(sections))


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


def grounding_oracle(
    tokens: tuple[str, ...], surfaces: set[str], max_ngram: int, stopwords: frozenset[str]
) -> dict[str, int]:
    """Greedy longest match by brute force: at each position every n-gram
    from ``max_ngram`` tokens down is joined with underscores and looked
    up, with no bound on where the probe starts.  Surface -> count, in
    first-match order."""
    counts: dict[str, int] = {}
    i = 0
    while i < len(tokens):
        for n in range(min(max_ngram, len(tokens) - i), 0, -1):
            joined = "_".join(tokens[i : i + n])
            if joined in surfaces and not (n == 1 and joined in stopwords):
                counts[joined] = counts.get(joined, 0) + 1
                i += n
                break
        else:
            i += 1
    return counts
