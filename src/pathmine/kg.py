"""Indexed, immutable knowledge-graph store for ConceptNet-style edge dumps.

The input dump is tab-separated with five fields per line::

    assertion_uri <TAB> relation_uri <TAB> start_uri <TAB> end_uri <TAB> json_metadata

Relation URIs look like ``/r/AtLocation``; concept URIs like
``/c/en/ice_cream[/...]`` (trailing sense segments are dropped).  Edge
weights come from the metadata key ``"weight"`` and default to 1.0.

The persisted index is a little-endian binary file: magic ``PMKG``, a u32
format version, tagged length-prefixed sections, and a trailing 64-bit
checksum.  Walk statistics are stored in the ``STAT`` section so they are
computed once per graph.

All traversal is direction-agnostic: a stored edge can be walked from
either endpoint, and relation names are reported unmodified.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import kernels

MAGIC = b"PMKG"
FORMAT_VERSION = 1

# Relations whose assertions are unordered; used only to deduplicate
# mirror-image lines at ingestion (traversal is bidirectional regardless).
SYMMETRIC_RELATIONS = frozenset(
    {
        "RelatedTo",
        "Synonym",
        "Antonym",
        "DistinctFrom",
        "SimilarTo",
        "LocatedNear",
        "EtymologicallyRelatedTo",
    }
)


class PathmineError(Exception):
    """Base class for package errors."""


class IngestError(PathmineError):
    """The dump could not be turned into a usable graph."""


class IndexFormatError(PathmineError):
    """The index file is not a readable pathmine index."""


class IndexVersionError(IndexFormatError):
    """The index file has an unsupported format version."""


class IndexTruncatedError(IndexFormatError):
    """The index file ends before its declared contents."""


class IndexChecksumError(IndexFormatError):
    """The index file's trailing checksum does not match its contents."""


@dataclass(frozen=True)
class Concept:
    id: int
    surface: str
    language: str


@dataclass(frozen=True)
class Relation:
    id: int
    name: str
    symmetric: bool


@dataclass(frozen=True)
class Edge:
    start: int
    relation: int
    end: int
    weight: float


@dataclass
class IngestReport:
    lines_total: int = 0
    edges_kept: int = 0
    skipped_malformed: int = 0
    skipped_language: int = 0
    duplicates_removed: int = 0

    def summary(self) -> str:
        return (
            f"lines={self.lines_total} kept={self.edges_kept} "
            f"malformed={self.skipped_malformed} other_language={self.skipped_language} "
            f"duplicates={self.duplicates_removed}"
        )


def _normalize_surface(raw: str) -> str:
    return raw.strip().lower().replace(" ", "_")


def _parse_concept_uri(uri: str) -> tuple[str, str] | None:
    # /c/<lang>/<surface>[/...]
    parts = uri.split("/")
    if len(parts) < 4 or parts[0] != "" or parts[1] != "c":
        return None
    lang = parts[2]
    surface = _normalize_surface(parts[3])
    if not lang or not surface:
        return None
    return lang, surface


class KnowledgeGraph:
    """Immutable concept/relation/edge store with O(1)-amortized adjacency.

    Construction is single-writer; afterwards the graph is safe for any
    number of concurrent readers and can be shared freely across threads.
    """

    def __init__(
        self,
        lang: str,
        surfaces: list[str],
        relation_names: list[str],
        relation_symmetric: np.ndarray,
        edge_start: np.ndarray,
        edge_rel: np.ndarray,
        edge_end: np.ndarray,
        edge_weight: np.ndarray,
    ):
        self.lang = lang
        self.surfaces = surfaces
        self.surface_to_id = {s: i for i, s in enumerate(surfaces)}
        if len(self.surface_to_id) != len(surfaces):
            raise ValueError("duplicate concept surfaces")
        self.relation_names = relation_names
        self.relation_symmetric = np.asarray(relation_symmetric, dtype=np.bool_)
        self.edge_start = np.asarray(edge_start, dtype=np.int32)
        self.edge_rel = np.asarray(edge_rel, dtype=np.int32)
        self.edge_end = np.asarray(edge_end, dtype=np.int32)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float32)
        self._build_indices()

    def _build_indices(self) -> None:
        n = self.node_count
        order = np.lexsort((self.edge_rel, self.edge_end, self.edge_start))
        self.fwd_dst = self.edge_end[order].copy()
        self.fwd_rel = self.edge_rel[order].copy()
        counts = np.bincount(self.edge_start, minlength=n)
        self.fwd_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.fwd_indptr[1:])

        order = np.lexsort((self.edge_rel, self.edge_start, self.edge_end))
        self.rev_dst = self.edge_start[order].copy()
        self.rev_rel = self.edge_rel[order].copy()
        counts = np.bincount(self.edge_end, minlength=n)
        self.rev_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.rev_indptr[1:])

        self.neighbor_count = kernels.neighbor_counts(
            self.fwd_indptr, self.fwd_dst, self.rev_indptr, self.rev_dst, n
        )
        # all-concepts mask shared by unconstrained tree expansions
        self.all_allowed = np.ones(n, dtype=np.bool_)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.surfaces)

    @property
    def edge_count(self) -> int:
        return int(self.edge_start.size)

    def concept(self, cid: int) -> Concept:
        self._check_concept(cid)
        return Concept(cid, self.surfaces[cid], self.lang)

    def concept_id(self, surface: str) -> int | None:
        return self.surface_to_id.get(surface)

    def relation(self, rid: int) -> Relation:
        if not 0 <= rid < len(self.relation_names):
            raise ValueError(f"unknown relation id {rid}")
        name = self.relation_names[rid]
        return Relation(rid, name, name in SYMMETRIC_RELATIONS)

    def edge(self, idx: int) -> Edge:
        if not 0 <= idx < self.edge_count:
            raise ValueError(f"edge index {idx} out of range")
        return Edge(
            int(self.edge_start[idx]),
            int(self.edge_rel[idx]),
            int(self.edge_end[idx]),
            float(self.edge_weight[idx]),
        )

    def degree(self, cid: int) -> int:
        """Stored edges incident to the concept, parallel edges counted."""
        self._check_concept(cid)
        return int(
            self.fwd_indptr[cid + 1]
            - self.fwd_indptr[cid]
            + self.rev_indptr[cid + 1]
            - self.rev_indptr[cid]
        )

    def _check_concept(self, cid: int) -> None:
        if not 0 <= cid < self.node_count:
            raise ValueError(f"unknown concept id {cid}")

    # -- queries -----------------------------------------------------------

    def neighbors(self, cid: int, direction: str = "both") -> list[tuple[int, int]]:
        """(relation id, concept id) pairs adjacent to ``cid``.

        Deduplicated on (relation, concept) and sorted by concept id then
        relation id.  ``direction`` is "out", "in", or "both".
        """
        self._check_concept(cid)
        if direction not in ("out", "in", "both"):
            raise ValueError(f"invalid direction {direction!r}")
        parts = []
        if direction in ("out", "both"):
            lo, hi = self.fwd_indptr[cid], self.fwd_indptr[cid + 1]
            parts.append((self.fwd_dst[lo:hi], self.fwd_rel[lo:hi]))
        if direction in ("in", "both"):
            lo, hi = self.rev_indptr[cid], self.rev_indptr[cid + 1]
            parts.append((self.rev_dst[lo:hi], self.rev_rel[lo:hi]))
        concepts = np.concatenate([p[0] for p in parts])
        rels = np.concatenate([p[1] for p in parts])
        if concepts.size == 0:
            return []
        pairs = np.unique(np.stack([concepts, rels], axis=1), axis=0)
        return [(int(r), int(c)) for c, r in pairs]

    def edges_between(self, a: int, b: int) -> list[int]:
        """Relation ids usable for a hop between ``a`` and ``b`` (sorted)."""
        self._check_concept(a)
        self._check_concept(b)
        rels = []
        for src, dst in ((a, b), (b, a)):
            lo, hi = self.fwd_indptr[src], self.fwd_indptr[src + 1]
            row = self.fwd_dst[lo:hi]
            left = int(np.searchsorted(row, dst, side="left"))
            right = int(np.searchsorted(row, dst, side="right"))
            rels.extend(int(r) for r in self.fwd_rel[lo + left : lo + right])
        return sorted(set(rels))

    def pair_multiplicity(self, a: int, b: int) -> int:
        """Stored edges between the pair in either orientation."""
        self._check_concept(a)
        self._check_concept(b)
        return kernels.pair_multiplicity(
            self.fwd_indptr, self.fwd_dst, self.rev_indptr, self.rev_dst, a, b
        )

    def walk_count(self, k: int) -> int:
        """Number of k-edge walks, counted with edge multiplicity.

        Computed as the grand sum of the k-fold direction-agnostic adjacency
        operator applied to the all-ones vector; no matrix power is ever
        materialized.
        """
        if not 1 <= k <= 4:
            raise ValueError(f"walk length {k} out of range 1..4")
        return kernels.walk_totals(
            self.fwd_indptr, self.fwd_dst, self.rev_indptr, self.rev_dst, self.node_count, k
        )

    # -- equality (used by ingestion-idempotence tests) ---------------------

    def same_tables(self, other: "KnowledgeGraph") -> bool:
        return (
            self.lang == other.lang
            and self.surfaces == other.surfaces
            and self.relation_names == other.relation_names
            and np.array_equal(self.edge_start, other.edge_start)
            and np.array_equal(self.edge_rel, other.edge_rel)
            and np.array_equal(self.edge_end, other.edge_end)
            and np.array_equal(self.edge_weight, other.edge_weight)
        )


# ---------------------------------------------------------------------------
# ingestion


def _iter_lines(source: BinaryIO | Iterable[bytes]) -> Iterator[bytes]:
    if hasattr(source, "read"):
        for line in source:  # type: ignore[union-attr]
            yield line
    else:
        yield from source


def _assemble(
    lang: str,
    triples: Iterable[tuple[str, str, str, float]],
    report: IngestReport,
    extra_concepts: Iterable[str] = (),
) -> KnowledgeGraph:
    surfaces: list[str] = []
    surface_ids: dict[str, int] = {}
    relation_names: list[str] = []
    relation_ids: dict[str, int] = {}
    starts: list[int] = []
    rels: list[int] = []
    ends: list[int] = []
    weights: list[float] = []

    def concept_of(surface: str) -> int:
        cid = surface_ids.get(surface)
        if cid is None:
            cid = len(surfaces)
            surface_ids[surface] = cid
            surfaces.append(surface)
        return cid

    for extra in extra_concepts:
        concept_of(_normalize_surface(extra))

    for start_surf, rel_name, end_surf, weight in triples:
        rid = relation_ids.get(rel_name)
        if rid is None:
            rid = len(relation_names)
            relation_ids[rel_name] = rid
            relation_names.append(rel_name)
        starts.append(concept_of(start_surf))
        rels.append(rid)
        ends.append(concept_of(end_surf))
        weights.append(weight)

    edge_start = np.asarray(starts, dtype=np.int32)
    edge_rel = np.asarray(rels, dtype=np.int32)
    edge_end = np.asarray(ends, dtype=np.int32)
    edge_weight = np.asarray(weights, dtype=np.float32)

    # deduplicate exact triples; symmetric relations also fold mirror images
    if edge_start.size:
        symmetric = np.asarray(
            [name in SYMMETRIC_RELATIONS for name in relation_names], dtype=np.bool_
        )
        sym_edge = symmetric[edge_rel]
        lo = np.where(sym_edge, np.minimum(edge_start, edge_end), edge_start)
        hi = np.where(sym_edge, np.maximum(edge_start, edge_end), edge_end)
        keys = np.stack([lo, edge_rel, hi], axis=1)
        _, first = np.unique(keys, axis=0, return_index=True)
        keep = np.sort(first)
        report.duplicates_removed = int(edge_start.size - keep.size)
        edge_start = edge_start[keep]
        edge_rel = edge_rel[keep]
        edge_end = edge_end[keep]
        edge_weight = edge_weight[keep]

    report.edges_kept = int(edge_start.size)
    return KnowledgeGraph(
        lang,
        surfaces,
        relation_names,
        np.asarray([name in SYMMETRIC_RELATIONS for name in relation_names], dtype=np.bool_),
        edge_start,
        edge_rel,
        edge_end,
        edge_weight,
    )


def ingest_csv(
    source: BinaryIO | Iterable[bytes], lang: str
) -> tuple[KnowledgeGraph, IngestReport]:
    """Parse an assertion dump, keeping edges whose endpoints match ``lang``.

    Malformed lines are skipped and counted in the returned report; a dump
    yielding zero edges raises :class:`IngestError`.
    """
    if not lang:
        raise ValueError("language tag must be non-empty")
    report = IngestReport()
    triples: list[tuple[str, str, str, float]] = []
    for raw in _iter_lines(source):
        report.lines_total += 1
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            report.skipped_malformed += 1
            continue
        line = line.rstrip("\r\n")
        if not line:
            report.skipped_malformed += 1
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            report.skipped_malformed += 1
            continue
        _, rel_uri, start_uri, end_uri, meta = fields
        if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
            report.skipped_malformed += 1
            continue
        rel_name = rel_uri[3:]
        start = _parse_concept_uri(start_uri)
        end = _parse_concept_uri(end_uri)
        if start is None or end is None:
            report.skipped_malformed += 1
            continue
        try:
            weight = float(json.loads(meta).get("weight", 1.0)) if meta.strip() else 1.0
        except (ValueError, AttributeError):
            report.skipped_malformed += 1
            continue
        if weight < 0:
            report.skipped_malformed += 1
            continue
        if start[0] != lang or end[0] != lang:
            report.skipped_language += 1
            continue
        triples.append((start[1], rel_name, end[1], weight))
    if not triples:
        raise IngestError("no edges")
    return _assemble(lang, triples, report), report


def graph_from_triples(
    triples: Iterable[tuple[str, str, str]],
    lang: str = "en",
    extra_concepts: Iterable[str] = (),
    weights: Iterable[float] | None = None,
) -> KnowledgeGraph:
    """Build a graph directly from (start, relation, end) surface triples.

    Convenience constructor for hand-built graphs; ids are assigned in
    first-appearance order exactly as ingestion would.
    """
    triples = list(triples)
    if weights is None:
        weights = [1.0] * len(triples)
    rows = [
        (_normalize_surface(s), r, _normalize_surface(e), w)
        for (s, r, e), w in zip(triples, weights)
    ]
    return _assemble(lang, rows, IngestReport(), extra_concepts=extra_concepts)


# ---------------------------------------------------------------------------
# walk statistics


@dataclass(frozen=True)
class WalkStats:
    """Global walk totals reused by every association score.

    ``walks_len3``/``walks_len4`` count walks of 3 and 4 concepts (2 and 3
    edges); both must be positive.
    """

    walks_len3: int
    walks_len4: int
    node_count: int

    @classmethod
    def from_graph(cls, g: KnowledgeGraph) -> "WalkStats":
        w3 = g.walk_count(2)
        w4 = g.walk_count(3)
        if w3 <= 0 or w4 <= 0:
            raise PathmineError("graph has no multi-step walks; cannot build statistics")
        if max(w3, w4) >= 1 << 63:
            raise PathmineError("walk totals exceed the 64-bit range of the index")
        return cls(walks_len3=w3, walks_len4=w4, node_count=g.node_count)


# ---------------------------------------------------------------------------
# binary persistence


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise IndexTruncatedError("index file ends mid-record")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        return self.take(self.u32()).decode("utf-8")


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def save_index(g: KnowledgeGraph, sink: BinaryIO | str, stats: WalkStats | None = None) -> None:
    """Write the graph (and optional walk statistics) as a versioned index."""
    own = isinstance(sink, str)
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        body = io.BytesIO()
        body.write(MAGIC)
        body.write(struct.pack("<I", FORMAT_VERSION))

        def section(tag: bytes, payload: bytes) -> None:
            body.write(tag)
            body.write(struct.pack("<Q", len(payload)))
            body.write(payload)

        meta = _pack_str(g.lang)
        meta += struct.pack("<QQQ", g.node_count, len(g.relation_names), g.edge_count)
        section(b"META", meta)
        section(b"CONC", b"".join(_pack_str(s) for s in g.surfaces))
        section(
            b"RELS",
            b"".join(
                _pack_str(name) + struct.pack("<B", name in SYMMETRIC_RELATIONS)
                for name in g.relation_names
            ),
        )
        edges = (
            g.edge_start.astype("<i4").tobytes()
            + g.edge_rel.astype("<i4").tobytes()
            + g.edge_end.astype("<i4").tobytes()
            + g.edge_weight.astype("<f4").tobytes()
        )
        section(b"EDGE", edges)
        if stats is not None:
            section(
                b"STAT",
                struct.pack("<QQQ", stats.walks_len3, stats.walks_len4, stats.node_count),
            )
        payload = body.getvalue()
        fh.write(payload)
        fh.write(struct.pack("<Q", _checksum(payload)))
    finally:
        if own:
            fh.close()


def load_index(source: BinaryIO | str) -> tuple[KnowledgeGraph, WalkStats | None]:
    """Read an index produced by :func:`save_index`.

    Raises :class:`IndexVersionError`, :class:`IndexTruncatedError`, or
    :class:`IndexChecksumError` for the corresponding defects.
    """
    own = isinstance(source, str)
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        blob = fh.read()
    finally:
        if own:
            fh.close()
    if len(blob) < len(MAGIC) + 4 + 8:
        raise IndexTruncatedError("index file too short")
    payload, trailer = blob[:-8], blob[-8:]
    if payload[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic bytes")
    if struct.unpack("<Q", trailer)[0] != _checksum(payload):
        raise IndexChecksumError("index checksum mismatch")
    rd = _Reader(payload)
    rd.take(len(MAGIC))
    version = rd.u32()
    if version != FORMAT_VERSION:
        raise IndexVersionError(f"unsupported index version {version}")

    sections: dict[bytes, bytes] = {}
    while rd.pos < len(payload):
        tag = rd.take(4)
        sections[tag] = rd.take(rd.u64())
    for required in (b"META", b"CONC", b"RELS", b"EDGE"):
        if required not in sections:
            raise IndexFormatError(f"missing section {required!r}")

    meta = _Reader(sections[b"META"])
    lang = meta.string()
    n_concepts = meta.u64()
    n_relations = meta.u64()
    n_edges = meta.u64()

    conc = _Reader(sections[b"CONC"])
    surfaces = [conc.string() for _ in range(n_concepts)]
    rels_rd = _Reader(sections[b"RELS"])
    relation_names = []
    symmetric = np.zeros(n_relations, dtype=np.bool_)
    for i in range(n_relations):
        relation_names.append(rels_rd.string())
        symmetric[i] = rels_rd.take(1)[0] != 0
    edge_blob = sections[b"EDGE"]
    if len(edge_blob) != n_edges * 16:
        raise IndexTruncatedError("edge section has wrong length")
    off = 0
    edge_start = np.frombuffer(edge_blob, dtype="<i4", count=n_edges, offset=off)
    off += n_edges * 4
    edge_rel = np.frombuffer(edge_blob, dtype="<i4", count=n_edges, offset=off)
    off += n_edges * 4
    edge_end = np.frombuffer(edge_blob, dtype="<i4", count=n_edges, offset=off)
    off += n_edges * 4
    edge_weight = np.frombuffer(edge_blob, dtype="<f4", count=n_edges, offset=off)

    g = KnowledgeGraph(
        lang, surfaces, relation_names, symmetric, edge_start, edge_rel, edge_end, edge_weight
    )
    stats = None
    if b"STAT" in sections:
        w3, w4, nc = struct.unpack("<QQQ", sections[b"STAT"])
        stats = WalkStats(walks_len3=w3, walks_len4=w4, node_count=nc)
    return g, stats
