"""Indexed, immutable knowledge-graph store for ConceptNet-style edge dumps.

The input dump is tab-separated with five fields per line::

    assertion_uri <TAB> relation_uri <TAB> start_uri <TAB> end_uri <TAB> json_metadata

Relation URIs look like ``/r/AtLocation``; concept URIs like
``/c/en/ice_cream[/...]`` (trailing sense segments are dropped).  Edge
weights come from the metadata key ``"weight"`` and default to 1.0; a
weight must be finite and non-negative as float32, or the line counts as
malformed.

Ingest reads the dump in blocks of whole lines (``_BLOCK_BYTES``, about
4 MiB) and works on each block column by column; only a block that is
not valid UTF-8 is decoded line by line.  Each distinct relation or
concept URI is parsed once: URIs of the kept language stay in a table
across blocks, the rest are forgotten after their block, so the table
grows with the graph's concepts rather than with the dump.  Metadata is
parsed once per line.  Memory is one block's columns, the kept-language
tables and the kept edges' codes.  Ids are then assigned by first
appearance and duplicates dropped in one vectorized pass, shared with
:func:`graph_from_triples`.

The persisted index (format 2) is a little-endian binary file: magic
``PMKG``, a u32 format version, five sections, and a trailing u64
blake2b checksum of everything before it.  Each section is a 4-byte tag,
a u64 length and its contents:

- ``META``: the language tag, UTF-8;
- ``CONC``: the concept surfaces in id order, one UTF-8 blob joined by
  ``"\\n"`` (no dump field can hold a newline; :func:`save_index` refuses
  a hand-built name that does);
- ``RELS``: the relation names, stored the same way;
- ``EDGE``: the edge table as four columns of E values each: start,
  relation and end ids as i32, then weights as f32 (16 bytes an edge);
- ``STAT``: the walk statistics as three u64, walks of 3 and of 4
  concepts and the concept count, so they are computed once per graph.

Counts come from the sections themselves.  Loading decodes and splits
each string table once.  An index of another format version is refused;
it is rebuilt from its dump with ``pathmine build-index``.

All traversal is direction-agnostic: a stored edge can be walked from
either endpoint, and relation names are reported unmodified.  In memory
the edges form one undirected CSR (``adj_indptr``/``adj_dst``/``adj_rel``)
that lists every stored edge in both endpoints' rows; the index stores
only the edge table, and loading rebuilds the CSR with one sort.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels

MAGIC = b"PMKG"
FORMAT_VERSION = 2

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


def _check_packable(n: int, r: int) -> None:
    """Refuse a graph whose packed (concept, concept, relation) key overflows int64."""
    if n * n * r >= 1 << 63:
        raise PathmineError(
            f"graph too large to index: {n} concepts x {r} relations exceed a 64-bit key"
        )


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
        edge_start: np.ndarray,
        edge_rel: np.ndarray,
        edge_end: np.ndarray,
        edge_weight: np.ndarray,
    ):
        self.lang = lang
        self.surfaces = surfaces
        self.surface_to_id = dict(zip(surfaces, range(len(surfaces))))
        if len(self.surface_to_id) != len(surfaces):
            raise ValueError("duplicate concept surfaces")
        self.relation_names = relation_names
        self.edge_start = np.asarray(edge_start, dtype=np.int32)
        self.edge_rel = np.asarray(edge_rel, dtype=np.int32)
        self.edge_end = np.asarray(edge_end, dtype=np.int32)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float32)
        self._build_indices()

    def _build_indices(self) -> None:
        """One undirected CSR: each stored edge sits in both endpoints' rows
        (a self-loop twice in its own), rows sorted by (neighbor, relation)."""
        n = self.node_count
        r = max(len(self.relation_names), 1)
        _check_packable(n, r)
        # sort one packed (row, neighbor, relation) key, then decode it
        key = np.concatenate([self.edge_start, self.edge_end]).astype(np.int64)
        key *= n
        key += np.concatenate([self.edge_end, self.edge_start])
        key *= r
        key += np.concatenate([self.edge_rel, self.edge_rel])
        key.sort()
        self.adj_indptr = key.searchsorted(np.arange(n + 1, dtype=np.int64) * (n * r))
        self.adj_rel = (key % r).astype(np.int32)
        key //= r
        self.adj_dst = (key % n).astype(np.int32)
        self.degrees = np.diff(self.adj_indptr)
        self.neighbor_count = kernels.neighbor_counts(self.adj_indptr, self.adj_dst)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.surfaces)

    @property
    def edge_count(self) -> int:
        return int(self.edge_start.size)

    def concept_id(self, surface: str) -> int | None:
        return self.surface_to_id.get(surface)

    def degree(self, cid: int) -> int:
        """Stored edges incident to the concept, parallel edges counted."""
        self._check_concept(cid)
        return int(self.degrees[cid])

    def _check_concept(self, cid: int) -> None:
        if not 0 <= cid < self.node_count:
            raise ValueError(f"unknown concept id {cid}")

    # -- queries -----------------------------------------------------------

    def neighbors(self, cid: int) -> list[tuple[int, int]]:
        """(relation id, concept id) pairs adjacent to ``cid``.

        Deduplicated on (relation, concept) and sorted by concept id then
        relation id.
        """
        self._check_concept(cid)
        lo, hi = self.adj_indptr[cid], self.adj_indptr[cid + 1]
        pairs = zip(self.adj_dst[lo:hi].tolist(), self.adj_rel[lo:hi].tolist())
        return [(r, c) for c, r in dict.fromkeys(pairs)]

    def edges_between(self, a: int, b: int) -> list[int]:
        """Relation ids usable for a hop between ``a`` and ``b`` (sorted)."""
        self._check_concept(a)
        self._check_concept(b)
        lo, hi = self.adj_indptr[a], self.adj_indptr[a + 1]
        row = self.adj_dst[lo:hi]
        left = lo + row.searchsorted(b, side="left")
        right = lo + row.searchsorted(b, side="right")
        return list(dict.fromkeys(self.adj_rel[left:right].tolist()))

    def pair_multiplicity(self, a: int, b: int) -> int:
        """Stored edges between the pair in either orientation."""
        self._check_concept(a)
        self._check_concept(b)
        return int(kernels.multiplicity(self.adj_indptr, self.adj_dst, np.array([a]), np.array([b]))[0])

    def walk_count(self, k: int) -> int:
        """Number of k-edge walks, counted with edge multiplicity.

        Computed as the grand sum of the k-fold direction-agnostic adjacency
        operator applied to the all-ones vector; no matrix power is ever
        materialized.
        """
        if not 1 <= k <= 4:
            raise ValueError(f"walk length {k} out of range 1..4")
        return kernels.walk_totals(self.adj_indptr, self.adj_dst, self.degrees, k)

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

# bytes read per block: bounds the per-block columns and code tables
_BLOCK_BYTES = 1 << 22

# codes of URIs that give no edge: malformed, or a concept of another language
_MALFORMED = -1
_OTHER_LANGUAGE = -2


def _blocks(source: BinaryIO) -> Iterator[bytes]:
    """The dump file as blocks of whole lines, about ``_BLOCK_BYTES`` each.

    Each block is cut after its last newline; every block but the last
    ends in one.
    """
    # only each new chunk is searched, so a line longer than a block
    # costs time linear in its length
    pending: list[bytes] = []
    while chunk := source.read(_BLOCK_BYTES):
        head, newline, tail = chunk.rpartition(b"\n")
        if newline:
            yield b"".join([*pending, head, newline])
            pending = []
        pending.append(tail)
    if rest := b"".join(pending):
        yield rest


def _split_block(block: bytes) -> tuple[int, list[str]]:
    """(line count, fields of the well-formed lines, five per line).

    A line is well formed when it decodes as UTF-8 and holds exactly four
    tabs.  Lines end at ``\\n`` only; a trailing ``\\r`` stays in the last
    field, where JSON and the blank test read it as whitespace.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, raw.size)
    tabs = np.flatnonzero(raw == ord("\t"))
    ok = np.diff(tabs.searchsorted(ends), prepend=0) == 4
    try:
        lines = block.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        # a line is UTF-8 when it survives a decode with replacement unchanged
        raws = block.split(b"\n")[: ends.size]
        lines = [raw.decode("utf-8", "replace") for raw in raws]
        ok &= [line.encode("utf-8") == raw for line, raw in zip(lines, raws)]
    return ends.size, "\t".join(compress(lines, ok)).split("\t")


def _codes(column: list[str], table: dict[str, int], parse: Callable[[str], int]) -> np.ndarray:
    """``parse`` of each value, called once per value not yet in ``table``.

    Non-negative codes stay in ``table`` for later blocks; negative ones
    (rejected values) serve this call only, so the table grows with the
    accepted values, not with the length of the dump.
    """
    rejected: dict[str, int] = {}
    for value in set(column).difference(table):
        code = parse(value)
        if code >= 0:
            table[value] = code
        else:
            rejected[value] = code
    table.update(rejected)
    # one C-level lookup; itemgetter gives a bare value for a single key
    codes = np.array(itemgetter(*column)(table) if column else (), dtype=np.int64).reshape(-1)
    for value in rejected:
        del table[value]
    return codes


# json.loads is this plus whitespace handling in Python that costs more
# than decoding a short metadata object; _weight strips the whitespace
# JSON allows around a value itself
_decode_json = json.JSONDecoder().raw_decode


def _weight(meta: str) -> float:
    """The metadata's ``"weight"`` (1.0 when absent), or NaN if unreadable."""
    if not meta.strip():
        return 1.0
    body = meta.strip(" \t\n\r")
    try:
        value, end = _decode_json(body)
        if end != len(body):
            return math.nan
        return float(value.get("weight", 1.0))
    except (ValueError, TypeError, AttributeError, OverflowError, RecursionError):
        return math.nan


def _first_appearance(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct codes (each in [0, size)), in the order of their first
    position in ``codes``."""
    first = np.full(size, codes.size)
    np.minimum.at(first, codes, np.arange(codes.size))
    present = np.flatnonzero(first < codes.size)
    return present[np.argsort(first[present])]


def _assemble(
    lang: str,
    surfaces: list[str],
    relation_names: list[str],
    start: np.ndarray,
    rel: np.ndarray,
    end: np.ndarray,
    weight: np.ndarray,
    extra: Sequence[int] = (),
) -> KnowledgeGraph:
    """The graph of coded edges: ``start``/``end`` index ``surfaces`` and
    ``rel`` indexes ``relation_names``.

    Ids follow first appearance: the ``extra`` concepts, then each edge's
    start before its end.  Of duplicate edges the first is kept.
    """
    walk = np.stack([start, end], axis=1).ravel()
    concepts = _first_appearance(
        np.concatenate([np.array(extra, dtype=np.int64), walk]), len(surfaces)
    )
    relations = _first_appearance(rel, len(relation_names))
    concept_id = np.empty(len(surfaces), dtype=np.int64)
    concept_id[concepts] = np.arange(concepts.size)
    relation_id = np.empty(len(relation_names), dtype=np.int64)
    relation_id[relations] = np.arange(relations.size)
    start, rel, end = concept_id[start], relation_id[rel], concept_id[end]
    names = [relation_names[r] for r in relations.tolist()]

    # deduplicate exact triples, symmetric relations also folding mirror
    # images, by one packed (lo, relation, hi) key
    n, r = int(concepts.size), max(len(names), 1)
    _check_packable(n, r)
    symmetric = np.array([name in SYMMETRIC_RELATIONS for name in names], dtype=np.bool_)[rel]
    lo = np.where(symmetric, np.minimum(start, end), start)
    hi = np.where(symmetric, np.maximum(start, end), end)
    _, first = np.unique((lo * r + rel) * n + hi, return_index=True)
    keep = np.sort(first)
    return KnowledgeGraph(
        lang,
        [surfaces[c] for c in concepts.tolist()],
        names,
        start[keep],
        rel[keep],
        end[keep],
        weight[keep],
    )


def ingest_csv(source: BinaryIO, lang: str) -> tuple[KnowledgeGraph, IngestReport]:
    """Parse an assertion dump, keeping edges whose endpoints match ``lang``.

    ``source`` is a binary file object, plain or gzip, read in blocks.
    Malformed lines are skipped and counted in the returned report; a
    weight must be finite and non-negative as float32.  A dump yielding
    zero edges raises :class:`IngestError`.
    """
    if not lang:
        raise ValueError("language tag must be non-empty")
    report = IngestReport()
    surfaces: dict[str, int] = {}
    relation_names: dict[str, int] = {}
    concept_codes: dict[str, int] = {}
    relation_codes: dict[str, int] = {}

    def concept_code(uri: str) -> int:
        parsed = _parse_concept_uri(uri)
        if parsed is None:
            return _MALFORMED
        if parsed[0] != lang:
            return _OTHER_LANGUAGE
        return surfaces.setdefault(parsed[1], len(surfaces))

    def relation_code(uri: str) -> int:
        if not uri.startswith("/r/") or len(uri) <= 3:
            return _MALFORMED
        return relation_names.setdefault(uri[3:], len(relation_names))

    parts: list[tuple[np.ndarray, ...]] = []
    for block in _blocks(source):
        n_lines, fields = _split_block(block)
        rel = _codes(fields[1::5], relation_codes, relation_code)
        k = rel.size
        endpoints = _codes(fields[2::5] + fields[3::5], concept_codes, concept_code)
        start, end = endpoints[:k], endpoints[k:]
        weight = np.fromiter(map(_weight, fields[4::5]), np.float64, k)
        with np.errstate(over="ignore"):
            weight32 = weight.astype(np.float32)
        malformed = (rel < 0) | (start == _MALFORMED) | (end == _MALFORMED)
        malformed |= ~(weight >= 0) | ~np.isfinite(weight32)
        keep = ~malformed & (start >= 0) & (end >= 0)
        n_malformed = n_lines - k + int(np.count_nonzero(malformed))
        n_kept = int(np.count_nonzero(keep))
        report.lines_total += n_lines
        report.skipped_malformed += n_malformed
        report.skipped_language += n_lines - n_malformed - n_kept
        parts.append((start[keep], rel[keep], end[keep], weight32[keep]))
    if not any(part[0].size for part in parts):
        raise IngestError("no edges")
    start, rel, end, weight = map(np.concatenate, zip(*parts))
    g = _assemble(lang, list(surfaces), list(relation_names), start, rel, end, weight)
    report.edges_kept = g.edge_count
    report.duplicates_removed = int(start.size) - g.edge_count
    return g, report


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
    weight = np.array([1.0] * len(triples) if weights is None else list(weights), dtype=np.float32)
    if weight.shape != (len(triples),):
        raise ValueError(f"{weight.size} weights for {len(triples)} triples")
    surfaces: dict[str, int] = {}
    relation_names: dict[str, int] = {}

    def concept(surface: str) -> int:
        return surfaces.setdefault(_normalize_surface(surface), len(surfaces))

    extra = [concept(s) for s in extra_concepts]
    coded = np.array(
        [(concept(s), relation_names.setdefault(r, len(relation_names)), concept(e)) for s, r, e in triples],
        dtype=np.int64,
    ).reshape(-1, 3)
    return _assemble(lang, list(surfaces), list(relation_names), *coded.T, weight, extra)


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


def _checksum(payload: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _name_table(names: list[str], what: str) -> bytes:
    """The names joined by newlines, as UTF-8; a name holding one is refused."""
    if "\n" in "".join(names):
        raise ValueError(f"a {what} name contains a newline; the index cannot store it")
    return "\n".join(names).encode("utf-8")


def save_index(g: KnowledgeGraph, sink: BinaryIO | str, stats: WalkStats) -> None:
    """Write the graph and its walk statistics as a versioned index."""
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(struct.pack("<I", FORMAT_VERSION))
    for tag, payload in (
        (b"META", g.lang.encode("utf-8")),
        (b"CONC", _name_table(g.surfaces, "concept")),
        (b"RELS", _name_table(g.relation_names, "relation")),
        (b"EDGE", np.concatenate([g.edge_start, g.edge_rel, g.edge_end]).astype("<i4").tobytes()
         + g.edge_weight.astype("<f4").tobytes()),
        (b"STAT", struct.pack("<QQQ", stats.walks_len3, stats.walks_len4, stats.node_count)),
    ):
        body.write(tag)
        body.write(struct.pack("<Q", len(payload)))
        body.write(payload)
    payload = body.getvalue()
    own = isinstance(sink, str)
    fh: BinaryIO = open(sink, "wb") if own else sink  # type: ignore[assignment]
    try:
        fh.write(payload)
        fh.write(struct.pack("<Q", _checksum(payload)))
    finally:
        if own:
            fh.close()


def _sections(payload: memoryview) -> dict[bytes, memoryview]:
    """Section tag to contents (views, not copies), for the sections after
    magic and version."""
    sections: dict[bytes, memoryview] = {}
    pos = len(MAGIC) + 4
    while pos < len(payload):
        if pos + 12 > len(payload):
            raise IndexTruncatedError("index file ends mid-section header")
        tag, (size,) = bytes(payload[pos : pos + 4]), struct.unpack_from("<Q", payload, pos + 4)
        pos += 12
        if pos + size > len(payload):
            raise IndexTruncatedError(f"index section {tag!r} ends past the file")
        sections[tag] = payload[pos : pos + size]
        pos += size
    return sections


def _text(section: memoryview, what: str) -> str:
    try:
        return str(section, "utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"index {what} is not UTF-8: {exc.reason}") from None


def load_index(source: BinaryIO | str) -> tuple[KnowledgeGraph, WalkStats]:
    """Read an index produced by :func:`save_index`.

    Raises :class:`IndexVersionError`, :class:`IndexTruncatedError`, or
    :class:`IndexChecksumError` for the corresponding defects, and
    :class:`IndexFormatError` for a missing section, ids out of range,
    text that is not UTF-8, duplicate concept surfaces, or walk statistics
    that are malformed, not positive, or of another graph.
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
    payload, trailer = memoryview(blob)[:-8], blob[-8:]
    if payload[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic bytes")
    if struct.unpack("<Q", trailer)[0] != _checksum(payload):
        raise IndexChecksumError("index checksum mismatch")
    (version,) = struct.unpack_from("<I", payload, len(MAGIC))
    if version != FORMAT_VERSION:
        raise IndexVersionError(
            f"unsupported index version {version} (this pathmine reads {FORMAT_VERSION}); "
            "re-run `pathmine build-index` on the dump"
        )
    sections = _sections(payload)
    for required in (b"META", b"CONC", b"RELS", b"EDGE", b"STAT"):
        if required not in sections:
            raise IndexFormatError(f"missing section {required!r}")

    lang = _text(sections[b"META"], "language tag")
    surfaces = _text(sections[b"CONC"], "concept table").split("\n")
    relation_names = _text(sections[b"RELS"], "relation table").split("\n")
    edge_blob = sections[b"EDGE"]
    if len(edge_blob) % 16:
        raise IndexTruncatedError("edge section has wrong length")
    n_edges = len(edge_blob) // 16
    edge_start, edge_rel, edge_end = np.frombuffer(edge_blob, "<i4", 3 * n_edges).reshape(3, n_edges)
    edge_weight = np.frombuffer(edge_blob, "<f4", offset=12 * n_edges)
    for name, ids, bound in (
        ("edge start", edge_start, len(surfaces)),
        ("edge end", edge_end, len(surfaces)),
        ("relation", edge_rel, len(relation_names)),
    ):
        if ids.size and not (0 <= ids.min() and ids.max() < bound):
            raise IndexFormatError(f"{name} id out of range [0, {bound})")

    if len(sections[b"STAT"]) != 24:
        raise IndexFormatError("walk statistics section has wrong length")
    w3, w4, nc = struct.unpack("<QQQ", sections[b"STAT"])
    if nc != len(surfaces):
        raise IndexFormatError(f"walk statistics are for {nc} concepts, the graph has {len(surfaces)}")
    if not (0 < w3 < 1 << 63 and 0 < w4 < 1 << 63):
        raise IndexFormatError(f"walk statistics totals {w3}, {w4} outside [1, 2**63)")
    try:
        g = KnowledgeGraph(lang, surfaces, relation_names, edge_start, edge_rel, edge_end, edge_weight)
    except ValueError as exc:  # duplicate concept surfaces
        raise IndexFormatError(str(exc)) from None
    return g, WalkStats(walks_len3=w3, walks_len4=w4, node_count=nc)
