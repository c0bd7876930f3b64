"""Indexed, immutable knowledge-graph store for ConceptNet-style edge dumps.

The input dump is tab-separated with five fields per line::

    assertion_uri <TAB> relation_uri <TAB> start_uri <TAB> end_uri <TAB> json_metadata

Relation URIs look like ``/r/AtLocation``; concept URIs like
``/c/en/ice_cream[/...]`` (trailing sense segments are dropped).  The
metadata field is not read: no score uses an edge weight.  A line is
malformed when it does not hold exactly four tabs, is not UTF-8, or has
a relation or concept URI of the wrong shape.

Ingest reads the dump in blocks of whole lines (``_BLOCK_BYTES``, about
4 MiB) and works on each block column by column; only a block that is
not valid UTF-8 is decoded line by line.  Each distinct relation or
concept URI is parsed once: URIs of the kept language stay in a table
across blocks, the rest are forgotten after their block, so the table
grows with the graph's concepts rather than with the dump.  Memory is
one block's columns, the kept-language tables and the kept edges'
codes.  Ids are then assigned by first appearance and duplicates dropped
in one vectorized pass, shared with :func:`graph_from_triples`.

The persisted index (format 4) is a little-endian binary file: magic
``PMKG``, a u32 format version, eight sections, and a trailing u64
blake2b checksum of everything before it.  Each section is a 4-byte tag,
a u64 length and its contents:

- ``META``: the language tag, UTF-8;
- ``CONC``: the concept surfaces in id order, one UTF-8 blob joined by
  ``"\\n"`` (no dump field can hold a newline; :func:`save_index` refuses
  a hand-built name that does);
- ``RELS``: the relation names, stored the same way;
- ``ROWS``: for each concept, the number of edges whose lower endpoint it
  is, u32;
- ``NBRS``: each edge's higher endpoint, i32, grouped by lower endpoint in
  concept order;
- ``EREL``: each edge's relation id, unsigned, at the narrowest width that
  holds every relation id (one byte for up to 256 relations);
- ``FLIP``: one bit per edge, least significant bit first, set when the
  edge starts at its higher endpoint (0 for a self-loop);
- ``STAT``: the walk statistics as three u64, walks of 3 and of 4
  concepts and the concept count, so they are computed once per graph.

So each edge is stored once, as the upper half of the undirected CSR
below and in its order: 5 bytes and one bit an edge with up to 256
relations.  Counts come from the sections themselves.  Loading decodes
and splits each string table once and checks every length, id and count
before it builds anything sized by them.  An index of another format
version is refused; it is rebuilt from its dump with ``pathmine
build-index``.

All traversal is direction-agnostic: a stored edge can be walked from
either endpoint, and relation names are reported unmodified.  In memory
the edges form one undirected CSR (``adj_indptr``/``adj_dst``/``adj_rel``,
with ``adj_incoming`` for orientation) that lists every edge in both
endpoints' rows.  The graph is built by one sort, whether its edges come
from a dump or from an index, so the CSR is symmetric by construction;
the oriented edge columns are derived from it on demand.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import mmap
import os
import struct
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import kernels

MAGIC = b"PMKG"
FORMAT_VERSION = 4

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


def _key_bits(n: int, r: int) -> tuple[int, int]:
    """Bits of a concept id and of a relation id in the packed (row,
    neighbour, relation, side) key of a graph of ``n`` concepts and ``r``
    relations; a graph whose key needs more than 63 bits is refused.

    A concept takes ``n.bit_length()`` bits, so row ``n`` (the end of the
    last row) packs too.
    """
    node_bits, rel_bits = n.bit_length(), (r - 1).bit_length()
    if 2 * node_bits + rel_bits + 1 > 63:
        raise PathmineError(
            f"graph too large to index: {n} concepts x {r} relations exceed a 63-bit key"
        )
    return node_bits, rel_bits


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
    ):
        self.lang = lang
        self.surfaces = surfaces
        self.surface_to_id = dict(zip(surfaces, range(len(surfaces))))
        if len(self.surface_to_id) != len(surfaces):
            raise ValueError("duplicate concept surfaces")
        # first word of each multiword surface -> the most words of any
        # surface starting with it: grounding's longest useful n-gram
        self.multiword_spans: dict[str, int] = {}
        for words in (s.split("_") for s in surfaces if "_" in s):
            if self.multiword_spans.get(words[0], 0) < len(words):
                self.multiword_spans[words[0]] = len(words)
        self.relation_names = relation_names
        self._build_indices(
            np.asarray(edge_start, dtype=np.int32),
            np.asarray(edge_rel, dtype=np.int32),
            np.asarray(edge_end, dtype=np.int32),
        )

    def _build_indices(self, start: np.ndarray, rel: np.ndarray, end: np.ndarray) -> None:
        """One undirected CSR: each edge sits in both endpoints' rows (a
        self-loop twice in its own), rows sorted by (neighbor, relation,
        side).  ``adj_incoming`` marks the entries whose row is the edge's
        end; of a self-loop's two entries, the second."""
        n = self.node_count
        r = max(len(self.relation_names), 1)
        node_bits, rel_bits = _key_bits(n, r)
        # sort one packed (row, neighbor, relation, side) key, then decode it
        key = np.concatenate([start, end]).astype(np.int64)
        key <<= node_bits
        key |= np.concatenate([end, start])
        key <<= rel_bits
        key |= np.concatenate([rel, rel])
        key <<= 1
        key[start.size :] |= 1
        key.sort()
        row_bits = node_bits + rel_bits + 1
        self.adj_indptr = key.searchsorted(np.arange(n + 1, dtype=np.int64) << row_bits)
        self.adj_incoming = (key & 1).astype(np.bool_)
        key >>= 1
        # the smallest type that holds every relation id: one byte for any
        # real relation vocabulary, a quarter of the int32 column
        self.adj_rel = (key & ((1 << rel_bits) - 1)).astype(np.min_scalar_type(r - 1))
        key >>= rel_bits
        key &= (1 << node_bits) - 1
        self.adj_dst = key.astype(np.int32)
        del key  # before the distinct-neighbour count's own temporaries
        self.degrees = np.diff(self.adj_indptr)
        self.neighbor_count = kernels.neighbor_counts(self.adj_indptr, self.adj_dst)

    # -- basic accessors ---------------------------------------------------

    def _upper_half(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each edge once, as the CSR entry in its lower endpoint's row:
        (lower, higher, relation, flip) columns in CSR order, ``flip`` set
        when the edge starts at the higher endpoint."""
        rows = np.repeat(np.arange(self.node_count, dtype=np.int32), self.degrees)
        # a self-loop's two entries differ only in side: keep the start's
        upper = (rows < self.adj_dst) | ((rows == self.adj_dst) & ~self.adj_incoming)
        return rows[upper], self.adj_dst[upper], self.adj_rel[upper], self.adj_incoming[upper]

    @property
    def edge_start(self) -> np.ndarray:
        """Start ids of the edge multiset, ordered by (min, max, relation,
        flip) of each edge; derived from the CSR on every access."""
        lo, hi, _, flip = self._upper_half()
        return np.where(flip, hi, lo)

    @property
    def edge_rel(self) -> np.ndarray:
        """Relation ids of the edges, in :attr:`edge_start`'s order."""
        return self._upper_half()[2].astype(np.int32)

    @property
    def edge_end(self) -> np.ndarray:
        """End ids of the edges, in :attr:`edge_start`'s order."""
        lo, hi, _, flip = self._upper_half()
        return np.where(flip, lo, hi)

    @property
    def node_count(self) -> int:
        return len(self.surfaces)

    @property
    def edge_count(self) -> int:
        return self.adj_dst.size // 2

    def concept_id(self, surface: str) -> int | None:
        return self.surface_to_id.get(surface)

    def _check_concept(self, cid: int) -> None:
        if not 0 <= cid < self.node_count:
            raise ValueError(f"unknown concept id {cid}")

    # -- queries -----------------------------------------------------------

    def edges_between(self, a: int, b: int) -> list[int]:
        """Relation ids usable for a hop between ``a`` and ``b`` (sorted)."""
        self._check_concept(a)
        self._check_concept(b)
        lo, hi = self.adj_indptr[a], self.adj_indptr[a + 1]
        row = self.adj_dst[lo:hi]
        left = lo + row.searchsorted(b, side="left")
        right = lo + row.searchsorted(b, side="right")
        return list(dict.fromkeys(self.adj_rel[left:right].tolist()))

    def walk_counts(self, k: int) -> list[int]:
        """Numbers of 1- to k-edge walks, counted with edge multiplicity
        (parallel edges each count, in either direction; a self-loop twice),
        from one pass of the direction-agnostic adjacency operator over the
        all-ones vector: no matrix power is materialized."""
        if not 1 <= k <= 4:
            raise ValueError(f"walk length {k} out of range 1..4")
        return kernels.walk_totals(self.adj_indptr, self.adj_dst, self.degrees, k)


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
    field, which is not read.
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
    _key_bits(n, r)
    symmetric = np.array([name in SYMMETRIC_RELATIONS for name in names], dtype=np.bool_)[rel]
    lo = np.where(symmetric, np.minimum(start, end), start)
    hi = np.where(symmetric, np.maximum(start, end), end)
    _, keep = np.unique((lo * r + rel) * n + hi, return_index=True)
    return KnowledgeGraph(
        lang,
        [surfaces[c] for c in concepts.tolist()],
        names,
        start[keep],
        rel[keep],
        end[keep],
    )


def ingest_csv(source: BinaryIO, lang: str) -> tuple[KnowledgeGraph, IngestReport]:
    """Parse an assertion dump, keeping edges whose endpoints match ``lang``.

    ``source`` is a binary file object, plain or gzip, read in blocks.
    Malformed lines are skipped and counted in the returned report; the
    metadata field is not read.  A dump yielding zero edges raises
    :class:`IngestError`.
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
        malformed = (rel < 0) | (start == _MALFORMED) | (end == _MALFORMED)
        keep = ~malformed & (start >= 0) & (end >= 0)
        n_malformed = n_lines - k + int(np.count_nonzero(malformed))
        n_kept = int(np.count_nonzero(keep))
        report.lines_total += n_lines
        report.skipped_malformed += n_malformed
        report.skipped_language += n_lines - n_malformed - n_kept
        parts.append((start[keep], rel[keep], end[keep]))
    if not any(part[0].size for part in parts):
        raise IngestError("no edges")
    start, rel, end = map(np.concatenate, zip(*parts))
    g = _assemble(lang, list(surfaces), list(relation_names), start, rel, end)
    report.edges_kept = g.edge_count
    report.duplicates_removed = int(start.size) - g.edge_count
    return g, report


def graph_from_triples(
    triples: Iterable[tuple[str, str, str]],
    lang: str = "en",
    extra_concepts: Iterable[str] = (),
) -> KnowledgeGraph:
    """Build a graph directly from (start, relation, end) surface triples.

    Convenience constructor for hand-built graphs; ids are assigned in
    first-appearance order exactly as ingestion would.
    """
    surfaces: dict[str, int] = {}
    relation_names: dict[str, int] = {}

    def concept(surface: str) -> int:
        return surfaces.setdefault(_normalize_surface(surface), len(surfaces))

    extra = [concept(s) for s in extra_concepts]
    coded = np.array(
        [(concept(s), relation_names.setdefault(r, len(relation_names)), concept(e)) for s, r, e in triples],
        dtype=np.int64,
    ).reshape(-1, 3)
    return _assemble(lang, list(surfaces), list(relation_names), *coded.T, extra)


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
        _, w3, w4 = g.walk_counts(3)
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
    """Write the graph and its walk statistics as a versioned index.

    A path is written through a new file in its directory that then
    replaces it, so a write that fails leaves the previous file whole.
    """
    if stats.node_count != g.node_count:
        raise ValueError(f"walk statistics are for {stats.node_count} concepts, the graph has {g.node_count}")
    lower, higher, rel, flip = g._upper_half()
    body = io.BytesIO()
    body.write(MAGIC)
    body.write(struct.pack("<I", FORMAT_VERSION))
    for tag, payload in (
        (b"META", g.lang.encode("utf-8")),
        (b"CONC", _name_table(g.surfaces, "concept")),
        (b"RELS", _name_table(g.relation_names, "relation")),
        (b"ROWS", np.bincount(lower, minlength=g.node_count).astype("<u4").tobytes()),
        (b"NBRS", higher.astype("<i4").tobytes()),
        (b"EREL", rel.astype(f"<u{rel.itemsize}").tobytes()),
        (b"FLIP", np.packbits(flip, bitorder="little").tobytes()),
        (b"STAT", struct.pack("<QQQ", stats.walks_len3, stats.walks_len4, stats.node_count)),
    ):
        body.write(tag)
        body.write(struct.pack("<Q", len(payload)))
        body.write(payload)
    payload = body.getvalue()
    if not isinstance(sink, str):
        _write_sealed(sink, payload)
        return
    target = os.path.realpath(sink)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or a pipe cannot be replaced: it is written in place
        with open(target, "wb") as fh:
            _write_sealed(fh, payload)
        return
    partial = f"{target}.{os.getpid()}.partial"
    try:
        with open(partial, "wb") as fh:
            _write_sealed(fh, payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def _write_sealed(fh: BinaryIO, payload: bytes) -> None:
    """The payload, then its checksum."""
    fh.write(payload)
    fh.write(struct.pack("<Q", _checksum(payload)))


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
    :class:`IndexFormatError` for a missing section, a section of the
    wrong length, row counts that do not sum to the edges, an edge stored
    below the diagonal, ids out of range, text that is not UTF-8,
    duplicate concept surfaces, or walk statistics that are malformed, not
    positive, or of another graph.
    """
    lang, surfaces, relation_names, edges, (w3, w4, nc) = _read_index(source)
    try:
        g = KnowledgeGraph(lang, surfaces, relation_names, *edges)
    except ValueError as exc:  # duplicate concept surfaces
        raise IndexFormatError(str(exc)) from None
    return g, WalkStats(walks_len3=w3, walks_len4=w4, node_count=nc)


def _read_index(source: BinaryIO | str):
    """The checked contents of an index: its language, name tables, oriented
    edge columns (decoded out of the file's bytes) and walk statistics.
    The bytes sit in an anonymous map, not on the heap, so they are handed
    back whole when it returns, before the CSR is built."""
    own = isinstance(source, str)
    fh: BinaryIO = open(source, "rb") if own else source  # type: ignore[assignment]
    try:
        start = fh.tell()
        size = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)
        if size < len(MAGIC) + 4 + 8:
            raise IndexTruncatedError("index file too short")
        blob = mmap.mmap(-1, size)
        fh.readinto(blob)  # a short read leaves zeros, which fail the checksum
    finally:
        if own:
            fh.close()
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
    for required in (b"META", b"CONC", b"RELS", b"ROWS", b"NBRS", b"EREL", b"FLIP", b"STAT"):
        if required not in sections:
            raise IndexFormatError(f"missing section {required!r}")

    lang = _text(sections[b"META"], "language tag")
    surfaces = _text(sections[b"CONC"], "concept table").split("\n")
    relation_names = _text(sections[b"RELS"], "relation table").split("\n")
    edges = _edge_columns(sections, len(surfaces), len(relation_names))

    if len(sections[b"STAT"]) != 24:
        raise IndexFormatError("walk statistics section has wrong length")
    w3, w4, nc = struct.unpack("<QQQ", sections[b"STAT"])
    if nc != len(surfaces):
        raise IndexFormatError(f"walk statistics are for {nc} concepts, the graph has {len(surfaces)}")
    if not (0 < w3 < 1 << 63 and 0 < w4 < 1 << 63):
        raise IndexFormatError(f"walk statistics totals {w3}, {w4} outside [1, 2**63)")
    return lang, surfaces, relation_names, edges, (w3, w4, nc)


def _edge_columns(
    sections: dict[bytes, memoryview], n: int, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked upper half of an index as (start, relation, end) columns
    for ``n`` concepts and ``r`` relation names.  Every length and the
    count sum are checked before anything sized by the counts is made."""
    width = np.min_scalar_type(max(r, 1) - 1).itemsize  # as _build_indices narrows adj_rel
    rows, higher, rel, flip = (sections[tag] for tag in (b"ROWS", b"NBRS", b"EREL", b"FLIP"))
    if len(rows) != 4 * n:
        raise IndexFormatError(f"row count section holds {len(rows)} bytes, not 4 for each of {n} concepts")
    if len(higher) % 4:
        raise IndexFormatError(f"neighbour section holds {len(higher)} bytes, not 4 an edge")
    e = len(higher) // 4
    if len(rel) != width * e:
        raise IndexFormatError(f"relation id section holds {len(rel)} bytes, not {width} for each of {e} edges")
    if len(flip) != (e + 7) // 8:
        raise IndexFormatError(f"orientation section holds {len(flip)} bytes, not one bit for each of {e} edges")
    counts = np.frombuffer(rows, "<u4")
    total = int(counts.sum(dtype=np.uint64))
    if total != e:
        raise IndexFormatError(f"row counts sum to {total}, the index stores {e} edges")

    lower = np.repeat(np.arange(n, dtype=np.int32), counts)
    higher = np.frombuffer(higher, "<i4")
    rel = np.frombuffer(rel, f"<u{width}")
    if e and not (0 <= higher.min() and higher.max() < n):
        raise IndexFormatError(f"neighbour id out of range [0, {n})")
    if (higher < lower).any():
        raise IndexFormatError("an edge is stored below the diagonal: its neighbour id is under its row's")
    if e and rel.max() >= r:
        raise IndexFormatError(f"relation id out of range [0, {r})")
    flip = np.unpackbits(np.frombuffer(flip, np.uint8), count=e, bitorder="little").view(np.bool_)
    # every column is a copy, so no array holds on to the file's bytes
    return np.where(flip, higher, lower), rel.astype(np.int32), np.where(flip, lower, higher)
