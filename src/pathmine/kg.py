"""Indexed, immutable knowledge-graph store for ConceptNet-style edge dumps.

The input dump is tab-separated with five fields per line::

    assertion_uri <TAB> relation_uri <TAB> start_uri <TAB> end_uri <TAB> json_metadata

Relation URIs look like ``/r/AtLocation``; concept URIs like
``/c/en/ice_cream[/...]`` (trailing sense segments are dropped).  The
metadata field is not read: no score uses an edge weight.  A line is
malformed when it does not hold exactly four tabs, is not UTF-8, or has
a relation or concept URI of the wrong shape.

Ingest reads the dump in blocks of whole lines (``_BLOCK_BYTES``, about
4 MiB) and codes each block's relation and concept URIs from its bytes,
so no field becomes a Python object.  A block is split into the offset
and length of each well-formed line's URI fields (int32 in a block under
1 GiB); only the lines that hold a non-ASCII byte are decoded, each on
its own, to check that they are UTF-8.  Each field is read as 8-byte
words and hashed, equal hashes are grouped by one sort, and every field
is checked byte for byte against its group's first, a slice of fields at
a time.  Each group is then looked up in a table
that lasts across blocks (sorted hashes, codes and the fields' words),
every hit again checked byte for byte, so a hash collision costs time,
never a wrong code.  Only the groups the table lacks are decoded, in one
batch per block, and parsed: each distinct URI of the kept language is
parsed once; a rejected one (malformed, or of another language) is
forgotten after its block, so the table grows with the graph's concepts
rather than with the dump.  Memory is one block, its fields' words and
offsets, the tables and the kept edges' int32 codes (12 bytes a line).
The blocks' codes are then joined column by column, the heap the block
loop freed is handed back to the OS where glibc can, and ids are
assigned by first appearance and duplicates dropped in one vectorized
pass, shared with :func:`graph_from_triples`, that frees each code
column once it is mapped to int32 ids and releases its own temporaries
before it hands the graph its edges.  First appearances are found with
positions at the narrowest width that holds them.  Duplicates are found
by one sort of a copy of the packed (lo, relation, hi) keys, by value
alone: the values that repeat are looked up in one pass over the keys,
and of each the first line is kept, in its own orientation.

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
before it builds anything sized by them.  It hands the stored upper half
to the graph as it is, the neighbour and relation columns still views
into the file's bytes, so those bytes are released as soon as the
graph's builder has packed them.  An index of another format version is
refused; it is rebuilt from its dump with ``pathmine build-index``.

All traversal is direction-agnostic: a stored edge can be walked from
either endpoint, and relation names are reported unmodified.  In memory
the edges form one undirected CSR (``adj_indptr``/``adj_dst``/``adj_rel``,
with ``adj_incoming`` for orientation) that lists every edge in both
endpoints' rows.  The graph is built by one sort, whether its edges come
from a dump or from an index, so the CSR is symmetric by construction;
the oriented edge columns are derived from it on demand.  Its builder
owns the edge columns it is handed and drops them before that sort, so
the packed sort key (16 bytes an edge) is alive beside one other copy
of the edges at a time: the columns while it is packed, the CSR (12
bytes an edge with up to 256 relations) while it is decoded.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import mmap
import os
import struct
import zlib
from dataclasses import dataclass
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

    def __init__(self, lang: str, surfaces: list[str], relation_names: list[str], upper: list[np.ndarray]):
        """``upper`` holds the edges in their one form, a list of the upper
        half's (lower, higher, relation, flip) id columns (see
        :meth:`_upper_half`), ``flip`` set when an edge starts at its higher
        endpoint; :func:`graph_from_triples`, :func:`ingest_csv` and
        :func:`load_index` build it.  The CSR builder empties the list as
        it packs the columns, so no copy of the edges outlives the build."""
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
        self._build_indices(upper)

    def _build_indices(self, upper: list[np.ndarray]) -> None:
        """One undirected CSR: each edge sits in both endpoints' rows (a
        self-loop twice in its own), rows sorted by (neighbor, relation,
        side).  ``adj_incoming`` marks the entries whose row is the edge's
        end; of a self-loop's two entries, the second.

        One packed (row, neighbor, relation, side) key is sorted and
        decoded.  The upper half gives its two halves, (lower, higher,
        relation, flip) and (higher, lower, relation, not flip): for an
        edge, the entries (start, end, relation, 0) and (end, start,
        relation, 1) in either order, so a self-loop's flip bit changes
        nothing.  Both are written into one preallocated key in place, and
        ``upper`` is emptied before the sort; each field is then decoded
        straight into its final array, so no step makes a key-sized
        temporary."""
        n = self.node_count
        r = max(len(self.relation_names), 1)
        node_bits, rel_bits = _key_bits(n, r)
        e = upper[0].size
        key = np.empty(2 * e, dtype=np.int64)
        up, down = key[:e], key[e:]
        up[:] = upper[0]
        down[:] = upper[1]
        key <<= node_bits
        up |= upper[1]
        down |= upper[0]
        del upper[:2]  # the endpoints; the relations and flips remain
        key <<= rel_bits
        up |= upper[0]
        down |= upper[0]
        key <<= 1
        up |= upper[1]
        down |= np.logical_not(upper[1], out=upper[1])
        upper.clear()
        del up, down  # views, which would keep the key alive after its decode
        key.sort()
        row_bits = node_bits + rel_bits + 1
        self.adj_indptr = key.searchsorted(np.arange(n + 1, dtype=np.int64) << row_bits)
        self.adj_incoming = np.empty(key.size, dtype=np.bool_)
        np.bitwise_and(key, 1, out=self.adj_incoming, casting="unsafe")
        key >>= 1
        # the smallest type that holds every relation id: one byte for any
        # real relation vocabulary, a quarter of the int32 column
        self.adj_rel = np.empty(key.size, dtype=np.min_scalar_type(r - 1))
        np.bitwise_and(key, (1 << rel_bits) - 1, out=self.adj_rel, casting="unsafe")
        key >>= rel_bits
        self.adj_dst = np.empty(key.size, dtype=np.int32)
        np.bitwise_and(key, (1 << node_bits) - 1, out=self.adj_dst, casting="unsafe")
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


# ---------------------------------------------------------------------------
# ingestion

# bytes read per block: bounds the per-block columns and code tables
_BLOCK_BYTES = 1 << 22

# codes of URIs that give no edge: malformed, or a concept of another language
_MALFORMED = -1
_OTHER_LANGUAGE = -2
# the code of a field the table does not hold yet
_UNKNOWN = -3
# pairs of fields compared byte for byte at a time
_SLICE = 1 << 16


def _blocks(source: BinaryIO) -> Iterator[bytes]:
    """The dump file as blocks of whole lines, about ``_BLOCK_BYTES`` each.

    Each block is cut after its last newline; every block but the last
    ends in one.
    """
    # only each new chunk is searched, so a line longer than a block
    # costs time linear in its length; a block is copied once from its
    # chunks, which are dropped before it is handed on
    pending: list[bytes] = []
    while chunk := source.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        block = b"".join([*pending, memoryview(chunk)[:cut]])
        pending = [chunk[cut:]]
        del chunk
        yield block
    if rest := b"".join(pending):
        yield rest


def _split_block(block: bytes) -> tuple[int, np.ndarray, np.ndarray]:
    """(line count, start, length) of fields 1-3 of the well-formed lines:
    two arrays of shape (3, lines kept), one row per field, int32 in a
    block under 1 GiB (so its fields' words are counted in int32 too).

    A line is well formed when it holds exactly four tabs and is UTF-8.
    Lines end at ``\\n`` only; a trailing ``\\r`` stays in the last field,
    which is not read.  Only the lines that hold a byte above 0x7f are
    decoded, each on its own, to check them.
    """
    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if not block.endswith(b"\n"):
        ends = np.append(ends, raw.size)
    tabs = np.flatnonzero(raw == ord("\t")).astype(np.int32 if raw.size < 1 << 30 else np.int64)
    upto = tabs.searchsorted(ends)  # tabs before each line's end
    first = np.concatenate(([0], upto[:-1]))  # each line's first tab
    ok = upto - first == 4
    if not block.isascii():
        for line in np.unique(ends.searchsorted(np.flatnonzero(raw > 0x7F))).tolist():
            if ok[line]:
                try:
                    block[ends[line - 1] + 1 if line else 0 : ends[line]].decode("utf-8")
                except UnicodeDecodeError:
                    ok[line] = False
    bounds = tabs[first[ok] + np.arange(4)[:, None]]  # (4, k): the line's tabs
    return ends.size, bounds[:3] + 1, np.diff(bounds, axis=0) - 1


class _Fields:
    """Byte strings as little-endian 8-byte words.

    String ``i`` holds ``lengths[i]`` bytes in ``words[first[i]:first[i] +
    count[i]]``, at least one word, and the bytes of its last word past
    its end are zero; so two strings are equal exactly when their lengths
    and their words are.  ``hashes``, when set, holds :func:`_hash` of
    each.
    """

    # the low k bytes of a word, for k = 0..8
    _MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

    def __init__(self, words: np.ndarray, lengths: np.ndarray):
        self.words = words
        self.lengths = lengths
        self.count = np.maximum((lengths + 7) >> 3, 1)
        self.first = np.cumsum(self.count, dtype=self.count.dtype) - self.count
        self.hashes: np.ndarray | None = None

    @classmethod
    def read(cls, block: bytes, starts: np.ndarray, lengths: np.ndarray) -> "_Fields":
        """The fields of ``block`` at ``starts`` of ``lengths`` bytes, with
        their hashes.

        Every word is read in one gather from an unaligned view that starts
        a word at each byte.  A read that would pass the block's end (a
        word in its last seven bytes) starts earlier and is shifted down;
        then each field's last word is cut to the field.
        """
        fields = cls(np.empty(0, dtype=np.uint64), lengths)
        count, first = fields.count, fields.first
        local = np.arange(count.sum(), dtype=first.dtype) - np.repeat(first, count)
        at = np.repeat(starts, count) + 8 * local
        if len(block) < 8:
            block = block.ljust(8, b"\0")
        last = len(block) - 8
        view = np.ndarray((last + 1,), dtype="<u8", buffer=block, strides=(1,))
        tail = first + count - 1
        if lengths.size and (starts + 8 * (count - 1)).max() > last:
            over = np.flatnonzero(at > last)
            shift = (8 * (at[over] - last)).astype(np.uint64)
            at[over] = last
            fields.words = view[at]
            fields.words[over] >>= shift
        else:
            fields.words = view[at]
        del at
        fields.words[tail] &= cls._MASKS[lengths - 8 * (count - 1)]
        fields.hashes = _hash(fields.words, local, first, lengths)
        return fields

    def select(self, index: np.ndarray) -> "_Fields":
        """The strings at ``index`` as a new, compact set, without hashes."""
        count = self.count[index]
        total = int(count.sum())
        word = np.repeat(self.first[index] - (np.cumsum(count) - count), count) + np.arange(total)
        return _Fields(self.words[word], self.lengths[index])


def _hash(words: np.ndarray, local: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each string of :class:`_Fields` ``words``, from
    its words, their places ``local`` in it and its length."""
    mixed = local.astype(np.uint64)
    mixed ^= words  # the same words in another order hash apart
    mixed *= np.uint64(0x9E3779B97F4A7C15)
    mixed ^= mixed >> 29
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    mixed ^= mixed >> 32
    sums = np.add.reduceat(mixed, first) if first.size else np.zeros(0, dtype=np.uint64)
    sums ^= lengths.astype(np.uint64)
    sums *= np.uint64(0x94D049BB133111EB)
    return sums ^ (sums >> 31)


def _same(a: _Fields, i: np.ndarray, b: _Fields, j: np.ndarray) -> np.ndarray:
    """Whether string ``i[k]`` of ``a`` equals string ``j[k]`` of ``b``,
    byte for byte, for each ``k``: a word at a time, each round over the
    pairs that are still equal and have words left.  The pairs are checked
    in slices, so the rounds' temporaries stay small however many there
    are."""
    same = a.lengths[i] == b.lengths[j]
    for lo in range(0, same.size, _SLICE):
        k = lo + np.flatnonzero(same[lo : lo + _SLICE])
        left, wa, wb = a.count[i[k]], a.first[i[k]], b.first[j[k]]
        while k.size:
            differ = a.words[wa] != b.words[wb]
            same[k[differ]] = False
            go = ~differ & (left > 1)
            k, left, wa, wb = k[go], left[go] - 1, wa[go] + 1, wb[go] + 1
    return same


def _groups(fields: _Fields) -> tuple[np.ndarray, np.ndarray]:
    """(one string of each distinct value, roughly in hash order; the
    index in it of each string's value).

    Strings are grouped by hash in one sort of hash-and-position keys,
    and each is checked against its group's first.  The strings that
    differ from it (a hash collision) are grouped again among themselves,
    so a collision costs a round, never a wrong group.
    """
    group = np.empty(fields.lengths.size, dtype=fields.first.dtype)
    reps: list[np.ndarray] = []
    found = 0
    pending = np.arange(fields.lengths.size, dtype=fields.first.dtype)
    while pending.size:
        # the hash's high bits above each string's place in ``pending``
        bits = pending.size.bit_length()
        key = fields.hashes[pending] >> bits << bits
        key |= np.arange(pending.size, dtype=np.uint64)
        key.sort()
        member = pending[(key & ((1 << bits) - 1)).astype(pending.dtype)]
        key >>= bits
        head = np.empty(key.size, dtype=np.bool_)
        head[:1] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        del key
        which = np.cumsum(head, dtype=pending.dtype) - 1
        rep = member[head]
        same = member == rep[which]
        other = np.flatnonzero(~same)
        same[other] = _same(fields, member[other], fields, rep[which[other]])
        group[member[same]] = found + which[same]
        reps.append(rep)
        found += rep.size
        pending = member[~same]
    return (np.concatenate(reps) if reps else pending), group


class _Coder:
    """Codes of one kind of dump field (relation or concept URIs) by their
    bytes, ``parse`` called once for each field the table does not hold.

    The table lasts across blocks and holds the fields given a
    non-negative code: their hashes sorted, their codes, and their words
    pooled in ``known``, so every hit is checked byte for byte.  A
    negative code (a rejected field) serves its block only, so the table
    grows with the accepted fields, not with the length of the dump.
    """

    def __init__(self, parse: Callable[[str], int]):
        self.parse = parse
        self.hashes = np.empty(0, dtype=np.uint64)
        self.codes = np.empty(0, dtype=np.int32)
        self.entry = np.empty(0, dtype=np.int64)  # each hash's string in ``known``
        self.known = _Fields(np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))

    def __call__(self, block: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The int32 code of each field of ``block`` at ``starts``."""
        fields = _Fields.read(block, starts, lengths)
        reps, group = _groups(fields)
        codes = self._lookup(fields, reps)
        miss = np.flatnonzero(codes == _UNKNOWN)
        if miss.size:
            codes[miss] = self._parse(block, starts[reps[miss]], lengths[reps[miss]])
            self._remember(fields, reps[miss], codes[miss])
        return codes[group]

    def _lookup(self, fields: _Fields, reps: np.ndarray) -> np.ndarray:
        """The table's code of each field at ``reps``, ``_UNKNOWN`` where
        it holds none; the table's entries of an equal hash are tried in
        turn."""
        h = fields.hashes[reps]
        codes = np.full(reps.size, _UNKNOWN, dtype=np.int32)
        at = self.hashes.searchsorted(h)  # fast for keys in about sorted order
        todo = np.arange(reps.size)
        while todo.size:
            todo = todo[at[todo] < self.hashes.size]
            todo = todo[self.hashes[at[todo]] == h[todo]]
            hit = _same(fields, reps[todo], self.known, self.entry[at[todo]])
            codes[todo[hit]] = self.codes[at[todo[hit]]]
            todo = todo[~hit]
            at[todo] += 1
        return codes

    def _parse(self, block: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``parse`` of each field, from one decode of the fields, each
        with the tab that ends it."""
        size = lengths + 1
        at = np.repeat(starts - (np.cumsum(size) - size), size) + np.arange(size.sum())
        text = np.frombuffer(block, dtype=np.uint8)[at].tobytes().decode("utf-8")
        return np.array([self.parse(value) for value in text.split("\t")[:-1]], dtype=np.int32)

    def _remember(self, fields: _Fields, index: np.ndarray, codes: np.ndarray) -> None:
        """Add the fields at ``index`` whose code is non-negative."""
        kept = codes >= 0
        index, codes = index[kept], codes[kept]
        h = fields.hashes[index]
        order = np.argsort(h)
        at = self.hashes.searchsorted(h[order])
        self.hashes = np.insert(self.hashes, at, h[order])
        self.codes = np.insert(self.codes, at, codes[order])
        self.entry = np.insert(self.entry, at, self.known.lengths.size + order)
        new = fields.select(index)
        self.known = _Fields(
            np.concatenate([self.known.words, new.words]), np.concatenate([self.known.lengths, new.lengths])
        )


def _first_appearance(codes: np.ndarray, size: int) -> np.ndarray:
    """The distinct codes (each in [0, size)), in the order of their first
    position in ``codes``; positions are held at the narrowest width."""
    width = np.min_scalar_type(codes.size)
    first = np.full(size, codes.size, dtype=width)
    np.minimum.at(first, codes, np.arange(codes.size, dtype=width))
    present = np.flatnonzero(first < codes.size)
    return present[np.argsort(first[present])]


def _first_of_each(key: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``key`` whose value no earlier entry holds.

    A sorted copy gives the values that repeat, and one pass over ``key``
    finds their entries; of each value's entries the first is kept.  So
    only values are sorted, never positions.
    """
    ordered = np.sort(key)
    repeats = ordered[1:][ordered[1:] == ordered[:-1]]  # sorted; a value held m times is here m - 1 times
    del ordered
    if not repeats.size:
        return np.ones(key.size, dtype=np.bool_)
    # the least repeated value not below each key (the largest where none
    # is), gathered in place: out and indices are one intp array
    found = repeats.searchsorted(key)
    held = np.take(repeats, found, out=found, mode="clip") == key
    del found
    at = np.flatnonzero(held)
    held[at[np.unique(key[at], return_index=True)[1]]] = False
    return np.logical_not(held, out=held)


def _assemble(
    lang: str,
    surfaces: list[str],
    relation_names: list[str],
    coded: list[np.ndarray],
    extra: Sequence[int] = (),
) -> KnowledgeGraph:
    """The graph of the coded edges ``coded`` = [start, relation, end]:
    ``start``/``end`` index ``surfaces`` and ``relation`` indexes
    ``relation_names``.

    Ids follow first appearance: the ``extra`` concepts, then each edge's
    start before its end.  Of duplicate edges the first is kept.  The list
    is emptied as its columns are mapped to the new int32 ids, and every
    temporary of the mapping and the deduplication is released before the
    graph's builder is handed the upper half.
    """
    e = coded[0].size
    walk = np.empty(len(extra) + 2 * e, dtype=coded[0].dtype)
    walk[: len(extra)] = extra
    walk[len(extra) :: 2] = coded[0]
    walk[len(extra) + 1 :: 2] = coded[2]
    concepts = _first_appearance(walk, len(surfaces))
    del walk
    relations = _first_appearance(coded[1], len(relation_names))
    names = [relation_names[r] for r in relations.tolist()]
    n, r = int(concepts.size), max(len(names), 1)
    _key_bits(n, r)  # a graph it admits has concept ids below 2**31
    new_concept = np.empty(len(surfaces), dtype=np.int32)
    new_concept[concepts] = np.arange(n, dtype=np.int32)
    # relation ids at the width the graph's builder stores them
    new_relation = np.empty(len(relation_names), dtype=np.min_scalar_type(r - 1))
    new_relation[relations] = np.arange(relations.size)
    end = new_concept[coded.pop()]
    rel = new_relation[coded.pop()]
    start = new_concept[coded.pop()]

    # deduplicate exact triples, symmetric relations also folding mirror
    # images, by one packed (lo, relation, hi) key
    symmetric = np.array([name in SYMMETRIC_RELATIONS for name in names], dtype=np.bool_)[rel]
    key = np.where(symmetric, np.minimum(start, end), start).astype(np.int64)
    key *= r
    key += rel
    key *= n
    key += np.where(symmetric, np.maximum(start, end), end)
    del symmetric
    keep = _first_of_each(key)
    del key
    start, end = start[keep], end[keep]
    upper = [np.minimum(start, end), np.maximum(start, end), rel[keep], start > end]
    del start, rel, end, keep
    return KnowledgeGraph(lang, [surfaces[c] for c in concepts.tolist()], names, upper)


def ingest_csv(source: BinaryIO, lang: str) -> tuple[KnowledgeGraph, IngestReport]:
    """Parse an assertion dump, keeping edges whose endpoints match ``lang``.

    ``source`` is a binary file object, plain or gzip, read in blocks.
    Malformed lines are skipped and counted in the returned report; the
    metadata field is not read.  A dump yielding zero edges, or one that
    fails to decompress or ends early, raises :class:`IngestError`.
    """
    if not lang:
        raise ValueError("language tag must be non-empty")
    report = IngestReport()
    surfaces: dict[str, int] = {}
    relation_names: dict[str, int] = {}

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

    relations, concepts = _Coder(relation_code), _Coder(concept_code)
    # the kept edges' codes of each block, per column
    parts: tuple[list[np.ndarray], ...] = ([], [], [])
    try:
        for block in _blocks(source):
            n_lines, starts, lengths = _split_block(block)
            rel = relations(block, starts[0], lengths[0])
            k = rel.size
            endpoints = concepts(block, starts[1:].ravel(), lengths[1:].ravel())
            start, end = endpoints[:k], endpoints[k:]
            malformed = (rel < 0) | (start == _MALFORMED) | (end == _MALFORMED)
            keep = ~malformed & (start >= 0) & (end >= 0)
            n_malformed = n_lines - k + int(np.count_nonzero(malformed))
            n_kept = int(np.count_nonzero(keep))
            report.lines_total += n_lines
            report.skipped_malformed += n_malformed
            report.skipped_language += n_lines - n_malformed - n_kept
            for column, codes in zip(parts, (start, rel, end)):
                column.append(codes[keep])
    except (EOFError, zlib.error) as exc:  # a truncated or corrupt compressed dump
        raise IngestError(f"dump unreadable after {report.lines_total} lines: {exc}") from None
    kept = sum(codes.size for codes in parts[0])
    if not kept:
        raise IngestError("no edges")
    # the last block and its codes, and the URI tables, before the join
    del block, starts, lengths, rel, endpoints, start, end, keep, malformed, codes, relations, concepts
    coded = []
    for column in parts:
        coded.append(np.concatenate(column))
        column.clear()
    names = list(surfaces)
    surfaces.clear()  # the graph builds its own table
    with contextlib.suppress(AttributeError, OSError, TypeError):  # a C library without malloc_trim
        ctypes.CDLL(None).malloc_trim(0)  # return the block loop's free heap to the OS
    g = _assemble(lang, names, list(relation_names), coded)
    report.edges_kept = g.edge_count
    report.duplicates_removed = kept - g.edge_count
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
    return _assemble(lang, list(surfaces), list(relation_names), list(coded.T), extra)


# ---------------------------------------------------------------------------
# walk statistics


@dataclass(frozen=True)
class WalkStats:
    """Global walk totals reused by every association score.

    ``walks_len3``/``walks_len4`` count walks of 3 and 4 concepts (2 and 3
    edges, each edge in either direction); both must be positive.
    """

    walks_len3: int
    walks_len4: int
    node_count: int

    @classmethod
    def from_graph(cls, g: KnowledgeGraph) -> "WalkStats":
        _, w3, w4 = kernels.walk_totals(g.adj_indptr, g.adj_dst, g.degrees, 3)
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


def save_index(g: KnowledgeGraph, sink: BinaryIO | str | os.PathLike, stats: WalkStats) -> None:
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
    if not isinstance(sink, (str, os.PathLike)):
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


def load_index(source: BinaryIO | str | os.PathLike) -> tuple[KnowledgeGraph, WalkStats]:
    """Read an index produced by :func:`save_index`.

    Raises :class:`IndexVersionError`, :class:`IndexTruncatedError`, or
    :class:`IndexChecksumError` for the corresponding defects, and
    :class:`IndexFormatError` for a missing section, a section of the
    wrong length, row counts that do not sum to the edges, an edge stored
    below the diagonal, ids out of range, text that is not UTF-8,
    duplicate concept surfaces, or walk statistics that are malformed, not
    positive, or of another graph.
    """
    lang, surfaces, relation_names, upper, (w3, w4, nc) = _read_index(source)
    try:
        g = KnowledgeGraph(lang, surfaces, relation_names, upper)
    except ValueError as exc:  # duplicate concept surfaces
        raise IndexFormatError(str(exc)) from None
    return g, WalkStats(walks_len3=w3, walks_len4=w4, node_count=nc)


def _read_index(source: BinaryIO | str | os.PathLike):
    """The checked contents of an index: its language, name tables, the
    list of its upper-half edge columns (:func:`_edge_columns`) and its
    walk statistics.  The bytes sit in an anonymous map, not on the heap;
    the neighbour and relation columns are views into it, so it is handed
    back whole once the CSR builder has packed them, before its sort."""
    own = isinstance(source, (str, os.PathLike))
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
    upper = _edge_columns(sections, len(surfaces), len(relation_names))

    if len(sections[b"STAT"]) != 24:
        raise IndexFormatError("walk statistics section has wrong length")
    w3, w4, nc = struct.unpack("<QQQ", sections[b"STAT"])
    if nc != len(surfaces):
        raise IndexFormatError(f"walk statistics are for {nc} concepts, the graph has {len(surfaces)}")
    if not (0 < w3 < 1 << 63 and 0 < w4 < 1 << 63):
        raise IndexFormatError(f"walk statistics totals {w3}, {w4} outside [1, 2**63)")
    return lang, surfaces, relation_names, upper, (w3, w4, nc)


def _edge_columns(sections: dict[bytes, memoryview], n: int, r: int) -> list[np.ndarray]:
    """The checked upper half of an index for ``n`` concepts and ``r``
    relation names, as the list [lower, higher, relation, flip] that
    :class:`KnowledgeGraph` takes.  Every length and the count sum are
    checked before anything sized by the counts is made.  ``higher`` and
    ``relation`` are views into the sections, the others new arrays."""
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
    return [lower, higher, rel, flip]
