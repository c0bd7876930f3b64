"""Block-wise dump ingest against the line-at-a-time reference parser."""

from __future__ import annotations

import gzip
import io
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathmine import IngestError, graph_from_triples, ingest_csv, kg

from conftest import assert_same_tables, ingest_oracle, traced_peak



def mostly(good: list[str], bad: list[str]) -> st.SearchStrategy[str]:
    """A value from ``good`` far more often than one from ``bad``."""
    return st.sampled_from(good * 6 + bad)


LONG_SURFACE = "a_very_long_surface_" * 4
# fields are read as 8-byte words: these lengths fall on each side of 8
# and 16 bytes, some differ only in their last byte, and one is longer
# than 64 bytes
relation_uris = mostly(
    ["/r/RelatedTo", "/r/IsA", "/r/Antonym", "/r/Synonym", "/r/HasA", "/r/HasAB", "/r/HasAC", "/r/HasABC", "/r/HasAé"],
    ["/r/", "r/IsA", ""],
)
# case and space variants, and sense suffixes, that map several URIs to one surface
concept_uris = mostly(
    [
        f"/c/{lang}/{surface}{sense}"
        for lang, surfaces in [
            ("en", ["a", "A", " a", "b", "B ", "ice cream", "Ice_Cream", "café", "ab", "ac", "abc", "abcdefghi",
                    "abcdefghij", "abcdefghik", "abcdefghijk", LONG_SURFACE]),
            ("fr", ["a", "b", "abcdefghij"]),
        ]
        for surface in surfaces
        for sense in ["", "/n", "/n/wn/food"]
    ],
    ["/c/en", "c/en/a", "/c/", "/d/en/a", "/c/en/", "/c//a", "/c/en/ ", "/c/en/a/", "/c/en/" + " " * 70],
)
# metadata is not read: a line with any of these is an edge
metas = st.one_of(
    mostly(
        ['{"weight": 1.0}', '{"weight": 2.5}', "{}", "", " ", '{"weight": "2"}', '{"weight": true}',
         '{"weight": -0.0}', '{"weight": 1e-50}', '{"weight": 3.4028235e38}'],  # the largest float32
        [
            "not json",
            '"x"',
            "[1, 2]",
            '{"weight": null}',
            '{"weight": [1]}',
            '{"weight": {"a": 1}}',
            '{"weight": NaN}',
            '{"weight": Infinity}',
            '{"weight": -Infinity}',
            '{"weight": -1}',
            '{"weight": -1e-50}',
            '{"weight": 3.4028236e38}',  # rounds past the largest float32
            '{"weight": 1e39}',
            '{"weight": 1' + "0" * 400 + "}",  # an int no float holds
            "[" * sys.getrecursionlimit(),  # nesting beyond the recursion limit
        ],
    ),
    # distinct per-dataset metadata rather than one repeated string
    st.integers(0, 40).map(lambda i: f'{{"weight": {i / 4}, "dataset": "/d/{i}"}}'),
)
assertions = st.tuples(
    st.sampled_from(["/a/x", "/a/[é]"]),
    relation_uris,
    concept_uris,
    concept_uris,
    metas,
)


@st.composite
def dumps(draw) -> bytes:
    rows = draw(st.lists(assertions, max_size=25))
    # mirror images and exact repeats of earlier assertions
    for i in draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=6)) if rows else []:
        a, r, s, e, m = rows[i]
        rows.append((a, r, e, s, m) if draw(st.booleans()) else rows[i])
    lines = [("\t".join(row)).encode("utf-8") for row in rows]
    odd = st.sampled_from([b"", b"\t\t\t\t", b"/a/x\t/r/IsA\t/c/en/a\t/c/en/b", b"a\tb\tc\td\te\tf"])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd))
    for _ in range(draw(st.integers(0, 3))):  # invalid UTF-8 inside a line
        if lines:
            i = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + lines[i][at:]
    endings = [draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r\r\n"])) for _ in lines]
    dump = b"".join(line + end for line, end in zip(lines, endings))
    ending = draw(st.sampled_from(["newline", "none", "bare"]))
    if dump and ending == "none":  # no final newline
        dump = dump.rstrip(b"\r\n")
    elif ending == "bare":
        # a last line with empty metadata and no final newline: an 8-byte
        # read of its end field's last word can pass the end of the dump
        a, r, s, e, _ = draw(assertions)
        dump += "\t".join([a, r, s, e, ""]).encode("utf-8")
    return dump


def _source(dump: bytes, kind: str):
    if kind == "file":
        return io.BytesIO(dump)
    return gzip.GzipFile(fileobj=io.BytesIO(gzip.compress(dump)), mode="rb")


@settings(max_examples=300, deadline=None)
@given(
    dump=dumps(),
    kind=st.sampled_from(["file", "gzip"]),
    block_bytes=st.sampled_from([1, 2, 3, 7, 64, 1 << 22]),
    lang=st.sampled_from(["en", "fr"]),
)
def test_matches_line_at_a_time_reference(dump, kind, block_bytes, lang):
    expected, report = ingest_oracle(dump, lang)
    # tiny blocks make lines straddle block boundaries
    with mock.patch.object(kg, "_BLOCK_BYTES", block_bytes):
        if expected is None:
            with pytest.raises(IngestError, match="no edges"):
                ingest_csv(_source(dump, kind), lang)
            return
        g, got = ingest_csv(_source(dump, kind), lang)
    assert vars(got) == report
    assert_same_tables(g, expected)


COLLIDING = "".join(
    f"/a/x\t/r/IsA\t/c/en/w{i:03d}\t/c/{'fr' if i % 7 == 0 else 'en'}/w{(i * 37) % 300:03d}\t{{}}\n"
    for i in range(300)
).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(dump=dumps(), block_bytes=st.sampled_from([1, 7, 64, 256]), lang=st.sampled_from(["en", "fr"]))
@example(dump=COLLIDING, block_bytes=256, lang="en")
def test_exact_when_every_uri_of_a_length_collides(dump, block_bytes, lang):
    # the field hash is the field's length: every URI collides with each
    # other URI of its length, in its block and in the table across blocks
    expected, report = ingest_oracle(dump, lang)
    parse = kg._parse_concept_uri
    parsed: Counter[str] = Counter()

    def counted_parse(uri):
        parsed[uri] += 1
        return parse(uri)

    with (
        mock.patch.object(kg, "_hash", lambda words, local, first, lengths: lengths.astype(np.uint64)),
        mock.patch.object(kg, "_BLOCK_BYTES", block_bytes),
        mock.patch.object(kg, "_parse_concept_uri", counted_parse),
    ):
        if expected is None:
            with pytest.raises(IngestError, match="no edges"):
                ingest_csv(io.BytesIO(dump), lang)
            return
        g, got = ingest_csv(io.BytesIO(dump), lang)
    assert vars(got) == report
    assert_same_tables(g, expected)
    # a collision costs no second parse of a kept URI
    assert all(n == 1 for uri, n in parsed.items() if (parse(uri) or ("",))[0] == lang)


def test_each_uri_parsed_once():
    # kept URIs recur in many blocks, rejected ones within and across blocks
    rng = np.random.default_rng(3)
    uris = [f"/c/en/w{i}" for i in range(60)] + [f"/c/fr/w{i}" for i in range(20)] + ["/c/en/", "/d/en/x", "/c//w"]
    pairs = rng.integers(0, len(uris), size=(2000, 2)).tolist()
    dump = "".join(f"/a/{i}\t/r/IsA\t{uris[a]}\t{uris[b]}\t{{}}\n" for i, (a, b) in enumerate(pairs)).encode()
    parse, split = kg._parse_concept_uri, kg._split_block
    calls: list[tuple[int, str]] = []  # (block, URI) of each parse
    blocks = [0]

    def counted_split(block):
        blocks[0] += 1
        return split(block)

    def counted_parse(uri):
        calls.append((blocks[0], uri))
        return parse(uri)

    with (
        mock.patch.object(kg, "_BLOCK_BYTES", 1024),
        mock.patch.object(kg, "_split_block", counted_split),
        mock.patch.object(kg, "_parse_concept_uri", counted_parse),
    ):
        g, got = ingest_csv(io.BytesIO(dump), "en")
    expected, report = ingest_oracle(dump, "en")
    assert vars(got) == report
    assert_same_tables(g, expected)
    assert blocks[0] > 40
    kept = {uri for uri in uris if (parse(uri) or ("",))[0] == "en"}
    assert Counter(uri for _, uri in calls if uri in kept) == dict.fromkeys(kept, 1)
    rejected = Counter(call for call in calls if call[1] not in kept)
    assert {uri for _, uri in rejected} == set(uris) - kept
    assert set(rejected.values()) == {1}


def test_peak_memory_per_line():
    # criterion-7's shape at a small scale, in many blocks: no field is a
    # Python string, the URI table holds words, and the kept codes are
    # int32 (12 bytes a line).  This traced 50 bytes a line; with int64
    # field positions and three copies of each block it traced 76, and
    # the coder that keyed str tables and kept int64 codes 126.
    rng = np.random.default_rng(7)
    lines, concepts, hubs = 30_000, 3_400, 70
    relations = ["RelatedTo", "IsA", "AtLocation", "UsedFor", "Antonym", "PartOf"]
    rel = rng.integers(0, len(relations), size=lines).tolist()
    start = np.where(rng.random(lines) < 0.3, rng.integers(0, hubs, lines), rng.integers(0, concepts, lines)).tolist()
    end = np.where(rng.random(lines) < 0.15, rng.integers(0, hubs, lines), rng.integers(0, concepts, lines)).tolist()
    dump = "".join(
        f'/a/e{i}\t/r/{relations[r]}\t/c/en/w{s}\t/c/en/w{e}\t{{"weight": 1.0}}\n'
        for i, (r, s, e) in enumerate(zip(rel, start, end))
    ).encode()
    with mock.patch.object(kg, "_BLOCK_BYTES", 1 << 17):
        (g, report), peak = traced_peak(ingest_csv, io.BytesIO(dump), "en")
    assert report.lines_total == lines
    assert peak / lines < 58


@pytest.mark.parametrize("line", [b"\t\t\t\t\n", b"a\tb\tc\td\t\n"])
def test_peak_memory_of_short_fields(line):
    # a block of tiny lines holds the most fields a byte, and every field
    # repeats the first, so each is checked byte for byte against it.  The
    # field positions are int32 and the checks run in slices: this traced
    # 167 and 177 bytes a line, int64 positions and one check of them all
    # 342 and 350
    lines = (1 << 20) // len(line)
    dump = line * lines

    def ingest():
        with pytest.raises(IngestError, match="no edges"):
            ingest_csv(io.BytesIO(dump), "en")

    _, peak = traced_peak(ingest)
    assert peak / lines <= 256


def test_line_longer_than_many_blocks():
    dump = b"/a/x\t/r/IsA\t/c/en/" + b"a" * 500 + b"\t/c/en/b\t{}\n/a/x\t/r/IsA\t/c/en/b\t/c/en/" + b"c" * 300 + b"\t"
    with mock.patch.object(kg, "_BLOCK_BYTES", 8):
        blocks = list(kg._blocks(io.BytesIO(dump)))
        g, got = ingest_csv(io.BytesIO(dump), "en")
    first = dump.index(b"\n") + 1
    assert blocks == [dump[:first], dump[first:]]
    expected, report = ingest_oracle(dump, "en")
    assert vars(got) == report
    assert_same_tables(g, expected)
    assert g.edge_count == 2


def test_each_kind_of_line_counted():
    dump = b"".join(
        [
            b"/a/x\t/r/RelatedTo\t/c/en/a\t/c/en/b\t{}\n",
            b"/a/x\t/r/RelatedTo\t/c/en/b\t/c/en/a\t{}\r\n",  # mirror image
            b"/a/x\t/r/IsA\t/c/en/a\t/c/fr/b\t{}\n",  # other language
            b"/a/x\t/r/IsA\t/c/en/\xff\t/c/en/b\t{}\n",  # invalid UTF-8
            b"\n",
            b"/a/x\t/r/IsA\t/c/en/A/n\t/c/en/b\t",  # no final newline
        ]
    )
    _, report = ingest_oracle(dump, "en")
    _, got = ingest_csv(io.BytesIO(dump), "en")
    assert vars(got) == report == {
        "lines_total": 6,
        "edges_kept": 2,
        "skipped_malformed": 2,
        "skipped_language": 1,
        "duplicates_removed": 1,
    }


def test_repeats_across_blocks_keep_the_first_line():
    # one symmetric key six times over many blocks, as exact repeats and
    # mirror images, first from the higher id to the lower; and one
    # ordered key three times, whose mirror image is another edge
    lines = [
        ("a", "IsA", "b"),
        ("b", "RelatedTo", "a"),
        ("a", "RelatedTo", "b"),
        ("a", "IsA", "b"),
        ("b", "RelatedTo", "a"),
        ("b", "IsA", "a"),
        ("a", "RelatedTo", "b"),
        ("a", "IsA", "b"),
        ("b", "RelatedTo", "a"),
        ("a", "RelatedTo", "b"),
    ]
    dump = "".join(f"/a/x\t/r/{r}\t/c/en/{s}\t/c/en/{e}\t{{}}\n" for s, r, e in lines).encode()
    with mock.patch.object(kg, "_BLOCK_BYTES", 64):
        assert len(list(kg._blocks(io.BytesIO(dump)))) > 5
        g, got = ingest_csv(io.BytesIO(dump), "en")
    expected, report = ingest_oracle(dump, "en")
    assert vars(got) == report
    assert got.duplicates_removed == 7
    assert_same_tables(g, expected)
    a, b = g.surface_to_id["a"], g.surface_to_id["b"]
    isa, related = g.relation_names.index("IsA"), g.relation_names.index("RelatedTo")
    edges = sorted(zip(g.edge_start.tolist(), g.edge_rel.tolist(), g.edge_end.tolist()))
    assert (a, b) == (0, 1)
    assert edges == sorted([(a, isa, b), (b, related, a), (b, isa, a)])


def test_extra_concepts_take_the_first_ids():
    g = graph_from_triples(
        [("a", "RelatedTo", "b"), ("Zed", "IsA", "c")], extra_concepts=["c", "Zed", "c"]
    )
    assert g.surfaces == ["c", "zed", "a", "b"]
    edges = set(zip(g.edge_start.tolist(), g.edge_rel.tolist(), g.edge_end.tolist()))
    assert edges == {(2, 0, 3), (1, 1, 0)}
