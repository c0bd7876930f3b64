"""Block-wise dump ingest against the line-at-a-time reference parser."""

from __future__ import annotations

import gzip
import io
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmine import IngestError, graph_from_triples, ingest_csv, kg

from conftest import assert_same_tables, ingest_oracle



def mostly(good: list[str], bad: list[str]) -> st.SearchStrategy[str]:
    """A value from ``good`` far more often than one from ``bad``."""
    return st.sampled_from(good * 6 + bad)


relation_uris = mostly(["/r/RelatedTo", "/r/IsA", "/r/Antonym", "/r/Synonym"], ["/r/", "r/IsA", ""])
# case and space variants, and sense suffixes, that map several URIs to one surface
concept_uris = mostly(
    [
        f"/c/{lang}/{surface}{sense}"
        for lang, surfaces in [("en", ["a", "A", " a", "b", "B ", "ice cream", "Ice_Cream", "café"]), ("fr", ["a", "b"])]
        for surface in surfaces
        for sense in ["", "/n", "/n/wn/food"]
    ],
    ["/c/en", "c/en/a", "/c/", "/d/en/a", "/c/en/", "/c//a", "/c/en/ ", "/c/en/a/"],
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
    if dump and draw(st.booleans()):  # no final newline
        dump = dump.rstrip(b"\r\n")
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


def test_extra_concepts_take_the_first_ids():
    g = graph_from_triples(
        [("a", "RelatedTo", "b"), ("Zed", "IsA", "c")], extra_concepts=["c", "Zed", "c"]
    )
    assert g.surfaces == ["c", "zed", "a", "b"]
    edges = set(zip(g.edge_start.tolist(), g.edge_rel.tolist(), g.edge_end.tolist()))
    assert edges == {(2, 0, 3), (1, 1, 0)}
