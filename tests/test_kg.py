"""Graph store: ingestion, adjacency queries, walk counts, persistence."""

from __future__ import annotations

import io
import os
import stat
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmine import (
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
    IndexVersionError,
    IngestError,
    KnowledgeGraph,
    PathmineError,
    graph_from_triples,
    ingest_csv,
    kg,
    load_index,
    save_index,
)
from pathmine.kg import WalkStats

from conftest import (
    STORY_TRIPLES,
    assert_same_tables,
    count_walks_oracle,
    _resealed,
    edge_table,
    index_sections,
    kept_triples,
    sealed_index,
    story_dump_bytes,
    neighbor_lists,
    random_multigraph,
    random_triples,
    write_defective_index,
)


def _line(rel: str, start: str, end: str, meta: str = '{"weight": 1.0}', s_lang="en", e_lang="en") -> str:
    return f"/a/x\t/r/{rel}\t/c/{s_lang}/{start}\t/c/{e_lang}/{end}\t{meta}"


def _dump(lines: list[str]) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


class TestIngest:
    def test_three_line_dump(self):
        g, report = ingest_csv(
            _dump(
                [
                    _line("AtLocation", "lady", "church"),
                    _line("RelatedTo", "church", "house"),
                    _line("RelatedTo", "house", "child"),
                ]
            ),
            "en",
        )
        assert g.node_count == 4
        assert g.edge_count == 3
        assert report.edges_kept == 3
        assert g.concept_id("lady") == 0

    def test_empty_stream_is_an_error(self):
        with pytest.raises(IngestError, match="no edges"):
            ingest_csv(io.BytesIO(b""), "en")

    def test_language_filter_matches_naive_reparse(self):
        lines = [
            _line("RelatedTo", "lady", "church"),
            _line("RelatedTo", "dame", "eglise", s_lang="fr", e_lang="fr"),
            _line("RelatedTo", "lady", "dame", e_lang="fr"),
            _line("RelatedTo", "church", "house"),
        ]
        g, report = ingest_csv(_dump(lines), "en")
        # oracle: count lines whose two concept URIs both carry /c/en/
        expected = sum(
            1
            for line in lines
            if line.split("\t")[2].startswith("/c/en/") and line.split("\t")[3].startswith("/c/en/")
        )
        assert g.edge_count == expected == 2
        assert report.skipped_language == 2
        assert g.concept_id("dame") is None

    def test_malformed_lines_are_counted_not_fatal(self):
        lines = [
            _line("RelatedTo", "lady", "church"),
            "not a dump line",
            "/a/x\t/r/RelatedTo\t/c/en/a",  # too few fields
            _line("RelatedTo", "a", "b", meta="not json"),  # metadata is not read: kept
            "/a/x\tRelatedTo\t/c/en/a\t/c/en/b\t{}",  # bad relation uri
            "/a/x\t/r/IsA\t/c/en\t/c/en/b\t{}",  # bad concept uri
        ]
        g, report = ingest_csv(_dump(lines), "en")
        assert g.edge_count == 2
        assert report.skipped_malformed == 4
        assert report.lines_total == 6

    def test_exact_duplicates_removed(self):
        g, report = ingest_csv(
            _dump(
                [
                    _line("AtLocation", "lady", "church"),
                    _line("AtLocation", "lady", "church"),
                    _line("RelatedTo", "lady", "church"),  # parallel edge survives
                ]
            ),
            "en",
        )
        assert g.edge_count == 2
        assert report.duplicates_removed == 1

    def test_symmetric_mirror_image_deduplicated(self):
        g, report = ingest_csv(
            _dump(
                [
                    _line("RelatedTo", "up", "down"),
                    _line("RelatedTo", "down", "up"),  # same assertion, flipped
                    _line("IsA", "up", "down"),
                    _line("IsA", "down", "up"),  # IsA is directed: both kept
                ]
            ),
            "en",
        )
        assert report.duplicates_removed == 1
        assert g.edge_count == 3

    @pytest.mark.parametrize(
        "weight",
        # float() rejects these
        ["null", "[1.0]", '{"value": 1.0}', "1" + "0" * 400]
        # not finite and non-negative as float32
        + ["NaN", "Infinity", "-Infinity", "1e39", "3.4028236e38", "-1", "-1e-50"],
        ids=["null", "list", "object", "huge_int", "nan", "inf", "-inf", "1e39", "past_f32_max", "-1", "-1e-50"],
    )
    def test_unusable_weight_is_malformed(self, weight):
        # the metadata is not read, so no weight makes a line malformed
        g, report = ingest_csv(
            _dump([_line("RelatedTo", "a", "b", meta=f'{{"weight": {weight}}}'), _line("IsA", "b", "c")]),
            "en",
        )
        assert report.skipped_malformed == 0
        assert g.edge_count == report.edges_kept == 2
        assert g.edges_between(g.concept_id("a"), g.concept_id("b")) == [g.relation_names.index("RelatedTo")]

    def test_ingestion_is_idempotent(self):
        g1, r1 = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
        g2, r2 = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
        # a UTF-8 byte order mark lands in the first assertion URI, which is not read
        g3, r3 = ingest_csv(io.BytesIO(b"\xef\xbb\xbf" + story_dump_bytes()), "en")
        assert_same_tables(g1, g2)
        assert_same_tables(g1, g3)
        assert r1 == r2 == r3

    def test_surface_normalization(self):
        g, _ = ingest_csv(
            _dump(["/a/x\t/r/IsA\t/c/en/Ice_Cream/n/wn\t/c/en/food\t{}"]), "en"
        )
        assert g.concept_id("ice_cream") == 0


def _row_pairs(g, c: int) -> list[tuple[int, int]]:
    """The distinct (relation, neighbour) pairs of the concept's CSR row,
    in row order."""
    lo, hi = g.adj_indptr[c], g.adj_indptr[c + 1]
    return list(dict.fromkeys(zip(g.adj_rel[lo:hi].tolist(), g.adj_dst[lo:hi].tolist())))


class TestNeighbors:
    def test_story_graph_lady(self, story_graph):
        g = story_graph
        lady = g.concept_id("lady")
        got = {(g.relation_names[r], g.surfaces[c]) for r, c in _row_pairs(g, lady)}
        assert {("AtLocation", "church"), ("RelatedTo", "mother"), ("RelatedTo", "person")} <= got

    def test_isolated_concept(self):
        g = graph_from_triples([("a", "RelatedTo", "b")], extra_concepts=["lonely"])
        assert _row_pairs(g, g.concept_id("lonely")) == []

    def test_matches_bruteforce_scan_on_random_graphs(self):
        # each CSR row's distinct pairs, in row order, against the edge table
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_multigraph(rng, max_nodes=20, max_edges=60)
            want = neighbor_lists(g)
            for c in range(g.node_count):
                assert _row_pairs(g, c) == want.get(c, [])


class TestEdgesBetween:
    def test_story_lady_church(self, story_graph):
        g = story_graph
        rels = g.edges_between(g.concept_id("lady"), g.concept_id("church"))
        assert [g.relation_names[r] for r in rels] == ["AtLocation"]

    def test_no_self_loop(self, story_graph):
        g = story_graph
        assert g.edges_between(g.concept_id("lady"), g.concept_id("lady")) == []

    def test_parallel_relations_both_returned(self):
        g = graph_from_triples(
            [("up", "RelatedTo", "down"), ("up", "Antonym", "down"), ("up", "RelatedTo", "north")]
        )
        rels = g.edges_between(g.concept_id("up"), g.concept_id("down"))
        assert {g.relation_names[r] for r in rels} == {"RelatedTo", "Antonym"}

    def test_reverse_orientation_included(self, story_graph):
        g = story_graph
        # stored as church->house; queried from house
        rels = g.edges_between(g.concept_id("house"), g.concept_id("church"))
        assert [g.relation_names[r] for r in rels] == ["RelatedTo"]

    def test_unconnected_pair_empty(self, story_graph):
        g = story_graph
        assert g.edges_between(g.concept_id("lover"), g.concept_id("their")) == []

    def test_invalid_id_raises(self, story_graph):
        for a, b in [(10_000, 0), (0, 10_000), (-1, 0)]:
            with pytest.raises(ValueError, match="unknown concept id"):
                story_graph.edges_between(a, b)


class TestWalkCount:
    def test_path_graph_oracle_value(self):
        g = graph_from_triples([("a", "RelatedTo", "b"), ("b", "RelatedTo", "c")])
        expected = count_walks_oracle(g, 2)
        assert expected == 6  # frozen from the enumeration oracle
        assert g.walk_counts(2)[-1] == expected

    def test_edgeless_graph(self):
        g = graph_from_triples([], extra_concepts=["a", "b", "c"])
        assert g.walk_counts(4) == [0, 0, 0, 0]

    def test_random_multigraphs_match_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_multigraph(rng, max_nodes=30, max_edges=80)
            for k in (2, 3, 4):
                assert g.walk_counts(k)[-1] == count_walks_oracle(g, k)
            assert g.walk_counts(4) == [count_walks_oracle(g, k) for k in (1, 2, 3, 4)]

    def test_out_of_range(self, story_graph):
        for k in (0, 5, -1):
            with pytest.raises(ValueError):
                story_graph.walk_counts(k)

    def test_parallel_edges_count_with_multiplicity(self):
        g = graph_from_triples([("a", "RelatedTo", "b"), ("a", "Antonym", "b")])
        # each step offers 2 parallel choices in either direction
        assert g.walk_counts(2) == [4, 8]
        assert count_walks_oracle(g, 2) == 8


class TestIndexInvariants:
    def test_every_edge_indexed_exactly_once(self):
        # once in each endpoint's row, so a self-loop sits twice in its own
        rng = np.random.default_rng(3)
        names, triples = random_triples(rng, max_nodes=25, max_edges=120)
        g = graph_from_triples(triples, extra_concepts=names)
        rows = np.repeat(np.arange(g.node_count), np.diff(g.adj_indptr))
        got = sorted(zip(rows.tolist(), g.adj_rel.tolist(), g.adj_dst.tolist(), g.adj_incoming.tolist()))
        ids = [(g.concept_id(s), g.relation_names.index(r), g.concept_id(e)) for s, r, e in kept_triples(triples)]
        want = sorted([(s, r, e, False) for s, r, e in ids] + [(e, r, s, True) for s, r, e in ids])
        assert any(s == e for s, _, e in ids)
        assert got == want

    def test_rows_sorted_by_neighbor_then_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_multigraph(rng, max_nodes=25, max_edges=120)
            for c in range(g.node_count):
                lo, hi = g.adj_indptr[c], g.adj_indptr[c + 1]
                row = list(zip(g.adj_dst[lo:hi].tolist(), g.adj_rel[lo:hi].tolist()))
                assert row == sorted(row)

    def test_degrees_count_incident_edges(self):
        rng = np.random.default_rng(9)
        g = random_multigraph(rng, max_nodes=25, max_edges=120)
        for c in range(g.node_count):
            want = sum((s == c) + (e == c) for s, _, e in edge_table(g))
            assert g.degrees[c] == want

    def test_graph_too_large_for_packed_key(self):
        class Huge(KnowledgeGraph):
            node_count = 1 << 31  # n * n * relations reaches 2**63

        with pytest.raises(PathmineError, match="too large"):
            Huge("en", ["a", "b"], ["RelatedTo", "IsA"], [0], [0], [1])


def _random_dump_lines(rng: np.random.Generator, n_lines: int) -> list[str]:
    rels = ["RelatedTo", "IsA", "AtLocation", "UsedFor", "Antonym"]
    lines = []
    for _ in range(n_lines):
        a = int(rng.integers(2000))
        b = int(rng.integers(2000))
        r = rels[int(rng.integers(len(rels)))]
        w = float(rng.random() * 4 + 0.5)
        lines.append(f'/a/e\t/r/{r}\t/c/en/w{a}\t/c/en/w{b}\t{{"weight": {w:.3f}}}')
    return lines


class TestPersistence:
    @pytest.fixture(scope="class")
    def story_blob(self, story_graph) -> bytes:
        buf = io.BytesIO()
        save_index(story_graph, buf, WalkStats.from_graph(story_graph))
        return buf.getvalue()

    def test_round_trip_preserves_queries(self, story_graph, tmp_path):
        stats = WalkStats.from_graph(story_graph)
        path = str(tmp_path / "story.idx")
        save_index(story_graph, path, stats)
        loaded, loaded_stats = load_index(path)
        assert loaded_stats == stats
        assert_same_tables(loaded, story_graph)

    def test_truncated_file_fails_checksum(self, story_blob, tmp_path):
        path = tmp_path / "story.idx"
        path.write_bytes(story_blob[: len(story_blob) // 2])
        with pytest.raises(IndexChecksumError):
            load_index(str(path))

    def test_tiny_file_reports_truncation(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(b"PM")
        with pytest.raises(IndexTruncatedError):
            load_index(str(path))

    def test_version_mismatch(self, story_blob, tmp_path):
        path = tmp_path / "story.idx"
        path.write_bytes(sealed_index(index_sections(story_blob), version=99))
        with pytest.raises(IndexVersionError):
            load_index(str(path))
        # an edge table of 16 bytes an edge, with weights, then of 12
        for version in (2, 3):
            write_defective_index(str(path), f"format_{version}")
            with pytest.raises(IndexVersionError, match=f"version {version} .*build-index") as info:
                load_index(str(path))
            assert "\n" not in str(info.value)

    def test_format_1_file_names_build_index(self, tmp_path):
        path = str(tmp_path / "v1.idx")
        write_defective_index(path, "format_1")
        with pytest.raises(IndexVersionError, match="version 1 .*build-index") as info:
            load_index(path)
        assert "\n" not in str(info.value)

    def test_edge_sections_store_each_edge_once(self):
        # ids: a 0, b 1, c 2; relations: IsA 0, RelatedTo 1, PartOf 2
        g = graph_from_triples(
            [("a", "IsA", "b"), ("b", "IsA", "a"), ("c", "RelatedTo", "c"), ("c", "PartOf", "a"), ("b", "RelatedTo", "c")]
        )
        buf = io.BytesIO()
        save_index(g, buf, WalkStats.from_graph(g))
        sections = index_sections(buf.getvalue())
        assert list(sections) == [b"META", b"CONC", b"RELS", b"ROWS", b"NBRS", b"EREL", b"FLIP", b"STAT"]
        # under each lower endpoint, by (higher, relation, starts at the higher)
        assert np.frombuffer(sections[b"ROWS"], "<u4").tolist() == [3, 1, 1]
        assert np.frombuffer(sections[b"NBRS"], "<i4").tolist() == [1, 1, 2, 2, 2]
        assert list(sections[b"EREL"]) == [0, 0, 2, 1, 1]
        assert sections[b"FLIP"] == bytes([0b00110])

    def test_loaded_columns_hold_no_file_bytes(self, story_blob):
        # views into the read buffer would keep the whole file alive
        g, _ = load_index(io.BytesIO(story_blob))
        for column in (g.adj_indptr, g.adj_dst, g.adj_rel, g.adj_incoming, g.degrees, g.neighbor_count):
            while isinstance(column.base, np.ndarray):
                column = column.base
            assert column.base is None

    def test_save_refuses_stats_of_another_graph(self, tmp_path):
        g = graph_from_triples([("a", "IsA", "b"), ("b", "IsA", "c")])
        path = tmp_path / "g.idx"
        with pytest.raises(ValueError, match="walk statistics are for 99 concepts, the graph has 3"):
            save_index(g, str(path), WalkStats(5, 7, 99))
        assert not path.exists()

    def test_corrupt_byte_fails_checksum(self, story_blob, tmp_path):
        path = tmp_path / "story.idx"
        blob = bytearray(story_blob)
        blob[20] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(IndexChecksumError):
            load_index(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(IndexFormatError):
            load_index(str(path))

    @pytest.mark.parametrize("defect", ["start", "end", "relation", "stat_nodes"])
    def test_out_of_range_ids_rejected(self, defect, tmp_path):
        path = str(tmp_path / "bad.idx")
        write_defective_index(path, defect)
        with pytest.raises(IndexFormatError, match="out of range|walk statistics"):
            load_index(path)

    HOSTILE_SECTIONS = {
        "below_diagonal": "stored below the diagonal",
        "rows_sum": "row counts sum to 10, the index stores 9 edges",
        "erel_width": "relation id section holds 18 bytes, not 1 for each of 9 edges",
        "flip_length": "orientation section holds 3 bytes, not one bit for each of 9 edges",
        "stat_short": "wrong length",
        "stat_len3_zero": "walk statistics totals 0, ",
        "stat_len4_zero": "walk statistics totals .*, 0 ",
        "stat_len4_huge": "outside",
        "stat_missing": "missing section b'STAT'",
        "conc_duplicate": "duplicate concept surfaces",
        "conc_undecodable": "concept table is not UTF-8",
        "meta_undecodable": "language tag is not UTF-8",
    }

    @pytest.mark.parametrize("defect", sorted(HOSTILE_SECTIONS))
    def test_hostile_sections_rejected(self, defect, tmp_path):
        path = str(tmp_path / "bad.idx")
        write_defective_index(path, defect)
        with pytest.raises(IndexFormatError, match=self.HOSTILE_SECTIONS[defect]) as info:
            load_index(path)
        assert "\n" not in str(info.value)

    @settings(max_examples=300, deadline=None)
    @given(
        tag=st.sampled_from([b"META", b"CONC", b"RELS", b"ROWS", b"NBRS", b"EREL", b"FLIP", b"STAT"]),
        data=st.data(),
    )
    def test_damaged_section_loads_or_fails_typed(self, story_blob, tag, data):
        payload = index_sections(story_blob)[tag]
        if data.draw(st.booleans(), label="flip"):
            pos = data.draw(st.integers(0, len(payload) - 1), label="position")
            mask = data.draw(st.integers(1, 255), label="mask")
            payload = payload[:pos] + bytes([payload[pos] ^ mask]) + payload[pos + 1 :]
        else:
            payload = payload[: data.draw(st.integers(0, len(payload) - 1), label="length")]
        try:
            graph, stats = load_index(io.BytesIO(_resealed(story_blob, tag, payload)))
        except IndexFormatError as exc:
            message = str(exc)
            assert message.strip() and "\n" not in message
        else:
            assert stats.node_count == graph.node_count

    @pytest.mark.parametrize("triple", [("a\nb", "RelatedTo", "c"), ("a", "Related\nTo", "c")])
    def test_save_refuses_name_with_newline(self, triple, tmp_path):
        g = graph_from_triples([triple, ("c", "IsA", "d")])
        path = tmp_path / "g.idx"
        with pytest.raises(ValueError, match="newline"):
            save_index(g, str(path), WalkStats.from_graph(g))
        assert not path.exists()

    HAND_GRAPHS = {
        "self_loops": [("a", "IsA", "a"), ("a", "RelatedTo", "a"), ("b", "IsA", "a"), ("b", "IsA", "b")],
        "parallel": [("a", "IsA", "b"), ("a", "PartOf", "b"), ("b", "RelatedTo", "a"), ("a", "IsA", "b")],
        "both_orientations": [("b", "IsA", "a"), ("a", "IsA", "b"), ("c", "UsedFor", "a")],
        "folded_mirror": [("b", "RelatedTo", "a"), ("a", "RelatedTo", "b"), ("a", "Antonym", "b"), ("b", "Antonym", "a")],
        # 300 relation ids: two bytes each
        "wide_relations": [(f"c{i % 7}", f"R{i}", f"c{i * 3 % 11}") for i in range(300)],
    }

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: random_triples(np.random.default_rng(seed), max_nodes=30, max_edges=120)),
            st.sampled_from(sorted(HAND_GRAPHS)).map(lambda name: ([], TestPersistence.HAND_GRAPHS[name])),
        )
    )
    def test_round_trip(self, case):
        names, triples = case
        g = graph_from_triples(triples, extra_concepts=names)
        stats = WalkStats.from_graph(g)
        first = io.BytesIO()
        save_index(g, first, stats)
        loaded, loaded_stats = load_index(io.BytesIO(first.getvalue()))
        assert loaded_stats == stats
        for name in ("adj_indptr", "adj_dst", "adj_rel", "adj_incoming", "degrees", "neighbor_count"):
            want, got = getattr(g, name), getattr(loaded, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        # the oriented edges derived from the CSR are the input's, deduplicated
        for graph in (g, loaded):
            edges = zip(graph.edge_start.tolist(), graph.edge_rel.tolist(), graph.edge_end.tolist())
            got = sorted((graph.surfaces[s], graph.relation_names[r], graph.surfaces[e]) for s, r, e in edges)
            assert got == sorted(kept_triples(triples))
            assert graph.edge_count == len(got)
        second = io.BytesIO()
        save_index(loaded, second, loaded_stats)
        assert first.getvalue() == second.getvalue()

    def test_failed_save_keeps_the_previous_index(self, story_graph, tmp_path):
        path = tmp_path / "graph.idx"
        save_index(story_graph, str(path), WalkStats.from_graph(story_graph))
        before = path.read_bytes()
        other = graph_from_triples([("x", "IsA", "y"), ("y", "IsA", "z")])
        # the checksum is taken after the payload is written
        with mock.patch.object(kg, "_checksum", side_effect=OSError(28, "No space left on device")):
            with pytest.raises(OSError, match="No space left"):
                save_index(other, str(path), WalkStats.from_graph(other))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["graph.idx"]

    def test_pipe_target_is_written_in_place(self, story_blob, story_graph, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        got = []
        reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
        reader.start()
        save_index(story_graph, str(pipe), WalkStats.from_graph(story_graph))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [story_blob]
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)

    def test_resave_is_byte_identical_for_ingested_sample(self, tmp_path):
        rng = np.random.default_rng(42)
        dump = ("\n".join(_random_dump_lines(rng, 10_000)) + "\n").encode()
        g, _ = ingest_csv(io.BytesIO(dump), "en")
        stats = WalkStats.from_graph(g)
        first = io.BytesIO()
        save_index(g, first, stats)
        loaded, loaded_stats = load_index(io.BytesIO(first.getvalue()))
        second = io.BytesIO()
        save_index(loaded, second, loaded_stats)
        assert first.getvalue() == second.getvalue()
