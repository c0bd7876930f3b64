"""Vectorized kernels against small pure-Python references."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from pathmine import PathmineError, WalkStats, build_tree, graph_from_triples, ground_pair, kernels, tree

from conftest import multiplicity_oracle, partner_count_oracle, random_multigraph, story_dump_bytes


def _graphs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_multigraph(rng, max_nodes=40, max_edges=150)


# ---------------------------------------------------------------------------
# candidate expansion


def expand_reference(g, parents, ancestors, allowed):
    """Per parent: neighbors() collapsed to the minimal relation, then filtered."""
    cand, minrel, offsets = [], [], [0]
    for p, node in enumerate(parents):
        best: dict[int, int] = {}
        for rel, c in g.neighbors(int(node)):
            best[c] = min(rel, best.get(c, rel))
        for c in sorted(best):
            if allowed[c] and c not in ancestors[p]:
                cand.append(c)
                minrel.append(best[c])
        offsets.append(len(cand))
    return cand, minrel, offsets


def _expand(g, parents, ancestors, allowed):
    return kernels.expand_candidates(
        np.asarray(parents, dtype=np.int32),
        ancestors,
        g.fwd_indptr,
        g.fwd_dst,
        g.fwd_rel,
        g.rev_indptr,
        g.rev_dst,
        g.rev_rel,
        allowed,
    )


def _assert_expand_matches(g, parents, ancestors, allowed):
    cand, minrel, offsets = _expand(g, parents, ancestors, allowed)
    want = expand_reference(g, parents, ancestors.tolist(), allowed)
    assert cand.dtype == np.int32 and minrel.dtype == np.int32 and offsets.dtype == np.int64
    assert (cand.tolist(), minrel.tolist(), offsets.tolist()) == want


class TestExpandCandidates:
    def test_random_multigraphs(self):
        rng = np.random.default_rng(4)
        for g in _graphs(4, 30):
            parents = rng.integers(0, g.node_count, size=12).astype(np.int32)
            depth = int(rng.integers(1, 5))
            ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
            ancestors[:, 0] = parents
            ancestors[:, 1:depth] = rng.integers(0, g.node_count, size=(parents.size, depth - 1))
            allowed = rng.random(g.node_count) < 0.7
            _assert_expand_matches(g, parents, ancestors, allowed)

    def test_parallel_edges_keep_minimal_relation(self):
        g = graph_from_triples(
            [("a", "UsedFor", "b"), ("b", "IsA", "a"), ("a", "AtLocation", "b"), ("c", "PartOf", "a")]
        )
        a, b, c = (g.concept_id(s) for s in "abc")
        ancestors = np.array([[a, -1, -1, -1]], dtype=np.int32)
        cand, minrel, offsets = _expand(g, [a], ancestors, g.all_allowed)
        rels_ab = [g.relation_names.index(r) for r in ("UsedFor", "IsA", "AtLocation")]
        assert cand.tolist() == sorted([b, c])
        assert minrel[cand.tolist().index(b)] == min(rels_ab)
        assert offsets.tolist() == [0, 2]

    def test_ancestor_hits_and_partial_mask(self):
        g = graph_from_triples([("a", "RelatedTo", n) for n in "bcde"] + [("b", "IsA", "a")])
        a, b, c, d, e = (g.concept_id(s) for s in "abcde")
        ancestors = np.array([[b, a, -1, -1]], dtype=np.int32)
        allowed = np.ones(g.node_count, dtype=np.bool_)
        allowed[d] = False
        cand, _, offsets = _expand(g, [a], ancestors, allowed)
        assert cand.tolist() == sorted([c, e])
        assert offsets.tolist() == [0, 2]
        _assert_expand_matches(g, [a, b, a], np.repeat(ancestors, 3, axis=0), allowed)

    def test_parent_without_neighbors(self):
        g = graph_from_triples([("a", "RelatedTo", "b")], extra_concepts=["lonely"])
        lonely, a = g.concept_id("lonely"), g.concept_id("a")
        ancestors = np.full((3, 4), -1, dtype=np.int32)
        cand, minrel, offsets = _expand(g, [lonely, a, lonely], ancestors, g.all_allowed)
        assert cand.tolist() == [g.concept_id("b")]
        assert offsets.tolist() == [0, 0, 1, 1]
        _assert_expand_matches(g, [lonely, a, lonely], ancestors, g.all_allowed)

    def test_empty_frontier(self):
        g = graph_from_triples([("a", "RelatedTo", "b")])
        cand, minrel, offsets = _expand(g, [], np.full((0, 4), -1, dtype=np.int32), g.all_allowed)
        assert cand.size == 0 and minrel.size == 0
        assert offsets.tolist() == [0]

    def test_multi_chunk_tree_equals_single_chunk(self, monkeypatch):
        rng = np.random.default_rng(8)
        built = 0
        for g in _graphs(8, 12):
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            root = pair.query_concepts[0]
            whole = build_tree(root, pair, g)
            monkeypatch.setattr(tree, "_EXPAND_CHUNK_BUDGET", 3)
            chunked = build_tree(root, pair, g)
            monkeypatch.undo()
            for name in ("concepts", "parents", "rels", "levels"):
                assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
            built += whole.node_count > 1
        assert built >= 5


# ---------------------------------------------------------------------------
# association scores and neighbor counts


def association_reference(g, stats, c1, c2, c3, c4):
    base = g.pair_multiplicity(c1, c2) * g.pair_multiplicity(c2, c3)
    seq = base * g.pair_multiplicity(c3, c4)
    if seq == 0:
        return kernels.SCORE_SENTINEL
    if seq == stats.walks_len4:
        return 1.0
    joint = seq / stats.walks_len4
    p_prefix = base / stats.walks_len3
    p_hop = partner_count_oracle(g, c4) / g.node_count
    return math.log(joint / (p_hop * p_prefix)) / -math.log(joint)


class TestAssociationScores:
    def test_random_multigraphs(self):
        rng = np.random.default_rng(3)
        for g in _graphs(3, 12):
            stats = WalkStats.from_graph(g)
            for _ in range(4):
                c1, c2, c3 = (int(v) for v in rng.integers(0, g.node_count, size=3))
                if rng.random() < 0.5 and g.neighbors(c3):
                    # make the prefix a real walk so the PMI branch is exercised
                    c2 = g.neighbors(c3)[0][1]
                    c1 = g.neighbors(c2)[-1][1]
                c4s = rng.integers(0, g.node_count, size=24).astype(np.int32)
                got = kernels.association_scores(
                    g.fwd_indptr,
                    g.fwd_dst,
                    g.rev_indptr,
                    g.rev_dst,
                    g.neighbor_count,
                    c1,
                    c2,
                    c3,
                    c4s,
                    stats.walks_len3,
                    stats.walks_len4,
                    stats.node_count,
                )
                want = [association_reference(g, stats, c1, c2, c3, int(c4)) for c4 in c4s]
                assert np.allclose(got, want, rtol=1e-12, atol=0)
                assert np.array_equal(got == kernels.SCORE_SENTINEL, np.asarray(want) == kernels.SCORE_SENTINEL)

    def test_pair_multiplicity_matches_edge_table(self):
        rng = np.random.default_rng(6)
        for g in _graphs(6, 8):
            for a, b in rng.integers(0, g.node_count, size=(20, 2)):
                assert g.pair_multiplicity(int(a), int(b)) == multiplicity_oracle(g, int(a), int(b))


class TestNeighborCounts:
    def test_distinct_neighbors(self):
        for g in _graphs(2, 12):
            want = [len({c for _, c in g.neighbors(u)}) for u in range(g.node_count)]
            got = kernels.neighbor_counts(g.fwd_indptr, g.fwd_dst, g.rev_indptr, g.rev_dst, g.node_count)
            assert got.tolist() == want

    def test_graph_without_edges(self):
        indptr = np.zeros(4, dtype=np.int64)
        dst = np.empty(0, dtype=np.int32)
        assert kernels.neighbor_counts(indptr, dst, indptr, dst, 3).tolist() == [0, 0, 0]


# ---------------------------------------------------------------------------
# walk totals


def _two_node_csr(parallel: int):
    """Nodes 0 and 1 joined by ``parallel`` stored edges 0 -> 1."""
    fwd_indptr = np.array([0, parallel, parallel], dtype=np.int64)
    rev_indptr = np.array([0, 0, parallel], dtype=np.int64)
    return fwd_indptr, np.ones(parallel, dtype=np.int32), rev_indptr, np.zeros(parallel, dtype=np.int32)


class TestWalkTotals:
    @pytest.mark.parametrize("parallel", [46_341, 65_536])
    def test_exact_beyond_int64(self, parallel):
        csr = _two_node_csr(parallel)
        for k in (1, 2, 3, 4):
            assert kernels.walk_totals(*csr, 2, k) == 2 * parallel**k

    def test_stats_beyond_index_fields_rejected(self):
        class Huge:
            node_count = 2

            def walk_count(self, k):
                return 1 << (62 + k)

        with pytest.raises(PathmineError):
            WalkStats.from_graph(Huge())


def test_story_extraction_in_fresh_interpreter(tmp_path):
    # the whole pipeline from a dump, in an interpreter with nothing preloaded
    dump = tmp_path / "dump.tsv"
    dump.write_bytes(story_dump_bytes())
    context = (
        "The lady went to the church. The church stood by a house. A child lived in the house, "
        "and the child loved their mother. The mother had a daughter. A person, her lover, came by."
    )
    script = f"""
import json
from pathmine import ingest_csv, Extractor, ExtractionRequest, WalkStats
g, _ = ingest_csv(open({str(dump)!r}, "rb"), "en")
ex = Extractor(g, WalkStats.from_graph(g))
res = ex.extract(ExtractionRequest(context={context!r}, query="the lady"))
assert res.error is None, res.error
print(json.dumps(res.paths))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    paths = proc.stdout.strip().splitlines()[-1]
    assert "their" in paths
