"""Vectorized kernels against small pure-Python references."""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmine import PathmineError, WalkStats, graph_from_triples, kernels

from conftest import (
    count_walks_oracle,
    multiplicity_oracle,
    neighbor_lists,
    partner_count_oracle,
    random_multigraph,
    story_dump_bytes,
    traced_peak,
)


def _graphs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield random_multigraph(rng, max_nodes=40, max_edges=150)


# ---------------------------------------------------------------------------
# candidate expansion


def expand_reference(g, parents, ancestors, allowed, scores, limit=None):
    """Per parent: its edge-table neighbours collapsed to the minimal
    relation, filtered, ranked by (score desc, concept asc) and cut to
    ``limit``, less its ancestors; each with its edge count from the edge
    table."""
    nbrs = neighbor_lists(g)
    cand, minrel, mult, offsets = [], [], [], [0]
    for p, node in enumerate(parents):
        best: dict[int, int] = {}
        for rel, c in nbrs.get(int(node), []):
            best[c] = min(rel, best.get(c, rel))
        ranked = sorted((c for c in best if allowed is None or allowed[c]), key=lambda c: (-int(scores[c]), c))
        for c in ranked[:limit]:
            if c not in ancestors[p]:
                cand.append(c)
                minrel.append(best[c])
                mult.append(multiplicity_oracle(g, int(node), c))
        offsets.append(len(cand))
    return cand, (minrel, mult), offsets


def _expand(g, parents, ancestors, allowed, scores=None, limit=2**62):
    return kernels.expand_candidates(
        np.asarray(parents, dtype=np.int32),
        ancestors,
        g.adj_indptr,
        g.adj_dst,
        g.adj_rel,
        allowed,
        np.zeros(g.node_count, dtype=np.int64) if scores is None else scores,
        limit,
    )


def _assert_expand_matches(g, parents, ancestors, allowed, scores=None, limit=2**62):
    if scores is None:
        scores = np.zeros(g.node_count, dtype=np.int64)
    cand, (minrel, mult), offsets = _expand(g, parents, ancestors, allowed, scores, limit)
    want = expand_reference(g, parents, ancestors.tolist(), allowed, scores, limit)
    assert cand.dtype == minrel.dtype == mult.dtype == np.int32 and offsets.dtype == np.int64
    assert (cand.tolist(), (minrel.tolist(), mult.tolist()), offsets.tolist()) == want


class TestExpandCandidates:
    def test_random_multigraphs(self):
        rng = np.random.default_rng(4)
        for g in _graphs(4, 30):
            parents = rng.integers(0, g.node_count, size=12).astype(np.int32)
            depth = int(rng.integers(1, 5))
            ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
            ancestors[:, 0] = parents
            ancestors[:, 1:depth] = rng.integers(0, g.node_count, size=(parents.size, depth - 1))
            allowed = rng.random(g.node_count) < 0.7 if rng.random() < 0.8 else None
            # few distinct values, so equal scores are common
            scores = rng.integers(0, 4, size=g.node_count)
            _assert_expand_matches(g, parents, ancestors, allowed, scores)

    def test_long_lists_rank_by_one_packed_sort(self, monkeypatch):
        # more than 256 candidates rank by one sort of packed (list, score,
        # position) keys; ties in score keep neighbour-id order
        sorted_sizes = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, **kw: sorted_sizes.append(a.size) or sort(a, **kw))
        rng = np.random.default_rng(37)
        for _ in range(4):
            names = [f"n{i}" for i in range(500)]
            triples = [("n0", "RelatedTo", names[int(i)]) for i in rng.integers(1, 500, size=700)]
            triples += [(names[int(a)], "IsA", names[int(b)]) for a, b in rng.integers(0, 500, size=(400, 2))]
            g = graph_from_triples(triples)
            parents = np.append(0, rng.integers(0, g.node_count, size=7)).astype(np.int32)
            ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
            ancestors[:, 0] = parents
            ancestors[:, 1] = rng.integers(0, g.node_count, size=parents.size)
            scores = rng.integers(0, 4, size=g.node_count)
            _assert_expand_matches(g, parents, ancestors, None, scores, int(rng.choice([3, 2**62])))
        assert sorted_sizes and max(sorted_sizes) > 256

    def test_wide_scores_rank_by_a_stable_sort(self, monkeypatch):
        # scores near 2**55 leave no room to pack a list position beside the
        # rank in 63 bits: the same order then comes from np.lexsort
        lexsorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: lexsorts.append(1) or lexsort(keys))
        rng = np.random.default_rng(29)
        for g in _graphs(29, 20):
            parents = rng.integers(0, g.node_count, size=12).astype(np.int32)
            ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
            ancestors[:, 0] = parents
            scores = (1 << 55) + rng.integers(0, 4, size=g.node_count)
            _assert_expand_matches(g, parents, ancestors, None, scores, int(rng.integers(1, 6)))
        assert len(lexsorts) > 10

    def test_limit_cuts_each_list_before_ancestors_drop(self):
        rng = np.random.default_rng(13)
        cut = inside = outside = 0
        for g in _graphs(13, 40):
            parents = rng.integers(0, g.node_count, size=12).astype(np.int32)
            depth = int(rng.integers(1, 5))
            ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
            ancestors[:, 0] = parents
            # ancestors drawn among the parents' neighbours, so they fall
            # both inside and outside the cut
            lists = neighbor_lists(g)
            for i, p in enumerate(parents):
                nbrs = [c for _, c in lists.get(int(p), [])] or [int(p)]
                ancestors[i, 1:depth] = rng.choice(nbrs, size=depth - 1)
            allowed = rng.random(g.node_count) < 0.7 if rng.random() < 0.5 else None
            scores = rng.integers(0, 4, size=g.node_count)
            limit = int(rng.integers(1, 6))
            _assert_expand_matches(g, parents, ancestors, allowed, scores, limit)
            # each parent's whole ranked list, nothing dropped or cut
            ranked, _, bounds = expand_reference(g, parents, [()] * parents.size, allowed, scores)
            cut += max(np.diff(bounds)) > limit
            for i in range(parents.size):
                row = ranked[bounds[i] : bounds[i + 1]]
                for a in set(ancestors[i, 1:depth].tolist()) & set(row):
                    inside += row.index(a) < limit
                    outside += row.index(a) >= limit
        assert cut > 20 and inside > 20 and outside > 20

    def test_parallel_edges_keep_minimal_relation(self):
        g = graph_from_triples(
            [("a", "UsedFor", "b"), ("b", "IsA", "a"), ("a", "AtLocation", "b"), ("c", "PartOf", "a")]
        )
        a, b, c = (g.surface_to_id.get(s) for s in "abc")
        ancestors = np.array([[a, -1, -1, -1]], dtype=np.int32)
        cand, (minrel, mult), offsets = _expand(g, [a], ancestors, None)
        rels_ab = [g.relation_names.index(r) for r in ("UsedFor", "IsA", "AtLocation")]
        assert cand.tolist() == sorted([b, c])
        assert minrel[cand.tolist().index(b)] == min(rels_ab)
        assert mult[cand.tolist().index(b)] == 3 and mult[cand.tolist().index(c)] == 1
        assert offsets.tolist() == [0, 2]

    def test_self_loop_counts_twice(self):
        g = graph_from_triples([("a", "IsA", "a"), ("a", "IsA", "b"), ("b", "IsA", "a")])
        a, b = g.surface_to_id.get("a"), g.surface_to_id.get("b")
        # no ancestor, so the parent is its own candidate
        cand, (_, mult), _ = _expand(g, [a], np.full((1, 4), -1, dtype=np.int32), None)
        assert cand.tolist() == sorted([a, b])
        assert mult.tolist() == [2, 2]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        masked=st.booleans(),
        limit=st.integers(1, 6),
        depth=st.integers(0, 4),
    )
    def test_edge_counts_match_oracle(self, seed, masked, limit, depth):
        # small dense multigraphs: self-loops, parallel edges both ways
        rng = np.random.default_rng(seed)
        g = random_multigraph(rng, max_nodes=12, max_edges=60)
        parents = rng.integers(0, g.node_count, size=int(rng.integers(1, 9))).astype(np.int32)
        # ancestors drawn among each parent's neighbours and itself, so
        # some candidates are dropped as ancestor hits
        ancestors = np.full((parents.size, 4), -1, dtype=np.int32)
        lists = neighbor_lists(g)
        for i, p in enumerate(parents):
            pool = [c for _, c in lists.get(int(p), [])] + [int(p)]
            ancestors[i, :depth] = rng.choice(pool, size=depth)
        allowed = rng.random(g.node_count) < 0.6 if masked else None
        scores = rng.integers(0, 3, size=g.node_count)
        cand, (_, mult), offsets = _expand(g, parents, ancestors, allowed, scores, limit)
        for i, p in enumerate(parents.tolist()):
            lo, hi = offsets[i], offsets[i + 1]
            for c, m in zip(cand[lo:hi].tolist(), mult[lo:hi].tolist()):
                assert m == multiplicity_oracle(g, p, c)

    def test_ancestor_hits_and_partial_mask(self):
        g = graph_from_triples([("a", "RelatedTo", n) for n in "bcde"] + [("b", "IsA", "a")])
        a, b, c, d, e = (g.surface_to_id.get(s) for s in "abcde")
        ancestors = np.array([[b, a, -1, -1]], dtype=np.int32)
        allowed = np.ones(g.node_count, dtype=np.bool_)
        allowed[d] = False
        cand, _, offsets = _expand(g, [a], ancestors, allowed)
        assert cand.tolist() == sorted([c, e])
        assert offsets.tolist() == [0, 2]
        _assert_expand_matches(g, [a, b, a], np.repeat(ancestors, 3, axis=0), allowed)

    def test_parent_without_neighbors(self):
        g = graph_from_triples([("a", "RelatedTo", "b")], extra_concepts=["lonely"])
        lonely, a = g.surface_to_id.get("lonely"), g.surface_to_id.get("a")
        ancestors = np.full((3, 4), -1, dtype=np.int32)
        cand, _, offsets = _expand(g, [lonely, a, lonely], ancestors, None)
        assert cand.tolist() == [g.surface_to_id.get("b")]
        assert offsets.tolist() == [0, 0, 1, 1]
        _assert_expand_matches(g, [lonely, a, lonely], ancestors, None)

    @pytest.mark.parametrize("case", ["every neighbour disallowed", "isolated concept", "some parents"])
    def test_nothing_left_to_rank(self, case):
        g = graph_from_triples(
            [("a", "RelatedTo", n) for n in "bcd"] + [("e", "IsA", "f")], extra_concepts=["lonely"]
        )
        a, e, f, lonely = (g.surface_to_id.get(s) for s in ("a", "e", "f", "lonely"))
        # int32 context counts, the filter and the rank score build_tree passes
        counts = np.zeros(g.node_count, dtype=np.int32)
        counts[[a, e]] = 2  # the parents are context concepts, none of their neighbours is
        if case == "every neighbour disallowed":
            parents, allowed, want = [a, e, a], counts, []
        elif case == "isolated concept":
            parents, allowed, want = [lonely, lonely], None, []
        else:
            counts[f] = 1  # e's neighbour f is a context concept, a's are not
            parents, allowed, want = [a, e, lonely, e], counts, [f, f]
        ancestors = np.full((len(parents), 4), -1, dtype=np.int32)
        ancestors[:, 0] = parents
        cand, _, offsets = _expand(g, parents, ancestors, allowed, counts)
        assert cand.tolist() == want
        assert offsets.size == len(parents) + 1
        _assert_expand_matches(g, parents, ancestors, allowed, counts)

    def test_empty_frontier(self):
        g = graph_from_triples([("a", "RelatedTo", "b")])
        cand, (minrel, mult), offsets = _expand(g, [], np.full((0, 4), -1, dtype=np.int32), None)
        assert cand.size == minrel.size == mult.size == 0
        assert offsets.tolist() == [0]


# ---------------------------------------------------------------------------
# association scores and neighbor counts


def association_reference(g, stats, c1, c2, c3, c4):
    base = multiplicity_oracle(g, c1, c2) * multiplicity_oracle(g, c2, c3)
    seq = base * multiplicity_oracle(g, c3, c4)
    if seq == 0:
        return kernels.SCORE_SENTINEL
    if seq == stats.walks_len4:
        return 1.0
    joint = seq / stats.walks_len4
    p_prefix = base / stats.walks_len3
    p_hop = partner_count_oracle(g, c4) / g.node_count
    return math.log(joint / (p_hop * p_prefix)) / -math.log(joint)


def _association(g, stats, prefix, hop, c4s):
    return kernels.association_scores(
        g.neighbor_count,
        np.asarray(prefix, dtype=np.int64),
        np.asarray(hop, dtype=np.int32),
        np.asarray(c4s, dtype=np.int32),
        stats.walks_len3,
        stats.walks_len4,
        stats.node_count,
    )


class TestAssociationScores:
    def test_random_multigraphs(self):
        rng = np.random.default_rng(3)
        for g in _graphs(3, 12):
            stats = WalkStats.from_graph(g)
            nbrs = neighbor_lists(g)
            for _ in range(4):
                c1, c2, c3 = (int(v) for v in rng.integers(0, g.node_count, size=3))
                if rng.random() < 0.5 and c3 in nbrs:
                    # make the prefix a real walk so the PMI branch is exercised
                    c2 = nbrs[c3][0][1]
                    c1 = nbrs[c2][-1][1]
                c4s = rng.integers(0, g.node_count, size=24).astype(np.int32)
                prefix = multiplicity_oracle(g, c1, c2) * multiplicity_oracle(g, c2, c3)
                hop = [multiplicity_oracle(g, c3, int(c4)) for c4 in c4s]
                got = _association(g, stats, [prefix] * c4s.size, hop, c4s)
                want = [association_reference(g, stats, c1, c2, c3, int(c4)) for c4 in c4s]
                assert np.allclose(got, want, rtol=1e-12, atol=0)
                assert np.array_equal(got == kernels.SCORE_SENTINEL, np.asarray(want) == kernels.SCORE_SENTINEL)

    def test_zero_count_gets_sentinel_and_full_count_plus_one(self):
        g = graph_from_triples([("a", "RelatedTo", "b"), ("b", "RelatedTo", "c"), ("c", "RelatedTo", "d")])
        stats = WalkStats(walks_len3=4, walks_len4=6, node_count=g.node_count)
        d = g.surface_to_id.get("d")
        # no walk through the prefix or the hop; then the hop's joint count
        # equals the global total, where the -log denominator vanishes
        got = _association(g, stats, [0, 2, 2], [1, 0, 3], [d, d, d])
        assert got.tolist() == [kernels.SCORE_SENTINEL, kernels.SCORE_SENTINEL, 1.0]


class TestNeighborCounts:
    def test_distinct_neighbors(self):
        for g in _graphs(2, 12):
            nbrs = neighbor_lists(g)
            want = [len({c for _, c in nbrs.get(u, [])}) for u in range(g.node_count)]
            got = kernels.neighbor_counts(g.adj_indptr, g.adj_dst)
            assert got.tolist() == want

    def test_graph_without_edges(self):
        indptr = np.zeros(4, dtype=np.int64)
        dst = np.empty(0, dtype=np.int32)
        assert kernels.neighbor_counts(indptr, dst).tolist() == [0, 0, 0]

    def test_peak_bytes_per_entry(self):
        # the run starts and their running sum share one int32 array; int64
        # temporaries would take 16 bytes an entry
        rng = np.random.default_rng(5)
        rows, per_row = 50, 8000
        indptr = np.arange(rows + 1, dtype=np.int64) * per_row
        dst = np.sort(rng.integers(0, 2000, size=(rows, per_row), dtype=np.int32), axis=1).ravel()
        got, peak = traced_peak(kernels.neighbor_counts, indptr, dst)
        assert got.dtype == np.int64
        assert got.tolist() == [np.unique(row).size for row in dst.reshape(rows, per_row)]
        assert peak / dst.size < 6


# ---------------------------------------------------------------------------
# walk totals


def _two_node_csr(parallel: int):
    """Nodes 0 and 1 joined by ``parallel`` stored edges 0 -> 1."""
    indptr = np.array([0, parallel, 2 * parallel], dtype=np.int64)
    dst = np.repeat(np.array([1, 0], dtype=np.int32), parallel)
    return indptr, dst, np.diff(indptr)


class TestWalkTotals:
    @pytest.mark.parametrize("parallel", [46_341, 65_536])
    def test_exact_beyond_int64(self, parallel):
        csr = _two_node_csr(parallel)
        assert kernels.walk_totals(*csr, 4) == [2 * parallel**k for k in (1, 2, 3, 4)]

    @pytest.mark.parametrize(
        "parallel, k",
        [
            (10_000, 5),  # every vector fits int64, v_2 . v_3 = 2 p**5 does not
            (65_536, 9),  # v_4 = p**4 = 2**64 and v_5 leave int64 themselves
        ],
    )
    def test_exact_when_a_product_or_a_vector_leaves_int64(self, parallel, k):
        assert kernels.walk_totals(*_two_node_csr(parallel), k) == [2 * parallel**j for j in range(1, k + 1)]

    def test_random_multigraphs_match_enumeration_up_to_six_edges(self):
        # small rows gather at one and two bytes; one-byte running sums wrap
        rng = np.random.default_rng(17)
        for _ in range(6):
            g = random_multigraph(rng, max_nodes=12, max_edges=30)
            csr = (g.adj_indptr, g.adj_dst, g.degrees)
            want = [count_walks_oracle(g, k) for k in range(1, 7)]
            for k in range(1, 7):
                assert kernels.walk_totals(*csr, k) == want[:k]

    def test_stats_beyond_index_fields_rejected(self, monkeypatch):
        def huge(indptr, dst, degrees, k):
            return [1 << (62 + j) for j in range(1, k + 1)]

        monkeypatch.setattr(kernels, "walk_totals", huge)
        with pytest.raises(PathmineError, match="64-bit"):
            WalkStats.from_graph(graph_from_triples([("a", "RelatedTo", "b")]))


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
