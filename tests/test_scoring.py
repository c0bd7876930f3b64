"""Raw scores, the normalized association measure, softmax, and cumulative pass."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmine import (
    SCORE_SENTINEL,
    WalkStats,
    build_tree,
    graph_from_triples,
    ground_pair,
    score_tree,
)
from pathmine.grounding import ConceptMentionSet, GroundedPair
from pathmine.scoring import cumulative_score, score_raw, sibling_softmax
from pathmine.tree import PathTree, BuildConfig

from conftest import (
    STORY_CONTEXT,
    STORY_QUERY,
    children,
    level_indices,
    multiplicity_oracle,
    npmi_oracle,
    path_to,
    probabilities_oracle,
    random_multigraph,
    random_path_tree,
    regrown,
    scored_from_raw,
)


def _ids(g, *surfaces):
    return [g.surface_to_id.get(s) for s in surfaces]


@pytest.fixture()
def hand_graph():
    # six concepts, one doubled hop, one dangling concept
    return graph_from_triples(
        [
            ("sun", "RelatedTo", "sky"),
            ("sky", "RelatedTo", "cloud"),
            ("sky", "Antonym", "cloud"),
            ("cloud", "RelatedTo", "rain"),
            ("rain", "RelatedTo", "water"),
            ("water", "RelatedTo", "sun"),
        ],
        extra_concepts=["stone"],
    )


def _pair(g, mentions: dict[int, int], source_len: int, query: list[int]) -> GroundedPair:
    """A hand-made grounded pair, its context counts scattered from ``mentions``."""
    counts = np.zeros(g.node_count, dtype=np.int32)
    counts[list(mentions)] = list(mentions.values())
    return GroundedPair(ConceptMentionSet(mentions, source_len), query, counts)


def npmi(c1: int, c2: int, c3: int, c4: int, g, stats) -> float:
    """The raw score ``score_raw`` gives the level-4 node of the one path
    c1, c2, c3, c4, its edge counts read from the edge table."""
    path = [c1, c2, c3, c4]
    mults = [0] + [multiplicity_oracle(g, a, b) for a, b in zip(path, path[1:])]
    tree = PathTree(path, [-1, 0, 1, 2], [-1, 0, 0, 0], mults, [1, 2, 3, 4])
    return float(score_raw(tree, _pair(g, {c1: 1}, 1, [c1]), g, stats)[3])


class TestNpmi:
    def test_matches_enumeration_on_hand_graph(self, hand_graph):
        g = hand_graph
        stats = WalkStats.from_graph(g)
        c1, c2, c3, c4 = _ids(g, "sun", "sky", "cloud", "rain")
        assert npmi(c1, c2, c3, c4, g, stats) == pytest.approx(
            npmi_oracle(g, c1, c2, c3, c4), rel=1e-9
        )

    def test_parallel_edges_double_the_joint_count(self, hand_graph):
        g = hand_graph
        stats = WalkStats.from_graph(g)
        c1, c2, c3, c4 = _ids(g, "sun", "sky", "cloud", "rain")
        joint, _, _ = probabilities_oracle(g, c1, c2, c3, c4)
        # sky-cloud hop has two labels: joint walk count is 1 * 2 * 1
        assert joint == pytest.approx(2 / stats.walks_len4, rel=1e-12)
        assert npmi(c1, c2, c3, c4, g, stats) == pytest.approx(
            npmi_oracle(g, c1, c2, c3, c4), rel=1e-9
        )

    def test_disconnected_hop_gets_sentinel(self, hand_graph):
        g = hand_graph
        stats = WalkStats.from_graph(g)
        c1, c2, c3 = _ids(g, "sun", "sky", "cloud")
        stone = g.surface_to_id.get("stone")
        assert npmi(c1, c2, c3, stone, g, stats) == SCORE_SENTINEL

    def test_joint_probability_one_returns_plus_one(self, hand_graph):
        g = hand_graph
        c1, c2, c3, c4 = _ids(g, "sun", "sky", "cloud", "rain")
        # boundary convention exercised via a crafted stats denominator
        stats = WalkStats(walks_len3=1, walks_len4=2, node_count=g.node_count)
        assert npmi(c1, c2, c3, c4, g, stats) == 1.0

    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 25:
            g = random_multigraph(rng, max_nodes=20, max_edges=60)
            stats = WalkStats.from_graph(g)
            ids = rng.integers(0, g.node_count, size=4)
            c1, c2, c3, c4 = map(int, ids)
            got = npmi(c1, c2, c3, c4, g, stats)
            want = npmi_oracle(g, c1, c2, c3, c4)
            if want == SCORE_SENTINEL:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-9)
            checked += 1

    def test_sentinel_ranks_last_after_softmax(self):
        tree = PathTree(
            concepts=[0, 1, 2, 3],
            parents=[-1, 0, 0, 0],
            rels=[-1, 0, 0, 0],
            mults=[0] * 4,
            levels=[1, 2, 2, 2],
        )
        n_score = sibling_softmax(tree, np.array([0.0, 0.05, SCORE_SENTINEL, 0.02]))
        scores = n_score[1:]
        assert scores[1] == 0.0
        assert scores[1] < scores[2] < scores[0]
        assert scores.sum() == pytest.approx(1.0, abs=1e-9)


class TestRawScore:
    def test_term_frequency_levels(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree, st = regrown(tree, score_tree(tree, pair, story_graph, stats))
        grounded = [i for i in range(1, tree.node_count) if tree.levels[i] != 4]
        assert {int(tree.levels[i]) for i in grounded} == {2, 3, 5}
        for i in grounded:
            expected = pair.context_mentions.mentions.get(int(tree.concepts[i]), 0) / pair.context_mentions.source_len
            assert st.raw[i] == pytest.approx(expected)

    def test_level_four_uses_association_score(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        stats = WalkStats.from_graph(story_graph)
        raw = score_raw(tree, pair, story_graph, stats)
        for node in level_indices(tree, 4):
            path = path_to(tree, int(node))
            assert raw[int(node)] == pytest.approx(
                npmi_oracle(story_graph, *path), rel=1e-9
            )

    def test_level_four_raws_equal_npmi_bit_for_bit(self):
        rng = np.random.default_rng(61)
        sentinels = scored = 0
        for trial in range(12):
            # parallel edges and self-loops come with the random multigraphs
            g = random_multigraph(rng, max_nodes=20, max_edges=80)
            stats = WalkStats.from_graph(g)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=25)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            built = build_tree([pair.query_concepts[0]], pair, g, BuildConfig(max_children_per_node=3))
            # bit for bit against one-path trees, whose edge counts come
            # from the edge table instead of expansion
            for tree in (built, random_path_tree(rng, g)):
                raw = score_raw(tree, pair, g, stats)
                for idx in level_indices(tree, 4):
                    want = npmi(*path_to(tree, int(idx)), g, stats)
                    assert raw[idx] == want
                    sentinels += want == SCORE_SENTINEL
                    scored += 1
        assert sentinels > 0 and scored - sentinels > 0

    def test_root_is_not_scored(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        stats = WalkStats.from_graph(story_graph)
        assert score_raw(tree, pair, story_graph, stats)[0] == 0.0

    def test_empty_context_raises(self, story_graph):
        lady = story_graph.surface_to_id.get("lady")
        pair = _pair(story_graph, {}, 0, [lady])
        tree = PathTree([lady], [-1], [-1], [0], [1])  # build_tree refuses such a pair first
        with pytest.raises(ValueError, match="context is empty"):
            score_raw(tree, pair, story_graph, WalkStats.from_graph(story_graph))


def _softmax_oracle(raw):
    # extended precision reference
    vals = [np.longdouble(x) for x in raw]
    m = max(vals)
    exps = [np.exp(v - m) for v in vals]
    s = sum(exps)
    return [float(e / s) for e in exps]


class TestSiblingSoftmax:
    def _single_group_tree(self, raw):
        n = len(raw)
        tree = PathTree(
            concepts=list(range(n + 1)),
            parents=[-1] + [0] * n,
            rels=[-1] + [0] * n,
            mults=[0] * (n + 1),
            levels=[1] + [2] * n,
        )
        return sibling_softmax(tree, np.array([0.0, *raw]))

    def test_singleton_gets_one(self):
        n_score = self._single_group_tree([0.37])
        assert n_score[1] == 1.0

    def test_equal_raws_split_evenly(self):
        n_score = self._single_group_tree([0.05, 0.05])
        assert list(n_score[1:]) == [pytest.approx(0.5), pytest.approx(0.5)]

    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            raw = rng.normal(size=int(rng.integers(1, 8))).tolist()
            n_score = self._single_group_tree(raw)
            for got, want in zip(n_score[1:], _softmax_oracle(raw)):
                assert got == pytest.approx(want, abs=1e-12)

    def test_groups_sum_to_one(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        tree, st = regrown(tree, score_tree(tree, pair, story_graph, stats))
        assert level_indices(tree, 5).size
        for idx in range(tree.node_count):
            if children(tree, idx):
                total = sum(st.n_score[c] for c in children(tree, idx))
                assert total == pytest.approx(1.0, abs=1e-9)


    def test_level5_mean_is_top_two_of_regrown_children(self):
        # the level-5 summary's top5, against the normalized scores
        # PathTree.regrow5 re-grows node by node
        rng = np.random.default_rng(67)
        means = empties = 0
        for _ in range(30):
            g = random_multigraph(rng, max_nodes=20, max_edges=60)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=25)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            cfg = BuildConfig(max_children_per_node=int(rng.integers(2, 5)))
            tree = build_tree([pair.query_concepts[0]], pair, g, cfg)
            top5 = tree.level5.top5
            assert top5.size == tree.node_count - tree.first4
            for i, idx in enumerate(range(tree.first4, tree.node_count)):
                n5 = tree.regrow5([idx])[3]
                if n5.size:
                    assert top5[i] == pytest.approx(n5[:2].mean(), abs=1e-12)
                    means += 1
                else:
                    assert top5[i] == 0.0
                    empties += 1
        assert means > 50 and empties > 0, (means, empties)


def _level5_against_brute_force(g, pair, cap: int) -> int:
    """Check every level-4 node's ``count``, ``sum5`` and ``top5``, and its
    re-grown children's raw scores, against its children found by scanning
    the graph, summed as ``np.add.reduceat`` sums one node's terms in value
    order; return the most non-empty values any node has."""
    tree = build_tree(pair.query_concepts, pair, g, BuildConfig(max_children_per_node=cap))
    sum5, top5 = tree.level5.sum5, tree.level5.top5
    tf, n = pair.context_mentions.mentions, pair.context_mentions.source_len
    most = 0
    for i, idx in enumerate(range(tree.first4, tree.node_count)):
        path, c4 = path_to(tree, idx), int(tree.concepts[idx])
        kids = sorted(
            (c for c in tf if c not in path and g.edges_between(c4, c)), key=lambda c: (-tf[c], c)
        )[:cap]
        concepts, rels, raw, _, _ = tree.regrow5([idx])
        assert concepts.tolist() == kids
        assert rels.tolist() == [g.edges_between(c4, c)[0] for c in kids]
        assert raw.tolist() == [tf[c] / n for c in kids]
        assert tree.level5.count[i] == len(kids)
        if not kids:
            assert sum5[i] == top5[i] == 0.0
            continue
        values, sizes = np.unique([-tf[c] for c in kids], return_counts=True)
        raws = -values / n
        total = np.add.reduceat(sizes * np.exp(raws - raws[0]), [0])[0]
        top1 = 1.0 / total
        top2 = np.exp(tf[kids[1]] / n - raws[0]) / total if len(kids) >= 2 else top1
        # two children are their whole group: their mean is exactly 1/2
        assert sum5[i] == total and top5[i] == (0.5 if len(kids) == 2 else (top1 + top2) / 2.0)
        most = max(most, values.size)
    return most


def _counted_context(rng, g) -> str:
    """A context naming 10 or more of ``g``'s concepts, each a distinct
    number of times."""
    k = int(rng.integers(10, g.node_count + 1))
    words = []
    for name, times in zip(rng.permutation(g.surfaces)[:k], rng.permutation(k) + 1):
        words += [str(name)] * int(times)
    return " ".join(rng.permutation(words))


def _dense_multigraph(rng):
    while True:
        g = random_multigraph(rng, max_nodes=24, max_edges=220)
        if g.node_count >= 12:
            return g


class TestLevel5Summary:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cap=st.integers(2, 5))
    def test_capped_counts_and_sums_match_children(self, seed, cap):
        rng = np.random.default_rng(seed)
        g = _dense_multigraph(rng)
        names = rng.choice(g.surfaces, size=2, replace=False)
        _level5_against_brute_force(g, ground_pair(_counted_context(rng, g), " ".join(names), g), cap)

    def test_reduceat_pairwise_order_on_many_values(self):
        # a node with 9 or more non-empty values has 8 or more terms after
        # its first, which np.add.reduceat sums pairwise, not in sequence
        rng = np.random.default_rng(71)
        most = []
        for _ in range(12):
            g = _dense_multigraph(rng)
            names = rng.choice(g.surfaces, size=2, replace=False)
            pair = ground_pair(_counted_context(rng, g), " ".join(names), g)
            most.append(_level5_against_brute_force(g, pair, 100))
        assert max(most) >= 9 and sum(m >= 9 for m in most) >= 3, most


class TestBareForest:
    def test_skipped_passes_give_the_same_fields(self, story_graph):
        stats = WalkStats.from_graph(story_graph)
        for query in ("lady", "lady church", "church lady mother"):
            pair = ground_pair("nothing relevant here", query, story_graph)
            tree = build_tree(pair.query_concepts, pair, story_graph)
            assert tree.node_count == tree.root_count == len(query.split())
            raw = score_raw(tree, pair, story_graph, stats)
            n_score = sibling_softmax(tree, raw)
            full = (raw, n_score, cumulative_score(tree, n_score))
            scored = score_tree(tree, pair, story_graph, stats)
            got = (scored.raw, scored.n_score, scored.c_score)
            for name, a, b in zip(("raw", "n_score", "c_score"), got, full):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist(), name
            assert scored.n_score is not scored.c_score


def _cumulative_oracle(tree: PathTree, n_score: np.ndarray):
    """Plain recursive recomputation over each node's children."""

    def c_of(idx: int) -> float:
        n = float(n_score[idx])
        kids = children(tree, idx)
        if not kids:
            return n
        child_scores = sorted((c_of(k) for k in kids), reverse=True)
        return n + sum(child_scores[:2]) / len(child_scores[:2])

    return c_of


class TestCumulativeScore:
    def test_leaves_keep_normalized_score(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        tree, st = regrown(tree, score_tree(tree, pair, story_graph, stats))
        for idx in range(tree.node_count):
            if not children(tree, idx):
                assert st.c_score[idx] == st.n_score[idx]

    def test_top_two_mean_excludes_weakest(self):
        # parent with three children; the worst child must not contribute
        tree = PathTree(
            concepts=[0, 1, 2, 3, 4],
            parents=[-1, 0, 1, 1, 1],
            rels=[-1, 0, 0, 0, 0],
            mults=[0] * 5,
            levels=[1, 2, 3, 3, 3],
        )
        raw = np.array([0.0, 0.05, 0.06, 0.05, 0.001])
        st = scored_from_raw(tree, raw)
        kids = sorted(st.n_score[2:5], reverse=True)
        assert st.c_score[1] == pytest.approx(st.n_score[1] + (kids[0] + kids[1]) / 2)
        with_weakest = st.n_score[1] + (kids[0] + kids[2]) / 2
        assert st.c_score[1] != pytest.approx(with_weakest)

    @pytest.mark.parametrize(
        "third_block",
        [[0.1, 0.5, 0.5], [0.5, 0.5, 0.1], [0.3, 0.3, 0.3], [0.5, 0.2, 0.2], [0.2, 0.5, 0.2]],
    )
    def test_exactly_tied_children_match_recursion(self, third_block):
        # level-2 parents with blocks of 1, 2 and 3 children, top values tied
        tree = PathTree(
            concepts=list(range(10)),
            parents=[-1, 0, 0, 0, 1, 2, 2, 3, 3, 3],
            rels=[-1] + [0] * 9,
            mults=[0] * 10,
            levels=[1, 2, 2, 2, 3, 3, 3, 3, 3, 3],
        )
        n_score = np.array([1.0, 0.4, 0.4, 0.2, 0.7, 0.25, 0.25, *third_block])
        c_score = cumulative_score(tree, n_score)
        oracle = _cumulative_oracle(tree, n_score)
        for idx in range(tree.node_count):
            assert c_score[idx] == oracle(idx)

    def test_single_child_average_is_the_child(self):
        tree = PathTree(
            concepts=[0, 1],
            parents=[-1, 0],
            rels=[-1, 0],
            mults=[0, 0],
            levels=[1, 2],
        )
        st = scored_from_raw(tree, [0.0, 0.3])
        assert st.c_score[0] == pytest.approx(st.n_score[0] + st.c_score[1])

    def test_story_tree_matches_recursive_recomputation(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        tree, st = regrown(tree, score_tree(tree, pair, story_graph, stats))
        oracle = _cumulative_oracle(tree, st.n_score)
        for idx in range(tree.node_count):
            assert st.c_score[idx] == pytest.approx(oracle(idx), abs=1e-9)

    def test_story_tree_frozen_values(self, story_graph):
        # |C| = 35 tokens; church/mother appear twice, person once.
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        assert pair.context_mentions.source_len == 35
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        st = score_tree(tree, pair, story_graph, stats)
        by_surface = {story_graph.surfaces[tree.concepts[i]]: i for i in children(tree, 0)}
        # softmax over raw TFs (2/35, 2/35, 1/35), recomputed with plain math
        tf = [2 / 35, 2 / 35, 1 / 35]
        exps = [math.exp(x - max(tf)) for x in tf]
        want = [e / sum(exps) for e in exps]
        assert st.n_score[by_surface["church"]] == pytest.approx(want[0], abs=1e-12)
        assert st.n_score[by_surface["person"]] == pytest.approx(want[2], abs=1e-12)

    def test_random_trees_match_recursive_recomputation(self):
        rng = np.random.default_rng(53)
        done = 0
        while done < 10:
            g = random_multigraph(rng, max_nodes=20, max_edges=50)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=25)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            stats = WalkStats.from_graph(g)
            tree = build_tree([pair.query_concepts[0]], pair, g)
            tree, st = regrown(tree, score_tree(tree, pair, g, stats))
            oracle = _cumulative_oracle(tree, st.n_score)
            for idx in range(tree.node_count):
                assert st.c_score[idx] == pytest.approx(oracle(idx), abs=1e-9)
            done += 1

    def test_internal_nodes_strictly_exceed_normalized_score(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        tree, st = regrown(tree, score_tree(tree, pair, story_graph, stats))
        internal = tree.child_start < tree.child_end
        assert np.all(st.c_score[internal] > st.n_score[internal])


class TestRankMonotonicity:
    def test_extra_context_occurrence_never_lowers_sibling_rank(self, story_graph):
        stats = WalkStats.from_graph(story_graph)

        def rank_of(context: str, surface: str) -> int:
            pair = ground_pair(context, STORY_QUERY, story_graph)
            tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
            n_score = sibling_softmax(tree, score_raw(tree, pair, story_graph, stats))
            siblings = sorted(children(tree, 0), key=lambda i: (-n_score[i], tree.concepts[i]))
            return [story_graph.surfaces[tree.concepts[i]] for i in siblings].index(surface)

        for surface in ("church", "person"):
            base = rank_of(STORY_CONTEXT, surface)
            boosted = rank_of(STORY_CONTEXT + f" The {surface} again.", surface)
            assert boosted <= base
