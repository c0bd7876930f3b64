"""Path selection, token realization, and prefix truncations."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from pathmine import (
    BuildConfig,
    WalkStats,
    build_tree,
    graph_from_triples,
    ground_pair,
    realize_selection,
    score_tree,
    select_paths,
)
from pathmine.selector import TOP_CHILDREN, SelectedPath
from pathmine.tree import PathTree

from conftest import STORY_CONTEXT, STORY_QUERY, children, random_multigraph, regrown, scored_from_raw


@pytest.fixture()
def story_scored(story_graph):
    pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
    stats = WalkStats.from_graph(story_graph)
    tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
    return story_graph, pair, score_tree(tree, pair, story_graph, stats)


@pytest.fixture()
def triple_child_scored():
    """lady -> mother -> {daughter, married, book}; book scores worst."""
    g = graph_from_triples(
        [
            ("lady", "RelatedTo", "mother"),
            ("mother", "RelatedTo", "daughter"),
            ("mother", "RelatedTo", "married"),
            ("mother", "RelatedTo", "book"),
        ]
    )
    context = (
        "the mother loved her daughter . the daughter was married . "
        "being married pleased the mother . a book sat unread"
    )
    pair = ground_pair(context, "the lady", g)
    stats = WalkStats.from_graph(g)
    tree = build_tree([g.surface_to_id.get("lady")], pair, g)
    return g, pair, score_tree(tree, pair, g, stats)


def _hand_selected(st):
    """The one root's paths of a hand-built forest, which has no level-5
    child: no level-4 leaf re-grows one, so no pair or graph is read."""
    return select_paths(st, None, None, BuildConfig())[0]


class TestSelectPaths:
    def test_keeps_two_best_children(self, triple_child_scored):
        g, pair, st = triple_child_scored
        paths = select_paths(st, pair, g, BuildConfig())[0]
        tails = {g.surfaces[p.concepts[-1]] for p in paths}
        assert tails == {"daughter", "married"}
        assert not any(g.surfaces[c] == "book" for p in paths for c in p.concepts)

    def test_root_only_tree_selects_nothing(self, story_graph):
        pair = ground_pair("irrelevant words only", "lady", story_graph)
        stats = WalkStats.from_graph(story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        st = score_tree(tree, pair, story_graph, stats)
        assert select_paths(st, pair, story_graph, BuildConfig())[0] == []

    def test_full_binary_tree_yields_sixteen(self):
        # every node of a synthetic 5-level tree has exactly two children
        concepts, parents, levels = [0], [-1], [1]
        frontier = [0]
        next_concept = 1
        for level in range(2, 6):
            new_frontier = []
            for parent in frontier:
                for _ in range(2):
                    idx = len(concepts)
                    concepts.append(next_concept)
                    next_concept += 1
                    parents.append(parent)
                    levels.append(level)
                    new_frontier.append(idx)
            frontier = new_frontier
        tree = PathTree(
            concepts=concepts,
            parents=parents,
            rels=[-1] + [0] * (len(concepts) - 1),
            mults=[0] * len(concepts),
            levels=levels,
        )
        raw = np.full(len(concepts), 0.25)
        paths = _hand_selected(scored_from_raw(tree, raw))
        assert len(paths) == TOP_CHILDREN**4 == 16
        assert all(len(p.concepts) == 5 for p in paths)

    def test_exact_tie_prefers_lower_concept_id(self):
        tree = PathTree(
            concepts=[0, 5, 3, 7],
            parents=[-1, 0, 0, 0],
            rels=[-1, 0, 0, 0],
            mults=[0] * 4,
            levels=[1, 2, 2, 2],
        )
        # identical raws: equal c-scores, so ids 3 and 5 must win over 7
        paths = _hand_selected(scored_from_raw(tree, [0.0, 0.2, 0.2, 0.2]))
        assert sorted(p.concepts[-1] for p in paths) == [3, 5]

    def test_paths_listed_best_first(self):
        # depth-first, better child first: the order fixes the realization draws
        tree = PathTree(
            concepts=[0, 5, 3, 7, 9, 8],
            parents=[-1, 0, 0, 0, 2, 2],
            rels=[-1, 0, 0, 0, 0, 0],
            mults=[0] * 6,
            levels=[1, 2, 2, 2, 3, 3],
        )
        raw = np.array([0.0, 0.1, 0.3, 0.2, 0.1, 0.4])
        st = scored_from_raw(tree, raw)
        assert [p.concepts for p in _hand_selected(st)] == [(0, 3, 8), (0, 3, 9), (0, 7)]

    def test_never_more_than_two_kept_per_node(self, story_scored):
        g, pair, st = story_scored
        paths = select_paths(st, pair, g, BuildConfig())[0]
        children_of: dict[tuple[int, ...], set[int]] = {}
        for p in paths:
            for i in range(len(p.concepts) - 1):
                children_of.setdefault(p.concepts[: i + 1], set()).add(p.concepts[i + 1])
        assert all(len(kids) <= 2 for kids in children_of.values())

    def test_kept_children_have_maximal_scores(self, story_scored):
        g, pair, st = story_scored
        paths = select_paths(st, pair, g, BuildConfig())[0]
        # level 5 re-grown as nodes, with the scores its summary gives them
        tree, st = regrown(st.tree, pair, g, scored=st)
        kept_nodes = set()
        for p in paths:
            idx = 0
            kept_nodes.add(0)
            for concept in p.concepts[1:]:
                idx = next(c for c in children(tree, idx) if tree.concepts[c] == concept)
                kept_nodes.add(idx)
        assert tree.levels[sorted(kept_nodes)].max() == 5
        for idx in sorted(kept_nodes):
            kids = children(tree, idx)
            if not kids:
                continue
            ranked = sorted(kids, key=lambda c: (-st.c_score[c], tree.concepts[c]))
            assert {c for c in kids if c in kept_nodes} == set(ranked[:2])


    def test_tree_freed_without_cycle_collection(self, story_graph):
        # selection must not park the tree in a reference cycle: with the
        # cycle collector off, dropping the results frees it at once
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        stats = WalkStats.from_graph(story_graph)
        gc.disable()
        try:
            tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
            alive = weakref.ref(tree)
            scored = score_tree(tree, pair, story_graph, stats)
            del tree
            paths = select_paths(scored, pair, story_graph, BuildConfig())[0]
            selection = realize_selection(paths, story_graph, np.random.default_rng(0))
            assert selection.full_paths
            del selection, scored
            assert alive() is None
        finally:
            gc.enable()


def _chain_selection(triples, context: str, root: str):
    """Graph and selection of a hand-built chain whose concepts all ground."""
    g = graph_from_triples(triples)
    pair = ground_pair(context, root, g)
    st = score_tree(build_tree([g.surface_to_id.get(root)], pair, g), pair, g, WalkStats.from_graph(g))
    return g, realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(0))


class TestExpandSubpaths:
    """Prefix expansion: the truncations ``realize_selection`` emits."""

    def test_prefixes_of_story_path(self, story_scored):
        g, pair, st = story_scored
        selection = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(0))
        surfaces = [tuple(g.surfaces[c] for c in t.concepts) for t in selection.truncations]
        assert ("lady", "church", "house", "child") in surfaces

    def test_two_concept_path_has_no_truncations(self):
        g, selection = _chain_selection([("up", "RelatedTo", "down")], "down", "up")
        assert [p.concepts for p in selection.full_paths] == [(g.surface_to_id.get("up"), g.surface_to_id.get("down"))]
        assert selection.truncations == []
        assert selection.realized == [["up", "RelatedTo", "down"]]

    def test_shared_prefixes_emitted_once(self):
        # sun -> sky -> cloud -> {rain, snow}: both full paths hold the
        # prefixes (sun, sky) and (sun, sky, cloud)
        triples = [("sun", "RelatedTo", "sky"), ("sky", "RelatedTo", "cloud"),
                   ("cloud", "RelatedTo", "rain"), ("cloud", "IsA", "snow")]
        g, selection = _chain_selection(triples, "sky and cloud", "sun")
        names = lambda paths: [" ".join(g.surfaces[c] for c in p.concepts) for p in paths]  # noqa: E731
        assert sorted(names(selection.full_paths)) == ["sun sky cloud rain", "sun sky cloud snow"]
        assert names(selection.truncations) == ["sun sky", "sun sky cloud"]
        assert selection.realized[2:] == [["sun", "RelatedTo", "sky"],
                                          ["sun", "RelatedTo", "sky", "RelatedTo", "cloud"]]

    def test_truncations_are_exactly_proper_prefixes(self, story_scored):
        g, pair, st = story_scored
        selection = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(0))
        expected = []
        for p in selection.full_paths:
            for length in range(2, len(p.concepts)):
                key = (p.concepts[:length], p.relations[: length - 1])
                if key not in expected:
                    expected.append(key)
        assert [(t.concepts, t.relations) for t in selection.truncations] == expected


class TestRealizeTokens:
    def test_story_full_path_text(self, story_scored):
        g, pair, st = story_scored
        rng = np.random.default_rng(0)
        selection = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, rng)
        texts = {" ".join(tokens) for tokens in selection.realized}
        assert "lady AtLocation church RelatedTo house RelatedTo child RelatedTo their" in texts
        assert "lady AtLocation church RelatedTo house RelatedTo child" in texts

    def test_single_relation_hops_ignore_seed(self, story_scored):
        g, pair, st = story_scored
        out1 = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(1)).realized
        out2 = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(999)).realized
        assert out1 == out2

    def test_same_seed_reproduces_output_with_parallel_edges(self):
        g = graph_from_triples(
            [("up", "RelatedTo", "down"), ("up", "Antonym", "down"), ("down", "RelatedTo", "south")]
        )
        pair = ground_pair("down and south again down", "up", g)
        stats = WalkStats.from_graph(g)
        st = score_tree(build_tree([g.surface_to_id.get("up")], pair, g), pair, g, stats)
        a = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(5)).realized
        b = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(5)).realized
        assert a == b

    def test_multiword_concepts_split(self):
        g = graph_from_triples([("ice_cream", "AtLocation", "freezer")])
        p = SelectedPath(
            concepts=(g.surface_to_id.get("ice_cream"), g.surface_to_id.get("freezer")), relations=(0,)
        )
        (tokens,) = realize_selection([p], g, np.random.default_rng(0)).realized
        assert tokens == ["ice", "cream", "AtLocation", "freezer"]

    def test_parallel_relation_draw_is_roughly_uniform(self):
        g = graph_from_triples([("up", "RelatedTo", "down"), ("up", "Antonym", "down")])
        p = SelectedPath(concepts=(g.surface_to_id.get("up"), g.surface_to_id.get("down")), relations=(0,))
        rng = np.random.default_rng(12345)
        names = [realize_selection([p], g, rng).realized[0][1] for _ in range(10_000)]
        share = names.count("RelatedTo") / len(names)
        assert 0.48 <= share <= 0.52

    def test_corrupt_path_raises(self, story_graph):
        p = SelectedPath(
            concepts=(story_graph.surface_to_id.get("lady"), story_graph.surface_to_id.get("their")),
            relations=(0,),
        )
        with pytest.raises(ValueError):
            realize_selection([p], story_graph, np.random.default_rng(0))

    def test_realized_paths_validate_and_odd_length(self, story_scored):
        g, pair, st = story_scored
        selection = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(7))
        for path in selection.full_paths + selection.truncations:
            for a, b in zip(path.concepts, path.concepts[1:]):
                assert g.edges_between(a, b)
        for tokens in selection.realized:
            assert len(tokens) % 2 == 1 and len(tokens) >= 3

    def test_truncations_are_token_prefixes_of_full_paths(self):
        # the doubled hop forces a random draw; prefixes must still agree
        g = graph_from_triples(
            [
                ("lady", "RelatedTo", "mother"),
                ("lady", "Antonym", "mother"),
                ("mother", "RelatedTo", "daughter"),
                ("daughter", "RelatedTo", "child"),
                ("child", "RelatedTo", "their"),
            ]
        )
        pair = ground_pair(
            "the mother and daughter and child and their story", "lady", g
        )
        stats = WalkStats.from_graph(g)
        tree = build_tree([g.surface_to_id.get("lady")], pair, g)
        st = score_tree(tree, pair, g, stats)
        for seed in range(20):
            selection = realize_selection(select_paths(st, pair, g, BuildConfig())[0], g, np.random.default_rng(seed))
            fulls = [" ".join(t) for t in selection.realized[: len(selection.full_paths)]]
            truncs = [" ".join(t) for t in selection.realized[len(selection.full_paths) :]]
            for trunc in truncs:
                assert any(full.startswith(trunc) for full in fulls)


class TestCapsOnRandomInputs:
    def test_full_path_budget_holds(self):
        rng = np.random.default_rng(61)
        done = 0
        while done < 15:
            g = random_multigraph(rng, max_nodes=30, max_edges=150)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=40)]
            pair = ground_pair(" ".join(names), " ".join(names[:3]), g)
            if not pair.query_concepts:
                continue
            stats = WalkStats.from_graph(g)
            for c1 in pair.query_concepts:
                st = score_tree(build_tree([c1], pair, g), pair, g, stats)
                paths = select_paths(st, pair, g, BuildConfig())[0]
                assert len(paths) <= TOP_CHILDREN**4
                for p in paths:
                    assert 2 <= len(p.concepts) <= 5
                    assert len(set(p.concepts)) == len(p.concepts)
            done += 1
