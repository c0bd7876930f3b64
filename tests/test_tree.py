"""Candidate tree construction and level enumeration."""

from __future__ import annotations

import numpy as np
import pytest

from pathmine import (
    BuildConfig,
    PathmineError,
    WalkStats,
    build_tree,
    enumerate_levels,
    graph_from_triples,
    ground_pair,
    realize_selection,
    score_tree,
    select_paths,
    tree as tree_module,
)

from conftest import STORY_CONTEXT, STORY_QUERY, random_multigraph


def _surfaces(g, nodes):
    return [g.surfaces[n.concept] for n in nodes]


@pytest.fixture()
def story_tree(story_graph):
    pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
    tree = build_tree([story_graph.concept_id("lady")], pair, story_graph)
    return story_graph, pair, tree


class TestStoryTree:
    def test_level_two_children(self, story_tree):
        g, _, tree = story_tree
        assert _surfaces(g, tree.root.children) == ["church", "mother", "person"]

    def test_known_branches_present(self, story_tree):
        g, _, tree = story_tree
        by_surface = {g.surfaces[n.concept]: n for n in enumerate_levels(tree, 2)}
        assert _surfaces(g, by_surface["mother"].children) == ["daughter"]
        house = by_surface["church"].children[0]
        assert g.surfaces[house.concept] == "house"
        child = house.children[0]
        assert g.surfaces[child.concept] == "child"
        assert child.level == 4
        assert "their" in _surfaces(g, child.children)

    def test_roots_relation_is_none(self, story_tree):
        _, _, tree = story_tree
        assert tree.root.incoming_relation is None
        assert tree.root.level == 1
        for node in enumerate_levels(tree, 2):
            assert node.incoming_relation is not None

    def test_grounded_levels_are_context_members(self, story_tree):
        _, pair, tree = story_tree
        for level in (2, 3, 5):
            for node in enumerate_levels(tree, level):
                assert pair.context_mentions.count(node.concept) > 0

    def test_level_four_is_graph_neighbor_of_parent(self, story_tree):
        g, _, tree = story_tree
        for node in enumerate_levels(tree, 4):
            assert g.edges_between(node.parent.concept, node.concept)

    def test_no_path_repeats_a_concept(self, story_tree):
        _, _, tree = story_tree
        for level in range(1, 6):
            for node in enumerate_levels(tree, level):
                path = node.path_concepts()
                assert len(path) == len(set(path))


class TestDegenerateTrees:
    def test_query_concept_with_no_context_link(self, story_graph):
        pair = ground_pair("nothing relevant here", "lady", story_graph)
        tree = build_tree([story_graph.concept_id("lady")], pair, story_graph)
        assert tree.node_count == 1
        assert tree.root.children == []

    def test_branch_truncated_at_level_four(self):
        # child has no context-grounded continuation: branch kept as a leaf
        g = graph_from_triples(
            [
                ("lady", "RelatedTo", "mother"),
                ("mother", "RelatedTo", "daughter"),
                ("daughter", "RelatedTo", "child"),
            ]
        )
        pair = ground_pair("mother daughter story", "the lady", g)
        tree = build_tree([g.concept_id("lady")], pair, g)
        level4 = enumerate_levels(tree, 4)
        assert [g.surfaces[n.concept] for n in level4] == ["child"]
        assert level4[0].children == []
        assert enumerate_levels(tree, 5) == []

    def test_unknown_root_raises(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError):
            build_tree([99999], pair, story_graph)

    def test_root_must_be_query_concept(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError):
            build_tree([story_graph.concept_id("church")], pair, story_graph)


class TestEnumerateLevels:
    def test_level_one_is_root(self, story_tree):
        _, _, tree = story_tree
        nodes = enumerate_levels(tree, 1)
        assert len(nodes) == 1 and nodes[0] == tree.root

    def test_out_of_range(self, story_tree):
        _, _, tree = story_tree
        for level in (0, 6):
            with pytest.raises(ValueError):
                enumerate_levels(tree, level)

    def test_level_counts_bounded_by_branching(self):
        rng = np.random.default_rng(23)
        cfg = BuildConfig(max_children_per_node=3)
        for _ in range(20):
            g = random_multigraph(rng, max_nodes=25, max_edges=120)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            tree = build_tree([pair.query_concepts[0]], pair, g, cfg)
            for level in range(1, 6):
                assert len(enumerate_levels(tree, level)) <= 3 ** (level - 1)


def build_reference(g, pair, root: int, cap: int):
    """Plain-Python growth: per node, neighbors() collapsed to the minimal
    relation, the path's concepts dropped, context concepts only at grounded
    levels, then the first ``cap`` by (score desc, concept asc) where the
    score is the context count, or the degree at level 4.

    Returns the tree's concept, parent, relation and level lists, and the
    number of nodes the cap cut short."""
    count = pair.context_mentions.count
    concepts, parents, rels, levels = [root], [-1], [-1], [1]
    capped = 0
    frontier = [(0, [root])]
    for level in range(2, 6):
        score = g.degree if level == 4 else count
        nxt = []
        for idx, path in frontier:
            best: dict[int, int] = {}
            for rel, c in g.neighbors(path[-1]):
                best[c] = min(rel, best.get(c, rel))
            kept = [c for c in best if c not in path and (level == 4 or count(c) > 0)]
            capped += len(kept) > cap
            for c in sorted(kept, key=lambda c: (-score(c), c))[:cap]:
                nxt.append((len(concepts), path + [c]))
                concepts.append(c)
                parents.append(idx)
                rels.append(best[c])
                levels.append(level)
        frontier = nxt
    return concepts, parents, rels, levels, capped


class TestCapOracle:
    @pytest.mark.parametrize("cap", [2, 3])
    def test_binding_cap_matches_plain_python(self, cap):
        rng = np.random.default_rng(40 + cap)
        trees = capped = 0
        while trees < 25:
            g = random_multigraph(rng, max_nodes=25, max_edges=120)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            root = pair.query_concepts[0]
            tree = build_tree([root], pair, g, BuildConfig(max_children_per_node=cap))
            *want, cut = build_reference(g, pair, root, cap)
            got = (tree.concepts, tree.parents, tree.rels, tree.levels)
            assert [a.tolist() for a in got] == want
            capped += cut > 0
            trees += 1
        assert capped >= 10


class TestDeterminismAndMonotonicity:
    def test_rebuild_identical(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        t1 = build_tree([story_graph.concept_id("lady")], pair, story_graph)
        t2 = build_tree([story_graph.concept_id("lady")], pair, story_graph)
        assert np.array_equal(t1.concepts, t2.concepts)
        assert np.array_equal(t1.parents, t2.parents)
        assert np.array_equal(t1.rels, t2.rels)

    def test_removing_an_edge_never_adds_nodes(self):
        # monotonicity holds when the child cap is not binding
        rng = np.random.default_rng(31)
        cfg = BuildConfig(max_children_per_node=10_000)
        for trial in range(10):
            g = random_multigraph(rng, max_nodes=15, max_edges=40, self_loops=False)
            triples = [
                (g.surfaces[int(s)], g.relation_names[int(r)], g.surfaces[int(e)])
                for s, r, e in zip(g.edge_start, g.edge_rel, g.edge_end)
            ]
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=20)]
            context = " ".join(names)
            pair = ground_pair(context, names[0], g)
            if not pair.query_concepts:
                continue
            root_surface = g.surfaces[pair.query_concepts[0]]
            tree = build_tree([pair.query_concepts[0]], pair, g, cfg)
            nodes_before = {
                (int(lvl), g.surfaces[int(c)]) for c, lvl in zip(tree.concepts, tree.levels)
            }

            drop = int(rng.integers(len(triples)))
            g2 = graph_from_triples(
                triples[:drop] + triples[drop + 1 :],
                extra_concepts=[g.surfaces[i] for i in range(g.node_count)],
            )
            pair2 = ground_pair(context, root_surface, g2)
            tree2 = build_tree([g2.concept_id(root_surface)], pair2, g2, cfg)
            nodes_after = {
                (int(lvl), g2.surfaces[int(c)]) for c, lvl in zip(tree2.concepts, tree2.levels)
            }
            assert nodes_after <= nodes_before

    def test_cap_prefers_higher_term_frequency(self, story_graph):
        g = story_graph
        cfg = BuildConfig(max_children_per_node=2)
        # church and mother appear twice in context, person once: cap at 2 drops person
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, g)
        tree = build_tree([g.concept_id("lady")], pair, g, cfg)
        assert _surfaces(g, tree.root.children) == ["church", "mother"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BuildConfig(max_children_per_node=1)


class TestForest:
    @pytest.mark.parametrize("budget", [None, 3], ids=["one_chunk", "many_chunks"])
    def test_each_root_subtree_equals_its_single_tree(self, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(tree_module, "_EXPAND_CHUNK_BUDGET", budget)
        rng = np.random.default_rng(61)
        forests = deep = 0
        while forests < 30:
            g = random_multigraph(rng, max_nodes=20, max_edges=100)
            try:
                stats = WalkStats.from_graph(g)
            except PathmineError:
                continue
            cfg = BuildConfig(max_children_per_node=int(rng.integers(2, 4)))
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            query = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=4))
            pair = ground_pair(" ".join(names), query, g)
            if not pair.query_concepts:
                continue
            forest = build_tree(pair.query_concepts, pair, g, cfg)
            scored = score_tree(forest, pair, g, stats)
            assert forest.root_count == len(pair.query_concepts)
            root_of = forest.root_of()
            for r, c1 in enumerate(pair.query_concepts):
                single = build_tree([c1], pair, g, cfg)
                alone = score_tree(single, pair, g, stats)
                sub = np.flatnonzero(root_of == r)
                # the subtree's nodes, in forest order, are the single tree's
                assert forest.concepts[sub].tolist() == single.concepts.tolist()
                assert forest.rels[sub].tolist() == single.rels.tolist()
                assert forest.levels[sub].tolist() == single.levels.tolist()
                parents = np.where(sub == r, -1, sub.searchsorted(forest.parents[sub]))
                assert parents.tolist() == single.parents.tolist()
                for name in ("raw", "n_score", "c_score"):
                    assert getattr(scored, name)[sub].tolist() == getattr(alone, name).tolist(), name
                assert select_paths(scored, r) == select_paths(alone)
                got = realize_selection(scored, g, np.random.default_rng([7, r]), r)
                want = realize_selection(alone, g, np.random.default_rng([7, r]))
                assert got == want
                deep += bool((single.levels == 5).any())
            forests += forest.root_count > 1
        assert deep > 10

    def test_one_root_forest_is_the_single_tree(self, story_tree):
        g, pair, tree = story_tree
        assert tree.root_count == 1 and tree.root.level == 1
        assert tree.root_of().tolist() == [0] * tree.node_count

    def test_roots_come_first_in_query_order(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, "church lady", story_graph)
        forest = build_tree(pair.query_concepts, pair, story_graph)
        roots = [forest.node(i) for i in range(forest.root_count)]
        assert [story_graph.surfaces[n.concept] for n in roots] == ["church", "lady"]
        assert all(n.level == 1 and n.parent is None for n in roots)

    def test_no_roots_rejected(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError, match="at least one root"):
            build_tree([], pair, story_graph)
