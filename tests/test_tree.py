"""Candidate tree construction and level enumeration."""

from __future__ import annotations

import numpy as np
import pytest

import pathmine.kernels
import pathmine.tree
from pathmine import (
    BuildConfig,
    Config,
    Extractor,
    PathmineError,
    WalkStats,
    build_tree,
    graph_from_triples,
    ground_pair,
    realize_selection,
    score_tree,
    select_paths,
)

from conftest import (
    STORY_CONTEXT,
    STORY_QUERY,
    adjacency_with_multiplicity,
    children,
    level_indices,
    neighbor_lists,
    path_to,
    random_multigraph,
    random_triples,
    regrown,
    root_of,
    traced_peak,
)


def _surfaces(g, tree, nodes):
    return [g.surfaces[int(tree.concepts[i])] for i in nodes]


@pytest.fixture()
def story_tree(story_graph):
    pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
    tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
    return story_graph, pair, tree


class TestStoryTree:
    def test_level_two_children(self, story_tree):
        g, _, tree = story_tree
        assert _surfaces(g, tree, children(tree, 0)) == ["church", "mother", "person"]

    def test_known_branches_present(self, story_tree):
        g, _, tree = story_tree
        full = regrown(tree)
        by_surface = {g.surfaces[full.concepts[i]]: int(i) for i in level_indices(full, 2)}
        assert _surfaces(g, full, children(full, by_surface["mother"])) == ["daughter"]
        house = children(full, by_surface["church"])[0]
        assert g.surfaces[full.concepts[house]] == "house"
        child = children(full, house)[0]
        assert g.surfaces[full.concepts[child]] == "child"
        assert full.levels[child] == 4
        assert "their" in _surfaces(g, full, children(full, child))

    def test_roots_relation_is_none(self, story_tree):
        _, _, tree = story_tree
        assert tree.rels[0] == -1 and tree.levels[0] == 1
        full = regrown(tree)
        assert (full.rels[1:] >= 0).all()

    def test_grounded_levels_are_context_members(self, story_tree):
        _, pair, tree = story_tree
        full = regrown(tree)
        for level in (2, 3, 5):
            assert level_indices(full, level).size
            for i in level_indices(full, level):
                assert pair.context_mentions.mentions.get(int(full.concepts[i]), 0) > 0

    def test_level_four_is_graph_neighbor_of_parent(self, story_tree):
        g, _, tree = story_tree
        for i in level_indices(tree, 4):
            assert g.edges_between(int(tree.concepts[tree.parents[i]]), int(tree.concepts[i]))

    def test_no_path_repeats_a_concept(self, story_tree):
        _, _, tree = story_tree
        full = regrown(tree)
        for i in range(full.node_count):
            path = path_to(full, i)
            assert len(path) == len(set(path))


class TestDegenerateTrees:
    def test_query_concept_with_no_context_link(self, story_graph):
        pair = ground_pair("nothing relevant here", "lady", story_graph)
        tree = build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph)
        assert regrown(tree).node_count == 1
        assert children(tree, 0) == []

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
        tree = build_tree([g.surface_to_id.get("lady")], pair, g)
        level4 = level_indices(tree, 4)
        assert _surfaces(g, tree, level4) == ["child"]
        assert tree.regrow5([int(level4[0])])[0].size == 0
        assert tree.level5.count.tolist() == [0]
        assert level_indices(regrown(tree), 5).size == 0

    def test_unknown_root_raises(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError):
            build_tree([99999], pair, story_graph)

    def test_root_must_be_query_concept(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError):
            build_tree([story_graph.surface_to_id.get("church")], pair, story_graph)

    def test_context_without_token_raises(self):
        # the context counts of such a pair are empty, so no level can grow
        g = graph_from_triples([("dog", "RelatedTo", "cat")])
        pair = ground_pair("...", "dog", g)
        assert pair.query_concepts == [g.surface_to_id.get("dog")]
        with pytest.raises(ValueError, match="context is empty"):
            build_tree(pair.query_concepts, pair, g)


class TestEnumerateLevels:
    def test_level_one_is_root(self, story_tree):
        _, _, tree = story_tree
        assert level_indices(tree, 1).tolist() == [0]

    def test_level_counts_bounded_by_branching(self):
        rng = np.random.default_rng(23)
        cfg = BuildConfig(max_children_per_node=3)
        for _ in range(20):
            g = random_multigraph(rng, max_nodes=25, max_edges=120)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            pair = ground_pair(" ".join(names), names[0], g)
            if not pair.query_concepts:
                continue
            tree = regrown(build_tree([pair.query_concepts[0]], pair, g, cfg))
            for level in range(1, 6):
                assert len(level_indices(tree, level)) <= 3 ** (level - 1)


def build_reference(g, pair, root: int, cap: int):
    """Plain-Python growth: per node, its edge-table neighbours collapsed to
    the minimal relation, the path's concepts dropped, context concepts only
    at grounded levels, then the first ``cap`` by (score desc, concept asc)
    where the score is the context count, or the degree at level 4.

    Returns the tree's concept, parent, relation and level lists, and the
    number of nodes the cap cut short."""
    nbrs, mult = neighbor_lists(g), adjacency_with_multiplicity(g)
    count = lambda c: pair.context_mentions.mentions.get(c, 0)  # noqa: E731
    degree = lambda c: sum(mult[c].values())  # noqa: E731
    concepts, parents, rels, levels = [root], [-1], [-1], [1]
    capped = 0
    frontier = [(0, [root])]
    for level in range(2, 6):
        score = degree if level == 4 else count
        nxt = []
        for idx, path in frontier:
            best: dict[int, int] = {}
            for rel, c in nbrs.get(path[-1], []):
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
            tree = regrown(build_tree([root], pair, g, BuildConfig(max_children_per_node=cap)))
            *want, cut = build_reference(g, pair, root, cap)
            got = (tree.concepts, tree.parents, tree.rels, tree.levels)
            assert [a.tolist() for a in got] == want
            capped += cut > 0
            trees += 1
        assert capped >= 10


class TestDeterminismAndMonotonicity:
    def test_rebuild_identical(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        t1 = regrown(build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph))
        t2 = regrown(build_tree([story_graph.surface_to_id.get("lady")], pair, story_graph))
        assert np.array_equal(t1.concepts, t2.concepts)
        assert np.array_equal(t1.parents, t2.parents)
        assert np.array_equal(t1.rels, t2.rels)

    def test_removing_an_edge_never_adds_nodes(self):
        # monotonicity holds when the child cap is not binding
        rng = np.random.default_rng(31)
        cfg = BuildConfig(max_children_per_node=10_000)
        for trial in range(10):
            surfaces, triples = random_triples(rng, max_nodes=15, max_edges=40, self_loops=False)
            g = graph_from_triples(triples, extra_concepts=surfaces)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=20)]
            context = " ".join(names)
            pair = ground_pair(context, names[0], g)
            if not pair.query_concepts:
                continue
            root_surface = g.surfaces[pair.query_concepts[0]]
            tree = regrown(build_tree([pair.query_concepts[0]], pair, g, cfg))
            nodes_before = {
                (int(lvl), g.surfaces[int(c)]) for c, lvl in zip(tree.concepts, tree.levels)
            }

            gone = triples[int(rng.integers(len(triples)))]
            g2 = graph_from_triples([t for t in triples if t != gone], extra_concepts=surfaces)
            pair2 = ground_pair(context, root_surface, g2)
            tree2 = regrown(build_tree([g2.surface_to_id.get(root_surface)], pair2, g2, cfg))
            nodes_after = {
                (int(lvl), g2.surfaces[int(c)]) for c, lvl in zip(tree2.concepts, tree2.levels)
            }
            assert nodes_after <= nodes_before

    def test_cap_prefers_higher_term_frequency(self, story_graph):
        g = story_graph
        cfg = BuildConfig(max_children_per_node=2)
        # church and mother appear twice in context, person once: cap at 2 drops person
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, g)
        tree = build_tree([g.surface_to_id.get("lady")], pair, g, cfg)
        assert _surfaces(g, tree, children(tree, 0)) == ["church", "mother"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BuildConfig(max_children_per_node=1)
        with pytest.raises(ValueError):
            BuildConfig(max_children_per_node=2**62 + 1)


def _build_and_score(pair, g, stats):
    forest = build_tree(pair.query_concepts, pair, g)
    return forest, score_tree(forest, pair, g, stats)


class TestForest:
    def test_each_root_subtree_equals_its_single_tree(self):
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
            full, full_scored = regrown(forest, scored)
            owner = root_of(full)
            for r, c1 in enumerate(pair.query_concepts):
                single = build_tree([c1], pair, g, cfg)
                alone = score_tree(single, pair, g, stats)
                want = select_paths(alone)[0]
                realized_want = realize_selection(want, g, np.random.default_rng([7, r]))
                single, alone = regrown(single, alone)
                sub = np.flatnonzero(owner == r)
                # the subtree's nodes, in forest order, are the single tree's
                assert full.concepts[sub].tolist() == single.concepts.tolist()
                assert full.rels[sub].tolist() == single.rels.tolist()
                assert full.levels[sub].tolist() == single.levels.tolist()
                parents = np.where(sub == r, -1, sub.searchsorted(full.parents[sub]))
                assert parents.tolist() == single.parents.tolist()
                for name in ("raw", "n_score", "c_score"):
                    assert getattr(full_scored, name)[sub].tolist() == getattr(alone, name).tolist(), name
                assert select_paths(scored)[r] == want
                assert realize_selection(select_paths(scored)[r], g, np.random.default_rng([7, r])) == realized_want
                deep += bool((single.levels == 5).any())
            forests += forest.root_count > 1
        assert deep > 10

    def test_one_root_forest_is_the_single_tree(self, story_tree):
        g, pair, tree = story_tree
        assert tree.root_count == 1 and tree.levels[0] == 1
        assert root_of(tree).tolist() == [0] * tree.node_count
        assert tree.node_count + tree.level5.count.sum() == regrown(tree).node_count

    def test_roots_come_first_in_query_order(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, "church lady", story_graph)
        forest = build_tree(pair.query_concepts, pair, story_graph)
        roots = range(forest.root_count)
        assert _surfaces(story_graph, forest, roots) == ["church", "lady"]
        assert all(forest.levels[i] == 1 and forest.parents[i] == -1 for i in roots)

    def test_no_roots_rejected(self, story_graph):
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        with pytest.raises(ValueError, match="at least one root"):
            build_tree([], pair, story_graph)

    def test_short_forest_memory_per_graph_concept(self):
        # a forest that stops at level 2 still reads the context counts of
        # every graph concept: int32 counts take 4 bytes a concept, int64 8
        g = graph_from_triples(
            [("q", "RelatedTo", "h")], extra_concepts=[f"x{i}" for i in range(100_000)]
        )
        stats = WalkStats(walks_len3=2, walks_len4=2, node_count=g.node_count)
        pair = ground_pair("h x5 x7 x7", "q", g)
        (forest, scored), peak = traced_peak(_build_and_score, pair, g, stats)
        assert forest.levels.tolist() == [1, 2]
        assert scored.raw.tolist() == [0.0, 0.25]
        assert peak / g.node_count < 6

    def test_level5_memory_per_level4_node(self):
        # 30 linked context concepts, each mentioned a distinct number of
        # times: 24,360 level-4 nodes, each with 27 level-5 children of 27
        # distinct counts.  Building and scoring keep a few counts per node
        # and a table per distinct level-4 concept, not the children
        names = [f"c{i}" for i in range(30)]
        triples = [(a, "RelatedTo", b) for i, a in enumerate(names) for b in names[i + 1 :]]
        g = graph_from_triples(triples + [("q", "RelatedTo", a) for a in names])
        stats = WalkStats.from_graph(g)
        pair = ground_pair(" ".join(" ".join([n] * (i + 1)) for i, n in enumerate(names)), "q", g)
        (forest, scored), peak = traced_peak(_build_and_score, pair, g, stats)
        n4 = level_indices(forest, 4).size
        assert n4 == 30 * 29 * 28 and forest.level5.count.tolist() == [27] * n4
        assert forest.level5.sum5.size == forest.level5.top5.size == scored.c_score.size - forest.first4 == n4
        assert peak / n4 < 500

    def test_shared_wide_concept_expands_in_bounded_memory(self):
        # 50 roots reach one context concept through 2 context hubs: 100
        # level-3 nodes share its 20 k-neighbour row, which the cap of 2
        # cuts to 2 children each
        roots = [f"q{i}" for i in range(50)]
        triples = [(q, "RelatedTo", h) for q in roots for h in ("hub0", "hub1")]
        triples += [("hub0", "RelatedTo", "wide"), ("hub1", "RelatedTo", "wide")]
        triples += [("wide", "RelatedTo", f"n{i}") for i in range(20_000)]
        g = graph_from_triples(triples)
        pair = ground_pair("hub0 hub1 wide", " ".join(roots), g)
        assert len(pair.query_concepts) == 50
        forest, peak = traced_peak(build_tree, pair.query_concepts, pair, g, BuildConfig(max_children_per_node=2))
        assert np.bincount(forest.levels).tolist() == [0, 50, 100, 100, 200]
        level4 = forest.concepts[level_indices(forest, 4)]
        # degree ranks the other hub first, then the lowest-id leaf
        assert set(g.surfaces[int(c)] for c in level4) == {"hub0", "hub1", "n0"}
        assert peak < 8 << 20


class TestLevel5Regrowth:
    def test_one_call_equals_per_node_regrowth(self):
        # explain re-grows every node's level-5 children in one call
        rng = np.random.default_rng(83)
        grown = 0
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=20, max_edges=80)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            query = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=2))
            pair = ground_pair(" ".join(names), query, g)
            if not pair.query_concepts:
                continue
            cfg = BuildConfig(max_children_per_node=int(rng.choice([2, 3, 4, 100])))
            forest = build_tree(pair.query_concepts, pair, g, cfg)
            nodes = rng.permutation(forest.node_count)
            grown5 = forest.regrow5(nodes)
            concepts, offsets = grown5[0], grown5[4]
            for k, idx in enumerate(nodes.tolist()):
                part = slice(offsets[k], offsets[k + 1])
                one = forest.regrow5([idx])
                assert [a[part].tolist() for a in grown5[:4]] == [a.tolist() for a in one[:4]]
                tf = [pair.context_mentions.mentions[c] for c in concepts[part].tolist()]
                assert grown5[2][part].tolist() == [t / pair.context_mentions.source_len for t in tf]
            grown += int(offsets[-1])
        assert grown > 300, grown

    def test_selection_regrows_a_roots_level4_leaves_in_one_level5_expansion(self, story_graph, monkeypatch):
        # re-growth is a level-5 expansion through the kernel that grows
        # levels 2-4: the parents are the leaves, the ancestors their paths
        pair = ground_pair(STORY_CONTEXT, STORY_QUERY, story_graph)
        forest = build_tree(pair.query_concepts, pair, story_graph)
        scored = score_tree(forest, pair, story_graph, WalkStats.from_graph(story_graph))
        calls, expand = [], pathmine.kernels.expand_candidates

        def counting(parents, ancestors, *rest):
            calls.append((np.asarray(parents).tolist(), np.asarray(ancestors).copy()))
            return expand(parents, ancestors, *rest)

        monkeypatch.setattr(pathmine.kernels, "expand_candidates", counting)
        paths = [p for root_paths in select_paths(scored) for p in root_paths]
        assert len(calls) == 1
        parents, ancestors = calls[0]
        assert ancestors.shape[1] == 4 and (ancestors >= 0).all()
        leaves = list(dict.fromkeys(p.concepts[:4] for p in paths if len(p.concepts) == 5))
        assert leaves and [tuple(row) for row in ancestors.tolist()] == leaves
        assert parents == [leaf[3] for leaf in leaves]

    def test_selection_regrows_level5_at_most_once_per_forest(self, monkeypatch):
        # every level-4 leaf the selection keeps, in any tree of the
        # forest, is re-grown by one call
        rng = np.random.default_rng(61)
        calls, regrow5 = [], pathmine.tree.PathTree.regrow5

        def counting(tree, nodes):
            calls.append(None)
            return regrow5(tree, nodes)

        monkeypatch.setattr(pathmine.tree.PathTree, "regrow5", counting)
        forests = grown = 0
        while forests < 100:
            g = random_multigraph(rng, max_nodes=20, max_edges=100)
            try:
                stats = WalkStats.from_graph(g)
            except PathmineError:
                continue
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            query = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=4))
            pair = ground_pair(" ".join(names), query, g)
            if not pair.query_concepts:
                continue
            extractor = Extractor(g, stats, Config(max_children_per_node=3))
            calls.clear()
            _, selections = extractor.analyze(pair)
            assert len(calls) <= 1
            grown += len(calls) * (len(selections) > 1)
            forests += 1
        assert grown > 20, grown

    def test_regrowth_in_small_blocks_equals_one_block(self, monkeypatch):
        # a block this small holds one node: every live node is its own call
        rng = np.random.default_rng(89)
        calls, expand = [], pathmine.kernels.expand_candidates

        def counting(*args):
            calls.append(None)
            return expand(*args)

        monkeypatch.setattr(pathmine.kernels, "expand_candidates", counting)
        grown = 0
        for _ in range(30):
            g = random_multigraph(rng, max_nodes=20, max_edges=80)
            names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
            query = " ".join(g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=2))
            pair = ground_pair(" ".join(names), query, g)
            if not pair.query_concepts:
                continue
            cfg = BuildConfig(max_children_per_node=int(rng.choice([2, 3, 100])))
            forest = build_tree(pair.query_concepts, pair, g, cfg)
            nodes = rng.permutation(forest.node_count)
            monkeypatch.setattr(pathmine.tree, "_REGROW_BLOCK", 1 << 20)
            whole = forest.regrow5(nodes)
            monkeypatch.setattr(pathmine.tree, "_REGROW_BLOCK", 3)
            calls.clear()
            blocks = forest.regrow5(nodes)
            assert [a.tolist() for a in blocks] == [a.tolist() for a in whole]
            assert len(calls) == int((forest.level5.count > 0).sum())
            grown += int(whole[-1][-1])
        assert grown > 300, grown
