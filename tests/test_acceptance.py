"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criterion 7 generates a synthetic million-edge assertion dump shaped like a
real commonsense graph (hub-heavy degree distribution) because the suite
runs offline.
"""

from __future__ import annotations

import io
import json
import time

import numpy as np

from pathmine import (
    BuildConfig,
    Config,
    ExtractionRequest,
    Extractor,
    SCORE_SENTINEL,
    WalkStats,
    build_tree,
    graph_from_triples,
    ground_pair,
    ingest_csv,
    load_index,
    run_batch,
    score_tree,
    select_paths,
)
from pathmine.cli import main
from pathmine.selector import MAX_FULL_PATHS, expand_subpaths

from conftest import (
    STORY_CONTEXT,
    STORY_FULL_PATH,
    STORY_QUERY,
    STORY_TRUNCATION,
    count_walks_oracle,
    story_dump_bytes,
    partner_count_oracle,
    random_multigraph,
    regrown,
    walks_through_oracle,
)


def _report(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_story_fixture_end_to_end():
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    extractor = Extractor(g, WalkStats.from_graph(g))
    started = time.perf_counter()
    result = extractor.extract(ExtractionRequest(context=STORY_CONTEXT, query=STORY_QUERY))
    elapsed = time.perf_counter() - started
    assert result.error is None
    assert STORY_FULL_PATH in result.paths
    assert STORY_TRUNCATION in result.paths
    assert elapsed < 1.0
    _report(1, f"fixture path and truncation emitted in {elapsed * 1000:.0f} ms")


def test_criterion_2_cumulative_scoring_keeps_best_two():
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
    tree = build_tree([g.concept_id("lady")], pair, g)
    st = score_tree(tree, pair, g, stats)

    mother = int(tree.child_start[0])
    assert g.surfaces[tree.concepts[mother]] == "mother"
    kids = range(tree.child_start[mother], tree.child_end[mother])
    ranked = sorted(kids, key=lambda i: (-st.c_score[i], tree.concepts[i]))
    kept = {g.surfaces[tree.concepts[i]] for i in ranked[:2]}
    assert kept == {"daughter", "married"}

    paths = select_paths(st)
    path_concepts = {g.surfaces[c] for p in paths for c in p.concepts}
    assert "book" not in path_concepts
    assert {"daughter", "married"} <= path_concepts
    _report(2, "selection keeps daughter and married, drops book")


def test_criterion_3_oracle_equivalence_on_random_multigraphs():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    graphs = hops = 0
    while graphs < 100:
        g = random_multigraph(rng, max_nodes=50, max_edges=200)
        stats = WalkStats.from_graph(g)
        for k in (1, 2, 3, 4):
            assert g.walk_counts(k)[-1] == count_walks_oracle(g, k)
        assert stats.walks_len3 == count_walks_oracle(g, 2)
        assert stats.walks_len4 == count_walks_oracle(g, 3)
        # the counts scoring reads at each level-4 node of a built forest:
        # the edge-count products along its path are the walks through it
        names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=30)]
        pair = ground_pair(" ".join(names), " ".join(names[:3]), g)
        tree = build_tree(pair.query_concepts, pair, g, BuildConfig(max_children_per_node=3))
        for i4 in tree.level_indices(4).tolist():
            i3 = int(tree.parents[i4])
            i2 = int(tree.parents[i3])
            path = [int(tree.concepts[i]) for i in (tree.parents[i2], i2, i3, i4)]
            prefix = int(tree.mults[i2]) * int(tree.mults[i3])
            assert prefix == walks_through_oracle(g, path[:3])
            assert prefix * int(tree.mults[i4]) == walks_through_oracle(g, path)
            assert int(g.neighbor_count[path[3]]) == partner_count_oracle(g, path[3])
            hops += 1
        graphs += 1
    assert hops > 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(3, f"{graphs} graphs and {hops} level-4 hops matched enumeration in {elapsed:.1f} s")


def _tree_ensemble(min_trees: int):
    """Deterministic stream of scored trees over connected random graphs."""
    rng = np.random.default_rng(777)
    produced = 0
    while produced < min_trees:
        g = random_multigraph(rng, max_nodes=40, max_edges=150, connected=True)
        stats = WalkStats.from_graph(g)
        names = [g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=40)]
        query = " ".join(
            g.surfaces[int(i)] for i in rng.integers(0, g.node_count, size=4)
        )
        pair = ground_pair(" ".join(names), query, g)
        for c1 in pair.query_concepts:
            tree = build_tree([c1], pair, g)
            yield g, tree, score_tree(tree, pair, g, stats)
            produced += 1


def test_criterion_4_score_invariants_over_generated_trees():
    trees = 0
    for g, tree, st in _tree_ensemble(1000):
        trees += 1
        # level 5 re-grown as nodes, with the scores its summary gives them
        full, st = regrown(tree, st)
        assert tree.sizes().sum() == full.node_count
        tree = full
        # sibling groups sum to one
        for idx in range(tree.node_count):
            lo = int(tree.child_start[idx])
            hi = int(tree.child_end[idx])
            if lo != hi:
                assert abs(st.n_score[lo:hi].sum() - 1.0) <= 1e-9
        # leaves keep their normalized score exactly
        leaves = tree.child_start == tree.child_end
        assert np.array_equal(st.c_score[leaves], st.n_score[leaves])
        # association scores stay in [-1, 1] away from the probability bounds
        level4 = tree.level_indices(4)
        raw4 = st.raw[level4]
        non_boundary = (raw4 != SCORE_SENTINEL) & (raw4 != 1.0)
        assert np.all(raw4[non_boundary] >= -1.0 - 1e-12)
        assert np.all(raw4[non_boundary] <= 1.0 + 1e-12)
        # cumulative never falls below normalized
        assert np.all(st.c_score >= st.n_score - 1e-12)
    assert trees >= 1000
    _report(4, f"score invariants held across {trees} trees")


def test_criterion_5_cap_invariants_over_generated_trees():
    trees = 0
    for g, tree, st in _tree_ensemble(400):
        trees += 1
        paths = select_paths(st)
        assert len(paths) <= MAX_FULL_PATHS
        kept_children: dict[tuple[int, ...], set[int]] = {}
        for p in paths:
            for i in range(len(p.concepts) - 1):
                kept_children.setdefault(p.concepts[: i + 1], set()).add(p.concepts[i + 1])
        assert all(len(k) <= 2 for k in kept_children.values())
        truncs = expand_subpaths(paths)
        expected = {
            (p.concepts[:length], p.relations[: length - 1])
            for p in paths
            for length in range(2, len(p.concepts))
        }
        assert {(t.concepts, t.relations) for t in truncs} == expected
        assert all(t.is_truncation for t in truncs)
    _report(5, f"path caps and truncation sets held across {trees} trees")


def test_criterion_6_batch_output_identical_across_worker_counts(tmp_path):
    g, _ = ingest_csv(io.BytesIO(story_dump_bytes()), "en")
    extractor = Extractor(g, WalkStats.from_graph(g), Config(seed=13))
    queries = ["the lady", "church and mother", "who is the person", "daughter child"]
    lines = [
        json.dumps({"id": f"r{i}", "context": STORY_CONTEXT, "query": queries[i % len(queries)]})
        for i in range(100)
    ]
    single = "\n".join(r.to_json() for r in run_batch(extractor, lines, workers=1))
    eight = "\n".join(r.to_json() for r in run_batch(extractor, lines, workers=8))
    assert single == eight
    _report(6, "100-request batch byte-identical with 1 and 8 workers")


def _write_synthetic_dump(path, n_lines: int, n_concepts: int, hub_pool: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    relations = np.array(["RelatedTo", "IsA", "AtLocation", "UsedFor", "Antonym", "PartOf"])
    rel_idx = rng.integers(0, len(relations), size=n_lines)
    hubby = rng.random(n_lines) < 0.3
    starts = np.where(hubby, rng.integers(0, hub_pool, size=n_lines), rng.integers(0, n_concepts, size=n_lines))
    hubby_end = rng.random(n_lines) < 0.15
    ends = np.where(hubby_end, rng.integers(0, hub_pool, size=n_lines), rng.integers(0, n_concepts, size=n_lines))
    with open(path, "w", encoding="utf-8") as fh:
        chunk: list[str] = []
        for i in range(n_lines):
            chunk.append(
                f'/a/e{i}\t/r/{relations[rel_idx[i]]}\t/c/en/w{starts[i]}\t/c/en/w{ends[i]}\t{{"weight": 1.0}}'
            )
            if len(chunk) == 100_000:
                fh.write("\n".join(chunk) + "\n")
                chunk = []
        if chunk:
            fh.write("\n".join(chunk) + "\n")


def test_criterion_7_scale_smoke(tmp_path):
    dump = tmp_path / "synthetic.tsv"
    _write_synthetic_dump(dump, n_lines=1_050_000, n_concepts=120_000, hub_pool=2_500, seed=99)

    started = time.perf_counter()
    index = str(tmp_path / "synthetic.idx")
    assert main(["build-index", str(dump), "-o", index]) == 0
    build_elapsed = time.perf_counter() - started
    assert build_elapsed < 600.0

    graph, stats = load_index(index)
    assert stats is not None
    assert graph.edge_count >= 1_000_000

    rng = np.random.default_rng(5)
    context_ids = rng.integers(0, 2_500, size=1000)
    context = " ".join(f"w{int(i)}" for i in context_ids)
    query = "w3 w17 w42"
    extractor = Extractor(graph, stats)
    extractor.extract(ExtractionRequest(context="w1 w2", query="w1"))  # touch caches

    started = time.perf_counter()
    result = extractor.extract(ExtractionRequest(context=context, query=query))
    extract_elapsed = time.perf_counter() - started
    assert result.error is None
    assert result.paths, "scale extraction should surface at least one path"
    assert extract_elapsed < 5.0
    _report(
        7,
        f"{graph.edge_count} edges indexed in {build_elapsed:.1f} s, "
        f"1000-token pair extracted in {extract_elapsed:.2f} s "
        f"({result.stats['tree_nodes']} tree nodes)",
    )


def test_criterion_8_species_race_containment():
    g = graph_from_triples(
        [
            ("species", "RelatedTo", "race"),
            ("species", "RelatedTo", "kingdom"),
            ("kingdom", "RelatedTo", "queen"),
            ("kingdom", "DerivedFrom", "king"),
            ("mines", "FormOf", "mine"),
            ("mine", "AtLocation", "home"),
            ("home", "RelatedTo", "person"),
            ("lives", "FormOf", "life"),
        ]
    )
    extractor = Extractor(g, WalkStats.from_graph(g))
    result = extractor.extract(
        ExtractionRequest(
            context="the nearby mines are inhabited by a race of goblins",
            query="What species lives in the nearby mines?",
        )
    )
    assert result.error is None
    assert ["species", "RelatedTo", "race"] in result.paths
    _report(8, "species RelatedTo race contained in the selection")
