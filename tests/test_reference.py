"""The whole pipeline against the plain-Python reference extractor."""

from __future__ import annotations

import json

import numpy as np
import pytest

from pathmine import (
    BuildConfig,
    Config,
    ExtractionRequest,
    Extractor,
    PathmineError,
    WalkStats,
    ground_pair,
    score_tree,
    select_paths,
)

from conftest import RELATION_POOL, mention_counts, random_multigraph, random_multiword_graph, random_path_tree
from reference import SENTINEL, Ambiguous, Reference


def _names(g, rng, size: int) -> str:
    return " ".join(g.surfaces[int(i)].replace("_", " ") for i in rng.integers(0, g.node_count, size=size))


def _match_reference(rng, cap: int, draw_graph, **shape):
    """Extract 150 requests on graphs from ``draw_graph(rng, **shape)``
    with the pipeline and with the reference, asserting equal bytes.
    Returns the counts of what the requests held, and the reference's
    totals of what they exercised."""
    seen = dict.fromkeys(["requests", "forests", "ambiguous", "self_loops", "multiword"], 0)
    totals: dict[str, int] = {}
    while seen["requests"] < 150:
        g = draw_graph(rng, **shape)
        try:
            stats = WalkStats.from_graph(g)
        except PathmineError:  # no walks of length 3
            continue
        config = Config(max_children_per_node=cap, seed=int(rng.integers(1000)))
        extractor = Extractor(g, stats, config)
        reference = Reference(g, cap, config.seed, config.max_ngram, config.stopwords)
        seen["self_loops"] += bool((g.edge_start == g.edge_end).any())
        for index in range(4):
            if index == 0:
                # every concept mentioned once: grounded siblings tie exactly
                context = " ".join(s.replace("_", " ") for s in rng.permutation(g.surfaces))
            else:
                context = "the " + _names(g, rng, 30)
            query = _names(g, rng, int(rng.integers(1, 5)))
            got = extractor.extract(ExtractionRequest(context, query, f"r{index}"), index).to_json()
            try:
                want = reference.extract(f"r{index}", context, query, index)
            except Ambiguous:
                seen["ambiguous"] += 1
                continue
            assert got == want
            seen["requests"] += 1
            seen["forests"] += len(ground_pair(context, query, g).query_concepts) > 1
            # a path of k concepts has k - 1 relations: more words than
            # k means a multiword concept
            paths = json.loads(got)["paths"]
            seen["multiword"] += any(2 * sum(t not in RELATION_POOL for t in p) > len(p) + 1 for p in paths)
        for key, value in reference.seen.items():
            totals[key] = totals.get(key, 0) + value
    return seen, totals


@pytest.mark.parametrize("cap", [2, 3])
def test_extract_bytes_match_reference(cap):
    rng = np.random.default_rng(900 + cap)
    seen, totals = _match_reference(rng, cap, random_multigraph, max_nodes=20, max_edges=100)
    assert seen["ambiguous"] <= 8, seen
    assert seen["forests"] > 50 and seen["self_loops"] > 10, seen
    assert totals["capped"] > 500 and totals["tie"] > 200 and totals["draw"] > 500, totals


@pytest.mark.parametrize("cap", [2, 3])
def test_multiword_extract_bytes_match_reference(cap):
    # surfaces of 1-4 words from a pool of ten: grounding's longest match
    # across them, and realization's split of each into its words
    rng = np.random.default_rng(950 + cap)
    seen, totals = _match_reference(rng, cap, random_multiword_graph, max_nodes=15, max_edges=60)
    assert seen["ambiguous"] <= 8, seen
    assert seen["multiword"] > 100, seen
    assert totals["capped"] > 500 and totals["tie"] > 200, totals


def test_sentinel_hops_select_as_reference():
    # a fourth hop with no walk through it scores the sentinel and ranks last
    rng = np.random.default_rng(17)
    trees = sentinels = 0
    while trees < 40:
        g = random_multigraph(rng, max_nodes=20, max_edges=60)
        try:
            stats = WalkStats.from_graph(g)
        except PathmineError:
            continue
        pair = ground_pair(_names(g, rng, 25), g.surfaces[0], g)
        tree = random_path_tree(rng, g)
        st = score_tree(tree, pair, g, stats)
        reference = Reference(g, cap=100)
        pairs = zip(tree.concepts.tolist(), tree.rels.tolist())
        nested = [{"concept": c, "rel": r, "children": []} for c, r in pairs]
        for child, parent in enumerate(tree.parents.tolist()):
            if parent >= 0:
                nested[parent]["children"].append(nested[child])
        counts = mention_counts(pair.context_mentions)
        reference.score(nested[0], counts, pair.context_mentions.source_len)
        try:
            want = reference.select(nested[0])
        except Ambiguous:
            continue
        assert [(p.concepts, p.relations) for p in select_paths(st, pair, g, BuildConfig())[0]] == want
        sentinels += int((st.raw == SENTINEL).sum())
        trees += 1
    assert sentinels > 20

