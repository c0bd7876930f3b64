"""Golden output bytes: ``run_batch`` JSONL on seeded random graphs.

ROADMAP's contract is that, for a fixed seed, refactors keep the output
bytes.  Each digest below pins the whole JSONL of one seeded case, with
binding child caps, parallel edges and self-loops, so a change anywhere in
grounding, tree growth, scoring, selection or realization shows up here
even when every per-stage oracle still agrees.  A digest may only change
with a CHANGES.md entry that says why the bytes moved.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from pathmine import Config, Extractor, WalkStats, graph_from_triples, run_batch

from conftest import random_multigraph, random_triples

GOLDEN = {
    # (graph seed, max_children_per_node): sha256 of the JSONL output
    (101, 2): "f4ad795d6e67cbfba72e7450f3afc267470f96d25a5eda5393ed0737316f873c",
    (202, 3): "e53ab3ecf146395eec2882caf2abb3d3c6ffdcb21accdbc21ed274dad9bb9777",
    (303, 3): "88170c2f8a787dadc6789d5c2b99915a957e4393e961f10aa87b579057410f14",
    (404, 100): "25aee4d0caf39b646f23a3230ee34f4411c59af339558840e78c35089f737451",
    (505, 2): "1250f4fc92caab10a83b51a5ce11fcde5b43f9a9d9033fef6e8884c150b01ebd",
    (606, 3): "19fe5105cda218b904dd32a74d84d4a5a60153fe68e67eda72f5fd51a59ff1de",
}

# the same shape on a graph whose surfaces have one to four words
MULTIWORD_GOLDEN = {
    (707, 2): "9f70b816aa2170572948de04219eec4c6bb8574bbc229b1bab76f785c6544ab4",
    (709, 3): "dff358e9361d9c1594e3e44635a143e1623a47b15ce8e63c61faf16b7feba937",
}

WORDS = ["red", "apple", "pie", "big", "tree", "old", "house"]


def _multiword_graph(rng: np.random.Generator):
    """A seeded multigraph relabelled with distinct one- to four-word
    surfaces drawn from a small vocabulary, so surfaces share first words."""
    plain, triples = random_triples(rng, max_nodes=30, max_edges=160)
    names: list[str] = []
    while len(names) < len(plain):
        name = "_".join(rng.choice(WORDS, size=int(rng.integers(1, 5))))
        if name not in names:
            names.append(name)
    label = dict(zip(plain, names))
    return graph_from_triples([(label[s], r, label[e]) for s, r, e in triples], extra_concepts=names)


def _batch(seed: int, cap: int, multiword: bool = False) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    g = _multiword_graph(rng) if multiword else random_multigraph(rng, max_nodes=30, max_edges=160)

    def spell(c) -> str:
        surface = g.surfaces[int(c)]
        if not multiword:
            return surface
        # mostly spelled as words; sometimes as the underscored surface itself
        return surface if rng.random() < 0.2 else surface.replace("_", " ")

    extractor = Extractor(g, WalkStats.from_graph(g), Config(max_children_per_node=cap, seed=seed))
    lines = []
    for i in range(6):
        names = [spell(c) for c in rng.integers(0, g.node_count, size=40)]
        query = " ".join(spell(c) for c in rng.integers(0, g.node_count, size=3))
        lines.append(json.dumps({"id": f"r{i}", "context": "the " + " and ".join(names), "query": query}))
    out = "\n".join(r.to_json() for r in run_batch(extractor, lines)) + "\n"
    totals = {
        "edges": g.edge_count,
        "nodes": g.node_count,
        "multiword": sum(s.count("_") >= 2 for s in g.surfaces),
    }
    for line in out.splitlines():
        for key, value in json.loads(line)["stats"].items():
            totals[key] = totals.get(key, 0) + value
    return out, totals


@pytest.mark.parametrize("seed,cap", sorted(GOLDEN))
def test_run_batch_bytes_are_pinned(seed, cap):
    out, totals = _batch(seed, cap)
    # the case must reach level 5 and produce paths, or it pins nothing
    assert totals["full_paths"] > 0 and totals["tree_nodes"] > 50, totals
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[(seed, cap)]


@pytest.mark.parametrize("seed,cap", sorted(MULTIWORD_GOLDEN))
def test_multiword_run_batch_bytes_are_pinned(seed, cap):
    out, totals = _batch(seed, cap, multiword=True)
    assert totals["multiword"] > 0, totals
    assert totals["full_paths"] > 0 and totals["tree_nodes"] > 50, totals
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MULTIWORD_GOLDEN[(seed, cap)]
