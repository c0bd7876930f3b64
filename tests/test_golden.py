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

from pathmine import Config, Extractor, WalkStats, run_batch

from conftest import random_multigraph

GOLDEN = {
    # (graph seed, max_children_per_node): sha256 of the JSONL output
    (101, 2): "f4ad795d6e67cbfba72e7450f3afc267470f96d25a5eda5393ed0737316f873c",
    (202, 3): "e53ab3ecf146395eec2882caf2abb3d3c6ffdcb21accdbc21ed274dad9bb9777",
    (303, 3): "88170c2f8a787dadc6789d5c2b99915a957e4393e961f10aa87b579057410f14",
    (404, 100): "25aee4d0caf39b646f23a3230ee34f4411c59af339558840e78c35089f737451",
    (505, 2): "1250f4fc92caab10a83b51a5ce11fcde5b43f9a9d9033fef6e8884c150b01ebd",
    (606, 3): "19fe5105cda218b904dd32a74d84d4a5a60153fe68e67eda72f5fd51a59ff1de",
}


def _batch(seed: int, cap: int) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    g = random_multigraph(rng, max_nodes=30, max_edges=160)
    extractor = Extractor(g, WalkStats.from_graph(g), Config(max_children_per_node=cap, seed=seed))
    lines = []
    for i in range(6):
        names = [g.surfaces[int(c)] for c in rng.integers(0, g.node_count, size=40)]
        query = " ".join(g.surfaces[int(c)] for c in rng.integers(0, g.node_count, size=3))
        lines.append(json.dumps({"id": f"r{i}", "context": "the " + " and ".join(names), "query": query}))
    out = "\n".join(r.to_json() for r in run_batch(extractor, lines)) + "\n"
    totals = {"edges": g.edge_count, "nodes": g.node_count}
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
