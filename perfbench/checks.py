"""Output checks, made against the request generator and the raw dump only.

Every emitted path must start at a question concept, have its level-2,
level-3 and level-5 concepts in the passage, repeat no concept, and use
only hops that are dump edges carrying the printed relation (in either
direction, as traversal is direction-agnostic).
"""

from __future__ import annotations

import re

import numpy as np

from inputs import DumpEdges, Request

_CONCEPT = re.compile(r"w(\d+)")
_GROUNDED_POSITIONS = (1, 2, 4)  # levels 2, 3 and 5


def path_fault(tokens: list[str], req: Request, edges: DumpEdges) -> str | None:
    """Why one realized path is wrong, or None."""
    if len(tokens) < 3 or len(tokens) % 2 == 0 or len(tokens) > 9:
        return f"malformed path {tokens}"
    concepts = []
    for token in tokens[0::2]:
        m = _CONCEPT.fullmatch(token)
        if m is None:
            return f"{token!r} is not a concept of the graph"
        concepts.append(int(m.group(1)))
    relations = tokens[1::2]
    if any(r not in edges.relations for r in relations):
        return f"unknown relation in {tokens}"
    if concepts[0] not in req.query_concepts:
        return f"path starts at w{concepts[0]}, not at a question concept"
    for pos in _GROUNDED_POSITIONS:
        if pos < len(concepts) and concepts[pos] not in req.context_concepts:
            return f"level-{pos + 1} concept w{concepts[pos]} is not in the passage"
    if len(set(concepts)) != len(concepts):
        return f"path repeats a concept: {tokens}"
    a = np.asarray(concepts[:-1], np.int64)
    b = np.asarray(concepts[1:], np.int64)
    rel = np.asarray([edges.relations.index(r) for r in relations], np.int64)
    ok = edges.contains(edges.key(a, b, rel)) | edges.contains(edges.key(b, a, rel))
    if not ok.all():
        return f"hop {int(np.argmin(ok)) + 1} of {tokens} is not a graph edge with that relation"
    return None


def result_faults(results, reqs: list[Request], edges: DumpEdges, need_paths: bool) -> dict[int, str]:
    """Request position -> fault, for every result that fails the check."""
    faults = {}
    if len(results) != len(reqs):
        return {i: "result missing" for i in range(len(reqs))}
    for i, (res, req) in enumerate(zip(results, reqs)):
        if res.error is not None:
            faults[i] = f"error: {res.error}"
        elif res.id != req.id:
            faults[i] = f"result id {res.id!r} for request {req.id!r}"
        elif need_paths and not res.paths:
            faults[i] = "no paths"
        else:
            for tokens in res.paths:
                fault = path_fault(tokens, req, edges)
                if fault:
                    faults[i] = fault
                    break
    return faults
