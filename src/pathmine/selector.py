"""Path selection: one top-2 descent over a whole forest, then each
root's token realization and prefix truncations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph
from .scoring import ScoredTree

TOP_CHILDREN = 2


@dataclass(frozen=True)
class SelectedPath:
    """Alternating concept/relation path; relations hold the canonical
    (lowest-id) label per hop, realization may redraw among parallel ones."""

    concepts: tuple[int, ...]
    relations: tuple[int, ...]

    def __post_init__(self):
        if len(self.relations) != len(self.concepts) - 1:
            raise ValueError("relation count must be concept count - 1")


@dataclass
class PathSelection:
    full_paths: list[SelectedPath]
    truncations: list[SelectedPath]
    realized: list[list[str]]


def select_paths(st: ScoredTree) -> list[list[SelectedPath]]:
    """Each root's root-to-leaf paths of its kept subtree, in root order.

    Descending from a root, each node keeps its (at most) two children of
    levels 2-4 with the highest cumulative scores, ties to the lower
    concept id; a level-4 node keeps its first two level-5 children, which
    rank by context count.  That bounds a root at 16 full paths, and a
    bare root has none.
    """
    tree, c_score, leaves = st.tree, st.c_score, []
    # depth-first with an explicit stack: a recursive closure would form a
    # reference cycle holding the tree until the next full collection
    stack = [(root, root, [int(tree.concepts[root])], []) for root in reversed(range(tree.root_count))
             if tree.child_start[root] < tree.child_end[root]]  # reversed, so root 0 pops first
    while stack:
        root, idx, concepts, relations = stack.pop()
        lo, hi = int(tree.child_start[idx]), int(tree.child_end[idx])
        kept = sorted(range(lo, hi), key=lambda i: (-c_score[i], tree.concepts[i]))[:TOP_CHILDREN]
        if not kept:
            leaves.append((root, idx, concepts, relations))
            continue
        for child in reversed(kept):  # reversed, so the best child pops first
            stack.append(
                (root, child, concepts + [int(tree.concepts[child])], relations + [int(tree.rels[child])])
            )
    c5, r5, offsets = [], [], [0] * (len(leaves) + 1)
    if any(idx >= tree.first4 for _, idx, _, _ in leaves):  # level-4 leaves: re-grow their children at once
        c5, r5, _, _, offsets = (a.tolist() for a in tree.regrow5([idx for _, idx, _, _ in leaves]))
    paths: list[list[SelectedPath]] = [[] for _ in range(tree.root_count)]
    for (root, _, concepts, relations), lo, hi in zip(leaves, offsets, offsets[1:]):
        for c, r in zip(c5[lo : min(hi, lo + TOP_CHILDREN)], r5[lo : min(hi, lo + TOP_CHILDREN)]):
            paths[root].append(SelectedPath(tuple(concepts + [c]), tuple(relations + [r])))
        if lo == hi:  # no level-5 child: the leaf ends its path (>= 2 concepts, as no root is bare)
            paths[root].append(SelectedPath(tuple(concepts), tuple(relations)))
    return paths


def realize_selection(
    full: list[SelectedPath], g: KnowledgeGraph, rng: np.random.Generator
) -> PathSelection:
    """Realize one root's full paths, then their truncations; ``rng`` is
    that root's own generator.

    A path's tokens are its concept words, split on underscores,
    interleaved with relation names; when several relations can make a hop
    one is drawn uniformly (the generator is never consulted for
    single-relation hops).  The truncations are the proper prefixes (>= 2
    concepts) of the full paths, each once, in the order the full paths
    first reach them.  Each is realized as a token prefix of that first
    full path, so it inherits the path's relation draws.
    """
    realized: list[list[str]] = []
    # insertion-ordered: a prefix's first full path gives its place and tokens
    prefixes: dict[tuple[tuple[int, ...], tuple[int, ...]], list[str]] = {}
    for path in full:
        tokens = g.surfaces[path.concepts[0]].split("_")
        for n, (a, b) in enumerate(zip(path.concepts, path.concepts[1:]), start=2):
            rels = g.edges_between(a, b)
            if not rels:
                raise ValueError(
                    f"path hop {g.surfaces[a]!r} -> {g.surfaces[b]!r} has no edge"
                )
            rel = rels[0] if len(rels) == 1 else rels[int(rng.integers(len(rels)))]
            tokens.append(g.relation_names[rel])
            tokens.extend(g.surfaces[b].split("_"))
            if n < len(path.concepts):  # the tokens so far realize the first n concepts
                prefixes.setdefault((path.concepts[:n], path.relations[: n - 1]), tokens[:])
        realized.append(tokens)
    realized += prefixes.values()
    truncations = [SelectedPath(*key) for key in prefixes]
    return PathSelection(full_paths=full, truncations=truncations, realized=realized)
