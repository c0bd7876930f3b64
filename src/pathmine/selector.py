"""Path selection: top-2 descent, token realization, and prefix truncations."""

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


def top_children(st: ScoredTree, idx: int) -> list[int]:
    """The node's (at most) two children of levels 2-4 with the highest
    cumulative scores, best first, ties to the lower concept id."""
    tree, c_score = st.tree, st.c_score
    lo, hi = int(tree.child_start[idx]), int(tree.child_end[idx])
    return sorted(range(lo, hi), key=lambda i: (-c_score[i], tree.concepts[i]))[:TOP_CHILDREN]


def select_paths(st: ScoredTree, root: int = 0) -> list[SelectedPath]:
    """Root-to-leaf paths of the kept subtree below the forest node ``root``.

    Descending from the root, each node keeps its :func:`top_children`; a
    level-4 node keeps its first two level-5 children, which rank by
    context count.  That bounds the result at 16 full paths per tree.
    """
    tree, leaves = st.tree, []
    # depth-first with an explicit stack: a recursive closure would form a
    # reference cycle holding the tree until the next full collection
    stack = [(root, [int(tree.concepts[root])], [])]
    while stack:
        idx, concepts, relations = stack.pop()
        kept = top_children(st, idx)
        if not kept:
            leaves.append((idx, concepts, relations))
            continue
        for child in reversed(kept):  # reversed, so the best child pops first
            stack.append(
                (child, concepts + [int(tree.concepts[child])], relations + [int(tree.rels[child])])
            )
    c5, r5, offsets = [], [], [0] * (len(leaves) + 1)
    if any(idx >= tree.first4 for idx, _, _ in leaves):  # level-4 leaves: re-grow their children at once
        c5, r5, _, _, offsets = (a.tolist() for a in tree.regrow5([idx for idx, _, _ in leaves]))
    paths: list[SelectedPath] = []
    for (_, concepts, relations), lo, hi in zip(leaves, offsets, offsets[1:]):
        for c, r in zip(c5[lo : min(hi, lo + TOP_CHILDREN)], r5[lo : min(hi, lo + TOP_CHILDREN)]):
            paths.append(SelectedPath(tuple(concepts + [c]), tuple(relations + [r])))
        if lo == hi and len(concepts) >= 2:
            paths.append(SelectedPath(tuple(concepts), tuple(relations)))
    return paths


def realize_tokens(
    path: SelectedPath, g: KnowledgeGraph, rng: np.random.Generator
) -> list[str]:
    """Token sequence for a path: concept words interleaved with relation names.

    Multiword concepts split on underscores; when several relations can make
    a hop one is drawn uniformly (the generator is never consulted for
    single-relation hops).
    """
    tokens = list(g.surfaces[path.concepts[0]].split("_"))
    for a, b in zip(path.concepts, path.concepts[1:]):
        rels = g.edges_between(a, b)
        if not rels:
            raise ValueError(
                f"path hop {g.surfaces[a]!r} -> {g.surfaces[b]!r} has no edge"
            )
        rel = rels[0] if len(rels) == 1 else rels[int(rng.integers(len(rels)))]
        tokens.append(g.relation_names[rel])
        tokens.extend(g.surfaces[b].split("_"))
    return tokens


def realize_selection(
    st: ScoredTree, g: KnowledgeGraph, rng: np.random.Generator, root: int = 0
) -> PathSelection:
    """Select and realize the paths of the tree rooted at the forest node
    ``root``, then their truncations; ``rng`` is that tree's own generator.

    The truncations are the proper prefixes (>= 2 concepts) of the full
    paths, each once, in the order the full paths first reach them.  Each
    is realized as a token prefix of that first full path, so it inherits
    the path's relation draws.
    """
    full = select_paths(st, root)
    realized: list[list[str]] = []
    # insertion-ordered: a prefix's first full path gives its place and tokens
    prefixes: dict[tuple[tuple[int, ...], tuple[int, ...]], list[str]] = {}
    for path in full:
        tokens = realize_tokens(path, g, rng)
        realized.append(tokens)
        end = len(g.surfaces[path.concepts[0]].split("_"))
        for n in range(2, len(path.concepts)):
            # the relation token and the words of concept n - 1
            end += 1 + len(g.surfaces[path.concepts[n - 1]].split("_"))
            prefixes.setdefault((path.concepts[:n], path.relations[: n - 1]), tokens[:end])
    realized += prefixes.values()
    truncations = [SelectedPath(*key) for key in prefixes]
    return PathSelection(full_paths=full, truncations=truncations, realized=realized)
