"""Candidate reasoning trees rooted at query concepts.

A tree has up to five concept levels.  Level-2, level-3, and level-5
concepts must be mentioned in the context; level 4 is an unconstrained hop
into the graph neighborhood of its parent.  When a node has no qualifying
continuation it is kept as a leaf, so partial branches survive.  No path
may revisit a concept already on it.

Nodes live in flat numpy arrays in breadth-first order (children of one
parent are contiguous), which keeps scoring vectorizable; :class:`TreeNode`
is a light view over one index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .grounding import GroundedPair
from .kg import KnowledgeGraph

MAX_LEVEL = 5

# keep per-level candidate memory bounded when expanding huge frontiers
_EXPAND_CHUNK_BUDGET = 1 << 23


@dataclass(frozen=True)
class BuildConfig:
    max_children_per_node: int = 100

    def __post_init__(self):
        if self.max_children_per_node < 2:
            raise ValueError("max_children_per_node must be >= 2")


class TreeNode:
    """View over one node of a :class:`PathTree`."""

    __slots__ = ("tree", "index")

    def __init__(self, tree: "PathTree", index: int):
        self.tree = tree
        self.index = index

    @property
    def concept(self) -> int:
        return int(self.tree.concepts[self.index])

    @property
    def level(self) -> int:
        return int(self.tree.levels[self.index])

    @property
    def incoming_relation(self) -> int | None:
        r = int(self.tree.rels[self.index])
        return None if r < 0 else r

    @property
    def parent(self) -> "TreeNode | None":
        p = int(self.tree.parents[self.index])
        return None if p < 0 else TreeNode(self.tree, p)

    @property
    def children(self) -> list["TreeNode"]:
        lo = int(self.tree.child_start[self.index])
        hi = int(self.tree.child_end[self.index])
        return [TreeNode(self.tree, i) for i in range(lo, hi)]

    def path_concepts(self) -> list[int]:
        """Concepts from the root down to this node."""
        out = []
        idx = self.index
        while idx >= 0:
            out.append(int(self.tree.concepts[idx]))
            idx = int(self.tree.parents[idx])
        return out[::-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, TreeNode) and other.tree is self.tree and other.index == self.index

    def __hash__(self) -> int:
        return hash((id(self.tree), self.index))

    def __repr__(self) -> str:
        return f"TreeNode(concept={self.concept}, level={self.level})"


class PathTree:
    """Rooted candidate tree stored as parallel arrays in BFS order."""

    def __init__(self, concepts, parents, rels, levels):
        self.concepts = np.asarray(concepts, dtype=np.int32)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.rels = np.asarray(rels, dtype=np.int32)
        self.levels = np.asarray(levels, dtype=np.int8)
        n = self.concepts.size
        self.child_start = np.zeros(n, dtype=np.int64)
        self.child_end = np.zeros(n, dtype=np.int64)
        if n > 1:
            counts = np.bincount(self.parents[1:], minlength=n)
            ends = np.cumsum(counts) + 1
            self.child_start[:] = ends - counts
            self.child_end[:] = ends

    @property
    def root(self) -> TreeNode:
        return TreeNode(self, 0)

    @property
    def node_count(self) -> int:
        return int(self.concepts.size)

    def node(self, index: int) -> TreeNode:
        return TreeNode(self, index)

    def level_indices(self, level: int) -> np.ndarray:
        if not 1 <= level <= MAX_LEVEL:
            raise ValueError(f"level {level} out of range 1..{MAX_LEVEL}")
        return np.flatnonzero(self.levels == level)


def enumerate_levels(tree: PathTree, level: int) -> list[TreeNode]:
    """Nodes of one level in stable breadth-first order."""
    return [TreeNode(tree, int(i)) for i in tree.level_indices(level)]


def build_tree(
    c1: int, gp: GroundedPair, g: KnowledgeGraph, cfg: BuildConfig | None = None
) -> PathTree:
    """Grow the candidate tree for one query concept.

    Candidate children beyond ``max_children_per_node`` are dropped by
    context term-frequency rank (graph degree at the unconstrained level),
    ties broken toward lower concept ids.
    """
    if cfg is None:
        cfg = BuildConfig()
    g._check_concept(c1)
    if c1 not in gp.query_concepts:
        raise ValueError("root concept is not one of the query concepts")

    n = g.node_count
    ctx_counts = gp.context_mentions.dense_counts(n)
    ctx_mask = ctx_counts > 0

    concepts = [np.asarray([c1], dtype=np.int32)]
    parents = [np.asarray([-1], dtype=np.int64)]
    rels = [np.asarray([-1], dtype=np.int32)]
    levels = [np.asarray([1], dtype=np.int8)]

    frontier = np.asarray([c1], dtype=np.int32)
    frontier_idx = np.asarray([0], dtype=np.int64)
    # per-frontier-node ancestors padded to depth 4 with -1
    ancestors = np.full((1, 4), -1, dtype=np.int32)
    ancestors[0, 0] = c1
    next_index = 1

    for level in range(2, MAX_LEVEL + 1):
        if frontier.size == 0:
            break
        # grounded levels rank by context term frequency and keep only
        # context concepts; level 4 ranks by degree and keeps every concept
        allowed, scores = (ctx_mask, ctx_counts) if level != 4 else (None, g.degrees)

        cum = np.cumsum(g.degrees[frontier])
        total = int(cum[-1]) if cum.size else 0
        if total <= _EXPAND_CHUNK_BUDGET:
            bounds = [0, int(frontier.size)]
        else:
            targets = np.arange(1, total // _EXPAND_CHUNK_BUDGET + 1) * _EXPAND_CHUNK_BUDGET
            cuts = np.searchsorted(cum, targets, side="left") + 1
            bounds = sorted({0, int(frontier.size), *cuts.tolist()})

        cand_parts, rel_parts, seg_parts = [], [], []
        for start, stop in zip(bounds[:-1], bounds[1:]):
            cand, minrel, offsets = kernels.expand_candidates(
                frontier[start:stop],
                ancestors[start:stop],
                g.adj_indptr,
                g.adj_dst,
                g.adj_rel,
                allowed,
                scores,
            )
            sizes = np.diff(offsets)
            seg = np.arange(sizes.size, dtype=np.int64).repeat(sizes)
            # each parent's slice arrives ranked by (score desc, concept
            # asc), so the cap keeps its first positions
            if sizes.max() > cfg.max_children_per_node:
                kept = np.arange(cand.size) - offsets[seg] < cfg.max_children_per_node
                cand, minrel, seg = cand[kept], minrel[kept], seg[kept]
            cand_parts.append(cand)
            rel_parts.append(minrel)
            seg_parts.append(seg + start)

        cand, minrel, seg = map(np.concatenate, (cand_parts, rel_parts, seg_parts))
        if cand.size == 0:
            break

        concepts.append(cand)
        parents.append(frontier_idx[seg])
        rels.append(minrel)
        levels.append(np.full(cand.size, level, dtype=np.int8))

        if level < MAX_LEVEL:
            new_anc = np.full((cand.size, 4), -1, dtype=np.int32)
            new_anc[:, : level - 1] = ancestors[seg, : level - 1]
            new_anc[:, level - 1] = cand
            ancestors = new_anc
            frontier = cand
            frontier_idx = np.arange(next_index, next_index + cand.size, dtype=np.int64)
        next_index += cand.size

    return PathTree(
        np.concatenate(concepts),
        np.concatenate(parents),
        np.concatenate(rels),
        np.concatenate(levels),
    )
