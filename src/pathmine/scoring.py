"""Tree scoring: raw saliency, sibling softmax, and cumulative scores.

Grounded levels (2, 3, 5) score by context term frequency.  The
unconstrained level-4 hop scores by normalized pointwise mutual
information between the hop and its three-concept prefix, estimated from
global walk counts.  Scores are then softmax-normalized within each
sibling group and accumulated bottom-up, every node adding the mean of
its two best children.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .grounding import GroundedPair
from .kg import KnowledgeGraph, WalkStats
from .tree import PathTree, TreeNode

SCORE_SENTINEL = kernels.SCORE_SENTINEL


@dataclass
class ScoredTree:
    """A path tree with per-node raw / sibling-normalized / cumulative scores."""

    tree: PathTree
    raw: np.ndarray
    n_score: np.ndarray | None = None
    c_score: np.ndarray | None = None

    def raw_of(self, node: TreeNode) -> float:
        return float(self.raw[node.index])

    def n_of(self, node: TreeNode) -> float:
        assert self.n_score is not None
        return float(self.n_score[node.index])

    def c_of(self, node: TreeNode) -> float:
        assert self.c_score is not None
        return float(self.c_score[node.index])


def npmi(
    c1: int, c2: int, c3: int, c4: int, g: KnowledgeGraph, stats: WalkStats
) -> float:
    """Normalized PMI between a fourth hop and its three-concept prefix.

    Joint and prefix probabilities are walk fractions (multiplicity products
    over the global 4-concept and 3-concept walk totals); the hop prior is
    its distinct-neighbor count over the node count.  Returns +1 when the
    joint probability is 1 (the -log denominator vanishes) and the
    most-negative float when it is 0, so such hops rank last.
    """
    for cid in (c1, c2, c3, c4):
        g._check_concept(cid)
    out = kernels.association_scores(
        g.adj_indptr,
        g.adj_dst,
        g.neighbor_count,
        [c1],
        [c2],
        [c3],
        [c4],
        stats.walks_len3,
        stats.walks_len4,
        stats.node_count,
    )
    return float(out[0])


def score_raw(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> ScoredTree:
    """Fill raw scores for every node of the forest (roots kept at 0)."""
    raw = np.zeros(tree.node_count, dtype=np.float64)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")
    ctx_counts = m.dense_counts(g.node_count)

    # term frequency below the roots, then NPMI over every level-4 hop in one call
    k = tree.root_count
    raw[k:] = ctx_counts[tree.concepts[k:]] / m.source_len
    c4_idx = tree.level_indices(4)
    if c4_idx.size:  # most forests of a short context stop above level 4
        c3_idx = tree.parents[c4_idx]
        c2_idx = tree.parents[c3_idx]
        c1_idx = tree.parents[c2_idx]
        raw[c4_idx] = kernels.association_scores(
            g.adj_indptr,
            g.adj_dst,
            g.neighbor_count,
            tree.concepts[c1_idx],
            tree.concepts[c2_idx],
            tree.concepts[c3_idx],
            tree.concepts[c4_idx],
            stats.walks_len3,
            stats.walks_len4,
            stats.node_count,
        )
    return ScoredTree(tree=tree, raw=raw)


def sibling_softmax(st: ScoredTree) -> ScoredTree:
    """Normalize raw scores against siblings; each group sums to 1."""
    tree = st.tree
    n, k = tree.node_count, tree.root_count
    n_score = np.zeros(n, dtype=np.float64)
    n_score[:k] = 1.0
    if n > k:
        has_children = np.flatnonzero(tree.child_start < tree.child_end)
        starts = tree.child_start[has_children]
        sizes = (tree.child_end - tree.child_start)[has_children]
        # non-root nodes form contiguous sibling blocks in BFS order
        child_raw = st.raw[k:]
        group_max = np.maximum.reduceat(child_raw, starts - k)
        with np.errstate(over="ignore"):  # sentinel raws underflow to exp(-inf)=0
            shifted = np.exp(child_raw - np.repeat(group_max, sizes))
        group_sum = np.add.reduceat(shifted, starts - k)
        n_score[k:] = shifted / np.repeat(group_sum, sizes)
    return replace(st, n_score=n_score)


def cumulative_score(st: ScoredTree) -> ScoredTree:
    """Bottom-up cumulative scores: leaves keep their normalized score,
    inner nodes add the mean of their top-two children."""
    assert st.n_score is not None, "sibling_softmax must run first"
    tree = st.tree
    c_score = st.n_score.copy()
    # BFS order groups the inner nodes by level, and each level above the
    # deepest inner one has inner nodes; accumulate bottom-up
    inner = np.flatnonzero(tree.child_start < tree.child_end)
    inner_levels = tree.levels[inner]
    for level in range(int(inner_levels[-1]) if inner.size else 0, 0, -1):
        part = inner[inner_levels == level]
        # each parent's children form one block; a level's blocks are
        # contiguous and in parent order
        starts, sizes = tree.child_start[part], tree.child_end[part] - tree.child_start[part]
        blocks = starts - starts[0]
        child_vals = c_score[starts[0] : starts[-1] + sizes[-1]]
        top1 = np.maximum.reduceat(child_vals, blocks)
        # mask one occurrence of each block's maximum, so a tie gives second == top1
        hits = np.flatnonzero(child_vals == np.repeat(top1, sizes))
        rest = child_vals.copy()
        rest[hits[hits.searchsorted(blocks)]] = -np.inf
        second = np.where(sizes >= 2, np.maximum.reduceat(rest, blocks), top1)
        c_score[part] += (top1 + second) / 2.0
    return replace(st, c_score=c_score)


def score_tree(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> ScoredTree:
    """Raw scores, sibling softmax, and cumulative pass in one call; every
    level-1 node of the forest is a root."""
    return cumulative_score(sibling_softmax(score_raw(tree, gp, g, stats)))
