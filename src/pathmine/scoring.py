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
        g.fwd_indptr,
        g.fwd_dst,
        g.rev_indptr,
        g.rev_dst,
        g.neighbor_count,
        c1,
        c2,
        c3,
        np.asarray([c4], dtype=np.int32),
        stats.walks_len3,
        stats.walks_len4,
        stats.node_count,
    )
    return float(out[0])


def raw_score(
    node: TreeNode, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> float:
    """Raw score of a single non-root node (term frequency or NPMI)."""
    if node.level == 1:
        raise ValueError("the root node is not scored")
    if node.level == 4:
        path = node.path_concepts()
        return npmi(path[0], path[1], path[2], path[3], g, stats)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")
    return m.count(node.concept) / m.source_len


def score_raw(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> ScoredTree:
    """Fill raw scores for every node of the tree (root kept at 0)."""
    raw = np.zeros(tree.node_count, dtype=np.float64)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")
    ctx_counts = m.dense_counts(g.node_count)

    grounded_mask = (tree.levels == 2) | (tree.levels == 3) | (tree.levels == 5)
    grounded_idx = np.flatnonzero(grounded_mask)
    raw[grounded_idx] = ctx_counts[tree.concepts[grounded_idx]] / m.source_len

    # level-4 nodes share (c1, c2, c3) per parent; score them batch-wise
    for parent_idx in np.flatnonzero(tree.levels == 3):
        lo = int(tree.child_start[parent_idx])
        hi = int(tree.child_end[parent_idx])
        if lo == hi:
            continue
        c3 = int(tree.concepts[parent_idx])
        c2_idx = int(tree.parents[parent_idx])
        c2 = int(tree.concepts[c2_idx])
        c1 = int(tree.concepts[int(tree.parents[c2_idx])])
        raw[lo:hi] = kernels.association_scores(
            g.fwd_indptr,
            g.fwd_dst,
            g.rev_indptr,
            g.rev_dst,
            g.neighbor_count,
            c1,
            c2,
            c3,
            tree.concepts[lo:hi],
            stats.walks_len3,
            stats.walks_len4,
            stats.node_count,
        )
    return ScoredTree(tree=tree, raw=raw)


def sibling_softmax(st: ScoredTree) -> ScoredTree:
    """Normalize raw scores against siblings; each group sums to 1."""
    tree = st.tree
    n = tree.node_count
    n_score = np.zeros(n, dtype=np.float64)
    n_score[0] = 1.0
    if n > 1:
        has_children = np.flatnonzero(tree.child_start < tree.child_end)
        starts = tree.child_start[has_children]
        sizes = (tree.child_end - tree.child_start)[has_children]
        # non-root nodes form contiguous sibling blocks in BFS order
        child_raw = st.raw[1:]
        group_max = np.maximum.reduceat(child_raw, starts - 1)
        with np.errstate(over="ignore"):  # sentinel raws underflow to exp(-inf)=0
            shifted = np.exp(child_raw - np.repeat(group_max, sizes))
        group_sum = np.add.reduceat(shifted, starts - 1)
        n_score[1:] = shifted / np.repeat(group_sum, sizes)
    return replace(st, n_score=n_score)


def cumulative_score(st: ScoredTree) -> ScoredTree:
    """Bottom-up cumulative scores: leaves keep their normalized score,
    inner nodes add the mean of their top-two children."""
    assert st.n_score is not None, "sibling_softmax must run first"
    tree = st.tree
    c_score = st.n_score.copy()
    for level in range(4, 0, -1):
        child_idx = tree.level_indices(level + 1)
        if child_idx.size == 0:
            continue
        # nodes of one level are contiguous in BFS order
        lo, hi = int(child_idx[0]), int(child_idx[-1]) + 1
        child_vals = c_score[lo:hi]
        par = tree.parents[lo:hi]
        order = np.lexsort((-child_vals, par))
        par_sorted = par[order]
        vals_sorted = child_vals[order]
        first = np.flatnonzero(np.r_[True, par_sorted[1:] != par_sorted[:-1]])
        sizes = np.diff(np.r_[first, par_sorted.size])
        top1 = vals_sorted[first]
        second = np.where(sizes >= 2, vals_sorted[np.minimum(first + 1, vals_sorted.size - 1)], top1)
        c_score[par_sorted[first]] += (top1 + second) / 2.0
    return replace(st, c_score=c_score)


def score_tree(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> ScoredTree:
    """Raw scores, sibling softmax, and cumulative pass in one call."""
    return cumulative_score(sibling_softmax(score_raw(tree, gp, g, stats)))
