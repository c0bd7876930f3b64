"""Tree scoring: raw saliency, sibling softmax, and cumulative scores.

Grounded levels (2, 3, 5) score by context term frequency.  The
unconstrained level-4 hop scores by normalized pointwise mutual
information between the hop and its three-concept prefix, estimated from
walk counts: a path's count is the product of the edge counts expansion
kept on its nodes (``PathTree.mults``).  Scores are then softmax-normalized
within each sibling group and accumulated bottom-up, every node adding
the mean of its two best children.

Level 5 is scored from the tree's :class:`~pathmine.tree.Level5` summary,
never child by child.  A level-5 raw score is a context count over the
context length, so a level-4 node's softmax denominator is summed by
value: ``count * exp(value - max)`` for each distinct value, values
descending.  Its two best children are the first two it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .grounding import GroundedPair
from .kg import KnowledgeGraph, WalkStats
from .tree import PathTree

SCORE_SENTINEL = kernels.SCORE_SENTINEL


@dataclass
class ScoredTree:
    """A path tree with per-node raw / sibling-normalized / cumulative
    scores; ``raw5`` scores each entry of the level-5 lists, and ``sum5``
    is each level-4 node's level-5 softmax denominator."""

    tree: PathTree
    raw: np.ndarray
    raw5: np.ndarray
    n_score: np.ndarray
    c_score: np.ndarray
    sum5: np.ndarray

    def level5_scores(self, idx: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions, raw and normalized scores of node ``idx``'s kept
        level-5 children, best first; a leaf's cumulative score is its
        normalized one."""
        pos = self.tree.level5_children(idx)
        raw = self.raw5[pos]
        if not pos.size:
            return pos, raw, raw
        return pos, raw, np.exp(raw - raw[0]) / self.sum5[idx - self.tree.first4]


def score_raw(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> tuple[np.ndarray, np.ndarray]:
    """Raw scores of every node of the forest (roots kept at 0) and of
    every entry of its level-5 lists."""
    raw = np.zeros(tree.node_count, dtype=np.float64)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")
    ctx_counts = m.dense_counts(g.node_count)

    # term frequency below the roots, then NPMI over every level-4 hop in one call
    k = tree.root_count
    raw[k:] = ctx_counts[tree.concepts[k:]] / m.source_len
    raw5 = ctx_counts[tree.level5.concepts] / m.source_len
    c4_idx = tree.level_indices(4)
    if c4_idx.size:  # most forests of a short context stop above level 4
        c3_idx = tree.parents[c4_idx]
        raw[c4_idx] = kernels.association_scores(
            g.neighbor_count,
            tree.mults[tree.parents[c3_idx]].astype(np.int64) * tree.mults[c3_idx],
            tree.mults[c4_idx],
            tree.concepts[c4_idx],
            stats.walks_len3,
            stats.walks_len4,
            stats.node_count,
        )
    return raw, raw5


def sibling_softmax(
    tree: PathTree, raw: np.ndarray, raw5: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize raw scores against siblings; each group sums to 1.  Also
    each level-4 node's level-5 denominator ``sum5`` and ``top5``, the mean
    of its two best level-5 normalized scores (0 without a level-5 child)."""
    n, k = tree.node_count, tree.root_count
    n_score = np.zeros(n, dtype=np.float64)
    n_score[:k] = 1.0
    if n > k:
        has_children = np.flatnonzero(tree.child_start < tree.child_end)
        starts = tree.child_start[has_children]
        sizes = (tree.child_end - tree.child_start)[has_children]
        # non-root nodes form contiguous sibling blocks in BFS order
        child_raw = raw[k:]
        group_max = np.maximum.reduceat(child_raw, starts - k)
        with np.errstate(over="ignore"):  # sentinel raws underflow to exp(-inf)=0
            shifted = np.exp(child_raw - np.repeat(group_max, sizes))
        group_sum = np.add.reduceat(shifted, starts - k)
        n_score[k:] = shifted / np.repeat(group_sum, sizes)
    # level 5 by value: a node's runs hold its distinct raws, the largest first
    l5 = tree.level5
    sum5, top5 = np.zeros(l5.count.size), np.zeros(l5.count.size)
    if l5.run_pos.size:  # most forests of a short context stop above level 4
        has = np.flatnonzero(l5.count)
        first, runs = l5.run_bounds[has], np.diff(l5.run_bounds)[has]
        run_raw = raw5[l5.run_pos]
        terms = l5.run_size * np.exp(run_raw - np.repeat(run_raw[first], runs))
        total = sum5[has] = np.add.reduceat(terms, first)
        # the best child scores 1 / sum5; the second shares the first run's
        # raw if that run holds two children, else has the next run's
        second = np.where(l5.run_size[first] >= 2, first, np.minimum(first + 1, run_raw.size - 1))
        top1 = 1.0 / total
        top2 = np.where(l5.count[has] >= 2, np.exp(run_raw[second] - run_raw[first]) / total, top1)
        top5[has] = (top1 + top2) / 2.0
    return n_score, sum5, top5


def cumulative_score(tree: PathTree, n_score: np.ndarray, top5: np.ndarray) -> np.ndarray:
    """Bottom-up cumulative scores: leaves keep their normalized score,
    inner nodes add the mean of their top-two children; a level-4 node's
    mean over its level-5 children is ``top5``."""
    c_score = n_score.copy()
    c_score[tree.first4 :] += top5
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
    return c_score


def score_tree(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> ScoredTree:
    """Raw scores, sibling softmax, and cumulative pass in one call; every
    level-1 node of the forest is a root."""
    raw, raw5 = score_raw(tree, gp, g, stats)
    n_score, sum5, top5 = sibling_softmax(tree, raw, raw5)
    return ScoredTree(tree, raw, raw5, n_score, cumulative_score(tree, n_score, top5), sum5)
