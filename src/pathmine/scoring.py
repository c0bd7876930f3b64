"""Tree scoring: raw saliency, sibling softmax, and cumulative scores.

Grounded levels (2, 3, 5) score by context term frequency.  The
unconstrained level-4 hop scores by normalized pointwise mutual
information between the hop and its three-concept prefix, estimated from
walk counts: a path's count is the product of the edge counts expansion
kept on its nodes (``PathTree.mults``).  Scores are then softmax-normalized
within each sibling group and accumulated bottom-up, every node adding
the mean of its two best children.

Level 5 is scored where the tree summarizes it, never child by child:
the cumulative pass adds each level-4 node's ``top5`` from the tree's
:class:`~pathmine.tree.Level5`, and :func:`level5_scores` scores the
children that :meth:`~pathmine.tree.PathTree.regrow5` re-grows.
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
    scores of its levels 1-4."""

    tree: PathTree
    raw: np.ndarray
    n_score: np.ndarray
    c_score: np.ndarray


def score_raw(tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats) -> np.ndarray:
    """Raw scores of every node of the forest (roots kept at 0)."""
    raw = np.zeros(tree.node_count, dtype=np.float64)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")

    # term frequency below the roots, then NPMI over every level-4 hop in one call
    k = tree.root_count
    raw[k:] = gp.context_counts[tree.concepts[k:]] / m.source_len
    c4_idx = np.flatnonzero(tree.levels == 4)
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
    return raw


def sibling_softmax(tree: PathTree, raw: np.ndarray) -> np.ndarray:
    """Normalize the raw scores of levels 2-4 against siblings; each group
    sums to 1, and a root scores 1."""
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
    return n_score


def cumulative_score(tree: PathTree, n_score: np.ndarray) -> np.ndarray:
    """Bottom-up cumulative scores: leaves keep their normalized score,
    inner nodes add the mean of their top-two children; a level-4 node's
    mean over its level-5 children is its ``tree.level5.top5``."""
    c_score = n_score.copy()
    c_score[tree.first4 :] += tree.level5.top5
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
    raw = score_raw(tree, gp, g, stats)
    if tree.node_count == tree.root_count:  # bare roots: each scores 1, and nothing else
        return ScoredTree(tree, raw, np.ones(tree.root_count), np.ones(tree.root_count))
    n_score = sibling_softmax(tree, raw)
    return ScoredTree(tree, raw, n_score, cumulative_score(tree, n_score))


def level5_scores(tree: PathTree, gp: GroundedPair, nodes, concepts, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Raw and normalized scores of the children ``tree.regrow5(nodes, gp, ...)``
    gave as ``concepts`` and ``offsets``: a context count over the context
    length, and its softmax against its node's ``level5.sum5``."""
    seg = np.arange(len(nodes)).repeat(np.diff(offsets))
    raw = gp.context_counts[concepts] / gp.context_mentions.source_len
    best, total = raw[offsets[seg]], tree.level5.sum5[np.asarray(nodes, dtype=np.int64)[seg] - tree.first4]
    return raw, np.exp(raw - best) / total
