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
context length, so ``raw5`` holds one score per distinct count, and a
level-4 node's softmax denominator is summed by value: ``size * exp(value
- max)`` for each value it keeps children of, values descending.  Its two
best children are the first two it keeps.
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
    scores; ``raw5`` scores each value of ``tree.level5.values``, and
    ``sum5`` is each level-4 node's level-5 softmax denominator."""

    tree: PathTree
    raw: np.ndarray
    raw5: np.ndarray
    n_score: np.ndarray
    c_score: np.ndarray
    sum5: np.ndarray

    def regrow5(self, nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`PathTree.regrow5`, with each child's raw and normalized
        scores before the offsets."""
        concepts, rels, offsets = self.tree.regrow5(nodes)
        l5, seg = self.tree.level5, np.arange(offsets.size - 1).repeat(np.diff(offsets))
        # a child's raw score is that of its context count among the values
        raw = self.raw5[np.searchsorted(-l5.values, -l5.tf[concepts] if concepts.size else concepts)]
        best, total = raw[offsets[seg]], self.sum5[np.asarray(nodes, dtype=np.int64)[seg] - self.tree.first4]
        return concepts, rels, raw, np.exp(raw - best) / total, offsets


def score_raw(
    tree: PathTree, gp: GroundedPair, g: KnowledgeGraph, stats: WalkStats
) -> tuple[np.ndarray, np.ndarray]:
    """Raw scores of every node of the forest (roots kept at 0) and of
    every distinct context count of its level-5 summary."""
    raw = np.zeros(tree.node_count, dtype=np.float64)
    m = gp.context_mentions
    if m.source_len <= 0:
        raise ValueError("context is empty")
    ctx_counts = m.dense_counts(g.node_count)

    # term frequency below the roots, then NPMI over every level-4 hop in one call
    k = tree.root_count
    raw[k:] = ctx_counts[tree.concepts[k:]] / m.source_len
    raw5 = tree.level5.values / m.source_len
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
    # level 5 by value, in blocks of 2**16 node-values: each node's list
    # sizes less its path concepts, cut to its count where the cap may cut
    # (whole values first), then its non-empty values, the largest first
    l5, n_val = tree.level5, raw5.size
    sum5, top5 = np.zeros(l5.count.size), np.zeros(l5.count.size)
    step = (1 << 16) // max(n_val, 1)
    for lo in range(0, l5.count.size if n_val else 0, step):
        count, size = l5.count[lo : lo + step], np.take(l5.sizes, l5.lists[lo : lo + step], axis=0)
        flat, base = size.reshape(-1), np.arange(0, size.size, n_val)
        for hit in l5.hits[:, lo : lo + step]:  # a row at a time: two hits may share a value
            on = (hit < n_val).nonzero()[0]
            flat[base[on] + hit[on]] -= 1
        full = (count == l5.cap).nonzero()[0]
        part = size[full]
        size[full] = np.minimum(part, np.maximum(count[full, None] - part.cumsum(axis=1) + part, 0))
        pos = (flat > 0).nonzero()[0]  # a bool array's nonzero is the fast one
        node, value = np.divmod(pos, n_val)
        size, run_raw = flat[pos], raw5[value]
        first = (np.diff(node, prepend=-1) > 0).nonzero()[0]
        best = np.zeros(count.size)
        best[node[first]] = run_raw[first]
        total = np.add.reduceat(size * np.exp(run_raw - best[node]), first)
        # the best child scores 1 / sum5; the second shares the first
        # value if that holds two children, else has the next value
        second = np.where(size[first] >= 2, first, np.minimum(first + 1, node.size - 1))
        top1, at = 1.0 / total, lo + node[first]
        top2 = np.where(l5.count[at] >= 2, np.exp(run_raw[second] - run_raw[first]) / total, top1)
        sum5[at], top5[at] = total, (top1 + top2) / 2.0
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
    if tree.node_count == tree.root_count:  # bare roots: each scores 1, and nothing else
        return ScoredTree(tree, raw, raw5, np.ones(tree.root_count), np.ones(tree.root_count), np.zeros(0))
    n_score, sum5, top5 = sibling_softmax(tree, raw, raw5)
    return ScoredTree(tree, raw, raw5, n_score, cumulative_score(tree, n_score, top5), sum5)
