"""Candidate reasoning trees rooted at query concepts.

A tree has up to five concept levels.  Level-2, level-3, and level-5
concepts must be mentioned in the context; level 4 is an unconstrained hop
into the graph neighborhood of its parent.  When a node has no qualifying
continuation it is kept as a leaf, so partial branches survive.  No path
may revisit a concept already on it.

A request grows one forest: the trees of all its query concepts, built
together.  The roots are the first nodes (level 1), and each level is
expanded for every tree by the same kernel calls, so a request pays each
level's fixed cost once however many trees it has.  A one-root forest is
exactly the single tree.

Levels 1-4 live in flat numpy arrays in breadth-first order (children of
one parent are contiguous, and each level holds the trees' nodes in root
order), which keeps scoring vectorizable.  Level 5 is never built node by
node.  ``_level5`` counts each distinct level-4 concept's context
neighbours per distinct context count, takes away each node's own path
concepts and cuts to the cap, whole counts first; a level-5 raw score is
a context count over the context length, so each node's softmax
denominator is summed by count.  :class:`Level5` keeps the three numbers
per level-4 node that scoring and selection read: how many children it
keeps, that denominator and the mean of its two best normalized scores.
:meth:`PathTree.regrow5` re-grows, with their scores, the children of the
nodes whose children are read, by the expansion step that grows levels
2-4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .grounding import GroundedPair
from .kg import KnowledgeGraph

MAX_LEVEL = 5

_REGROW_BLOCK = 1 << 20  # about the most graph row entries one block of re-growth gathers


@dataclass(frozen=True)
class BuildConfig:
    max_children_per_node: int = 100

    def __post_init__(self):
        # the cap plus a path's four concepts must fit in int64; a cap of
        # 2**62 already keeps every child
        if not 2 <= self.max_children_per_node <= 2**62:
            raise ValueError("max_children_per_node must be in 2..2**62")


@dataclass(frozen=True)
class Level5:
    """The level-5 children of a forest's level-4 nodes: level-4 node
    ``i`` (the ``i``-th of its level) keeps ``count[i]`` children, whose
    softmax denominator is ``sum5[i]`` and whose two best normalized
    scores have the mean ``top5[i]`` (0 without a child, exactly 1/2 with
    two).  ``cap``, ``tf``
    (the context count of every concept), ``context_len`` and ``graph``
    are what re-growth reads.
    """

    count: np.ndarray
    sum5: np.ndarray
    top5: np.ndarray
    cap: int = 0
    tf: np.ndarray | None = None
    context_len: int = 0
    graph: KnowledgeGraph | None = None

    @classmethod
    @functools.lru_cache(maxsize=8)  # most forests have no level 4: share one
    def none(cls, n4: int) -> "Level5":
        """No level-5 child under any of ``n4`` level-4 nodes."""
        count, zeros = np.zeros(n4, dtype=np.int32), np.zeros(n4)
        count.flags.writeable = zeros.flags.writeable = False  # and so are their views
        return cls(count, zeros, zeros, tf=count[:0])


class PathTree:
    """Candidate forest: levels 1-4 as parallel arrays in BFS order, its
    ``root_count`` level-1 nodes first, and the :class:`Level5` summary
    of the level-4 nodes ``first4:``.  ``mults`` holds the number of
    stored edges between each node and its parent (0 for a root)."""

    def __init__(self, concepts, parents, rels, mults, levels, level5: Level5 | None = None):
        self.concepts = np.asarray(concepts, dtype=np.int32)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.rels = np.asarray(rels, dtype=np.int32)
        self.mults = np.asarray(mults, dtype=np.int32)
        self.levels = np.asarray(levels, dtype=np.int8)
        n = self.concepts.size
        k = self.root_count = int(self.levels.searchsorted(2))
        self.first4 = int(self.levels.searchsorted(4))
        self.level5 = level5 if level5 is not None else Level5.none(n - self.first4)
        self.child_start = np.zeros(n, dtype=np.int64)
        self.child_end = np.zeros(n, dtype=np.int64)
        if n > k:
            counts = np.bincount(self.parents[k:], minlength=n)
            ends = np.cumsum(counts) + k
            self.child_start[:] = ends - counts
            self.child_end[:] = ends

    @property
    def node_count(self) -> int:
        """Nodes of levels 1-4, the ones held in the arrays."""
        return int(self.concepts.size)

    def regrow5(self, nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The kept level-5 children of ``nodes``, re-grown in one call:
        concepts, relation ids, raw and normalized scores, each node's best
        first, and the offsets of each node's slice; none under a node that
        is not at level 4.  They are grown as levels 2-3 are, with the
        node's root-first path as its ancestors and the context counts as
        filter and rank, and a child's raw score is its context count over
        the context length."""
        l5, nodes = self.level5, np.asarray(nodes, dtype=np.int64)
        count = np.concatenate([np.zeros(self.first4, dtype=np.int32), l5.count])[nodes]
        live, size = (count > 0).nonzero()[0], np.zeros(nodes.size, dtype=np.int64)
        grown = [(np.zeros(0, dtype=np.int32),) * 2]
        i3 = self.parents[nodes[live]]
        paths = self.concepts[np.array([self.parents[self.parents[i3]], self.parents[i3], i3, nodes[live]]).T]
        # blocks of nodes whose rows hold at most about ``_REGROW_BLOCK`` entries
        step = _REGROW_BLOCK // int(l5.graph.degrees[paths[:, 3]].max()) + 1 if live.size else 1
        for lo in range(0, live.size, step):
            part = paths[lo : lo + step]
            cand, rel, _, seg = _children(part[:, 3], part, l5.graph, l5.tf, l5.tf, l5.cap)
            size[live[lo : lo + step]] = np.bincount(seg, minlength=len(part))
            grown.append((cand, rel))
        concepts, rels = (np.concatenate(part) for part in zip(*grown))
        offsets, seg = np.concatenate(([0], size.cumsum())), np.arange(nodes.size).repeat(size)
        raw = l5.tf[concepts] / l5.context_len
        best, total = raw[offsets[seg]], l5.sum5[nodes[seg] - self.first4]
        return concepts, rels, raw, np.exp(raw - best) / total, offsets


def build_tree(
    roots: Sequence[int], gp: GroundedPair, g: KnowledgeGraph, cfg: BuildConfig = BuildConfig()
) -> PathTree:
    """Grow the candidate forest of the given query concepts, one tree each
    in the order given.

    Candidate children beyond ``max_children_per_node`` are dropped by
    context term-frequency rank (graph degree at the unconstrained level),
    ties broken toward lower concept ids.
    """
    if gp.context_mentions.source_len <= 0:
        raise ValueError("context is empty")
    roots = [int(c) for c in roots]
    if not roots:
        raise ValueError("a forest needs at least one root concept")
    for c1 in roots:
        g._check_concept(c1)
        if c1 not in gp.query_concepts:
            raise ValueError("root concept is not one of the query concepts")

    ctx_counts = gp.context_counts

    k = len(roots)
    frontier = np.asarray(roots, dtype=np.int32)
    frontier_idx = np.arange(k, dtype=np.int64)
    concepts = [frontier]
    parents = [np.full(k, -1, dtype=np.int64)]
    rels = [np.full(k, -1, dtype=np.int32)]
    mults = [np.zeros(k, dtype=np.int32)]
    levels = [np.ones(k, dtype=np.int8)]

    # per-frontier-node ancestors padded to depth 4 with -1
    ancestors = np.full((k, 4), -1, dtype=np.int32)
    ancestors[:, 0] = frontier
    next_index = k

    cap = cfg.max_children_per_node
    for level in range(2, MAX_LEVEL):
        # grounded levels rank by context term frequency and keep only
        # context concepts (a nonzero count); level 4 ranks by degree and
        # keeps every concept
        allowed, scores = (ctx_counts, ctx_counts) if level != 4 else (None, g.degrees)
        cand, minrel, mult, seg = _children(frontier, ancestors, g, allowed, scores, cap)
        if not cand.size:
            break
        concepts.append(cand)
        parents.append(frontier_idx[seg])
        rels.append(minrel)
        mults.append(mult)
        levels.append(np.full(cand.size, level, dtype=np.int8))

        # a parent's row is -1 from column ``level - 1`` on, so its whole
        # row (the fast take) needs only the child's own column written
        ancestors = np.take(ancestors, seg, axis=0)
        ancestors[:, level - 1] = cand
        frontier = cand
        frontier_idx = np.arange(next_index, next_index + cand.size, dtype=np.int64)
        next_index += cand.size

    level5 = None
    if len(concepts) == 4:  # the frontier is level 4, and ``ancestors`` its paths
        upper = np.concatenate(concepts[:2])
        level5 = _level5(ancestors, upper, gp, g, cap)
    return PathTree(
        np.concatenate(concepts),
        np.concatenate(parents),
        np.concatenate(rels),
        np.concatenate(mults),
        np.concatenate(levels),
        level5,
    )


def _children(parents, ancestors, g: KnowledgeGraph, allowed, scores, cap: int):
    """The children of ``parents``: :func:`kernels.expand_candidates` cut
    to ``cap`` a parent.  Returns their concepts, relation ids and edge
    counts, and the position in ``parents`` of each one's parent."""
    # a parent drops at most the four concepts of its path from its
    # concept's ranked list, so its kept children are among the first ``cap + 4``
    cand, (minrel, mult), offsets = kernels.expand_candidates(
        parents, ancestors, g.adj_indptr, g.adj_dst, g.adj_rel, allowed, scores, cap + 4
    )
    if not cand.size:  # most short requests' roots end here
        return cand, minrel, mult, offsets[:0]
    sizes = np.diff(offsets)
    seg = np.arange(sizes.size, dtype=np.int64).repeat(sizes)
    # each parent's slice arrives ranked by (score desc, concept asc),
    # so the cap keeps its first positions
    if sizes.max() > cap:
        kept = np.arange(cand.size) - offsets[seg] < cap
        cand, minrel, mult, seg = cand[kept], minrel[kept], mult[kept], seg[kept]
    return cand, minrel, mult, seg


def _level5(paths, upper, gp: GroundedPair, g: KnowledgeGraph, cap: int) -> Level5:
    """Summarize the level-5 children of the level-4 nodes whose root-first
    paths are the rows of ``paths``; ``upper`` holds the level-1 and
    level-2 concepts.

    ``values`` holds the context's distinct counts, descending.  Each
    distinct level-4 concept has a list: its context neighbours, ranked by
    (count desc, concept asc); row ``r`` of ``sizes`` counts list ``r``'s
    entries with each value.  Level-4 node ``i`` reads list ``lists[i]``
    less ``hits[:, i]``, the value indices of its path concepts on that
    list (c3 first, ``len(values)`` for one that is not), and keeps the
    first ``count[i]`` entries left, at most ``cap``, so whole values first.
    """
    mentions, context_len = gp.context_mentions.mentions, gp.context_mentions.source_len
    ctx = np.fromiter(mentions, dtype=np.int64, count=len(mentions))
    values, value = np.unique(-np.fromiter(mentions.values(), np.int64, ctx.size), return_inverse=True)
    values, n_val = -values, values.size  # descending

    # distinct level-4 concepts without a table scan: each holds one of its nodes
    c4, node = paths[:, 3], np.arange(len(paths), dtype=np.int32)
    slot = np.full(g.node_count, -1, dtype=np.int32)
    slot[c4] = node
    targets = c4[slot[c4] == node]
    slot[targets] = np.arange(targets.size, dtype=np.int32)
    lists = slot[c4]

    # each (context concept, list) pair once, from the context side: the
    # CSR is undirected, so ``p`` is in row ``c`` exactly when ``c`` is in
    # row ``p``, and a row lists a neighbour's parallel edges together
    pos, row = kernels.gather_rows(g.adj_indptr, ctx)
    target = slot.take(g.adj_dst.take(pos))
    keep = (target >= 0).nonzero()[0]
    row, target = row[keep], target[keep]
    first = kernels.run_starts(row, target).nonzero()[0]
    row, target = row[first], target[first].astype(np.int64)
    sizes = np.bincount(target * n_val + value[row], minlength=targets.size * n_val).astype(np.int32)

    # each node's path concepts on its list: c3 always, as c4 is in its
    # row; c1 and c2 where a pair of an upper concept holds them, and c4
    # where a self-loop does
    concept = ctx[row]
    slot[upper] = -2  # the lookup table now marks the upper concepts: no pair reads it again
    few = ((slot.take(concept) == -2) | (concept == targets[target])).nonzero()[0]
    near = np.isin(lists, target[few]).nonzero()[0]  # the nodes whose list holds such a pair
    few = np.sort(target[few] * g.node_count + concept[few])
    slot[ctx] = value  # and then maps each context concept to its value index
    ends = paths[near][:, [0, 1, 3]]
    key = lists[near, None].astype(np.int64) * g.node_count + ends
    on = few[np.minimum(few.searchsorted(key), few.size - 1)] == key
    hits = np.full((4, len(paths)), n_val, dtype=np.int32)
    hits[0] = slot[paths[:, 2]]
    hits[np.ix_([1, 2, 3], near)] = np.where(on, slot[ends], n_val).T
    hits = hits[(hits < n_val).any(axis=1)]  # c3's row, and the others' where any list holds them
    count = np.minimum(cap, np.bincount(target, minlength=targets.size)[lists] - (hits < n_val).sum(axis=0))
    count, sizes, raw5 = count.astype(np.int32), sizes.reshape(-1, n_val), values / context_len
    del node, slot, pos, keep, row, target, first, concept, few, near, ends, key, on  # before the blocks run

    # by value, in blocks of 2**16 node-values: each node's list sizes less
    # its path concepts, cut to its count where the cap may cut (whole
    # values first), then its non-empty values, the largest first
    sum5, top5 = np.zeros(count.size), np.zeros(count.size)
    step = max((1 << 16) // n_val, 1)
    for lo in range(0, count.size, step):
        part_count, size = count[lo : lo + step], np.take(sizes, lists[lo : lo + step], axis=0)
        flat, base = size.reshape(-1), np.arange(0, size.size, n_val)
        for hit in hits[:, lo : lo + step]:  # a row at a time: two hits may share a value
            on = (hit < n_val).nonzero()[0]
            flat[base[on] + hit[on]] -= 1
        full = (part_count == cap).nonzero()[0]
        part = size[full]
        size[full] = np.minimum(part, np.maximum(part_count[full, None] - part.cumsum(axis=1) + part, 0))
        pos = (flat > 0).nonzero()[0]  # a bool array's nonzero is the fast one
        node, value = np.divmod(pos, n_val)
        size, run_raw = flat[pos], raw5[value]
        first = (np.diff(node, prepend=-1) > 0).nonzero()[0]
        best = np.zeros(part_count.size)
        best[node[first]] = run_raw[first]
        total = np.add.reduceat(size * np.exp(run_raw - best[node]), first)
        # the best child scores 1 / sum5; the second shares the first
        # value if that holds two children, else has the next value
        second = np.where(size[first] >= 2, first, np.minimum(first + 1, node.size - 1))
        top1, at = 1.0 / total, lo + node[first]
        top2 = np.where(count[at] >= 2, np.exp(run_raw[second] - run_raw[first]) / total, top1)
        # two children are their whole sibling group, so their mean is
        # exactly 1/2, however the CPU's ``np.exp`` rounds
        sum5[at], top5[at] = total, np.where(count[at] == 2, 0.5, (top1 + top2) / 2.0)
    return Level5(count, sum5, top5, cap, gp.context_counts, context_len, g)
