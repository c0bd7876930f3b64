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
node: :class:`Level5` ranks each distinct level-4 concept's context
neighbours once, and keeps per level-4 node only what scoring and
selection read (its child count and its children's context counts, with
how many children have each).  :meth:`PathTree.level5_children` re-grows
the children of one node from the same lists.
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
    """The level-5 children of a forest's level-4 nodes, summarized.

    ``concepts``/``rels`` hold each distinct level-4 concept's context
    neighbours with their minimal relation, ranked by (context count desc,
    concept asc).  Level-4 node ``i`` (the ``i``-th of its level) keeps the
    first ``count[i]`` entries from ``start[i]`` on that are not on its
    root-first path ``paths[i]``.  Their context counts, descending, form
    runs: ``run_pos`` is the flat position of a run's first entry and
    ``run_size`` its number of kept children; node ``i``'s runs are
    ``run_bounds[i]:run_bounds[i + 1]``.
    """

    concepts: np.ndarray
    rels: np.ndarray
    paths: np.ndarray
    start: np.ndarray
    count: np.ndarray
    run_pos: np.ndarray
    run_size: np.ndarray
    run_bounds: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=8)  # most forests have no level 4: share one
    def none(cls, n4: int) -> "Level5":
        """No level-5 child under any of ``n4`` level-4 nodes."""
        zeros, empty = np.zeros(n4, dtype=np.int64), np.zeros(0, dtype=np.int64)
        paths, bounds = np.zeros((n4, 4), dtype=np.int32), np.zeros(n4 + 1, dtype=np.int64)
        for shared in (zeros, empty, paths, bounds):
            shared.flags.writeable = False
        return cls(empty, empty, paths, zeros, zeros, empty, empty, bounds)


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

    def root_of(self) -> np.ndarray:
        """Index of the root above every node (a root's own index)."""
        out = np.arange(self.node_count, dtype=np.int64)
        # parents sit one level up, so resolving the levels in order
        # needs one gather each
        for level in range(2, MAX_LEVEL + 1):
            idx = self.level_indices(level)
            out[idx] = out[self.parents[idx]]
        return out

    def sizes(self) -> np.ndarray:
        """Nodes of each root's tree, level 5 included."""
        root = self.root_of()
        k, kept = self.root_count, self.level5.count
        return np.bincount(root, minlength=k) + np.bincount(root[self.first4 :], kept, k).astype(np.int64)

    @property
    def node_count(self) -> int:
        """Nodes of levels 1-4, the ones held in the arrays."""
        return int(self.concepts.size)

    def level_indices(self, level: int) -> np.ndarray:
        if not 1 <= level <= MAX_LEVEL:
            raise ValueError(f"level {level} out of range 1..{MAX_LEVEL}")
        return np.flatnonzero(self.levels == level)

    def level5_children(self, idx: int) -> np.ndarray:
        """Positions in ``level5.concepts``/``rels`` of node ``idx``'s kept
        level-5 children, best first; none unless ``idx`` is at level 4."""
        l5, i = self.level5, idx - self.first4
        if self.levels[idx] != 4:
            return np.zeros(0, dtype=np.int64)
        # the kept children lie among the first ``count`` + 4 entries: at
        # most the four path concepts are skipped
        pos = np.arange(l5.start[i], min(l5.start[i] + l5.count[i] + 4, l5.concepts.size))
        return pos[(l5.concepts[pos, None] != l5.paths[i]).all(axis=1)][: l5.count[i]]


def build_tree(
    roots: Sequence[int], gp: GroundedPair, g: KnowledgeGraph, cfg: BuildConfig = BuildConfig()
) -> PathTree:
    """Grow the candidate forest of the given query concepts, one tree each
    in the order given.

    Candidate children beyond ``max_children_per_node`` are dropped by
    context term-frequency rank (graph degree at the unconstrained level),
    ties broken toward lower concept ids.
    """
    roots = [int(c) for c in roots]
    if not roots:
        raise ValueError("a forest needs at least one root concept")
    for c1 in roots:
        g._check_concept(c1)
        if c1 not in gp.query_concepts:
            raise ValueError("root concept is not one of the query concepts")

    ctx_counts = gp.context_mentions.dense_counts(g.node_count)

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
        # a parent drops at most the four concepts of its path from its
        # concept's ranked list, so its kept children are among the first
        # ``cap + 4``
        cand, (minrel, mult), offsets = kernels.expand_candidates(
            frontier, ancestors, g.adj_indptr, g.adj_dst, g.adj_rel, allowed, scores, cap + 4
        )
        if not cand.size:
            break
        sizes = np.diff(offsets)
        seg = np.arange(sizes.size, dtype=np.int64).repeat(sizes)
        # each parent's slice arrives ranked by (score desc, concept asc),
        # so the cap keeps its first positions
        if sizes.max() > cap:
            kept = np.arange(cand.size) - offsets[seg] < cap
            cand, minrel, mult, seg = cand[kept], minrel[kept], mult[kept], seg[kept]

        concepts.append(cand)
        parents.append(frontier_idx[seg])
        rels.append(minrel)
        mults.append(mult)
        levels.append(np.full(cand.size, level, dtype=np.int8))

        new_anc = np.full((cand.size, 4), -1, dtype=np.int32)
        new_anc[:, : level - 1] = ancestors[seg, : level - 1]
        new_anc[:, level - 1] = cand
        ancestors = new_anc
        frontier = cand
        frontier_idx = np.arange(next_index, next_index + cand.size, dtype=np.int64)
        next_index += cand.size

    level5 = None
    if len(concepts) == 4:  # the frontier is level 4, and ``ancestors`` its paths
        upper = np.concatenate(concepts[:2])
        level5 = _level5(ancestors, upper, gp.context_mentions.mentions, g, cap)
    return PathTree(
        np.concatenate(concepts),
        np.concatenate(parents),
        np.concatenate(rels),
        np.concatenate(mults),
        np.concatenate(levels),
        level5,
    )


def _level5(paths, upper, mentions: dict[int, int], g: KnowledgeGraph, cap: int) -> Level5:
    """Summarize the level-5 children of the level-4 nodes whose root-first
    paths are the rows of ``paths``; ``upper`` holds the level-1 and
    level-2 concepts."""
    ctx = np.fromiter(mentions, dtype=np.int64, count=len(mentions))
    tf = np.fromiter(mentions.values(), dtype=np.int64, count=len(mentions))
    order = np.lexsort((ctx, -tf))  # rank: (context count desc, concept asc)
    ctx, tf, n_ctx = ctx[order], tf[order], len(order)

    slot = np.full(g.node_count, -1, dtype=np.int32)
    slot[paths[:, 3]] = 0
    targets = np.flatnonzero(slot == 0)
    slot[targets] = np.arange(targets.size, dtype=np.int32)
    key, rels = kernels.context_lists(g.adj_indptr, g.adj_dst, g.adj_rel, ctx, slot)
    owner, rank = np.divmod(key, n_ctx)
    bounds = np.zeros(targets.size + 1, dtype=np.int64)
    np.bincount(owner, minlength=targets.size).cumsum(out=bounds[1:])
    lists = slot[paths[:, 3]]
    start, length = bounds[lists], bounds[lists + 1] - bounds[lists]

    # the ranks of each node's ancestors that are on its list (n_ctx
    # elsewhere): c3 always, as c4 is in its row; c1, c2 and c4 only among
    # the entries that are a level-1 or level-2 concept or the list's own
    # (a self-loop), which a node scans instead of searching its list
    ranks = slot  # the lookup table, cleared, now maps context concepts
    ranks[targets] = -1
    ranks[ctx] = np.arange(n_ctx, dtype=np.int32)
    anc = ranks[paths]
    few = np.zeros(n_ctx + 1, dtype=np.bool_)
    few[ranks[upper]] = True
    few = np.flatnonzero(few[rank] | (ctx[rank] == targets[owner]))
    few_bounds = np.zeros(targets.size + 1, dtype=np.int64)
    np.bincount(owner[few], minlength=targets.size).cumsum(out=few_bounds[1:])
    pos, seg = kernels.gather_rows(few_bounds, lists)
    found = rank[few[pos]]
    hits = np.full(anc.shape, n_ctx, dtype=np.int32)
    hits[:, 2] = anc[:, 2]
    drop = np.ones(len(paths), dtype=np.int64)
    for j in (0, 1, 3):
        on = seg[found == anc[seg, j]]
        hits[on, j] = anc[on, j]
        drop[on] += 1
    count = np.minimum(cap, length - drop)

    # a capped node keeps the first ``count`` entries off its path: walk
    # its hits in rank order, each one inside the window widening it by one
    window = length.copy()
    capped = np.flatnonzero(count < length - drop)
    if capped.size:
        part, w, size = np.sort(hits[capped], axis=1), count[capped], length[capped]
        for j in range(4):
            at = rank[np.minimum(start[capped] + w, rank.size - 1)]
            part[(w < size) & (at <= part[:, j]), j] = n_ctx
            w += part[:, j] < n_ctx
        window[capped], hits[capped] = w, part

    # each node's runs of equal context count within its window, less the
    # hits inside it; a run past the window ends up empty
    values = tf[rank]
    new = np.ones(rank.size, dtype=np.bool_)
    new[1:] = values[1:] != values[:-1]
    new[bounds[:-1]] = True
    run_start = np.flatnonzero(new)
    run_bounds = np.zeros(targets.size + 1, dtype=np.int64)
    np.bincount(owner[run_start], minlength=targets.size).cumsum(out=run_bounds[1:])
    pos, seg = kernels.gather_rows(run_bounds, lists)
    first = run_start[pos]
    size = np.minimum(np.append(run_start[1:], rank.size)[pos], (start + window)[seg]) - first
    run_tf, hit_tf = values[first], np.append(tf, 0)[hits]  # a context count is never 0
    for j in range(4):
        size -= hit_tf[seg, j] == run_tf
    kept = size > 0
    run_bounds = np.zeros(len(paths) + 1, dtype=np.int64)
    np.bincount(seg[kept], minlength=len(paths)).cumsum(out=run_bounds[1:])
    return Level5(ctx[rank].astype(np.int32), rels, paths, start, count, first[kept], size[kept], run_bounds)
