"""Numeric kernels for walk counting, association scoring, and tree expansion.

Every kernel is vectorized numpy: work is done on whole arrays of rows at
once, never in a Python loop per node, parent or candidate.

The graph is one undirected CSR: ``indptr`` is int64 of length
``node_count + 1``, and row ``u`` of ``dst``/``rel`` holds one entry per
stored edge incident to ``u`` (a self-loop twice), sorted by
(neighbor, relation).  Summing ``x`` over row ``u`` is therefore the
``(A + A^T) x`` step of the direction-agnostic walk operator.

Expansion ranks each parent's candidates by (score desc, concept asc),
so a cap keeps a prefix, and gives each its edge count to the parent (the
length of its (concept, neighbor) run), the only count scoring needs.
Each distinct concept's list is ranked by one sort of a packed key and
cut to a limit before it is copied to its parents, so the copies number
at most ``parents * limit`` however long the rows are.
"""

from __future__ import annotations

import numpy as np

# Raw score assigned when a joint walk probability is zero; most-negative
# representable double so the node ranks last under any sibling softmax.
SCORE_SENTINEL = float(np.finfo(np.float64).min)

# walk vectors switch to exact Python integers above this total
_INT64_SAFE = float(1 << 62)


def gather_rows(indptr, rows):
    """Flat positions of every entry of ``rows``, and the row index of each."""
    # ndarray methods, not np.* wrappers: this runs for every tree level
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    ends = counts.cumsum()
    pos = np.arange(ends[-1] if ends.size else 0, dtype=np.int64) + (lo + counts - ends).repeat(counts)
    return pos, np.arange(rows.size, dtype=np.int64).repeat(counts)


def run_starts(a, b):
    """Mask of the sorted entries that differ from their predecessor in either key."""
    first = np.ones(a.size, dtype=np.bool_)
    first[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return first


def _row_sums(indptr, values):
    # row sums as differences of one running sum
    run = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=run[1:])
    return run[indptr[1:]] - run[indptr[:-1]]


# ---------------------------------------------------------------------------
# walk counting: v <- B v with B = A + A^T, multiplicity-weighted


def walk_totals(indptr, dst, degrees, k: int) -> list[int]:
    """Total numbers of 1- to k-edge walks, traversing stored edges in both
    directions, from one pass of ``k`` steps.

    ``degrees`` is ``np.diff(indptr)``.  Exact for any graph: once a step's
    total could leave int64 the walk vector is carried in Python integers.
    """
    degrees_f = degrees.astype(np.float64)
    v = np.ones(degrees.size, dtype=np.int64)
    totals = []
    for _ in range(k):
        # the next vector sums to degrees . v, and every entry and running
        # sum of a step is at most that
        if v.dtype != object and float(degrees_f @ v) >= _INT64_SAFE:
            v = v.astype(object)
        v = _row_sums(indptr, v[dst])
        totals.append(int(v.sum()))
    return totals


# ---------------------------------------------------------------------------
# distinct-neighbor counts (parallel edges collapsed)


def neighbor_counts(indptr, dst):
    """Distinct neighbors of every concept: the neighbor runs of each row."""
    # the run starts are summed in place in one int32 array; the sum may
    # wrap, but a row has fewer than 2**31 runs, so its difference is exact
    run = np.zeros(dst.size + 1, dtype=np.int32)
    starts = run[1:]
    np.not_equal(dst[1:], dst[:-1], out=starts[1:])
    # a row's first entry starts a run even if the previous row ends on it
    row_lo = indptr[:-1]
    starts[row_lo[row_lo < dst.size]] = 1
    np.cumsum(starts, out=starts)
    return (run[indptr[1:]] - run[indptr[:-1]]).astype(np.int64)


# ---------------------------------------------------------------------------
# normalized association scores for the outside-knowledge hop


def association_scores(nbh_counts, prefix, hop, c4s, walks3, walks4, node_count):
    """Normalized pointwise-mutual-information scores for candidate fourth hops.

    ``prefix``/``hop`` hold each hop's c1-c2-c3 walk count and c3-c4 edge
    count, aligned with ``c4s``; expansion finds both.
    ``walks3``/``walks4`` are the global totals of 3-node and 4-node walks.
    Returns float64 scores; a zero joint count yields ``SCORE_SENTINEL`` and a
    joint count equal to the global total yields +1 by convention.
    """
    seq = prefix * hop
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = seq / walks4
        p_prefix = prefix / walks3
        p_hop = nbh_counts[c4s] / node_count
        pmi = np.log(joint / (p_hop * p_prefix))
        scores = pmi / (-np.log(joint))
    return np.where(seq == 0, SCORE_SENTINEL, np.where(seq == walks4, 1.0, scores))


# ---------------------------------------------------------------------------
# candidate expansion: deduplicated neighbors per parent node


def expand_candidates(parents, ancestors, indptr, dst, rel, allowed, scores, limit):
    """Per-parent deduplicated neighbors with their minimal relation and edge count.

    ``ancestors`` is (len(parents), depth) int32, padded with -1; candidates
    appearing there are excluded, as are concepts where ``allowed`` is False
    or zero (``None`` keeps every concept).  ``scores`` holds a non-negative
    integer rank score per concept.  Each concept's ranked list is cut to
    its first ``limit`` entries before the ancestors are dropped, so a
    parent gets at most ``limit`` candidates, and the copies to parents
    take memory in the output's size, not the rows'.
    Returns (flat candidates, (flat min relation ids, flat edge counts),
    offsets of len parents+1), a self-loop counting two edges; each
    parent's slice is sorted by (score desc, concept asc).  The first
    three are int32 and the offsets int64, also when no row entry passes
    the filter: then nothing is ranked or copied, and the offsets are
    all zero.
    """
    # a concept recurs as parent under many branches: expand each once
    concepts, inverse = np.unique(np.asarray(parents, dtype=np.int64), return_inverse=True)
    pos, seg = gather_rows(indptr, concepts)
    if allowed is not None:
        # filter first: every later array is built over the kept rows only
        keep = (allowed[dst[pos]] != 0).nonzero()[0]  # a bool array's nonzero is the fast one
        pos, seg = pos[keep], seg[keep]
    if not pos.size:
        # nothing to rank or copy: most short requests' roots end here
        empty = np.zeros(0, dtype=np.int32)
        return empty, (empty, empty), np.zeros(inverse.size + 1, dtype=np.int64)
    nbr, rel = dst[pos], rel[pos]

    # rows are sorted by (neighbor, relation): the first entry of each
    # (concept, neighbor) run carries the minimal relation, and its length
    # is the pair's edge count (``allowed`` keeps or drops whole runs)
    first = run_starts(seg, nbr).nonzero()[0]
    mult = np.empty(first.size, dtype=np.int32)
    np.subtract(first[1:], first[:-1], out=mult[:-1])
    mult[-1] = seg.size - first[-1]
    seg, nbr, rel = seg[first], nbr[first], rel[first]
    # rank each expanded concept's list once by (list, score desc,
    # position): positions follow neighbor ids within a list, so the key
    # is unique and one unstable sort of it leaves ties in id order
    score = scores[nbr]
    top, bits = int(score.max()), first.size.bit_length()
    if first.size > 256 and (concepts.size * (top + 1)) << bits <= 1 << 63:
        rank = (seg * (top + 1) + (top - score)) << bits | np.arange(first.size)
        order = np.sort(rank) & ((1 << bits) - 1)
    else:  # too few to gain from packing, or too wide: a stable sort of the keys
        order = np.lexsort((top - score, seg))
    # then keep each list's first ``limit`` entries
    sizes = np.bincount(seg, minlength=concepts.size)
    order = order[np.arange(order.size) - (sizes.cumsum() - sizes).repeat(sizes) < limit]
    nbr, rel, mult = nbr[order], rel[order], mult[order]
    concept_offsets = np.zeros(concepts.size + 1, dtype=np.int64)
    np.minimum(sizes, limit).cumsum(out=concept_offsets[1:])

    # copy each concept's list to its parents, then drop the parent's
    # ancestors; dropping keeps the rank order
    pos, seg = gather_rows(concept_offsets, inverse)
    nbr, rel, mult = nbr[pos], rel[pos], mult[pos]
    keep = np.ones(nbr.size, dtype=np.bool_)
    for column in ancestors.T:  # one column at a time bounds the temporaries
        keep &= column[seg] != nbr
    offsets = np.zeros(inverse.size + 1, dtype=np.int64)
    np.bincount(seg[keep], minlength=inverse.size).cumsum(out=offsets[1:])
    return nbr[keep].astype(np.int32, copy=False), (rel[keep].astype(np.int32, copy=False), mult[keep]), offsets

