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
    """Each row's sum of ``values``, in their dtype.  ``values`` becomes its
    running sum in place; an unsigned one may wrap, but a row's sum is the
    difference of two of its entries, so it is exact when it fits."""
    np.cumsum(values, out=values)
    ends = values[indptr[1:] - 1]
    ends[indptr[1:] == 0] = 0  # the rows before the first entry
    return np.diff(ends, prepend=ends.dtype.type(0))


# ---------------------------------------------------------------------------
# walk counting: v_j = B^j 1 with B = A + A^T, multiplicity-weighted


def walk_totals(indptr, dst, degrees, k: int) -> list[int]:
    """Total numbers of 1- to k-edge walks, traversing stored edges in both
    directions.

    With v_j = B^j 1, ``B`` symmetric, walks of 2m edges total v_m . v_m
    and walks of 2m+1 edges v_m . v_(m+1).  v_1 is ``degrees``
    (``np.diff(indptr)``), so k = 3 and 4 take one pass over the CSR.
    Exact for any graph: a vector or a total that could leave int64 is
    carried in Python integers.
    """
    vectors = [np.ones(degrees.size, dtype=np.int64), degrees]
    top = int(degrees.max(initial=0))
    while len(vectors) <= (k + 1) // 2:
        vectors.append(_walk_step(indptr, dst, vectors[-1], top))
    return [_dot(vectors[j // 2], vectors[(j + 1) // 2]) for j in range(1, k + 1)]


def _walk_step(indptr, dst, v, top_degree):
    """B v, from one gather of ``v`` at the narrowest width that holds
    every row's sum (at most ``top_degree`` times the largest entry)."""
    bound = top_degree * int(v.max(initial=0))
    if not bound:
        return np.zeros(v.size, dtype=np.int64)
    if bound >= 1 << 63:
        return _row_sums(indptr, v.astype(object)[dst])
    return _row_sums(indptr, v.astype(np.min_scalar_type(bound))[dst]).astype(np.int64)


def _dot(a, b) -> int:
    """a . b of two non-negative vectors, in Python integers when it could
    leave int64."""
    if a.dtype == object or b.dtype == object or float(a.astype(np.float64) @ b.astype(np.float64)) >= 1 << 62:
        return int(a.astype(object) @ b.astype(object))
    return int(a @ b)


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

