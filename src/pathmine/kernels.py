"""Numeric kernels for walk counting, association scoring, and tree expansion.

Every kernel is vectorized numpy: work is done on whole arrays of rows at
once, never in a Python loop per node, parent or candidate.

Graph rows are CSR-style: ``indptr`` is int64 of length ``node_count + 1``
and the per-row destination arrays are sorted by (destination, relation),
with one entry per stored edge (parallel edges repeat the destination).
The reverse CSR's row ``u`` lists the sources of the edges ending at ``u``,
so the stored edges from ``b`` to ``a`` are the entries ``b`` of ``a``'s
reverse row.
"""

from __future__ import annotations

import numpy as np

# Raw score assigned when a joint walk probability is zero; most-negative
# representable double so the node ranks last under any sibling softmax.
SCORE_SENTINEL = float(np.finfo(np.float64).min)

# walk vectors switch to exact Python integers above this total
_INT64_SAFE = float(1 << 62)


def _gather_rows(indptr, rows):
    """Flat positions of every entry of ``rows``, and the row index of each."""
    # ndarray methods, not np.* wrappers: this runs for every tree level
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    ends = counts.cumsum()
    pos = np.arange(ends[-1] if ends.size else 0, dtype=np.int64) + (lo + counts - ends).repeat(counts)
    return pos, np.arange(rows.size, dtype=np.int64).repeat(counts)


def _run_starts(*keys):
    """Mask of the sorted entries that differ from their predecessor in any key."""
    first = np.ones(keys[0].size, dtype=np.bool_)
    first[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return first


def _multiplicity(fwd_indptr, fwd_dst, rev_indptr, rev_dst, a, bs):
    """Stored edges between ``a`` and each of ``bs``, both orientations."""
    total = 0
    for indptr, dst in ((fwd_indptr, fwd_dst), (rev_indptr, rev_dst)):
        row = dst[indptr[a] : indptr[a + 1]]
        total = total + row.searchsorted(bs, side="right") - row.searchsorted(bs, side="left")
    return total


def pair_multiplicity(fwd_indptr, fwd_dst, rev_indptr, rev_dst, a, b) -> int:
    """Stored edges between a and b in either orientation (parallel counted)."""
    return int(_multiplicity(fwd_indptr, fwd_dst, rev_indptr, rev_dst, a, b))


# ---------------------------------------------------------------------------
# walk counting: v <- B v with B = A + A^T, multiplicity-weighted


def _walk_step(indptr, cols, x):
    # row sums of x[cols] as differences of one running sum
    run = np.zeros(cols.size + 1, dtype=x.dtype)
    np.cumsum(x[cols], out=run[1:])
    return run[indptr[1:]] - run[indptr[:-1]]


def walk_totals(fwd_indptr, fwd_cols, rev_indptr, rev_cols, node_count: int, k: int) -> int:
    """Total number of k-edge walks, traversing stored edges in both directions.

    Exact for any graph: once a step's total could leave int64 the walk
    vector is carried in Python integers.
    """
    degree = (np.diff(fwd_indptr) + np.diff(rev_indptr)).astype(np.float64)
    v = np.ones(node_count, dtype=np.int64)
    for _ in range(k):
        # the next vector sums to degree . v, and every entry and running
        # sum of a step is at most that
        if v.dtype != object and float(degree @ v) >= _INT64_SAFE:
            v = v.astype(object)
        v = _walk_step(fwd_indptr, fwd_cols, v) + _walk_step(rev_indptr, rev_cols, v)
    return int(v.sum())


# ---------------------------------------------------------------------------
# distinct-neighbor counts (both orientations, parallel edges collapsed)


def neighbor_counts(fwd_indptr, fwd_dst, rev_indptr, rev_dst, node_count: int):
    """Distinct neighbours of every concept over both orientations."""
    n = np.int64(node_count)
    src = np.arange(node_count, dtype=np.int64)
    keys = np.concatenate(
        [
            np.repeat(src * n, np.diff(fwd_indptr)) + fwd_dst,
            np.repeat(src * n, np.diff(rev_indptr)) + rev_dst,
        ]
    )
    keys.sort()
    return np.bincount(keys[_run_starts(keys)] // n, minlength=node_count)


# ---------------------------------------------------------------------------
# normalized association scores for the outside-knowledge hop


def association_scores(
    fwd_indptr, fwd_dst, rev_indptr, rev_dst, nbh_counts, c1, c2, c3, c4s, walks3, walks4, node_count
):
    """Normalized pointwise-mutual-information scores for candidate fourth hops.

    ``walks3``/``walks4`` are the global totals of 3-node and 4-node walks.
    Returns float64 scores; a zero joint count yields ``SCORE_SENTINEL`` and a
    joint count equal to the global total yields +1 by convention.
    """
    csr = (fwd_indptr, fwd_dst, rev_indptr, rev_dst)
    c4s = np.asarray(c4s, dtype=np.int32)
    base = _multiplicity(*csr, c1, c2) * _multiplicity(*csr, c2, c3)
    seq = base * _multiplicity(*csr, c3, c4s)
    with np.errstate(divide="ignore", invalid="ignore"):
        joint = seq / walks4
        p_prefix = base / walks3
        p_hop = nbh_counts[c4s] / node_count
        pmi = np.log(joint / (p_hop * p_prefix))
        scores = pmi / (-np.log(joint))
    return np.where(seq == 0, SCORE_SENTINEL, np.where(seq == walks4, 1.0, scores))


# ---------------------------------------------------------------------------
# candidate expansion: merged, deduplicated neighbors per parent node


def expand_candidates(parents, ancestors, fwd_indptr, fwd_dst, fwd_rel, rev_indptr, rev_dst, rev_rel, allowed):
    """Per-parent deduplicated neighbor concepts with their minimal relation id.

    ``ancestors`` is (len(parents), depth) int32, padded with -1; candidates
    appearing there are excluded, as are concepts where ``allowed`` is False.
    Returns (flat candidates, flat min relation ids, offsets of len parents+1);
    each parent's slice is sorted by concept id.
    """
    # a concept recurs as parent under many branches: expand each once
    concepts, inverse = np.unique(np.asarray(parents, dtype=np.int64), return_inverse=True)
    segs, nbrs, rels = [], [], []
    for indptr, dst, rel in ((fwd_indptr, fwd_dst, fwd_rel), (rev_indptr, rev_dst, rev_rel)):
        pos, seg = _gather_rows(indptr, concepts)
        # filter first: every later array is built over the kept rows only
        keep = allowed[dst[pos]].nonzero()[0]
        pos, seg = pos[keep], seg[keep]
        segs.append(seg)
        nbrs.append(dst[pos])
        rels.append(rel[pos])
    seg = np.concatenate(segs)
    nbr = np.concatenate(nbrs)
    rel = np.concatenate(rels)

    # the first entry of each (concept, neighbor) run carries the minimal relation
    order = np.lexsort((rel, nbr, seg))
    seg, nbr, rel = seg[order], nbr[order], rel[order]
    first = _run_starts(seg, nbr)
    seg, nbr, rel = seg[first], nbr[first], rel[first]
    concept_offsets = np.zeros(concepts.size + 1, dtype=np.int64)
    np.bincount(seg, minlength=concepts.size).cumsum(out=concept_offsets[1:])

    # copy each concept's list to its parents, then drop the parent's ancestors
    pos, seg = _gather_rows(concept_offsets, inverse)
    nbr, rel = nbr[pos], rel[pos]
    keep = np.ones(nbr.size, dtype=np.bool_)
    for column in ancestors.T:  # one column at a time bounds the temporaries
        keep &= column[seg] != nbr
    offsets = np.zeros(inverse.size + 1, dtype=np.int64)
    np.bincount(seg[keep], minlength=inverse.size).cumsum(out=offsets[1:])
    return nbr[keep].astype(np.int32, copy=False), rel[keep].astype(np.int32, copy=False), offsets
