"""Retrieval evaluation (CMC curve, Rank-1, mAP) and PCA post-processing."""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .losses import InvalidInputError


@dataclass
class QueryGallerySplit:
    query_embeddings: np.ndarray
    query_labels: np.ndarray
    gallery_embeddings: np.ndarray
    gallery_labels: np.ndarray


@dataclass
class RetrievalMetrics:
    cmc: np.ndarray  # cmc[r] = fraction of queries with a hit within top r+1
    rank1: float
    map: float
    excluded_queries: int


# Bytes of float64 distance rows in flight at once, summed over all worker
# threads.  Each block holds a few arrays of its own size, so evaluation
# memory grows with the gallery, not with the number of queries.
BLOCK_BYTES = 8 << 20


def _cross_distances(a, b, b_sq=None):
    """Euclidean distances between the rows of a and b; b_sq, when given, is
    (b * b).sum(1), computed once for a gallery that many blocks share."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b_sq is None:
        b_sq = (b * b).sum(1)
    d2 = (a * a).sum(1)[:, None] + b_sq[None, :]
    d2 -= 2.0 * a @ b.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _query_blocks(n_query, n_gallery, workers=1):
    """Slices of query rows ranked together.

    Each block holds about BLOCK_BYTES / workers of distances, so the blocks
    that `workers` threads rank at once hold about BLOCK_BYTES together.  No
    block has one row unless there is one query: numpy computes a one-row
    product on its matrix-vector path, whose last bits differ from the same
    row of the full product; blocks of two or more rows match it exactly.
    """
    height = max(2, BLOCK_BYTES // (8 * max(n_gallery, 1) * workers))
    starts = list(range(0, n_query, height))
    if len(starts) > 1 and n_query - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [n_query])]


def _usable_cpus():
    """CPUs this process may run on; evaluate starts at most this many threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stable_ranks(dist, ranked, rows, cols):
    """0-based rank of dist[rows, cols] in its row, ties broken by column.

    That is its position in a stable argsort of the row.  In a row whose
    entries are all equal that order is the identity, so the rank is the
    column.  Elsewhere it is the count of entries below it, found by one
    binary search over the value-sorted rows for all pairs at once, plus the
    count of equal entries at lower columns.  Only rows where the next sorted
    entry equals a relevant distance need the second count; they read it off
    their own stable argsort, which costs O(G log G) a row however many
    items tie.
    """
    rank = cols.copy()
    varied = (ranked[:, :1] != ranked[:, -1:]).any(axis=1)  # slices: G may be 0
    search = np.flatnonzero(varied[rows])
    rows, cols = rows[search], cols[search]
    value = dist[rows, cols]
    n = ranked.shape[1]
    found = np.zeros(len(rows), dtype=np.intp)
    step = 1 << n.bit_length()
    while step := step >> 1:  # one halving step per pass
        cand = found + step
        found += step * ((cand <= n) & (ranked[rows, np.minimum(cand, n) - 1] < value))
    after = np.minimum(found + 1, n - 1)
    tied = np.flatnonzero((after > found) & (ranked[rows, after] == value))
    if tied.size:
        tied_rows, which = np.unique(rows[tied], return_inverse=True)
        order = np.argsort(dist[tied_rows], axis=1, kind="stable")
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(order.shape[1]), axis=1)
        found[tied] = position[which, cols[tied]]
    rank[search] = found
    return rank


def _rank_block(q, q_labels, lo, hi, g, g_sq, g_labels, order):
    """Rank the gallery for one block of queries.

    A query's candidate gallery columns are order[lo:hi], in ascending column
    order; those whose label equals the query's under ``==`` are relevant.
    Returns, for the block's queries that have a match, in query order, the
    rank of each one's first hit and its AP: arrays of at most one entry a
    query, so finished blocks hold no gallery-sized array.
    """
    n_gallery = len(g)
    dist = _cross_distances(q, g, g_sq)
    ranked = np.sort(dist, axis=1)
    if not np.isfinite(ranked[:, -1:]).all():
        raise InvalidInputError("query/gallery distances overflow float64")
    n_cand = hi - lo
    rows = np.repeat(np.arange(len(q)), n_cand)
    cols = order[np.arange(len(rows))
                 + np.repeat(lo - (np.cumsum(n_cand) - n_cand), n_cand)]
    hit = q_labels[rows] == g_labels[cols]
    rows, cols = rows[hit], cols[hit]
    # hits in (query, rank) order; i counts a query's hits from 1
    rows, rank = np.divmod(
        np.sort(rows * n_gallery + _stable_ranks(dist, ranked, rows, cols)),
        n_gallery)
    n_rel = np.bincount(rows, minlength=len(q))
    first = np.cumsum(n_rel) - n_rel
    i = np.arange(1, len(rows) + 1) - first[rows]
    valid = n_rel > 0
    precision = np.zeros(dist.shape)
    precision[rows, rank] = i / (rank + 1)
    return rank[first[valid]], precision.sum(axis=1)[valid] / n_rel[valid]


def _check_finite(x, side):
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{side} embedding row {bad[0]} is not finite")


def evaluate(split: QueryGallerySplit) -> RetrievalMetrics:
    """Rank the gallery per query by ascending distance and score CMC and mAP.

    AP uses precision-at-hit averaged over the relevant gallery items, those
    whose label equals the query's under ``==``.  Distance ties break by
    gallery index.  Queries with no relevant gallery item are excluded and
    tallied.

    Queries are ranked in blocks (see BLOCK_BYTES), each from a value-only
    sort of its distance rows.  The gallery's squared norms and a label
    index (a stable argsort of the gallery labels, and each query's range in
    it) are built once per call.  With more than one block, min(blocks,
    usable CPUs) threads rank the blocks, each under a copy of the caller's
    context, so the caller's ``np.errstate`` holds in them.  Results are
    combined in block order, so the metrics are bit-identical for any number
    of threads.  The first failing block's error is raised, after blocks not
    yet started are cancelled and every thread has finished.
    """
    q = np.asarray(split.query_embeddings, dtype=float)
    g = np.asarray(split.gallery_embeddings, dtype=float)
    if q.shape[1] != g.shape[1]:
        raise InvalidInputError("query/gallery dimension mismatch")
    _check_finite(q, "query")
    _check_finite(g, "gallery")
    q_labels = np.asarray(split.query_labels)
    g_labels = np.asarray(split.gallery_labels)
    if q_labels.shape != q.shape[:1] or g_labels.shape != g.shape[:1]:
        raise InvalidInputError("each query and gallery row needs one label")
    n_gallery = g.shape[0]
    g_sq = (g * g).sum(1)
    # The label index sorts both sides in one dtype.  Labels equal there
    # include every pair that `==` matches, and some it does not (NaN, str
    # against int, int64 against uint64 above 2**53), so each block keeps
    # only the candidate pairs that `==` matches.
    try:
        common = np.result_type(q_labels, g_labels)
    except TypeError:  # no common dtype, such as datetime and float: `==` is all False
        raise InvalidInputError("no query has a gallery match") from None
    by_label = g_labels.astype(common, copy=False)
    order = np.argsort(by_label, kind="stable")
    by_label = by_label[order]
    keys = q_labels.astype(common, copy=False)
    lo = np.searchsorted(by_label, keys, side="left")
    hi = np.searchsorted(by_label, keys, side="right")
    blocks = _query_blocks(len(q), n_gallery)
    workers = min(len(blocks), _usable_cpus())
    if workers > 1:
        blocks = _query_blocks(len(q), n_gallery, workers)
    jobs = [(q[b], q_labels[b], lo[b], hi[b], g, g_sq, g_labels, order)
            for b in blocks]
    if workers <= 1:
        results = [_rank_block(*job) for job in jobs]
    else:
        pool = ThreadPoolExecutor(workers)
        try:
            futures = [pool.submit(contextvars.copy_context().run, _rank_block, *job)
                       for job in jobs]
            results = [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    # per block, the first-hit ranks and APs of its queries with a match
    first_ranks = np.concatenate([np.zeros(0, np.intp)] + [r for r, _ in results])
    aps = np.concatenate([np.zeros(0)] + [a for _, a in results])
    n_valid = len(aps)
    if n_valid == 0:
        raise InvalidInputError("no query has a gallery match")
    first_hits = np.bincount(first_ranks, minlength=n_gallery)  # queries per rank
    cmc = np.cumsum(first_hits) / n_valid
    return RetrievalMetrics(cmc=cmc, rank1=float(cmc[0]), map=float(np.mean(aps)),
                            excluded_queries=len(q) - n_valid)


def metrics_csv_lines(metrics: RetrievalMetrics):
    """CSV rows (rank, cmc_value) followed by a one-line summary."""
    yield "rank,cmc"
    for r, v in enumerate(metrics.cmc, start=1):
        yield f"{r},{v:.17g}"
    yield (f"summary,rank1={metrics.rank1:.17g},map={metrics.map:.17g},"
           f"excluded_queries={metrics.excluded_queries}")


@dataclass
class PcaResult:
    projected: np.ndarray
    components: np.ndarray   # (e, target_dim), columns are principal directions
    mean: np.ndarray
    explained_variance: np.ndarray


def pca_reduce(embeddings, target_dim) -> PcaResult:
    """Mean-centered projection onto the top principal directions.

    Directions come in descending eigenvalue order; each is oriented so its
    largest-magnitude component is positive.
    """
    x = np.asarray(embeddings, dtype=float)
    n, e = x.shape
    if target_dim < 1 or target_dim > min(n, e):
        raise InvalidInputError(
            f"target_dim must lie in [1, {min(n, e)}], got {target_dim}")
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    idx = np.argsort(eigvals)[::-1][:target_dim]
    comps = eigvecs[:, idx]
    vals = eigvals[idx]
    pivots = np.argmax(np.abs(comps), axis=0)
    flip = comps[pivots, np.arange(target_dim)] < 0
    comps[:, flip] = -comps[:, flip]
    return PcaResult(projected=xc @ comps, components=comps, mean=mean,
                     explained_variance=vals)


def pca_apply(result: PcaResult, embeddings):
    return (np.asarray(embeddings, dtype=float) - result.mean) @ result.components
