"""Retrieval evaluation (CMC curve, Rank-1, mAP) and PCA post-processing."""

from __future__ import annotations

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


# Bytes of one (query block x gallery) float64 array.  Ranking holds a few
# such arrays at once, so evaluation memory grows with the gallery, not with
# the number of queries.
BLOCK_BYTES = 8 << 20


def _cross_distances(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :]
    d2 -= 2.0 * a @ b.T
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2, out=d2)


def _query_blocks(n_query, n_gallery):
    """Slices of query rows ranked together, about BLOCK_BYTES of distances each.

    No block has one row unless there is one query: numpy computes a one-row
    product on its matrix-vector path, whose last bits differ from the same
    row of the full product; blocks of two or more rows match it exactly.
    """
    height = max(2, BLOCK_BYTES // (8 * max(n_gallery, 1)))
    starts = list(range(0, n_query, height))
    if len(starts) > 1 and n_query - starts[-1] == 1:
        starts.pop()
    return [slice(s, e) for s, e in zip(starts, starts[1:] + [n_query])]


def _stable_ranks(dist, ranked, rows, cols):
    """0-based rank of dist[rows, cols] in its row, ties broken by column.

    That is its position in a stable argsort of the row: the count of
    entries below it, found by one binary search over the value-sorted rows
    for all pairs at once, plus the count of equal entries at lower columns.
    Only rows where the next sorted entry equals a relevant distance need
    the second count; they read it off their own stable argsort, which
    costs O(G log G) a row however many items tie.
    """
    value = dist[rows, cols]
    n = ranked.shape[1]
    rank = np.zeros(len(rows), dtype=np.intp)
    step = 1 << n.bit_length()
    while step := step >> 1:  # one halving step per pass
        cand = rank + step
        rank += step * ((cand <= n) & (ranked[rows, np.minimum(cand, n) - 1] < value))
    after = np.minimum(rank + 1, n - 1)
    tied = np.flatnonzero((after > rank) & (ranked[rows, after] == value))
    if tied.size:
        tied_rows, which = np.unique(rows[tied], return_inverse=True)
        order = np.argsort(dist[tied_rows], axis=1, kind="stable")
        position = np.empty_like(order)
        np.put_along_axis(position, order, np.arange(order.shape[1]), axis=1)
        rank[tied] = position[which, cols[tied]]
    return rank


def _check_finite(x, side):
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise InvalidInputError(f"{side} embedding row {bad[0]} is not finite")


def evaluate(split: QueryGallerySplit) -> RetrievalMetrics:
    """Rank the gallery per query by ascending distance and score CMC and mAP.

    AP uses precision-at-hit averaged over the relevant gallery items.
    Distance ties break by gallery index.  Queries whose label never occurs
    in the gallery are excluded and tallied.  Queries are ranked in blocks
    (see BLOCK_BYTES), each from a value-only sort of its distance rows.
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
    first_hits = np.zeros(n_gallery, dtype=np.int64)  # queries per first-hit rank
    aps = [np.zeros(0)]  # per block, the APs of its queries with a match
    for block in _query_blocks(len(q), n_gallery):
        dist = _cross_distances(q[block], g)
        ranked = np.sort(dist, axis=1)
        if not np.isfinite(ranked[:, -1:]).all():
            raise InvalidInputError("query/gallery distances overflow float64")
        rows, cols = np.nonzero(q_labels[block, None] == g_labels[None, :])
        # hits in (query, rank) order; i counts a query's hits from 1
        rows, rank = np.divmod(
            np.sort(rows * n_gallery + _stable_ranks(dist, ranked, rows, cols)),
            n_gallery)
        n_rel = np.bincount(rows, minlength=len(dist))
        first = np.cumsum(n_rel) - n_rel
        i = np.arange(1, len(rows) + 1) - first[rows]
        valid = n_rel > 0
        first_hits += np.bincount(rank[first[valid]], minlength=n_gallery)
        precision = np.zeros(dist.shape)
        precision[rows, rank] = i / (rank + 1)
        aps.append(precision.sum(axis=1)[valid] / n_rel[valid])
    aps = np.concatenate(aps)
    n_valid = len(aps)
    if n_valid == 0:
        raise InvalidInputError("no query has a gallery match")
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
