"""Retrieval evaluation (CMC curve, Rank-1, mAP) and PCA post-processing."""

from __future__ import annotations

import contextvars
import os
import threading
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
# threads.  Each worker ranks its block inside two arrays of the block's
# size, so evaluation memory grows with the gallery, not with the number of
# queries.
BLOCK_BYTES = 8 << 20
# Squared distances scanned at once for flagged pairs: 512 KiB, under a block.
TIE_ENTRIES = 1 << 16


def _squared_distances(a, b, b_sq=None, out=None, work=None):
    """|a|^2 + |b|^2 - 2a b^T, the squared distances between the rows of a
    and b (some may round below 0); b_sq is (b * b).sum(1), which blocks
    share.  out and work are (len(a), len(b)) float64 arrays that take the
    result and 2a b^T: the same float operations as without them."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b_sq is None:
        b_sq = (b * b).sum(1)
    d2 = np.add((a * a).sum(1)[:, None], b_sq[None, :], out=out)
    d2 -= np.matmul(2.0 * a, b.T, out=work)
    return d2


def _root(d2):
    return np.sqrt(np.maximum(d2, 0.0))


def _reach(v):
    """The least float64 x with _root(x) >= v, for each v >= 0; -inf at 0."""
    with np.errstate(over="ignore", under="ignore"):
        x = np.where(v > 0, v * v, -np.inf)  # within an ulp or two of it
    while (up := _root(x) < v).any():
        x[up] = np.nextafter(x[up], np.inf)
    while (down := (v > 0) & (_root(np.nextafter(x, -np.inf)) >= v)).any():
        x[down] = np.nextafter(x[down], -np.inf)
    return x


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
    """CPUs this process may run on; evaluate ranks on at most this many
    threads, the calling thread among them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _stable_ranks(d2, keys, key, rows, cols):
    """0-based rank of the distance _root(d2[rows, cols]) in its row, ties
    broken by column, from d2 rounded to float32: each row's keys, sorted,
    and each pair's key.

    Both roundings are monotone, and positive d2 with equal roots lie within
    4 float64 ulps, so their keys are equal or one float32 step apart.  A
    pair with a positive key that no other key in its row equals or sits a
    step from thus ranks by the count of keys below it, one binary search
    for all pairs at once.  The rest are flagged: on a row whose d2 are all
    equal, the rank is the column; elsewhere it counts the row's d2 below
    the least x where _root(x) reaches the pair's distance v from its column
    on, or nextafter(v) before it, in chunks of max(1, TIE_ENTRIES // n) rows.
    """
    n = size = keys.shape[1]
    found = np.zeros(len(rows), dtype=np.intp)
    while size > 1:  # found + size <= n; the count lies in [found, found + size]
        half = size // 2
        found += half * (keys[rows, found + half] < key)
        size -= half
    found += keys[rows, found] < key
    lower = keys[rows, np.maximum(found - 1, 0)] >= np.nextafter(key, -np.inf)
    upper = keys[rows, np.minimum(found + 1, n - 1)] <= np.nextafter(key, np.inf)
    flagged = np.flatnonzero((key <= 0) | (found > 0) & lower | (found + 1 < n) & upper)
    if flagged.size and (keys[:, 0] == keys[:, -1]).any():
        same = (d2.min(axis=1) == d2.max(axis=1))[rows[flagged]]
        found[flagged[same]] = cols[flagged[same]]
        flagged = flagged[~same]
    if not flagged.size:
        return found
    v = _root(d2[rows[flagged], cols[flagged]])
    below, tied = _reach(v), _reach(np.nextafter(v, np.inf))
    chunk = max(1, TIE_ENTRIES // n)
    # row n - c of before is True at the columns before c
    before = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) < n, n)
    for i in range(0, len(flagged), chunk):
        t, p = slice(i, i + chunk), flagged[i:i + chunk]
        x = d2[rows[p]]
        count = x < tied[t, None]  # in place: more temporaries doubled the time
        count &= before[n - cols[p]]
        count |= x < below[t, None]
        found[p] = count.view(np.uint8).sum(axis=1, dtype=np.int32)
    return found


def _rank_block(q, q_labels, lo, hi, g, g_sq, g_labels, order, pair):
    """Rank the gallery for one block of queries.

    A query's candidate gallery columns are order[lo:hi], in ascending column
    order; those whose label equals the query's under ``==`` are relevant.
    The block ranks inside `pair`, its worker's two (rows, gallery) float64
    arrays, at least as high as the block: one takes the squared distances,
    the other 2q g^T, then the float32 keys in its first half, then the AP
    precision rows.  Returns, for the block's queries that have a match, in
    query order, the rank of each one's first hit and its AP, so finished
    blocks hold no gallery-sized array.
    """
    n_gallery = len(g)
    d2, work = (buf[:len(q)] for buf in pair)
    _squared_distances(q, g, g_sq, out=d2, work=work)
    keys = work.reshape(-1).view(np.float32)[:d2.size].reshape(d2.shape)
    with np.errstate(over="ignore", under="ignore"):  # to inf or 0 past float32
        keys[...] = d2
    n_cand = hi - lo
    rows = np.repeat(np.arange(len(q)), n_cand)
    cols = order[np.arange(len(rows))
                 + np.repeat(lo - (np.cumsum(n_cand) - n_cand), n_cand)]
    hit = q_labels[rows] == g_labels[cols]
    rows, cols = rows[hit], cols[hit]
    key = keys[rows, cols]
    keys.sort(axis=1)
    # a NaN or inf d2 sorts its key last, as a large finite d2 may
    if not np.isfinite(keys[:, -1:]).all() and not (d2 < np.inf).all():
        raise InvalidInputError("query/gallery distances overflow float64")
    # hits in (query, rank) order; i counts a query's hits from 1
    rows, rank = np.divmod(
        np.sort(rows * n_gallery + _stable_ranks(d2, keys, key, rows, cols)),
        n_gallery)
    n_rel = np.bincount(rows, minlength=len(q))
    first = np.cumsum(n_rel) - n_rel
    i = np.arange(1, len(rows) + 1) - first[rows]
    valid = n_rel > 0
    precision = work  # the keys are no longer read
    precision.fill(0.0)
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

    Queries are ranked in blocks (see BLOCK_BYTES) on float32 keys of their
    squared distances (see _stable_ranks).  The gallery's squared norms and
    a label index (a stable argsort of the gallery labels, and each query's
    range in it) are built once per call.  min(blocks, usable CPUs) workers,
    at least one, rank the blocks: the calling thread and, for each other
    worker, a thread it starts under a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too; a single block starts no
    thread.  Each worker takes the next block index from one shared iterator
    and ranks it inside its own pair of block-sized arrays.  Results are
    combined in block order, so the metrics are bit-identical for any
    number of workers.  Once a block has failed no worker takes another, and
    the lowest-index failing block's error is raised after every thread has
    finished.
    """
    q = np.asarray(split.query_embeddings, dtype=float)
    g = np.asarray(split.gallery_embeddings, dtype=float)
    for side, emb in (("query", q), ("gallery", g)):
        if emb.ndim != 2:
            raise InvalidInputError(f"{side} embeddings must be 2-D, got shape {emb.shape}")
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
    # at least one, so zero query rows reach the no-match error below
    workers = max(1, min(len(_query_blocks(len(q), n_gallery)), _usable_cpus()))
    blocks = _query_blocks(len(q), n_gallery, workers)
    # one pair of block-sized arrays per worker, allocated here, once
    height = max((b.stop - b.start for b in blocks), default=0)
    pairs = [(np.empty((height, n_gallery)), np.empty((height, n_gallery)))
             for _ in range(workers)]
    results = [None] * len(blocks)
    errors = {}  # block index -> the exception it raised
    # each block index is taken once: next() under the lock, with or without a GIL
    todo, taking = iter(range(len(blocks))), threading.Lock()
    stop = threading.Event()  # set once a block fails: no worker takes another

    def rank_blocks(pair):
        """Rank blocks into `pair` in turn until none is left or one failed."""
        while not stop.is_set():
            with taking:
                index = next(todo, None)
            if index is None:
                return
            b = blocks[index]
            try:
                results[index] = _rank_block(q[b], q_labels[b], lo[b], hi[b], g, g_sq,
                                             g_labels, order, pair)
            except Exception as exc:
                errors[index] = exc
                stop.set()

    threads = []
    try:
        for pair in pairs[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(rank_blocks, pair))
            thread.start()
            threads.append(thread)
        rank_blocks(pairs[0])
    finally:
        stop.set()  # all blocks are taken, or this thread raised (an interrupt, a
        # thread that could not start): the others take no more
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]
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
    largest-magnitude component is positive.  A non-finite row is an error.
    """
    x = np.asarray(embeddings, dtype=float)
    n, e = x.shape
    if target_dim < 1 or target_dim > min(n, e):
        raise InvalidInputError(
            f"target_dim must lie in [1, {min(n, e)}], got {target_dim}")
    _check_finite(x, "PCA input")
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
