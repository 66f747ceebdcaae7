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


def _cross_distances(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T
    return np.sqrt(np.maximum(d2, 0.0))


def evaluate(split: QueryGallerySplit) -> RetrievalMetrics:
    """Rank the gallery per query by ascending distance and score CMC and mAP.

    AP uses precision-at-hit averaged over the relevant gallery items.
    Distance ties break by gallery index.  Queries whose label never occurs
    in the gallery are excluded and tallied.
    """
    q = np.asarray(split.query_embeddings, dtype=float)
    g = np.asarray(split.gallery_embeddings, dtype=float)
    if q.shape[1] != g.shape[1]:
        raise InvalidInputError("query/gallery dimension mismatch")
    q_labels = np.asarray(split.query_labels)
    g_labels = np.asarray(split.gallery_labels)
    dist = _cross_distances(q, g)
    order = np.argsort(dist, axis=1, kind="stable")
    n_gallery = g.shape[0]
    cmc_sum = np.zeros(n_gallery)
    aps = []
    excluded = 0
    for qi in range(len(q)):
        hits = (g_labels[order[qi]] == q_labels[qi]).astype(float)
        n_rel = hits.sum()
        if n_rel == 0:
            excluded += 1
            continue
        cum = hits.cumsum()
        cmc_sum += cum >= 1.0
        precision_at = cum / np.arange(1, n_gallery + 1)
        aps.append(float((precision_at * hits).sum() / n_rel))
    n_valid = len(aps)
    if n_valid == 0:
        raise InvalidInputError("no query has a gallery match")
    cmc = cmc_sum / n_valid
    return RetrievalMetrics(cmc=cmc, rank1=float(cmc[0]),
                            map=float(np.mean(aps)), excluded_queries=excluded)


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
