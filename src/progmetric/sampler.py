"""Identity-balanced P x K mini-batch sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class InsufficientDataError(ValueError):
    """Dataset has fewer distinct identities than the batch requires."""


@dataclass(frozen=True)
class BatchSpec:
    """P identities per batch, K samples per identity."""

    P: int
    K: int

    def __post_init__(self):
        if self.P < 2 or self.K < 2:
            raise ValueError("P and K must both be >= 2 for triplet formation")

    @property
    def batch_size(self):
        return self.P * self.K


# Batches a PKSampler draws at a time.  Floyd's rule and the shuffle run once
# per chunk, over all its pools, so their fixed cost is shared: at P 16, K 8,
# on 64 or 512 identities, a batch costs 113-135 us drawn alone, 40-42 us in
# chunks of 8 and 33-40 us in chunks of 16 to 256 (timeit, two-core x86-64,
# numpy 2.4), against 147-151 us for a Generator.choice call per pool.  16 is
# the smallest of those, so a chunk's index and draw arrays stay small.
CHUNK_BATCHES = 16


class _Pools(NamedTuple):
    """Identity i's sample indices, ascending, are
    order[starts[i] : starts[i] + counts[i]]; bounds[i] holds the 2K - 1
    inclusive bounds of K picks from its pool (see _draw_bounds)."""

    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray


def _draw_bounds(counts, K):
    """Per identity, the bounds of its pool's bounded-integer draws.

    A pool of m >= K samples draws Floyd's m-K ... m-1, then the shuffle's
    K-1 ... 1.  A shorter pool draws m-1 K times (K draws with replacement),
    then K-1 zero bounds: a zero bound draws nothing and gives 0.
    """
    m = counts[:, None]
    full = m >= K
    floyd = np.where(full, m - K + np.arange(K), m - 1)
    shuffle = np.where(full, np.arange(K - 1, 0, -1), 0)
    return np.hstack([floyd, shuffle])


def _identity_pools(labels, K):
    """Each identity's sample indices in ascending order, identities sorted,
    with the draw bounds of K picks from each pool."""
    _, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse)
    return _Pools(order=np.argsort(inverse, kind="stable"),
                  starts=np.cumsum(counts) - counts, counts=counts,
                  bounds=_draw_bounds(counts, K))


def _pick(counts, K, draws):
    """K positions per row of draws (overwritten), drawn within _draw_bounds
    from a pool of m = counts[row] samples: draw for draw, one
    `rng.choice(m, K)` call per pool for m < K, and for m >= K one
    `rng.choice(m, K, replace=False)` call (Floyd's algorithm, then a
    Fisher-Yates shuffle of the K picks), except where choice switches to a
    tail shuffle (numpy 2.4: m above 10,000 and K above m // 50).  Floyd's
    rule and the shuffle's swaps run over all rows at once.
    """
    full = counts >= K  # pools drawn without replacement
    picks = draws[:, :K]
    for t in range(1, K):  # Floyd: v, unless already taken, else m - K + t
        taken = (picks[:, :t] == picks[:, t, None]).any(axis=1) & full
        picks[taken, t] = counts[taken] - K + t
    rows = np.arange(len(picks))
    for i in range(K - 1, 0, -1):  # the shuffle: swap i with a draw in [0, i]
        j = np.where(full, draws[:, 2 * K - 1 - i], i)
        held = picks[:, i].copy()
        picks[:, i] = picks[rows, j]
        picks[rows, j] = held
    return picks


def _draw(pools: _Pools, spec: BatchSpec, rng: np.random.Generator, n_batches):
    """n_batches batches of P*K sample indices, one row each: a batch takes
    one `rng.choice(n_ids, P, replace=False)` call for its identities and
    one `rng.integers` call for their pools' draws, which _pick turns into
    picks, so it equals per-pool choice calls under _pick's caveat.
    """
    P, K = spec.P, spec.K
    chosen = np.empty((n_batches, P), dtype=np.int64)
    draws = np.empty((n_batches, P, 2 * K - 1), dtype=np.int64)
    for b in range(n_batches):
        chosen[b] = rng.choice(len(pools.counts), size=P, replace=False)
        draws[b] = rng.integers(0, pools.bounds[chosen[b]], endpoint=True)
    chosen = chosen.ravel()
    picks = _pick(pools.counts[chosen], K, draws.reshape(-1, 2 * K - 1))
    return pools.order[pools.starts[chosen, None] + picks].reshape(n_batches, -1)


def batches_per_epoch(dataset_size, spec: BatchSpec):
    """Epoch granularity: ceil(dataset_size / (P*K)) batches."""
    return math.ceil(dataset_size / spec.batch_size)


class PKSampler:
    """Stateful sampler owning its RNG; one instance per training run.

    The identity pools and their draw bounds are built (and the identity
    count checked) once, at construction.  Batches are drawn CHUNK_BATCHES
    at a time (see _draw), so the sampler's generator runs up to a chunk
    ahead of the batches handed out; the batches, and the generator's state
    after each whole chunk, do not depend on the chunk size.
    """

    def __init__(self, labels, spec: BatchSpec, seed):
        self.labels = np.asarray(labels)
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self._pools = _identity_pools(self.labels, spec.K)
        if len(self._pools.counts) < spec.P:
            raise InsufficientDataError(f"need at least P = {spec.P} identities, "
                                        f"dataset has {len(self._pools.counts)}")
        self._chunk = iter(())

    def sample(self):
        """The next batch's P*K sample indices, a writable int array."""
        batch = next(self._chunk, None)
        if batch is None:
            self._chunk = iter(_draw(self._pools, self.spec, self.rng, CHUNK_BATCHES))
            batch = next(self._chunk)
        return batch

    @property
    def batches_per_epoch(self):
        return batches_per_epoch(len(self.labels), self.spec)
