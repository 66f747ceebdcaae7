"""Identity-balanced P x K mini-batch sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _identity_pools(labels, spec: BatchSpec):
    """Each identity's sample indices in ascending order, identities sorted.

    Raises InsufficientDataError when there are fewer identities than P.
    """
    _, inverse = np.unique(labels, return_inverse=True)
    counts = np.bincount(inverse)
    if len(counts) < spec.P:
        raise InsufficientDataError(
            f"need at least {spec.P} identities, dataset has {len(counts)}"
        )
    return np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])


def _draw(pools, spec: BatchSpec, rng: np.random.Generator):
    chosen = rng.choice(len(pools), size=spec.P, replace=False)
    out = np.empty(spec.batch_size, dtype=int)
    for i, j in enumerate(chosen):
        pool = pools[j]
        replace = len(pool) < spec.K
        out[i * spec.K : (i + 1) * spec.K] = rng.choice(pool, size=spec.K, replace=replace)
    return out


def pk_sample(labels, spec: BatchSpec, rng: np.random.Generator):
    """Draw N = P*K sample indices: P identities, K samples each.

    Identity choice is uniform without replacement.  Within an identity,
    samples are drawn without replacement when enough exist, otherwise
    with replacement.
    """
    return _draw(_identity_pools(labels, spec), spec, rng)


def batches_per_epoch(dataset_size, spec: BatchSpec):
    """Epoch granularity: ceil(dataset_size / (P*K)) batches."""
    return math.ceil(dataset_size / spec.batch_size)


class PKSampler:
    """Stateful sampler owning its RNG; one instance per training run.

    The identity pools are built (and the identity count checked) once, at
    construction; each sample only draws from them.
    """

    def __init__(self, labels, spec: BatchSpec, seed):
        self.labels = np.asarray(labels)
        self.spec = spec
        self.rng = np.random.default_rng(seed)
        self._pools = _identity_pools(self.labels, spec)

    def sample(self):
        return _draw(self._pools, self.spec, self.rng)

    @property
    def batches_per_epoch(self):
        return batches_per_epoch(len(self.labels), self.spec)
