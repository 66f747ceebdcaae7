"""Synthetic identity-cluster datasets with a graded hardness dial.

Identities are Gaussian clusters around uniformly placed centers.  Three
contamination knobs create harder retrieval problems: near-colliding center
pairs (hard negatives), wide-draw samples at four times the spread
(medium-hard positives), and samples drawn from another identity's cluster
(over-hard, label-noise-like).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .evaluation import QueryGallerySplit
from .losses import InvalidInputError
from .sampler import _identity_pools, _pick

SPLIT_TAGS = ("train", "query", "gallery")


class ParseError(ValueError):
    """Malformed dataset file; the message names the offending line."""


@dataclass(frozen=True)
class SynthSpec:
    n_identities: int
    samples_per_identity: int
    dim: int
    center_scale: float = 10.0
    intra_spread: float = 1.0
    hard_negative_fraction: float = 0.0
    outlier_fraction: float = 0.0
    overhard_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_identities < 2:
            raise InvalidInputError(f"n_identities must be >= 2, got {self.n_identities!r}")
        for name in ("samples_per_identity", "dim"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("hard_negative_fraction", "outlier_fraction", "overhard_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise InvalidInputError(
                    f"{name} must lie in [0, 1], got {getattr(self, name)!r}")
        # generate replaces an identity's first rows: overhard ones, then outliers
        n_over = int(round(self.overhard_fraction * self.samples_per_identity))
        n_out = int(round(self.outlier_fraction * self.samples_per_identity))
        if n_over + n_out > self.samples_per_identity:
            raise InvalidInputError(
                f"overhard_fraction and outlier_fraction replace {n_over} + {n_out} of "
                f"samples_per_identity = {self.samples_per_identity} rows")
        # centres are drawn from [-center_scale, center_scale), a finite width
        if not 0.0 <= self.center_scale <= sys.float_info.max / 2:
            raise InvalidInputError("center_scale must be >= 0 and at most half the "
                                    f"largest float, got {self.center_scale!r}")
        if not 0.0 <= self.intra_spread <= sys.float_info.max:
            raise InvalidInputError(
                f"intra_spread must be finite and >= 0, got {self.intra_spread!r}")


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    split_tags: list = field(default_factory=list)

    def rows(self, tag):
        return np.flatnonzero(np.asarray(self.split_tags, dtype=object) == tag)


def generate(spec: SynthSpec) -> LabeledDataset:
    """Deterministic cluster dataset; all samples initially tagged 'train'."""
    rng = np.random.default_rng(spec.seed)
    n, s, d = spec.n_identities, spec.samples_per_identity, spec.dim
    centers = rng.uniform(-spec.center_scale, spec.center_scale, size=(n, d))
    n_hard = int(round(spec.hard_negative_fraction * n))
    for j in range(1, n_hard, 2):
        direction = rng.standard_normal(d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        centers[j] = centers[j - 1] + 2.0 * spec.intra_spread * direction
    n_over = int(round(spec.overhard_fraction * s))
    n_out = int(round(spec.outlier_fraction * s))
    features = np.empty((n * s, d))
    labels = np.empty(n * s, dtype=int)
    for i in range(n):
        block = centers[i] + spec.intra_spread * rng.standard_normal((s, d))
        for j in range(n_over):
            other = int(rng.integers(n - 1))
            if other >= i:
                other += 1
            block[j] = centers[other] + spec.intra_spread * rng.standard_normal(d)
        for j in range(n_over, n_over + n_out):
            block[j] = centers[i] + 4.0 * spec.intra_spread * rng.standard_normal(d)
        features[i * s : (i + 1) * s] = block
        labels[i * s : (i + 1) * s] = i
    if not np.isfinite(features).all():
        raise InvalidInputError(f"center_scale {spec.center_scale!r} and intra_spread "
                                f"{spec.intra_spread!r} overflow the features")
    return LabeledDataset(features=features, labels=labels,
                          split_tags=["train"] * (n * s))


def split(dataset: LabeledDataset, query_per_identity, rng: np.random.Generator,
          open_set=False, test_fraction=0.5) -> LabeledDataset:
    """Retag samples into query/gallery (and train, in open-set mode).

    Closed-set: every identity contributes query_per_identity queries, the
    rest gallery; training uses all samples.  Open-set: identities split
    into a nonempty train set (tag 'train') and a disjoint test set that is
    divided into query/gallery.  Query rows come from the identity pools
    PKSampler draws from, picked as it picks (sampler._pick): one
    `rng.choice(rows, query_per_identity, replace=False)` call per held-out
    identity in sorted order, draw for draw, under _pick's tail-shuffle caveat.
    """
    labels, q = dataset.labels, query_per_identity
    if q < 1:
        raise InvalidInputError(f"query_per_identity must be >= 1, got {q!r}")
    pools = _identity_pools(labels, q) if q < len(labels) else None  # q >= rows: no bounds
    if pools is None or (pools.counts <= q).any():
        raise InvalidInputError(
            "query_per_identity must be smaller than samples per identity")
    n_ids = len(pools.counts)
    held_out = np.ones(n_ids, dtype=bool)
    if open_set:
        n_test = max(2, int(round(test_fraction * n_ids)))
        if n_test >= n_ids:
            raise InvalidInputError(
                f"open-set split: test_fraction {test_fraction} holds out {n_test} of "
                f"{n_ids} identities, leaving none to train on")
        held_out[rng.permutation(n_ids)[n_test:]] = False
    draws = rng.integers(0, pools.bounds[held_out], endpoint=True)
    picks = _pick(pools.counts[held_out], q, draws)
    tags = np.array(["gallery"] * len(labels), dtype=object)
    tags[pools.order[~np.repeat(held_out, pools.counts)]] = "train"
    tags[pools.order[pools.starts[held_out, None] + picks]] = "query"
    return LabeledDataset(features=dataset.features.copy(),
                          labels=labels.copy(), split_tags=list(tags))


def train_partition(dataset: LabeledDataset):
    """(features, labels) used for training: the 'train' rows if any exist
    (open-set), otherwise all rows (closed-set)."""
    rows = dataset.rows("train")
    if len(rows) == 0:
        return dataset.features, dataset.labels
    return dataset.features[rows], dataset.labels[rows]


def query_gallery(dataset: LabeledDataset) -> QueryGallerySplit:
    q = dataset.rows("query")
    g = dataset.rows("gallery")
    if len(q) == 0 or len(g) == 0:
        raise InvalidInputError("dataset has no query/gallery tags; split it first")
    return QueryGallerySplit(
        query_embeddings=dataset.features[q],
        query_labels=dataset.labels[q],
        gallery_embeddings=dataset.features[g],
        gallery_labels=dataset.labels[g],
    )


def save(dataset: LabeledDataset, path):
    """Comma-separated text, value-exact round trip (17 significant digits)."""
    dim = dataset.features.shape[1]
    header = "id,split," + ",".join(f"f{j}" for j in range(dim))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for label, tag, row in zip(dataset.labels, dataset.split_tags,
                                   dataset.features):
            fh.write(f"{label},{tag}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load(path) -> LabeledDataset:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # the text before the bad byte decodes
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc})") from None
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[:2] != ["id", "split"]:
        raise ParseError(f"{path}:1: expected header 'id,split,f0,...'")
    dim = len(header) - 2
    labels, tags, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != dim + 2:
            raise ParseError(
                f"{path}:{lineno}: expected {dim + 2} columns, found {len(parts)}")
        try:
            labels.append(int(parts[0]))
            if not -2**63 <= labels[-1] < 2**63 or parts[1] not in SPLIT_TAGS:
                raise ValueError
            tags.append(parts[1])
            rows.append([float(v) for v in parts[2:]])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: malformed row") from exc
    if not rows:
        raise ParseError(f"{path}:2: file has a header but no samples")
    features = np.array(rows, dtype=float)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():  # row i is line i + 2
        raise ParseError(f"{path}:{np.argmin(finite) + 2}: non-finite feature value")
    return LabeledDataset(features=features,
                          labels=np.array(labels, dtype=int),
                          split_tags=tags)
