"""Synthetic identity-cluster datasets with a graded hardness dial.

Identities are Gaussian clusters around uniformly placed centers.  Three
contamination knobs create harder retrieval problems: near-colliding center
pairs (hard negatives), wide-draw samples at four times the spread
(medium-hard positives), and samples drawn from another identity's cluster
(over-hard, label-noise-like).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .evaluation import QueryGallerySplit
from .losses import InvalidInputError

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
            raise InvalidInputError("need at least 2 identities")
        if self.samples_per_identity < 1 or self.dim < 1:
            raise InvalidInputError("counts must be positive")
        for frac in (self.hard_negative_fraction, self.outlier_fraction,
                     self.overhard_fraction):
            if not 0.0 <= frac <= 1.0:
                raise InvalidInputError("fractions must lie in [0, 1]")


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
    return LabeledDataset(features=features, labels=labels,
                          split_tags=["train"] * (n * s))


def split(dataset: LabeledDataset, query_per_identity, rng: np.random.Generator,
          open_set=False, test_fraction=0.5) -> LabeledDataset:
    """Retag samples into query/gallery (and train, in open-set mode).

    Closed-set: every identity contributes query_per_identity queries, the
    rest gallery; training uses all samples.  Open-set: identities split
    into a nonempty train set (tag 'train') and a disjoint test set that is
    divided into query/gallery.
    """
    labels = dataset.labels
    # the plain np.unique, not return_counts: only its hash path imports
    # numpy.ma, and without that import a following training run took
    # 25-55 % more minor page faults (heap layout; same results)
    ids = np.unique(labels)
    inverse = np.searchsorted(ids, labels)
    counts = np.bincount(inverse, minlength=len(ids))
    if (counts <= query_per_identity).any():
        raise InvalidInputError(
            "query_per_identity must be smaller than samples per identity")
    tags = np.array(["gallery"] * len(labels), dtype=object)
    # each identity's rows, ascending, from one stable grouping
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    held_out = [True] * len(ids)
    if open_set:
        n_test = max(2, int(round(test_fraction * len(ids))))
        if n_test >= len(ids):
            raise InvalidInputError(
                f"open-set split: test_fraction {test_fraction} holds out {n_test} of "
                f"{len(ids)} identities, leaving none to train on")
        perm = rng.permutation(ids)
        test_ids = set(perm[:n_test].tolist())
        held_out = [i in test_ids for i in ids.tolist()]
    for rows, test in zip(groups, held_out):
        if test:
            tags[rng.choice(rows, size=query_per_identity, replace=False)] = "query"
        else:
            tags[rows] = "train"
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
    with open(path) as fh:
        lines = fh.read().splitlines()
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
            if parts[1] not in SPLIT_TAGS:
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
