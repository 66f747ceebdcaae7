"""Pairwise distances and triplet-style losses over identity-balanced batches.

All losses operate on a batch of embeddings (N x d) with integer identity
labels.  Batches are expected to be identity-balanced (P identities, K
samples each) so that every anchor has at least one positive and one
negative; the batch-hard and generalized variants raise
DegenerateBatchError otherwise.  The triplet losses also accept, in place of
the labels, their `TripletLayout` (see `triplet_layout`), which a caller
whose batches all share one label pattern builds once.  Each value function
(`gbh_loss`, `composite_loss`, ...) is the value part of its `*_grad` kernel;
the batch-hard value is `batch_hard_grad(...)[0]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIST_EPS = 1e-12

LAMBDA_RANGE = (0.0, 2.0)
MARGIN_RANGE = (-0.1, 0.3)
K_RANGE = (1, 8)
P_RANGE = (1, 16)


class InvalidInputError(ValueError):
    """Inputs violate a precondition (non-finite values, bad labels, bad shapes)."""


class DegenerateBatchError(ValueError):
    """Batch cannot form triplets (an anchor lacks positives or negatives)."""


@dataclass(frozen=True)
class HyperParams:
    """Point (lam, margin, k, p) in the loss hyperparameter box.

    lam weights the triplet term against cross-entropy, margin shifts the
    triplet activation, k selects the k-th farthest positive and p the
    p-th nearest negative per anchor.
    """

    lam: float
    margin: float
    k: int
    p: int

    CSV_HEADER = "lambda,margin,k,p"

    def csv_fields(self):
        """The point as CSV fields under CSV_HEADER; floats at 17 digits."""
        return f"{self.lam:.17g},{self.margin:.17g},{self.k},{self.p}"

    def __post_init__(self):
        if not LAMBDA_RANGE[0] <= self.lam <= LAMBDA_RANGE[1]:
            raise InvalidInputError(f"lam={self.lam} outside {LAMBDA_RANGE}")
        if not MARGIN_RANGE[0] <= self.margin <= MARGIN_RANGE[1]:
            raise InvalidInputError(f"margin={self.margin} outside {MARGIN_RANGE}")
        if not (K_RANGE[0] <= self.k <= K_RANGE[1] and float(self.k).is_integer()):
            raise InvalidInputError(f"k={self.k} outside integer range {K_RANGE}")
        if not (P_RANGE[0] <= self.p <= P_RANGE[1] and float(self.p).is_integer()):
            raise InvalidInputError(f"p={self.p} outside integer range {P_RANGE}")


@dataclass(frozen=True)
class LossBreakdown:
    """Composite loss split into its cross-entropy and triplet parts."""

    softmax_term: float
    gbh_term: float
    total: float


def softplus(x):
    """Overflow-safe ln(1 + exp(x))."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _exp_or_inf(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def expit(t):
    """Logistic sigmoid 1 / (1 + exp(-t)), elementwise; 0 where exp(-t)
    overflows.

    `exp` comes from the C library through `math.exp`, so the result has the
    float64 bits of scipy's `expit`; numpy's vectorised `exp` differs from
    the C library's in the last bit on some inputs, so it is not used.
    """
    t = np.asarray(t, dtype=float)
    values = (-t.ravel()).tolist()
    try:
        e = np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:  # an entry above ~709.78: rare, so retried per entry
        e = np.fromiter(map(_exp_or_inf, values), float, len(values))
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(t.shape)


def pairwise_distances(embeddings):
    """Symmetric matrix of Euclidean distances between all rows."""
    x = np.ascontiguousarray(embeddings, dtype=float)
    if x.ndim != 2:
        raise InvalidInputError("embeddings must be a 2-D array")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("non-finite embedding entries")
    # On a C-contiguous x, np.dot(x, x.T) is one BLAS symmetric rank-k
    # update (dsyrk) whose triangle numpy mirrors, so gram, and with it d,
    # is exactly symmetric (an input with no unit stride would take a
    # general product that is not); x @ x.T makes the same call but mirrors
    # element by element.  Each step below reuses its operand's buffer.
    gram = np.dot(x, x.T)
    sq = np.diag(gram).copy()
    # |gram| is at most max(sq) (Cauchy-Schwarz), so no step below exceeds
    # 4 max(sq); the factor 8 leaves room for rounding, and no N x N pass
    # is needed to find an overflow
    if not np.isfinite(8.0 * sq).all():
        raise InvalidInputError("embedding distances overflow float64")
    d = np.add.outer(sq, sq)
    gram *= 2.0
    d -= gram
    # rounding leaves near-coincident rows slightly negative: clamp to +0.0,
    # keeping NaN, as np.maximum(d, 0.0) would; the mask is almost all
    # false, and a scalar np.maximum operand runs a loop with no SIMD
    np.copyto(d, 0.0, where=d <= 0.0)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass(frozen=True, eq=False)
class TripletLayout:
    """Which rows of a batch share a label: all that triplet selection reads
    of the labels.

    members holds each anchor's same-label row indices in ascending order,
    padded to the largest label count W (W = K on P x K batches), and cells
    their flat positions in an N x N matrix; not_pos marks the padding and
    the anchor itself.  same is the N x N same-label mask; n_pos and n_neg
    count each anchor's positives and negatives.
    Label vectors with the same equality pattern share one layout, so a
    run whose batches are P distinct labels in K-long blocks builds it once.
    """

    members: np.ndarray
    cells: np.ndarray
    not_pos: np.ndarray
    same: np.ndarray
    n_pos: np.ndarray
    n_neg: np.ndarray


def triplet_layout(labels):
    """The TripletLayout of a label vector; raises DegenerateBatchError when
    an anchor has no positive or no negative."""
    labels = np.asarray(labels)
    n = len(labels)
    same = labels[:, None] == labels[None, :]
    counts = same.sum(axis=1)
    n_pos, n_neg = counts - 1, n - counts
    if not (n_pos > 0).all():
        raise DegenerateBatchError("an anchor has no positive (need K >= 2)")
    if not (n_neg > 0).all():
        raise DegenerateBatchError("an anchor has no negative (need P >= 2)")
    width = counts.max(initial=0)
    # a stable sort of ~same lists each row's same-label indices first, in order
    members = np.argsort(~same, axis=1, kind="stable")[:, :width]
    rows = np.arange(n)[:, None]
    not_pos = (np.arange(width) >= counts[:, None]) | (members == rows)
    return TripletLayout(members=members, cells=members + rows * n,
                         not_pos=not_pos, same=same, n_pos=n_pos, n_neg=n_neg)


def _reject_nan(ranked):
    if np.isnan(ranked).any():
        raise InvalidInputError("NaN distance: distances must be ordered")


def _order_stat(key, col, excluded=None):
    """Per row, the index of the col-th smallest entry of key (col: one per row).

    Equal values rank in index order, as a stable sort would place them.
    excluded, when given, marks entries that rank as +inf; key is read, not
    copied, and only the ranking works on a masked copy, in place.  A NaN
    among the ranked entries raises InvalidInputError.
    When every row asks for column 0, the answer is the row's first
    minimum, which argmin finds without a sort.  Otherwise a value-only
    sort finds the col-th value; the row's first entry equal to it is the
    answer unless smaller-index ties must be skipped.  That happens exactly
    where the sorted row repeats the col-th value just before it, and only
    those rows count their lower entries and walk their equal ones.
    """
    rows = np.arange(len(key))
    srt = key.copy()
    if excluded is not None:
        np.copyto(srt, np.inf, where=excluded)
    if not col.any():
        idx = srt.argmin(axis=1)
        _reject_nan(srt[rows, idx])  # argmin returns a row's first NaN, if any
        return idx
    srt.sort(axis=1)
    _reject_nan(srt[:, -1])  # the sort places a row's NaNs last
    kth = srt[rows, col]
    eq = key == kth[:, None]
    if excluded is not None:  # an excluded entry equals kth where kth is +inf
        eq &= ~excluded
        inf_rows = np.isposinf(kth)
        if inf_rows.any():
            eq[inf_rows] |= excluded[inf_rows]
    idx = np.argmax(eq, axis=1)
    walk = np.flatnonzero((col > 0) & (srt[rows, col - 1] == kth))
    if walk.size:
        below = key[walk] < kth[walk, None]
        if excluded is not None:
            below &= ~excluded[walk]
        rank = col[walk] - np.count_nonzero(below, axis=1)
        idx[walk] = np.argmax(np.cumsum(eq[walk], axis=1) > rank[:, None], axis=1)
    return idx


def gbh_select(dist, labels, k, p):
    """Indices of the k-th farthest positive and p-th nearest negative per anchor.

    labels is a label vector or its TripletLayout.  k and p clamp to the
    available counts; order-statistic ties break toward the lowest sample
    index.  Positives are ranked within each anchor's member block (N x W),
    whose columns run in index order; negatives across the row, with
    same-label entries ranking last as +inf.  A NaN among the distances an
    anchor ranks raises InvalidInputError.
    """
    if k < 1 or p < 1:
        raise InvalidInputError("k and p must be >= 1")
    n = len(dist)
    layout = labels if isinstance(labels, TripletLayout) else triplet_layout(labels)
    if layout.same.shape != (n, n):
        raise InvalidInputError(f"labels describe {len(layout.same)} rows, the batch has {n}")
    pos_col = _order_stat(np.where(layout.not_pos, np.inf, -dist.take(layout.cells)),
                          np.minimum(k, layout.n_pos) - 1)
    pos_idx = layout.members[np.arange(n), pos_col]
    neg_idx = _order_stat(dist, np.minimum(p, layout.n_neg) - 1, layout.same)
    return pos_idx, neg_idx


def gbh_terms(dist, labels, k, p):
    """Per-anchor difference: k-th farthest positive minus p-th nearest negative."""
    pos_idx, neg_idx = gbh_select(dist, labels, k, p)
    rows = np.arange(len(dist))
    return dist[rows, pos_idx] - dist[rows, neg_idx]


def cross_entropy_loss_grad(logits, class_ids):
    """(mean negative log softmax probability of the true class, its
    gradient with respect to the logits), from one shifted exp."""
    logits = np.asarray(logits, dtype=float)
    class_ids = np.asarray(class_ids, dtype=int)
    n, c = logits.shape
    if class_ids.min() < 0 or class_ids.max() >= c:
        raise InvalidInputError("label outside [0, n_classes)")
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    value = float(np.mean((m + np.log(s))[:, 0] - logits[rows, class_ids]))
    e /= s
    e[rows, class_ids] -= 1.0
    e /= n
    return value, e


def cross_entropy_loss(logits, labels):
    """Mean negative log softmax probability of the true class."""
    return cross_entropy_loss_grad(logits, labels)[0]


def cross_entropy_grad(logits, class_ids):
    """Gradient of cross_entropy_loss with respect to the logits."""
    return cross_entropy_loss_grad(logits, class_ids)[1]


def _triplet_grad(embeddings, labels, k, p, margin, outer):
    """Value and embedding gradient of the order-statistic triplet loss.

    outer selects the elementwise transfer: "softplus" for the generalized
    loss, "hinge" for the classic batch-hard loss (k = p = 1 expected there).
    The subgradient routes through the single selected (positive, negative)
    pair per anchor; coincident points use a guarded distance denominator.
    """
    x = np.asarray(embeddings, dtype=float)
    d = pairwise_distances(x)
    pos_idx, neg_idx = gbh_select(d, labels, k, p)
    rows = np.arange(len(x))
    d_ab = d[rows, pos_idx]
    d_an = d[rows, neg_idx]
    t = margin + d_ab - d_an
    if outer == "softplus":
        value = float(softplus(t).sum())
        coeff = expit(t)
    else:
        value = float(np.maximum(t, 0.0).sum())
        coeff = (t > 0.0).astype(float)
    c = coeff[:, None]
    u_ab = (x - x[pos_idx]) / np.maximum(d_ab, DIST_EPS)[:, None]
    u_an = (x - x[neg_idx]) / np.maximum(d_an, DIST_EPS)[:, None]
    # One bincount over the flat (row, column) cells of the (anchor,
    # positive, negative) rows, in anchor order: each cell sums its terms in
    # that order from 0.0, as a per-anchor loop would.
    dim = x.shape[1]
    targets = np.stack([rows, pos_idx, neg_idx], axis=1)
    cells = (targets[:, :, None] * dim + np.arange(dim)).ravel()
    # each row's three terms side by side: the (anchor, slot, column) order
    terms = np.concatenate([c * (u_ab - u_an), -(c * u_ab), c * u_an], axis=1)
    grad = np.bincount(cells, weights=terms.ravel(), minlength=x.size)
    return value, grad.reshape(x.shape)


def gbh_loss_grad(embeddings, labels, w: HyperParams):
    """(value, embedding gradient) of the generalized batch-hard loss."""
    return _triplet_grad(embeddings, labels, w.k, w.p, w.margin, "softplus")


def gbh_loss(embeddings, labels, w: HyperParams):
    """Sum over anchors of softplus(margin + per-anchor order-statistic term)."""
    return gbh_loss_grad(embeddings, labels, w)[0]


def batch_hard_grad(embeddings, labels, margin):
    """(value, embedding gradient) of the classic batch-hard hinge loss, the
    sum over anchors of hinge(margin + farthest positive - nearest negative)."""
    return _triplet_grad(embeddings, labels, 1, 1, margin, "hinge")


def composite_loss_grad(embeddings, logits, class_ids, w: HyperParams,
                        layout=None):
    """Composite loss breakdown and its analytic gradients in one pass.

    Returns (LossBreakdown, gradient w.r.t. embeddings, gradient w.r.t.
    logits).  The embedding gradient carries only the triplet term (already
    scaled by lam, exactly zero at lam = 0); the logit gradient carries only
    the cross-entropy term.  layout, when given, is class_ids'
    TripletLayout, which the triplet term then does not rebuild.
    """
    ce, g_logits = cross_entropy_loss_grad(logits, class_ids)
    g, g_emb = gbh_loss_grad(embeddings, class_ids if layout is None else layout, w)
    g_emb = w.lam * g_emb if w.lam != 0.0 else np.zeros_like(g_emb)
    breakdown = LossBreakdown(softmax_term=ce, gbh_term=g, total=ce + w.lam * g)
    return breakdown, g_emb, g_logits


def composite_loss(embeddings, logits, class_ids, w: HyperParams):
    """Cross-entropy plus lam times the generalized batch-hard loss.

    class_ids are the dense class indices matching the logit columns; they
    are also the triplet labels, since selection only compares labels for
    equality.
    """
    return composite_loss_grad(embeddings, logits, class_ids, w)[0]
