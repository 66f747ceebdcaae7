import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from progmetric import losses, trainer
from progmetric.losses import (
    DegenerateBatchError,
    HyperParams,
    InvalidInputError,
    LossBreakdown,
    batch_hard_grad,
    composite_loss,
    composite_loss_grad,
    cross_entropy_grad,
    cross_entropy_loss,
    cross_entropy_loss_grad,
    gbh_loss,
    gbh_loss_grad,
    gbh_terms,
    pairwise_distances,
    softplus,
)

LINE = np.array([[0.0], [1.0], [1.5], [2.5]])
LINE_LABELS = np.array([0, 0, 1, 1])


def random_balanced_batch(rng, p=3, k=3, d=4):
    labels = np.repeat(np.arange(p), k)
    return rng.normal(size=(p * k, d)), labels


# ---------------------------------------------------------------- distances

def test_pairwise_hand_case():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    np.testing.assert_allclose(d, [[0.0, 5.0], [5.0, 0.0]])


def test_pairwise_identical_rows():
    d = pairwise_distances(np.ones((4, 3)))
    np.testing.assert_array_equal(d, np.zeros((4, 4)))


def test_pairwise_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        pairwise_distances(np.array([[0.0, np.nan]]))


# finite rows whose Gram product overflows: unchecked, the distances held
# nan and inf, anchors 0 and 1 were picked as their own positives and row 0
# as the negative of anchor 1, which shares its label
OVERFLOW = np.array([[1e155, 0.0], [1e155, 1.0], [-1e155, 0.0], [0.0, 3.0]])
OVERFLOW_LABELS = np.array([0, 0, 1, 1])


@pytest.mark.parametrize("call", [
    lambda x, y: losses.gbh_select(pairwise_distances(x), y, 1, 1),
    lambda x, y: gbh_loss_grad(x, y, HyperParams(lam=1.0, margin=0.1, k=1, p=1)),
    lambda x, y: batch_hard_grad(x, y, 0.2),
], ids=["gbh_select", "gbh_loss_grad", "batch_hard_grad"])
def test_overflowing_distances_are_an_error(call):
    with pytest.raises(InvalidInputError, match="overflow"), \
            np.errstate(over="ignore"):
        call(OVERFLOW, OVERFLOW_LABELS)


@pytest.mark.parametrize("k, p", [(1, 1), (2, 3)])
def test_nan_distance_is_an_error(k, p):
    # a sort ranks a NaN last and argmin first: either would pick an
    # anchor's neighbours from distances that have no order
    x = np.random.default_rng(34).normal(size=(8, 3))
    labels = np.repeat([0, 1], 4)
    for i, j in ((0, 5), (0, 2)):  # a negative pair, then a positive pair
        d = pairwise_distances(x)
        d[i, j] = d[j, i] = np.nan
        with pytest.raises(InvalidInputError, match="NaN"):
            losses.gbh_select(d, labels, k, p)


def test_largest_unflagged_norms_give_finite_distances():
    # squared norms just under max/8: the farthest pair is 4x that apart
    s = 0.999 * math.sqrt(np.finfo(float).max / 8)
    d = pairwise_distances(np.array([[s, 0.0], [-s, 0.0], [0.0, s]]))
    assert np.isfinite(d).all()
    assert d[0, 1] == pytest.approx(2 * s, rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pairwise_matrix_properties(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 3))
    d = pairwise_distances(x)
    assert np.all(d >= 0)
    np.testing.assert_array_equal(d, d.T)
    np.testing.assert_array_equal(np.diag(d), np.zeros(6))
    # triangle inequality
    for i in range(6):
        for j in range(6):
            for k in range(6):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


# --------------------------------------------------------------- batch hard

def test_batch_hard_hand_case():
    assert batch_hard_grad(LINE, LINE_LABELS, margin=0.2)[0] == pytest.approx(1.4)


def test_batch_hard_separated_inactive():
    x = np.array([[0.0], [0.3], [100.0], [100.3]])
    assert batch_hard_grad(x, LINE_LABELS, margin=-0.1)[0] == 0.0


def test_batch_hard_consistent_with_order_statistics():
    rng = np.random.default_rng(3)
    x, labels = random_balanced_batch(rng)
    d = pairwise_distances(x)
    t = gbh_terms(d, labels, k=1, p=1)
    via_terms = float(np.maximum(0.25 + t, 0.0).sum())
    assert batch_hard_grad(x, labels, margin=0.25)[0] == pytest.approx(via_terms)


def test_batch_hard_degenerate_batches():
    with pytest.raises(DegenerateBatchError):
        batch_hard_grad(np.zeros((3, 2)), [0, 1, 2], margin=0.0)  # K = 1
    with pytest.raises(DegenerateBatchError):
        batch_hard_grad(np.zeros((3, 2)), [0, 0, 0], margin=0.0)  # P = 1


# ----------------------------------------------------------- order statistics

def gbh_oracle(dist, labels, k, p):
    """Full per-anchor sort of positive and negative distance lists."""
    n = len(dist)
    out = np.empty(n)
    for a in range(n):
        pos = sorted((dist[a, b] for b in range(n) if b != a and labels[b] == labels[a]),
                     reverse=True)
        neg = sorted(dist[a, b] for b in range(n) if labels[b] != labels[a])
        out[a] = pos[min(k, len(pos)) - 1] - neg[min(p, len(neg)) - 1]
    return out


def test_gbh_terms_hand_cases():
    x = np.array([[0.0], [1.0], [4.0], [6.0]])
    d = pairwise_distances(x)
    assert gbh_terms(d, LINE_LABELS, k=1, p=1)[0] == pytest.approx(1.0 - 4.0)
    assert gbh_terms(d, LINE_LABELS, k=1, p=2)[0] == pytest.approx(1.0 - 6.0)


def test_gbh_terms_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = int(rng.integers(2, 9))
        k = int(rng.integers(2, 9))
        x, labels = random_balanced_batch(rng, p=p, k=k, d=int(rng.integers(1, 17)))
        d = pairwise_distances(x)
        kk = int(rng.integers(1, 9))
        pp = int(rng.integers(1, 17))
        np.testing.assert_array_equal(gbh_terms(d, labels, kk, pp),
                                      gbh_oracle(d, labels, kk, pp))


def test_gbh_terms_monotone_in_k_and_p():
    rng = np.random.default_rng(5)
    x, labels = random_balanced_batch(rng, p=4, k=5)
    d = pairwise_distances(x)
    for p in (1, 3):
        prev = gbh_terms(d, labels, 1, p)
        for k in range(2, 6):
            cur = gbh_terms(d, labels, k, p)
            assert np.all(cur <= prev + 1e-12)
            prev = cur
    # larger p picks a farther negative, so the subtracted term grows and
    # T shrinks: non-increasing in p as well
    for k in (1, 3):
        prev = gbh_terms(d, labels, k, 1)
        for p in range(2, 8):
            cur = gbh_terms(d, labels, k, p)
            assert np.all(cur <= prev + 1e-12)
            prev = cur


def test_gbh_terms_degenerate():
    with pytest.raises(DegenerateBatchError):
        gbh_terms(np.zeros((2, 2)), [0, 1], 1, 1)


# ---------------------------------------------------- per-anchor references

def loop_select(dist, labels, k, p):
    """Per-anchor lexsort selection, the reference for gbh_select."""
    n = len(dist)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    pos_idx = np.empty(n, dtype=int)
    neg_idx = np.empty(n, dtype=int)
    for a in range(n):
        cand = np.flatnonzero(pos_mask[a])
        order = np.lexsort((cand, -dist[a, cand]))
        pos_idx[a] = cand[order[min(k, len(cand)) - 1]]
        cand = np.flatnonzero(neg_mask[a])
        order = np.lexsort((cand, dist[a, cand]))
        neg_idx[a] = cand[order[min(p, len(cand)) - 1]]
    return pos_idx, neg_idx


def loop_triplet_grad(x, labels, k, p, margin, outer):
    """Per-anchor gradient scatter, the reference for the triplet kernel."""
    d = pairwise_distances(x)
    pos_idx, neg_idx = loop_select(d, labels, k, p)
    rows = np.arange(len(x))
    t = margin + d[rows, pos_idx] - d[rows, neg_idx]
    if outer == "softplus":
        value = float(softplus(t).sum())
        coeff = expit(t)
    else:
        value = float(np.maximum(t, 0.0).sum())
        coeff = (t > 0.0).astype(float)
    grad = np.zeros_like(x)
    for a in rows:
        c = coeff[a]
        if c == 0.0:
            continue
        b, nn = pos_idx[a], neg_idx[a]
        u_ab = (x[a] - x[b]) / max(d[a, b], losses.DIST_EPS)
        u_an = (x[a] - x[nn]) / max(d[a, nn], losses.DIST_EPS)
        grad[a] += c * (u_ab - u_an)
        grad[b] -= c * u_ab
        grad[nn] += c * u_an
    return value, grad


def tie_heavy_batch(rng):
    """Small integer coordinates (many equal distances, coincident points)
    under shuffled, non-contiguous identity labels."""
    ids = rng.choice(1000, int(rng.integers(2, 7)), replace=False)
    labels = rng.permutation(np.repeat(ids, int(rng.integers(2, 6))))
    dim = int(rng.integers(1, 4))
    return rng.integers(-2, 3, size=(len(labels), dim)).astype(float), labels


def test_gbh_select_matches_per_anchor_reference():
    rng = np.random.default_rng(21)
    for _ in range(300):
        x, labels = tie_heavy_batch(rng)
        d = pairwise_distances(x)
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        pos_idx, neg_idx = losses.gbh_select(d, labels, k, p)
        ref_pos, ref_neg = loop_select(d, labels, k, p)
        assert np.array_equal(pos_idx, ref_pos)
        assert np.array_equal(neg_idx, ref_neg)


def test_gbh_select_all_coincident_points():
    # every positive and every negative of every row is tied at distance 0,
    # so each k/p must land on the (k-1)-th / (p-1)-th index in row order
    labels = np.random.default_rng(23).permutation(np.repeat([7, 1000, 42, 3], 5))
    d = pairwise_distances(np.zeros((len(labels), 3)))
    assert not d.any()
    for k in range(1, 9):
        for p in range(1, 17):
            pos_idx, neg_idx = losses.gbh_select(d, labels, k, p)
            ref_pos, ref_neg = loop_select(d, labels, k, p)
            assert np.array_equal(pos_idx, ref_pos)
            assert np.array_equal(neg_idx, ref_neg)


def test_gbh_select_matches_reference_on_desk_batches():
    # real-valued batches shaped like the desk run: 16 ids x 8, dim 16
    rng = np.random.default_rng(24)
    for _ in range(100):
        ids = rng.choice(1000, 16, replace=False)
        labels = rng.permutation(np.repeat(ids, 8))
        d = pairwise_distances(rng.normal(size=(len(labels), 16)))
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        pos_idx, neg_idx = losses.gbh_select(d, labels, k, p)
        ref_pos, ref_neg = loop_select(d, labels, k, p)
        assert np.array_equal(pos_idx, ref_pos)
        assert np.array_equal(neg_idx, ref_neg)


def test_gbh_terms_equal_reference_distance_differences():
    rng = np.random.default_rng(25)
    for i in range(100):
        if i % 2:
            x, labels = tie_heavy_batch(rng)
        else:
            x, labels = random_balanced_batch(rng, p=6, k=4, d=5)
        d = pairwise_distances(x)
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        ref_pos, ref_neg = loop_select(d, labels, k, p)
        rows = np.arange(len(d))
        assert np.array_equal(gbh_terms(d, labels, k, p),
                              d[rows, ref_pos] - d[rows, ref_neg])


@pytest.mark.parametrize("outer", ["softplus", "hinge"])
def test_triplet_grad_matches_per_anchor_reference(outer):
    rng = np.random.default_rng(22)
    for _ in range(300):
        x, labels = tie_heavy_batch(rng)
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        margin = float(rng.choice([-0.1, 0.0, 0.2]))
        value, grad = losses._triplet_grad(x, labels, k, p, margin, outer)
        ref_value, ref_grad = loop_triplet_grad(x, labels, k, p, margin, outer)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


DESK_LAYOUT = losses.triplet_layout(np.repeat(np.arange(16), 8))


def desk_batch(rng, kind, dim=16):
    """A batch laid out like a training run's (16 distinct ids in 8-long
    blocks, dim 16) that ties heavily: small integer points, all points
    coincident, or each id's 8 rows drawn with replacement from a pool of
    1-7 rows (as the sampler draws an identity with fewer than K samples).
    kind "real" draws plain normal points, which do not tie."""
    labels = np.repeat(rng.choice(1000, 16, replace=False), 8)
    if kind == "real":
        x = rng.normal(size=(128, dim))
    elif kind == "integer":
        x = rng.integers(-1, 2, size=(128, dim)).astype(float)
    elif kind == "coincident":
        x = np.full((128, dim), float(rng.integers(-2, 3)))
    else:
        x = np.concatenate([
            pool[rng.integers(0, len(pool), 8)]
            for pool in (rng.normal(size=(int(rng.integers(1, 8)), dim))
                         for _ in range(16))])
    return x, labels


DESK_KINDS = ("integer", "coincident", "duplicated")


@pytest.mark.parametrize("kind", DESK_KINDS)
def test_gbh_select_with_prebuilt_layout_matches_reference(kind):
    rng = np.random.default_rng(27)
    for _ in range(20):
        x, labels = desk_batch(rng, kind)
        d = pairwise_distances(x)
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        pos_idx, neg_idx = losses.gbh_select(d, DESK_LAYOUT, k, p)
        ref_pos, ref_neg = loop_select(d, labels, k, p)
        assert np.array_equal(pos_idx, ref_pos)
        assert np.array_equal(neg_idx, ref_neg)


@pytest.mark.parametrize("outer", ["softplus", "hinge"])
@pytest.mark.parametrize("kind", DESK_KINDS)
def test_triplet_grad_with_prebuilt_layout_matches_reference(kind, outer):
    rng = np.random.default_rng(28)
    for _ in range(15):
        x, labels = desk_batch(rng, kind)
        k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
        margin = float(rng.choice([-0.1, 0.0, 0.2]))
        value, grad = losses._triplet_grad(x, DESK_LAYOUT, k, p, margin, outer)
        ref_value, ref_grad = loop_triplet_grad(x, labels, k, p, margin, outer)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(np.signbit(grad), np.signbit(ref_grad))


def ref_pairwise_distances(embeddings):
    """Out-of-place, re-symmetrised distances: the reference pairwise_distances
    must reproduce byte for byte."""
    x = np.asarray(embeddings, dtype=float)
    gram = x @ x.T
    sq = np.diag(gram).copy()
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    return d


def ref_order_stat(key, col):
    """Order statistic that counts the entries below the col-th value on
    every row: the reference for losses._order_stat."""
    rows = np.arange(len(key))
    kth = np.sort(key, axis=1)[rows, col][:, None]
    rank = col - np.count_nonzero(key < kth, axis=1)
    eq = key == kth
    idx = np.argmax(eq, axis=1)
    walk = np.flatnonzero(rank > 0)
    if walk.size:
        idx[walk] = np.argmax(np.cumsum(eq[walk], axis=1) > rank[walk, None], axis=1)
    return idx


def desk_embedding_views(rng, kind):
    """A desk batch's 16-dim embedding as a C-contiguous array and as the
    composite mode's column slice emb[:, :half] of a 32-dim embedding."""
    emb, _ = desk_batch(rng, kind, dim=32)
    return np.ascontiguousarray(emb[:, :16]), emb[:, :16]


@pytest.mark.parametrize("kind", ("real",) + DESK_KINDS)
def test_pairwise_distances_equal_reference_bytes(kind):
    rng = np.random.default_rng(29)
    for _ in range(20):
        for x in desk_embedding_views(rng, kind):
            assert pairwise_distances(x).tobytes() == ref_pairwise_distances(x).tobytes()


@pytest.mark.parametrize("kind", ("real",) + DESK_KINDS)
def test_order_stat_equals_reference(kind):
    # the keys gbh_select ranks, and the negative key at arbitrary per-row
    # columns (0 included) and at column 0 on every row (the argmin path),
    # for every view of the embedding
    rng = np.random.default_rng(30)
    for _ in range(20):
        for x in desk_embedding_views(rng, kind):
            d = pairwise_distances(x)
            k, p = int(rng.integers(1, 9)), int(rng.integers(1, 17))
            pos_key = np.where(DESK_LAYOUT.not_pos, np.inf, -d.take(DESK_LAYOUT.cells))
            neg_key = np.where(DESK_LAYOUT.same, np.inf, d)
            for key, col in ((pos_key, np.minimum(k, DESK_LAYOUT.n_pos) - 1),
                             (neg_key, np.minimum(p, DESK_LAYOUT.n_neg) - 1),
                             (neg_key, rng.integers(0, 112, len(d))),
                             (pos_key, np.zeros(len(d), dtype=int)),
                             (neg_key, np.zeros(len(d), dtype=int))):
                assert np.array_equal(losses._order_stat(key, col),
                                      ref_order_stat(key, col))


@pytest.mark.parametrize("kind", ("real",) + DESK_KINDS)
def test_order_stat_with_excluded_entries_equals_masked_reference(kind):
    # gbh_select's negative side passes the distances and the same-label mask,
    # not the masked copy; the masked copy is the reference's key.  Some
    # distances are +inf, so that a row's col-th value can be +inf (two
    # rows are +inf throughout), and some tie a same-label entry with a
    # negative one.  Column 0 on every row takes the argmin path.
    rng = np.random.default_rng(33)
    same = DESK_LAYOUT.same
    for _ in range(20):
        for x in desk_embedding_views(rng, kind):
            d = pairwise_distances(x)
            d[rng.random(d.shape) < 0.05] = np.inf
            d[rng.integers(0, len(d), 2)] = np.inf
            d.flat[rng.integers(0, d.size, 40)] = d.flat[rng.integers(0, d.size, 40)]
            key = np.where(same, np.inf, d)
            for col in (np.minimum(int(rng.integers(1, 17)), DESK_LAYOUT.n_neg) - 1,
                        rng.integers(0, 112, len(d)), np.zeros(len(d), dtype=int)):
                assert np.array_equal(losses._order_stat(d, col, same),
                                      ref_order_stat(key, col))


def test_gram_product_is_exactly_symmetric():
    # pairwise_distances does not re-symmetrise: it relies on np.dot(x, x.T)
    # taking BLAS's symmetric rank-k path (dsyrk), which a C-contiguous copy
    # always does, as x @ x.T does; C-order, Fortran-order and column-slice
    # views take it without a copy, and the copy leaves their bits
    # unchanged.  Every other column stride takes a general product, so its
    # distances must come from the copy.
    rng = np.random.default_rng(31)
    for _ in range(100):
        n, dim = int(rng.integers(1, 301)), int(rng.integers(1, 71))
        base = rng.normal(size=(n, 2 * dim))
        for x in (np.ascontiguousarray(base[:, :dim]), np.asfortranarray(base[:, :dim]),
                  base[:, :dim]):
            gram = x @ x.T
            assert gram.tobytes() == gram.T.copy().tobytes()
            c = np.ascontiguousarray(x)
            assert (c @ c.T).tobytes() == gram.tobytes()
            assert np.dot(c, c.T).tobytes() == gram.tobytes()
        d = pairwise_distances(base[:, ::2])
        assert d.tobytes() == d.T.copy().tobytes()


def matmul_maximum_distances(embeddings):
    """pairwise_distances with the Gram product as x @ x.T and the clamp as
    np.maximum(d, 0.0): the form np.dot and the masked copyto replaced,
    which they must reproduce byte for byte."""
    x = np.ascontiguousarray(embeddings, dtype=float)
    gram = x @ x.T
    sq = np.diag(gram).copy()
    d = np.add.outer(sq, sq)
    gram *= 2.0
    d -= gram
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def test_pairwise_distances_equal_matmul_maximum_form_bytes():
    # random shapes, most not multiples of 8, plus n = 2, 130 and 300, where a
    # general product's bits differ from the symmetric rank-k path's; as
    # C-order arrays, column slices and strided views
    rng = np.random.default_rng(34)
    shapes = [(int(rng.integers(1, 301)), int(rng.integers(1, 71))) for _ in range(60)]
    for n, dim in shapes + [(2, 16), (130, 16), (300, 16), (128, 16), (1, 1)]:
        base = rng.normal(size=(n, 2 * dim)) * rng.uniform(0.01, 100.0)
        for x in (np.ascontiguousarray(base[:, :dim]), base[:, :dim], base[:, ::2]):
            assert pairwise_distances(x).tobytes() == matmul_maximum_distances(x).tobytes()


def test_near_coincident_rows_clamp_to_positive_zero():
    # rows a relative 1e-15 apart: the squared distances of many pairs round
    # below 0 and must come out as +0.0, not -0.0 or NaN
    rng = np.random.default_rng(35)
    for n, dim in ((9, 3), (37, 16), (130, 5), (300, 70)):
        row = rng.normal(size=dim) * 10.0
        x = row * (1.0 + 1e-15 * rng.integers(-4, 5, size=(n, 1)))
        gram = x @ x.T
        sq = np.diag(gram)
        negative = (sq[:, None] + sq[None, :] - 2.0 * gram) < 0.0
        d = pairwise_distances(x)
        assert negative.any()
        assert (d[negative] == 0.0).all() and not np.signbit(d).any()
        assert d.tobytes() == matmul_maximum_distances(x).tobytes()


def test_triplet_step_allocates_few_n_by_n_arrays():
    # peak traced bytes, in units of one 128 x 128 float64 array, for a desk
    # batch's 16-dim slice of a 32-dim embedding; the out-of-place forms
    # peaked at five such arrays in each call
    x = np.random.default_rng(32).normal(size=(128, 32))[:, :16]
    w = HyperParams(lam=1.0, margin=0.2, k=2, p=3)
    nn_bytes = 128 * 128 * 8
    for call, bound in ((lambda: pairwise_distances(x), 3.5),
                        (lambda: gbh_loss_grad(x, DESK_LAYOUT, w), 3.5)):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / nn_bytes < bound


def test_triplet_layout_hand_case():
    layout = losses.triplet_layout([5, 9, 5, 5, 9])
    assert np.array_equal(layout.members,
                          [[0, 2, 3], [1, 4, 0], [0, 2, 3], [0, 2, 3], [1, 4, 0]])
    # padding (row 1 and 4's third column) and the anchor are not positives
    assert np.array_equal(layout.not_pos, [[1, 0, 0], [1, 0, 1], [0, 1, 0],
                                           [0, 0, 1], [0, 1, 1]])
    assert np.array_equal(layout.cells, layout.members + 5 * np.arange(5)[:, None])
    assert np.array_equal(layout.n_pos, [2, 1, 2, 2, 1])
    assert np.array_equal(layout.n_neg, [2, 3, 2, 2, 3])
    with pytest.raises(DegenerateBatchError, match="no positive"):
        losses.triplet_layout([0, 0, 1])
    with pytest.raises(DegenerateBatchError, match="no negative"):
        losses.triplet_layout([4, 4, 4])
    with pytest.raises(InvalidInputError, match="describe 5 rows"):
        losses.gbh_select(np.zeros((4, 4)), layout, 1, 1)


# ----------------------------------------------------------------- gbh loss

def test_gbh_loss_hand_case():
    w = HyperParams(lam=1.0, margin=0.2, k=1, p=1)
    expected = sum(math.log1p(math.exp(v)) for v in (-0.3, 0.7, 0.7, -0.3))
    got = gbh_loss(LINE, LINE_LABELS, w)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(3.3151, abs=5e-4)


def test_softplus_special_values():
    assert softplus(0.0) == pytest.approx(math.log(2.0))
    assert softplus(1000.0) == pytest.approx(1000.0)
    assert np.isfinite(softplus(np.array([-1000.0, 1000.0]))).all()


def test_gbh_loss_strictly_positive():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x, labels = random_balanced_batch(rng)
        w = HyperParams(lam=1.0, margin=0.0, k=2, p=2)
        assert gbh_loss(x, labels, w) > 0.0


# ------------------------------------------------------------ cross entropy

def test_cross_entropy_uniform_logits():
    logits = np.zeros((5, 7))
    assert cross_entropy_loss(logits, np.arange(5)) == pytest.approx(math.log(7))


def test_cross_entropy_saturated():
    logits = np.zeros((3, 4))
    labels = np.array([0, 1, 2])
    logits[np.arange(3), labels] = 1e4
    assert cross_entropy_loss(logits, labels) == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_matches_logsumexp_oracle():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(3, 4))
    labels = np.array([1, 0, 3])
    expected = np.mean([
        math.log(np.exp(row).sum()) - row[lab]
        for row, lab in zip(logits, labels)
    ])
    assert cross_entropy_loss(logits, labels) == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(InvalidInputError):
        cross_entropy_loss(np.zeros((2, 3)), [0, 3])
    with pytest.raises(InvalidInputError):
        cross_entropy_grad(np.zeros((2, 3)), [-1, 0])


def loop_cross_entropy_loss(logits, labels):
    """Two-pass cross-entropy value (its own shifted exp), the reference for
    the one-pass cross_entropy_loss_grad."""
    n = len(logits)
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(n), labels]))


def loop_cross_entropy_grad(logits, labels):
    """Two-pass cross-entropy gradient via a separate softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    n = len(p)
    p[np.arange(n), labels] -= 1.0
    return p / n


def test_cross_entropy_loss_grad_matches_two_pass_reference():
    rng = np.random.default_rng(21)
    batches = [(rng.normal(size=(128, 64), scale=s), rng.integers(0, 64, 128))
               for s in (0.1, 1.0, 30.0)]
    # repeated class ids and a saturated row
    logits = rng.normal(size=(6, 4))
    logits[2, 1] = 1e4
    batches.append((logits, np.array([1, 1, 1, 3, 0, 1])))
    for logits, ids in batches:
        value, grad = cross_entropy_loss_grad(logits, ids)
        assert value == loop_cross_entropy_loss(logits, ids)
        assert np.array_equal(grad, loop_cross_entropy_grad(logits, ids))
        assert cross_entropy_loss(logits, ids) == value
        assert np.array_equal(cross_entropy_grad(logits, ids), grad)


# -------------------------------------------------------------- composite

def test_composite_lambda_zero_equals_ce():
    rng = np.random.default_rng(4)
    x, labels = random_balanced_batch(rng)
    logits = rng.normal(size=(len(x), 3))
    w = HyperParams(lam=0.0, margin=0.1, k=1, p=1)
    b = composite_loss(x, logits, labels, w)
    assert b.total == cross_entropy_loss(logits, labels)
    assert b.gbh_term > 0.0


def test_composite_is_sum_of_components():
    logits = np.zeros((4, 2))
    w = HyperParams(lam=1.0, margin=0.2, k=1, p=1)
    b = composite_loss(LINE, logits, LINE_LABELS, w)
    assert b.total == pytest.approx(
        cross_entropy_loss(logits, LINE_LABELS) + gbh_loss(LINE, LINE_LABELS, w))


def test_composite_linear_in_lambda():
    logits = np.zeros((4, 2))
    w1 = HyperParams(lam=1.0, margin=0.2, k=1, p=1)
    w2 = HyperParams(lam=2.0, margin=0.2, k=1, p=1)
    b1 = composite_loss(LINE, logits, LINE_LABELS, w1)
    b2 = composite_loss(LINE, logits, LINE_LABELS, w2)
    assert b2.total == pytest.approx(b1.softmax_term + 2 * b1.gbh_term)


# -------------------------------------------------------------- gradients

def fd_gradients(x, logits, labels, w, h=1e-5):
    def total(e, l):
        return composite_loss(e, l, labels, w).total

    g_emb = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            up, dn = x.copy(), x.copy()
            up[i, j] += h
            dn[i, j] -= h
            g_emb[i, j] = (total(up, logits) - total(dn, logits)) / (2 * h)
    g_log = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up, dn = logits.copy(), logits.copy()
            up[i, j] += h
            dn[i, j] -= h
            g_log[i, j] = (total(x, up) - total(x, dn)) / (2 * h)
    return g_emb, g_log


def test_grad_lambda_zero_embeddings():
    rng = np.random.default_rng(6)
    x, labels = random_balanced_batch(rng)
    logits = rng.normal(size=(len(x), 3))
    w = HyperParams(lam=0.0, margin=0.1, k=1, p=1)
    _, g_emb, _ = composite_loss_grad(x, logits, labels, w)
    np.testing.assert_array_equal(g_emb, np.zeros_like(x))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, labels = random_balanced_batch(rng)
        logits = rng.normal(size=(len(x), 3))
        w = HyperParams(lam=1.5, margin=0.1, k=2, p=2)
        _, g_emb, g_log = composite_loss_grad(x, logits, labels, w)
        fd_emb, fd_log = fd_gradients(x, logits, labels, w)
        assert np.abs(g_emb - fd_emb).max() <= 1e-4 * max(np.abs(fd_emb).max(), 1.0)
        assert np.abs(g_log - fd_log).max() <= 1e-4 * max(np.abs(fd_log).max(), 1.0)


def test_grad_finite_at_coincident_points():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    w = HyperParams(lam=1.0, margin=0.2, k=1, p=1)
    _, g_emb, _ = composite_loss_grad(x, np.zeros((4, 2)), LINE_LABELS, w)
    assert np.all(np.isfinite(g_emb))


def test_composite_grad_breakdown_matches_composite_loss():
    rng = np.random.default_rng(8)
    for lam in (0.0, 0.7, 2.0):
        x, labels = random_balanced_batch(rng, p=4, k=3)
        logits = rng.normal(size=(len(x), 4))
        w = HyperParams(lam=lam, margin=0.1, k=2, p=3)
        got, g_emb, g_logits = composite_loss_grad(x, logits, labels, w)
        assert got == composite_loss(x, logits, labels, w)
        ce = loop_cross_entropy_loss(logits, labels)
        g, ref_grad = loop_triplet_grad(x, labels, 2, 3, 0.1, "softplus")
        assert got == LossBreakdown(ce, g, ce + lam * g)
        assert np.array_equal(g_emb, lam * ref_grad)
        assert np.array_equal(g_logits, loop_cross_entropy_grad(logits, labels))


def test_batch_hard_grad_value_matches_loss():
    rng = np.random.default_rng(9)
    x, labels = random_balanced_batch(rng)
    value, grad = batch_hard_grad(x, labels, margin=0.2)
    assert grad.shape == x.shape
    ref_value, ref_grad = loop_triplet_grad(x, labels, 1, 1, 0.2, "hinge")
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)


def test_gbh_grad_value_matches_loss():
    rng = np.random.default_rng(10)
    x, labels = random_balanced_batch(rng)
    w = HyperParams(lam=1.0, margin=0.1, k=2, p=3)
    value, grad = gbh_loss_grad(x, labels, w)
    assert value == gbh_loss(x, labels, w)
    ref_value, ref_grad = loop_triplet_grad(x, labels, 2, 3, 0.1, "softplus")
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)


def test_loss_values_equal_what_a_training_batch_records():
    # Each public loss value is, to the bit, the breakdown that
    # trainer.batch_loss_and_grads records for the same batch, as training
    # calls it: a P x K batch of dense class ids with the run's prebuilt
    # layout.  Every other batch is tie-heavy (small integer points).
    rng = np.random.default_rng(8)
    for i in range(200):
        p, k = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        n_classes = p + int(rng.integers(0, 4))
        class_ids = np.repeat(rng.choice(n_classes, p, replace=False), k)
        layout = losses.triplet_layout(np.repeat(np.arange(p), k))
        shape = (p * k, 2 * int(rng.integers(1, 5)))
        emb = (rng.integers(-1, 2, size=shape).astype(float) if i % 2
               else rng.normal(size=shape))
        logits = rng.normal(size=(p * k, n_classes))
        w = HyperParams(lam=float(rng.uniform(0.0, 2.0)),
                        margin=float(rng.uniform(-0.1, 0.3)),
                        k=int(rng.integers(1, 9)), p=int(rng.integers(1, 17)))

        def recorded(mode):
            return trainer.batch_loss_and_grads(mode, emb, logits, class_ids, w,
                                                layout)[0]

        value = batch_hard_grad(emb, class_ids, w.margin)[0]
        assert recorded("batch_hard") == LossBreakdown(0.0, value, value)
        value = gbh_loss(emb, class_ids, w)
        assert recorded("triplet_only") == LossBreakdown(0.0, value, value)
        half = emb[:, :shape[1] // 2]
        assert recorded("composite_fixed") == composite_loss(half, logits, class_ids, w)


# ------------------------------------------------------------- performance

def test_loss_scaling_spot_check():
    import time

    rng = np.random.default_rng(12)
    w = HyperParams(lam=1.0, margin=0.1, k=2, p=2)

    def best_time(p, k):
        x, labels = random_balanced_batch(rng, p=p, k=k, d=16)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            gbh_loss(x, labels, w)
            times.append(time.perf_counter() - t0)
        return min(times)

    small = best_time(8, 4)   # N = 32
    large = best_time(8, 8)   # N = 64
    assert large <= 5.0 * small + 1e-3


def test_hyperparams_box_validation():
    with pytest.raises(InvalidInputError):
        HyperParams(lam=2.5, margin=0.0, k=1, p=1)
    with pytest.raises(InvalidInputError):
        HyperParams(lam=1.0, margin=0.5, k=1, p=1)
    with pytest.raises(InvalidInputError):
        HyperParams(lam=1.0, margin=0.0, k=0, p=1)
    with pytest.raises(InvalidInputError):
        HyperParams(lam=1.0, margin=0.0, k=1, p=17)


ID_VALUES = (7, 1000, 42, 3, 311, 64)


@given(st.lists(st.integers(0, 5), min_size=2, max_size=40),
       st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(1, 8), st.integers(1, 16))
@settings(max_examples=150, deadline=None)
def test_triplet_grads_on_arbitrary_label_vectors(draws, seed, ties, k, p):
    labels = np.array([ID_VALUES[d] for d in draws])
    # dense class ids select, score and differentiate bit for bit like the
    # raw (shuffled, non-contiguous) ids: selection only tests equality
    dense = np.unique(labels, return_inverse=True)[1]
    counts = np.unique(labels, return_counts=True)[1]
    degenerate = len(counts) == 1 or (counts == 1).any()
    rng = np.random.default_rng(seed)
    shape = (len(labels), 3)
    x = (rng.integers(-1, 2, size=shape).astype(float) if ties
         else rng.normal(size=shape))
    w = HyperParams(lam=1.0, margin=0.1, k=k, p=p)
    d = pairwise_distances(x)
    if degenerate:
        with pytest.raises(DegenerateBatchError):
            losses.gbh_select(d, dense, k, p)
    else:
        for a, b in zip(losses.gbh_select(d, labels, k, p),
                        losses.gbh_select(d, dense, k, p)):
            assert np.array_equal(a, b)
    for fn, arg in ((gbh_loss_grad, w), (batch_hard_grad, 0.2)):
        if degenerate:
            for y in (labels, dense):
                with pytest.raises(DegenerateBatchError):
                    fn(x, y, arg)
        else:
            value, grad = fn(x, labels, arg)
            assert np.isfinite(value) and np.isfinite(grad).all()
            dense_value, dense_grad = fn(x, dense, arg)
            assert dense_value == value and np.array_equal(dense_grad, grad)
        for bad in (np.nan, np.inf, -np.inf):
            xb = x.copy()
            xb[rng.integers(len(labels)), rng.integers(3)] = bad
            with pytest.raises(InvalidInputError):
                fn(xb, labels, arg)
