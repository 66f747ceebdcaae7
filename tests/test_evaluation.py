import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from progmetric import evaluation
from progmetric.evaluation import (
    PcaResult,
    QueryGallerySplit,
    RetrievalMetrics,
    evaluate,
    metrics_csv_lines,
    pca_apply,
    pca_reduce,
)
from progmetric.losses import InvalidInputError


def retrieval_oracle(split):
    """Brute-force re-implementation: per-query sort with (distance, index)."""
    q = np.asarray(split.query_embeddings, dtype=float)
    g = np.asarray(split.gallery_embeddings, dtype=float)
    n_g = len(g)
    cmc_sum = np.zeros(n_g)
    aps = []
    excluded = 0
    for qi in range(len(q)):
        ranked = sorted(range(n_g),
                        key=lambda j: (math.dist(q[qi], g[j]), j))
        rel = [split.gallery_labels[j] == split.query_labels[qi] for j in ranked]
        if not any(rel):
            excluded += 1
            continue
        seen = 0
        hits = []
        for r, is_rel in enumerate(rel, start=1):
            if is_rel:
                seen += 1
                hits.append(seen / r)
        aps.append(sum(hits) / seen)
        first = rel.index(True)
        cmc_sum[first:] += 1.0
    cmc = cmc_sum / len(aps)
    return RetrievalMetrics(cmc=cmc, rank1=float(cmc[0]),
                            map=float(np.mean(aps)), excluded_queries=excluded)


def loop_evaluate(split):
    """The per-query loop over a full-matrix stable argsort that blocked
    ranking replaced; kept as a bit-exact reference."""
    q = np.asarray(split.query_embeddings, dtype=float)
    g = np.asarray(split.gallery_embeddings, dtype=float)
    q_labels = np.asarray(split.query_labels)
    g_labels = np.asarray(split.gallery_labels)
    dist = evaluation._root(evaluation._squared_distances(q, g))
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
    cmc = cmc_sum / len(aps)
    return RetrievalMetrics(cmc=cmc, rank1=float(cmc[0]),
                            map=float(np.mean(aps)), excluded_queries=excluded)


def assert_same_metrics(got, want):
    assert np.array_equal(got.cmc, want.cmc)
    assert got.rank1 == want.rank1
    assert got.map == want.map
    assert got.excluded_queries == want.excluded_queries


def labelled_split(rng, q, g, n_ids):
    return QueryGallerySplit(
        query_embeddings=q, query_labels=rng.integers(0, n_ids, len(q)),
        gallery_embeddings=g, gallery_labels=rng.integers(0, n_ids, len(g)))


def has_match(split):
    return bool(np.isin(split.query_labels, split.gallery_labels).any())


# ----------------------------------------------------------------- evaluate

def test_ap_hand_case_ranks_one_and_three():
    # gallery at distances 1..4, relevant at ranks 1 and 3
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0]]),
        query_labels=np.array([1]),
        gallery_embeddings=np.array([[1.0], [2.0], [3.0], [4.0]]),
        gallery_labels=np.array([1, 0, 1, 0]),
    )
    m = evaluate(split)
    assert m.map == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)
    assert m.map == pytest.approx(0.8333, abs=5e-5)
    assert m.rank1 == 1.0
    np.testing.assert_allclose(m.cmc, [1.0, 1.0, 1.0, 1.0])


def test_perfect_retrieval():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(5, 3), scale=50.0)
    split = QueryGallerySplit(
        query_embeddings=centers + rng.normal(size=(5, 3), scale=0.01),
        query_labels=np.arange(5),
        gallery_embeddings=centers,
        gallery_labels=np.arange(5),
    )
    m = evaluate(split)
    assert m.rank1 == 1.0
    assert m.map == 1.0


def test_matches_oracle_exhaustive_random_splits():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n_q = int(rng.integers(1, 9))
        n_g = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        split = QueryGallerySplit(
            query_embeddings=rng.normal(size=(n_q, d)),
            query_labels=rng.integers(0, 3, n_q),
            gallery_embeddings=rng.normal(size=(n_g, d)),
            gallery_labels=rng.integers(0, 3, n_g),
        )
        if not any(l in split.gallery_labels for l in split.query_labels):
            continue
        got = evaluate(split)
        want = retrieval_oracle(split)
        np.testing.assert_allclose(got.cmc, want.cmc, atol=1e-12)
        assert got.map == pytest.approx(want.map, abs=1e-12)
        assert got.rank1 == pytest.approx(want.rank1, abs=1e-12)
        assert got.excluded_queries == want.excluded_queries


def test_matches_loop_reference_on_random_splits():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n_q, n_g = (int(n) for n in rng.integers(1, 60, 2))
        d = int(rng.integers(1, 9))
        split = labelled_split(rng, rng.normal(size=(n_q, d)),
                               rng.normal(size=(n_g, d)), int(rng.integers(1, 6)))
        if has_match(split):
            assert_same_metrics(evaluate(split), loop_evaluate(split))


def test_matches_loop_reference_on_integer_grid_ties():
    # few distinct distances, so most relevant items tie with others
    rng = np.random.default_rng(12)
    for _ in range(40):
        n_q, n_g = (int(n) for n in rng.integers(1, 50, 2))
        d = int(rng.integers(1, 4))
        split = labelled_split(rng, rng.integers(-2, 3, (n_q, d)).astype(float),
                               rng.integers(-2, 3, (n_g, d)).astype(float),
                               int(rng.integers(1, 4)))
        if has_match(split):
            assert_same_metrics(evaluate(split), loop_evaluate(split))


def test_matches_loop_reference_on_duplicated_gallery_rows():
    rng = np.random.default_rng(13)
    for _ in range(20):
        base = rng.normal(size=(int(rng.integers(1, 20)), 4))
        g = np.vstack([base, base, base[:3]])[rng.permutation(2 * len(base)
                                                              + len(base[:3]))]
        q = np.vstack([g[:5], rng.normal(size=(5, 4))])  # some at distance 0
        split = labelled_split(rng, q, g, 3)
        if has_match(split):
            assert_same_metrics(evaluate(split), loop_evaluate(split))


def test_matches_loop_reference_when_every_distance_ties():
    # a collapsed model: every embedding equal, so each row is one tie run
    rng = np.random.default_rng(16)
    for n_ids in (1, 2, 5):
        split = labelled_split(rng, np.ones((9, 3)), np.ones((30, 3)), n_ids)
        if has_match(split):
            assert_same_metrics(evaluate(split), loop_evaluate(split))


def test_relevant_item_is_the_single_farthest_gallery_row():
    # its rank is G - 1, so no sorted entry follows it to test for a tie
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0], [0.5]]), query_labels=np.array([1, 0]),
        gallery_embeddings=np.array([[1.0], [2.0], [-1.0], [4.0]]),
        gallery_labels=np.array([0, 0, 0, 1]))
    got = evaluate(split)
    assert_same_metrics(got, loop_evaluate(split))
    assert got.cmc[0] == 0.5 and got.map == (0.25 + 1.0) / 2


def test_two_tied_relevant_items_are_the_two_farthest():
    # tied at ranks G - 2 and G - 1, the lower gallery index first
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0], [0.0]]), query_labels=np.array([1, 1]),
        gallery_embeddings=np.array([[3.0], [1.0], [-3.0], [2.0]]),
        gallery_labels=np.array([1, 0, 1, 0]))
    got = evaluate(split)
    assert_same_metrics(got, loop_evaluate(split))
    assert np.array_equal(got.cmc, [0.0, 0.0, 1.0, 1.0])
    assert got.map == (1 / 3 + 2 / 4) / 2


@pytest.fixture
def small_blocks(monkeypatch):
    """Shrink the block budget to 5 query rows against a 40-row gallery."""
    n_gallery, height = 40, 5
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * n_gallery * height)
    return n_gallery, height


# 1, 2, height - 1, height, height + 1 and 2 * height + 1 queries
@pytest.mark.parametrize("n_query", [1, 2, 4, 5, 6, 11])
def test_matches_loop_reference_at_block_boundaries(small_blocks, n_query):
    n_gallery, _ = small_blocks
    rng = np.random.default_rng(n_query)
    for grid in (False, True):
        q = rng.normal(size=(n_query, 3))
        g = rng.normal(size=(n_gallery, 3))
        if grid:
            q, g = np.round(q), np.round(g)
        split = labelled_split(rng, q, g, 2)
        split.query_labels[0] = split.gallery_labels[0]
        assert_same_metrics(evaluate(split), loop_evaluate(split))


def test_block_of_only_excluded_queries(small_blocks):
    n_gallery, height = small_blocks
    rng = np.random.default_rng(14)
    split = labelled_split(rng, rng.normal(size=(3 * height, 3)),
                           rng.normal(size=(n_gallery, 3)), 3)
    split.query_labels[height:2 * height] = 99  # the whole middle block
    got = evaluate(split)
    assert got.excluded_queries >= height
    assert_same_metrics(got, loop_evaluate(split))


def test_matches_loop_reference_when_some_rows_are_constant():
    # a query at the centre of a gallery circle sees every item at distance 1,
    # a constant sorted row; the other queries in its block do not
    rng = np.random.default_rng(17)
    g = np.tile([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], (6, 1))
    q = np.vstack([rng.normal(size=(3, 2)), np.zeros((2, 2)), rng.normal(size=(3, 2))])
    for n_ids in (1, 2, 3):
        split = labelled_split(rng, q, g, n_ids)
        if has_match(split):
            assert_same_metrics(evaluate(split), loop_evaluate(split))


LABEL_CASES = {
    "int": (np.array([7, 1000, -3, 42, 7, 5]),
            np.array([42, 7, 7, 1000, -3, 42, 8, 1000, 7, -3])),
    "str": (np.array(["a", "bb", "cid", "a", "zz", "bb"]),
            np.array(["bb", "a", "cid", "a ", "cid", "bb", "a", "bbb", "cid", "a"])),
    "int_float": (np.array([1, 2, 3, 2**53 + 1, 2, 1]),
                  np.array([1.0, 2.5, 3.0, 2.0**53, 2.0, 1.0, 3.0, 2.5, 2.0, 0.5])),
    "float_int": (np.array([1.0, 2.5, 2.0**53, 3.0, 2.0, 0.5]),
                  np.array([2**53 + 1, 2, 1, 2**53, 3, 2, 1, 2**53 + 1, 2, 5])),
    "int_uint": (np.array([2**53, 5, 2**53 + 1, 3, 5, 2**53]),
                 np.array([2**53 + 1, 5, 2**53, 3, 2**53, 7, 2**53 + 1, 3, 5, 1],
                          dtype=np.uint64)),
    "nan": (np.array([np.nan, 1.0, 2.0, np.nan, 1.0, 2.0]),
            np.array([np.nan, 1.0, np.nan, 2.0, 1.0, np.nan, 2.0, 3.0, 1.0, np.nan])),
}


@pytest.mark.parametrize("case", sorted(LABEL_CASES))
def test_label_index_matches_equality(case, monkeypatch):
    # relevant pairs are exactly those where the labels compare equal under
    # `==`: a NaN-labelled query matches nothing, not even a NaN gallery label
    q_labels, g_labels = LABEL_CASES[case]
    rng = np.random.default_rng(18)
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * len(g_labels) * 2)
    for grid in (False, True):
        q = rng.normal(size=(len(q_labels), 2))
        g = rng.normal(size=(len(g_labels), 2))
        if grid:
            q, g = np.round(q), np.round(g)
        split = QueryGallerySplit(q, q_labels, g, g_labels)
        got = evaluate(split)
        assert_same_metrics(got, loop_evaluate(split))
        if case == "nan":
            assert got.excluded_queries == 2


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    """Pretend the process may run on 1, 2 or 3 CPUs."""
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: request.param)
    return request.param


def test_worker_count_keeps_metrics_bit_identical(small_blocks, workers):
    n_gallery, height = small_blocks
    rng = np.random.default_rng(19)
    n_query = 3 * height + 1  # a one-query tail
    q = np.round(rng.normal(size=(n_query, 3)))  # grid ties
    g = np.round(rng.normal(size=(n_gallery, 3)))
    split = labelled_split(rng, q, g, 3)
    split.query_labels[height:2 * height] = 99  # a block of only excluded queries
    before = threading.active_count()
    got = evaluate(split)
    assert threading.active_count() == before
    assert got.excluded_queries >= height
    assert_same_metrics(got, loop_evaluate(split))


def shell_split(rng):
    # Gallery rows [a, b] at squared distance a^2 + b^2 = t + k float64 ulps
    # from queries at the origin, t halfway between two float32 values (a * a
    # is exact).  At these a, k = 0 and 1 share a root but their float32
    # keys are one step apart, on either side of t; at 1.5 and 3, k = -5..5
    # share a key, and neighbours share a root.
    g = []
    for a, ks in [(a, (0, 1)) for a in (0.875, 1.0625, 1.75, 2.1875, 2.375,
                                        2.8125, 3.125, 3.5)] + [(1.5, range(-5, 6)),
                                                               (3.0, range(-5, 6))]:
        half = float(np.spacing(np.float32(a * a))) / 2
        g += [[a, math.sqrt(half + k * float(np.spacing(a * a + half)))] for k in ks]
    q = np.vstack([np.zeros((6, 2)), rng.normal(size=(4, 2))])
    return labelled_split(rng, q, np.array(g)[rng.permutation(len(g))], 3)


def near_split(rng, scale, offset):
    # queries at `scale`; gallery rows that copy some of them exactly or
    # `offset` away, and others at `scale`
    q = rng.normal(size=(12, 3)) * scale
    g = np.vstack([q[rng.integers(0, 12, 24)] + rng.normal(size=(24, 3)) * offset,
                   q[rng.integers(0, 12, 12)], rng.normal(size=(10, 3)) * scale])
    return labelled_split(rng, q, g[rng.permutation(len(g))], 3)


F32 = np.finfo(np.float32)
TIE_ENTRIES = evaluation.TIE_ENTRIES
ADVERSARIAL = {  # a split, and what its squared distances d2 must show
    "shells": (shell_split, None),
    "huge": (lambda rng: near_split(rng, 1e20, 1e20),  # d2 past float32's max
             lambda d2: (d2 > F32.max).any()),
    "tiny": (lambda rng: near_split(rng, 1e-22, 1e-25),  # keys 0 or subnormal
             lambda d2: ((d2 > 0) & (d2 < F32.tiny)).any()),
    "duplicates": (lambda rng: near_split(rng, 1e3 / math.sqrt(3), 1e-9),
                   lambda d2: (d2 < 0).any()),  # rounded below 0
    "grid": (lambda rng: labelled_split(rng, np.round(rng.normal(size=(12, 2))),
                                        np.round(rng.normal(size=(40, 2))), 3),
             None),
}


@pytest.mark.parametrize("tie_entries", [TIE_ENTRIES, 4])
@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("kind", sorted(ADVERSARIAL))
def test_key_ranking_matches_loop_reference_on_adversarial_splits(kind, n_workers,
                                                                  tie_entries,
                                                                  monkeypatch):
    # Blocks rank on float32 keys of the squared distances and settle near
    # ties exactly; these splits put keys on every edge of that: roots that
    # collide while squared distances differ (shells, whose keys are equal
    # or one float32 step apart), keys past float32's range, keys that
    # underflow, and squared distances rounded below 0.  A TIE_ENTRIES below
    # the gallery size makes the flagged pairs scan one row at a time.
    make, shows = ADVERSARIAL[kind]
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: n_workers)
    monkeypatch.setattr(evaluation, "TIE_ENTRIES", tie_entries)
    for seed in range(4):
        split = make(np.random.default_rng(seed))
        d2 = evaluation._squared_distances(split.query_embeddings,
                                           split.gallery_embeddings)
        assert np.isfinite(d2).all() and (shows is None or shows(d2))
        if not has_match(split):
            continue
        monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * d2.shape[1] * 3)
        with np.errstate(over="raise"):  # keys past float32 are no overflow
            got = evaluate(split)
        assert_same_metrics(got, loop_evaluate(split))


def test_shells_put_equal_roots_on_adjacent_keys():
    # what makes shell_split adversarial: in a query's row at the origin,
    # squared distances with one root whose float32 keys differ by one step
    d2 = evaluation._squared_distances(np.zeros((1, 2)),
                                       shell_split(np.random.default_rng(0))
                                       .gallery_embeddings)[0]
    root, key = evaluation._root(d2), d2.astype(np.float32)
    same_root = root[:, None] == root[None, :]
    assert (same_root & (d2[:, None] != d2[None, :])).any()
    assert (same_root & (np.nextafter(key[:, None], np.inf) == key[None, :])).any()


def overflow_split(n_query, row):
    q = np.zeros((n_query, 1))
    q[row] = 1e200
    return QueryGallerySplit(q, np.zeros(n_query, int),
                             np.array([[0.0], [1.0]]), np.array([0, 1]))


def test_overflow_in_a_later_block_is_an_error(workers, monkeypatch):
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * 2 * 6)  # 6 rows a block
    split = overflow_split(30, 25)
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match="overflow"), \
            np.errstate(over="ignore"):
        evaluate(split)
    assert threading.active_count() == before


def test_worker_threads_follow_the_callers_errstate(workers, monkeypatch):
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * 2 * 6)
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        evaluate(overflow_split(30, 25))


def test_first_failing_block_in_block_order_is_raised(small_blocks, workers,
                                                      monkeypatch):
    # Each query row's one coordinate is its index, so a block is known by its
    # first row.  With more than one thread, block 1 fails only after block 2
    # has failed, yet its error is raised; one thread takes the blocks in
    # order.  Every block after block 2 waits until block 2 has failed, after
    # which no worker takes another block, so of those later blocks at most
    # one per thread can have started.  (The waits time out only if evaluate
    # hangs.)
    n_gallery, height = small_blocks
    n_query = 8 * height
    starts = [b.start for b in evaluation._query_blocks(n_query, n_gallery, workers)]
    rank_block = evaluation._rank_block
    block_2_failed = threading.Event()
    started = []

    def failing_rank_block(q, *args):
        index = starts.index(int(q[0, 0]))
        started.append(index)
        if index == 1:
            if workers > 1:
                block_2_failed.wait(30)
            raise InvalidInputError("block 1")
        if index == 2:
            block_2_failed.set()
            raise InvalidInputError("block 2")
        if index > 2:
            block_2_failed.wait(30)
        return rank_block(q, *args)

    monkeypatch.setattr(evaluation, "_rank_block", failing_rank_block)
    split = QueryGallerySplit(np.arange(n_query, dtype=float)[:, None],
                              np.zeros(n_query, int),
                              np.zeros((n_gallery, 1)), np.zeros(n_gallery, int))
    before = threading.active_count()
    with pytest.raises(InvalidInputError, match="^block 1$"):
        evaluate(split)
    assert threading.active_count() == before
    if workers == 1:
        assert len(started) >= 2 and started == list(range(len(started)))
    else:
        assert block_2_failed.is_set()
    assert set(started) <= set(range(3 + workers))  # of 20 blocks


def test_one_block_ranks_on_the_calling_thread(workers, monkeypatch):
    rng = np.random.default_rng(21)
    split = labelled_split(rng, rng.normal(size=(256, 4)),
                           rng.normal(size=(768, 4)), 16)
    assert len(evaluation._query_blocks(256, 768, workers)) == 1
    rank_block = evaluation._rank_block
    idents = []

    def recording(*args):
        idents.append(threading.get_ident())
        return rank_block(*args)

    monkeypatch.setattr(evaluation, "_rank_block", recording)
    before = threading.active_count()
    got = evaluate(split)
    assert threading.active_count() == before
    assert idents == [threading.get_ident()]
    assert_same_metrics(got, loop_evaluate(split))


def test_many_blocks_rank_on_at_most_workers_threads(small_blocks, workers,
                                                     monkeypatch):
    # The other threads wait in their blocks until the calling thread has
    # ranked one, so they cannot take every block before it starts.  (The
    # wait times out, once, only if the calling thread takes no block.)
    n_gallery, height = small_blocks
    rng = np.random.default_rng(22)
    n_query = 6 * height
    split = labelled_split(rng, rng.normal(size=(n_query, 3)),
                           rng.normal(size=(n_gallery, 3)), 3)
    rank_block = evaluation._rank_block
    caller, caller_ranked = threading.get_ident(), threading.Event()
    idents = []

    def recording(*args):
        idents.append(threading.get_ident())
        if idents[-1] == caller or not caller_ranked.wait(10):
            caller_ranked.set()
        return rank_block(*args)

    monkeypatch.setattr(evaluation, "_rank_block", recording)
    before = threading.active_count()
    got = evaluate(split)
    assert threading.active_count() == before
    assert len(idents) == len(evaluation._query_blocks(n_query, n_gallery, workers))
    assert caller in idents and len(set(idents)) <= workers
    assert_same_metrics(got, loop_evaluate(split))


def test_each_block_is_ranked_once_under_thread_switching(small_blocks, monkeypatch):
    # 8 workers, more than this host's CPUs, take 60 blocks from the shared
    # iterator while the interpreter switches threads every microsecond
    n_gallery, height = small_blocks
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 8)
    rng = np.random.default_rng(23)
    n_query = 60 * height
    split = labelled_split(rng, rng.normal(size=(n_query, 3)),
                           rng.normal(size=(n_gallery, 3)), 3)
    rank_block = evaluation._rank_block
    firsts = []

    def recording(q, *args):
        firsts.append(float(q[0, 0]))
        return rank_block(q, *args)

    monkeypatch.setattr(evaluation, "_rank_block", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = evaluate(split)
    finally:
        sys.setswitchinterval(interval)
    blocks = evaluation._query_blocks(n_query, n_gallery, 8)
    assert sorted(firsts) == sorted(split.query_embeddings[b.start, 0] for b in blocks)
    assert_same_metrics(got, loop_evaluate(split))


@pytest.mark.parametrize("d", [3, 8, 32])
def test_block_distances_equal_full_product_rows(d):
    n_gallery = 8192
    rng = np.random.default_rng(d)
    g = rng.normal(size=(n_gallery, d))
    for workers in (1, 2, 3):
        height = evaluation.BLOCK_BYTES // (8 * n_gallery * workers)
        n_query = 2 * height + 1  # a naive partition leaves a one-row tail
        q = rng.normal(size=(n_query, d))
        full = evaluation._squared_distances(q, g)
        if workers == 1:
            blocks = evaluation._query_blocks(n_query, n_gallery)
        else:
            blocks = evaluation._query_blocks(n_query, n_gallery, workers)
        assert [b.stop - b.start for b in blocks] == [height, height + 1]
        for block in blocks:
            assert np.array_equal(evaluation._squared_distances(q[block], g),
                                  full[block])


def test_query_blocks_cover_queries_without_one_row_blocks():
    for n_gallery in (1, 40, 6144, 10**7):
        for n_query in (0, 1, 2, 3, 169, 170, 171, 341, 2048):
            blocks = evaluation._query_blocks(n_query, n_gallery)
            rows = np.concatenate([np.arange(n_query)[b] for b in blocks] or [[]])
            assert np.array_equal(rows, np.arange(n_query))
            assert n_query <= 1 or min(b.stop - b.start for b in blocks) >= 2


@pytest.mark.parametrize("d", [3, 32])
def test_distances_written_into_block_buffers_equal_fresh_rows(workers, monkeypatch, d):
    # The blocks reuse each worker's pair of buffers, the last (short) block
    # a prefix of them; the squared distances written there must equal a
    # fresh product's rows, and rows of the full Q x G product, byte for byte.
    n_gallery = 4096
    n_query = 3 * evaluation.BLOCK_BYTES // (8 * n_gallery) + 50  # 3 blocks + 50
    height = evaluation.BLOCK_BYTES // (8 * n_gallery * workers)
    rng = np.random.default_rng(d + workers)
    split = labelled_split(rng, rng.normal(size=(n_query, d)),
                           rng.normal(size=(n_gallery, d)), 64)
    q, g = split.query_embeddings, split.gallery_embeddings
    squared_distances = evaluation._squared_distances
    written, buffers = [], set()

    def recording(a, b, b_sq=None, out=None, work=None):
        d2 = squared_distances(a, b, b_sq, out=out, work=work)
        assert d2 is out and out.base is not None and work.base is not None
        buffers.update((id(out.base), id(work.base)))
        written.append((a, d2.copy()))
        return d2

    want = loop_evaluate(split)
    monkeypatch.setattr(evaluation, "_squared_distances", recording)
    assert_same_metrics(evaluate(split), want)
    assert 2 <= len(buffers) <= 2 * workers  # two arrays a worker
    heights = [b.stop - b.start for b in
               evaluation._query_blocks(n_query, n_gallery, workers)]
    assert heights == [height] * (n_query // height) + [n_query % height]
    assert 1 < heights[-1] < height  # a short last block
    assert sorted(len(a) for a, _ in written) == sorted(heights)
    full = squared_distances(q, g)
    for a, d2 in written:
        start = int(np.flatnonzero((q == a[0]).all(axis=1))[0])
        assert d2.tobytes() == squared_distances(a, g).tobytes()
        assert d2.tobytes() == full[start:start + len(a)].tobytes()


@pytest.mark.parametrize("n_query, n_gallery", [(0, 5), (5, 0), (0, 0)])
def test_empty_side_is_an_error(n_query, n_gallery):
    split = QueryGallerySplit(np.zeros((n_query, 4)), np.zeros(n_query, int),
                              np.zeros((n_gallery, 4)), np.zeros(n_gallery, int))
    with pytest.raises(InvalidInputError, match="no query has a gallery match"):
        evaluate(split)


def test_peak_memory_stays_per_block(monkeypatch):
    # The full 2048 x 6144 float64 distance matrix (96 MiB) and its int64
    # argsort (96 MiB) together need over 190 MiB.  Blocked ranking ranks
    # each block inside its worker's two block-sized arrays (together about
    # 2 x BLOCK_BYTES, 16 MiB) and measures about 16.4 MiB here, with one
    # thread or with two, whose blocks are half as high.
    rng = np.random.default_rng(15)
    split = labelled_split(rng, rng.normal(size=(2048, 32)),
                           rng.normal(size=(6144, 32)), 512)
    for workers in (1, 2):
        monkeypatch.setattr(evaluation, "_usable_cpus", lambda: workers)
        tracemalloc.start()
        try:
            evaluate(split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def test_peak_memory_stays_per_block_on_tied_distances(monkeypatch):
    # Rounded 2-d normals sit on a few grid points, so nearly every relevant
    # distance ties with others in its row; a collapsed model ties them all.
    # The tied pairs are ranked TIE_ENTRIES squared distances at a time; a
    # stable argsort of the tied rows and its inverse took 32.4 MiB here.
    rng = np.random.default_rng(15)
    tied = labelled_split(rng, np.round(rng.normal(size=(2048, 2))),
                          np.round(rng.normal(size=(6144, 2))), 512)
    collapsed = labelled_split(rng, np.ones((2048, 32)), np.ones((6144, 32)), 512)
    for split in (tied, collapsed):
        want = loop_evaluate(split)
        for workers in (1, 2):
            monkeypatch.setattr(evaluation, "_usable_cpus", lambda: workers)
            tracemalloc.start()
            try:
                got = evaluate(split)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20 * 2**20
            assert_same_metrics(got, want)


def test_peak_memory_does_not_grow_with_block_count(workers, monkeypatch):
    # 150 two-row blocks against a 30000-row gallery.  A finished block keeps
    # only its queries' first-hit ranks and APs, so the peak is a few blocks'
    # and the gallery's arrays, 2-5 MiB here; one gallery-sized count array
    # kept per block would add 34 MiB.
    n_gallery, n_query = 30000, 300
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 8 * n_gallery * 2)
    rng = np.random.default_rng(20)
    split = labelled_split(rng, rng.normal(size=(n_query, 4)),
                           rng.normal(size=(n_gallery, 4)), 50)
    tracemalloc.start()
    try:
        evaluate(split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_nonfinite_embeddings_name_side_and_row():
    q = np.zeros((3, 2))
    g = np.ones((4, 2))
    labels_q, labels_g = np.zeros(3, int), np.zeros(4, int)
    q[1, 0] = np.nan
    g[2, 1] = np.inf
    with pytest.raises(InvalidInputError, match="query embedding row 1"):
        evaluate(QueryGallerySplit(q, labels_q, g, labels_g))
    with pytest.raises(InvalidInputError, match="gallery embedding row 2"):
        evaluate(QueryGallerySplit(np.zeros((3, 2)), labels_q, g, labels_g))


def test_overflowing_distances_are_an_error():
    split = QueryGallerySplit(
        query_embeddings=np.array([[1e200], [0.0]]), query_labels=np.array([0, 0]),
        gallery_embeddings=np.array([[0.0], [1.0]]), gallery_labels=np.array([0, 1]))
    with pytest.raises(InvalidInputError, match="overflow"), \
            np.errstate(over="ignore"):
        evaluate(split)


def test_distance_ties_break_by_gallery_index():
    # two gallery items at the same distance; the lower index wins rank 1
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0]]),
        query_labels=np.array([7]),
        gallery_embeddings=np.array([[1.0], [-1.0]]),
        gallery_labels=np.array([0, 7]),
    )
    m = evaluate(split)
    assert m.rank1 == 0.0
    assert m.cmc[1] == 1.0


def test_cmc_monotone_and_bounded():
    rng = np.random.default_rng(2)
    split = QueryGallerySplit(
        query_embeddings=rng.normal(size=(6, 4)),
        query_labels=rng.integers(0, 3, 6),
        gallery_embeddings=rng.normal(size=(10, 4)),
        gallery_labels=np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]),
    )
    m = evaluate(split)
    assert np.all(np.diff(m.cmc) >= 0)
    assert np.all((m.cmc >= 0) & (m.cmc <= 1))
    assert m.cmc[-1] == 1.0  # every query label occurs in this gallery
    assert m.rank1 == m.cmc[0]


def test_excluded_query_tally():
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0], [5.0]]),
        query_labels=np.array([1, 99]),
        gallery_embeddings=np.array([[1.0], [2.0]]),
        gallery_labels=np.array([1, 1]),
    )
    m = evaluate(split)
    assert m.excluded_queries == 1
    assert m.rank1 == 1.0  # computed over the single valid query


def test_no_valid_query_is_an_error():
    split = QueryGallerySplit(
        query_embeddings=np.array([[0.0]]), query_labels=np.array([3]),
        gallery_embeddings=np.array([[1.0]]), gallery_labels=np.array([4]))
    with pytest.raises(InvalidInputError):
        evaluate(split)
    # labels of kinds that `==` never finds equal: str against int, which
    # numpy can cast to one dtype, and datetime against int, which it cannot
    for g_labels in (np.array(["3"]), np.array([3], dtype="M8[D]")):
        split.gallery_labels = g_labels
        with pytest.raises(InvalidInputError, match="no query has a gallery match"):
            evaluate(split)


def test_dimension_mismatch():
    split = QueryGallerySplit(
        query_embeddings=np.zeros((1, 3)), query_labels=np.array([0]),
        gallery_embeddings=np.zeros((1, 2)), gallery_labels=np.array([0]))
    with pytest.raises(InvalidInputError):
        evaluate(split)


@pytest.mark.parametrize("side", ["query", "gallery"])
@pytest.mark.parametrize("shape", [(), (2,), (2, 1, 1)])
def test_embeddings_that_are_not_2d_raise_typed_error(side, shape):
    emb = {"query": np.zeros((2, 1)), "gallery": np.ones((2, 1))}
    emb[side] = np.zeros(shape)
    split = QueryGallerySplit(
        query_embeddings=emb["query"], query_labels=np.zeros(2, int),
        gallery_embeddings=emb["gallery"], gallery_labels=np.zeros(2, int))
    with pytest.raises(InvalidInputError, match=f"^{side} embeddings must be 2-D"):
        evaluate(split)


@pytest.mark.parametrize("n_q_labels, n_g_labels", [(1, 2), (3, 2), (2, 1), (2, 3)])
def test_label_count_mismatch(n_q_labels, n_g_labels):
    split = QueryGallerySplit(
        query_embeddings=np.zeros((2, 1)), query_labels=np.zeros(n_q_labels, int),
        gallery_embeddings=np.ones((2, 1)), gallery_labels=np.zeros(n_g_labels, int))
    with pytest.raises(InvalidInputError, match="needs one label"):
        evaluate(split)


def test_metrics_csv_shape():
    m = RetrievalMetrics(cmc=np.array([0.5, 1.0]), rank1=0.5, map=0.75,
                         excluded_queries=2)
    lines = list(metrics_csv_lines(m))
    assert lines[0] == "rank,cmc"
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("summary,rank1=0.5")
    assert "excluded_queries=2" in lines[-1]


# ---------------------------------------------------------------------- pca

def test_pca_identity_dim_is_isometry():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 6))
    res = pca_reduce(x, 6)
    d_before = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
    d_after = np.linalg.norm(res.projected[:, None] - res.projected[None, :],
                             axis=-1)
    np.testing.assert_allclose(d_after, d_before, atol=1e-10)


def test_pca_exact_subspace_reconstruction():
    rng = np.random.default_rng(4)
    basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
    x = rng.normal(size=(30, 2)) @ basis.T + rng.normal(size=5)
    res = pca_reduce(x, 2)
    recon = res.projected @ res.components.T + res.mean
    np.testing.assert_allclose(recon, x, atol=1e-10)


def test_pca_hand_case_points_on_x_axis():
    x = np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    res = pca_reduce(x, 1)
    np.testing.assert_allclose(res.projected[:, 0],
                               [1.0 - 7 / 3, 2.0 - 7 / 3, 4.0 - 7 / 3],
                               atol=1e-12)
    np.testing.assert_allclose(res.components[:, 0], [1.0, 0.0], atol=1e-12)


def test_pca_variance_descending_and_sign_convention():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 5)) * np.array([5.0, 3.0, 1.0, 0.5, 0.1])
    res = pca_reduce(x, 5)
    assert np.all(np.diff(res.explained_variance) <= 1e-12)
    for j in range(5):
        pivot = np.argmax(np.abs(res.components[:, j]))
        assert res.components[pivot, j] > 0


def test_pca_apply_matches_fit_projection():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(15, 4))
    res = pca_reduce(x, 3)
    np.testing.assert_allclose(pca_apply(res, x), res.projected, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_pca_rejects_a_nonfinite_row(bad):
    # eigh on a non-finite covariance says only "Eigenvalues did not converge"
    x = np.random.default_rng(6).normal(size=(10, 4))
    x[3, 1] = bad
    with pytest.raises(InvalidInputError, match="^PCA input embedding row 3 is not finite$"):
        pca_reduce(x, 2)


def test_pca_target_dim_validation():
    x = np.zeros((3, 4))
    with pytest.raises(InvalidInputError):
        pca_reduce(x, 0)
    with pytest.raises(InvalidInputError):
        pca_reduce(x, 4)  # > min(N, e) = 3
