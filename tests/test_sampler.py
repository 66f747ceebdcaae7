import contextlib
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progmetric.sampler import (
    MIN_FORKED_BATCHES as FLOOR,
    BatchProducerError,
    BatchSpec,
    InsufficientDataError,
    PKSampler,
    batches_per_epoch,
    pk_sample,
)


def make_labels(n_ids, per_id):
    return np.repeat(np.arange(n_ids), per_id)


def shuffled_labels(seed):
    """Non-contiguous ids in shuffled order; ids 7 and 42 hold fewer than K = 4."""
    counts = {7: 2, 1000: 9, 42: 3, 5: 12, 311: 4, 64: 6}
    labels = np.repeat(list(counts), list(counts.values()))
    return np.random.default_rng(seed).permutation(labels)


def loop_pk_sample(labels, spec, rng):
    """Per-batch identity scan, the reference for pk_sample's RNG stream."""
    chosen = rng.choice(np.unique(labels), size=spec.P, replace=False)
    out = np.empty(spec.batch_size, dtype=int)
    for i, ident in enumerate(chosen):
        pool = np.flatnonzero(labels == ident)
        out[i * spec.K : (i + 1) * spec.K] = rng.choice(pool, size=spec.K,
                                                        replace=len(pool) < spec.K)
    return out


def test_reference_batch_shape():
    labels = make_labels(32, 8)
    idx = pk_sample(labels, BatchSpec(16, 8), np.random.default_rng(0))
    assert len(idx) == 128
    picked = labels[idx]
    ids, counts = np.unique(picked, return_counts=True)
    assert len(ids) == 16
    assert np.all(counts == 8)


def test_all_identities_when_p_equals_total():
    labels = make_labels(4, 5)
    idx = pk_sample(labels, BatchSpec(4, 2), np.random.default_rng(1))
    assert set(labels[idx]) == {0, 1, 2, 3}


def test_small_identity_forces_replacement():
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
    idx = pk_sample(labels, BatchSpec(2, 8), np.random.default_rng(2))
    zero_rows = idx[labels[idx] == 0]
    assert len(zero_rows) == 8
    assert set(zero_rows) <= {0, 1, 2}
    assert len(set(zero_rows)) <= 3  # repeats necessarily occur


def test_too_few_identities():
    with pytest.raises(InsufficientDataError):
        pk_sample(make_labels(3, 4), BatchSpec(4, 2), np.random.default_rng(0))


def test_sampler_too_few_identities_raises_at_construction():
    with pytest.raises(InsufficientDataError):
        PKSampler(make_labels(3, 4), BatchSpec(4, 2), seed=0)


def test_pk_sample_matches_reference_draw_for_draw():
    labels = shuffled_labels(3)
    spec = BatchSpec(4, 4)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(500):
        assert np.array_equal(pk_sample(labels, spec, rng),
                              loop_pk_sample(labels, spec, ref_rng))


def test_sampler_matches_pk_sample_draw_for_draw():
    labels = shuffled_labels(4)
    spec = BatchSpec(4, 4)
    sampler = PKSampler(labels, spec, seed=17)
    rng = np.random.default_rng(17)
    for _ in range(500):
        assert np.array_equal(sampler.sample(), pk_sample(labels, spec, rng))


def test_spec_validation():
    with pytest.raises(ValueError):
        BatchSpec(1, 8)
    with pytest.raises(ValueError):
        BatchSpec(8, 1)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_contract_on_random_datasets(seed, p, k):
    rng = np.random.default_rng(seed)
    n_ids = p + int(rng.integers(0, 4))
    per_id = int(rng.integers(1, 10))
    labels = make_labels(n_ids, per_id)
    idx = pk_sample(labels, BatchSpec(p, k), rng)
    picked = labels[idx]
    ids, counts = np.unique(picked, return_counts=True)
    assert len(ids) == p
    assert np.all(counts == k)


def test_determinism():
    labels = make_labels(10, 6)
    s1 = PKSampler(labels, BatchSpec(4, 3), seed=42)
    s2 = PKSampler(labels, BatchSpec(4, 3), seed=42)
    for _ in range(20):
        np.testing.assert_array_equal(s1.sample(), s2.sample())


def test_epoch_definition():
    assert batches_per_epoch(1024, BatchSpec(16, 8)) == 8
    assert batches_per_epoch(1025, BatchSpec(16, 8)) == 9
    assert batches_per_epoch(5, BatchSpec(2, 3)) == 1


def test_identity_selection_uniformity():
    # 8 identities, P = 4: each identity expected in half of 10,000 batches.
    labels = make_labels(8, 4)
    sampler = PKSampler(labels, BatchSpec(4, 2), seed=123)
    counts = np.zeros(8)
    n = 10_000
    for _ in range(n):
        idx = sampler.sample()
        for ident in np.unique(labels[idx]):
            counts[ident] += 1
    expect = n * 0.5
    sigma = np.sqrt(n * 0.5 * 0.5)
    assert np.all(np.abs(counts - expect) <= 3 * sigma)


# ------------------------------------------------------ drawing ahead (fork)

@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError after `seconds`, and again every second after
    that, so a wait that never returns cannot hang cleanup either."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ahead_sampler(seed=11, spec=BatchSpec(4, 4)):
    return PKSampler(shuffled_labels(5), spec, seed)


def test_producer_draws_equal_in_process_draws_across_blocks(forks, monkeypatch):
    # blocks that stay in process (below the floor, one CPU) keep the stream
    # here; the first forked block takes it over where they left it
    sampler, ref = ahead_sampler(), ahead_sampler()
    with sampler.drawing_ahead(FLOOR - 1):
        for _ in range(3):
            assert np.array_equal(sampler.sample(), ref.sample())
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        with sampler.drawing_ahead(FLOOR):
            assert np.array_equal(sampler.sample(), ref.sample())
    assert np.array_equal(sampler.sample(), ref.sample())
    with sampler.drawing_ahead(FLOOR + 17):
        for _ in range(FLOOR + 17):
            assert np.array_equal(sampler.sample(), ref.sample())
    assert len(forks) == 1


@pytest.mark.parametrize("k", (0, 1, 6))
def test_block_left_at_batch_k_spends_the_stream(forks, monkeypatch, k):
    # the producer took the generator's stream: after its block nothing may
    # draw from, or fork from, the generator left behind, which would
    # restart the stream at the block's first batch
    sampler, ref = ahead_sampler(), ahead_sampler()
    with pytest.raises(KeyError):
        with sampler.drawing_ahead(500):
            for _ in range(k):
                assert np.array_equal(sampler.sample(), ref.sample())
            raise KeyError("training failed mid-block")
    with pytest.raises(BatchProducerError, match="block has ended"):
        sampler.sample()
    for n in (FLOOR + 3, 1):
        with pytest.raises(BatchProducerError, match="block has ended"):
            with sampler.drawing_ahead(n):
                sampler.sample()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(BatchProducerError, match="block has ended"):
        with sampler.drawing_ahead(FLOOR):
            pass
    assert len(forks) == 1


def test_sampling_past_the_hint_reads_the_producer(forks, monkeypatch):
    sampler, ref = ahead_sampler(), ahead_sampler()
    with sampler.drawing_ahead(FLOOR):
        # a draw in this process would fail
        monkeypatch.setattr(sampler, "_pools", None)
        for _ in range(3 * FLOOR + 5):
            assert np.array_equal(sampler.sample(), ref.sample())
    assert len(forks) == 1


def test_producer_batches_are_writable_int_arrays(forks):
    sampler = ahead_sampler()
    with sampler.drawing_ahead(FLOOR):
        idx = sampler.sample()
        idx[0] = -1
    assert idx.dtype == np.dtype(int) and idx.shape == (16,)


def test_nested_and_interleaved_blocks_finish(forks):
    # each producer must hold no other sampler's read end: if it did, ending
    # the other block would not stop that block's producer, which blocks on
    # its full pipe, and reaping it would hang
    a, b, c, d, ref_a, ref_b, ref_c, ref_d = (
        ahead_sampler(seed) for seed in (1, 2, 3, 4, 1, 2, 3, 4))
    with time_limit(30):
        with a.drawing_ahead(3000):
            a.sample(), ref_a.sample()
            with b.drawing_ahead(3000):
                b.sample(), ref_b.sample()
            assert np.array_equal(a.sample(), ref_a.sample())
        outer = c.drawing_ahead(3000)
        outer.__enter__()
        with d.drawing_ahead(3000):
            d.sample(), ref_d.sample()
            c.sample(), ref_c.sample()
            outer.__exit__(None, None, None)
            assert np.array_equal(d.sample(), ref_d.sample())
    assert len(forks) == 4


def test_killed_producer_raises_typed_error_and_is_reaped(forks):
    sampler, ref = ahead_sampler(), ahead_sampler()
    with pytest.raises(BatchProducerError, match="killed by signal 9"):
        with sampler.drawing_ahead(100_000):
            assert np.array_equal(sampler.sample(), ref.sample())
            os.kill(forks[0], signal.SIGKILL)
            for _ in range(100_000):
                sampler.sample()
                ref.sample()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # the dead producer took the stream with it
    with pytest.raises(BatchProducerError, match="block has ended"):
        sampler.sample()


def test_one_usable_cpu_draws_in_process(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sampler, ref = ahead_sampler(), ahead_sampler()
    with sampler.drawing_ahead(FLOOR):
        for _ in range(FLOOR):
            assert np.array_equal(sampler.sample(), ref.sample())
    assert forks == []


def test_blocks_shorter_than_the_floor_draw_in_process(forks):
    sampler, ref = ahead_sampler(), ahead_sampler()
    for n in (1, FLOOR - 1):
        with sampler.drawing_ahead(n):
            for _ in range(n):
                assert np.array_equal(sampler.sample(), ref.sample())
    assert forks == []
    with sampler.drawing_ahead(FLOOR):
        assert np.array_equal(sampler.sample(), ref.sample())
    assert len(forks) == 1
