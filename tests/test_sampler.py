import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progmetric import sampler as sampler_module
from progmetric.sampler import (
    CHUNK_BATCHES,
    BatchSpec,
    InsufficientDataError,
    PKSampler,
    batches_per_epoch,
)


def make_labels(n_ids, per_id):
    return np.repeat(np.arange(n_ids), per_id)


def shuffled_labels(seed):
    """Non-contiguous ids in shuffled order; ids 7 and 42 hold fewer than K = 4."""
    counts = {7: 2, 1000: 9, 42: 3, 5: 12, 311: 4, 64: 6}
    labels = np.repeat(list(counts), list(counts.values()))
    return np.random.default_rng(seed).permutation(labels)


def loop_pk_sample(labels, spec, rng):
    """Per-batch identity scan, the reference for PKSampler's RNG stream."""
    chosen = rng.choice(np.unique(labels), size=spec.P, replace=False)
    out = np.empty(spec.batch_size, dtype=int)
    for i, ident in enumerate(chosen):
        pool = np.flatnonzero(labels == ident)
        out[i * spec.K : (i + 1) * spec.K] = rng.choice(pool, size=spec.K,
                                                        replace=len(pool) < spec.K)
    return out


def test_reference_batch_shape():
    labels = make_labels(32, 8)
    idx = PKSampler(labels, BatchSpec(16, 8), seed=0).sample()
    assert len(idx) == 128
    picked = labels[idx]
    ids, counts = np.unique(picked, return_counts=True)
    assert len(ids) == 16
    assert np.all(counts == 8)


def test_all_identities_when_p_equals_total():
    labels = make_labels(4, 5)
    idx = PKSampler(labels, BatchSpec(4, 2), seed=1).sample()
    assert set(labels[idx]) == {0, 1, 2, 3}


def test_small_identity_forces_replacement():
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1])
    idx = PKSampler(labels, BatchSpec(2, 8), seed=2).sample()
    zero_rows = idx[labels[idx] == 0]
    assert len(zero_rows) == 8
    assert set(zero_rows) <= {0, 1, 2}
    assert len(set(zero_rows)) <= 3  # repeats necessarily occur


def test_too_few_identities():
    with pytest.raises(InsufficientDataError,
                       match="need at least P = 4 identities, dataset has 3"):
        PKSampler(make_labels(3, 4), BatchSpec(4, 2), seed=0)


def test_sampler_too_few_identities_raises_at_construction():
    with pytest.raises(InsufficientDataError):
        PKSampler(make_labels(3, 4), BatchSpec(4, 2), seed=0)


def random_dataset(rng):
    """Shuffled labels and a batch spec with K up to 16: equal pools, or
    unequal ones from a single sample up to past 2K, often with pools of
    exactly K; n_ids == P about one time in four."""
    K = int(rng.integers(2, 17))
    P = int(rng.integers(2, 9))
    n_ids = P + int(rng.integers(0, 4))
    if rng.random() < 0.3:
        counts = np.full(n_ids, int(rng.integers(1, 2 * K + 3)))
    else:
        counts = rng.integers(1, 2 * K + 3, n_ids)
        counts[rng.random(n_ids) < 0.25] = K
    ids = rng.choice(10**6, n_ids, replace=False)
    return rng.permutation(np.repeat(ids, counts)), BatchSpec(P, K)


@pytest.mark.parametrize("seed", range(40))
def test_pk_sample_matches_reference_on_random_datasets(seed, monkeypatch):
    monkeypatch.setattr(sampler_module, "CHUNK_BATCHES", 1)
    rng = np.random.default_rng(seed)
    labels, spec = random_dataset(rng)
    draw_seed = int(rng.integers(2**32))
    sampler, ref_rng = PKSampler(labels, spec, draw_seed), np.random.default_rng(draw_seed)
    for _ in range(10):
        assert np.array_equal(sampler.sample(), loop_pk_sample(labels, spec, ref_rng))
    # the generator is left where per-pool choice calls leave it
    assert sampler.rng.bit_generator.state == ref_rng.bit_generator.state


def test_pk_sample_matches_reference_draw_for_draw(monkeypatch):
    monkeypatch.setattr(sampler_module, "CHUNK_BATCHES", 1)
    labels = shuffled_labels(3)
    spec = BatchSpec(4, 4)
    sampler, ref_rng = PKSampler(labels, spec, seed=8), np.random.default_rng(8)
    for _ in range(500):
        assert np.array_equal(sampler.sample(), loop_pk_sample(labels, spec, ref_rng))
    assert sampler.rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampler_matches_pk_sample_draw_for_draw():
    # 500 batches span 32 chunks of 16; the last one is left part drawn
    labels = shuffled_labels(4)
    spec = BatchSpec(4, 4)
    sampler = PKSampler(labels, spec, seed=17)
    rng = np.random.default_rng(17)
    for _ in range(500):
        assert np.array_equal(sampler.sample(), loop_pk_sample(labels, spec, rng))


def draw_in_chunks(labels, spec, chunk, n_batches, monkeypatch):
    """n_batches batches from a PKSampler drawing chunk at a time, and its
    generator state after each whole chunk, keyed by batches handed out."""
    monkeypatch.setattr(sampler_module, "CHUNK_BATCHES", chunk)
    sampler = PKSampler(labels, spec, seed=5)
    batches, states = [], {}
    for n in range(1, n_batches + 1):
        batches.append(sampler.sample())
        if n % chunk == 0:
            states[n] = sampler.rng.bit_generator.state
    return np.array(batches), states


@pytest.mark.parametrize("seed", range(3))
def test_chunk_size_changes_no_batch_and_no_state_between_chunks(seed, monkeypatch):
    labels, spec = random_dataset(np.random.default_rng(200 + seed))
    n_batches = 3 * 64  # three chunks of the largest size
    ref_batches, ref_states = draw_in_chunks(labels, spec, 1, n_batches, monkeypatch)
    for chunk in (16, 64):
        batches, states = draw_in_chunks(labels, spec, chunk, n_batches, monkeypatch)
        assert np.array_equal(batches, ref_batches)
        assert len(states) == n_batches // chunk
        assert all(state == ref_states[n] for n, state in states.items())


@pytest.mark.parametrize("seed", range(12))
def test_sampler_matches_reference_across_chunks(seed):
    rng = np.random.default_rng(100 + seed)
    labels, spec = random_dataset(rng)
    sampler = PKSampler(labels, spec, seed=seed)
    ref_rng = np.random.default_rng(seed)
    for _ in range(2 * CHUNK_BATCHES + 3):
        assert np.array_equal(sampler.sample(), loop_pk_sample(labels, spec, ref_rng))


def test_sampler_batches_are_writable_int_arrays():
    sampler = PKSampler(shuffled_labels(5), BatchSpec(4, 4), seed=11)
    first = sampler.sample()
    for _ in range(CHUNK_BATCHES + 1):
        idx = sampler.sample()
        idx[0] = -1
        assert idx.dtype == np.dtype(int) and idx.shape == (16,)
    assert first[0] != -1


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
    idx = PKSampler(labels, BatchSpec(p, k), seed=int(rng.integers(2**32))).sample()
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
