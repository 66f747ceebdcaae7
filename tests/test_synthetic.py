import itertools
import re

import numpy as np
import pytest

from progmetric.losses import HyperParams, InvalidInputError, batch_hard_grad
from progmetric.sampler import BatchSpec, PKSampler
from progmetric.synthetic import (
    SPLIT_TAGS,
    LabeledDataset,
    ParseError,
    SynthSpec,
    generate,
    load,
    query_gallery,
    save,
    split,
    train_partition,
)


def clean_spec(**over):
    base = dict(n_identities=16, samples_per_identity=8, dim=8, seed=7)
    base.update(over)
    return SynthSpec(**base)


# ----------------------------------------------------------------- generate

def test_generate_deterministic():
    a = generate(clean_spec())
    b = generate(clean_spec())
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.split_tags == b.split_tags == ["train"] * 128


def test_zero_spread_collapses_to_centers():
    ds = generate(clean_spec(intra_spread=0.0))
    for ident in range(16):
        rows = ds.features[ds.labels == ident]
        np.testing.assert_array_equal(rows, np.tile(rows[0], (8, 1)))


def test_nearest_centroid_is_perfect_without_contamination():
    ds = generate(clean_spec(center_scale=100.0, intra_spread=1.0))
    centroids = np.array([ds.features[ds.labels == i].mean(axis=0)
                          for i in range(16)])
    d = np.linalg.norm(ds.features[:, None] - centroids[None], axis=-1)
    assert np.array_equal(d.argmin(axis=1), ds.labels)


def test_clean_separable_data_keeps_batch_hard_at_zero():
    # separation far above 10x spread: every hinge stays inactive at m=0.2
    ds = generate(clean_spec(center_scale=1000.0, intra_spread=1.0, seed=3))
    sampler = PKSampler(ds.labels, BatchSpec(4, 3), seed=5)
    for _ in range(10):
        idx = sampler.sample()
        assert batch_hard_grad(ds.features[idx], ds.labels[idx], 0.2)[0] == 0.0


def test_contamination_row_counts():
    ds = generate(clean_spec(n_identities=4, samples_per_identity=20,
                             outlier_fraction=0.10, overhard_fraction=0.05,
                             center_scale=500.0))
    # per identity: 1 over-hard row sits near a foreign center, 2 outliers
    # at four times the spread; remaining 17 rows stay near the own center
    centroid_dist = np.array([
        np.linalg.norm(ds.features[ds.labels == i]
                       - np.median(ds.features[ds.labels == i], axis=0), axis=1)
        for i in range(4)])
    far = (centroid_dist > 50.0).sum(axis=1)
    np.testing.assert_array_equal(far, [1, 1, 1, 1])


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        clean_spec(n_identities=1)
    with pytest.raises(InvalidInputError):
        clean_spec(outlier_fraction=1.5)
    with pytest.raises(InvalidInputError):
        clean_spec(dim=0)


def test_generate_rejects_features_that_overflow():
    with pytest.raises(InvalidInputError, match="intra_spread .* overflow the features"), \
            np.errstate(over="ignore"):
        generate(clean_spec(intra_spread=1e308))


# -------------------------------------------------------------------- split

def test_split_counts_closed_set():
    ds = generate(clean_spec(n_identities=10, samples_per_identity=6))
    out = split(ds, 2, np.random.default_rng(0))
    assert len(out.rows("query")) == 20
    assert len(out.rows("gallery")) == 40
    assert len(out.rows("train")) == 0


def test_rows_match_per_sample_scan():
    ds = generate(clean_spec())
    out = split(ds, 2, np.random.default_rng(4), open_set=True)
    for tag in SPLIT_TAGS:
        want = [i for i, t in enumerate(out.split_tags) if t == tag]
        assert np.array_equal(out.rows(tag), np.array(want, dtype=int))


def test_split_single_gallery_item():
    ds = generate(clean_spec(n_identities=4, samples_per_identity=5))
    out = split(ds, 4, np.random.default_rng(1))
    for ident in range(4):
        tags = [out.split_tags[i] for i in np.flatnonzero(out.labels == ident)]
        assert tags.count("gallery") == 1


def test_split_open_set_disjoint_identities():
    ds = generate(clean_spec())
    out = split(ds, 2, np.random.default_rng(2), open_set=True)
    train_ids = set(out.labels[out.rows("train")])
    test_ids = set(out.labels[out.rows("query")]) | set(
        out.labels[out.rows("gallery")])
    assert train_ids and test_ids
    assert not train_ids & test_ids


@pytest.mark.parametrize("n_ids, fraction", [(16, 1.0), (16, 0.97), (2, 0.5)])
def test_open_set_split_must_leave_a_training_identity(n_ids, fraction):
    # round(0.97 * 16) is 16; at least two identities are held out, so two
    # identities leave none
    ds = generate(clean_spec(n_identities=n_ids))
    with pytest.raises(InvalidInputError, match="open-set split.*leaving none to train"):
        split(ds, 2, np.random.default_rng(1), open_set=True, test_fraction=fraction)


def test_split_infeasible_query_count():
    ds = generate(clean_spec(samples_per_identity=4))
    with pytest.raises(InvalidInputError):
        split(ds, 4, np.random.default_rng(0))


def test_split_query_count_past_the_row_count():
    # raises before a pool's 2q - 1 draw bounds are built
    ds = generate(clean_spec(samples_per_identity=4))
    with pytest.raises(InvalidInputError, match="^query_per_identity must be smaller"):
        split(ds, 10**12, np.random.default_rng(0))


@pytest.mark.parametrize("q", [0, -1])
def test_split_rejects_query_count_below_one(q):
    ds = generate(clean_spec())
    with pytest.raises(InvalidInputError, match=f"^query_per_identity must be >= 1, got {q}$"):
        split(ds, q, np.random.default_rng(0))


def loop_split(dataset, query_per_identity, rng, open_set=False,
               test_fraction=0.5):
    """Per-identity scan (two `labels == i` passes an identity), the
    reference for split's one grouping of the rows; returns the tags."""
    labels = dataset.labels
    ids = np.unique(labels)
    counts = {i: int((labels == i).sum()) for i in ids}
    if any(c <= query_per_identity for c in counts.values()):
        raise InvalidInputError(
            "query_per_identity must be smaller than samples per identity")
    tags = np.array(["gallery"] * len(labels), dtype=object)
    if open_set:
        perm = rng.permutation(ids)
        n_test = max(2, int(round(test_fraction * len(ids))))
        test_ids = set(perm[:n_test].tolist())
        for i in ids:
            if i not in test_ids:
                tags[labels == i] = "train"
    test_ids = set(ids.tolist()) if not open_set else test_ids
    for i in ids:
        if i not in test_ids:
            continue
        rows = np.flatnonzero(labels == i)
        q = rng.choice(rows, size=query_per_identity, replace=False)
        tags[q] = "query"
    return list(tags)


def shuffled_dataset(n_ids, seed, strings, q=2):
    """Identities of q+1 to 12 rows each, every fifth of exactly q+1, in
    shuffled row order, labelled by sparse ints or by strings (whose sorted
    order differs)."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(q + 1, 13, size=n_ids)
    counts[::5] = q + 1
    labels = rng.permutation(np.repeat(np.arange(n_ids) * 7 + 3, counts))
    if strings:
        labels = np.array([f"id{v}" for v in labels])
    return LabeledDataset(features=np.zeros((len(labels), 1)), labels=labels,
                          split_tags=["train"] * len(labels))


# the q = 2 cases keep the ids they had before q was a parameter
@pytest.mark.parametrize("q, n_ids, open_set, strings", [
    pytest.param(q, n_ids, open_set, strings, id=f"{n_ids}-{'open' if open_set else 'closed'}-"
                 f"{'str' if strings else 'int'}" + ("" if q == 2 else f"-q{q}"))
    for q, n_ids, open_set, strings in itertools.product(
        [2, 1, 5], [33, 64, 512], [False, True], [False, True])])
def test_split_matches_per_identity_reference(q, n_ids, open_set, strings):
    # q = 1 is one Floyd draw and no shuffle; q = 5 on pools of 6 rows takes
    # Floyd's collision branch often
    ds = shuffled_dataset(n_ids, n_ids, strings, q)
    rng, ref_rng = np.random.default_rng(n_ids + q), np.random.default_rng(n_ids + q)
    out = split(ds, q, rng, open_set=open_set)
    assert out.split_tags == loop_split(ds, q, ref_rng, open_set=open_set)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("open_set", [False, True], ids=["closed", "open"])
def test_split_rejects_one_identity_too_small(open_set):
    ds = shuffled_dataset(12, 3, strings=False)
    counts = np.unique(ds.labels, return_counts=True)[1]
    assert counts.min() < counts.max()
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(InvalidInputError, match="^query_per_identity must be "
                       "smaller than samples per identity$"):
        split(ds, int(counts.min()), rng, open_set=open_set)
    assert rng.bit_generator.state == before


def test_train_partition_modes():
    ds = generate(clean_spec())
    closed = split(ds, 2, np.random.default_rng(3))
    x, y = train_partition(closed)
    assert len(y) == 128  # closed-set trains on everything
    opened = split(ds, 2, np.random.default_rng(3), open_set=True)
    x, y = train_partition(opened)
    assert set(y) == set(opened.labels[opened.rows("train")])


def test_query_gallery_requires_split():
    ds = generate(clean_spec())
    with pytest.raises(InvalidInputError):
        query_gallery(ds)
    qg = query_gallery(split(ds, 2, np.random.default_rng(4)))
    assert len(qg.query_labels) == 32


# ---------------------------------------------------------------- file I/O

def test_save_load_roundtrip_exact(tmp_path):
    ds = split(generate(clean_spec()), 2, np.random.default_rng(5))
    path = tmp_path / "ds.csv"
    save(ds, path)
    back = load(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.split_tags == ds.split_tags


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match=":1:"):
        load(path)


def test_load_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar,f0\n1,train,0.5\n")
    with pytest.raises(ParseError, match=":1:"):
        load(path)


def test_load_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("id,split,f0,f1\n1,train,0.5,0.5\n2,train,0.5\n")
    with pytest.raises(ParseError, match=":3:"):
        load(path)


def test_load_malformed_value_names_line(tmp_path):
    path = tmp_path / "val.csv"
    path.write_text("id,split,f0\n1,train,0.5\n2,nonsense,0.5\n")
    with pytest.raises(ParseError, match=":3:"):
        load(path)


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_load_not_utf8_names_line(tmp_path, end):
    path = tmp_path / "bytes.csv"
    path.write_bytes(end.join([b"id,split,f0", b"1,train,0.5", b"2,train,0.\xff5", b""]))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: not UTF-8 text"):
        load(path)


def test_load_reads_ids_across_int64_and_no_further(tmp_path):
    path = tmp_path / "ids.csv"
    path.write_text(f"id,split,f0\n{2**63 - 1},train,0.5\n{-2**63},train,0.5\n")
    assert load(path).labels.tolist() == [2**63 - 1, -2**63]
    for label in (2**63, -2**63 - 1):
        path.write_text(f"id,split,f0\n1,train,0.5\n{label},train,0.5\n")
        with pytest.raises(ParseError, match=r"ids\.csv:3: malformed row"):
            load(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_load_nonfinite_value_names_line(tmp_path, value):
    path = tmp_path / "val.csv"
    path.write_text(f"id,split,f0,f1\n1,train,0.5,0.5\n2,train,0.5,{value}\n"
                    "3,train,nan,0.5\n")
    with pytest.raises(ParseError, match=r"val\.csv:3: non-finite"):
        load(path)


def test_load_header_only(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("id,split,f0\n")
    with pytest.raises(ParseError):
        load(path)
