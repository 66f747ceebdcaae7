import json
import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from progmetric import synthetic
from progmetric.cli import main
from progmetric.evaluation import evaluate, metrics_csv_lines
from progmetric.losses import (
    HyperParams,
    InvalidInputError,
    composite_loss,
    composite_loss_grad,
)
from progmetric.model import (
    PARAM_FIELDS,
    AdamState,
    ModelConfig,
    ModelParams,
    NonFiniteGradientError,
    OptimizerConfig,
    adam_step,
    backward,
    beta1_schedule,
    classify,
    embed,
    forward,
    forward_with_cache,
    lr_schedule,
)
from progmetric.trainer import LOGIT_MODES, batch_loss_and_grads, load_model

TINY = ModelConfig(d_in=3, hidden=5, embed_dim=4, n_classes=3)


def tiny_model(seed=0):
    return ModelParams.init(TINY, np.random.default_rng(seed))


def forward_oracle(params, x):
    """Independent loop-based re-implementation of the forward pass."""
    n = x.shape[0]
    emb = np.empty((n, params.w_trip.shape[1] * 2))
    logits = np.empty((n, params.w_cls.shape[1]))
    half = params.w_trip.shape[1]
    for i in range(n):
        h = np.array([max(0.0, float(x[i] @ params.w_trunk[:, j] + params.b_trunk[j]))
                      for j in range(params.w_trunk.shape[1])])
        zt = np.array([float(h @ params.w_trip[:, j] + params.b_trip[j])
                       for j in range(half)])
        zs = np.array([float(h @ params.w_soft[:, j] + params.b_soft[j])
                       for j in range(half)])
        emb[i, :half] = zt
        emb[i, half:] = zs
        logits[i] = [float(zs @ params.w_cls[:, c] + params.b_cls[c])
                     for c in range(params.w_cls.shape[1])]
    return emb, logits


# ---------------------------------------------------------------- forward

def test_forward_matches_dense_oracle():
    params = tiny_model(1)
    x = np.random.default_rng(2).normal(size=(7, 3))
    emb, logits = forward(params, x)
    oe, ol = forward_oracle(params, x)
    np.testing.assert_allclose(emb, oe, atol=1e-12)
    np.testing.assert_allclose(logits, ol, atol=1e-12)


def test_forward_zero_weights():
    params = tiny_model(0)
    for a in params.arrays():
        a[...] = 0.0
    emb, logits = forward(params, np.ones((4, 3)))
    assert not emb.any() and not logits.any()


def test_forward_block_structure():
    # zeroed softmax head leaves the second half of the embedding at zero
    params = tiny_model(3)
    params.w_soft[...] = 0.0
    params.b_soft[...] = 0.0
    emb, logits = forward(params, np.random.default_rng(4).normal(size=(5, 3)))
    half = TINY.embed_dim // 2
    assert emb[:, :half].any()
    assert not emb[:, half:].any()
    assert not logits.any()  # classifier reads the zeroed head


def test_forward_shape_mismatch():
    with pytest.raises(InvalidInputError):
        forward(tiny_model(), np.ones((2, 5)))


def out_of_place_forward(params, features):
    """The forward pass with out-of-place bias adds and the cache always
    built, the byte-for-byte reference for the in-place adds and the
    cache-free `forward`; returns (emb, logits, cache)."""
    x = np.asarray(features, dtype=float)
    h_pre = x @ params.w_trunk + params.b_trunk
    h = np.maximum(h_pre, 0.0)
    z_trip = h @ params.w_trip + params.b_trip
    z_soft = h @ params.w_soft + params.b_soft
    emb = np.concatenate([z_trip, z_soft], axis=1)
    logits = z_soft @ params.w_cls + params.b_cls
    return emb, logits, (x, h, z_soft)


# the batch_hard_large benchmark's model: 512 classes, so logits dominate
LARGE = ModelConfig(d_in=32, hidden=64, embed_dim=32, n_classes=512)


def large_model(seed):
    rng = np.random.default_rng(seed)
    params = ModelParams.init(LARGE, rng)
    for b in (params.b_trunk, params.b_trip, params.b_soft, params.b_cls):
        b[...] = rng.normal(size=b.shape)  # init leaves biases at zero
    return params


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["contiguous", "column_slice", "integer"])
@pytest.mark.parametrize("n", [1, 2, 7, 6144])
def test_forward_matches_out_of_place_reference(n, kind):
    params = large_model(n)
    rng = np.random.default_rng(n + 1)
    if kind == "contiguous":
        x = rng.normal(size=(n, LARGE.d_in))
    elif kind == "column_slice":
        x = rng.normal(size=(n, 3 * LARGE.d_in))[:, 1::3]
    else:
        x = rng.integers(-4, 5, size=(n, LARGE.d_in))
    want_emb, want_logits, want_cache = out_of_place_forward(params, x)
    assert (want_cache[1] == 0).any() and (want_cache[1] > 0).any()
    emb, logits = forward(params, x)
    assert same_bytes(emb, want_emb) and same_bytes(logits, want_logits)
    emb, cache = forward_with_cache(params, x)
    assert same_bytes(emb, want_emb)
    assert same_bytes(classify(params, cache.z_soft), want_logits)
    assert all(same_bytes(a, b) for a, b in zip(cache, want_cache, strict=True))


@pytest.mark.parametrize("n", [1, 7, 6144])
def test_embed_equals_forward_embedding(n):
    params = large_model(n)
    x = np.random.default_rng(n + 2).normal(size=(n, LARGE.d_in))
    emb = embed(params, x)
    assert same_bytes(emb, forward(params, x)[0])
    assert same_bytes(emb, out_of_place_forward(params, x)[0])


@pytest.mark.parametrize("fn, bound", [(forward, 1.15), (embed, 0.25),
                                       (forward_with_cache, 0.5)])
def test_forward_peak_memory_in_logits_arrays(fn, bound):
    # out-of-place adds and a cached forward held 2.38 logits-sized arrays.
    # forward holds its logits and the embedding (1.07), embed the trunk
    # output and the embedding (0.20); the training forward computes no
    # logits, and its cache is 0.32 of one
    params = large_model(0)
    x = np.random.default_rng(1).normal(size=(6144, LARGE.d_in))
    fn(params, x)
    tracemalloc.start()
    try:
        out = fn(params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    assert peak / (6144 * LARGE.n_classes * 8) < bound


def test_cli_eval_matches_evaluate_on_reference_embeddings(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 0, "out_dir": str(tmp_path / "out"),
        "data": {"n_identities": 8, "samples_per_identity": 6, "dim": 6},
        "split": {"query_per_identity": 2}, "batch": {"P": 4, "K": 2},
        "model": {"hidden": 8, "embed_dim": 8}, "epochs": 5}))
    ds = tmp_path / "ds.csv"
    ckpt = tmp_path / "out" / "checkpoint.bin"
    out = tmp_path / "metrics.csv"
    assert main(["gen-data", "--config", str(cfg), "--dataset", str(ds)]) == 0
    assert main(["train", "--config", str(cfg), "--dataset", str(ds),
                 "--mode", "composite_fixed"]) == 0
    assert main(["eval", "--checkpoint", str(ckpt), "--dataset", str(ds),
                 "--out", str(out)]) == 0
    params = load_model(ckpt)
    qg = synthetic.query_gallery(synthetic.load(ds))
    qg.query_embeddings = out_of_place_forward(params, qg.query_embeddings)[0]
    qg.gallery_embeddings = out_of_place_forward(params, qg.gallery_embeddings)[0]
    assert out.read_text().splitlines() == list(metrics_csv_lines(evaluate(qg)))


def test_embed_dim_must_be_even():
    with pytest.raises(InvalidInputError):
        ModelConfig(d_in=3, hidden=4, embed_dim=5)


@pytest.mark.parametrize("dim", ["d_in", "hidden", "embed_dim", "n_classes"])
def test_model_dimensions_must_be_positive(dim):
    with pytest.raises(InvalidInputError, match=">= 1"):
        ModelConfig(**{dim: 0})


# -------------------------------------------------------------- schedules

def test_lr_schedule_values():
    cfg = OptimizerConfig()
    assert lr_schedule(100, cfg) == 3e-4
    assert lr_schedule(150, cfg) == 3e-4
    assert lr_schedule(300, cfg) == 3e-4 * 0.001  # exact in floats
    assert lr_schedule(225, cfg) == pytest.approx(3e-4 * 0.001**0.5, rel=1e-12)
    assert lr_schedule(225, cfg) == pytest.approx(9.4868e-6, rel=1e-4)
    assert lr_schedule(10_000, cfg) == 3e-4 * 0.001


def test_lr_schedule_rejects_negative_epoch():
    with pytest.raises(InvalidInputError):
        lr_schedule(-1, OptimizerConfig())


def test_beta1_switch():
    cfg = OptimizerConfig()
    assert beta1_schedule(0, cfg) == 0.9
    assert beta1_schedule(149, cfg) == 0.9
    assert beta1_schedule(150, cfg) == 0.5
    assert beta1_schedule(151, cfg) == 0.5


def test_optimizer_config_validation():
    with pytest.raises(InvalidInputError):
        OptimizerConfig(alpha0=0.0)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(e0=300, e1=300)
    with pytest.raises(InvalidInputError):
        OptimizerConfig(beta2=1.0)


# ------------------------------------------------------------------- adam

def grads_like(params, value):
    g = params.copy()
    for a in g.arrays():
        a[...] = value
    return g


def test_optimizer_config_rejects_nonfinite_rate_and_epsilon():
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="alpha0"):
            OptimizerConfig(alpha0=bad)
    for bad in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="epsilon"):
            OptimizerConfig(epsilon=bad)


def test_adam_first_step_unit_gradient():
    # with g=1 everywhere, bias correction makes step 1 move each entry by ~lr
    params = tiny_model(5)
    before = [a.copy() for a in params.arrays()]
    state = AdamState.zeros(params.flat.size)
    lr = 1e-2
    adam_step(params, grads_like(params, 1.0), state, lr, 0.9, OptimizerConfig())
    for a, b in zip(params.arrays(), before):
        np.testing.assert_allclose(b - a, lr, rtol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_fixed_point():
    params = tiny_model(6)
    before = [a.copy() for a in params.arrays()]
    state = AdamState.zeros(params.flat.size)
    for _ in range(5):
        adam_step(params, grads_like(params, 0.0), state, 1e-2, 0.9,
                  OptimizerConfig())
    for a, b in zip(params.arrays(), before):
        np.testing.assert_array_equal(a, b)


def test_adam_rejects_nonfinite_gradient():
    params = tiny_model(7)
    g = grads_like(params, 1.0)
    g.w_trunk[0, 0] = np.nan
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, g, AdamState.zeros(params.flat.size), 1e-2, 0.9,
                  OptimizerConfig())


def test_adam_state_copy_is_deep():
    params = tiny_model(8)
    state = AdamState.zeros(params.flat.size)
    adam_step(params, grads_like(params, 1.0), state, 1e-3, 0.9, OptimizerConfig())
    dup = state.copy()
    dup.m[0] += 1.0
    dup.v[0] += 1.0
    assert state.m[0] != dup.m[0] and state.v[0] != dup.v[0]
    assert dup.step == state.step


# --------------------------------------------------------------- backprop

def model_param_fd(loss_of_params, params, step=1e-6):
    """Central finite differences of a scalar loss over every weight entry."""
    out = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            hi = loss_of_params()
            arr[idx] = orig - step
            lo = loss_of_params()
            arr[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
            it.iternext()
        out.append(g)
    return out


def test_backward_linear_probe_exact():
    # loss = <emb, R> + <logits, S> has an exactly known output gradient
    rng = np.random.default_rng(9)
    params = tiny_model(10)
    x = rng.normal(size=(6, 3))
    _, cache = forward_with_cache(params, x)
    r = rng.normal(size=(6, 4))
    s = rng.normal(size=(6, 3))
    grads = backward(params, cache, r, s)

    def loss():
        e, l = forward(params, x)
        return float((e * r).sum() + (l * s).sum())

    fd = model_param_fd(loss, params)
    for g, f in zip(grads.arrays(), fd):
        np.testing.assert_allclose(g, f, rtol=1e-4, atol=1e-7)


def test_backward_composite_loss_finite_differences():
    rng = np.random.default_rng(11)
    params = tiny_model(12)
    x = rng.normal(size=(8, 3), scale=2.0)
    labels = np.array([0, 0, 1, 1, 2, 2, 0, 1])
    w = HyperParams(lam=1.0, margin=0.2, k=1, p=2)
    emb, cache = forward_with_cache(params, x)
    logits = classify(params, cache.z_soft)
    _, d_emb, d_logits = composite_loss_grad(emb, logits, labels, w)
    grads = backward(params, cache, d_emb, d_logits)

    def loss():
        e, l = forward(params, x)
        return composite_loss(e, l, labels, w).total

    fd = model_param_fd(loss, params, step=1e-5)
    # b_trip's true gradient is ~0 (a bias shift cancels in every pairwise
    # distance), so scale the tolerance by the block magnitude with a floor
    for g, f in zip(grads.arrays(), fd):
        assert np.abs(g - f).max() <= 1e-4 * max(1.0, np.abs(f).max())


def test_params_copy_and_config_roundtrip():
    params = tiny_model(13)
    dup = params.copy()
    dup.w_trunk[0, 0] += 1.0
    assert params.w_trunk[0, 0] != dup.w_trunk[0, 0]
    assert params.config == TINY
    assert params.flat.size == TINY.n_params
    assert params.all_finite()


def test_params_fields_are_views_of_flat():
    params = tiny_model(14)
    with pytest.raises(FrozenInstanceError):
        params.w_soft = np.zeros_like(params.w_soft)
    _, cache = forward_with_cache(params, np.ones((4, 3)))
    grads = backward(params, cache, np.ones((4, 4)), np.ones((4, 3)))
    for p in (params, params.copy(), grads):
        assert p.flat.shape == (sum(a.size for a in p.arrays()),)
        assert all(np.shares_memory(a, p.flat) for a in p.arrays())
        p.b_cls[1] = 7.0
        assert p.flat[-2] == 7.0
        p.flat[0] = -3.0
        assert p.w_trunk[0, 0] == -3.0
        assert np.array_equal(p.flat, np.concatenate([a.ravel() for a in p.arrays()]))


def test_params_copy_shares_no_memory():
    params = tiny_model(15)
    dup = params.copy()
    assert not np.shares_memory(dup.flat, params.flat)
    assert not any(np.shares_memory(a, b) for a, b in
                   zip(dup.arrays(), params.arrays()))
    assert np.array_equal(dup.flat, params.flat)


def test_params_constructor_packs_given_arrays():
    src = tiny_model(16)
    arrays = {name: getattr(src, name).copy() for name in PARAM_FIELDS}
    packed = ModelParams(**arrays)
    assert np.array_equal(packed.flat, src.flat)
    arrays["w_trunk"][0, 0] += 1.0
    assert packed.w_trunk[0, 0] == src.w_trunk[0, 0]


# ------------------------------------- per-array references of the flat paths

def loop_adam_step(params, grads, m_list, v_list, step, lr, beta1, cfg):
    """Per-array Adam update (one array at a time), the reference for the
    single flat-vector step; works on lists of arrays and returns the step."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError("non-finite gradient encountered")
    step += 1
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - cfg.beta2**step
    for p, g, m, v in zip(params, grads, m_list, v_list):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * g * g
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
        p[...] -= update
    return step


def loop_backward(params, cache, d_emb, d_logits):
    """Per-field backward pass (each gradient its own array), the reference
    for the one-buffer backward; a missing logit gradient (None) is a zero
    one.  Returns arrays in PARAM_FIELDS order.  The rectifier's mask is
    taken from the pre-activation, recomputed from x."""
    x, h, z_soft = cache
    h_pre = x @ params.w_trunk + params.b_trunk
    if d_logits is None:
        d_logits = np.zeros((len(x), params.w_cls.shape[1]))
    half = params.w_trip.shape[1]
    d_zt = d_emb[:, :half]
    d_zs = d_emb[:, half:] + d_logits @ params.w_cls.T
    grads = {}
    grads["w_cls"] = z_soft.T @ d_logits
    grads["b_cls"] = d_logits.sum(axis=0)
    grads["w_trip"] = h.T @ d_zt
    grads["b_trip"] = d_zt.sum(axis=0)
    grads["w_soft"] = h.T @ d_zs
    grads["b_soft"] = d_zs.sum(axis=0)
    d_h = d_zt @ params.w_trip.T + d_zs @ params.w_soft.T
    d_hpre = d_h * (h_pre > 0.0)
    grads["w_trunk"] = x.T @ d_hpre
    grads["b_trunk"] = d_hpre.sum(axis=0)
    return [grads[name] for name in PARAM_FIELDS]


def all_equal(xs, ys):
    return all(np.array_equal(x, y) for x, y in zip(xs, ys, strict=True))


def test_adam_step_matches_per_array_reference():
    # 50 steps over epochs 0..49 cross both the beta1 switch and the decay
    cfg = OptimizerConfig(alpha0=1e-2, e0=10, e1=40, beta1_switch_epoch=20)
    params = tiny_model(17)
    state = AdamState.zeros(params.flat.size)
    ref_p = [a.copy() for a in params.arrays()]
    ref_m = [np.zeros_like(a) for a in ref_p]
    ref_v = [np.zeros_like(a) for a in ref_p]
    ref_step = 0
    rng = np.random.default_rng(18)
    for epoch in range(50):
        lr, beta1 = lr_schedule(epoch, cfg), beta1_schedule(epoch, cfg)
        grads = grads_like(params, 0.0)
        grads.flat[:] = rng.normal(size=grads.flat.size) * rng.uniform(0.01, 10.0)
        adam_step(params, grads, state, lr, beta1, cfg)
        ref_step = loop_adam_step(ref_p, [a.copy() for a in grads.arrays()],
                                  ref_m, ref_v, ref_step, lr, beta1, cfg)
        assert state.step == ref_step
        assert all_equal(params.arrays(), ref_p)
        assert all_equal(params.like(state.m).arrays(), ref_m)
        assert all_equal(params.like(state.v).arrays(), ref_v)
    assert lr_schedule(49, cfg) < cfg.alpha0 and beta1_schedule(49, cfg) == 0.5


def test_adam_step_without_classifier_equals_whole_step_on_zero_gradient():
    # moments for all but the classifier (the last entries) step those
    # entries as a whole step does whose classifier gradient is 0
    cfg = OptimizerConfig(alpha0=1e-2, e0=2, e1=6, beta1_switch_epoch=4)
    params = tiny_model(22)
    whole = params.copy()
    n_cls = params.w_cls.size + params.b_cls.size
    state = AdamState.zeros(params.flat.size - n_cls)
    whole_state = AdamState.zeros(params.flat.size)
    rng = np.random.default_rng(23)
    for epoch in range(8):
        lr, beta1 = lr_schedule(epoch, cfg), beta1_schedule(epoch, cfg)
        grads = grads_like(params, 0.0)
        grads.flat[:-n_cls] = rng.normal(size=grads.flat.size - n_cls)
        adam_step(whole, grads, whole_state, lr, beta1, cfg)
        grads.w_cls[...] = grads.b_cls[...] = np.nan  # not read
        adam_step(params, grads, state, lr, beta1, cfg)
        assert state.step == whole_state.step == epoch + 1
        assert same_bytes(params.flat, whole.flat)
        assert same_bytes(state.m, whole_state.m[:-n_cls])
        assert same_bytes(state.v, whole_state.v[:-n_cls])
    assert not whole_state.m[-n_cls:].any() and not whole_state.v[-n_cls:].any()


@pytest.mark.parametrize("field", PARAM_FIELDS)
def test_adam_nonfinite_gradient_changes_nothing(field):
    cfg = OptimizerConfig()
    params = tiny_model(19)
    state = AdamState.zeros(params.flat.size)
    for _ in range(3):
        adam_step(params, grads_like(params, 0.5), state, 1e-2, 0.9, cfg)
    before_p, before_state = params.copy(), state.copy()
    grads = grads_like(params, 0.5)
    getattr(grads, field).flat[-1] = np.nan
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, grads, state, 1e-2, 0.9, cfg)
    assert np.array_equal(params.flat, before_p.flat)
    assert np.array_equal(state.m, before_state.m)
    assert np.array_equal(state.v, before_state.v)
    assert state.step == before_state.step == 3


@pytest.mark.parametrize("mode", ["composite_fixed", "ce_only", "triplet_only",
                                  "batch_hard"])
def test_backward_matches_per_field_reference(mode):
    cfg = ModelConfig(d_in=6, hidden=9, embed_dim=8, n_classes=5)
    rng = np.random.default_rng(20)
    w = HyperParams(lam=0.8, margin=0.1, k=2, p=3)
    labels = np.repeat([3, 11, 40, 7, 2], 4)
    class_ids = np.searchsorted(np.unique(labels), labels)
    for _ in range(20):
        params = ModelParams.init(cfg, rng)
        x = rng.normal(size=(len(labels), cfg.d_in), scale=2.0)
        emb, cache = forward_with_cache(params, x)
        logits = classify(params, cache.z_soft) if mode in LOGIT_MODES else None
        _, d_emb, d_logits = batch_loss_and_grads(mode, emb, logits, class_ids, w)
        assert (d_logits is None) == (mode not in LOGIT_MODES)
        grads = backward(params, cache, d_emb, d_logits)
        want = loop_backward(params, cache, d_emb, d_logits)
        assert all(same_bytes(g, r) for g, r in zip(grads.arrays(), want, strict=True))


def test_backward_overwrites_every_entry_of_out():
    # a training run hands backward one buffer for all its batches; stale
    # (here NaN) contents must never leak into a gradient
    cfg = ModelConfig(d_in=6, hidden=9, embed_dim=8, n_classes=5)
    rng = np.random.default_rng(21)
    params = ModelParams.init(cfg, rng)
    out = grads_like(params, np.nan)
    for i in range(6):
        x = rng.normal(size=(12, cfg.d_in))
        _, cache = forward_with_cache(params, x)
        d_emb = rng.normal(size=(12, cfg.embed_dim))
        # without a logit gradient the classifier entries are written as 0
        d_logits = rng.normal(size=(12, cfg.n_classes)) if i % 2 else None
        assert backward(params, cache, d_emb, d_logits, out=out) is out
        assert np.array_equal(out.flat, backward(params, cache, d_emb, d_logits).flat)
