import numpy as np
import pytest

from progmetric.losses import (
    HyperParams,
    InvalidInputError,
    composite_loss,
    composite_loss_grad,
)
from progmetric.model import (
    AdamState,
    ModelConfig,
    ModelParams,
    NonFiniteGradientError,
    OptimizerConfig,
    adam_step,
    backward,
    beta1_schedule,
    forward,
    forward_with_cache,
    lr_schedule,
)

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


def test_embed_dim_must_be_even():
    with pytest.raises(InvalidInputError):
        ModelConfig(d_in=3, hidden=4, embed_dim=5)


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


def test_adam_first_step_unit_gradient():
    # with g=1 everywhere, bias correction makes step 1 move each entry by ~lr
    params = tiny_model(5)
    before = [a.copy() for a in params.arrays()]
    state = AdamState.zeros_like(params)
    lr = 1e-2
    adam_step(params, grads_like(params, 1.0), state, lr, 0.9, OptimizerConfig())
    for a, b in zip(params.arrays(), before):
        np.testing.assert_allclose(b - a, lr, rtol=1e-6)
    assert state.step == 1


def test_adam_zero_gradient_fixed_point():
    params = tiny_model(6)
    before = [a.copy() for a in params.arrays()]
    state = AdamState.zeros_like(params)
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
        adam_step(params, g, AdamState.zeros_like(params), 1e-2, 0.9,
                  OptimizerConfig())


def test_adam_state_copy_is_deep():
    params = tiny_model(8)
    state = AdamState.zeros_like(params)
    adam_step(params, grads_like(params, 1.0), state, 1e-3, 0.9, OptimizerConfig())
    dup = state.copy()
    dup.m[0][0, 0] += 1.0
    assert state.m[0][0, 0] != dup.m[0][0, 0]
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
    _, _, cache = forward_with_cache(params, x)
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
    emb, logits, cache = forward_with_cache(params, x)
    _, d_emb, d_logits = composite_loss_grad(emb, labels, logits, labels, w)
    grads = backward(params, cache, d_emb, d_logits)

    def loss():
        e, l = forward(params, x)
        return composite_loss(e, labels, l, labels, w).total

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
    assert params.all_finite()
