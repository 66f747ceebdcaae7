"""Small two-head embedding model with hand-rolled backprop and Adam.

A shared linear trunk with a rectifier feeds two linear heads; their
outputs concatenate into the embedding.  The classifier reads only the
second (softmax) head.  Everything is plain numpy so gradients can be
checked against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .losses import InvalidInputError

PARAM_FIELDS = (
    "w_trunk", "b_trunk",
    "w_trip", "b_trip",
    "w_soft", "b_soft",
    "w_cls", "b_cls",
)


class NonFiniteGradientError(RuntimeError):
    """Training aborted: a gradient contained NaN or infinity."""


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 32
    hidden: int = 64
    embed_dim: int = 32
    n_classes: int = 2

    def __post_init__(self):
        for name in ("d_in", "hidden", "embed_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim % 2 != 0:
            raise InvalidInputError("embed_dim must be even (two concatenated heads)")

    @property
    def n_params(self):
        """Entries of the flat parameter vector: trunk, both heads, classifier."""
        half = self.embed_dim // 2
        return ((self.d_in + 1) * self.hidden + 2 * (self.hidden + 1) * half
                + (half + 1) * self.n_classes)


@dataclass(frozen=True)
class ModelParams:
    """The model's weights, packed into one contiguous float64 vector.

    `flat` holds every field's entries, row-major, in PARAM_FIELDS order;
    the named fields are reshaped views into it, so an in-place write
    through either shows in the other.  The constructor packs (copies) the
    arrays it is given.  Fields cannot be rebound, which would detach them
    from `flat`.  Gradients use the same layout, Adam moments a prefix of it.
    """

    w_trunk: np.ndarray
    b_trunk: np.ndarray
    w_trip: np.ndarray
    b_trip: np.ndarray
    w_soft: np.ndarray
    b_soft: np.ndarray
    w_cls: np.ndarray
    b_cls: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    # (field name, slice of flat, shape) per field, in PARAM_FIELDS order
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in self.arrays()]
        layout, start = [], 0
        for name, a in zip(PARAM_FIELDS, arrays):
            layout.append((name, slice(start, start + a.size), a.shape))
            start += a.size
        self._bind(np.concatenate([a.ravel() for a in arrays]), tuple(layout))

    def _bind(self, flat, layout):
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "_layout", layout)
        for name, part, shape in layout:
            object.__setattr__(self, name, flat[part].reshape(shape))

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator):
        half = cfg.embed_dim // 2

        def dense(n_in, n_out):
            return rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_in, n_out))

        return cls(
            w_trunk=dense(cfg.d_in, cfg.hidden),
            b_trunk=np.zeros(cfg.hidden),
            w_trip=dense(cfg.hidden, half),
            b_trip=np.zeros(half),
            w_soft=dense(cfg.hidden, half),
            b_soft=np.zeros(half),
            w_cls=dense(half, cfg.n_classes),
            b_cls=np.zeros(cfg.n_classes),
        )

    @property
    def config(self):
        return ModelConfig(
            d_in=self.w_trunk.shape[0],
            hidden=self.w_trunk.shape[1],
            embed_dim=2 * self.w_trip.shape[1],
            n_classes=self.w_cls.shape[1],
        )

    def arrays(self):
        return [getattr(self, name) for name in PARAM_FIELDS]

    def like(self, flat):
        """Params of this layout whose fields view `flat` (not copied)."""
        out = object.__new__(ModelParams)
        out._bind(flat, self._layout)
        return out

    def copy(self):
        return self.like(self.flat.copy())

    def all_finite(self):
        return bool(np.isfinite(self.flat).all())


class ForwardCache(NamedTuple):
    """What `backward` reads of a training forward pass."""

    x: np.ndarray
    h: np.ndarray  # rectified trunk output
    z_soft: np.ndarray  # softmax-head output, the classifier's input


def embed(params: ModelParams, features):
    """Embeddings of a batch of input rows, for inference.

    It computes no logits and keeps no backward cache: besides its input
    the pass holds the trunk output and the embedding it returns.
    """
    return _heads(params, _trunk(params, features)[1])


def forward(params: ModelParams, features):
    """(embeddings, logits) for a batch of input rows.

    The trunk output is gone before the logits are built: the classifier
    reads the embedding's softmax half as a view.
    """
    emb = embed(params, features)
    return emb, classify(params, emb[:, emb.shape[1] // 2:])


def forward_with_cache(params: ModelParams, features):
    """(embeddings, ForwardCache) for a training batch.

    It computes no logits: a loss that reads them gets them from
    `classify(params, cache.z_soft)`.  `cache.z_soft` is a view of the
    embedding's softmax half.
    """
    x, h = _trunk(params, features)
    emb = _heads(params, h)
    return emb, ForwardCache(x, h, emb[:, emb.shape[1] // 2:])


# Each layer adds its bias in place (t = a @ W; t += b): the same float
# additions as a @ W + b, so the same bits, without a second output-sized
# array.

def _trunk(params, features):
    """(x, rectified trunk output) for a batch of input rows; the rectifier
    runs in place on the trunk product."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.w_trunk.shape[0]:
        raise InvalidInputError(
            f"expected features of shape (N, {params.w_trunk.shape[0]})"
        )
    h = x @ params.w_trunk
    h += params.b_trunk
    np.maximum(h, 0.0, out=h)
    return x, h


def _heads(params, h):
    """Embeddings from the rectified trunk: each head's product is written
    straight into its half, so no head is built apart and then copied, and
    both biases are added in one pass over the embedding."""
    half = params.w_trip.shape[1]
    emb = np.empty((h.shape[0], 2 * half))
    np.matmul(h, params.w_trip, out=emb[:, :half])
    np.matmul(h, params.w_soft, out=emb[:, half:])
    emb += np.concatenate([params.b_trip, params.b_soft])
    return emb


def classify(params: ModelParams, z_soft):
    """Logits of the softmax-head output (`ForwardCache.z_soft`)."""
    logits = z_soft @ params.w_cls
    logits += params.b_cls
    return logits


def backward(params: ModelParams, cache: ForwardCache, d_emb, d_logits, out=None):
    """Parameter gradients given gradients at the embedding and logit outputs.

    d_logits None means the loss read no logits: the classifier's gradient
    is 0 and the softmax head's comes from d_emb alone, with no product on
    a zero logit gradient.  The gradients are written into `out` (params of
    the same layout, every entry overwritten) and returned; without it,
    into a fresh buffer.
    """
    x, h, z_soft = cache
    half = params.w_trip.shape[1]
    d_zt = d_emb[:, :half]
    d_zs = d_emb[:, half:]
    grads = params.like(np.empty_like(params.flat)) if out is None else out
    if d_logits is None:
        grads.w_cls.fill(0.0)
        grads.b_cls.fill(0.0)
    else:
        d_zs = d_zs + d_logits @ params.w_cls.T
        np.matmul(z_soft.T, d_logits, out=grads.w_cls)
        d_logits.sum(axis=0, out=grads.b_cls)
    np.matmul(h.T, d_zt, out=grads.w_trip)
    d_zt.sum(axis=0, out=grads.b_trip)
    np.matmul(h.T, d_zs, out=grads.w_soft)
    d_zs.sum(axis=0, out=grads.b_soft)
    d_h = d_zt @ params.w_trip.T + d_zs @ params.w_soft.T
    # h > 0 exactly where the pre-activation is (NaN reads false in both)
    d_hpre = d_h * (h > 0.0)
    np.matmul(x.T, d_hpre, out=grads.w_trunk)
    d_hpre.sum(axis=0, out=grads.b_trunk)
    return grads


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam settings plus the epoch-indexed learning-rate and beta1 schedules."""

    alpha0: float = 3e-4
    e0: int = 150
    e1: int = 300
    beta1_early: float = 0.9
    beta1_late: float = 0.5
    beta1_switch_epoch: int = 150
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        # trained entries can get zero gradients (the triplet head in
        # ce_only); a step whose zero gradient meets zero moments moves no
        # weight only with a finite rate and a positive finite epsilon
        if not 0.0 < self.alpha0 < math.inf:
            raise InvalidInputError("alpha0 must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise InvalidInputError("epsilon must be positive and finite")
        if self.e0 >= self.e1:
            raise InvalidInputError("e0 must be smaller than e1")
        for b in (self.beta1_early, self.beta1_late, self.beta2):
            if not 0.0 < b < 1.0:
                raise InvalidInputError("betas must lie in (0, 1)")


def lr_schedule(epoch, cfg: OptimizerConfig):
    """Flat at alpha0, exponential decay by 0.001 between e0 and e1, then held."""
    if epoch < 0:
        raise InvalidInputError("epoch must be >= 0")
    if epoch <= cfg.e0:
        return cfg.alpha0
    if epoch <= cfg.e1:
        return cfg.alpha0 * 0.001 ** ((epoch - cfg.e0) / (cfg.e1 - cfg.e0))
    return cfg.alpha0 * 0.001


def beta1_schedule(epoch, cfg: OptimizerConfig):
    return cfg.beta1_early if epoch < cfg.beta1_switch_epoch else cfg.beta1_late


@dataclass
class AdamState:
    """First and second moments of the leading entries of the params' flat
    vector that a run trains, as plain flat arrays."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, n_trained):
        return cls(m=np.zeros(n_trained), v=np.zeros(n_trained))

    def copy(self):
        return AdamState(m=self.m.copy(), v=self.v.copy(), step=self.step)


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              lr, beta1, cfg: OptimizerConfig):
    """One bias-corrected adaptive-moment update, in place.

    It steps as many leading entries of `params.flat` as `state` has
    moments; the entries after them, and their gradients, are neither read
    nor written.
    """
    end = state.m.size
    g, w, m, v = grads.flat[:end], params.flat[:end], state.m, state.v
    if not np.isfinite(g).all():
        raise NonFiniteGradientError("non-finite gradient encountered")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - cfg.beta2**t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    w -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.epsilon)
