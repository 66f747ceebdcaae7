"""Gaussian-process surrogate with Expected Improvement over the loss
hyperparameter box, plus the loss-drop-rate objective it minimizes.

The hyperparameter vector is (lam, margin, k, p); k and p live on integer
grids and are embedded as reals inside the GP, rounding on instantiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .losses import HyperParams, K_RANGE, LAMBDA_RANGE, MARGIN_RANGE, P_RANGE

# Box bounds in vector order (lam, margin, k, p).
BOX_LOW = np.array([LAMBDA_RANGE[0], MARGIN_RANGE[0], K_RANGE[0], P_RANGE[0]], dtype=float)
BOX_HIGH = np.array([LAMBDA_RANGE[1], MARGIN_RANGE[1], K_RANGE[1], P_RANGE[1]], dtype=float)
INTEGER_DIMS = (2, 3)

BANDWIDTH_FLOOR = 1e-6
DEFAULT_JITTER = 1e-8


class ConfigurationError(ValueError):
    """Invalid GP configuration (e.g. a singular bandwidth matrix)."""


class NumericalError(RuntimeError):
    """Gram matrix remained ill-conditioned after jitter."""


class InvalidMeasurementError(ValueError):
    """Loss measurements cannot form a drop-rate objective."""


def hp_to_vector(w: HyperParams):
    return np.array([w.lam, w.margin, float(w.k), float(w.p)])


def vector_to_hp(v):
    """Clip to the box and round the integer coordinates."""
    v = np.clip(np.asarray(v, dtype=float), BOX_LOW, BOX_HIGH)
    return HyperParams(
        lam=float(v[0]),
        margin=float(v[1]),
        k=int(round(v[2])),
        p=int(round(v[3])),
    )


def sample_box(rng: np.random.Generator, n):
    """n uniform draws from the box; integer dims drawn as integers."""
    pts = rng.uniform(BOX_LOW, BOX_HIGH, size=(n, len(BOX_LOW)))
    for j in INTEGER_DIMS:
        pts[:, j] = rng.integers(int(BOX_LOW[j]), int(BOX_HIGH[j]) + 1, size=n)
    return pts


def initial_design(rng: np.random.Generator, n):
    """Latin-hypercube-style stratified draws, one HyperParams per row."""
    d = len(BOX_LOW)
    pts = np.empty((n, d))
    for j in range(d):
        strata = rng.permutation(n)
        u = rng.uniform(size=n)
        pts[:, j] = BOX_LOW[j] + (strata + u) / n * (BOX_HIGH[j] - BOX_LOW[j])
    return [vector_to_hp(row) for row in pts]


def estimate_bandwidth(points):
    """Diagonal bandwidth from Silverman's rule on each coordinate.

    Entry j is (1.06 * n^(-1/5) * sample std of coordinate j)^2, floored at
    BANDWIDTH_FLOOR.  With fewer than two points, a quarter of the box width
    is used as the fallback scale.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(x)
    if n < 2:
        scale = (BOX_HIGH - BOX_LOW) / 4.0
    else:
        scale = 1.06 * n ** (-0.2) * x.std(axis=0, ddof=1)
    return np.maximum(scale**2, BANDWIDTH_FLOOR)


def kernel(w1, w2, bandwidth):
    """Gaussian kernel with normalization (2 pi)^(-d/2) |B|^(-1/2).

    The exponent is the squared Mahalanobis distance of w1 - w2 under the
    diagonal bandwidth.
    """
    bandwidth = np.asarray(bandwidth, dtype=float)
    if np.any(bandwidth <= 0.0):
        raise ConfigurationError("bandwidth entries must be positive")
    diff = np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float)
    d = len(bandwidth)
    const = (2.0 * np.pi) ** (-d / 2.0) / np.sqrt(np.prod(bandwidth))
    q = np.sum(diff * diff / bandwidth)
    return float(const * np.exp(-0.5 * q))


def _kernel_matrix(x1, x2, bandwidth):
    out = np.empty((len(x1), len(x2)))
    for i in range(len(x1)):
        for j in range(len(x2)):
            out[i, j] = kernel(x1[i], x2[j], bandwidth)
    return out


@dataclass
class GPState:
    """Observed hyperparameter vectors, objective values, and kernel settings."""

    points: np.ndarray
    values: np.ndarray
    bandwidth: np.ndarray
    mean_level: float
    jitter: float = DEFAULT_JITTER
    _chol: np.ndarray = field(default=None, repr=False)

    def _gram_cholesky(self):
        if self._chol is None:
            gram = _kernel_matrix(self.points, self.points, self.bandwidth)
            gram[np.diag_indices_from(gram)] += self.jitter
            try:
                self._chol = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("Gram matrix ill-conditioned after jitter") from exc
        return self._chol

    def posterior(self, candidate):
        """Posterior (mean, variance) at a candidate; variance clamped at 0."""
        v = candidate if isinstance(candidate, np.ndarray) else hp_to_vector(candidate)
        chol = self._gram_cholesky()
        kvec = _kernel_matrix(self.points, v[None, :], self.bandwidth)[:, 0]
        resid = self.values - self.mean_level
        alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, resid))
        mean = self.mean_level + kvec @ alpha
        beta = np.linalg.solve(chol, kvec)
        var = kernel(v, v, self.bandwidth) - beta @ beta
        return float(mean), float(max(var, 0.0))


def fit_gp(points, values, jitter=DEFAULT_JITTER, bandwidth=None):
    """Build a GPState from observed HyperParams (or vectors) and values.

    The constant mean is the running mean of the observed values; the
    bandwidth is re-estimated from the points unless given explicitly.
    """
    x = np.vstack([hp_to_vector(p) if isinstance(p, HyperParams) else np.asarray(p, float)
                   for p in points])
    y = np.asarray(values, dtype=float)
    if len(x) != len(y) or len(y) < 1:
        raise ValueError("need equally many points and values, at least one each")
    if bandwidth is None:
        bandwidth = estimate_bandwidth(x)
    return GPState(
        points=x,
        values=y,
        bandwidth=np.asarray(bandwidth, dtype=float),
        mean_level=float(y.mean()),
        jitter=jitter,
    )


def expected_improvement(state: GPState, candidate, best_value):
    """Closed-form EI for minimization: sigma * (Z Phi(Z) + phi(Z)).

    Z = (best_value - posterior mean) / sigma; returns 0 when sigma = 0.
    """
    mean, var = state.posterior(candidate)
    sigma = np.sqrt(var)
    if sigma <= 0.0:
        return 0.0
    z = (best_value - mean) / sigma
    return float(max(sigma * (z * norm.cdf(z) + norm.pdf(z)), 0.0))


def propose(state: GPState, pool_size, rng: np.random.Generator):
    """EI-argmax over a uniform candidate pool; ties go to the first hit."""
    pool = sample_box(rng, pool_size)
    best = float(state.values.min())
    scores = np.array([expected_improvement(state, c, best) for c in pool])
    return vector_to_hp(pool[int(np.argmax(scores))])


def drop_rate_objective(first_half_mean, second_half_mean, expected_drop):
    """|relative loss drop - expected_drop|; 0 means perfectly healthy training."""
    if first_half_mean <= 0.0:
        raise InvalidMeasurementError("first-half mean loss must be positive")
    drop = (first_half_mean - second_half_mean) / first_half_mean
    return float(abs(drop - expected_drop))


@dataclass(frozen=True)
class ExplorationRecord:
    """Outcome of one short exploration run under a candidate."""

    hyperparams: HyperParams
    mean_loss_first_half: float
    mean_loss_second_half: float
    objective_value: float
