"""Gaussian-process surrogate with Expected Improvement over the loss
hyperparameter box, plus the loss-drop-rate objective it minimizes.

The hyperparameter vector is (lam, margin, k, p); k and p live on integer
grids and are embedded as reals inside the GP, rounding on instantiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """GP fit failed: a non-finite objective value, or a Gram matrix that
    remained ill-conditioned after jitter."""


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


def _kernel_peak(bandwidth):
    """The kernel's normalization (2 pi)^(-d/2) |B|^(-1/2), its value at
    zero distance, for a diagonal bandwidth with positive entries."""
    if np.any(bandwidth <= 0.0):
        raise ConfigurationError("bandwidth entries must be positive")
    return (2.0 * np.pi) ** (-len(bandwidth) / 2.0) / np.sqrt(np.prod(bandwidth))


def kernel(w1, w2, bandwidth):
    """Gaussian kernel with normalization (2 pi)^(-d/2) |B|^(-1/2).

    The exponent is the squared Mahalanobis distance of w1 - w2 under the
    diagonal bandwidth.  Leading axes broadcast: two vectors give a scalar,
    kernel(x[:, None], y[None], b) the len(x) x len(y) matrix.
    """
    bandwidth = np.asarray(bandwidth, dtype=float)
    const = _kernel_peak(bandwidth)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    d = len(bandwidth)
    # Coordinate by coordinate over whole arrays, added left to right: the
    # order numpy's sum uses along a last axis shorter than 8, without its
    # per-element inner loop over that axis.
    diff = w1[..., 0] - w2[..., 0]
    q = diff * diff / bandwidth[0]
    for j in range(1, d):
        diff = w1[..., j] - w2[..., j]
        q = q + diff * diff / bandwidth[j]
    return const * np.exp(-0.5 * q)


def _solve_lower(chol, b):
    """chol^-1 b for a lower-triangular chol, by LAPACK's general solver.

    Reversed rows and columns make the system upper triangular, so partial
    pivoting never swaps rows and the solve is a plain substitution.  The
    lower system itself would pivot, losing accuracy on a nearly singular
    Gram matrix.
    """
    return np.linalg.solve(chol[::-1, ::-1], b[::-1])[::-1]


# Jitters tried after the configured one fails, as multiples of the Gram
# diagonal: a floored bandwidth's kernel peak dwarfs any absolute jitter.
JITTER_RETRY_SCALES = (1e-12, 1e-10, 1e-8, 1e-6)


@dataclass
class GPState:
    """Observed hyperparameter vectors, objective values, and kernel settings.

    Construction caches the Gram matrix's lower Cholesky factor and
    alpha = K^-1 (values - mean_level); `jitter` records the jitter used.
    """

    points: np.ndarray
    values: np.ndarray
    bandwidth: np.ndarray
    mean_level: float
    jitter: float = DEFAULT_JITTER

    def __post_init__(self):
        gram = kernel(self.points[:, None], self.points[None], self.bandwidth)
        peak = float(gram.diagonal().max())
        for jitter in (self.jitter, *(peak * s for s in JITTER_RETRY_SCALES)):
            try:
                self._chol = np.linalg.cholesky(gram + jitter * np.eye(len(gram)))
            except np.linalg.LinAlgError:
                continue
            if np.all(np.isfinite(self._chol)):
                break
        else:
            raise NumericalError("Gram matrix ill-conditioned after jitter")
        self.jitter = jitter
        # chol.T is upper triangular already, so the solve never pivots on it
        self._alpha = np.linalg.solve(
            self._chol.T, _solve_lower(self._chol, self.values - self.mean_level))

    def posterior(self, candidates):
        """Posterior (mean, variance >= 0): floats at one candidate (a vector
        or HyperParams), length-m arrays at an (m, d) stack of candidates."""
        v = np.asarray(hp_to_vector(candidates) if isinstance(candidates, HyperParams)
                       else candidates, dtype=float)
        stack = np.atleast_2d(v)
        k_star = kernel(stack[:, None], self.points, self.bandwidth)
        mean = self.mean_level + k_star @ self._alpha
        beta = _solve_lower(self._chol, k_star.T)
        # the prior variance is the kernel at zero distance; a candidate row
        # with a non-finite entry has none (NaN), as kernel(row, row) gives
        prior = np.where(np.isfinite(stack).all(axis=1),
                         _kernel_peak(self.bandwidth), np.nan)
        var = np.maximum(prior - np.sum(beta * beta, axis=0), 0.0)
        if v.ndim == 1:
            return float(mean[0]), float(var[0])
        return mean, var


def fit_gp(points, values, jitter=DEFAULT_JITTER, bandwidth=None):
    """Build a GPState from observed HyperParams (or vectors) and values.

    The constant mean is the running mean of the observed values; the
    bandwidth is re-estimated from the points unless given explicitly.
    A non-finite value raises NumericalError naming its index.
    """
    x = np.vstack([hp_to_vector(p) if isinstance(p, HyperParams) else np.asarray(p, float)
                   for p in points])
    y = np.asarray(values, dtype=float)
    if len(x) != len(y) or len(y) < 1:
        raise ValueError("need equally many points and values, at least one each")
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise NumericalError(f"non-finite objective value {y[bad[0]]} at index {bad[0]}")
    if bandwidth is None:
        bandwidth = estimate_bandwidth(x)
    return GPState(
        points=x,
        values=y,
        bandwidth=np.asarray(bandwidth, dtype=float),
        mean_level=float(y.mean()),
        jitter=jitter,
    )


def _normal_cdf(z):
    """Standard normal CDF, 0.5 erfc(-z / sqrt(2)) per entry, with erfc from
    the C library through `math.erfc` (NaN gives NaN).  The argument is z
    times the double nearest 1 / sqrt(2), as in Cephes `ndtr`: dividing by
    sqrt(2) rounds differently, which erfc's tail magnifies."""
    z = np.asarray(z, dtype=float)
    x = (-z.ravel() * math.sqrt(0.5)).tolist()
    return 0.5 * np.fromiter(map(math.erfc, x), float, len(x)).reshape(z.shape)


def expected_improvement(state: GPState, candidates, best_value):
    """Closed-form EI for minimization: sigma * (Z Phi(Z) + phi(Z)).

    Z = (best_value - posterior mean) / sigma; EI is exactly 0 where
    sigma = 0.  Takes one candidate (returns a float) or an (m, d) stack.
    """
    mean, var = state.posterior(candidates)
    sigma = np.sqrt(var)
    flat = sigma <= 0.0
    z = (best_value - mean) / np.where(flat, 1.0, sigma)
    pdf = np.exp(-z**2 / 2.0) / np.sqrt(2.0 * np.pi)
    ei = np.where(flat, 0.0, np.maximum(sigma * (z * _normal_cdf(z) + pdf), 0.0))
    return float(ei) if ei.ndim == 0 else ei


def propose(state: GPState, pool_size, rng: np.random.Generator):
    """EI-argmax over a uniform candidate pool; ties go to the first hit."""
    pool = sample_box(rng, pool_size)
    scores = expected_improvement(state, pool, float(state.values.min()))
    return vector_to_hp(pool[int(np.argmax(scores))])


def drop_rate_objective(first_half_mean, second_half_mean, expected_drop):
    """|relative loss drop - expected_drop|; 0 means perfectly healthy training."""
    if not (np.isfinite(first_half_mean) and np.isfinite(second_half_mean)):
        raise InvalidMeasurementError(
            f"non-finite mean loss ({first_half_mean}, {second_half_mean})")
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
