import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve, solve_triangular
from scipy.special import ndtr
from scipy.stats import norm

from progmetric import bayes_opt, tuning
from progmetric.bayes_opt import (
    BOX_HIGH,
    BOX_LOW,
    DEFAULT_JITTER,
    ConfigurationError,
    GPState,
    InvalidMeasurementError,
    NumericalError,
    drop_rate_objective,
    estimate_bandwidth,
    expected_improvement,
    fit_gp,
    hp_to_vector,
    initial_design,
    kernel,
    propose,
    sample_box,
    vector_to_hp,
)
from progmetric.losses import HyperParams
from progmetric.model import ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec
from progmetric.synthetic import SynthSpec, generate
from progmetric.trainer import PlaConfig, run_pla


def random_state(rng, n=4, jitter=1e-8):
    pts = sample_box(rng, n)
    vals = rng.uniform(0.0, 0.3, n)
    return fit_gp(pts, vals, jitter=jitter)


# ------------------------------------------------------------------- kernel

def test_kernel_at_zero_difference():
    b = np.array([1.0, 2.0, 0.5, 4.0])
    x = np.array([0.3, -0.1, 2.0, 5.0])
    d = len(b)
    expected = (2 * np.pi) ** (-d / 2) / np.sqrt(np.prod(b))
    assert kernel(x, x, b) == pytest.approx(expected, rel=1e-12)


def test_kernel_decay_to_zero():
    b = np.ones(4)
    x = np.zeros(4)
    far = np.full(4, 50.0)
    assert kernel(x, far, b) < 1e-200 or kernel(x, far, b) == 0.0


def test_kernel_scalar_reference_value():
    assert kernel(np.array([1.0]), np.array([0.0]), np.array([1.0])) == pytest.approx(
        (2 * np.pi) ** -0.5 * np.exp(-0.5), rel=1e-10)
    assert kernel(np.array([1.0]), np.array([0.0]), np.array([1.0])) == pytest.approx(
        0.24197, abs=1e-5)


def test_kernel_rejects_singular_bandwidth():
    with pytest.raises(ConfigurationError):
        kernel(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]))


def axis_sum_kernel(w1, w2, bandwidth):
    """The kernel with np.sum over the last axis: the reference that
    `kernel`'s column-by-column sum must equal byte for byte."""
    diff = np.asarray(w1, dtype=float) - np.asarray(w2, dtype=float)
    d = len(bandwidth)
    const = (2.0 * np.pi) ** (-d / 2.0) / np.sqrt(np.prod(bandwidth))
    return const * np.exp(-0.5 * np.sum(diff * diff / bandwidth, axis=-1))


def test_kernel_equals_axis_sum_reference_byte_for_byte():
    rng = np.random.default_rng(21)
    for _ in range(400):
        m, n, d = rng.integers(1, 300), rng.integers(1, 40), rng.integers(1, 8)
        x = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
        y = rng.normal(size=(n, d))
        b = np.exp(rng.uniform(-14.0, 3.0, d))
        for w1, w2 in ((x[:, None], y), (x[:, None], y[None]), (x[0], y[0]), (x, x)):
            got = np.asarray(kernel(w1, w2, b))
            want = np.asarray(axis_sum_kernel(w1, w2, b))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- bandwidth

def test_bandwidth_identical_points_floor():
    pts = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), (5, 1))
    np.testing.assert_array_equal(estimate_bandwidth(pts), np.full(4, 1e-6))


def test_bandwidth_silverman_rule():
    rng = np.random.default_rng(0)
    n = 40
    pts = rng.normal(size=(n, 1))
    std = pts.std(ddof=1)
    expected = (1.06 * n ** -0.2 * std) ** 2
    assert estimate_bandwidth(pts)[0] == pytest.approx(expected, rel=1e-12)


def test_bandwidth_scale_homogeneity():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(10, 3))
    b1 = estimate_bandwidth(pts)
    b2 = estimate_bandwidth(3.0 * pts)
    np.testing.assert_allclose(b2, 9.0 * b1, rtol=1e-12)


def test_bandwidth_fallback_single_point():
    b = estimate_bandwidth(np.zeros((1, 4)))
    np.testing.assert_allclose(b, ((BOX_HIGH - BOX_LOW) / 4.0) ** 2)


# ---------------------------------------------------------------- posterior

def test_posterior_interpolates_observations():
    rng = np.random.default_rng(2)
    state = random_state(rng, n=4, jitter=1e-12)
    for i in range(4):
        mean, var = state.posterior(state.points[i])
        assert mean == pytest.approx(state.values[i], abs=1e-6)
        assert var == pytest.approx(0.0, abs=1e-9)


def test_posterior_reverts_to_prior_far_away():
    rng = np.random.default_rng(3)
    state = random_state(rng)
    far = np.full(4, 1e6)
    mean, var = state.posterior(far)
    assert mean == pytest.approx(state.mean_level, rel=1e-9)
    assert var == pytest.approx(kernel(far, far, state.bandwidth), rel=1e-9)


def test_posterior_matches_two_point_linear_solve():
    pts = np.array([[0.5, 0.0, 2.0, 3.0], [1.5, 0.2, 6.0, 9.0]])
    vals = np.array([0.2, 0.05])
    jitter = 1e-8
    state = fit_gp(pts, vals, jitter=jitter)
    cand = np.array([1.0, 0.1, 4.0, 6.0])
    b = state.bandwidth
    gram = np.array([[kernel(pts[i], pts[j], b) for j in range(2)] for i in range(2)])
    gram += jitter * np.eye(2)
    kvec = np.array([kernel(pts[i], cand, b) for i in range(2)])
    mu = vals.mean()
    inv = np.linalg.inv(gram)
    want_mean = mu + kvec @ inv @ (vals - mu)
    want_var = kernel(cand, cand, b) - kvec @ inv @ kvec
    mean, var = state.posterior(cand)
    assert mean == pytest.approx(want_mean, abs=1e-12)
    assert var == pytest.approx(max(want_var, 0.0), abs=1e-12)


def test_posterior_matches_scipy_linalg_reference():
    # The same Cholesky factor solved by LAPACK's triangular solvers.  Two
    # backward-stable solves of these well-conditioned systems differ by a
    # few float64 ulps; the bound, 1e-12 of the observations' spread (mean)
    # and of the prior variance (variance), leaves a thousandfold margin.
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        state = random_state(rng, n=n)
        cands = np.vstack([sample_box(rng, 256), state.points])
        chol, centred = state._chol, state.values - state.mean_level
        k_star = kernel(cands[:, None], state.points, state.bandwidth)
        want_mean = state.mean_level + k_star @ cho_solve((chol, True), centred)
        beta = solve_triangular(chol, k_star.T, lower=True)
        prior = kernel(cands, cands, state.bandwidth)
        want_var = np.maximum(prior - np.sum(beta * beta, axis=0), 0.0)
        mean, var = state.posterior(cands)
        assert np.all(np.abs(mean - want_mean) <= 1e-12 * np.abs(centred).max())
        assert np.all(np.abs(var - want_var) <= 1e-12 * prior)


def test_posterior_variance_equals_kernel_prior_byte_for_byte():
    # the prior variance is the kernel's peak, taken without kernel(stack,
    # stack); it has the same bits, and a candidate row with a NaN or
    # infinite entry keeps the NaN variance that kernel(row, row) gives it,
    # in a stack and alone (NaN's sign bit is not pinned)
    rng = np.random.default_rng(41)
    bad = [3, 5, 7]
    for _ in range(20):
        state = random_state(rng, n=int(rng.integers(1, 12)))
        cands = np.vstack([sample_box(rng, 64), state.points, np.full((1, 4), 1e308)])
        cands[3, 1], cands[5, 0], cands[7, 2] = np.nan, np.inf, -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            k_star = kernel(cands[:, None], state.points, state.bandwidth)
            beta = bayes_opt._solve_lower(state._chol, k_star.T)
            want = np.maximum(kernel(cands, cands, state.bandwidth)
                              - np.sum(beta * beta, axis=0), 0.0)
            _, var = state.posterior(cands)
            assert np.isnan(var[bad]).all() and np.isnan(want[bad]).all()
            good = np.delete(np.arange(len(cands)), bad)
            assert var[good].tobytes() == want[good].tobytes()
            assert not np.isnan(var[good]).any()
            for i in bad:
                assert np.isnan(state.posterior(cands[i])[1])


def test_posterior_variance_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(20):
        state = random_state(rng, n=int(rng.integers(1, 6)))
        for cand in sample_box(rng, 10):
            _, var = state.posterior(cand)
            assert var >= 0.0


def test_adding_observation_never_increases_variance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = sample_box(rng, 4)
        vals = rng.uniform(0, 0.3, 4)
        new_pt = sample_box(rng, 1)[0]
        new_val = float(rng.uniform(0, 0.3))
        small = fit_gp(pts, vals)
        big = fit_gp(np.vstack([pts, new_pt]), np.append(vals, new_val),
                     bandwidth=small.bandwidth)
        for cand in sample_box(rng, 10):
            _, v_small = small.posterior(cand)
            _, v_big = big.posterior(cand)
            assert v_big <= v_small + 1e-8


def test_fit_gp_coincident_points_retries_jitter():
    # Five copies of one point floor the bandwidth, so the Gram diagonal is
    # ~2.5e10 and the default absolute jitter cannot make it definite.
    pt = np.array([1.0, 0.2, 4.0, 6.0])
    pts = np.tile(pt, (5, 1))
    vals = np.random.default_rng(12).uniform(0.0, 0.3, 5)
    state = fit_gp(pts, vals)
    assert state.jitter > DEFAULT_JITTER
    w = propose(state, 64, np.random.default_rng(13))
    assert isinstance(w, HyperParams)
    v = hp_to_vector(w)
    assert np.all(v >= BOX_LOW) and np.all(v <= BOX_HIGH)

    # Dense solve with the recorded jitter.  At the observed point the
    # variance is about jitter / 5, so it pins the jitter actually used;
    # offsets of five bandwidth sigmas keep the mean well conditioned.
    b = state.bandwidth
    gram = kernel(pts[:, None], pts[None], b) + state.jitter * np.eye(5)
    mu = vals.mean()
    offsets = 5e-3 * np.eye(4)
    cands = np.vstack([pt, pt + offsets, pt - offsets,
                       sample_box(np.random.default_rng(14), 4)])
    for i, cand in enumerate(cands):
        kv = kernel(pts, cand, b)
        want_var = kernel(cand, cand, b) - kv @ np.linalg.solve(gram, kv)
        mean, var = state.posterior(cand)
        assert var == pytest.approx(want_var, rel=1e-8)
        if i > 0:
            want_mean = mu + kv @ np.linalg.solve(gram, vals - mu)
            assert mean == pytest.approx(want_mean, abs=1e-8)


def test_fit_gp_nonfinite_gram_raises_numerical_error():
    # |B| underflows to 0, so the kernel peak is inf and no jitter can help.
    pts = sample_box(np.random.default_rng(16), 3)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        fit_gp(pts, [0.1, 0.2, 0.3], bandwidth=np.full(4, 1e-300))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fit_gp_rejects_nonfinite_values(bad):
    pts = sample_box(np.random.default_rng(17), 5)
    values = [0.1, 0.2, 0.2, bad, bad]
    with pytest.raises(NumericalError, match="index 3"):
        fit_gp(pts, values)


def test_nan_objective_never_reaches_propose(monkeypatch):
    # a NaN value makes every EI score NaN, and argmax would pick pool row 0
    pts = sample_box(np.random.default_rng(18), 5)
    with pytest.raises(NumericalError, match="index 1"):
        fit_gp(pts, [0.1, np.nan, 0.2, 0.1, 0.3])

    proposals = []
    monkeypatch.setattr(tuning, "propose",
                        lambda *args: proposals.append(args) or propose(*args))
    values = iter([0.1, np.nan, 0.2, 0.1, 0.3])
    with pytest.raises(NumericalError, match="index 1"):
        tuning.run_tuning(0, rounds=3, n_initial=5, objective=lambda w: next(values))
    assert proposals == []


def assert_stack_matches_single_calls(state, stack, best):
    means, variances = state.posterior(stack)
    eis = expected_improvement(state, stack, best)
    assert means.shape == variances.shape == eis.shape == (len(stack),)
    for c, m, v, e in zip(stack, means, variances, eis):
        mean, var = state.posterior(c)
        ei = expected_improvement(state, c, best)
        assert type(mean) is float and type(var) is float and type(ei) is float
        assert abs(mean - m) <= 1e-15 and abs(var - v) <= 1e-15
        assert abs(ei - e) <= 1e-15
    return eis


def test_posterior_and_ei_stack_match_single_calls():
    rng = np.random.default_rng(15)
    for n in (1, 6, 17):
        state = random_state(rng, n=n)
        assert_stack_matches_single_calls(state, sample_box(rng, 40),
                                          float(state.values.min()))
    # With jitter 0 an observed point has zero variance and exactly zero EI.
    state = GPState(points=np.zeros((1, 4)), values=np.array([0.1]),
                    bandwidth=np.ones(4), mean_level=0.1, jitter=0.0)
    stack = np.vstack([np.zeros(4), np.full(4, 0.5), sample_box(rng, 8)])
    eis = assert_stack_matches_single_calls(state, stack, 0.1)
    assert eis[0] == 0.0 and eis[1] > 0.0
    assert state.posterior(HyperParams(lam=0.0, margin=0.0, k=1, p=1)) == \
        state.posterior(np.array([0.0, 0.0, 1.0, 1.0]))


@st.composite
def grid_observations(draw):
    """1-10 points on a 3-level grid per coordinate, so duplicates are common."""
    levels = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=10))
    values = draw(st.lists(st.floats(0.0, 0.3), min_size=len(levels),
                           max_size=len(levels)))
    pts = BOX_LOW + np.array(levels) / 2.0 * (BOX_HIGH - BOX_LOW)
    return pts, np.array(values)


@given(grid_observations(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_fit_and_propose_never_raise_on_grid_points(obs, seed):
    pts, vals = obs
    state = fit_gp(pts, vals)
    rng = np.random.default_rng(seed)
    w = propose(state, 32, rng)
    v = hp_to_vector(w)
    assert np.all(v >= BOX_LOW) and np.all(v <= BOX_HIGH)
    cands = np.vstack([pts, sample_box(rng, 32)])
    _, variances = state.posterior(cands)
    eis = expected_improvement(state, cands, float(vals.min()))
    assert np.all(variances >= 0.0)
    assert np.all(np.isfinite(eis)) and np.all(eis >= 0.0)


# --------------------------------------------------------------------- EI

def norm_reference_ei(state, candidates, best_value):
    """Closed-form EI through scipy.stats.norm, kept as an independent oracle."""
    mean, var = state.posterior(candidates)
    sigma = np.sqrt(var)
    flat = sigma <= 0.0
    z = (best_value - mean) / np.where(flat, 1.0, sigma)
    return np.where(flat, 0.0, np.maximum(sigma * (z * norm.cdf(z) + norm.pdf(z)), 0.0))


def test_ei_matches_scipy_stats_reference():
    rng = np.random.default_rng(31)
    for _ in range(20):
        state = random_state(rng, n=int(rng.integers(2, 12)))
        # fresh pool points plus the observed points, where sigma is ~0
        stack = np.vstack([sample_box(rng, 256), state.points])
        best = float(state.values.min()) + rng.normal(scale=0.05)
        got = expected_improvement(state, stack, best)
        want = norm_reference_ei(state, stack, best)
        # Phi is erfc-based here and Cephes-based in scipy: last bits differ
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-16)
        assert np.array_equal(got == 0.0, want == 0.0)


def tuning_and_pla_outputs():
    """run_tuning traces on seeds 0-19 and one small run_pla's chosen
    points, epoch rows and exploration rows."""
    traces = [list(tuning.trace_csv_lines(tuning.run_tuning(seed))) for seed in range(20)]
    ds = generate(SynthSpec(n_identities=10, samples_per_identity=8, dim=6,
                            center_scale=5.0, intra_spread=1.0, seed=11))
    cfg = PlaConfig(max_epochs=20, initial_design=3, explore_epochs=2, objective_split=1,
                    exploit_epochs=3, batch_spec=BatchSpec(4, 4))
    res = run_pla(ds.features, ds.labels, cfg, ModelConfig(d_in=6, hidden=8, embed_dim=8),
                  OptimizerConfig(), seed=5)
    return (traces, res.report.chosen, list(res.report.epoch_csv_lines()),
            list(res.report.exploration_csv_lines()))


def test_outputs_same_with_scipy_ndtr_as_phi(monkeypatch):
    # EI reaches outputs only through propose's argmax, so Phi's last bits
    # must not move a proposal
    ours = tuning_and_pla_outputs()
    monkeypatch.setattr(bayes_opt, "_normal_cdf", ndtr)
    assert tuning_and_pla_outputs() == ours


def test_ei_zero_variance():
    state = GPState(points=np.zeros((1, 4)), values=np.array([0.1]),
                    bandwidth=np.ones(4), mean_level=0.1, jitter=0.0)
    assert expected_improvement(state, np.zeros(4), 0.1) == 0.0


def test_ei_at_mean_equals_pdf_scaling():
    # With posterior mean == best and sigma == s, EI = s * phi(0).
    rng = np.random.default_rng(6)
    state = random_state(rng)
    cand = sample_box(rng, 1)[0]
    mean, var = state.posterior(cand)
    sigma = np.sqrt(var)
    ei = expected_improvement(state, cand, best_value=mean)
    assert ei == pytest.approx(sigma * norm.pdf(0.0), rel=1e-10)


def test_ei_positive_where_variance_positive():
    rng = np.random.default_rng(7)
    state = random_state(rng)
    cand = sample_box(rng, 1)[0]
    _, var = state.posterior(cand)
    assert var > 0
    assert expected_improvement(state, cand, float(state.values.min())) > 0.0


def test_ei_matches_monte_carlo():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 5:
        state = random_state(rng)
        cand = sample_box(rng, 1)[0]
        best = float(state.values.min())
        mean, var = state.posterior(cand)
        sigma = np.sqrt(var)
        if sigma <= 0 or (best - mean) / sigma < -0.5:
            continue  # keep EI large enough for a tight Monte-Carlo estimate
        draws = rng.normal(mean, sigma, 10**6)
        mc = float(np.maximum(best - draws, 0.0).mean())
        ei = expected_improvement(state, cand, best)
        assert ei == pytest.approx(mc, rel=0.01)
        checked += 1


# ---------------------------------------------------------------- proposal

def test_propose_pool_of_one():
    rng = np.random.default_rng(9)
    state = random_state(rng)
    probe_rng = np.random.default_rng(99)
    expected = vector_to_hp(sample_box(probe_rng, 1)[0])
    got = propose(state, 1, np.random.default_rng(99))
    assert got == expected


def test_propose_agrees_with_exhaustive_ei():
    rng = np.random.default_rng(10)
    state = random_state(rng)
    pool_rng = np.random.default_rng(7)
    pool = sample_box(pool_rng, 3)
    best = float(state.values.min())
    scores = [expected_improvement(state, c, best) for c in pool]
    want = vector_to_hp(pool[int(np.argmax(scores))])
    got = propose(state, 3, np.random.default_rng(7))
    assert got == want


def test_vector_roundtrip_and_clipping():
    w = HyperParams(lam=1.5, margin=0.2, k=3, p=7)
    assert vector_to_hp(hp_to_vector(w)) == w
    clipped = vector_to_hp(np.array([5.0, -3.0, 0.2, 99.0]))
    assert clipped == HyperParams(lam=2.0, margin=-0.1, k=1, p=16)


def test_initial_design_covers_box():
    rng = np.random.default_rng(11)
    design = initial_design(rng, 8)
    assert len(design) == 8
    for w in design:
        v = hp_to_vector(w)
        assert np.all(v >= BOX_LOW - 1e-9) and np.all(v <= BOX_HIGH + 1e-9)
    # stratification: the 8 lambda values land in distinct eighths of the box
    lam_bins = {int(w.lam / 2.0 * 8 * (1 - 1e-12)) for w in design}
    assert len(lam_bins) == 8


# -------------------------------------------------------------- objective

def test_drop_rate_objective_values():
    # a 15% drop hits the target; 0.85 is not exactly representable so
    # the result is zero only to rounding error
    assert drop_rate_objective(1.0, 0.85, 0.15) == pytest.approx(0.0, abs=1e-15)
    assert drop_rate_objective(1.0, 0.75, 0.25) == 0.0
    # 3/20 rounds to the double 0.15, so this pair is exactly zero
    assert drop_rate_objective(20.0, 17.0, 0.15) == 0.0
    assert drop_rate_objective(1.0, 1.0, 0.15) == 0.15
    assert drop_rate_objective(2.0, 1.5, 0.15) == pytest.approx(0.10)


def test_drop_rate_objective_rejects_nonpositive():
    with pytest.raises(InvalidMeasurementError):
        drop_rate_objective(0.0, 1.0, 0.15)
    with pytest.raises(InvalidMeasurementError):
        drop_rate_objective(-1.0, 1.0, 0.15)


@pytest.mark.parametrize("means", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.inf),
                                   (1.0, np.nan), (1.0, -np.inf)])
def test_drop_rate_objective_rejects_nonfinite(means):
    with pytest.raises(InvalidMeasurementError):
        drop_rate_objective(*means, 0.15)
