"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
Every expected value is computed by an independent oracle inside this file
or is an exactly-known closed-form quantity.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from progmetric.bayes_opt import (
    drop_rate_objective,
    expected_improvement,
    fit_gp,
    kernel,
    sample_box,
)
from progmetric.evaluation import QueryGallerySplit, evaluate
from progmetric.losses import (
    HyperParams,
    composite_loss,
    composite_loss_grad,
    gbh_terms,
    pairwise_distances,
)
from progmetric.model import (
    ModelConfig,
    ModelParams,
    OptimizerConfig,
    beta1_schedule,
    classify,
    embed,
    forward,
    forward_with_cache,
    backward,
    lr_schedule,
)
from progmetric.sampler import BatchSpec
from progmetric.synthetic import (
    SynthSpec,
    generate,
    query_gallery,
    split,
    train_partition,
)
from progmetric.trainer import PlaConfig, TrainingRun, explore, run_fixed, run_pla
from progmetric.tuning import run_tuning


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {label} {detail}"


# --------------------------------------------------------------- criterion 1

def gbh_full_sort_oracle(dist, labels, k, p):
    labels = np.asarray(labels)
    out = np.empty(len(labels))
    for a in range(len(labels)):
        pos = sorted((dist[a, b] for b in range(len(labels))
                      if b != a and labels[b] == labels[a]), reverse=True)
        neg = sorted(dist[a, b] for b in range(len(labels))
                     if labels[b] != labels[a])
        out[a] = pos[min(k, len(pos)) - 1] - neg[min(p, len(neg)) - 1]
    return out


def test_criterion_1_order_statistic_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        p_ids = int(rng.integers(2, 9))
        k_sz = int(rng.integers(2, 9))
        d = int(rng.integers(1, 17))
        x = rng.normal(size=(p_ids * k_sz, d))
        labels = np.repeat(np.arange(p_ids), k_sz)
        dist = pairwise_distances(x)
        k = int(rng.integers(1, 9))
        p = int(rng.integers(1, 17))
        got = gbh_terms(dist, labels, k, p)
        if not np.array_equal(got, gbh_full_sort_oracle(dist, labels, k, p)):
            ok = False
            break
        # k=p=1 must reduce to the hardest-pair quantity exactly
        hardest = np.empty(len(labels))
        for a in range(len(labels)):
            same = (labels == labels[a]) & (np.arange(len(labels)) != a)
            hardest[a] = dist[a, same].max() - dist[a, ~(labels == labels[a])].min()
        if not np.array_equal(gbh_terms(dist, labels, 1, 1), hardest):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(1, "gbh_terms equals the full-sort oracle on 1000 batches",
           ok and elapsed < 10.0, f"({elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    cfg = ModelConfig(d_in=3, hidden=4, embed_dim=4, n_classes=3)
    worst_loss, worst_model = 0.0, 0.0
    for _ in range(50):
        n_ids, per = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        labels = np.repeat(np.arange(n_ids), per)
        n = len(labels)
        w = HyperParams(lam=float(rng.uniform(0.1, 2.0)),
                        margin=float(rng.uniform(-0.1, 0.3)),
                        k=int(rng.integers(1, 4)), p=int(rng.integers(1, 5)))
        # loss-level gradient vs central differences
        emb = rng.normal(size=(n, 4), scale=2.0)
        logits = rng.normal(size=(n, n_ids))
        _, d_emb, d_logits = composite_loss_grad(emb, logits, labels, w)
        step = 1e-6
        fd = []
        an = []
        for arr, grad in ((emb, d_emb), (logits, d_logits)):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + step
                hi = composite_loss(emb, logits, labels, w).total
                arr[i] = orig - step
                lo = composite_loss(emb, logits, labels, w).total
                arr[i] = orig
                fd.append((hi - lo) / (2 * step))
                an.append(grad[i])
                it.iternext()
        fd, an = np.array(fd), np.array(an)
        worst_loss = max(worst_loss,
                         np.abs(an - fd).max() / max(np.abs(fd).max(), 1e-8))
        # model-level: backprop of the composite loss vs weight-space FD
        params = ModelParams.init(cfg, rng)
        x = rng.normal(size=(n, 3), scale=2.0)
        e, cache = forward_with_cache(params, x)
        l = classify(params, cache.z_soft)
        _, ge, gl = composite_loss_grad(e, l, labels, w)
        grads = backward(params, cache, ge, gl)
        fdv, anv = [], []
        for arr, g in zip(params.arrays(), grads.arrays()):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                i = it.multi_index
                orig = arr[i]
                arr[i] = orig + step
                e2, l2 = forward(params, x)
                hi = composite_loss(e2, l2, labels, w).total
                arr[i] = orig - step
                e2, l2 = forward(params, x)
                lo = composite_loss(e2, l2, labels, w).total
                arr[i] = orig
                fdv.append((hi - lo) / (2 * step))
                anv.append(g[i])
                it.iternext()
        fdv, anv = np.array(fdv), np.array(anv)
        worst_model = max(worst_model,
                          np.abs(anv - fdv).max() / max(np.abs(fdv).max(), 1e-8))
    elapsed = time.perf_counter() - t0
    ok = worst_loss < 1e-4 and worst_model < 1e-4 and elapsed < 30.0
    report(2, "composite gradients match finite differences",
           ok, f"(loss {worst_loss:.2e}, model {worst_model:.2e}, {elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_gp_and_ei_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_gp = 0.0
    for _ in range(25):
        n = int(rng.integers(1, 6))
        pts = sample_box(rng, n)
        vals = rng.uniform(0.0, 0.3, n)
        state = fit_gp(pts, vals)
        b = state.bandwidth
        gram = np.array([[kernel(pts[i], pts[j], b) for j in range(n)]
                         for i in range(n)]) + state.jitter * np.eye(n)
        mu = vals.mean()
        for cand in sample_box(rng, 4):
            kv = np.array([kernel(pts[i], cand, b) for i in range(n)])
            alpha = np.linalg.solve(gram, vals - mu)
            want_mean = mu + kv @ alpha
            want_var = max(kernel(cand, cand, b)
                           - kv @ np.linalg.solve(gram, kv), 0.0)
            mean, var = state.posterior(cand)
            worst_gp = max(worst_gp, abs(mean - want_mean), abs(var - want_var))
    gp_ok = worst_gp < 1e-8

    worst_ei = 0.0
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6))
        state = fit_gp(sample_box(rng, n), rng.uniform(0.0, 0.3, n))
        cand = sample_box(rng, 1)[0]
        best = float(state.values.min())
        mean, var = state.posterior(cand)
        sigma = math.sqrt(var)
        if sigma <= 0 or (best - mean) / sigma < -0.5:
            continue  # keep EI large enough for a 10^6-draw estimate
        draws = rng.normal(mean, sigma, 10**6)
        mc = float(np.maximum(best - draws, 0.0).mean())
        ei = expected_improvement(state, cand, best)
        worst_ei = max(worst_ei, abs(ei - mc) / mc)
        checked += 1
    ei_ok = worst_ei < 0.01

    zero_state = fit_gp(np.zeros((1, 4)), np.array([0.1]), jitter=0.0)
    zero_ok = expected_improvement(zero_state, np.zeros(4), 0.1) == 0.0
    elapsed = time.perf_counter() - t0
    ok = gp_ok and ei_ok and zero_ok and elapsed < 60.0
    report(3, "GP posterior and EI match oracles",
           ok, f"(gp {worst_gp:.1e}, ei {worst_ei:.3%}, {elapsed:.1f}s)")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_objective_exactness():
    # 3/20 = 0.15 exactly in binary floats, so both cases are exact
    exact_drop = drop_rate_objective(20.0, 17.0, 0.15) == 0.0
    zero_drop = drop_rate_objective(1.0, 1.0, 0.15) == 0.15
    report(4, "drop-rate objective exact at 15% and 0% drops",
           exact_drop and zero_drop)


# --------------------------------------------------------------- criterion 5

def test_criterion_5_schedules():
    cfg = OptimizerConfig()
    lr_ok = (all(lr_schedule(e, cfg) == 3e-4 for e in (0, 75, 150))
             and lr_schedule(300, cfg) == 3e-4 * 0.001)
    beta_ok = (beta1_schedule(cfg.beta1_switch_epoch - 1, cfg) == 0.9
               and beta1_schedule(cfg.beta1_switch_epoch, cfg) == 0.5)
    switched = OptimizerConfig(beta1_switch_epoch=7)
    beta_ok = beta_ok and beta1_schedule(6, switched) == 0.9 \
        and beta1_schedule(7, switched) == 0.5
    report(5, "learning-rate and beta1 schedules exact", lr_ok and beta_ok)


# --------------------------------------------------------------- criterion 6

def test_criterion_6_restoration_and_reproducibility():
    ds = generate(SynthSpec(n_identities=8, samples_per_identity=6, dim=6,
                            center_scale=20.0, seed=11))
    model_cfg = ModelConfig(d_in=6, hidden=8, embed_dim=8)
    batch = BatchSpec(4, 2)
    pla = PlaConfig(max_epochs=12, initial_design=2, explore_epochs=2,
                    objective_split=1, exploit_epochs=3, batch_spec=batch,
                    pool_size=16)

    run = TrainingRun(ds.features, ds.labels, "composite_fixed", model_cfg,
                      OptimizerConfig(), batch, seed=0)
    run.train_epochs(HyperParams(1.0, 0.2, 1, 1), 2, phase="exploit", candidate=0)
    before = run.snapshot()
    explore(run, HyperParams(0.7, 0.1, 2, 3), pla, candidate=0)
    restored = (
        all(np.array_equal(a, b) for a, b in
            zip(run.params.arrays(), before.params.arrays()))
        and run.adam.step == before.adam.step
        and np.array_equal(run.adam.m, before.adam.m)
        and np.array_equal(run.adam.v, before.adam.v))

    a = run_pla(ds.features, ds.labels, pla, model_cfg, OptimizerConfig(), seed=1)
    b = run_pla(ds.features, ds.labels, pla, model_cfg, OptimizerConfig(), seed=1)
    reproducible = (
        list(a.report.epoch_csv_lines()) == list(b.report.epoch_csv_lines())
        and all(np.array_equal(x, y) for x, y in
                zip(a.final_params.arrays(), b.final_params.arrays())))
    report(6, "bit-exact restoration and run reproducibility",
           restored and reproducible)


# --------------------------------------------------------------- criterion 7

def retrieval_oracle(qg):
    q = np.asarray(qg.query_embeddings, dtype=float)
    g = np.asarray(qg.gallery_embeddings, dtype=float)
    n_g = len(g)
    cmc_sum = np.zeros(n_g)
    aps = []
    for qi in range(len(q)):
        ranked = sorted(range(n_g), key=lambda j: (math.dist(q[qi], g[j]), j))
        rel = [qg.gallery_labels[j] == qg.query_labels[qi] for j in ranked]
        if not any(rel):
            continue
        seen, acc = 0, 0.0
        for r, is_rel in enumerate(rel, start=1):
            if is_rel:
                seen += 1
                acc += seen / r
        aps.append(acc / seen)
        cmc_sum[rel.index(True):] += 1.0
    return cmc_sum / len(aps), float(np.mean(aps))


def test_criterion_7_retrieval_metrics():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(200):
        n_q = int(rng.integers(1, 9))
        n_g = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        qg = QueryGallerySplit(
            query_embeddings=rng.normal(size=(n_q, d)),
            query_labels=rng.integers(0, 3, n_q),
            gallery_embeddings=rng.normal(size=(n_g, d)),
            gallery_labels=rng.integers(0, 3, n_g))
        if not any(l in qg.gallery_labels for l in qg.query_labels):
            continue
        got = evaluate(qg)
        cmc, ap = retrieval_oracle(qg)
        if not (np.allclose(got.cmc, cmc, atol=1e-12)
                and abs(got.map - ap) < 1e-12):
            ok = False
            break
    hand = evaluate(QueryGallerySplit(
        query_embeddings=np.array([[0.0]]), query_labels=np.array([1]),
        gallery_embeddings=np.array([[1.0], [2.0], [3.0], [4.0]]),
        gallery_labels=np.array([1, 0, 1, 0])))
    hand_ok = abs(hand.map - (1.0 + 2.0 / 3.0) / 2.0) < 1e-9
    report(7, "retrieval metrics match the exhaustive oracle", ok and hand_ok)


# --------------------------------------------------------------- criterion 8

def test_criterion_8_behavioral_reproduction():
    t0 = time.perf_counter()
    spec = SynthSpec(n_identities=64, samples_per_identity=16, dim=32,
                     center_scale=10.0, intra_spread=1.0,
                     hard_negative_fraction=0.10, outlier_fraction=0.10,
                     overhard_fraction=0.05, seed=7)
    ds = split(generate(spec), 4, np.random.default_rng(1))
    x, y = train_partition(ds)
    qg = query_gallery(ds)
    model_cfg = ModelConfig(d_in=32, hidden=64, embed_dim=32)
    opt_cfg = OptimizerConfig()
    batch = BatchSpec(16, 8)
    pla_cfg = PlaConfig(max_epochs=200, explore_epochs=4, objective_split=2,
                        exploit_epochs=60, batch_spec=batch,
                        re_explore_policy="stale")
    w_fix = HyperParams(1.0, 0.2, 1, 1)

    def rank1(params):
        qe = embed(params, qg.query_embeddings)
        ge = embed(params, qg.gallery_embeddings)
        return evaluate(QueryGallerySplit(qe, qg.query_labels,
                                          ge, qg.gallery_labels)).rank1

    wins_a = wins_b = wins_c = 0
    for seed in range(5):
        pla = run_pla(x, y, pla_cfg, model_cfg, opt_cfg, seed=seed)
        budget = pla.report.total_epochs
        bh = run_fixed(x, y, "batch_hard", w_fix, budget, model_cfg, opt_cfg,
                       batch, seed=seed)
        ce = run_fixed(x, y, "ce_only", w_fix, budget, model_cfg, opt_cfg,
                       batch, seed=seed)
        tr = run_fixed(x, y, "triplet_only", w_fix, budget, model_cfg, opt_cfg,
                       batch, seed=seed)
        wins_a += pla.report.rows[-1].mean_total <= bh.report.rows[-1].mean_total
        r_pla = rank1(pla.final_params)
        wins_b += (r_pla >= rank1(ce.final_params)
                   and r_pla >= rank1(tr.final_params))
        ks = [w.k for w in pla.report.chosen]
        wins_c += any(k < ks[0] for k in ks[1:])
    elapsed = time.perf_counter() - t0
    ok = wins_a >= 4 and wins_b >= 4 and wins_c >= 3 and elapsed < 900.0
    report(8, "progressive schedule beats fixed baselines at desk scale",
           ok, f"(loss {wins_a}/5, rank1 {wins_b}/5, smaller-k {wins_c}/5, "
               f"{elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_tune_demo_convergence():
    t0 = time.perf_counter()
    bests = [run_tuning(seed, rounds=30)[-1].best_so_far for seed in range(5)]
    elapsed = time.perf_counter() - t0
    ok = all(b < 0.05 for b in bests) and elapsed < 60.0
    report(9, "optimizer self-test converges on the quadratic",
           ok, f"(best {max(bests):.4f}, {elapsed:.1f}s)")
