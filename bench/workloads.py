"""The benchmark's workloads: inputs made from the workload seed, the timed
section that calls the program's public entry points, and the checks on
what it returned.

Each workload defines
    setup(seed)              -> inputs (calls `synthetic` for datasets)
    run(inputs)              -> outputs, including the wall time of sub-steps
    check(inputs, outputs)   -> failed-check messages (empty when correct)
    summary(inputs, outputs) -> end-to-end figures beyond run_s
    digest(outputs)          -> bit-exact fingerprint of the numeric outputs

`progmetric` is imported lazily so that the import is part of set-up time,
and entry points are looked up on their modules at call time so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import hashlib
import math
import time

import numpy as np

ORACLE_QUERIES = 64  # fixed subsample the exhaustive ranking oracle checks
TUNE_BEST_LIMIT = 0.05  # criterion 9: the quadratic's best value after 30 rounds


def load_package():
    import progmetric.evaluation
    import progmetric.model
    import progmetric.sampler
    import progmetric.synthetic
    import progmetric.trainer
    import progmetric.tuning
    return progmetric


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _rows_finite(report):
    return all(math.isfinite(v) for r in report.rows
               for v in (r.mean_ce, r.mean_gbh, r.mean_total))


def _report_values(report):
    rows = [(r.phase, r.candidate, r.w, r.lr, r.mean_ce, r.mean_gbh, r.mean_total)
            for r in report.rows]
    return rows, list(report.chosen), report.best_loss, report.total_epochs


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _retrieval_split(pg, params, qg):
    q, _ = pg.model.forward(params, qg.query_embeddings)
    g, _ = pg.model.forward(params, qg.gallery_embeddings)
    return pg.evaluation.QueryGallerySplit(q, qg.query_labels, g, qg.gallery_labels)


def ranking_oracle(q, q_labels, g, g_labels):
    """(rank1, mAP) from an exhaustive (distance, gallery index) sort per query."""
    idx = np.arange(len(g))
    hits1, aps = [], []
    for qi in range(len(q)):
        dist = np.sqrt(((g - q[qi]) ** 2).sum(axis=1))
        rel = g_labels[np.lexsort((idx, dist))] == q_labels[qi]
        n_rel = int(rel.sum())
        if n_rel == 0:
            continue
        ranks = np.flatnonzero(rel) + 1
        hits1.append(bool(rel[0]))
        aps.append(float(np.sum(np.arange(1, n_rel + 1) / ranks)) / n_rel)
    return float(np.mean(hits1)), float(np.mean(aps))


def check_retrieval(pg, split, label):
    """Compare `evaluate` on a fixed query subsample against the oracle."""
    n_q = len(split.query_embeddings)
    sub = np.linspace(0, n_q - 1, min(ORACLE_QUERIES, n_q)).astype(int)
    part = pg.evaluation.QueryGallerySplit(
        split.query_embeddings[sub], split.query_labels[sub],
        split.gallery_embeddings, split.gallery_labels)
    got = pg.evaluation.evaluate(part)
    rank1, mean_ap = ranking_oracle(*(np.asarray(a) for a in (
        part.query_embeddings, part.query_labels,
        part.gallery_embeddings, part.gallery_labels)))
    if got.rank1 != rank1 or abs(got.map - mean_ap) > 1e-12:
        return [f"{label}: evaluate gives rank1={got.rank1!r} map={got.map!r}, "
                f"oracle gives rank1={rank1!r} map={mean_ap!r}"]
    return []


def check_training(report, params, expected_epochs=None):
    failures = []
    if len(report.rows) != report.total_epochs:
        failures.append(f"{len(report.rows)} report rows for "
                        f"{report.total_epochs} epochs")
    if expected_epochs is not None and report.total_epochs != expected_epochs:
        failures.append(f"trained {report.total_epochs} epochs, "
                        f"asked for {expected_epochs}")
    if not _rows_finite(report):
        failures.append("non-finite loss in the report")
    if not params.all_finite():
        failures.append("non-finite final parameters")
    return failures


def exploit_phases(report):
    """Number of exploit phases: maximal runs of exploit rows of one candidate."""
    n, prev = 0, None
    for r in report.rows:
        key = (r.phase, r.candidate)
        if r.phase == "exploit" and key != prev:
            n += 1
        prev = key
    return n


def kept_epoch_frac(report):
    """Share of epochs whose training is kept: all but the explore phases."""
    return sum(r.phase != "explore" for r in report.rows) / report.total_epochs


class PlaDesk:
    """The criterion-8 experiment: one progressive run plus retrieval scoring."""

    name = "pla_desk"

    def setup(self, seed):
        pg = load_package()
        syn = pg.synthetic
        spec = syn.SynthSpec(n_identities=64, samples_per_identity=16, dim=32,
                             center_scale=10.0, intra_spread=1.0,
                             hard_negative_fraction=0.10, outlier_fraction=0.10,
                             overhard_fraction=0.05, seed=7)
        ds = syn.split(syn.generate(spec), 4, np.random.default_rng(1))
        x, y = syn.train_partition(ds)
        pla_cfg = pg.trainer.PlaConfig(
            max_epochs=200, explore_epochs=4, objective_split=2,
            exploit_epochs=60, batch_spec=pg.sampler.BatchSpec(16, 8),
            re_explore_policy="stale")
        return {"pg": pg, "x": x, "y": y, "qg": syn.query_gallery(ds),
                "pla_cfg": pla_cfg, "seed": seed,
                "model_cfg": pg.model.ModelConfig(d_in=32, hidden=64, embed_dim=32),
                "opt_cfg": pg.model.OptimizerConfig()}

    def run(self, inp):
        pg = inp["pg"]
        result, train_s = _timed(pg.trainer.run_pla, inp["x"], inp["y"],
                                 inp["pla_cfg"], inp["model_cfg"],
                                 inp["opt_cfg"], seed=inp["seed"])
        t0 = time.perf_counter()
        split = _retrieval_split(pg, result.final_params, inp["qg"])
        metrics = pg.evaluation.evaluate(split)
        retrieval_s = time.perf_counter() - t0
        return {"result": result, "split": split, "metrics": metrics,
                "train_s": train_s, "retrieval_s": retrieval_s}

    def check(self, inp, out):
        report = out["result"].report
        failures = check_training(report, out["result"].final_params)
        if len(report.chosen) != exploit_phases(report):
            failures.append(f"{len(report.chosen)} chosen candidates for "
                            f"{exploit_phases(report)} exploit phases")
        return failures + check_retrieval(inp["pg"], out["split"], "raw")

    def summary(self, inp, out):
        report = out["result"].report
        return {
            "train_epochs_per_s": report.total_epochs / out["train_s"],
            "queries_per_s": len(out["split"].query_labels) / out["retrieval_s"],
            "rank1": out["metrics"].rank1,
            "map": out["metrics"].map,
            "total_epochs": report.total_epochs,
            "epochs_over_budget": report.total_epochs - inp["pla_cfg"].max_epochs,
            "kept_epoch_frac": kept_epoch_frac(report),
        }

    def digest(self, out):
        m = out["metrics"]
        return _digest((_report_values(out["result"].report), m.rank1, m.map))


class TuneQuadratic:
    """The GP/EI optimizer alone on the built-in quadratic (CLI defaults)."""

    name = "tune_quadratic"
    n_initial, rounds, pool = 8, 30, 256

    def setup(self, seed):
        return {"pg": load_package(), "seed": seed}

    def run(self, inp):
        trace, run_s = _timed(inp["pg"].tuning.run_tuning, inp["seed"],
                              rounds=self.rounds, pool_size=self.pool,
                              n_initial=self.n_initial)
        return {"trace": trace, "run_s": run_s}

    def check(self, inp, out):
        trace = out["trace"]
        objective = inp["pg"].tuning.quadratic_objective
        failures = []
        if len(trace) != self.n_initial + self.rounds:
            failures.append(f"trace has {len(trace)} entries, expected "
                            f"{self.n_initial + self.rounds}")
        best = math.inf
        for t in trace:
            best = min(best, objective(t.hyperparams))
            if t.value != objective(t.hyperparams):
                failures.append(f"entry {t.index}: value {t.value!r} is not the "
                                f"objective at its hyperparameters")
            if t.best_so_far != best:
                failures.append(f"entry {t.index}: best_so_far {t.best_so_far!r} "
                                f"is not the running minimum {best!r}")
        if trace and not trace[-1].best_so_far < TUNE_BEST_LIMIT:
            failures.append(f"best_so_far {trace[-1].best_so_far!r} after the last "
                            f"round is not below {TUNE_BEST_LIMIT}")
        return failures

    def summary(self, inp, out):
        return {"tune_best": out["trace"][-1].best_so_far,
                "proposals_per_s": self.rounds / out["run_s"]}

    def digest(self, out):
        return _digest([(t.index, t.phase, t.hyperparams, t.value, t.best_so_far)
                        for t in out["trace"]])


class BatchHardLarge:
    """Short batch-hard warm-up on a large set, then large-N retrieval.

    Q = 2048 queries against G = 6144 gallery rows: the float64 distance
    matrix is 2048 * 6144 * 8 B = 96 MiB, far above the per-core L2.
    """

    name = "batch_hard_large"
    warmup_epochs = 2

    def setup(self, seed):
        pg = load_package()
        syn = pg.synthetic
        spec = syn.SynthSpec(n_identities=512, samples_per_identity=16, dim=32,
                             center_scale=10.0, intra_spread=1.0,
                             hard_negative_fraction=0.10, outlier_fraction=0.10,
                             overhard_fraction=0.05, seed=seed)
        ds = syn.split(syn.generate(spec), 4, np.random.default_rng(seed + 1))
        x, y = syn.train_partition(ds)
        return {"pg": pg, "x": x, "y": y, "qg": syn.query_gallery(ds),
                "seed": seed, "batch": pg.sampler.BatchSpec(16, 8),
                "model_cfg": pg.model.ModelConfig(d_in=32, hidden=64, embed_dim=32),
                "opt_cfg": pg.model.OptimizerConfig()}

    def run(self, inp):
        pg = inp["pg"]
        ev = pg.evaluation
        w = pg.losses.HyperParams(lam=1.0, margin=0.2, k=1, p=1)
        result, train_s = _timed(pg.trainer.run_fixed, inp["x"], inp["y"],
                                 "batch_hard", w, self.warmup_epochs,
                                 inp["model_cfg"], inp["opt_cfg"], inp["batch"],
                                 seed=inp["seed"])
        t0 = time.perf_counter()
        split = _retrieval_split(pg, result.final_params, inp["qg"])
        raw = ev.evaluate(split)
        pca = ev.pca_reduce(split.gallery_embeddings, 8)
        reduced_split = ev.QueryGallerySplit(
            ev.pca_apply(pca, split.query_embeddings), split.query_labels,
            pca.projected, split.gallery_labels)
        reduced = ev.evaluate(reduced_split)
        retrieval_s = time.perf_counter() - t0
        return {"result": result, "split": split, "raw": raw,
                "reduced_split": reduced_split, "reduced": reduced,
                "train_s": train_s, "retrieval_s": retrieval_s}

    def check(self, inp, out):
        pg = inp["pg"]
        return (check_training(out["result"].report, out["result"].final_params,
                               self.warmup_epochs)
                + check_retrieval(pg, out["split"], "raw")
                + check_retrieval(pg, out["reduced_split"], "pca8"))

    def summary(self, inp, out):
        report = out["result"].report
        scored = 2 * len(out["split"].query_labels)
        return {
            "train_epochs_per_s": report.total_epochs / out["train_s"],
            "queries_per_s": scored / out["retrieval_s"],
            "rank1": out["raw"].rank1,
            "map": out["raw"].map,
            "rank1_pca8": out["reduced"].rank1,
            "map_pca8": out["reduced"].map,
            "total_epochs": report.total_epochs,
            "epochs_over_budget": report.total_epochs - self.warmup_epochs,
            "kept_epoch_frac": kept_epoch_frac(report),
        }

    def digest(self, out):
        return _digest((_report_values(out["result"].report),
                        out["raw"].rank1, out["raw"].map,
                        out["reduced"].rank1, out["reduced"].map))


WORKLOADS = {w.name: w for w in (PlaDesk(), TuneQuadratic(), BatchHardLarge())}
