"""Every span the benchmark tracer wraps must still name a package function.

The tracer reports a missing target as absent instead of failing, so a
renamed or deleted function would otherwise drop out of the per-layer
metrics silently.  Span call counts per batch and per proposal must stay put
as well, or per-layer figures would stop comparing across changes.
"""

from pathlib import Path

import pytest

import progmetric  # (loads the package modules the tracer scans)
import progmetric.tuning  # noqa: F401
from progmetric.losses import HyperParams
from progmetric.model import ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec, batches_per_epoch
from progmetric.synthetic import SynthSpec, generate
from progmetric.trainer import PlaConfig

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
# one distance matrix and one order-statistic selection per triplet batch: a
# step that computed either twice would double its per-layer figure
TRIPLET_SPANS = ("losses.pairwise_distances", "losses.gbh_select")


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    with tracer.Tracer() as t:
        assert t.absent == []


@pytest.mark.parametrize("mode", ["composite_fixed", "ce_only", "triplet_only",
                                  "batch_hard"])
def test_traced_run_fixed_steps_adam_once_per_batch(monkeypatch, mode):
    # the benchmark's per-layer adam_step figures stay comparable only while
    # every mode makes one adam_step call per batch; every mode but ce_only
    # also takes one distance matrix and one selection per batch
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    spec = BatchSpec(4, 2)
    ds = generate(SynthSpec(n_identities=8, samples_per_identity=6, dim=6, seed=3))
    w = HyperParams(lam=1.0, margin=0.2, k=2, p=3)
    with tracer.Tracer() as t:
        progmetric.trainer.run_fixed(ds.features, ds.labels, mode, w, 3,
                                     ModelConfig(d_in=6, hidden=8, embed_dim=8),
                                     OptimizerConfig(), spec, seed=0)
    batches = 3 * batches_per_epoch(len(ds.labels), spec)
    assert t.stats["model.adam_step"].calls == batches
    assert t.stats["trainer.batch_loss_and_grads"].calls == batches
    for span in TRIPLET_SPANS:
        assert t.stats[span].calls == (0 if mode == "ce_only" else batches)


def test_traced_run_pla_counts_per_batch_and_per_proposal(monkeypatch):
    # explore and exploit batches alike take one distance matrix and one
    # selection; a proposal evaluates the kernel twice, for fit_gp's Gram
    # matrix and for the candidates' cross-covariances
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    ds = generate(SynthSpec(n_identities=8, samples_per_identity=6, dim=6, seed=3))
    cfg = PlaConfig(max_epochs=8, initial_design=2, explore_epochs=2, objective_split=1,
                    exploit_epochs=2, batch_spec=BatchSpec(4, 2), pool_size=16)
    with tracer.Tracer() as t:
        progmetric.trainer.run_pla(ds.features, ds.labels, cfg,
                                   ModelConfig(d_in=6, hidden=8, embed_dim=8),
                                   OptimizerConfig(), seed=0)
        progmetric.tuning.run_tuning(0, rounds=3, pool_size=16, n_initial=4)
    batches = t.stats["trainer.batch_loss_and_grads"].calls
    assert batches > 0
    for span in TRIPLET_SPANS:
        assert t.stats[span].calls == batches
    proposals = t.stats["bayes_opt.propose"].calls
    assert proposals >= 4
    assert t.stats["bayes_opt.kernel"].calls == 2 * proposals
