"""Every span the benchmark tracer wraps must still name a package function.

The tracer reports a missing target as absent instead of failing, so a
renamed or deleted function would otherwise drop out of the per-layer
metrics silently.  Span call counts per batch must stay put as well, or
per-layer figures would stop comparing across changes.
"""

from pathlib import Path

import pytest

import progmetric  # (loads the package modules the tracer scans)
import progmetric.tuning  # noqa: F401
from progmetric.losses import HyperParams
from progmetric.model import ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec, batches_per_epoch
from progmetric.synthetic import SynthSpec, generate

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    with tracer.Tracer() as t:
        assert t.absent == []


@pytest.mark.parametrize("mode", ["composite_fixed", "ce_only", "triplet_only",
                                  "batch_hard"])
def test_traced_run_fixed_steps_adam_once_per_batch(monkeypatch, mode):
    # the benchmark's per-layer adam_step figures stay comparable only while
    # every mode makes one adam_step call per batch
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
