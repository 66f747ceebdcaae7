"""Every span the benchmark tracer wraps must still name a package function.

The tracer reports a missing target as absent instead of failing, so a
renamed or deleted function would otherwise drop out of the per-layer
metrics silently.
"""

from pathlib import Path

import progmetric  # noqa: F401  (loads the package modules the tracer scans)
import progmetric.tuning  # noqa: F401

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracer

    with tracer.Tracer() as t:
        assert t.absent == []
