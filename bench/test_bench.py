"""Tests of the benchmark itself:  python3 -m pytest -q bench/test_bench.py

The pla_desk test runs the full workload twice (about half a minute), the
tune check test runs tune_quadratic once (about six seconds).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, TuneQuadratic, load_package, ranking_oracle  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def fake_modules():
    """progmetric._benchfake defines outer/inner; _benchuser imports inner by name."""
    clock = FakeClock()
    defining = types.ModuleType("progmetric._benchfake")
    defining.clock = clock
    exec("def inner():\n    clock.advance(2)\n\n"
         "def outer():\n    clock.advance(1)\n    inner()\n    inner()\n"
         "    clock.advance(3)\n", vars(defining))
    user = types.ModuleType("progmetric._benchuser")
    user.inner = defining.inner
    exec("def caller():\n    return inner()\n", vars(user))
    sys.modules[defining.__name__] = defining
    sys.modules[user.__name__] = user
    yield clock, defining, user
    del sys.modules[defining.__name__], sys.modules[user.__name__]


def test_self_time_excludes_child_spans(fake_modules):
    clock, defining, user = fake_modules
    targets = {"fake.outer": "_benchfake:outer", "fake.inner": "_benchfake:inner"}
    with Tracer(targets, clock=clock.now) as tracer:
        defining.outer()
    spans = tracer.report()
    assert spans["fake.outer"] == {"calls": 1, "total_s": 8.0, "self_s": 4.0,
                                   "failed": 0}
    assert spans["fake.inner"]["calls"] == 2
    assert spans["fake.inner"]["self_s"] == 4.0
    assert tracer.root_s == 8.0


def test_wraps_names_imported_elsewhere_and_restores_them(fake_modules):
    clock, defining, user = fake_modules
    original = defining.inner
    with Tracer({"fake.inner": "_benchfake:inner"}, clock=clock.now) as tracer:
        user.caller()
        assert user.inner is not original
    assert tracer.report()["fake.inner"]["calls"] == 1
    assert defining.inner is original and user.inner is original


def test_missing_function_is_reported_absent(fake_modules):
    clock, _, _ = fake_modules
    targets = {"fake.inner": "_benchfake:inner", "fake.gone": "_benchfake:gone",
               "fake.method": "_benchfake:Missing.method"}
    with Tracer(targets, clock=clock.now) as tracer:
        pass
    assert tracer.absent == ["fake.gone", "fake.method"]
    assert set(tracer.report()) == {"fake.inner"}


def test_failed_calls_are_counted(fake_modules):
    clock, defining, _ = fake_modules
    exec("def broken():\n    raise ValueError('boom')\n", vars(defining))
    with Tracer({"fake.broken": "_benchfake:broken"}, clock=clock.now) as tracer:
        with pytest.raises(ValueError):
            defining.broken()
    assert tracer.report()["fake.broken"]["failed"] == 1


def test_traced_pla_desk_is_bit_identical_to_untraced():
    wl = WORKLOADS["pla_desk"]
    inputs = wl.setup(0)
    plain = wl.run(inputs)
    with Tracer() as tracer:
        traced = wl.run(inputs)
    assert tracer.absent == []
    spans = tracer.report()
    assert spans["losses.gbh_select"]["calls"] > 0
    assert spans["sampler.sample"]["calls"] > 0
    p, t = plain["result"].report, traced["result"].report
    assert p.rows == t.rows
    assert p.chosen == t.chosen
    assert plain["metrics"].rank1 == traced["metrics"].rank1
    assert plain["metrics"].map == traced["metrics"].map
    assert wl.digest(plain) == wl.digest(traced)
    assert wl.check(inputs, plain) == []


def test_tune_check_passes_and_catches_a_wrong_trace(monkeypatch):
    wl = TuneQuadratic()
    inputs = wl.setup(5)
    out = wl.run(inputs)
    assert wl.check(inputs, out) == []
    monkeypatch.setattr(workloads, "TUNE_BEST_LIMIT", 0.0)
    assert any("not below" in msg for msg in wl.check(inputs, out))
    monkeypatch.undo()
    last = out["trace"][-1]
    out["trace"][-1] = type(last)(last.index, last.phase, last.hyperparams,
                                  last.value + 1.0, last.best_so_far)
    assert wl.check(inputs, out)
    out["trace"].pop()
    assert any("entries" in msg for msg in wl.check(inputs, out))


def test_ranking_oracle_breaks_distance_ties_by_gallery_index():
    q = np.array([[0.0]])
    g = np.array([[1.0], [-1.0], [2.0]])
    rank1, mean_ap = ranking_oracle(q, np.array([1]), g, np.array([0, 1, 1]))
    assert rank1 == 0.0
    assert mean_ap == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-15)


def test_retrieval_check_agrees_with_evaluate_and_flags_a_mismatch(monkeypatch):
    pg = load_package()
    rng = np.random.default_rng(3)
    split = pg.evaluation.QueryGallerySplit(
        rng.normal(size=(40, 4)), rng.integers(0, 5, 40),
        rng.normal(size=(200, 4)), rng.integers(0, 5, 200))
    assert workloads.check_retrieval(pg, split, "raw") == []
    monkeypatch.setattr(workloads, "ranking_oracle", lambda *a: (2.0, 2.0))
    assert workloads.check_retrieval(pg, split, "raw")


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: run.END_TO_END_UNITS[k] for k in run.GATED}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tune_quadratic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
