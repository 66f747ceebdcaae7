"""The two special functions the package computes without scipy: the
logistic sigmoid `losses.expit` (the generalized triplet loss's gradient)
and the standard normal CDF `bayes_opt._normal_cdf` (expected
improvement), each checked against scipy on over 10^6 values; and the
modules the package leaves unimported (scipy, numpy.ma)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special as scipy_special

import progmetric
from progmetric.bayes_opt import _normal_cdf
from progmetric.losses import expit

SQRT2 = np.sqrt(2.0)


def around(v, steps=3):
    """v and its `steps` float neighbours on each side, both signs."""
    out = [v]
    lo = hi = v
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out + [-x for x in out]


def edge_values():
    tiny = np.finfo(float).tiny
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny,
             np.inf, -np.inf, np.nan, 1.0, 0.5, 1e-8, 1e300]
    # exp overflows just above 709.78 and underflows to 0 below -745.13
    for v in (709.782712893384, 745.1332191019412, 38.5, 37.7):
        edges += around(v)
    edges += list(np.linspace(-746.0, -709.0, 200)) + list(np.linspace(709.0, 746.0, 200))
    # Cephes ndtr's branch edges: |a| / sqrt(2) at 1 / sqrt(2), 1 and 8
    for v in (1.0, SQRT2, 8.0 * SQRT2):
        edges += around(v, steps=20)
    return np.array(edges, dtype=float)


def million_values():
    rng = np.random.default_rng(20261019)
    signs = rng.choice([-1.0, 1.0], 100_000)
    return np.concatenate([
        edge_values(),
        rng.normal(size=300_000) * 3.0,
        rng.normal(size=200_000) * 20.0,
        rng.uniform(-800.0, 800.0, 200_000),
        rng.uniform(-40.0, 40.0, 200_000),
        signs * np.exp(rng.uniform(-745.0, 6.7, 100_000)),
    ])


@pytest.mark.parametrize("ours,reference", [(expit, scipy_special.expit)])
def test_port_equals_scipy_bit_for_bit(ours, reference):
    x = million_values()
    assert x.size >= 1_000_000
    got, want = ours(x), reference(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    bad = np.flatnonzero(got[~nan].view(np.uint64) != want[~nan].view(np.uint64))
    assert bad.size == 0, f"differs at {x[~nan][bad[:5]]}"


def test_normal_cdf_close_to_scipy_ndtr():
    # erfc from the C library, not Cephes: last-bit differences, and
    # subnormal values in the far lower tail where Cephes flushes to 0
    x = million_values()
    assert x.size >= 1_000_000
    got, want = _normal_cdf(x), scipy_special.ndtr(x)
    assert got.dtype == np.float64 and got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)
    exact = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    assert np.array_equal(_normal_cdf(exact), [0.5, 0.5, 1.0, 0.0, np.nan], equal_nan=True)


@pytest.mark.parametrize("f", (expit, _normal_cdf), ids=("expit", "ndtr"))
def test_port_keeps_shape(f):
    x = np.linspace(-40.0, 40.0, 24).reshape(2, 3, 4)
    assert np.array_equal(f(x), f(x.ravel()).reshape(x.shape))
    assert f(np.array(0.5)).shape == ()
    assert f(np.empty(0)).shape == (0,)


def test_package_imports_without_scipy():
    code = ("import sys; import progmetric, progmetric.cli, progmetric.tuning; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    src = os.path.dirname(os.path.dirname(progmetric.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


NO_MA_SCRIPT = """
import json, sys
import numpy as np
from progmetric import cli, embed, run_fixed
from progmetric.evaluation import evaluate
from progmetric.losses import HyperParams
from progmetric.model import ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec
from progmetric.synthetic import SynthSpec, generate, query_gallery, split

ds = split(generate(SynthSpec(8, 6, 4)), 2, np.random.default_rng(1))
result = run_fixed(ds.features, ds.labels, "batch_hard", HyperParams(1.0, 0.2, 1, 1), 1,
                   ModelConfig(d_in=4, hidden=8, embed_dim=4, n_classes=8),
                   OptimizerConfig(), BatchSpec(4, 2), 0)
qg = query_gallery(ds)
qg.query_embeddings = embed(result.best_params, qg.query_embeddings)
qg.gallery_embeddings = embed(result.best_params, qg.gallery_embeddings)
evaluate(qg)
cfg, out = sys.argv[1:]
with open(cfg, "w") as fh:
    json.dump({"data": {"n_identities": 8, "samples_per_identity": 6, "dim": 4},
               "split": {"query_per_identity": 2}}, fh)
assert cli.main(["gen-data", "--config", cfg, "--dataset", out]) == 0
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_set_up_training_and_retrieval_import_no_numpy_ma(tmp_path):
    # numpy.ma costs about 1.3 MB of pla_desk's peak memory; only a plain
    # np.unique (its hash path) imports it
    src = os.path.dirname(os.path.dirname(progmetric.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NO_MA_SCRIPT, str(tmp_path / "cfg.json"),
                          str(tmp_path / "ds.csv")], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"
