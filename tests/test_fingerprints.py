"""Pinned sha256 fingerprints of program outputs: training, tuning and
retrieval.

`fingerprints.json` holds the fingerprints and the environment they were
pinned under: numpy's version, the BLAS configuration it was built with,
the C library and the Python version.  Training's `expit` takes `exp`, and
expected improvement's normal CDF `erfc`, from the C library through
Python's `math`.  A change that alters an output on purpose re-pins its
fingerprint in its own diff.  Under another numpy, BLAS, C library or
Python the test fails and names the difference, since other kernels may
round differently.

OpenBLAS picks its kernel when it loads, by CPU or by `OPENBLAS_CORETYPE`,
whatever the build string says.  `blas_kernels` lists the kernels under
which every fingerprint was checked equal; under any other the test fails
and names the kernel it ran on.

Regenerate with ``python tests/test_fingerprints.py`` (prints the JSON;
it lists only the kernel it ran on, so add each other kernel checked).
"""

import ctypes
import hashlib
import json
import pathlib
import platform
import tempfile

import numpy as np
import pytest

from progmetric.evaluation import QueryGallerySplit, evaluate
from progmetric.losses import HyperParams
from progmetric.model import ModelConfig, OptimizerConfig
from progmetric.sampler import BatchSpec
from progmetric.synthetic import SynthSpec, generate
from progmetric.trainer import PlaConfig, run_fixed, run_pla, save_model
from progmetric.tuning import run_tuning, trace_csv_lines

PINNED = pathlib.Path(__file__).with_name("fingerprints.json")
SPLITS = ("random", "tied", "collapsed")
FIXED_MODES = ("batch_hard", "ce_only", "triplet_only", "composite_fixed")
FIXED_W = {"k1p1": HyperParams(lam=1.0, margin=0.2, k=1, p=1),
           "k3p2": HyperParams(lam=0.5, margin=0.05, k=3, p=2)}
FIXED_SEEDS = (0, 1)
MODEL = ModelConfig(d_in=6, hidden=8, embed_dim=8)
BATCH = BatchSpec(4, 4)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", blas.get("name")),
            "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version()}


def blas_kernel():
    """The kernel numpy's bundled OpenBLAS runs on, or, where that library
    has no corename symbol, the BLAS build string."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return environment()["blas"]


def retrieval_split(name):
    """A 2048 x 6144 split with 512 identities: random 32-d normals (the
    split of the evaluate memory test), their tie-heavy twin on the 2-d
    integer grid, or a collapsed model that maps everything to one point."""
    rng = np.random.default_rng(15)
    if name == "random":
        q, g = rng.normal(size=(2048, 32)), rng.normal(size=(6144, 32))
    elif name == "tied":
        q, g = np.round(rng.normal(size=(2048, 2))), np.round(rng.normal(size=(6144, 2)))
    else:
        q, g = np.ones((2048, 32)), np.ones((6144, 32))
    return QueryGallerySplit(q, rng.integers(0, 512, 2048),
                             g, rng.integers(0, 512, 6144))


def evaluate_fingerprint(split):
    m = evaluate(split)
    h = hashlib.sha256(m.cmc.tobytes())
    h.update(repr((m.rank1, m.map, m.excluded_queries)).encode())
    return h.hexdigest()


def training_data(seed):
    """Seed 0: 10 identities of 8 samples.  Seed 1: the same clusters with
    unequal pools of 2-8 samples, so some are shorter than K = 4 and one
    holds exactly K."""
    ds = generate(SynthSpec(n_identities=10, samples_per_identity=8, dim=6,
                            center_scale=5.0, intra_spread=1.0, seed=11))
    if seed == 0:
        return ds.features, ds.labels
    keep = np.arange(8) < np.array([2, 3, 4, 5, 6, 7, 8, 8, 3, 6])[:, None]
    return ds.features[keep.ravel()], ds.labels[keep.ravel()]


def digest(lines, *params):
    """sha256 of text lines and the save_model bytes of each params."""
    h = hashlib.sha256("\n".join(lines).encode())
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.bin"
        for p in params:
            save_model(path, p)
            h.update(path.read_bytes())
    return h.hexdigest()


def fixed_fingerprint(mode, seed, w):
    x, y = training_data(seed)
    res = run_fixed(x, y, mode, FIXED_W[w], 6, MODEL, OptimizerConfig(), BATCH, seed=seed)
    return digest(res.report.epoch_csv_lines(), res.final_params)


def pla_fingerprint():
    x, y = training_data(1)
    cfg = PlaConfig(max_epochs=20, initial_design=3, explore_epochs=2, objective_split=1,
                    exploit_epochs=3, batch_spec=BATCH, pool_size=32,
                    re_explore_policy="all")
    res = run_pla(x, y, cfg, MODEL, OptimizerConfig(), seed=5)
    report = res.report
    lines = [*report.epoch_csv_lines(), *report.exploration_csv_lines(),
             *(w.csv_fields() for w in report.chosen), repr(report.best_loss)]
    return digest(lines, res.best_params, res.final_params)


def tuning_fingerprint():
    return digest(trace_csv_lines(run_tuning(3, rounds=6, pool_size=64, n_initial=4)))


FIXED_CASES = {f"{mode}-{seed}-{w}": (mode, seed, w) for mode in FIXED_MODES
               for seed in FIXED_SEEDS for w in FIXED_W}


def fingerprints():
    return {"environment": environment(),
            "blas_kernels": [blas_kernel()],
            "run_fixed": {case: fixed_fingerprint(*args)
                          for case, args in FIXED_CASES.items()},
            "run_pla": pla_fingerprint(),
            "run_tuning": tuning_fingerprint(),
            "evaluate": {name: evaluate_fingerprint(retrieval_split(name))
                         for name in SPLITS}}


@pytest.fixture(scope="module")
def pinned():
    want = json.loads(PINNED.read_text())
    got = environment()
    diff = {k: (want["environment"].get(k), v) for k, v in got.items()
            if want["environment"].get(k) != v}
    assert not diff, f"fingerprints were pinned under another environment: {diff}"
    kernel = blas_kernel()
    assert kernel in want["blas_kernels"], (
        f"OpenBLAS runs the {kernel} kernel; the fingerprints were checked "
        f"under {', '.join(want['blas_kernels'])} only")
    return want


@pytest.mark.parametrize("case", FIXED_CASES)
def test_run_fixed_fingerprint(pinned, case):
    assert fixed_fingerprint(*FIXED_CASES[case]) == pinned["run_fixed"][case]


def test_run_pla_fingerprint(pinned):
    assert pla_fingerprint() == pinned["run_pla"]


def test_run_tuning_fingerprint(pinned):
    assert tuning_fingerprint() == pinned["run_tuning"]


@pytest.mark.parametrize("name", SPLITS)
def test_evaluate_fingerprint(pinned, name):
    assert evaluate_fingerprint(retrieval_split(name)) == pinned["evaluate"][name]


if __name__ == "__main__":
    print(json.dumps(fingerprints(), indent=2))
