"""Pinned sha256 fingerprints of program outputs.

`fingerprints.json` holds the fingerprints and the environment they were
pinned under: numpy's version and the BLAS configuration it was built
with.  A change that alters an output on purpose re-pins its fingerprint in
its own diff.  Under another numpy or BLAS the test fails and names the
difference, since other kernels may round differently.

Regenerate with ``python tests/test_fingerprints.py`` (prints the JSON).
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from progmetric.evaluation import QueryGallerySplit, evaluate

PINNED = pathlib.Path(__file__).with_name("fingerprints.json")
SPLITS = ("random", "tied", "collapsed")


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration", blas.get("name"))}


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


def fingerprints():
    return {"environment": environment(),
            "evaluate": {name: evaluate_fingerprint(retrieval_split(name))
                         for name in SPLITS}}


@pytest.fixture(scope="module")
def pinned():
    want = json.loads(PINNED.read_text())
    got = environment()
    diff = {k: (want["environment"].get(k), v) for k, v in got.items()
            if want["environment"].get(k) != v}
    assert not diff, f"fingerprints were pinned under another environment: {diff}"
    return want


@pytest.mark.parametrize("name", SPLITS)
def test_evaluate_fingerprint(pinned, name):
    assert evaluate_fingerprint(retrieval_split(name)) == pinned["evaluate"][name]


if __name__ == "__main__":
    print(json.dumps(fingerprints(), indent=2))
