"""The package's public names and what importing it loads."""

import pathlib
import subprocess
import sys

import progmetric


def test_every_exported_name_resolves_on_the_package():
    assert [n for n in progmetric.__all__ if not hasattr(progmetric, n)] == []
    assert len(set(progmetric.__all__)) == len(progmetric.__all__)
    namespace = {}
    exec("from progmetric import *", namespace)  # raises on a missing name
    assert set(progmetric.__all__) <= set(namespace)


def test_importing_the_package_loads_no_thread_pool_or_logging():
    # evaluate ranks on plain threads: concurrent.futures would pull in
    # logging and queue, about 0.4 MB, in every process that imports it
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import progmetric, progmetric.tuning; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    src = str(pathlib.Path(progmetric.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
