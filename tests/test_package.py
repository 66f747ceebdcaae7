"""The package's public names."""

import progmetric


def test_every_exported_name_resolves_on_the_package():
    assert [n for n in progmetric.__all__ if not hasattr(progmetric, n)] == []
    assert len(set(progmetric.__all__)) == len(progmetric.__all__)
    namespace = {}
    exec("from progmetric import *", namespace)  # raises on a missing name
    assert set(progmetric.__all__) <= set(namespace)
