"""The package's public names: each one listed in ``__all__`` resolves,
and a star import brings in exactly that list."""

import rank2chern


def test_every_public_name_resolves():
    missing = [name for name in rank2chern.__all__ if not hasattr(rank2chern, name)]
    assert not missing
    assert len(set(rank2chern.__all__)) == len(rank2chern.__all__)


def test_star_import_brings_in_the_public_names():
    namespace = {}
    exec("from rank2chern import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rank2chern.__all__)


def test_the_normalization_is_a_plain_number():
    # B is passed as a number; no config object stands in for it
    assert "IntegralConfig" not in rank2chern.__all__
    assert not hasattr(rank2chern, "IntegralConfig")
    assert not hasattr(rank2chern.integral, "IntegralConfig")
