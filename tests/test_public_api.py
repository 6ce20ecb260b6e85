"""The package's public names: each one listed in ``__all__`` resolves,
a star import brings in exactly that list, and a bad argument is refused
where it enters."""

import pytest

import rank2chern
from rank2chern import relations
from rank2chern.algebra import bidegree_cone, chern_filter_basis, gamma, monomial_basis
from rank2chern.integral import graded_integral, pairing_matrix
from rank2chern.linalg import QMatrix, RowSpan, row_reduce
from rank2chern.operators import check_adjointness, check_closure
from rank2chern.relations import OmegaTable, pairing_kernel_matches_ideal


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


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: RowSpan(2).add({1.0: 1}), TypeError, "column"),
        (lambda: row_reduce(QMatrix(2, [{True: 1}])), TypeError, "column"),
        (lambda: monomial_basis(2, (True, 2)), TypeError, "coh"),
        (lambda: pairing_kernel_matches_ideal(2, (True, 2)), TypeError, "coh"),
        (lambda: list(bidegree_cone(True)), TypeError, "max_coh"),
        (lambda: chern_filter_basis(2, True, 2), TypeError, "coh"),
        (lambda: chern_filter_basis(2, 4, 2.0), TypeError, "ell"),
        (lambda: pairing_matrix(2, (4.0, 2)), TypeError, "coh must be an int, got 4.0"),
        (lambda: graded_integral(gamma(2), True), TypeError, "normalization"),
        (lambda: check_adjointness(2, True), TypeError, "normalization"),
        (lambda: OmegaTable(True, 0, 4), ValueError, "genus"),
        (lambda: OmegaTable(2, -1, 4), ValueError, "d must be"),
        (lambda: OmegaTable(2, 0, 4.0), TypeError, "max_coh"),
        (lambda: OmegaTable(2, 0, 4, {(1, 1): -1}), ValueError, "dim"),
        (lambda: OmegaTable(2, 0, 4, {(1, 1): 1.5}), TypeError, "dim"),
        (lambda: OmegaTable(2, 0, 4, {(1.0, 1): 1}), TypeError, "coh"),
    ],
    ids=[
        "span column float",
        "matrix column bool",
        "basis bidegree bool",
        "kernel match bidegree bool",
        "cone max_coh bool",
        "filter coh bool",
        "filter ell float",
        "pairing bidegree float",
        "integral B bool",
        "adjointness B bool",
        "table genus bool",
        "table d negative",
        "table max_coh float",
        "table dim negative",
        "table dim float",
        "table key float",
    ],
)
def test_a_bad_argument_is_refused_where_it_enters(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_bad_closure_genus_builds_no_ring_slice():
    relations._invariant_relations.cache_clear()
    with pytest.raises(ValueError, match="genus"):
        check_closure(True)
    assert relations._invariant_relations.cache_info().currsize == 0
