"""Negative controls of the verdicts: one perturbed dimension must fail its
suite or check with the witness of that bidegree, and each other check of
the main and pairing suites must fail with its own witness."""

import pytest

from rank2chern import operators, suites
from rank2chern.relations import OmegaTable


def _raised_at(route, bd):
    """``route`` with the dimension at ``bd`` of its table raised by one."""

    def perturbed(*args, **kwargs):
        out = route(*args, **kwargs)
        dims = out.dims if isinstance(out, OmegaTable) else out["dims"]
        dims[bd] = dims.get(bd, 0) + 1
        return out

    return perturbed


@pytest.mark.parametrize(
    "module, route, run, bd, where",
    [
        (suites, "omega_from_pairing", lambda: suites.suite_main(2), (2, 2), "bd=(2, 2)"),
        (suites, "omega_from_ideal", lambda: suites.suite_intermediate(2, 1), (2, 2), "bd=(2, 2)"),
        (suites, "omega_from_ideal", lambda: suites.suite_pairing(2), (2, 2), "bd=(2, 2)"),
        (
            operators,
            "sl2_closure",
            lambda: operators.check_closure(2, buffers=(4,)),
            (4, 4),
            "buffer=4, bd=(4, 4)",
        ),
    ],
    ids=["main", "intermediate", "pairing", "closure"],
)
def test_a_perturbed_dimension_fails_with_its_bidegree(monkeypatch, module, route, run, bd, where):
    monkeypatch.setattr(module, route, _raised_at(getattr(module, route), bd))
    rep = run()
    assert rep["pass"] is False
    assert rep["failures"] == [{"where": where, "expected": "1", "got": "2"}]


def _set_at(route, bd, n):
    """``route`` with the dimension at ``bd`` of its table set to ``n``."""

    def perturbed(*args, **kwargs):
        out = route(*args, **kwargs)
        out.dims[bd] = n
        return out

    return perturbed


def test_main_fails_a_top_entry_other_than_one(monkeypatch):
    monkeypatch.setattr(suites, "omega_from_pairing", _set_at(suites.omega_from_pairing, (6, 4), 2))
    rep = suites.suite_main(2)
    assert rep["pass"] is False
    assert rep["failures"] == [
        {"where": "bd=(6, 4)", "expected": "1", "got": "2"},
        {"where": "dims[(6,4)]", "expected": "1", "got": "2"},
    ]


def test_main_fails_a_wrong_witness_integral(monkeypatch):
    monkeypatch.setattr(suites, "graded_integral", lambda x, B: B * 0)
    rep = suites.suite_main(2, 3)
    assert rep["pass"] is False
    assert rep["failures"] == [{"where": "integral (alpha/2)^(g-1) beta^(g-1)", "expected": "3/2", "got": "0"}]


def test_main_fails_a_failed_vanishing_corollary(monkeypatch):
    monkeypatch.setattr(suites, "verify_vanishing_corollary", lambda table: False)
    rep = suites.suite_main(2)
    assert rep["pass"] is False
    assert rep["failures"] == [{"where": "vanishing corollary", "expected": "pass", "got": "fail"}]


def test_pairing_fails_a_kernel_mismatch_with_its_bidegree(monkeypatch):
    match = suites.pairing_kernel_matches_ideal
    monkeypatch.setattr(suites, "pairing_kernel_matches_ideal", lambda g, bd: bd != (4, 4) and match(g, bd))
    rep = suites.suite_pairing(2)
    assert rep["pass"] is False
    assert rep["failures"] == [{"where": "kernel match at bd=(4, 4)", "expected": "match", "got": "mismatch"}]
