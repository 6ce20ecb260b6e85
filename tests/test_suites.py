"""Negative controls of the table diffs: one perturbed dimension must fail
its suite or check with the witness of that bidegree."""

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
