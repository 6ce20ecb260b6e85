"""Named verification suites behind the command-line `verify` subcommand.

Every suite returns a ``relations.report`` dict

    {"suite", "genus", "d", "pass", "cases", "failures": [{"where",
     "expected", "got"}, ...]}

with the first failing witnesses listed so regressions stay diagnosable.
All comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import genfun
from .algebra import MAX_GENUS, Element, bidegree_cone
from .integral import graded_integral, top_bidegree
from .operators import check_adjointness, check_closure, check_descent, check_sl2_relations
from .relations import (
    OmegaTable,
    default_max_coh,
    dims_mismatches,
    merged_report,
    omega_from_ideal,
    omega_from_pairing,
    pairing_kernel_matches_ideal,
    report,
    verify_vanishing_corollary,
    witness,
)


def suite_main(genus: int, B=1) -> dict:
    """The d = 0 table from the pairing route against the closed form,
    plus the top-degree structure and the nonvanishing witness integral."""
    table = omega_from_pairing(genus)
    expansion = genfun.omega_closed_polynomial(genus)
    closed = OmegaTable.from_expansion(genus, 0, table.max_coh, expansion)
    cases, failures = dims_mismatches(table.dims, closed.dims)
    # the rest of the top row is the vanishing corollary's: at coh = 6g - 6 it wants 0 below chern 4g - 4
    coh, chern = top_bidegree(genus)
    if table.dim(coh, chern) != 1:
        failures.append(witness(f"dims[({coh},{chern})]", 1, table.dim(coh, chern)))
    integrand = (Element.alpha(genus) * Fraction(1, 2)) ** (genus - 1) * Element.beta(genus) ** (genus - 1)
    value = graded_integral(integrand, B)
    expected = B / Fraction(2 ** (genus - 1))
    if value != expected or value == 0:
        failures.append(witness("integral (alpha/2)^(g-1) beta^(g-1)", expected, value))
    if not verify_vanishing_corollary(table):
        failures.append(witness("vanishing corollary", "pass", "fail"))
    return report("suite", "main", genus, 0, cases + 3, failures)


def suite_intermediate(genus: int, d: int, max_coh: int = None) -> dict:
    """The degree-d table from the ideal route against the truncated series
    expansion of the closed form."""
    if max_coh is None:
        max_coh = default_max_coh(genus, d)
    table = omega_from_ideal(genus, d, max_coh)
    expansion = genfun.omega_closed_form(genus, d).series_coefficients(max_coh)
    closed = OmegaTable.from_expansion(genus, d, max_coh, expansion)
    cases, failures = dims_mismatches(table.dims, closed.dims)
    return report("suite", "intermediate", genus, d, cases, failures)


def suite_pairing(genus: int) -> dict:
    """Two-route coincidence at d = 0 and the per-bidegree kernel match."""
    by_ideal = omega_from_ideal(genus, 0, 6 * genus - 6)
    by_pairing = omega_from_pairing(genus)
    cases, failures = dims_mismatches(by_ideal.dims, by_pairing.dims)
    for bd in bidegree_cone(6 * genus - 6):
        cases += 1
        if not pairing_kernel_matches_ideal(genus, bd):
            failures.append(witness(f"kernel match at bd={tuple(bd)}", "match", "mismatch"))
    return report("suite", "pairing", genus, 0, cases, failures)


def suite_sl2(genus: int, d: int = 0, max_coh: int = None, B=1) -> dict:
    """Commutation relations, d = 0 adjointness, and descent identities."""
    reports = [check_sl2_relations(genus, d, max_coh)]
    if d == 0:
        reports.append(check_adjointness(genus, B))
    reports.append(check_descent(genus, d))
    parts = [(rep["check"], rep["cases"], rep["failures"]) for rep in reports]
    return merged_report("suite", "sl2", genus, d, parts)


def suite_closure(genus: int, buffers=(None,)) -> dict:
    rep = check_closure(genus, buffers)
    return report("suite", "closure", genus, 0, rep["cases"], rep["failures"])


def suite_genfun() -> dict:
    """The generating-series identity battery (exact, series level only):
    the identities of ``genfun.identities`` for each closed form, then the
    telescoping identities of the stratification, which concern none alone."""
    genera = range(2, MAX_GENUS + 1)
    battery = [("stack", r, genera) for r in range(2, 6)]
    battery += [("n21", 2, genera), ("rank3", 3, range(2, 6))]
    verdicts = []  # (verdict, where) in battery order
    for formula, r, gs in battery:
        for g in gs:
            for name, check in genfun.identities(formula, g, r).items():
                verdicts.append((check(), f"{name}, {formula} r={r}, g={g}"))
    verdicts += [(genfun.telescoping_identity(g), f"telescoping, g={g}") for g in genera]
    for g in range(2, 6):
        for d in range(1, 4):
            verdicts.append((genfun.intermediate_difference_matches(g, d), f"stratum difference, g={g}, d={d}"))
        for d in range(0, 3):
            verdicts.append((genfun.full_stack_telescoping_qt(g, d), f"q=t stack telescoping, g={g}, d={d}"))
    failures = [witness(where, "pass", "fail") for ok, where in verdicts if not ok]
    return report("suite", "genfun", 0, 0, len(verdicts), failures)


SUITES = ("main", "intermediate", "sl2", "pairing", "closure", "genfun", "all")


def run_suites(name: str, genus: int, d: int, max_coh=None, B=1):
    """Run one named suite (or all of them) and return the report list."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    if name in ("main", "all"):
        reports.append(suite_main(genus, B))
    if name in ("intermediate", "all"):
        for dd in ([d] if name == "intermediate" else [1, 2]):
            reports.append(suite_intermediate(genus, dd, max_coh))
    if name in ("pairing", "all"):
        reports.append(suite_pairing(genus))
    if name in ("sl2", "all"):
        reports.append(suite_sl2(genus, d, max_coh, B))
    if name in ("closure", "all"):
        reports.append(suite_closure(genus))
    if name in ("genfun", "all"):
        reports.append(suite_genfun())
    return reports
