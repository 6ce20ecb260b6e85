"""Acceptance suite: every criterion checked at exact (zero) tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import random
from fractions import Fraction as F

from rank2chern.algebra import Element, chern_filter_basis, d_psi, gamma_power
from rank2chern.genfun import omega_closed_form, omega_closed_polynomial
from rank2chern.integral import graded_integral
from rank2chern.operators import (
    check_adjointness,
    check_closure,
    check_descent,
    check_sl2_relations,
)
from rank2chern.relations import (
    OmegaTable,
    modified_mumford_closed,
    modified_mumford_sum,
    omega_from_ideal,
    omega_from_pairing,
    prim_basis,
    verify_vanishing_corollary,
)
from test_integral import gamma_power_integral_two_routes
from test_relations import ideal_multiplicative_closure_holds


def _report(name: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _table_equals_expansion(table, expansion) -> bool:
    return OmegaTable.from_expansion(table.g, table.d, table.max_coh, expansion) == table


def test_criterion_01_stable_closed_form_from_pairing():
    ok = True
    for g in (2, 3):
        table = omega_from_pairing(g)
        ok = ok and _table_equals_expansion(table, omega_closed_polynomial(g))
    _report("criterion 1: pairing-route tables reproduce the closed form (g=2,3)", ok)


def test_criterion_01_pairing_table_genus_four():
    table = omega_from_pairing(4)
    ok = _table_equals_expansion(table, omega_closed_polynomial(4))
    _report("criterion 1: pairing-route table at g=4", ok)


def test_criterion_02_intermediate_closed_forms():
    ok = True
    for g in (2, 3):
        for d in (1, 2):
            max_coh = 6 * g - 6 + 4 * d
            table = omega_from_ideal(g, d, max_coh)
            expansion = omega_closed_form(g, d).series_coefficients(max_coh)
            ok = ok and _table_equals_expansion(table, expansion)
    _report("criterion 2: ideal-route tables match the degree-d closed forms (g=2,3; d=1,2)", ok)


def test_criterion_03_two_route_coincidence():
    ok = True
    for g in (2, 3):
        ok = ok and omega_from_ideal(g, 0).dims == omega_from_pairing(g).dims
    _report("criterion 3: ideal route equals pairing route at d=0 (g=2,3)", ok)


def test_criterion_04_top_chern_degree():
    ok = True
    for g in (2, 3):
        table = omega_from_pairing(g)
        top_coh, top_chern = 6 * g - 6, 4 * g - 4
        for chern in range(0, top_chern, 2):
            ok = ok and table.dim(top_coh, chern) == 0
        ok = ok and table.dim(top_coh, top_chern) == 1
        for B in (F(1), F(7, 3)):
            witness = (F(1, 2) * Element.alpha(g)) ** (g - 1) * Element.beta(g) ** (g - 1)
            value = graded_integral(witness, B)
            ok = ok and value == B / 2 ** (g - 1) and value != 0
    _report("criterion 4: top Chern degree 4g-4 and the nonvanishing witness (g=2,3)", ok)


def test_criterion_05_modified_relation_cross_validation():
    ok = True
    for g in (2, 3):
        for d in (0, 1, 2):
            for l in range(g + 1):
                basis = prim_basis(g, l)
                for m in range(g - l + 1):
                    for k in range(2 * g + 2 * d + 4 + 1):
                        for sig in basis:
                            a = modified_mumford_sum(d, k, m, l, g).embed() * sig
                            b = modified_mumford_closed(d, k, m, l, g).embed() * sig
                            ok = ok and a == b
    _report("criterion 5: alternating-sum and closed-form relations agree (g=2,3; d=0,1,2)", ok)


def test_criterion_06_sl2_commutation_relations():
    ok = True
    for g in (2, 3, 4):
        for d in (0, 1, 2):
            ok = ok and check_sl2_relations(g, d, 6 * g - 6)["pass"]
    _report("criterion 6: sl2 triples and vanishing cross-commutators (g=2,3,4; d=0,1,2)", ok)


def test_criterion_07_adjointness():
    ok = True
    for g in (2, 3):
        for B in (F(1), F(7, 3)):
            ok = ok and check_adjointness(g, B)["pass"]
    _report("criterion 7: (anti-)self-adjointness for the graded pairing (g=2,3; B=1, 7/3)", ok)


def test_criterion_08_descent_identities():
    ok = True
    for g in (2, 3):
        for d in (0, 1, 2):
            ok = ok and check_descent(g, d)["pass"]
    _report("criterion 8: lowering operators descend the relation generators (g=2,3; d=0,1,2)", ok)


def test_criterion_09_f_closure_reconstructs_ideal():
    rep = check_closure(2, buffers=(4, 8, 12))
    _report("criterion 9: f-closure of the above-top-Chern subspace equals the ideal (g=2)", rep["pass"])


def test_criterion_09_closure_genus_three():
    rep = check_closure(3, buffers=(8, 12))
    _report("criterion 9: f-closure equals the ideal at g=3", rep["pass"])


def test_criterion_10_generating_series_suite():
    from rank2chern.suites import suite_genfun

    rep = suite_genfun()
    _report(f"criterion 10: generating-series identity battery ({rep['cases']} cases)", rep["pass"])


def test_criterion_11_property_battery():
    ok = True

    # algebra laws and left super-Leibniz on seeded random elements
    rnd = random.Random(99)
    g = 3
    for _ in range(25):
        monos = [
            Element.monomial(g, rnd.randrange(3), rnd.randrange(2), rnd.randrange(1 << 6))
            for _ in range(3)
        ]
        x, y, z = monos
        ok = ok and (x * y) * z == x * (y * z)
        sx = next(iter(x.terms))[2].bit_count() if x.terms else 0
        sy = next(iter(y.terms))[2].bit_count() if y.terms else 0
        ok = ok and x * y == (y * x) * (-1 if (sx & 1) and (sy & 1) else 1)
        i = rnd.randrange(1, 2 * g + 1)
        sign = -1 if (x.bidegree() and x.bidegree().coh % 2) else 1
        ok = ok and d_psi(x * y, i) == d_psi(x, i) * y + sign * (x * d_psi(y, i))

    # gamma nilpotency as a theorem of the full algebra
    for gg in (2, 3, 4):
        ok = ok and gamma_power(gg, gg + 1).is_zero() and not gamma_power(gg, gg).is_zero()

    # the bidegree cone with its two equality edges
    for coh in range(0, 13):
        for mono in chern_filter_basis(3, coh, 2 * coh):
            a, b, mask = mono
            bd = Element.monomial(3, *mono).bidegree()
            ok = ok and bd.chern <= bd.coh <= 2 * bd.chern
            if bd.coh == bd.chern and bd.coh:
                ok = ok and (b, mask) == (0, 0)
            if bd.coh == 2 * bd.chern and bd.coh:
                ok = ok and (a, mask) == (0, 0)

    # primitive dimension formula at desk scale
    import math

    for gg in (2, 3, 4):
        for l in range(gg + 1):
            want = math.comb(2 * gg, l) - (math.comb(2 * gg, l - 2) if l >= 2 else 0)
            ok = ok and len(prim_basis(gg, l)) == want

    # monodromy/Virasoro two-route integrals
    for gg in (2, 3, 4):
        for p in range(gg):
            a, b = gamma_power_integral_two_routes(gg, p)
            ok = ok and a == b

    # ideal multiplicative closure guard and vanishing corollary
    for gg, d in ((2, 0), (2, 1), (3, 0), (3, 1)):
        ok = ok and ideal_multiplicative_closure_holds(gg, d)
    for gg in (2, 3):
        ok = ok and verify_vanishing_corollary(omega_from_pairing(gg))

    _report("criterion 11: algebra-law, grading, and guard property battery", ok)
