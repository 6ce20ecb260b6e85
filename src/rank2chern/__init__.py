"""Exact symbolic computation in the rank-two descendent algebra of moduli
of bundles on a curve: Chern filtration, graded integral pairing, Mumford
relation ideals, sl2 operator calculus, and the closed-form refined
Poincare series, all over exact rational arithmetic.
"""

from .algebra import (
    Bidegree,
    Element,
    ElementParseError,
    bidegree_cone,
    chern_filter_basis,
    d_alpha,
    d_beta,
    d_psi,
    format_element,
    gamma,
    gamma_power,
    monomial_basis,
    parse_element,
    theta,
    theta_power,
)
from .genfun import (
    BiPoly,
    BiRational,
    check_shift_symmetry,
    check_unimodality,
    omega_closed_form,
    omega_closed_polynomial,
    omega_rank3,
    omega_stack,
    zagier_combinatorial_omega,
)
from .integral import graded_integral, graded_pairing, pairing_matrix
from .linalg import QMatrix, RowSpan, row_reduce
from .operators import (
    Operator,
    check_adjointness,
    check_closure,
    check_descent,
    check_sl2_relations,
    make_sl2,
    sl2_closure,
)
from .relations import (
    OmegaTable,
    VerificationError,
    ideal_slice,
    modified_mumford,
    mumford_relation,
    omega_from_ideal,
    omega_from_pairing,
    prim_basis,
    rel_generator,
    verify_vanishing_corollary,
)
from .series import InvariantPoly, phi_series

__version__ = "0.1.0"

__all__ = [
    "Bidegree",
    "BiPoly",
    "BiRational",
    "Element",
    "ElementParseError",
    "InvariantPoly",
    "OmegaTable",
    "Operator",
    "QMatrix",
    "RowSpan",
    "VerificationError",
    "bidegree_cone",
    "check_adjointness",
    "check_closure",
    "check_descent",
    "check_shift_symmetry",
    "check_sl2_relations",
    "check_unimodality",
    "chern_filter_basis",
    "d_alpha",
    "d_beta",
    "d_psi",
    "format_element",
    "gamma",
    "gamma_power",
    "graded_integral",
    "graded_pairing",
    "ideal_slice",
    "make_sl2",
    "modified_mumford",
    "monomial_basis",
    "mumford_relation",
    "omega_closed_form",
    "omega_closed_polynomial",
    "omega_from_ideal",
    "omega_from_pairing",
    "omega_rank3",
    "omega_stack",
    "pairing_matrix",
    "parse_element",
    "phi_series",
    "prim_basis",
    "rel_generator",
    "row_reduce",
    "sl2_closure",
    "theta",
    "theta_power",
    "verify_vanishing_corollary",
    "zagier_combinatorial_omega",
]
