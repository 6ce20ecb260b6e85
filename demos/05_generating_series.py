"""The closed-form refined Poincare series and their exact identities.

Everything here is decided on exact polynomials: rational-function equality
by cross-multiplication, specializations by exact substitution, and the
single removable pole of the rank-three formula by exact division.
"""

from rank2chern.genfun import (
    check_shift_symmetry,
    check_unimodality,
    chern_specialization_coefficients,
    closed_form_t_minus_one_matches,
    full_stack_telescoping_qt,
    omega_closed_form,
    omega_closed_polynomial,
    omega_rank3,
    omega_stack,
    rank3_t_minus_one_matches,
    stack_t_minus_one_matches,
    telescoping_identity,
    zagier_combinatorial_omega,
)

print("== the genus-2 closed form as a polynomial ==")
poly = omega_closed_polynomial(2)
print("Omega(q,t) =", " + ".join(f"{int(v)} q^{i} t^{j}" for (i, j), v in sorted(poly.terms.items())))
print("  i.e. 1 + q^2 (1 + 4t + t^2) + q^4 t^2")

print()
print("== shift symmetry q^((r+2)(r-1)(g-1)) t^(r(r-1)(g-1)) f(1/q,1/t) = f ==")
for g in (2, 5, 8):
    print(f"full stack, r=2, g={g}:", check_shift_symmetry(omega_stack(2, g), 2, g))
print("stable closed form, g=3:", check_shift_symmetry(omega_closed_form(3, 0), 2, 3))
print("rank-3 formula, g=4   :", check_shift_symmetry(omega_rank3(4), 3, 4))
print("degree-1 series, g=2  :", check_shift_symmetry(omega_closed_form(2, 1), 2, 2),
      " (the d >= 1 series is genuinely asymmetric)")

print()
print("== t = -1 specializations ==")
for r in (2, 3, 4, 5):
    same = stack_t_minus_one_matches(omega_stack(r, 3), r, 3)
    print(f"stack r={r}, g=3 equals prod (1-(-q)^k)^(2g-2):", same)
print("stable closed form g=3:", closed_form_t_minus_one_matches(omega_closed_form(3), 3))
print("rank-3 formula g=3    :", rank3_t_minus_one_matches(omega_rank3(3), 3))

print()
print("== the block-combinatorial sum ==")
for g in (2, 5, 8):
    same = zagier_combinatorial_omega(g).terms == omega_closed_polynomial(g).terms
    print(f"five-index block sum equals the closed form at g={g}:", same)

print()
print("== unimodality of the Chern specialization ==")
print("g=2 coefficients of Omega(q,1) at q^0, q^2, q^4:", chern_specialization_coefficients(poly, 2))
for g in (2, 4, 8):
    print(f"centered unimodal at g={g}:", check_unimodality(omega_closed_polynomial(g), g))

print()
print("== stratification telescoping ==")
for g in (2, 3):
    print(f"stack - stable = summed strata at g={g}:", telescoping_identity(g))
    print(f"q=t full-stack telescoping at g={g}, d=1:", full_stack_telescoping_qt(g, 1))
