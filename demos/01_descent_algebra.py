"""Tour of the rank-two descendent algebra.

The algebra has even central generators alpha (degree 2) and beta (degree 4)
and odd generators psi_1..psi_2g (degree 3 each); every generator has Chern
degree 2.  Elements carry exact rational coefficients throughout.
"""

from rank2chern import (
    Element,
    chern_filter_basis,
    d_alpha,
    d_psi,
    gamma,
    monomial_basis,
    parse_element,
)

g = 2
alpha, beta = Element.alpha(g), Element.beta(g)
psi = [None] + [Element.psi(g, i) for i in range(1, 2 * g + 1)]

print("== super-commutative multiplication ==")
print("psi2 * psi1      =", psi[2] * psi[1])
print("psi1 * psi1      =", psi[1] * psi[1])
print("gamma            =", gamma(g))
print("gamma^2          =", gamma(g) ** 2)
print("gamma^3          =", gamma(g) ** 3, " (gamma is nilpotent: gamma^(g+1) = 0)")

print()
print("== the two gradings ==")
for x, name in [(alpha, "alpha"), (beta, "beta"), (psi[1], "psi1"), (alpha * beta, "alpha beta")]:
    print(f"bidegree({name:11s}) = {x.bidegree()}  (coh, chern)")
print("alpha + beta is inhomogeneous:", (alpha + beta).bidegree())

print()
print("== derivations (psi uses the left super-derivative) ==")
print("d/dpsi1 (psi1 psi2) =", d_psi(psi[1] * psi[2], 1))
print("d/dpsi2 (psi1 psi2) =", d_psi(psi[1] * psi[2], 2))
print("d/dalpha (alpha^2 beta) =", d_alpha(alpha**2 * beta))

print()
print("== bidegree slices ==")
print("basis of (coh 4, chern 4):", monomial_basis(g, (4, 4)))
print("basis of (coh 3, chern 2):", monomial_basis(g, (3, 2)))
print("coh 4, Chern filtration step 2:", chern_filter_basis(g, 4, 2))
print("coh 4, Chern filtration step 4:", chern_filter_basis(g, 4, 4))

print()
print("== the element text grammar ==")
x = parse_element("1/2 alpha^2 + 1/2 beta", g)
print("parsed '1/2 alpha^2 + 1/2 beta' ->", x)
print("  cohomologically pure but mixed in Chern degree, so bidegree() is", x.bidegree())
print("gamma spelled out:", parse_element("-2 psi1 psi3 - 2 psi2 psi4", g) == gamma(g))
