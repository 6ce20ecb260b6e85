"""The top-Chern-degree integral and the graded pairing.

Only the bidegree (6g-6, 4g-4) component integrates; on that slice the
value is pinned down by monodromy invariance (psi factors must pair i with
i+g) and the Virasoro proportionality along the top line.  The base value
B of the alpha^(g-1) beta^(g-1) integral is a free nonzero normalization:
everything structural is invariant under rescaling it.
"""

from fractions import Fraction as F

from rank2chern import Element, gamma, graded_integral, graded_pairing, pairing_matrix
from rank2chern.linalg import row_reduce

g = 2
alpha, beta = Element.alpha(g), Element.beta(g)

print("== oracle values at g = 2, B = 1 ==")
print("int alpha beta       =", graded_integral(alpha * beta))
print("int gamma            =", graded_integral(gamma(g)))
print("int psi1 psi3        =", graded_integral(Element.psi(g, 1) * Element.psi(g, 3)))
print("int psi1 psi2        =", graded_integral(Element.psi(g, 1) * Element.psi(g, 2)),
      " (unpaired psi factors vanish)")
witness = (F(1, 2) * alpha) ** (g - 1) * beta ** (g - 1)
print("int (alpha/2)^(g-1) beta^(g-1) =", graded_integral(witness),
      " (nonzero: the top Chern degree is exactly 4g-4)")

print()
print("== the graded pairing ==")
print("<alpha, beta> =", graded_pairing(alpha, beta))
rel = 2 * (alpha * beta) + 2 * gamma(g)
print("<1, 2 alpha beta + 2 gamma> =", graded_pairing(Element.one(g), rel),
      " (a relation pairs to zero)")

print()
print("== pairing matrices and their ranks ==")
for bd in [(0, 0), (3, 2), (6, 4)]:
    m = pairing_matrix(g, bd)
    rank, _ = row_reduce(m)
    print(f"bidegree {bd}: {m.rows} x {m.cols} matrix, rank {rank}")

print()
print("== scale covariance ==")
print("B = 7/3 rescales every integral:",
      graded_integral(gamma(g), F(7, 3)), "=", F(7, 3), "* (-1)")
