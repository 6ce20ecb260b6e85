"""Mumford relations, ideal slices, and the refined dimension tables.

The graded relation ideal is spanned by beta-multiples of the generators
R_{k,m,l} sigma_l built from primitive classes; cutting each bidegree slice
by the relations (or, at d = 0, taking pairing ranks) produces the refined
table whose generating function is the closed form checked in demo 05.
"""

from rank2chern import (
    Element,
    modified_mumford,
    mumford_relation,
    omega_from_ideal,
    omega_from_pairing,
    prim_basis,
    rel_generator,
    verify_vanishing_corollary,
)
from rank2chern.relations import ideal_slice

g = 2

print("== primitive classes (exact kernels of theta powers) ==")
for l in range(g + 1):
    print(f"Prim_{l} at g=2 has dimension {len(prim_basis(g, l))}")
print("note: at l=2 the dimension is 5, one more than the pair-free monomials")

print()
print("== relation generators ==")
one = Element.one(g)  # the degree-0 primitive class
print("R_{4,0,0}        =", rel_generator(4, 0, one, g))
print("R_{4,1,0}        =", rel_generator(4, 1, one, g))
print("MR^1_{4,1}       =", mumford_relation(1, 4, 0, 0, g).embed())  # coefficient of sigma_0 = 1
mm = modified_mumford(1, 5, 1, one, g)  # asserts its two defining routes agree
print("modified MR^1_{5, theta} =", mm)

print()
print("== ideal slices ==")
print("slice (4,4), d=0:", [str(x) for x in ideal_slice(g, 0, (4, 4))])
print("slice (4,4), d=1:", ideal_slice(g, 1, (4, 4)), " (threshold k >= 2g+2d unreachable)")

print()
print("== refined dimension tables ==")
t_ideal = omega_from_ideal(g, 0)
t_pair = omega_from_pairing(g)
print("ideal route  :", t_ideal.nonzero())
print("pairing route:", t_pair.nonzero())
print("routes agree :", t_ideal.dims == t_pair.dims)
print("q=t Betti numbers:", t_ideal.poincare_coefficients())
print("vanishing corollary holds:", verify_vanishing_corollary(t_pair))

print()
print("== a degree-d table, truncated ==")
t1 = omega_from_ideal(g, 1)
print("d=1, coh <= {}:".format(t1.max_coh))
print(t1.to_csv())
