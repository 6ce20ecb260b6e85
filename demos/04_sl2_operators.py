"""The sl2 operator calculus.

Two commuting sl2 triples (an alpha family and a beta family, one pair for
each destabilizing degree d) act on the descendent algebra; their diagonal
sum has h equal to the Chern grading shifted by 2g-2.  All checks are
extensional on bidegree slices and exact.
"""

from rank2chern import Element, gamma, make_sl2
from rank2chern.operators import (
    check_adjointness,
    check_closure,
    check_descent,
    check_sl2_relations,
    sl2_closure,
)

g = 2

print("== the alpha-family triple at d = 0 ==")
e, h, f = make_sl2("alpha", 0, g)
print("f(1)     =", f(Element.one(g)))
print("f(alpha) =", f(Element.alpha(g)), " (the constant g-1)")
print("h(alpha) =", h(Element.alpha(g)))
print("f(gamma) =", f(gamma(g)), " (equals -(g/2) beta)")

print()
print("== commutation relations, extensionally ==")
rep = check_sl2_relations(g, 0, 6)
print(f"relations + cross-commutators on coh <= 6: {rep['cases']} cases,",
      "pass" if rep["pass"] else "FAIL")
x = Element.alpha(g) ** 2
print("[e,f] - h kills alpha^2:", (e(f(x)) - f(e(x)) - h(x)).is_zero())

print()
print("== adjointness for the graded pairing (d = 0) ==")
rep = check_adjointness(g)
print(f"e, f self-adjoint and h anti-self-adjoint: {rep['cases']} pairings,",
      "pass" if rep["pass"] else "FAIL")

print()
print("== descent identities on relation generators ==")
for d in (0, 1):
    rep = check_descent(g, d)
    print(f"d={d}: f^d R_k = (2g+2d-k) R_(k-1) on {rep['cases']} cases,",
          "pass" if rep["pass"] else "FAIL")

print()
print("== reconstructing the relation ideal from the f operator ==")
result = sl2_closure(g, 8)
print("f-closure dims (coh <= 6g-6):", sorted(result["dims"].items()))
rep = check_closure(g, buffers=(4, 8, 12))
print("equals the ideal dimensions across a buffer sweep:",
      "pass" if rep["pass"] else "FAIL")
