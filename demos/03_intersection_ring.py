"""Exact intersection theory of a projectivized rank-2 bundle over CP^2.

The ring is Z[eta, xi] / (eta^3, xi^2 + k1*eta*xi + k2*eta^2). Everything
below is reduced to the basis 1; eta, xi; eta^2, eta*xi; eta^2*xi and
integrated against eta^2*xi = 1.
"""

from gkmloc.exact import rat_str
from gkmloc.projbundle import (
    Bundle,
    c1_cubed,
    c2_pairings,
    cubic_form,
    cup,
    cup_power,
    degree2,
    eta,
    integrate,
    p1_and_w2,
    total_chern,
    xi,
)

b = Bundle(-1, -1)
print(f"bundle Chern data: k1 = {b.k1}, k2 = {b.k2}")

print("\nring relations in action:")
print(f"  xi^2   = {cup(b, xi(), xi())}")
print(f"  xi^3   = {cup_power(b, xi(), 3)}")
print(f"  eta^3  = {cup_power(b, eta(), 3)}")
print(f"  eta^2*xi integrates to {integrate(b, cup(b, cup(b, eta(), eta()), xi()))}")

c1, c2, c3 = total_chern(b)
print("\ntangent bundle Chern classes:")
print(f"  c1 = {c1}")
print(f"  c2 = {c2}")
print(f"  c3 = {c3}")
print(f"  c1^3 = {c1_cubed(b)} (ring route)"
      f" = {2 * (27 + b.k1**2 - 4 * b.k2)} (closed form 2*(27 + k1^2 - 4*k2))")
print(f"  c1 c2 = {integrate(b, cup(b, c1, c2))}")
print(f"  c3 integrates to the Euler number {integrate(b, c3)}")

p1, w2, c1_even = p1_and_w2(b)
print(f"\n  p1 = {p1},  w2 = {w2},  c1 even: {c1_even}")
c2_eta, c2_xi = c2_pairings(b)
print(f"  <c2, eta>, <c2, xi> = {rat_str(c2_eta)}, {rat_str(c2_xi)}")

print("\ncubic intersection form F(y) = integral y^3 on degree 2:")
print("  closed form F(a*eta + c*xi) = c*(3a^2 - 3*k1*a*c + (k1^2 - k2)*c^2)")
for a, c in [(1, 0), (0, 1), (1, 1), (3, 2)]:
    closed = c * (3 * a * a - 3 * b.k1 * a * c + (b.k1**2 - b.k2) * c * c)
    assert cubic_form(b, a, c) == closed
    print(f"  F({a}*eta + {c}*xi) = {cubic_form(b, a, c)}")

# this ring has no square-zero classes in degree 2, but a nearby one does
assert not cup(b, degree2(5, -7), degree2(5, -7)).is_zero()
other = Bundle(-1, -2)
product = cup(other, degree2(-2, 1), degree2(1, 1))
print(f"\nat (k1, k2) = (-1, -2) the ring has zero divisors:")
print(f"  (-2*eta + xi) * (eta + xi) = {product}")
