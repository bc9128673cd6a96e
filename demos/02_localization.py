"""Chern numbers and the volume polynomial by fixed-point localization.

Every integral over the 6-manifold reduces to a sum over the six fixed
points of a chosen subcircle: Chern numbers use the elementary symmetric
polynomials of the three weights, the symplectic volume uses the momentum.
Different subcircles must give the same answers, and they do, exactly.
"""

from gkmloc.gkm import c1_values, tolman_graph
from gkmloc.localization import (
    CHERN_MONOMIALS,
    abbv_chern_number,
    dh_volume,
    localization_table,
)

g = tolman_graph()
s = (2, 1)

print(f"localization table for subcircle {s}:")
print(f"  {'point':6} {'momentum':14} {'weights':14} product")
for row in localization_table(g, s):
    print(f"  {row.point:6} {str(row.hamiltonian):14} "
          f"{str(row.weights):14} {row.weight_product}")

print("\nChern numbers:")
for monomial in CHERN_MONOMIALS:
    print(f"  integral {monomial} = {abbv_chern_number(g, s, monomial)}")

volume = dh_volume(g, s)
print(f"\nvolume polynomial: {volume}")
print(f"  value at (l1, l2) = (1, 2): {volume.evaluate(1, 2)}")
print(f"  value at (l1, l2) = (1/2, 1): {volume.evaluate('1/2', 1)}")

print("\nsame answers from other subcircles:")
for other in [(1, 3), (3, 2), (-7, 4)]:
    assert dh_volume(g, other) == volume
    assert abbv_chern_number(g, other, "c1^3") == 64
    print(f"  {other}: volume and c1^3 agree")

print("\nper-sphere c1 pairings (independent of the subcircle):")
for e, value in sorted(c1_values(g, s).items(), key=lambda kv: -kv[1]):
    print(f"  <c1, {e.tail}-{e.head}> = {value}")
total = sum(c1_values(g, s).values())
print(f"  sum over all spheres = {total}  (= integral c1 c2 = 24)")
