"""Matching the moment-graph manifold with a projectivized bundle.

Simply connected closed 6-manifolds with torsion-free cohomology and b2 = 2
are classified by the cubic intersection tensor, w2, and the p1 pairings up
to a unimodular change of degree-2 basis. Here both sides are computed
independently: once from localization data of the moment graph, once by
ring reduction for the bundle with (k1, k2) = (-1, -1). They agree on the
nose, identifying the manifold behind the graph.
"""

from gkmloc.gkm import tolman_graph
from gkmloc.localization import (
    c1_in_omega_basis,
    cubic_form_from_gkm,
    dh_volume,
    jupp_invariants_from_gkm,
)
from gkmloc.projbundle import Bundle, find_equivalence, jupp_compare, jupp_invariants

g = tolman_graph()
s = (2, 1)

print(f"volume polynomial: {dh_volume(g, s)}")
print("splitting the symplectic class as l1*xi' + l2*eta' gives the tensor")
tensor = cubic_form_from_gkm(g, s)
for i in range(2):
    for j in range(2):
        for k in range(2):
            if i <= j <= k:
                names = ["xi'", "eta'"]
                print(f"  T({names[i]}, {names[j]}, {names[k]}) = {tensor[i][j][k]}")
alpha, beta = c1_in_omega_basis(g, s)
print(f"c1 in that basis: {alpha}*xi' + {beta}*eta'")

inv_graph = jupp_invariants_from_gkm(g, s)
inv_ring = jupp_invariants(Bundle(-1, -1))
print(f"\ngraph side:  trilinear {inv_graph.trilinear}")
print(f"             w2 {inv_graph.w2}, p1 pairings {inv_graph.p1_pairings}")
print(f"bundle side: trilinear {inv_ring.trilinear}")
print(f"             w2 {inv_ring.w2}, p1 pairings {inv_ring.p1_pairings}")

cmp = jupp_compare(inv_graph, inv_ring, ((1, 0), (0, 1)))
print(f"\nidentity basis change: trilinear {cmp.trilinear_ok},"
      f" w2 {cmp.w2_ok}, p1 {cmp.p1_ok} -> equivalent: {cmp.ok}")

# tensoring the bundle by a line bundle changes (k1, k2) but not the
# manifold; the matching basis change is found by bounded search
twisted = Bundle(1, -1)
q = find_equivalence(inv_ring, jupp_invariants(twisted))
print(f"\n(k1, k2) = (1, -1) describes the same manifold, matched by Q = {q}")

# a genuinely different bundle is told apart
stranger = jupp_invariants(Bundle(-1, 0))
print(f"(k1, k2) = (-1, 0) admits no match: {find_equivalence(inv_ring, stranger)}")
failures = jupp_compare(inv_ring, stranger, ((1, 0), (0, 1))).failures
print(f"  identity comparison fails on: {', '.join(failures)}")
