"""Cut-and-glue construction of the moment graph from two Delzant polytopes.

Two toric 6-manifolds supply the halves: a prism ("hat") and a simplex with
one corner chopped off ("tilde"). Projecting their vertex data along 2x3
integer matrices and keeping the half below / above the cut level
(l1 + l2)/2 reproduces the fixed points and weights of the built-in moment
graph exactly.
"""

import dataclasses

from gkmloc.toric import (
    L_HAT,
    L_TILDE,
    builtin_polytopes,
    glue_check,
    polytope_edges,
    project_fixed_data,
    vertex_weights,
)

polys = builtin_polytopes()
hat, tilde = polys["tolman-hat"], polys["tolman-tilde"]

for poly in (hat, tilde):
    print(f"{poly.name}:")
    for idx, v in enumerate(poly.vertices):
        coords = ", ".join(str(c) for c in v)
        print(f"  vertex {idx}: ({coords})")
    edges = polytope_edges(poly)
    print(f"  hull edges: {edges}")
    # every vertex passes the Delzant determinant test
    for idx in range(len(poly.vertices)):
        vertex_weights(poly, idx, edges)
    print("  all vertices are smooth (edge directions form a lattice basis)")

print(f"\nprojections: hat along {L_HAT}, tilde along {L_TILDE}")
hat_data = project_fixed_data(hat, L_HAT)
tilde_data = project_fixed_data(tilde, L_TILDE)
for name, data in (("hat", hat_data), ("tilde", tilde_data)):
    print(f"  {name}:")
    for vd in data:
        print(f"    vertex {vd.index} -> image ({vd.image[0]}, {vd.image[1]}),"
              f" weights {vd.weights}")

report = glue_check(hat_data, tilde_data)
print(f"\nglue result: ok = {report.ok}")
print(f"  tilde half contributes: {report.tilde_points}")
print(f"  hat half contributes:   {report.hat_points}")
print(f"  matched fixed points:   {report.matched}")

# sabotage one vertex to see the failure reporting
bad = list(tilde_data)
bad[3] = dataclasses.replace(bad[3], weights=((9, 9),) + bad[3].weights[1:])
broken = glue_check(hat_data, tuple(bad))
print(f"\nwith one weight vector corrupted: ok = {broken.ok}")
for problem in broken.problems:
    print(f"  problem: {problem}")
