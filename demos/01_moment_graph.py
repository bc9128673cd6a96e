"""Tour of the built-in six-fixed-point moment graph.

The graph lives on six fixed points whose moment images are linear
polynomials in the parameters 0 < l1 < l2; at (l1, l2) = (1, 2) the point
ids read off the integer coordinates of the image. Each edge is an
invariant 2-sphere with a primitive integer direction.
"""

from gkmloc.gkm import (
    betti_numbers,
    is_coprime_action,
    isotropy_spheres,
    outgoing_edges,
    restrict_weights,
    sphere_area,
    tolman_coprime_criterion,
    tolman_graph,
)

g = tolman_graph()

print("fixed points:")
for p in g.points:
    print(f"  {p.id}: image ({p.moment_image[0]}, {p.moment_image[1]})")

print("\nedges (sphere areas):")
for e in g.edges:
    print(f"  {e.tail} -> {e.head}  direction {e.direction}  area {sphere_area(g, e)}")

print("\noutgoing directions at x40:", [d for _, d in outgoing_edges(g, "x40")])

for s in [(2, 1), (7, 2)]:
    print(f"\nsubcircle {s}:")
    for p in g.points:
        print(f"  weights at {p.id}: {restrict_weights(g, s, p.id)}")
    print(f"  Betti numbers: {betti_numbers(g, s)}")

# every non-degenerate subcircle is perfect Morse for the momentum, so the
# Betti numbers never change
assert betti_numbers(g, (5, 3)) == (1, 0, 2, 0, 2, 0, 1)

print("\ncoprimality:")
for s in [(7, 2), (2, 1), (3, 2), (2, 4)]:
    ok, witness = is_coprime_action(g, s)
    closed_form = tolman_coprime_criterion(*s)
    assert ok == closed_form
    if ok:
        print(f"  {s}: coprime")
    else:
        print(f"  {s}: not coprime, witness {witness.reason} {witness.weights}"
              f" at {witness.point}")

print("\nisotropy spheres of (7, 2):")
for e, order in isotropy_spheres(g, (7, 2)):
    print(f"  {e.tail} -> {e.head}: stabilizer Z_{order}")
