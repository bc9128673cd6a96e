"""Exact-arithmetic invariants of GKM graphs and projectivized plane bundles.

Everything is computed over the rationals, with no floating point. Each name
is imported from the module that defines it; importing the package loads none
of them:

  * ``exact``: Fractions, the polynomials ``ParamPoly`` in the parameters
    0 < l1 < l2, primitive vectors, the chamber sign test, ``ToolkitError``;
  * ``gkm``: moment graphs (built-in: the six-point graph "tolman"), subcircle
    weights, Morse indices, Betti numbers, c1 on spheres, coprimality;
  * ``localization``: localized Chern numbers, the symplectic volume
    polynomial and the classifying invariants of a graph;
  * ``projbundle``: the intersection ring, characteristic classes and
    classifying (cubic form, w2, p1) invariants of P(E) for rank-2 bundles E
    over CP^2, and the search for an equivalence of invariants;
  * ``toric``: Delzant 3-polytopes, their projected fixed-point data, and the
    gluing that reproduces the built-in graph;
  * ``kahlercone``: the destabilizing-curve obstruction cutting down the
    Kaehler cone;
  * ``cli``: the ``gkmloc`` command, run in process by ``cli.run(argv)``.

The documented reference values form one table: ``gkmloc reproduce-all``
prints it, and the acceptance suite runs each row.
"""

__version__ = "0.1.0"
