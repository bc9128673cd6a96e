"""Exact-arithmetic invariants of GKM graphs and projectivized plane bundles.

The package computes, over the rationals and with no floating point:

  * weights, Morse indices and Betti numbers of subcircle actions on the
    moment graph of a Hamiltonian T^2-manifold (built-in: the six-point
    graph "tolman");
  * localized Chern numbers and the symplectic volume polynomial;
  * the intersection ring, characteristic classes and classifying
    (cubic form, w2, p1) invariants of P(E) for rank-2 bundles E over CP^2;
  * Delzant 3-polytopes, their projected fixed-point data, and the gluing
    that reproduces the built-in graph;
  * the destabilizing-curve obstruction cutting down the Kaehler cone.

The documented reference values form one table, ``cli._reproduce_checks``:
``gkmloc reproduce-all`` prints it, and the acceptance suite runs each row.
"""

from .exact import L1, L2, ParamPoly, Rational, ToolkitError, primitive, rat, rat_str
from .gkm import (
    CircleAction,
    CoprimeWitness,
    Edge,
    FixedPoint,
    GKMGraph,
    betti_numbers,
    builtin_graphs,
    c1_values,
    edge_weight,
    fixed_point_index,
    graph_from_json,
    graph_to_json,
    is_coprime_action,
    isotropy_spheres,
    outgoing_edges,
    restrict_weights,
    sphere_area,
    tolman_coprime_criterion,
    tolman_graph,
)
from .localization import (
    CHERN_MONOMIALS,
    FixedPointContribution,
    abbv_chern_number,
    c1_in_omega_basis,
    c2_pairings_from_gkm,
    cubic_form_from_gkm,
    dh_volume,
    jupp_invariants_from_gkm,
    localization_table,
    localize,
)
from .projbundle import (
    Bundle,
    JuppComparison,
    JuppInvariants,
    RingElement,
    c1_cubed,
    c2_pairings,
    cubic_form,
    cubic_from_trilinear,
    cup,
    cup_power,
    degree2,
    eta,
    find_equivalence,
    integrate,
    jupp_compare,
    jupp_invariants,
    one,
    p1_and_w2,
    tensor_apply,
    total_chern,
    trilinear_from_cubic,
    xi,
)
from .toric import (
    GlueReport,
    L_HAT,
    L_TILDE,
    Polytope,
    VertexData,
    builtin_glue_report,
    builtin_polytopes,
    glue_check,
    polytope_edges,
    project_fixed_data,
    vertex_weights,
)
from .kahlercone import (
    CurveInvariants,
    ObstructionVerdict,
    curve_invariants,
    kahler_obstruction,
)

__version__ = "0.1.0"
