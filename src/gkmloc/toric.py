"""Delzant 3-polytopes with parameterized vertices, and moment-map gluing.

Vertices are triples of linear polynomials in (l1, l2). Hull combinatorics
are computed exactly at the sample values (1, 2) and revalidated at (1, 3);
any disagreement is reported as unstable instead of silently picking one
answer. At each sample the rational vertices are scaled by the lcm of their
denominators and the hull search runs on that integer lattice: a positive
scale changes no orientation sign, zero test or collinear order, so the
facets and edges are those of the rational points.

The built-in pair ("tolman-hat", "tolman-tilde") are the two Delzant
polytopes whose toric manifolds, projected along the 2x3 matrices L_HAT and
L_TILDE and cut at the level (l1+l2)/2, glue to reproduce the fixed-point
data of the built-in six-point GKM graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .exact import ParamPoly, ToolkitError, primitive, rat
from . import gkm


class NotDelzantVertexError(ToolkitError):
    code = "NotDelzantVertex"


class ParametricCombinatoricsUnstableError(ToolkitError):
    code = "ParametricCombinatoricsUnstable"


class VertexOnCutError(ToolkitError):
    code = "VertexOnCut"


class NotFullDimensionalError(ToolkitError):
    code = "NotFullDimensional"


_HULL_SAMPLES = ((1, 2), (1, 3))

L_HAT = ((1, 0, 1), (0, 1, 0))
L_TILDE = ((1, 0, 0), (0, 1, 0))


@dataclass(frozen=True)
class Polytope:
    """Vertex list; each vertex is a triple of degree <= 1 ParamPoly."""

    vertices: tuple
    name: str = ""

    def __post_init__(self):
        verts = tuple(tuple(c for c in v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        for v in verts:
            if len(v) != 3 or not all(isinstance(c, ParamPoly) for c in v):
                raise TypeError("vertices must be triples of ParamPoly")


def polytope_to_json(p: Polytope) -> dict:
    return {
        "name": p.name,
        "vertices": [[c.to_json() for c in v] for v in p.vertices],
    }


def polytope_from_json(data: dict) -> Polytope:
    verts = tuple(
        tuple(ParamPoly.from_json(c) for c in v) for v in data["vertices"]
    )
    return Polytope(verts, data.get("name", ""))


_lin = ParamPoly.linear


def builtin_polytopes():
    """The prism and the corner-chopped simplex behind the built-in graph."""
    zero = _lin(0, 0)
    hat = Polytope(
        (
            (zero, zero, zero),
            (_lin(1, 1), zero, zero),
            (zero, _lin(1, 1), zero),
            (zero, zero, _lin(1, 0)),
            (_lin(1, 1), zero, _lin(1, 0)),
            (zero, _lin(1, 1), _lin(1, 0)),
        ),
        name="tolman-hat",
    )
    tilde = Polytope(
        (
            (zero, zero, zero),
            (_lin(2, 1), zero, zero),
            (zero, _lin(2, 1), zero),
            (_lin(1, 0), _lin(1, 0), _lin(1, 0)),
            (_lin(1, 0), _lin(0, 1), _lin(1, 0)),
            (_lin(0, 1), _lin(1, 0), _lin(1, 0)),
        ),
        name="tolman-tilde",
    )
    return {"tolman-hat": hat, "tolman-tilde": tilde}


# ---------------------------------------------------------------------------
# exact convex hull for small vertex sets
# ---------------------------------------------------------------------------

def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _sub3(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def hull_combinatorics(points):
    """Facets and edges of the convex hull of exact rational 3D points.

    Brute force over point triples: every plane through three points that
    supports the whole set is a facet (recorded as the frozenset of incident
    indices, so coplanar quadrilateral facets come out whole); edges are
    pairs of points shared by two facets. Intended for small inputs.

    Coordinates are coerced with ``rat`` (floats raise ``TypeError``), then
    every point is multiplied by the lcm of all coordinate denominators and
    the search runs on ints. Each side test is a determinant that scales by
    the cube of that positive factor, and each collinear sort key by its
    square, so every sign, zero and order is the same as over the rationals.
    """
    pts = [tuple(rat(c) for c in p) for p in points]
    scale = math.lcm(*(c.denominator for p in pts for c in p))
    pts = [tuple(c.numerator * (scale // c.denominator) for c in p)
           for p in pts]
    n = len(pts)
    facets = set()
    full_dim = False
    for i, j, k in combinations(range(n), 3):
        normal = _cross(_sub3(pts[j], pts[i]), _sub3(pts[k], pts[i]))
        if normal == (0, 0, 0):
            continue
        sides = [_dot3(normal, _sub3(pts[m], pts[i])) for m in range(n)]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            full_dim = True
            continue
        facets.add(frozenset(m for m in range(n) if sides[m] == 0))
    if not full_dim and len(facets) <= 1:
        raise NotFullDimensionalError("points do not affinely span 3-space")
    edges = set()
    for f1, f2 in combinations(facets, 2):
        common = sorted(f1 & f2)
        if len(common) < 2:
            continue
        if len(common) > 2:
            # collinear points along the facet intersection line; the edge
            # endpoints are the extreme two
            base = pts[common[0]]
            line = _sub3(pts[common[-1]], base)
            common.sort(key=lambda m: _dot3(_sub3(pts[m], base), line))
        edges.add((common[0], common[-1]))
    return frozenset(facets), frozenset(edges)


def polytope_edges(p: Polytope):
    """Edges of the hull as sorted index pairs, certified at both samples."""
    results = []
    for l1, l2 in _HULL_SAMPLES:
        coords = [
            tuple(c.evaluate(l1, l2) for c in v) for v in p.vertices
        ]
        results.append(hull_combinatorics(coords))
    if results[0] != results[1]:
        raise ParametricCombinatoricsUnstableError(
            f"hull combinatorics differ between samples {_HULL_SAMPLES}")
    _, edges = results[0]
    return tuple(sorted(edges))


def _edge_direction(p: Polytope, i: int, j: int):
    """Primitive integer direction u and area A with v_j - v_i == A * u."""
    diff = tuple(p.vertices[j][c] - p.vertices[i][c] for c in range(3))
    sample = [c.evaluate(*_HULL_SAMPLES[0]) for c in diff]
    den = math.lcm(*(q.denominator for q in sample))
    ints = [int(q * den) for q in sample]
    u, _ = primitive(ints)
    k = next(c for c in range(3) if u[c])
    area = diff[k] / u[k]
    if any(diff[c] != area * u[c] for c in range(3)):
        raise ParametricCombinatoricsUnstableError(
            f"edge {i}-{j} direction varies with the parameters")
    for l1, l2 in _HULL_SAMPLES:
        if area.evaluate(l1, l2) <= 0:
            raise ParametricCombinatoricsUnstableError(
                f"edge {i}-{j} degenerates at ({l1},{l2})")
    return u, area


def vertex_weights(p: Polytope, index: int, edges=None):
    """Outgoing primitive edge directions at a vertex, Delzant-checked.

    A smooth vertex of a 3-polytope has exactly three edges whose primitive
    directions form a lattice basis (determinant +-1).
    """
    if edges is None:
        edges = polytope_edges(p)
    return _vertex_directions(p, index, edges, {})


def _vertex_directions(p: Polytope, index: int, edges, known):
    """vertex_weights, reusing the directions in ``known`` and adding to it.

    ``known`` maps an ordered pair (i, j) to the primitive direction from
    v_i to v_j. An edge already computed from its other endpoint is reused as
    -u: the area is the same from both ends and ``primitive`` keeps the sign,
    so _edge_direction(p, j, i) would return exactly that, and would fail
    exactly when _edge_direction(p, i, j) did.
    """
    if not 0 <= index < len(p.vertices):
        raise IndexError(f"no vertex {index}")
    neighbors = [j for i, j in edges if i == index] + [i for i, j in edges if j == index]
    if len(neighbors) != 3:
        raise NotDelzantVertexError(
            f"vertex {index} has {len(neighbors)} edges, expected 3")
    dirs = []
    for j in sorted(neighbors):
        back = known.get((j, index))
        if back is None:
            u = known[(index, j)] = _edge_direction(p, index, j)[0]
        else:
            u = tuple(-c for c in back)
        dirs.append(u)
    dirs = tuple(dirs)
    det = _dot3(dirs[0], _cross(dirs[1], dirs[2]))
    if det not in (1, -1):
        raise NotDelzantVertexError(
            f"vertex {index}: edge directions {dirs} have determinant {det}")
    return dirs


# ---------------------------------------------------------------------------
# projection to T^2 data and gluing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexData:
    """Image and projected weights of one polytope vertex under a 2x3 map."""

    index: int
    image: tuple
    weights: tuple


def project_fixed_data(p: Polytope, matrix):
    """Apply a 2x3 integer matrix to every vertex and its edge directions.

    Projected weights are kept as-is (they need not be primitive).
    """
    rows = tuple(tuple(int(c) for c in row) for row in matrix)
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("projection must be a 2x3 integer matrix")
    edges = polytope_edges(p)

    def project_vec(v):
        return (
            sum(rows[0][c] * v[c] for c in range(3)),
            sum(rows[1][c] * v[c] for c in range(3)),
        )

    data = []
    known = {}
    for idx in range(len(p.vertices)):
        dirs = _vertex_directions(p, idx, edges, known)
        image = (
            sum((p.vertices[idx][c] * rows[0][c] for c in range(3)), ParamPoly.zero()),
            sum((p.vertices[idx][c] * rows[1][c] for c in range(3)), ParamPoly.zero()),
        )
        data.append(VertexData(idx, image, tuple(project_vec(u) for u in dirs)))
    return tuple(data)


@dataclass(frozen=True)
class GlueReport:
    """Outcome of matching glued toric fixed-point data against a GKM graph."""

    ok: bool
    tilde_points: tuple
    hat_points: tuple
    matched: tuple
    problems: tuple


def default_cut() -> ParamPoly:
    return ParamPoly.linear(Fraction(1, 2), Fraction(1, 2))


def _side_of_cut(image, cut):
    """-1 below, +1 above, stable across samples; on-cut or unstable raises."""
    sides = []
    for l1, l2 in _HULL_SAMPLES:
        delta = image[1].evaluate(l1, l2) - cut.evaluate(l1, l2)
        if delta == 0:
            raise VertexOnCutError(f"vertex image {image[1]} lies on the cut level")
        sides.append(1 if delta > 0 else -1)
    if sides[0] != sides[1]:
        raise ParametricCombinatoricsUnstableError(
            "cut side changes between parameter samples")
    return sides[0]


def glue_check(hat_data, tilde_data, cut: ParamPoly | None = None,
               reference: gkm.GKMGraph | None = None) -> GlueReport:
    """Check that the two projected halves glue to the reference fixed-point data.

    Keeps tilde vertices strictly below the cut level (second moment
    coordinate) and hat vertices strictly above, then matches the union
    against the reference graph (default: the built-in one): every fixed
    point must be hit by exactly one surviving vertex with the same moment
    image, and the projected weight multiset must equal the multiset of
    outgoing primitive directions at that point.
    """
    if cut is None:
        cut = default_cut()
    if reference is None:
        reference = gkm.tolman_graph()

    kept = []
    for side_name, data, want in (("tilde", tilde_data, -1), ("hat", hat_data, 1)):
        for vd in data:
            if _side_of_cut(vd.image, cut) == want:
                kept.append((side_name, vd))

    problems = []
    matched = []
    tilde_ids, hat_ids = [], []
    used = set()
    for p in reference.points:
        want_dirs = tuple(sorted(d for _, d in gkm.outgoing_edges(reference, p.id)))
        hits = [
            (side, vd) for side, vd in kept
            if vd.image == p.moment_image and (side, vd.index) not in used
        ]
        if not hits:
            problems.append(f"no surviving vertex maps to {p.id}")
            continue
        side, vd = hits[0]
        used.add((side, vd.index))
        got_dirs = tuple(sorted(vd.weights))
        if got_dirs != want_dirs:
            problems.append(
                f"weights at {p.id} differ: {got_dirs} vs {want_dirs}")
            continue
        matched.append(p.id)
        (tilde_ids if side == "tilde" else hat_ids).append(p.id)
    for side, vd in kept:
        if (side, vd.index) not in used:
            problems.append(
                f"extra {side} vertex {vd.index} survives the cut unmatched")

    return GlueReport(
        ok=not problems,
        tilde_points=tuple(tilde_ids),
        hat_points=tuple(hat_ids),
        matched=tuple(matched),
        problems=tuple(problems),
    )


def builtin_glue_report() -> GlueReport:
    """Run the whole pipeline on the built-in pair with the default cut."""
    polys = builtin_polytopes()
    hat_data = project_fixed_data(polys["tolman-hat"], L_HAT)
    tilde_data = project_fixed_data(polys["tolman-tilde"], L_TILDE)
    return glue_check(hat_data, tilde_data)
