"""Delzant 3-polytopes with parameterized vertices, and moment-map gluing.

Vertices are triples of linear polynomials in (l1, l2), written as int linear
forms: a ``Polytope`` keeps its forms from construction and its hull and edge
directions run on them, ``hull_combinatorics`` converts its own input once, and
a projected vertex keeps its image as the int forms the matrix makes of the
vertex's forms, on which the glue decides cut sides and its matches with the
built-in graph, each survivor matched at most once. Hull orientations (cubic
forms, each of the C(n, 4) determinants signed once), collinear orders
(quadratic), edge areas and cut sides (linear) are signed by ``exact``'s kernel
on the whole chamber 0 < l1 < l2, never at sample values; a sign that is not
constant there is reported as unstable, naming the wall.

The built-in pair ("tolman-hat", "tolman-tilde") are the two Delzant
polytopes whose toric manifolds, projected along the 2x3 matrices L_HAT and
L_TILDE and cut at the level CUT = (l1+l2)/2, glue to reproduce the
fixed-point data of the built-in six-point GKM graph. They are built once per
process, on the first call of ``builtin_polytopes``, projected once, on the first
call of ``builtin_projections``, and glued once, on the first call of
``builtin_glue_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, cmp_to_key
from itertools import combinations

from .exact import (ChamberSignError, ParamPoly, ToolkitError, _as_int, chamber_lattice,
                    linear_forms, linear_poly, linear_sign)
from . import gkm


class NotDelzantVertexError(ToolkitError):
    """Raised unless a vertex has 3 edges whose directions form a basis of Z^3."""


class ParametricCombinatoricsUnstableError(ToolkitError):
    """Raised where hull, edge or cut-side data change inside the chamber."""


class VertexOnCutError(ToolkitError):
    """Raised by ``glue_check`` for a vertex image on the cut level."""


class NotFullDimensionalError(ToolkitError):
    """Raised by the hull for points that do not affinely span 3-space."""


class MalformedPolytopeError(ToolkitError, ValueError):
    """Raised for polytope input that is malformed, repeated or of degree > 1."""


L_HAT = ((1, 0, 1), (0, 1, 0))
L_TILDE = ((1, 0, 0), (0, 1, 0))
_CUT = ((1, 1, 0), 2)               # (l1 + l2)/2: a form and its den
CUT = linear_poly(*_CUT)


@dataclass(frozen=True)
class Polytope:
    """Vertex list; each vertex is a triple of degree <= 1 ParamPoly, no two equal.

    Construction writes the coordinates once as int ``linear_forms``, kept in
    vertex order in ``_forms`` (three per vertex) over ``_den``. Neither is a
    field, so equality, hash and repr see only vertices and name.
    """

    vertices: tuple
    name: str = ""

    def __post_init__(self):
        verts = tuple(map(tuple, self.vertices))
        object.__setattr__(self, "vertices", verts)
        coords = [c for v in verts for c in v]
        if any(len(v) != 3 for v in verts) or not all(isinstance(c, ParamPoly) for c in coords):
            raise TypeError("vertices must be triples of ParamPoly")
        try:
            forms, den = linear_forms(coords)
        except ValueError:
            k, v = next((k, v) for k, v in enumerate(verts) if any(c.degree() > 1 for c in v))
            raise MalformedPolytopeError(
                f"vertex {k}: ({', '.join(map(str, v))}) has a coordinate of degree > 1") from None
        first = {}
        for k in range(len(verts)):
            if (seen := first.setdefault(tuple(forms[3 * k:3 * k + 3]), k)) != k:
                raise MalformedPolytopeError(f"vertex {k} repeats vertex {seen}")
        object.__setattr__(self, "_forms", tuple(forms))
        object.__setattr__(self, "_den", den)

    @cached_property
    def _edges(self):
        return tuple(sorted(_hull(self._forms)[1]))


def builtin_polytopes():
    """The prism and the corner-chopped simplex behind the built-in graph, in a new dict
    on every call. The polytopes, and so their forms and hulls, are built once per
    process, like ``gkm.tolman_graph``."""
    return dict(_builtin_polytopes())


@cache
def _builtin_polytopes():
    # 0, l1, l2, l1 + l2 and 2*l1 + l2
    o, a, b, s, t = (ParamPoly.linear(*c) for c in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)))
    hat = ((o, o, o), (s, o, o), (o, s, o), (o, o, a), (s, o, a), (o, s, a))
    tilde = ((o, o, o), (t, o, o), (o, t, o), (a, a, a), (a, b, a), (b, a, a))
    return (("tolman-hat", Polytope(hat, name="tolman-hat")),
            ("tolman-tilde", Polytope(tilde, name="tolman-tilde")))


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
    """Facets and edges of the convex hull of 3D points, on the whole chamber.

    Every plane through three non-collinear points that supports the whole set
    is a facet (recorded as the frozenset of incident indices, so coplanar
    quadrilateral facets come out whole); edges are pairs of points shared by
    two facets. Intended for small inputs; a point that is not a triple, has a
    coordinate of degree > 1 or repeats another raises MalformedPolytopeError.

    The side of point m against the plane of i < j < k is the sign of the
    orientation determinant of (i, j, k, m). Each of the C(n, 4) determinants
    is computed and signed once, on its first use: triples go in lexicographic
    order and m ascending, so that is at its three smallest points, with m the
    largest. The sign then goes, with the parity of each reordering, to the
    three later triples of the four points.

    Coordinates are rationals (floats raise ``TypeError``) or degree <= 1
    ParamPolys, written once as ``exact.linear_forms`` and run as ints packed by
    ``exact.chamber_lattice``: each determinant is then a cubic form and each
    collinear comparison a quadratic one, signed on all of 0 < l1 < l2 or
    raising ParametricCombinatoricsUnstableError.
    """
    for m, p in enumerate(points):
        if len(p) != 3:
            raise MalformedPolytopeError(f"point {m} has {len(p)} coordinates, not 3")
        if any(isinstance(c, ParamPoly) and c.degree() > 1 for c in p):
            raise MalformedPolytopeError(
                f"point {m}: ({', '.join(map(str, p))}) has a coordinate of degree > 1")
    return _hull(linear_forms([c for p in points for c in p])[0])


def _hull(forms):
    """hull_combinatorics on the int forms of the coordinates, three per point in order;
    a ``Polytope`` passes the forms it keeps."""
    flat, sign = chamber_lattice(forms)
    pts = [tuple(flat[m:m + 3]) for m in range(0, len(flat), 3)]
    n = len(pts)
    if len(set(pts)) < n:
        m = next(m for m, p in enumerate(pts) if p in pts[:m])
        raise MalformedPolytopeError(f"point {m} repeats point {pts.index(pts[m])}")
    every = (1 << n) - 1
    above = [1 << m for m in range(n)]
    below = [1 << m + n for m in range(n)]
    planes = set()
    full_dim = False
    sides = {}      # triple -> points above its plane | points below it << n, as bit sets
    try:
        for i in range(n):
            xi, yi, zi = pts[i]
            rel = [(x - xi, y - yi, z - zi) for x, y, z in pts]
            for j in range(i + 1, n):
                xj, yj, zj = rel[j]
                for k in range(j + 1, n):
                    xk, yk, zk = rel[k]
                    a, b, c = yj * zk - zj * yk, zj * xk - xj * zk, xj * yk - yj * xk
                    if not (a or b or c):
                        continue
                    triple = above[i] | above[j] | above[k]
                    split = sides.get(triple, 0)    # no later determinant adds to it
                    for m in range(k + 1, n):
                        x, y, z = rel[m]
                        s = sign(a * x + b * y + c * z)
                        if not s:
                            continue
                        # the side of the r-th smallest of i < j < k < m against the other
                        # three, in ascending order, takes 3 - r swaps from this determinant
                        up, down = (above, below) if s > 0 else (below, above)
                        four = triple | above[m]
                        rest = four ^ above[i]
                        sides[rest] = sides.get(rest, 0) | down[i]
                        rest = four ^ above[j]
                        sides[rest] = sides.get(rest, 0) | up[j]
                        rest = four ^ above[k]
                        sides[rest] = sides.get(rest, 0) | down[k]
                        split |= up[m]
                    if split & every and split >> n:
                        full_dim = True
                        continue
                    planes.add(every & ~(split | split >> n))
        facets = {frozenset(m for m in range(n) if f >> m & 1) for f in planes}
        if not full_dim and len(facets) <= 1:
            raise NotFullDimensionalError("points do not affinely span 3-space")
        edges = set()
        for f1, f2 in combinations(facets, 2):
            common = sorted(f1 & f2)
            if len(common) < 2:
                continue
            if len(common) > 2:
                # collinear points on the facets' common line: the edge joins the extreme two
                base = pts[common[0]]
                line = _sub3(pts[common[-1]], base)
                key = {m: _dot3(_sub3(pts[m], base), line) for m in common}
                common.sort(key=cmp_to_key(lambda a, b: sign(key[a] - key[b])))
            edges.add((common[0], common[-1]))
    except ChamberSignError as exc:
        raise ParametricCombinatoricsUnstableError(f"hull combinatorics change: {exc}") from None
    return frozenset(facets), frozenset(edges)


def polytope_edges(p: Polytope):
    """Edges of the hull as sorted index pairs, the same on all of 0 < l1 < l2; computed
    once per polytope, which is frozen."""
    return p._edges


def _edge_direction(forms, den, i: int, j: int):
    """Primitive integer direction u with v_j - v_i == A * u for an area A > 0.

    The columns of the coefficient matrix of v_j - v_i must be multiples of one primitive
    u; u turns round where ``linear_sign`` finds A < 0, and A changing sign raises.
    """
    diff = [(y[0] - x[0], y[1] - x[1], y[2] - x[2])
            for x, y in zip(forms[3 * i:3 * i + 3], forms[3 * j:3 * j + 3])]
    for col in zip(*diff):
        if g := math.gcd(*col):
            break
    u = (col[0] // g, col[1] // g, col[2] // g)
    k = 0 if u[0] else 1 if u[1] else 2
    a, b, c = (x // u[k] for x in diff[k])
    if diff != [(a * t, b * t, c * t) for t in u]:
        raise ParametricCombinatoricsUnstableError(
            f"edge {i}-{j} direction varies with the parameters")
    if a < 0 or b < 0 or c < 0:
        try:
            if linear_sign((a, b, c), den) < 0:
                u = (-u[0], -u[1], -u[2])
        except ChamberSignError as exc:
            raise ParametricCombinatoricsUnstableError(f"edge {i}-{j} degenerates: {exc}") from None
    return u


def vertex_weights(p: Polytope, index: int, edges=None):
    """Outgoing primitive edge directions at a vertex, Delzant-checked.

    A smooth vertex of a 3-polytope has exactly three edges whose primitive
    directions form a lattice basis (determinant +-1).
    """
    if edges is None:
        edges = polytope_edges(p)
    neighbors = [j for i, j in edges if i == index] + [i for i, j in edges if j == index]
    return _vertex_directions(p, index, sorted(neighbors), {})


def _vertex_directions(p: Polytope, index: int, neighbors, known):
    """vertex_weights on the polytope's stored forms, given the sorted neighbors of
    the vertex, reusing ``known``.

    ``known`` maps (i, j) to the direction from v_i to v_j. An edge known from
    its other end is reused as -u: the area is the same from both ends and fixes
    the sign of u, so _edge_direction would return exactly that, or fail.
    """
    if bad := [k for k in (index, *neighbors) if not 0 <= k < len(p.vertices)]:
        raise IndexError(f"no vertex {bad[0]}")
    if index in neighbors:
        raise MalformedPolytopeError(f"edge {index}-{index} joins vertex {index} to itself")
    if len(neighbors) != 3:
        raise NotDelzantVertexError(
            f"vertex {index} has {len(neighbors)} edges, expected 3")
    dirs = []
    for j in neighbors:
        back = known.get((j, index))
        if back is None:
            u = known[(index, j)] = _edge_direction(p._forms, p._den, index, j)
        else:
            u = (-back[0], -back[1], -back[2])
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
    """Image and projected weights of one polytope vertex under a 2x3 map: ``forms`` are
    the int forms (a, b, c) of the image's two coordinates over ``den``, as
    ``exact.linear_forms`` writes them, and ``image`` makes their ParamPolys when read."""

    index: int
    forms: tuple
    den: int
    weights: tuple

    @property
    def image(self) -> tuple:
        return tuple(linear_poly(f, self.den) for f in self.forms)


def project_fixed_data(p: Polytope, matrix):
    """Apply a 2x3 integer matrix to every vertex and its edge directions.

    Projected weights are kept as-is (they need not be primitive).
    """
    rows = tuple(tuple(_as_int(c) for c in row) for row in matrix)
    if len(rows) != 2 or any(len(r) != 3 for r in rows):
        raise ValueError("projection must be a 2x3 integer matrix")
    neighbors = [[] for _ in p.vertices]
    for i, j in polytope_edges(p):
        neighbors[i].append(j)
        neighbors[j].append(i)
    (r0, r1, r2), (s0, s1, s2) = rows
    forms, den = p._forms, p._den
    data = []
    known = {}
    for idx, adjacent in enumerate(neighbors):
        dirs = _vertex_directions(p, idx, sorted(adjacent), known)
        # the image's forms: the rows applied to each column of the vertex's forms
        (x1, x2, x0), (y1, y2, y0), (z1, z2, z0) = forms[3 * idx:3 * idx + 3]
        image = ((r0 * x1 + r1 * y1 + r2 * z1, r0 * x2 + r1 * y2 + r2 * z2,
                  r0 * x0 + r1 * y0 + r2 * z0),
                 (s0 * x1 + s1 * y1 + s2 * z1, s0 * x2 + s1 * y2 + s2 * z2,
                  s0 * x0 + s1 * y0 + s2 * z0))
        weights = tuple((r0 * a + r1 * b + r2 * c, s0 * a + s1 * b + s2 * c) for a, b, c in dirs)
        data.append(VertexData(idx, image, den, weights))
    return tuple(data)


@dataclass(frozen=True)
class GlueReport:
    """Outcome of matching glued toric fixed-point data against a GKM graph."""

    ok: bool
    tilde_points: tuple
    hat_points: tuple
    matched: tuple
    problems: tuple


def _image_forms(side, vd):
    """The six ints of a ``VertexData``'s forms, and its den, or MalformedPolytopeError."""
    try:
        (a, b, c), (d, e, f) = vd.forms
        if ({type(a), type(b), type(c), type(d), type(e), type(f), type(vd.den)} == {int}
                and vd.den > 0):
            return (a, b, c, d, e, f), vd.den
    except (TypeError, ValueError):
        pass
    raise MalformedPolytopeError(f"{side} vertex {vd.index}: image forms {vd.forms!r} over"
                                 f" {vd.den!r} are not two int triples over a positive int")


def glue_check(hat_data, tilde_data) -> GlueReport:
    """Check that the two projected halves glue to the built-in fixed-point data.

    Keeps tilde vertices strictly below the cut level ``CUT``
    (second moment coordinate) and hat vertices strictly above, then matches
    the union against the built-in graph: every fixed point must be hit by
    exactly one surviving vertex with the same moment image, and the
    projected weight multiset must equal the multiset of outgoing primitive
    directions at that point. Each survivor, told apart by its position in
    the input, is matched at most once; one left over is reported as extra.

    Cut sides and matches are decided on the vertices' int ``forms``, brought to
    one den with the cut and the graph's forms; forms that are not two int
    triples over a positive int ``den`` raise MalformedPolytopeError.
    """
    reference = gkm.tolman_graph()
    rows = [(name, vd, want, *_image_forms(name, vd)) for name, data, want in
            (("tilde", tilde_data, -1), ("hat", hat_data, 1)) for vd in data]
    common = math.lcm(_CUT[1], reference._den, *(den for *_, den in rows))
    cu, cv, cw = (c * (common // _CUT[1]) for c in _CUT[0])
    ref_scale = common // reference._den

    kept = []
    # each image key -> the position in kept of its first survivor; the built-in
    # points have distinct images, so a later survivor with the same key is extra
    by_key = {}
    for side_name, vd, want, ints, den in rows:
        m = common // den
        key = tuple(c * m for c in ints)
        try:
            side = linear_sign((key[3] - cu, key[4] - cv, key[5] - cw), common)
        except ChamberSignError as exc:
            raise ParametricCombinatoricsUnstableError(
                f"{side_name} vertex {vd.index}: cut side changes: {exc}") from None
        if side == 0:
            raise VertexOnCutError(
                f"{side_name} vertex {vd.index}: level {vd.image[1]} lies on the cut level")
        if side == want:
            by_key.setdefault(key, len(kept))
            kept.append((side_name, vd))

    problems, matched, tilde_ids, hat_ids = [], [], [], []
    used = set()    # the positions in kept that matched a point
    for p in reference.points:
        want_dirs = tuple(d for _, d in reference._outgoing[p.id])
        key = tuple(c * ref_scale for form in reference._forms[p.id] for c in form)
        hit = by_key.get(key)
        if hit is None:
            problems.append(f"no surviving vertex maps to {p.id}")
            continue
        used.add(hit)
        side, vd = kept[hit]
        got_dirs = tuple(sorted(vd.weights))
        if got_dirs != want_dirs:
            problems.append(f"weights at {p.id} differ: {got_dirs} vs {want_dirs}")
            continue
        matched.append(p.id)
        (tilde_ids if side == "tilde" else hat_ids).append(p.id)
    problems += [f"extra {side} vertex {vd.index} survives the cut unmatched"
                 for n, (side, vd) in enumerate(kept) if n not in used]

    return GlueReport(not problems, tuple(tilde_ids), tuple(hat_ids), tuple(matched),
                      tuple(problems))


@cache
def builtin_projections():
    """``(hat_data, tilde_data)``: the built-in pair projected along L_HAT and L_TILDE by
    ``project_fixed_data``, once per process. Every input is a module constant and the
    frozen ``VertexData`` hold only ints and tuples of them, which are immutable."""
    polys = builtin_polytopes()
    return (project_fixed_data(polys["tolman-hat"], L_HAT),
            project_fixed_data(polys["tolman-tilde"], L_TILDE))


@cache
def builtin_glue_report() -> GlueReport:
    """Glue the built-in pair's projections (``builtin_projections``, made once per process)
    at the default cut, once per process: the frozen report holds only tuples."""
    return glue_check(*builtin_projections())
