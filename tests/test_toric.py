import dataclasses
import math
from fractions import Fraction
from functools import cmp_to_key, reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gkmloc import toric
from gkmloc.exact import (ChamberSignError, L1, L2, ParamPoly, chamber_lattice, chamber_sign,
                          linear_forms, linear_sign, primitive)
from gkmloc.gkm import outgoing_edges, tolman_graph
from gkmloc.toric import (
    CUT,
    L_HAT,
    L_TILDE,
    MalformedPolytopeError,
    NotDelzantVertexError,
    NotFullDimensionalError,
    ParametricCombinatoricsUnstableError,
    Polytope,
    VertexData,
    VertexOnCutError,
    builtin_glue_report,
    builtin_polytopes,
    builtin_projections,
    glue_check,
    hull_combinatorics,
    polytope_edges,
    project_fixed_data,
    vertex_weights,
)


def lin(c1, c2):
    return ParamPoly.linear(c1, c2)


def const(c):
    return ParamPoly.const(c)


def const_polytope(coords, name=""):
    return Polytope(
        tuple(tuple(const(c) for c in v) for v in coords), name=name)


def vertex(index, image, weights, scale=1):
    """A hand-built VertexData with the given pair of degree <= 1 coordinates, its forms
    written by linear_forms and then, with the den, multiplied by ``scale``."""
    forms, den = linear_forms(image)
    return VertexData(index, tuple(tuple(c * scale for c in f) for f in forms), den * scale,
                      weights)


HAT = builtin_polytopes()["tolman-hat"]
TILDE = builtin_polytopes()["tolman-tilde"]

HAT_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5),
             (3, 4), (3, 5), (4, 5))
TILDE_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 5), (2, 4),
               (3, 4), (3, 5), (4, 5))


# the apex crosses the face x + y + z = 2*l1 at the wall l2/l1 = 4
APEX = Polytope((
    (const(0), const(0), const(0)),
    (2 * L1, const(0), const(0)),
    (const(0), 2 * L1, const(0)),
    (const(0), const(0), 2 * L1),
    (L1, L1, 4 * L1 - L2),
))
# vertex 4, (l1, 0, 0), lies between vertices 0 and 1 on the edge line
SIMPLEX = Polytope((
    (const(0), const(0), const(0)),
    (L2, const(0), const(0)),
    (const(0), L1, const(0)),
    (const(0), const(0), L1),
    (L1, const(0), const(0)),
))
# (l2 - 2*l1, 0, 0) passes the origin at the wall l2/l1 = 2
CROSSING = Polytope(SIMPLEX.vertices[:4] + ((L2 - 2 * L1, const(0), const(0)),))


def reference_hull(points):
    """The triple search run directly on Fraction coordinates.

    Oracle for test_matches_the_rational_reference: the library runs the same
    search on the lcm-scaled integer lattice and must find the same facets
    and edges, and reject the same flat inputs.
    """
    def sub(u, v):
        return tuple(a - b for a, b in zip(u, v))

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    def cross(u, v):
        return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])

    pts = [tuple(Fraction(c) for c in p) for p in points]
    n = len(pts)
    if len(set(pts)) < n:
        m = next(m for m, p in enumerate(pts) if p in pts[:m])
        raise MalformedPolytopeError(f"point {m} repeats point {pts.index(pts[m])}")
    facets = set()
    full_dim = False
    for i, j, k in combinations(range(n), 3):
        normal = cross(sub(pts[j], pts[i]), sub(pts[k], pts[i]))
        if normal == (0, 0, 0):
            continue
        sides = [dot(normal, sub(pts[m], pts[i])) for m in range(n)]
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
            base = pts[common[0]]
            line = sub(pts[common[-1]], base)
            common.sort(key=lambda m: dot(sub(pts[m], base), line))
        edges.add((common[0], common[-1]))
    return frozenset(facets), frozenset(edges)


def triple_loop_hull(points):
    """The hull search that signs every side of every triple.

    Oracle for TestOrientationTable: for each triple i < j < k it signs the
    determinant of (i, j, k, m) for every m, three of them identically 0, so
    each orientation determinant is signed up to four times. The library signs
    each once and must find the same facets and edges and raise the same
    errors, with the same text.
    """
    flat, sign = chamber_lattice(linear_forms([c for p in points for c in p])[0])
    pts = [tuple(flat[m:m + 3]) for m in range(0, len(flat), 3)]
    n = len(pts)
    if len(set(pts)) < n:
        m = next(m for m, p in enumerate(pts) if p in pts[:m])
        raise MalformedPolytopeError(f"point {m} repeats point {pts.index(pts[m])}")

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1], u[2] - v[2])

    def dot(u, v):
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]

    facets = set()
    full_dim = False
    try:
        for i in range(n):
            rel = [sub(q, pts[i]) for q in pts]
            for j, k in combinations(range(i + 1, n), 2):
                (x1, y1, z1), (x2, y2, z2) = rel[j], rel[k]
                normal = (y1 * z2 - z1 * y2, z1 * x2 - x1 * z2, x1 * y2 - y1 * x2)
                if not any(normal):
                    continue
                sides = [sign(dot(normal, r)) for r in rel]
                if 1 in sides and -1 in sides:
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
                base = pts[common[0]]
                line = sub(pts[common[-1]], base)
                key = {m: dot(sub(pts[m], base), line) for m in common}
                common.sort(key=cmp_to_key(lambda a, b: sign(key[a] - key[b])))
            edges.add((common[0], common[-1]))
    except ChamberSignError as exc:
        raise ParametricCombinatoricsUnstableError(f"hull combinatorics change: {exc}") from None
    return frozenset(facets), frozenset(edges)


COORDS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
WEIGHTS = st.builds(Fraction, st.integers(-3, 7), st.integers(1, 7))


def _combine(base, coefficients, points):
    """base + sum of t * (p - base): stays in the affine span of the points."""
    return tuple(
        base[c] + sum(t * (p[c] - base[c]) for t, p in zip(coefficients, points))
        for c in range(3))


@st.composite
def point_sets(draw):
    """Small rational point sets with the degeneracies the search must handle.

    Four corners (a tetrahedron, or a flat one) and up to two free points,
    then points on a corner edge (collinear triples), in a corner face plane
    (coplanar quadruples, inside or beyond the face) and at averages of
    earlier points (interior points); sometimes the whole set is flattened.
    """
    point = st.tuples(COORDS, COORDS, COORDS)
    corners = draw(st.lists(point, min_size=4, max_size=4))
    points = corners + draw(st.lists(point, max_size=2))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("coplanar", "collinear", "interior")))
        if kind == "coplanar":
            a, b, c, _ = draw(st.permutations(corners))
            points.append(_combine(a, [draw(WEIGHTS), draw(WEIGHTS)], [b, c]))
        elif kind == "collinear":
            a, b, _, _ = draw(st.permutations(corners))
            t = draw(st.builds(Fraction, st.integers(0, 7), st.just(7)))
            points.append(_combine(a, [t], [b]))
        else:
            chosen = draw(st.lists(st.sampled_from(points), min_size=2, max_size=4))
            points.append(tuple(sum(p[c] for p in chosen) / len(chosen)
                                for c in range(3)))
    if draw(st.booleans()) and draw(st.booleans()):
        # flatten onto the plane z = a*x + b*y + c
        a, b, c = draw(COORDS), draw(COORDS), draw(COORDS)
        points = [(x, y, a * x + b * y + c) for x, y, _ in points]
    return draw(st.permutations(points))


class TestHullCombinatorics:
    def test_tetrahedron(self):
        facets, edges = hull_combinatorics(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert len(facets) == 4
        assert len(edges) == 6

    def test_cube_with_square_facets(self):
        corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        facets, edges = hull_combinatorics(corners)
        assert len(facets) == 6
        assert all(len(f) == 4 for f in facets)
        assert len(edges) == 12

    def test_interior_points_ignored(self):
        corners = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        facets, edges = hull_combinatorics(corners + [(1, 1, 1)])
        assert len(facets) == 6
        assert len(edges) == 12
        assert all(8 not in f for f in facets)

    def test_flat_input_rejected(self):
        with pytest.raises(NotFullDimensionalError):
            hull_combinatorics([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            hull_combinatorics([(0, 0, 0), (1.5, 0, 0), (0, 1, 0), (0, 0, 1)])

    @settings(max_examples=150)
    @given(point_sets())
    def test_matches_the_rational_reference(self, points):
        assert hull_or_error(hull_combinatorics, points) == hull_or_error(reference_hull, points)

    def test_repeated_point_rejected(self):
        # a copy of a point would take every edge of the first copy out of the hull
        with pytest.raises(MalformedPolytopeError) as err:
            hull_combinatorics([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
        assert str(err.value) == "point 4 repeats point 0"
        with pytest.raises(MalformedPolytopeError, match="point 6 repeats point 0"):
            hull_combinatorics(HAT.vertices + (HAT.vertices[0],))

    def test_point_that_is_not_a_triple_rejected(self):
        # checked before any conversion: flattening 2-D points would regroup them by three
        plane = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        with pytest.raises(MalformedPolytopeError) as err:
            hull_combinatorics(plane)
        assert str(err.value) == "point 0 has 2 coordinates, not 3"
        with pytest.raises(MalformedPolytopeError) as err:
            hull_combinatorics([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1, 1)])
        assert str(err.value) == "point 3 has 4 coordinates, not 3"
        with pytest.raises(MalformedPolytopeError, match="point 2 has 2 coordinates"):
            hull_combinatorics(HAT.vertices[:2] + (HAT.vertices[2][:2],) + HAT.vertices[3:])

    def test_coordinate_of_degree_two_rejected(self):
        # named as Polytope names it, by the first point with such a coordinate
        points = (HAT.vertices[:4] + ((lin(1, 0), L1 * L2, lin(0, 1)), (L2 ** 2, L1, L1))
                  + HAT.vertices[4:])
        with pytest.raises(MalformedPolytopeError) as err:
            hull_combinatorics(points)
        assert str(err.value) == "point 4: (l1, l1*l2, l2) has a coordinate of degree > 1"
        with pytest.raises(MalformedPolytopeError) as err:
            Polytope(points)
        assert str(err.value) == "vertex 4: (l1, l1*l2, l2) has a coordinate of degree > 1"
        # a rational coordinate has degree 0
        assert hull_combinatorics([(0, 0, 0), (1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1)])


class TestBuiltinPolytopes:
    def test_built_once_per_process(self):
        first, second = builtin_polytopes(), builtin_polytopes()
        assert first is not second and first == second
        assert all(first[name] is second[name] for name in ("tolman-hat", "tolman-tilde"))
        first["tolman-hat"] = first.pop("tolman-tilde")
        assert builtin_polytopes() == second
        assert builtin_polytopes()["tolman-hat"] is HAT

    def test_vertex_counts(self):
        assert len(HAT.vertices) == 6
        assert len(TILDE.vertices) == 6
        assert HAT.name == "tolman-hat"

    def test_edges(self):
        assert polytope_edges(HAT) == HAT_EDGES
        assert polytope_edges(TILDE) == TILDE_EDGES

    def test_chopped_corner_edge_lengths(self):
        # the triangle replacing the chopped corner has side length l2 - l1
        v3, v4, v5 = TILDE.vertices[3], TILDE.vertices[4], TILDE.vertices[5]
        assert tuple(v4[c] - v3[c] for c in range(3)) == \
            (ParamPoly.zero(), lin(-1, 1), ParamPoly.zero())
        assert tuple(v5[c] - v3[c] for c in range(3)) == \
            (lin(-1, 1), ParamPoly.zero(), ParamPoly.zero())

    def test_vertex_weights(self):
        assert vertex_weights(HAT, 0) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert vertex_weights(HAT, 4) == ((0, 0, -1), (-1, 0, 0), (-1, 1, 0))
        assert vertex_weights(TILDE, 3) == ((-1, -1, -1), (0, 1, 0), (1, 0, 0))

    def test_all_vertices_are_delzant(self):
        for poly in (HAT, TILDE):
            edges = polytope_edges(poly)
            for idx in range(6):
                assert len(vertex_weights(poly, idx, edges)) == 3

    def test_vertex_validation(self):
        with pytest.raises(TypeError):
            Polytope(((lin(1, 0), lin(0, 1)),))
        with pytest.raises(MalformedPolytopeError, match="degree > 1"):
            Polytope(((lin(1, 0), lin(0, 1), L1 * L2),))

    def test_repeated_vertex_rejected(self):
        # accepted, the copy would take vertex 0's edges out of the hull and the
        # projection would report "vertex 0 has 1 edges, expected 3"
        with pytest.raises(MalformedPolytopeError) as err:
            Polytope(HAT.vertices + (HAT.vertices[0],))
        assert str(err.value) == "vertex 6 repeats vertex 0"
        # equal values written differently are the same vertex
        with pytest.raises(MalformedPolytopeError) as err:
            Polytope(((L1, const(0), const(0)), (const(0), L2, const(0)),
                      ((2 * L1 + L2) / 2 - L2 / 2, const(Fraction(0, 3)), L1 - L1)))
        assert str(err.value) == "vertex 2 repeats vertex 0"

    def test_stored_forms_are_not_fields(self):
        forms, den = linear_forms([c for v in TILDE.vertices for c in v])
        assert TILDE._forms == tuple(forms) and TILDE._den == den == 1
        # (a, b, c) / den is (a*l1 + b*l2 + c) / den: vertex 4 is (l1, l2, l1)
        assert TILDE._forms[12:15] == ((1, 0, 0), (0, 1, 0), (1, 0, 0))
        thirds = Polytope(((L1 / 3, L2 / 2, const(Fraction(1, 6))),))
        assert thirds._den == 6 and thirds._forms == ((2, 0, 0), (0, 3, 0), (0, 0, 1))
        rebuilt = Polytope(list(map(list, TILDE.vertices)), TILDE.name)
        assert rebuilt == TILDE and hash(rebuilt) == hash(TILDE) and repr(rebuilt) == repr(TILDE)
        assert not any(name in repr(TILDE) for name in ("_forms", "_den"))
        assert [f.name for f in dataclasses.fields(TILDE)] == ["vertices", "name"]

    def test_construction_errors_keep_their_text(self):
        square = (lin(1, 0), lin(0, 1), L1 * L2)
        with pytest.raises(MalformedPolytopeError) as err:
            Polytope(((const(0), const(0), const(0)), square, (L2 ** 2, const(0), const(0))))
        assert str(err.value) == "vertex 1: (l1, l2, l1*l2) has a coordinate of degree > 1"
        for bad in (((lin(1, 0), lin(0, 1), 3),), ((lin(1, 0), lin(0, 1)),)):
            with pytest.raises(TypeError) as err:
                Polytope(bad)
            assert str(err.value) == "vertices must be triples of ParamPoly"


class TestDelzantChecks:
    def test_four_edges_at_a_vertex(self):
        pyramid = const_polytope([
            (0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
            (Fraction(1, 2), Fraction(1, 2), 1),
        ])
        with pytest.raises(NotDelzantVertexError):
            vertex_weights(pyramid, 4)

    def test_non_unimodular_corner(self):
        tet = const_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)])
        with pytest.raises(NotDelzantVertexError):
            vertex_weights(tet, 0)

    def test_degenerate_edge_names_the_wall(self):
        # v_1 - v_0 = (3*l1 - l2) * (1, 0, 0) vanishes at l2 = 3*l1
        p = Polytope(((const(0), const(0), const(0)), (3 * L1 - L2, const(0), const(0)),
                      (const(0), const(1), const(0)), (const(0), const(0), const(1))))
        with pytest.raises(ParametricCombinatoricsUnstableError,
                           match=r"^edge 0-1 degenerates: .* wall l2/l1 = 3$") as got:
            vertex_weights(p, 0, edges=((0, 1), (0, 2), (0, 3)))
        with pytest.raises(ParametricCombinatoricsUnstableError) as want:
            reference_edge_direction(p, 0, 1)
        assert str(got.value) == str(want.value)

    def test_unknown_vertex_index(self):
        with pytest.raises(IndexError):
            vertex_weights(HAT, 17)

    @pytest.mark.parametrize("neighbor", [17, 6, -1])
    def test_unknown_neighbor_index(self, neighbor):
        # checked before any direction: an empty slice of forms would read as the zero vector
        with pytest.raises(IndexError) as err:
            vertex_weights(HAT, 0, edges=((0, 1), (0, 2), (0, neighbor)))
        assert str(err.value) == f"no vertex {neighbor}"

    @pytest.mark.parametrize("edges", [((0, 1), (0, 0)), ((0, 0), (0, 1), (0, 2), (0, 3))])
    def test_self_loop_edge(self, edges):
        # checked before the edge count, so a loop is never taken for a fourth edge
        # or for an edge of zero direction
        with pytest.raises(MalformedPolytopeError) as err:
            vertex_weights(HAT, 0, edges=edges)
        assert str(err.value) == "edge 0-0 joins vertex 0 to itself"

    def test_parameter_dependent_combinatorics_detected(self):
        # fifth point sits inside the simplex at (1, 2) and outside at (1, 3)
        t = lin(Fraction(-7, 4), 1)
        probe = Polytope((
            (const(0), const(0), const(0)),
            (const(1), const(0), const(0)),
            (const(0), const(1), const(0)),
            (const(0), const(0), const(1)),
            (t, t, t),
        ))
        with pytest.raises(ParametricCombinatoricsUnstableError):
            polytope_edges(probe)

    def test_apex_that_both_samples_missed(self):
        # the apex is beyond the face x + y + z = 2*l1 for l2 < 4*l1 and below
        # z = 0 for l2 > 4*l1: the samples (1, 2) and (1, 3) agreed on edge
        # (3, 4), which (0, 4) replaces at (1, 5)
        sides = [hull_combinatorics([tuple(c.evaluate(*at) for c in v) for v in APEX.vertices])[1]
                 for at in ((1, 2), (1, 3), (1, 5))]
        assert sides[0] == sides[1] and (3, 4) in sides[0]
        assert (3, 4) not in sides[2] and (0, 4) in sides[2]
        with pytest.raises(ParametricCombinatoricsUnstableError, match=r"wall l2/l1 = 4$"):
            polytope_edges(APEX)

    def test_three_collinear_vertices_on_an_edge_line(self):
        # (l1, 0, 0) lies between (0, 0, 0) and (l2, 0, 0) on the whole chamber;
        # the endpoint order compares l1^2 with l1*l2
        facets, _ = hull_combinatorics(SIMPLEX.vertices)
        assert {0, 1, 4} <= max(facets, key=len)
        assert polytope_edges(SIMPLEX) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        with pytest.raises(ParametricCombinatoricsUnstableError, match=r"wall l2/l1 = 2$"):
            polytope_edges(CROSSING)


def reference_edge_direction(p, i, j):
    """The ParamPoly route to the direction and area of edge i-j.

    The difference v_j - v_i is taken as ParamPolys, its value at (1, 2) gives
    the primitive direction u, and the area A = diff[k] / u[k] must satisfy
    diff == A * u as a polynomial identity and be positive on the chamber.
    """
    diff = tuple(p.vertices[j][c] - p.vertices[i][c] for c in range(3))
    sample = [c.evaluate(1, 2) for c in diff]
    den = math.lcm(*(q.denominator for q in sample))
    u, _ = primitive([int(q * den) for q in sample])
    k = next(c for c in range(3) if u[c])
    area = diff[k] / u[k]
    if any(diff[c] != area * u[c] for c in range(3)):
        raise ParametricCombinatoricsUnstableError(
            f"edge {i}-{j} direction varies with the parameters")
    try:
        assert chamber_sign(area) == 1
    except ChamberSignError as exc:
        raise ParametricCombinatoricsUnstableError(
            f"edge {i}-{j} degenerates: {exc}") from None
    return u, area


def reference_project_fixed_data(p, matrix):
    """project_fixed_data with every edge direction computed from both ends.

    Oracle for test_matches_the_two_ended_reference: each vertex calls
    reference_edge_direction, the ParamPoly route, from its own end of each
    of its edges, so every edge is computed twice, and the Delzant checks
    raise the library's errors. Images are ParamPoly sums, and each vertex gives
    (index, image, weights).
    """
    edges = polytope_edges(p)
    data = []
    for idx, vertex in enumerate(p.vertices):
        neighbors = sorted([j for i, j in edges if i == idx]
                           + [i for i, j in edges if j == idx])
        if len(neighbors) != 3:
            raise NotDelzantVertexError(
                f"vertex {idx} has {len(neighbors)} edges, expected 3")
        dirs = tuple(reference_edge_direction(p, idx, j)[0] for j in neighbors)
        (a, b, c), (d, e, f), (g, h, k) = dirs
        det = a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)
        if det not in (1, -1):
            raise NotDelzantVertexError(
                f"vertex {idx}: edge directions {dirs} have determinant {det}")
        image = tuple(sum((vertex[c] * row[c] for c in range(3)), ParamPoly.zero())
                      for row in matrix)
        weights = tuple(tuple(sum(row[c] * u[c] for c in range(3)) for row in matrix)
                        for u in dirs)
        data.append((idx, image, weights))
    return data


def moved(p, m):
    """The polytope with every vertex v replaced by the integer matrix m times v."""
    return Polytope(tuple(
        tuple(sum((row[c] * v[c] for c in range(3)), ParamPoly.zero()) for row in m)
        for v in p.vertices))


# unimodular 3x3 matrices, including orientation-reversing ones
GL3_MOVES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 2, 0), (0, 1, 0), (-1, -1, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((2, 1, 1), (1, 1, 0), (-3, 0, -2)),
    ((-1, 0, 3), (2, 1, -5), (0, 0, 1)),
)


def matmul(x, y):
    return tuple(tuple(sum(x[r][k] * y[k][c] for k in range(len(y))) for c in range(len(y[0])))
                 for r in range(len(x)))


def inverse3(m):
    """Inverse of a unimodular integer 3x3 matrix: its adjugate times the determinant."""
    def minor(r, c):
        (a, b), (d, e) = [[m[i][j] for j in range(3) if j != c] for i in range(3) if i != r]
        return a * e - b * d

    det = sum((-1) ** c * m[0][c] * minor(0, c) for c in range(3))
    assert det in (1, -1)
    return tuple(tuple(det * (-1) ** (r + c) * minor(c, r) for c in range(3)) for r in range(3))


# GL3(Z) generators: elementary moves, a swap and a sign change
GL3_GENERATORS = (
    ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 1, -1), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (2, 0, 1)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    ((1, 0, 0), (0, -1, 0), (0, 0, 1)),
)
GL3_WORDS = st.lists(st.sampled_from(GL3_GENERATORS), max_size=8).map(
    lambda word: reduce(matmul, word, GL3_MOVES[0]))

# chamber points l2/l1 from just above 1 to far out, at two scales of l1
CHAMBER_GRID = tuple((l1, l1 * r) for l1 in (1, Fraction(3, 7))
                     for r in (Fraction(1001, 1000), Fraction(3, 2), 2, 3, 5, 1000))


class TestCertifiedOnTheChamber:
    """The certified edges are the hull's edges at every point of the chamber grid."""

    @staticmethod
    def assert_certified(p):
        edges = polytope_edges(p)
        for at in CHAMBER_GRID:
            points = [tuple(c.evaluate(*at) for c in v) for v in p.vertices]
            assert tuple(sorted(hull_combinatorics(points)[1])) == edges, at

    def test_builtin_pair_under_the_moves(self):
        for poly in (HAT, TILDE):
            for m in GL3_MOVES:
                self.assert_certified(moved(poly, m))

    @settings(max_examples=60)
    @given(GL3_WORDS, st.sampled_from(("tolman-hat", "tolman-tilde")))
    def test_builtin_pair_under_random_words(self, m, name):
        self.assert_certified(moved(builtin_polytopes()[name], m))


def projective_bundle(k, a, b):
    """The Delzant polytope {x, y >= 0, 0 <= z <= B, x + y <= A + k*z} of P(O + O(k))
    over CP^2, for an int k and degree <= 1 ParamPolys A = a and B = b."""
    o, top = ParamPoly.zero(), a + k * b
    return Polytope(((o, o, o), (a, o, o), (o, a, o), (o, o, b), (top, o, b), (o, top, b)))


class TestProjectiveBundleFamily:
    """The toric P(O + O(k)) over CP^2: the built-in halves are members, and the members
    are Delzant on the whole chamber, also after a GL3(Z) move."""

    def test_hat_is_the_trivial_bundle(self):
        assert projective_bundle(0, lin(1, 1), lin(1, 0)).vertices == HAT.vertices

    def test_tilde_is_the_twist_by_minus_three(self):
        # (x, y, z) -> (x - z, y - z, z)
        shear = ((1, 0, -1), (0, 1, -1), (0, 0, 1))
        family = projective_bundle(-3, lin(2, 1), lin(1, 0))
        assert set(moved(TILDE, shear).vertices) == set(family.vertices)

    def test_every_twist_is_delzant(self):
        for k in range(-4, 5):
            family = projective_bundle(k, lin(4, 1), lin(1, 0))
            for m in GL3_MOVES:
                poly = moved(family, m)
                assert len(polytope_edges(poly)) == 9, (k, m)
                assert all(len(vertex_weights(poly, i)) == 3 for i in range(6)), (k, m)


# half of them constant, so that some hulls are stable on the whole chamber
LINEAR_COORDS = st.one_of(st.integers(-2, 2).map(ParamPoly.const), st.builds(
    ParamPoly.linear, st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)))


def hull_or_error(hull, points):
    try:
        return hull(points)
    except (MalformedPolytopeError, NotFullDimensionalError,
            ParametricCombinatoricsUnstableError) as exc:
        return type(exc), str(exc)


class TestOrientationTable:
    """The hull signs each orientation determinant once and agrees with the
    triple loop on facets, edges and the type and text of every error."""

    @staticmethod
    def assert_as_triple_loop(points):
        assert hull_or_error(hull_combinatorics, points) == hull_or_error(triple_loop_hull, points)

    @settings(max_examples=150)
    @given(point_sets())
    def test_rational_point_sets(self, points):
        self.assert_as_triple_loop(points)

    @settings(max_examples=150)
    @given(st.lists(st.tuples(LINEAR_COORDS, LINEAR_COORDS, LINEAR_COORDS),
                    min_size=4, max_size=7))
    def test_parametric_point_sets(self, points):
        # mostly unstable: the first determinant that changes sign names the wall
        self.assert_as_triple_loop(points)

    def test_walls_and_moved_builtins(self):
        for p in (APEX, SIMPLEX, CROSSING):
            self.assert_as_triple_loop(p.vertices)
        for poly in (HAT, TILDE):
            for m in GL3_MOVES:
                self.assert_as_triple_loop(moved(poly, m).vertices)

    def test_each_determinant_signed_once(self, monkeypatch):
        signed = []

        def counted(forms):
            ints, sign = chamber_lattice(forms)
            return ints, lambda n: signed.append(n) or sign(n)

        monkeypatch.setattr(toric, "chamber_lattice", counted)
        for poly in (HAT, TILDE):
            for m in GL3_MOVES:
                # the public hull on the vertices, then a fresh polytope's hull on its forms
                for hull in (lambda p: hull_combinatorics(p.vertices), polytope_edges):
                    signed.clear()
                    hull(moved(poly, m))
                    # no three vertices are collinear: C(6, 4) determinants, no order test
                    assert len(signed) == math.comb(6, 4)


class TestHullOnStoredForms:
    """A polytope's hull runs on the forms it keeps from construction and finds what
    hull_combinatorics finds on its vertices, facets and edges, or the same error."""

    @staticmethod
    def assert_as_on_vertices(p):
        want = hull_or_error(hull_combinatorics, p.vertices)
        assert hull_or_error(toric._hull, p._forms) == want
        raised = isinstance(want[0], type)
        assert hull_or_error(polytope_edges, p) == (want if raised else tuple(sorted(want[1])))

    def test_builtin_pair_under_the_moves(self):
        for poly in (HAT, TILDE):
            for m in GL3_MOVES:
                self.assert_as_on_vertices(moved(poly, m))

    def test_projective_bundle_family(self):
        for k in range(-4, 5):
            for m in GL3_MOVES:
                self.assert_as_on_vertices(moved(projective_bundle(k, lin(4, 1), lin(1, 0)), m))

    def test_unstable_polytopes_raise_the_same_error(self):
        for p in (APEX, CROSSING):
            want = hull_or_error(hull_combinatorics, p.vertices)
            assert want[0] is ParametricCombinatoricsUnstableError
            self.assert_as_on_vertices(p)


class TestNoSamplePoints:
    def test_glue_never_evaluates(self, monkeypatch):
        """The toric pipeline decides everything on the chamber: no value of a
        ParamPoly at a sample point is ever taken."""
        def no_samples(*args):
            raise AssertionError("ParamPoly.evaluate called")

        monkeypatch.setattr(ParamPoly, "evaluate", no_samples)
        builtin_projections.cache_clear()   # so that the pipeline runs under the patch
        builtin_glue_report.cache_clear()
        assert builtin_glue_report().ok
        for m_hat, m_tilde in zip(GL3_MOVES, GL3_MOVES[::-1]):
            report = glue_check(
                project_fixed_data(moved(HAT, m_hat), matmul(L_HAT, inverse3(m_hat))),
                project_fixed_data(moved(TILDE, m_tilde), matmul(L_TILDE, inverse3(m_tilde))))
            assert report.ok and report.matched == builtin_glue_report().matched


class TestNoProducts:
    def test_toric_path_builds_no_parampoly_product(self, monkeypatch):
        """Construction, hull, projection and glue run on int forms: with
        ParamPoly products disabled, every GL3(Z)-moved pair still glues."""
        def no_product(*args):
            raise AssertionError("ParamPoly product")

        pairs = [(moved(HAT, m_hat).vertices, moved(TILDE, m_tilde).vertices,
                  matmul(L_HAT, inverse3(m_hat)), matmul(L_TILDE, inverse3(m_tilde)))
                 for m_hat, m_tilde in zip(GL3_MOVES, GL3_MOVES[::-1])]
        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(ParamPoly, name, no_product)
        with pytest.raises(AssertionError, match="ParamPoly product"):
            L1 * L2
        with pytest.raises(AssertionError, match="ParamPoly product"):
            2 * L1
        for hat, tilde, to_hat, to_tilde in pairs:
            hat, tilde = Polytope(hat), Polytope(tilde)
            assert len(polytope_edges(hat)) == len(polytope_edges(tilde)) == 9
            report = glue_check(project_fixed_data(hat, to_hat),
                                project_fixed_data(tilde, to_tilde))
            assert report.ok and report.matched == ("x00", "x03", "x11", "x13", "x21", "x40")

    def test_projection_and_glue_build_no_parampoly(self, monkeypatch):
        """A projected vertex keeps its image as int forms: with ParamPoly construction
        disabled, every GL3(Z)-moved pair still projects and glues."""
        def no_parampoly(*args):
            raise AssertionError("ParamPoly built")

        pairs = [(moved(HAT, m_hat), moved(TILDE, m_tilde),
                  matmul(L_HAT, inverse3(m_hat)), matmul(L_TILDE, inverse3(m_tilde)))
                 for m_hat, m_tilde in zip(GL3_MOVES, GL3_MOVES[::-1])]
        monkeypatch.setattr(ParamPoly, "_make", no_parampoly)
        with pytest.raises(AssertionError, match="ParamPoly built"):
            L1 + L2
        for hat, tilde, to_hat, to_tilde in pairs:
            report = glue_check(project_fixed_data(hat, to_hat),
                                project_fixed_data(tilde, to_tilde))
            assert report.ok and report.matched == ("x00", "x03", "x11", "x13", "x21", "x40")


def packed_in_chamber_coordinates(p):
    """Oracle for chamber_lattice on a polytope's coordinates: each coordinate's (u, v, w)
    coefficients (u = l1, v = l2 - l1, w = 1), read off its values at (l1, l2) = (1, 1),
    (0, 1) and (0, 0), times the lcm of the coefficients' denominators, packed as
    u*X**4 + v*X + w with X = 2**k, k three times the largest bit length plus 12."""
    coords = [c for v in p.vertices for c in v]
    den = math.lcm(*(q.denominator for c in coords for _, q in c.terms()))
    forms = []
    for c in coords:
        w = c.evaluate(0, 0)
        forms.append(tuple(int(x * den) for x in (c.evaluate(1, 1) - w, c.evaluate(0, 1) - w, w)))
    k = 3 * max(abs(x) for f in forms for x in f).bit_length() + 12
    return [(u << 4 * k) + (v << k) + w for u, v, w in forms]


class TestChamberLattice:
    def test_packs_the_chamber_coordinates(self):
        """Forms stored as (l1, l2, 1) coefficients pack as the (u, v, w) forms would, so
        every hull sign call sees the same ints, for the built-in pair and its moves."""
        pairs = [(HAT, TILDE)] + [(moved(HAT, m_hat), moved(TILDE, m_tilde))
                                  for m_hat, m_tilde in zip(GL3_MOVES, GL3_MOVES[::-1])]
        for pair in pairs:
            for p in pair:
                assert chamber_lattice(p._forms)[0] == packed_in_chamber_coordinates(p)


class TestProjection:
    def test_matches_the_two_ended_reference(self):
        for poly in (HAT, TILDE):
            for m in GL3_MOVES:
                p = moved(poly, m)
                for matrix in (L_HAT, L_TILDE, ((2, -1, 0), (1, 3, -1))):
                    got = project_fixed_data(p, matrix)
                    assert [(vd.index, vd.image, vd.weights) for vd in got] == \
                        reference_project_fixed_data(p, matrix), (poly.name, m, matrix)
                    assert {vd.den for vd in got} == {p._den}

    def test_same_error_as_the_two_ended_reference(self):
        # the first fails at vertex 0; the second at vertex 2, whose edges to
        # 0 and 1 were computed from their other ends; in the third, edge 0-1
        # points along (1, 2, 0) at (1, 2) and (1, 3, 0) at (1, 3)
        bad = (
            const_polytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 2)]),
            const_polytope([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]),
            Polytope(((const(0), const(0), const(0)), (lin(1, 0), lin(0, 1), const(0)),
                      (const(0), const(0), const(1)), (const(-1), const(0), const(0)))),
        )
        def raised(project, p):
            try:
                project(p, L_TILDE)
            except (NotDelzantVertexError, ParametricCombinatoricsUnstableError) as exc:
                return type(exc), str(exc)
            pytest.fail("no error raised")

        for p in bad:
            assert raised(project_fixed_data, p) == \
                raised(reference_project_fixed_data, p)

    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            project_fixed_data(TILDE, ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            project_fixed_data(TILDE, ((1, 0, 0),))

    def test_non_integral_matrix_rejected(self):
        # int() would truncate the row (1.5, 0, 1) to (1, 0, 1), that is L_HAT
        for matrix in (((1.5, 0, 1), (0, 1, 0)), ((1, 0, 1), (0, Fraction(1, 2), 0))):
            with pytest.raises(TypeError):
                project_fixed_data(HAT, matrix)
        assert project_fixed_data(HAT, ((Fraction(1), 0, 1), (0, 1, 0))) == \
            project_fixed_data(HAT, L_HAT)

    def test_bool_matrix_rejected(self):
        with pytest.raises(TypeError):
            project_fixed_data(HAT, ((True, False, True), (False, True, False)))

    def test_tilde_vertex_one(self):
        data = project_fixed_data(TILDE, L_TILDE)
        vd = data[1]
        assert vd.image == (lin(2, 1), lin(0, 0))
        assert sorted(vd.weights) == [(-2, 1), (-1, 0), (-1, 1)]

    def test_hat_vertex_five(self):
        data = project_fixed_data(HAT, L_HAT)
        vd = data[5]
        assert vd.image == (lin(1, 0), lin(1, 1))
        assert sorted(vd.weights) == [(-1, 0), (0, -1), (1, -1)]


def reference_side_of_cut(side_name, vd):
    """The per-vertex cut side: one linear_forms call on the level and the cut."""
    level = vd.image[1]
    (form, cut), den = linear_forms([level, CUT])
    try:
        side = linear_sign((form[0] - cut[0], form[1] - cut[1], form[2] - cut[2]), den)
    except ChamberSignError as exc:
        raise ParametricCombinatoricsUnstableError(
            f"{side_name} vertex {vd.index}: cut side changes: {exc}") from None
    if side == 0:
        raise VertexOnCutError(f"{side_name} vertex {vd.index}: level {level} lies on the cut level")
    return side


def reference_glue_check(hat_data, tilde_data):
    """glue_check with every vertex's forms checked first, each cut side decided on its
    own ParamPoly image, and survivors, told apart by position, matched to the built-in
    graph's points by ParamPoly tuple equality, one point at a time."""
    reference = tolman_graph()
    rows = [(side_name, vd, want) for side_name, data, want in
            (("tilde", tilde_data, -1), ("hat", hat_data, 1)) for vd in data]
    for side_name, vd, _ in rows:
        if not (type(vd.den) is int and vd.den >= 1 and len(vd.forms) == 2
                and all(len(f) == 3 and all(type(c) is int for c in f) for f in vd.forms)):
            raise MalformedPolytopeError(
                f"{side_name} vertex {vd.index}: image forms {vd.forms!r} over {vd.den!r}"
                " are not two int triples over a positive int")
    kept = [(side_name, vd) for side_name, vd, want in rows
            if reference_side_of_cut(side_name, vd) == want]
    problems, matched, tilde_ids, hat_ids, used = [], [], [], [], set()
    for p in reference.points:
        want_dirs = tuple(sorted(d for _, d in outgoing_edges(reference, p.id)))
        hits = [n for n, (_, vd) in enumerate(kept)
                if vd.image == p.moment_image and n not in used]
        if not hits:
            problems.append(f"no surviving vertex maps to {p.id}")
            continue
        used.add(hits[0])
        side, vd = kept[hits[0]]
        got_dirs = tuple(sorted(vd.weights))
        if got_dirs != want_dirs:
            problems.append(f"weights at {p.id} differ: {got_dirs} vs {want_dirs}")
            continue
        matched.append(p.id)
        (tilde_ids if side == "tilde" else hat_ids).append(p.id)
    problems += [f"extra {side} vertex {vd.index} survives the cut unmatched"
                 for n, (side, vd) in enumerate(kept) if n not in used]
    return toric.GlueReport(not problems, tuple(tilde_ids), tuple(hat_ids), tuple(matched),
                            tuple(problems))


def glue_or_error(check, hat_data, tilde_data):
    try:
        return check(hat_data, tilde_data)
    except (VertexOnCutError, ParametricCombinatoricsUnstableError,
            MalformedPolytopeError) as exc:
        return type(exc), str(exc)


HAT_DATA = project_fixed_data(HAT, L_HAT)
TILDE_DATA = project_fixed_data(TILDE, L_TILDE)
# the hand-built cases of TestGlue and more, each as (hat data, tilde data)
HAND_BUILT = {
    "moved vertex": (HAT_DATA, TILDE_DATA[:3] + (
        vertex(3, (lin(2, 0), lin(1, 0)), TILDE_DATA[3].weights),) + TILDE_DATA[4:]),
    "wrong weights": (HAT_DATA, TILDE_DATA[:3] + (
        dataclasses.replace(TILDE_DATA[3], weights=((5, 5),) + TILDE_DATA[3].weights[1:]),)
        + TILDE_DATA[4:]),
    "on cut": (HAT_DATA, TILDE_DATA + (vertex(9, (lin(0, 0), CUT), ()),)),
    "wobble": (HAT_DATA, TILDE_DATA + (vertex(9, (lin(0, 0), lin(3, Fraction(-1, 2))), ()),)),
    # level - cut is l2 - l1: zero on the wall l2 = l1 that bounds the chamber, so
    # the vertex is above the cut on all of 0 < l1 < l2, and left over
    "touch": (HAT_DATA + (vertex(9, (lin(0, 0), CUT + L2 - L1), ()),), TILDE_DATA),
    "fractional first coordinate": (
        HAT_DATA + (VertexData(9, ((Fraction(1, 2), 0, 0), (0, 1, 0)), 1, ((1, 0),)),),
        TILDE_DATA),
    # a second image of x11, and an image over 3, so the rows' dens differ
    "second x11, thirds": (HAT_DATA, TILDE_DATA + (
        dataclasses.replace(TILDE_DATA[3], index=7), vertex(8, (L1 / 3, L1 / 3 - 1), ()))),
    "not a pair": (HAT_DATA + (VertexData(9, ((0, 0, 0), (1, 1, 0), (1, 0, 0)), 1, ()),),
                   TILDE_DATA),
    # survivors told apart by position: x00's tilde vertex twice, x11's vertex again
    # under index 0, and every tilde vertex twice (four of them survive)
    "duplicate survivor": (HAT_DATA, TILDE_DATA + (TILDE_DATA[0],)),
    "duplicate image": (HAT_DATA, TILDE_DATA + (dataclasses.replace(TILDE_DATA[3], index=0),)),
    "every tilde vertex twice": (HAT_DATA, TILDE_DATA + TILDE_DATA),
}
# image coordinates for the hypothesis test: linear over denominators 1 to 3, and
# the built-in points' coordinates and the cut
IMAGE_COORDS = st.one_of(
    st.builds(lambda a, b, c, d: ParamPoly.linear(a, b, c) / d, st.integers(-2, 3),
              st.integers(-2, 3), st.integers(-1, 1), st.integers(1, 3)),
    st.sampled_from([c for p in tolman_graph().points for c in p.moment_image] + [CUT]))
# forms that are not two int triples over a positive int, each with its den
MALFORMED_FORMS = (
    (((0, 0, 0), (1, 1, 0), (1, 0, 0)), 1),
    (((0, 0, 0),), 1),
    (((0, 0), (1, 1, 0)), 1),
    (((Fraction(1, 2), 0, 0), (0, 1, 0)), 1),
    (((0, 0, 0), (1, 1.0, 0)), 1),
    (((True, 0, 0), (1, 1, 0)), 1),
    (((0, 0, 0), (1, 1, 0)), 0),
    (((0, 0, 0), (1, 1, 0)), -2),
    (((0, 0, 0), (1, 1, 0)), Fraction(2)),
    (((0, 0, 0), (1, 1, 0)), True),
    ("ab", 1),
    (None, 1),
)


class TestGlueAgainstTheOldRoute:
    """glue_check gives the reference route's GlueReport, or its error type and text."""

    def test_moved_pairs(self):
        for m_hat in GL3_MOVES:
            for m_tilde in GL3_MOVES:
                hat = project_fixed_data(moved(HAT, m_hat), matmul(L_HAT, inverse3(m_hat)))
                tilde = project_fixed_data(moved(TILDE, m_tilde), matmul(L_TILDE, inverse3(m_tilde)))
                assert glue_check(hat, tilde) == reference_glue_check(hat, tilde)
                assert glue_check(tilde, hat) == reference_glue_check(tilde, hat)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built(self, case):
        hat, tilde = HAND_BUILT[case]
        got = glue_or_error(glue_check, hat, tilde)
        assert got == glue_or_error(reference_glue_check, hat, tilde)
        assert got != glue_check(HAT_DATA, TILDE_DATA)

    def test_malformed_images_are_named(self):
        want = {
            "not a pair": "hat vertex 9: image forms ((0, 0, 0), (1, 1, 0), (1, 0, 0)) over 1",
            "fractional first coordinate":
                "hat vertex 9: image forms ((Fraction(1, 2), 0, 0), (0, 1, 0)) over 1"}
        for case, text in want.items():
            with pytest.raises(MalformedPolytopeError) as err:
                glue_check(*HAND_BUILT[case])
            assert str(err.value) == f"{text} are not two int triples over a positive int"
        for forms, den in MALFORMED_FORMS:
            # before any cut side: vertex 9 follows one that lies on the cut
            on_cut = vertex(8, (lin(0, 0), CUT), ())
            tilde = TILDE_DATA + (on_cut, VertexData(9, forms, den, ()))
            with pytest.raises(MalformedPolytopeError) as err:
                glue_check(HAT_DATA, tilde)
            assert str(err.value) == (f"tilde vertex 9: image forms {forms!r} over {den!r} are"
                                      " not two int triples over a positive int")

    def test_duplicate_survivors_are_extra(self):
        for case, extras in (("duplicate survivor", (0,)), ("duplicate image", (0,)),
                             ("every tilde vertex twice", (0, 1, 3, 5))):
            report = glue_check(*HAND_BUILT[case])
            assert report.matched == builtin_glue_report().matched
            assert report.problems == tuple(
                f"extra tilde vertex {i} survives the cut unmatched" for i in extras)

    @settings(max_examples=150)
    @given(st.data())
    def test_replaced_images(self, data):
        halves = [list(HAT_DATA), list(TILDE_DATA)]
        for _ in range(data.draw(st.integers(1, 4))):
            half = halves[data.draw(st.integers(0, 1))]
            k = data.draw(st.integers(0, len(half) - 1))
            image = (data.draw(IMAGE_COORDS), data.draw(IMAGE_COORDS))
            index = data.draw(st.sampled_from([half[k].index, 0, 7]))
            # forms and den times 1 to 3: the same image, its forms not in lowest terms
            half[k] = vertex(index, image, half[k].weights, data.draw(st.integers(1, 3)))
        hat, tilde = map(tuple, halves)
        assert glue_or_error(glue_check, hat, tilde) == \
            glue_or_error(reference_glue_check, hat, tilde)


class TestGlue:
    def test_builtin_pair_glues(self):
        report = builtin_glue_report()
        assert report.ok
        assert report.matched == ("x00", "x03", "x11", "x13", "x21", "x40")
        assert report.tilde_points == ("x00", "x11", "x21", "x40")
        assert report.hat_points == ("x03", "x13")
        assert report.problems == ()

    def test_default_cut_level(self):
        assert CUT == ParamPoly.linear(Fraction(1, 2), Fraction(1, 2))

    def test_moved_vertex_breaks_the_match(self):
        hat_data = project_fixed_data(HAT, L_HAT)
        tilde_data = list(project_fixed_data(TILDE, L_TILDE))
        vd = tilde_data[3]
        tilde_data[3] = vertex(vd.index, (lin(2, 0), lin(1, 0)), vd.weights)
        report = glue_check(hat_data, tuple(tilde_data))
        assert not report.ok
        assert any("no surviving vertex maps to x11" in p for p in report.problems)
        assert any("extra tilde vertex" in p for p in report.problems)

    def test_wrong_weights_break_the_match(self):
        hat_data = project_fixed_data(HAT, L_HAT)
        tilde_data = list(project_fixed_data(TILDE, L_TILDE))
        vd = tilde_data[3]
        bad = ((5, 5),) + vd.weights[1:]
        tilde_data[3] = dataclasses.replace(vd, weights=bad)
        report = glue_check(hat_data, tuple(tilde_data))
        assert not report.ok
        assert any(p.startswith("weights at x11 differ") for p in report.problems)

    def test_vertex_on_cut_rejected(self):
        hat_data = project_fixed_data(HAT, L_HAT)
        tilde_data = project_fixed_data(TILDE, L_TILDE)
        on_cut = vertex(9, (lin(0, 0), CUT), ())
        with pytest.raises(VertexOnCutError) as err:
            glue_check(hat_data, tilde_data + (on_cut,))
        assert str(err.value) == "tilde vertex 9: level 1/2*l1 + 1/2*l2 lies on the cut level"

    def test_parameter_dependent_cut_side_rejected(self):
        hat_data = project_fixed_data(HAT, L_HAT)
        tilde_data = project_fixed_data(TILDE, L_TILDE)
        # above the cut at (1, 2), below it at (1, 3)
        wobble = vertex(9, (lin(0, 0), lin(3, Fraction(-1, 2))), ())
        with pytest.raises(ParametricCombinatoricsUnstableError) as got:
            glue_check(hat_data, tilde_data + (wobble,))
        # signed on the ints of the level's form, named as the ParamPoly route names it
        with pytest.raises(ChamberSignError) as want:
            chamber_sign(wobble.image[1] - CUT)
        assert str(got.value) == f"tilde vertex 9: cut side changes: {want.value}"
        # a level that meets the cut only on the wall l2 = l1, which bounds the
        # chamber, is above it on all of 0 < l1 < l2: a tilde vertex there is dropped
        touch = vertex(9, (lin(0, 0), CUT + L2 - L1), ())
        assert glue_check(hat_data, tilde_data + (touch,)) == builtin_glue_report()
