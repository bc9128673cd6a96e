"""GKM graphs: moment graphs of Hamiltonian T^2-actions on 6-manifolds.

A graph records the fixed points with their moment images (linear polynomials
in the parameters l1 < l2) and the invariant 2-spheres as edges labeled by a
primitive integer direction. A subcircle of T^2 is a pair (a, b); the weight
of the subcircle along an outgoing edge with primitive direction (x1, x2) is

    w = a*x1 + b*x2.

The six-fixed-point graph with moment images (0,0), (2*l1+l2, 0), (l1, l1),
(l2, l1), (0, l1+l2), (l1, l1+l2) ships as the built-in "tolman".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import (
    ChamberSignError,
    ParamPoly,
    ToolkitError,
    _LINEAR_KEYS,
    _as_int,
    linear_forms,
    linear_poly,
    linear_sign,
    primitive,
)


class NoSuchFixedPointError(ToolkitError):
    """Raised by ``GKMGraph.point`` for an id that names no fixed point."""


class UnknownGraphError(ToolkitError):
    """Raised by the command line for a built-in graph name that does not exist."""


class TrivialSubcircleError(ToolkitError, ValueError):
    """Raised by ``CircleAction`` for the trivial subcircle (0, 0)."""


class DegenerateWeightError(ToolkitError):
    """Raised where a subcircle has a zero weight at a fixed point."""


class MalformedEdgeError(ToolkitError):
    """Raised for an edge whose direction, endpoints, images or area do not fit."""


class EdgeFixedPointwiseError(ToolkitError):
    """Raised by ``c1_values`` when a subcircle fixes a sphere pointwise."""


class AxisSubcircleError(ToolkitError):
    """Raised by the coprimality tests for a subcircle (a, b) with a or b zero."""


class NotCoprimeError(ToolkitError):
    """Raised by ``isotropy_spheres`` for a subcircle that does not act coprimely."""


class NotUniformlyValentError(ToolkitError, ValueError):
    """Raised by ``betti_numbers`` for a graph whose points differ in valence."""


class MalformedGraphError(ToolkitError, ValueError):
    """Raised by ``graph_from_json`` for a document that is not a graph."""


@dataclass(frozen=True)
class CircleAction:
    """Subcircle {(t^a, t^b)} of T^2; (a, b) must not both vanish."""

    a: int
    b: int

    def __post_init__(self):
        if type(self.a) is not int or type(self.b) is not int:
            raise TypeError("CircleAction components must be ints")
        if self.a == 0 and self.b == 0:
            raise TrivialSubcircleError("CircleAction (0, 0) is trivial")


def as_action(s) -> CircleAction:
    """Coerce a CircleAction or an (a, b) tuple or list; anything else raises TypeError."""
    if isinstance(s, CircleAction):
        return s
    if not isinstance(s, (tuple, list)) or len(s) != 2:
        raise TypeError(f"a subcircle is a CircleAction or an (a, b) pair, not {s!r}")
    return CircleAction(_as_int(s[0]), _as_int(s[1]))


@dataclass(frozen=True)
class FixedPoint:
    id: str
    moment_image: tuple

    def __post_init__(self):
        img = tuple(self.moment_image)
        object.__setattr__(self, "moment_image", img)
        if len(img) != 2 or not all(isinstance(c, ParamPoly) for c in img):
            raise TypeError("moment_image must be a pair of ParamPoly")
        if not (img[0]._num.keys() <= _LINEAR_KEYS and img[1]._num.keys() <= _LINEAR_KEYS):
            raise ValueError(f"moment image of {self.id} is not linear")


@dataclass(frozen=True)
class Edge:
    """Invariant sphere from tail to head; direction is primitive, nonzero."""

    tail: str
    head: str
    direction: tuple

    def __post_init__(self):
        d = tuple(map(_as_int, self.direction))
        object.__setattr__(self, "direction", d)
        if len(d) != 2:
            raise MalformedEdgeError("edge direction must be a 2-vector")
        if self.tail == self.head:
            raise MalformedEdgeError("edge endpoints must differ")
        g = math.gcd(*d)
        if g != 1:
            if not g:
                primitive(d)    # raises ZeroVectorError
            raise MalformedEdgeError(f"direction {d} is not primitive")


@dataclass(frozen=True)
class GKMGraph:
    """Validated moment graph; points and edges are kept in canonical order.

    Validation writes every moment coordinate once as an int ``linear_forms``
    form (a, b, c), the coordinate being (a*l1 + b*l2 + c) / ``_den``: ``_forms``
    maps each point id, in canonical order, to the forms of its two coordinates.
    It then checks every edge's area on these ints. ``_kept`` holds fixed-point
    tables, as ``_table`` says. None of these is a field, so equality, hash and
    repr see only points and edges; ``sphere_area`` builds an area when it is
    asked for.
    """

    points: tuple
    edges: tuple

    def __post_init__(self):
        pts = tuple(sorted(self.points, key=lambda p: p.id))
        edges = tuple(sorted(self.edges, key=lambda e: (e.tail, e.head)))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "edges", edges)
        if not pts:
            raise ValueError("a moment graph has at least one fixed point")
        ids = [p.id for p in pts]
        if len(set(ids)) != len(ids):
            raise ValueError("fixed point ids must be unique")
        forms, den = linear_forms([c for p in pts for c in p.moment_image])
        forms = {pid: (forms[2 * k], forms[2 * k + 1]) for k, pid in enumerate(ids)}
        for e in edges:
            if e.tail not in forms or e.head not in forms:
                raise MalformedEdgeError(f"edge {e.tail}->{e.head} references unknown point")
            # raises MalformedEdgeError unless head - tail = area * direction
            # with area positive on the whole chamber 0 < l1 < l2
            _area(forms, den, e)
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_kept", ())

    @cached_property
    def _by_id(self):
        return {p.id: p for p in self.points}

    @cached_property
    def _outgoing(self):
        out = {p.id: [] for p in self.points}
        for e in self.edges:
            out[e.tail].append((e, e.direction))
            out[e.head].append((e, (-e.direction[0], -e.direction[1])))
        # canonical order at each point: ascending lex on the direction vector
        return {pid: tuple(sorted(inc, key=lambda t: t[1])) for pid, inc in out.items()}

    def point(self, point_id: str) -> FixedPoint:
        try:
            return self._by_id[point_id]
        except KeyError:
            raise NoSuchFixedPointError(f"no fixed point {point_id!r}") from None


def sphere_area(g: GKMGraph, e: Edge) -> ParamPoly:
    """Area polynomial A of the sphere e between points of g: head - tail == A * direction,
    A > 0 on 0 < l1 < l2. Decided on the ints of g's moment forms; only A is a ParamPoly."""
    g.point(e.tail), g.point(e.head)           # NoSuchFixedPoint for an unknown end
    return linear_poly(*_area(g._forms, g._den, e))


def _area(forms, den, e: Edge):
    """(form, den) of e's area from the point forms over den: collinearity is an int cross
    check and ``linear_sign`` signs the form; a ParamPoly is built only for an error's text."""
    (t0, t1), (h0, h1) = forms[e.tail], forms[e.head]
    x1, x2 = e.direction
    d0 = (h0[0] - t0[0], h0[1] - t0[1], h0[2] - t0[2])
    d1 = (h1[0] - t1[0], h1[1] - t1[1], h1[2] - t1[2])
    if any(p * x2 != q * x1 for p, q in zip(d0, d1)):
        raise MalformedEdgeError(
            f"edge {e.tail}->{e.head}: moment images not collinear with {e.direction}")
    x, diff = (x1, d0) if x1 else (x2, d1)
    form = diff if x > 0 else tuple(-c for c in diff)
    den *= abs(x)
    try:
        positive = linear_sign(form, den) == 1
    except ChamberSignError as exc:
        raise MalformedEdgeError(f"edge {e.tail}->{e.head}: area {exc}") from None
    if not positive:
        raise MalformedEdgeError(
            f"edge {e.tail}->{e.head}: area {linear_poly(form, den)} not positive on 0 < l1 < l2")
    return form, den


# ---------------------------------------------------------------------------
# built-in graph
# ---------------------------------------------------------------------------

_lin = ParamPoly.linear


@lru_cache(maxsize=None)
def tolman_graph() -> GKMGraph:
    """The six-fixed-point moment graph with non-invariant-Kaehler interior.

    Fixed point ids encode the moment image at (l1, l2) = (1, 2): point xIJ
    sits at (I, J).
    """
    points = (
        FixedPoint("x00", (_lin(0, 0), _lin(0, 0))),
        FixedPoint("x40", (_lin(2, 1), _lin(0, 0))),
        FixedPoint("x11", (_lin(1, 0), _lin(1, 0))),
        FixedPoint("x21", (_lin(0, 1), _lin(1, 0))),
        FixedPoint("x03", (_lin(0, 0), _lin(1, 1))),
        FixedPoint("x13", (_lin(1, 0), _lin(1, 1))),
    )
    edges = (
        Edge("x00", "x40", (1, 0)),
        Edge("x00", "x03", (0, 1)),
        Edge("x00", "x11", (1, 1)),
        Edge("x11", "x21", (1, 0)),
        Edge("x11", "x13", (0, 1)),
        Edge("x03", "x13", (1, 0)),
        Edge("x21", "x40", (2, -1)),
        Edge("x21", "x03", (-1, 1)),
        Edge("x13", "x40", (1, -1)),
    )
    return GKMGraph(points, edges)


def builtin_graphs():
    return {"tolman": tolman_graph()}


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def graph_to_json(g: GKMGraph) -> dict:
    return {
        "points": [
            {"id": p.id, "image": [c.to_json() for c in p.moment_image]}
            for p in g.points
        ],
        "edges": [
            {"tail": e.tail, "head": e.head, "dir": list(e.direction)}
            for e in g.edges
        ],
    }


def graph_from_json(data: dict) -> GKMGraph:
    try:
        points = tuple(
            FixedPoint(rec["id"], tuple(ParamPoly.from_json(c) for c in rec["image"]))
            for rec in data["points"]
        )
        edges = tuple(
            Edge(rec["tail"], rec["head"], tuple(rec["dir"])) for rec in data["edges"]
        )
        return GKMGraph(points, edges)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedGraphError(f"malformed graph: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# weights, indices, Betti numbers
# ---------------------------------------------------------------------------

def outgoing_edges(g: GKMGraph, point_id: str):
    """(edge, outgoing direction) pairs at a point, in canonical order."""
    g.point(point_id)
    return g._outgoing[point_id]


def _table(g: GKMGraph, s):
    """The fixed-point table of g at s, (key, rows, D, scales): key the int pair (a, b), rows
    one (point, weights, weight product, momentum) per point in canonical order, the momentum
    the ints (x, y, z, h) of -H(p) = (x*l1 + y*l2 + z) / h, D the lcm of the weight products
    and scales each row's D // weight product; D is 0 and scales () when a weight is 0, and
    each query makes its own check. g keeps the tables of the last four subcircles it built
    in ``_kept``, newest first, four being the subcircles ``reproduce-all`` asks about. A hit
    writes nothing, and a build stores the whole new tuple at once: memory stays bounded,
    and a thread reads the table of its own key or builds it."""
    s = as_action(s)
    key = (s.a, s.b)
    kept = g._kept
    for table in kept:
        if table[0] == key:
            return table
    a, b = key
    h, forms, rows = g._den, g._forms, []
    for pid, inc in g._outgoing.items():
        ws = tuple([a * x + b * y for _, (x, y) in inc])
        (x0, y0, z0), (x1, y1, z1) = forms[pid]
        momentum = (-a * x0 - b * x1, -a * y0 - b * y1, -a * z0 - b * z1, h)
        rows.append((pid, ws, math.prod(ws), momentum))
    den = math.lcm(*(row[2] for row in rows))
    table = (key, tuple(rows), den, tuple(den // row[2] for row in rows) if den else ())
    object.__setattr__(g, "_kept", (table,) + kept[:3])
    return table


def _nondegenerate_table(g: GKMGraph, s):
    """_table(g, s), or DegenerateWeight at the first point with a zero weight."""
    (a, b), rows, den, _ = table = _table(g, s)
    if not den:
        pid = next(row[0] for row in rows if not row[2])
        raise DegenerateWeightError(f"subcircle ({a},{b}) has a zero weight at {pid}")
    return table


def restrict_weights(g: GKMGraph, s, point_id: str):
    """Weights of subcircle s at a fixed point, one per incident edge.

    Order follows the canonical edge order (ascending lex on the outgoing
    direction).
    """
    for row in _table(g, s)[1]:
        if row[0] == point_id:
            return row[1]
    g.point(point_id)                           # raises NoSuchFixedPoint


def edge_weight(g: GKMGraph, s, e: Edge) -> int:
    """Weight of s on the sphere e, measured along the tail-to-head direction."""
    s = as_action(s)
    return s.a * e.direction[0] + s.b * e.direction[1]


def fixed_point_index(weights) -> int:
    """Morse index of the momentum at a point: twice the number of negative weights."""
    ws = tuple(_as_int(w) for w in weights)
    if any(w == 0 for w in ws):
        raise DegenerateWeightError(f"zero weight in {ws}; index undefined")
    return 2 * sum(1 for w in ws if w < 0)


def betti_numbers(g: GKMGraph, s):
    """Even Betti numbers (b0, b1, ..., b_{2n}) read off the index histogram."""
    valences = {len(inc) for inc in g._outgoing.values()}
    if len(valences) != 1:
        raise NotUniformlyValentError(f"graph is not uniformly valent: {sorted(valences)}")
    betti = [0] * (2 * valences.pop() + 1)
    for row in _nondegenerate_table(g, s)[1]:     # no weight is 0: the index is 2 * #(w < 0)
        betti[2 * sum(w < 0 for w in row[1])] += 1
    return tuple(betti)


# ---------------------------------------------------------------------------
# spheres: first Chern class
# ---------------------------------------------------------------------------

def c1_values(g: GKMGraph, s) -> dict:
    """Pairing of c1 of the ambient manifold with every invariant sphere, keyed by Edge.

    Computed from the weight sums at the two poles: with p_min/p_max the
    endpoints ordered by the momentum of s (their difference equals
    area * w, so the sign of the restricted weight w decides the order),

        <c1, S> = (sum of weights at p_min - sum at p_max) / |w|.

    The values do not depend on s as long as no w is 0; each point's weights
    are read once from the table of g at s and summed.
    """
    s = as_action(s)
    sums = {row[0]: sum(row[1]) for row in _table(g, s)[1]}
    out = {}
    for e in g.edges:
        w = edge_weight(g, s, e)
        if w == 0:
            raise EdgeFixedPointwiseError(
                f"subcircle ({s.a},{s.b}) fixes the sphere {e.tail}->{e.head} pointwise")
        lo, hi = (e.tail, e.head) if w > 0 else (e.head, e.tail)
        out[e] = Fraction(sums[lo] - sums[hi], abs(w))
    return out


# ---------------------------------------------------------------------------
# coprime subcircles and isotropy spheres
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoprimeWitness:
    """Failure certificate: the point and the offending weight(s)."""

    point: str
    weights: tuple
    reason: str


def is_coprime_action(g: GKMGraph, s):
    """Whether the weights of s are coprime at every fixed point.

    Coprime at a point means all pairwise gcds are 1 and no weight lies in
    {-1, 0, 1} (a unit weight would make the corresponding invariant sphere a
    free-orbit sphere rather than an isotropy sphere). Returns (ok, witness)
    with witness None on success; on failure the witness is the first
    violation in canonical point order.
    """
    s = as_action(s)
    if s.a == 0 or s.b == 0:
        raise AxisSubcircleError(f"subcircle ({s.a},{s.b}) lies on an axis:"
                                 " the coprimality test needs a, b both nonzero")
    for pid, ws, _, _ in _table(g, s)[1]:
        for w in ws:
            if w == 0:
                return False, CoprimeWitness(pid, (w,), "zero_weight")
            if abs(w) == 1:
                return False, CoprimeWitness(pid, (w,), "unit_weight")
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if math.gcd(ws[i], ws[j]) != 1:
                    return False, CoprimeWitness(pid, (ws[i], ws[j]), "common_factor")
    return True, None


def tolman_coprime_criterion(a: int, b: int) -> bool:
    """Closed-form coprimality test for subcircles of the built-in graph.

    The weight magnitudes occurring in the graph are exactly
    {|a|, |b|, |a+b|, |a-b|, |2a-b|}, and every pairwise gcd reduces to
    gcd(a, b), so coprimality is the conjunction below.
    """
    if a == 0 or b == 0:
        raise AxisSubcircleError(
            f"subcircle ({a},{b}) lies on an axis: the criterion needs a, b both nonzero")
    return (
        math.gcd(a, b) == 1
        and abs(a) > 1
        and abs(b) > 1
        and abs(a + b) > 1
        and abs(a - b) > 1
        and abs(2 * a - b) > 1
    )


def isotropy_spheres(g: GKMGraph, s):
    """The isotropy spheres of a coprime subcircle with their stabilizer orders.

    Each invariant sphere on which s acts with weight w has generic stabilizer
    Z_|w|; for a coprime action every |w| >= 2, so all spheres qualify.
    """
    s = as_action(s)
    ok, witness = is_coprime_action(g, s)
    if not ok:
        ws = witness.weights
        why = f"{witness.reason.replace('_', ' ')} {ws[0]}"
        if witness.reason == "common_factor":
            why = f"weights {ws[0]} and {ws[1]} have the common factor {math.gcd(*ws)}"
        raise NotCoprimeError(f"subcircle ({s.a},{s.b}) is not coprime at {witness.point}: {why}")
    return tuple((e, abs(edge_weight(g, s, e))) for e in g.edges)

