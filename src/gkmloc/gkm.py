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
    code = "NoSuchFixedPoint"


class UnknownGraphError(ToolkitError):
    code = "UnknownGraph"


class TrivialSubcircleError(ToolkitError, ValueError):
    code = "TrivialSubcircle"


class DegenerateWeightError(ToolkitError):
    code = "DegenerateWeight"


class MalformedEdgeError(ToolkitError):
    code = "MalformedEdge"


class EdgeFixedPointwiseError(ToolkitError):
    code = "EdgeFixedPointwise"


class AxisSubcircleError(ToolkitError):
    code = "AxisSubcircle"


class NotCoprimeError(ToolkitError):
    code = "NotCoprime"


class NotUniformlyValentError(ToolkitError, ValueError):
    code = "NotUniformlyValent"


class MalformedGraphError(ToolkitError, ValueError):
    code = "MalformedGraph"


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
    """Coerce a CircleAction or (a, b) pair."""
    if isinstance(s, CircleAction):
        return s
    a, b = s
    return CircleAction(_as_int(a), _as_int(b))


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
    form (a, b, c), the coordinate being (a*u + b*v + c) / ``_den`` with
    l1 = u, l2 = u + v: ``_forms`` maps each point id, in canonical order, to
    the forms of its two coordinates. It then checks every edge's area on
    these ints. Neither is a field, so equality, hash and repr see only points
    and edges; ``sphere_area`` builds an area when it is asked for.
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


def restrict_weights(g: GKMGraph, s, point_id: str):
    """Weights of subcircle s at a fixed point, one per incident edge.

    Order follows the canonical edge order (ascending lex on the outgoing
    direction).
    """
    s = as_action(s)
    inc = g._outgoing.get(point_id)
    if inc is None:
        g.point(point_id)                       # raises NoSuchFixedPoint
    return tuple(s.a * x + s.b * y for _, (x, y) in inc)


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
    n, s = valences.pop(), as_action(s)
    betti = [0] * (2 * n + 1)
    for p in g.points:
        ws = restrict_weights(g, s, p.id)
        if 0 in ws:
            raise DegenerateWeightError(f"subcircle ({s.a},{s.b}) has a zero weight at {p.id}")
        betti[fixed_point_index(ws)] += 1
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
    are summed once.
    """
    s = as_action(s)
    sums = {p.id: sum(restrict_weights(g, s, p.id)) for p in g.points}
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
        raise AxisSubcircleError("coprimality test needs a, b both nonzero")
    for p in g.points:
        ws = restrict_weights(g, s, p.id)
        for w in ws:
            if w == 0:
                return False, CoprimeWitness(p.id, (w,), "zero_weight")
            if abs(w) == 1:
                return False, CoprimeWitness(p.id, (w,), "unit_weight")
        for i in range(len(ws)):
            for j in range(i + 1, len(ws)):
                if math.gcd(ws[i], ws[j]) != 1:
                    return False, CoprimeWitness(p.id, (ws[i], ws[j]), "common_factor")
    return True, None


def tolman_coprime_criterion(a: int, b: int) -> bool:
    """Closed-form coprimality test for subcircles of the built-in graph.

    The weight magnitudes occurring in the graph are exactly
    {|a|, |b|, |a+b|, |a-b|, |2a-b|}, and every pairwise gcd reduces to
    gcd(a, b), so coprimality is the conjunction below.
    """
    if a == 0 or b == 0:
        raise AxisSubcircleError("criterion needs a, b both nonzero")
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

