"""Acceptance suite: every capability checked end to end with exact arithmetic.

``test_reference_row`` runs the reference table that ``gkmloc reproduce-all``
prints (``cli._reproduce_checks``), one test ID per row name. The numbered
criteria are the sweeps: each checks a reference value over a range of
subcircles, bundles, parameters or random inputs, taking the value from the
table rather than restating it, and finishes by printing a single PASS line
(run with -s to see them). All comparisons are exact, no tolerances.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gkmloc.cli import _reproduce_checks
from gkmloc.gkm import (
    betti_numbers,
    is_coprime_action,
    outgoing_edges,
    restrict_weights,
    c1_values,
    tolman_coprime_criterion,
    tolman_graph,
)
from gkmloc.localization import (
    abbv_chern_number,
    c2_pairings_from_gkm,
    cubic_form_from_gkm,
    dh_volume,
    jupp_invariants_from_gkm,
)
from gkmloc.projbundle import (
    Bundle,
    RingElement,
    c1_cubed,
    c2_pairings,
    cubic_form,
    cup,
    degree2,
    jupp_compare,
    jupp_invariants,
    tensor_apply,
    trilinear_from_cubic,
)
from gkmloc.kahlercone import kahler_obstruction
from gkmloc.toric import (
    L_HAT,
    L_TILDE,
    builtin_glue_report,
    builtin_polytopes,
    polytope_edges,
    project_fixed_data,
    vertex_weights,
)

G = tolman_graph()
B = Bundle(-1, -1)

POINT_IDS = ("x00", "x03", "x11", "x13", "x21", "x40")

C1_TABLE = {
    ("x00", "x40"): 6,
    ("x00", "x03"): 4,
    ("x13", "x40"): 4,
    ("x00", "x11"): 2,
    ("x03", "x13"): 2,
    ("x03", "x21"): 2,
    ("x11", "x13"): 2,
    ("x21", "x40"): 2,
    ("x11", "x21"): 0,
}

CHECKS = _reproduce_checks()
REFERENCE = {name: expected for name, expected, _ in CHECKS}


def nondegenerate(a, b):
    return 0 not in (a, b, a + b, a - b, 2 * a - b)


def subcircles(radius):
    """The non-degenerate subcircles (a, b) with |a|, |b| <= radius."""
    return [(a, b) for a, b in product(range(-radius, radius + 1), repeat=2)
            if nondegenerate(a, b)]


def done(num, label):
    print(f"ACCEPTANCE {num:02d} {label}: PASS")


def test_row_names_are_unique():
    names = [name for name, _, _ in CHECKS]
    assert len(set(names)) == len(names), sorted(n for n in names if names.count(n) > 1)


@pytest.mark.parametrize(("name", "expected", "got"), CHECKS,
                         ids=[name for name, _, _ in CHECKS])
def test_reference_row(name, expected, got):
    assert got == expected


def test_criterion_01_localized_chern_numbers():
    for monomial in ("c1^3", "c1c2", "c3"):
        want = REFERENCE[f"abbv/{monomial}-(2,1)"]
        for s in subcircles(10):
            assert abbv_chern_number(G, s, monomial) == want, (monomial, s)
    done(1, "localized Chern numbers agree for every non-degenerate subcircle")


def test_criterion_02_volume_polynomial():
    for s in subcircles(6):
        assert dh_volume(G, s) == REFERENCE["dh/volume-(2,1)"], s
    done(2, "volume polynomial 2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2")


def test_criterion_03_c1_pairings_on_spheres():
    for s in subcircles(6):
        vals = {tuple(sorted((e.tail, e.head))): v for e, v in c1_values(G, s).items()}
        assert vals == C1_TABLE, s
    done(3, "per-sphere c1 pairings match the reference table")


def test_criterion_05_cubic_tensors_agree():
    from_ring = jupp_invariants(B).trilinear
    for s in subcircles(6):
        from_graph = cubic_form_from_gkm(G, s)
        for i, j, k in product(range(2), repeat=3):
            assert from_graph[i][j][k] == from_ring[i][j][k], (s, i, j, k)
    done(5, "localization and ring cubic tensors agree entrywise")


def test_criterion_06_invariants_identified():
    inv_ring = jupp_invariants(B)
    for s in subcircles(6):
        cmp = jupp_compare(jupp_invariants_from_gkm(G, s), inv_ring, ((1, 0), (0, 1)))
        assert (cmp.trilinear_ok, cmp.w2_ok, cmp.p1_ok) == (True, True, True), s
    done(6, "classifying invariants match under the identity basis change")


def test_criterion_07_betti_numbers():
    for s in subcircles(10):
        assert list(betti_numbers(G, s)) == REFERENCE["betti/(2,1)"], s
    done(7, "Betti numbers (1,0,2,0,2,0,1) for every non-degenerate subcircle")


def test_criterion_08_toric_glue():
    polys = builtin_polytopes()
    for poly in polys.values():
        edges = polytope_edges(poly)
        for idx in range(len(poly.vertices)):
            assert len(vertex_weights(poly, idx, edges)) == 3
    report = builtin_glue_report()
    assert report.matched == POINT_IDS
    assert report.tilde_points == ("x00", "x11", "x21", "x40")
    assert report.hat_points == ("x03", "x13")
    # the projected weight multisets are re-checked against the graph here
    hat_data = project_fixed_data(polys["tolman-hat"], L_HAT)
    tilde_data = project_fixed_data(polys["tolman-tilde"], L_TILDE)
    by_image = {}
    for vd in list(hat_data) + list(tilde_data):
        by_image.setdefault(vd.image, []).append(vd)
    for pid in POINT_IDS:
        point = G.point(pid)
        want = sorted(d for _, d in outgoing_edges(G, pid))
        assert any(sorted(vd.weights) == want for vd in by_image[point.moment_image]), pid
    done(8, "polytope pair glues to the moment graph fixed-point data")


def test_criterion_09_coprime_criterion_equivalence():
    def direct(a, b):
        for pid in POINT_IDS:
            ws = restrict_weights(G, (a, b), pid)
            if any(abs(w) < 2 for w in ws):
                return False
            for i in range(3):
                for j in range(i + 1, 3):
                    if math.gcd(ws[i], ws[j]) != 1:
                        return False
        return True

    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            expected = direct(a, b)
            assert tolman_coprime_criterion(a, b) == expected, (a, b)
            ok, witness = is_coprime_action(G, (a, b))
            assert ok == expected, (a, b)
            assert (witness is None) == expected, (a, b)
    done(9, "closed-form coprimality criterion equals the weight-by-weight test")


def test_criterion_10_kahler_obstruction():
    for l1, l2 in [(1, 2), (1, 3), (2, 5), (1, Fraction(19, 10)), (Fraction(1, 3), 1)]:
        previously_obstructed = False
        for n in range(2, 11):
            verdict = kahler_obstruction(l1, l2, n)
            assert verdict.pairing == l2 - n * l1, (l1, l2, n)
            assert bool(verdict) == (verdict.pairing <= 0), (l1, l2, n)
            assert verdict.certificate == (verdict.pairing if verdict else None), (l1, l2, n)
            if previously_obstructed:
                assert verdict, (l1, l2, n)
            previously_obstructed = previously_obstructed or bool(verdict)
    done(10, "destabilizing sphere obstructs exactly when l2 - n*l1 <= 0")


def test_criterion_11_property_sweeps():
    # ring laws on 1000 seeded random triples
    rng = random.Random(1163)
    sizes = {0: 1, 2: 2, 4: 2, 6: 1}

    def element(degree):
        return RingElement(
            degree, tuple(rng.randint(-9, 9) for _ in range(sizes[degree])))

    degree_triples = [(0, 0, 0), (0, 0, 2), (0, 2, 2), (2, 2, 2),
                      (0, 0, 4), (0, 2, 4), (0, 0, 6)]
    for _ in range(1000):
        bundle = Bundle(rng.randint(-3, 3), rng.randint(-3, 3))
        dx, dy, dz = rng.choice(degree_triples)
        x, y, z = element(dx), element(dy), element(dz)
        assert cup(bundle, x, y) == cup(bundle, y, x)
        assert cup(bundle, cup(bundle, x, y), z) == cup(bundle, x, cup(bundle, y, z))
    # distributivity on degree-2 pairs, checked exactly
    for _ in range(200):
        bundle = Bundle(rng.randint(-3, 3), rng.randint(-3, 3))
        x, x2, z = element(2), element(2), element(2)
        assert cup(bundle, x + x2, z) == cup(bundle, x, z) + cup(bundle, x2, z)

    # ring cubic equals the closed form on a full grid
    for k1, k2 in product(range(-3, 4), repeat=2):
        bundle = Bundle(k1, k2)
        for a, b in product(range(-10, 11), repeat=2):
            closed = b * (3 * a * a - 3 * k1 * a * b + (k1 * k1 - k2) * b * b)
            assert cubic_form(bundle, a, b) == closed, (k1, k2, a, b)

    # polarization reproduces the cubic on the diagonal
    for _ in range(20):
        coeffs = tuple(rng.randint(-9, 9) for _ in range(4))
        tensor = trilinear_from_cubic(coeffs)
        u, v = rng.randint(-8, 8), rng.randint(-8, 8)
        c0, c1, c2, c3 = coeffs
        value = c0 * u**3 + c1 * u**2 * v + c2 * u * v**2 + c3 * v**3
        assert tensor_apply(tensor, (u, v), (u, v), (u, v)) == value

    # no square-zero degree-2 classes when k1 = -1
    for k2 in range(-3, 4):
        bundle = Bundle(-1, k2)
        for a, b in product(range(-20, 21), repeat=2):
            if (a, b) == (0, 0):
                continue
            assert not cup(bundle, degree2(a, b), degree2(a, b)).is_zero(), (k2, a, b)

    # twisting by a line bundle preserves the classifying data
    for k1, k2 in product(range(-3, 4), repeat=2):
        inv1 = jupp_invariants(Bundle(k1, k2))
        for t in range(-4, 5):
            twisted = Bundle(k1 + 2 * t, k2 + t * k1 + t * t)
            assert 4 * twisted.k2 - twisted.k1**2 == 4 * k2 - k1**2
            assert c1_cubed(twisted) == c1_cubed(Bundle(k1, k2))
            assert jupp_compare(inv1, jupp_invariants(twisted), ((1, 0), (t, 1))).ok
    done(11, "algebraic property sweeps (ring laws, cubic, polarization, twists)")


def test_criterion_12_c2_pairings_identified():
    want = (REFERENCE["c2-pairing/xi"], REFERENCE["c2-pairing/eta"])
    assert want == tuple(reversed(c2_pairings(B)))
    for s in subcircles(6):
        assert c2_pairings_from_gkm(G, s) == want, s
    done(12, "graph-side <c2, xi'>, <c2, eta'> equal the ring's (<c2, xi>, <c2, eta>)")
