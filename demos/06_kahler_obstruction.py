"""Where the symplectic forms stop admitting invariant Kaehler metrics.

A destabilizing sphere S pairs with the symplectic class (l1, l2) as
l2 - n*l1 (n = 2 for the certified curve). A Kaehler class must pair
strictly positively with every curve, so a non-positive value is an exact
certificate of obstruction. The test says nothing when the pairing is
positive, hence the verdict string NotObstructedByThisTest.
"""

from fractions import Fraction

from gkmloc.kahlercone import curve_invariants, kahler_obstruction

inv = curve_invariants(2)
print("destabilizing sphere for n = 2:")
print(f"  Hirzebruch index m = {inv.m}")
print(f"  <c1, S> = {inv.c1_pairing}, <eta, S> = {inv.eta_pairing},"
      f" <xi, S> = {inv.xi_pairing}")

print("\nsweeping l2 at l1 = 1:")
for l2 in [Fraction(3, 2), Fraction(19, 10), 2, Fraction(21, 10), 3]:
    verdict = kahler_obstruction(1, l2)
    tag = verdict.verdict
    if verdict.certificate is not None:
        tag += f" (certificate {verdict.certificate})"
    print(f"  l2 = {l2}: pairing {verdict.pairing} -> {tag}")

print("\nthe obstruction boundary is the ray l2 = 2*l1:")
for l1, l2 in [(1, 2), (2, 4), (Fraction(1, 3), Fraction(2, 3))]:
    verdict = kahler_obstruction(l1, l2)
    assert verdict.pairing == 0
    assert verdict.verdict == "Obstructed"
print("  pairing vanishes along the whole ray, all obstructed")

print("\nlarger n obstruct more of the cone (no existence claim attached):")
for n in range(2, 7):
    verdict = kahler_obstruction(1, 3, n)
    print(f"  n = {n}: pairing {verdict.pairing} -> {verdict.verdict}")
