"""An independent quotient oracle for the cluster ideals and their images.

Every cluster ideal I = I_i(a:b) and its x<->y image contains
J = <xy, x^(n+1), y^(n+1)>, and C[x,y]/J has the basis 1, x..x^n, y..y^n.
An ideal that contains J is determined by the subspace I/J, spanned by each
generator times each of those 2n+1 monomials, reduced mod J.  Index the
monomials in descending grlex order (degree, then the x exponent); then the
reduced echelon that `linalg.insert` builds is the Macaulay matrix of I in
bounded degree (Lazard, "Groebner bases, Gaussian elimination and resolution
of systems of algebraic equations", EUROCAL 1983):

- its pivots are the leading monomials of I outside J, so the other
  monomials are the staircase;
- `linalg.reduce` of a monomial is its normal form on the staircase;
- two ideals that contain J are equal exactly when their echelons are.

The oracle shares no code with Buchberger.  Tier-1 checks a seeded subset;
``python tests/test_quotient_oracle.py`` checks every criterion-4 point for
n <= 20 (seed 7) and every `fixed_points` candidate for n <= 50.
"""

import time
from fractions import Fraction

from dihedral_mckay import linalg
from dihedral_mckay.hilb import ClusterPoint, cluster_ideal, swap_xy
from dihedral_mckay.polyring import Ideal, Poly, staircase
from reference import criterion_4_points


def j_standard(n):
    """The monomials 1, x..x^n, y..y^n, in descending grlex order."""
    monos = [(0, 0)] + [(k, 0) for k in range(1, n + 1)] + [(0, k) for k in range(1, n + 1)]
    return sorted(monos, key=lambda m: (m[0] + m[1], m[0]), reverse=True)


def macaulay_echelon(n, generators):
    """Reduced echelon of I/J over the index of each J-standard monomial."""
    monos = j_standard(n)
    index = {m: k for k, m in enumerate(monos)}
    echelon = {}
    for g in generators:
        for a, b in monos:
            row = {}
            for (p, q), c in g.terms.items():
                k = index.get((p + a, q + b))
                if k is not None:
                    row[k] = row.get(k, 0) + c
            linalg.insert(echelon, {k: c for k, c in row.items() if c})
    return monos, echelon


def check_ideal(n, ideal):
    """staircase and normal_form agree with the oracle; return its echelon."""
    monos, echelon = macaulay_echelon(n, ideal.generators)
    want = tuple(sorted((m for k, m in enumerate(monos) if k not in echelon),
                        key=lambda m: (m[0] + m[1], m[0])))
    assert staircase(ideal) == want, (n, ideal.generators)
    for k, m in enumerate(monos):
        rest, _ = linalg.reduce(echelon, {k: 1})
        got = ideal.normal_form(Poly.mono(m)).terms
        assert got == {monos[i]: c for i, c in rest.items()}, (n, ideal.generators, m)
    return echelon


def check_point(n, p):
    """The oracle on I_i(a:b) and on its image, and their equality."""
    ideal = cluster_ideal(n, p)
    image = Ideal([swap_xy(g) for g in ideal.generators])
    same = check_ideal(n, ideal) == check_ideal(n, image)
    assert (ideal == image) == same, (n, p)
    return same


def fixed_point_candidates(n_max):
    """Every candidate `fixed_points` tests: I_(n/2)(1:+-1) and each corner."""
    for n in range(3, n_max + 1):
        if n % 2 == 0:
            for b in (1, -1):
                yield n, ClusterPoint(n // 2, Fraction(1), Fraction(b))
        for i in range(1, n):
            yield n, ClusterPoint(i, Fraction(0), Fraction(1))


def test_oracle_on_a_known_ideal():
    """I_2(1:1) at n = 5 is <x^2 - y^3, x^3, xy, y^4>: staircase 1, y, x, y^2,
    x^2 with normal form y^3 = x^2; its image is a different ideal, while
    I_2(1:-1) at n = 4 is its own image."""
    n = 5
    ideal = cluster_ideal(n, ClusterPoint(2, Fraction(1), Fraction(1)))
    monos, echelon = macaulay_echelon(n, ideal.generators)
    assert sorted(m for k, m in enumerate(monos) if k not in echelon) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (2, 0)
    ]
    rest, _ = linalg.reduce(echelon, {monos.index((0, 3)): 1})
    assert {monos[i]: c for i, c in rest.items()} == {(2, 0): 1}
    assert not check_point(n, ClusterPoint(2, Fraction(1), Fraction(1)))
    assert check_point(4, ClusterPoint(2, Fraction(1), Fraction(-1)))


def test_oracle_on_criterion_4_points():
    """Every 8th point criterion 4 draws for n <= 20, seed 7."""
    for n, p in list(criterion_4_points(20))[::8]:
        check_point(n, p)


def test_oracle_on_fixed_point_candidates():
    """Every `fixed_points` candidate for n <= 16, and at n = 33 and 40."""
    for n, p in fixed_point_candidates(40):
        if n <= 16 or n in (33, 40):
            check_point(n, p)


if __name__ == "__main__":
    for name, points in (
        ("criterion-4 points, n <= 20, seed 7", criterion_4_points(20)),
        ("fixed_points candidates, n <= 50", fixed_point_candidates(50)),
    ):
        start = time.perf_counter()
        count = 0
        for n, p in points:
            check_point(n, p)
            count += 1
        print(f"{name}: {count} points and their images agree "
              f"({time.perf_counter() - start:.1f} s)")
