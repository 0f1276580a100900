import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_mckay.polyring import (
    Ideal,
    InfiniteDimensional,
    Poly,
    groebner_basis,
    poly_str,
    rational_roots,
    staircase,
)

X = Poly.var("x")
Y = Poly.var("y")
ONE = Poly.const(1)


def brute_quotient_dim(gens, degree_cap):
    """Oracle: dimension of Q[x,y]/I by linear algebra on a degree truncation.

    Valid when the staircase fits well under the cap; used to freeze the
    expected dimensions independently of the Groebner machinery.
    """
    monos = [
        (a, b)
        for a in range(degree_cap + 1)
        for b in range(degree_cap + 1)
        if a + b <= degree_cap
    ]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for s in monos:
            shifted = {}
            ok = True
            for m, c in g.terms.items():
                t = (m[0] + s[0], m[1] + s[1])
                if t not in index:
                    ok = False
                    break
                shifted[index[t]] = c
            if ok and shifted:
                rows.append(shifted)
    # row reduce sparsely
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            j = max(row)
            if j in pivots:
                piv = pivots[j]
                f = row[j] / piv[j]
                for k, v in piv.items():
                    s = row.get(k, Fraction(0)) - f * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
            else:
                pivots[j] = row
                break
    return len(monos) - len(pivots)


def test_buchberger_trivial():
    ideal = Ideal([X, Y])
    assert [poly_str(g) for g in ideal.groebner] == ["y", "x"]


def test_buchberger_linear_reduction():
    ideal = Ideal([X - Y, Y])
    assert [poly_str(g) for g in ideal.groebner] == ["y", "x"]


def test_buchberger_cluster_ideal_n5():
    # I_2(1:1) for n=5: hand S-polynomial oracle gives leading terms {y^3, x^3, xy}
    gens = [X**2 - Y**3, X**3, X * Y, Y**4]
    ideal = Ideal(gens)
    leads = sorted(g.leading()[0] for g in ideal.groebner)
    assert leads == [(0, 3), (1, 1), (3, 0)]
    # y^4 was redundant
    assert len(ideal.groebner) == 3


def test_normal_form_examples():
    assert Ideal([X, Y]).normal_form(X**2).is_zero()
    ideal = Ideal([X**2 - Y**3, X**3, X * Y, Y**4])
    assert ideal.normal_form(Y**3) == X**2
    assert ideal.normal_form(ONE) == ONE


def test_staircase_examples():
    assert staircase(Ideal([X, Y])) == ((0, 0),)
    ideal = Ideal([X**2 - Y**3, X**3, X * Y, Y**4])
    st = staircase(ideal)
    assert len(st) == 5
    assert set(st) == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}
    # brute-force oracle on a degree-6 truncation agrees
    assert brute_quotient_dim([X**2 - Y**3, X**3, X * Y, Y**4], 6) == 5
    with pytest.raises(InfiniteDimensional):
        staircase(Ideal([X**2]))


def test_normal_form_linearity_and_products():
    rng = random.Random(5)

    def rand_poly():
        return Poly(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-4, 4))
                for _ in range(4)
            },
        )

    ideal = Ideal([X**3 - Y, Y**2 - X])
    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        nf = ideal.normal_form
        assert nf(f + g) == nf(f) + nf(g)
        assert nf(f * g) == nf(nf(f) * g)
        # f - nf(f) lies in the ideal
        assert nf(f - nf(f)).is_zero()


def test_reduced_basis_is_unique_under_permutation():
    gens = [X**2 + Y**2, X**3, X * Y, Y**3]
    base = tuple(groebner_basis(gens))
    for perm in itertools.permutations(gens):
        assert tuple(groebner_basis(list(perm))) == base


def test_buchberger_idempotent():
    gens = [X**2 - Y**3, X**3, X * Y]
    gb = groebner_basis(gens)
    assert groebner_basis(gb) == gb


def test_trivariate_order():
    z = Poly.var("z", 3)
    x3 = Poly.var("x", 3)
    p = z + x3**2  # grlex: deg 2 term x^2 beats z
    assert p.leading()[0] == (2, 0, 0)
    q = z * x3 + x3**2  # tie at degree 2: z biggest variable wins
    assert q.leading()[0] == (1, 0, 1)


def test_poly_text_pins():
    samples = {
        "x^2*y - 2*x + 1": X**2 * Y - 2 * X + ONE,
        "5/3*x^3*y - 1/2": Poly(2, {(0, 0): Fraction(-1, 2), (3, 1): Fraction(5, 3)}),
        "y^4 - x": Y**4 - X,
        "0": Poly.zero(),
    }
    for text, p in samples.items():
        assert poly_str(p) == text == str(p)


MONOS = st.tuples(st.integers(0, 4), st.integers(0, 4))
COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(MONOS, COEFFS, max_size=6).map(lambda t: Poly(2, t)),
    st.integers(0, 5),
    st.booleans(),
    st.integers(0, 1),
    st.integers(0, 4),
    COEFFS,
)
def test_poly_str_tells_one_change_apart(p, pick, move, var, exp, coeff):
    """poly_str is injective on bivariate polynomials: q is p with one
    coefficient or one exponent changed, and the texts agree exactly when
    the polynomials do (criterion 5 compares strict transforms as text)."""
    terms = dict(p.terms)
    mono = sorted(terms)[pick % len(terms)] if terms else (pick % 5, 0)
    if move:
        moved = list(mono)
        moved[var] = exp
        c = terms.pop(mono, Fraction(1))
        terms[tuple(moved)] = terms.get(tuple(moved), 0) + c
    else:
        terms[mono] = coeff
    q = Poly(2, terms)
    assert (p == q) == (poly_str(p) == poly_str(q))


def test_rational_roots_examples():
    # (u+1)^2 (u-3) = u^3 - u^2 - 5u - 3
    coeffs = [Fraction(-3), Fraction(-5), Fraction(-1), Fraction(1)]
    assert rational_roots(coeffs) == ([(Fraction(-1), 2), (Fraction(3), 1)], [1])
    # u^2 + 1 has no rational roots: it is the whole cofactor
    assert rational_roots([Fraction(1), Fraction(0), Fraction(1)]) == ([], [1, 0, 1])
    # u^2: the zero root, stripped before the candidates are tried
    assert rational_roots([Fraction(0), Fraction(0), Fraction(1)]) == ([(Fraction(0), 2)], [1])


def test_rational_roots_of_int_coefficients():
    """Int coefficients are divided over Z only, never with a true division."""
    assert rational_roots([1, 2, 1]) == ([(Fraction(-1), 2)], [1])


def _times(a, b):
    """Product of two coefficient lists, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


ROOTS = st.dictionaries(
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda pq: Fraction(*pq)),
    st.integers(1, 3),
    max_size=3,
)
SCALES = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)


@settings(max_examples=200, deadline=None)
@given(ROOTS, st.sampled_from([None, 1, 2, 3]), SCALES)
def test_rational_roots_finds_the_drawn_roots(drawn, k, scale):
    """The product of (q*t - p)^mult over drawn roots p/q, maybe times the
    rootless t^2 + k, scaled by a rational: rational_roots returns exactly
    the drawn roots with their multiplicities, sorted, as Fractions, and the
    primitive integer cofactor t^2 + k or 1, for int and Fraction input."""
    coeffs = [1]
    for r, m in drawn.items():
        for _ in range(m):
            coeffs = _times(coeffs, [-r.numerator, r.denominator])
    if k:
        coeffs = _times(coeffs, [k, 0, 1])
    roots, rest = rational_roots([c * scale for c in coeffs])
    assert roots == sorted(drawn.items())
    assert rest == ([k, 0, 1] if k else [1])
    assert all(type(r) is Fraction for r, _ in roots)
    assert all(type(c) is int for c in rest)
    assert sum(m for _, m in roots) + len(rest) - 1 == len(coeffs) - 1
    assert rational_roots([c * scale.numerator for c in coeffs]) == (roots, rest)
