import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from dihedral_mckay import hilb
from dihedral_mckay.polyring import (
    Ideal,
    Poly,
    _closure,
    _key,
    _reduce,
    _spoly,
    groebner_basis,
    poly_str,
    rational_roots,
    staircase,
)
from reference import coefficients_are_normal, criterion_4_points, reference_closure

X = Poly.var("x")
Y = Poly.var("y")
ONE = Poly.one(2)


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
                f = Fraction(row[j], piv[j])
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


def test_reduction_refuses_a_basis_that_is_not_monic():
    """A reduction step subtracts c * g with no division, so a basis element
    whose leading coefficient is not 1 is refused, naming that coefficient."""
    with pytest.raises(ValueError, match="leading coefficient 2"):
        _reduce(X**2, [2 * X - ONE])
    assert _reduce(X**2, [X - Fraction(1, 2) * ONE]) == Fraction(1, 4) * ONE


def test_arithmetic_refuses_mixed_variable_counts():
    x3 = Poly.var("x", 3)
    for op in (lambda: X + x3, lambda: X - x3, lambda: X * x3):
        with pytest.raises(ValueError, match="mixed variable counts"):
            op()


def test_groebner_refuses_polynomials_that_are_not_bivariate():
    """The Groebner kernel works on exponent pairs: a 3-variable generator,
    alone or next to bivariate ones, is refused with its variable count
    named before any basis is computed, and so is a 3-variable polynomial
    handed to a normal form."""
    x3, z = Poly.var("x", 3), Poly.var("z", 3)
    for gens in ([x3, z], [X, Y, z**2]):
        with pytest.raises(ValueError, match="take 2 variables, not 3"):
            Ideal(gens)
        with pytest.raises(ValueError, match="take 2 variables, not 3"):
            groebner_basis(gens)
    with pytest.raises(ValueError, match="take 2 variables, not 3"):
        Ideal([X, Y]).normal_form(z)


def test_an_ideal_needs_a_nonzero_generator():
    for gens in ([], [Poly(2)], [Poly(2), Poly(3)]):
        with pytest.raises(ValueError, match="no nonzero generators"):
            Ideal(gens)


def test_staircase_examples():
    assert staircase(Ideal([X, Y])) == ((0, 0),)
    ideal = Ideal([X**2 - Y**3, X**3, X * Y, Y**4])
    st = staircase(ideal)
    assert len(st) == 5
    assert set(st) == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}
    # brute-force oracle on a degree-6 truncation agrees
    assert brute_quotient_dim([X**2 - Y**3, X**3, X * Y, Y**4], 6) == 5
    with pytest.raises(ValueError, match="^no pure power of y in the leading-term ideal$"):
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
        "0": Poly(2),
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


def test_rational_roots_strips_trailing_zero_coefficients():
    """A zero leading coefficient does not raise the degree: -1 + t + 0 t^2 has
    the one root 1."""
    assert rational_roots([-1, 1, 0]) == ([(Fraction(1), 1)], [1])


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


# --- Buchberger properties: the reduced basis, normal forms, staircases ---

SMALL_MONOS = {
    2: st.tuples(st.integers(0, 3), st.integers(0, 3)),
    3: st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
}
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def _polys(nvars, min_size=0, max_size=3):
    return st.dictionaries(SMALL_MONOS[nvars], NONZERO, min_size=min_size, max_size=max_size).map(
        lambda t: Poly(nvars, t)
    )


@st.composite
def generator_lists(draw):
    """Two or three small nonzero bivariate generators, and x^3 and y^3.
    The cubes keep the quotient within 9 monomials, so that each basis is
    cheap; without them a few drawn ideals take seconds."""
    gens = draw(st.lists(_polys(2, min_size=1), min_size=2, max_size=3))
    return gens + [X**3, Y**3]


def _coefficients(polys):
    """Every stored coefficient of the polynomials."""
    return [c for p in polys for c in p.terms.values()]


def _an_s_polynomial_survives(gens):
    """Buchberger appends a reduced S-polynomial exactly when some leading
    monomial of the reduced basis is divided by no generator's leading monomial."""
    leads = [g.leading()[0] for g in gens]
    return any(
        not any(all(map(int.__le__, lm, g.leading()[0])) for lm in leads)
        for g in groebner_basis(gens)
    )


def test_generator_lists_run_buchbergers_append_branch():
    """No S-polynomial survives on the product's ideals: the monic generators
    of every cluster ideal are already a Groebner basis.  The drawn lists do
    run that branch, so the properties below compare a basis that is not
    reduced with the reduced one."""
    unshrunk = settings(database=None, phases=[Phase.generate])
    gens = find(generator_lists(), _an_s_polynomial_survives, settings=unshrunk)
    assert _an_s_polynomial_survives(gens)


@settings(max_examples=100, deadline=None)
@given(st.tuples(_polys(2, 1), _polys(2, 1)), st.tuples(SMALL_MONOS[2], SMALL_MONOS[2]))
def test_spoly_is_the_difference_of_the_shifted_inputs(fg, monos):
    """_spoly copies each input shifted to the leading lcm and subtracts;
    the reference multiplies each by its shift monomial and subtracts.  A pair
    that cancels completely, such as f and itself or two monomials, gives no
    term."""
    f, g = (p.monic() for p in fg)
    mf, mg = f.leading()[0], g.leading()[0]
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    shift = [tuple(a - b for a, b in zip(lcm, m)) for m in (mf, mg)]
    want = Poly.mono(shift[0]) * f - Poly.mono(shift[1]) * g
    got = _spoly(f, g)
    assert got == want.terms and coefficients_are_normal(got.values())
    assert _spoly(f, f) == {}
    assert _spoly(*map(Poly.mono, monos)) == {}


def _two_monomials_share_a_variable(gens):
    """_closure's monomial rule skips a pair that the coprime rule keeps."""
    monos = [g.leading()[0] for g in gens if len(g.terms) == 1]
    return any(
        not ((a == 0 or c == 0) and (b == 0 or d == 0))
        for (a, b), (c, d) in itertools.combinations(monos, 2)
    )


def test_generator_lists_reach_the_monomial_pair_rule():
    """The drawn lists run the two-monomial skip, so the closure properties
    below compare it with a reference that reduces those pairs."""
    unshrunk = settings(database=None, phases=[Phase.generate])
    gens = find(generator_lists(), _two_monomials_share_a_variable, settings=unshrunk)
    assert _two_monomials_share_a_variable(gens)


@settings(max_examples=40, deadline=None)
@given(generator_lists(), st.lists(_polys(2, 1, 1), min_size=1, max_size=2))
def test_closure_is_the_reference_closure(gens, monomials):
    """Skipping the pairs of two monomials leaves the closure as it is, element
    for element and in order: on the drawn lists, and with one or two scaled
    monomials added, so that three or four generators are monomials."""
    for drawn in (gens, monomials + gens):
        assert _closure(drawn) == reference_closure(drawn)


def test_closure_is_the_reference_closure_on_criterion_4s_ideals():
    """Criterion 4's seed-7 cluster ideals for n <= 12, three monomials each."""
    for n, p in criterion_4_points(12):
        gens = hilb.cluster_ideal(n, p).generators
        assert _closure(gens) == reference_closure(gens), (n, p)


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.randoms(use_true_random=False), st.data())
def test_reduced_basis_ignores_order_and_scaling(gens, rng, data):
    """The reduced basis is a function of the ideal: permuting the generators
    or scaling each by a nonzero rational leaves it unchanged, and it is
    monic, sorted by leading term and mutually reduced."""
    base = groebner_basis(gens)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert groebner_basis(shuffled) == base
    scales = data.draw(st.lists(NONZERO, min_size=len(gens), max_size=len(gens)))
    assert groebner_basis([g * c for g, c in zip(gens, scales)]) == base
    assert all(g.leading()[1] == 1 for g in base)
    leads = [g.leading()[0] for g in base]
    assert all(
        (Poly.mono(a) + Poly.mono(b)).leading()[0] == b for a, b in zip(leads, leads[1:])
    )
    for g in base:
        for h in base:
            if h is not g:
                lead = h.leading()[0]
                assert not any(all(map(int.__le__, lead, m)) for m in g.terms)
    assert coefficients_are_normal(_coefficients(base))


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_staircase_is_the_box_filtered_by_the_leading_monomials(gens):
    """The staircase walks each x exponent below the least pure power of x up
    to its least y bound; the reference filters the whole pure-power box,
    monomial by monomial, against every leading monomial of the reduced basis."""
    ideal = Ideal(gens)
    leads = [g.leading()[0] for g in ideal.groebner]
    bounds = [min(m[v] for m in leads if sum(m) == m[v]) for v in range(2)]
    box = [
        m
        for m in itertools.product(*map(range, bounds))
        if not any(all(map(int.__le__, lm, m)) for lm in leads)
    ]
    assert staircase(ideal) == tuple(sorted(box, key=_key))


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.data())
def test_normal_form_is_linear_and_kills_the_generators(gens, data):
    """normal_form(a f + b g) = a normal_form(f) + b normal_form(g), and every
    generator times a monomial has normal form zero."""
    ideal = Ideal(gens)
    f, g = data.draw(_polys(2, max_size=4)), data.draw(_polys(2, max_size=4))
    a, b = data.draw(COEFFS), data.draw(COEFFS)
    nf = ideal.normal_form
    assert nf(f * a + g * b) == nf(f) * a + nf(g) * b
    assert nf(nf(f)) == nf(f)
    mono = data.draw(SMALL_MONOS[2])
    for gen in gens:
        assert nf(Poly.mono(mono) * gen * data.draw(NONZERO)).is_zero()
    assert coefficients_are_normal(_coefficients([nf(f), nf(g), nf(f * a + g * b)]))


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.data())
def test_normal_form_is_the_remainder_on_the_reduced_basis(gens, data):
    """A normal form is unique modulo any Groebner basis (Cox, Little and
    O'Shea, ch. 2 par. 6): normal_form gives the remainder on the reduced
    basis, the same terms in the same order."""
    ideal = Ideal(gens)
    f = data.draw(_polys(2, max_size=4)) * data.draw(_polys(2, max_size=4))
    got, want = ideal.normal_form(f), _reduce(f, ideal.groebner)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=60, deadline=None)
@given(generator_lists(), generator_lists(), st.randoms(use_true_random=False), st.data())
def test_ideals_are_equal_exactly_when_their_reduced_bases_are(gens, unrelated, rng, data):
    """Equality of ideals is equality of reduced bases: a shuffled copy of the
    generators, each scaled by a nonzero rational, gives an equal ideal, and an
    unrelated list, or the reduced basis with a standard monomial below its
    leading term added to one element, gives an equal one exactly when the
    reduced bases agree.  The second keeps the leading terms, so the leading-term
    ideals often agree while the ideals differ."""
    copy = list(gens)
    rng.shuffle(copy)
    scales = data.draw(st.lists(NONZERO, min_size=len(copy), max_size=len(copy)))
    copy = [g * c for g, c in zip(copy, scales)]
    ideal = Ideal(gens)
    assert ideal == Ideal(copy) and Ideal(copy) == ideal
    moved = list(ideal.groebner)
    k = data.draw(st.integers(0, len(moved) - 1))
    below = [m for m in staircase(ideal) if _key(m) < _key(moved[k].leading()[0])]
    if below:
        moved[k] += Poly.mono(data.draw(st.sampled_from(below))) * data.draw(NONZERO)
    for other in (copy, unrelated, moved):
        same = groebner_basis(gens) == groebner_basis(other)
        assert (ideal == Ideal(other)) is (Ideal(other) == ideal) is same


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 14).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    COEFFS,
    COEFFS,
)
def test_cluster_quotient_has_length_n(ni, a, b):
    """Criterion 4 at random rational points: Q[x, y] / I_i(a:b) has length n."""
    n, i = ni
    if a == 0 and b == 0:
        a = Fraction(1)
    ideal = hilb.cluster_ideal(n, hilb.ClusterPoint(i, a, b))
    assert len(staircase(ideal)) == n
    assert coefficients_are_normal(_coefficients(ideal.groebner))


INT_OR_FRACTION = st.one_of(st.integers(-4, 4), NONZERO)


def _mixed_polys(nvars):
    """Polynomials drawn from int and Fraction coefficients, zeros included."""
    terms = st.dictionaries(SMALL_MONOS[nvars], INT_OR_FRACTION, max_size=4)
    return terms.map(lambda t: Poly(nvars, t))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda k: st.tuples(_mixed_polys(k), _mixed_polys(k), SMALL_MONOS[k])
    ),
    INT_OR_FRACTION,
    st.integers(0, 3),
)
def test_every_result_stores_integral_coefficients_as_ints(pqm, c, e):
    """Every polynomial that the constructor and the arithmetic build, and
    every normal form and reduced basis of a bivariate ideal, stores nonzero
    coefficients only: an int when it is integral and a Fraction otherwise."""
    p, q, mono = pqm
    results = [p, q, p + q, p - q, -p, p * q, p * c, c * p, Poly.mono(mono) * p * c, p**e]
    results += [p.monic(), q.monic()] + [p.substitute_zero(v) for v in range(p.nvars)]
    if p.nvars == 2:
        ideal = Ideal([p, q, X**3, Y**3])
        results += [ideal.normal_form(p * q + ONE), *ideal.groebner]
        results += groebner_basis([p * Fraction(2, 3), X**3 - Y, Y**3])
    assert coefficients_are_normal(_coefficients(results))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda k: st.tuples(_polys(k), _polys(k))), COEFFS)
def test_public_results_store_no_zero_and_only_exact_coefficients(pq, c):
    """No result of the arithmetic stores a zero coefficient (is_zero and ==
    read the stored terms), and every coefficient is an int or a Fraction."""
    p, q = pq
    nvars = p.nvars
    zero = Poly(nvars)
    mono = (1,) * nvars
    for z in (p - p, p + (-p), p * 0, p * Fraction(0), Poly.mono(mono) * p * 0):
        assert z.is_zero() and z == zero
    results = [p + q, p - q, -p, p * q, p * c, Poly.mono(mono) * p * c, p**2, q.monic()]
    assert coefficients_are_normal(_coefficients(results))
    if not p.is_zero():
        assert type(p.leading()[1]) in (int, Fraction)
        assert p.monic().leading()[1] == 1
    assert type(p.constant_term()) in (int, Fraction)
