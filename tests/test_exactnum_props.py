"""Properties of Q[t]/(t^n - 1) through the public CycloElt API.

Elements are random sparse vectors whose coefficients mix ints and
Fractions (integral ones included), so every property also checks that
the two coefficient types combine into one value.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_mckay.exactnum import (
    CycloElt,
    NotRational,
    cyc_mul,
    cyclotomic_polynomial,
    rational_value,
)
from reference import conjugate

ORDERS = st.integers(1, 12)

# mostly zeros; otherwise a small int, an integral Fraction or a proper one
COEFF = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


def elements(n):
    return st.lists(COEFF, min_size=n, max_size=n).map(lambda c: CycloElt(n, dict(enumerate(c))))


def triples():
    return ORDERS.flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n)))


def reference_value(a):
    """Dense synthetic division by Phi_n; (remainder constant, constant)."""
    phi = cyclotomic_polynomial(a.order)
    deg = len(phi) - 1
    work = [Fraction(a.terms.get(k, 0)) for k in range(a.order)]
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        for j in range(deg + 1):
            work[i - deg + j] -= q * phi[j]
    rem = work[:deg]
    if any(rem[1:]):
        return False, None
    return True, rem[0]


@settings(max_examples=100, deadline=None)
@given(triples())
def test_ring_axioms(abc):
    a, b, c = abc
    n = a.order
    zero, one = CycloElt(n, {}), CycloElt(n, {0: 1})
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and a - a == zero and a + (-a) == zero
    assert a - b == a + (-b)
    assert cyc_mul(a, b) == cyc_mul(b, a)
    assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
    assert cyc_mul(a, b + c) == cyc_mul(a, b) + cyc_mul(a, c)
    assert cyc_mul(a, one) == a and cyc_mul(a, zero).is_zero()
    with pytest.raises(TypeError):
        a * b  # cyc_mul is the one ring product


@settings(max_examples=100, deadline=None)
@given(triples(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_scalar_multiplication(abc, q):
    a, b, _ = abc
    n = a.order
    assert q * a == a * q == cyc_mul(CycloElt(n, {0: q}), a)
    assert q * (a + b) == q * a + q * b
    assert 2 * a == a + a
    assert (a * 3) * Fraction(1, 3) == a


@settings(max_examples=100, deadline=None)
@given(triples())
def test_conjugation_is_a_ring_homomorphism(abc):
    a, b, _ = abc
    n = a.order
    assert conjugate(conjugate(a)) == a
    assert conjugate(a + b) == conjugate(a) + conjugate(b)
    assert conjugate(a - b) == conjugate(a) - conjugate(b)
    assert conjugate(cyc_mul(a, b)) == cyc_mul(conjugate(a), conjugate(b))
    assert conjugate(CycloElt(n, {0: 1})) == CycloElt(n, {0: 1})
    for k in range(n):
        assert conjugate(CycloElt(n, {k: 1})) == CycloElt(n, {-k % n: 1})


@settings(max_examples=100, deadline=None)
@given(ORDERS.flatmap(lambda n: st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
def test_equal_values_compare_equal(ints):
    n = len(ints)
    a = CycloElt(n, dict(enumerate(ints)))
    b = CycloElt(n, {k: Fraction(c) for k, c in enumerate(ints)})
    summed = CycloElt(n, {})
    for k, c in enumerate(ints):
        summed = summed + CycloElt(n, {k: 1}) * c
    # integral Fractions reached through arithmetic on proper ones
    halves = CycloElt(n, {k: Fraction(c, 2) for k, c in enumerate(ints)})
    for other in (b, summed, halves + halves, halves * 2, -(-a)):
        assert a == other
    assert (a == a + CycloElt(n, {0: 1})) is False
    assert a != CycloElt(n + 1, dict(enumerate(ints)))


@settings(max_examples=150, deadline=None)
@given(ORDERS.flatmap(elements))
def test_rational_value_matches_dense_reference(a):
    rational, value = reference_value(a)
    if rational:
        assert rational_value(a) == value
    else:
        with pytest.raises(NotRational):
            rational_value(a)


@settings(max_examples=100, deadline=None)
@given(ORDERS.flatmap(elements), st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_rational_value_of_constant_plus_phi_multiple(b, q):
    """q + Phi_n * b has value q at a primitive root, whatever b is."""
    n = b.order
    phi = CycloElt(n, {})
    for k, c in enumerate(cyclotomic_polynomial(n)):
        phi = phi + CycloElt(n, {k % n: 1}) * c  # Phi_1 = t - 1 has degree 1 = n
    a = CycloElt(n, {0: q}) + cyc_mul(phi, b)
    assert reference_value(a) == (True, q)
    assert rational_value(a) == q
