import cmath
import random
from fractions import Fraction

import pytest

from dihedral_mckay.exactnum import (
    CycloElt,
    NotRational,
    cyc_mul,
    cyclotomic_polynomial,
    exact_poly_div,
    expect_rational,
    rational_value,
)
from reference import conjugate


def t_power(n, k):
    return CycloElt(n, {k % n: 1})


def to_complex(a):
    """Independent evaluation at exp(2*pi*i/n)."""
    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(float(c) * z**k for k, c in a.terms.items())


def rand_elt(rng, n, span=3):
    return CycloElt(n, {k: Fraction(rng.randint(-span, span), rng.randint(1, 3)) for k in range(n)})


def test_t_times_t_inverse_power_is_one():
    for n in (2, 3, 7, 12):
        one = cyc_mul(t_power(n, 1), t_power(n, n - 1))
        assert one == CycloElt(n, {0: 1})


def test_zero_absorbs():
    a = CycloElt(5, {0: 1, 1: 2, 4: 3})
    assert cyc_mul(a, CycloElt(5, {})).is_zero()


def test_mul_n4_hand_oracle():
    # (t + t^3)^2 = t^2 + 2 t^4 + t^6 = 2 + 2 t^2 once exponents reduce mod 4
    a = t_power(4, 1) + t_power(4, 3)
    sq = cyc_mul(a, a)
    assert sq == CycloElt(4, {0: 2, 2: 2})


def test_order_mismatch():
    with pytest.raises(ValueError, match="^orders differ: 3 != 4$"):
        cyc_mul(t_power(3, 1), t_power(4, 1))
    with pytest.raises(TypeError, match="^expected CycloElt$"):
        t_power(3, 1) + 1


def test_conjugate_definition_and_involution():
    assert conjugate(CycloElt(6, {0: 1})) == CycloElt(6, {0: 1})
    assert conjugate(t_power(5, 1)) == t_power(5, 4)
    rng = random.Random(7)
    for n in (2, 5, 9):
        a = rand_elt(rng, n)
        assert conjugate(conjugate(a)) == a


def test_conjugate_is_ring_hom():
    rng = random.Random(11)
    for n in range(1, 51):
        a = rand_elt(rng, n, span=2)
        b = rand_elt(rng, n, span=2)
        assert conjugate(cyc_mul(a, b)) == cyc_mul(conjugate(a), conjugate(b))
        assert conjugate(a + b) == conjugate(a) + conjugate(b)


def test_ring_axioms_random_triples():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 12)
        a, b, c = (rand_elt(rng, n) for _ in range(3))
        assert cyc_mul(cyc_mul(a, b), c) == cyc_mul(a, cyc_mul(b, c))
        assert cyc_mul(a, b) == cyc_mul(b, a)
        assert cyc_mul(a, b + c) == cyc_mul(a, b) + cyc_mul(a, c)


def test_ring_product_is_cyc_mul_alone():
    """``*`` scales by an int or a Fraction; two elements multiply only by cyc_mul."""
    a, b = CycloElt(5, {1: 1}), CycloElt(5, {2: 1})
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        a * 0.5
    assert cyc_mul(a, b) == CycloElt(5, {3: 1})
    assert 2 * a == a * 2 == CycloElt(5, {1: 2})


def test_an_element_refuses_every_write():
    a = CycloElt(6, {0: 1, 2: Fraction(1, 2)})
    for name in ("order", "terms", "spoiled"):
        with pytest.raises(AttributeError, match="CycloElt is read-only"):
            setattr(a, name, 7)
        with pytest.raises(AttributeError, match="CycloElt is read-only"):
            delattr(a, name)
    with pytest.raises(TypeError):
        a.terms[0] = 7
    with pytest.raises(TypeError):
        del a.terms[0]
    assert a == CycloElt(6, {0: 1, 2: Fraction(1, 2)})


def test_the_constructor_keeps_no_reference_to_its_terms():
    terms = {0: 1, 3: Fraction(2)}
    a = CycloElt(4, terms)
    terms[0] = 5
    assert a.terms == {0: 1, 3: 2} and type(a.terms[3]) is int


def test_expect_rational_strict():
    a = CycloElt(4, {0: 3})
    assert expect_rational(a) == 3
    with pytest.raises(NotRational):
        expect_rational(t_power(3, 1) + t_power(3, 2))


def test_power_times_conjugate_is_one():
    for n in (1, 2, 6, 11):
        for k in range(n):
            a = t_power(n, k)
            assert expect_rational(cyc_mul(a, conjugate(a))) == 1


def test_root_of_unity_sum_n4():
    # Oracle: brute-force sum over complex 4th roots of unity.
    z = cmath.exp(2j * cmath.pi / 4)
    target = sum((z**i + z**-i) * (z**-i + z**i) for i in range(4))
    assert abs(target.imag) < 1e-12 and abs(target.real - 8) < 1e-12

    total = CycloElt(4, {})
    for i in range(4):
        v = t_power(4, i) + t_power(4, -i)
        total = total + cyc_mul(v, conjugate(v))
    # The group-ring sum is 12 + 4t^2; only the cyclotomic extraction sees 8.
    assert total == CycloElt(4, {0: 12, 2: 4})
    with pytest.raises(NotRational):
        expect_rational(total)
    assert rational_value(total) == 8


def test_rational_value_matches_complex_evaluation():
    rng = random.Random(42)
    for n in (2, 3, 4, 6, 8, 12, 30):
        # full orbit sums are rational
        a = CycloElt(n, {})
        s = rng.randint(1, n - 1)
        for i in range(n):
            a = a + t_power(n, i * s)
        v = rational_value(a)
        assert abs(to_complex(a) - float(v)) < 1e-9


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    def phi(n):
        return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)

    def _gcd(a, b):
        while b:
            a, b = b, a % b
        return a

    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == phi(n)
    with pytest.raises(ValueError, match="^order must be positive$"):
        cyclotomic_polynomial(0)
    # the division they rest on refuses a leading coefficient it cannot
    # divide, and a remainder: 1 + t by 1 + 2t, and 1 + t^2 by 1 + t
    for num, den in (([1, 1], [1, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(ArithmeticError, match="^division not exact$"):
            exact_poly_div(num, den)
