"""Reference forms that several test modules share and the package never
needs: ``reps.gram`` conjugates inline, and the properties check it against
``conjugate``; ``leibniz_det`` is independent of ``linalg``;
``reference_closure`` builds Buchberger's closure with ``Poly`` arithmetic and
one pair rule; ``reflected`` expands f(1 - x, y) on dense Pascal rows;
``criterion_4_points`` draws criterion 4's points;
``with_fields`` builds a changed copy of a read-only value and
``check_read_only`` tries every write on one."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dihedral_mckay.exactnum import CycloElt
from dihedral_mckay.hilb import ClusterPoint
from dihedral_mckay.polyring import Poly


def conjugate(a):
    """Ring involution t -> t^(n-1), i.e. complex conjugation on values."""
    n = a.order
    return CycloElt(n, {-k % n: c for k, c in a.terms.items()})


def leibniz_det(m):
    """Determinant of an integer matrix by the Leibniz sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        total += sign * math.prod(m[r][c] for r, c in enumerate(perm))
    return total


def with_fields(value, **changes):
    """A new value of value's type, built by its constructor from its slots
    with the named ones changed; the package changes a config by building a new one."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    return type(value)(**{**fields, **changes})


def check_read_only(value):
    """Setting or deleting each slot of value, or a new name, raises an
    AttributeError that says read-only, and each slot keeps its value."""
    slots = type(value).__slots__
    before = {name: getattr(value, name, None) for name in slots}
    for name in (*slots, "spoiled"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(value, name, before.get(name, 1))
        with pytest.raises(AttributeError, match="read-only"):
            delattr(value, name)
    assert all(getattr(value, name, None) is v for name, v in before.items())
    assert not hasattr(value, "spoiled")


def cp(i, a, b):
    return ClusterPoint(i, Fraction(a), Fraction(b))


def coefficients_are_normal(values):
    """Every value is nonzero, an int when it is integral and a Fraction otherwise."""
    return all(c != 0 and type(c) is (int if c.denominator == 1 else Fraction) for c in values)


def reflected(terms):
    """f(1 - x, y) for f given as {(i, j): coefficient}, zero terms dropped:
    x^i expands along Pascal's row i, a dense list of Fractions built by
    addition, with alternating signs."""
    out = {}
    for (i, j), c in terms.items():
        row = [Fraction(1)]
        for _ in range(i):
            row = [a + b for a, b in zip([Fraction(0), *row], [*row, Fraction(0)])]
        for k, binom in enumerate(row):
            out[(k, j)] = out.get((k, j), Fraction(0)) + (-1) ** k * binom * Fraction(c)
    return {mono: c for mono, c in out.items() if c}


def criterion_4_points(n_max, seed=7):
    """The points criterion 4 draws: 200 per n, as it draws them."""
    rng = random.Random(seed)
    for n in range(3, n_max + 1):
        for _ in range(200):
            i = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a == 0 and b == 0:
                a = Fraction(1)
            yield n, ClusterPoint(i, a, b)


def reference_closure(gens):
    """Buchberger's S-pair closure as ``polyring._closure`` walks its pairs, with
    only the coprime rule: every other pair, two monomials among them, is built
    as m_f f - m_g g from ``Poly`` products and divided by the basis, each step
    cancelling the leading term with the first element whose leading monomial
    divides it."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        (a, b), (c, d) = basis[i].leading()[0], basis[j].leading()[0]
        if (a == 0 or c == 0) and (b == 0 or d == 0):
            continue
        la, lb = max(a, c), max(b, d)
        f = Poly.mono((la - a, lb - b)) * basis[i] - Poly.mono((la - c, lb - d)) * basis[j]
        rem = Poly(2)
        while not f.is_zero():
            m, coeff = f.leading()
            for g in basis:
                lm = g.leading()[0]
                if lm[0] <= m[0] and lm[1] <= m[1]:
                    f -= Poly.mono((m[0] - lm[0], m[1] - lm[1])) * g * coeff
                    break
            else:
                rem += Poly(2, {m: coeff})
                f -= Poly(2, {m: coeff})
        if not rem.is_zero():
            basis.append(rem.monic())
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis
