"""Reference forms that several test modules share and the package never
needs: ``reps.gram`` conjugates inline, and the properties check it against
``conjugate``; ``leibniz_det`` is independent of ``linalg``."""

import itertools
import math
from fractions import Fraction

from dihedral_mckay.exactnum import CycloElt
from dihedral_mckay.hilb import ClusterPoint


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


def cp(i, a, b):
    return ClusterPoint(i, Fraction(a), Fraction(b))


def coefficients_are_normal(values):
    """Every value is nonzero, an int when it is integral and a Fraction otherwise."""
    return all(c != 0 and type(c) is (int if c.denominator == 1 else Fraction) for c in values)
