"""Exact arithmetic kernel: rationals and the ring Q[t]/(t^n - 1).

Sums of n-th roots of unity are carried in the group ring Q[t]/(t^n - 1),
never as floats.  An element is sparse: ``terms`` maps each exponent in
range(n) whose coefficient is nonzero to that coefficient, an int when
it is integral and a Fraction otherwise.  Integer characters therefore
run in int arithmetic with no separate code path, and ``==`` compares
values, since Fraction(2) == 2.  An element
is a read-only value: ``CycloElt(order, terms)`` is its one constructor,
it refuses attribute writes and its ``terms`` refuse item writes, so
tables and memos share elements safely.  ``cyc_mul`` is the ring
product; ``*`` only scales by an int or a Fraction.  The ring has zero
divisors; an element's value as a complex number is its image under
t -> exp(2*pi*i/n), and that value is rational exactly when the element
is congruent to a constant modulo the n-th cyclotomic polynomial.  Two
extraction routines are provided:

* ``expect_rational`` -- strict: the element itself must be constant.
* ``rational_value`` -- reduces modulo the n-th cyclotomic polynomial
  (computed by exact division, no factoring) and accepts a constant
  remainder.  It and ``reps.gram``'s dense pairing sums share
  ``_dense_rational``, the one Phi_n reduction in the package; it reads
  ``_phi_terms(n)`` from the memo ``_phi_reducer`` or, in ``gram``, the group.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType


class NotRational(ValueError):
    """Raised when a CycloElt is expected to be rational but is not."""


def cyclotomic_polynomial(n):
    """Coefficients (low degree first) of the n-th cyclotomic polynomial.

    Computed as (t^n - 1) divided by the product of Phi_d over proper
    divisors d of n; all divisions are exact over Z.
    """
    if n < 1:
        raise ValueError("order must be positive")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    for d in range(1, n):
        if n % d == 0:
            num = exact_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _phi_terms(n):
    """deg Phi_n and the nonzero lower terms of Phi_n as (j - deg, p_j), built afresh."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j - deg, pj) for j, pj in enumerate(phi[:-1]) if pj)


_phi_reducer = lru_cache(maxsize=None)(_phi_terms)  # the one memo of Phi_n


def exact_poly_div(num, den):
    """Exact division of integer polynomials (low degree first); raises
    ArithmeticError when den does not divide num over Z."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("division not exact")
        q = c // den[-1]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("division not exact")
    return out


class ReadOnly:
    """Base of the package's read-only values: each subclass names its fields in
    ``__slots__`` and sets them in ``__init__`` by ``object.__setattr__``; after
    that every attribute write and delete is refused."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name} to {value!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name}")


class CycloElt(ReadOnly):
    """Element of Q[t]/(t^n - 1), the carrier for root-of-unity sums; read-only once built.

    Its one constructor is ``CycloElt(order, terms)``; ``*`` scales by an int or
    a Fraction, and ``cyc_mul`` is the ring product."""

    __slots__ = ("order", "terms")

    def __init__(self, order, terms):
        """From sparse terms {exponent in range(order): int or Fraction}, trusted:
        zero coefficients are dropped and integral Fractions become ints."""
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", MappingProxyType(_normal(terms)))

    def _check(self, other):
        if not isinstance(other, CycloElt):
            raise TypeError("expected CycloElt")
        if self.order != other.order:
            raise ValueError(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        out = self.terms.copy()
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return CycloElt(self.order, out)

    def __sub__(self, other):
        self._check(other)
        out = self.terms.copy()
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return CycloElt(self.order, out)

    def __neg__(self):
        return CycloElt(self.order, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return CycloElt(self.order, {k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CycloElt)
            and self.order == other.order
            and self.terms == other.terms
        )

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        terms = []
        for k, c in sorted(self.terms.items()):
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"t^{k}")
            else:
                terms.append(f"{c}*t^{k}")
        return " + ".join(terms) if terms else "0"


def as_fraction(value):
    """value as a Fraction, refusing with a ValueError anything but an int or a Fraction."""
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"not an int or a Fraction: {value!r}")
    return Fraction(value)


def _normal(terms):
    """Drop zero coefficients and turn integral Fractions into ints."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in terms.items() if c}


def cyc_mul(a, b):
    """Product in Q[t]/(t^n - 1): cyclic convolution of coefficients."""
    a._check(b)
    n = a.order
    out = {}
    for i, ca in a.terms.items():
        for j, cb in b.terms.items():
            k = i + j
            if k >= n:
                k -= n
            out[k] = out.get(k, 0) + ca * cb
    return CycloElt(n, out)


def expect_rational(a):
    """Return the constant coefficient, as a Fraction, when no other survives.

    Strict: no cyclotomic reduction is attempted.  A surviving
    non-constant coefficient signals an arithmetic or theory bug in the
    caller (or a value that is only rational modulo Phi_n; use
    ``rational_value`` for those).
    """
    if not a.terms.keys() <= {0}:
        raise NotRational(f"non-constant element: {a!r}")
    return Fraction(a.terms.get(0, 0))


def rational_value(a):
    """Value of ``a`` at a primitive n-th root of unity, as a Fraction, if rational.

    Reduces the coefficients modulo the n-th cyclotomic polynomial by
    synthetic division over a dense work list and returns the remainder
    when it is constant.  Phi_n is monic with integer coefficients, so
    integral input stays in int arithmetic.
    """
    return _dense_rational(_phi_reducer(a.order), [a.terms.get(k, 0) for k in range(a.order)])


def _dense_rational(phi, coeffs):
    """``rational_value`` of the element with dense coefficients ``coeffs`` (length
    n, exponent 0 first, left unchanged), by phi = ``_phi_terms(n)``."""
    # Phi_n is monic, so subtracting q * t^(i - deg) * Phi_n clears t^i;
    # only its lower nonzero terms are applied, as work[i] is not read again
    n, (deg, low) = len(coeffs), phi
    work = list(coeffs)
    for i in range(n - 1, deg - 1, -1):
        q = work[i]
        if q:
            for j, pj in low:
                work[i + j] -= q * pj
    if any(work[1:deg]):
        raise NotRational(f"irrational value: {CycloElt(n, dict(enumerate(coeffs)))!r}")
    return Fraction(work[0])
