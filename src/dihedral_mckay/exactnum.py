"""Exact arithmetic kernel: rationals and the ring Q[t]/(t^n - 1).

Sums of n-th roots of unity are carried in the group ring Q[t]/(t^n - 1)
(coefficient vector of length n), never as floats.  The ring has zero
divisors; an element's value as a complex number is its image under
t -> exp(2*pi*i/n), and that value is rational exactly when the element
is congruent to a constant modulo the n-th cyclotomic polynomial.  Two
extraction routines are provided:

* ``expect_rational`` -- strict: the coefficient vector itself must be
  constant.
* ``rational_value`` -- reduces modulo the n-th cyclotomic polynomial
  (computed by exact division, no factoring) and accepts a constant
  remainder.  Character inner products use this one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Rat = Fraction


class OrderMismatch(ValueError):
    """Raised when combining CycloElt values of different orders."""


class NotRational(ValueError):
    """Raised when a CycloElt is expected to be rational but is not."""


@lru_cache(maxsize=None)
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
            num = _exact_poly_div(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


def _exact_poly_div(num, den):
    """Exact division of integer polynomials (low degree first)."""
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


_ZERO = Fraction(0)


class CycloElt:
    """Element of Q[t]/(t^n - 1), the carrier for root-of-unity sums."""

    __slots__ = ("order", "coeffs", "_nz", "_inz")

    def __init__(self, order, coeffs):
        if order < 1:
            raise ValueError("order must be positive")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != order:
            raise ValueError("coefficient vector must have length = order")
        self.order = order
        self.coeffs = coeffs
        self._nz = None
        self._inz = False

    def nonzeros(self):
        """Sparse view [(exponent, coefficient), ...]; cached."""
        if self._nz is None:
            self._nz = tuple((k, c) for k, c in enumerate(self.coeffs) if c != 0)
        return self._nz

    def int_nonzeros(self):
        """Sparse integer view, or None when a coefficient is non-integral."""
        if self._inz is False:
            out = []
            for k, c in self.nonzeros():
                if c.denominator != 1:
                    out = None
                    break
                out.append((k, c.numerator))
            self._inz = tuple(out) if out is not None else None
        return self._inz

    @classmethod
    def _raw(cls, order, coeffs):
        """Trusted constructor: coeffs is already a length-order Fraction tuple."""
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        self._nz = None
        self._inz = False
        return self

    @classmethod
    def zero(cls, order):
        return cls._raw(order, (_ZERO,) * order)

    @classmethod
    def from_rational(cls, order, value):
        c = [_ZERO] * order
        c[0] = Fraction(value)
        return cls._raw(order, tuple(c))

    @classmethod
    def root_power(cls, order, k, coeff=1):
        """coeff * t^k (exponent reduced mod order)."""
        c = [_ZERO] * order
        c[k % order] += Fraction(coeff)
        return cls._raw(order, tuple(c))

    def _check(self, other):
        if not isinstance(other, CycloElt):
            raise TypeError("expected CycloElt")
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def __add__(self, other):
        self._check(other)
        return CycloElt._raw(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        self._check(other)
        return CycloElt._raw(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        return CycloElt._raw(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElt._raw(self.order, tuple(a * q for a in self.coeffs))
        self._check(other)
        return cyc_mul(self, other)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CycloElt)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def conjugate(self):
        return conjugate(self)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(f"t^{k}")
            else:
                terms.append(f"{c}*t^{k}")
        return " + ".join(terms) if terms else "0"


def cyc_mul(a, b):
    """Product in Q[t]/(t^n - 1): cyclic convolution of coefficients."""
    a._check(b)
    n = a.order
    out = [_ZERO] * n
    for i, ca in a.nonzeros():
        for j, cb in b.nonzeros():
            k = i + j
            if k >= n:
                k -= n
            out[k] += ca * cb
    return CycloElt._raw(n, tuple(out))


def conjugate(a):
    """Ring involution t -> t^(n-1), i.e. complex conjugation on values."""
    n = a.order
    out = [_ZERO] * n
    for k, c in enumerate(a.coeffs):
        out[(n - k) % n] = c
    return CycloElt._raw(n, tuple(out))


def expect_rational(a):
    """Return coeffs[0] when every higher coefficient vanishes.

    Strict: no cyclotomic reduction is attempted.  A surviving
    non-constant coefficient signals an arithmetic or theory bug in the
    caller (or a value that is only rational modulo Phi_n; use
    ``rational_value`` for those).
    """
    if any(c != 0 for c in a.coeffs[1:]):
        raise NotRational(f"non-constant element: {a!r}")
    return a.coeffs[0]


def rational_value(a):
    """Value of ``a`` at a primitive n-th root of unity, if rational.

    Reduces the coefficient vector modulo the n-th cyclotomic polynomial
    and returns the remainder when it is constant.
    """
    if all(c == 0 for c in a.coeffs[1:]):
        return a.coeffs[0]
    rem = _mod_cyclotomic(a.coeffs, a.order)
    if any(rem[1:]):
        raise NotRational(f"irrational value: {a!r}")
    return Fraction(rem[0])


def _mod_cyclotomic(coeffs, n):
    """Remainder (length deg Phi_n) of a dense coefficient list modulo Phi_n.

    Integral input (ints or integral Fractions) is reduced in int
    arithmetic and gives an int remainder; other input gives Fractions.
    """
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if all(isinstance(c, int) or c.denominator == 1 for c in coeffs):
        work = [int(c) for c in coeffs]
    else:
        work = [Fraction(c) for c in coeffs]
    # Phi_n is monic, so plain synthetic division works over Z or Q.
    for i in range(len(work) - 1, deg - 1, -1):
        q = work[i]
        if q:
            for j in range(deg + 1):
                work[i - deg + j] -= q * phi[j]
    return work[:deg]
