"""Exact polynomials over Q in 2 or 3 variables; grlex Groebner bases in 2.

Monomial order is graded lexicographic with z > x > y for the tie break
(x > y with two variables).  `Ideal` and `groebner_basis` take bivariate
polynomials only, on exponent pairs (a, b); 3-variable arithmetic serves the
chart atoms of `hilb`.  Any Groebner basis gives the leading-term ideal and the one
normal form (Cox, Little and O'Shea, ch. 2 par. 5-7), so staircases and normal forms
read Buchberger's S-pair closure; the reduced basis serves equality and printing.
The closure reduces no pair whose S-polynomial is known: two monomials give lcm - lcm
= 0, and coprime leading monomials reduce to zero (Buchberger's first criterion).
``poly_str`` is the one text form of a polynomial: output only, with no parser.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .exactnum import _normal, exact_poly_div

VAR_NAMES = ("x", "y", "z")


def _key(mono):
    # grlex: total degree, then lex with z largest, then x.
    if len(mono) == 3:
        return (mono[0] + mono[1] + mono[2], mono[2], mono[0])
    return (mono[0] + mono[1], mono[0])


class Poly:
    """Polynomial over Q in 2 or 3 variables; terms maps exponent tuple -> int or Fraction.

    Poly(nvars, terms) is the one constructor.  It trusts its input, nvars-tuples
    of nonnegative ints mapped to ints or Fractions, and stores a fresh dict with
    zero coefficients dropped and integral ones as ints (``exactnum._normal``).
    Terms never change, so leading() is cached."""

    __slots__ = ("nvars", "terms", "_lead")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = _normal(terms) if terms else {}
        self._lead = None

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def mono(cls, exps):
        return cls(len(exps), {tuple(exps): 1})

    @classmethod
    def var(cls, name, nvars=2):
        e = [0] * nvars
        e[VAR_NAMES.index(name)] = 1
        return cls.mono(e)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other):
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Poly(self.nvars, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("mixed variable counts")
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one(self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def leading(self):
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            m = max(self.terms, key=_key)
            self._lead = m, self.terms[m]
        return self._lead

    def monic(self):
        if not self.terms:
            return self
        _, c = self.leading()
        return self if c == 1 else self * (Fraction(1) / c)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def substitute_zero(self, var_index):
        """Set one variable to 0; result keeps the same nvars."""
        return Poly(self.nvars, {m: c for m, c in self.terms.items() if not m[var_index]})

    def univariate_in(self, var_index):
        """Coefficient list (low degree first) when only var_index occurs."""
        if any(sum(m) != m[var_index] for m in self.terms):
            raise ValueError("polynomial is not univariate in that variable")
        out = [0] * (max((m[var_index] for m in self.terms), default=0) + 1)
        for m, c in self.terms.items():
            out[m[var_index]] = c
        return out

    def __repr__(self):
        return poly_str(self)


def _divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1]


def _bivariate(polys):
    for g in polys:
        if g.nvars != 2:
            raise ValueError(f"Groebner bases take 2 variables, not {g.nvars}")


def _reduce(f, basis):
    """Full normal form of f against monic polynomials, by ``_remainder``.  A
    basis element that is not monic raises ValueError."""
    for g in basis:
        if g.leading()[1] != 1:
            raise ValueError(f"{g} is not monic: leading coefficient {g.leading()[1]}")
    return Poly(f.nvars, _remainder(dict(f.terms), [(g.leading()[0], g.terms) for g in basis]))


def _remainder(work, lts):
    """Reduce the term dict work (no zero values) in place against monic (lm, terms)
    pairs, and return the remainder's terms: a step cancels a term c*m by subtracting
    c * (m / lm) * g for the first g whose leading monomial lm divides m."""
    rem = {}
    while work:
        m = max(work, key=_key)
        c = work[m]
        a, b = m
        for lm, gterms in lts:
            if lm[0] <= a and lm[1] <= b:
                da, db = a - lm[0], b - lm[1]
                for (p, q), gc in gterms.items():
                    t = (p + da, q + db)
                    s = work[t] - c * gc if t in work else -c * gc
                    if s:
                        work[t] = s
                    else:
                        del work[t]
                break
        else:
            rem[m] = work.pop(m)
    return rem


def _spoly(f, g):
    """S-polynomial of two monic polynomials, shifted to their leading lcm, as a
    term dict with the cancelled terms dropped (``exactnum._normal``)."""
    (fa, fb), (ga, gb) = f.leading()[0], g.leading()[0]
    la, lb = max(fa, ga), max(fb, gb)
    out = {(p + la - fa, q + lb - fb): c for (p, q), c in f.terms.items()}
    for (p, q), c in g.terms.items():
        t = (p + la - ga, q + lb - gb)
        out[t] = out.get(t, 0) - c
    return _normal(out)


def _closure(gens):
    """Buchberger's S-pair closure: a monic grlex Groebner basis, not reduced.
    It skips the pairs whose S-polynomial is zero or reduces to zero, so the result
    is the same: two monomials (lcm - lcm) and coprime leading monomials (Buchberger's
    first criterion).  The rest reduce as term dicts; only a remainder is a Poly."""
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        raise ValueError("no nonzero generators")
    _bivariate(basis)
    lts = [(g.leading()[0], g.terms) for g in basis]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop()
        ((a, b), fterms), ((c, d), gterms) = lts[i], lts[j]
        if len(fterms) == len(gterms) == 1 or (a == 0 or c == 0) and (b == 0 or d == 0):
            continue
        s = _remainder(_spoly(basis[i], basis[j]), lts)
        if s:
            basis.append(Poly(2, s).monic())
            lts.append((basis[-1].leading()[0], basis[-1].terms))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def _minimal(basis):
    """The elements that no earlier leading monomial divides, in grlex order."""
    keep = []
    for g in sorted(basis, key=lambda g: _key(g.leading()[0])):
        if not any(_divides(h.leading()[0], g.leading()[0]) for h in keep):
            keep.append(g)
    return keep


def groebner_basis(gens):
    """Reduced grlex Groebner basis (monic, mutually reduced, sorted)."""
    keep = _minimal(_closure(gens))
    # inter-reduce tails: no other leading monomial divides g's, so g keeps
    # its monic leading term and its place in the order
    return [_reduce(g, keep[:i] + keep[i + 1 :]) for i, g in enumerate(keep)]


class Ideal:
    """Bivariate polynomial ideal.  Staircases and normal forms read ``closure``,
    built with the ideal; ``groebner``, the reduced basis, is built on first read."""

    def __init__(self, generators):
        self.generators = tuple(generators)
        self.closure = tuple(_closure(self.generators))

    @cached_property
    def groebner(self):
        return tuple(groebner_basis(self.closure))

    def normal_form(self, f):
        _bivariate([f])
        return _reduce(f, self.closure)

    def __eq__(self, other):
        if self is other or not isinstance(other, Ideal):
            return self is other
        leads = [[g.leading()[0] for g in _minimal(I.closure)] for I in (self, other)]
        return leads[0] == leads[1] and self.groebner == other.groebner


def staircase(ideal):
    """Sorted tuple of the standard monomials of a zero-dimensional ideal: each
    (a, b) with a below the least pure power of x and b < f for every leading
    (q, f) with q <= a."""
    leads = [g.leading()[0] for g in ideal.closure]
    for v in (0, 1):
        if all(m[1 - v] for m in leads):
            raise ValueError(
                f"no pure power of {VAR_NAMES[v]} in the leading-term ideal"
            )
    basis = []
    for a in range(min(q for q, f in leads if f == 0)):
        basis += [(a, b) for b in range(min(f for q, f in leads if q <= a))]
    return tuple(sorted(basis, key=_key))


# --- canonical text form, output only: terms like 3*x^2*y joined by +/- --


def poly_str(p):
    if p.is_zero():
        return "0"
    parts = []
    for m, c in sorted(p.terms.items(), key=lambda mc: _key(mc[0]), reverse=True):
        factors = []
        for v, e in zip(VAR_NAMES, m):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# --- rational roots of a univariate restriction (curves meeting an axis) --


def rational_roots(coeffs):
    """Rational roots, with multiplicity, of a nonzero univariate polynomial.

    coeffs are ints or Fractions, low degree first.  They are scaled once to
    a primitive integer list with a positive leading coefficient, and each
    root p/q is divided out as q*t - p over Z.  Returns (roots, rest): roots
    is the sorted list of (Fraction, mult) and rest the integer cofactor with
    no rational root, [1] when every root is rational.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    rest = [c.numerator * (den // c.denominator) for c in coeffs]
    while rest and not rest[-1]:
        rest.pop()
    if not rest:
        raise ValueError("the zero polynomial vanishes everywhere")
    g = math.gcd(*rest) if rest[-1] > 0 else -math.gcd(*rest)
    zeros = next(i for i, c in enumerate(rest) if c)
    rest = [c // g for c in rest[zeros:]]
    roots = [(Fraction(0), zeros)] if zeros else []
    for a, q in itertools.product(_divisors(abs(rest[0])), _divisors(rest[-1])):
        for p in (-a, a):
            mult = 0
            while len(rest) > 1 and not _homogeneous_value(rest, p, q):
                rest = exact_poly_div(rest, [-p, q])
                mult += 1
            if mult:
                roots.append((Fraction(p, q), mult))
    return sorted(roots), rest


def _homogeneous_value(coeffs, p, q):
    """q^d * f(p/q) for f of degree d: zero exactly when p/q is a root."""
    d = len(coeffs) - 1
    return sum(c * p**i * q ** (d - i) for i, c in enumerate(coeffs))


def _divisors(n):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)
