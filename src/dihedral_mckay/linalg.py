"""Exact sparse linear algebra over Q: one reduced-echelon kernel.

A vector is a dict {index: coefficient} without zero entries; indices
are nonnegative integers.  An echelon is a dict {pivot: vector} in
reduced form: each vector has coefficient 1 at its own pivot, which is
its smallest index, and 0 at every other pivot.  Coefficients stay ints
until a pivot has to be divided out and are Fractions from then on,
except that `solver` scales its echelon to ints for `integer_coordinates`.

`reduce` and `insert` maintain an echelon; `det`, `solver` and `nullspace`
are built on them.  Constellation subspaces, chart coordinates,
unimodularity and negative definiteness all run through this one elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction


def vector(entries):
    """Sparse vector of a dense sequence."""
    return {i: c for i, c in enumerate(entries) if c}


def reduce(echelon, vec):
    """Split vec over the echelon: return (rest, coords).

    vec == sum(coords[p] * echelon[p]) + rest, and rest is 0 at every
    pivot, so rest is empty exactly when vec lies in the span.  Because
    the echelon is reduced, coords[p] is the entry of vec at pivot p.
    Neither argument is mutated.
    """
    coords = {p: c for p, c in vec.items() if p in echelon}
    rest = dict(vec)
    for p, c in coords.items():
        _axpy(rest, -c, echelon[p])
    return rest, coords


def insert(echelon, vec):
    """Add vec to the span in place; return its pivot, or None if already spanned."""
    rest, _ = reduce(echelon, vec)
    if not rest:
        return None
    piv = min(rest)
    f = rest[piv]
    if f != 1:
        inv = 1 / Fraction(f)
        rest = {i: c * inv for i, c in rest.items()}
    for b in echelon.values():
        g = b.get(piv)
        if g:
            _axpy(b, -g, rest)
    echelon[piv] = rest
    return piv


def _axpy(vec, f, other):
    """vec += f * other in place, dropping entries that cancel."""
    for i, c in other.items():
        v = vec.get(i, 0) + f * c
        if v:
            vec[i] = v
        else:
            vec.pop(i, None)


def det(rows):
    """Determinant of a square matrix given as dense rows.

    Row i enters the echelon as rest_i, itself minus earlier rows, then
    is scaled by 1/rest_i[pivot]; at the end row i is the unit vector at
    its pivot.  So det is the product of those scales times the sign of
    the permutation row -> pivot.
    """
    echelon = {}
    value = 1
    pivots = []
    for row in rows:
        rest, _ = reduce(echelon, vector(row))
        piv = insert(echelon, rest)
        if piv is None:
            return 0
        value *= rest[piv]
        pivots.append(piv)
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    return -value if inversions % 2 else value


def solver(rows):
    """(den, echelon): a scaled-integer inverse of linearly independent dense rows.

    Row i enters tagged with a 1 at index len(row) + i, so the part of each
    echelon vector past the row width records which combination of the rows
    it is.  den, the lcm of the denominators, scales the echelon to ints.
    Raises ValueError for dependent rows.
    """
    echelon = {}
    for i, row in enumerate(rows):
        vec = vector(row)
        vec[len(row) + i] = 1
        if insert(echelon, vec) >= len(row):
            raise ValueError("rows are linearly dependent")
    den = math.lcm(*(c.denominator for b in echelon.values() for c in b.values()))
    for b in echelon.values():
        b.update({i: c.numerator * (den // c.denominator) for i, c in b.items()})
    return den, echelon


def integer_coordinates(den, echelon, target):
    """Integer alpha with sum(alpha[i] * rows[i]) == target, or None if there is none.

    ``den, echelon`` is ``solver(rows)``; target is a dense int vector of the row width.
    """
    width = len(target)
    rest = vector(den * t for t in target)
    for p in echelon.keys() & rest.keys():
        _axpy(rest, -target[p], echelon[p])
    if any(i < width or c % den for i, c in rest.items()):
        return None
    alpha = [0] * len(echelon)
    for i, c in rest.items():
        alpha[i - width] = -c // den
    return alpha


def nullspace(rows, width):
    """Basis of the joint kernel of sparse row functionals on width columns.

    One kernel vector per free (non-pivot) column fc: 1 at fc and minus
    the fc entry of each echelon row at that row's pivot.
    """
    echelon = {}
    for row in rows:
        insert(echelon, row)
    return [
        {fc: 1, **{p: -b[fc] for p, b in echelon.items() if fc in b}}
        for fc in range(width)
        if fc not in echelon
    ]
