"""Exact sparse linear algebra: one echelon over Q and one over Z.

A vector is a dict {index: coefficient} without zero entries; indices
are nonnegative integers.  An echelon is a dict {pivot: vector} whose
vectors each have their smallest index at their own pivot.

The Q-echelon is reduced: 1 at its own pivot and 0 at every other pivot.
Coefficients stay ints until a pivot has to be divided out.  `reduce` and
`insert` maintain it and `nullspace` is built on them; constellation
subspaces run through it.

The Z-echelon, `hnf`, is built from int rows by unimodular row steps only,
with a positive entry at each pivot.  The product of its pivots gives |det|
of a square matrix and the gcd of the maximal minors of a wide one (`hnf` of
the transpose).  `integer_coordinates(rows, target)` is the one integer
solve: it answers lattice membership and integer coordinates on the echelon
`solver(rows)`, which is built once per row tuple and shared as dense tuples,
and checks every answer against the rows exactly.  Every chart solve, gluing and
unimodularity verdict runs through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


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


def hnf(rows):
    """Integer echelon {pivot: vector} of the lattice spanned by dense int rows.

    Euclid's algorithm on rows (H. Cohen, GTM 138, section 2.4): a row is
    reduced by the echelon vector with its pivot, and the two swap while a
    remainder is left, so every step is unimodular and no Fraction is built.
    Each vector has a positive entry at its pivot, its smallest index, and
    the echelon comes in pivot order.  Rows that reduce to zero add nothing.
    """
    echelon = {}
    for row in rows:
        vec = vector(row)
        while vec:
            piv = min(vec)
            b = echelon.get(piv)
            if b is None:
                echelon[piv] = vec if vec[piv] > 0 else {i: -c for i, c in vec.items()}
                break
            _axpy(vec, -(vec[piv] // b[piv]), b)
            if piv in vec:
                echelon[piv], vec = vec, b
    return dict(sorted(echelon.items()))


@lru_cache(maxsize=None)
def solver(rows):
    """Integer echelon of linearly independent int rows, for `integer_coordinates`.

    rows is a tuple of int tuples.  Row i enters tagged with a 1 at index
    len(row) + i, so the part of each echelon vector past the row width
    records which combination of the rows it is.  Raises ValueError for
    dependent rows.  The echelon is computed once per row tuple per process
    and handed out as a tuple of (pivot, the vector's dense entries from the
    pivot to the last tag index), in pivot order.
    """
    width, size = len(rows[0]), len(rows[0]) + len(rows)
    echelon = hnf([*row, *(int(i == j) for j in range(len(rows)))] for i, row in enumerate(rows))
    if any(p >= width for p in echelon):
        raise ValueError("rows are linearly dependent")
    return tuple((p, tuple(b.get(i, 0) for i in range(p, size))) for p, b in echelon.items())


def integer_coordinates(rows, target):
    """Integer alpha with sum(alpha[i] * rows[i]) == target, or None if there is none.

    rows is a tuple of linearly independent int tuples and target a dense int
    vector of their width.  One dense back-substitution on ``solver(rows)`` in
    pivot order takes the floor quotient by each pivot, skipping a quotient of
    0, so the target is reached exactly when nothing is left below the row
    width.  alpha is then checked against the rows themselves, so a wrong
    echelon gives None, never a wrong alpha.
    """
    width = len(target)
    rest = [*target, *[0] * len(rows)]
    for p, b in solver(rows):
        q = rest[p] // b[0]
        if q:
            for i, c in enumerate(b, p):
                rest[i] -= q * c
    if any(rest[:width]):
        return None
    alpha = [-c for c in rest[width:]]
    if any(sum(a * row[j] for a, row in zip(alpha, rows)) != t for j, t in enumerate(target)):
        return None
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
