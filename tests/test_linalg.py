"""Properties of the sparse echelon kernels: the reduced echelon on small
rational matrices and the integer echelon on small integer matrices."""

import copy
import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_mckay.linalg import (
    hnf,
    insert,
    integer_coordinates,
    nullspace,
    reduce,
    solver,
    vector,
)

# mostly zeros, so rows are often dependent and vectors often sparse
ENTRY = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)


# integer rows, for the integer solve
INT_ENTRY = st.one_of(st.just(0), st.integers(-3, 3))


def matrices(max_rows=4, max_cols=4, entry=ENTRY):
    return st.integers(1, max_cols).flatmap(
        lambda w: st.lists(
            st.lists(entry, min_size=w, max_size=w), min_size=1, max_size=max_rows
        )
    )


def square_matrices(max_size=4):
    return st.integers(1, max_size).flatmap(
        lambda k: st.lists(st.lists(ENTRY, min_size=k, max_size=k), min_size=k, max_size=k)
    )


def cofactor_det(m):
    """Reference determinant by Leibniz expansion over permutations."""
    k = len(m)
    total = Fraction(0)
    for perm in permutations(range(k)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for r, c in enumerate(perm):
            term *= m[r][c]
        total += term
    return total


def rank(rows):
    """Reference rank: the largest size of a nonzero minor."""
    k, w = len(rows), len(rows[0])
    for r in range(min(k, w), 0, -1):
        for rs in combinations(range(k), r):
            for cs in combinations(range(w), r):
                if cofactor_det([[rows[i][j] for j in cs] for i in rs]):
                    return r
    return 0


def combine(coeffs, rows):
    return [sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(len(rows[0]))]


def maximal_minors(m):
    """{columns: minor} for every choice of len(m) columns of m."""
    k, w = len(m), len(m[0])
    return {
        cs: cofactor_det([[row[c] for c in cs] for row in m]) for cs in combinations(range(w), k)
    }


def minor_gcd(m):
    """Reference gcd of the maximal minors of a k x w integer matrix, k <= w."""
    return math.gcd(*(int(d) for d in maximal_minors(m).values()))


def cramer_coordinates(rows, target):
    """Reference integer solve of independent integer rows: Cramer's rule on
    a nonzero maximal minor, then a check of every column; None when the
    solution is not integral or the target is outside the span."""
    k = len(rows)
    cols, d = next((cs, d) for cs, d in maximal_minors(rows).items() if d)
    alpha = [
        cofactor_det([[target[c] if r == i else rows[r][c] for c in cols] for r in range(k)]) / d
        for i in range(k)
    ]
    if any(a.denominator != 1 for a in alpha) or combine(alpha, rows) != list(target):
        return None
    return [int(a) for a in alpha]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(square_matrices())
def test_det_matches_cofactor_expansion(m):
    """|det| is the pivot product of the integer echelon of the rows, each
    scaled to ints; a singular matrix leaves fewer pivots than rows."""
    scales = [math.lcm(*(Fraction(c).denominator for c in row)) for row in m]
    echelon = hnf([int(s * c) for c in row] for s, row in zip(scales, m))
    d = cofactor_det(m)
    if d == 0:
        assert len(echelon) < len(m)
        return
    assert len(echelon) == len(m)
    assert math.prod(b[p] for p, b in echelon.items()) == abs(d) * math.prod(scales)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=matrices(entry=INT_ENTRY), data=st.data())
def test_coordinates_round_trip(rows, data):
    """The integer solve returns the unique integer alpha as ints, and None
    when the rational solution is not integral or the target is outside the span."""
    rows, k = tuple(map(tuple, rows)), len(rows)
    alpha = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    target = combine(alpha, rows)
    if rank(rows) < k:
        with pytest.raises(ValueError):
            solver(rows)
        return
    echelon = solver(rows)
    assert all(type(c) is int for _, b in echelon for c in b)
    got = integer_coordinates(rows, target)
    assert got == alpha  # independent rows: the solution is unique
    assert all(type(a) is int for a in got)
    # scaling row j by d makes the rational solution alpha[j] / d
    j, d = data.draw(st.integers(0, k - 1)), data.draw(st.integers(2, 3))
    scaled = tuple(tuple(d * c for c in row) if i == j else row for i, row in enumerate(rows))
    want = None if alpha[j] % d else [a // d if i == j else a for i, a in enumerate(alpha)]
    got = integer_coordinates(scaled, target)
    assert got == want
    assert got is None or all(type(a) is int for a in got)
    # a kernel vector u of the rows is orthogonal to their span and to
    # nothing nonzero in it, so target + u lies outside the span
    for u in nullspace([vector(r) for r in rows], len(target)):
        scale = math.lcm(*(Fraction(c).denominator for c in u.values()))
        outside = [t + int(scale * u.get(j, 0)) for j, t in enumerate(target)]
        assert integer_coordinates(rows, outside) is None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=matrices(entry=INT_ENTRY), data=st.data())
def test_coordinates_match_cramer_on_any_target(rows, data):
    """On independent integer rows the integer solve agrees with Cramer's
    rule for targets in the lattice, in the span with a non-integral
    solution, and outside the span."""
    k, w = len(rows), len(rows[0])
    assume(rank(rows) == k)
    alpha = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    target = combine(alpha, rows)
    if data.draw(st.booleans()):
        target = data.draw(st.lists(st.integers(-6, 6), min_size=w, max_size=w))
    # scaling row j by d keeps the target's span but makes its coordinate alpha[j] / d
    j, d = data.draw(st.integers(0, k - 1)), data.draw(st.integers(1, 3))
    rows = tuple(tuple(d * c for c in row) if i == j else tuple(row) for i, row in enumerate(rows))
    assert integer_coordinates(rows, target) == cramer_coordinates(rows, target)


def dict_coordinates(rows, target):
    """Reference integer solve on the dict echelon that `solver` stores as
    tuples: the same back-substitution on `hnf` of the tagged rows, sparse."""
    width, k = len(target), len(rows)
    echelon = hnf([*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows))
    rest = vector(target)
    for p, b in echelon.items():
        q = rest.get(p, 0) // b[p]
        for i, c in b.items():
            rest[i] = rest.get(i, 0) - q * c
    if any(c for i, c in rest.items() if i < width):
        return None
    alpha = [-rest.get(width + i, 0) for i in range(k)]
    return alpha if combine(alpha, rows) == list(target) else None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=matrices(entry=INT_ENTRY), data=st.data())
def test_tuple_echelon_is_the_tagged_hnf(rows, data):
    """On independent integer rows, `solver`'s (pivot, dense entries) tuples
    expand to exactly `hnf` of the rows tagged with the identity, and
    `integer_coordinates` answers as the dict echelon's back-substitution does,
    on targets in the lattice, in the span off it and outside the span."""
    k, w = len(rows), len(rows[0])
    assume(rank(rows) == k)
    rows = tuple(map(tuple, rows))
    tagged = hnf([*row, *(int(i == j) for j in range(k))] for i, row in enumerate(rows))
    echelon = solver(rows)
    assert [p for p, _ in echelon] == list(tagged)
    for p, b in echelon:
        assert len(b) == w + k - p and b[0] > 0
        assert {i: c for i, c in enumerate(b, p) if c} == tagged[p]
    alpha = data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    d = data.draw(st.integers(1, 3))
    other = data.draw(st.lists(st.integers(-6, 6), min_size=w, max_size=w))
    for target in (combine(alpha, rows), [d * c for c in combine(alpha, rows)], other):
        assert integer_coordinates(rows, target) == dict_coordinates(rows, target)
    scaled = tuple(tuple(d * c for c in row) for row in rows)
    target = combine(alpha, rows)
    assert integer_coordinates(scaled, target) == dict_coordinates(scaled, target)


def int_matrices(k, w):
    """k x w integer matrices, half of them times a random k x k matrix on the
    left, which multiplies every maximal minor by its determinant."""
    mat = lambda r, c: st.lists(
        st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=r, max_size=r
    )
    return st.tuples(mat(k, w), st.one_of(st.none(), mat(k, k))).map(
        lambda p: p[0] if p[1] is None else [combine(a, p[0]) for a in p[1]]
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (2, 4), (3, 5)]).flatmap(lambda s: int_matrices(*s)))
def test_minor_gcd_matches_brute_force(m):
    """The gcd of the maximal minors is the pivot product of the integer
    echelon of the transpose; dependent rows leave fewer pivots than rows."""
    g = minor_gcd(m)
    echelon = hnf(zip(*m))
    for p, b in echelon.items():
        assert min(b) == p and b[p] > 0
        assert all(type(c) is int for c in b.values())
    if g == 0:
        assert len(echelon) < len(m)
        return
    assert len(echelon) == len(m)
    assert math.prod(b[p] for p, b in echelon.items()) == g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrices())
def test_nullspace_annihilates_rows_with_full_dimension(rows):
    width = len(rows[0])
    kernel = nullspace([vector(r) for r in rows], width)
    assert len(kernel) == width - rank(rows)
    for u in kernel:
        for row in rows:
            assert sum(row[j] * u.get(j, 0) for j in range(width)) == 0
    # the kernel vectors are independent
    dense = [[u.get(j, 0) for j in range(width)] for u in kernel]
    assert not dense or rank(dense) == len(dense)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=matrices(), data=st.data())
def test_reduce_leaves_echelon_and_vector_unchanged(rows, data):
    width = len(rows[0])
    echelon = {}
    for row in rows:
        insert(echelon, vector(row))
    assert len(echelon) == rank(rows)
    for piv, b in echelon.items():
        assert min(b) == piv and b[piv] == 1
        assert all(p == piv or p not in b for p in echelon)
    vec = vector(data.draw(st.lists(ENTRY, min_size=width, max_size=width)))
    before_echelon, before_vec = copy.deepcopy(echelon), dict(vec)
    rest, coords = reduce(echelon, vec)
    assert echelon == before_echelon and vec == before_vec
    assert not any(p in rest for p in echelon)
    recombined = dict(rest)
    for p, c in coords.items():
        for i, v in echelon[p].items():
            recombined[i] = recombined.get(i, 0) + c * v
    assert {i: v for i, v in recombined.items() if v} == vec
