"""Properties of the character pairing against its definition.

Class functions are random over cyclic and dihedral groups with
n = 3..12: integer combinations of the irreducibles (possibly negative,
possibly scaled by a proper fraction, possibly with one class value
replaced) and sparse arbitrary values per class.  The draws therefore
cover integral, negative, non-integral and irrational pairings, and the
properties pin the exception types and messages of each.

Real class functions (every value v = conj v) are drawn too: symmetrised
values v + conj v, possibly irrational, and in Z_n the restrictions of D_2n
class functions, next to the non-real eps_j.  So a call may be real on both
sides, mixed, or non-real, and each case is tagged with an event.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dihedral_mckay.exactnum import CycloElt, NotRational, cyc_mul, rational_value
from dihedral_mckay.reps import (
    Character,
    GroupSpec,
    NotACharacter,
    char_table,
    conjugacy_classes,
    decompose,
    gram,
    inner_product,
    restrict,
)
from reference import conjugate

GROUPS = st.builds(GroupSpec, st.sampled_from(("cyclic", "dihedral")), st.integers(3, 12))

# mostly zeros; otherwise a small int or a proper fraction
COEFF = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
SCALE = st.sampled_from((Fraction(1), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 3)))


def reference(chi, psi):
    """rational_value of sum over classes of size * chi * conj(psi), over |G|."""
    g = chi.group
    acc = CycloElt(g.n, {})
    for c, a, b in zip(conjugacy_classes(g), chi.values, psi.values):
        acc = acc + c.size * cyc_mul(a, conjugate(b))
    return rational_value(acc) / g.order


def elements(n):
    """A CycloElt with at most three nonzero terms."""
    terms = st.dictionaries(st.integers(0, n - 1), COEFF, max_size=3)
    return terms.map(lambda t: CycloElt(n, t))


def sparse_values(g):
    k = len(conjugacy_classes(g))
    return st.lists(elements(g.n), min_size=k, max_size=k)


def combination(g, mults, scale):
    """scale * sum of mults[k] times the k-th irreducible, class by class."""
    vals = [CycloElt(g.n, {}) for _ in conjugacy_classes(g)]
    for m, irr in zip(mults, char_table(g)):
        vals = [v + (scale * m) * w for v, w in zip(vals, irr.values)]
    return vals


def combinations(g):
    r = len(char_table(g).chars)
    mults = st.lists(st.integers(-2, 3), min_size=r, max_size=r)
    return st.builds(lambda ms, q: combination(g, ms, q), mults, SCALE)


def perturbed(g):
    """A combination with one class value replaced by an arbitrary element."""
    k = len(conjugacy_classes(g))

    def swap(vals, at, v):
        return vals[:at] + [v] + vals[at + 1 :]

    return st.builds(swap, combinations(g), st.integers(0, k - 1), elements(g.n))


def real_values(g):
    """Symmetrised values v + conj v, one per class: real, possibly irrational,
    possibly with Fraction coefficients."""
    k = len(conjugacy_classes(g))
    return st.lists(elements(g.n).map(lambda v: v + conjugate(v)), min_size=k, max_size=k)


def restricted(g):
    """Values of Res f in Z_n for a D_2n class function f, real or a
    combination of the irreducibles: real class functions of Z_n."""
    d = GroupSpec("dihedral", g.n)
    vals = st.one_of(real_values(d), combinations(d))
    return vals.map(lambda v: list(restrict(Character(d, "f", v)).values))


def real_or_eps(g):
    """Real values of g; for Z_n also restrictions and the irreducibles eps_j,
    which are not real unless 2j = 0 mod n."""
    if g.kind == "dihedral":
        return real_values(g)
    eps = st.sampled_from(char_table(g).chars).map(lambda f: list(f.values))
    return st.one_of(real_values(g), restricted(g), eps)


def tag_reality(functions):
    real = [all(v == conjugate(v) for v in f.values) for f in functions]
    event("real input" if all(real) else "mixed input" if any(real) else "non-real input")


def class_functions(g, name):
    vals = st.one_of(combinations(g), perturbed(g), sparse_values(g), real_or_eps(g))
    return vals.map(lambda v: Character(g, name, v))


def check_inner_product(chi, psi):
    """inner_product agrees with the reference value, type and message."""
    tag_reality((chi, psi))
    try:
        want = reference(chi, psi)
    except NotRational as exc:
        event("irrational")
        with pytest.raises(NotRational) as info:
            inner_product([chi], [psi])
        assert str(info.value) == f"<{chi.name},{psi.name}> is irrational: {exc}"
        return
    if want.denominator != 1 or want < 0:
        event("negative" if want < 0 else "non-integral")
        with pytest.raises(NotACharacter) as info:
            inner_product([chi], [psi])
        assert str(info.value) == f"<{chi.name},{psi.name}> = {want}"
        return
    event("zero" if want == 0 else "positive integer")
    got = inner_product([chi], [psi])[0][0]
    assert type(got) is int and got == want


@settings(max_examples=200, deadline=None)
@given(GROUPS.flatmap(lambda g: st.tuples(class_functions(g, "chi"), class_functions(g, "psi"))))
def test_inner_product_matches_definition(pair):
    chi, psi = pair
    check_inner_product(chi, psi)
    check_inner_product(psi, chi)
    check_inner_product(chi, chi)


def genuine(g):
    """Nonnegative integer combinations of the irreducibles: characters."""
    r = len(char_table(g).chars)
    mults = st.lists(st.integers(0, 2), min_size=r, max_size=r)
    return mults.map(lambda ms: combination(g, ms, Fraction(1)))


def named_functions(g, prefix):
    """One to three class functions, mostly characters, named prefix0, prefix1, ..."""
    vals = st.one_of(
        genuine(g), genuine(g), combinations(g), perturbed(g), sparse_values(g), real_or_eps(g)
    )
    return st.lists(vals, min_size=1, max_size=3).map(
        lambda vs: [Character(g, f"{prefix}{k}", v) for k, v in enumerate(vs)]
    )


@settings(max_examples=150, deadline=None)
@given(GROUPS.flatmap(lambda g: st.tuples(named_functions(g, "r"), named_functions(g, "c"))))
def test_inner_product_matrix_matches_definition(sides):
    """inner_product(rows, cols) is the reference matrix with int entries, or
    raises for the first bad entry in row-major order; an irrational entry
    anywhere comes before any entry that is rational but not a nonnegative int."""
    rows, cols = sides
    tag_reality((*rows, *cols))
    wants = []
    for chi in rows:
        for psi in cols:
            try:
                wants.append((chi, psi, reference(chi, psi)))
            except NotRational as exc:
                event("irrational entry")
                with pytest.raises(NotRational) as info:
                    inner_product(rows, cols)
                assert str(info.value) == f"<{chi.name},{psi.name}> is irrational: {exc}"
                return
    for chi, psi, want in wants:
        if want.denominator != 1 or want < 0:
            event("negative entry" if want < 0 else "non-integral entry")
            with pytest.raises(NotACharacter) as info:
                inner_product(rows, cols)
            assert str(info.value) == f"<{chi.name},{psi.name}> = {want}"
            return
    event("integer matrix")
    got = inner_product(rows, cols)
    assert got == [[reference(chi, psi) for psi in cols] for chi in rows]
    assert all(type(v) is int for row in got for v in row)


@settings(max_examples=100, deadline=None)
@given(GROUPS.flatmap(lambda g: st.tuples(st.just(g), combinations(g))))
def test_decompose_reads_the_multiplicities(case):
    g, vals = case
    chi = Character(g, "chi", vals)
    wants = [reference(chi, irr) for irr in char_table(g)]
    bad = [(irr, m) for irr, m in zip(char_table(g), wants) if m.denominator != 1 or m < 0]
    if bad:
        irr, m = bad[0]
        with pytest.raises(NotACharacter) as info:
            decompose(chi)
        assert str(info.value) == f"multiplicity of {irr.name} in chi is {m}"
        return
    got = decompose(chi)
    assert got == {irr.name: int(m) for irr, m in zip(char_table(g), wants) if m}


@given(GROUPS, GROUPS)
def test_pairing_across_groups_is_a_value_error(g, h):
    if g == h:
        return
    chi = char_table(g).chars[0]
    psi = char_table(h).chars[-1]
    with pytest.raises(ValueError, match="characters of different groups"):
        inner_product([chi], [psi])


def rewritten(vals, q):
    """vals with q subtracted at the identity class, written as q * (t + ... + t^(n-1)).

    Against a class function psi rational at the identity, each pairing
    sum keeps its constant term while the value moves by -q * psi(1) / |G|,
    so a reduction looked up by part of the sum returns a stale value.
    """
    n = vals[0].order
    return [vals[0] + CycloElt(n, {k: q for k in range(1, n)})] + vals[1:]


def pools(g):
    """One to four class functions, the first repeated under another name
    and once more rewritten (which keeps a real function real)."""
    vals = st.one_of(
        combinations(g), perturbed(g), sparse_values(g), real_or_eps(g), real_or_eps(g)
    )
    return st.builds(
        lambda vs, q: [
            Character(g, f"f{k}", v) for k, v in enumerate(vs + vs[:1] + [rewritten(vs[0], q)])
        ],
        st.lists(vals, min_size=1, max_size=4),
        SCALE,
    )


def check_gram(rows, cols):
    """gram agrees with the reference entrywise, or raises NotRational naming
    the first irrational pair in row-major order."""
    tag_reality((*rows, *cols))
    for chi in rows:
        for psi in cols:
            try:
                reference(chi, psi)
            except NotRational as exc:
                event("irrational entry")
                with pytest.raises(NotRational) as info:
                    gram(rows, cols)
                assert str(info.value) == f"<{chi.name},{psi.name}> is irrational: {exc}"
                return
    event("rational matrix")
    got = gram(rows, cols)
    assert got == [[reference(chi, psi) for psi in cols] for chi in rows]
    assert all(type(v) is Fraction for row in got for v in row)


@settings(max_examples=150, deadline=None)
@given(GROUPS.flatmap(pools), st.data())
def test_gram_matches_definition_entrywise(pool, data):
    """Repeated and permuted rows and columns; no value leaks between pairs."""
    pick = st.lists(st.sampled_from(pool), max_size=6)
    check_gram(data.draw(pick), data.draw(pick))


@settings(max_examples=150, deadline=None)
@given(GROUPS.flatmap(pools), st.data())
def test_square_gram_matches_definition_entrywise(pool, data):
    """Square calls: the same list on both sides, an equal copy under other
    names, and equal-length lists that differ in one entry."""
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    case = data.draw(st.sampled_from(("same list", "renamed copy", "one entry differs")))
    event(case)
    if case == "same list":
        cols = rows
    elif case == "renamed copy":
        cols = [Character(f.group, f"{f.name}'", f.values) for f in rows]
    else:
        at = data.draw(st.integers(0, len(rows) - 1))
        other = data.draw(st.sampled_from([f for f in pool if f != rows[at]]))
        cols = rows[:at] + [other] + rows[at + 1 :]
    check_gram(rows, cols)
