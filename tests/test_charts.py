import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_mckay.charts import (
    Atlas,
    Atom,
    Chart,
    LocalCurve,
    axis_root_report,
    express_monomial,
    local_intersection,
    pullback_orders,
    transition_exponents,
    verify_gluing,
)
from dihedral_mckay.hilb import (
    boundary_equations,
    build_flop_atlas,
    hilb_atlas,
    stage_chain,
    surface_atlas,
)
from dihedral_mckay import linalg
from dihedral_mckay.linalg import integer_coordinates, solver
from dihedral_mckay.polyring import Poly
from reference import leibniz_det

X, Y, ONE = Poly.var("x"), Poly.var("y"), Poly.one(2)
XY_ATOMS = (Atom("x", X), Atom("y", Y))
ID2 = ((1, 0), (0, 1))


def identity_chart():
    return Chart("id", XY_ATOMS, ((1, 0), (0, 1)), ("x", "y"))


def test_identity_chart_express():
    c = identity_chart()
    assert express_monomial(c, (3, 5)) == (3, 5)
    assert express_monomial(c, (0, 0)) == (0, 0)


def test_chart_coordinate_expresses_as_itself():
    # U_(n/2) of the n=4 atlas: the second coordinate y^3/x is (0, 1)
    atlas = hilb_atlas(4)
    c = atlas.chart("U2")
    assert express_monomial(c, c.rows[1]) == (0, 1)
    assert express_monomial(c, c.rows[0]) == (1, 0)


def test_express_monomial_hand_solve():
    # U_2 of X1 for n=5: u = x^2/y^3, v = y^4/x; (xy)^2 = u^2 v^2
    atlas = hilb_atlas(5)
    c = atlas.chart("U2")
    assert c.rows == ((2, -3), (-1, 4))
    assert express_monomial(c, (2, 2)) == (2, 2)


def test_express_monomial_outside_lattice():
    atlas = hilb_atlas(4)
    with pytest.raises(ValueError, match=r"^U2: \(1, 0\) not in the chart lattice$"):
        express_monomial(atlas.chart("U2"), (1, 0))  # x alone is not invariant


def test_unimodularity_of_atlases():
    for n in range(3, 21):
        atlas = hilb_atlas(n)
        assert len(atlas.charts) == n  # construction already validates |det| = 1
        with pytest.raises(KeyError, match="U99"):
            atlas.chart("U99")


def test_every_built_atlas_passes_its_lattice_check():
    for n in range(3, 13):
        atlases = [hilb_atlas(n), surface_atlas(n)]
        atlases += [build_flop_atlas(n, stage).atlas for stage in stage_chain(n)]
        for atlas in atlases:
            atlas.validate_unimodular()  # raises ValueError on a bad chart
            assert all(c.atoms == atlas.atoms for c in atlas.charts)


XYZ_ATOMS = tuple(Atom(v, Poly.var(v, 3)) for v in "xyz")
ID3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "atoms, lattice, chart_atoms, rows, message",
    [
        # x alone is not an invariant monomial of the order-4 X1 lattice
        (
            XY_ATOMS,
            ((1, 1), (0, 4)),
            XY_ATOMS,
            ((1, 0), (0, 1)),
            r"coordinate \(1, 0\) is outside the atlas lattice",
        ),
        (XY_ATOMS, ID2, XY_ATOMS, ((2, 0), (0, 1)), r"\|det\| = 2 != 1"),
        # both rows lie in the index-2 sublattice 2Z + Z of the (x, y) plane
        (XYZ_ATOMS, ID3, XYZ_ATOMS, ((2, 0, 0), (0, 1, 0)), "embedding not primitive"),
        (XY_ATOMS, ID2, XY_ATOMS[::-1], ID2, "atoms differ from the atlas atoms"),
    ],
    ids=["outside-lattice", "det-2", "not-primitive", "other-atoms"],
)
def test_atlas_rejects_a_chart_that_is_not_unimodular(atoms, lattice, chart_atoms, rows, message):
    names = tuple(f"c{i}" for i in range(len(rows)))
    good = Chart("good", atoms, lattice[: len(rows)], names)
    bad = Chart("bad", chart_atoms, rows, names)
    with pytest.raises(ValueError, match=f"^bad: {message}"):
        Atlas("a", atoms, lattice, [good, bad])


@pytest.mark.parametrize(
    "rows, verdicts",
    [
        # accepted first: the chart spans its own lattice, which has index 5 in Z^2
        (((5, 0), (0, 1)), [(((5, 0), (0, 1)), None), (ID2, r"\|det\| = 5 != 1")]),
        # rejected first, then accepted by the coarser lattice
        (((7, 0), (0, 1)), [(ID2, r"\|det\| = 7 != 1"), (((7, 0), (0, 1)), None)]),
        # outside the first lattice, inside the second
        (((1, 0), (1, 1)), [(((1, 1), (0, 3)), r"coordinate \(1, 0\) is outside"), (ID2, None)]),
        (((1, 0), (2, 1)), [(ID2, None), (((1, 1), (0, 3)), r"coordinate \(1, 0\) is outside")]),
    ],
    ids=["accept-then-reject", "reject-then-accept", "outside-then-inside", "inside-then-outside"],
)
def test_the_same_chart_rows_get_a_verdict_per_lattice(rows, verdicts):
    """One set of chart rows is judged against each atlas lattice on its own,
    whichever lattice judges it first."""
    for lattice, message in verdicts:
        chart = Chart("c", XY_ATOMS, rows, ("u", "v"))
        if message is None:
            Atlas("a", XY_ATOMS, lattice, [chart])
        else:
            with pytest.raises(ValueError, match=f"^c: {message}"):
                Atlas("a", XY_ATOMS, lattice, [chart])


def test_each_failing_chart_is_named_in_its_own_rejection():
    """Two charts with the same failing rows are each named when they fail."""
    rows = ((11, 0), (0, 1))
    for name in ("first", "second", "first"):
        chart = Chart(name, XY_ATOMS, rows, ("u", "v"))
        with pytest.raises(ValueError, match=rf"^{name}: \|det\| = 11 != 1$"):
            Atlas("a", XY_ATOMS, ID2, [chart])


@pytest.mark.parametrize(
    "rows, lattice, message",
    [
        (((13, 0), (0, 1)), ID2, r"\|det\| = 13 != 1"),
        (((1, 0), (0, 1)), ((1, 1), (0, 17)), r"coordinate \(1, 0\) is outside the atlas lattice"),
        (((19, 0, 0), (0, 1, 0)), ID3, "embedding not primitive"),
    ],
    ids=["det", "outside", "not-primitive"],
)
def test_every_atlas_that_holds_a_failing_chart_rejects_it(rows, lattice, message):
    """The second and third atlas holding a failing chart reject it as the
    first one did, with a good chart before it in the list."""
    atoms = XY_ATOMS if len(lattice) == 2 else XYZ_ATOMS
    names = tuple(f"c{i}" for i in range(len(rows)))
    good = Chart("good", atoms, lattice[: len(rows)], names)
    bad = Chart("bad", atoms, rows, names)
    for _ in range(3):
        with pytest.raises(ValueError, match=f"^bad: {message}$"):
            Atlas("a", atoms, lattice, [good, bad])
        Atlas("a", atoms, lattice, [good])


def test_dependent_chart_rows_are_refused_every_time():
    for _ in range(3):
        with pytest.raises(ValueError, match="linearly dependent"):
            Chart("dep", XY_ATOMS, ((2, 3), (4, 6)), ("u", "v"))
        with pytest.raises(ValueError, match="linearly dependent"):
            Chart("dep", XYZ_ATOMS, ((1, 2, 3), (0, 1, 1), (1, 3, 4)), ("u", "v", "w"))


def test_a_shared_chart_echelon_cannot_be_written():
    """Charts with equal rows share one echelon `solver(rows)`, also when one
    is given its rows as lists.  Writing into it raises TypeError and changes
    no solve."""
    rows = ((2, -3), (-1, 4))  # U2 of X1 for n = 5: u = x^2/y^3, v = y^4/x

    def solves(chart):
        out = []
        for mono in ((2, 2), (2, -3), (-1, 4), (1, 1), (5, 0), (1, 0)):
            try:
                out.append(express_monomial(chart, mono))
            except ValueError:
                out.append(None)
        return out

    chart = Chart("first", XY_ATOMS, rows, ("u", "v"))
    twin = Chart("second", XY_ATOMS, [list(r) for r in rows], ("u", "v"))
    want = [(2, 2), (1, 0), (0, 1), (1, 1), (4, 3), None]
    assert solves(chart) == want
    echelon = solver(chart.rows)
    assert solver(twin.rows) is echelon
    pivot, vec = echelon[0]
    with pytest.raises(TypeError):
        echelon[0] = (pivot, (1,))
    with pytest.raises(TypeError):
        del echelon[0]
    with pytest.raises(TypeError):
        vec[0] = 1
    with pytest.raises(TypeError):
        del vec[0]
    assert solves(chart) == want
    assert solves(twin) == want


def test_a_wrong_echelon_gives_no_solve(monkeypatch):
    """`integer_coordinates` checks its answer against the rows: an echelon
    whose first vector has its tag part off by one gives None, and
    `express_monomial` raises, never a wrong alpha."""
    rows = ((2, -3), (-1, 4))
    chart = Chart("U2", XY_ATOMS, rows, ("u", "v"))
    targets = ((2, 2), (2, -3), (-1, 4), (1, 1), (5, 0))
    assert all(integer_coordinates(rows, t) is not None for t in targets)
    real = linalg.solver

    def off_by_one(rows):
        width = len(rows[0])
        (p, b), *rest = real(rows)
        return ((p, tuple(c + (i >= width) for i, c in enumerate(b, p))), *rest)

    monkeypatch.setattr(linalg, "solver", off_by_one)
    for target in targets:
        assert integer_coordinates(rows, target) is None
        with pytest.raises(ValueError, match=r"^U2: \(-?\d+, -?\d+\) not in the chart lattice$"):
            express_monomial(chart, target)


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def elementary_product(data, k):
    """A random integer matrix of det 1: row additions applied to the identity."""
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(data.draw(st.integers(0, 4))):
        i, j = data.draw(st.permutations(range(k)))[:2]
        f = data.draw(st.integers(-2, 2))
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    return m


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.sampled_from([2, 3]), data=st.data())
def test_atlas_accepts_a_square_chart_exactly_when_det_is_a_unit(k, data):
    """Chart rows rel * lattice lie in the lattice; the atlas must accept
    them exactly when |det rel| = 1, and name |det rel| when it rejects."""
    row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    entries = st.lists(row, min_size=k, max_size=k)
    lattice = data.draw(entries)
    assume(leibniz_det(lattice) != 0)
    if data.draw(st.booleans()):
        # det exactly d, with |d| = 2 and 3 among the draws
        d = data.draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
        diag = [[d if i == j == 0 else int(i == j) for j in range(k)] for i in range(k)]
        rel = matmul(matmul(elementary_product(data, k), diag), elementary_product(data, k))
    else:
        rel = data.draw(entries)
    d = leibniz_det(rel)
    assume(d != 0)
    atoms = XY_ATOMS if k == 2 else XYZ_ATOMS
    rows = matmul(rel, lattice)
    chart = Chart("bad", atoms, rows, tuple(f"c{i}" for i in range(k)))
    if abs(d) != 1:
        with pytest.raises(ValueError, match=rf"^bad: \|det\| = {abs(d)} != 1$"):
            Atlas("a", atoms, lattice, [chart])
        return
    Atlas("a", atoms, lattice, [chart])
    for row in lattice:
        alpha = express_monomial(chart, row)
        assert all(type(a) is int for a in alpha)
        assert matmul([alpha], rows) == (tuple(row),)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_atlas_accepts_a_non_square_chart_exactly_when_its_minors_are_coprime(data):
    """Chart rows rel * lattice for a 2x3 rel lie in the lattice; the atlas
    must accept them exactly when the 2x2 minors of rel have gcd 1, and
    otherwise reject the embedding as not primitive."""
    row = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    lattice = data.draw(st.lists(row, min_size=3, max_size=3))
    assume(leibniz_det(lattice) != 0)
    rel = data.draw(st.lists(row, min_size=2, max_size=2))
    if data.draw(st.booleans()):
        # a 2x2 factor on the left multiplies every minor by its determinant
        pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
        rel = matmul(data.draw(st.lists(pair, min_size=2, max_size=2)), rel)
    minors = [leibniz_det([[r[c] for c in cs] for r in rel]) for cs in ((0, 1), (0, 2), (1, 2))]
    g = math.gcd(*minors)
    assume(g != 0)
    chart = Chart("bad", XYZ_ATOMS, matmul(rel, lattice), ("c0", "c1"))
    if g != 1:
        with pytest.raises(ValueError, match="^bad: embedding not primitive$"):
            Atlas("a", XYZ_ATOMS, lattice, [chart])
        return
    Atlas("a", XYZ_ATOMS, lattice, [chart])


def test_chart_solves_build_no_fraction(monkeypatch):
    """An atlas built from ready atoms and rows checks its charts, and then
    solves monomials and transitions in them, without building a Fraction."""
    atlases = [hilb_atlas(6), surface_atlas(6)]
    atlases += [build_flop_atlas(6, stage).atlas for stage in stage_chain(6)]
    specs = [
        (a.atoms, a.lattice, [(c.name, c.rows, c.coord_names) for c in a.charts])
        for a in atlases
    ]
    built = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    solved = 0
    for atoms, lattice, charts in specs:
        atlas = Atlas("a", atoms, lattice, [Chart(n, atoms, r, names) for n, r, names in charts])
        for a in atlas.charts:
            for b in atlas.charts:
                solved += transition_exponents(a, b) is not None
                for row in b.rows:
                    try:
                        express_monomial(a, row)
                    except ValueError:
                        pass
    Fraction(1, 2)  # the counter sees a Fraction built here
    monkeypatch.undo()
    assert built == 1
    assert solved > len(specs)  # some transitions besides the identities


def test_pullback_b1_even():
    # B1-hat = (x^(n/2) + y^(n/2))^2 on U_(n/2): strict (u+1)^2
    for n in (4, 6, 8):
        atlas = hilb_atlas(n)
        c = atlas.chart(f"U{n // 2}")
        strict, orders = pullback_orders(c, boundary_equations(n)["B1"])
        assert strict == X**2 + 2 * X + ONE  # chart coords (u, v) -> (x, y)
        assert orders[f"Et{n // 2}"] == n // 2
        assert orders[f"Et{n // 2 - 1}"] == n // 2 - 1


def test_pullback_misses_far_charts():
    for n in (5, 7):
        atlas = hilb_atlas(n)
        strict, _ = pullback_orders(atlas.chart("U1"), boundary_equations(n)["B3"])
        assert strict.constant_term() == 1


def test_pullback_axis_monomial():
    atlas = hilb_atlas(4)
    c = atlas.chart("U2")
    # xy = u*v on every chart: strict 1, order 1 on each axis
    strict, orders = pullback_orders(c, Poly.mono((1, 1)))
    assert strict == Poly.one(2)
    assert orders == {"Et1": 1, "Et2": 1}


def test_pullback_pole_raises():
    atlas = hilb_atlas(4)
    with pytest.raises(ValueError, match=r"^U2: \(1, 0\) not in the chart lattice$"):
        # x is not an invariant monomial: no integer solution on U2
        pullback_orders(atlas.chart("U2"), Poly.mono((1, 0)))
    # genuine pole: y = v/u on the chart (u, v) = (x, xy)
    c = Chart("p", XY_ATOMS, ((1, 0), (1, 1)), ("u", "v"))
    with pytest.raises(ValueError, match=r"^p: pole along a coordinate \(orders \[-1, 1\]\)$"):
        pullback_orders(c, Poly.var("y"))


def test_axis_root_report_cofactor_entry():
    """The part without rational roots is one entry, its degree the number
    of points it meets: (u + 1)^2 (u^2 + 2) meets the axis 4 times."""
    curve = LocalCurve((X + ONE) ** 2 * (X**2 + 2 * ONE) + Y, "B")
    report = axis_root_report(curve, 1)
    assert report == [{"root": -1, "mult": 2}, {"factor_degree": 2, "mult": 1}]
    assert local_intersection(curve) == 4


def test_local_intersection_examples():
    sq = LocalCurve(X**2 + 2 * X + ONE, "B1")
    assert local_intersection(sq) == 2
    assert axis_root_report(sq, 1) == [{"root": Fraction(-1), "mult": 2}]
    tang = LocalCurve(X**2 - 4 * Y, "B3")
    assert local_intersection(tang) == 2
    assert axis_root_report(tang, 1) == [{"root": Fraction(0), "mult": 2}]
    line = LocalCurve(X - ONE, "W")
    assert local_intersection(line) == 1
    # a strict transform is never divisible by a coordinate, so the axis
    # containment error only guards misuse; bypass the constructor check
    from types import SimpleNamespace

    bad = SimpleNamespace(equation=X * Y + Y, label="bad")
    with pytest.raises(ValueError, match="^bad contains the axis$"):
        local_intersection(bad)
    with pytest.raises(ValueError):
        LocalCurve(X * Y + Y, "bad")


def test_verify_gluing_consecutive_and_far():
    for n in (4, 5, 9):
        atlas = hilb_atlas(n)
        for i in range(1, n):
            assert verify_gluing(atlas.chart(f"U{i}"), atlas.chart(f"U{i + 1}"))
        # identical charts glue
        assert verify_gluing(atlas.chart("U1"), atlas.chart("U1"))
        # non-adjacent pairs require two inversions -> not a wall crossing
        assert not verify_gluing(atlas.chart("U1"), atlas.chart("U3"))


def test_atlas_adjacency_is_the_chain():
    atlas = hilb_atlas(6)
    assert atlas.adjacency() == [(f"U{i}", f"U{i + 1}") for i in range(1, 6)]


def test_atlas_json_shape():
    js = hilb_atlas(4).to_json()
    assert [c["name"] for c in js["charts"]] == ["U1", "U2", "U3", "U4"]
    assert js["charts"][1]["exceptional_axes"] == {"0": "Et1", "1": "Et2"}
    assert js["divisors"]["Et2"] == "(x^2 : y^2)"


def test_pullback_round_trip():
    """Re-expanding the pullback reproduces f exactly.

    pullback_orders factors f into coordinate powers times the strict
    part on the exponent level; the round trip is the ambient identity
    prod(coords^alpha(m)) = m for every monomial m of f, verified by
    exact cross-multiplication of the coordinate fractions.
    """
    from dihedral_mckay.hilb import boundary_equations, hilb_atlas

    for n in (4, 5, 6, 7, 12, 20):
        atlas = hilb_atlas(n)
        for eq in boundary_equations(n).values():
            for chart in atlas.charts:
                strict, orders = pullback_orders(chart, eq)
                assert all(v >= 0 for v in orders.values())
                for mono in eq.terms:
                    alpha = express_monomial(chart, mono)
                    num = Poly.one(2)
                    den = Poly.one(2)
                    for i, e in enumerate(alpha):
                        cn, cd = chart.coord_fraction(i)
                        if e > 0:
                            num, den = num * cn**e, den * cd**e
                        elif e < 0:
                            num, den = num * cd ** (-e), den * cn ** (-e)
                    assert num == Poly.mono(mono) * den
