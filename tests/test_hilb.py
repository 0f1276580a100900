import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dihedral_mckay import hilb, polyring
from dihedral_mckay.charts import verify_gluing, verify_poly_transition
from dihedral_mckay.hilb import (
    CertificateFailure,
    ClusterPoint,
    boundary_intersection_numbers,
    boundary_strict_transforms,
    build_flop_atlas,
    cluster_dimension,
    cluster_ideal,
    fixed_points,
    flop_em,
    half_index,
    invariant_chart_boundary,
    master_identity_holds,
    poly_bridges,
    refdiv_data,
    stage_chain,
    surface_atlas,
    swap_xy,
    z2_image,
)
from dihedral_mckay.intersect import an_chain, z2_fold
from dihedral_mckay.polyring import Ideal, Poly, groebner_basis, staircase
from reference import coefficients_are_normal, cp, reflected


def test_cluster_ideal_n4_matches_explicit_generators():
    # <x^2 + y^2, x^3, xy, y^3> generates the same ideal as I_2(1:-1)
    ideal = cluster_ideal(4, cp(2, 1, -1))
    x, y = Poly.var("x"), Poly.var("y")
    other = Ideal([x**3, y**3, x * y, x**2 + y**2])
    assert ideal == other
    assert len(staircase(ideal)) == 4
    with pytest.raises(ValueError, match="^index out of range$"):
        cluster_ideal(4, cp(4, 1, 1))


def test_cluster_dimension_examples():
    assert cluster_dimension(5, cp(2, 0, 1)) == 5
    ideal = cluster_ideal(5, cp(2, 0, 1))
    assert sorted(str(g) for g in ideal.groebner) == ["x*y", "x^3", "y^3"]
    for n in (3, 4, 7):
        assert cluster_dimension(n, cp(1, 1, 0)) == n


def test_cluster_dimension_randomized():
    rng = random.Random(99)
    for n in range(3, 21):
        for _ in range(12):
            i = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a == 0 and b == 0:
                a = Fraction(1)
            assert cluster_dimension(n, cp(i, a, b)) == n


def test_z2_image():
    assert z2_image(4, cp(2, 1, -1)) == cp(2, 1, -1)
    assert z2_image(5, cp(1, 1, 3)) == cp(4, 3, 1) == cp(4, 1, Fraction(1, 3))
    assert cp(2, 1, -1) != (2, 1, -1)  # a point equals no other type


def test_ideal_equality_on_fixed_cases():
    """The corner I_i(0:1) is the ideal I_(i+1)(1:0) of another point; at even n
    the ideals I_h(1:1) and I_h(1:-1), h = n/2, share their leading-term ideal
    and differ; and an ideal equals the ideal of its own reduced basis."""
    for n in range(3, 13):
        for i in range(1, n - 1):
            assert cluster_ideal(n, cp(i, 0, 1)) == cluster_ideal(n, cp(i + 1, 1, 0))
        if n % 2 == 0:
            plus, minus = (cluster_ideal(n, cp(n // 2, 1, b)) for b in (1, -1))
            leads = [[g.leading()[0] for g in I.groebner] for I in (plus, minus)]
            assert leads[0] == leads[1] and plus != minus and minus != plus
        for p in (cp(1, 2, 3), cp(n - 1, 0, 1), cp(n // 2, 1, -1)):
            ideal = cluster_ideal(n, p)
            assert ideal == Ideal(ideal.groebner) and Ideal(ideal.groebner) == ideal


def test_only_ideal_equality_and_printing_build_a_reduced_basis(monkeypatch):
    """Staircases and normal forms read the S-pair closure and build no reduced
    basis.  fixed_points builds one for a candidate and one for its image only
    when their leading-term ideals agree: for the one fixed point at n = 5 and
    the two at n = 6."""
    calls = []

    def counted(gens):
        calls.append(len(gens))
        return groebner_basis(gens)

    monkeypatch.setattr(polyring, "groebner_basis", counted)
    y = Poly.var("y")
    for n, p in ((5, cp(2, 1, 1)), (6, cp(3, 1, -1)), (7, cp(6, 0, 1)), (9, cp(2, 3, -2))):
        assert cluster_dimension(n, p) == n
        ideal = cluster_ideal(n, p)
        assert ideal.normal_form(Poly.mono((n, 0)) + y) == ideal.normal_form(y)
    assert calls == []
    for n, fixed in ((5, 1), (6, 2)):
        calls.clear()
        assert len(fixed_points(n)) == fixed and len(calls) == 2 * fixed


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_NONZERO = _RATIONALS.filter(lambda q: q != 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 12), st.data())
def test_a_cluster_point_is_canonical_once_built(n, data):
    """Proportional pairs give one point: equal, with one label and cluster
    dimension, and z2_image is an involution on it."""
    i = data.draw(st.integers(1, n - 1), label="i")
    a, b = data.draw(_RATIONALS, label="a"), data.draw(_RATIONALS, label="b")
    assume(a or b)
    k = data.draw(_NONZERO, label="k")
    p, q = ClusterPoint(i, a, b), ClusterPoint(i, k * a, k * b)
    assert p == q and p.label == q.label
    assert (p.a if p.a else p.b) == 1 and type(p.a) is type(p.b) is Fraction
    assert cluster_dimension(n, p) == cluster_dimension(n, q) == n
    assert z2_image(n, z2_image(n, q)) == p


def test_a_cluster_point_refuses_a_float():
    """A float would enter (a:b) as its binary expansion, so it is refused by value."""
    with pytest.raises(ValueError, match=r"^not an int or a Fraction: 0\.1$"):
        ClusterPoint(1, 0.1, 1)
    with pytest.raises(ValueError, match=r"^not an int or a Fraction: 0\.0$"):
        ClusterPoint(1, 1, 0.0)
    with pytest.raises(ValueError, match=r"^\(a:b\) must be a projective pair$"):
        ClusterPoint(1, 0, 0)


def test_z2_image_is_ideal_level_involution():
    rng = random.Random(3)
    for n in (3, 4, 5, 8):
        for _ in range(6):
            i = rng.randint(1, n - 1)
            p = cp(i, rng.randint(-5, 5), rng.randint(1, 5))
            # x<->y maps the generators of I_p onto generators of I_(g.p)
            swapped = Ideal([swap_xy(g) for g in cluster_ideal(n, p).generators])
            assert swapped == cluster_ideal(n, z2_image(n, p))
            assert z2_image(n, z2_image(n, p)) == p


def test_fixed_points():
    pts, _ = zip(*fixed_points(4))
    assert set(p.label for p in pts) == {"I2(1:1)", "I2(1:-1)"}
    pts5, certs5 = zip(*fixed_points(5))
    assert [p.label for p in pts5] == ["I2(0:1)"]
    assert certs5[0]["quotient_dim"] == 5
    pts3, _ = zip(*fixed_points(3))
    assert [p.label for p in pts3] == ["I1(0:1)"]
    for n in range(3, 26):
        assert len(fixed_points(n)) == (2 if n % 2 == 0 else 1)
    with pytest.raises(ValueError, match="^need n >= 3$"):
        fixed_points(2)


def test_boundary_strict_transforms_even():
    st = boundary_strict_transforms(4)
    rec = st[("B1", "U2")]
    assert str(rec["strict"]) == "x^2 + 2*x + 1"
    meet = rec["certificate"]["meetings"]
    assert {m["axis"] for m in meet} == {"Et2"}
    assert meet[0]["point"] == "I2(1:-1)" and meet[0]["mult"] == 2
    rec2 = st[("B2", "U2")]
    assert str(rec2["strict"]) == "x^2 - 2*x + 1"
    assert rec2["certificate"]["meetings"][0]["point"] == "I2(1:1)"
    # every chart outside U_(n/2), U_(n/2 + 1) misses the axes
    for n in (4, 6, 10):
        st = boundary_strict_transforms(n)
        named = {f"U{n // 2}", f"U{n // 2 + 1}"}
        for (label, cname), rec in st.items():
            if cname in named:
                assert rec["certificate"]["type"] == "meets-axes"
            else:
                assert rec["certificate"]["type"] == "misses-axes"


def test_boundary_strict_transforms_odd():
    for n in (3, 5, 9):
        m = half_index(n)
        st = boundary_strict_transforms(n)
        for (label, cname), rec in st.items():
            if cname == f"U{m + 1}":
                meets = rec["certificate"]["meetings"]
                # tangency: both axes meet at the corner point with mult 2
                assert {t["axis"] for t in meets} == {f"Et{m}", f"Et{m + 1}"}
                assert all(t["mult"] == 2 and t["root"] == "0" for t in meets)
                pts = {t["point"] for t in meets}
                assert pts == {f"I{m}(0:1)", f"I{m + 1}(1:0)"}
            else:
                assert rec["certificate"]["type"] == "misses-axes"


def test_invariant_chart_and_master_identity():
    for n in (3, 5, 7, 11):
        assert master_identity_holds(n)
        inv = invariant_chart_boundary(n)
        assert inv["certificate"] == {"type": "tangency", "multiplicity": 2}
    assert master_identity_holds(4) and master_identity_holds(10)
    with pytest.raises(ValueError, match="^odd n only$"):
        invariant_chart_boundary(4)


def test_invariant_chart_fails_closed(monkeypatch):
    """Every surface chart rests on the master identity: the odd invariant
    chart, and the even end charts and f2^2 elimination that refdiv uses."""
    assert not issubclass(CertificateFailure, (AssertionError, ValueError))
    monkeypatch.setattr(hilb, "master_identity_holds", lambda n: False)
    with pytest.raises(CertificateFailure, match="master identity"):
        invariant_chart_boundary(5)
    with pytest.raises(CertificateFailure, match="n=6: master identity"):
        refdiv_data(6, 3)


def test_boundary_intersection_numbers():
    assert boundary_intersection_numbers(5) == {"B3": {"E1": 0, "E2": 2}}
    assert boundary_intersection_numbers(4) == {
        "B1": {"E1": 0, "E2": 1},
        "B2": {"E1": 0, "E2": 1},
    }
    nums = boundary_intersection_numbers(12)
    assert nums["B1"] == {f"E{i}": (1 if i == 6 else 0) for i in range(1, 7)}
    nums9 = boundary_intersection_numbers(9)
    assert nums9["B3"] == {f"E{i}": (2 if i == 4 else 0) for i in range(1, 5)}


def test_boundary_intersection_numbers_closed_form():
    # B1 = B2 = delta_(i,m) for even n, B3 = 2 delta_(i,m) for odd n
    for n in range(3, 31):
        m = half_index(n)
        delta = {f"E{i}": (1 if i == m else 0) for i in range(1, m + 1)}
        if n % 2:
            want = {"B3": {e: 2 * v for e, v in delta.items()}}
        else:
            want = {"B1": delta, "B2": delta}
        assert boundary_intersection_numbers(n) == want, n


def test_boundary_intersection_numbers_are_shared_read_only():
    """One computation per n serves every caller, so none may change it."""
    first = boundary_intersection_numbers(8)
    assert boundary_intersection_numbers(8) == first
    with pytest.raises(TypeError):
        first["B1"] = {}
    with pytest.raises(TypeError):
        first["B1"]["E4"] = 0
    assert boundary_intersection_numbers(8)["B1"]["E4"] == 1


def test_boundary_certificate_failure_is_raised_on_every_call(monkeypatch):
    """A failed certificate is not memoised: a disagreeing invariant chart
    fails the fold on each call, and the real one passes afterwards."""
    boundary_intersection_numbers.cache_clear()
    real = hilb.invariant_chart_boundary
    flat = {"type": "tangency", "multiplicity": 1}
    with monkeypatch.context() as patch:
        patch.setattr(hilb, "invariant_chart_boundary", lambda n: {**real(n), "certificate": flat})
        for _ in range(2):
            with pytest.raises(CertificateFailure, match="invariant chart gives tangency 1"):
                z2_fold(an_chain(6), 7)
    assert boundary_intersection_numbers(7)["B3"]["E3"] == 2


def test_refdiv_intersections_are_kronecker_deltas():
    for n in range(9, 17):
        m = half_index(n)
        for k in range(1, m + 1):
            want = {f"E{j}": (1 if j == k else 0) for j in range(1, m + 1)}
            assert refdiv_data(n, k)["intersections"] == want, (n, k)


def test_curve_meeting_count_fails_closed(monkeypatch):
    x, y = Poly.var("x"), Poly.var("y")
    one = Poly.one(2)
    # a strict transform that contains the curve {w = 0} is no strict transform
    with pytest.raises(CertificateFailure, match="E1: own strict transform"):
        hilb._count_meetings("E1", x * y, one, 0)
    with pytest.raises(CertificateFailure, match="E1: far strict transform"):
        hilb._count_meetings("E1", one, x, 0)
    # a squared boundary meets each Et_j with even multiplicity
    per_chart = {"U1": (None, x - one, None), "U2": (None, one, None)}
    monkeypatch.setattr(hilb, "_boundary_pullbacks", lambda n: {"B1": per_chart})
    with pytest.raises(CertificateFailure, match="odd multiplicity 1"):
        boundary_intersection_numbers.__wrapped__(2)
    assert hilb._count_meetings("E1", (x - one) ** 2, y ** 3 + x, 0) == 5


def test_surface_atlas_gluings():
    for n in (5, 7, 9):
        atlas = surface_atlas(n)
        m = half_index(n)
        names = [c.name for c in atlas.charts]
        assert names == [f"A{i}" for i in range(1, m + 1)] + ["Ainv"]
        adj = atlas.adjacency()
        want = [(f"A{i}", f"A{i + 1}") for i in range(1, m)]
        want.append((f"A{m}", "Ainv"))
        assert sorted(adj) == sorted(want)
    # even atlases glue monomially except across the (A_{m-1}, A_m) bridge
    for n in (6, 8):
        atlas = surface_atlas(n)
        m = half_index(n)
        adj = set(atlas.adjacency())
        for i in range(1, m - 1):
            assert (f"A{i}", f"A{i + 1}") in adj
        assert (f"A{m}", f"A{m + 1}") in adj
        assert (f"A{m - 1}", f"A{m}") not in adj


def test_refdiv_data_odd():
    for n in (5, 7):
        m = half_index(n)
        for k in range(1, m + 1):
            cert = refdiv_data(n, k)
            want = {f"E{j}": (1 if j == k else 0) for j in range(1, m + 1)}
            assert cert["intersections"] == want
        c1 = refdiv_data(n, 1)
        assert c1["transversal_point_u"] == "1"
        cm = refdiv_data(n, m)
        assert any("boundary" in note for note in cm["notes"])


def test_refdiv_transversal_points_are_exact_rationals():
    """Every transversal point is the text of a Fraction, never of a float
    from a true division of int coefficients."""
    for n in range(3, 41):
        for k in range(1, half_index(n) + 1):
            s = refdiv_data(n, k)["transversal_point_u"]
            assert s is None or str(Fraction(s)) == s, (n, k, s)


def test_refdiv_data_even():
    for n in (4, 6, 8):
        m = half_index(n)
        for k in range(1, m + 1):
            cert = refdiv_data(n, k)
            want = {f"E{j}": (1 if j == k else 0) for j in range(1, m + 1)}
            assert cert["intersections"] == want
    with pytest.raises(ValueError):
        refdiv_data(6, 5)


def test_flop_atlas_odd():
    for n in (3, 5, 7):
        m = half_index(n)
        chain = stage_chain(n)
        assert len(chain) == m
        counts = []
        for stage in chain:
            fa = build_flop_atlas(n, stage)
            counts.append(len(fa.curve_tags))
            names = [c.name for c in fa.atlas.charts]
            assert len(names) == len(set(names))
        assert counts == list(range(m, 0, -1))
        top = build_flop_atlas(n, chain[0])
        assert len(top.atlas.charts) == m + 2
        assert top.floppable["curve"] == f"E{m}"
        assert top.floppable["coords"] == f"(f1 : (xy)^{m})"
    with pytest.raises(ValueError, match="^stage out of range$"):
        build_flop_atlas(5, (2,))
    with pytest.raises(ValueError, match="^n=5: undefined flop chart U9$"):
        hilb._flop_atlas(5, "X", ["U1''", "U9"])


def test_flop_atlas_even():
    for n in (4, 6, 8):
        m = half_index(n)
        chain = stage_chain(n)
        assert len(chain) == m
        counts = [len(build_flop_atlas(n, s).curve_tags) for s in chain]
        assert counts == list(range(m, 0, -1))
        top = build_flop_atlas(n, chain[0])
        assert top.floppable["coords"] == f"(f1^2 : (xy)^{m})"
    for stage in ((3, 0), (0, -2)):  # i = m and j = -2 at n = 6
        with pytest.raises(ValueError, match="^stage out of range$"):
            build_flop_atlas(6, stage)


def test_displayed_gluing_and_flop():
    for n in (3, 4, 5, 6, 7, 8, 9, 10):
        f = flop_em(n)
        assert f["displayed"] and f["before_glues"] and f["after_glues"], (n, f)
        assert f["before"] == (f"U{half_index(n)}''", f"U{half_index(n) + 1}'")
        assert f["after"] == (f"U{half_index(n)}'", f"U{half_index(n) + 1}")


def test_flop_stage_chain_gluings():
    # all monomially-glued consecutive pairs in each stage verify
    for n in (5, 6):
        for stage in stage_chain(n):
            fa = build_flop_atlas(n, stage)
            adj = fa.atlas.adjacency()
            assert adj, (n, stage)
            for tag in fa.curve_tags[:-1]:
                a, b = tag["charts"]
                if n % 2 or int(a[1]) < half_index(n) - 1:
                    assert (a, b) in adj or (b, a) in adj


def test_poly_bridges():
    for n in (5, 7):
        fa = build_flop_atlas(n, stage_chain(n)[0])
        bridges = poly_bridges(n, fa.atlas)
        assert bridges and all(b["verified"] for b in bridges)
    # the odd bridge U3' -> U4 of n = 5 fails once _ODD_TOP's coefficient -4 is made 4
    atlas = build_flop_atlas(5, (1,)).atlas
    spoiled = {**hilb._ODD_TOP, 0: [(1, (2, 2, 0)), (4, (2, 0, 1))]}
    assert not verify_poly_transition(atlas.chart("U3'"), atlas.chart("U4"), spoiled)
    for n in (6, 8):
        fa = build_flop_atlas(n, stage_chain(n)[0])
        bridges = poly_bridges(n, fa.atlas)
        assert bridges and all(b["verified"] for b in bridges)


def test_no_even_stage_atlas_holds_the_flopped_pair():
    """The flopped pair (U_m', U_(m+1)) of even n glues polynomially, and
    flop_em checks that gluing; no stage atlas of the even chain holds
    both charts, because stage (i, m - 2 - i) has no plain U_k chart."""
    for n in range(4, 41, 2):
        m = half_index(n)
        for stage in stage_chain(n):
            names = {c.name for c in build_flop_atlas(n, stage).atlas.charts}
            assert not {f"U{m}'", f"U{m + 1}"} <= names, (n, stage)
        assert flop_em(n)["after_glues"], n


def test_flop_chart_u1p_definition():
    # U_1' = Spec C[z/f2, f1, xy]: exponents over (x, y, z, f1, f2)
    from dihedral_mckay.hilb import _flop_chart_rows

    rows = _flop_chart_rows(5)
    assert rows["U1'"] == (
        (0, 0, 1, 0, -1),
        (0, 0, 0, 1, 0),
        (1, 1, 0, 0, 0),
    )


def test_nonadjacent_flop_charts_do_not_glue():
    # every U3' coordinate IS a Laurent monomial in U1'' coordinates, but
    # the transition inverts two of them, so it is not a wall crossing
    from dihedral_mckay.charts import transition_exponents
    from dihedral_mckay.hilb import _flop_atlas

    for n in (5, 7):
        a, b = _flop_atlas(n, "pair", ("U1''", "U3'")).charts
        assert transition_exponents(a, b) is not None
        assert not verify_gluing(a, b)


def _end_chart_images(n, name):
    """Images of (xy, f1^2, f2^2) in the coordinates (u, w) of an end chart,
    by plain Poly arithmetic: xy = (1 - u)w/4 on A_m and (u - 1)w/4 on
    A_(m+1), where f1^2 and f2^2 trade places."""
    m = half_index(n)
    u, w, one = Poly.var("x"), Poly.var("y"), Poly.one(2)
    sign = 1 if name == f"A{m}" else -1
    s = (one - u) * w * Fraction(sign, 4)
    base = s ** (m - 1) * w
    f1, f2 = (base, u * base) if sign == 1 else (u * base, base)
    return s, f1, f2


ATOM_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 2)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
    min_size=1,
    max_size=4,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(2, 8).map(lambda h: 2 * h), st.booleans(), ATOM_TERMS)
def test_end_chart_pullback_matches_substitution(n, last, terms):
    m = half_index(n)
    name = f"A{m + 1}" if last else f"A{m}"
    f = Poly(3, terms)
    s, f1, f2 = _end_chart_images(n, name)
    reference = Poly(2)
    for (a, b, c), coeff in f.terms.items():
        reference = reference + coeff * s**a * f1**b * f2**c
    assume(not reference.is_zero())  # a multiple of f1^2 - f2^2 - 4(xy)^m
    strict, orders = hilb.surface_pullbacks(n, f)[name]
    u, w = Poly.var("x"), Poly.var("y")
    factor = (
        u ** orders["B1" if last else "B2"]
        * w ** orders[f"E{m}"]
        * (u - Poly.one(2)) ** orders[f"E{m - 1}"]
    )
    assert factor * strict == reference
    assert any(mono[0] == 0 for mono in strict.terms)  # not divisible by u
    assert any(mono[1] == 0 for mono in strict.terms)  # not divisible by w
    at_one = {}  # strict(1, w), coefficient by power of w
    for (_, j), c in strict.terms.items():
        at_one[j] = at_one.get(j, 0) + c
    assert any(at_one.values())  # not divisible by u - 1


def test_refdiv_data_eliminates_each_atom_once_for_even_n(monkeypatch):
    """Even n: W_k is rewritten without f2^2 once (for A_1..A_m) and without
    f1^2 once (for A_(m+1)), whatever m is; odd n has no atom to eliminate."""
    calls = []
    real = hilb._eliminate

    def counted(n, f, atom):
        calls.append(atom)
        return real(n, f, atom)

    monkeypatch.setattr(hilb, "_eliminate", counted)
    for n in (4, 6, 10, 16, 5, 9):
        for k in range(1, half_index(n) + 1):
            calls.clear()
            refdiv_data(n, k)
            assert sorted(calls) == ([] if n % 2 else [1, 2]), (n, k, calls)


REFLECT_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 20), st.integers(0, 4)),
    st.one_of(
        st.integers(-60, 60),
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
    ),
    max_size=5,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(REFLECT_TERMS)
@example({(0, 0): 7})
@example({(0, 0): Fraction(-5, 3)})
@example({(3, 1): Fraction(1, 4), (2, 0): Fraction(-2, 3), (0, 2): -5})
def test_reflect_matches_dense_pascal_rows(terms):
    f = Poly(2, terms)
    out = hilb._reflect(f)
    assert out.terms == reflected(f.terms)
    assert coefficients_are_normal(out.terms.values())


def test_boundary_strict_transforms_refuse_a_missing_transform_off_one(monkeypatch):
    """A strict transform that meets no axis must have constant term 1."""
    real = hilb._boundary_pullbacks

    def planted(n):
        out = real(n)
        chart, strict, orders = out["B3"]["U1"]
        out["B3"]["U1"] = (chart, strict + Poly.one(2), orders)  # constant term 2
        return out

    monkeypatch.setattr(hilb, "_boundary_pullbacks", planted)
    message = "^B3 on U1: strict transform misses the axes with constant term 2 != 1$"
    with pytest.raises(CertificateFailure, match=message):
        boundary_strict_transforms(5)


def test_invariant_chart_boundary_refuses_another_strict_transform(monkeypatch):
    real = hilb.pullback_orders
    b3 = Poly(2, {(0, 2): 1, (5, 0): -4})

    def planted(chart, eq):
        strict, orders = real(chart, eq)
        return (strict + strict if eq == b3 else strict), orders

    monkeypatch.setattr(hilb, "pullback_orders", planted)
    message = r"^n=5: invariant-chart boundary is 2\*x\^2 - 8\*y, not t\^2 - 4s$"
    with pytest.raises(CertificateFailure, match=message):
        invariant_chart_boundary(5)


def test_refdiv_data_refuses_another_strict_transform_on_ainv(monkeypatch):
    real = hilb.surface_pullbacks

    def planted(n, f):
        out = real(n, f)
        out["Ainv"] = (Poly(2, {(1, 0): 1, (0, 0): -2}), *out["Ainv"][1:])
        return out

    monkeypatch.setattr(hilb, "surface_pullbacks", planted)
    message = "^n=5, k=2: strict transform on Ainv is x - 2, not t - 1$"
    with pytest.raises(CertificateFailure, match=message):
        refdiv_data(5, 2)
