import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_mckay import intersect
from dihedral_mckay.hilb import CertificateFailure, half_index
from dihedral_mckay.intersect import (
    CurveConfig,
    Point,
    an_chain,
    blow_down,
    blow_up_at,
    boundary_data,
    center_discrepancy,
    domination_chain,
    dual_graph_dot,
    embedded_resolution_chain,
    first_difference,
    is_maximal,
    quotient_pair,
    z2_fold,
)
from dihedral_mckay.linalg import insert, reduce, vector
from reference import check_read_only, leibniz_det, with_fields


def fold(n):
    return z2_fold(an_chain(n - 1), n)


def test_an_chain():
    c = an_chain(4)
    assert c.labels == ["Et1", "Et2", "Et3", "Et4"]
    for a in c.labels:
        assert c.pair(a, a) == -2 and c.pair(a, "K") == 0 and c.discrepancy[a] == 0
    assert c.pair("Et1", "Et2") == 1 and c.pair("Et1", "Et3") == 0
    assert c.adjunction_holds() and c.negative_definite()
    assert an_chain(0).labels == []


def test_fold_examples():
    f5 = fold(5)
    assert f5.labels == ["E1", "E2"]
    assert f5.pair("E1", "E1") == -2
    assert f5.pair("E2", "E2") == -1
    assert f5.pair("E1", "E2") == 1
    assert f5.boundary == ("B3",)
    assert f5.pair("E2", "B3") == 2 and f5.pair("E1", "B3") == 0
    f4 = fold(4)
    assert f4.pair("E1", "E1") == -2 and f4.pair("E2", "E2") == -1
    assert f4.boundary == ("B1", "B2")
    assert f4.pair("E2", "B1") == 1 and f4.pair("E2", "B2") == 1
    f3 = fold(3)
    assert f3.labels == ["E1"] and f3.pair("E1", "E1") == -1
    assert f3.pair("E1", "B3") == 2


def test_fold_invariants_wide():
    for n in range(3, 41):
        f = fold(n)
        m = half_index(n)
        assert len(f.labels) == m
        assert f.adjunction_holds()
        assert f.negative_definite()
        assert all(f.discrepancy[a] == 0 for a in f.labels)
        assert f.pair(f"E{m}", f"E{m}") == -1
        for i in range(1, m):
            assert f.pair(f"E{i}", f"E{i}") == -2
            assert f.pair(f"E{i}", f"E{i + 1}") == 1


def _with_pairs(cfg, pairs):
    """A copy of cfg that also pairs a with b, and b with a, as v for each ((a, b), v)."""
    q = dict(cfg.q)
    for (a, b), v in pairs:
        q[a, b] = q[b, a] = v
    return with_fields(cfg, q=q)


def test_fold_refuses_a_chain_with_fractional_pairings():
    """The fold sums the chain's pairings as integers, so it checks that they are."""
    chain = _with_pairs(an_chain(4), [(("Et1", "Et2"), Fraction(1, 2))])
    with pytest.raises(ValueError, match=r"A_\(n-1\) chain"):
        z2_fold(chain, 5)


def test_fold_skips_chain_pairings_with_k_and_the_boundary():
    """The fold reads only the pairings of two chain curves: a chain that
    also pairs a curve with "K" and with a boundary label folds as before."""
    for n in (6, 7):
        extra = [(("Et1", "K"), Fraction(0)), (("Et2", "B1"), Fraction(1))]
        chain = _with_pairs(an_chain(n - 1), extra)
        assert z2_fold(chain, n).to_json() == fold(n).to_json()


def test_configs_and_points_are_values():
    """A built config or point takes no assignment to or deletion of any field
    or new name, there is no set_pair, and blowing down or up leaves the
    input's JSON as it was."""
    f = fold(7)
    configs = [f, quotient_pair(7), embedded_resolution_chain(7), an_chain(3)]
    for obj in configs + [f.points[0], Point("generic", {}, {"B3": 1})]:
        check_read_only(obj)
    assert not hasattr(CurveConfig, "set_pair")
    before = json.dumps(f.to_json())
    blow_down(f, "E3")
    for p in [*f.points, Point("generic", {}, {"B3": 1})]:
        blow_up_at(f, p)
    assert json.dumps(f.to_json()) == before


def test_a_shared_point_cannot_be_written():
    """A point is shared by every stage that keeps it, so its multiplicities
    are read-only copies of what it was built from."""
    c = domination_chain(7)
    before = json.dumps(c[0].to_json())
    assert c[1].points[0] is c[0].points[0]
    with pytest.raises(TypeError):
        c[1].points[0].curves["E1"] = 5
    with pytest.raises(TypeError):
        c[0].points[-1].boundary["B3"] = 2
    assert json.dumps(c[0].to_json()) == before
    given = {"E1": 1}
    p = Point("p", given, {})
    given["E1"] = 2
    assert (p.label, p.curves, p.boundary) == ("p", {"E1": 1}, {})


def test_pair_of_unpaired_labels_is_one_shared_zero():
    c = an_chain(3)
    assert c.pair("Et1", "Et3") is intersect.ZERO and type(intersect.ZERO) is Fraction
    assert c.pair("Et1", "B1") is c.pair("Et2", "K")


def test_blow_down():
    f5 = fold(5)
    c = blow_down(f5, "E2")
    assert c.labels == ["E1"]
    assert c.pair("E1", "E1") == -1 and c.pair("E1", "K") == -1
    assert c.boundary == ("B3",) and c.pair("E1", "B3") == 2
    assert blow_down(fold(3), "E1").labels == []
    with pytest.raises(ValueError, match=r"^E1 is not contractible: C\^2 = -2, K\.C = 0$"):
        blow_down(f5, "E1")
    with pytest.raises(KeyError, match="E9"):
        blow_down(f5, "E9")


def test_domination_chain():
    for n, m in ((5, 2), (6, 3), (3, 1), (12, 6), (19, 9)):
        chain = domination_chain(n)
        assert len(chain) == m + 1
        assert chain[-1].labels == []
        for cfg in chain[:-1]:
            assert (
                sum(
                    1
                    for a in cfg.labels
                    if cfg.pair(a, a) == -1 and cfg.pair(a, "K") == -1
                )
                == 1
            )
            assert cfg.adjunction_holds()
            assert cfg.negative_definite()


def test_blow_up_then_down_is_identity():
    """Contracting the new curve undoes the blow-up at every recorded point
    and at a generic point of each boundary component and each curve."""
    cases = 0
    for n in range(3, 25):
        bdry = boundary_data(n)
        for cfg in domination_chain(n)[:-1]:
            centers = list(cfg.points)
            centers += [Point(f"generic {lab}", {}, {lab: 1}) for lab in bdry]
            centers += [Point(f"generic {a}", {a: 1}, {}) for a in cfg.labels]
            for p in centers:
                up = blow_up_at(cfg, p, "F")
                assert up.pair("F", "F") == -1 and up.pair("F", "K") == -1, (n, p)
                assert up.adjunction_holds(), (n, p)
                assert first_difference(blow_down(up, "F"), cfg) is None, (n, p)
                cases += 1
    assert cases == 1529


def test_blowing_up_a_corner_parts_its_branches_on_the_new_curve():
    """A transversal corner blows up to two points, one on each branch, as
    the new pairings imply; a tangency whose branches still meet stays one point."""
    from dihedral_mckay.verify import _implied_points, _incidences

    f = fold(7)
    points = {p.label: p for p in f.points}
    for corner in ("E1&E2", "E2&E3"):
        up = blow_up_at(f, points[corner])
        assert _incidences((p.curves, p.boundary) for p in up.points) == _implied_points(up)
        a, b = corner.split("&")
        assert up.pair(a, b) == 0
        assert [p.label for p in up.points[-2:]] == [f"F&{a}", f"F&{b}"]
    up = blow_up_at(f, points["E3&B3"])
    assert up.pair("E3", "B3") == 1
    assert [(p.label, p.curves, p.boundary) for p in up.points if "F" in p.curves] == [
        ("F&old", {"F": 1, "E3": 1}, {"B3": 1})
    ]


def test_center_discrepancy_examples():
    q, f = quotient_pair(5), fold(5)
    assert center_discrepancy(q, Point("p", {}, {"B3": 1})) == Fraction(1, 2)
    assert center_discrepancy(q, Point("p", {}, {})) == 1
    assert center_discrepancy(q, Point("p", {}, {"B3": 2})) == 0
    assert center_discrepancy(f, Point("p", {"E1": 1}, {"B3": 1})) == Fraction(1, 2)


def _reference_discrepancy(cfg, curves, boundary):
    """The log discrepancy of the curve that blowing up a center creates,
    written out: 1 + a_C m_C for each curve C through it, minus m_B / 2 for
    each boundary component B (coefficient (m_j - 1)/m_j with m_j = 2)."""
    value = Fraction(1)
    for c, m in curves.items():
        value += cfg.discrepancy[c] * m
    for m in boundary.values():
        value -= Fraction(m, 2)
    return value


_STAGES = [(n, k) for n in range(3, 13) for k in range(half_index(n) + 1)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_center_is_scored_by_one_rule(data):
    """On the fold and its blow-down stages, with discrepancies drawn in
    (-1, 0], a drawn center's blow-up gives the new curve the value that
    center_discrepancy and the written-out rule give it, and every
    candidate of is_maximal, the drawn center among them, scores by that rule."""
    n, k = data.draw(st.sampled_from(_STAGES))
    stage = domination_chain(n)[k]
    above_minus_one = st.fractions(-1, 0, max_denominator=6).filter(lambda a: a > -1)
    discrepancy = {a: data.draw(above_minus_one) for a in stage.labels}
    cfg = with_fields(stage, discrepancy=discrepancy)
    labels = st.sampled_from(cfg.labels) if cfg.labels else st.nothing()
    curves = data.draw(st.dictionaries(labels, st.integers(0, 3)))
    boundary = data.draw(st.dictionaries(st.sampled_from(cfg.boundary), st.integers(0, 2)))
    p = Point("drawn", curves, boundary)
    want = _reference_discrepancy(cfg, curves, boundary)
    assert blow_up_at(cfg, p).discrepancy["F"] == center_discrepancy(cfg, p) == want

    with_p = with_fields(cfg, points=(*cfg.points, p))
    centers = {f"generic point of {a}": ({a: 1}, {}) for a in cfg.labels}
    centers |= {f"generic point of {b}": ({}, {b: 1}) for b in cfg.boundary}
    centers["generic surface point"] = ({}, {})
    centers |= {f"point {q.label}": (q.curves, q.boundary) for q in with_p.points}
    values = {name: _reference_discrepancy(cfg, *c) for name, c in centers.items()}
    ok, cert = is_maximal(with_p, cfg.boundary)
    assert cert["candidates"] == [(name, str(v)) for name, v in values.items()]
    assert ok is all(v > 0 for v in values.values())


def test_the_fold_and_the_quotient_carry_the_boundary_labels_of_n():
    """The boundary of every log pair is its config's labels: the fold and
    the quotient pair both carry boundary_data(n)."""
    for n in range(3, 46):
        want = ("B1", "B2") if n % 2 == 0 else ("B3",)
        assert fold(n).boundary == boundary_data(n) == quotient_pair(n).boundary == want, n


def test_is_maximal_accepts_fold():
    for n in range(3, 21):
        ok, cert = is_maximal(fold(n), boundary_data(n))
        assert ok, cert


def test_is_maximal_rejects_quotient():
    for n in (3, 4, 5, 6, 9, 10):
        ok, cert = is_maximal(quotient_pair(n), boundary_data(n))
        assert not ok
        assert "origin" in cert["violation"]


def test_is_maximal_rejects_one_beyond():
    for n in (4, 5, 8, 9):
        f = fold(n)
        bdry = boundary_data(n)
        blab = "B3" if n % 2 else "B1"
        beyond = blow_up_at(f, Point("generic", {}, {blab: 1}))
        assert beyond.discrepancy["F"] == Fraction(1, 2)
        ok, cert = is_maximal(beyond, bdry)
        assert not ok and "outside (-1, 0]" in cert["violation"]
        # blow-up at the tangency/crossing point also lands at 1/2
        pt = next(p for p in f.points if blab in p.boundary)
        beyond2 = blow_up_at(f, pt)
        assert beyond2.discrepancy["F"] == Fraction(1, 2)
        ok2, _ = is_maximal(beyond2, bdry)
        assert not ok2


def test_forward_chain_reproduces_fold():
    # oracle: the fold is re-derived by the forward blow-up recursion
    for n in range(3, 21):
        forward = embedded_resolution_chain(n)
        assert first_difference(forward, fold(n)) is None, n


def test_dual_graph_dot():
    dot = dual_graph_dot(fold(5), "fold_n5")
    assert '"E2" [label="E2 (0, -1)"]' in dot
    assert '"E1" -- "E2" [label="1"]' in dot
    assert '"E2" -- "B3" [label="2", style=dashed]' in dot


def _symmetric(k, entries):
    m = [[0] * k for _ in range(k)]
    it = iter(entries)
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = next(it)
    return m


def _gram_negated(a, shift):
    """-(A^T A) - shift * I: negative semidefinite, definite when shift > 0."""
    k = len(a)
    return [
        [-sum(a[r][i] * a[r][j] for r in range(k)) - (shift if i == j else 0) for j in range(k)]
        for i in range(k)
    ]


_SIZES = st.integers(0, 5)
_RAW = _SIZES.flatmap(
    lambda k: st.lists(
        st.integers(-3, 3), min_size=k * (k + 1) // 2, max_size=k * (k + 1) // 2
    ).map(lambda e: _symmetric(k, e))
)
_GRAM = _SIZES.flatmap(
    lambda k: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k),
        st.integers(0, 1),
    ).map(lambda a: _gram_negated(*a))
)


def _over(m, dens):
    """m with entry (i, j) and (j, i) divided by the next of dens, row by row above the diagonal."""
    it = iter(dens)
    out = [list(row) for row in m]
    for i in range(len(m)):
        for j in range(i, len(m)):
            out[i][j] = out[j][i] = Fraction(m[i][j], next(it))
    return out


def _singular_lead(m, t, s):
    """m with row and column t - 1 made copies of row and column s < t - 1 inside
    the t-th leading block (or m[0][0] = 0 when t = 1), so D_t = 0 and the later
    minors are free."""
    out = [list(row) for row in m]
    if t == 1:
        out[0][0] = 0
        return out
    s %= t - 1
    for j in range(t - 1):
        out[t - 1][j] = out[j][t - 1] = m[s][j]
    out[t - 1][t - 1] = out[s][t - 1] = out[t - 1][s] = m[s][s]
    return out


_FRAC = st.one_of(_RAW, _GRAM).flatmap(
    lambda m: st.lists(
        st.integers(1, 4), min_size=len(m) * (len(m) + 1) // 2, max_size=len(m) * (len(m) + 1) // 2
    ).map(lambda dens: _over(m, dens))
)
_SINGULAR = st.one_of(_RAW, _GRAM, _FRAC).filter(len).flatmap(
    lambda m: st.tuples(st.integers(1, len(m)), st.integers(0, 4)).map(
        lambda ts: _singular_lead(m, *ts)
    )
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_RAW, _GRAM, _FRAC, _SINGULAR))
def test_negative_definite_matches_leading_minors(m):
    """Sylvester's criterion through a Leibniz determinant of every leading minor,
    on integer forms, on forms with denominators 1 to 4 and on forms whose
    t-th leading minor is zero."""
    labels = [f"C{i}" for i in range(len(m))]
    q = {(a, b): Fraction(m[i][j]) for i, a in enumerate(labels) for j, b in enumerate(labels)}
    cfg = CurveConfig(labels, q=q)
    want = all(
        (-1) ** t * leibniz_det([row[:t] for row in m[:t]]) > 0 for t in range(1, len(m) + 1)
    )
    assert cfg.negative_definite() is want


def _sylvester_by_echelon(cfg):
    """Sylvester's criterion from the reduced Q-echelon of linalg: row t of Q,
    reduced by the echelon of rows 0..t-1, has the pivot D_t / D_(t-1) at t."""
    echelon = {}
    for t, a in enumerate(cfg.labels):
        rest, _ = reduce(echelon, vector([cfg.pair(a, b) for b in cfg.labels]))
        if rest.get(t, 0) >= 0:
            return False
        insert(echelon, rest)
    return True


def _one_entry_changed(cfg, rng):
    """Three copies of cfg, each with one pairing of two curves (both orders)
    moved by a small step: on the diagonal, between neighbours, anywhere."""
    labels = cfg.labels
    i, j = rng.randrange(len(labels)), rng.randrange(len(labels))
    picks = [(labels[i], labels[i]), (labels[i - 1], labels[i]), (labels[i], labels[j])]
    for a, b in picks:
        step = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 4)])
        yield _with_pairs(cfg, [((a, b), cfg.pair(a, b) + step)])


def test_negative_definite_matches_the_echelon_oracle():
    """Every stage of the domination chain for n = 3..45, the fold blown up at
    each recorded point, and copies of both with one entry changed, against
    Sylvester's criterion on linalg's reduced Q-echelon."""
    seen = {True: 0, False: 0}
    for n in range(3, 46):
        rng = random.Random(n)
        f = fold(n)
        configs = domination_chain(n) + [blow_up_at(f, p) for p in f.points]
        for cfg in configs:
            for c in [cfg, *(_one_entry_changed(cfg, rng) if cfg.labels else [])]:
                want = _sylvester_by_echelon(c)
                assert c.negative_definite() is want, (n, c.labels, first_difference(c, cfg))
                seen[want] += 1
    assert seen == {True: 2066, False: 2101}, seen


def test_fold_and_chains_fail_closed(monkeypatch):
    """A broken fold or chain raises the internal CertificateFailure, which
    ``python -O`` keeps and a ValueError handler does not catch."""
    with monkeypatch.context() as patch:
        patch.setattr(CurveConfig, "adjunction_holds", lambda self: False)
        with pytest.raises(CertificateFailure, match="adjunction fails after the fold"):
            fold(5)
    with monkeypatch.context() as patch:
        # two (-2)-curves with K.E = 0: nothing to contract
        patch.setattr(intersect, "z2_fold", lambda chain, n: an_chain(2))
        with pytest.raises(CertificateFailure, match=r"exactly one \(-1\)-curve, found \[\]"):
            domination_chain(5)
    with monkeypatch.context() as patch:
        patch.setattr(intersect, "center_discrepancy", lambda *args: Fraction(1))
        with pytest.raises(CertificateFailure, match="0 forced centers, not one"):
            embedded_resolution_chain(5)
