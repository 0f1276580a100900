from fractions import Fraction

import pytest

from dihedral_mckay import constel, reps, taut
from dihedral_mckay.constel import socle_table
from dihedral_mckay.hilb import CertificateFailure, boundary_intersection_numbers, half_index
from dihedral_mckay.intersect import CurveConfig
from dihedral_mckay.reps import Character, CharTable, GroupSpec, char_table
from dihedral_mckay.taut import (
    DivisorClass,
    PairingTable,
    build_ledger,
    fm_cross_check,
    fm_table,
    ledger_markdown,
    pairing_table,
    pushforward_identities,
    refdivisor_certify,
    stack_twist_class,
    torsion_check,
)


def entry(entries, name):
    return next(e for e in entries if e["rep"] == name)


def test_pairing_table_columns():
    t = PairingTable(5)
    # L . E_m = -(1/2) * suppB3 . E_m = -1; L . E_1 = 0
    assert t.rows["L"] == {"E1": 0, "E2": -1}
    assert t.rows["D"] == {"E1": 0, "E2": 1}
    t4 = PairingTable(4)
    assert t4.rows["L"] == {"E1": 0, "E2": -1}
    assert t4.rows["suppB1"] == {"E1": 0, "E2": 1}


@pytest.mark.parametrize("n", range(3, 17))
def test_pairing_table_boundary_rows_match_the_chart_numbers(n):
    # the supp<B> and L rows are read off the fold; they must equal the rows
    # built straight from hilb's boundary intersection numbers
    t = PairingTable(n)
    bnums = boundary_intersection_numbers(n)
    curves = [f"E{j}" for j in range(1, half_index(n) + 1)]
    for lab, row in bnums.items():
        assert t.rows[f"supp{lab}"] == {e: Fraction(row[e]) for e in curves}
    assert t.rows["L"] == {
        e: -sum(Fraction(row[e]) for row in bnums.values()) / 2 for e in curves
    }
    assert sorted(k for k in t.rows if k.startswith("supp")) == sorted(
        f"supp{lab}" for lab in bnums
    )


def test_torsion_examples():
    for n in (5, 7, 9):
        cls = stack_twist_class(n)
        assert torsion_check(n, cls)
    for n in (4, 6, 10):
        cls = stack_twist_class(n)
        assert torsion_check(n, cls)
    for n in (4, 5, 8, 9):
        m = half_index(n)
        for i in range(1, m + 1):
            assert not torsion_check(n, DivisorClass.make({f"E{i}": 1}))


def test_torsion_uses_the_stated_pairings():
    # odd: 2(calB3 - calD) . E_m = suppB3.E_m - 2 D.E_m = 2 - 2
    t = PairingTable(5)
    doubled = stack_twist_class(5).scale(2)
    assert t.pair(doubled, "E2") == 0 and t.pair(doubled, "E1") == 0


@pytest.mark.parametrize("n", range(3, 46))
def test_torsion_verdicts_agree_with_a_freshly_built_table(n):
    """2*cls pairs to 0 with every E_j exactly when torsion_check says torsion,
    for the stacky twist and each E_i; only the twist is torsion."""
    t = PairingTable(n)
    m = half_index(n)
    curves = [f"E{j}" for j in range(1, m + 1)]
    classes = [stack_twist_class(n)] + [DivisorClass.make({e: 1}) for e in curves]
    verdicts = [torsion_check(n, cls) for cls in classes]
    fresh = [all(t.pair(cls.scale(2), e) == 0 for e in curves) for cls in classes]
    assert verdicts == fresh
    assert verdicts == [True] + [False] * m


def test_a_shared_pairing_table_cannot_be_written():
    """pairing_table shares one table per n, so no write may reach it or its rows."""
    t = pairing_table(5)
    assert pairing_table(5) is t and t.rows["D"] is t.rows["D2"]
    with pytest.raises(TypeError):
        t.rows["D"] = {"E1": 0, "E2": 0}
    with pytest.raises(TypeError):
        t.rows["D"]["E2"] = 0
    with pytest.raises(TypeError):
        t.rows["suppB3"]["E2"] = 1
    for name, value in (("rows", {}), ("n", 5), ("m", 0)):
        with pytest.raises(AttributeError):
            setattr(t, name, value)
    assert t.rows["D2"] == {"E1": 0, "E2": 1} and t.rows["suppB3"] == {"E1": 0, "E2": 2}
    assert torsion_check(5, stack_twist_class(5))
    assert not torsion_check(5, DivisorClass.make({"E2": 1}))


def test_a_fold_failure_is_raised_on_every_torsion_check(monkeypatch):
    """A failed fold is not memoised: each check raises, and the real verdict
    returns once the fold holds again."""
    twist = stack_twist_class(5)
    with monkeypatch.context() as patch:
        patch.setattr(CurveConfig, "adjunction_holds", lambda self: False)
        pairing_table.cache_clear()
        for _ in range(2):
            with pytest.raises(CertificateFailure, match="adjunction fails after the fold"):
                torsion_check(5, twist)
    assert torsion_check(5, twist)


def test_build_ledger_stack():
    entries = build_ledger(4, "stack")
    half = Fraction(1, 2)
    assert entry(entries, "rho2")["c1"].coeffs == DivisorClass.make({"suppB1": half}).coeffs
    assert entry(entries, "rho2'")["c1"].coeffs == DivisorClass.make({"suppB2": half}).coeffs
    assert entry(entries, "rho1")["rank"] == 2
    assert entry(entries, "rho1")["extension"] == "unique-nontrivial"
    odd = build_ledger(5, "stack")
    assert entry(odd, "rho0'")["c1"].coeffs == DivisorClass.make(
        {"suppB3": Fraction(1, 2), "D": -1}
    ).coeffs
    assert entry(odd, "rho1")["c1"].coeffs == DivisorClass.make(
        {"D1": 1, "suppB3": Fraction(1, 2), "D": -1}
    ).coeffs
    with pytest.raises(ValueError, match="^space must be 'stack' or 'coarse'$"):
        build_ledger(5, "orbifold")


def test_build_ledger_coarse():
    entries = build_ledger(6, "coarse")
    assert entry(entries, "rho1")["extension"] == "split"
    assert entry(entries, "rho1")["c1"].coeffs == DivisorClass.make({"D1": 1, "L": 1}).coeffs
    assert entry(entries, "rho3")["c1"].coeffs == DivisorClass.make({"suppB1": 1, "L": 1}).coeffs
    assert entry(entries, "rho3'")["c1"].coeffs == DivisorClass.make({"suppB2": 1, "L": 1}).coeffs
    assert entry(entries, "rho0'")["c1"].coeffs == DivisorClass.make({"L": 1}).coeffs
    md = ledger_markdown(6, entries, "coarse")
    assert "| rho1 | 2 |" in md


def test_a_divisor_class_refuses_a_float():
    """A float coefficient is refused by value, a zero one too."""
    with pytest.raises(ValueError, match=r"^not an int or a Fraction: 0\.1$"):
        DivisorClass.make({"E1": 0.1})
    with pytest.raises(ValueError, match=r"^not an int or a Fraction: 0\.0$"):
        DivisorClass.make({"E1": 1, "E2": 0.0})


def test_c1_additivity():
    # c1 of the rank-2 entry equals c1(O) + c1 of its quotient line bundle
    for n in (5, 8):
        for space in ("stack", "coarse"):
            entries = build_ledger(n, space)
            tw = stack_twist_class(n) if space == "stack" else DivisorClass.make({"L": 1})
            for e in entries:
                if e["rank"] == 2:
                    i = int(e["rep"][3:])
                    assert e["c1"].coeffs == (DivisorClass.make({f"D{i}": 1}) + tw).coeffs


def test_pushforward_identities():
    for n in (3, 4, 5, 12):
        report = pushforward_identities(n)
        assert report  # raises CertificateFailure on failure


def test_pushforward_identities_do_not_depend_on_what_the_weight_memo_holds():
    """Ind eps_i is decomposed through constel's weight memo: the report is the
    same, in order too, whether the memo starts empty or holds the answers
    that socle_table(n) put there, some of which Ind reads."""
    memo = constel._weight_decomposition
    for n in range(3, 13):
        memo.cache_clear()
        fresh = repr(pushforward_identities(n))
        memo.cache_clear()
        socle_table(n)
        hits = memo.cache_info().hits
        assert repr(pushforward_identities(n)) == fresh, n
        assert memo.cache_info().hits > hits, n


def test_identity_violation_fails_closed(monkeypatch):
    monkeypatch.setattr(taut.constel, "_weight_decomposition", lambda n, *weights: ())
    with pytest.raises(CertificateFailure, match=r"Ind eps0 = \{\}"):
        pushforward_identities(4)


def test_a_failed_induction_is_a_certificate_failure_that_names_its_case(monkeypatch):
    """A decomposition that raises ValueError reaches the caller as a
    CertificateFailure prefixed by the induction it was asked for."""

    def refuse(n, *weights):
        raise ValueError("x")

    monkeypatch.setattr(taut.constel, "_weight_decomposition", refuse)
    with pytest.raises(CertificateFailure, match=r"^Ind eps0: x$"):
        pushforward_identities(4)


def test_pushforward_identities_refuse_a_wrong_restriction(monkeypatch):
    """Every restriction planted as Res rho0 passes for rho0 and rho0' and
    fails at rho1, after every induction has passed."""
    trivial = char_table(GroupSpec("dihedral", 5)).by_name["rho0"]
    monkeypatch.setattr(taut, "restrict", lambda chi: reps.restrict(trivial))
    message = r"^Res rho1 = \{'eps0': 1\}, expected \{'eps1': 1, 'eps4': 1\}$"
    with pytest.raises(CertificateFailure, match=message):
        pushforward_identities(5)


def test_build_ledger_refuses_a_rank_that_differs_from_the_degree(monkeypatch):
    g = GroupSpec("dihedral", 5)
    table = char_table(g)
    doubled = Character(g, "rho0", [2 * v for v in table.by_name["rho0"].values])
    planted = CharTable(g, [doubled], {"rho0": 0})
    monkeypatch.setattr(taut, "char_table", lambda group: planted)
    with pytest.raises(CertificateFailure, match="^rank of rho0 differs from its degree$"):
        build_ledger(5, "coarse")


def test_fm_table_rows():
    t4 = fm_table(4)
    by = {e["rep"]: e for e in t4}
    assert by["rho0"] == {"rep": "rho0", "support": "F", "twist": "none", "shift": 0}
    assert by["rho1"] == {"rep": "rho1", "support": "E1", "twist": "none", "shift": 1}
    assert by["rho2"] == {"rep": "rho2", "support": "E2", "twist": "-B1", "shift": 1}
    assert by["rho2'"] == {"rep": "rho2'", "support": "E2", "twist": "-B2", "shift": 1}
    t5 = fm_table(5)
    by5 = {e["rep"]: e for e in t5}
    assert by5["rho2"] == {"rep": "rho2", "support": "E2", "twist": "-B3", "shift": 1}
    assert by5["rho0'"]["twist"] == "(B3-D)"


def test_fm_cross_check():
    for n in range(3, 11):
        res = fm_cross_check(n, socle_table(n))
        assert res["checked"] == len(fm_table(n))


def test_fm_cross_check_rejects_a_socle_at_the_excluded_point():
    rows = socle_table(4)
    b1 = next(r for r in rows if r["stratum"] == "B1")
    b1["socle"] = {**b1["socle"], "rho2": 1}  # rho2 carries the twist -B1
    with pytest.raises(CertificateFailure, match="rho2: should be excluded at B1"):
        fm_cross_check(4, rows)


@pytest.mark.parametrize(
    "stratum, key, value, message",
    [
        ("E2", "top", {"rho0'": 1}, "rho0: missing from the top on E2"),
        ("E2", "socle", {"rho1": 1, "rho2": 1}, "rho1: socle appearance off its support at E2"),
        ("E1", "socle", {}, "rho1: missing from the socle on its generic stratum"),
    ],
    ids=["top", "off-support", "generic-stratum"],
)
def test_fm_cross_check_rejects_a_spoiled_socle_table(stratum, key, value, message):
    rows = socle_table(5)
    next(r for r in rows if r["stratum"] == stratum)[key] = value
    with pytest.raises(CertificateFailure, match=f"^{message}$"):
        fm_cross_check(5, rows)


def test_refdivisor_certify_fails_closed(monkeypatch):
    wrong = {"intersections": {"E1": 1, "E2": 1}}
    monkeypatch.setattr(taut.hilb, "refdiv_data", lambda n, k: wrong)
    with pytest.raises(CertificateFailure, match="W_1 pairings"):
        refdivisor_certify(5, 1)


def test_refdivisor_certify():
    for n in (4, 5, 6, 7):
        m = half_index(n)
        cert = refdivisor_certify(n)
        assert cert["k"] == m
        assert cert["intersections"][f"E{m}"] == 1
        cert1 = refdivisor_certify(n, 1)
        assert cert1["intersections"]["E1"] == 1
    # odd n, k = m carries the boundary note
    cert = refdivisor_certify(5, 2)
    assert any("boundary" in note for note in cert["notes"])
    with pytest.raises(ValueError):
        refdivisor_certify(6, 4)
