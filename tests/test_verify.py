"""Each per-n artifact is built once per criterion and passed along, and
every criterion honours ``--n-range``."""

import gc
import importlib
import weakref
from fractions import Fraction

import pytest

from dihedral_mckay import cli, constel, reps, taut, verify
from dihedral_mckay.exactnum import CycloElt
from dihedral_mckay.polyring import Poly
from reference import with_fields
from test_source import LRU_CACHED


def _count_calls(monkeypatch, owner, attr):
    calls = []
    real = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def test_criterion_10_builds_one_pairing_table_per_n(monkeypatch):
    """Tables come from the per-n memo: two runs over six n build six tables."""
    taut.pairing_table.cache_clear()
    tables = _count_calls(monkeypatch, taut.PairingTable, "__init__")
    socles = _count_calls(monkeypatch, constel, "socle_table")
    for _ in range(2):
        assert verify.criterion_10(n_range=(3, 8))["passed"]
    assert sorted(args[1] for args in tables) == list(range(3, 9))
    assert socles == []


def test_criterion_9_cross_checks_each_socle_table_once(monkeypatch):
    socles = _count_calls(monkeypatch, constel, "socle_table")
    checks = _count_calls(monkeypatch, taut, "fm_cross_check")
    assert verify.criterion_9(n_range=(3, 8))["passed"]
    assert [args[0] for args in socles] == list(range(3, 9))
    assert [args[0] for args in checks] == list(range(3, 9))


def test_criterion_11_draws_n_inside_the_range(monkeypatch):
    built = _count_calls(monkeypatch, constel, "constellation_from_cluster")
    res = verify.criterion_11(n_range=(4, 6))
    assert res["passed"], res
    assert len(built) == 100 and {args[0] for args in built} <= {4, 5, 6}


def test_criterion_11_runs_no_trial_on_an_empty_range(monkeypatch):
    """A range that misses 3..10 is a FAIL line for criterion 11, which
    builds no constellation."""
    built = _count_calls(monkeypatch, constel, "constellation_from_cluster")

    def skipped(n_range=None):
        return verify._result(1, True, "")

    monkeypatch.setattr(verify, "CRITERIA", [skipped] * 10 + [verify.criterion_11])
    lines = []
    *_, res = verify.run_all(lines.append, n_range=(11, 20))
    assert not res["passed"] and built == []
    assert lines[-1] == (
        "FAIL criterion 11: theta soundness - raised ValueError: "
        "requested n range 11..20 misses the published range 3..10"
    )


def _spoil_socle(monkeypatch):
    real = constel.expected_socle
    monkeypatch.setattr(
        constel, "expected_socle", lambda n, s: {"rho9": 1} if s == "E2" else real(n, s)
    )
    return "socle", "E2", "expected {'rho9': 1}, got {'rho2': 1}"


def _spoil_regular(monkeypatch):
    monkeypatch.setattr(constel, "regular_check", lambda F: False)
    return "regular", "E1", "expected True, got False"


def _spoil_top(monkeypatch):
    monkeypatch.setattr(constel, "top", lambda F: {"rho0": 2})
    return "top", "E1", "expected {'rho0': 1, \"rho0'\": 1}, got {'rho0': 2}"


@pytest.mark.parametrize("spoil", [_spoil_socle, _spoil_regular, _spoil_top])
def test_criterion_9_failure_names_the_case(monkeypatch, spoil):
    witness = {row["stratum"]: row["witness"] for row in constel.socle_table(5)}
    what, stratum, values = spoil(monkeypatch)
    res = verify.criterion_9(n_range=(5, 5))
    assert not res["passed"]
    assert res["details"] == f"{what} at n=5 stratum {stratum} witness {witness[stratum]}: {values}"


def test_criterion_9_failure_names_the_twist(monkeypatch):
    monkeypatch.setattr(constel, "socle", lambda F: {})
    res = verify.criterion_9(n_range=(5, 5))
    assert res["details"] == (
        "socle at n=4 stratum B1 witness I2(1:-1) twist delta1: expected {\"rho2'\": 1}, got {}"
    )


@pytest.mark.parametrize("planted, pair, want", [((2, 2), "rho1,rho1", 1), ((0, 3), "rho0,rho2", 0)])
def test_criterion_1_failure_names_the_pair(monkeypatch, planted, pair, want):
    real = verify.gram

    def spoiled(rows, cols):
        out = real(rows, cols)
        if rows[0].group.n == 7:
            i, j = planted
            out[i][j] = Fraction(2)
        return out

    monkeypatch.setattr(verify, "gram", spoiled)
    res = verify.criterion_1(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == f"<{pair}> at n=7: expected {want}, got 2"


def test_criterion_1_pairs_each_table_once_without_inner_product(monkeypatch):
    pairs = _count_calls(monkeypatch, verify, "gram")
    singles = _count_calls(monkeypatch, reps, "inner_product")
    res = verify.criterion_1(n_range=(3, 8))
    assert res == {
        "id": 1,
        "name": "character tables",
        "passed": True,
        "details": "orthonormal, counts and degrees exact",
    }
    assert [args[0][0].group.n for args in pairs] == list(range(3, 9))
    assert singles == []


def test_criterion_1_neither_reads_nor_fills_the_table_memo():
    """Criterion 1 pairs fresh tables over its full range: the process's table
    memo is untouched, and later callers still share one table per group."""
    before = reps.char_table.cache_info()
    assert verify.criterion_1()["passed"]
    assert reps.char_table.cache_info() == before
    g = reps.GroupSpec("dihedral", 41)
    assert reps.char_table(g) is reps.char_table(g)


def test_criterion_1_keeps_no_table(monkeypatch):
    """Every table criterion 1 builds is freed once it returns."""
    built = []
    real = verify.build_char_table

    def tracked(g):
        table = real(g)
        built.append(weakref.ref(table))
        return table

    monkeypatch.setattr(verify, "build_char_table", tracked)
    assert verify.criterion_1(n_range=(3, 12))["passed"]
    gc.collect()
    assert len(built) == 10 and all(ref() is None for ref in built)


def _memo_sizes():
    """currsize of every lru_cache in the package, in LRU_CACHED's sorted order."""
    sizes = []
    for name in sorted(LRU_CACHED):
        module, attr = name.split(".")
        memo = getattr(importlib.import_module(f"dihedral_mckay.{module}"), attr)
        sizes.append(memo.cache_info().currsize)
    return sizes


def _track_groups(monkeypatch, owner):
    """Weak references to the group of every table ``owner.build_char_table`` builds."""
    groups = []
    real = owner.build_char_table

    def tracked(g):
        groups.append(weakref.ref(g))
        return real(g)

    monkeypatch.setattr(owner, "build_char_table", tracked)
    return groups


def test_criterion_1_leaves_no_classes_or_phi_terms_behind(monkeypatch):
    """Over criterion 1's full range no process memo gains an entry, and every
    group it builds is freed with the conjugacy classes and Phi_n terms it held,
    those of n = 41..100 among them."""
    sizes = _memo_sizes()
    groups = _track_groups(monkeypatch, verify)
    assert verify.criterion_1()["passed"]
    gc.collect()
    assert _memo_sizes() == sizes
    assert len(groups) == 98 and all(ref() is None for ref in groups)


def test_criterion_2_keeps_no_table(monkeypatch):
    """Each quiver of criterion 2's full range pairs a fresh table: no process
    memo gains an entry, and every group it builds is freed once it returns."""
    sizes = _memo_sizes()
    groups = _track_groups(monkeypatch, reps)
    assert verify.criterion_2()["passed"]
    gc.collect()
    assert _memo_sizes() == sizes
    assert len(groups) == 37 and all(ref() is None for ref in groups)


def test_criterion_2_pairs_each_quiver_once(monkeypatch):
    """One inner_product per n: the products rho1 * chi as rows, the table as columns."""
    calls = _count_calls(monkeypatch, reps, "inner_product")
    assert verify.criterion_2(n_range=(4, 12))["passed"]
    assert len(calls) == 9
    for n, (rows, cols) in zip(range(4, 13), calls):
        table = reps.char_table(reps.GroupSpec("dihedral", n))
        nat = table.by_name["rho1"]
        assert [r.name for r in rows] == [f"rho1*{chi.name}" for chi in table]
        assert rows == [nat * chi for chi in table]
        assert cols == table.chars


def _spoil_table(monkeypatch, n, at, k, terms):
    """verify.build_char_table with the class-k value of irreducible ``at`` replaced at n."""
    real = verify.build_char_table
    table = real(reps.GroupSpec("dihedral", n))
    chi = table.chars[at]
    vals = list(chi.values)
    vals[k] = CycloElt(n, terms)
    chars = list(table.chars)
    chars[at] = reps.Character(chi.group, chi.name, vals)
    spoiled = reps.CharTable(table.group, chars, table.index)
    monkeypatch.setattr(verify, "build_char_table", lambda g: spoiled if g.n == n else real(g))


@pytest.mark.parametrize(
    "n, at, k, terms, details",
    [
        (6, -1, 1, {0: 1}, "<rho0,rho3'> at n=6: expected 0, got 1/3"),
        (12, -2, 4, {0: 3}, "<rho0,rho6> at n=12: expected 0, got 1/6"),
    ],
)
def test_criterion_1_fails_on_a_spoiled_late_irreducible(monkeypatch, n, at, k, terms, details):
    """The real gram finds the first differing pairing of a spoiled table."""
    _spoil_table(monkeypatch, n, at, k, terms)
    res = verify.criterion_1(n_range=(3, n + 2))
    assert not res["passed"]
    assert res["details"] == details


def test_criterion_1_fails_closed_on_an_irrational_pairing(monkeypatch):
    _spoil_table(monkeypatch, 10, -1, 1, {0: 1})
    monkeypatch.setattr(verify, "CRITERIA", [verify.criterion_1])
    lines = []
    (res,) = verify.run_all(lines.append, n_range=(3, 12))
    assert not res["passed"]
    assert lines == [
        "FAIL criterion 1: character tables - raised NotRational: <rho1,rho5'> is irrational: "
        "irrational value: 2 + 2*t^1 + 2*t^2 + -2*t^3 + 2*t^4 + -2*t^5 + 2*t^6 + -2*t^7 "
        "+ 2*t^8 + 2*t^9"
    ]


def test_criterion_7_fails_on_a_fold_without_its_points(monkeypatch):
    """The forward chain carries no points, so criterion 7 checks the fold's
    points against the incidences its own pairings imply."""
    real = verify.intersect.z2_fold

    def pointless(chain, n):
        cfg = real(chain, n)
        return with_fields(cfg, points=()) if n == 7 else cfg

    monkeypatch.setattr(verify.intersect, "z2_fold", pointless)
    res = verify.criterion_7(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == (
        "special points at n=7: expected [([('E1', 1), ('E2', 1)], []), "
        "([('E2', 1), ('E3', 1)], []), ([('E3', 1)], [('B3', 1)])], got []"
    )


def _quiver_at(monkeypatch, at, spoil):
    real = verify.mckay_quiver

    def spoiled(n):
        q = real(n)
        return spoil(q) if n == at else q

    monkeypatch.setattr(verify, "mckay_quiver", spoiled)


def _drop_loop_flag(q):
    return {**q, "divergences": []}


def _flag_an_edge(q):
    d = {"from": "rho1", "to": "rho2", "computed": 2, "drawn": 1}
    return {**q, "divergences": [d]}


def _join_the_tails(q):
    adj = [list(row) for row in q["adjacency"]]
    adj[0][1] = adj[1][0] = 1  # rho0 -- rho0'
    return {**q, "adjacency": adj}


@pytest.mark.parametrize(
    "at, spoil, details",
    [
        (
            7,
            _drop_loop_flag,
            "loop flag at n=7: expected "
            "[{'from': 'rho3', 'to': 'rho3', 'computed': 1, 'drawn': 0}], got []",
        ),
        (8, _flag_an_edge, "edge rho1--rho2 at n=8: expected 1, got 2"),
        (
            8,
            _join_the_tails,
            "tails at n=8: expected ['rho0', \"rho0'\", 'rho4', \"rho4'\"], "
            "got ['rho4', \"rho4'\"]",
        ),
    ],
)
def test_criterion_2_failure_names_n_and_the_values(monkeypatch, at, spoil, details):
    _quiver_at(monkeypatch, at, spoil)
    res = verify.criterion_2(n_range=(4, 9))
    assert not res["passed"]
    assert res["details"] == details


def test_criterion_10_failure_names_the_twist_and_its_pairings(monkeypatch):
    real = taut.stack_twist_class
    monkeypatch.setattr(
        taut,
        "stack_twist_class",
        lambda n: taut.DivisorClass.make({"E1": 1}) if n == 7 else real(n),
    )
    res = verify.criterion_10(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == (
        "2*(E1) at n=7: expected 0 on every E_j, got {'E1': '-4', 'E2': '2', 'E3': '0'}"
    )


def test_criterion_10_failure_names_the_torsion_curve(monkeypatch):
    real = taut.PairingTable.pair

    def flat(self, cls, curve):
        return Fraction(0) if self is taut.pairing_table(7) else real(self, cls, curve)

    monkeypatch.setattr(taut.PairingTable, "pair", flat)
    res = verify.criterion_10(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == (
        "2*(E1) at n=7: expected nonzero on some E_j, got {'E1': '0', 'E2': '0', 'E3': '0'}"
    )


def _with_pair(cfg, a, b, v):
    """A copy of cfg that pairs a with b, and b with a, as v."""
    return with_fields(cfg, q={**cfg.q, (a, b): v, (b, a): v})


def _chain_at_7(spoil):
    def patch(monkeypatch):
        real = verify.intersect.domination_chain

        def spoiled(n):
            chain = real(n)
            return spoil(chain) if n == 7 else chain

        monkeypatch.setattr(verify.intersect, "domination_chain", spoiled)

    return patch


def _stage_with_pair(k, a, b, v):
    """Spoil stage k of a chain by one pairing."""
    return lambda c: [*c[:k], _with_pair(c[k], a, b, v), *c[k + 1 :]]


@pytest.mark.parametrize(
    "patch, details",
    [
        (
            _chain_at_7(lambda c: c[:-1]),
            "chain length at n=7: expected curves [3, 2, 1, 0], got [3, 2, 1]",
        ),
        (
            _chain_at_7(_stage_with_pair(0, "E2", "E2", Fraction(-3))),
            "E2^2 at n=7: expected -2, got -3",
        ),
        (
            _chain_at_7(_stage_with_pair(1, "E1", "K", Fraction(1))),
            "adjunction at n=7, stage 1: expected K.E + E^2 = -2, got {'E1': '-1', 'E2': '-2'}",
        ),
        (
            _chain_at_7(_stage_with_pair(1, "E1", "E2", Fraction(3))),
            "Q at n=7, stage 1: expected negative definite, got [['-2', '3'], ['3', '-1']]",
        ),
    ],
)
def test_criterion_6_failure_names_n_and_the_values(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_6(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


def _third_coefficient_at_7(monkeypatch):
    """Score the centers of the n = 7 fold with boundary coefficient 1/3."""
    real = verify.intersect.center_discrepancy

    def spoiled(cfg, point):
        if _odd_m3(cfg):  # n = 7: 1/3, not 1/2, off per boundary multiplicity
            return real(cfg, point) + Fraction(1, 6) * sum(point.boundary.values())
        return real(cfg, point)

    monkeypatch.setattr(verify.intersect, "center_discrepancy", spoiled)


def _fold_ledger_at_7(monkeypatch):
    real = verify.intersect.z2_fold

    def spoiled(chain, n):
        cfg = real(chain, n)
        if n == 7:
            return with_fields(cfg, discrepancy={**cfg.discrepancy, "E2": Fraction(-1, 2)})
        return cfg

    monkeypatch.setattr(verify.intersect, "z2_fold", spoiled)


def _forward_chain_at_7(monkeypatch):
    real = verify.intersect.embedded_resolution_chain

    def spoiled(n):
        cfg = real(n)
        return _with_pair(cfg, "E1", "E2", Fraction(2)) if n == 7 else cfg

    monkeypatch.setattr(verify.intersect, "embedded_resolution_chain", spoiled)


def _maximality_input(spoil):
    """Spoil the configurations that criterion 7 hands to is_maximal:
    spoil returns the configuration that is_maximal sees instead."""

    def patch(monkeypatch):
        real = verify.intersect.is_maximal

        def spoiled(cfg, bdry):
            return real(spoil(cfg), bdry)

        monkeypatch.setattr(verify.intersect, "is_maximal", spoiled)

    return patch


def _odd_m3(cfg, extra=()):
    return cfg.labels == ["E1", "E2", "E3", *extra] and cfg.boundary == ("B3",)


def _fold_below_minus_one(cfg):
    if _odd_m3(cfg):  # n = 7
        return with_fields(cfg, discrepancy={**cfg.discrepancy, "E1": Fraction(-1)})
    return cfg


def _smooth_even_origin(cfg):
    if not cfg.labels and cfg.boundary == ("B1", "B2"):  # first at n = 4
        return with_fields(cfg, points=(verify.intersect.Point("origin", {}, {"B1": 1}),))
    return cfg


def _crepant_beyond(cfg):
    if _odd_m3(cfg, ["F"]):  # n = 7
        return with_fields(cfg, discrepancy={**cfg.discrepancy, "F": Fraction(0)}, points=())
    return cfg


@pytest.mark.parametrize(
    "patch, details",
    [
        (_third_coefficient_at_7, "smooth-point value at n=7: expected 1/2, got 2/3"),
        (
            _fold_ledger_at_7,
            "fold ledger at n=7: expected 0 on every E_j, "
            "got {'E1': '0', 'E2': '-1/2', 'E3': '0'}",
        ),
        (_forward_chain_at_7, "forward chain at n=7, E1.E2: expected 1, got 2"),
        (
            _maximality_input(_fold_below_minus_one),
            "fold not maximal at n=7: expected maximal, got E1: discrepancy -1 outside (-1, 0]",
        ),
        (
            _maximality_input(_smooth_even_origin),
            "quotient accepted at n=4: expected a violation, got no violation among "
            "[('generic point of B1', '1/2'), ('generic point of B2', '1/2'), "
            "('generic surface point', '1'), ('point origin', '1/2')]",
        ),
        (
            _maximality_input(_crepant_beyond),
            "one-beyond accepted at n=7: expected a violation, got no violation among "
            "[('generic point of E1', '1'), ('generic point of E2', '1'), "
            "('generic point of E3', '1'), ('generic point of F', '1'), "
            "('generic point of B3', '1/2'), ('generic surface point', '1')]",
        ),
    ],
)
def test_criterion_7_failure_names_n_and_the_values(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_7(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


def _table_at_7(spoil):
    def patch(monkeypatch):
        real = verify.build_char_table

        def spoiled(g):
            t = real(g)
            return reps.CharTable(t.group, spoil(t.chars), t.index) if g.n == 7 else t

        monkeypatch.setattr(verify, "build_char_table", spoiled)

    return patch


def _doubled(chi):
    return reps.Character(chi.group, chi.name, [2 * v for v in chi.values])


@pytest.mark.parametrize(
    "patch, details",
    [
        (_table_at_7(lambda chars: chars[:-1]), "irreducible count at n=7: expected 5, got 4"),
        (
            _table_at_7(lambda chars: chars[:-1] + (_doubled(chars[-1]),)),
            "sum of squared degrees at n=7: expected 14, got 26 from degrees [1, 1, 2, 2, 4]",
        ),
    ],
)
def test_criterion_1_failure_names_n_and_the_counts(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_1(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


def _hilb_at(at, name, spoil):
    """Patch hilb.<name> so that its result at n = at passes through spoil."""

    def patch(monkeypatch):
        real = getattr(verify.hilb, name)

        def spoiled(n, *args):
            out = real(n, *args)
            return spoil(out, *args) if n == at else out

        monkeypatch.setattr(verify.hilb, name, spoiled)

    return patch


def _short_quotient(pts):
    (p, cert), rest = pts[0], pts[1:]
    return [(p, {**cert, "quotient_dim": 5})] + rest


@pytest.mark.parametrize(
    "patch, details",
    [
        (
            _hilb_at(6, "fixed_points", lambda pts: pts[1:]),
            "fixed points at n=6: expected 2, got ['I3(1:-1)']",
        ),
        (
            _hilb_at(6, "fixed_points", _short_quotient),
            "certificate of I3(1:1) at n=6: expected {'image_equals': True, 'quotient_dim': 6}, "
            "got {'image_equals': True, 'quotient_dim': 5}",
        ),
    ],
)
def test_criterion_3_failure_names_n_and_the_points(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_3(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


def test_criterion_4_failure_names_n_and_the_cluster(monkeypatch):
    real = verify.hilb.cluster_dimension
    monkeypatch.setattr(
        verify.hilb, "cluster_dimension", lambda n, p: n - 1 if n == 5 else real(n, p)
    )
    res = verify.criterion_4(n_range=(3, 6))
    assert not res["passed"]
    assert res["details"] == "length of I2(1/3:-1/9) at n=5: expected 5, got 4"


def _shifted_b1(st):
    x = Poly.var("x")
    st["B1", "U3"]["strict"] = x**2 + 2 * x + 2 * Poly.one(2)
    return st


def _moved_b1_point(st):
    st["B1", "U3"]["certificate"]["meetings"][0]["point"] = "I3(1:1)"
    return st


def _transversal_b3(st):
    st["B3", "U4"]["certificate"]["meetings"][0]["mult"] = 1
    return st


def _b1_meets_u1(st):
    st["B1", "U1"]["certificate"]["type"] = "meets-axes"
    return st


def _flat_tangency(inv):
    inv["certificate"]["multiplicity"] = 1
    return inv


def _flat_invariant_chart(monkeypatch):
    _hilb_at(7, "invariant_chart_boundary", _flat_tangency)(monkeypatch)


@pytest.mark.parametrize(
    "patch, details",
    [
        (
            _hilb_at(6, "boundary_strict_transforms", _shifted_b1),
            "strict transform B1 on U3 at n=6: expected x^2 + 2*x + 1, got x^2 + 2*x + 2",
        ),
        (
            _hilb_at(6, "boundary_strict_transforms", _moved_b1_point),
            "B1 points on U3 at n=6: expected ['I3(1:-1)'], got ['I3(1:1)']",
        ),
        (
            _hilb_at(7, "boundary_strict_transforms", _transversal_b3),
            "B3 multiplicities on U4 at n=7: expected all 2, got [1, 2]",
        ),
        (_flat_invariant_chart, "invariant chart tangency at n=7: expected 2, got 1"),
        (
            _hilb_at(6, "boundary_strict_transforms", _b1_meets_u1),
            "B1 on U1 at n=6: expected misses-axes, got meets-axes",
        ),
    ],
)
def test_criterion_5_failure_names_n_the_chart_and_the_values(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_5(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


def test_criterion_5_failure_names_n_and_the_chart(monkeypatch):
    _hilb_at(6, "boundary_strict_transforms", _shifted_b1)(monkeypatch)
    res = verify.criterion_5(n_range=(6, 6))
    assert not res["passed"]
    assert "n=6" in res["details"] and "U3" in res["details"]


def _one_curve_less_in_stage_1(fa, stage):
    """Stage (1,) without its first chart, U1'': its tags still list two curves."""
    if stage == (1,):
        fa.atlas.charts = fa.atlas.charts[1:]
    return fa


def test_criterion_8_counts_curves_from_the_charts_not_the_tags(monkeypatch, capsys):
    """A stage atlas that lost a chart is a FAIL line of `dimckay verify` and exit 2,
    although its curve tags are untouched; tags that lost a curve change nothing."""
    _hilb_at(7, "build_flop_atlas", _one_curve_less_in_stage_1)(monkeypatch)
    assert cli.main(["verify", "--n-range", "7..7"]) == 2
    out = capsys.readouterr().out
    assert (
        "FAIL criterion 8: flop atlases - "
        "curve counts per stage at n=7: expected [3, 2, 1], got [3, 1, 1]"
    ) in out
    assert out.count("FAIL") == 1
    monkeypatch.undo()

    def fewer_tags(fa, stage):
        fa.curve_tags = fa.curve_tags[1:]
        return fa

    _hilb_at(7, "build_flop_atlas", fewer_tags)(monkeypatch)
    assert verify.criterion_8(n_range=(7, 7))["passed"]


@pytest.mark.parametrize(
    "patch, details",
    [
        (
            _hilb_at(7, "flop_em", lambda f: {**f, "displayed": False}),
            "displayed gluing U3''-U4' at n=7: expected verified, got not verified",
        ),
        (
            _hilb_at(7, "flop_em", lambda f: {**f, "before_glues": False}),
            "charts U3''-U4' before the flop at n=7: expected verified, got not verified",
        ),
        (
            _hilb_at(7, "flop_em", lambda f: {**f, "after_glues": False}),
            "charts U3'-U4 after the flop at n=7: expected verified, got not verified",
        ),
        (
            _hilb_at(7, "poly_bridges", lambda bs, atlas: [{**b, "verified": False} for b in bs]),
            "bridge U4'-U5 in stage (2,) at n=7: expected verified, got not verified",
        ),
        (
            _hilb_at(7, "build_flop_atlas", _one_curve_less_in_stage_1),
            "curve counts per stage at n=7: expected [3, 2, 1], got [3, 1, 1]",
        ),
    ],
    ids=["displayed", "before-flop", "after-flop", "bridge", "counts"],
)
def test_criterion_8_failure_names_n_the_charts_and_the_values(monkeypatch, patch, details):
    patch(monkeypatch)
    res = verify.criterion_8(n_range=(3, 9))
    assert not res["passed"]
    assert res["details"] == details


@pytest.mark.parametrize(
    "verdict, got",
    [
        (constel.ThetaVerdict(False), "no destabilizer"),
        (constel.ThetaVerdict(True, value=Fraction(1, 2)), "value 1/2"),
    ],
)
def test_criterion_11_failure_names_the_trial_the_witness_and_the_value(
    monkeypatch, verdict, got
):
    real, calls = constel.theta_check, []

    def spoiled(F, theta):
        calls.append(F)
        return verdict if len(calls) == 5 else real(F, theta)

    monkeypatch.setattr(constel, "theta_check", spoiled)
    res = verify.criterion_11(n_range=(3, 10))
    assert not res["passed"]
    witness = "I1(1:9/4)|I4(1:4/9)"
    assert calls[-1].label == witness
    assert res["details"] == (
        f"trial 4: rho1 planted in {witness} at n=5: expected value <= 0, got {got}"
    )
