import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from dihedral_mckay import constel, hilb
from dihedral_mckay.constel import (
    Constellation,
    StabilityParam,
    constellation_from_cluster,
    expected_socle,
    off_exceptional_report,
    regular_check,
    socle,
    socle_subspace,
    socle_table,
    submodule_closure,
    subspace_weights,
    theta_check,
    top,
    witness_point,
)
from dihedral_mckay.exactnum import CycloElt
from dihedral_mckay.hilb import half_index
from dihedral_mckay.polyring import Poly, staircase
from dihedral_mckay.reps import GroupSpec, NotACharacter, char_table, conjugacy_classes
from reference import coefficients_are_normal, cp


def _dim(graded):
    """Dimension of a graded subspace {weight: echelon}."""
    return sum(len(echelon) for echelon in graded.values())


def columns(mat):
    """Sparse columns of a dense row-major matrix, as Constellation takes them."""
    return [{i: row[j] for i, row in enumerate(mat) if row[j] != 0} for j in range(len(mat))]


def test_final_example_n4():
    # the order-8 example: <x^3, y^3, xy, x^2 + y^2> with twist delta1
    F = constellation_from_cluster(4, cp(2, 1, -1), twist="delta1")
    assert F.dim == 8
    # grlex staircase is {1, x, y, y^2}; x^2 = -y^2 in the quotient
    assert {m for r, m in F.basis if r == 0} == {(0, 0), (1, 0), (0, 1), (0, 2)}
    assert socle(F) == {"rho2'": 1}
    assert top(F) == {"rho0": 1}
    G = constellation_from_cluster(4, cp(2, 1, 1), twist="delta1")
    assert socle(G) == {"rho2": 1}
    # opposite twists swap the two sign characters
    assert socle(constellation_from_cluster(4, cp(2, 1, -1), twist="delta0")) == {
        "rho2": 1
    }
    assert regular_check(F) and regular_check(G)


def test_generic_socles():
    # generic point on E_i gives socle rho_i (hand computation: the joint
    # kernel is spanned by x^i in one row and y^i in the other)
    for n in (4, 5, 7, 8):
        m = half_index(n)
        for i in range(1, m + 1):
            F = constellation_from_cluster(n, witness_point(i, Fraction(1, 2)))
            want = expected_socle(n, f"E{i}")
            assert socle(F) == want, (n, i)
            assert top(F) == {"rho0": 1, "rho0'": 1}
            assert regular_check(F)


def test_corner_socles():
    for n in (4, 5, 8, 9):
        m = half_index(n)
        for i in range(1, m):
            F = constellation_from_cluster(n, cp(i, 0, 1))
            assert socle(F) == expected_socle(n, f"E{i}&E{i + 1}")
            assert top(F) == {"rho0": 1, "rho0'": 1}


def test_twist_guard():
    # a twist flag only makes sense at a Z_2-fixed point
    with pytest.raises(ValueError):
        constellation_from_cluster(5, cp(1, 1, 2), twist="delta1")


def test_socle_table_matches_theorem():
    for n in range(3, 13):
        for row in socle_table(n):
            assert row["socle"] == expected_socle(n, row["stratum"]), (
                n,
                row["stratum"],
            )
            assert row["regular"]
            if row["twist"] is None:
                assert row["top"] == {"rho0": 1, "rho0'": 1}
            else:
                assert row["top"] == {"rho0": 1}


@pytest.mark.parametrize("with_theta", [False, True], ids=["plain", "theta"])
def test_socle_table_keeps_no_module(monkeypatch, with_theta):
    """No row holds its witness, and every module the table built is freed
    once it returns; with theta each row holds its verdict instead."""
    n = 6
    built = []
    build = constel.constellation_from_cluster

    def spy(*args, **kwargs):
        F = build(*args, **kwargs)
        built.append(weakref.ref(F))
        return F

    monkeypatch.setattr(constel, "constellation_from_cluster", spy)
    kwargs = {}
    if with_theta:
        kwargs = {"theta": StabilityParam.make(n, {"rho0": -2, "rho0'": 2}), "family": [[{0: 1}]]}
    rows = socle_table(n, **kwargs)
    gc.collect()
    assert all("constellation" not in row for row in rows)
    assert len(built) == len(rows) and all(ref() is None for ref in built)
    assert all(("theta" in row) == with_theta for row in rows)
    if with_theta:
        assert all(isinstance(row["theta"], constel.ThetaVerdict) for row in rows)


def test_regular_check_rejects_fake():
    # 2n-dimensional module with zero x, y actions and trivial weights
    n = 4
    dim = 2 * n
    zeros = [[Fraction(0)] * dim for _ in range(dim)]
    ident = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    F = Constellation(
        n,
        [(0, (0, 0))] * n + [(1, (0, 0))] * n,
        columns(zeros),
        columns(zeros),
        columns(ident),
        label="fake",
    )
    assert not regular_check(F)
    # its top is the whole module: <x,y>F = 0
    t = top(F)
    assert sum(t.values()) == 2 * n and t["rho0"] == 2 * n


def test_submodule_closure_examples():
    n = 4
    F = constellation_from_cluster(n, cp(2, 1, -1), twist="delta1")
    # socle vector: y^2 (= -x^2) in the delta1 row
    j = F.basis.index((1, (0, 2)))
    graded, cls = submodule_closure(F, [{j: 1}])
    assert _dim(graded) == 1 and cls == {"rho2'": 1}
    # cyclic generator: 1 in the delta1 row generates that whole row
    j1 = F.basis.index((1, (0, 0)))
    graded2, cls2 = submodule_closure(F, [{j1: 1}])
    assert _dim(graded2) == 4
    # generic witness: the cluster generator row is tau-swapped into everything
    G = constellation_from_cluster(5, witness_point(1, Fraction(1, 2)))
    graded3, _ = submodule_closure(G, [{G.basis.index((0, (0, 0))): 1}])
    assert _dim(graded3) == G.dim  # tau swaps the rows, so 1 generates all


def test_a_stability_parameter_refuses_a_float():
    with pytest.raises(ValueError, match=r"^not an int or a Fraction: -0\.1$"):
        StabilityParam.make(3, {"rho0": -0.1, "rho0'": 0.1})


def test_a_stability_parameter_refuses_a_name_that_is_no_irreducible():
    """theta is read on the irreducibles of D_2n only: another name is refused,
    not dropped."""
    with pytest.raises(ValueError, match="^not irreducibles of D_10: rho7$"):
        StabilityParam.make(5, {"rho7": 3})
    with pytest.raises(ValueError, match="^not irreducibles of D_6: rho2, rho1'$"):
        StabilityParam.make(3, {"rho0": 1, "rho2": -1, "rho1'": 0})


def test_theta_examples():
    n = 5
    with pytest.raises(ValueError):
        StabilityParam.make(n, {"rho0": 1})  # theta(C[G]) != 0
    F = constellation_from_cluster(n, witness_point(1, Fraction(1, 2)))
    # destabilize the socle rho_1: theta(rho1) < 0
    theta = StabilityParam.make(
        n, {"rho1": -1, "rho2": 1, "rho0": 0, "rho0'": 0}
    )
    verdict = theta_check(F, theta)
    assert verdict.destabilized and verdict.value <= 0
    # the first hit need not be the socle itself, but must be a genuine
    # proper class with the reported non-positive value
    assert verdict.cls and theta.value(verdict.cls) == verdict.value
    # cyclic module with strongly negative rho0 but no better family hit:
    # balancing positives elsewhere leaves every proper closure positive
    theta2 = StabilityParam.make(
        n, {"rho0": -2, "rho0'": 2, "rho1": Fraction(0), "rho2": 0}
    )
    # every single-vector closure contains a tau-pair; compute the verdict
    v2 = theta_check(F, theta2)
    # soundness: if reported, the closure really is proper and non-positive
    if v2.destabilized:
        assert 0 < sum(v2.cls.values())
        assert theta2.value(v2.cls) <= 0


def test_theta_planted_destabilizers():
    rng = random.Random(2024)
    table_cache = {}
    found = 0
    for _ in range(100):
        n = rng.randint(3, 10)
        m = half_index(n)
        kind = rng.choice(["generic", "corner", "fixed"])
        if kind == "generic":
            i = rng.randint(1, m)
            F = constellation_from_cluster(
                n, witness_point(i, Fraction(rng.randint(2, 7), 13))
            )
        elif kind == "corner" and m >= 2:
            i = rng.randint(1, m - 1)
            F = constellation_from_cluster(n, cp(i, 0, 1))
        else:
            if n % 2 == 0:
                F = constellation_from_cluster(
                    n, cp(n // 2, 1, rng.choice([1, -1])), twist=None
                )
            else:
                F = constellation_from_cluster(n, cp(m, 0, 1), twist=None)
        soc = socle(F)
        planted = sorted(soc)[rng.randrange(len(soc))]
        q = Fraction(rng.randint(1, 5))
        table = table_cache.setdefault(n, char_table(GroupSpec("dihedral", n)))
        degs = {c.name: int(c.degree) for c in table}
        theta_vals = {name: Fraction(1) for name in degs}
        theta_vals[planted] = -q
        # balance on rho0
        rest = sum(degs[k] * v for k, v in theta_vals.items() if k != "rho0")
        theta_vals["rho0"] = -rest
        theta = StabilityParam.make(n, theta_vals)
        verdict = theta_check(F, theta)
        assert verdict.destabilized, (n, planted)
        assert verdict.value <= 0
        found += 1
    assert found == 100


def test_off_exceptional_report():
    for n in (4, 5, 7):
        rep = off_exceptional_report(n)
        assert rep["regular"]
        assert rep["top"] == {} and rep["socle"] == {}


# --- validate fails closed ----------------------------------------------


def _small_module():
    """Span of 1, x, y for n = 3: x.1 = x, y.1 = y, tau fixes 1 and swaps x, y."""
    basis = [(0, (0, 0)), (0, (1, 0)), (0, (0, 1))]
    x, y, t = ([[Fraction(0)] * 3 for _ in range(3)] for _ in range(3))
    x[1][0] = y[2][0] = t[0][0] = t[1][2] = t[2][1] = Fraction(1)
    return basis, x, y, t


def _noncommuting(basis, x, y, t):
    x[0][2] = Fraction(1)  # x.y.1 = 1 but y.x.1 = 0


def _tau_not_involution(basis, x, y, t):
    t[0][0] = Fraction(2)


def _tau_x_tau_not_y(basis, x, y, t):
    y[2][0] = Fraction(2)


def _weight_violation(basis, x, y, t):
    basis[1] = (0, (2, 0))  # weight 2, but x must raise weight 0 to 1


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_noncommuting, "do not commute"),
        (_tau_not_involution, "tau\\^2"),
        (_tau_x_tau_not_y, "tau x tau"),
        (_weight_violation, "weight"),
    ],
)
def test_validate_rejects_bad_modules(spoil, message):
    basis, x, y, t = _small_module()
    # the unspoiled module passes
    Constellation(3, basis, *map(columns, (x, y, t)), label="good")
    spoil(basis, x, y, t)
    with pytest.raises(hilb.CertificateFailure, match=message):
        Constellation(3, basis, *map(columns, (x, y, t)), label="bad")


def _short_action(cols):
    cols["x"].pop()  # two columns for a three-dimensional module


def _row_outside(cols):
    cols["tau"][0][3] = Fraction(1)  # row index 3 = dim


def _negative_row(cols):
    cols["y"][0][-1] = Fraction(1)


@pytest.mark.parametrize("spoil", [_short_action, _row_outside, _negative_row])
def test_validate_rejects_misshapen_actions(spoil):
    basis, x, y, t = _small_module()
    cols = {"x": columns(x), "y": columns(y), "tau": columns(t)}
    spoil(cols)
    with pytest.raises(hilb.CertificateFailure, match="^misshapen: action is not 3 x 3$"):
        Constellation(3, basis, cols["x"], cols["y"], cols["tau"], label="misshapen")


def test_validate_fails_closed_under_optimize():
    script = (
        "import sys\n"
        "from fractions import Fraction as Q\n"
        "from dihedral_mckay.constel import Constellation\n"
        "from dihedral_mckay.hilb import CertificateFailure\n"
        "x, y, t = ([[Q(0)] * 3 for _ in range(3)] for _ in range(3))\n"
        "x[1][0] = t[0][0] = t[1][2] = t[2][1] = Q(1)\n"
        "y[2][0] = Q(2)\n"
        "def columns(m):\n"
        "    return [{i: m[i][j] for i in range(3) if m[i][j]} for j in range(3)]\n"
        "x, y, t = map(columns, (x, y, t))\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    Constellation(3, [(0, (0, 0)), (0, (1, 0)), (0, (0, 1))], x, y, t, label='bad')\n"
        "except CertificateFailure as exc:\n"
        "    print('rejected:', exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "optimize 1" in done.stdout
    assert "rejected: bad: tau x tau != y" in done.stdout


# --- sparse one-pass characters against a dense reference ---------------


def _dense_coordinates(vectors, target):
    """Solve sum_k c_k vectors[k] = target by dense Gauss-Jordan elimination."""
    k = len(vectors)
    rows = [[v[i] for v in vectors] + [target[i]] for i in range(len(target))]
    for col in range(k):
        r = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[r] = rows[r], rows[col]
        rows[col] = [a / rows[col][col] for a in rows[col]]
        for rr in range(len(rows)):
            if rr != col and rows[rr][col] != 0:
                f = rows[rr][col]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[col])]
    assert all(row[-1] == 0 for row in rows[k:]), "target outside the span"
    return [rows[j][-1] for j in range(k)]


def _dense_reference(F, graded=None, indices=None):
    """Character values summed one dense CycloElt per basis vector.

    Without ``graded``: the basis vectors of F (or those in ``indices``).
    With it: the graded subspace's vectors, tau applied as a dense matrix
    and its diagonal read from dense coordinates.
    """
    n, dim = F.n, F.dim
    tau = [[F.tau_action[j].get(i, Fraction(0)) for j in range(dim)] for i in range(dim)]
    if graded is None:
        items = [(F.weights[b], tau[b][b]) for b in indices or range(dim)]
    else:
        items = []
        for w, vecs in graded.items():
            dense = [[v.get(i, Fraction(0)) for i in range(dim)] for v in vecs.values()]
            for k, v in enumerate(dense):
                diag = Fraction(0)
                if (2 * w) % n == 0:
                    img = [sum(tau[i][j] * v[j] for j in range(dim)) for i in range(dim)]
                    diag = _dense_coordinates(dense, img)[k]
                items.append((w, diag))
    vals = []
    for c in conjugacy_classes(GroupSpec("dihedral", n)):
        acc = CycloElt(n, {})
        for w, diag in items:
            coeff = 1 if c.kind == "rotation" else diag
            acc = acc + CycloElt(n, {c.power * w % n: 1}) * coeff
        vals.append(acc)
    return tuple(vals)


_ALPHAS = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(
    lambda a: a not in (-1, 0, 1)
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(3, 12), data=st.data())
def test_characters_match_dense_reference(n, data):
    i = data.draw(st.integers(1, half_index(n)), label="curve")
    alpha = data.draw(_ALPHAS, label="alpha")
    generic = constellation_from_cluster(n, witness_point(i, alpha))
    # a Z_2-fixed witness too: its tau has a nonzero diagonal
    fixed_point = cp(n // 2, 1, data.draw(st.sampled_from([1, -1]))) if n % 2 == 0 else (
        cp(half_index(n), 0, 1)
    )
    twist = data.draw(st.sampled_from([None, "delta0", "delta1"]), label="twist")
    fixed = constellation_from_cluster(n, fixed_point, twist=twist)
    for F in (generic, fixed):
        assert F.character().values == _dense_reference(F)
        row = F.row_indices(1)  # one row alone: the twist signs do not cancel
        chi = constel._class_character(n, "row", *F.weight_data(row))
        assert chi.values == _dense_reference(F, indices=row)
        graded = socle_subspace(F)
        chi = constel._class_character(n, "socle", *subspace_weights(F, graded))
        assert chi.values == _dense_reference(F, graded)


_POSITIVE = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


def _draw_witness(n, data):
    """A stratum witness: a generic point, a corner, or a twisted fixed point."""
    m = half_index(n)
    kinds = ["generic", "fixed"] + (["corner"] if m >= 2 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "generic":
        point = witness_point(data.draw(st.integers(1, m), label="curve"), data.draw(_ALPHAS))
        return constellation_from_cluster(n, point)
    if kind == "corner":
        return constellation_from_cluster(n, cp(data.draw(st.integers(1, m - 1)), 0, 1))
    twist = data.draw(st.sampled_from(["delta0", "delta1"]), label="twist")
    point = cp(n // 2, 1, data.draw(st.sampled_from([1, -1]))) if n % 2 == 0 else cp(m, 0, 1)
    return constellation_from_cluster(n, point, twist=twist)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(3, 10), data=st.data())
def test_theta_check_finds_planted_socle_destabilizers(n, data):
    """A socle irreducible with negative theta, positive theta elsewhere:
    theta_check must report a proper, nonzero closure of non-positive value."""
    F = _draw_witness(n, data)
    planted = data.draw(st.sampled_from(sorted(socle(F))), label="planted")
    degs = {c.name: int(c.degree) for c in char_table(GroupSpec("dihedral", n))}
    values = {k: data.draw(_POSITIVE, label=k) for k in sorted(degs) if k != planted}
    values[planted] = -sum(degs[k] * v for k, v in values.items()) / degs[planted]
    theta = StabilityParam.make(n, values)
    verdict = theta_check(F, theta)
    assert verdict.destabilized, (F.label, F.twist, planted)
    assert verdict.value <= 0 and verdict.value == theta.value(verdict.cls)
    graded, cls = submodule_closure(F, verdict.seeds)
    assert 0 < _dim(graded) < F.dim and cls == verdict.cls


def test_two_row_refuses_a_quotient_of_the_wrong_length():
    ideal = hilb.cluster_ideal(5, cp(1, 1, 3))
    with pytest.raises(hilb.CertificateFailure, match="^planted: quotient has length 5 != 6$"):
        constel._two_row(6, (ideal, ideal), "planted")


def test_subspace_weights_refuses_a_subspace_that_is_not_tau_stable():
    """At a generic point tau swaps the two rows, so the span of row 0's
    constant monomial (weight 0) is not tau-stable."""
    F = constellation_from_cluster(5, cp(1, 1, 3))
    graded = {0: {0: {0: 1}}}  # weight 0: the echelon {pivot 0: basis vector 0}
    message = r"^I1\(1:3\)\|I4\(1:1/3\): the weight-0 subspace is not tau-stable$"
    with pytest.raises(hilb.CertificateFailure, match=message):
        subspace_weights(F, graded)


# --- the weight-data memo ------------------------------------------------

HALF_RHO0 = ([1, 0, 0, 0, 0], [0] * 5)  # weight data with rho0 and rho0' at 1/2 each


def test_weight_data_of_no_character_raises_on_every_call_and_is_not_kept():
    memo = constel._weight_decomposition
    before = memo.cache_info().currsize
    for _ in range(2):
        with pytest.raises(NotACharacter, match="^multiplicity of rho0 in .* is 1/2$"):
            memo(5, *HALF_RHO0[0], *HALF_RHO0[1])
    assert memo.cache_info().currsize == before


def test_each_caller_gets_a_fresh_decomposition():
    F = constellation_from_cluster(5, witness_point(1, Fraction(1, 2)))
    first = socle(F)
    first.clear()
    first["rho0"] = 99
    assert socle(F) == {"rho1": 1}


def test_list_and_tuple_weight_data_share_one_entry():
    """The memo key is the flat ints (n, *counts, *diag), whatever sequences
    hold them: after a call with lists, the same data as tuples is a hit."""
    F = constellation_from_cluster(5, witness_point(1, Fraction(1, 2)))
    memo = constel._weight_decomposition
    counts, diag = [2] * 5, [0] * 5
    answer = constel._decompose_weights(F, "all", counts, diag)
    before = memo.cache_info()
    assert constel._decompose_weights(F, "all", tuple(counts), tuple(diag)) == answer
    after = memo.cache_info()
    assert (after.currsize, after.misses, after.hits) == (
        before.currsize, before.misses, before.hits + 1
    )
    assert answer == {"rho0": 1, "rho0'": 1, "rho1": 2, "rho2": 2}


@pytest.mark.parametrize("name", ["socle", "top", "closure"])
def test_a_decomposition_failure_names_the_witness_and_the_subspace(name, monkeypatch):
    """Weight data planted by a spoiled subspace_weights (for top, the whole
    module's less the planted data) is no character, and the error names F's
    label and which subspace it was."""
    F = constellation_from_cluster(5, witness_point(1, Fraction(1, 2)))
    monkeypatch.setattr(constel, "subspace_weights", lambda F, graded: HALF_RHO0)
    run = {"socle": socle, "top": top, "closure": lambda F: submodule_closure(F, [{0: 1}])}
    label = r"I1\(1:3\)\|I4\(1:1/3\)"
    with pytest.raises(NotACharacter, match=f"^{label}: {name}: multiplicity of rho0 in "):
        run[name](F)


def test_theta_check_reports_no_destabilizer_when_every_closure_is_everything():
    """At the generic E1 witness for n = 5, tau swaps the rows, so basis
    vector 0 generates all 10 dimensions: the one-seed family has no proper
    closure to test and the verdict is ThetaVerdict(False)."""
    F = constellation_from_cluster(5, witness_point(1, Fraction(1, 2)))
    graded, _ = submodule_closure(F, [{0: 1}])
    assert _dim(graded) == F.dim == 10
    theta = StabilityParam.make(5, {"rho0": -2, "rho0'": 2})
    assert vars(theta_check(F, theta, [[{0: 1}]])) == vars(constel.ThetaVerdict(False))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(3, 8), data=st.data())
def test_module_coefficients_and_default_seeds_are_normal(n, data):
    """The x, y and tau columns of fixed-point modules (both twists) and of
    generic modules, and every default_family seed, hold ints where integral."""
    i = data.draw(st.integers(1, half_index(n)), label="curve")
    generic = constellation_from_cluster(n, witness_point(i, data.draw(_ALPHAS)))
    fixed_point = cp(n // 2, 1, data.draw(st.sampled_from([1, -1]))) if n % 2 == 0 else (
        cp(half_index(n), 0, 1)
    )
    modules = [generic] + [constellation_from_cluster(n, fixed_point, t) for t in constel.TWISTS]
    for F in modules:
        cols = [col for action in (F.x_action, F.y_action, F.tau_action) for col in action]
        assert coefficients_are_normal(c for col in cols for c in col.values()), F.label
        family = constel.default_family(F)
        assert coefficients_are_normal(c for seeds in family for s in seeds for c in s.values())


# (a:b) with first nonzero coordinate 1, as a ClusterPoint keeps it
_RATIO = st.one_of(
    st.tuples(st.just(1), st.fractions(min_value=-4, max_value=4, max_denominator=5)),
    st.just((0, 1)),
)


def _normal_form_columns(n, p, basis):
    """The x, y and tau columns of the module at p, each the normal form of
    its image monomial by Ideal.normal_form, on the staircase basis of the
    row the image lies in: tau goes to the other row at a generic point, and
    keeps row r at a Z_2-fixed point with sign -1 on row 0 (delta0) and +1
    on row 1 (delta1)."""
    ideals = [hilb.cluster_ideal(n, p), hilb.cluster_ideal(n, hilb.z2_image(n, p))]
    fixed = ideals[0] == ideals[1]
    position = {rm: j for j, rm in enumerate(basis)}

    def column(row, mono, sign=1):
        form = ideals[row].normal_form(Poly.mono(mono)).terms
        return {position[(row, m)]: sign * c for m, c in form.items()}

    x, y, t = [], [], []
    for r, (a, b) in basis:
        x.append(column(r, (a + 1, b)))
        y.append(column(r, (a, b + 1)))
        t.append(column(r, (b, a), (-1, 1)[r]) if fixed else column(1 - r, (b, a)))
    return x, y, t


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 10), data=st.data())
def test_module_columns_are_normal_forms(n, data):
    """At random generic and Z_2-fixed cluster points, with both twists, every
    x, y and tau column of the module equals the normal form of its image."""
    if data.draw(st.booleans(), label="fixed"):
        p = data.draw(st.sampled_from([p for p, _ in hilb.fixed_points(n)]), label="point")
    else:
        i = data.draw(st.integers(1, n - 1), label="i")
        a, b = data.draw(_RATIO, label="(a:b)")
        p = cp(i, a, b)
    ideal = hilb.cluster_ideal(n, p)
    fixed = ideal == hilb.cluster_ideal(n, hilb.z2_image(n, p))
    twist = data.draw(st.sampled_from(constel.TWISTS), label="twist") if fixed else None
    event(twist or "generic")
    F = constellation_from_cluster(n, p, twist)
    assert [m for r, m in F.basis if r == 0] == list(staircase(ideal))
    assert _normal_form_columns(n, p, F.basis) == (F.x_action, F.y_action, F.tau_action)
