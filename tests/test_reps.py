import cmath
from fractions import Fraction

import pytest

from dihedral_mckay import constel, reps
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
    mckay_quiver,
    restrict,
)
from reference import conjugate


def regular_character(g):
    """|G| at the identity class, 0 elsewhere."""
    vals = [
        CycloElt(g.n, {0: g.order if c.label == "1" else 0})
        for c in conjugacy_classes(g)
    ]
    return Character(g, "reg", vals)


# --- numeric oracle: the dihedral group as explicit elements -------------


def dihedral_elements(n):
    return [(r, a) for r in (0, 1) for a in range(n)]


def dmul(n, g, h):
    r, a = g
    s, b = h
    return ((r + s) % 2, ((a if s == 0 else -a) + b) % n)


def dinv(n, g):
    r, a = g
    return (r, (-a if r == 0 else a) % n)


def class_of(n, g):
    """Conjugacy class label in the conventions of reps.conjugacy_classes."""
    r, a = g
    if r == 0:
        k = min(a, n - a)
        return "1" if k == 0 else f"sigma^{k}"
    if n % 2:
        return "tau"
    return "tau*sigma^even" if a % 2 == 0 else "tau*sigma^odd"


def value_num(chi, g):
    """Numeric value of a character at a group element (oracle side)."""
    n = chi.group.n
    labels = [c.label for c in conjugacy_classes(chi.group)]
    v = chi.values[labels.index(class_of(n, g))]
    z = cmath.exp(2j * cmath.pi / n)
    return sum(float(c) * z**k for k, c in v.terms.items())


def inner_num(chi, psi):
    n = chi.group.n
    total = 0
    for g in dihedral_elements(n):
        total += value_num(chi, g) * value_num(psi, g).conjugate()
    return total / (2 * n)


def test_class_data():
    for n in range(2, 12):
        g = GroupSpec("dihedral", n)
        classes = conjugacy_classes(g)
        assert sum(c.size for c in classes) == 2 * n
        refl = [c for c in classes if c.kind == "reflection"]
        if n % 2:
            assert len(refl) == 1 and refl[0].size == n
        else:
            assert len(refl) == 2 and all(c.size == n // 2 for c in refl)
    cyc = conjugacy_classes(GroupSpec("cyclic", 6))
    assert sum(c.size for c in cyc) == 6


def test_equal_groups_are_one_key():
    """Groups compare and hash by kind and n, so a group built afresh finds
    the memo's table, and the other kind or order is another group."""
    g, h = GroupSpec("dihedral", 7), GroupSpec("dihedral", 7)
    assert g is not h and g == h and hash(g) == hash(h)
    assert char_table(h) is char_table(g)
    assert g != GroupSpec("cyclic", 7) and g != GroupSpec("dihedral", 8) and g != ("dihedral", 7)
    for kind, n in (("quaternion", 7), ("dihedral", 1)):
        with pytest.raises(ValueError):
            GroupSpec(kind, n)


def test_char_table_counts():
    assert char_table(GroupSpec("dihedral", 4)).names() == [
        "rho0",
        "rho0'",
        "rho1",
        "rho2",
        "rho2'",
    ]
    assert char_table(GroupSpec("dihedral", 5)).names() == [
        "rho0",
        "rho0'",
        "rho1",
        "rho2",
    ]
    assert char_table(GroupSpec("cyclic", 3)).names() == ["eps0", "eps1", "eps2"]
    for n in range(3, 30):
        table = char_table(GroupSpec("dihedral", n))
        expected = (n + 3) // 2 if n % 2 else n // 2 + 3
        assert len(table.chars) == expected
        assert sum(int(c.degree) ** 2 for c in table) == 2 * n


def test_orthonormality_and_numeric_oracle():
    for n in (3, 4, 5, 6, 9, 12):
        table = char_table(GroupSpec("dihedral", n))
        for i, chi in enumerate(table):
            for j, psi in enumerate(table):
                exact = inner_product([chi], [psi])[0][0]
                assert exact == (1 if i == j else 0)
                assert abs(inner_num(chi, psi) - exact) < 1e-9


def test_column_orthogonality():
    for n in (3, 4, 7, 10):
        g = GroupSpec("dihedral", n)
        table = char_table(g)
        classes = table.group.classes
        for a, ca in enumerate(classes):
            for b, cb in enumerate(classes):
                acc = None
                for chi in table:
                    term = cyc_mul(chi.values[a], conjugate(chi.values[b]))
                    acc = term if acc is None else acc + term
                val = rational_value(acc)
                if a == b:
                    assert val == g.order / ca.size
                else:
                    assert val == 0


def test_inner_product_examples():
    t5 = char_table(GroupSpec("dihedral", 5))
    assert inner_product([t5.by_name["rho1"]], [t5.by_name["rho1"]]) == [[1]]
    assert inner_product([t5.by_name["rho1"]], [t5.by_name["rho2"]]) == [[0]]
    for n in (4, 5, 8):
        g = GroupSpec("dihedral", n)
        reg = regular_character(g)
        for chi in char_table(g):
            if int(chi.degree) == 2:
                assert inner_product([reg], [chi]) == [[2]]


def test_decompose_examples():
    g4 = GroupSpec("dihedral", 4)
    assert decompose(regular_character(g4)) == {
        "rho0": 1,
        "rho0'": 1,
        "rho1": 2,
        "rho2": 1,
        "rho2'": 1,
    }
    t5 = char_table(GroupSpec("dihedral", 5))
    prod = t5.by_name["rho1"] * t5.by_name["rho1"]
    dec = decompose(prod)
    assert dec == {"rho0": 1, "rho0'": 1, "rho2": 1}
    # oracle: numeric inner products of the pointwise product
    for name, want in dec.items():
        assert abs(inner_num(prod, t5.by_name[name]) - want) < 1e-9
    sq = t5.by_name["rho0'"] * t5.by_name["rho0'"]
    assert decompose(sq) == {"rho0": 1}


def test_decompose_rejects_non_characters():
    g = GroupSpec("dihedral", 4)
    table = char_table(g)
    fake = Character(
        g, "bad", [v + v for v in table.by_name["rho0"].values]
    )  # 2*rho0 is fine
    assert decompose(fake) == {"rho0": 2}
    vals = list(table.by_name["rho1"].values)
    vals[0] = vals[0] + table.by_name["rho0"].values[0]  # degree 3, breaks integrality
    with pytest.raises(NotACharacter):
        decompose(Character(g, "bad2", vals))


def test_decompose_returns_a_fresh_dict():
    """Writing into one result must not reach the next result."""
    rho1 = char_table(GroupSpec("dihedral", 5)).by_name["rho1"]
    first = decompose(rho1)
    first["rho1"] = 7
    first["rho0"] = 1
    assert decompose(rho1) == {"rho1": 1}
    assert decompose(rho1) is not decompose(rho1)


def test_a_failed_decomposition_raises_on_every_call_and_is_not_cached():
    """Value-equal non-characters under two names: each call raises, naming its
    own character."""
    g = GroupSpec("dihedral", 4)
    table = char_table(g)
    vals = list(table.by_name["rho1"].values)
    vals[0] = vals[0] + table.by_name["rho0"].values[0]
    for name in ("bad", "bad", "worse"):
        with pytest.raises(NotACharacter, match=rf" in {name} is "):
            decompose(Character(g, name, vals))


def test_decompose_refuses_a_reconstruction_that_differs(monkeypatch):
    """A gram row that overcounts rho1 rebuilds 2 * rho1, which differs from
    rho1 on the identity class by the rational 2."""
    real = reps.gram

    def bumped(rows, cols):
        out = real(rows, cols)
        out[0][[psi.name for psi in cols].index("rho1")] += 1
        return out

    monkeypatch.setattr(reps, "gram", bumped)
    rho1 = char_table(GroupSpec("dihedral", 5)).by_name["rho1"]
    with pytest.raises(NotACharacter, match=r"^reconstruction differs on class 1$"):
        decompose(rho1)


def test_decompose_refuses_an_irrational_difference(monkeypatch):
    """With every multiplicity zero the reconstruction is 0, and it differs
    from t at the identity class by an irrational value: not equal either."""
    monkeypatch.setattr(reps, "gram", lambda rows, cols: [[Fraction(0)] * len(cols)])
    g = GroupSpec("dihedral", 5)
    t = CycloElt(5, {1: 1})
    with pytest.raises(NotACharacter, match=r"^reconstruction differs on class 1$"):
        decompose(Character(g, "odd", [t] + [CycloElt(5, {})] * 3))


def test_restrict_rows():
    for n in (4, 5, 6, 9):
        table = char_table(GroupSpec("dihedral", n))
        cyc = char_table(GroupSpec("cyclic", n))
        for j in range(1, (n - 1) // 2 + 1):
            res = restrict(table.by_name[f"rho{j}"])
            eps, eps_bar = cyc.by_name[f"eps{j}"], cyc.by_name[f"eps{n - j}"]
            assert res.values == tuple(a + b for a, b in zip(eps.values, eps_bar.values))
        res0 = restrict(table.by_name["rho0'"])
        assert res0.values == cyc.by_name["eps0"].values
        if n % 2 == 0:
            # (-1)^i vs t^(i n/2): equal as values, compare via decomposition
            resh = restrict(table.by_name[f"rho{n // 2}"])
            assert decompose(resh) == {f"eps{n // 2}": 1}


def frobenius_oracle(n, j, g):
    """Brute-force Frobenius induction over all of D_2n (numeric)."""
    z = cmath.exp(2j * cmath.pi / n)
    total = 0
    for x in dihedral_elements(n):
        c = dmul(n, dmul(n, dinv(n, x), g), x)
        if c[0] == 0:
            total += z ** (j * c[1])
    return total / n


def induced_character(n, i):
    """Ind eps_i from its weight data, as taut's identities decompose it: the
    module C.v + C.tau(v) with v of weight i, so counts 1 at i and at -i mod n
    (2 when they agree) and every tau trace 0."""
    counts = [0] * n
    counts[i] += 1
    counts[-i % n] += 1
    return constel._class_character(n, f"Ind(eps{i})", counts, [0] * n)


def test_induce_rows_and_frobenius_oracle():
    for n in (4, 5, 6):
        assert decompose(induced_character(n, 0)) == {"rho0": 1, "rho0'": 1}
        if n % 2 == 0:
            indh = induced_character(n, n // 2)
            assert decompose(indh) == {f"rho{n // 2}": 1, f"rho{n // 2}'": 1}
        assert decompose(induced_character(n, 1)) == {"rho1": 1}
        # numeric Frobenius-over-cosets oracle agrees on every class rep
        labels = [c.label for c in conjugacy_classes(GroupSpec("dihedral", n))]
        reps_by_label = {}
        for g in dihedral_elements(n):
            reps_by_label.setdefault(class_of(n, g), g)
        for i in range(n):
            ind = induced_character(n, i)
            for lab in labels:
                got = value_num(ind, reps_by_label[lab])
                want = frobenius_oracle(n, i, reps_by_label[lab])
                assert abs(got - want) < 1e-9, (n, i, lab)


def test_mackey_check():
    for n in (5, 6, 8):
        for i in range(1, n):
            if i == 0 or (n % 2 == 0 and i == n // 2):
                continue
            back = restrict(induced_character(n, i))
            assert decompose(back) == (
                {f"eps{i}": 2}
                if (2 * i) % n == 0
                else {f"eps{i}": 1, f"eps{(n - i) % n}": 1}
            )


def edge_set(q):
    vertices, adj = q["vertices"], q["adjacency"]
    out = {}
    for i, a in enumerate(vertices):
        for j in range(i, len(vertices)):
            if adj[i][j]:
                out[(a, vertices[j])] = adj[i][j]
    return out


def test_mckay_quiver_even_star_and_chain():
    q4 = mckay_quiver(4)
    assert edge_set(q4) == {
        ("rho0", "rho1"): 1,
        ("rho0'", "rho1"): 1,
        ("rho1", "rho2"): 1,
        ("rho1", "rho2'"): 1,
    }
    assert q4["divergences"] == []
    q6 = mckay_quiver(6)
    assert edge_set(q6) == {
        ("rho0", "rho1"): 1,
        ("rho0'", "rho1"): 1,
        ("rho1", "rho2"): 1,
        ("rho2", "rho3"): 1,
        ("rho2", "rho3'"): 1,
    }


def test_mckay_quiver_odd_loop_flagged():
    q5 = mckay_quiver(5)
    assert edge_set(q5) == {
        ("rho0", "rho1"): 1,
        ("rho0'", "rho1"): 1,
        ("rho1", "rho2"): 1,
        ("rho2", "rho2"): 1,
    }
    assert q5["divergences"] == [
        {"from": "rho2", "to": "rho2", "computed": 1, "drawn": 0}
    ]


def test_quiver_symmetry_and_handshake():
    for n in range(3, 16):
        q = mckay_quiver(n)
        table = char_table(GroupSpec("dihedral", n))
        degs = [int(c.degree) for c in table]
        adj = q["adjacency"]
        for i, row in enumerate(adj):
            assert row == [adj[j][i] for j in range(len(adj))]
            assert sum(a * d for a, d in zip(row, degs)) == 2 * degs[i]


def test_irrational_inner_product_names_both_class_functions():
    g = GroupSpec("cyclic", 5)
    # t at the identity class, 0 elsewhere: the inner product with eps0 is t/5
    chi = Character(g, "odd", [CycloElt(5, {1: 1})] + [CycloElt(5, {})] * 4)
    with pytest.raises(NotRational, match=r"<odd,eps0> is irrational"):
        inner_product([chi], [char_table(g).by_name["eps0"]])


def test_gram_reads_iterators_once():
    """Rows and columns are read once, so generators pair like tuples."""
    table = char_table(GroupSpec("dihedral", 8))
    chars = table.chars
    square = gram(chars, chars)
    assert square == [[int(i == j) for j in range(len(chars))] for i in range(len(chars))]
    assert gram(iter(chars), iter(chars)) == square
    assert gram((c for c in table), (c for c in table)) == square
    reg = regular_character(table.group)
    assert gram(iter([reg]), iter(chars)) == gram([reg], chars)


def _defined_table(g):
    """(name, [term dict per class]) for every irreducible, from the definition."""
    n, classes = g.n, conjugacy_classes(g)
    if g.kind == "cyclic":
        return [(f"eps{j}", [{j * c.power % n: 1} for c in classes]) for j in range(n)]

    def rotation(j, k):  # t^(jk) + t^(-jk), the two terms merged when equal
        terms = {}
        for a in (j * k % n, -j * k % n):
            terms[a] = terms.get(a, 0) + 1
        return terms

    rows = [
        ("rho0", [{0: 1} for _ in classes]),
        ("rho0'", [{0: -1 if c.kind == "reflection" else 1} for c in classes]),
    ]
    for j in range(1, (n - 1) // 2 + 1):
        vals = [{} if c.kind == "reflection" else rotation(j, c.power) for c in classes]
        rows.append((f"rho{j}", vals))
    if n % 2 == 0:
        for name, refl_sign in ((f"rho{n // 2}", 1), (f"rho{n // 2}'", -1)):
            vals = []
            for c in classes:  # (-1)^k on sigma^k; on tau*sigma^i, the sign times (-1)^i
                sign = refl_sign if c.kind == "reflection" else 1
                vals.append({0: sign * (-1) ** c.power})
            rows.append((name, vals))
    return rows


@pytest.mark.parametrize(
    "kind, ns", [("dihedral", range(3, 101)), ("cyclic", range(2, 61))]
)
def test_every_table_value_matches_its_definition(kind, ns):
    """Every value of every D_2n table (n = 3..100) and Z_n table (n = 2..60),
    in table order, equals the term dict built from the definition class by
    class: rho_j(sigma^k) = t^(jk) + t^(-jk), eps_j(sigma^k) = t^(jk), signs by
    class kind and parity, and 0 on reflections for the two-dimensional rows."""
    for n in ns:
        g = GroupSpec(kind, n)
        table = char_table(g)
        expected = _defined_table(g)
        assert table.names() == [name for name, _ in expected]
        for chi, (name, vals) in zip(table, expected):
            assert len(chi.values) == len(vals)
            for c, v, terms in zip(table.group.classes, chi.values, vals):
                assert v.order == n, (n, name, c.label)
                assert v.terms == terms, (n, name, c.label)


def test_each_distinct_table_value_is_built_once():
    """Rows share their values: a D_2n table holds at most n + 3 distinct value
    objects (t^a + t^-a per exponent a, and 1, -1, 0), a Z_n table at most n."""
    for kind, ns, bound in (("dihedral", range(3, 101), 3), ("cyclic", range(2, 61), 0)):
        for n in ns:
            table = char_table(GroupSpec(kind, n))
            assert len({id(v) for chi in table for v in chi.values}) <= n + bound, (kind, n)
