"""An independent oracle for criterion 1, the character table of D_2n.

The oracle builds each table from its closed form, with sigma of order n and
t a primitive n-th root of unity:

- rho0 is 1 everywhere; rho0' is 1 on rotations and -1 on reflections;
- rho_j(sigma^k) = t^(jk) + t^(-jk) for 1 <= j <= (n-1)/2, and 0 on reflections;
- for even n, rho_(n/2) and rho_(n/2)' are (-1)^k on sigma^k, and +(-1)^p and
  -(-1)^p on the reflection class tau*sigma^(p mod 2).

A value is a dense list of n integers, an element of Z[t]/(t^n - 1).  Two
characters pair as (1/2n) sum over classes of size * chi * conj(psi), with
conj(t^j) = t^(-j), summed densely and reduced by Phi_n, which the oracle gets
by its own exact division of t^n - 1 by the Phi_d of the proper divisors d of
n.  A pairing is rational exactly when the remainder is a constant.

The oracle shares no code with the package (certifying algorithms: McConnell,
Mehlhorn, Naeher and Schweitzer, "Certifying algorithms", Computer Science
Review 5(2), 2011).  Its functions use the standard library only.  The tests
compare its names, classes, degrees and values with the dense lists of
``reps.table_to_json(build_char_table(...))``, and its pairing matrices with
``reps.gram``: the table with itself, and rho1 times each irreducible with the
table (the McKay quiver's pairings).  Tier-1 checks a fixed sample of n;
``python tests/test_character_oracle.py`` checks n = 3..100.
"""

import math
import time
from fractions import Fraction

import pytest

from dihedral_mckay import reps


def poly_divmod(num, den):
    """Quotient and remainder of integer polynomials (low degree first) by a
    monic den, both as lists of ints."""
    rem = list(num)
    deg = len(den) - 1
    lower = [(j, d) for j, d in enumerate(den[:-1]) if d]
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        q = quot[i] = rem[i + deg]
        if q:
            for j, d in lower:
                rem[i + j] -= q * d
    return quot, rem[:deg]


PHI = {}


def phi(n):
    """Phi_n, low degree first: (t^n - 1) over the product of Phi_d, d | n, d < n."""
    if n not in PHI:
        den = [1]
        for d in range(1, n):
            if n % d == 0:
                prod = [0] * (len(den) + len(phi(d)) - 1)
                for i, x in enumerate(den):
                    for j, y in enumerate(phi(d)):
                        prod[i + j] += x * y
                den = prod
        quot, rem = poly_divmod([-1] + [0] * (n - 1) + [1], den)
        if any(rem):
            raise ArithmeticError(f"t^{n} - 1 is not divisible by the lower Phi_d")
        PHI[n] = quot
    return PHI[n]


def oracle_classes(n):
    """(label, size, rotation exponent or None, reflection parity) of each class."""
    out = [("1", 1, 0, None)]
    out += [(f"sigma^{k}", 2, k, None) for k in range(1, (n - 1) // 2 + 1)]
    if n % 2:
        return out + [("tau", n, None, 0)]
    return out + [
        (f"sigma^{n // 2}", 1, n // 2, None),
        ("tau*sigma^even", n // 2, None, 0),
        ("tau*sigma^odd", n // 2, None, 1),
    ]


def constant(n, c):
    return [c] + [0] * (n - 1)


def oracle_table(n):
    """(name, dense values per class) of each irreducible, in table order."""
    classes = oracle_classes(n)

    def rho(j, k):
        value = [0] * n
        value[j * k % n] += 1
        value[-j * k % n] += 1
        return value

    rows = [
        ("rho0", [constant(n, 1) for _ in classes]),
        ("rho0'", [constant(n, 1 if k is not None else -1) for _, _, k, _ in classes]),
    ]
    for j in range(1, (n - 1) // 2 + 1):
        rows.append((f"rho{j}", [rho(j, k) if k is not None else [0] * n
                                 for _, _, k, _ in classes]))
    if n % 2 == 0:
        for name, sign in ((f"rho{n // 2}", 1), (f"rho{n // 2}'", -1)):
            rows.append((name, [constant(n, (-1) ** k if k is not None else sign * (-1) ** p)
                                for _, _, k, p in classes]))
    return rows


def support(value):
    return [(i, x) for i, x in enumerate(value) if x]


def times(n, a, b):
    """The product of two dense values in Z[t]/(t^n - 1)."""
    out = [0] * n
    for i, x in support(a):
        for j, y in support(b):
            out[(i + j) % n] += x * y
    return out


def oracle_gram(n, rows, cols):
    """<chi, psi> for chi in rows and psi in cols, as Fractions; a remainder
    mod Phi_n that is not constant is an ArithmeticError."""
    sizes = [size for _, size, _, _ in oracle_classes(n)]
    cols = [[[(-j % n, y) for j, y in support(v)] for v in psi] for psi in cols]
    seen, out = {}, []  # each distinct sum is reduced once
    for chi in rows:
        chi = [support(v) for v in chi]
        row = []
        for psi in cols:
            acc = [0] * n
            for size, a, b in zip(sizes, chi, psi):
                for i, x in a:
                    for j, y in b:
                        acc[(i + j) % n] += size * x * y
            key = tuple(acc)
            if key not in seen:
                _, rem = poly_divmod(acc, phi(n))
                if any(rem[1:]):
                    raise ArithmeticError(f"irrational pairing: remainder {rem}")
                seen[key] = Fraction(rem[0], 2 * n)
            row.append(seen[key])
        out.append(row)
    return out


def quiver_rows(n, table):
    """The values of rho1 * chi for each irreducible chi, class by class."""
    nat = dict(table)["rho1"]
    return [[times(n, a, b) for a, b in zip(nat, values)] for _, values in table]


def check_oracle(n):
    """The oracle's table and pairing matrix at n, once it has checked that the
    classes cover the group, that there are as many irreducibles as classes,
    that the degrees are integers whose squares sum to 2n, and that the table
    is orthonormal."""
    table = oracle_table(n)
    classes = oracle_classes(n)
    assert sum(size for _, size, _, _ in classes) == 2 * n
    assert len(classes) == len(table), n
    assert all(not any(values[0][1:]) for _, values in table), n
    assert sum(values[0][0] ** 2 for _, values in table) == 2 * n
    values = [v for _, v in table]
    gram = oracle_gram(n, values, values)
    assert gram == [[int(i == j) for j in range(len(table))] for i in range(len(table))], n
    return table, gram


def check_package(n):
    """build_char_table and gram agree with the oracle at n."""
    table, gram = check_oracle(n)
    built = reps.build_char_table(reps.GroupSpec("dihedral", n))
    got = reps.table_to_json(built)
    assert got["group"] == {"kind": "dihedral", "n": n}
    want_classes = [{"label": label, "size": size} for label, size, _, _ in oracle_classes(n)]
    assert got["classes"] == want_classes, n
    assert [c["name"] for c in got["characters"]] == [name for name, _ in table], n
    for chi, (name, values) in zip(got["characters"], table):
        assert chi["degree"] == values[0][0], (n, name)
        for c, dense, want in zip(want_classes, chi["values"], values):
            assert dense == [str(x) for x in want], (n, name, c["label"])
    assert reps.gram(built.chars, built.chars) == gram, n
    products = [built.by_name["rho1"] * chi for chi in built]
    want = oracle_gram(n, quiver_rows(n, table), [v for _, v in table])
    assert reps.gram(products, built.chars) == want, n


SAMPLE = (3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 30, 42, 60)


def test_phi_by_exact_division():
    assert phi(1) == [-1, 1]
    assert phi(6) == [1, -1, 1]
    assert phi(12) == [1, 0, -1, 0, 1]
    assert phi(30) == [1, 1, 0, -1, -1, -1, 0, 1, 1]
    for n in (7, 16, 30):
        assert len(phi(n)) - 1 == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_the_oracle_finds_an_irrational_pairing():
    """rho1 + rho2 at n = 5 pairs with rho1 at 1, but rho1 shifted by t does not
    pair to a rational number: the reduction mod Phi_n sees it."""
    table = dict(oracle_table(5))
    rho1, rho2 = table["rho1"], table["rho2"]
    both = [[x + y for x, y in zip(a, b)] for a, b in zip(rho1, rho2)]
    assert oracle_gram(5, [both], [rho1]) == [[1]]
    shifted = [times(5, [0, 1, 0, 0, 0], v) for v in rho1]
    with pytest.raises(ArithmeticError, match="irrational"):
        oracle_gram(5, [shifted], [rho1])


def test_the_oracle_catches_a_spoiled_table(monkeypatch):
    """A package table whose rho1 takes rho2's value on sigma fails the comparison."""
    real = reps.build_char_table

    def spoiled(g):
        t = real(g)
        rho1, rho2 = t.by_name["rho1"], t.by_name["rho2"]
        values = (rho1.values[0], rho2.values[1], *rho1.values[2:])
        chars = [reps.Character(g, "rho1", values) if c is rho1 else c for c in t]
        return reps.CharTable(g, chars, t.index)

    monkeypatch.setattr(reps, "build_char_table", spoiled)
    with pytest.raises(AssertionError):
        check_package(5)


@pytest.mark.parametrize("n", SAMPLE)
def test_the_package_table_matches_the_oracle(n):
    check_package(n)


def test_the_oracle_uses_no_package_code():
    """No oracle function reads the package module: the comparison does."""
    oracle = (poly_divmod, phi, oracle_classes, constant, oracle_table, support, times,
              oracle_gram, quiver_rows, check_oracle)
    stack = [f.__code__ for f in oracle]
    while stack:
        code = stack.pop()
        assert "reps" not in code.co_names, code.co_name
        stack += [c for c in code.co_consts if hasattr(c, "co_names")]


if __name__ == "__main__":
    start = time.perf_counter()
    for n in range(3, 101):
        check_package(n)
    print(f"n = 3..100: every D_2n table, its gram and its McKay pairings match the "
          f"oracle ({time.perf_counter() - start:.1f} s)")
