"""An independent oracle for the decompositions of constellation subspaces.

``constel`` decomposes each socle, top and submodule closure from its weight
data: counts[w], the subspace's dimension in weight w, and diag[w], the trace
of tau on its weight-w space.  Restricted to the rotations Z_n, rho_j
(0 < j < n/2) is eps_j + eps_(-j), rho0 and rho0' are both eps_0, and for even
n rho_(n/2) and rho_(n/2)' are both eps_(n/2); tau acts on rho0 and rho_(n/2)
by 1 and on their primed twins by -1.  So the multiplicities are read straight
from the weight data:

- rho_j is counts[j], which must equal counts[n - j];
- rho0 and rho0' are (counts[0] + diag[0]) / 2 and (counts[0] - diag[0]) / 2;
- for even n, rho_(n/2) and rho_(n/2)' are (counts[n/2] +- diag[n/2]) / 2;
- diag[w] is 0 wherever 2w != 0 mod n, as tau maps weight w to weight -w.

The oracle shares no code with ``reps.gram``, ``reps.decompose`` or the
character tables (certifying algorithms: McConnell, Mehlhorn, Naeher and
Schweitzer, "Certifying algorithms", Computer Science Review 5(2), 2011).
The tests spy on every call of the memo ``constel._weight_decomposition``
that ``socle_table(n)`` makes, with a stability parameter that destabilizes
nothing, so that ``theta_check`` decomposes the closure of every seed of
``default_family`` too, and compare each answer with the oracle's.  Tier-1
checks a fixed sample of n; ``python tests/test_decomposition_oracle.py``
checks n = 3..24.
"""

import time
from fractions import Fraction

import pytest

from dihedral_mckay import constel


def oracle_multiplicities(n, counts, diag):
    """{irreducible name: multiplicity} of the weight data, by restriction to Z_n;
    an ArithmeticError if it is not the weight data of a D_2n-module."""
    if any(counts[j] != counts[-j % n] for j in range(n)):
        raise ArithmeticError(f"counts are not symmetric under w -> -w: {counts}")
    if any(diag[w] for w in range(n) if 2 * w % n):
        raise ArithmeticError(f"a tau trace off the weights fixed by negation: {diag}")
    out = {f"rho{j}": counts[j] for j in range(1, (n + 1) // 2)}
    ends = [0] + ([n // 2] if n % 2 == 0 else [])
    for w in ends:
        for name, sign in ((f"rho{w}", 1), (f"rho{w}'", -1)):
            m = Fraction(counts[w] + sign * diag[w], 2)
            if m.denominator != 1 or m < 0:
                raise ArithmeticError(f"multiplicity of {name} is {m}")
            out[name] = int(m)
    return {name: m for name, m in out.items() if m}


class DestabilizesNothing:
    """A stand-in for a StabilityParam whose value is positive on every subspace,
    so that theta_check closes every seed of its family."""

    def value(self, cls):
        return 1


def spied_calls(n):
    """(n, counts, diag, answer) of every memo call that socle_table(n) makes with
    theta = DestabilizesNothing(), and the table's rows."""
    memo, calls = constel._weight_decomposition, []

    def spy(n, *weights):
        answer = memo(n, *weights)
        calls.append((n, weights[:n], weights[n:], answer))
        return answer

    constel._weight_decomposition = spy
    try:
        rows = constel.socle_table(n, theta=DestabilizesNothing())
    finally:
        constel._weight_decomposition = memo
    return calls, rows


def check_package(n):
    """Every memo answer of socle_table(n) and its theta checks matches the
    oracle; return the number of socle and top decompositions and of closures."""
    calls, rows = spied_calls(n)
    for m, counts, diag, answer in calls:
        assert m == n
        assert dict(answer) == oracle_multiplicities(n, counts, diag), (n, counts, diag)
    assert all(not row["theta"].destabilized for row in rows), n
    return 2 * len(rows), len(calls) - 2 * len(rows)


SAMPLE = (3, 4, 5, 6, 7, 8, 9, 10, 12, 13)


def test_the_oracle_reads_the_closed_form():
    assert oracle_multiplicities(5, [2] * 5, [0] * 5) == {
        "rho0": 1, "rho0'": 1, "rho1": 2, "rho2": 2
    }
    assert oracle_multiplicities(6, [0, 0, 0, 1, 0, 0], [0, 0, 0, -1, 0, 0]) == {"rho3'": 1}
    assert oracle_multiplicities(4, [1, 0, 0, 0], [1, 0, 0, 0]) == {"rho0": 1}


@pytest.mark.parametrize(
    "n, counts, diag, message",
    [
        (5, [0, 1, 0, 0, 0], [0] * 5, "not symmetric"),
        (5, [0, 1, 0, 0, 1], [0, 1, 0, 0, 0], "off the weights"),
        (4, [1, 0, 0, 0], [0, 0, 0, 0], "rho0 is 1/2"),
        (4, [0, 0, 1, 0], [0, 0, 3, 0], "rho2' is -1"),
    ],
)
def test_the_oracle_refuses_weight_data_of_no_module(n, counts, diag, message):
    with pytest.raises(ArithmeticError, match=message):
        oracle_multiplicities(n, counts, diag)


def test_the_oracle_catches_a_sign_slip(monkeypatch):
    """Characters built with every tau trace negated are still characters, but
    rho0 and rho0' trade places in each answer: the comparison fails.  The
    weight memo is cleared before and after, so that no spoiled entry is kept."""
    real = constel._class_character

    def slipped(n, name, counts, diag):
        return real(n, name, counts, [-d for d in diag])

    monkeypatch.setattr(constel, "_class_character", slipped)
    constel._weight_decomposition.cache_clear()
    try:
        with pytest.raises(AssertionError):
            check_package(4)
    finally:
        constel._weight_decomposition.cache_clear()


@pytest.mark.parametrize("n", SAMPLE)
def test_every_module_decomposition_matches_the_oracle(n):
    tables, closures = check_package(n)
    assert tables > 0 and closures > 0


def test_the_oracle_uses_no_package_code():
    """The oracle reads no package module: only the comparison does."""
    stack = [oracle_multiplicities.__code__]
    while stack:
        code = stack.pop()
        assert not {"constel", "reps"} & set(code.co_names), code.co_name
        stack += [c for c in code.co_consts if hasattr(c, "co_names")]


if __name__ == "__main__":
    start = time.perf_counter()
    tables = closures = 0
    for n in range(3, 25):
        t, c = check_package(n)
        tables, closures = tables + t, closures + c
    print(f"n = 3..24: {tables} socle and top decompositions and {closures} closure "
          f"decompositions match the oracle ({time.perf_counter() - start:.1f} s)")
