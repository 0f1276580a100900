"""Pin the witness modules: a refactor of the module builder must not move them.

Each digest is the SHA-256 of a canonical text form of the modules for one
n: label, twist, basis, and the x, y and tau columns, with every column's
entries sorted by row index and every value written as an exact fraction.
"""

from fractions import Fraction

import pytest

from dihedral_mckay import constel
from dihedral_mckay.hilb import ClusterPoint, half_index
from pin import check


def _canonical(F):
    cols = [
        [sorted((i, str(Fraction(c))) for i, c in col.items()) for col in action]
        for action in (F.x_action, F.y_action, F.tau_action)
    ]
    return repr((F.n, F.label, F.twist, list(F.basis), cols))


def _fixed_points(n):
    if n % 2 == 0:
        h = n // 2
        return [ClusterPoint(h, Fraction(1), Fraction(s)) for s in (-1, 1)]
    return [ClusterPoint(half_index(n), Fraction(0), Fraction(1))]


def _orbit_module(n, monkeypatch):
    """The module ``off_exceptional_report`` builds, caught at its regular check."""
    seen = []
    check = constel.regular_check

    def spy(F):
        seen.append(F)
        return check(F)

    monkeypatch.setattr(constel, "regular_check", spy)
    constel.off_exceptional_report(n)
    (F,) = seen
    return F


def _modules(n, monkeypatch):
    """The socle table's witnesses, caught as they are built, then the
    fixed-point modules of both twists and the orbit module."""
    out = []
    build = constel.constellation_from_cluster

    def spy(*args, **kwargs):
        out.append(build(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(constel, "constellation_from_cluster", spy)
    constel.socle_table(n)
    for p in _fixed_points(n):
        out += [build(n, p, twist=t) for t in constel.TWISTS]
    out.append(_orbit_module(n, monkeypatch))
    return out


PINNED = {
    3: "0567561118a42f9b110a9ff899cc5ca359154894a188cd7a2fcb5eeff6395ab5",
    4: "390987f3bee7cfffe0006d1d08034b10598187323a5549b83524571ea53c8dda",
    5: "74dd1b22c9fd285c03ca78e123a9679ab1a00d79cfb2a346fc3c224f8cea798b",
    6: "d341936a9c89bf0fbb7a591f4c092b5e441e261bf1fcf90fde08bfdc196183f4",
    7: "95957bf93717a3d9815c18aaac80a8e3d20ffda9da05e45675cd185aba7c832a",
    8: "6cccbfffefbbb852a2859bfd91ab06aa9498da647e0db1c8560023769f7864e2",
    9: "3996d6fb45f4c3420c89f4bd9af518244b1a1da4cdc2f41b591ce3df18cf7e4a",
    10: "73c8f9cf43c93db45c00d39a66328670bc5a4f95198fd7fb6463f663878c0f65",
    11: "5a1c187886b83746d50966ef5fc9b4c3f5cbf5c5274a785d43503eca7cf182d1",
    12: "7e2f8a1b678a1369392d9d09ea64e12f45459e20667e3755fbd70a2e4775d2aa",
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_witness_modules_are_pinned(n, monkeypatch, tmp_path):
    text = "\n".join(_canonical(F) for F in _modules(n, monkeypatch))
    check(text, PINNED[n], f"PINNED[{n}]", tmp_path)
