"""Pin every output that pairs the irreducibles with the exceptional curves.

rho_j and rho_j' belong to the curve E_j, and rho0, rho0' to none.  The
socle case list, the Fourier-Mukai table, both tautological ledgers, the
drawn McKay quiver and the push-forward identities all state that one
dictionary, so a change to how it is worked out must not move them.  Each
digest is the SHA-256 of the JSON text of those outputs for one n, with
the strata in socle-table order.
"""

import json

import pytest

from dihedral_mckay import charts, constel, intersect, reps, taut
from dihedral_mckay.exactnum import CycloElt, ReadOnly
from dihedral_mckay.hilb import half_index
from dihedral_mckay.polyring import Poly
from pin import check
from reference import check_read_only, cp


def _strata(n):
    m = half_index(n)
    out = [f"E{i}" for i in range(1, m + 1)] + [f"E{i}&E{i + 1}" for i in range(1, m)]
    return out + (["B1", "B2"] if n % 2 == 0 else [f"E{m}&B3"])


def _outputs(n):
    q = reps.mckay_quiver(n)
    return {
        "socle": [[s, constel.expected_socle(n, s)] for s in _strata(n)],
        "fm": taut.fm_table(n),
        "ledgers": [taut.ledger_to_json(taut.build_ledger(n, s)) for s in ("stack", "coarse")],
        "quiver": [q["adjacency"], q["divergences"]],
        "pushforward": taut.pushforward_identities(n),
    }


PINNED = {
    3: "bcc5993251d3af33ff0ef94b1568fefcd1a26e6a1071a6643663d022ba2d26cc",
    4: "ecb9b0f6a84de0c145fd24cf09c3b1d50f7c6872e3879486d2a15a46db60eac9",
    5: "1df2a23b5954bdccc387ba018e1b74121af9ba1ddece45ce56ee5aaa50f31b4c",
    6: "451040636fc68199172d427d2854d89683c5cd83732bae49c1a17d694c6dddc9",
    7: "c21da89d5ea8a859ccb9d2ea36c3e526239e3c68e2cee91eb5d728093921f37b",
    8: "f49126e201390e3691594651dd7e3655b769500258b68de142ff0c612899bec5",
    9: "70d912dc82344ee9e47ae9180d37b132a92424eae0e1e7784b815842b16eb623",
    10: "253d3e6823153ea21062a72cc3d58907d13f315e0a739aa196ebd2d4586603e5",
    11: "1a4e39626830a6b50000622c66628458e50734af0917cb42e4e8e98e236d3d96",
    12: "5f805c128be0cd123493b9a0795af79012db1bb644c403b685e23cfdd96c0c9f",
    13: "8033b81fc4859d0ce12c7454ba2b53662550ef07274168c85843974a38600447",
    14: "aa42e0d5000cf15c1e71d121c3a1678dd0d89c54580ba6cfe667ca990391965c",
    15: "ade823fbc8b8a1042ebcc68e68198461e22bca4d942d0b7972e9306b1b3799f1",
    16: "1ddc960fd33ecd7d47d583fa24a9402e267178ee946c33f994ef00f2c16f2bb9",
    17: "786b419de0fa2369462fc62b5639d5110a3b72d5f72071627a40861908c76585",
    18: "9d5a498304e7628ea996b04120ec5e6cd5bc84d29d39a75a061190cb6e1739a5",
    19: "0f38f3c6c20c431a201656f36224eeb93e68cb9754b19272567bba0de3f59b32",
    20: "b0ead997ca4fc93aece2abf64549bc4914cf1bc7d077c4049efcbf316c13071b",
    21: "1cef9f07620d036bcc03fdd2297f286ceaeb21c1f48fe1f476c5c56fcf6acd8c",
    22: "c13ead84800aa44d31cd3c9e8010b10c005e76c32bef7f5affb3202c68eb97cb",
    23: "b7089272731028d41f5aadecea95d2260d6fbfd6ca197e74c5bc49c0ea300a9c",
    24: "0beae3a3cb46b64d98eab32ac7753f26860e10f5b791ecef6d8163e68307040e",
}


def _check_outputs(n, tmp_path):
    check(json.dumps(_outputs(n)), PINNED[n], f"PINNED[{n}]", tmp_path)


@pytest.mark.parametrize("n", sorted(PINNED))
def test_index_outputs_are_pinned(n, tmp_path):
    _check_outputs(n, tmp_path)


def test_a_shared_character_table_cannot_be_written(tmp_path):
    """char_table is one table per group for the process, so a write into its
    index or by_name must fail and leave every output above as pinned."""
    n = 6
    for kind in ("dihedral", "cyclic"):
        table = reps.char_table(reps.GroupSpec(kind, n))
        first = table.chars[0].name
        with pytest.raises(TypeError):
            table.index[first] = 1
        with pytest.raises(TypeError):
            table.by_name[first] = table.chars[1]
        assert table.index[first] == 0 and table.by_name[first] is table.chars[0]
    _check_outputs(n, tmp_path)


def test_shared_characters_and_tables_refuse_attribute_writes(tmp_path):
    """Renaming a shared character would leave by_name and index keyed by the
    old name, so every attribute of a character or table refuses a write or a
    delete, and the outputs above stay as pinned."""
    n = 6
    table = reps.char_table(reps.GroupSpec("dihedral", n))
    chi = table.chars[1]
    writes = [(chi, "name", "spoiled"), (chi, "group", table.group), (chi, "values", ())]
    writes += [(table, attr, ()) for attr in ("chars", "by_name", "index")]
    for obj, attr, value in writes:
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert chi.name == "rho0'" and table.by_name["rho0'"] is chi
    _check_outputs(n, tmp_path)


def test_a_new_attribute_on_a_character_or_table_is_refused():
    """A name that is not a field is refused as a read-only write too, and so
    is every field, on a character, a table and every other read-only value:
    a value of each subclass of exactnum.ReadOnly, and CycloElt."""
    table = reps.char_table(reps.GroupSpec("dihedral", 6))
    for obj in (table.chars[1], table):
        with pytest.raises(AttributeError, match="read-only"):
            obj.spoiled = 1
        with pytest.raises(AttributeError, match="read-only"):
            del obj.spoiled
        assert not hasattr(obj, "spoiled")
    x = Poly.mono((1, 0))
    values = [
        CycloElt(6, {0: 1, 2: 3}),
        table.group.classes[1],
        table.group,
        table.chars[1],
        table,
        charts.Atom("x", x),
        charts.LocalCurve(x + Poly.mono((0, 1)), "C"),
        constel.StabilityParam.make(6, {"rho0": -2, "rho0'": 2}),
        cp(2, 3, 6),
        taut.stack_twist_class(6),
        taut.pairing_table(6),
    ]
    for value in values:
        check_read_only(value)
    configs = {intersect.Point, intersect.CurveConfig}  # test_intersect checks these
    assert {type(v) for v in values} | configs == {CycloElt, *ReadOnly.__subclasses__()}
