"""Pin the result of every process-level memo at two small arguments, and
check that nothing reachable from a result accepts a write.

Each digest is the SHA-256 of a canonical text form of one memo result:
numbers as exact fractions, strings quoted, mappings as their items sorted
by the text of the key, sequences as lists, and any other object as its type
name with its slots in declaration order, dunder slots left out.  The text
reads values only, never a container's type, so it pins what a memo hands out
and not how it is stored.
"""

from collections.abc import Mapping
from fractions import Fraction

import pytest

from dihedral_mckay import charts, constel, exactnum, hilb, linalg, reps, taut
from dihedral_mckay.reps import GroupSpec
from pin import check
from test_source import LRU_CACHED


def canonical(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return repr(obj)
    if isinstance(obj, (int, Fraction)):
        return str(Fraction(obj))
    if isinstance(obj, Mapping):
        items = sorted((canonical(k), canonical(v)) for k, v in obj.items())
        return "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if isinstance(obj, (tuple, list)):
        return "[" + ", ".join(canonical(x) for x in obj) + "]"
    fields = ", ".join(f"{name}={canonical(value)}" for name, value in attributes(obj))
    return f"{type(obj).__name__}({fields})"


def attributes(obj):
    """(name, value) of obj's slots, the dunder ones (__dict__, __weakref__) left out."""
    names = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    return [(name, getattr(obj, name)) for name in names if not name.startswith("__")]


ID2 = ((1, 0), (0, 1))
HILB5_LATTICE = ((1, 1), (0, 5))  # hilb_atlas(5).lattice
HILB5_ROWS = ((2, -3), (-1, 4))  # the rows of its second chart
INDEX2_ROWS = ((2, 2), (0, 5))  # twice the first lattice row: |det| = 2
# (n, counts, diag): a generic n = 5 module, and the socle of the B1 witness for n = 6
REGULAR5 = (5, 2, 2, 2, 2, 2, 0, 0, 0, 0, 0)
B1_SOCLE6 = (6, 0, 0, 0, 1, 0, 0, 0, 0, 0, -1, 0, 0)

# memo name -> (the memo, two argument tuples)
MEMOS = {
    "exactnum._phi_reducer": (exactnum._phi_reducer, [(6,), (12,)]),
    "reps.char_table": (
        reps.char_table,
        [(GroupSpec("dihedral", 5),), (GroupSpec("dihedral", 6),), (GroupSpec("cyclic", 6),)],
    ),
    "constel._weight_decomposition": (constel._weight_decomposition, [REGULAR5, B1_SOCLE6]),
    "hilb.boundary_intersection_numbers": (hilb.boundary_intersection_numbers, [(5,), (6,)]),
    "taut.pairing_table": (taut.pairing_table, [(5,), (6,)]),
    "linalg.solver": (linalg.solver, [(HILB5_ROWS,), (INDEX2_ROWS,)]),
    "charts._unimodular_failure": (
        charts._unimodular_failure,
        [(HILB5_ROWS, HILB5_LATTICE), (INDEX2_ROWS, HILB5_LATTICE)],
    ),
}

# What a group object builds on first read and shares from then on, named by
# the builder whose result it holds -> (the reader, one group per case).  The
# phi cases are the groups of the _phi_reducer cases, under the same digests.
SHARED = {
    "reps.conjugacy_classes": (
        lambda g: g.classes,
        [(GroupSpec("dihedral", 5),), (GroupSpec("dihedral", 6),), (GroupSpec("cyclic", 6),)],
    ),
    "exactnum._phi_terms": (lambda g: g.phi, [(GroupSpec("cyclic", 6),), (GroupSpec("dihedral", 12),)]),
}

CASES = [
    (name, i) for name, (_, args) in {**MEMOS, **SHARED}.items() for i in range(len(args))
]


def call(name, i):
    memo, args = {**MEMOS, **SHARED}[name]
    return memo(*args[i])


PINNED = {
    ("exactnum._phi_reducer", 0): "cbf69ebb0e7d7048abad0ab25747bf696acb7eb332ad589d1e097998472c5262",
    ("exactnum._phi_reducer", 1): "4d0421034987a6f87c50bf3e148a395f0447d0f062abab566eeee4ec3fc9b00e",
    ("reps.conjugacy_classes", 0): "5707572d7a529816738e4346b489f9307abe2fa0e6604a7fe2a38b735157ae33",
    ("reps.conjugacy_classes", 1): "3c0186d7a3f48892e10e16e712588b07479e9b93f99fd9166bd15191476febd1",
    ("reps.conjugacy_classes", 2): "6eae35e8ca236fddb37d0a1708d02c64088dc8635da116d5a6d0c42f962787c0",
    ("exactnum._phi_terms", 0): "cbf69ebb0e7d7048abad0ab25747bf696acb7eb332ad589d1e097998472c5262",
    ("exactnum._phi_terms", 1): "4d0421034987a6f87c50bf3e148a395f0447d0f062abab566eeee4ec3fc9b00e",
    ("reps.char_table", 0): "e876b2c97815308ec4c5bd25c69d612e0b808185a7dd6c519aa915c864f2b88b",
    ("reps.char_table", 1): "1b60e8a88b2721a64b7c3ace08dc0b992633d68b4f8c051fd27a86357b0590ba",
    ("reps.char_table", 2): "c86c3c5835693101b852c7522a84656c7c39217fe2d4f5c1bd3546f17a754143",
    ("constel._weight_decomposition", 0): "fc50ce3b302f680905a9709b73613facaf19c43511711a72699d98783f50f9f4",
    ("constel._weight_decomposition", 1): "721c732dfa0106bf414e370200a8b51ea65e0354bbf407f1bd1c1db4b18d3bbe",
    ("hilb.boundary_intersection_numbers", 0): "6ca19170acc22d0e88f577a12a9c816c489681a2540fbf8efc71c1cb4df80357",
    ("hilb.boundary_intersection_numbers", 1): "ca2bf88c6cd6235b018cdf2158e629268f91ee0bf3f4d2d0debd589a8ac17924",
    ("taut.pairing_table", 0): "e49683eb27ba606404553ea63b942d8b5271752145d22bab0341f41fefa04840",
    ("taut.pairing_table", 1): "1f375e25b3b789733495d00a6e732924b82ae8eaf3761fbbec85bc87b1e0def8",
    ("linalg.solver", 0): "eede5a82f466ee7e3348088d9d819923106639ed43deeaf0b7297017744c880e",
    ("linalg.solver", 1): "30af5aabd495eae3de3500d92efe62f22f07f38a6c8c3e2bffd913dbaffbfdc9",
    ("charts._unimodular_failure", 0): "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    ("charts._unimodular_failure", 1): "6d143d1f8e87cfc9ad4ded68c6d8c6cb75641917712dc117057c9c1661c79bc4",
}


def test_every_memo_of_the_package_is_pinned():
    assert set(MEMOS) == LRU_CACHED


def test_the_failing_row_set_fails():
    assert call("charts._unimodular_failure", 0) is None
    assert call("charts._unimodular_failure", 1) == "|det| = 2 != 1"


@pytest.mark.parametrize("name, i", CASES, ids=[f"{name}-{i}" for name, i in CASES])
def test_memo_result_is_pinned(name, i, tmp_path):
    first = call(name, i)
    check(canonical(first), PINNED[name, i], f"PINNED[{(name, i)!r}]", tmp_path)
    assert call(name, i) is first


ATOMS = (int, str, Fraction, type(None))  # bool is an int


def reachable(result):
    """(path, object) for each non-atom object reachable from result through
    slots, tuple and list items and mapping values, once each."""
    seen, stack, out = set(), [("result", result)], []
    while stack:
        path, obj = stack.pop()
        if isinstance(obj, ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append((path, obj))
        if isinstance(obj, Mapping):
            stack += [(f"{path}[{k!r}]", v) for k, v in obj.items()]
        elif isinstance(obj, (tuple, list)):
            stack += [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
        else:
            stack += [(f"{path}.{name}", v) for name, v in attributes(obj)]
    return out


MISSING = object()


def _accepts(write, undo):
    """Whether write() goes through; one that does is undone at once."""
    try:
        write()
    except (AttributeError, TypeError, KeyError, IndexError):
        return False
    undo()
    return True


def accepted_writes(path, obj):
    """The writes obj accepts, each undone so that a failing run spoils no
    memo: reset an existing attribute, add an attribute ``spoiled``, set an
    item and delete an item (the first key of a mapping, else index 0)."""
    key = next(iter(obj), 0) if isinstance(obj, Mapping) else 0
    try:
        old = obj[key]
    except (KeyError, IndexError, TypeError):
        old = MISSING

    def put_back():
        if isinstance(obj, list):
            obj.insert(key, old)
        elif old is not MISSING:
            obj[key] = old

    def unset():
        if old is MISSING:
            del obj[key]
        else:
            obj[key] = old

    writes = [
        (f"{path}.{name} = ...", lambda n=name, v=value: setattr(obj, n, v), lambda: None)
        for name, value in attributes(obj)
    ]
    writes += [
        (f"{path}.spoiled = ...", lambda: setattr(obj, "spoiled", 1), lambda: delattr(obj, "spoiled")),
        (f"{path}[{key!r}] = ...", lambda: obj.__setitem__(key, 1), unset),
        (f"del {path}[{key!r}]", lambda: obj.__delitem__(key), put_back),
    ]
    return [text for text, write, undo in writes if _accepts(write, undo)]


def writes_accepted_under(result):
    """The writes that anything reachable from result accepts.  If there are
    any, every memo and every shared group value is cleared, to leave no
    spoiled result to the tests that follow (a fresh table shares its values
    with the memos)."""
    accepted = []
    try:
        for path, obj in reachable(result):
            accepted += accepted_writes(path, obj)
    finally:
        if accepted:
            for memo, _ in MEMOS.values():
                memo.cache_clear()
            for _, args in SHARED.values():
                for (g,) in args:
                    vars(g).pop("classes", None)
                    vars(g).pop("phi", None)
    return accepted


@pytest.mark.parametrize("name, i", CASES, ids=[f"{name}-{i}" for name, i in CASES])
def test_nothing_a_memo_hands_out_accepts_a_write(name, i, tmp_path):
    first = call(name, i)
    accepted = writes_accepted_under(first)
    assert not accepted, f"writes accepted: {accepted}"
    assert call(name, i) is first
    check(canonical(first), PINNED[name, i], f"PINNED[{(name, i)!r}]", tmp_path)


TABLE_ARGS = MEMOS["reps.char_table"][1]


@pytest.mark.parametrize(
    "i", range(len(TABLE_ARGS)), ids=[f"{g.kind}-{g.n}" for (g,) in TABLE_ARGS]
)
def test_a_fresh_table_is_the_pinned_table(i, tmp_path):
    """build_char_table hands out a new table, equal in text to the memo's pinned
    one, refusing every write, with D_2n rows sharing their values as the memo's do."""
    (g,) = TABLE_ARGS[i]
    fresh = reps.build_char_table(g)
    assert fresh is not reps.char_table(g)
    accepted = writes_accepted_under(fresh)
    assert not accepted, f"writes accepted: {accepted}"
    label = f"PINNED[{('reps.char_table', i)!r}]"
    check(canonical(fresh), PINNED["reps.char_table", i], label, tmp_path)
    if g.kind == "dihedral":
        assert len({id(v) for chi in fresh for v in chi.values}) <= g.n + 3
