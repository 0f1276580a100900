"""Characters of Z_n and D_2n, inner products, and McKay quivers.

D_2n = <tau, sigma> in GL(2) with sigma of order n and tau the swap
reflection.  Irreducibles follow the standard table: rho0, rho0' of
degree 1, two-dimensional rho_j for 1 <= j <= (n-1)/2, and for even n
the extra sign characters rho_{n/2}, rho_{n/2}'.  The table lists one
tau column; for even n the reflections split into two classes
(tau*sigma^even, tau*sigma^odd) and the listed values are expanded onto
both, with (-1)^i distinguishing rho_{n/2} from rho_{n/2}'.

Values are CycloElt over Q[t]/(t^n - 1).  ``build_char_table`` builds a fresh table,
each distinct value once, t^a + t^-a (t^a for Z_n) per exponent a and the constants 1,
-1 and 0, and every row points into those: table values are shared, read-only objects,
as values refuse writes and so do characters and tables.  ``char_table`` is the one
table per group that serves the process; criterion 1 pairs fresh tables and keeps none.
``gram`` pairs whole lists in one pass (a square's unordered pairs once, as the pairing
is Hermitian; real class functions, as D_2n characters are, on palindromic sums folded
in half) and reduces each distinct sum once modulo Phi_n (see exactnum);
``inner_product`` is its integer-checked matrix, one ``gram`` per call, so a McKay quiver
pairs all its products in one pass.  ``decompose`` reads one ``gram`` row, checks an
exact reconstruction and keeps no answer: the process memo of decompositions is
``constel._weight_decomposition``, keyed on integer weight data.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from types import MappingProxyType

from .exactnum import (
    CycloElt,
    NotRational,
    ReadOnly,
    _dense_rational,
    _phi_terms,
    cyc_mul,
    expect_rational,
    rational_value,
)


class NotACharacter(ValueError):
    """Decomposition produced a negative or non-integral multiplicity."""


class ConjClass(ReadOnly):
    __slots__ = ("label", "size", "kind", "power")

    def __init__(self, label, size, kind, power):
        # label "1", "sigma^k", "tau", "tau*sigma^even" or "tau*sigma^odd"; kind "rotation" or
        # "reflection"; power: a rotation's exponent k, a reflection's parity of sigma-power
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "power", power)


def conjugacy_classes(g):
    n = g.n
    if g.kind == "cyclic":
        return tuple(
            ConjClass("1" if k == 0 else f"sigma^{k}", 1, "rotation", k) for k in range(n)
        )
    classes = [ConjClass("1", 1, "rotation", 0)]
    for k in range(1, (n - 1) // 2 + 1):
        classes.append(ConjClass(f"sigma^{k}", 2, "rotation", k))
    if n % 2 == 0:
        classes.append(ConjClass(f"sigma^{n // 2}", 1, "rotation", n // 2))
        classes.append(ConjClass("tau*sigma^even", n // 2, "reflection", 0))
        classes.append(ConjClass("tau*sigma^odd", n // 2, "reflection", 1))
    else:
        classes.append(ConjClass("tau", n, "reflection", 0))
    return tuple(classes)


class GroupSpec(ReadOnly):
    __slots__ = ("kind", "n", "__dict__", "__weakref__")  # __dict__ holds the cached values

    def __init__(self, kind, n):
        if kind not in ("cyclic", "dihedral"):
            raise ValueError(f"unknown kind {kind!r}")
        if n < 2:
            raise ValueError("n must be at least 2")
        object.__setattr__(self, "kind", kind)  # "cyclic" | "dihedral"
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.kind == other.kind and self.n == other.n

    def __hash__(self):
        return hash((self.kind, self.n))

    @property
    def order(self):
        return self.n if self.kind == "cyclic" else 2 * self.n

    # built on first read and freed with the group, so a fresh table's go with it
    classes = cached_property(conjugacy_classes)
    phi = cached_property(lambda g: _phi_terms(g.n))  # gram's Phi_n reducer


class Character(ReadOnly):
    """Class function given by one CycloElt value per conjugacy class; read-only once built."""

    __slots__ = ("group", "name", "values")

    def __init__(self, group, name, values):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(values))

    @property
    def degree(self):
        return expect_rational(self.values[0])

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.group == other.group
            and self.values == other.values
        )

    def __mul__(self, other):
        if self.group != other.group:
            raise ValueError("characters of different groups")
        vals = [cyc_mul(a, b) for a, b in zip(self.values, other.values)]
        return Character(self.group, f"{self.name}*{other.name}", vals)


class CharTable(ReadOnly):
    """Irreducible characters of a group in table order, shared read-only by char_table.
    Each row's values follow ``group.classes``; the table keeps no classes of its own.

    ``index`` maps each name to its McKay index j: eps_j -> j; rho0,
    rho0' -> 0; rho_j -> j; rho_(n/2), rho_(n/2)' -> n/2.  Then Res rho_j =
    eps_j + eps_(-j mod n), and rho_j with j >= 1 belongs to the curve E_j.
    """

    __slots__ = ("group", "chars", "index", "by_name", "__weakref__")

    def __init__(self, group, chars, index):
        chars = tuple(chars)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "index", MappingProxyType(dict(index)))
        object.__setattr__(self, "by_name", MappingProxyType({c.name: c for c in chars}))

    def __iter__(self):
        return iter(self.chars)

    def names(self):
        return [c.name for c in self.chars]


def build_char_table(g):
    """A fresh CharTable of g on every call; ``char_table`` is the process memo over it."""
    n = g.n
    classes = g.classes
    chars, index = [], {}

    def add(name, j, vals):
        chars.append(Character(g, name, vals))
        index[name] = j

    if g.kind == "cyclic":
        root = [CycloElt(n, {a: 1}) for a in range(n)]  # t^a
        for j in range(n):
            add(f"eps{j}", j, [root[j * c.power % n] for c in classes])
        return CharTable(g, chars, index)

    const = {q: CycloElt(n, {0: q}) for q in (1, -1, 0)}
    # t^a + t^-a, the two terms merged when a = -a mod n
    rot = [CycloElt(n, {a: 1, -a % n: 1} if 2 * a % n else {a: 2}) for a in range(n)]
    add("rho0", 0, [const[1]] * len(classes))
    add("rho0'", 0, [const[-1 if c.kind == "reflection" else 1] for c in classes])
    for j in range(1, (n - 1) // 2 + 1):
        vals = [const[0] if c.kind == "reflection" else rot[j * c.power % n] for c in classes]
        add(f"rho{j}", j, vals)
    if n % 2 == 0:
        h = n // 2
        for name, refl_sign in ((f"rho{h}", 1), (f"rho{h}'", -1)):
            kind_sign = {"rotation": 1, "reflection": refl_sign}
            add(name, h, [const[kind_sign[c.kind] * (-1) ** c.power] for c in classes])
    return CharTable(g, chars, index)


@lru_cache(maxsize=None)
def char_table(g):
    return build_char_table(g)


def gram(rows, cols):
    """Exact matrix of <chi, psi> for chi in rows and psi in cols, as Fractions.

    <chi, psi> = (1/|G|) sum over classes of size * chi * conj(psi); each
    distinct sum in Q[t]/(t^n - 1) is reduced modulo Phi_n once per call.
    Sum(psi, chi) = conj Sum(chi, psi), and conj fixes (Phi_n) as Phi_n is
    self-reciprocal: if cols equal rows, entries below the diagonal copy their
    mirrors, and the first irrational pair in row-major order is on or above it.
    If every value is real (v = conj v, as in a D_2n table; tested once per value
    object), the products of terms i, j and of their mirrors -i, -j agree, so Sum is
    palindromic: rows read exponents i <= n/2 at weight 2 (1 at 0 and n/2), products
    land at min(d, n - d), and a new folded key is expanded, off-mirror entries halved
    exactly, to the Sum the reduction and its message see.  Else: no fold, weight 1.
    """
    rows, cols = tuple(rows), tuple(cols)
    groups = {f.group for f in (*rows, *cols)}
    if len(groups) > 1:
        raise ValueError("characters of different groups")
    if not groups:
        return []
    (g,) = groups
    n = g.n
    classes = g.classes
    square = len(rows) > 1 and rows == cols  # a 1 x 1 square has nothing to mirror
    values = {id(v): v.terms for f in (*rows, *cols) for v in f.values}  # once per object
    if all(t.get(-i % n) == a for t in values.values() for i, a in t.items()):
        fold = [*range(n // 2 + 1), *range((n - 1) // 2, 0, -1)]  # d -> min(d, n - d)
        weight = [1, *[2] * ((n - 1) // 2), *[1] * (1 - n % 2)]  # 1 at 0 and at n/2
    else:
        fold, weight = list(range(n)), [1] * n
    rot = [fold[i:] + fold[:i] for i in range(len(weight))]  # t^i * t^k lands at rot[i][k]
    col_terms = [[] for _ in classes]  # per class: (column, -exponent mod n, coefficient)
    for q, psi in enumerate(cols):
        for terms, v in zip(col_terms, psi.values):
            terms.extend((q, -j % n, b) for j, b in v.terms.items())  # conj(t^j) = t^(n - j)
    reduced = {}  # folded sum before the reduction -> <chi, psi>, for this call only
    out = []
    for p, chi in enumerate(rows):
        first = p if square else 0  # the first column this row computes
        accs = [None] * first + [[0] * len(weight) for _ in cols[first:]]
        for c, v, terms in zip(classes, chi.values, col_terms):
            # terms are in column order, so column `first` begins where bisect finds it
            suffix = terms[bisect_left(terms, (first,)):] if first else terms
            for i, a in v.terms.items():
                if i < len(weight):
                    sa, r = c.size * a * weight[i], rot[i]
                    for q, k, b in suffix:
                        accs[q][r[k]] += sa * b
        row = [out[q][p] for q in range(first)]
        for psi, acc in zip(cols[first:], accs[first:]):
            key = tuple(acc)
            if key not in reduced:
                half = [a // w if type(a) is int else a / w for a, w in zip(acc, weight)]
                try:
                    reduced[key] = _dense_rational(g.phi, [half[e] for e in fold]) / g.order
                except NotRational as exc:
                    raise NotRational(f"<{chi.name},{psi.name}> is irrational: {exc}") from None
            row.append(reduced[key])
        out.append(row)
    return out


def inner_product(rows, cols):
    """Integer-checked matrix of <chi, psi> as ints, from one gram(rows, cols) call."""
    rows, cols = tuple(rows), tuple(cols)
    out = gram(rows, cols)
    for chi, row in zip(rows, out):
        for psi, val in zip(cols, row):
            if val.denominator != 1 or val < 0:
                raise NotACharacter(f"<{chi.name},{psi.name}> = {val}")
    return [[int(val) for val in row] for row in out]


def decompose(chi):
    """Multiset of (irreducible name, multiplicity) with exact reconstruction,
    as a fresh dict; nothing is kept, so a failure is raised on every call."""
    table = char_table(chi.group)
    mults = {}
    recon = [CycloElt(chi.group.n, {}) for _ in table.group.classes]
    for irr, m in zip(table, gram([chi], table.chars)[0]):
        if m.denominator != 1 or m < 0:
            raise NotACharacter(f"multiplicity of {irr.name} in {chi.name} is {m}")
        m = int(m)
        if m:
            mults[irr.name] = m
            recon = [r + m * v for r, v in zip(recon, irr.values)]
    for r, v, c in zip(recon, chi.values, table.group.classes):
        if not _same_value(r, v):
            raise NotACharacter(f"reconstruction differs on class {c.label}")
    return mults


def _same_value(a, b):
    d = a - b
    if d.is_zero():
        return True
    try:
        return rational_value(d) == 0
    except NotRational:
        return False


def restrict(chi):
    """Restriction of a D_2n character to the rotation subgroup Z_n."""
    g = chi.group
    if g.kind != "dihedral":
        raise ValueError("restrict expects a dihedral character")
    n = g.n
    cyc = char_table(GroupSpec("cyclic", n)).group  # the shared group and its classes
    pairs = zip(g.classes, chi.values)
    lookup = {k % n: v for c, v in pairs if c.kind == "rotation" for k in (c.power, -c.power)}
    vals = [lookup[k] for k in range(n)]
    return Character(cyc, f"Res({chi.name})", vals)


def _drawn_adjacency(table):
    """Adjacency of the diagram as drawn: affine-D shape, no loops.

    One edge joins each two irreducibles whose McKay indices differ by one,
    which makes the forks at rho0, rho0' and, for even n, rho_(n/2), rho_(n/2)'.
    """
    idx = [table.index[c.name] for c in table]
    return [[int(abs(i - j) == 1) for j in idx] for i in idx]


def mckay_quiver(n):
    """McKay quiver data {"n", "vertices", "adjacency", "divergences"}: vertex
    names, the symmetric adjacency and the divergences.

    ``divergences`` lists entries where the character-theoretic
    adjacency differs from the drawn diagram (for odd n the diagram
    omits the loop at rho_{(n-1)/2} even though
    <rho_nat * rho_m, rho_m> = 1).
    """
    if n < 3:
        raise ValueError("need n >= 3 for a 2-dimensional rho1")
    table = build_char_table(GroupSpec("dihedral", n))
    nat = table.by_name["rho1"]
    names = table.names()
    adj = inner_product([nat * chi for chi in table], table.chars)
    drawn = _drawn_adjacency(table)
    divergences = []
    for i, a in enumerate(names):
        for j, b in enumerate(names[i:], i):
            if adj[i][j] != drawn[i][j]:
                divergences.append(
                    {"from": a, "to": b, "computed": adj[i][j], "drawn": drawn[i][j]}
                )
    return {"n": n, "vertices": names, "adjacency": adj, "divergences": divergences}


def quiver_to_dot(q):
    vertices, adjacency = q["vertices"], q["adjacency"]
    lines = [f'graph "mckay_D{2 * q["n"]}" {{']
    for v in vertices:
        lines.append(f'  "{v}";')
    for i, a in enumerate(vertices):
        for j in range(i, len(vertices)):
            mult = adjacency[i][j]
            if mult:
                lines.append(f'  "{a}" -- "{vertices[j]}" [label="{mult}"];')
    for d in q["divergences"]:
        lines.append(
            f'  // diagram divergence: {d["from"]} -- {d["to"]} computed '
            f'{d["computed"]}, drawn {d["drawn"]}'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def table_to_json(table):
    return {
        "group": {"kind": table.group.kind, "n": table.group.n},
        "classes": [{"label": c.label, "size": c.size} for c in table.group.classes],
        "characters": [
            {
                "name": chi.name,
                "degree": int(chi.degree),
                "values": [[str(v.terms.get(k, 0)) for k in range(v.order)] for v in chi.values],
            }
            for chi in table
        ],
    }
