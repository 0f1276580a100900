"""D_2n-constellations as explicit modules with group action.

A constellation is a 2n-dimensional C[x,y]-module with a D_2n action
whose total character is the regular character.  Every witness is a
two-row module C[x,y]/I (+) C[x,y]/I' from one builder, at a cluster
point of the order-n Hilbert scheme:

* generic point p: the module is C[x,y]/I_p (+) C[x,y]/I_{g.p} with tau
  swapping the summands;
* Z_2-fixed point: C[x,y]/I_p is itself a D_2n-module in two ways
  differing by the sign twist; the constellation is the sum of both
  rows, and a twist flag selects the stacky half for top/socle.

sigma is never a matrix: basis vectors carry integer weights mod n
(x raises the weight by one, y lowers it, tau negates it) and all
sigma-traces are assembled in the group ring.

``Constellation`` takes x, y and tau as sparse columns only: column j is
a dict {row index: coefficient} of the nonzero entries of the image of basis
vector j (never a dense matrix); integral coefficients are ints, as in Poly.
A graded subspace is a plain dict {weight: linalg echelon} of sparse
vectors.  Its character is linear in its integer weight data: counts[w],
its dimension in weight w, and diag[w], the trace of tau on a tau-stable
weight space (zero unless 2w = 0 mod n).  Rotation classes add counts[w]
at exponent power*w mod n, reflection classes add diag[w], and one
CycloElt is built per class at the end.  ``decompose_weights`` is the one
door into the package's one memo of decompositions, ``_weight_decomposition``,
keyed on the flat ints (n, *counts, *diag): socle, top, closures and taut's
inductions all pass through it, only a vector new to the process builds a
character, and a failed decomposition is a hilb.CertificateFailure that names
its case.

A ``socle_table`` row holds what was read off its witness, never the module:
the table builds, reads and drops one module at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import hilb, linalg
from .exactnum import CycloElt, NotRational, ReadOnly, as_fraction, rational_value
from .polyring import Ideal, Poly, staircase
from .reps import Character, GroupSpec, char_table, decompose


TWISTS = ("delta0", "delta1")
# delta1 carries the pullback action tau.v = v o tau (the convention that
# reproduces the stated stacky socles); delta0 is its sign flip.  Row r of
# a fixed-point module carries TWISTS[r], so tau acts on it by _TWIST_SIGNS[r].
_TWIST_SIGNS = (-1, 1)


def _weight(mono, n):
    return (mono[0] - mono[1]) % n


class Constellation:
    def __init__(self, n, basis, x_action, y_action, tau_action, label, twist=None):
        """x, y and tau as sparse columns: column j holds the nonzero entries
        of the image of basis vector j as {row index: int or Fraction}."""
        self.n = n
        self.basis = tuple(basis)  # (row, monomial)
        self.dim = len(self.basis)
        self.weights = tuple(_weight(m, n) for _, m in self.basis)
        self.twist = twist
        self.label = label
        self.x_action, self.y_action, self.tau_action = x_action, y_action, tau_action
        self.validate()

    # --- structural invariants -------------------------------------

    def validate(self):
        """Certify the shape, relations and weights; raise hilb.CertificateFailure."""
        x, y, t = self.x_action, self.y_action, self.tau_action
        k = self.dim
        for cols in (x, y, t):
            if len(cols) != k or any(not 0 <= i < k for col in cols for i in col):
                raise hilb.CertificateFailure(f"{self.label}: action is not {k} x {k}")
        if _compose(x, y) != _compose(y, x):
            raise hilb.CertificateFailure(f"{self.label}: x and y do not commute")
        if _compose(t, t) != [{j: 1} for j in range(k)]:
            raise hilb.CertificateFailure(f"{self.label}: tau^2 != 1")
        if _compose(_compose(t, x), t) != y:
            raise hilb.CertificateFailure(f"{self.label}: tau x tau != y")
        n, w = self.n, self.weights
        for name, cols, step in (("x", x, 1), ("y", y, -1), ("tau", t, None)):
            for j, col in enumerate(cols):
                want = (-w[j] if step is None else w[j] + step) % n
                for i in col:
                    if w[i] != want:
                        raise hilb.CertificateFailure(
                            f"{self.label}: {name} maps basis {j} (weight {w[j]}) "
                            f"to basis {i} (weight {w[i]}), expected weight {want}"
                        )

    # --- characters --------------------------------------------------

    def weight_data(self, indices):
        """(counts, diag) of the span of the given basis indices: per weight,
        its dimension and the trace of tau on it."""
        counts = [0] * self.n
        diag = [0] * self.n
        for b in indices:
            w = self.weights[b]
            counts[w] += 1
            diag[w] += self.tau_action[b].get(b, 0)
        return counts, diag

    def character(self):
        """Character of the whole module."""
        return _class_character(self.n, self.label, *self.weight_data(range(self.dim)))

    def row_indices(self, row):
        return [i for i, (r, _) in enumerate(self.basis) if r == row]


def _class_character(n, name, counts, diag):
    """Character from per-weight dimensions and per-weight tau traces.

    The class of sigma^k takes sum_w counts[w] t^(kw); the class of
    sigma^k tau takes sum_w diag[w] t^(kw).
    """
    g = char_table(GroupSpec("dihedral", n)).group  # the shared group and its classes
    vals = []
    for c in g.classes:
        acc = [0] * n
        for w, v in enumerate(counts if c.kind == "rotation" else diag):
            if v:
                acc[c.power * w % n] += v
        vals.append(CycloElt(n, dict(enumerate(acc))))
    return Character(g, name, vals)


def _apply(cols, vec):
    """Image of a sparse vector under a sparse-column action."""
    out = {}
    for j, c in vec.items():
        for i, a in cols[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: v for i, v in out.items() if v}


def _compose(a, b):
    """Sparse columns of the product a * b."""
    return [_apply(a, col) for col in b]


def _expand(ideal, mono, index, forms):
    """Sparse coefficients of the normal form of a monomial in a staircase basis.

    A staircase monomial is its own normal form, as no leading monomial divides it:
    in ``index`` it is its basis vector.  ``forms`` memoises the others for one build
    (x.x^a y^b = y.x^(a+1) y^(b-1); the rows at a Z_2-fixed point share one ideal)."""
    if mono in index:
        return {index[mono]: 1}
    key = (id(ideal), mono)
    if key not in forms:
        forms[key] = ideal.normal_form(Poly.mono(mono)).terms
    return {index[m]: c for m, c in forms[key].items()}


def constellation_from_cluster(n, p, twist=None):
    """Constellation attached to a cluster point of the Hilbert scheme.

    Fixed p: the doubled module carrying both twist rows (row 0 is the
    delta0 structure, row 1 the delta1 structure), with the twist flag
    marking the stacky half.  Generic p: C[x,y]/I (+) C[x,y]/I^g with
    tau swapping the rows; twist must be None.
    """
    ideal = hilb.cluster_ideal(n, p)
    q = hilb.z2_image(n, p)
    ideal_g = ideal if q == p else hilb.cluster_ideal(n, q)
    if ideal_g != ideal:
        if twist is not None:
            raise ValueError("twist is only meaningful at a Z_2-fixed point")
        return _two_row(n, (ideal, ideal_g), f"{p.label}|{q.label}")
    if twist is not None and twist not in TWISTS:
        raise ValueError(f"unknown twist {twist}")
    return _two_row(n, (ideal, ideal), p.label, signs=_TWIST_SIGNS, twist=twist)


def _two_row(n, ideals, label, signs=None, twist=None):
    """C[x,y]/I_0 (+) C[x,y]/I_1 on the staircase bases of its two rows.

    x and y act within each row.  Without ``signs`` tau swaps the rows (a
    generic point): x^a y^b in one row goes to x^b y^a in the other.  With
    ``signs`` (s_0, s_1) tau keeps each row and acts on row r as s_r times
    that exchange (a Z_2-fixed point, both rows the same ideal).
    """
    rows = []
    for r, I in enumerate(ideals):
        mons = staircase(I)
        if len(mons) != n:
            raise hilb.CertificateFailure(f"{label}: quotient has length {len(mons)} != {n}")
        rows.append((I, mons, {m: i + r * n for i, m in enumerate(mons)}))
    basis = [(r, m) for r, (_, mons, _) in enumerate(rows) for m in mons]
    x, y, t, forms = [], [], [], {}
    for r, (I, mons, index) in enumerate(rows):
        J, _, index_t = rows[1 - r if signs is None else r]
        for a, b in mons:
            x.append(_expand(I, (a + 1, b), index, forms))
            y.append(_expand(I, (a, b + 1), index, forms))
            img = _expand(J, (b, a), index_t, forms)
            t.append(img if signs is None else {i: signs[r] * c for i, c in img.items()})
    return Constellation(n, basis, x, y, t, label, twist=twist)


def regular_check(F):
    """Traces equal (2n, 0, ..., 0) across the conjugacy classes."""
    try:
        vals = [rational_value(v) for v in F.character().values]
    except NotRational:
        return False
    return vals[0] == 2 * F.n and not any(vals[1:])


# --- graded subspaces ------------------------------------------------


def _split_by_weight(F, vec):
    out = {}
    for i, c in vec.items():
        out.setdefault(F.weights[i], {})[i] = c
    return out


def subspace_weights(F, graded):
    """(counts, diag) of a graded, tau-stable subspace, as Constellation.weight_data."""
    n = F.n
    counts = [0] * n
    diag = [0] * n
    for w, vecs in graded.items():
        counts[w] = len(vecs)
        if (2 * w) % n != 0:
            continue  # tau maps W_w to W_(-w); no diagonal contribution
        for piv, v in vecs.items():
            # diagonal coefficient of this vector in its own basis
            rest, coords = linalg.reduce(vecs, _apply(F.tau_action, v))
            if rest:
                raise hilb.CertificateFailure(
                    f"{F.label}: the weight-{w} subspace is not tau-stable"
                )
            diag[w] += coords.get(piv, 0)
    return counts, diag


def decompose_weights(where, n, counts, diag):
    """Decomposition of the D_2n-character with weight data (counts, diag), as
    a fresh dict; a failure is a hilb.CertificateFailure prefixed by ``where``."""
    try:
        return dict(_weight_decomposition(n, *counts, *diag))
    except ValueError as err:
        raise hilb.CertificateFailure(f"{where}: {err}") from err


@lru_cache(maxsize=None)
def _weight_decomposition(n, *weights):
    """decompose's (name, multiplicity) pairs for the character with weight data
    counts = weights[:n], diag = weights[n:]; keyed on those ints alone, so a
    subspace seen before builds no character.  A failure is never cached."""
    chi = _class_character(n, "the weight data", weights[:n], weights[n:])
    return tuple(decompose(chi).items())


def submodule_closure(F, seeds):
    """Smallest x, y, tau-stable, weight-graded subspace containing the seeds.

    Seeds are sparse {basis index: coefficient} dicts holding only
    nonzero coefficients, like the columns of the actions.
    """
    graded = {}
    work = []
    for s in seeds:
        for w, comp in _split_by_weight(F, s).items():
            if linalg.insert(graded.setdefault(w, {}), comp) is not None:
                work.append(comp)
    while work:
        v = work.pop()
        for cols in (F.x_action, F.y_action, F.tau_action):
            for w, comp in _split_by_weight(F, _apply(cols, v)).items():
                if linalg.insert(graded.setdefault(w, {}), comp) is not None:
                    work.append(comp)
    cls = decompose_weights(f"{F.label}: closure", F.n, *subspace_weights(F, graded))
    return graded, cls


def top(F):
    """F / <x, y> F decomposed into irreducibles.

    With a twist flag the quotient is taken inside the flagged row (the
    stack-level half of the doubled fixed-point module).
    """
    idx = _stacky_half(F)
    graded = {}
    for cols in (F.x_action, F.y_action):
        for j in idx:
            for w, comp in _split_by_weight(F, cols[j]).items():
                linalg.insert(graded.setdefault(w, {}), comp)
    total, sub = F.weight_data(idx), subspace_weights(F, graded)
    counts, diag = ([a - b for a, b in zip(t, s)] for t, s in zip(total, sub))
    return decompose_weights(f"{F.label}: top", F.n, counts, diag)


def _stacky_half(F):
    """Basis indices of the flagged row (row r carries TWISTS[r]), or all of F."""
    return F.row_indices(TWISTS.index(F.twist)) if F.twist else range(F.dim)


def socle_subspace(F):
    """Joint kernel of the x and y actions as a graded subspace.

    With a twist flag the kernel is computed inside the flagged row.
    """
    idx = _stacky_half(F)
    graded = {}
    by_weight = {}
    for j in idx:
        by_weight.setdefault(F.weights[j], []).append(j)
    for w, cols in sorted(by_weight.items()):
        # solve x v = 0, y v = 0 on the weight-w block: one sparse row
        # functional per (action, target index), over local columns
        rows = {}
        for a, action in enumerate((F.x_action, F.y_action)):
            for local, j in enumerate(cols):
                for i, c in action[j].items():
                    rows.setdefault((a, i), {})[local] = c
        for sol in linalg.nullspace(rows.values(), len(cols)):
            linalg.insert(graded.setdefault(w, {}), {cols[local]: c for local, c in sol.items()})
    return graded


def socle(F):
    """Joint kernel of the x and y actions, decomposed into irreducibles."""
    return decompose_weights(f"{F.label}: socle", F.n, *subspace_weights(F, socle_subspace(F)))


# --- the socle table --------------------------------------------------


def witness_point(i, alpha):
    """Generic rational point on Et_i: I_i(1 - alpha : 1 + alpha)."""
    if alpha in (Fraction(-1), Fraction(0), Fraction(1)):
        raise ValueError("alpha must avoid 0 and +-1")
    return hilb.ClusterPoint(i, Fraction(1) - alpha, Fraction(1) + alpha)


def socle_table(n, alpha=Fraction(1, 2), theta=None, family=None):
    """Per stratum, a witness F's socle, top and regular check, and given
    ``theta`` its verdict ``theta_check(F, theta, family)``; never F itself."""
    m = hilb.half_index(n)
    rows = []

    def add(stratum, point, twist=None):
        F = constellation_from_cluster(n, point, twist=twist)
        row = {
            "stratum": stratum,
            "witness": point.label,
            "twist": twist,
            "socle": socle(F),
            "top": top(F),
            "regular": regular_check(F),
        }
        if theta is not None:
            row["theta"] = theta_check(F, theta, family)
        rows.append(row)

    for i in range(1, m + 1):
        add(f"E{i}", witness_point(i, alpha))
    for i in range(1, m):
        add(f"E{i}&E{i + 1}", hilb.ClusterPoint(i, Fraction(0), Fraction(1)))
    if n % 2 == 0:
        h = n // 2
        add("B1", hilb.ClusterPoint(h, Fraction(1), Fraction(-1)), twist="delta1")
        add("B2", hilb.ClusterPoint(h, Fraction(1), Fraction(1)), twist="delta1")
    else:
        add(f"E{m}&B3", hilb.ClusterPoint(m, Fraction(0), Fraction(1)), twist="delta1")
    return rows


def stratum_curves(n, stratum):
    """Indices of the curves a socle stratum touches: i on E_i, i and i + 1 on
    E_i&E_(i+1), and m on each stacky point (B1, B2, E_m&B3)."""
    if stratum in ("B1", "B2"):
        return {hilb.half_index(n)}
    return {int(part[1:]) for part in stratum.split("&") if part.startswith("E")}


def expected_socle(n, stratum):
    """The published case list for the socle on each stratum.

    The three stacky points are listed as they are published.  A curve
    stratum (E_i, or the corner E_i&E_(i+1)) has in its socle every
    irreducible whose McKay index (CharTable.index) is a curve it meets:
    rho_i, and both rho_(n/2) and rho_(n/2)' on E_(n/2).
    """
    m = hilb.half_index(n)
    stacky = {"B1": {f"rho{m}'": 1}, "B2": {f"rho{m}": 1}, f"E{m}&B3": {f"rho{m}": 1}}
    if stratum in stacky:
        return stacky[stratum]
    curves = stratum_curves(n, stratum)
    table = char_table(GroupSpec("dihedral", n))
    return {c.name: 1 for c in table if table.index[c.name] in curves}


def off_exceptional_report(n):
    """Literal top/socle of a free-orbit witness away from the origin.

    The cluster <x, y^n - 2> is a reduced free orbit; y acts invertibly,
    so both the literal top and socle vanish, matching the published
    'otherwise' row.
    """
    I = Ideal([Poly.var("x"), Poly(2, {(0, n): 1, (0, 0): -2})])
    Ig = Ideal([Poly.var("y"), Poly(2, {(n, 0): 1, (0, 0): -2})])
    F = _two_row(n, (I, Ig), f"orbit(y^{n}=2)")
    return {
        "witness": F.label,
        "regular": regular_check(F),
        "top": top(F),
        "socle": socle(F),
        "note": "x or y acts invertibly off the exceptional fiber, so the "
        "literal top and socle are zero",
    }


# --- theta stability ---------------------------------------------------


class StabilityParam(ReadOnly):
    __slots__ = ("theta",)

    def __init__(self, theta):
        object.__setattr__(self, "theta", theta)  # sorted (irreducible name, Fraction) pairs

    @classmethod
    def make(cls, n, values):
        table = char_table(GroupSpec("dihedral", n))
        unknown = [k for k in values if k not in table.by_name]
        if unknown:
            raise ValueError(f"not irreducibles of D_{2 * n}: {', '.join(map(str, unknown))}")
        theta = {c.name: as_fraction(values.get(c.name, 0)) for c in table}
        total = sum(int(c.degree) * theta[c.name] for c in table)
        if total != 0:
            raise ValueError(f"theta(C[G]) = {total} != 0")
        return cls(tuple(sorted(theta.items())))

    def value(self, cls_dict):
        theta = dict(self.theta)
        return sum((theta[k] * v for k, v in cls_dict.items()), Fraction(0))


class ThetaVerdict:
    def __init__(self, destabilized, seeds=None, cls=None, value=None):
        self.destabilized = destabilized
        self.seeds = seeds  # the destabilizing family entry, as given
        self.cls = cls
        self.value = value


def default_family(F):
    """Closures of single basis vectors and matching-weight pair sums."""
    fam = [[{i: 1}] for i in range(F.dim)]
    for i in range(F.dim):
        for j in range(i + 1, F.dim):
            if F.weights[i] == F.weights[j]:
                fam.append([{i: 1, j: 1}])
                fam.append([{i: 1, j: -1}])
    return fam


def theta_check(F, theta, family=None):
    """Sound (not complete) destabilization search over a seed family.

    A family is a list of seed lists; each seed is a sparse {basis index:
    coefficient} dict of nonzero coefficients (see submodule_closure).
    Without a family the search runs over ``default_family(F)``.
    """
    if family is None:
        family = default_family(F)
    for seeds in family:
        graded, cls = submodule_closure(F, seeds)
        d = sum(map(len, graded.values()))
        if 0 < d < F.dim:
            val = theta.value(cls)
            if val <= 0:
                return ThetaVerdict(True, seeds=seeds, cls=cls, value=val)
    return ThetaVerdict(False)
