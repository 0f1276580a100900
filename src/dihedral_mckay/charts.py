"""Laurent-monomial chart machinery for the resolution atlases.

A chart names its coordinates as Laurent monomials over an *atom*
alphabet.  Atoms are either single ambient variables (the order-n
Hilbert-scheme atlas uses x, y) or designated polynomial expressions
(the threefold charts use x, y, z, f1, f2 with f1, f2 binomials); each
atom carries its ambient expansion as a Poly so monomial identities can
be re-verified by exact polynomial cross-multiplication.

Monomial solves, pullbacks, gluings and unimodularity verdicts all ask
`linalg.integer_coordinates` for integer coordinates in a chart's exponent
rows; `linalg` answers every such solve on the one echelon of those rows
that it shares read-only, and checks each answer exactly.
An atlas owns the atom alphabet and a basis of the lattice of allowed exponent
vectors (the invariant monomials); every chart of the atlas is over the same
atoms.  Each chart must be unimodular against that lattice: its rows have
integer coordinates rel in the lattice basis whose maximal minors have gcd 1
(|det rel| = 1 when square, a primitive embedding otherwise).  That verdict
is reached once per (rows, lattice) pair per process.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exactnum import ReadOnly
from .linalg import hnf, integer_coordinates, solver
from .polyring import Poly, rational_roots


class Atom(ReadOnly):
    __slots__ = ("name", "poly")

    def __init__(self, name, poly):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "poly", poly)  # ambient expansion


class Chart:
    """Smooth affine chart with Laurent-monomial coordinates over atoms."""

    def __init__(self, name, atoms, rows, coord_names, exceptional_axes=None):
        self.name = name
        self.atoms = atoms  # tuple[Atom]
        self.rows = tuple(tuple(r) for r in rows)  # one exponent vector per coordinate
        self.coord_names = coord_names
        if len(coord_names) != len(self.rows):
            raise ValueError("coordinate name count mismatch")
        # coord index -> label
        self.exceptional_axes = {} if exceptional_axes is None else exceptional_axes
        solver(self.rows)  # dependent rows raise ValueError

    def coord_fraction(self, i):
        """(numerator, denominator) ambient polynomials of coordinate i."""
        return _atom_fraction(self.atoms, self.rows[i])


def _atom_fraction(atoms, exponents):
    """(numerator, denominator) ambient polynomials of prod(atoms^exponents)."""
    num = Poly.one(atoms[0].poly.nvars)
    den = Poly.one(atoms[0].poly.nvars)
    for e, atom in zip(exponents, atoms):
        if e > 0:
            num = num * atom.poly**e
        elif e < 0:
            den = den * atom.poly ** (-e)
    return num, den


class LocalCurve(ReadOnly):
    __slots__ = ("equation", "label")

    def __init__(self, equation, label):
        for i in range(equation.nvars):
            if not equation.is_zero() and all(m[i] > 0 for m in equation.terms):
                raise ValueError(
                    f"{label}: equation divisible by coordinate {i}, not a strict transform"
                )
        object.__setattr__(self, "equation", equation)  # in chart coordinates
        object.__setattr__(self, "label", label)


def express_monomial(chart, mono):
    """Integer exponents alpha with prod(coords^alpha) = the atom monomial.

    The solution may have negative entries (Laurent); the caller decides
    whether that is acceptable.
    """
    alpha = integer_coordinates(chart.rows, mono)
    if alpha is None:
        raise ValueError(f"{chart.name}: {mono} not in the chart lattice")
    return tuple(alpha)


def pullback_orders(chart, f):
    """Factor f as (common coordinate monomial) * strict on the chart.

    Returns (strict, orders) where strict is a Poly in the chart
    coordinates not divisible by any coordinate, and orders maps each
    exceptional-axis label to the vanishing order of f along it.
    Raises ValueError when a monomial of f is outside the chart lattice
    (express_monomial's message) or f has a pole along some coordinate.
    """
    if f.is_zero():
        raise ValueError("cannot pull back the zero polynomial")
    exps = {m: express_monomial(chart, m) for m in f.terms}
    k = len(chart.rows)
    mins = [min(a[i] for a in exps.values()) for i in range(k)]
    if any(v < 0 for v in mins):
        raise ValueError(f"{chart.name}: pole along a coordinate (orders {mins})")
    strict = Poly(
        k, {tuple(a - b for a, b in zip(alpha, mins)): f.terms[m] for m, alpha in exps.items()}
    )
    orders = {label: mins[i] for i, label in chart.exceptional_axes.items()}
    return strict, orders


def restrict_to_axis(curve, axis_index):
    """Univariate restriction of a 2-coordinate LocalCurve to an axis."""
    eq = curve.equation
    if eq.nvars != 2:
        raise ValueError("axis restriction implemented for surface charts")
    other = 1 - axis_index
    res = eq.substitute_zero(axis_index)
    if res.is_zero():
        raise ValueError(f"{curve.label} contains the axis")
    return res.univariate_in(other)


def local_intersection(curve):
    """Total vanishing multiplicity of the curve along the axis {w = 0} (finite part)."""
    return len(restrict_to_axis(curve, 1)) - 1


def axis_root_report(curve, axis_index):
    """Rational roots (with multiplicity) of the restriction, then one entry
    for the cofactor without rational roots, its degree counted as points."""
    roots, rest = rational_roots(restrict_to_axis(curve, axis_index))
    report = [{"root": r, "mult": m} for r, m in roots]
    if len(rest) > 1:
        report.append({"factor_degree": len(rest) - 1, "mult": 1})
    return report


def transition_exponents(src, dst):
    """Per-coordinate exponent vectors of dst in terms of src, or None."""
    out = []
    for row in dst.rows:
        alpha = integer_coordinates(src.rows, row)
        if alpha is None:
            return None
        out.append(tuple(alpha))
    return out


def wall_exponents(src, dst):
    """transition_exponents(src, dst) if its negative exponents fall on one src-coordinate
    at most (a gluing along a wall), else None."""
    trans = transition_exponents(src, dst)
    if trans is not None and len({i for a in trans for i, e in enumerate(a) if e < 0}) <= 1:
        return trans


def verify_poly_transition(src, dst, combos):
    """Check dst coordinates against polynomial combinations of src monomials.

    combos maps each dst coordinate index to a list of (coeff, alpha)
    meaning sum(coeff * prod(src_coords^alpha)); equality is verified by
    exact cross-multiplication of the ambient expansions.  Each monomial is
    expanded from its atom exponents sum(alpha_i * rows_i), so that common
    atom factors cancel before any power is formed.
    """
    nvars = src.atoms[0].poly.nvars
    for j, combo in combos.items():
        num, den = Poly(nvars), Poly.one(nvars)
        for coeff, alpha in combo:
            exponents = [sum(a * e for a, e in zip(alpha, col)) for col in zip(*src.rows)]
            a_num, a_den = _atom_fraction(src.atoms, exponents)
            num, den = num * a_den + a_num * den * coeff, den * a_den
        b_num, b_den = dst.coord_fraction(j)
        if num * b_den != b_num * den:
            return False
    return True


def verify_gluing(a, b):
    """True iff the two charts glue along a wall.

    Each coordinate of b must be a Laurent monomial in the coordinates
    of a with negative exponents confined to a single a-coordinate (the
    inverted one), and symmetrically; every monomial identity is then
    re-verified by polynomial cross-multiplication of the ambient
    expressions.
    """
    if a.atoms != b.atoms:
        raise ValueError("charts over different atom alphabets")
    t_ab = wall_exponents(a, b)
    t_ba = t_ab and wall_exponents(b, a)
    if not t_ba:
        return False
    return all(
        verify_poly_transition(src, dst, {j: [(1, alpha)] for j, alpha in enumerate(t)})
        for src, dst, t in ((a, b, t_ab), (b, a, t_ba))
    )


@lru_cache(maxsize=None)
def _unimodular_failure(rows, lattice):
    """Why the int-tuple chart rows are not unimodular against the lattice, or None."""
    rel = []
    for row in rows:
        alpha = integer_coordinates(lattice, row)
        if alpha is None:
            return f"coordinate {row} is outside the atlas lattice"
        rel.append(alpha)
    # rel has independent rows, as the chart rows do, so this is the gcd
    # of its maximal minors, which is |det rel| when rel is square
    g = math.prod(b[p] for p, b in hnf(zip(*rel)).items())
    if g != 1:
        return f"|det| = {g} != 1" if len(rel) == len(lattice) else "embedding not primitive"


class Atlas:
    """Charts over one atom alphabet, each unimodular against one lattice."""

    def __init__(self, name, atoms, lattice, charts, meta=None):
        self.name = name
        self.atoms = atoms
        self.lattice = tuple(tuple(r) for r in lattice)  # basis rows over atom exponents
        self.charts = charts
        self.meta = {} if meta is None else meta
        self.validate_unimodular()

    def validate_unimodular(self):
        solver(self.lattice)  # a dependent lattice raises ValueError, with or without charts
        for chart in self.charts:
            if chart.atoms != self.atoms:
                raise ValueError(f"{chart.name}: atoms differ from the atlas atoms")
            why = _unimodular_failure(chart.rows, self.lattice)
            if why is not None:
                raise ValueError(f"{chart.name}: {why}")

    def chart(self, name):
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(name)

    def adjacency(self):
        """All unordered chart pairs passing verify_gluing."""
        out = []
        for i, a in enumerate(self.charts):
            for b in self.charts[i + 1 :]:
                if verify_gluing(a, b):
                    out.append((a.name, b.name))
        return out

    def to_json(self):
        return {
            "name": self.name,
            "atoms": [a.name for a in self.atoms],
            "charts": [
                {
                    "name": c.name,
                    "coords": [
                        {"name": nm, "exponents": list(row)}
                        for nm, row in zip(c.coord_names, c.rows)
                    ],
                    "exceptional_axes": {
                        str(i): lab for i, lab in sorted(c.exceptional_axes.items())
                    },
                }
                for c in self.charts
            ],
            "gluing": [list(p) for p in self.adjacency()],
            **{k: v for k, v in sorted(self.meta.items())},
        }
