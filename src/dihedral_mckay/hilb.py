"""The concrete atlases: Z_n-Hilb(C^2), its Z_2-quotient surface, and the
threefold flop stages, together with cluster-ideal points, the Z_2 action,
fixed points, and boundary strict transforms.

Conventions.  The order-n Hilbert scheme X1 is covered by n charts
U_i = Spec C[x^i/y^(n-i), y^(n+1-i)/x^(i-1)]; the exceptional curve Et_i
carries projective coordinates (x^i : y^(n-i)); chart points (a, 0)
correspond to I_i(1:a) and (0, b) to I_(i-1)(b:1).  The Z_2 action sends
I_i(a:b) to I_(n-i)(b:a).  On the quotient surface the curves are
E_i (1 <= i <= m) with m = (n-1)/2 (odd) or n/2 (even).

The binomials f1, f2 are x^n +- y^n for odd n and x^(n/2) +- y^(n/2) for
even n; the boundary equations are their squares, B1 = f1^2 and B2 = f2^2
(even n) or B3 = f2^2 (odd n).  ``surface_atlas``, which every computation
on the quotient surface builds first, re-verifies the master identity
f1^2 - f2^2 = 4(xy)^n (odd) or 4(xy)^(n/2) (even) by polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

from .charts import (
    Atlas,
    Atom,
    Chart,
    LocalCurve,
    axis_root_report,
    local_intersection,
    pullback_orders,
    restrict_to_axis,
    transition_exponents,
    verify_gluing,
    verify_poly_transition,
)
from .exactnum import ReadOnly, as_fraction
from .polyring import Ideal, Poly, staircase


class CertificateFailure(Exception):
    """A certificate fails: an identity or a strict transform it rests on, a
    constellation's structure, a ledger or push-forward identity, or a
    cross-check of the chart data against the socle tables.  Every failed
    certificate of the package raises this one type.

    Not an AssertionError: the check is a raise, which ``python -O`` keeps.
    Not a ValueError: the package raises ValueError for bad input, and a
    caller that catches it to report a usage error must not catch this
    internal math failure too.
    """


def half_index(n):
    return (n - 1) // 2 if n % 2 else n // 2


# --- cluster points -------------------------------------------------------


class ClusterPoint(ReadOnly):
    """Point I_i(a:b) on the exceptional locus of Z_n-Hilb(C^2), canonical once built:
    (a:b) is kept as Fractions with first nonzero coordinate 1, so proportional
    pairs give equal points, with equal labels."""

    __slots__ = ("i", "a", "b")

    def __init__(self, i, a, b):
        a, b = as_fraction(a), as_fraction(b)
        if a == 0 and b == 0:
            raise ValueError("(a:b) must be a projective pair")
        lead = a or b
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "a", a / lead)
        object.__setattr__(self, "b", b / lead)

    def __eq__(self, other):
        if not isinstance(other, ClusterPoint):
            return NotImplemented
        return (self.i, self.a, self.b) == (other.i, other.a, other.b)

    @property
    def label(self):
        return f"I{self.i}({self.a}:{self.b})"


def cluster_ideal(n, p):
    """I_i(a:b) = <a x^i - b y^(n-i), x^(i+1), x y, y^(n+1-i)>."""
    if not 1 <= p.i <= n - 1:
        raise ValueError("index out of range")
    i = p.i
    gens = [
        Poly(2, {(i, 0): p.a, (0, n - i): -p.b}),
        Poly.mono((i + 1, 0)),
        Poly.mono((1, 1)),
        Poly.mono((0, n + 1 - i)),
    ]
    return Ideal(gens)


def cluster_dimension(n, p):
    return len(staircase(cluster_ideal(n, p)))


def z2_image(n, p):
    return ClusterPoint(n - p.i, p.b, p.a)


def swap_xy(f):
    return Poly(2, {(b, a): c for (a, b), c in f.terms.items()})


def fixed_points(n):
    """Z_2-fixed points with ideal-equality certificates.

    The candidates are every corner I_i(0:1), i = 1..n-1, and for even n
    the points I_(n/2)(1:+-1); each is certified by Groebner-basis equality
    of the ideal with its x<->y image.  Testing every corner, not only
    those with n - i near i, is what certifies the count of fixed points.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    candidates = []
    if n % 2 == 0:
        h = n // 2
        candidates += [ClusterPoint(h, Fraction(1), Fraction(1)),
                       ClusterPoint(h, Fraction(1), Fraction(-1))]
    for i in range(1, n):
        # corner I_i(0:1) = I_(i+1)(1:0); fixed iff swapping gives the same ideal
        candidates.append(ClusterPoint(i, Fraction(0), Fraction(1)))
    out = []
    for p in candidates:
        ideal = cluster_ideal(n, p)
        image = Ideal([swap_xy(g) for g in ideal.generators])
        if ideal == image:
            cert = {
                "point": p.label,
                "groebner": [str(g) for g in ideal.groebner],
                "image_equals": True,
                "quotient_dim": len(staircase(ideal)),
            }
            out.append((p, cert))
    return out


# --- the X1 atlas ---------------------------------------------------------

X_ATOM = Atom("x", Poly.var("x"))
Y_ATOM = Atom("y", Poly.var("y"))


def hilb_atlas(n):
    atoms = (X_ATOM, Y_ATOM)
    lattice = ((1, 1), (0, n))
    charts = []
    for i in range(1, n + 1):
        axes = {}
        if i >= 2:
            axes[0] = f"Et{i - 1}"
        if i <= n - 1:
            axes[1] = f"Et{i}"
        charts.append(
            Chart(
                name=f"U{i}",
                atoms=atoms,
                rows=((i, i - n), (1 - i, n + 1 - i)),
                coord_names=(f"x^{i}/y^{n - i}", f"y^{n + 1 - i}/x^{i - 1}"),
                exceptional_axes=axes,
            )
        )
    meta = {
        "divisors": {
            f"Et{i}": f"(x^{i} : y^{n - i})" for i in range(1, n)
        }
    }
    return Atlas(f"X1(n={n})", atoms, lattice, charts, meta)


def axis_point(chart_index, axis_index, root):
    """Cluster point of a root on an exceptional axis of chart U_i."""
    i = chart_index
    if axis_index == 1:  # {v = 0} = Et_i, coordinate u
        return ClusterPoint(i, Fraction(1), Fraction(root))
    return ClusterPoint(i - 1, Fraction(root), Fraction(1))


def boundary_equations(n):
    """The squared boundary equations on C^2/G, as polynomials in x, y."""
    f1, f2, _ = _binomials(n)
    if n % 2 == 0:
        return {"B1": f1 * f1, "B2": f2 * f2}
    return {"B3": f2 * f2}


def _boundary_pullbacks(n):
    """label -> chart name -> (chart, strict, orders): every boundary
    equation pulled back once to every X1 chart."""
    atlas = hilb_atlas(n)
    return {
        label: {chart.name: (chart, *pullback_orders(chart, eq)) for chart in atlas.charts}
        for label, eq in boundary_equations(n).items()
    }


def boundary_strict_transforms(n):
    """Strict transform of each boundary equation on every X1 chart.

    Charts missing the strict transform carry a constant-term-1
    certificate; meeting charts record the axis, the root with its
    multiplicity, and the matching cluster point.
    """
    out = {}
    for label, per_chart in _boundary_pullbacks(n).items():
        for name, (chart, strict, orders) in per_chart.items():
            curve = LocalCurve(strict, label)
            meetings = []
            for axis, axis_label in sorted(chart.exceptional_axes.items()):
                for rec in axis_root_report(curve, axis):
                    rec = dict(rec)
                    rec["axis"] = axis_label
                    if "root" in rec:
                        rec["point"] = axis_point(int(name[1:]), axis, rec["root"]).label
                        rec["root"] = str(rec["root"])
                    meetings.append(rec)
            if meetings:
                cert = {"type": "meets-axes", "meetings": meetings}
            elif strict.constant_term() != 1:
                raise CertificateFailure(
                    f"{label} on {name}: strict transform misses the axes "
                    f"with constant term {strict.constant_term()} != 1"
                )
            else:
                cert = {"type": "misses-axes", "constant_term": 1}
            out[(label, name)] = {"strict": strict, "orders": orders, "certificate": cert}
    return out


def _count_meetings(label, own, far, far_axis):
    """Meetings of a strict transform with the curve {w = 0} of its own
    chart (coordinate u), plus its order at the curve's far point: the
    origin of the next chart's strict transform restricted to far_axis."""
    try:
        near = local_intersection(LocalCurve(own, "own strict transform"))
        at_far = restrict_to_axis(LocalCurve(far, "far strict transform"), far_axis)
    except ValueError as exc:
        raise CertificateFailure(f"{label}: {exc}") from exc
    return near + next(k for k, c in enumerate(at_far) if c != 0)


@lru_cache(maxsize=None)
def boundary_intersection_numbers(n):
    """supp(B_k) . E_i on the quotient surface, via the projection formula.

    p* supp(B_k) = 2 B~_k (ramification), so the squared boundary meets
    each Et_j with even multiplicity, and Et_j adds half of it to its Z_2
    image E_min(j, n-j), as ``intersect.z2_fold`` maps the chain.  For odd
    n the invariant-chart tangency is computed as well and must agree.
    Memoised per n for the process and read-only (mapping proxies); a
    CertificateFailure is raised on every call, never memoised.
    """
    m = half_index(n)
    out = {}
    for label, per_chart in _boundary_pullbacks(n).items():
        row = dict.fromkeys((f"E{i}" for i in range(1, m + 1)), 0)
        for j in range(1, n):
            total = _count_meetings(f"Et{j}", per_chart[f"U{j}"][1], per_chart[f"U{j + 1}"][1], 0)
            if total % 2:
                raise CertificateFailure(
                    f"squared boundary meets Et{j} with odd multiplicity {total}"
                )
            row[f"E{min(j, n - j)}"] += total // 2
        out[label] = row
    if n % 2:
        tang = invariant_chart_boundary(n)["certificate"]["multiplicity"]
        if out["B3"][f"E{m}"] != tang:
            raise CertificateFailure(
                f"n={n}: B3.E{m} = {out['B3'][f'E{m}']} but the invariant chart "
                f"gives tangency {tang}"
            )
    return MappingProxyType({label: MappingProxyType(row) for label, row in out.items()})


# --- the quotient-surface atlas ------------------------------------------


def _binomials(n):
    if n % 2:
        f1 = Poly(2, {(n, 0): 1, (0, n): 1})
        f2 = Poly(2, {(n, 0): 1, (0, n): -1})
        power = n
    else:
        h = n // 2
        f1 = Poly(2, {(h, 0): 1, (0, h): 1})
        f2 = Poly(2, {(h, 0): 1, (0, h): -1})
        power = h
    return f1, f2, power


def master_identity_holds(n):
    """f1^2 - f2^2 = 4(xy)^n (odd) or 4(xy)^(n/2) (even), by Poly arithmetic."""
    f1, f2, power = _binomials(n)
    return f1 * f1 - f2 * f2 == Poly(2, {(power, power): 4})


def surface_atlas(n):
    """Charts of the quotient surface Y1 = Y_max along its exceptional locus.

    Odd n: atoms (xy, f1); charts A_i = ((xy)^i/f1, f1/(xy)^(i-1)) for
    i <= m plus the invariant chart Ainv = (f1/(xy)^m, xy).  Even n:
    atoms (xy, f1^2, f2^2); charts A_i for i <= m-1 like the odd ones
    with f1^2, then Am = (f2^2/f1^2, f1^2/(xy)^(m-1)) and
    Am1 = (f1^2/f2^2, f2^2/(xy)^(m-1)).  On Am and Am1 the curve E_(m-1)
    is the non-axis locus {first coordinate = 1}.  The charts rest on the
    master identity, which is checked here first.
    """
    m = half_index(n)
    f1, f2, power = _binomials(n)
    if not master_identity_holds(n):
        raise CertificateFailure(f"n={n}: master identity f1^2 - f2^2 = 4(xy)^{power} fails")
    xy = Atom("xy", Poly.var("x") * Poly.var("y"))
    if n % 2:
        atoms, pc, pad, last = (xy, Atom("f1", f1)), "f1", (), m
    else:
        atoms = (xy, Atom("f1^2", f1 * f1), Atom("f2^2", f2 * f2))
        pc, pad, last = "f1^2", (0,), m - 1
    charts = []
    for i in range(1, last + 1):
        axes = {1: f"E{i}"}
        if i >= 2:
            axes[0] = f"E{i - 1}"
        charts.append(
            Chart(
                name=f"A{i}",
                atoms=atoms,
                rows=((i, -1, *pad), (1 - i, 1, *pad)),
                coord_names=(f"(xy)^{i}/{pc}", f"{pc}/(xy)^{i - 1}"),
                exceptional_axes=axes,
            )
        )
    if n % 2:
        charts.append(
            Chart(
                name="Ainv",
                atoms=atoms,
                rows=((-m, 1), (1, 0)),
                coord_names=(f"f1/(xy)^{m}", "xy"),
                exceptional_axes={1: f"E{m}"},
            )
        )
    else:
        for name, rows, p, q in (
            (f"A{m}", ((0, -1, 1), (1 - m, 1, 0)), "f1^2", "f2^2"),
            (f"A{m + 1}", ((0, 1, -1), (1 - m, 0, 1)), "f2^2", "f1^2"),
        ):
            charts.append(
                Chart(
                    name=name,
                    atoms=atoms,
                    rows=rows,
                    coord_names=(f"{q}/{p}", f"{p}/(xy)^{m - 1}"),
                    exceptional_axes={1: f"E{m}"},
                )
            )
    lattice = [[int(a is b) for b in atoms] for a in atoms]  # all atom monomials
    return Atlas(f"Y1(n={n})", atoms, lattice, charts)


def invariant_chart_boundary(n):
    """Odd n: boundary on the invariant chart (f1/(xy)^m, xy).

    Pulls the squared boundary back and certifies the strict transform
    t^2 - 4s with its order-2 tangency to E_m at t = 0.  The record has
    the shape of a ``boundary_strict_transforms`` entry: {"strict",
    "orders", "certificate": {"type": "tangency", "multiplicity"}}.
    """
    if n % 2 == 0:
        raise ValueError("odd n only")
    m = half_index(n)
    atlas = surface_atlas(n)
    chart = atlas.chart("Ainv")
    # B3 as an atom-polynomial: f1^2 - 4 (xy)^n
    eq = Poly(2, {(0, 2): 1, (n, 0): -4})
    strict, orders = pullback_orders(chart, eq)
    expected = Poly(2, {(2, 0): 1, (0, 1): -4})  # t^2 - 4s
    if strict != expected:
        raise CertificateFailure(
            f"n={n}: invariant-chart boundary is {strict}, not t^2 - 4s"
        )
    tang = local_intersection(LocalCurve(strict, "B3"))
    return {
        "strict": strict,
        "orders": orders,
        "certificate": {"type": "tangency", "multiplicity": tang},
    }


# --- refdivisor curves on the surface -------------------------------------


def _reflect(f):
    """f(1 - x, y) for a bivariate Poly f, by binomial expansion."""
    out = {}
    for (i, j), c in f.terms.items():
        for k in range(i + 1):
            out[(k, j)] = out.get((k, j), 0) + (-1) ** k * comb(i, k) * c
    return Poly(2, out)


def _split_monomial(f):
    """(exponents of the largest monomial dividing f, f divided by it)."""
    mins = tuple(min(mono[i] for mono in f.terms) for i in range(f.nvars))
    rest = {tuple(a - b for a, b in zip(mono, mins)): c for mono, c in f.terms.items()}
    return mins, Poly(f.nvars, rest)


def _pullback_even_end(n, chart, f):
    """Pull an atom-polynomial back to the even-n end charts Am, Am1.

    Their coordinates (u, w) are not monomial in the atoms.  Let p = f1^2 on
    Am and p = f2^2 on Am1.  The chart (v, w) with v = (xy)^m/p and
    w = p/(xy)^(m-1) is monomial over (xy, p): xy = vw, p = v^(m-1) w^m.  The
    master identity f1^2 - f2^2 = 4(xy)^m gives u = 1 - 4v on Am and
    u = 1 + 4v on Am1.  So f loses the other atom (``_eliminate``), is pulled
    back to (v, w), and v = +-(1 - u)/4 is substituted; the v-order is the
    order along the non-axis divisor E_(m-1) = {u = 1}.  Returns
    (strict, orders) with strict in (u, w), so that
    f = u^(boundary order) w^(E_m order) (u - 1)^(E_(m-1) order) strict,
    the boundary {u = 0} being B2 on Am and B1 on Am1.
    """
    m = half_index(n)
    if chart.name == f"A{m}":
        sign, other, boundary, rows = 1, 2, "B2", ((m, -1, 0), (1 - m, 1, 0))
    else:  # A(m+1)
        sign, other, boundary, rows = -1, 1, "B1", ((m, 0, -1), (1 - m, 0, 1))
    vw = Chart(f"{chart.name}(v, w)", chart.atoms, rows, ("v", "w"), {0: f"E{m - 1}", 1: f"E{m}"})
    strict, orders = pullback_orders(vw, _eliminate(n, f, other))
    # v = sign (1 - u)/4, and v^k = (-sign/4)^k (u - 1)^k keeps strict's
    # (u - 1)-factorisation
    norm = Fraction(-sign, 4) ** orders[f"E{m - 1}"]
    scaled = {(i, j): c * Fraction(sign, 4) ** i * norm for (i, j), c in strict.terms.items()}
    (orders[boundary], _), strict = _split_monomial(_reflect(Poly(2, scaled)))
    return strict, orders


def _eliminate(n, f, atom):
    """Rewrite an (xy, f1^2, f2^2) atom-polynomial without the atom of index
    atom (1 for f1^2, 2 for f2^2), by the master identity
    f1^2 - f2^2 = 4(xy)^(n/2)."""
    m = half_index(n)
    if atom == 1:
        sub = Poly(3, {(0, 0, 1): 1, (m, 0, 0): 4})  # f1^2 = f2^2 + 4(xy)^m
    else:
        sub = Poly(3, {(0, 1, 0): 1, (m, 0, 0): -4})  # f2^2 = f1^2 - 4(xy)^m
    out = Poly(3)
    for mono, coeff in f.terms.items():
        rest = tuple(0 if i == atom else e for i, e in enumerate(mono))
        out = out + coeff * Poly.mono(rest) * sub ** mono[atom]
    return out


def surface_pullback(n, chart, f):
    """Pullback to a surface chart, transparent to the even end charts."""
    m = half_index(n)
    if n % 2 == 0 and chart.name in (f"A{m}", f"A{m + 1}"):
        return _pullback_even_end(n, chart, f)
    if n % 2 == 0:
        f = _eliminate(n, f, 2)
    return pullback_orders(chart, f)


def refdiv_curve(n, k):
    """Atom-polynomial of the transversal-to-E_k divisor W_k.

    Odd n: f1 - (xy)^k for 1 <= k <= m.  Even n: f1^2 - (xy)^k for
    k <= m-1 and f2^2 + f1^2 for k = m (an off-corner slice u = -1 of
    the last curve E_m).
    """
    m = half_index(n)
    if not 1 <= k <= m:
        raise ValueError(f"k must be between 1 and {m}")
    if n % 2:
        return Poly(2, {(0, 1): 1, (k, 0): -1})
    if k <= m - 1:
        return Poly(3, {(0, 1, 0): 1, (k, 0, 0): -1})
    return Poly(3, {(0, 0, 1): 1, (0, 1, 0): 1})


def curve_intersections_on_surface(n, stricts):
    """E_j . (strict transform of f) by canonical per-curve counting.

    stricts maps each surface chart name to the strict transform of f
    there.  Each curve E_j is counted in its own chart A_j ({w = 0},
    coordinate u) plus the single far point supplied by the next chart.
    """
    m = half_index(n)
    counts = {}
    for j in range(1, m + 1):
        if j < m:
            far, axis = stricts[f"A{j + 1}"], 0
            if n % 2 == 0 and j + 1 == m:
                # E_(m-1) appears in Am as {u = 1}; far point is (1, 0)
                far = _reflect(far)
        else:
            far, axis = stricts["Ainv" if n % 2 else f"A{m + 1}"], 1
        counts[f"E{j}"] = _count_meetings(f"E{j}", stricts[f"A{j}"], far, axis)
    return counts


def refdiv_data(n, k):
    """Certificate that W_k meets E_k once, transversally, and no other E_j."""
    m = half_index(n)
    f = refdiv_curve(n, k)
    stricts = {c.name: surface_pullback(n, c, f)[0] for c in surface_atlas(n).charts}
    counts = curve_intersections_on_surface(n, stricts)
    notes = []
    if n % 2:
        strict_inv = stricts["Ainv"]
        if k == m:
            # strict on Ainv is t - 1; the boundary t^2 = 4s meets it at (1, 1/4)
            if strict_inv != Poly(2, {(1, 0): 1, (0, 0): -1}):
                raise CertificateFailure(
                    f"n={n}, k={k}: strict transform on Ainv is {strict_inv}, not t - 1"
                )
            notes.append(
                "transversal to E_m: meets the boundary B3 at (t, xy) = (1, 1/4)"
            )
    else:
        for name, blabel in ((f"A{m}", "B2"), (f"A{m + 1}", "B1")):
            res = stricts[name].substitute_zero(0).univariate_in(1)
            if res[0] != 0 and len(res) > 1:
                notes.append(f"crosses the boundary {blabel} away from E_{m}")
    point = None
    roots = stricts[f"A{k}"].substitute_zero(1).univariate_in(0)
    if len(roots) == 2:  # linear: single transversal point
        point = str(Fraction(-roots[0], roots[1]))
    return {
        "k": k,
        "equation": str(f),
        "intersections": counts,
        "transversal_point_u": point,
        "notes": notes,
    }


# --- flop atlases of the threefold stages ---------------------------------


def _flop_atoms(n):
    f1, f2, _ = _binomials(n)
    to3 = lambda p: Poly(3, {(a, b, 0): c for (a, b), c in p.terms.items()})
    return (
        Atom("x", Poly.var("x", 3)),
        Atom("y", Poly.var("y", 3)),
        Atom("z", Poly.var("z", 3)),
        Atom("f1", to3(f1)),
        Atom("f2", to3(f2)),
    )


def _flop_lattice(n):
    if n % 2:
        return ((1, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 1, 0, 1), (0, 0, 0, 1, 0))
    return ((1, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 1, 1, -1), (0, 0, 0, 2, 0))


def _flop_chart_rows(n):
    """Coordinate exponent vectors (over x,y,z,f1,f2) of every named chart."""
    m = half_index(n)
    rows = {}
    if n % 2:
        for i in range(1, m + 2):
            rows[f"U{i}'"] = (
                (i - 1, i - 1, 1, 0, -1),
                (1 - i, 1 - i, 0, 1, 0),
                (1, 1, 0, 0, 0),
            )
            rows[f"U{i}"] = (
                (i - 1, i - 1, 1, 0, -1),
                (2 - i, 2 - i, -1, 0, 1),
                (0, 0, 1, 1, -1),
            )
        for i in range(1, m + 1):
            rows[f"U{i}''"] = (
                (0, 0, 1, 1, -1),
                (i, i, 0, -1, 0),
                (1 - i, 1 - i, 0, 1, 0),
            )
        rows[f"U{m + 2}"] = (
            (0, 0, 2, 0, 0),
            (-m, -m, 0, 1, 0),
            (-m, -m, -1, 0, 1),
        )
        return rows
    for i in range(1, m + 1):
        rows[f"U{i}"] = (
            (i - 1, i - 1, 1, -1, -1),
            (2 - i, 2 - i, -1, 1, 1),
            (0, 0, 1, 1, -1),
        )
        rows[f"U{i}'"] = (
            (i - 1, i - 1, 1, -1, -1),
            (1 - i, 1 - i, 0, 2, 0),
            (1, 1, 0, 0, 0),
        )
    rows[f"U{m + 1}"] = (
        (0, 0, 1, -1, 1),
        (1 - m, 1 - m, -1, 1, 1),
        (0, 0, 1, 1, -1),
    )
    rows[f"U{m + 1}'"] = (
        (0, 0, 1, -1, 1),
        (0, 0, 0, 2, -2),
        (1 - m, 1 - m, 0, 0, 2),
    )
    for i in range(1, m):
        rows[f"U{i}''"] = (
            (0, 0, 1, 1, -1),
            (i, i, 0, -2, 0),
            (1 - i, 1 - i, 0, 2, 0),
        )
    rows[f"U{m}''"] = (
        (0, 0, 1, 1, -1),
        (0, 0, 0, -2, 2),
        (1 - m, 1 - m, 0, 2, 0),
    )
    for i in range(2, m + 1):
        rows[f"V{i}'"] = (
            (i - 2, i - 2, 2, 0, -2),
            (1, 1, 0, 0, 0),
            (2 - i, 2 - i, -1, 1, 1),
        )
    rows[f"V{m + 1}'"] = (
        (m - 1, m - 1, 2, 0, -2),
        (1 - m, 1 - m, 0, 0, 2),
        (1 - m, 1 - m, -1, 1, 1),
    )
    rows[f"V{m + 2}'"] = (
        (0, 0, 2, 0, 0),
        (1 - m, 1 - m, 0, 0, 2),
        (0, 0, -1, 1, -1),
    )
    for i in range(2, m + 2):
        rows[f"V{i}''"] = (
            (i - 2, i - 2, 2, 0, -2),
            (3 - i, 3 - i, -2, 0, 2),
            (0, 0, 1, 1, -1),
        )
    rows[f"V{m + 2}''"] = (
        (0, 0, 2, 0, 0),
        (1 - m, 1 - m, -2, 0, 2),
        (0, 0, 1, 1, -1),
    )
    rows[f"V{m + 3}''"] = (
        (0, 0, 2, 0, 0),
        (1 - m, 1 - m, 0, 2, 0),
        (0, 0, -1, -1, 1),
    )
    return rows


def _flop_atlas(n, label, names):
    """Atlas of the named flop charts, over one copy of the atoms and rows."""
    rows = _flop_chart_rows(n)
    atoms = _flop_atoms(n)
    charts = []
    for name in names:
        if name not in rows:
            raise ValueError(f"n={n}: undefined flop chart {name}")
        charts.append(Chart(name, atoms, rows[name], ("c1", "c2", "c3")))
    return Atlas(f"{label}(n={n})", atoms, _flop_lattice(n), charts)


class FlopAtlas:
    def __init__(self, atlas, curve_tags, floppable):
        self.atlas = atlas
        self.curve_tags = curve_tags  # [{"curve", "coords", "charts"}]
        self.floppable = floppable  # tag of the curve flopped at this stage


def stage_chain(n):
    m = half_index(n)
    if n % 2:
        return [(i,) for i in range(m - 1, -1, -1)]
    return [(i, m - 2 - i) for i in range(m - 1, -1, -1)]


def build_flop_atlas(n, stage):
    """Stage atlas X_{0...i} (odd) or X_{0...i}^{m...(m-j)} (even)."""
    m = half_index(n)
    if n % 2:
        (i,) = stage
        if not 0 <= i <= m - 1:
            raise ValueError("stage out of range")
        names = [f"U{k}''" for k in range(1, i + 2)]
        names.append(f"U{i + 2}'")
        names += [f"U{k}" for k in range(i + 3, m + 3)]
    else:
        i, j = stage
        if not 0 <= i <= m - 1:
            raise ValueError("stage out of range")
        if not -1 <= j <= m - 1:
            raise ValueError("stage out of range")
        names = [f"U{k}''" for k in range(1, i + 2)]
        names.append(f"U{i + 2}'")
        names += [f"U{k}" for k in range(i + 3, m - j + 1)]
        if 2 <= m - j + 1 <= m + 2:
            names.append(f"V{m - j + 1}'")
        names += [f"V{k}''" for k in range(max(m - j + 2, 2), m + 4)]
    atlas = _flop_atlas(n, f"stage{stage}", names)
    pc = "f1" if n % 2 else "f1^2"
    tags = []
    for k in range(1, i + 2):
        cover = (f"U{k}''", f"U{k + 1}''") if k <= i else (f"U{i + 1}''", f"U{i + 2}'")
        tags.append(
            {"curve": f"E{k}", "coords": f"({pc} : (xy)^{k})", "charts": list(cover)}
        )
    floppable = {
        "curve": f"E{i + 1}",
        "coords": f"({pc} : (xy)^{i + 1})",
        "flopped_coords": (
            f"((xy)^{i}*z : f2)" if n % 2 else f"((xy)^{i}*z : f1*f2)"
        ),
    }
    return FlopAtlas(atlas, tags, floppable)


# the known non-monomial wall crossings: (U_(m+1)', U_(m+2)) for odd n,
# (U_(m-1)'', U_m'') for even n, and the flopped pair (U_m', U_(m+1)) of even n
_ODD_TOP = {
    0: [(1, (2, 2, 0)), (-4, (2, 0, 1))],
    1: [(1, (0, 1, 0))],
    2: [(1, (-1, 0, 0))],
}
_EVEN_UPP = {
    0: [(1, (1, 0, 0))],
    1: [(1, (0, 0, 0)), (-4, (0, 2, 1))],
    2: [(1, (0, -1, 0))],
}
_EVEN_FLOPPED = {
    0: [(1, (1, 1, 0)), (-4, (1, 0, 1))],
    1: [(1, (-1, 0, 0))],
    2: [(1, (1, 1, 0))],
}


def flop_em(n):
    """The E_m flop replaces the chart pair (U_m'', U_{m+1}') by (U_m', U_{m+1}).

    The pair before the flop is the gluing the paper displays; "displayed"
    says that its transition is (c1c2, c2^-1, c2c3).
    """
    m = half_index(n)
    charts = _flop_atlas(n, "flop", (f"U{m}''", f"U{m + 1}'", f"U{m}'", f"U{m + 1}")).charts
    before, after = tuple(charts[:2]), tuple(charts[2:])
    if n % 2:
        after_ok = verify_gluing(*after)
    else:
        # even n: the flopped pair glues polynomially, zf2/f1 = c1 c2 - 4 c1 c3 on U_m'
        after_ok = verify_poly_transition(*after, _EVEN_FLOPPED)
    return {
        "before": (before[0].name, before[1].name),
        "after": (after[0].name, after[1].name),
        "displayed": transition_exponents(*before) == [(1, 1, 0), (0, -1, 0), (0, 1, 1)],
        "before_glues": verify_gluing(*before),
        "after_glues": after_ok,
    }


def poly_bridges(n, atlas):
    """Verify the known non-monomial gluing of n's parity as an exact Poly
    identity, when the atlas holds both of its charts."""
    m = half_index(n)
    if n % 2:
        src, dst, combos = f"U{m + 1}'", f"U{m + 2}", _ODD_TOP
    else:
        src, dst, combos = f"U{m - 1}''", f"U{m}''", _EVEN_UPP
    if not {src, dst} <= {c.name for c in atlas.charts}:
        return []
    ok = verify_poly_transition(atlas.chart(src), atlas.chart(dst), combos)
    return [{"pair": (src, dst), "verified": ok}]
