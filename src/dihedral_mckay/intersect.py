"""Exceptional-curve intersection data on the quotient surface.

A CurveConfig holds one symmetric rational form on the curve labels, the
label "K" of the canonical class and the reduced-boundary labels, plus
discrepancies and the special points (curve/boundary incidences with
multiplicities); the boundary of the log pair is those labels, each with
coefficient 1/2.  A config is a value: each operation builds all of its
data first and then the new config in one call, and nothing writes into
a config or a point after that, so configs and points are shared freely.
K and the boundary are updated by the same rank-one rule as the curves,
Q'_xy = Q_xy + u_x w_y: u = w = Q_.C when C is contracted, and u = m,
w = -m when a point is blown up (m_K = -1).  The fold of the A_(n-1)
chain under the Z_2 action comes from the projection formula.  One rule,
center_discrepancy, scores every blow-up center: the forward chain's,
blow_up_at's new curve and each candidate of the maximality test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import hilb
from .exactnum import ReadOnly

ZERO = Fraction(0)  # built once: pair() of two labels that q does not pair, stored zeros
BOUNDARY_COEFFICIENT = Fraction(1, 2)  # (m_j - 1)/m_j: each reflection line of D_2n has m_j = 2


class Point(ReadOnly):
    """Special point: multiplicities of curves and boundary components, read-only."""

    __slots__ = ("label", "curves", "boundary")

    def __init__(self, label, curves, boundary):
        object.__setattr__(self, "label", label)
        # curve label -> multiplicity, boundary label -> multiplicity
        object.__setattr__(self, "curves", MappingProxyType(dict(curves)))
        object.__setattr__(self, "boundary", MappingProxyType(dict(boundary)))


class CurveConfig(ReadOnly):
    """Curves of a log pair; q pairs each curve with the curves, "K" and
    the boundary labels (K.E is pair(E, "K"), B.E is pair(E, B)).  Built
    once and never written: a changed config is a new one."""

    __slots__ = ("labels", "boundary", "q", "discrepancy", "points")

    def __init__(self, labels, boundary=(), q=None, discrepancy=None, points=()):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "boundary", boundary)  # boundary labels
        # q: (label, label) -> Fraction, symmetric; discrepancy: label -> Fraction
        object.__setattr__(self, "q", {} if q is None else q)
        object.__setattr__(self, "discrepancy", {} if discrepancy is None else discrepancy)
        object.__setattr__(self, "points", points)

    def pair(self, a, b):
        return self.q.get((a, b), ZERO)

    def adjunction_holds(self):
        """K.E + E^2 = -2 for every (rational) curve."""
        return all(
            self.pair(a, "K") + self.pair(a, a) == -2 for a in self.labels
        )

    def negative_definite(self):
        """Sylvester's criterion by fraction-free (Bareiss) elimination in row order.

        On M = d Q, d the least common denominator of Q's entries, each step
        divides exactly by the previous pivot, and pivot t is the leading minor
        D_t of M (D_0 = 1; Bareiss, Math. Comp. 22, 1968).  Q is negative
        definite exactly when (-1)^t D_t > 0, so when each pivot flips the sign.
        """
        rows = [[self.pair(a, b) for b in self.labels] for a in self.labels]
        d = math.lcm(*(v.denominator for row in rows for v in row))
        m = [[v.numerator * (d // v.denominator) for v in row] for row in rows]
        prev = 1
        while m:
            (p, *top), *rest = m
            if p * prev >= 0:
                return False
            m = [[(p * x - r[0] * y) // prev for x, y in zip(r[1:], top)] for r in rest]
            prev = p
        return True

    def to_json(self):
        return {
            "curves": [
                {
                    "label": a,
                    "self_intersection": str(self.pair(a, a)),
                    "k_dot": str(self.pair(a, "K")),
                    "discrepancy": str(self.discrepancy[a]),
                    "boundary_dot": {b: str(self.pair(a, b)) for b in sorted(self.boundary)},
                }
                for a in self.labels
            ],
            "intersections": [
                {
                    "pair": [a, b],
                    "value": str(self.pair(a, b)),
                }
                for i, a in enumerate(self.labels)
                for b in self.labels[i + 1 :]
                if self.pair(a, b) != 0
            ],
            "points": [
                {
                    "label": p.label,
                    "curves": {k: v for k, v in sorted(p.curves.items())},
                    "boundary": {k: v for k, v in sorted(p.boundary.items())},
                }
                for p in self.points
            ],
        }


def _symmetric(pairs):
    """The symmetric form that pairs a with b, and b with a, as v for each ((a, b), v)."""
    q = {}
    for (a, b), v in pairs:
        q[a, b] = q[b, a] = v
    return q


def _rank_one(cfg, labels, u, w):
    """The pairs ((x, y), Q_xy + u_x w_y) for each x of labels and each y
    among x and the later labels, "K" and the boundary; u and w map a label
    to its coordinate (0 if absent), and Q_xy is kept as stored where u_x w_y = 0."""
    others = ["K", *cfg.boundary]
    return [
        ((x, y), cfg.pair(x, y) + u[x] * w[y] if u.get(x) and w.get(y) else cfg.pair(x, y))
        for i, x in enumerate(labels)
        for y in labels[i:] + others
    ]


def an_chain(k):
    """A_k chain of (-2)-curves Et_1, ..., Et_k: crepant, no boundary pairings."""
    labels = [f"Et{i}" for i in range(1, k + 1)]
    pairs = [((a, a), Fraction(-2)) for a in labels]
    pairs += [((a, b), Fraction(1)) for a, b in zip(labels, labels[1:])]
    return CurveConfig(labels, q=_symmetric(pairs), discrepancy={a: ZERO for a in labels})


def boundary_data(n):
    return ("B1", "B2") if n % 2 == 0 else ("B3",)


def z2_fold(chain, n):
    """Fold the A_(n-1) chain on X1 to the configuration on Y1.

    E_a . E_b = (1/2) p*E_a . p*E_b with p*E_i = Et_i + Et_(n-i) for
    i < n/2 (and for the odd middle pair), p*E_(n/2) = Et_(n/2): each chain
    pairing Et_k . Et_l adds to E_min(k,n-k) . E_min(l,n-l).  Boundary
    pairings come from hilb's charts; K.E_m = -1, else 0 (crepancy),
    re-verified by adjunction.
    """
    m = hilb.half_index(n)
    integral = all(v.denominator == 1 for v in chain.q.values())
    if not integral or chain.labels != [f"Et{i}" for i in range(1, n)]:
        raise ValueError("fold expects the A_(n-1) chain of X1")
    image = {f"Et{k}": f"E{min(k, n - k)}" for k in range(1, n)}
    sums = {}
    for (a, b), v in chain.q.items():
        if a in image and b in image:  # not "K" or a boundary label
            key = (image[a], image[b])
            sums[key] = sums.get(key, 0) + v.numerator
    labels = [f"E{i}" for i in range(1, m + 1)]
    bnums = hilb.boundary_intersection_numbers(n)
    boundary = tuple(sorted(bnums))
    pairs = [(key, Fraction(val, 2)) for key, val in sums.items()]
    for a in labels:
        pairs.append(((a, "K"), Fraction(-1) if a == labels[-1] else ZERO))
        pairs += [((a, lab), Fraction(row[a])) for lab, row in bnums.items()]
    # special points: chain corners plus boundary incidences on the last curve
    points = [Point(f"{a}&{b}", {a: 1, b: 1}, {}) for a, b in zip(labels, labels[1:])]
    points += [Point(f"E{m}&{lab}", {f"E{m}": 1}, {lab: 1}) for lab in boundary]
    discrepancy = {a: ZERO for a in labels}
    cfg = CurveConfig(labels, boundary, _symmetric(pairs), discrepancy, tuple(points))
    if not cfg.adjunction_holds():
        raise hilb.CertificateFailure(f"n={n}: adjunction fails after the fold")
    return cfg


def blow_down(cfg, curve):
    """Contract a (-1)-curve C: Q'_xy = Q_xy + Q_xC Q_yC for every remaining
    curve x, with y over the remaining curves, "K" and the boundary."""
    if curve not in cfg.labels:
        raise KeyError(curve)
    if cfg.pair(curve, curve) != -1 or cfg.pair(curve, "K") != -1:
        raise ValueError(
            f"{curve} is not contractible: C^2 = {cfg.pair(curve, curve)}, "
            f"K.C = {cfg.pair(curve, 'K')}"
        )
    labels = [a for a in cfg.labels if a != curve]
    dots = {y: cfg.pair(y, curve) for y in [*labels, "K", *cfg.boundary]}
    q = _symmetric(_rank_one(cfg, labels, dots, dots))

    def meets(xs):
        return {x: int(dots[x]) for x in xs if dots[x]}

    # points away from the contracted curve persist; everything incident
    # to it lands on one image point with multiplicity = intersection number
    points = [p for p in cfg.points if curve not in p.curves]
    points.append(Point(f"image({curve})", meets(labels), meets(cfg.boundary)))
    discrepancy = {a: cfg.discrepancy[a] for a in labels}
    return CurveConfig(labels, cfg.boundary, q, discrepancy, tuple(points))


def domination_chain(n):
    """Fold, then contract the unique (-1)-curve until nothing is left.

    Returns the list of configurations from the fold down to the empty
    one; its length is m + 1 and each intermediate stage has exactly one
    contractible curve.
    """
    cfg = z2_fold(an_chain(n - 1), n)
    out = [cfg]
    while cfg.labels:
        contractible = [
            a
            for a in cfg.labels
            if cfg.pair(a, a) == -1 and cfg.pair(a, "K") == -1
        ]
        if len(contractible) != 1:
            raise hilb.CertificateFailure(
                f"n={n}: expected exactly one (-1)-curve, found {contractible}"
            )
        cfg = blow_down(cfg, contractible[0])
        out.append(cfg)
    return out


def center_discrepancy(cfg, point):
    """Discrepancy of the curve that blowing up point creates:
    1 + sum of a_C m_C over its curves - 1/2 * sum of its boundary multiplicities."""
    total = sum((cfg.discrepancy[c] * m for c, m in point.curves.items()), Fraction(1))
    return total - BOUNDARY_COEFFICIENT * sum(point.boundary.values())


def blow_up_at(cfg, point, new_label="F"):
    """Blow up a recorded point to the new curve F; returns the new configuration.

    With m_x the multiplicity of x at the point and m_K = -1 (K' = K + F):
    Q'_xy = Q_xy - m_x m_y, Q'_xF = m_x and F^2 = -1, for every curve x
    and y over the curves, "K" and the boundary.  Used to build the
    one-step-beyond configurations that maximality must reject.
    """
    mult = {**point.curves, **point.boundary, "K": -1}
    others = ["K", *cfg.boundary]
    pairs = _rank_one(cfg, cfg.labels, mult, {x: -v for x, v in mult.items()})
    pairs += [((x, new_label), Fraction(mult.get(x, 0))) for x in cfg.labels + others]
    pairs.append(((new_label, new_label), Fraction(-1)))
    q = _symmetric(pairs)
    # the branches part on the new curve unless two still meet (or both are boundary)
    branches = [*point.curves, *point.boundary]
    met = any(q.get((x, y)) for i, x in enumerate(branches) for y in branches[i + 1 :])
    parts = [(x, {x: m}, {}) for x, m in point.curves.items()]
    parts += [(b, {}, {b: m}) for b, m in point.boundary.items()]
    if len(parts) < 2 or len(point.boundary) > 1 or met:
        parts = [("old", point.curves, point.boundary)]
    points = [p for p in cfg.points if p is not point]
    points += [Point(f"{new_label}&{x}", {new_label: 1, **c}, b) for x, c, b in parts]
    discrepancy = {**cfg.discrepancy, new_label: center_discrepancy(cfg, point)}
    return CurveConfig(cfg.labels + [new_label], cfg.boundary, q, discrepancy, tuple(points))


def is_maximal(cfg, boundary):
    """Maximality of the log pair: -1 < a_i <= 0 and every candidate
    further blow-up center has positive discrepancy.

    Candidate centers: a generic point of each curve, a generic point of
    each boundary label, a generic surface point, and every recorded
    special point, each scored by center_discrepancy.
    """
    cert = {"discrepancies": {a: str(cfg.discrepancy[a]) for a in cfg.labels}}
    for a in cfg.labels:
        if not (Fraction(-1) < cfg.discrepancy[a] <= 0):
            cert["violation"] = f"{a}: discrepancy {cfg.discrepancy[a]} outside (-1, 0]"
            return False, cert
    generic = [Point(f"generic point of {a}", {a: 1}, {}) for a in cfg.labels]
    generic += [Point(f"generic point of {lab}", {}, {lab: 1}) for lab in boundary]
    generic.append(Point("generic surface point", {}, {}))
    candidates = [(p.label, center_discrepancy(cfg, p)) for p in generic]
    candidates += [(f"point {p.label}", center_discrepancy(cfg, p)) for p in cfg.points]
    cert["candidates"] = [(name, str(v)) for name, v in candidates]
    bad = [name for name, v in candidates if v <= 0]
    if bad:
        cert["violation"] = f"non-positive blow-up discrepancy at: {', '.join(bad)}"
        return False, cert
    return True, cert


def quotient_pair(n):
    """(C^2/G, B-hat) as a configuration: no curves, one singular boundary point."""
    origin = Point("origin", {}, {"B3": 2} if n % 2 else {"B1": 1, "B2": 1})
    return CurveConfig([], boundary_data(n), points=(origin,))


def embedded_resolution_chain(n):
    """Forward chain: blow up the boundary's singular point m times.

    Independent re-derivation of the fold: starting from (C^2/G, B-hat)
    and repeatedly blowing up the recorded non-positive-discrepancy
    point reproduces z2_fold(n) exactly (up to curve naming) in its
    labels, pairings, K.E, boundary pairings and discrepancies.  Only the
    next center is recorded as a point, so the result carries no special
    points, and ``first_difference`` does not compare them; verify criterion
    7 checks the fold's points against the incidences its pairings imply.
    """
    cfg = quotient_pair(n)
    meets = cfg.points[0].boundary  # the boundary through the origin, with multiplicities
    m = hilb.half_index(n)
    for step in range(1, m + 1):
        # the unique candidate center with non-positive discrepancy
        centers = [p for p in cfg.points if center_discrepancy(cfg, p) <= 0]
        if len(centers) != 1:
            raise hilb.CertificateFailure(f"n={n}: {len(centers)} forced centers, not one")
        cfg = blow_up_at(cfg, centers[0], new_label=f"E{step}")
        # the boundary strict transform meets the new curve only at the
        # next center
        label = f"E{step}&" + "&".join(meets)
        points = (Point(label, {f"E{step}": 1}, meets),) if step < m else ()
        cfg = CurveConfig(cfg.labels, cfg.boundary, cfg.q, cfg.discrepancy, points)
    return cfg


def first_difference(a, b):
    """None, or the first (entry, value in a, value in b) that differs: the
    labels, the discrepancies, then each curve's pairings with the curves,
    "K" and either config's boundary labels.  Points are not compared."""
    others = a.labels + ["K", *a.boundary, *b.boundary]
    entries = [("labels", a.labels, b.labels)]
    entries += [(f"discrepancy of {x}", a.discrepancy[x], b.discrepancy.get(x)) for x in a.labels]
    entries += [(f"{x}.{y}", a.pair(x, y), b.pair(x, y)) for x in a.labels for y in others]
    return next((e for e in entries if e[1] != e[2]), None)


def dual_graph_dot(cfg, name):
    lines = [f'graph "{name}" {{']
    for a in cfg.labels:
        lines.append(
            f'  "{a}" [label="{a} ({cfg.discrepancy[a]}, {cfg.pair(a, a)})"];'
        )
    for i, a in enumerate(cfg.labels):
        for b in cfg.labels[i + 1 :]:
            v = cfg.pair(a, b)
            if v != 0:
                lines.append(f'  "{a}" -- "{b}" [label="{v}"];')
    for a in cfg.labels:
        for lab in sorted(cfg.boundary):
            v = cfg.pair(a, lab)
            if v != 0:
                lines.append(f'  "{lab}" [shape=box];')
                lines.append(f'  "{a}" -- "{lab}" [label="{v}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
