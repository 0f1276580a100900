"""Exceptional-curve intersection data on the quotient surface.

A CurveConfig is a labeled symmetric rational intersection matrix with
the canonical pairing, reduced-boundary pairings, discrepancies, and the
special points (curve/boundary incidences with multiplicities).  The
fold of the A_(n-1) chain under the Z_2 action comes from the projection
formula; blow-downs follow the Castelnuovo update; maximality of the
log pair is decided by enumerating blow-up centers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import hilb
from .linalg import insert, reduce, vector


class NotContractible(ValueError):
    """Castelnuovo preconditions (C^2 = -1, K.C = -1) fail."""


@dataclass(frozen=True)
class BoundaryData:
    """Reduced boundary components, each with coefficient (m_j - 1)/m_j = 1/2."""

    components: tuple  # labels
    coefficient = Fraction(1, 2)  # a class constant, not a field


@dataclass
class Point:
    """Special point: multiplicities of curves and boundary components."""

    label: str
    curves: dict = field(default_factory=dict)  # curve label -> multiplicity
    boundary: dict = field(default_factory=dict)  # boundary label -> multiplicity


@dataclass
class CurveConfig:
    labels: list
    q: dict = field(default_factory=dict)  # (label, label) -> Fraction, symmetric
    k_dot: dict = field(default_factory=dict)  # label -> Fraction
    boundary_dot: dict = field(default_factory=dict)  # label -> {boundary label -> Fraction}
    discrepancy: dict = field(default_factory=dict)  # label -> Fraction
    points: list = field(default_factory=list)

    def pair(self, a, b):
        return self.q.get((a, b), Fraction(0))

    def set_pair(self, a, b, v):
        self.q[(a, b)] = v
        self.q[(b, a)] = v

    def adjunction_holds(self):
        """K.E + E^2 = -2 for every (rational) curve."""
        return all(
            self.k_dot[a] + self.pair(a, a) == -2 for a in self.labels
        )

    def negative_definite(self):
        """Sylvester's criterion from one elimination in row order.

        Row t of Q, reduced by the echelon of rows 0..t-1, has the pivot
        D_t / D_(t-1) at index t (D_t the t-th leading principal minor,
        so D_t is the product of the first t pivots).  Q is negative
        definite exactly when every pivot is negative.
        """
        echelon = {}
        for t, a in enumerate(self.labels):
            rest, _ = reduce(echelon, vector([self.pair(a, b) for b in self.labels]))
            if rest.get(t, 0) >= 0:
                return False
            insert(echelon, rest)
        return True

    def to_json(self):
        return {
            "curves": [
                {
                    "label": a,
                    "self_intersection": str(self.pair(a, a)),
                    "k_dot": str(self.k_dot[a]),
                    "discrepancy": str(self.discrepancy[a]),
                    "boundary_dot": {
                        b: str(v) for b, v in sorted(self.boundary_dot[a].items())
                    },
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


def an_chain(k):
    """A_k chain of (-2)-curves Et_1, ..., Et_k: crepant, no boundary pairings."""
    labels = [f"Et{i}" for i in range(1, k + 1)]
    cfg = CurveConfig(
        labels=labels,
        k_dot={a: Fraction(0) for a in labels},
        boundary_dot={a: {} for a in labels},
        discrepancy={a: Fraction(0) for a in labels},
    )
    for i, a in enumerate(labels):
        cfg.set_pair(a, a, Fraction(-2))
        if i + 1 < k:
            cfg.set_pair(a, labels[i + 1], Fraction(1))
    return cfg


def boundary_data(n):
    return BoundaryData(("B1", "B2") if n % 2 == 0 else ("B3",))


def z2_fold(chain, n):
    """Fold the A_(n-1) chain on X1 to the configuration on Y1.

    E_a . E_b = (1/2) p*E_a . p*E_b with p*E_i = Et_i + Et_(n-i) for
    i < n/2 (and for the odd middle pair), p*E_(n/2) = Et_(n/2).
    Boundary pairings come from the chart computations in hilb; the
    canonical pairing is fixed by crepancy (K.E_m = -1, else 0) and
    re-verified by adjunction.
    """
    m = hilb.half_index(n)
    if chain.labels != [f"Et{i}" for i in range(1, n)]:
        raise ValueError("fold expects the A_(n-1) chain of X1")

    def pull(i):
        if n % 2 == 0 and i == n // 2:
            return [f"Et{i}"]
        return [f"Et{i}", f"Et{n - i}"]

    labels = [f"E{i}" for i in range(1, m + 1)]
    cfg = CurveConfig(labels, discrepancy={a: Fraction(0) for a in labels})
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            val = sum(
                (chain.pair(a, b) for a in pull(i) for b in pull(j)), Fraction(0)
            ) / 2
            cfg.set_pair(f"E{i}", f"E{j}", val)
    for i in range(1, m + 1):
        cfg.k_dot[f"E{i}"] = Fraction(-1) if i == m else Fraction(0)
    bnums = hilb.boundary_intersection_numbers(n)
    for i in range(1, m + 1):
        cfg.boundary_dot[f"E{i}"] = {
            lab: Fraction(row[f"E{i}"]) for lab, row in sorted(bnums.items())
        }
    if not cfg.adjunction_holds():
        raise hilb.CertificateFailure(f"n={n}: adjunction fails after the fold")
    # special points: chain corners plus boundary incidences on the last curve
    for i in range(1, m):
        cfg.points.append(
            Point(f"E{i}&E{i + 1}", {f"E{i}": 1, f"E{i + 1}": 1}, {})
        )
    if n % 2:
        cfg.points.append(Point(f"E{m}&B3", {f"E{m}": 1}, {"B3": 1}))
    else:
        cfg.points.append(Point(f"E{m}&B1", {f"E{m}": 1}, {"B1": 1}))
        cfg.points.append(Point(f"E{m}&B2", {f"E{m}": 1}, {"B2": 1}))
    return cfg


def blow_down(cfg, curve):
    """Contract a (-1)-curve; Q'_ab = Q_ab + Q_aC Q_bC, same rule for K and B."""
    if curve not in cfg.labels:
        raise KeyError(curve)
    if cfg.pair(curve, curve) != -1 or cfg.k_dot[curve] != -1:
        raise NotContractible(
            f"{curve}: C^2 = {cfg.pair(curve, curve)}, K.C = {cfg.k_dot[curve]}"
        )
    labels = [a for a in cfg.labels if a != curve]
    out = CurveConfig(labels, discrepancy={a: cfg.discrepancy[a] for a in labels})
    for i, a in enumerate(labels):
        for b in labels[i:]:
            out.set_pair(a, b, cfg.pair(a, b) + cfg.pair(a, curve) * cfg.pair(b, curve))
        out.k_dot[a] = cfg.k_dot[a] + cfg.k_dot[curve] * cfg.pair(a, curve)
        out.boundary_dot[a] = {
            lab: v + cfg.boundary_dot[curve].get(lab, Fraction(0)) * cfg.pair(a, curve)
            for lab, v in cfg.boundary_dot[a].items()
        }
    # points away from the contracted curve persist; everything incident
    # to it lands on one image point with multiplicity = intersection number
    for p in cfg.points:
        if curve not in p.curves:
            out.points.append(Point(p.label, dict(p.curves), dict(p.boundary)))
    image = Point(f"image({curve})", {}, {})
    for a in labels:
        v = cfg.pair(a, curve)
        if v != 0:
            image.curves[a] = int(v)
    for lab, v in cfg.boundary_dot[curve].items():
        if v != 0:
            image.boundary[lab] = int(v)
    out.points.append(image)
    return out


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
            if cfg.pair(a, a) == -1 and cfg.k_dot[a] == -1
        ]
        if len(contractible) != 1:
            raise hilb.CertificateFailure(
                f"n={n}: expected exactly one (-1)-curve, found {contractible}"
            )
        cfg = blow_down(cfg, contractible[0])
        out.append(cfg)
    return out


def blowup_discrepancy(boundary, mult, prior_discrepancies_at_center):
    """a = 1 + sum(prior a_i at the center) - coefficient * boundary multiplicity."""
    total = Fraction(1) + sum(prior_discrepancies_at_center, Fraction(0))
    return total - boundary.coefficient * Fraction(mult)


def _center_discrepancy(cfg, boundary, point):
    """Discrepancy of the curve that blowing up a recorded point creates."""
    priors = [cfg.discrepancy[c] * Fraction(mult) for c, mult in point.curves.items()]
    return blowup_discrepancy(boundary, sum(point.boundary.values()), priors)


def blow_up_at(cfg, boundary, point, new_label="F"):
    """Blow up a recorded point; returns the new configuration.

    Used to build the one-step-beyond configurations that maximality
    must reject.
    """
    a_new = _center_discrepancy(cfg, boundary, point)
    labels = cfg.labels + [new_label]
    out = CurveConfig(labels, discrepancy={**cfg.discrepancy, new_label: a_new})
    for i, a in enumerate(cfg.labels):
        for b in cfg.labels[i:]:
            ma = Fraction(point.curves.get(a, 0))
            mb = Fraction(point.curves.get(b, 0))
            out.set_pair(a, b, cfg.pair(a, b) - ma * mb)
        out.k_dot[a] = cfg.k_dot[a] + Fraction(point.curves.get(a, 0))
        out.boundary_dot[a] = {
            lab: v - Fraction(point.curves.get(a, 0)) * Fraction(point.boundary.get(lab, 0))
            for lab, v in cfg.boundary_dot[a].items()
        }
    out.set_pair(new_label, new_label, Fraction(-1))
    for a in cfg.labels:
        out.set_pair(a, new_label, Fraction(point.curves.get(a, 0)))
    out.k_dot[new_label] = Fraction(-1)
    out.boundary_dot[new_label] = {
        lab: Fraction(point.boundary.get(lab, 0))
        for lab in (cfg.boundary_dot[cfg.labels[0]] if cfg.labels else point.boundary)
    }
    out.points = [
        Point(p.label, dict(p.curves), dict(p.boundary))
        for p in cfg.points
        if p is not point
    ]
    # the blown-up boundary/curve branches now meet the new curve
    inc = Point(f"{new_label}&old", {new_label: 1, **point.curves}, dict(point.boundary))
    out.points.append(inc)
    return out


def is_maximal(cfg, boundary):
    """Maximality of the log pair: -1 < a_i <= 0 and every candidate
    further blow-up center has positive discrepancy.

    Candidate centers: a generic point of each curve, a generic point of
    each boundary component, a generic surface point, and every recorded
    special point.
    """
    cert = {"discrepancies": {a: str(cfg.discrepancy[a]) for a in cfg.labels}}
    for a in cfg.labels:
        if not (Fraction(-1) < cfg.discrepancy[a] <= 0):
            cert["violation"] = f"{a}: discrepancy {cfg.discrepancy[a]} outside (-1, 0]"
            return False, cert
    candidates = []
    for a in cfg.labels:
        candidates.append(
            (f"generic point of {a}", blowup_discrepancy(boundary, 0, [cfg.discrepancy[a]]))
        )
    for lab in boundary.components:
        candidates.append(
            (f"generic point of {lab}", blowup_discrepancy(boundary, 1, []))
        )
    candidates.append(("generic surface point", blowup_discrepancy(boundary, 0, [])))
    for p in cfg.points:
        candidates.append((f"point {p.label}", _center_discrepancy(cfg, boundary, p)))
    cert["candidates"] = [(name, str(v)) for name, v in candidates]
    bad = [name for name, v in candidates if v <= 0]
    if bad:
        cert["violation"] = f"non-positive blow-up discrepancy at: {', '.join(bad)}"
        return False, cert
    return True, cert


def quotient_pair(n):
    """(C^2/G, B-hat) as a configuration: no curves, one singular boundary point."""
    cfg = CurveConfig([])
    if n % 2:
        cfg.points.append(Point("origin", {}, {"B3": 2}))
    else:
        cfg.points.append(Point("origin", {}, {"B1": 1, "B2": 1}))
    return cfg


def embedded_resolution_chain(n):
    """Forward chain: blow up the boundary's singular point m times.

    Independent re-derivation of the fold: starting from (C^2/G, B-hat)
    and repeatedly blowing up the recorded non-positive-discrepancy
    point reproduces z2_fold(n) exactly (up to curve naming) in its
    labels, pairings, K.E, boundary pairings and discrepancies.  Only the
    next center is recorded as a point, so the result carries no special
    points, and ``configs_equal`` does not compare them; verify criterion
    7 checks the fold's points against the incidences its pairings imply.
    """
    bdry = boundary_data(n)
    cfg = quotient_pair(n)
    m = hilb.half_index(n)
    for step in range(1, m + 1):
        # the unique candidate center with non-positive discrepancy
        centers = [p for p in cfg.points if _center_discrepancy(cfg, bdry, p) <= 0]
        if len(centers) != 1:
            raise hilb.CertificateFailure(f"n={n}: {len(centers)} forced centers, not one")
        cfg = blow_up_at(cfg, bdry, centers[0], new_label=f"E{step}")
        # the boundary strict transform meets the new curve only at the
        # next center
        cfg.points = []
        if step < m:
            meets = {"B3": 2} if n % 2 else {"B1": 1, "B2": 1}
            cfg.points.append(Point(f"E{step}&" + "&".join(meets), {f"E{step}": 1}, meets))
    return cfg


def configs_equal(a, b):
    if a.labels != b.labels:
        return False
    return (
        all(
            a.pair(x, y) == b.pair(x, y)
            for x in a.labels
            for y in a.labels
        )
        and a.k_dot == b.k_dot
        and a.discrepancy == b.discrepancy
        and all(
            {k: v for k, v in a.boundary_dot[x].items() if v != 0}
            == {k: v for k, v in b.boundary_dot[x].items() if v != 0}
            for x in a.labels
        )
    )


def dual_graph_dot(cfg, name="dual_graph"):
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
        for lab, v in sorted(cfg.boundary_dot[a].items()):
            if v != 0:
                lines.append(f'  "{lab}" [shape=box];')
                lines.append(f'  "{a}" -- "{lab}" [label="{v}", style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
