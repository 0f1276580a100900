"""The acceptance harness: one callable per criterion, exact throughout.

Every criterion returns a dict {id, name, passed, details}; run_all
executes them in order and the CLI/tests print one pass/fail line per
criterion.  A criterion that raises fails closed: run_all records a FAIL
whose details name the exception type and message.  Ranges can be
clipped (verify --n-range) but default to the full published ranges; a
range that misses a criterion's published range fails that criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import constel, hilb, intersect, taut
from .charts import wall_exponents
from .reps import (
    GroupSpec,
    build_char_table,
    char_table,
    gram,
    mckay_quiver,
)


NAMES = (
    "character tables",
    "mckay quivers",
    "fixed points",
    "cluster lengths",
    "strict transforms",
    "fold and chain",
    "discrepancies",
    "flop atlases",
    "socles",
    "tautological ledgers",
    "theta soundness",
)


def _result(cid, passed, details):
    return {"id": cid, "name": NAMES[cid - 1], "passed": bool(passed), "details": details}


def _differs(cid, case, want, got):
    """A failure that names the case with its n, and the expected and actual values."""
    return _result(cid, False, f"{case}: expected {want}, got {got}")


def _clip(lo, hi, n_range):
    """The n of the published range lo..hi inside n_range; none is a ValueError."""
    if n_range is None:
        return range(lo, hi + 1)
    a, b = n_range
    ns = range(max(lo, a), min(hi, b) + 1)
    if not ns:
        raise ValueError(f"requested n range {a}..{b} misses the published range {lo}..{hi}")
    return ns


def criterion_1(n_range=None):
    """Character tables: orthonormality, degree sums, irreducible counts."""
    for n in _clip(3, 100, n_range):
        table = build_char_table(GroupSpec("dihedral", n))
        want = (n + 3) // 2 if n % 2 else n // 2 + 3
        if len(table.chars) != want:
            return _differs(1, f"irreducible count at n={n}", want, len(table.chars))
        degrees = [int(c.degree) for c in table]
        if sum(d * d for d in degrees) != 2 * n:
            got = f"{sum(d * d for d in degrees)} from degrees {degrees}"
            return _differs(1, f"sum of squared degrees at n={n}", 2 * n, got)
        for i, (chi, row) in enumerate(zip(table, gram(table.chars, table.chars))):
            for j, (psi, got) in enumerate(zip(table, row)):
                want = int(i == j)
                if got != want:
                    return _differs(1, f"<{chi.name},{psi.name}> at n={n}", want, got)
    return _result(1, True, "orthonormal, counts and degrees exact")


def criterion_2(n_range=None):
    """McKay quivers: affine-D shape for even n; flagged loop for odd n."""
    for n in _clip(4, 40, n_range):
        q = mckay_quiver(n)
        if n % 2 == 0:
            if q["divergences"]:
                d = q["divergences"][0]
                edge = f"edge {d['from']}--{d['to']} at n={n}"
                return _differs(2, edge, d["drawn"], d["computed"])
            tails = sorted(v for v, row in zip(q["vertices"], q["adjacency"]) if sum(row) == 1)
            want = sorted(["rho0", "rho0'", f"rho{n // 2}", f"rho{n // 2}'"])
            if tails != want:
                return _differs(2, f"tails at n={n}", want, tails)
        else:
            m = hilb.half_index(n)
            want = [{"from": f"rho{m}", "to": f"rho{m}", "computed": 1, "drawn": 0}]
            got = q["divergences"]
            if got != want:
                return _differs(2, f"loop flag at n={n}", want, got)
    return _result(2, True, "even diagrams exact; odd loop flagged")


def criterion_3(n_range=None):
    """Fixed points with ideal-equality certificates."""
    for n in _clip(3, 50, n_range):
        pts = hilb.fixed_points(n)
        want = 2 if n % 2 == 0 else 1
        if len(pts) != want:
            return _differs(3, f"fixed points at n={n}", want, [c["point"] for _, c in pts])
        for _, cert in pts:
            want = {"image_equals": True, "quotient_dim": n}
            got = {k: cert[k] for k in want}
            if got != want:
                return _differs(3, f"certificate of {cert['point']} at n={n}", want, got)
    return _result(3, True, "counts and certificates exact")


def criterion_4(n_range=None, seed=7):
    """Cluster quotients have length n on 200 randomized rational points per n."""
    rng = random.Random(seed)
    for n in _clip(3, 20, n_range):
        for _ in range(200):
            i = rng.randint(1, n - 1)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if a == 0 and b == 0:
                a = Fraction(1)
            got = hilb.cluster_dimension(n, hilb.ClusterPoint(i, a, b))
            if got != n:
                return _differs(4, f"length of I{i}({a}:{b}) at n={n}", n, got)
    return _result(4, True, "200 random points per n")


def criterion_5(n_range=None):
    """Boundary strict transforms: squared-line forms and certificates."""
    for n in _clip(3, 20, n_range):
        st = hilb.boundary_strict_transforms(n)
        if n % 2 == 0:
            h = n // 2
            named = {f"U{h}", f"U{h + 1}"}
            forms = {
                ("B1", f"U{h}"): "x^2 + 2*x + 1",
                ("B2", f"U{h}"): "x^2 - 2*x + 1",
                ("B1", f"U{h + 1}"): "y^2 + 2*y + 1",
                ("B2", f"U{h + 1}"): "y^2 - 2*y + 1",
            }
            for (label, cname), text in forms.items():
                got = str(st[label, cname]["strict"])
                if got != text:
                    return _differs(5, f"strict transform {label} on {cname} at n={n}", text, got)
            want = [f"I{h}(1:-1)"]
            got = sorted({m["point"] for m in st["B1", f"U{h}"]["certificate"]["meetings"]})
            if got != want:
                return _differs(5, f"B1 points on U{h} at n={n}", want, got)
        else:
            m = hilb.half_index(n)
            named = {f"U{m + 1}"}
            got = [t["mult"] for t in st["B3", f"U{m + 1}"]["certificate"]["meetings"]]
            if any(k != 2 for k in got):
                return _differs(5, f"B3 multiplicities on U{m + 1} at n={n}", "all 2", got)
            got = hilb.invariant_chart_boundary(n)["certificate"]["multiplicity"]
            if got != 2:
                return _differs(5, f"invariant chart tangency at n={n}", 2, got)
        for (label, cname), rec in st.items():
            got = rec["certificate"]["type"]
            if cname not in named and got != "misses-axes":
                return _differs(5, f"{label} on {cname} at n={n}", "misses-axes", got)
    return _result(5, True, "forms, tangencies and certificates exact")


def criterion_6(n_range=None):
    """Folded intersection data and the blow-down chain."""
    for n in _clip(3, 40, n_range):
        m = hilb.half_index(n)
        chain = intersect.domination_chain(n)
        want, got = list(range(m, -1, -1)), [len(cfg.labels) for cfg in chain]
        if got != want:
            return _differs(6, f"chain length at n={n}", f"curves {want}", got)
        fold = chain[0]
        for i in range(1, m + 1):
            want, got = -1 if i == m else -2, fold.pair(f"E{i}", f"E{i}")
            if got != want:
                return _differs(6, f"E{i}^2 at n={n}", want, got)
        for k, cfg in enumerate(chain[:-1]):
            where = f"at n={n}, stage {k}"
            if not cfg.adjunction_holds():
                got = {a: str(cfg.pair(a, "K") + cfg.pair(a, a)) for a in cfg.labels}
                return _differs(6, f"adjunction {where}", "K.E + E^2 = -2", got)
            if not cfg.negative_definite():
                got = [[str(cfg.pair(a, b)) for b in cfg.labels] for a in cfg.labels]
                return _differs(6, f"Q {where}", "negative definite", got)
    return _result(6, True, "pairings, adjunction, chain lengths exact")


def criterion_7(n_range=None):
    """Discrepancy ledger: 1/2 at a smooth boundary point, crepant fold,
    the fold's special points exactly as its pairings imply, maximality
    accepted for the fold and rejected on both sides."""
    for n in _clip(3, 20, n_range):
        fold = intersect.z2_fold(intersect.an_chain(n - 1), n)
        generic = intersect.Point("generic", {}, {fold.boundary[0]: 1})
        smooth = intersect.center_discrepancy(fold, generic)
        if smooth != Fraction(1, 2):
            return _differs(7, f"smooth-point value at n={n}", "1/2", smooth)
        if any(fold.discrepancy[a] != 0 for a in fold.labels):
            got = {a: str(fold.discrepancy[a]) for a in fold.labels}
            return _differs(7, f"fold ledger at n={n}", "0 on every E_j", got)
        if diff := intersect.first_difference(fold, intersect.embedded_resolution_chain(n)):
            return _differs(7, f"forward chain at n={n}, {diff[0]}", *diff[1:])
        want, got = _implied_points(fold), _incidences((p.curves, p.boundary) for p in fold.points)
        if got != want:
            return _differs(7, f"special points at n={n}", want, got)
        for label, cfg, want in (
            ("fold not maximal", fold, True),
            ("quotient accepted", intersect.quotient_pair(n), False),
            ("one-beyond accepted", intersect.blow_up_at(fold, generic), False),
        ):
            ok, cert = intersect.is_maximal(cfg, cfg.boundary)
            if ok != want:
                got = cert.get("violation") or f"no violation among {cert['candidates']}"
                want = "maximal" if want else "a violation"
                return _differs(7, f"{label} at n={n}", want, got)
    return _result(7, True, "1/2 at smooth points; crepant fold is maximal")


def _incidences(pairs):
    """(curves, boundary) multiplicity dicts as a sorted list of item lists."""
    return sorted((sorted(c.items()), sorted(b.items())) for c, b in pairs)


def _implied_points(cfg):
    """The special points that the numbers of cfg imply: one transversal
    corner for each two distinct curves that meet, and one point for each
    nonzero pairing of a curve with a boundary component."""
    labels = cfg.labels
    corners = [
        ({a: 1, b: 1}, {}) for i, a in enumerate(labels) for b in labels[i + 1 :] if cfg.pair(a, b)
    ]
    ends = [({a: 1}, {lab: 1}) for a in labels for lab in cfg.boundary if cfg.pair(a, lab)]
    return _incidences(corners + ends)


def criterion_8(n_range=None):
    """Flop-atlas gluings and per-stage exceptional-curve counts."""
    for n in _clip(3, 15, n_range):
        f = hilb.flop_em(n)
        checks = [(f"displayed gluing {'-'.join(f['before'])}", f["displayed"])]
        sides = ("before", "after")
        checks += [(f"charts {'-'.join(f[s])} {s} the flop", f[f"{s}_glues"]) for s in sides]
        counts = []
        for stage in hilb.stage_chain(n):
            atlas = hilb.build_flop_atlas(n, stage).atlas
            bridges = hilb.poly_bridges(n, atlas)
            counts.append(_stage_curves(atlas, {b["pair"] for b in bridges if b["verified"]}))
            for b in bridges:
                checks.append((f"bridge {'-'.join(b['pair'])} in stage {stage}", b["verified"]))
        for case, ok in checks:
            if not ok:
                return _differs(8, f"{case} at n={n}", "verified", "not verified")
        m = hilb.half_index(n)
        if counts != list(range(m, 0, -1)):
            return _differs(8, f"curve counts per stage at n={n}", list(range(m, 0, -1)), counts)
    return _result(8, True, "gluings verified; counts drop by one per flop")


def _stage_curves(atlas, bridged):
    """A stage's exceptional curves from its charts, not its tags: one per wall between
    consecutive U charts, one double-primed, glued by a verified bridge or both ways."""
    chain = [c for c in atlas.charts if c.name.startswith("U")]
    return sum(
        (a.name, b.name) in bridged or bool(wall_exponents(a, b) and wall_exponents(b, a))
        for a, b in zip(chain, chain[1:]) if "''" in a.name + b.name
    )


def criterion_9(n_range=None):
    """Socle suite: the order-8 example, the full table, tops, FM cross-check."""
    for stratum, b, want in (("B1", -1, {"rho2'": 1}), ("B2", 1, {"rho2": 1})):
        point = hilb.ClusterPoint(2, Fraction(1), Fraction(b))
        F = constel.constellation_from_cluster(4, point, twist="delta1")
        row = {"stratum": stratum, "witness": F.label, "twist": F.twist, "socle": constel.socle(F)}
        if row["socle"] != want:
            return _mismatch(4, row, "socle", want)
    for n in _clip(3, 20, n_range):
        rows = constel.socle_table(n)
        for row in rows:
            top = {"rho0": 1} if row["twist"] else {"rho0": 1, "rho0'": 1}
            socle = constel.expected_socle(n, row["stratum"])
            for what, want in (("socle", socle), ("regular", True), ("top", top)):
                if row[what] != want:
                    return _mismatch(n, row, what, want)
        taut.fm_cross_check(n, rows)  # raises CertificateFailure on a mismatch
    return _result(9, True, "table matches the published case list")


def _mismatch(n, row, what, want):
    """Criterion 9 failure: the case, the entry that differs, expected and actual."""
    twist = f" twist {row['twist']}" if row["twist"] else ""
    case = f"n={n} stratum {row['stratum']} witness {row['witness']}{twist}"
    return _differs(9, f"{what} at {case}", want, row[what])


def criterion_10(n_range=None):
    """Tautological ledgers, torsion on the shared pairing table of n, pushforwards."""
    for n in _clip(3, 20, n_range):
        for space in ("stack", "coarse"):
            taut.build_ledger(n, space)  # raises on any rank/extension mismatch
        twist = taut.stack_twist_class(n)
        if not taut.torsion_check(n, twist):
            return _torsion(n, twist, "0 on every E_j")
        for i in range(1, hilb.half_index(n) + 1):
            cls = taut.DivisorClass.make({f"E{i}": 1})
            if taut.torsion_check(n, cls):
                return _torsion(n, cls, "nonzero on some E_j")
        taut.pushforward_identities(n)
        taut.refdivisor_certify(n)
    return _result(10, True, "tables, torsion and cross-checks exact")


def _torsion(n, cls, want):
    """Criterion 10 failure of a torsion check: the class and its doubled pairings."""
    table = taut.pairing_table(n)
    doubled = cls.scale(2)
    got = {f"E{j}": str(table.pair(doubled, f"E{j}")) for j in range(1, hilb.half_index(n) + 1)}
    return _differs(10, f"2*({cls.pretty()}) at n={n}", want, got)


def criterion_11(n_range=None, seed=2024):
    """Theta-checker soundness on 100 planted destabilizers."""
    ns = _clip(3, 10, n_range)
    rng = random.Random(seed)
    for t in range(100):
        n = rng.randint(ns[0], ns[-1])
        m = hilb.half_index(n)
        i = rng.randint(1, m)
        F = constel.constellation_from_cluster(
            n, constel.witness_point(i, Fraction(rng.randint(2, 7), 13))
        )
        soc = constel.socle(F)
        planted = sorted(soc)[rng.randrange(len(soc))]
        degs = {c.name: int(c.degree) for c in char_table(GroupSpec("dihedral", n))}
        values = {name: Fraction(1) for name in degs}
        values[planted] = Fraction(-rng.randint(1, 5))
        rest = sum(degs[k] * v for k, v in values.items() if k != "rho0")
        values["rho0"] = -rest
        theta = constel.StabilityParam.make(n, values)
        verdict = constel.theta_check(F, theta)
        if not verdict.destabilized or verdict.value > 0:
            got = f"value {verdict.value}" if verdict.destabilized else "no destabilizer"
            case = f"trial {t}: {planted} planted in {F.label} at n={n}"
            return _differs(11, case, "value <= 0", got)
    return _result(11, True, "100 planted destabilizers found")


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
]


def run_all(emit, n_range=None):
    """Run every criterion and emit its pass/fail line; a raise is a FAIL."""
    results = []
    for cid, fn in enumerate(CRITERIA, 1):
        try:
            res = fn(n_range=n_range)
        except Exception as exc:
            res = _result(cid, False, f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        status = "PASS" if res["passed"] else "FAIL"
        emit(f"{status} criterion {res['id']}: {res['name']} - {res['details']}")
    return results
