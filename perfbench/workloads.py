"""The three benchmark workloads and their correctness checks.

Each workload turns a seed into a list of items.  An item is
(label, call, check): ``call()`` makes the program calls that are timed,
``check(output)`` compares the output with this file's own encoding of
the published values, raises ``Mismatch`` on a difference, and returns
the canonical (JSON-ready) form whose SHA-256 digest is stored for the
default seed.

The seed chooses points, parameters and order; the sizes (the n values
and how many calls each item makes) are fixed, so every seed does about
the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import partial

from dihedral_mckay import cli, hilb, intersect, taut, verify

DEFAULT_SEED = 0
# Outputs that do not depend on the seed have their digests checked on
# every seed; the others only on the default seed.
SEED_INDEPENDENT = ("verify-full",)


class Mismatch(AssertionError):
    """An output differs from the published value."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def half(n):
    return (n - 1) // 2 if n % 2 else n // 2


# --- the published values, encoded independently of the package --------


def irreducibles(n):
    """Names and degrees of the D_2n irreducibles in character-table order."""
    out = [("rho0", 1), ("rho0'", 1)]
    out += [(f"rho{j}", 2) for j in range(1, (n - 1) // 2 + 1)]
    if n % 2 == 0:
        out += [(f"rho{n // 2}", 1), (f"rho{n // 2}'", 1)]
    return out


def _on_curve(n, k):
    m = half(n)
    if n % 2 == 0 and k == m:
        return {f"rho{m}": 1, f"rho{m}'": 1}
    return {f"rho{k}": 1}


def socle_strata(n):
    """(stratum, socle, twisted) for every row of the socle table, in order."""
    m = half(n)
    rows = [(f"E{i}", _on_curve(n, i), False) for i in range(1, m + 1)]
    rows += [
        (f"E{i}&E{i + 1}", {**_on_curve(n, i), **_on_curve(n, i + 1)}, False)
        for i in range(1, m)
    ]
    if n % 2 == 0:
        rows += [("B1", {f"rho{m}'": 1}, True), ("B2", {f"rho{m}": 1}, True)]
    else:
        rows += [(f"E{m}&B3", {f"rho{m}": 1}, True)]
    return rows


def fm_images(n):
    """(rep, support, twist, shift) of the Fourier-Mukai image table."""
    m = half(n)
    out = []
    for name, deg in irreducibles(n):
        if name == "rho0":
            out.append((name, "F", "none", 0))
        elif name == "rho0'":
            out.append((name, "F", "(B3-D)" if n % 2 else "(B1-B2)", 0))
        elif deg == 2:
            i = int(name[3:])
            out.append((name, f"E{i}", "-B3" if n % 2 and i == m else "none", 1))
        else:
            out.append((name, f"E{m}", "-B2" if name.endswith("'") else "-B1", 1))
    return out


CRITERIA = [
    (1, "character tables"),
    (2, "mckay quivers"),
    (3, "fixed points"),
    (4, "cluster lengths"),
    (5, "strict transforms"),
    (6, "fold and chain"),
    (7, "discrepancies"),
    (8, "flop atlases"),
    (9, "socles"),
    (10, "tautological ledgers"),
    (11, "theta soundness"),
]


# --- verify-full ---------------------------------------------------------


def verify_full(seed):
    """All eleven criteria at their published ranges, in `dimckay verify` order.

    Criteria 4 and 11 draw random inputs; the default seed gives their
    published seeds 7 and 2024.
    """
    items = []
    for fn, (cid, name) in zip(verify.CRITERIA, CRITERIA):
        if fn.__name__ == "criterion_4":
            call = partial(fn, seed=7 + seed - DEFAULT_SEED)
        elif fn.__name__ == "criterion_11":
            call = partial(fn, seed=2024 + seed - DEFAULT_SEED)
        else:
            call = fn

        def check(res, cid=cid, name=name):
            expect(res["id"] == cid and res["name"] == name, f"criterion {cid} identity {res}")
            expect(res["passed"] is True, f"criterion {cid} failed: {res['details']}")
            return res

        items.append((f"criterion {cid}", call, check))
    return items


# --- modules-large-n -----------------------------------------------------


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _small_alpha(rng):
    while True:
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if a not in (-1, 0, 1):
            return a


def _large_alpha(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(10**5, 10**6), rng.randint(10**4, 10**5))


def _planted_theta(n, planted, value):
    """theta = value on `planted`, 1 on the other non-trivial irreducibles,
    and theta(rho0) balancing theta(C[G]) = 0, as criterion 11 plants them."""
    degs = dict(irreducibles(n))
    values = {name: Fraction(1) for name in degs}
    values[planted] = Fraction(value)
    values["rho0"] = -sum(degs[k] * v for k, v in values.items() if k != "rho0")
    return values


def _check_socle_table(n, theta=None):
    def check(out):
        code, text = out
        expect(code == 0, f"socle-table n={n} exit {code}")
        doc = json.loads(text)
        expect(doc["kind"] == "socle-table" and doc["n"] == n, "socle-table envelope")
        rows = doc["payload"]
        want = socle_strata(n)
        expect(
            [r["stratum"] for r in rows] == [s for s, _, _ in want] + ["off-exceptional"],
            f"socle-table n={n} strata",
        )
        for row, (stratum, socle, twisted) in zip(rows, want):
            expect(row["socle"] == socle, f"socle at {stratum} n={n}: {row['socle']}")
            expect(row["regular"] is True, f"regular at {stratum} n={n}")
            top = {"rho0": 1} if twisted else {"rho0": 1, "rho0'": 1}
            expect(row["top"] == top, f"top at {stratum} n={n}: {row['top']}")
            if theta is None:
                continue
            values, planted = theta
            verdict = row["theta"]
            if planted in socle:
                missed = f"planted {planted} missed at {stratum}"
                expect(verdict["verdict"] == "destabilized-by", missed)
            if verdict["verdict"] == "destabilized-by":
                value = sum((values[k] * v for k, v in verdict["class"].items()), Fraction(0))
                expect(str(value) == verdict["value"] and value <= 0, f"unsound theta at {stratum}")
        off = rows[-1]
        expect(off["regular"] and off["top"] == {} and off["socle"] == {}, "off-exceptional row")
        return text

    return check


def _check_fm_table(n):
    def check(out):
        code, text = out
        expect(code == 0, f"fm-table n={n} exit {code}")
        payload = json.loads(text)["payload"]
        got = [(e["rep"], e["support"], e["twist"], e["shift"]) for e in payload["table"]]
        expect(got == fm_images(n), f"fm-table n={n} images")
        cross = {"n": n, "checked": len(irreducibles(n)), "strata": len(socle_strata(n))}
        expect(payload["socle_cross_check"] == cross, f"fm cross-check n={n}")
        return text

    return check


def modules_large_n(seed):
    """socle-table and fm-table requests through the CLI.

    The socle tables are at n above their published limit of 20; n = 22
    repeats (char-table sharing within the process, and fm-table rebuilds
    the socle table).  The seed draws the alphas, one of small and one of
    large height, and the request order.  The theta request is at n = 13,
    above criterion 11's published n <= 10, with a fixed parameter: the
    theta search stops at the first destabilizer, so its cost depends on
    the planted class and value (from 0.4 s to 1.8 s at n = 13 for
    criterion 11's draws), and a seeded draw would make the work differ
    between seeds.
    """
    rng = random.Random(seed)
    planted = "rho1"
    theta = _planted_theta(13, planted, -3)
    theta_csv = ",".join(str(theta[name]) for name, _ in irreducibles(13))
    requests = [
        (["socle-table", "--n", "22", f"--alpha={_small_alpha(rng)}"], _check_socle_table(22)),
        (["fm-table", "--n", "22"], _check_fm_table(22)),
        (["socle-table", "--n", "21", f"--alpha={_large_alpha(rng)}"], _check_socle_table(21)),
        (
            ["socle-table", "--n", "13", f"--alpha={_small_alpha(rng)}", f"--theta={theta_csv}"],
            _check_socle_table(13, (theta, planted)),
        ),
    ]
    rng.shuffle(requests)
    return [(" ".join(argv), partial(_run_cli, argv=argv), check) for argv, check in requests]


# --- geometry-sweep ------------------------------------------------------

GEOMETRY_NS = (33, 40, 45)
CLUSTER_POINTS = 100


def _random_point(n, rng, height):
    while True:
        i = rng.randint(1, n - 1)
        a = Fraction(rng.randint(-height, height), rng.randint(1, height))
        b = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if a or b:
            return hilb.ClusterPoint(i, a, b)


def _geometry_items(n, rng):
    m = half(n)
    items = []

    def add(label, call, check):
        items.append((f"{label} n={n}", call, check))

    def fixed_points():
        pts = hilb.fixed_points(n)
        return [(p.label, cert) for p, cert in pts]

    def check_fixed(out):
        expect(len(out) == (2 if n % 2 == 0 else 1), f"fixed-point count n={n}")
        for _, cert in out:
            expect(cert["image_equals"] is True and cert["quotient_dim"] == n, "fixed cert")
        return out

    add("fixed_points", fixed_points, check_fixed)

    points = [_random_point(n, rng, (9, 999, 99999)[k % 3]) for k in range(CLUSTER_POINTS)]

    def check_lengths(out):
        expect(out == [n] * len(points), f"cluster lengths n={n}")
        return out

    add(
        "cluster_dimension",
        lambda: [hilb.cluster_dimension(n, p) for p in points],
        check_lengths,
    )

    def strict():
        st = hilb.boundary_strict_transforms(n)
        return {
            f"{label}/{chart}": {
                "strict": str(rec["strict"]),
                "orders": rec["orders"],
                "certificate": rec["certificate"],
            }
            for (label, chart), rec in sorted(st.items())
        }

    def check_strict(out):
        if n % 2 == 0:
            h = n // 2
            forms = {
                f"B1/U{h}": "x^2 + 2*x + 1",
                f"B2/U{h}": "x^2 - 2*x + 1",
                f"B1/U{h + 1}": "y^2 + 2*y + 1",
                f"B2/U{h + 1}": "y^2 - 2*y + 1",
            }
            for key, text in forms.items():
                expect(out[key]["strict"] == text, f"strict transform {key} n={n}")
        else:
            meets = out[f"B3/U{m + 1}"]["certificate"]["meetings"]
            expect(all(t["mult"] == 2 for t in meets), f"B3 tangency n={n}")
        return json.loads(json.dumps(out, sort_keys=True, default=str))

    add("boundary_strict_transforms", strict, check_strict)

    for k in range(1, m + 1):

        def check_refdiv(out, k=k):
            want = {f"E{j}": int(j == k) for j in range(1, m + 1)}
            expect(out["intersections"] == want, f"refdiv pairings k={k} n={n}")
            return json.loads(json.dumps(out, sort_keys=True, default=str))

        add(f"refdivisor_certify k={k}", partial(taut.refdivisor_certify, n=n, k=k), check_refdiv)

    classes = [("twist", taut.stack_twist_class(n), True)]
    classes += [(f"E{i}", taut.DivisorClass.make({f"E{i}": 1}), False) for i in range(1, m + 1)]
    for label, cls, torsion in classes:

        def check_torsion(out, label=label, torsion=torsion):
            expect(out is torsion, f"torsion of {label} n={n}")
            return out

        # a fresh PairingTable per call, as criterion 10 builds them
        add(f"torsion_check {label}", partial(taut.torsion_check, n=n, cls=cls), check_torsion)

    def chain():
        configs = intersect.domination_chain(n)
        return configs, [cfg.negative_definite() for cfg in configs[:-1]]

    def check_chain(out):
        configs, definite = out
        expect(len(configs) == m + 1 and not configs[-1].labels, f"chain length n={n}")
        fold = configs[0]
        expect(fold.pair(f"E{m}", f"E{m}") == -1, f"E_m^2 n={n}")
        expect(all(fold.pair(f"E{i}", f"E{i}") == -2 for i in range(1, m)), f"E_i^2 n={n}")
        expect(all(definite), f"negative definite n={n}")
        return [cfg.to_json() for cfg in configs]

    add("domination_chain", chain, check_chain)

    def maximal():
        fold = intersect.z2_fold(intersect.an_chain(n - 1), n)
        return intersect.is_maximal(fold, intersect.boundary_data(n))

    def check_maximal(out):
        expect(out[0] is True, f"fold not maximal n={n}")
        return out

    add("is_maximal", maximal, check_maximal)

    for idx, stage in enumerate(hilb.stage_chain(n)):

        def flop(stage=stage):
            fa = hilb.build_flop_atlas(n, stage)
            return fa, hilb.poly_bridges(n, fa.atlas)

        def check_flop(out, idx=idx):
            fa, bridges = out
            expect(len(fa.curve_tags) == m - idx, f"flop count at stage {idx} n={n}")
            expect(all(b["verified"] for b in bridges), f"bridge at stage {idx} n={n}")
            charts = [[c.name, [list(r) for r in c.rows]] for c in fa.atlas.charts]
            return [charts, fa.curve_tags, fa.floppable, bridges]

        add(f"build_flop_atlas stage={stage}", flop, check_flop)
    return items


def geometry_sweep(seed):
    """Public functions of polyring, charts, hilb, intersect and taut at
    n well above the published ranges; no exactnum or constel calls."""
    rng = random.Random(seed)
    items = []
    for n in GEOMETRY_NS:
        items += _geometry_items(n, rng)
    rng.shuffle(items)
    return items


WORKLOADS = {
    "verify-full": verify_full,
    "modules-large-n": modules_large_n,
    "geometry-sweep": geometry_sweep,
}
