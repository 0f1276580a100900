"""Divisor-class ledgers for the tautological bundles and the
Fourier-Mukai image table.

Classes live in a common rational basis {E_1..E_m, supp B_*, D, D_1..D_m, L}
on the quotient surface; stacky divisors are half-integer multiples of
the boundary supports (2 * calB_i = supp B_i).  Their pairings with the
exceptional curves are read off the fold (intersect) and the chart
computations (hilb) once per n, by pairing_table, and shared read-only;
the defining relation 2L = -(sum of boundary supports) fixes the L column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import constel, hilb, intersect
from .exactnum import ReadOnly, as_fraction
from .reps import GroupSpec, char_table, decompose, restrict


class DivisorClass(ReadOnly):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)  # sorted (label, Fraction) pairs

    @classmethod
    def make(cls, d):
        coeffs = [(k, as_fraction(v)) for k, v in d.items()]
        return cls(tuple(sorted((k, v) for k, v in coeffs if v != 0)))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs:
            out[k] = out.get(k, Fraction(0)) + v
        return DivisorClass.make(out)

    def scale(self, q):
        return DivisorClass.make({k: v * q for k, v in self.coeffs})

    def pretty(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, v in self.coeffs:
            if v == 1:
                parts.append(k)
            elif v == -1:
                parts.append(f"-{k}")
            else:
                parts.append(f"{v}*{k}")
        return " + ".join(parts).replace("+ -", "- ")


class PairingTable(ReadOnly):
    """Pairings of the basis divisors with the exceptional curves E_j.

    The E and supp<B> rows are read off the fold, whose boundary pairings
    come from the chart computations in hilb.  Table and rows are read-only: see pairing_table.
    """

    __slots__ = ("rows",)

    def __init__(self, n):
        fold = intersect.z2_fold(intersect.an_chain(n - 1), n)
        curves = fold.labels
        rows = {a: {b: fold.pair(a, b) for b in curves} for a in curves}
        for lab in fold.boundary:
            rows[f"supp{lab}"] = {e: fold.pair(e, lab) for e in curves}
        # the family D_i, with the distinguished transversal D = D_m
        for i, a in enumerate(curves, 1):
            rows[f"D{i}"] = {e: Fraction(int(e == a)) for e in curves}
        # 2L = -(sum of boundary supports)
        rows["L"] = {
            e: -sum((fold.pair(e, b) for b in fold.boundary), Fraction(0)) / 2 for e in curves
        }
        rows = {lab: MappingProxyType(row) for lab, row in rows.items()}
        rows["D"] = rows[f"D{hilb.half_index(n)}"]
        object.__setattr__(self, "rows", MappingProxyType(rows))

    def pair(self, cls, curve):
        return sum((coeff * self.rows[lab][curve] for lab, coeff in cls.coeffs), Fraction(0))


@lru_cache(maxsize=None)
def pairing_table(n):
    """PairingTable(n), once per n per process; a fold failure is raised on every call."""
    return PairingTable(n)


def torsion_check(n, cls):
    """2 * cls pairs to zero with every exceptional curve.

    This is the numerical shadow of 2*cls ~ 0; boundary-support
    self-pairings are not defined for the non-compact boundary curves,
    so the check runs over the exceptional curves of ``pairing_table(n)``.
    """
    table = pairing_table(n)
    doubled = cls.scale(2)
    return all(table.pair(doubled, f"E{j}") == 0 for j in range(1, hilb.half_index(n) + 1))


def stack_twist_class(n):
    """The order-2 twist: calB3 - calD (odd) or calB1 - calB2 (even)."""
    if n % 2:
        return DivisorClass.make({"suppB3": Fraction(1, 2), "D": -1})
    return DivisorClass.make({"suppB1": Fraction(1, 2), "suppB2": Fraction(-1, 2)})


def build_ledger(n, space):
    """Tautological tables on the stack or the coarse space.

    The spaces differ in the twist (the order-2 class on the stack, L on
    the coarse space), in the rank-2 entries (unique nontrivial extensions
    on the stack, split on the coarse space) and in rho_(n/2): half a
    boundary support on the stack, a support plus L on the coarse space.
    Each entry is a dict {"rep", "rank", "c1", "description", "extension"}
    with c1 a DivisorClass and extension "line", "split" or
    "unique-nontrivial".
    """
    if space not in ("stack", "coarse"):
        raise ValueError("space must be 'stack' or 'coarse'")
    stack = space == "stack"
    L = DivisorClass.make({"L": 1})
    twist = stack_twist_class(n) if stack else L
    entries = []
    table = char_table(GroupSpec("dihedral", n))
    for chi in table:
        name = chi.name
        rank, extension = 1, "line"
        if name == "rho0":
            c1, text = DivisorClass.make({}), "O"
        elif name == "rho0'":
            c1, text = twist, f"O({twist.pretty()})"
        elif int(chi.degree) == 2:
            rank = 2
            c1 = DivisorClass.make({f"D{table.index[name]}": 1}) + twist
            if stack:
                text = f"0 -> O -> R^({name}) -> O({c1.pretty()}) -> 0"
                extension = "unique-nontrivial"
            else:
                text, extension = f"O (+) O({c1.pretty()})", "split"
        else:  # rho_{n/2} and rho_{n/2}'
            lab = "suppB1" if not name.endswith("'") else "suppB2"
            if stack:
                c1 = DivisorClass.make({lab: Fraction(1, 2)})
            else:
                c1 = DivisorClass.make({lab: 1}) + L
            text = f"O({c1.pretty()})"
        # rank bookkeeping must match degrees
        if rank != int(chi.degree):
            raise hilb.CertificateFailure(f"rank of {name} differs from its degree")
        entries.append(
            {"rep": name, "rank": rank, "c1": c1, "description": text, "extension": extension}
        )
    return entries


def ledger_to_json(entries):
    return [{**e, "c1": {k: str(v) for k, v in e["c1"].coeffs}} for e in entries]


def ledger_markdown(n, entries, space):
    title = "Tautological bundles on the stack" if space == "stack" else (
        "Tautological sheaves on the coarse space"
    )
    lines = [f"# {title} (n = {n})", "", "| rep | rank | description | c1 |", "|---|---|---|---|"]
    for e in entries:
        lines.append(f"| {e['rep']} | {e['rank']} | {e['description']} | {e['c1'].pretty()} |")
    return "\n".join(lines) + "\n"


def pushforward_identities(n):
    """Character-level p_* identities between the two tautological families.

    Both sides read the McKay index j of CharTable.index: Ind eps_i is the
    sum of the dihedral irreducibles of index min(i, n - i) (rho0 + rho0'
    for i = 0, rho_(n/2) + rho_(n/2)' for i = n/2, rho_i otherwise), and
    Res rho_j = eps_j + eps_(n-j), a single eps_j when j = 0 or n/2.

    Ind eps_i is the module C.v + C.tau(v) with v of weight i, so it is
    decomposed from its weight data, counts 1 at i and at -i mod n and
    every tau trace 0, by constel.decompose_weights.
    """
    cyc = char_table(GroupSpec("cyclic", n))
    dih = char_table(GroupSpec("dihedral", n))
    report = []
    for eps in cyc:
        i = cyc.index[eps.name]
        counts = [0] * n
        counts[i] += 1
        counts[-i % n] += 1
        ind = constel.decompose_weights(f"Ind {eps.name}", n, counts, [0] * n)
        want = {c.name: 1 for c in dih if dih.index[c.name] == min(i, n - i)}
        if ind != want:
            raise hilb.CertificateFailure(f"Ind {eps.name} = {ind}, expected {want}")
        report.append({"eps": eps.name, "induced": ind})
    for chi in dih:
        j = dih.index[chi.name]
        res = decompose(restrict(chi))
        want = {c.name: 1 for c in cyc if cyc.index[c.name] in (j, n - j)}
        if res != want:
            raise hilb.CertificateFailure(f"Res {chi.name} = {res}, expected {want}")
        report.append({"rho": chi.name, "restricted": res})
    return report


def fm_table(n):
    """Fourier-Mukai images of the origin skyscrapers on the quotient stack.

    The McKay index j of CharTable.index fixes the support and the shift:
    E_j and 1 for j >= 1, F and 0 for rho0, rho0'.  Only the twist is chosen
    per case: (B3-D) or (B1-B2) on rho0', -B3 on rho_m for odd n, and -B1,
    -B2 on rho_(n/2), rho_(n/2)'.
    """
    m = hilb.half_index(n)
    table = char_table(GroupSpec("dihedral", n))
    out = []
    for chi in table:
        j, primed = table.index[chi.name], chi.name.endswith("'")
        twist = "none"
        if j == 0 and primed:
            twist = "(B3-D)" if n % 2 else "(B1-B2)"
        elif j == m:
            twist = "-B3" if n % 2 else ("-B2" if primed else "-B1")
        support = f"E{j}" if j else "F"
        out.append({"rep": chi.name, "support": support, "twist": twist, "shift": int(j > 0)})
    return out


def fm_cross_check(n, rows):
    """Supports of the FM images against the socle strata.

    ``rows`` is ``constel.socle_table(n)``, passed in by the caller that
    has built and checked it (verify criterion 9, the fm-table command).
    For every representation with a curve support E_k the socle table
    must show it exactly on the strata touching E_k (the generic stratum
    of E_k plus incident points); rho0, rho0' have support F and appear
    in the top on every exceptional witness instead.  For even n the
    twists -B1/-B2 match the exclusion of the representation from the
    socle at the opposite stacky point.
    """
    strata_curves = {row["stratum"]: constel.stratum_curves(n, row["stratum"]) for row in rows}
    table = fm_table(n)
    for entry in table:
        rep, support = entry["rep"], entry["support"]
        if support == "F":
            for row in rows:
                if rep not in row["top"] and row["twist"] is None:
                    raise hilb.CertificateFailure(
                        f"{rep}: missing from the top on {row['stratum']}"
                    )
            continue
        for row in rows:
            present = rep in row["socle"]
            touches = int(support[1:]) in strata_curves[row["stratum"]]
            if present and not touches:
                raise hilb.CertificateFailure(
                    f"{rep}: socle appearance off its support at {row['stratum']}"
                )
            if row["stratum"] == support and not present:
                raise hilb.CertificateFailure(
                    f"{rep}: missing from the socle on its generic stratum"
                )
        if entry["twist"] in ("-B1", "-B2"):
            point = entry["twist"][1:]
            bad = next(r for r in rows if r["stratum"] == point)
            if rep in bad["socle"]:
                raise hilb.CertificateFailure(f"{rep}: should be excluded at {point}")
    return {"n": n, "checked": len(table), "strata": len(rows)}


def refdivisor_certify(n, k=None):
    """Package the transversal-divisor certificate from the chart data."""
    m = hilb.half_index(n)
    k = m if k is None else k
    data = hilb.refdiv_data(n, k)
    want = {f"E{j}": (1 if j == k else 0) for j in range(1, m + 1)}
    if data["intersections"] != want:
        raise hilb.CertificateFailure(f"W_{k} pairings {data['intersections']} != {want}")
    return data
