"""Command-line front end.

Every subcommand emits a deterministic artifact: JSON envelopes are
{"kind": <subcommand>, "n": n, "payload": ...} with sorted keys, DOT
output is canonical, and table output is plain text.  Exit codes: 0 on
success, 1 on a usage error, 2 on a verification failure or an internal
error.

An artifact subcommand's formats, renderers and envelope are declared
once, in ARTIFACTS: its --format choices are the keys of its entry.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import constel, hilb, taut, verify
from .intersect import an_chain, domination_chain, dual_graph_dot, z2_fold
from .reps import GroupSpec, char_table, mckay_quiver, quiver_to_dot, table_to_json

class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text):
    try:
        a, b = text.split("..")
        lo, hi = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}, expected A..B") from exc
    if lo > hi or lo < 3:
        raise UsageError(f"range {text!r} must satisfy 3 <= A <= B")
    return lo, hi


def _fraction(option, text):
    """A rational option value; a malformed one is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{option}: {text!r} is not a rational number") from exc


def _emit(args, text):
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc


def _chartable_text(args):
    table = char_table(GroupSpec("dihedral", args.n))
    classes = [c.label for c in table.group.classes]
    lines = ["\t".join(["rep"] + classes)]
    for chi in table:
        lines.append(
            "\t".join([chi.name] + [repr(v) for v in chi.values])
        )
    return "\n".join(lines) + "\n"


def _atlas_dot(args):
    atlas = hilb.hilb_atlas(args.n)
    lines = [f'graph "{atlas.name}" {{']
    for a, b in atlas.adjacency():
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _strict_transforms(args):
    n = args.n
    records = sorted(hilb.boundary_strict_transforms(n).items())
    if n % 2:
        records.append((("B3", "Ainv"), hilb.invariant_chart_boundary(n)))
    return [
        {
            "boundary": label,
            "chart": cname,
            "strict": str(rec["strict"]),
            "orders": {k: v for k, v in sorted(rec["orders"].items())},
            "certificate": rec["certificate"],
        }
        for (label, cname), rec in records
    ]


def _parse_theta(n, text):
    table = char_table(GroupSpec("dihedral", n))
    parts = [s.strip() for s in text.split(",")]
    names = table.names()
    if len(parts) != len(names):
        raise UsageError(
            f"--theta needs {len(names)} values for {', '.join(names)}"
        )
    values = {name: _fraction("--theta", v) for name, v in zip(names, parts)}
    try:
        return constel.StabilityParam.make(n, values)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_family(spec, dim):
    """Sparse seed-vector lists from a JSON file, or None for the default family.

    Every level must be a JSON list: a string or object reads as its keys.
    Every vector must have dim entries: each module of the socle table has
    dimension 2n."""
    if spec == "default":
        return None
    try:
        with open(spec, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise UsageError(f"--family: {exc}") from exc
    if not (
        isinstance(raw, list)
        and all(isinstance(seeds, list) for seeds in raw)
        and all(isinstance(vec, list) for seeds in raw for vec in seeds)
    ):
        raise UsageError("--family must be a JSON list of seed-vector lists")
    family = [[[_fraction("--family", str(c)) for c in vec] for vec in seeds] for seeds in raw]
    for seeds in family:
        for vec in seeds:
            if len(vec) != dim:
                raise UsageError(
                    f"--family: a seed vector has {len(vec)} entries, but every module "
                    f"of the socle table has dimension {dim}"
                )
    return [[{i: c for i, c in enumerate(vec) if c} for vec in seeds] for seeds in family]


def _socle_table(args):
    n = args.n
    alpha = _fraction("--alpha", args.alpha)
    if alpha in (-1, 0, 1):
        raise UsageError("--alpha must avoid 0 and +-1")
    if args.family != "default" and not args.theta:
        raise UsageError("--family needs --theta")
    theta = _parse_theta(n, args.theta) if args.theta else None
    family = _load_family(args.family, 2 * n)
    rows = constel.socle_table(n, alpha=alpha, theta=theta, family=family)
    if theta is not None:
        for row in rows:
            verdict = row["theta"]
            row["theta"] = (
                {"verdict": "destabilized-by", "class": verdict.cls, "value": str(verdict.value)}
                if verdict.destabilized
                else {"verdict": "no-violation-found"}
            )
    rows.append({"stratum": "off-exceptional", **constel.off_exceptional_report(n)})
    return rows


def _taut_text(args):
    n = args.n
    stack = taut.build_ledger(n, "stack")
    coarse = taut.build_ledger(n, "coarse")
    return taut.ledger_markdown(n, stack, "stack") + "\n" + taut.ledger_markdown(
        n, coarse, "coarse"
    )


def _taut_json(args):
    n = args.n
    stack = taut.build_ledger(n, "stack")
    coarse = taut.build_ledger(n, "coarse")
    twist = taut.stack_twist_class(n)
    return {
        "stack": taut.ledger_to_json(stack),
        "coarse": taut.ledger_to_json(coarse),
        "torsion_twist": {
            "class": {k: str(v) for k, v in twist.coeffs},
            "order_two": taut.torsion_check(n, twist),
        },
    }


def _refdiv(args):
    n = args.n
    m = hilb.half_index(n)
    if args.k is not None and not 1 <= args.k <= m:
        raise UsageError(f"--k must lie in 1..{m} for n = {n}")
    return taut.refdivisor_certify(n, args.k)


# Each artifact subcommand: its help text and its renderers, "json" first.
# A "json" renderer returns the payload of the subcommand's envelope, and any
# other renderer returns the text to emit.
ARTIFACTS = {
    "chartable": ("character table of D_2n", {
        "json": lambda args: table_to_json(char_table(GroupSpec("dihedral", args.n))),
        "table": _chartable_text,
    }),
    "quiver": ("McKay quiver", {
        "json": lambda args: mckay_quiver(args.n),
        "dot": lambda args: quiver_to_dot(mckay_quiver(args.n)),
    }),
    "hilb-atlas": ("chart atlas of the order-n Hilbert scheme", {
        "json": lambda args: hilb.hilb_atlas(args.n).to_json(),
        "dot": _atlas_dot,
    }),
    "fixed-points": ("Z_2-fixed cluster points with certificates", {
        "json": lambda args: [
            {"point": p.label, "certificate": cert} for p, cert in hilb.fixed_points(args.n)
        ],
    }),
    "strict-transforms": ("boundary strict transforms per chart", {"json": _strict_transforms}),
    "fold": ("folded intersection configuration", {
        "json": lambda args: z2_fold(an_chain(args.n - 1), args.n).to_json(),
        "dot": lambda args: dual_graph_dot(
            z2_fold(an_chain(args.n - 1), args.n), name=f"fold_n{args.n}"
        ),
    }),
    "chain": ("blow-down chain from the fold", {
        "json": lambda args: [cfg.to_json() for cfg in domination_chain(args.n)],
    }),
    "socle-table": ("socle/top table with witnesses", {"json": _socle_table}),
    "taut-table": ("tautological ledgers (stack and coarse)", {
        "json": _taut_json,
        "table": _taut_text,
    }),
    "fm-table": ("Fourier-Mukai image table", {
        "json": lambda args: {
            "table": taut.fm_table(args.n),
            "socle_cross_check": taut.fm_cross_check(args.n, constel.socle_table(args.n)),
        },
    }),
    "refdiv": ("transversal-divisor certificate", {"json": _refdiv}),
}


def build_parser():
    # the docstring's last paragraph is for readers of the code, not of --help
    p = Parser(prog="dimckay", description=__doc__.rsplit("\n\n", 1)[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, renderers) in ARTIFACTS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--n", type=int, required=True, help="group parameter (n >= 3)")
        sp.add_argument("--format", choices=tuple(renderers), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp = sub.choices["socle-table"]
    sp.add_argument("--alpha", default="1/2", help="generic-stratum witness parameter")
    sp.add_argument("--theta", default=None, help="csv of rationals, one per irreducible")
    sp.add_argument(
        "--family", default="default", help="'default' or a JSON seeds file"
    )
    sp = sub.choices["refdiv"]
    sp.add_argument("--k", type=int, default=None, help="curve index (default m)")
    sp = sub.add_parser("verify", help="run the acceptance suite")
    sp.add_argument("--n-range", default=None, help="clip ranges to A..B")
    sp.add_argument("--format", choices=("json", "table"), default="table")
    sp.add_argument("--out", default=None)
    return p


def _artifact(args):
    """Render the requested artifact; a "json" one goes in its envelope."""
    if args.n < 3:
        raise UsageError("--n must be at least 3")
    out = ARTIFACTS[args.command][1][args.format](args)
    if args.format == "json":
        doc = {"kind": args.command, "n": args.n, "payload": out}
        out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    _emit(args, out)
    return 0


def cmd_verify(args):
    n_range = _parse_range(args.n_range) if args.n_range else None
    lines = []
    results = verify.run_all(lines.append, n_range=n_range)
    passed = sum(1 for r in results if r["passed"])
    lines.append(f"{passed}/{len(results)} criteria passed")
    print("\n".join(lines))
    if args.format == "json" or args.out:
        doc = {"kind": "verify", "n_range": args.n_range, "payload": results}
        _emit(args, json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0 if passed == len(results) else 2


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return cmd_verify(args) if args.command == "verify" else _artifact(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # an internal failure, never a usage error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
