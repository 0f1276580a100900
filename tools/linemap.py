"""List the package statements that the product never runs.

    python3 tools/linemap.py

The product is what the package is for: the eleven acceptance criteria at
their full ranges, the golden CLI cases of tests/test_golden.py run in
process, and the three benchmark workloads of perfbench/workloads.py at
seed 0.  Under ``sys.settrace``, limited to frames of src/dihedral_mckay,
the script records every line those runs execute.  It then prints
``module:line: text`` for each statement none of them ran, a lambda counting
as run once it is called, and the count per module.  A compound statement
(``if``, ``for``, ``def`` ...) counts by its header lines.

Standard library only, opt-in, and not part of tier-1: it takes about half
a minute.  It imports perfbench/workloads.py read-only and writes no
bytecode cache.  It exits 0 whatever the list holds, and stops on a golden
case that fails.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dihedral_mckay"


def _golden_cases():
    """The argv lists of tests/test_golden.py's CASES, read without importing it."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CASES"]:
            return ast.literal_eval(node.value)
    raise SystemExit("tests/test_golden.py defines no CASES")


def _run_product():
    """The runs of the product map; the package is imported here, under the trace."""
    from dihedral_mckay import cli, verify

    verify.run_all(lambda line: None)
    for argv in _golden_cases().values():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"golden case {argv} failed")
    import workloads

    for build in workloads.WORKLOADS.values():
        for _label, call, check in build(workloads.DEFAULT_SEED):
            check(call())


def _trace(lines, calls):
    """A settrace function that records (file, line) events and (file, first
    line) calls of every frame whose code lies in the package."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        calls.add((code.co_filename, code.co_firstlineno))
        return local

    return start


def _statements(tree):
    """(line, header lines, is a lambda) of each statement and lambda that runs
    code: docstrings, ``global`` and ``nonlocal`` run none."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            yield node.lineno, (), True
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(first, last + 1), False


def main():
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    lines, calls = set(), set()
    sys.settrace(_trace(lines, calls))
    try:
        _run_product()
    finally:
        sys.settrace(None)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text, name = source.splitlines(), str(path)
        unrun = sorted(
            lineno
            for lineno, header, is_lambda in _statements(ast.parse(source))
            if not (
                (name, lineno) in calls
                if is_lambda
                else any((name, i) in lines for i in header)
            )
        )
        for lineno in unrun:
            print(f"{path.stem}:{lineno}: {text[lineno - 1].strip()}")
        counts[path.stem] = len(unrun)
    print()
    for stem, count in counts.items():
        print(f"{stem:<10} {count:>4}")
    print(f"{'total':<10} {sum(counts.values()):>4} statements the product never runs")


if __name__ == "__main__":
    main()
