"""Report the memory that the package's process memos hold after the criteria.

    python3 tools/memos.py [--n-range A..B]

In one process under ``tracemalloc``, started before the package is
imported, the script runs the eleven acceptance criteria in order
(``verify.CRITERIA``, each clipped to --n-range as ``dimckay verify
--n-range`` clips it).  For each criterion it prints the MB held after it
and its peak while it ran, both above the baseline taken once the package
is imported.  Then it lists every memo of the package, found as
tests/test_source.py finds them: each module attribute with ``cache_info``,
in the module that defines it.  For each memo it prints the entries, the
hits and the MB freed by clearing that memo alone; the next line frees all
of them at once.  Each clearing runs in a forked child, so every memo is
measured on the same state and an object that two memos share is freed by
neither alone.  The closing line names the run's highest peak and the
criterion it occurred in.  MB are 2**20 bytes.

Standard library only (POSIX, for ``os.fork``) and opt-in; tier-1 runs it
on 3..4 only.  The published ranges take about fifteen seconds.  It writes no
bytecode cache, and exits 1 if a criterion fails, after the whole report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dihedral_mckay"
MB = 1 << 20


def _n_range(text):
    lo, hi = (int(x) for x in text.split(".."))
    return lo, hi


def _held():
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def find_memos():
    """(name, memo) of every lru_cache in the package, sorted by name."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        module = importlib.import_module(f"dihedral_mckay.{path.stem}")
        found += [
            (f"{path.stem}.{name}", obj)
            for name, obj in vars(module).items()
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
        ]
    return sorted(found)


def freed_by_clearing(memos):
    """Bytes that clearing memos frees, measured in a forked child; this
    process keeps every entry."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        before = _held()
        for memo in memos:
            memo.cache_clear()
        os.write(write, str(before - _held()).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as pipe:
        freed = int(pipe.read())
    os.waitpid(pid, 0)
    return freed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-range", type=_n_range, metavar="A..B", help="clip the criteria")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    tracemalloc.start()
    memos = find_memos()  # imports every module of the package
    from dihedral_mckay import verify

    base = _held()
    print("MB above the import baseline")
    print(f"{'criterion':<28}{'held after':>11}{'peak':>9}")
    failed, peaks = False, []
    for cid, criterion in enumerate(verify.CRITERIA, 1):
        tracemalloc.reset_peak()
        try:
            passed = criterion(n_range=args.n_range)["passed"]
        except Exception:
            passed = False
        peak = tracemalloc.get_traced_memory()[1]
        status = "" if passed else "  FAIL"
        failed |= not passed
        label = f"{cid:>2} {verify.NAMES[cid - 1]}"
        print(f"{label:<28}{(_held() - base) / MB:>11.3f}{(peak - base) / MB:>9.3f}{status}")
        peaks.append(peak)
    print()
    print(f"{'memo':<38}{'entries':>8}{'hits':>8}{'freed MB':>10}")
    for name, memo in memos:
        info = memo.cache_info()
        freed = freed_by_clearing([memo]) / MB
        print(f"{name:<38}{info.currsize:>8}{info.hits:>8}{freed:>10.3f}")
    total = freed_by_clearing([memo for _, memo in memos]) / MB
    print(f"{f'all {len(memos)} memos':<54}{total:>10.3f}")
    top = max(range(len(peaks)), key=peaks.__getitem__)  # the first, on a tie
    name = f"criterion {top + 1} ({verify.NAMES[top]})"
    print(f"highest peak {(peaks[top] - base) / MB:.3f} MB, in {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
