"""Benchmark harness for dihedral_mckay (stdlib only).

Run one workload from the repository root:

    python3 perfbench/run.py --workload verify-full --seed 0 --seconds 15 --trace 0

Every pass runs in a fresh interpreter (perfbench/worker.py), so the
package's lru_caches start empty and their filling is measured.  Passes
run back to back, one client in a closed loop, until ``--seconds`` have
gone by (at least one pass).  ``--trace 1`` instead runs one plain and
one traced pass and reports the per-layer metrics.  The last stdout line
is the JSON result; every run is also appended, with an environment
stamp, to ``--out`` (default .perfbench/runs.jsonl).

    python3 perfbench/run.py --compare A.jsonl B.jsonl
    python3 perfbench/run.py --record-digests

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("verify-full", "modules-large-n", "geometry-sweep")
SETUP_SPAWNS = 7  # extra import-only interpreters per run, for the setup_s median
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, *flags):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    argv += ["--spawned-ns", str(time.monotonic_ns()), *flags]
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def env_stamp(seed, load_start):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "seed": seed,
        "commit": git_commit(),
        "cpu_pinning": "not used",
        "frequency_control": "not used",
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed, seconds, trace):
    """One benchmark run: returns (record, metrics for the result line)."""
    load_start = list(os.getloadavg())
    setups = []
    if trace:
        passes = [spawn(workload, seed), spawn(workload, seed, "--trace")]
    else:
        setups = [spawn(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_SPAWNS)]
        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            passes.append(spawn(workload, seed))
    setups += [p["setup_s"] for p in passes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = passes[:1] if trace else passes
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
    }
    if trace:
        plain, traced = passes
        metrics = {k: tuple(vu) for k, vu in traced["layers"].items()}
        metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    else:
        metrics = e2e
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "digest_checked": all(p["digest_checked"] for p in passes),
        "setup_samples": setups,
        "passes": [
            {k: p[k] for k in ("setup_s", "raw_setup_s", "wall_s", "raw_wall_s", "peak_rss_mb")}
            for p in passes
        ],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env_stamp(seed, load_start),
    }
    if trace:
        record["spans"] = passes[1]["spans"]
    return record, metrics


def print_summary(record):
    r = record
    print(
        f"{r['workload']} seed={r['seed']} trace={int(r['trace'])}: {len(r['passes'])} pass(es), "
        f"{r['attempted']} items, {r['failed']} failed, digests checked: {r['digest_checked']}"
    )
    for name in ("setup_s", "wall_s", "peak_rss_mb"):
        m = r["end_to_end"][name]
        print(f"  {name:<12} {m['value']:.4f} {m['unit']}")
    raw = statistics.median(p["raw_wall_s"] for p in r["passes"][: 1 if r["trace"] else None])
    print(f"  {'raw wall':<12} {raw:.4f} s (median of the passes, not rescaled)")
    print(f"  {'failed_frac':<12} {r['failed_frac']:.4f} ({r['failed']}/{r['attempted']})")
    for f in r["failures"]:
        print(f"  FAILED {f}")


# --- compare mode ---------------------------------------------------------


def load_runs(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(path_a, path_b):
    """Print each workload and metric with both sides' medians, quartiles and ratio."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        grouped = {}
        for run in load_runs(path):
            for name, m in run["metrics"].items():
                grouped.setdefault((run["workload"], name), []).append(m["value"])
        sides.append(grouped)
    keys = sorted(set(sides[0]) & set(sides[1]))
    print(f"A = {path_a}\nB = {path_b}")
    for workload, name in keys:
        a, b = sides[0][(workload, name)], sides[1][(workload, name)]
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        status = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
            worse = ratio - 1 if bounds[name]["better"] == "lower" else 1 - ratio
            if spread > bound:
                status = f"unresolved: spread {spread:.3f} > bound {bound}"
            elif worse > bound:
                status = f"worse by more than the bound {bound}"
            else:
                status = f"within the bound {bound}"
        print(
            f"{workload:<16} {name:<46}"
            f" A {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(a)}"
            f"  B {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b)}"
            f"  B/A {ratio:.3f}  {status}"
        )


def record_digests():
    """Store the per-item output digests of every workload at the default seed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    stored = {}
    for workload in WORKLOADS:
        result = spawn(workload, workloads.DEFAULT_SEED)
        if any(d is None for d in result["digests"]):
            raise BenchError(f"{workload}: items fail, not recording: {result['failures']}")
        stored[workload] = result["digests"]
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    p = argparse.ArgumentParser(description="dihedral_mckay benchmark")
    p.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench", "runs.jsonl"))
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "dihedral_mckay")):
        print(f"no package at {os.path.join(ROOT, 'src', 'dihedral_mckay')}", file=sys.stderr)
        return 2
    if args.compare:
        compare(*args.compare)
        return 0
    if args.record_digests:
        record_digests()
        return 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            record, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print_summary(record)
        line = {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
