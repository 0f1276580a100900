"""One benchmark pass in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed S --spawned-ns NS

``--spawned-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process (CLOCK_MONOTONIC is system-wide), so ``setup_s``
covers interpreter start-up and the package imports with empty caches.
``--trace`` wraps the layer boundaries (see tracer.py) and
``--setup-only`` exits once the package is imported.  The last line of
stdout is one JSON object with the pass's figures.
"""

# The package imports come first: setup_s ends when they are done, and the
# harness's own imports below are not part of it.
import sys
import time

from dihedral_mckay import (  # noqa: F401
    charts,
    cli,
    constel,
    exactnum,
    hilb,
    intersect,
    polyring,
    reps,
    taut,
    verify,
)

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


REF_S = 0.00035  # reference() on the 2-vCPU baseline machine at its fast level
TICK_S = 0.025


def reference():
    """A fixed loop of Fraction and dict work, the program's own mix."""
    acc, d = Fraction(0), {}
    for i in range(1, 81):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        d[i % 13] = d.get(i % 13, 0) + i
    return acc


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class SpeedClock:
    """Item time rescaled to a fixed reference speed.

    The machine's speed drifts by up to 2x over seconds (other tenants on
    the same cores), and CPU time drifts with it.  Every TICK_S a SIGALRM
    handler times ``reference()``; the item time since the previous tick
    is scaled by REF_S / (reference time), and the handler's own time is
    left out.  ``scaled`` is then the time the work would take at the
    reference speed.
    """

    def __init__(self):
        samples = sorted(time_reference() for _ in range(5))
        self.factor = REF_S / samples[2]
        self.scaled = 0.0
        self._since = None
        self._busy = False
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame):
        if self._busy:  # a tick that lands inside a slow tick is skipped
            return
        self._busy = True
        t0 = time.perf_counter()
        factor = REF_S / time_reference()
        if self._since is not None:
            self.scaled += (t0 - self._since) * (self.factor + factor) / 2
            self._since = time.perf_counter()
        self.factor = factor
        self._busy = False

    def start(self):
        self._since = time.perf_counter()

    def stop(self):
        self.scaled += (time.perf_counter() - self._since) * self.factor
        self._since = None

    def close(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(workload, seed, trace, speed):
    """Run every item; return (raw wall_s, labels, per-item digests, failures, tracer)."""
    tr = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
    items = workloads.WORKLOADS[workload](seed)
    clock = time.perf_counter
    wall = 0.0
    labels = [label for label, _, _ in items]
    digests, failures = [], []
    for label, call, check in items:
        t0 = clock()
        speed.start()
        try:
            out = call()
        except Exception as exc:  # a raising item is a failed item, not a crash
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            digests.append(None)
            continue
        finally:
            speed.stop()
            wall += clock() - t0
        try:
            canon = check(out)
            text = json.dumps(canon, sort_keys=True, default=str)
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        except Exception as exc:
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            digests.append(None)
    if tr is not None:
        tr.restore()
    return wall, labels, digests, failures, tr


DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def stored_digests(workload, seed):
    if seed != workloads.DEFAULT_SEED and workload not in workloads.SEED_INDEPENDENT:
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, [])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    setup = (READY_NS - args.spawned_ns) / 1e9
    speed = SpeedClock()
    result = {"setup_s": setup * speed.factor, "raw_setup_s": setup}
    if not args.setup_only:
        wall, labels, digests, failures, tr = run_pass(
            args.workload, args.seed, args.trace, speed
        )
        failed = {i for i, d in enumerate(digests) if d is None}
        want = stored_digests(args.workload, args.seed)
        if want is not None:
            if len(want) != len(digests):
                failures.append(f"{len(want)} stored digests for {len(digests)} items")
                failed = set(range(len(digests)))
            for i, (got, exp) in enumerate(zip(digests, want)):
                if got is not None and got != exp:
                    failures.append(f"{labels[i]}: output digest differs from the stored one")
                    failed.add(i)
        result.update(
            wall_s=speed.scaled,
            raw_wall_s=wall,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            attempted=len(digests),
            failed=len(failed),
            failures=failures,
            digests=digests,
            digest_checked=want is not None,
        )
        if tr is not None:
            tr.check_busy(args.workload)
            result["layers"] = {k: [v, unit] for k, (v, unit) in tr.metrics().items()}
            result["spans"] = tr.spans()
    speed.close()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    try:
        main()
    except tracer.BindingError as exc:
        print(f"tracer binding check failed: {exc}", file=sys.stderr)
        sys.exit(3)
    except Exception:
        traceback.print_exc()
        sys.exit(2)
