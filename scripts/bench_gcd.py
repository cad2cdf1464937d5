"""Time the gcd layer: ``laurent.gcd_many`` against the pairwise subresultant gcd.

    python scripts/bench_gcd.py [--seed 1] [--out BENCH_gcd.json]

Run from anywhere; ``vka`` is imported from ``src/`` and the workloads
from ``perfbench/workloads.py``, which the script only reads.  For each
benchmark workload it builds the seeded request list in a temporary
directory, runs every request in-process through ``vka.cli.main`` with
``vka.invariants.gcd_many`` wrapped to capture its inputs, and then, on
those inputs:

- times ``gcd_many`` over the whole list (best of three);
- times the reference, ``laurent.gcd`` folded pair by pair (one pass);
- counts the calls with no nonzero input, with one, and the calls that
  reach ``laurent.gcd``;
- checks that both give equal values.

It writes one JSON record and exits 1 on any unequal value.  A run takes
a few seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from vka import cli, invariants, laurent  # noqa: E402

REPEATS = 3


def capture(workload, seed):
    """(polys, vars) of every ``gcd_many`` call the workload's requests make."""
    calls = []
    real = invariants.gcd_many

    def recording(polys, vars=None):
        polys = list(polys)
        calls.append((polys, vars))
        return real(polys, vars=vars)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="bench_gcd_") as work:
        os.chdir(ROOT)  # the workloads read corpus/ from the checkout root
        invariants.gcd_many = recording
        try:
            requests = workloads.build(workload, seed, pathlib.Path(work))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for request in requests:
                    cli.main(request)
        finally:
            invariants.gcd_many = real
            os.chdir(cwd)
    return calls


def pairwise(polys, vars):
    """The reference: ``laurent.gcd`` folded pair by pair, without shortcuts."""
    if not polys:
        return laurent.LaurentPoly.zero(vars)
    g = polys[0]
    for p in polys[1:]:
        g = laurent.gcd(g, p)
    return g.canonical()


def timed(fn, calls, repeats):
    best, values = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        values = [fn(polys, vars) for polys, vars in calls]
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return values, best


def fallback_calls(calls):
    """How many ``gcd_many`` calls reach ``laurent.gcd``."""
    reached = [0]
    real = laurent.gcd

    def counting(p, q):
        reached[0] += 1
        return real(p, q)

    laurent.gcd = counting
    try:
        count = 0
        for polys, vars in calls:
            before = reached[0]
            laurent.gcd_many(polys, vars=vars)
            count += reached[0] > before
    finally:
        laurent.gcd = real
    return count


def run(seed):
    results = {}
    for workload in workloads.WORKLOADS:
        calls = capture(workload, seed)
        values, gcd_many_s = timed(lambda polys, vars: laurent.gcd_many(polys, vars=vars), calls, REPEATS)
        reference, reference_s = timed(pairwise, calls, 1)
        unequal = sum(a != b for a, b in zip(values, reference))
        results[workload] = {
            "calls": len(calls),
            "inputs": sum(len(polys) for polys, _ in calls),
            "no_input_calls": sum(not any(polys) for polys, _ in calls),
            "single_input_calls": sum(sum(1 for p in polys if p) == 1 for polys, _ in calls),
            "fallback_calls": fallback_calls(calls),
            "gcd_many_s": round(gcd_many_s, 6),
            "reference_s": round(reference_s, 6),
            "unequal": unequal,
        }
        print(f"{workload}: {len(calls)} calls, gcd_many {gcd_many_s:.4f} s, "
              f"reference {reference_s:.4f} s, {results[workload]['fallback_calls']} reach laurent.gcd, "
              f"{unequal} unequal", file=sys.stderr)
    return {
        "schema": 1,
        "layer": "laurent.gcd_many",
        "workload": f"the gcd_many inputs of every benchmark workload's request list, seed {seed}",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "all_equal": all(r["unequal"] == 0 for r in results.values()),
        "workloads": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--out", default=str(ROOT / "BENCH_gcd.json"), help="where to write the record")
    args = parser.parse_args(argv)
    record = run(args.seed)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if record["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
