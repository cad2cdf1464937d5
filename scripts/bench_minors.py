"""Time the minors layer: packed-integer minors against the Laurent Bareiss reference.

    python scripts/bench_minors.py [--out BENCH_minors.json]

Run from anywhere; ``vka`` is imported from ``src/`` and the reference from
``tests/oracles.py``.  For ``random_code`` seeds 0-4, long and closed, at
c = 8, 12, 20 and 30 crossings, with k = 0 and 1, the script times
``elementary_minors`` (best of three calls) and the same minors by
``det_exact_reference`` (one call) on ``quotient_matrix(d)``, the
unit-reduced module matrix that every ``--charpoly`` and ``fuzz`` request
packs, checks that both give equal minors, and writes one JSON record.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from oracles import minors_reference, random_code  # noqa: E402
from vka.diagram import parse_gauss  # noqa: E402
from vka.invariants import elementary_minors, quotient_matrix  # noqa: E402

CROSSINGS = (8, 12, 20, 30)
SEEDS = range(5)
KS = (0, 1)
REPEATS = 3


def _timed(fn, repeats):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def run():
    cases = []
    for crossings in CROSSINGS:
        for seed in SEEDS:
            for closed in (False, True):
                d = parse_gauss(random_code(random.Random(seed), crossings, closed=closed))
                m = quotient_matrix(d)
                for k in KS:
                    packed, packed_s = _timed(lambda: elementary_minors(m, k), REPEATS)
                    reference, reference_s = _timed(lambda: minors_reference(m, k), 1)
                    cases.append({
                        "crossings": crossings, "seed": seed, "closed": closed, "k": k,
                        "shape": list(m.shape), "minors": len(packed),
                        "packed_s": round(packed_s, 6), "reference_s": round(reference_s, 6),
                        "equal": packed == reference,
                    })
                    print(f"c={crossings} seed={seed} {'closed' if closed else 'long'} k={k} "
                          f"{m.shape[0]}x{m.shape[1]} {len(packed)} minors: "
                          f"packed {packed_s:.4f} s, reference {reference_s:.4f} s", file=sys.stderr)
    totals = {}
    for crossings in CROSSINGS:
        rows = [c for c in cases if c["crossings"] == crossings]
        packed = sum(c["packed_s"] for c in rows)
        reference = sum(c["reference_s"] for c in rows)
        totals[str(crossings)] = {
            "packed_s": round(packed, 6), "reference_s": round(reference, 6),
            "packed_max_s": max(c["packed_s"] for c in rows),
            "reference_max_s": max(c["reference_s"] for c in rows),
        }
    return {
        "schema": 1,
        "layer": "invariants.elementary_minors",
        "workload": "quotient_matrix of random_code seeds 0-4, long and closed, no quotient, k = 0 and 1",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "all_equal": all(c["equal"] for c in cases),
        "totals_by_crossings": totals,
        "cases": cases,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_minors.json"), help="where to write the record")
    args = parser.parse_args(argv)
    record = run()
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if record["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
