"""Time the module-matrix layer: Tietze elimination, unit-pivot reduction of words, merged A(u, v).

    python scripts/bench_modules.py [--out BENCH_modules.json]

Run from anywhere; ``vka`` is imported from ``src/``, and ``random_code``
and ``reduced_matrix`` from ``tests/oracles.py``.  For ``random_code`` seeds 0-4, long and closed,
at c = 8, 12, 20 and 30 crossings, and the quotients ``none`` and (long
diagrams only) ``end-minus``, the script times three routes to the
quotient's char polys at k = 0 and 1:

- ``tietze``: ``abelianize(tietze_eliminate(p))`` of the quotient's raw
  presentation p, then ``char_poly``;
- ``reduced``: ``reduced_matrix(p)``, the unit reduction of the
  abelianized relation words, then ``char_poly``;
- ``merged``: ``quotient_matrix(d, quotient)``, the unit reduction of the
  merged arc matrix A(u, v) less the killed end columns, then
  ``char_poly``; its build time starts from the diagram, not from p.

Each stage is timed as the best of three calls.  Each case records the
shape of every route's matrix, and the totals count the cases where the
merged matrix has more or fewer columns or rows than the reduced one.
The script checks that all routes give equal char polys and writes one
JSON record; it exits 1 if any value differs.  The whole run takes about
half a minute.
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

from oracles import random_code, reduced_matrix  # noqa: E402
from vka.alexander import abelianize, extended_presentation, tietze_eliminate  # noqa: E402
from vka.diagram import parse_gauss  # noqa: E402
from vka.invariants import _end_quotient, char_poly, quotient_matrix  # noqa: E402

CROSSINGS = (8, 12, 20, 30)
SEEDS = range(5)
KS = (0, 1)
REPEATS = 3


def _timed(fn):
    best = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def _route(build, p):
    """(matrix, char polys, build seconds, char poly seconds) of one route."""
    m, build_s = _timed(lambda: build(p))
    polys, polys_s = _timed(lambda: [char_poly(m, k) for k in KS])
    return m, polys, build_s, polys_s


def run():
    cases = []
    for crossings in CROSSINGS:
        for seed in SEEDS:
            for closed in (False, True):
                d = parse_gauss(random_code(random.Random(seed), crossings, closed=closed))
                for quotient in ("none",) if closed else ("none", "end-minus"):
                    p = _end_quotient(extended_presentation(d), quotient)
                    old, old_polys, old_build, old_polys_s = _route(lambda q: abelianize(tietze_eliminate(q)), p)
                    new, new_polys, new_build, new_polys_s = _route(reduced_matrix, p)
                    merged, merged_polys, merged_build, merged_polys_s = _route(lambda q: quotient_matrix(d, q), quotient)
                    cases.append({
                        "crossings": crossings, "seed": seed, "closed": closed, "quotient": quotient,
                        "tietze_shape": list(old.shape), "reduced_shape": list(new.shape),
                        "merged_shape": list(merged.shape),
                        "tietze_build_s": round(old_build, 6), "tietze_charpoly_s": round(old_polys_s, 6),
                        "reduced_build_s": round(new_build, 6), "reduced_charpoly_s": round(new_polys_s, 6),
                        "merged_build_s": round(merged_build, 6), "merged_charpoly_s": round(merged_polys_s, 6),
                        "equal": old_polys == new_polys == merged_polys,
                    })
                    print(f"c={crossings} seed={seed} {'closed' if closed else 'long'} {quotient}: "
                          f"tietze {old.shape} {old_build + old_polys_s:.4f} s, "
                          f"reduced {new.shape} {new_build + new_polys_s:.4f} s, "
                          f"merged {merged.shape} {merged_build + merged_polys_s:.4f} s", file=sys.stderr)
    totals = {}
    for crossings in CROSSINGS:
        rows = [c for c in cases if c["crossings"] == crossings]
        old = [c["tietze_build_s"] + c["tietze_charpoly_s"] for c in rows]
        new = [c["reduced_build_s"] + c["reduced_charpoly_s"] for c in rows]
        merged = [c["merged_build_s"] + c["merged_charpoly_s"] for c in rows]
        totals[str(crossings)] = {
            "tietze_s": round(sum(old), 6), "reduced_s": round(sum(new), 6), "merged_s": round(sum(merged), 6),
            "tietze_max_s": round(max(old), 6), "reduced_max_s": round(max(new), 6),
            "merged_max_s": round(max(merged), 6),
            "tietze_build_s": round(sum(c["tietze_build_s"] for c in rows), 6),
            "reduced_build_s": round(sum(c["reduced_build_s"] for c in rows), 6),
            "merged_build_s": round(sum(c["merged_build_s"] for c in rows), 6),
            "fewer_columns": sum(c["reduced_shape"][1] < c["tietze_shape"][1] for c in rows),
            "more_columns": sum(c["reduced_shape"][1] > c["tietze_shape"][1] for c in rows),
            "merged_more_rows": sum(c["merged_shape"][0] > c["reduced_shape"][0] for c in rows),
            "merged_fewer_rows": sum(c["merged_shape"][0] < c["reduced_shape"][0] for c in rows),
            "merged_more_columns": sum(c["merged_shape"][1] > c["reduced_shape"][1] for c in rows),
            "merged_fewer_columns": sum(c["merged_shape"][1] < c["reduced_shape"][1] for c in rows),
        }
    return {
        "schema": 1,
        "layer": "module matrix and char polys (k = 0, 1)",
        "workload": "random_code seeds 0-4, long and closed, quotients none and end-minus (long only)",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "all_equal": all(c["equal"] for c in cases),
        "totals_by_crossings": totals,
        "cases": cases,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_modules.json"), help="where to write the record")
    args = parser.parse_args(argv)
    record = run()
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if record["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
