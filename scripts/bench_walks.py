"""Time the walk layer: the ``moves.random_walk`` calls of the fuzz-walks workload.

    python scripts/bench_walks.py [--seed 1] [--repeats 15] [--out BENCH_walks.json]

Run from anywhere; ``vka`` is imported from ``src/`` and the workload from
``perfbench/workloads.py``, which the script only reads.  It builds the
seeded fuzz-walks request list in a temporary directory, reads each
request's diagram, seed, step count, walk count and crossing cap the way
``vka fuzz`` does, and then times all of those walks in-process, without
the invariant profiles the CLI computes on their ends.  It records the
best and the median of ``--repeats`` passes and the sha256 of the walked
codes (one ``serialize_gauss`` text per walk, joined by newlines), which
must not change when only the speed of the walk does.  A run takes a few
seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from vka import cli, moves  # noqa: E402
from vka.diagram import parse_gauss, serialize_gauss  # noqa: E402

WORKLOAD = "fuzz-walks"


def walk_list(seed):
    """(diagram, seed, steps, max_crossings) of every walk the workload's requests make."""
    walks = []
    parser = cli.build_parser()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="bench_walks_") as work:
        os.chdir(ROOT)  # the workloads read corpus/ from the checkout root
        try:
            for request in workloads.build(WORKLOAD, seed, pathlib.Path(work)):
                args = parser.parse_args(request)
                d = parse_gauss(pathlib.Path(args.input).read_text(encoding="utf-8"))
                walks += [(d, args.seed + w, args.steps, args.max_crossings) for w in range(args.walks)]
        finally:
            os.chdir(cwd)
    return walks


def run(seed, repeats):
    walks = walk_list(seed)
    times, ends = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        ends = [moves.random_walk(d, s, steps, max_crossings=cap) for d, s, steps, cap in walks]
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256("\n".join(serialize_gauss(d) for d in ends).encode("utf-8")).hexdigest()
    print(f"{WORKLOAD}: {len(walks)} walks, best {min(times):.4f} s, "
          f"median {statistics.median(times):.4f} s, sha256 {digest[:16]}", file=sys.stderr)
    return {
        "schema": 1,
        "layer": "moves.random_walk",
        "workload": f"the walks of the {WORKLOAD} request list, seed {seed}",
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "walks": len(walks),
        "steps": sum(steps for _, _, steps, _ in walks),
        "repeats": repeats,
        "best_s": round(min(times), 6),
        "median_s": round(statistics.median(times), 6),
        "walked_sha256": digest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--repeats", type=int, default=15, help="timed passes over all walks")
    parser.add_argument("--out", default=str(ROOT / "BENCH_walks.json"), help="where to write the record")
    args = parser.parse_args(argv)
    record = run(args.seed, args.repeats)
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
