"""The vka benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a vka checkout; ``vka`` is imported from ``src/``.
Workloads are defined in ``workloads.py`` and listed, with the reason for
each, in ``BENCHMARK.json``.

Each round runs the workload's whole request list in a fresh process
(``worker.py``), so in-process caches do not carry from one round to the
next.  The host's speed drifts, so each round also times a fixed reference
task and its times are scaled to a fixed reference speed; a request's
latency is its median across the rounds (``end_to_end``).  ``--trace 0``
makes ``S / workloads.ROUND_SECONDS`` rounds (at least two) and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds,
two of each, and reports the per-layer metrics (``tracer.layer_report``).

After the rounds, outputs are checked (``oracle.py``) and compared across
rounds.  Human-readable lines come first; the last line of standard output
is the JSON result.  Run records and traces are written under
``.perfbench_work/``.  Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_ROUNDS = 2
TRACE_PAIRS = 2  # a traced run alternates untraced and traced rounds
RUN_DEADLINE_S = 170  # a run must end within 180 s
# Time of worker.reference when a 2-core x86-64 host with Python 3.11 runs
# at full speed; end-to-end times are scaled to it (see end_to_end).
REFERENCE_S = 100e-6
WORK = pathlib.Path(".perfbench_work")



def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def host_scales(references):
    """Per round, ``REFERENCE_S`` over the mean time of ``worker.reference``.

    The host's speed drifts between rounds; a round's times multiplied by
    its scale read as on a host where the reference task takes
    ``REFERENCE_S``.
    """
    return [REFERENCE_S / statistics.fmean(ref) for ref in references]


def end_to_end(latencies, scales, setups, rss):
    """End-to-end metrics from per-round latency lists (seconds) and round scales.

    A request's latency is the median across rounds of its scaled
    latency.  Set-up time (scaled the same way) and peak RSS are medians
    across rounds.
    """
    typical = [statistics.median(t * f for t, f in zip(per_round, scales)) for per_round in zip(*latencies)]
    return {
        "setup_s": statistics.median(t * f for t, f in zip(setups, scales)),
        "requests_per_s": len(typical) / sum(typical),
        "latency_p50_ms": percentile(typical, 50) * 1000,
        "latency_p90_ms": percentile(typical, 90) * 1000,
        "peak_rss_mb": statistics.median(rss),
    }


def _loadavg():
    try:
        return pathlib.Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _round(workload, seed, index, traced, deadline):
    work = WORK / f"{workload}-s{seed}"
    out = work / f"round-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), work.as_posix(), out.as_posix()]
    env = dict(os.environ, PYTHONHASHSEED="0")
    subprocess.run(cmd + (["--trace"] if traced else []), check=True, env=env,
                   stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text(encoding="utf-8"))


def run(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_DEADLINE_S
    env_record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
    }
    sys.path.insert(0, str(pathlib.Path("src").resolve()))
    import vka.cli  # noqa: F401  -- compiles the package once, before any timed set-up

    if trace:
        plan = [False, True] * TRACE_PAIRS
    else:
        plan = [False] * max(MIN_ROUNDS, round(seconds / workloads.ROUND_SECONDS[workload]))
    rounds = [_round(workload, seed, i, traced, deadline) for i, traced in enumerate(plan)]
    env_record["loadavg_end"] = _loadavg()

    import oracle
    import tracer

    requests = rounds[0]["requests"]
    outputs = [r["out"] for r in rounds[0]["results"]]
    failed = {rid for rnd in rounds for rid, r in enumerate(rnd["results"]) if r["rc"] != 0}
    failed |= {rid for rnd in rounds[1:] for rid, r in enumerate(rnd["results"]) if r["out"] != outputs[rid]}
    wrong, samples = oracle.check(workload, requests, outputs, random.Random(f"oracle:{workload}:{seed}"))
    failed |= wrong
    digest = hashlib.sha256("".join(outputs).encode("utf-8")).hexdigest()

    latencies = [[r["latency_s"] for r in rnd["results"]] for rnd in rounds]
    references = [[r["reference_s"] for r in rnd["results"]] for rnd in rounds]
    env_record["reference_us"] = [round(statistics.fmean(ref) * 1e6, 1) for ref in references]
    scales = host_scales(references)
    if trace:
        untraced = [[t * f for t in lat] for lat, f in zip(latencies[::2], scales[::2])]
        untraced = dict(enumerate(map(min, zip(*untraced))))
        metrics = tracer.layer_report([rnd["spans"] for rnd in rounds[1::2]], scales[1::2], untraced)
    else:
        metrics = end_to_end(latencies, scales, [rnd["setup_s"] for rnd in rounds],
                             [rnd["peak_rss_mb"] for rnd in rounds])
    record = {
        "workload": workload, "seed": seed, "trace": trace, "rounds": len(rounds),
        "requests": len(requests), "failed": sorted(failed), "digest": digest,
        "oracle_samples": samples, "environment": env_record, "metrics": metrics,
    }
    if trace:
        spans = [rnd["spans"] for rnd in rounds[1::2]]
        (WORK / f"{workload}-s{seed}" / "trace.json").write_text(json.dumps(spans))
    (WORK / f"{workload}-s{seed}" / f"result-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record, units):
    n, failed = record["requests"], len(record["failed"])
    print(f"workload {record['workload']}  seed {record['seed']}  rounds {record['rounds']}  "
          f"requests {n} (closed loop, one client)")
    env = record["environment"]
    print(f"python {env['python']}  nproc {env['nproc']}  loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    print(f"reference task, mean per round (us): {env['reference_us']}")
    print(f"error_rate {failed / n:.6f} ratio ({failed} of {n} requests failed)")
    print(f"output sha256 {record['digest']}")
    for label, size in record["oracle_samples"].items():
        print(f"oracle sample: {label}: {size}")
    for name, value in record["metrics"].items():
        print(f"{name} {value} {units.get(name, '')}".rstrip())
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not pathlib.Path("src/vka/cli.py").is_file():
        print("run.py: no src/vka here; run from the root of a vka checkout", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print(f"run.py: rounds did not finish within {RUN_DEADLINE_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"run.py: a round failed with status {exc.returncode}", file=sys.stderr)
        return 1
    report(record, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
