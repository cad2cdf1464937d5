"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR OUT [--trace]

Run from the checkout root.  Set-up (importing ``vka``, generating the
seeded inputs, writing the Gauss files) is timed as one span.  Then every
request runs as one in-process ``vka.cli.main`` call with stdout and
stderr captured: one client, no threads, each request starting when the
previous one has returned.  Before each request the fixed task
``reference`` is timed, so that ``run.host_scales`` can correct for the
host's speed.  The round's record goes to OUT as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import resource
import sys
import time


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects an argument list
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a failed request, not a failed round
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


def reference():
    """A fixed pure-Python task, timed before each request to sample host speed."""
    table = {}
    for i in range(400):
        key = (i % 31, i % 7)
        table[key] = table.get(key, 0) + i * i
    return len(table)


def main(argv):
    workload, seed, work, out_path = argv[0], int(argv[1]), pathlib.Path(argv[2]), argv[3]
    traced = "--trace" in argv[4:]
    started = time.perf_counter()
    src = pathlib.Path("src").resolve()
    sys.path.insert(0, str(src))
    import vka.cli

    if not pathlib.Path(vka.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported vka from {vka.__file__}, not from {src}")
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    import workloads

    requests = workloads.build(workload, seed, work)
    setup_s = time.perf_counter() - started

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    results = []
    clock = time.perf_counter
    for rid, req in enumerate(requests):
        t0 = clock()
        reference()
        reference_s = clock() - t0
        if tracer is None:
            t0 = clock()
            rc, out, err = _call(vka.cli.main, req)
            latency = clock() - t0
        else:
            (rc, out, err), latency = tracer.run_request(rid, lambda: _call(vka.cli.main, req))
        results.append({"rc": rc, "out": out, "err": err, "latency_s": latency, "reference_s": reference_s})

    record = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": requests,
        "results": results,
        "spans": tracer.to_json() if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
