"""Time the library's layers on fixed seeds and write one record, ``BENCH_layers.json``.

    python scripts/bench_layers.py [--out BENCH_layers.json]

Run from anywhere; ``vka`` is imported from ``src/``, the oracles from
``tests/oracles.py`` and the workloads from ``perfbench/workloads.py``,
which the script only reads.  Each benchmark workload's seed-1 requests
run once through ``vka.cli.main`` with ``gcd_many``, ``random_walk`` and
``quotient_pipeline`` wrapped to capture their inputs, and the Gauss
files it writes are read back.  The ladder is
``random_code`` seeds 0-4, long and closed, at c = 8, 12, 20 and 30
crossings.  Every section times the library as it stands; a before and
after comparison runs the script on both commits.  Ladder cases take the
best of three calls, references one call, and the workload sections the
best and median of 15.  One section per layer:

- ``front_end``: ``parse_gauss`` on every input text of each workload and
  ``merged_arc_rows`` on the diagrams it gives, with the texts' passage
  count and the sha256 of the parsed codes and of the rows (their
  ``repr``, which shows the key order of rows and entries); and the
  command-line parse, ``cli._args``, on each workload's request list, with
  the sha256 of the parsed namespaces (their items sorted by name, the
  command function given by its name);
- ``gcd``: ``laurent.gcd_many`` on each workload's captured calls against
  ``oracles.gcd_reference`` folded pair by pair; the calls with no nonzero
  input, with one, with more that all share one primitive part
  (``shared_primitive_calls``), and that reach a GCDHEU attempt on inputs
  shifted by v -> v + c, c >= 1 (``fallback_calls``, counted by wrapping
  ``laurent._heuristic``);
- ``minors``: ``elementary_minors`` against ``minors_reference`` on the
  ladder's ``quotient_matrix(d)``, at k = 0 and 1;
- ``modules``: ``quotient_matrix(d, quotient)`` and its char polys at
  k = 0 and 1 on the ladder, quotients ``none`` and (long only)
  ``end-minus``, with the matrix's shape;
- ``presentations``: the displayed presentation, ``quotient_pipeline(d)``,
  on the invariants-ladder workload's ``--presentation`` diagrams and on
  the ladder;
- ``walks``: ``random_walk`` on the fuzz-walks workload's walks, with its
  ``_shrinking_sites`` calls, the mean walked crossing count and the
  sha256 of the walked codes, and ``_shrinking_sites`` alone on the
  states those calls scan (``scan_best_s``, ``scan_median_s``);
- ``profile``: ``invariant_profile`` on the start and walked diagram of
  each of the fuzz-walks workload's walks;
- ``colorings``: ``coloring_count(*merged_arc_rows(d), ps)`` on the
  (diagram, moduli) of the winding-colorings workload's ``color``
  requests (p = 2..29), read from its request list, and a large rung:
  ``coloring_count(*merged_arc_rows(d), [3])[1]`` and the hom count of
  ``homcount -p 5 -s 3``
  (``hom_count_to_cyclic`` on ``quotient_rows(d)``), best of three, on
  ``random_code`` seeds 0-1, long and closed, at c = 200 and 400, and on
  ``dn(k1, n)`` for n = 250, 500 and 1000, where the ``--t v1`` char
  poly k = 1 (``char_poly`` of ``quotient_matrix(d, "none", "v1")``) is
  timed too;
- ``import``: ``import vka.cli`` timed in 15 fresh interpreters without
  bytecode (``PYTHONDONTWRITEBYTECODE=1``: ``vka`` is compiled from
  source, as in a fresh checkout) and in 15 with it cached (under a
  ``PYTHONPYCACHEPREFIX`` primed once); the median and quartiles of each,
  and the modules the import adds to the interpreter's own start-up set.
  Both import a copy of ``src/vka``, so nothing is read from or written
  to ``src/``.

The workload sections also record the sha256 of their results.  The
script exits 1 if ``gcd`` or ``minors`` differs from its reference.  A
run takes about 40 seconds on a 2-core x86-64 host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from oracles import gcd_reference, minors_reference, random_code  # noqa: E402
from vka import cli, invariants, laurent, moves  # noqa: E402
from vka.alexander import merged_arc_rows  # noqa: E402
from vka.diagram import dn_family, parse_gauss, serialize_gauss  # noqa: E402
from vka.invariants import (  # noqa: E402
    char_poly, coloring_count, elementary_minors, hom_count_to_cyclic, invariant_profile, quotient_matrix,
    quotient_pipeline, quotient_rows,
)

SEED = 1
CROSSINGS = (8, 12, 20, 30)
SEEDS = range(5)
KS = (0, 1)
BEST_OF = 3
REPEATS = 15
WALK_WORKLOAD = "fuzz-walks"
PRESENTATION_WORKLOAD = "invariants-ladder"
COLORING_WORKLOAD = "winding-colorings"
RUNG_CROSSINGS = (200, 400)
RUNG_SEEDS = range(2)
RUNG_WINDINGS = (250, 500, 1000)  # n of dn(k1, n)
RUNG_HOM = (5, 3)  # p and s of the rung's hom count
IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import vka.cli\n"
    "seconds = time.perf_counter() - start\n"
    "added = sorted(set(sys.modules) - before)\n"
    "import json\n"
    "print(json.dumps([seconds, added]))\n"
)


def timed(fn, repeats=BEST_OF):
    """fn()'s last result and the seconds each of ``repeats`` calls took."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return result, times


def best_and_median(fn, repeats):
    """fn()'s last result and a section's timing fields: the best and median of ``repeats`` calls."""
    result, seconds = timed(fn, repeats)
    return result, {
        "repeats": repeats,
        "best_s": round(min(seconds), 6),
        "median_s": round(statistics.median(seconds), 6),
    }


def sha256(texts):
    """The sha256 of ``texts``, one a line."""
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def ladder():
    """(crossings, seed, closed, diagram) of every ``random_code`` diagram of the ladder."""
    return [(crossings, seed, closed, parse_gauss(random_code(random.Random(seed), crossings, closed=closed)))
            for crossings in CROSSINGS for seed in SEEDS for closed in (False, True)]


def totals_by_crossings(cases, columns):
    """Per rung, the sum and the max of each column (the seconds of some fields, added up)."""
    totals = {}
    for crossings in CROSSINGS:
        rows = [c for c in cases if c["crossings"] == crossings]
        rung = {}
        for name, fields in columns.items():
            seconds = [sum(c[field] for field in fields) for c in rows]
            rung[f"{name}_s"] = round(sum(seconds), 6)
            rung[f"{name}_max_s"] = round(max(seconds), 6)
        totals[str(crossings)] = rung
    return totals


def replay(workload):
    """The polys of every ``gcd_many`` call, the (diagram, seed, steps,
    max_crossings) of every ``random_walk`` call and the (diagram, quotient)
    of every ``quotient_pipeline`` call that the workload's requests make,
    the (diagram, moduli) of every ``color`` request, the text of every
    Gauss file they read, in file order, and the requests, with their input
    paths relative to the work directory, so they read the same on every
    run."""
    gcd_calls, walks, presentations, colorings = [], [], [], []
    real_gcd_many, real_random_walk, real_pipeline = invariants.gcd_many, moves.random_walk, quotient_pipeline

    def gcd_many(polys):
        polys = list(polys)
        gcd_calls.append(polys)
        return real_gcd_many(polys)

    def random_walk(d, seed, steps, max_crossings=None):
        walks.append((d, seed, steps, max_crossings))
        return real_random_walk(d, seed, steps, max_crossings=max_crossings)

    def pipeline(d, quotient="none"):
        presentations.append((d, quotient))
        return real_pipeline(d, quotient)

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="bench_layers_") as work:
        os.chdir(ROOT)  # the workloads read corpus/ from the checkout root
        invariants.gcd_many, moves.random_walk, invariants.quotient_pipeline = gcd_many, random_walk, pipeline
        try:
            requests = workloads.build(workload, SEED, pathlib.Path(work))
            texts = [path.read_text(encoding="utf-8") for path in sorted(pathlib.Path(work, "in").glob("*.gauss"))]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                for request in requests:
                    cli.main(request)
            for args in map(cli._args, requests):
                if args.command == "color":
                    colorings.append((parse_gauss(pathlib.Path(args.input).read_text(encoding="utf-8")), args.p))
            requests = [[token.removeprefix(f"{work}/") for token in request] for request in requests]
        finally:
            invariants.gcd_many, moves.random_walk, invariants.quotient_pipeline = (
                real_gcd_many, real_random_walk, real_pipeline)
            os.chdir(cwd)
    return gcd_calls, walks, presentations, colorings, texts, requests


def pairwise(polys):
    """The reference: ``oracles.gcd_reference`` folded pair by pair, without shortcuts."""
    if not polys:
        return laurent.LaurentPoly()
    return functools.reduce(gcd_reference, polys).canonical()


def fallback_calls(calls):
    """How many ``gcd_many`` calls reach a ``laurent._heuristic`` attempt with c >= 1."""
    reached = [0]
    real = laurent._heuristic

    def counting(prims, D, c):
        reached[0] += c >= 1
        return real(prims, D, c)

    laurent._heuristic = counting
    try:
        count = 0
        for polys in calls:
            before = reached[0]
            laurent.gcd_many(polys)
            count += reached[0] > before
    finally:
        laurent._heuristic = real
    return count


def shared_primitive(polys):
    """True when two or more inputs are nonzero and all have one primitive part."""
    nonzero = [p for p in polys if p]
    return len(nonzero) > 1 and len({laurent._primitive(p) for p in nonzero}) == 1


def gcd_case(calls):
    """The ``gcd`` section's entry for one workload's captured calls."""
    values, gcd_many_s = timed(lambda: [laurent.gcd_many(polys) for polys in calls])
    reference, reference_s = timed(lambda: [pairwise(polys) for polys in calls], 1)
    return {
        "calls": len(calls),
        "inputs": sum(len(polys) for polys in calls),
        "no_input_calls": sum(not any(polys) for polys in calls),
        "single_input_calls": sum(sum(1 for p in polys if p) == 1 for polys in calls),
        "shared_primitive_calls": sum(map(shared_primitive, calls)),
        "fallback_calls": fallback_calls(calls),
        "gcd_many_s": round(min(gcd_many_s), 6),
        "reference_s": round(min(reference_s), 6),
        "unequal": sum(a != b for a, b in zip(values, reference)),
    }


def parsed_args(args):
    """One parsed namespace as text: its items sorted by name, the command function by its name."""
    return repr(sorted({**vars(args), "func": args.func.__name__}.items()))


def front_end_case(texts, requests, repeats=REPEATS):
    """The ``front_end`` section's entry for one workload's input texts and request list."""
    diagrams, parse = best_and_median(lambda: [parse_gauss(text) for text in texts], repeats)
    rows, merge = best_and_median(lambda: [merged_arc_rows(d) for d in diagrams], repeats)
    args, argv = best_and_median(lambda: [cli._args(request) for request in requests], repeats)
    return {
        "texts": len(texts),
        "passages": sum(len(d.passages) for d in diagrams),
        "repeats": repeats,
        "parse_best_s": parse["best_s"],
        "parse_median_s": parse["median_s"],
        "rows_best_s": merge["best_s"],
        "rows_median_s": merge["median_s"],
        "argv_best_s": argv["best_s"],
        "argv_median_s": argv["median_s"],
        "parsed_sha256": sha256(map(serialize_gauss, diagrams)),
        "rows_sha256": sha256(map(repr, rows)),
        "args_sha256": sha256(map(parsed_args, args)),
    }


def minors_cases(crossings, seed, closed, d):
    """The ``minors`` section's cases of one ladder diagram, one per k."""
    m = quotient_matrix(d)
    cases = []
    for k in KS:
        packed, packed_s = timed(lambda: elementary_minors(*m, k))
        reference, reference_s = timed(lambda: minors_reference(m, k), 1)
        cases.append({
            "crossings": crossings, "seed": seed, "closed": closed, "k": k,
            "shape": list(map(len, m)), "minors": len(packed),
            "packed_s": round(min(packed_s), 6), "reference_s": round(min(reference_s), 6),
            "equal": packed == reference,
        })
    return cases


def modules_cases(crossings, seed, closed, d):
    """The ``modules`` section's cases of one ladder diagram, one per quotient."""
    cases = []
    for quotient in ("none",) if closed else ("none", "end-minus"):
        m, build_s = timed(lambda: quotient_matrix(d, quotient))
        _, charpoly_s = timed(lambda: [char_poly(*m, k) for k in KS])
        cases.append({
            "crossings": crossings, "seed": seed, "closed": closed, "quotient": quotient, "shape": list(map(len, m)),
            "build_s": round(min(build_s), 6), "charpoly_s": round(min(charpoly_s), 6),
        })
    return cases


def presentations_cases(crossings, seed, closed, d):
    """The ``presentations`` section's case of one ladder diagram."""
    shown, pipeline_s = timed(lambda: quotient_pipeline(d))
    return [{
        "crossings": crossings, "seed": seed, "closed": closed,
        "generators": len(shown.generators), "relations": len(shown.relations),
        "pipeline_s": round(min(pipeline_s), 6),
    }]


def presentations_workload(calls, repeats=REPEATS):
    """``quotient_pipeline`` on the captured calls."""
    assert all(quotient == "none" for _, quotient in calls)
    diagrams = [d for d, _ in calls]
    shown, timing = best_and_median(lambda: [quotient_pipeline(d) for d in diagrams], repeats)
    return {
        "workload": f"the --presentation diagrams of the {PRESENTATION_WORKLOAD} request list, seed {SEED}",
        "diagrams": len(diagrams),
        **timing,
        "presented_sha256": sha256(map(str, shown)),
    }


def counted_scans(fn):
    """fn()'s result and a copy of the passage list of each ``moves._shrinking_sites`` call it made."""
    states, real = [], moves._shrinking_sites

    def counting(passages):
        states.append(list(passages))
        return real(passages)

    moves._shrinking_sites = counting
    try:
        return fn(), states
    finally:
        moves._shrinking_sites = real


def walks_section(walks, repeats=REPEATS):
    """The ``walks`` section: the captured walks, walked again ``repeats`` times, and
    ``_shrinking_sites`` alone on the states they scan."""
    def walk():
        return [moves.random_walk(d, seed, steps, max_crossings=cap) for d, seed, steps, cap in walks]

    ends, states = counted_scans(walk)
    _, timing = best_and_median(walk, repeats)
    _, scan = best_and_median(lambda: [moves._shrinking_sites(passages) for passages in states], repeats)
    return {
        "layer": "moves.random_walk",
        "workload": f"the walks of the {WALK_WORKLOAD} request list, seed {SEED}",
        "walks": len(walks),
        "steps": sum(steps for _, _, steps, _ in walks),
        "scans": len(states),
        **timing,
        "scan_best_s": scan["best_s"],
        "scan_median_s": scan["median_s"],
        "mean_crossings": round(statistics.mean(d.crossings for d in ends), 4),
        "walked_sha256": sha256(map(serialize_gauss, ends)),
    }


def profile_section(walks, repeats=REPEATS):
    """The ``profile`` section: the start and walked diagram of each captured walk."""
    walked = [moves.random_walk(d, seed, steps, max_crossings=cap) for d, seed, steps, cap in walks]
    diagrams = [d for d, _, _, _ in walks] + walked
    profiles, timing = best_and_median(lambda: [invariant_profile(d) for d in diagrams], repeats)
    return {
        "layer": "invariants.invariant_profile",
        "workload": f"the start and walked diagrams of the {WALK_WORKLOAD} request list, seed {SEED}",
        "diagrams": len(diagrams),
        **timing,
        "profiles_sha256": sha256(map(repr, profiles)),
    }


def rung_cases(repeats=BEST_OF):
    """The large rung of the ``colorings`` section: the colorings mod 3 and one hom count per diagram."""
    k1 = parse_gauss((ROOT / "corpus" / "k1.gauss").read_text(encoding="utf-8"))
    diagrams = [(f"random_code seed {seed}, c = {c}" + (", closed" if closed else ""),
                 parse_gauss(random_code(random.Random(seed), c, closed=closed)))
                for c in RUNG_CROSSINGS for seed in RUNG_SEEDS for closed in (False, True)]
    diagrams += [(f"dn(k1, {n})", dn_family(k1, n)) for n in RUNG_WINDINGS]
    cases = []
    for name, d in diagrams:
        (colorings,), color_s = timed(lambda: coloring_count(*merged_arc_rows(d), [3])[1], repeats)
        count, hom_s = timed(lambda: hom_count_to_cyclic(*quotient_rows(d), *RUNG_HOM), repeats)
        case = {"diagram": name, "crossings": d.crossings, "colorings_p3": colorings, "hom_count": count}
        seconds = {"coloring_count_s": color_s, "hom_count_s": hom_s}
        if name.startswith("dn("):  # the winding's one-variable char poly, in u (t read as u)
            value, seconds["charpoly_v1_k1_s"] = timed(lambda: char_poly(*quotient_matrix(d, "none", "v1"), 1), repeats)
            case["charpoly_v1_k1"] = str(value)
        cases.append({**case, **{key: round(min(times), 6) for key, times in seconds.items()}})
    return cases


def colorings_section(calls, repeats=REPEATS):
    """The ``colorings`` section: the coloring counts of the (diagram, moduli) ``calls``, and the large rung."""
    counts, timing = best_and_median(lambda: [coloring_count(*merged_arc_rows(d), ps)[1] for d, ps in calls], repeats)
    return {
        "layer": "invariants.coloring_count",
        "workload": f"the color requests of the {COLORING_WORKLOAD} request list (p = 2..29), seed {SEED}",
        "diagrams": len(calls),
        "moduli": sum(len(ps) for _, ps in calls),
        **timing,
        "reports_sha256": sha256(map(repr, counts)),
        "rung": {
            "layer": "invariants.coloring_count, invariants.hom_count_to_cyclic and the --t v1 char poly",
            "workload": (f"coloring_count(*merged_arc_rows(d), [3])[1] and hom_count_to_cyclic(*quotient_rows(d), "
                         f"p = {RUNG_HOM[0]}, s = {RUNG_HOM[1]}), and on dn(k1, n) char_poly(quotient_matrix(d, 'none', "
                         f"'v1'), 1), "
                         f"best of {min(repeats, BEST_OF)}"),
            "cases": rung_cases(min(repeats, BEST_OF)),
        },
    }


def import_once(env):
    """Seconds that ``import vka.cli`` takes in a fresh interpreter under ``env``, and the modules it adds."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out)


def import_section(repeats=REPEATS):
    """The ``import`` section: ``import vka.cli`` from a copy of ``src/vka``, without bytecode and with it cached.

    ``repeats`` is at least 2, as the quartiles need two runs.
    """
    with tempfile.TemporaryDirectory(prefix="bench_layers_import_") as work:
        work = pathlib.Path(work)
        shutil.copytree(ROOT / "src" / "vka", work / "src" / "vka", ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        env["PYTHONPATH"] = str(work / "src")
        envs = {
            "cold": {**env, "PYTHONDONTWRITEBYTECODE": "1"},
            "warm": {**env, "PYTHONPYCACHEPREFIX": str(work / "pycache")},
        }
        import_once(envs["warm"])  # writes the bytecode the warm runs read
        runs = {name: [import_once(e) for _ in range(repeats)] for name, e in envs.items()}
    section = {
        "layer": "import vka.cli",
        "workload": "a fresh interpreter per import; cold: PYTHONDONTWRITEBYTECODE=1, warm: bytecode cached",
        "repeats": repeats,
    }
    for name, results in runs.items():
        seconds = [s for s, _ in results]
        q1, median, q3 = statistics.quantiles(seconds, n=4)
        section[name] = {"median_s": round(median, 6), "q1_s": round(q1, 6), "q3_s": round(q3, 6)}
    section["modules"] = runs["cold"][0][1]
    return section


def run():
    replays = {workload: replay(workload) for workload in workloads.WORKLOADS}
    gcd = {workload: gcd_case(calls) for workload, (calls, *_) in replays.items()}
    print(f"gcd: {sum(r['calls'] for r in gcd.values())} calls, {sum(r['unequal'] for r in gcd.values())} unequal",
          file=sys.stderr)

    front_end = {workload: front_end_case(*replayed[4:]) for workload, replayed in replays.items()}
    print(f"front_end: {sum(r['texts'] for r in front_end.values())} texts", file=sys.stderr)
    walks = walks_section(replays[WALK_WORKLOAD][1])
    print(f"walks: {walks['walks']} walks, {walks['scans']} scans", file=sys.stderr)
    profile = profile_section(replays[WALK_WORKLOAD][1])
    print(f"profile: {profile['diagrams']} diagrams", file=sys.stderr)
    colorings = colorings_section(replays[COLORING_WORKLOAD][3])
    print(f"colorings: {colorings['diagrams']} diagrams", file=sys.stderr)
    imports = import_section()
    print(f"import: cold {imports['cold']['median_s'] * 1e3:.1f} ms, warm {imports['warm']['median_s'] * 1e3:.1f} ms",
          file=sys.stderr)

    rungs = ladder()
    minors = [case for rung in rungs for case in minors_cases(*rung)]
    print(f"minors: {len(minors)} cases", file=sys.stderr)
    modules = [case for rung in rungs for case in modules_cases(*rung)]
    print(f"modules: {len(modules)} cases", file=sys.stderr)
    workload = presentations_workload(replays[PRESENTATION_WORKLOAD][2])
    ladder_presentations = [case for rung in rungs for case in presentations_cases(*rung)]
    print(f"presentations: {workload['diagrams']} workload diagrams", file=sys.stderr)

    record = {
        "schema": 2,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "front_end": {
            "layer": "diagram.parse_gauss, alexander.merged_arc_rows and cli._args",
            "workload": f"every input text of each benchmark workload's request list, seed {SEED}",
            "workloads": front_end,
        },
        "gcd": {
            "layer": "laurent.gcd_many",
            "workload": f"the gcd_many inputs of every benchmark workload's request list, seed {SEED}",
            "all_equal": all(r["unequal"] == 0 for r in gcd.values()),
            "workloads": gcd,
        },
        "minors": {
            "layer": "invariants.elementary_minors",
            "workload": "quotient_matrix of random_code seeds 0-4, long and closed, no quotient, k = 0 and 1",
            "all_equal": all(c["equal"] for c in minors),
            "totals_by_crossings": totals_by_crossings(minors, {"packed": ("packed_s",), "reference": ("reference_s",)}),
            "cases": minors,
        },
        "modules": {
            "layer": "invariants.quotient_matrix and char polys (k = 0, 1)",
            "workload": "random_code seeds 0-4, long and closed, quotients none and end-minus (long only)",
            "totals_by_crossings": totals_by_crossings(
                modules, {"total": ("build_s", "charpoly_s"), "build": ("build_s",)}),
            "cases": modules,
        },
        "presentations": {
            "layer": "invariants.quotient_pipeline",
            "workload": workload,
            "ladder": "random_code seeds 0-4, long and closed, no quotient",
            "totals_by_crossings": totals_by_crossings(ladder_presentations, {"pipeline": ("pipeline_s",)}),
            "cases": ladder_presentations,
        },
        "walks": walks,
        "profile": profile,
        "colorings": colorings,
        "import": imports,
    }
    record["all_equal"] = record["gcd"]["all_equal"] and record["minors"]["all_equal"]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_layers.json"), help="where to write the record")
    args = parser.parse_args(argv)
    record = run()
    pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if record["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
