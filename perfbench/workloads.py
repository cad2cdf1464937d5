"""Seeded inputs and request lists for the benchmark workloads.

A request is the argument list of one ``vka.cli.main`` call.  ``build``
writes the Gauss files a workload reads into ``<work>/in/`` and returns its
requests; the same seed gives the same files and the same requests.  Paths
in the requests are relative to the checkout root, so the JSON reports
(which echo the input path) compare byte for byte across rounds, runs and
checkouts.
"""

from __future__ import annotations

import pathlib
import random

# Sizes keep a round to a few seconds, so that a run makes several rounds,
# and give every workload over 100 requests, so that at least ten lie beyond
# the 90th percentile.
#
# invariants-ladder rungs: (crossings, long diagrams, closed diagrams).
# A long diagram gets two requests, a closed one gets one.  Larger diagrams
# are left out: their cost is heavy-tailed (see README.md).
LADDER = ((6, 30, 30), (8, 80, 80))
LADDER_PRESENTATION_FLAGS = [
    "--presentation", "--charpoly", "0", "--charpoly", "1",
    "--color", "3", "--color", "5", "--color", "7",
]

FUZZ_SEEDS_PER_ENTRY = 15
FUZZ_STEPS = 20

WINDING_MAX_N = 6
WINDING_RANDOM_BASES = 1
WINDING_BASE_CROSSINGS = (4, 8)
WINDING_MODULI = tuple(range(2, 30))
HOMCOUNT_P, HOMCOUNT_S = 5, 3

WORKLOADS = ("invariants-ladder", "fuzz-walks", "winding-colorings")
# Seconds budgeted for one round: what a round takes at the baseline commit
# on a 2-core x86-64 host with Python 3.11 when the host runs slow (up to
# half as long when it does not).  A run of S seconds makes
# round(S / ROUND_SECONDS) rounds, so the number of rounds never depends on
# the speed of the code under test.
ROUND_SECONDS = {"invariants-ladder": 3.5, "fuzz-walks": 6, "winding-colorings": 1.5}


def corpus():
    """name -> code text of each ``corpus/*.gauss`` in the checkout."""
    codes = {p.stem: " ".join(p.read_text(encoding="utf-8").split())
             for p in sorted(pathlib.Path("corpus").glob("*.gauss"))}
    if not codes:
        raise FileNotFoundError("no corpus/*.gauss here; run from the root of a vka checkout")
    return codes


def random_code(rng, crossings, closed=False):
    """A uniformly scrambled Gauss code; every such code is a valid diagram.

    Extends ``tests/oracles.random_long_diagram`` to closed diagrams and to
    an exact crossing count.
    """
    slots = list(range(2 * crossings))
    rng.shuffle(slots)
    tokens = [None] * (2 * crossings)
    for cid in range(1, crossings + 1):
        i, j = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice("+-")
        first, second = ("O", "U") if rng.random() < 0.5 else ("U", "O")
        tokens[i] = f"{first}{cid}{sign}"
        tokens[j] = f"{second}{cid}{sign}"
    body = " ".join(tokens)
    return f"closed\n{body}" if closed else body


class _Inputs:
    """Writes numbered Gauss files and refuses to write one text twice."""

    def __init__(self, work):
        self.dir = work / "in"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.seen = set()

    def add(self, text):
        if text in self.seen:
            return None
        self.seen.add(text)
        path = self.dir / f"{len(self.seen):04d}.gauss"
        path.write_text(text + "\n", encoding="utf-8")
        return path.as_posix()


def _ladder(rng, inputs):
    requests = []
    for crossings, n_long, n_closed in LADDER:
        for closed, count in ((False, n_long), (True, n_closed)):
            made = 0
            while made < count:
                path = inputs.add(random_code(rng, crossings, closed))
                if path is None:
                    continue
                made += 1
                flags = LADDER_PRESENTATION_FLAGS + ([] if closed else ["--det"])
                requests.append(["--json", "invariants", path, *flags])
                if not closed:
                    requests.append(["--json", "invariants", path, "--charpoly", "0",
                                     "--charpoly", "1", "--quotient", "end-minus"])
    return requests


def _fuzz(rng, inputs):
    requests = []
    for code in dict.fromkeys(corpus().values()):  # d1 and k5 share a code
        path = inputs.add(code)
        for seed in sorted(rng.sample(range(1_000_000), FUZZ_SEEDS_PER_ENTRY)):
            requests.append(["--json", "fuzz", path, "--seed", str(seed),
                             "--steps", str(FUZZ_STEPS)])
    return requests


def winding_bases(rng):
    """Non-dn corpus entries plus seeded random long bases, as code texts."""
    from vka.diagram import TRIVIAL_LONG, dn_family, parse_gauss

    windings = {dn_family(TRIVIAL_LONG, n) for n in range(1, WINDING_MAX_N + 1)}
    bases = [code for code in corpus().values() if parse_gauss(code) not in windings]
    lo, hi = WINDING_BASE_CROSSINGS
    randoms = []
    while len(randoms) < WINDING_RANDOM_BASES:
        text = random_code(rng, rng.randint(lo, hi))
        if text not in bases and text not in randoms:
            randoms.append(text)
    return bases + randoms


def _winding(rng, inputs):
    from vka.diagram import dn_family, parse_gauss, serialize_gauss

    moduli = [arg for p in WINDING_MODULI for arg in ("-p", str(p))]
    requests = []
    for base in winding_bases(rng):
        for n in range(1, WINDING_MAX_N + 1):
            path = inputs.add(serialize_gauss(dn_family(parse_gauss(base), n)))
            if path is None:
                continue
            requests.append(["--json", "color", path, *moduli])
            requests.append(["--json", "invariants", path, "--det", "--charpoly", "1", "--t", "v1"])
            requests.append(["--json", "homcount", path, "-p", str(HOMCOUNT_P), "-s", str(HOMCOUNT_S),
                             "--t", "v1", "--quotient", "end-minus"])
    return requests


def build(workload, seed, work):
    """Write the workload's inputs under ``work`` and return its requests."""
    makers = {"invariants-ladder": _ladder, "fuzz-walks": _fuzz, "winding-colorings": _winding}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return makers[workload](rng, _Inputs(work))
