"""``scripts/bench_layers.py`` runs against the library as it stands.

The full ladder is not run here: one c = 8 diagram goes through the
per-case helpers, and the fuzz-walks, invariants-ladder and
winding-colorings replays are checked against the committed
``BENCH_layers.json``.
"""

import importlib.util
import json
import os
import random
import sys

import pytest

from conftest import REPO_ROOT
from oracles import random_code
from vka import invariants, moves
from vka.diagram import parse_gauss

RECORD = json.loads((REPO_ROOT / "BENCH_layers.json").read_text(encoding="utf-8"))
WALK_PASSES = 7  # fresh walks-section passes; their best times are compared


@pytest.fixture(scope="module")
def bench():
    path = sys.path[:]
    spec = importlib.util.spec_from_file_location("bench_layers", REPO_ROOT / "scripts" / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _untimed(case):
    return {k: v for k, v in case.items() if not k.endswith("_s")}


def _recorded(section, case):
    keys = ("crossings", "seed", "closed", "k", "quotient")
    return [_untimed(c) for c in RECORD[section]["cases"]
            if all(c.get(k) == case.get(k) for k in keys)]


@pytest.mark.parametrize("closed", [False, True])
def test_case_helpers_agree_on_a_small_diagram(bench, closed):
    d = parse_gauss(random_code(random.Random(0), 8, closed=closed))
    helpers = (("minors", bench.minors_cases), ("modules", bench.modules_cases),
               ("presentations", bench.presentations_cases))
    for section, helper in helpers:
        cases = helper(8, 0, closed, d)
        assert cases
        if section == "minors":
            assert all(c["equal"] for c in cases)
        for case in cases:
            assert _recorded(section, case) == [_untimed(case)]


def _matches_record(section, recorded):
    """``section`` has the recorded section's keys and, but for its repeats, its untimed values."""
    assert section.keys() == recorded.keys()
    assert _untimed(section) == _untimed({**recorded, "repeats": section["repeats"]})


def _matches_front_end(bench, workload, texts, requests):
    """The workload's ``front_end`` entry matches the record, the sha256 of the parsed namespaces too."""
    recorded = RECORD["front_end"]["workloads"][workload]
    section = bench.front_end_case(texts, requests, repeats=1)
    _matches_record(section, recorded)
    assert section["args_sha256"] == recorded["args_sha256"]


def _matches_gcd(bench, workload, gcd_calls, shared, multi):
    """The workload's ``gcd`` entry matches the record: ``shared`` of its ``multi`` calls with two or more
    nonzero inputs share one primitive part."""
    section = bench.gcd_case(gcd_calls)
    assert _untimed(section) == _untimed(RECORD["gcd"]["workloads"][workload])
    assert section["shared_primitive_calls"] == shared
    assert section["calls"] - section["no_input_calls"] - section["single_input_calls"] == multi


def _hooks():
    """What ``replay`` rebinds while it runs, and the working directory."""
    return invariants.gcd_many, moves.random_walk, invariants.quotient_pipeline, os.getcwd()


def test_fuzz_walks_replay_matches_the_record(bench):
    before = _hooks()
    gcd_calls, walks, presentations, colorings, texts, requests = bench.replay("fuzz-walks")
    assert _hooks() == before
    _matches_front_end(bench, "fuzz-walks", texts, requests)
    assert presentations == colorings == []
    assert len(walks) == 165
    assert sum(steps for _, _, steps, _ in walks) == 3300
    _matches_gcd(bench, "fuzz-walks", gcd_calls, shared=117, multi=240)
    # each pass times the walks, then the scans: interleaved, so a slow spell slows both
    recorded = RECORD["walks"]
    passes = [bench.walks_section(walks, repeats=1) for _ in range(WALK_PASSES)]
    for walked in passes:
        _matches_record(walked, recorded)
    assert recorded["scans"] == 1611
    assert recorded["walked_sha256"].startswith("6038ced7")
    # the scans alone, on the states the walks scan, are a part of the walks' time: in the record (best of
    # 15), and in the best of the fresh passes
    assert 0 < recorded["scan_best_s"] <= recorded["scan_median_s"]
    assert recorded["scan_best_s"] < recorded["best_s"]
    assert 0 < min(s["scan_best_s"] for s in passes) < min(s["best_s"] for s in passes)
    profile = bench.profile_section(walks, repeats=1)
    _matches_record(profile, RECORD["profile"])
    assert profile["diagrams"] == 330


def test_winding_colorings_replay_matches_the_record(bench):
    gcd_calls, _, _, colorings, texts, requests = bench.replay("winding-colorings")
    _matches_front_end(bench, "winding-colorings", texts, requests)
    _matches_gcd(bench, "winding-colorings", gcd_calls, shared=54, multi=54)
    assert colorings and all(ps == list(range(2, 30)) for _, ps in colorings)
    section = bench.colorings_section(colorings, repeats=1)
    recorded = dict(RECORD["colorings"])
    rung, recorded_rung = section.pop("rung"), recorded.pop("rung")
    _matches_record(section, recorded)
    assert (section["diagrams"], section["moduli"]) == (54, 1512)
    assert [_untimed(case) for case in rung["cases"]] == [_untimed(case) for case in recorded_rung["cases"]]
    assert len(rung["cases"]) == 11
    # the windings' --t v1 char poly k = 1 (t read as u), timed beside their counts
    windings = [case for case in rung["cases"] if "charpoly_v1_k1" in case]
    assert [case["diagram"] for case in windings] == [f"dn(k1, {n})" for n in (250, 500, 1000)]
    assert [case["charpoly_v1_k1"] for case in windings] == [
        f"{n}*u^3 - {2 * n + 1}*u^2 + {2 * n + 1}*u - {n + 1}" for n in (250, 500, 1000)]
    assert all(case["charpoly_v1_k1_s"] > 0 for case in windings)


def test_ladder_presentations_replay_matches_the_record(bench):
    gcd_calls, _, presentations, _, texts, requests = bench.replay("invariants-ladder")
    _matches_front_end(bench, "invariants-ladder", texts, requests)
    _matches_gcd(bench, "invariants-ladder", gcd_calls, shared=4, multi=160)
    workload = bench.presentations_workload(presentations, repeats=1)
    _matches_record(workload, RECORD["presentations"]["workload"])
    assert workload["diagrams"] == 220


def test_import_section_matches_the_record(bench):
    recorded = RECORD["import"]
    assert "dataclasses" not in recorded["modules"] and "inspect" not in recorded["modules"]
    assert recorded["cold"]["median_s"] > recorded["warm"]["median_s"]
    section = bench.import_section(repeats=2)
    assert section.keys() == recorded.keys()
    assert section["modules"] == recorded["modules"]
    assert "vka.cli" in section["modules"]
