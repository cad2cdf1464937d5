"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from vka import cli  # noqa: E402


def _inputs(requests):
    """Requests with each input path replaced by the file's text."""
    return [[pathlib.Path(a).read_text() if i == 2 else a for i, a in enumerate(r)] for r in requests]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = _inputs(workloads.build(workload, 3, tmp_path / "a"))
    again = _inputs(workloads.build(workload, 3, tmp_path / "b"))
    other = _inputs(workloads.build(workload, 4, tmp_path / "c"))
    assert first == again
    assert len({json.dumps(r) for r in first}) == len(first), "two requests are identical"
    assert first != other


def _answers(requests):
    outputs = []
    for argv in requests:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0
        outputs.append(buf.getvalue())
    return outputs


def _corrupt(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report, sort_keys=True) + "\n"


def _bump_count(report):
    entry = report["colorings"]
    (entry[0] if isinstance(entry, list) else entry)["count"] += 1


def _add_three(entry):
    entry["value"] += " + 3"


CASES = [
    # workload, how many leading requests to use, request to corrupt, corruption
    ("invariants-ladder", 2, 0, _bump_count),
    ("invariants-ladder", 2, 0, lambda r: r.__setitem__("determinant", r["determinant"] + 2)),
    ("invariants-ladder", 2, 1, lambda r: _add_three(r["charpoly"][1])),
    ("invariants-ladder", 2, 0, lambda r: r["presentation"]["relations"].pop()),
    ("fuzz-walks", 2, 1, lambda r: r.__setitem__("stable", False)),
    ("winding-colorings", 3, 0, _bump_count),
    ("winding-colorings", 3, 1, lambda r: r.__setitem__("determinant", r["determinant"] * 3)),
    ("winding-colorings", 3, 1, lambda r: _add_three(r["charpoly"])),
    ("winding-colorings", 3, 2, lambda r: r.__setitem__("count", r["count"] * 5)),
]


@pytest.mark.parametrize("workload,count,target,edit", CASES)
def test_oracle_accepts_answers_and_rejects_a_corrupted_one(tmp_path, workload, count, target, edit):
    requests = workloads.build(workload, 5, tmp_path)[:count]
    outputs = _answers(requests)
    failed, _ = oracle.check(workload, requests, outputs, random.Random(0))
    assert failed == set()
    outputs[target] = _corrupt(outputs[target], edit)
    failed, _ = oracle.check(workload, requests, outputs, random.Random(0))
    assert failed == {target}


def test_percentile_and_rate_on_a_fixed_latency_list():
    ms = [i / 1000 for i in range(1, 101)]  # 1..100 ms
    assert run.percentile(ms, 50) == 0.050
    assert run.percentile(ms, 90) == 0.090
    assert run.percentile([0.003], 90) == 0.003
    # The second round ran on a host at half speed: its reference task took
    # twice as long, so its times scale back to the first round's.
    ref = run.REFERENCE_S
    scales = run.host_scales([[ref] * 100, [ref * 2] * 100, [ref] * 100])
    assert scales == pytest.approx([1.0, 0.5, 1.0])
    metrics = run.end_to_end([ms, [x * 2 for x in ms], [x * 3 for x in ms]], scales,
                             setups=[0.1, 0.4, 0.3], rss=[20.0, 22.0, 21.0])
    assert metrics == pytest.approx({
        "setup_s": 0.2,
        "requests_per_s": 100 / 5.05,
        "latency_p50_ms": 50.0,
        "latency_p90_ms": 90.0,
        "peak_rss_mb": 21.0,
    })


def test_layer_report_self_times_add_up_to_the_traced_latency():
    # request 0: root 0..10 holds a gcd span 1..4 (with a nested minors span
    # 2..3) and a tietze span 5..7; a scan probe runs after the root.  The
    # first traced round was slower, so the report takes the second.
    spans = [
        [0, "request", 0.0, 10.0, None, 0, {}],
        [1, "laurent.gcd", 1.0, 4.0, 0, 0, {"laurent.gcd_calls": 1, "laurent.gcd_units": 1,
                                           "laurent.gcd_inputs": 3, "laurent.gcd_terms_max": 7}],
        [2, "invariants.minors", 2.0, 3.0, 1, 0, {"invariants.minors": 3}],
        [3, "alexander.tietze", 5.0, 7.0, 0, 0, {"alexander.tietze_gens_removed": 4}],
        [4, "moves.scan", 10.0, 10.5, None, 0, {"moves.sites": 9}],
    ]
    slower = [[*s[:2], s[2] * 2, s[3] * 2, *s[4:]] for s in spans]
    out = tracer.layer_report([slower, spans], [1.0, 1.0], {0: 9.0})
    assert out["laurent.gcd_s"] == 2.0
    assert out["invariants.minors_s"] == 1.0
    assert out["alexander.tietze_s"] == 2.0
    assert out["moves.scan_s"] == 0.5
    assert out["cli.self_s"] == 5.0
    assert out["trace.untraced_s"] == 9.0
    assert out["trace.overhead_s"] == 1.0
    layers = sum(v for k, v in out.items()
                 if k.endswith("_s") and not k.startswith("trace.") and k != "moves.scan_s")
    assert layers == out["trace.untraced_s"] + out["trace.overhead_s"] == 10.0
    assert (out["laurent.gcd_calls"], out["laurent.gcd_unit_share"], out["invariants.minors"],
            out["moves.sites"]) == (1, 1.0, 3, 9)
    # Scaled by a quarter, the slower round is the faster one: the report
    # takes it, at half the other round's times.
    scaled = tracer.layer_report([slower, spans], [0.25, 1.0], {0: 4.5})
    assert (scaled["laurent.gcd_s"], scaled["cli.self_s"], scaled["trace.overhead_s"]) == (1.0, 2.5, 0.5)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = run.end_to_end([[0.01, 0.02]], [1.0], [0.1], [20.0])
    layers = tracer.layer_report([[[0, "request", 0.0, 1.0, None, 0, {}]]], [1.0], {0: 1.0})
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(end_to_end)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layers)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
