"""The functions ``perfbench/run.py --trace 1`` wraps must exist in ``vka``, and traced requests must run."""

import importlib
import importlib.util
import pathlib
import sys

from vka import moves
from vka.cli import main

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _layers():
    return _tracer().LAYERS


def test_traced_layer_functions_exist():
    for name, (module, functions) in _layers().items():
        mod = importlib.import_module(f"vka.{module}")
        for fname in functions:
            assert callable(getattr(mod, fname, None)), f"{name}: vka.{module}.{fname}"


def test_walk_hooks_exist():
    assert callable(moves.apply_move)
    assert callable(moves.legal_sites)


def test_traced_color_and_homcount_requests_record_their_spans(capsys, corpus_dir, monkeypatch):
    tracer = _tracer()
    wrapped = {id(getattr(importlib.import_module(f"vka.{module}"), fname))
               for module, functions in tracer.LAYERS.values() for fname in functions} | {id(moves.apply_move)}
    for modname, mod in list(sys.modules.items()):  # every binding Tracer.install replaces, restored afterwards
        if modname == "vka" or modname.startswith("vka."):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    monkeypatch.setattr(mod, attr, value)
    traced = tracer.Tracer()
    traced.install()
    k4k5 = str(corpus_dir / "k4k5.gauss")
    requests = (["color", k4k5, "-p", "3"], ["homcount", k4k5, "-p", "5", "-s", "3", "--quotient", "end-minus"],
                ["invariants", k4k5, "--det", "--charpoly", "1", "--t", "v1"], ["fuzz", k4k5, "--steps", "2"])
    for rid, argv in enumerate(requests):
        code, _ = traced.run_request(rid, lambda: main(argv))
        assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "p=3: 9 colorings (nontrivial)", "25", "t - 2", "3", "OK (invariants stable)"]
    spans = {(s.name, s.request) for s in traced.spans}
    # every count, the --det of `invariants` and the profiles of `fuzz` too, runs the traced coloring_count, and
    # `--t v1` the traced one_variable
    assert {("invariants.snf", 0), ("invariants.rank_mod", 1), ("invariants.snf", 2), ("alexander.abelianize", 2),
            ("invariants.snf", 3)} <= spans
