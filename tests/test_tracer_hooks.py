"""The functions ``perfbench/run.py --trace 1`` wraps must exist in ``vka``."""

import importlib
import importlib.util
import pathlib

from vka import moves

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_traced_layer_functions_exist():
    for name, (module, functions) in _layers().items():
        mod = importlib.import_module(f"vka.{module}")
        for fname in functions:
            assert callable(getattr(mod, fname, None)), f"{name}: vka.{module}.{fname}"


def test_walk_hooks_exist():
    assert callable(moves.apply_move)
    assert callable(moves.legal_sites)
