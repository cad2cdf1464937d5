import pathlib

import pytest

from vka import alexander, invariants

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS_DIR


@pytest.fixture
def arc_builds(monkeypatch):
    """The diagrams A(u, v) is built for: one entry per ``merged_arc_rows`` call, wherever it is bound."""
    calls = []
    real = alexander.merged_arc_rows

    def counted(d):
        calls.append(d)
        return real(d)

    for module in (alexander, invariants):
        monkeypatch.setattr(module, "merged_arc_rows", counted)
    return calls
