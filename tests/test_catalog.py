import importlib.util

import catalog
from conftest import REPO_ROOT
from vka.diagram import parse_gauss, serialize_gauss


def test_corpus_files_match_catalog(corpus_dir):
    files = {path.stem: path for path in corpus_dir.glob("*.gauss")}
    entries = catalog.corpus()
    assert files.keys() == entries.keys()
    for stem, path in files.items():
        assert parse_gauss(path.read_text(encoding="utf-8")) == entries[stem], stem


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_reads_each_corpus_file_as_its_diagram(corpus_dir, monkeypatch):
    """``perfbench/workloads.corpus()`` joins a file's words into one line; each file must read the same that way."""
    monkeypatch.chdir(REPO_ROOT)  # corpus() reads corpus/ relative to the working directory
    codes = _perfbench_workloads().corpus()
    files = {path.stem: path for path in corpus_dir.glob("*.gauss")}
    assert files.keys() == codes.keys()
    for stem, path in files.items():
        assert serialize_gauss(parse_gauss(path.read_text(encoding="utf-8"))) == serialize_gauss(parse_gauss(codes[stem])), stem
