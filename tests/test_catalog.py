import catalog
from vka.diagram import parse_gauss


def test_corpus_files_match_catalog(corpus_dir):
    files = {path.stem: path for path in corpus_dir.glob("*.gauss")}
    entries = catalog.corpus()
    assert files.keys() == entries.keys()
    for stem, path in files.items():
        assert parse_gauss(path.read_text(encoding="utf-8")) == entries[stem], stem
