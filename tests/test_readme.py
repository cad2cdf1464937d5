"""The README's examples print what their comments say.

The ``## Library`` python block runs as it stands, and the trailing
comment of each ``print`` line is the line it prints.  Each line of the
``## Command line`` block that carries a trailing comment runs through
``vka.cli.main`` from the repository root; the comment is its standard
output, or the name of the corpus entry whose code it prints.
"""

import re
import shlex

import pytest

from conftest import CORPUS_DIR, REPO_ROOT
from vka.cli import main
from vka.diagram import parse_gauss, serialize_gauss

README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def _block(section, lang=""):
    """The first fenced code block under the heading ``## section``."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


COMMANDS = [
    (command.strip(), result.strip())
    for command, _, result in (line.partition("#") for line in _block("Command line").splitlines())
    if result
]


def test_library_example_prints_its_comments(capsys):
    block = _block("Library", "python")
    expected = [line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected


@pytest.mark.parametrize("command, result", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_line_example_prints_its_comment(capsys, monkeypatch, command, result):
    monkeypatch.chdir(REPO_ROOT)
    argv = shlex.split(command)
    assert argv[0] == "vka"
    corpus = CORPUS_DIR / f"{result}.gauss"
    if corpus.exists():
        result = serialize_gauss(parse_gauss(corpus.read_text(encoding="utf-8")))
    assert main(argv[1:]) == 0
    assert capsys.readouterr().out.strip() == result
