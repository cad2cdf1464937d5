"""Every module-level function and class of ``vka`` has a user.

A definition is used when code in ``src/vka`` refers to it outside its own
body, when ``vka.__all__`` exports it, or when ``perfbench/`` refers to it
(the tracer names the layer functions it wraps as strings).  Helpers that
only tests call belong in ``tests/``.
"""

import ast
import pathlib

import vka

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree, strings=False):
    """(name, line) of every name, attribute and, optionally, string in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_every_library_definition_has_a_user():
    modules = {path.name: _parse(path) for path in sorted((ROOT / "src" / "vka").glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    bench = {
        name
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for name, _ in _references(_parse(path), strings=True)
    }
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            used = node.name in vka.__all__ or node.name in bench or any(
                name == node.name and not (other == module and node.lineno <= line <= node.end_lineno)
                for other, found in refs.items()
                for name, line in found
            )
            if not used:
                unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, "used only by tests or by nothing: " + ", ".join(unused)
