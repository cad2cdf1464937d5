"""Every module-level function, class and UPPERCASE constant of ``vka`` has a user.

A definition is used when code in ``src/vka`` refers to it outside its own
body, when ``vka.__all__`` exports it, or when ``perfbench/`` refers to it
(the tracer names the layer functions it wraps as strings).  Helpers that
only tests call belong in ``tests/``.

Every module-level function and class of ``tests/oracles.py`` has a user
too: another file in ``tests/``, ``scripts/bench_layers.py``, or another
oracle outside the definition's own body.
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


def _definitions(tree, constants):
    """(name, node) of each module-level function and class of tree and, when
    ``constants``, of each UPPERCASE name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif constants and isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        yield name.id, node


def _unused(module, tree, refs, elsewhere, constants=False):
    """``module:line name`` of each definition of ``tree`` (see ``_definitions``) with no user.

    ``refs`` maps module names to their references; a definition is used when
    ``elsewhere`` holds its name or some module refers to it outside its own body.
    """
    return [
        f"{module}:{node.lineno} {defined}"
        for defined, node in _definitions(tree, constants)
        if defined not in elsewhere
        and not any(
            name == defined and not (other == module and node.lineno <= line <= node.end_lineno)
            for other, found in refs.items()
            for name, line in found
        )
    ]


def test_every_library_definition_has_a_user():
    modules = {path.name: _parse(path) for path in sorted((ROOT / "src" / "vka").glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in modules.items()}
    bench = {
        name
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for name, _ in _references(_parse(path), strings=True)
    }
    elsewhere = set(vka.__all__) | bench
    unused = [line for module, tree in modules.items() for line in _unused(module, tree, refs, elsewhere, True)]
    assert not unused, "used only by tests or by nothing: " + ", ".join(unused)


def test_every_oracle_has_a_user():
    oracles = _parse(ROOT / "tests" / "oracles.py")
    users = [path for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "oracles.py"]
    users.append(ROOT / "scripts" / "bench_layers.py")
    elsewhere = {name for path in users for name, _ in _references(_parse(path))}
    unused = _unused("oracles.py", oracles, {"oracles.py": list(_references(oracles))}, elsewhere)
    assert not unused, "used by no test, no layer bench and no other oracle: " + ", ".join(unused)
