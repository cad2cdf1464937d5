"""``import vka.cli`` stays cheap, and the record type is a NamedTuple.

``GroupPresentationZ2`` was a frozen dataclass; as a ``typing.NamedTuple``
class it keeps its fields, defaults, ``repr``, immutability and
hashability, and importing the CLI no longer loads ``dataclasses`` or
``inspect``.  A presentation's relations are plain ``(left, right)``
pairs of words of plain ``(gen, exp, sign)`` letters, so its ``repr``
shows them as tuples.  A matrix is a plain ``(rows, cols)`` pair.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from vka.alexander import GroupPresentationZ2


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # pytest itself loads both, so the import is measured in a fresh interpreter
    probe = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import vka.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, cwd=REPO_ROOT, timeout=60, check=True).stdout
    added = json.loads(out)
    assert "vka.cli" in added
    assert "dataclasses" not in added and "inspect" not in added


LETTER = ("a", (0, 1), 1)
CASES = [
    (
        GroupPresentationZ2(("a",), (((LETTER,), ()),)),
        ("generators", "relations", "end_minus", "end_plus"),
        {"end_minus": None, "end_plus": None},
        "GroupPresentationZ2(generators=('a',), relations=(((('a', (0, 1), 1),), ()),), end_minus=None, "
        "end_plus=None)",
    ),
]


@pytest.mark.parametrize("value, fields, defaults, text", CASES, ids=[type(case[0]).__name__ for case in CASES])
def test_record_types_keep_fields_defaults_repr_immutability_and_hash(value, fields, defaults, text):
    cls = type(value)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(value) == text
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert hash(value) == hash(cls(*value))
    assert value == cls(**value._asdict())
    assert value._replace(**{fields[0]: "x"}) != value
