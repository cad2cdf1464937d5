import hashlib
import os
import random
import re
import subprocess
import sys

import pytest

import catalog
from conftest import REPO_ROOT
from oracles import arc_structure, braid_closure, parse_gauss_reference, random_code, random_long_diagram
from vka.diagram import (
    CLOSED,
    Diagram,
    GaussCodeError,
    LONG,
    TRIVIAL_LONG,
    UNKNOT,
    close,
    concatenate,
    dn_family,
    parse_gauss,
    serialize_gauss,
    switch_all_crossings,
)


def test_parse_empty_is_trivial_long():
    d = parse_gauss("")
    assert d.kind == LONG
    assert d.crossings == 0
    assert d.arc_count == 1


def test_parse_rejects_sign_mismatch():
    with pytest.raises(GaussCodeError, match="mismatched signs"):
        parse_gauss("O1+ U1-")


def test_parse_rejects_malformed_token():
    with pytest.raises(GaussCodeError, match="malformed token"):
        parse_gauss("O1+ X2-")
    with pytest.raises(GaussCodeError, match="malformed token"):
        parse_gauss("O01+")


def test_parse_rejects_huge_crossing_id():
    # more digits than the id bound: a parse error at the token, not a ValueError from int()
    huge = "1" * 5000
    with pytest.raises(GaussCodeError, match="crossing id of 5000 digits") as err:
        parse_gauss(f"closed\nO2+ U2+  O{huge}+ U{huge}+")
    assert (err.value.line, err.value.column) == (2, 10)


PARSE_PROBE = """
from vka.diagram import GaussCodeError, parse_gauss
ids = ("1" * 640, "1" * 4300, "1" * 4301, "1" * 5000)
for cid in ids:
    try:
        print(parse_gauss(f"closed\\nO2+ U2+  O{cid}+ U{cid}+").crossings)
    except GaussCodeError as exc:
        print(exc)
"""


def test_crossing_id_bound_does_not_depend_on_int_max_str_digits():
    # the parser bounds ids at 4300 digits itself, whatever int() converts
    outputs = []
    for limit in (None, "0", "640"):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        if limit is not None:
            env["PYTHONINTMAXSTRDIGITS"] = limit
        run = subprocess.run([sys.executable, "-c", PARSE_PROBE], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0].splitlines() == [
        "2", "2", "crossing id of 4301 digits (line 2, column 10)", "crossing id of 5000 digits (line 2, column 10)",
    ]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_parse_rejects_wrong_multiplicity():
    with pytest.raises(GaussCodeError, match="appears 1 times"):
        parse_gauss("O1+ U2+ O2+")
    with pytest.raises(GaussCodeError, match="appears 4"):
        parse_gauss("O1+ U1+ O1+ U1+")


def test_parse_rejects_same_role_twice():
    with pytest.raises(GaussCodeError, match="two O passages"):
        parse_gauss("O1+ O1+")


def test_diagram_rejects_bad_kinds_ids_and_signs():
    with pytest.raises(GaussCodeError, match="unknown diagram kind"):
        Diagram("open", ())
    # ids and signs are ints, not bools or floats that equal them
    for cid, sign in ((1, True), (1, 1.0), (1.0, 1), (True, -1), ("1", 1)):
        with pytest.raises(GaussCodeError, match="bad passage"):
            Diagram(LONG, [(cid, "O", sign), (cid, "U", sign)])
    # a passage that is not a triple: too short, too long, or no sequence at all
    for p in ((1, "O"), (1, "O", 1, 1), 5, None):
        with pytest.raises(GaussCodeError, match=f"^bad passage {re.escape(repr(p))} at position 1$"):
            Diagram(LONG, [(2, "U", 1), p])


def test_diagram_rejects_bad_roles_and_takes_plain_triples():
    for role in ("X", "o", None):
        with pytest.raises(GaussCodeError, match="bad passage"):
            Diagram(LONG, [(1, "O", 1), (1, role, 1)])
    d = Diagram(CLOSED, ((7, "U", -1), (3, "O", 1), (7, "O", -1), (3, "U", 1)))
    assert d.passages == ((1, "U", -1), (2, "O", 1), (1, "O", -1), (2, "U", 1))
    assert all(type(p) is tuple for p in d.passages)
    # any triples go in, lists too; they are stored as plain tuples, written as Gauss-code tokens
    listed = Diagram(CLOSED, [[7, "U", -1], [3, "O", 1], [7, "O", -1], [3, "U", 1]])
    assert listed.passages == d.passages and all(type(p) is tuple for p in listed.passages)
    assert repr(listed) == "Diagram(closed: U1- O2+ O1- U2+)"
    assert serialize_gauss(listed) == "closed\nU1- O2+ O1- U2+"


def _parsed(parse, text):
    """(kind, passages) of the parsed text, or ("error", message, line, column)."""
    try:
        d = parse(text)
    except GaussCodeError as exc:
        return "error", str(exc), exc.line, exc.column
    return (d.kind, d.passages) if isinstance(d, Diagram) else d


SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", "\n\n", " \t\r\n", "\r\n\r\n", " # a comment\n", "\t#\r\n",
              "\n# a comment line O1+\n", "#closed\r\n", "\r", "\x0c", " # CR\r", "\u2028")


def _text(rng, words):
    """``words`` joined by seeded separators, with a comment or blank line before and after at times."""
    head = rng.choice(("", "# a code\n", "\n", "\r\n  "))
    tail = rng.choice(("", "\n", "\r\n", " # end", "\n\n"))
    return head + "".join(w + rng.choice(SEPARATORS) for w in words[:-1]) + (words[-1] if words else "") + tail


def _mutations(rng, words):
    """Seeded mutations of a code's words: each is a list of words, valid or not."""
    tokens = [w for w in words if w != "closed"]
    header = words[:len(words) - len(tokens)]
    out = []
    if tokens:
        i = rng.randrange(len(tokens))
        t = tokens[i]
        flipped_role = ("U" if t[0] == "O" else "O") + t[1:]
        flipped_sign = t[:-1] + ("-" if t[-1] == "+" else "+")
        for changed in (tokens[:i] + tokens[i + 1:], tokens[:i] + [t] + tokens[i:],
                        tokens[:i] + [flipped_role] + tokens[i + 1:], tokens[:i] + [flipped_sign] + tokens[i + 1:]):
            out.append(header + changed)
        cid = t[1:-1]
        huge = [w[0] + "9" * 5000 + w[-1] if w[1:-1] == cid else w for w in tokens]
        out.append(header + huge)
        out.append(["closed" + tokens[0]] + tokens[1:])  # not the word closed
    for bad in ("X2-", "O01+", "O1#+", "closed"):
        j = rng.randrange(len(tokens) + 1)
        out.append(header + tokens[:j] + [bad] + tokens[j:])
    out.append(["closed"] + words)
    return out


@pytest.fixture
def default_int_digits():
    """int()'s default digit limit, 4300, which bounds the reference parser's ids."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def test_parse_matches_the_reference_token_loop(default_int_digits):
    rng = random.Random(26)
    kinds = set()
    for crossings in range(13):
        for closed in (False, True):
            for _ in range(3):
                words = random_code(rng, crossings, closed=closed).split()
                for case in [words] + _mutations(rng, words):
                    text = _text(rng, case)
                    expected = _parsed(parse_gauss_reference, text)
                    assert _parsed(parse_gauss, text) == expected, text
                    kinds.add(expected[0] if expected[0] != "error" else expected[1].split(" ")[0])
    assert kinds >= {"long", "closed", "malformed", "crossing"}


def test_parse_error_location():
    try:
        parse_gauss("# comment\nO1+ Q9\n")
    except GaussCodeError as exc:
        assert exc.line == 2 and exc.column == 5
    else:
        pytest.fail("expected a parse error")


def test_comments_and_header():
    d = parse_gauss("# a closed code\nclosed\nO1+ U1+ # kink\n")
    assert d.kind == CLOSED
    assert d.crossings == 1


def test_round_trip_corpus(corpus_dir):
    files = sorted(corpus_dir.glob("*.gauss"))
    assert len(files) == 12
    for path in files:
        text = path.read_text()
        d = parse_gauss(text)
        assert parse_gauss(serialize_gauss(d)) == d
        assert serialize_gauss(d) == text.rstrip("\n")


def test_serialize_normalizes_ids():
    d = parse_gauss("U7- O3+ O7- U3+")
    assert serialize_gauss(d) == "U1- O2+ O1- U2+"


def test_round_trip_random():
    rng = random.Random(3)
    for _ in range(200):
        d = random_long_diagram(rng)
        assert parse_gauss(serialize_gauss(d)) == d


def test_concatenate_identity_and_counts():
    k4, k5 = catalog.k4(), catalog.k5()
    assert concatenate(TRIVIAL_LONG, k4) == k4
    assert concatenate(k4, TRIVIAL_LONG) == k4
    prod = concatenate(k4, k5)
    assert prod.crossings == 4
    assert prod.arc_count == 9


def test_concatenate_associative():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = (random_long_diagram(rng, 3) for _ in range(3))
        assert concatenate(concatenate(a, b), c) == concatenate(a, concatenate(b, c))


def test_concatenate_rejects_closed():
    with pytest.raises(ValueError):
        concatenate(close(catalog.k1()), catalog.k1())


def test_close_trivial_is_unknot():
    d = close(TRIVIAL_LONG)
    assert d.kind == CLOSED
    assert d.crossings == 0
    assert d.arc_count == 1


def test_close_k1_k2_k3_equal():
    c1, c2, c3 = close(catalog.k1()), close(catalog.k2()), close(catalog.k3())
    assert c1 == c2 == c3


def test_close_concat_orders_have_equal_length():
    a, b = catalog.k4(), catalog.k5()
    assert close(concatenate(a, b)).crossings == close(concatenate(b, a)).crossings


def test_switch_k4_gives_k5():
    assert switch_all_crossings(catalog.k4()) == catalog.k5()
    assert switch_all_crossings(catalog.k5()) == catalog.k4()


def test_switch_is_involution():
    rng = random.Random(7)
    for _ in range(50):
        d = random_long_diagram(rng)
        assert switch_all_crossings(switch_all_crossings(d)) == d
    assert switch_all_crossings(TRIVIAL_LONG) == TRIVIAL_LONG


def test_dn_family_counts():
    for n in range(1, 6):
        d = dn_family(TRIVIAL_LONG, n)
        assert d.crossings == 2 * n
        base = catalog.k1()
        assert dn_family(base, n).crossings == base.crossings + 2 * n


def test_dn_family_signs_alternate():
    d = dn_family(TRIVIAL_LONG, 4)
    signs = {}
    for cid, _, sign in d.passages:
        signs[cid] = sign
    for cid in range(1, 9):
        assert signs[cid] == (1 if cid % 2 else -1)


def test_dn_family_embeds_base():
    base = catalog.k1()
    d = dn_family(base, 2)
    inner = d.passages[6:-2]  # between the returning unders and the exit overs
    relabeled = Diagram(LONG, inner)
    assert relabeled == base


def test_dn_family_golden_codes():
    lines = [
        f"{name} {n} {serialize_gauss(dn_family(base, n))}"
        for name, base in sorted(catalog.corpus().items())
        for n in range(1, 13)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "cb0c391968ae2abebd1c4f6e7185665bede5f9c105d09319d9b431bc717363d1"


def test_dn_family_extends_by_one_crossing_each_side():
    d2, d3 = dn_family(TRIVIAL_LONG, 2), dn_family(TRIVIAL_LONG, 3)
    # forward pass of d3 starts with d2's, return pass ends with d2's
    assert d3.passages[: 2 * 2] == d2.passages[: 2 * 2]


def test_dn_rejects_bad_input():
    with pytest.raises(ValueError):
        dn_family(TRIVIAL_LONG, 0)
    for n in (True, 1.0):  # a winding count is an int, not a bool or a float that equals one
        with pytest.raises(ValueError, match="n must be at least 1 and an int"):
            dn_family(TRIVIAL_LONG, n)
    with pytest.raises(ValueError):
        dn_family(close(catalog.k1()), 1)


def test_arc_structure_trivial():
    assert TRIVIAL_LONG.arc_count == 1
    assert UNKNOT.arc_count == 1
    assert arc_structure(TRIVIAL_LONG).crossings == {}


def test_arc_structure_one_crossing():
    d = parse_gauss("O1+ U1+")
    assert d.arc_count == 3
    inc = arc_structure(d).crossings[1]
    assert (inc.over_in, inc.over_out, inc.under_in, inc.under_out) == (0, 1, 1, 2)


def test_arc_counts_random():
    rng = random.Random(11)
    for _ in range(100):
        d = random_long_diagram(rng)
        assert d.arc_count == 2 * d.crossings + 1
        if d.crossings:
            c = close(d)
            assert c.arc_count == 2 * c.crossings


def test_k1_has_five_arcs():
    assert catalog.k1().arc_count == 5


def test_closed_equality_up_to_rotation():
    a = parse_gauss("closed\nO1+ O2+ U1+ U2+")
    b = parse_gauss("closed\nU1+ U2+ O1+ O2+")
    assert a == b
    # the cut point is immaterial; the signs are not
    c = parse_gauss("closed\nO1- O2- U1- U2-")
    assert a != c
    # every rotation of closed T(2, 101) is one diagram, whose key is its least rotation as Diagram renumbers it
    d = parse_gauss(braid_closure(2, [1] * 101))
    rotations = [Diagram(CLOSED, d.passages[r:] + d.passages[:r]) for r in range(len(d.passages))]
    key = d.canonical_key()
    assert key == (CLOSED, min(r.passages for r in rotations))
    assert all(r.canonical_key() == key for r in rotations)
    assert rotations[101] == d and hash(rotations[101]) == hash(d)


def test_long_equality_is_not_rotational():
    a = parse_gauss("O1+ O2+ U1+ U2+")
    b = parse_gauss("U1+ U2+ O1+ O2+")
    assert a != b
