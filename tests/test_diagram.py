import hashlib
import random

import pytest

import catalog
from oracles import arc_structure, random_long_diagram
from vka.diagram import (
    CLOSED,
    Diagram,
    GaussCodeError,
    LONG,
    Passage,
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
    # more digits than int() converts: a parse error at the token, not a ValueError from int()
    huge = "1" * 5000
    with pytest.raises(GaussCodeError, match="crossing id of 5000 digits") as err:
        parse_gauss(f"closed\nO2+ U2+  O{huge}+ U{huge}+")
    assert (err.value.line, err.value.column) == (2, 10)


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
            Diagram(LONG, [Passage(cid, "O", sign), Passage(cid, "U", sign)])


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
    for p in d.passages:
        signs[p.crossing] = p.sign
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


def test_long_equality_is_not_rotational():
    a = parse_gauss("O1+ O2+ U1+ U2+")
    b = parse_gauss("U1+ U2+ O1+ O2+")
    assert a != b
