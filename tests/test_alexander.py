import itertools
import json
import random

import pytest

import catalog
from oracles import (
    abelianize_reference,
    dedupe_relations,
    dense,
    difference_in_rowspan,
    end_arc_columns,
    end_generator_columns,
    is_trivial_presentation,
    l2,
    normalize_relation_reference,
    quotients,
    random_code,
    random_diagrams,
    random_long_diagram,
    same_relation,
    tietze_eliminate_reference,
)
from vka.alexander import (
    GroupPresentationZ2,
    _at,
    abelianize,
    extended_presentation,
    merged_arc_rows,
    normalize_relation,
    one_var_matrix,
    one_variable,
    quotient_kill,
    tietze_eliminate,
    tietze_from_diagram,
    word_str,
)
from vka.diagram import LONG, TRIVIAL_LONG, parse_gauss
from vka.invariants import char_poly, quotient_pipeline
from vka.laurent import LaurentPoly, parse_poly


def L(gen, u=0, v=0, sign=1):
    return gen, (u, v), sign


def rel(left, right):
    return tuple(left), tuple(right)


def rel_set_matches(relations, expected):
    """Same relations in the same order, allowing swapped sides."""
    return len(relations) == len(expected) and all(
        same_relation(a, b) for a, b in zip(relations, expected)
    )


# -- extended_presentation ---------------------------------------------


def test_trivial_presentation():
    p = extended_presentation(TRIVIAL_LONG)
    assert p.generators == ("a",)
    assert p.relations == ()
    assert p.end_minus == (L("a"),)
    assert p.end_plus == (L("a"),)


def test_k1_relations_golden():
    p = extended_presentation(catalog.k1())
    assert p.generators == ("a", "b", "c", "d", "e")
    expected = (
        rel([L("a"), L("c", u=1)], [L("d"), L("b", u=1)]),
        rel([L("a", v=1)], [L("b")]),
        rel([L("d"), L("b", u=1)], [L("c"), L("e", u=1)]),
        rel([L("d", v=1)], [L("e")]),
    )
    assert p.relations == expected


def test_k4_relations_golden():
    p = extended_presentation(catalog.k4())
    expected = (
        rel([L("a"), L("c", u=1)], [L("d"), L("b", u=1)]),
        rel([L("d", v=1)], [L("c")]),
        rel([L("b"), L("d", u=1)], [L("e"), L("c", u=1)]),
        rel([L("b", v=1)], [L("c")]),
    )
    assert p.relations == expected


def test_k5_relations_golden():
    p = extended_presentation(catalog.k5())
    expected = (
        rel([L("a"), L("c", u=1)], [L("d"), L("b", u=1)]),
        rel([L("a", v=1)], [L("b")]),
        rel([L("b"), L("d", u=1)], [L("e"), L("c", u=1)]),
        rel([L("e", v=1)], [L("d")]),
    )
    assert p.relations == expected


def test_relation_and_generator_counts():
    rng = random.Random(2)
    for _ in range(60):
        d = random_long_diagram(rng)
        p = extended_presentation(d)
        assert len(p.relations) == 2 * d.crossings
        assert len(p.generators) == 2 * d.crossings + 1


# -- tietze_eliminate ---------------------------------------------------


def test_k1_elimination_golden():
    e = tietze_eliminate(extended_presentation(catalog.k1()))
    assert e.generators == ("a", "d")
    expected = rel(
        [L("a"), L("d", u=1), L("a", u=2, v=1)],
        [L("d"), L("a", u=1, v=1), L("d", u=2, v=1)],
    )
    assert e.relations == (expected,)
    assert e.end_minus == (L("a"),)
    assert e.end_plus == (L("d", v=1),)


def test_k4_elimination_golden():
    e = tietze_eliminate(extended_presentation(catalog.k4()))
    assert e.generators == ("a", "d", "e")
    # the chained form a = d d^u (d^{uv})^-1 = e, split into two relations
    expected = (
        rel([L("a"), L("d", u=1, v=1)], [L("d"), L("d", u=1)]),
        rel([L("d"), L("d", u=1)], [L("e"), L("d", u=1, v=1)]),
    )
    assert rel_set_matches(e.relations, expected)


def test_eliminate_fixed_point():
    p = GroupPresentationZ2(
        generators=("x", "y"),
        relations=(rel([L("x"), L("y", u=1)], [L("y"), L("x", u=1)]),),
        end_minus=(L("x"),),
        end_plus=(L("y"),),
    )
    assert tietze_eliminate(p) == p


def test_elimination_preserves_char_polys():
    rng = random.Random(9)
    count = 0
    while count < 25:
        d = random_long_diagram(rng, 4)
        if d.crossings == 0:
            continue
        count += 1
        p = extended_presentation(d)
        raw, slim = abelianize(p), abelianize(tietze_eliminate(p))
        for k in (0, 1):
            assert char_poly(*raw, k) == char_poly(*slim, k)


def test_corpus_elimination_preserves_char_polys():
    for d in catalog.corpus().values():
        p = extended_presentation(d)
        raw, slim = abelianize(p), abelianize(tietze_eliminate(p))
        for k in (0, 1, 2):
            assert char_poly(*raw, k) == char_poly(*slim, k)


def _reference_cases():
    """Presentations up to c = 30, long and closed, raw and quotient_kill'ed."""
    for crossings in range(31):
        for seed in range(11 if crossings <= 12 else 2):
            rng = random.Random(seed)
            for closed in (False, True):
                p = extended_presentation(parse_gauss(random_code(rng, crossings, closed)))
                yield p
                if not closed:
                    lo, hi = p.end_minus[0][0], p.end_plus[0][0]
                    for victims in ({lo}, {hi}, {lo, hi}):
                        yield quotient_kill(p, victims)
                    yield quotient_kill(p, rng.sample(p.generators, rng.randint(1, len(p.generators))))


def test_elimination_matches_reference():
    count = 0
    for p in _reference_cases():
        fast, ref = tietze_eliminate(p), tietze_eliminate_reference(p)
        assert fast == ref
        assert str(fast) == str(ref)
        assert fast.to_json() == ref.to_json()
        count += 1
    assert count >= 1000


def test_pipeline_with_first_pass_from_diagram_matches_reference(corpus_dir):
    diagrams = [d for c in range(15) for d in random_diagrams(c, range(20))]
    diagrams += [d for c in (20, 30, 40) for d in random_diagrams(c, range(5))]
    diagrams += [parse_gauss(f.read_text()) for f in sorted(corpus_dir.glob("*.gauss"))]
    # at crossing 4 both sides of the second relation are bare, c = g: the left one goes
    diagrams.append(parse_gauss("U1+ U2- O1+ O3- O2- O4+ U3- U4+"))
    for d in diagrams:
        assert quotient_pipeline(d) == tietze_eliminate_reference(extended_presentation(d)), d


def test_first_pass_may_consume_a_protected_end_generator():
    # crossing 1 is negative, so its second relation is b^v = a: the first
    # pass replaces the end generator a by b^v.  Only a and e are protected,
    # so the second pass eliminates b, and the minus end becomes c^{v^2}.
    d = parse_gauss("O1- U2+ O2+ U1-")
    shown = quotient_pipeline(d)
    assert str(shown) == "<c, e | c^v c^{u v^2} = c^v e^u>"
    assert (shown.end_minus, shown.end_plus) == ((L("c", v=2),), (L("e"),))
    p = extended_presentation(d)
    assert shown == tietze_eliminate(p) == tietze_eliminate_reference(p)


def test_abelianize_matches_reference():
    count = 0
    for p in itertools.islice(_reference_cases(), 0, None, 3):
        for q in (p, tietze_eliminate(p)):
            fast, ref = abelianize(q), abelianize_reference(q)
            assert fast == ref
            assert [[str(e) for e in row] for row in dense(*fast)] == [[str(e) for e in row] for row in dense(*ref)]
            count += 1
    assert count >= 700


def test_elimination_keeps_the_first_of_equal_relations():
    # eliminating b = c turns "a b = c a" into "a c = c a", the relation
    # "c a = a c" with its sides swapped; whichever comes first stays
    swapped = rel([L("c"), L("a")], [L("a"), L("c")])
    rewritten = rel([L("a"), L("b")], [L("c"), L("a")])
    for relations, kept in (
        ((rel([L("b")], [L("c")]), rewritten, swapped), rel([L("a"), L("c")], [L("c"), L("a")])),
        ((swapped, rel([L("b")], [L("c")]), rewritten), swapped),
    ):
        p = GroupPresentationZ2(("a", "b", "c"), relations)
        assert tietze_eliminate(p) == tietze_eliminate_reference(p)
        assert tietze_eliminate(p).relations == (kept,)


def test_normalize_matches_reference():
    rng = random.Random(4)
    for _ in range(3000):
        sides = [
            [L(rng.choice("ab"), rng.randint(0, 1), 0, rng.choice((1, -1))) for _ in range(rng.randint(0, 6))]
            for _ in range(2)
        ]
        r = rel(*sides)
        assert normalize_relation(r) == normalize_relation_reference(r)


# -- quotient_kill ------------------------------------------------------


def test_kill_k1_end_gives_single_relation():
    e = tietze_eliminate(extended_presentation(catalog.k1()))
    q = quotient_kill(e, {"a"})
    assert q.generators == ("d",)
    expected = rel([L("d"), L("d", u=2, v=1)], [L("d", u=1)])
    assert len(q.relations) == 1
    assert same_relation(q.relations[0], expected)


def test_kill_product_presentation_golden():
    # the displayed product presentation: a = W = x with W = d d^u (d^{uv})^-1,
    # then killing the identified ends a and x
    W = (L("d"), L("d", u=1), L("d", u=1, v=1, sign=-1))
    pres = GroupPresentationZ2(
        generators=("a", "d", "x", "z", "s"),
        relations=(
            rel([L("a")], W),
            rel(W, [L("x")]),
            rel([L("x"), L("z", u=1)], [L("s", v=1), L("x", u=1, v=1)]),
            rel([L("x", v=1), L("s", u=1, v=1)], [L("s"), L("z", u=1)]),
        ),
        end_minus=(L("a"),),
        end_plus=(L("s"),),
    )
    q = quotient_kill(pres, {"a", "x"})
    assert q.generators == ("d", "z", "s")
    nontrivial = [r for r in q.relations if r[0] != r[1]]
    expected = [
        rel([L("d", u=1, v=1)], [L("d"), L("d", u=1)]),
        rel([L("z", u=1)], [L("s", v=1)]),
        rel([L("s", u=1, v=1)], [L("s"), L("z", u=1)]),
    ]
    deduped = dedupe_relations(nontrivial)
    assert len(deduped) == len(expected)
    assert all(any(same_relation(a, b) for b in expected) for a in deduped)


def test_kill_empty_is_identity():
    p = extended_presentation(catalog.k2())
    assert quotient_kill(p, set()) == p


def test_kill_unknown_generator():
    with pytest.raises(KeyError):
        quotient_kill(extended_presentation(catalog.k1()), {"zz"})


def test_kill_commutes_with_abelianize():
    rng = random.Random(13)
    for _ in range(25):
        d = random_long_diagram(rng, 4)
        p = extended_presentation(d)
        victims = {g for g in p.generators if rng.random() < 0.3}
        killed = abelianize(quotient_kill(p, victims))
        full = abelianize(p)
        keep = [i for i, g in enumerate(p.generators) if g not in victims]
        assert killed[1] == tuple(p.generators[i] for i in keep)
        assert dense(*killed) == [[row[i] for i in keep] for row in dense(*full)]


def test_k5_killed_ends_is_trivial_group_k4_not():
    for name, expect_trivial in (("k4", False), ("k5", True)):
        d = getattr(catalog, name)()
        p = extended_presentation(d)
        q = quotient_kill(p, {p.end_minus[0][0], p.end_plus[0][0]})
        assert is_trivial_presentation(q) is expect_trivial


# -- abelianize / one_variable ------------------------------------------


def test_abelianize_k1_quotient_module():
    # the relation d d^{u^2 v} = d^u, written in that orientation
    p = GroupPresentationZ2(
        generators=("d",),
        relations=(rel([L("d"), L("d", u=2, v=1)], [L("d", u=1)]),),
    )
    m = abelianize(p)
    assert m[1] == ("d",)
    assert dense(*m) == [[parse_poly("1 + u^2*v - u")]]
    # the kill pipeline produces the same row up to side orientation
    e = tietze_eliminate(extended_presentation(catalog.k1()))
    q = quotient_kill(e, {"a"})
    mq = abelianize(q)
    assert mq[1] == ("d",)
    assert dense(*mq)[0][0].canonical() == parse_poly("u^2*v - u + 1")


def test_abelianize_trivial():
    rows, cols = abelianize(extended_presentation(TRIVIAL_LONG))
    assert (len(rows), len(cols)) == (0, 1)


def test_abelianize_k1_eliminated_golden():
    # frozen after deriving the row by hand, letter by letter
    m = abelianize(tietze_eliminate(extended_presentation(catalog.k1())))
    assert m[1] == ("a", "d")
    assert dense(*m) == [[parse_poly("1 - u*v + u^2*v"), parse_poly("u - 1 - u^2*v")]]


def test_one_variable_entries():
    m = abelianize(tietze_eliminate(extended_presentation(catalog.k1())))
    t = one_variable(*m)
    assert all(b == 0 for row in t[0] for e in row.values() for _, b in e)  # in u alone: t is read as u
    assert dense(*t) == [[parse_poly("u^2 - u + 1"), parse_poly("-u^2 + u - 1")]]


def test_one_variable_merge_row():
    p = GroupPresentationZ2(
        generators=("a", "d"),
        relations=(rel([L("a", v=1)], [L("d")]),),
        end_minus=(L("a"),),
        end_plus=(L("d"),),
    )
    t = one_variable(*abelianize(p))
    assert dense(*t) == [[l2({(0, 0): 1}), l2({(0, 0): -1})]]


def test_one_var_matrix_shapes():
    rng = random.Random(17)
    for _ in range(40):
        d = random_long_diagram(rng)
        rows, cols = merged_arc_rows(d)
        for a in (one_var_matrix(d), (_at(rows, (1, 1)), cols)):  # -A(-1), and -A(1) as unit_minor_check reads it
            assert tuple(map(len, a)) == (d.crossings, d.crossings + 1)


# -- end generators ------------------------------------------------------


def test_end_columns_trivial():
    p = extended_presentation(TRIVIAL_LONG)
    m = abelianize(p)
    minus, plus = end_generator_columns(p, m)
    assert minus == plus == [LaurentPoly.const(1)]


def test_end_columns_k1():
    p = tietze_eliminate(extended_presentation(catalog.k1()))
    m = abelianize(p)
    minus, plus = end_generator_columns(p, m)
    assert minus == [l2({(0, 0): 1}), l2({})]
    assert plus == [l2({}), l2({(0, 1): 1})]


def test_end_expression_k3():
    e = tietze_eliminate(extended_presentation(catalog.k3()))
    # a_+inf = b b^{u v^2} (b^{u v})^-1 (named d in hand calculations)
    assert e.end_minus == (L("a"),)
    assert word_str(e.end_plus) == "e"
    # e's column equals the column of the expression modulo the rows
    m = abelianize(e)
    gen_index = {g: i for i, g in enumerate(e.generators)}
    expr = (L("b"), L("b", u=1, v=2), L("b", u=1, v=1, sign=-1))
    expr_cols = [LaurentPoly() for _ in e.generators]
    for gen, exp, sign in expr:
        expr_cols[gen_index[gen]] += LaurentPoly.monomial(exp, sign)
    _, plus = end_generator_columns(e, m)
    assert all(difference_in_rowspan(m, plus, expr_cols))


def test_ends_distinguishable_for_virtual_examples():
    for name in ("k1", "k2", "k3", "k5"):
        d = getattr(catalog, name)()
        p = tietze_eliminate(extended_presentation(d))
        m = abelianize(p)
        minus, plus = end_generator_columns(p, m)
        assert not all(difference_in_rowspan(m, minus, plus)), f"{name} ends not distinguished"


def test_k4_ends_are_equal():
    # k4's relations force both ends onto the same element, so no
    # specialization can tell them apart
    p = tietze_eliminate(extended_presentation(catalog.k4()))
    m = abelianize(p)
    minus, plus = end_generator_columns(p, m)
    assert all(difference_in_rowspan(m, minus, plus))


def test_classical_trefoil_ends_equal_one_variable():
    # the end arcs lie in the first and the last column of A(t), whose rows are those of A(u, 1) times units
    a = one_variable(*merged_arc_rows(catalog.trefoil()))
    assert all(difference_in_rowspan(a, *end_arc_columns(a)))


# -- product presentations ----------------------------------------------


def test_product_quotient_modules_golden():
    tsq = parse_poly("u^2 - u - 1")  # t read as u
    m45 = abelianize(quotient_pipeline(catalog.k4k5(), "end-minus"))
    from vka.alexander import diagonal_t

    m45t = diagonal_t(*m45)
    assert char_poly(*m45t, 0) == (tsq * tsq).canonical()
    assert char_poly(*m45t, 1) == tsq
    m54t = diagonal_t(*abelianize(quotient_pipeline(catalog.k5k4(), "end-minus")))
    assert char_poly(*m54t, 0) == (tsq * tsq).canonical()
    # cyclic module: the first ideal is everything
    assert char_poly(*m54t, 1) == LaurentPoly.const(1)


# -- returned presentations ---------------------------------------------


def _assert_shared_plain_words(p):
    """Every relation of ``p`` is a plain (left, right) pair of plain words, every letter a plain tuple,
    and equal letters are one object."""
    words = [w for r in p.relations for w in r] + [e for e in (p.end_minus, p.end_plus) if e is not None]
    assert all(type(r) is tuple and len(r) == 2 for r in p.relations)
    letters = [letter for w in words for letter in w]
    assert all(type(w) is tuple for w in words)
    assert all(type(letter) is tuple for letter in letters)
    assert len({id(letter) for letter in letters}) == len(set(letters))


def test_returned_presentations_share_plain_tuple_letters():
    diagrams = list(catalog.corpus().values())
    diagrams += [parse_gauss(random_code(random.Random(seed), c, closed))
                 for c in (*range(13), 20, 30) for seed in range(3 if c < 13 else 1) for closed in (False, True)]
    for d in diagrams:
        p = extended_presentation(d)
        shown = [p, tietze_eliminate(p), tietze_from_diagram(d)]
        shown += [quotient_pipeline(d, q) for q in quotients(d)]
        if d.kind == LONG:
            for victims in ({p.end_minus[0][0]}, {p.end_minus[0][0], p.end_plus[0][0]}):
                killed = quotient_kill(p, victims)
                shown += [killed, tietze_eliminate(killed)]
        for q in shown:
            _assert_shared_plain_words(q)


def test_to_json_hands_out_the_stored_words():
    """``to_json`` returns the presentation's own word tuples, and ``json`` writes them as it writes
    per-letter lists ``[gen, [u_exp, v_exp], sign]``."""

    def letters(w):
        return [[g, list(e), s] for g, e, s in w]

    diagrams = list(catalog.corpus().values()) + [d for c in range(17) for d in random_diagrams(c, range(10))]
    for d in diagrams:
        for q in quotients(d):
            p = quotient_pipeline(d, q)
            shown = p.to_json()
            assert shown["generators"] is p.generators
            assert len(shown["relations"]) == len(p.relations)
            assert all(s["left"] is l and s["right"] is r for s, (l, r) in zip(shown["relations"], p.relations))
            assert shown["end_minus"] is p.end_minus and shown["end_plus"] is p.end_plus
            copied = {
                "generators": list(p.generators),
                "relations": [{"left": letters(l), "right": letters(r)} for l, r in p.relations],
                "end_minus": None if p.end_minus is None else letters(p.end_minus),
                "end_plus": None if p.end_plus is None else letters(p.end_plus),
            }
            assert json.dumps(shown, sort_keys=True) == json.dumps(copied, sort_keys=True)
