"""``oracles.reduced_matrix`` against the abelianized Tietze presentation.

Unit-pivot elimination is an elementary equivalence of presentations, so
the reduced matrix must give every characteristic polynomial (k-th Fitting
ideal gcd) and every hom count that ``abelianize(tietze_eliminate(p))``
gives, over Z[u^+-1, v^+-1] and after either specialization to Z[t^+-1].
"""

import random
import time

import pytest

import catalog
from oracles import assert_same_module, dense, quotients, random_code, random_diagrams, reduced_matrix
from vka import alexander, cli
from vka.alexander import (
    GroupPresentationZ2,
    abelianize,
    extended_presentation,
    tietze_eliminate,
)
from vka.diagram import UNKNOT, parse_gauss
from vka.invariants import _end_quotient, char_poly
from vka.laurent import LaurentPoly


def _assert_same_module(p, reduced, ks=(0, 1, 2)):
    """Char polys over L2, v1 and diag, and hom counts, agree with today's route."""
    assert len(reduced[1]) <= len(abelianize(p)[1])
    assert_same_module(abelianize(tietze_eliminate(p)), reduced, ks)


@pytest.mark.parametrize("crossings", [None, 8, 12, 20])
def test_reduced_matrix_matches_tietze_route(crossings):
    diagrams = list(catalog.corpus().values()) if crossings is None else random_diagrams(crossings, range(5))
    for d in diagrams:
        for quotient in quotients(d):
            p = _end_quotient(extended_presentation(d), quotient)
            _assert_same_module(p, reduced_matrix(p))


def test_reduced_matrix_matches_tietze_route_at_30_crossings():
    # k = 2 and the L2 lists of every quotient would take minutes on today's route
    for d in random_diagrams(30, range(5)):
        for quotient in quotients(d):
            p = _end_quotient(extended_presentation(d), quotient)
            _assert_same_module(p, reduced_matrix(p), ks=(0, 1))


def test_reduced_matrix_of_an_eliminated_presentation():
    # what `invariants --presentation --charpoly K` reduced before it took A(u, v)
    for d in list(catalog.corpus().values()) + random_diagrams(8, range(5)):
        for quotient in quotients(d):
            shown = tietze_eliminate(_end_quotient(extended_presentation(d), quotient))
            reduced = reduced_matrix(shown)
            assert len(reduced[1]) <= len(shown.generators)
            _assert_same_module(shown, reduced)


# -- adversarial matrices ------------------------------------------------


def _presentation(rows, ncols=None):
    """A presentation whose abelianized rows are ``rows``.

    A row maps column index -> {(a, b): coefficient}; each coefficient c
    becomes |c| letters x_j^(u^a v^b), inverted when c < 0.
    """
    ncols = ncols if ncols is not None else 1 + max((j for row in rows for j in row), default=-1)
    gens = tuple(f"x{j}" for j in range(ncols))
    relations = []
    for row in rows:
        word = tuple(
            (gens[j], exp, 1 if c > 0 else -1)
            for j, terms in row.items()
            for exp, c in terms.items()
            for _ in range(abs(c))
        )
        relations.append((word, ()))
    return GroupPresentationZ2(gens, tuple(relations))


def _entries(m):
    return [[e.terms for e in row] for row in dense(*m)]


def _assert_same_ideals(p, ks=range(5)):
    full, reduced = abelianize(p), reduced_matrix(p)
    assert len(reduced[1]) <= len(full[1])
    assert not any(e.is_unit for row in dense(*reduced) for e in row)  # no pivot left
    assert_same_module(full, reduced, ks)
    return reduced


def test_no_unit_entries_keeps_the_matrix():
    p = _presentation([
        {0: {(0, 0): 2}, 1: {(0, 0): 1, (1, 0): 1}},
        {0: {(0, 0): 1, (1, 0): -1, (0, 1): 1}, 1: {(0, 0): 3}},
    ])
    reduced = _assert_same_ideals(p)
    assert reduced == abelianize(p)


def test_negative_and_shifted_monomial_units():
    p = _presentation([
        {0: {(2, -3): -1}, 1: {(0, 0): 1, (1, 1): 2}, 2: {(-1, 0): 3}},
        {0: {(0, 0): 2, (0, 1): 1}, 1: {(-4, 2): -1}, 2: {(1, 0): 1, (0, 0): 1}},
        {0: {(1, 0): 1, (0, 0): -1}, 2: {(0, 0): 2, (1, 1): -1}},
    ])
    reduced = _assert_same_ideals(p)
    # the cheapest pivot, -u^-4 v^2, turns the other two units into non-units
    assert tuple(map(len, reduced)) == (2, 2)


def test_zero_and_duplicate_rows():
    row = {0: {(0, 0): 1, (1, 0): -1}, 1: {(0, 1): 1}}
    p = _presentation([{}, row, row, {}, {0: {(0, 0): 3}, 1: {(1, 0): 2}}])
    reduced = _assert_same_ideals(p)
    assert all(any(e for e in r) for r in dense(*reduced))  # zero rows are dropped


def test_a_row_that_is_a_single_unit():
    p = _presentation([
        {1: {(3, -1): -1}},
        {0: {(0, 0): 2}, 1: {(0, 0): 1, (1, 0): 5}},
        {0: {(1, 0): 1, (0, 0): 1}, 1: {(0, 1): 7}},
    ])
    reduced = _assert_same_ideals(p)
    assert reduced[1] == ("x0",)
    assert _entries(reduced) == [[{(0, 0): 2}], [{(1, 0): 1, (0, 0): 1}]]


def test_every_column_eliminated_gives_one_for_every_k():
    p = _presentation([
        {0: {(0, 0): 1}, 1: {(0, 0): 2, (1, 0): 1}, 2: {(0, 1): -4}},
        {1: {(1, 1): -1}, 2: {(0, 0): 1, (1, 0): 1}},
        {2: {(0, 2): 1}},
    ])
    reduced = _assert_same_ideals(p)
    assert tuple(map(len, reduced)) == (0, 0)
    for k in range(4):
        assert char_poly(*reduced, k).is_one


def test_zero_rows_only():
    p = _presentation([{}, {}], ncols=2)
    reduced = _assert_same_ideals(p)
    assert tuple(map(len, reduced)) == (0, 2)
    assert not char_poly(*reduced, 0)
    assert char_poly(*reduced, 2).is_one


def test_no_relations():
    reduced = _assert_same_ideals(GroupPresentationZ2(("a", "b"), ()))
    assert tuple(map(len, reduced)) == (0, 2)


@pytest.mark.parametrize("code", ["closed\n", "closed\nO1+ U1+", "closed\nU1- O1-"])
def test_closed_diagrams_with_zero_and_one_crossing(code):
    d = parse_gauss(code)
    if not d.crossings:
        assert d == UNKNOT
    p = extended_presentation(d)
    reduced = _assert_same_ideals(p)
    _assert_same_module(p, reduced)


def test_ties_go_to_the_first_row():
    # both units cost 1 * 1; taking either leaves the other row's entry -u - v - u v
    p = _presentation([
        {0: {(0, 0): 1}, 1: {(0, 0): 1, (1, 0): 1}},
        {0: {(0, 0): 1, (0, 1): 1}, 1: {(0, 0): 1}},
    ])
    reduced = _assert_same_ideals(p)
    assert reduced[1] == ("x1",)
    assert _entries(reduced) == [[{(1, 0): -1, (0, 1): -1, (1, 1): -1}]]


# -- the CLI builds word presentations only for --presentation ----------


def test_tietze_is_reached_only_through_presentation(capsys, corpus_dir, monkeypatch):
    # every Tietze elimination, from a presentation or from a diagram, runs one _eliminate loop
    calls = []
    real = alexander._eliminate
    monkeypatch.setattr(alexander, "_eliminate", lambda *a: calls.append(a) or real(*a))
    k1 = str(corpus_dir / "k1.gauss")
    for argv in (
        ["invariants", k1, "--charpoly", "0", "--charpoly", "1", "--quotient", "end-minus"],
        ["invariants", k1, "--charpoly", "1", "--t", "v1", "--det", "--color", "3"],
        ["homcount", k1, "-p", "5", "-s", "3", "--quotient", "end-minus"],
        ["fuzz", k1, "--steps", "5", "--walks", "2"],
    ):
        assert cli.main(argv) == 0
        assert calls == [], argv
    assert cli.main(["invariants", k1, "--presentation", "--charpoly", "0"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_fuzz_on_30_crossings_finishes_fast(tmp_path):
    # elimination with fill-in, or Tietze with 7x8 minors, took 8.4 s here
    path = tmp_path / "c30.gauss"
    path.write_text(random_code(random.Random(2), 30) + "\n")
    start = time.perf_counter()
    code = cli.main(["--json", "fuzz", str(path), "--steps", "5"])
    assert time.perf_counter() - start < 2.0
    assert code == 0
