"""The merged two-variable arc matrix A(u, v) and the route built on it.

``invariants.quotient_matrix`` drops an end quotient's killed end columns
from A(u, v) and reduces the rest once.  ``invariant_profile`` shares one
reduction of A(u, v) between ``none`` and ``end-minus``, then finishes
each.  Every matrix either gives must give every char poly and hom count
that the word route it replaced gives
(``oracles.quotient_matrix_reference``: the raw presentation's end
quotient, then ``reduced_matrix``), and the profile must agree with a
fresh ``quotient_matrix`` per quotient.
"""

import hashlib
import random
from itertools import product

import pytest

import catalog
from oracles import (
    assert_same_module,
    dense,
    merged_arc_rows_by_words,
    merged_arc_rows_reference,
    one_var_matrix_reference,
    quotient_matrix_reference,
    quotients,
    random_diagrams,
    random_poly,
    smith_normal_form_reference,
    specialized_matrix_reference,
    subs_int,
    subs_mod,
)
from test_invariants import smith_via_smith_at
from vka import cli, invariants
from vka.alexander import _at, _reduce, merged_arc_rows, one_var_matrix, one_variable
from vka.diagram import LONG, close, dn_family, parse_gauss
from vka.invariants import char_poly, invariant_profile, quotient_matrix
from vka.laurent import LaurentPoly
from vka.moves import random_walk


def _key_order(merged):
    """The rows of ``merged_arc_rows``'s result as lists of (column, list of (exponent, coefficient))."""
    rows, cols = merged
    return [[(g, list(entry.items())) for g, entry in row.items()] for row in rows], cols


def _assert_matches_word_route(d, ks=(0, 1, 2)):
    """Char polys over L2, v1 and diag, and hom counts, for every quotient of d,
    from ``quotient_matrix`` and from the matrices ``invariant_profile`` shares one reduction for."""
    rows = merged_arc_rows(d)
    assert rows == merged_arc_rows_reference(d)
    # == ignores dict order, but _reduce breaks Markowitz ties by the order of rows and entries
    assert _key_order(rows) == _key_order(merged_arc_rows_by_words(d))
    shared = invariants._profile_matrices(d)
    assert list(shared) == (["none", "end-minus"] if d.kind == LONG else ["none"])
    for quotient in quotients(d):
        reference = quotient_matrix_reference(d, quotient)
        ms = [quotient_matrix(d, quotient)]
        if quotient in shared and shared[quotient] != ms[0]:
            ms.append(shared[quotient])
        for m in ms:
            assert_same_module(reference, m, ks, (d, quotient))


@pytest.mark.parametrize("crossings", [None, "windings", 0, 1, 2, 4, 8, 12, 20, 30])
def test_quotient_matrix_matches_word_route(crossings):
    if crossings is None:
        diagrams = list(catalog.corpus().values())
    elif crossings == "windings":
        diagrams = [dn_family(b, n) for b in catalog.corpus().values() if b.kind == LONG for n in range(1, 7)]
    else:
        diagrams = random_diagrams(crossings, range(5 if crossings == 30 else 10))
    for d in diagrams:
        _assert_matches_word_route(d)


def test_specialized_rows_reduce_to_the_reduce_then_specialize_module():
    # --t v1 and diag specialize A(u, v)'s rows, then reduce: a ring map sends unit pivots to unit pivots, so the
    # module, and with it every char poly, is that of reducing in two variables and then specializing
    bases = list(catalog.corpus().values())
    diagrams = bases + [dn_family(b, n) for b in bases if b.kind == LONG for n in range(1, 7)]
    for crossings in range(31):
        diagrams += random_diagrams(crossings, range(5))
    for d in diagrams:
        for quotient in quotients(d):
            for t in ("v1", "diag"):
                m, reference = quotient_matrix(d, quotient, t), specialized_matrix_reference(d, quotient, t)
                assert all(b == 0 for row in m[0] for e in row.values() for _, b in e), (d, quotient, t)
                for k in (0, 1, 2):
                    assert char_poly(*m, k) == char_poly(*reference, k), (d, quotient, t, k)
    for t in ("t", "V1", None):  # the specializations are "v1" and "diag", besides "uv" for none
        with pytest.raises(KeyError):
            quotient_matrix(catalog.k1(), "none", t)


def _matrix_repr(m):
    """The text that pins a reduced matrix (rows, cols): the ``repr`` of the named tuple that once held it."""
    rows, cols = m
    return f"PresentationMatrix(ring='L2', cols={cols!r}, rows={tuple(map(tuple, dense(rows, cols)))!r})"


def test_golden_reduced_matrices():
    # pins every reduced matrix, entry order and shape included, and every profile
    bases = list(catalog.corpus().values())
    diagrams = bases + [dn_family(b, n) for b in bases if b.kind == LONG for n in range(1, 7)]
    for crossings in (0, 4, 8, 12, 20, 30):
        diagrams += random_diagrams(crossings, range(5))
    lines = []
    for d in diagrams:
        lines += [_matrix_repr(quotient_matrix(d, quotient)) for quotient in quotients(d)]
        lines.append(repr(invariant_profile(d)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d7bb07b1ecbdd5837cc36650ea05c4c37a665ac5fcc738a5bb295df5f484255f"


# -- one reduction per quotient, and one shared by the profile's pair -----


def _sparse(entries):
    """Sparse rows from rows of {column: {(u_exp, v_exp): coeff}}, fresh on every call."""
    return [{g: dict(terms) for g, terms in row.items()} for row in entries]


def test_reduce_never_pivots_in_a_kept_column():
    # row 0's unit in column a costs 0, row 1's unit in column b costs 2 * 1
    rows = [
        {"a": {(0, 0): 1}},
        {"a": {(0, 0): 2}, "b": {(1, 0): -1}, "c": {(0, 0): 1, (1, 0): 1}},
        {"b": {(0, 0): 3}, "c": {(0, 0): 1, (0, 1): 1}},
    ]
    cols = ("a", "b", "c")
    free_rows, free_cols = free = _reduce(_sparse(rows), cols)  # rows and columns, whatever keep holds
    assert free_cols == ("c",) and len(free_rows) == 1
    kept_rows, kept_cols = _reduce(_sparse(rows), cols, keep={"a"})
    assert kept_cols == ("a", "c") and len(kept_rows) == 2
    assert kept_rows[0] == rows[0]  # row 0 is untouched
    kept = _sparse(kept_rows), kept_cols
    assert dense(*kept)[0] == [LaurentPoly.const(1), LaurentPoly()]
    assert _reduce(kept_rows, kept_cols) == free  # finished once a is free, as if it never was kept
    for k in range(3):
        assert char_poly(*kept, k) == char_poly(*free, k)


def _counted(monkeypatch):
    """Record each ``merged_arc_rows`` call as its row count, and each ``_reduce`` call as (rows, keep)."""
    builds, reductions = [], []
    real_rows, real_reduce = invariants.merged_arc_rows, invariants._reduce

    def build(d):
        rows, cols = real_rows(d)
        builds.append(len(rows))
        return rows, cols

    def reduce(rows, cols, keep=()):
        reductions.append((len(rows), keep))
        return real_reduce(rows, cols, keep)

    monkeypatch.setattr(invariants, "merged_arc_rows", build)
    monkeypatch.setattr(invariants, "_reduce", reduce)
    return builds, reductions


def _contract_diagrams():
    """The corpus, each corpus code closed, and random codes at c = 8, long and closed."""
    bases = list(catalog.corpus().values())
    return bases + [close(d) for d in bases] + random_diagrams(8, range(3))


def test_quotient_matrix_builds_and_reduces_once(monkeypatch):
    builds, reductions = _counted(monkeypatch)
    for d in _contract_diagrams():
        for quotient in quotients(d):
            builds.clear()
            reductions.clear()
            quotient_matrix(d, quotient)
            assert builds == [d.crossings] and reductions == [(d.crossings, ())], (d, quotient)


def test_profile_reduces_all_of_a_once(monkeypatch):
    builds, reductions = _counted(monkeypatch)
    eliminations = []
    real_reduce_int = invariants._reduce_int

    def reduce_int(rows, cols):
        eliminations.append([dict(row) for row in rows])  # the elimination changes its rows in place
        return real_reduce_int(rows, cols)

    monkeypatch.setattr(invariants, "_reduce_int", reduce_int)
    for d in _contract_diagrams():
        if not d.crossings:
            continue
        builds.clear()
        reductions.clear()
        eliminations.clear()
        invariant_profile(d)
        assert builds == [d.crossings], d
        if d.kind == LONG:
            # one reduction of all of A(u, v), no pivot in the minus end's column, then one finish per quotient
            # on the rows it left
            assert len(reductions) == 3 and reductions[0] == (d.crossings, {merged_arc_rows(d)[1][0]}), d
            assert all(r < d.crossings and not keep for r, keep in reductions[1:]), d
        else:  # "none" alone: one reduction
            assert reductions == [(d.crossings, ())], d
        # then one integer elimination, of the none matrix's rows at (-1, 1), for the determinant and colorings
        none_rows = _at(invariants._profile_matrices(d)["none"][0], (-1, 1))
        assert eliminations == [none_rows], d


# -- closed diagrams wrap into column 0 ------------------------------------


@pytest.mark.parametrize("code", [
    # ends in over passages of mixed signs; a nonzero sum shifts the wrapped arcs
    "closed\nU1+ U2- U3+ O1+ O2- O3+",
    "closed\nU1- U2+ U3+ O3+ O1- O2+",
    "closed\nU2- U1- U3+ U4- O1- O3+ O4- O2-",
    "closed\nU1- U2+ O3- U3- O1- O2+",  # a zero sum
    # starts with over passages
    "closed\nO1+ O2- U1+ U2-",
    "closed\nO1- O2+ O3- U2+ U3- U1-",
    "closed\nO1+ O2- U3+ U1+ O3+ U2-",
    # both
    "closed\nO1- U2- U3- U1- U4+ O3- O2- O4+",
])
def test_closed_wrap(code):
    _assert_matches_word_route(parse_gauss(code), ks=range(4))


def test_closed_wrap_shifts_the_tail_by_the_over_signs_up_to_arc_0():
    # arcs d, e and f run on into column a through O1+, O2- and O3+
    rows, cols = merged_arc_rows(parse_gauss("closed\nU1+ U2- U3+ O1+ O2- O3+"))
    assert cols == ("a", "b", "c")
    assert rows[0] == {"a": {(0, -1): 1}, "b": {(0, 0): -1}}  # d + u*a - b - u*e, d = e/v = a/v


@pytest.mark.parametrize("code", ["closed\n", "closed\nO1+ U1+", "closed\nU1- O1-", "closed\nO1- U1-"])
def test_closed_with_zero_and_one_crossing(code):
    d = parse_gauss(code)
    rows, cols = merged_arc_rows(d)
    assert cols == ("a",) and len(rows) == d.crossings
    _assert_matches_word_route(d, ks=range(3))


@pytest.mark.parametrize("quotient", ["end-minus", "end-plus", "ends"])
def test_long_with_no_crossings(quotient):
    d = parse_gauss("")
    assert merged_arc_rows(d) == ([], ("a",))
    m = quotient_matrix(d, quotient)
    assert tuple(map(len, m)) == (0, 0)  # both ends are arc a
    assert char_poly(*m, 0).is_one
    _assert_matches_word_route(d)


def test_quotient_errors_keep_their_messages():
    closed = parse_gauss("closed\nO1+ U1+")
    with pytest.raises(ValueError, match="end quotients require a long diagram"):
        quotient_matrix(closed, "end-minus")
    with pytest.raises(ValueError, match="end quotients require a long diagram"):
        quotient_matrix(closed, "sideways")
    with pytest.raises(ValueError, match="unknown quotient 'sideways'"):
        quotient_matrix(catalog.k1(), "sideways")


def test_trefoil_ends_shape():
    # the word route reduced to 1x1; A(u, v) less both end columns reduces to 2x1
    assert tuple(map(len, quotient_matrix_reference(catalog.trefoil(), "ends"))) == (1, 1)
    m = quotient_matrix(catalog.trefoil(), "ends")
    assert tuple(map(len, m)) == (2, 1)
    assert char_poly(*m, 0) == char_poly(*quotient_matrix_reference(catalog.trefoil(), "ends"), 0)


# -- invariant_profile finishes one shared reduction per quotient ----------


def test_profile_matches_a_fresh_quotient_matrix_per_quotient():
    for d in catalog.corpus().values():
        for walked in [d] + [random_walk(d, seed, 20, max_crossings=d.crossings + 6) for seed in range(15)]:
            profile = invariant_profile(walked)
            for quotient in ("none", "end-minus") if walked.kind == LONG else ("none",):
                fresh = quotient_matrix(walked, quotient)
                for k in (0, 1):
                    assert profile[f"charpoly k={k} quotient={quotient}"] == str(char_poly(*fresh, k)), \
                        (walked, quotient, k)


def test_word_presentation_is_built_only_for_presentation(capsys, corpus_dir, monkeypatch):
    calls = []
    for name in ("extended_presentation", "quotient_kill", "_end_quotient"):
        real = getattr(invariants, name)
        monkeypatch.setattr(invariants, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    k1 = str(corpus_dir / "k1.gauss")
    for argv in (
        ["invariants", k1, "--charpoly", "0", "--charpoly", "1", "--quotient", "ends"],
        ["invariants", k1, "--charpoly", "1", "--t", "v1", "--det", "--color", "3"],
        ["homcount", k1, "-p", "5", "-s", "3", "--quotient", "end-minus"],
        ["fuzz", k1, "--steps", "5", "--walks", "2"],
    ):
        assert cli.main(argv) == 0
        assert calls == [], argv
    assert cli.main(["invariants", k1, "--presentation", "--charpoly", "0", "--quotient", "end-plus"]) == 0
    assert calls == ["extended_presentation", "_end_quotient", "quotient_kill"]
    capsys.readouterr()


# -- A(t) is A(u, v) at (u, v) = (t, 1), each row times a unit ------------


def _one_var_diagrams():
    """The corpus, dn n = 1-6 of each long corpus code, and random codes at c = 0-30."""
    bases = list(catalog.corpus().values())
    diagrams = bases + [dn_family(b, n) for b in bases if b.kind == LONG for n in range(1, 7)]
    for crossings in range(31):
        diagrams += random_diagrams(crossings, range(2))
    return diagrams


def test_one_var_matrix_matches_the_per_crossing_builder():
    for d in _one_var_diagrams():
        rows, cols = merged_arc_rows(d)
        reference_rows, reference_cols = merged_arc_rows_reference(d)
        assert cols == reference_cols
        # the column order within a row sets the reduction's pivot ties
        assert [list(row) for row in rows] == [list(row) for row in reference_rows]
        # the coloring matrix is -A(-1), and A(u, v) at (1, 1), whose minors unit_minor_check takes, is -A(1)
        for t, m in ((-1, one_var_matrix(d)), (1, (_at(rows, (1, 1)), cols))):
            a_rows, a_cols = one_var_matrix_reference(d, t)
            assert m == ([{g: -x for g, x in row.items()} for row in a_rows], a_cols), (d, t)


def test_laurent_one_var_matrix_has_the_char_polys_of_the_merged_matrix_at_v_1():
    # A(t), built per crossing with t read as u, against A(u, v) at v = 1: their rows differ by units
    diagrams = list(catalog.corpus().values())
    for crossings in range(9):
        diagrams += random_diagrams(crossings, range(3))
    for d in diagrams:
        merged = one_variable(*merged_arc_rows(d))
        for k in (0, 1):
            assert char_poly(*one_var_matrix_reference(d), k) == char_poly(*merged, k), (d, k)


def test_evaluation_at_a_point_matches_the_references():
    # rows of constants: mod p the residue of least absolute value, over Z at +-1 the parity evaluation; no zeros
    rng = random.Random(61)
    primes = (2, 3, 5, 7, 11, 3317044064679887385961813)
    for _ in range(400):
        poly = random_poly(rng, max_terms=6)
        for p in primes:
            point = (rng.randrange(1, p), rng.randrange(1, p))
            (row,) = _at([{"x": poly.terms}], point, p)
            value = row.get("x", 0)
            assert value % p == subs_mod(poly, point, p) and -p < 2 * value <= p and row in ({}, {"x": value})
            assert type(value) is int
        for point in product((1, -1), repeat=2):
            (row,) = _at([{"x": poly.terms}], point)
            value = row.get("x", 0)
            assert value == subs_int(poly, point) and row in ({}, {"x": value}) and type(value) is int


def test_one_var_matrix_is_the_coloring_matrix_and_takes_no_t():
    # one_var_matrix builds -A(-1) alone; A(t) over Z[t^+-1], and A(t) at any t, are built only by the test oracles
    u = LaurentPoly.monomial((1, 0))
    for t in (1, -1, 0, 2, -3, True, 1.0, -1.0, u, -u, u ** 2):
        with pytest.raises(TypeError):
            one_var_matrix(catalog.k1(), t)
    assert one_var_matrix(catalog.k1()) == ([{"a": 2, "c": -1, "d": -1}, {"d": 2, "a": -1, "c": -1}], ("a", "c", "d"))


# -- the diagonal of _smith_at against the full-scan Smith form ----------


def _a_minus_one_matrices():
    """-A(-1) of the benchmark's shapes: corpus, windings of corpus bases, random codes."""
    bases = list(catalog.corpus().values())
    diagrams = bases + [dn_family(b, n) for b in bases[:4] for n in range(1, 7)]
    for crossings in (8, 12, 20, 30):
        diagrams += random_diagrams(crossings, range(3))
    return [dense(*one_var_matrix(d), int) for d in diagrams]


def test_smith_matches_full_scan_on_arc_matrices():
    for rows in _a_minus_one_matrices():
        assert smith_via_smith_at(rows) == smith_normal_form_reference(rows)


def test_smith_matches_full_scan_on_dense_and_divisor_chain_matrices():
    rng = random.Random(0)
    cases = [[[2, 0], [0, 3]], [[4, 0, 0], [0, 6, 0], [0, 0, 9]]]
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
    for _ in range(100):
        # diagonal, no entry +-1: the smallest entry seldom divides the others,
        # so the diagonal is seldom a divisor chain
        n = rng.randint(2, 5)
        cases.append([[rng.choice((2, 3, 4, 5, 6, 9, 10, 15)) if i == j else 0 for j in range(n)] for i in range(n)])
    for rows in cases:
        assert smith_via_smith_at(rows) == smith_normal_form_reference(rows), rows
