import copy
import functools
import json
import math
import random
import time
from itertools import combinations, product

import pytest

import catalog
from oracles import (
    HOM_CASES,
    arc_classes,
    brute_force_colorings,
    brute_force_hom_count,
    colorings_by_reduction_reference,
    colorings_reference,
    dense,
    det_cofactor,
    det_exact_reference,
    hom_count_by_specialization_reference,
    maximal_minors,
    minors_reference,
    one_var_matrix_reference,
    quotients,
    random_code,
    random_diagrams,
    random_long_diagram,
    rank_mod,
    reverse_code,
    smith_normal_form_reference,
    specialize_entry,
    subs_int,
    subs_mod,
    subs_reference,
    transfer_brute_force,
    transfer_matrix_reference,
)
from vka import cli, invariants, laurent
from vka.alexander import (
    _at,
    abelianize,
    diagonal_t,
    extended_presentation,
    merged_arc_rows,
    one_var_matrix,
    one_variable,
    quotient_kill,
    tietze_eliminate,
)
from vka.diagram import LONG, TRIVIAL_LONG, close, concatenate, dn_family, parse_gauss, serialize_gauss
from vka.invariants import (
    BudgetExceeded,
    char_poly,
    coloring_count,
    det_exact,
    determinant_long,
    elementary_minors,
    hom_count_to_cyclic,
    invariant_profile,
    quotient_matrix,
    quotient_pipeline,
    quotient_rows,
    transfer_condition,
    transfer_matrix,
    unit_minor_check,
)
from vka.laurent import LaurentPoly, divides, parse_poly
from vka.moves import random_walk


def _pair(rows, cols=None):
    """The (rows, cols) pair of dense rows of ints or polynomials, over ``cols`` or x0, x1, ..."""
    cols = cols or tuple(f"x{i}" for i in range(len(rows[0]) if rows else 0))
    return [{g: {(0, 0): e} if isinstance(e, int) else e.terms for g, e in zip(cols, row) if e} for row in rows], cols


# -- minors ---------------------------------------------------------------


def test_minors_single_entry():
    m = _pair([[7]])
    assert elementary_minors(*m, 0) == [7]


def test_minors_empty_convention():
    m = _pair([[7]])
    assert elementary_minors(*m, 1) == [1]
    assert elementary_minors(*m, 5) == [1]


def test_minors_size_one_enumeration():
    m = _pair([[5, 0], [0, 5]])
    assert elementary_minors(*m, 1) == [5, 0, 0, 5]


def test_one_by_one_minors_do_not_share_the_entries_they_copy():
    # a 1x1 minor is its entry, copied: a later change to the matrix changes no minor
    rows, cols = quotient_matrix(catalog.k1())
    assert (len(rows), len(cols)) == (1, 2)
    minors = elementary_minors(rows, cols, 1)
    before = [(str(m), hash(m)) for m in minors]
    assert [text for text, _ in before] == ["u*v - v + u^-1", "-u*v + 1 - u^-1"]
    for row in rows:
        for terms in row.values():
            terms[5, 5] = 7
    assert [(str(m), hash(m)) for m in minors] == before


def test_minors_exceeding_dimensions():
    m = _pair([[1, 2, 3]])
    assert elementary_minors(*m, 1) == []


def test_minors_budget():
    rng = random.Random(0)
    rows = [[rng.randrange(-3, 4) for _ in range(8)] for _ in range(8)]
    with pytest.raises(BudgetExceeded):
        elementary_minors(*_pair(rows), 4, max_minors=10)


def test_det_exact_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == det_cofactor(rows)


def test_det_exact_laurent():
    t = LaurentPoly.monomial((1, 0))  # t read as u
    one = LaurentPoly.const(1)
    rows = [[t, one], [one, t]]
    assert det_exact_reference(rows) == t * t - 1


# -- packed minors against the Laurent Bareiss reference -------------------


def _char_poly_inputs(d):
    """The L2 matrix of every valid quotient of d, and its v1 and diag specializations."""
    for quotient in quotients(d):
        m = abelianize(quotient_pipeline(d, quotient))
        yield from (m, one_variable(*m), diagonal_t(*m))


def test_packed_minors_match_reference():
    diagrams = list(catalog.corpus().values())
    for c in (8, 12, 20):
        for seed in range(3):
            for closed in (False, True):
                diagrams.append(parse_gauss(random_code(random.Random(100 * c + seed), c, closed=closed)))
    for d in diagrams:
        for m in _char_poly_inputs(d):
            for k in (0, 1, 2):
                assert elementary_minors(*m, k) == minors_reference(m, k), (d, k)


def test_packed_minors_match_reference_at_30_crossings():
    cases = [(seed, closed, 0) for seed in range(5) for closed in (False, True)]
    cases.append((4, True, 1))  # 16 minors of a 4x4 matrix; about 1 s for the reference
    for seed, closed, k in cases:
        m = abelianize(quotient_pipeline(parse_gauss(random_code(random.Random(seed), 30, closed=closed))))
        assert elementary_minors(*m, k) == minors_reference(m, k), (seed, closed, k)


def test_packed_minors_adversarial_matrices():
    big = 2**64
    u, v = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1))
    one, zero = LaurentPoly.const(1), LaurentPoly()
    # minors whose coefficient is the bound, the product of their rows' 1-norms
    at_bound = _pair([[3 * u, zero], [zero, -5 * v]])
    at_big_bound = _pair([[-big * u ** -3, zero], [zero, one]])
    assert elementary_minors(*at_bound, 0) == [-15 * u * v]
    assert elementary_minors(*at_big_bound, 0) == [-big * u ** -3]
    cases = [
        at_bound,
        at_big_bound,
        # in u alone (v-exponent 0), as one_variable and diagonal_t give them
        _pair([[big * one, zero], [zero, big * u ** -2]]),
        # coefficients of 2^64, with carries between the packed digits
        _pair([[big * u - 1, 3 * v ** -2], [u - big, big * u ** -1 * v]]),
        _pair([[big * u ** 2 - big * u + big, u ** -4], [-(u ** -9), 7 * u]]),
        # negative exponents only
        _pair([[u ** -5 * v ** -7 + u ** -1, -(v ** -3)], [u ** -2 - u ** -9 * v ** -4, (u * v) ** -1]]),
        # negative digits next to positive ones
        _pair([[u - 1, zero], [zero, 1 - u]]),
        _pair([[u - 1, u ** -1 + 1], [u ** 3, -u]]),
        # a zero row, a zero column, the zero matrix
        _pair([[u + v, one, u], [zero, zero, zero], [v, u * v - 1, 2 * one]]),
        _pair([[u + v, zero, u], [3 * one, zero, -v], [v, zero, 2 * one]]),
        _pair([[zero, zero], [zero, zero]]),
        # more rows than columns, more columns than rows
        _pair([[u], [v - 1], [2 * one]]),
        _pair([[u, v ** -1, -u * v]]),
    ]
    for m in cases:
        for k in range(len(m[1]) + 3):  # up to k beyond the column count
            assert elementary_minors(*m, k) == minors_reference(m, k), (m, k)
    # 0x0 and k >= columns: one empty minor, 1
    for k in (0, 1):
        assert elementary_minors(*_pair([]), k) == [LaurentPoly.const(1)]


def test_minors_match_sympy_beyond_six_crossings():
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    gens = sympy.symbols("u v")

    def expr(p):
        return sum(c * gens[0] ** a * gens[1] ** b for (a, b), c in p.terms.items())

    rng = random.Random(29)
    for c in (8, 10, 12):
        for closed in (False, True):
            m = abelianize(quotient_pipeline(parse_gauss(random_code(rng, c, closed=closed))))
            a, (nrows, ncols) = dense(*m), map(len, m)
            size = ncols - 1
            picks = [(rs, cs) for rs in combinations(range(nrows), size) for cs in combinations(range(ncols), size)]
            for (rs, cs), minor in zip(picks, elementary_minors(*m, 1)):
                det = sympy.Matrix([[expr(a[i][j]) for j in cs] for i in rs]).det(method="berkowitz")
                assert sympy.expand(det - expr(minor)) == 0, (c, closed, rs, cs)


# -- char_poly ------------------------------------------------------------


def test_char_poly_goldens():
    expectations = {
        "k1": "u^2*v - u + 1",
        "k2": "u^2*v + u*v^2 - u - v + 1",
        "k3": "u*v^2 - v + 1",
    }
    for name, text in expectations.items():
        d = getattr(catalog, name)()
        mat = abelianize(quotient_pipeline(d, "end-minus"))
        assert char_poly(*mat, 0) == parse_poly(text)


def test_char_poly_invariant_under_matrix_equivalence():
    rng = random.Random(5)
    base = abelianize(quotient_pipeline(catalog.k2(), "end-minus"))
    for _ in range(20):
        rows = dense(*base)
        # random row operation, column permutation, unit scaling
        if len(rows) > 1:
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
        perm = list(range(len(base[1])))
        rng.shuffle(perm)
        unit = LaurentPoly.monomial((rng.randrange(-2, 3), rng.randrange(-2, 3)),
                                    rng.choice((1, -1)))
        rows = [[row[p] * unit for p in perm] for row in rows]
        scrambled = _pair(rows, base[1])
        for k in (0, 1):
            assert char_poly(*scrambled, k) == char_poly(*base, k)


def test_specialization_commutes_with_minors():
    rng = random.Random(7)
    u = LaurentPoly.monomial((1, 0))  # t read as u
    for _ in range(25):
        rows = tuple(
            tuple(
                LaurentPoly({(rng.randrange(-1, 2), rng.randrange(-1, 2)): rng.randrange(-3, 4)
                                 for _ in range(rng.randrange(3))})
                for _ in range(3)
            )
            for _ in range(2)
        )
        m = _pair(rows, ("x", "y", "z"))
        for f, images in ((one_variable, (u, LaurentPoly.const(1))), (diagonal_t, (u, u))):
            specialized = f(*m)
            for k in (1, 2):
                direct = [subs_reference(e, images) for e in elementary_minors(*m, k)]
                assert direct == elementary_minors(*specialized, k), (f, k)


def test_specialized_char_polys_are_divided_by_the_image_of_the_two_variable_one():
    # the ring map commutes with minors, so the image of Delta_k divides every specialized minor and their gcd
    for c in (12, 20, 30):
        for seed in range(5):
            for closed in (False, True):
                m = quotient_matrix(parse_gauss(random_code(random.Random(seed), c, closed=closed)))
                for k in (0, 1):
                    delta = char_poly(*m, k)
                    for f in (one_variable, diagonal_t):
                        assert divides(specialize_entry(f, delta), char_poly(*f(*m), k)), (c, seed, closed, k, f)


# -- determinant and unit minors -------------------------------------------


def test_determinant_trivial():
    assert determinant_long(TRIVIAL_LONG) == 1


def test_determinant_k1_is_3():
    # hand pipeline: eliminated k1 gives a 1x2 matrix [t^2-t+1, -(t^2-t+1)];
    # at t=-1 the maximal minors are {3, -3}, so the gcd is 3
    assert determinant_long(catalog.k1()) == 3


def test_determinant_trefoil_is_3():
    assert determinant_long(catalog.trefoil()) == 3


def test_determinant_always_odd():
    rng = random.Random(11)
    for _ in range(120):
        d = random_long_diagram(rng)
        assert determinant_long(d) % 2 == 1


def test_unit_minor_check():
    # A(1) is the incidence matrix of a path or a cycle: true for every diagram
    assert unit_minor_check(TRIVIAL_LONG)
    assert unit_minor_check(close(TRIVIAL_LONG))
    assert unit_minor_check(catalog.k1())
    assert unit_minor_check(close(catalog.k1()))
    rng = random.Random(13)
    for _ in range(80):
        d = random_long_diagram(rng)
        assert unit_minor_check(d)
        assert unit_minor_check(close(d))
    for c in range(13):
        for closed in (False, True):
            assert unit_minor_check(parse_gauss(random_code(rng, c, closed=closed)))


def test_one_var_matrix_columns_are_union_find_classes():
    rng = random.Random(19)
    for c in range(31):
        for closed in (False, True):
            d = parse_gauss(random_code(rng, c, closed=closed))
            classes, _, names = arc_classes(d)
            a = one_var_matrix(d)  # -A(-1)
            assert a[1] == names
            if not closed:
                assert classes[0] == 0 and classes[-1] == len(names) - 1
            rows, cols = one_var_matrix_reference(d, -1)
            assert a == ([{g: -x for g, x in row.items()} for row in rows], cols)


def _a_at(d, t0):
    """A(t0), evaluated entry by entry from the Laurent matrix A(t) of the per-crossing reference."""
    return [[subs_int(e, (t0, 1)) for e in row] for row in dense(*one_var_matrix_reference(d))]


def test_integer_specializations_match_laurent_matrix():
    # -A(t0): the coloring matrix at t0 = -1, and at t0 = 1 A(u, v) at (1, 1), whose minors unit_minor_check takes
    rng = random.Random(41)
    for _ in range(60):
        d = random_long_diagram(rng)
        for diagram in (d, close(d)):
            laurent = one_var_matrix_reference(diagram)
            rows, cols = merged_arc_rows(diagram)
            for t0, m in ((1, (_at(rows, (1, 1)), cols)), (-1, one_var_matrix(diagram))):
                assert all(type(x) is int for row in m[0] for x in row.values())
                assert m[1] == laurent[1]
                assert dense(*m, int) == [[-x for x in row] for row in _a_at(diagram, t0)]


def test_determinant_is_gcd_of_maximal_minors():
    rng = random.Random(43)
    for _ in range(80):
        d = random_long_diagram(rng)
        minors = maximal_minors(_a_at(d, -1), d.crossings + 1)
        assert determinant_long(d) == math.gcd(*minors)


def test_coloring_matrix_is_minus_a_at_minus_one(capsys, tmp_path):
    # the matrix `color --matrix` prints, the only place -A(-1) is built
    rng = random.Random(47)
    path = tmp_path / "d.gauss"
    for _ in range(60):
        d = random_long_diagram(rng)
        for diagram in (d, close(d)):
            path.write_text(serialize_gauss(diagram) + "\n")
            assert cli.main(["--json", "color", str(path), "-p", "3", "--matrix"]) == 0
            shown = json.loads(capsys.readouterr().out)["matrix"]
            assert dense(shown["rows"], shown["columns"], int) == [[-x for x in row] for row in _a_at(diagram, -1)]


# -- Smith normal form ------------------------------------------------------


def smith_via_smith_at(rows, ncols=None):
    """``smith_normal_form_reference`` of diag(1 per +-1 pivot, d), for ``_smith_at``'s diagonal d of dense int rows.

    The rows, over ``ncols`` columns (the length of the first row, if any, by default), go to ``_smith_at`` as
    constant term dicts at (1, 1).
    """
    cols = tuple(range(ncols if ncols is not None else len(rows[0]) if rows else 0))
    d, left = invariants._smith_at(_pair(rows, cols)[0], cols, (1, 1))
    diag = (1,) * (len(cols) - left) + d
    return smith_normal_form_reference([[x if i == j else 0 for j in range(len(diag))] for i, x in enumerate(diag)])


def test_smith_product_is_gcd_of_maximal_minors():
    # the identity determinant_long relies on, rank-deficient matrices included
    rng = random.Random(53)
    for _ in range(150):
        c = rng.randrange(0, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(c + 1)] for _ in range(c)]
        if c > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]
        minors = maximal_minors(rows, c + 1)
        cols = tuple(range(c + 1))
        assert math.prod(invariants._smith_at(_pair(rows, cols)[0], cols, (1, 1))[0]) == math.gcd(*minors)
        assert smith_via_smith_at(rows, c + 1) == smith_normal_form_reference(rows)


def test_smith_golden():
    cases = [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([], ()),
        ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),  # a diagonal that is no divisor chain
        ([[0, 0], [0, 2]], (2, 0)),  # zeros last
        ([[], []], ()),
        ([[0, 0, 0]], (0,)),  # no pivot: the invariant stays 0
        ([[0], [0], [3]], (3,)),
        ([[0, 4], [6, 0]], (2, 12)),  # two pivots, each row and column deleted
        ([[-4]], (4,)),
    ]
    for rows, smith in cases:
        assert smith_via_smith_at(rows) == smith_normal_form_reference(rows) == smith


def test_smith_divisibility_chain_and_minor_gcd_oracle():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        inv = smith_via_smith_at(rows)
        assert inv == smith_normal_form_reference(rows)
        assert len(inv) == min(m, n)
        for a, b in zip(inv, inv[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # d1*...*dk equals the gcd of all k x k minors
        prod = 1
        for k, dk in enumerate(inv, start=1):
            prod *= dk
            g = 0
            for rs in combinations(range(m), k):
                for cs in combinations(range(n), k):
                    g = math.gcd(g, det_cofactor([[rows[i][j] for j in cs] for i in rs]))
            assert prod == g


def _random_int_rows(rng):
    """Sparse int rows {column: value}, values -5..5, and their columns: zero rows, empty columns, either shape."""
    m, n = rng.randrange(0, 10), rng.randrange(1, 8)
    empty = set(rng.sample(range(n), rng.randrange(0, n)))
    density = rng.random()
    rows = [{g: x for g in range(n) if g not in empty and rng.random() < density and (x := rng.randint(-5, 5))}
            if rng.random() > 0.15 else {} for _ in range(m)]
    return rows, tuple(range(n))


INT_ELIMINATION_PRIMES = (2, 3, 5, 10 ** 25 + 13)


def test_integer_elimination_keeps_smith_invariants_and_ranks_mod_p():
    # the 1s of the +-1 pivots and the Smith form of the rest, the dropped zero rows included, are the input's
    rng = random.Random(83)
    seen = set()
    for _ in range(600):
        rows, cols = _random_int_rows(rng)
        dense = [[row.get(g, 0) for g in cols] for row in rows]
        left, left_cols = invariants._reduce_int([dict(row) for row in rows], cols)
        pivots = len(cols) - len(left_cols)
        zero_rows = len(rows) - pivots - len(left)
        rest = [[row.get(g, 0) for g in left_cols] for row in left] + [[0] * len(left_cols)] * zero_rows
        assert (1,) * pivots + smith_normal_form_reference(rest) == smith_normal_form_reference(dense), rows
        assert smith_via_smith_at(dense, len(cols)) == smith_normal_form_reference(dense), rows
        constants = [{g: {(0, 0): x} for g, x in row.items()} for row in rows]  # for _smith_at at (1, 1)
        for p in INT_ELIMINATION_PRIMES:
            assert pivots + rank_mod(rest, p) == rank_mod(dense, p), (rows, p)
            # and _smith_at's rounds mod p, which scale the rows left to pivots 1 mod p
            inv, ncols = invariants._smith_at(constants, cols, (1, 1), p)
            assert invariants._solutions_mod(inv, ncols, p) == p ** (len(cols) - rank_mod(dense, p)), (rows, p)
        seen |= {("taller", len(rows) > len(cols)), ("wider", len(rows) < len(cols)), ("pivots", pivots > 0),
                 ("zero rows", {} in rows), ("empty columns", any(not any(c) for c in zip(*dense))),
                 ("rest", any(map(any, rest)))}
    assert {name for name, hit in seen if hit} == {"taller", "wider", "pivots", "zero rows", "empty columns", "rest"}


# -- colorings ---------------------------------------------------------------


def _coloring_diagrams():
    """The corpus and its closures, the windings n <= 6 of its entries of up to 4 crossings,
    and random long and closed codes to 12 crossings."""
    corpus = list(catalog.corpus().values())
    windings = [dn_family(b, n) for b in corpus if b.crossings <= 4 for n in range(1, 7)]
    diagrams = corpus + [close(b) for b in corpus] + windings
    rng = random.Random(59)
    for c in range(13):
        for closed in (False, True):
            diagrams += [parse_gauss(random_code(rng, c, closed=closed)) for _ in range(3)]
    return diagrams


COLORING_MODULI = range(2, 30)


def test_coloring_trivial_long():
    (count,) = coloring_count(*merged_arc_rows(TRIVIAL_LONG), [5])[1]
    assert count == 5
    assert not count > 5


def test_coloring_rejects_small_modulus():
    with pytest.raises(ValueError):
        coloring_count(*merged_arc_rows(TRIVIAL_LONG), [5, 1])
    # moduli and units are ints, not floats or bools that equal them
    for p in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="p must be an int"):
            coloring_count(*merged_arc_rows(TRIVIAL_LONG), [p])
        with pytest.raises(ValueError, match="p must be an int"):
            invariants.check_modulus(p)
    for p, s, bad in ((5.0, 3, "p"), (5, 3.0, "s"), (5, True, "s")):
        with pytest.raises(ValueError, match=f"{bad} must be an int"):
            hom_count_to_cyclic([], ("a",), p, s)


def test_coloring_counts_follow_the_moduli(monkeypatch):
    calls = []
    real = invariants._smith_at
    monkeypatch.setattr(invariants, "_smith_at", lambda *a: calls.append(real(*a)) or calls[-1])
    d = catalog.trefoil()
    moduli = [9, 3, 2, 3, 15, 4]
    counts = coloring_count(*merged_arc_rows(d), moduli)[1]
    # one diagonal form for every modulus: for the trefoil, the reduced A(u, v) at (-1, 1), one row over
    # two columns, diagonalizes to the determinant 3
    assert calls == [((3,), 2)]
    assert tuple(map(len, quotient_matrix(d))) == (1, 2)
    assert all(type(count) is int for count in counts)
    assert counts == [brute_force_colorings(d, p) for p in moduli]
    assert coloring_count(*merged_arc_rows(d), [])[1] == []


def test_coloring_closed_trefoil():
    d = close(catalog.trefoil())
    (count,) = coloring_count(*merged_arc_rows(d), [3])[1]
    assert count == 9
    assert count > 3
    assert brute_force_colorings(d, 3) == 9


def test_coloring_matches_brute_force():
    # every modulus up to 29 where trying all p^(arc classes) colorings is cheap
    rng = random.Random(23)
    checked = 0
    for d in [random_long_diagram(rng, 3) for _ in range(40)] + _coloring_diagrams():
        classes = len(arc_classes(d)[2])
        for p, count in zip(COLORING_MODULI, coloring_count(*merged_arc_rows(d), COLORING_MODULI)[1]):
            if p ** classes <= 3000:
                assert count == brute_force_colorings(d, p), (d, p)
                checked += 1
    assert checked >= 500


def test_coloring_count_is_power_of_p_for_primes():
    rng = random.Random(29)
    for _ in range(60):
        d = random_long_diagram(rng)
        for p, count in zip((2, 3, 5), coloring_count(*merged_arc_rows(d), (2, 3, 5))[1]):
            while count % p == 0:
                count //= p
            assert count == 1


def test_coloring_smith_route_equals_elimination_route():
    rng = random.Random(31)
    for _ in range(60):
        d = random_long_diagram(rng)
        (count,) = coloring_count(*merged_arc_rows(d), [5])[1]
        a = one_var_matrix(d)
        nullity = len(a[1]) - rank_mod(dense(*a, int), 5)
        assert count == 5 ** nullity


def test_colorings_and_determinant_match_the_full_smith_route():
    for d in _coloring_diagrams():
        det, counts = colorings_reference(one_var_matrix(d), COLORING_MODULI)
        assert coloring_count(*merged_arc_rows(d), COLORING_MODULI)[1] == counts, d
        if d.kind == LONG:
            assert determinant_long(d) == det, d
        count = dict(zip(COLORING_MODULI, counts))
        profile = invariant_profile(d)
        assert [profile[f"colorings p={p}"] for p in invariants.PROFILE_MODULI] == [
            count[p] for p in invariants.PROFILE_MODULI]
        assert profile.get("determinant") == (det if d.kind == LONG else None)


def test_closed_product_is_the_gcd_of_the_maximal_minors():
    # every row of a closed diagram's A(-1, 1) sums to 0, so for c >= 1 the gcd is 0: the zero rows
    # that the reduction drops keep their 0s, and the counts do not change
    for seed in range(300):
        d = parse_gauss(random_code(random.Random(seed), seed % 21, closed=True))
        det, counts = coloring_count(*merged_arc_rows(d), COLORING_MODULI)
        assert (det, counts) == colorings_reference(one_var_matrix(d), COLORING_MODULI), d
        assert (det == 0) == (d.crossings > 0), d


def test_counts_leave_the_matrix_they_read_unchanged():
    # every reader only reads its rows: cmd_invariants hands the rows it took char polys of to coloring_count,
    # and an in-place _reduce would change them; the unreduced rows have unit pivots
    rng = random.Random(53)
    for d in [parse_gauss(random_code(rng, rng.randint(1, 12), closed)) for closed in (False, True) for _ in range(10)]:
        for quotient in quotients(d):
            for m in (quotient_matrix(d, quotient), quotient_rows(d, quotient)):
                before = copy.deepcopy(m)
                for k in (0, 1):
                    elementary_minors(*m, k)
                    char_poly(*m, k)
                one_variable(*m)
                diagonal_t(*m)
                coloring_count(*m, COLORING_MODULI)
                for p, s in HOM_CASES:
                    for t in ("v1", "diag"):
                        hom_count_to_cyclic(*m, p, s, t)
                assert m == before, (d, quotient)


def test_long_reduced_matrix_is_r_by_r_plus_one():
    # A(1) has unit maximal minors, so no row of a long diagram reduces to zero,
    # whether "none" is reduced on its own or shares its reduction with "end-minus"
    shapes = set()
    for d in _coloring_diagrams() + random_diagrams(20, range(5)) + random_diagrams(30, range(3)):
        if d.kind == LONG:
            for m in (quotient_matrix(d), invariants._profile_matrices(d)["none"]):
                r, columns = map(len, m)
                assert columns == r + 1, d
                shapes.add(r)
    assert {0, 1, 2} <= shapes


def _det_and_colorings(d, ps=(3, 5, 7)):
    return coloring_count(*quotient_matrix(d), ps)


def test_determinant_and_colorings_multiply_under_concatenation():
    """det(K1 K2) = det(K1) det(K2) and col_p(K1 K2) = col_p(K1) col_p(K2) / p, past 100 crossings.

    Proof sketch.  A long diagram's coloring module M(K) is presented by
    A(-1): one generator per column (arc) and one relation per crossing,
    UO + UI - 2 OV.  Each relation maps to 0 under the augmentation that
    sends every generator to 1, so M(K) = Z x + T(K) for any generator x,
    where T(K) is the augmentation's kernel.  A(-1) is c x (c+1), so its
    Smith form makes M(K) = Z + T'(K) with |T'(K)| the gcd of the maximal
    minors, and T(K) = T'(K): det(K) = |T(K)|, read as 0 when T(K) is
    infinite, and col_p(K) = |Hom(M(K), Z/p)| = p |Hom(T(K), Z/p)|.  K1 K2
    joins K1's plus-end arc to K2's minus-end arc, and no crossing of one
    piece holds an arc of the other, so M(K1 K2) is M(K1) + M(K2) with those
    two generators identified: Z + T(K1) + T(K2).  Both products follow,
    and a Reidemeister walk keeps the module, so the walked chain has them
    too.  Closing a chain identifies two generators of one summand instead,
    and the products can fail there, so closed chains are not checked.
    """
    rng = random.Random(21)
    for seed in range(6):
        pieces = []
        while sum(p.crossings for p in pieces) < 100:
            pieces.append(parse_gauss(random_code(rng, rng.randint(4, 8))))
        chain = functools.reduce(concatenate, pieces)
        dets, counts = zip(*map(_det_and_colorings, pieces))
        assert all(count % p == 0 for piece in counts for count, p in zip(piece, (3, 5, 7)))
        expected = (math.prod(dets), [p * math.prod(piece[i] // p for piece in counts) for i, p in enumerate((3, 5, 7))])
        assert chain.crossings >= 100
        assert _det_and_colorings(chain) == expected, seed
        walked = random_walk(chain, seed, 40)
        assert walked != chain
        assert _det_and_colorings(walked) == expected, seed


def test_coloring_divisibility_criterion():
    rng = random.Random(37)
    for _ in range(60):
        d = random_long_diagram(rng)
        det = determinant_long(d)
        for p, count in zip((3, 5, 7, 11, 13), coloring_count(*merged_arc_rows(d), (3, 5, 7, 11, 13))[1]):
            assert (count > p) == (det % p == 0)


# -- hom counts ----------------------------------------------------------------


def test_hom_count_free_rank_one():
    for p, s in ((3, 1), (5, 2), (7, 3)):
        assert hom_count_to_cyclic([], ("a",), p, s) == p


def test_hom_count_products_golden():
    # first confirmed by the brute-force assignment oracle, then frozen
    pres45 = extended_presentation(catalog.k4k5())
    q45 = quotient_kill(pres45, {"a"})
    assert brute_force_hom_count(q45, 5, 3) == 25
    m45 = abelianize(quotient_pipeline(catalog.k4k5(), "end-minus"))
    assert hom_count_to_cyclic(*m45, 5, 3) == 25

    pres54 = extended_presentation(catalog.k5k4())
    q54 = quotient_kill(pres54, {"a"})
    assert brute_force_hom_count(q54, 5, 3) == 5
    m54 = abelianize(quotient_pipeline(catalog.k5k4(), "end-minus"))
    assert hom_count_to_cyclic(*m54, 5, 3) == 5


HOM_COMPOSITES = (4, 6, 8, 9, 10, 12, 15)


def test_hom_count_matches_oracle_random():
    """Hom counts equal the brute force on the relations, under both ``--t`` readings.

    The primes 3 and 5 on random long codes of at most 2 crossings: the
    brute force on the unreduced relations against the count of the
    eliminated presentation.  Every modulus of ``HOM_COMPOSITES`` with every
    unit s on every quotient of random long and closed codes of at most 4
    crossings: the brute force on the eliminated relations against the count
    of the rows of A(u, v).
    """
    rng = random.Random(41)
    cases = []  # (module matrix, relations, (p, s) pairs)
    for _ in range(12):
        pres = extended_presentation(random_long_diagram(rng, 2))
        cases.append((abelianize(tietze_eliminate(pres)), pres, [(3, 2), (5, 3)]))
    composite = [(n, s) for n in HOM_COMPOSITES for s in range(1, n) if math.gcd(s, n) == 1]
    for c, closed, _ in product(range(5), (False, True), range(2)):
        d = parse_gauss(random_code(rng, c, closed))
        cases += [(quotient_rows(d, q), quotient_pipeline(d, q), composite) for q in quotients(d)]
    partial = 0  # composite counts with a factor gcd(d_i, n) strictly between 1 and n
    for m, pres, moduli in cases:
        for t in ("v1", "diag"):
            for p, s in moduli:
                count = hom_count_to_cyclic(*m, p, s, t)
                assert count == brute_force_hom_count(pres, p, s, t), (pres, t, p, s)
                while count % p == 0:
                    count //= p
                partial += count > 1
    assert partial > 0


def test_solutions_mod_counts_from_the_smith_form():
    cases = [
        ([], 3, (), {2: 8, 5: 125}),  # no rows: every vector is a solution
        ([[0, 0, 0], [0, 0, 0]], 3, (0, 0), {2: 8, 5: 125}),
        ([[3, 6], [6, 12]], 2, (3, 0), {2: 2, 3: 9, 5: 5}),  # singular: rank 1, and 0 mod 3
    ]
    for rows, ncols, smith, counts in cases:
        assert smith_via_smith_at(rows, ncols) == smith_normal_form_reference(rows) == smith
        cols = tuple(range(ncols))
        diagonal = invariants._smith_at(_pair(rows, cols)[0], cols, (1, 1))
        for p, count in counts.items():
            assert invariants._solutions_mod(smith, ncols, p) == count == p ** (ncols - rank_mod(rows, p))
            assert invariants._solutions_mod(*diagonal, p) == count


HOM_PRIMES = (2, 3, 5, 7, 3317044064679887385961813)  # the last, a 25-digit prime, makes the residues long ints


def test_hom_count_equals_rank_mod_oracle_to_30_crossings():
    rank_drops = 0  # counts above p^(columns - rows): some Smith invariant is 0 mod p
    for seed in range(3):
        rng = random.Random(seed)
        for c, closed in product((0, 1, 3, 6, 10, 15, 22, 30), (False, True)):
            d = parse_gauss(random_code(rng, c, closed))
            for quotient in quotients(d):
                mat = quotient_matrix(d, quotient)
                for t, m in (("v1", one_variable(*mat)), ("diag", diagonal_t(*mat))):
                    entries = dense(*m)
                    for p in HOM_PRIMES:
                        for s in {1, p - 1, 2 % p, rng.randrange(1, p)} - {0}:
                            values = [[subs_mod(e, (s,), p) for e in row] for row in entries]
                            count = hom_count_to_cyclic(*mat, p, s, t)
                            assert count == p ** (len(m[1]) - rank_mod(values, p)), (c, closed, quotient, p, s)
                            rank_drops += count > p ** max(len(m[1]) - len(m[0]), 0)
    assert rank_drops >= 400


def test_counts_equal_the_reduce_first_and_specialize_first_routes():
    """The counts from A(u, v) at a point equal those of the two routes they replaced.

    Colorings mod 2..29 and the long determinant against reducing in two
    variables first; hom counts for every ``HOM_CASES`` entry, both ``--t``
    values and every quotient against specializing the reduced matrix to
    Z[t^+-1] first.  300 random codes with 0 to 40 crossings, long and
    closed, and the windings n = 1..6 of the long corpus codes.
    """
    rng = random.Random(47)
    diagrams = [parse_gauss(random_code(rng, rng.randint(0, 40), closed))
                for closed in (False, True) for _ in range(150)]
    diagrams += [dn_family(base, n) for base in catalog.corpus().values() if base.kind == LONG for n in range(1, 7)]
    for d in diagrams:
        det, counts = colorings_by_reduction_reference(quotient_matrix(d), COLORING_MODULI)
        assert coloring_count(*merged_arc_rows(d), COLORING_MODULI)[1] == counts, d
        if d.kind == LONG:
            assert determinant_long(d) == det, d
        for quotient in quotients(d):
            m, rows = quotient_matrix(d, quotient), quotient_rows(d, quotient)
            for t in ("v1", "diag"):
                for p, s in HOM_CASES:
                    expected = hom_count_by_specialization_reference(m, t, p, s)
                    assert hom_count_to_cyclic(*rows, p, s, t) == expected, (d, quotient, t, p, s)


def test_hom_count_validation():
    with pytest.raises(ValueError, match="s must be invertible mod p"):
        hom_count_to_cyclic([], ("a",), 5, 5)
    with pytest.raises(ValueError, match="s must be invertible mod p"):
        hom_count_to_cyclic([], ("a",), 6, 4)
    # a composite modulus is a modulus like any other
    assert hom_count_to_cyclic([], ("a",), 6, 1) == 6


# -- transfer criterion ----------------------------------------------------------


def test_transfer_goldens():
    assert transfer_condition(1, 3) is True
    assert transfer_condition(1, 2) is False
    assert transfer_condition(2, 5) is True


def test_transfer_rejects_bad_arguments():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            transfer_condition(1, p)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            transfer_condition(n, 3)
        with pytest.raises(ValueError, match="n must be at least 1"):
            transfer_matrix(n)
    # n and p are ints, not floats or bools that equal them
    for n in (True, 1.0, 1.5):
        with pytest.raises(ValueError, match="n must be at least 1 and an int"):
            transfer_condition(n, 3)
        with pytest.raises(ValueError, match="n must be at least 1 and an int"):
            transfer_matrix(n)
    with pytest.raises(ValueError, match="p must be an int"):
        transfer_condition(1, 3.0)


def test_transfer_matrix_small():
    # the closed form against n - 1 products of S, T and U
    for n in range(1, 301):
        assert transfer_matrix(n) == transfer_matrix_reference(n), n
    # and at once where a product loop would not return
    n = 10**100
    assert transfer_matrix(n) == ((2 * n, 2 * n + 1), (1 - 2 * n, -2 * n))


def test_transfer_matches_brute_force_and_colorings():
    for n in range(1, 11):
        d = dn_family(TRIVIAL_LONG, n)
        for p, count in zip(range(2, 30), coloring_count(*merged_arc_rows(d), range(2, 30))[1]):
            cond = transfer_condition(n, p)
            assert cond == transfer_brute_force(n, p)
            assert cond == (math.gcd(2 * n + 1, p) > 1)
            assert cond == (count > p)


def test_dn_admits_2n_plus_1_coloring():
    for n in (1, 2, 3):
        d = dn_family(TRIVIAL_LONG, n)
        assert coloring_count(*merged_arc_rows(d), [2 * n + 1])[1][0] > 2 * n + 1


def test_dn_closure_is_move_equivalent_to_base_closure():
    # the winds cancel after joining ends: compare closed-diagram invariants
    from vka.invariants import invariant_profile

    for base in (TRIVIAL_LONG, catalog.k1(), catalog.k4()):
        target = invariant_profile(close(base))
        for n in (1, 2):
            wound = close(dn_family(base, n))
            assert invariant_profile(wound) == target


def test_winding_multiplies_the_determinant_by_2n_plus_1():
    # past the 6 crossings of random_long_diagram: a winding adds 2n crossings
    bases = [(base, range(1, 13)) for base in catalog.corpus().values() if base.kind == LONG]
    bases += [(random_long_diagram(random.Random(seed)), (1, 2, 5, 9)) for seed in range(10)]
    for base, ns in bases:
        det = determinant_long(base)
        for n in ns:
            assert determinant_long(dn_family(base, n)) == (2 * n + 1) * det, (base, n)


def test_winding_v1_char_poly_of_k1():
    # the --t v1 Delta_1 of dn(k1, n) (t read as u), pinned at n = 250, 500 and 1000 by the layer bench
    for n in range(1, 21):
        m = quotient_matrix(dn_family(catalog.k1(), n), "none", "v1")
        assert char_poly(*m, 1) == parse_poly(f"{n}*u^3 - {2 * n + 1}*u^2 + {2 * n + 1}*u - {n + 1}"), n


def test_winding_end_minus_diag_char_poly_of_k1():
    # the --t diag Delta_0 of dn(k1, n)'s end-minus quotient (t read as u), printed by CI at n = 1000
    u = LaurentPoly.monomial((1, 0))
    for n in range(1, 21):
        m = quotient_matrix(dn_family(catalog.k1(), n), "end-minus", "diag")
        expected = u ** (n + 4) - 2 * u ** (n + 2) + u ** (n + 1) + 2 * u ** n - u ** (n - 1) - u ** 4 + u ** 2 - u - 1
        assert char_poly(*m, 0) == expected.canonical(), n


END_SWAP = {"none": "none", "ends": "ends", "end-minus": "end-plus", "end-plus": "end-minus"}


def test_reversal_inverts_u_and_v_and_swaps_the_ends():
    # a metamorphic law, not a reference: it reaches sizes where no reference finishes
    def inverted(p):
        return LaurentPoly({(-a, -b): c for (a, b), c in p.terms.items()}).canonical()

    cases = [(c, seed) for c in range(13) for seed in range(10)] + [(c, seed) for c in (20, 30) for seed in range(5)]
    for c, seed in cases:
        for d in random_diagrams(c, [seed]):
            r = reverse_code(d)
            for q in quotients(d):
                for k in (0, 1):
                    expected = inverted(char_poly(*quotient_matrix(d, q), k))
                    assert char_poly(*quotient_matrix(r, END_SWAP[q]), k) == expected, (d, q, k)
                for t, (p, s) in product(("v1", "diag"), ((5, 2), (7, 3), (9, 2), (11, 4))):
                    expected = hom_count_to_cyclic(*quotient_rows(d, q), p, pow(s, -1, p), t)
                    assert hom_count_to_cyclic(*quotient_rows(r, END_SWAP[q]), p, s, t) == expected, (d, q, t, p, s)
            moduli = (2, 3, 4, 5, 7, 9)
            assert coloring_count(*merged_arc_rows(r), moduli) == coloring_count(*merged_arc_rows(d), moduli), d


def test_closed_winding_keeps_the_closed_base_invariants():
    # close(dn(K, n)) is move-equivalent to close(K), as dn_family's docstring says: its char polys and
    # colorings are close(K)'s (the gcd of the maximal minors of a closed diagram is 0 once it has crossings)
    moduli = (3, 5, 7, 9)
    for base in catalog.corpus().values():
        target = close(base)
        polys = {(k, t): char_poly(*quotient_matrix(target, "none", t), k)
                 for k in (0, 1, 2) for t in ("uv", "v1", "diag")}
        colorings = coloring_count(*merged_arc_rows(target), moduli)[1]
        for n in (1, 2, 3, 4, 5, 50):
            wound = close(dn_family(base, n))
            for (k, t), poly in polys.items():
                assert char_poly(*quotient_matrix(wound, "none", t), k) == poly, (base, n, k, t)
            assert coloring_count(*merged_arc_rows(wound), moduli)[1] == colorings, (base, n)


def test_one_arc_structure_per_one_var_matrix(arc_builds):
    one_var_matrix(catalog.k1())
    assert len(arc_builds) == 1
    arc_builds.clear()
    # one A(u, v) for both quotients (none, end-minus) and for the A(-1)
    # of the determinant and all colorings; the profile builds no A(1)
    invariant_profile(catalog.k1())
    assert len(arc_builds) == 1


def test_profile_builds_one_smith_form(monkeypatch):
    calls = []
    real = invariants._smith_at
    monkeypatch.setattr(invariants, "_smith_at", lambda *a: calls.append(a) or real(*a))
    for d in (catalog.k1(), catalog.trefoil(), close(catalog.k1())):
        calls.clear()
        profile = invariant_profile(d)
        assert len(calls) == 1
        if d.kind == LONG:
            assert profile["determinant"] == determinant_long(d)
    # determinant_long on its own takes one Smith form too
    calls.clear()
    assert determinant_long(catalog.k1()) == 3
    assert len(calls) == 1


def test_c30_k1_char_poly_needs_no_subresultant_gcd(monkeypatch):
    # a 30-crossing long diagram: 5 minors of up to 140 terms, whose
    # pairwise subresultant gcd took seconds; the certificate answers 1
    # with no attempt on shifted inputs
    d = parse_gauss(random_code(random.Random(1), 30))
    mat = abelianize(quotient_pipeline(d, "none"))
    shifts = []
    real = laurent._heuristic
    monkeypatch.setattr(laurent, "_heuristic", lambda prims, D, c: shifts.append(c) or real(prims, D, c))
    assert char_poly(*mat, 1).is_one
    assert sum(c >= 1 for c in shifts) == 0


@pytest.mark.parametrize("closed", [False, True], ids=["long", "closed"])
def test_c30_k1_minors_past_the_unshifted_heuristic_end_within_a_second(closed, monkeypatch):
    # the k = 1 minors of random_code(Random(0), 30) (5 long, 16 closed): with the unshifted GCDHEU
    # candidate rejected, the pairwise subresultant gcd that once took over ran 14 s and 5 s; the
    # attempts on shifted inputs answer 1 at the first shift
    minors = elementary_minors(*quotient_matrix(parse_gauss(random_code(random.Random(0), 30, closed=closed))), 1)
    assert len(minors) == (16 if closed else 5)
    real, shifts = laurent._heuristic, []

    def shifted_only(prims, D, c):
        shifts.append(c)
        return real(prims, D, c) if c else None

    monkeypatch.setattr(laurent, "_heuristic", shifted_only)
    start = time.perf_counter()
    assert laurent.gcd_many(minors).is_one
    assert time.perf_counter() - start < 1.0
    assert shifts == [0, 1]  # c = 0, then c = 1
