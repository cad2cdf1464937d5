import functools
import json
import math
import random
from itertools import combinations, product

import pytest

import catalog
from oracles import (
    T_ONE,
    arc_classes,
    brute_force_colorings,
    brute_force_hom_count,
    colorings_reference,
    det_cofactor,
    det_exact_reference,
    maximal_minors,
    minors_reference,
    one_var_matrix_reference,
    quotients,
    random_code,
    random_diagrams,
    random_long_diagram,
    rank_mod,
    subs_int,
    subs_reference,
    transfer_brute_force,
)
from vka import cli, invariants, laurent
from vka.alexander import (
    abelianize,
    diagonal_t,
    extended_presentation,
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
    MR_LIMIT,
    hom_count_to_cyclic,
    invariant_profile,
    is_prime,
    quotient_matrices,
    quotient_matrix,
    quotient_pipeline,
    smith_normal_form,
    transfer_condition,
    transfer_matrix,
    unit_minor_check,
)
from vka.laurent import LaurentPoly, TVAR, UV, parse_poly
from vka.moves import random_walk
from vka.alexander import PresentationMatrix


def _matrix(ring, rows):
    return PresentationMatrix(ring, tuple(f"x{i}" for i in range(len(rows[0]) if rows else 0)),
                              tuple(map(tuple, rows)))


# -- minors ---------------------------------------------------------------


def test_minors_single_entry():
    m = _matrix("Z", [[7]])
    assert elementary_minors(m, 0) == [7]


def test_minors_empty_convention():
    m = _matrix("Z", [[7]])
    assert elementary_minors(m, 1) == [1]
    assert elementary_minors(m, 5) == [1]


def test_minors_size_one_enumeration():
    m = _matrix("Z", [[5, 0], [0, 5]])
    assert sorted(elementary_minors(m, 1)) == [0, 0, 5, 5]


def test_minors_exceeding_dimensions():
    m = _matrix("Z", [[1, 2, 3]])
    assert elementary_minors(m, 1) == []


def test_minors_budget():
    rng = random.Random(0)
    rows = [[rng.randrange(-3, 4) for _ in range(8)] for _ in range(8)]
    with pytest.raises(BudgetExceeded):
        elementary_minors(_matrix("Z", rows), 4, max_minors=10)


def test_det_exact_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert det_exact(rows) == det_cofactor(rows)


def test_det_exact_laurent():
    t = LaurentPoly.monomial(TVAR, (1,))
    one = LaurentPoly.const(TVAR, 1)
    rows = [[t, one], [one, t]]
    assert det_exact_reference(rows, TVAR) == t * t - 1


# -- packed minors against the Laurent Bareiss reference -------------------


def _char_poly_inputs(d):
    """The L2 matrix of every valid quotient of d, and its v1 and diag specializations."""
    for quotient in quotients(d):
        m = abelianize(quotient_pipeline(d, quotient))
        yield from (m, one_variable(m), diagonal_t(m))


def test_packed_minors_match_reference():
    diagrams = list(catalog.corpus().values())
    for c in (8, 12, 20):
        for seed in range(3):
            for closed in (False, True):
                diagrams.append(parse_gauss(random_code(random.Random(100 * c + seed), c, closed=closed)))
    for d in diagrams:
        for m in _char_poly_inputs(d):
            for k in (0, 1, 2):
                assert elementary_minors(m, k) == minors_reference(m, k), (d, m.ring, k)


def test_packed_minors_match_reference_at_30_crossings():
    cases = [(seed, closed, 0) for seed in range(5) for closed in (False, True)]
    cases.append((4, True, 1))  # 16 minors of a 4x4 matrix; about 1 s for the reference
    for seed, closed, k in cases:
        m = abelianize(quotient_pipeline(parse_gauss(random_code(random.Random(seed), 30, closed=closed))))
        assert elementary_minors(m, k) == minors_reference(m, k), (seed, closed, k)


def test_packed_minors_adversarial_matrices():
    big = 2**64
    u, v = LaurentPoly.monomial(UV, (1, 0)), LaurentPoly.monomial(UV, (0, 1))
    t = LaurentPoly.monomial(TVAR, (1,))
    one, one_t = LaurentPoly.const(UV, 1), LaurentPoly.const(TVAR, 1)
    zero, zero_t = LaurentPoly.zero(UV), LaurentPoly.zero(TVAR)
    # minors whose coefficient is the bound, the product of their rows' 1-norms
    at_bound = _matrix("L2", [[3 * u, zero], [zero, -5 * v]])
    at_big_bound = _matrix("L2", [[-big * u ** -3, zero], [zero, one]])
    assert elementary_minors(at_bound, 0) == [-15 * u * v]
    assert elementary_minors(at_big_bound, 0) == [-big * u ** -3]
    cases = [
        at_bound,
        at_big_bound,
        _matrix("L1", [[big * one_t, zero_t], [zero_t, big * t ** -2]]),
        # coefficients of 2^64, with carries between the packed digits
        _matrix("L2", [[big * u - 1, 3 * v ** -2], [u - big, big * u ** -1 * v]]),
        _matrix("L1", [[big * t ** 2 - big * t + big, t ** -4], [-(t ** -9), 7 * t]]),
        # negative exponents only
        _matrix("L2", [[u ** -5 * v ** -7 + u ** -1, -(v ** -3)], [u ** -2 - u ** -9 * v ** -4, (u * v) ** -1]]),
        # negative digits next to positive ones
        _matrix("L2", [[u - 1, zero], [zero, 1 - u]]),
        _matrix("L1", [[t - 1, t ** -1 + 1], [t ** 3, -t]]),
        # a zero row, a zero column, the zero matrix
        _matrix("L2", [[u + v, one, u], [zero, zero, zero], [v, u * v - 1, 2 * one]]),
        _matrix("L2", [[u + v, zero, u], [3 * one, zero, -v], [v, zero, 2 * one]]),
        _matrix("L2", [[zero, zero], [zero, zero]]),
        # more rows than columns, more columns than rows
        _matrix("L2", [[u], [v - 1], [2 * one]]),
        _matrix("L2", [[u, v ** -1, -u * v]]),
    ]
    for m in cases:
        for k in range(m.shape[1] + 3):  # up to k beyond the column count
            assert elementary_minors(m, k) == minors_reference(m, k), (m, k)
    # 0x0 and k >= columns: one empty minor, 1
    for ring, vars in (("L2", UV), ("L1", TVAR)):
        empty = _matrix(ring, [])
        for k in (0, 1):
            assert elementary_minors(empty, k) == [LaurentPoly.const(vars, 1)]


def test_minors_match_sympy_beyond_six_crossings():
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    gens = sympy.symbols("u v")

    def expr(p):
        return sum(c * gens[0] ** a * gens[1] ** b for (a, b), c in p.terms.items())

    rng = random.Random(29)
    for c in (8, 10, 12):
        for closed in (False, True):
            m = abelianize(quotient_pipeline(parse_gauss(random_code(rng, c, closed=closed))))
            nrows, ncols = m.shape
            size = ncols - 1
            picks = [(rs, cs) for rs in combinations(range(nrows), size) for cs in combinations(range(ncols), size)]
            for (rs, cs), minor in zip(picks, elementary_minors(m, 1)):
                det = sympy.Matrix([[expr(m.rows[i][j]) for j in cs] for i in rs]).det(method="berkowitz")
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
        assert char_poly(mat, 0) == parse_poly(text)


def test_char_poly_invariant_under_matrix_equivalence():
    rng = random.Random(5)
    base = abelianize(quotient_pipeline(catalog.k2(), "end-minus"))
    for _ in range(20):
        rows = [list(r) for r in base.rows]
        # random row operation, column permutation, unit scaling
        if len(rows) > 1:
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
            if i != j:
                rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
        perm = list(range(len(base.cols)))
        rng.shuffle(perm)
        unit = LaurentPoly.monomial(UV, (rng.randrange(-2, 3), rng.randrange(-2, 3)),
                                    rng.choice((1, -1)))
        rows = [[row[p] * unit for p in perm] for row in rows]
        scrambled = PresentationMatrix("L2", base.cols, tuple(tuple(r) for r in rows))
        for k in (0, 1):
            assert char_poly(scrambled, k) == char_poly(base, k)


def test_specialization_commutes_with_minors():
    rng = random.Random(7)
    t = LaurentPoly.monomial(TVAR, (1,))
    for _ in range(25):
        rows = tuple(
            tuple(
                LaurentPoly(UV, {(rng.randrange(-1, 2), rng.randrange(-1, 2)): rng.randrange(-3, 4)
                                 for _ in range(rng.randrange(3))})
                for _ in range(3)
            )
            for _ in range(2)
        )
        m = PresentationMatrix("L2", ("x", "y", "z"), rows)
        for f, images in ((one_variable, (t, T_ONE)), (diagonal_t, (t, t))):
            specialized = f(m)
            for k in (1, 2):
                direct = [subs_reference(e, images) for e in elementary_minors(m, k)]
                assert direct == elementary_minors(specialized, k), (f, k)


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
            a = one_var_matrix(d)
            assert a.cols == names
            if not closed:
                assert classes[0] == 0 and classes[-1] == len(names) - 1
            assert a == one_var_matrix_reference(d)


def _a_at(d, t0):
    """A(t0), evaluated entry by entry from the Laurent matrix A(t)."""
    return [[subs_int(e, (t0,)) for e in row] for row in one_var_matrix(d).rows]


def test_integer_specializations_match_laurent_matrix():
    rng = random.Random(41)
    for _ in range(60):
        d = random_long_diagram(rng)
        for diagram in (d, close(d)):
            laurent = one_var_matrix(diagram)
            for t0 in (1, -1):
                m = one_var_matrix(diagram, t0)
                assert m.ring == "Z"
                assert m.cols == laurent.cols
                assert [list(r) for r in m.rows] == _a_at(diagram, t0)


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
            shown = json.loads(capsys.readouterr().out)["colorings"]["matrix"]
            assert shown == [[-x for x in row] for row in _a_at(diagram, -1)]


# -- Smith normal form ------------------------------------------------------


def test_smith_product_is_gcd_of_maximal_minors():
    # the identity determinant_long relies on, rank-deficient matrices included
    rng = random.Random(53)
    for _ in range(150):
        c = rng.randrange(0, 5)
        rows = [[rng.randrange(-3, 4) for _ in range(c + 1)] for _ in range(c)]
        if c > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x for x in rows[0]]
        minors = maximal_minors(rows, c + 1)
        assert math.prod(smith_normal_form(rows)) == math.gcd(*minors)


def test_smith_golden():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)
    assert smith_normal_form([]) == ()
    assert smith_normal_form([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)  # several gcd/lcm swaps
    assert smith_normal_form([[0, 0], [0, 2]]) == (2, 0)  # zeros last
    assert smith_normal_form([[], []]) == ()
    assert smith_normal_form([[0, 0, 0]]) == (0,)  # no pivot: the invariant stays 0
    assert smith_normal_form([[0], [0], [3]]) == (3,)
    assert smith_normal_form([[0, 4], [6, 0]]) == (2, 12)  # two pivots, each row and column deleted
    assert smith_normal_form([[-4]]) == (4,)


def test_smith_divisibility_chain_and_minor_gcd_oracle():
    rng = random.Random(17)
    for _ in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 8)
        rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)]
        inv = smith_normal_form(rows)
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
    (rep,) = coloring_count(TRIVIAL_LONG, [5])
    assert rep.count == 5
    assert not rep.nontrivial


def test_coloring_rejects_small_modulus():
    with pytest.raises(ValueError):
        coloring_count(TRIVIAL_LONG, [5, 1])


def test_coloring_reports_follow_the_moduli(monkeypatch):
    calls = []
    real = invariants.smith_normal_form
    monkeypatch.setattr(invariants, "smith_normal_form", lambda rows: calls.append(rows) or real(rows))
    d = catalog.trefoil()
    moduli = [9, 3, 2, 3, 15, 4]
    reports = coloring_count(d, moduli)
    # one Smith form, of the reduced A(u, v) at (-1, 1), for every modulus
    m = quotient_matrix(d)
    assert calls == [[[subs_int(e, (-1, 1)) for e in row] for row in m.rows]]
    assert m.shape == (1, 2)
    assert [rep.p for rep in reports] == moduli
    assert [rep.count for rep in reports] == [brute_force_colorings(d, p) for p in moduli]
    assert coloring_count(d, []) == []


def test_coloring_closed_trefoil():
    d = close(catalog.trefoil())
    (rep,) = coloring_count(d, [3])
    assert rep.count == 9
    assert rep.nontrivial
    assert brute_force_colorings(d, 3) == 9


def test_coloring_matches_brute_force():
    # every modulus up to 29 where trying all p^(arc classes) colorings is cheap
    rng = random.Random(23)
    checked = 0
    for d in [random_long_diagram(rng, 3) for _ in range(40)] + _coloring_diagrams():
        classes = len(arc_classes(d)[2])
        for rep in coloring_count(d, COLORING_MODULI):
            if rep.p ** classes <= 3000:
                assert rep.count == brute_force_colorings(d, rep.p), (d, rep.p)
                checked += 1
    assert checked >= 500


def test_coloring_count_is_power_of_p_for_primes():
    rng = random.Random(29)
    for _ in range(60):
        d = random_long_diagram(rng)
        for rep in coloring_count(d, (2, 3, 5)):
            count = rep.count
            while count % rep.p == 0:
                count //= rep.p
            assert count == 1


def test_coloring_smith_route_equals_elimination_route():
    rng = random.Random(31)
    for _ in range(60):
        d = random_long_diagram(rng)
        (rep,) = coloring_count(d, [5])
        a = one_var_matrix(d, -1)
        nullity = len(a.cols) - rank_mod([list(r) for r in a.rows], 5)
        assert rep.count == 5 ** nullity


def test_colorings_and_determinant_match_the_full_smith_route():
    for d in _coloring_diagrams():
        det, counts = colorings_reference(one_var_matrix(d, -1), COLORING_MODULI)
        assert [rep.count for rep in coloring_count(d, COLORING_MODULI)] == counts, d
        if d.kind == LONG:
            assert determinant_long(d) == det, d
        count = dict(zip(COLORING_MODULI, counts))
        profile = invariant_profile(d)
        assert [profile[f"colorings p={p}"] for p in invariants.PROFILE_MODULI] == [
            count[p] for p in invariants.PROFILE_MODULI]
        assert profile.get("determinant") == (det if d.kind == LONG else None)


def test_long_reduced_matrix_is_r_by_r_plus_one():
    # A(1) has unit maximal minors, so no row of a long diagram reduces to zero,
    # whichever end quotients share the reduction with "none"
    shapes = set()
    others = [q for q in quotients(catalog.k1()) if q != "none"]
    for d in _coloring_diagrams() + random_diagrams(20, range(5)) + random_diagrams(30, range(3)):
        if d.kind == LONG:
            r, columns = quotient_matrix(d).shape
            assert columns == r + 1, d
            shapes.add(r)
            for n in range(1, len(others) + 1):
                for subset in combinations(others, n):
                    r, columns = quotient_matrices(d, ("none", *subset))["none"].shape
                    assert columns == r + 1, (d, subset)
    assert {0, 1, 2} <= shapes


def _det_and_colorings(d, ps=(3, 5, 7)):
    det, reports = invariants.coloring_reports(quotient_matrices(d, ("none",))["none"], ps)
    return det, [rep.count for rep in reports]


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
        for rep in coloring_count(d, (3, 5, 7, 11, 13)):
            assert rep.nontrivial == (det % rep.p == 0)


# -- hom counts ----------------------------------------------------------------


def test_hom_count_free_rank_one():
    m = PresentationMatrix("L1", ("a",), ())
    for p, s in ((3, 1), (5, 2), (7, 3)):
        assert hom_count_to_cyclic(m, p, s) == p


def test_hom_count_products_golden():
    # first confirmed by the brute-force assignment oracle, then frozen
    pres45 = extended_presentation(catalog.k4k5())
    q45 = quotient_kill(pres45, {"a"})
    assert brute_force_hom_count(q45, 5, 3) == 25
    m45 = diagonal_t(abelianize(quotient_pipeline(catalog.k4k5(), "end-minus")))
    assert hom_count_to_cyclic(m45, 5, 3) == 25

    pres54 = extended_presentation(catalog.k5k4())
    q54 = quotient_kill(pres54, {"a"})
    assert brute_force_hom_count(q54, 5, 3) == 5
    m54 = diagonal_t(abelianize(quotient_pipeline(catalog.k5k4(), "end-minus")))
    assert hom_count_to_cyclic(m54, 5, 3) == 5


def test_hom_count_matches_oracle_random():
    rng = random.Random(41)
    for _ in range(12):
        d = random_long_diagram(rng, 2)
        pres = extended_presentation(d)
        m = diagonal_t(abelianize(tietze_eliminate(pres)))
        for p, s in ((3, 2), (5, 3)):
            assert hom_count_to_cyclic(m, p, s) == brute_force_hom_count(pres, p, s)


def test_solutions_mod_counts_from_the_smith_form():
    cases = [
        ([], 3, (), {2: 8, 5: 125}),  # no rows: every vector is a solution
        ([[0, 0, 0], [0, 0, 0]], 3, (0, 0), {2: 8, 5: 125}),
        ([[3, 6], [6, 12]], 2, (3, 0), {2: 2, 3: 9, 5: 5}),  # singular: rank 1, and 0 mod 3
    ]
    for rows, ncols, smith, counts in cases:
        assert smith_normal_form(rows) == smith
        for p, count in counts.items():
            assert invariants._solutions_mod(smith, ncols, p) == count == p ** (ncols - rank_mod(rows, p))


HOM_PRIMES = (2, 3, 5, 7, 3317044064679887385961813)  # the last is the largest prime below MR_LIMIT


def test_hom_count_equals_rank_mod_oracle_to_30_crossings():
    rank_drops = 0  # counts above p^(columns - rows): some Smith invariant is 0 mod p
    for seed in range(3):
        rng = random.Random(seed)
        for c, closed in product((0, 1, 3, 6, 10, 15, 22, 30), (False, True)):
            d = parse_gauss(random_code(rng, c, closed))
            for quotient in quotients(d):
                mat = quotient_matrix(d, quotient)
                for m in (one_variable(mat), diagonal_t(mat)):
                    for p in HOM_PRIMES:
                        for s in {1, p - 1, 2 % p, rng.randrange(1, p)} - {0}:
                            values = [[e.subs_mod((s,), p) for e in row] for row in m.rows]
                            count = hom_count_to_cyclic(m, p, s)
                            assert count == p ** (len(m.cols) - rank_mod(values, p)), (c, closed, quotient, p, s)
                            rank_drops += count > p ** max(len(m.cols) - len(m.rows), 0)
    assert rank_drops >= 400


def test_hom_count_validation():
    m = PresentationMatrix("L1", ("a",), ())
    with pytest.raises(ValueError):
        hom_count_to_cyclic(m, 5, 5)
    with pytest.raises(ValueError):
        hom_count_to_cyclic(m, 6, 1)


def test_is_prime_matches_trial_division():
    for n in range(-2, 3000):
        expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == expected


def test_is_prime_near_the_certified_bound():
    assert is_prime(10**18 + 3)
    assert is_prime(3317044064679887385961813)  # the largest prime below MR_LIMIT
    # a strong pseudoprime to the first 12 prime bases: only base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)


# -- transfer criterion ----------------------------------------------------------


def test_transfer_goldens():
    assert transfer_condition(1, 3) is True
    assert transfer_condition(1, 2) is False
    assert transfer_condition(2, 5) is True


def test_transfer_rejects_bad_arguments():
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            transfer_condition(1, p)
    with pytest.raises(ValueError):
        transfer_condition(0, 3)


def test_transfer_matrices_exact():
    from vka.invariants import TRANSFER_S, TRANSFER_T, TRANSFER_U

    assert TRANSFER_S == ((1, 2), (0, -1))
    assert TRANSFER_T == ((-1, 0), (2, 1))
    assert TRANSFER_U == ((0, -1), (1, 2))


def test_transfer_matrix_small():
    assert transfer_matrix(1) == ((2, 3), (-1, -2))
    assert transfer_matrix(2) == ((4, 5), (-3, -4))


def test_transfer_matches_brute_force_and_colorings():
    for n in range(1, 11):
        d = dn_family(TRIVIAL_LONG, n)
        for rep in coloring_count(d, range(2, 30)):
            cond = transfer_condition(n, rep.p)
            assert cond == transfer_brute_force(n, rep.p)
            assert cond == (math.gcd(2 * n + 1, rep.p) > 1)
            assert cond == rep.nontrivial


def test_dn_admits_2n_plus_1_coloring():
    for n in (1, 2, 3):
        d = dn_family(TRIVIAL_LONG, n)
        assert coloring_count(d, [2 * n + 1])[0].nontrivial


def test_dn_closure_is_move_equivalent_to_base_closure():
    # the winds cancel after joining ends: compare closed-diagram invariants
    from vka.invariants import invariant_profile

    for base in (TRIVIAL_LONG, catalog.k1(), catalog.k4()):
        target = invariant_profile(close(base))
        for n in (1, 2):
            wound = close(dn_family(base, n))
            assert invariant_profile(wound) == target


def test_one_arc_structure_per_one_var_matrix(arc_builds):
    one_var_matrix(catalog.k1(), -1)
    assert len(arc_builds) == 1
    arc_builds.clear()
    # one A(u, v) for both quotients (none, end-minus) and for the A(-1)
    # of the determinant and all colorings; the profile builds no A(1)
    invariant_profile(catalog.k1())
    assert len(arc_builds) == 1


def test_profile_builds_one_smith_form(monkeypatch):
    calls = []
    real = invariants.smith_normal_form
    monkeypatch.setattr(invariants, "smith_normal_form", lambda rows: calls.append(rows) or real(rows))
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
    d = parse_gauss(random_code(random.Random(1), 30))
    mat = abelianize(quotient_pipeline(d, "none"))
    calls = []
    real = laurent._subresultant_tail
    monkeypatch.setattr(laurent, "_subresultant_tail", lambda *a: calls.append(a) or real(*a))
    assert char_poly(mat, 1).is_one
    assert calls == []
