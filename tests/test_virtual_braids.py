"""Virtual braid closures against a Burau-type oracle (``oracles.braid_matrix_reference``).

A virtual braid on n strands closes to a virtual knot of any size whose
module is presented by an n x n matrix over Z[u^+-1, v^+-1] (n x (n + 1)
for the long knot).  The braid side is computed by references only:
``minors_reference`` and a ``gcd_reference`` fold for the char polys,
``det_exact_reference`` for Delta_0, ``smith_normal_form_reference`` for the
determinant and ``rank_mod`` for the colorings and hom counts, never by
``char_poly``.  Its k >= 1 char polys thus also check ``gcd_many`` on
two-variable lists of virtual knots.
"""

import functools
import math
import random

import pytest

from oracles import (
    HOM_CASES,
    braid_closure,
    braid_matrix_reference,
    dense,
    det_exact_reference,
    gcd_reference,
    minors_reference,
    quotients,
    random_virtual_braid,
    rank_mod,
    smith_normal_form_reference,
    subs_int,
    subs_mod,
)
from vka.alexander import merged_arc_rows
from vka.diagram import LONG, parse_gauss
from vka.invariants import char_poly, coloring_count, determinant_long, hom_count_to_cyclic, quotient_matrix, quotient_rows
from vka.laurent import LaurentPoly

U, V, ONE = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1)), LaurentPoly.const(1)


def gcd_fold(polys):
    """The canonical gcd of ``polys`` by ``gcd_reference``, pair by pair; 0 when there are none."""
    return functools.reduce(gcd_reference, polys, LaurentPoly()).canonical()


def count_mod(m, point, p):
    """The solutions mod p of the matrix ``m`` = (rows, cols) at (u, v) = ``point``: p^(columns - rank)."""
    return p ** (len(m[1]) - rank_mod([[subs_mod(e, point, p) for e in row] for row in dense(*m)], p))


def at_minus_one(m):
    """The int rows of ``m`` at (u, v) = (-1, 1)."""
    return [[subs_int(e, (-1, 1)) for e in row] for row in dense(*m)]


def assert_matches_the_oracle(strands, word):
    code = braid_closure(strands, word)
    for d in (parse_gauss(code), parse_gauss(code.removeprefix("closed\n"))):
        context = (strands, word, d.kind)
        for quotient in quotients(d):
            m = braid_matrix_reference(strands, word, d.kind, quotient)
            for k in (0, 1, 2):
                assert char_poly(*quotient_matrix(d, quotient), k) == gcd_fold(minors_reference(m, k)), (
                    *context, quotient, k)
            rows = quotient_rows(d, quotient)
            for p, s in HOM_CASES:
                for t, point in (("v1", (s, 1)), ("diag", (s, s))):
                    assert hom_count_to_cyclic(*rows, p, s, t) == count_mod(m, point, p), (*context, quotient, t, p)
        m = braid_matrix_reference(strands, word, d.kind)
        ps = (3, 5, 7)
        gcd, colorings = coloring_count(*merged_arc_rows(d), ps)
        assert gcd == math.prod(smith_normal_form_reference(at_minus_one(m))), context
        assert colorings == [count_mod(m, (-1, 1), p) for p in ps], context
        if d.kind == LONG:
            assert determinant_long(d) == gcd, context


SMALL = [(strands, seed) for strands in (2, 3, 4, 5) for seed in range(2)]


@pytest.mark.parametrize("strands, seed", SMALL, ids=[f"{n}-strands-{seed}" for n, seed in SMALL])
def test_small_virtual_closures_match_the_burau_oracle(strands, seed):
    """25 closures per case, 200 in all, at 1-12 classical crossings: char polys k = 0-2 under every
    quotient, the determinant, colorings mod 3, 5 and 7, and hom counts under both --t."""
    rng = random.Random(1000 * strands + seed)
    for _ in range(25):
        assert_matches_the_oracle(strands, random_virtual_braid(rng, strands, rng.randint(1, 12)))


@pytest.mark.parametrize("seed", range(10))
def test_large_closed_virtual_closures_have_the_oracle_delta_0(seed):
    """3-strand closures at 50-60 classical crossings: the closed Delta_0 is det(rho - I), and it is nonzero."""
    rng = random.Random(seed)
    word = random_virtual_braid(rng, 3, rng.randint(50, 60))
    delta_0 = det_exact_reference(dense(*braid_matrix_reference(3, word))).canonical()
    d = parse_gauss(braid_closure(3, word))
    assert d.crossings >= 50 and delta_0
    assert char_poly(*quotient_matrix(d), 0) == delta_0


def test_virtual_trefoil():
    """sigma_1^2 tau_1 closes to the virtual trefoil, with Delta_0 = (u - 1)(v - 1)(uv - 1)."""
    word = [1, 1, ("v", 1)]
    assert braid_closure(2, word) == "closed\nU1+ O2+ O1+ U2+"
    delta_0 = ((U - ONE) * (V - ONE) * (U * V - ONE)).canonical()
    assert det_exact_reference(dense(*braid_matrix_reference(2, word))).canonical() == delta_0
    assert char_poly(*quotient_matrix(parse_gauss(braid_closure(2, word))), 0) == delta_0
    assert_matches_the_oracle(2, word)
