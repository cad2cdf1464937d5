"""Classical knots as oracles at 84 to 301 crossings: torus knots from braid closures.

At v = 1 a crossing's row of A(u, v) is (1 - t) OI + t UI - UO, the
Fox-calculus row of the Wirtinger presentation, so the ``--t v1`` char
poly k = 1 of a classical diagram is its Alexander polynomial.  The torus
knot T(p, q), p and q coprime, is the closure of (sigma_1 ... sigma_(p-1))^q
(``oracles.braid_closure``), with

    Delta(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

its determinant is |Delta(-1)|, and T(2, n) has m gcd(n, m) colorings mod m.
"""

import math

import pytest

from oracles import braid_closure, subs_int
from vka.diagram import parse_gauss
from vka.invariants import char_poly, coloring_count, determinant_long, quotient_matrix
from vka.laurent import LaurentPoly, divexact

TORUS = ((2, 101), (2, 301), (3, 50), (3, 100), (4, 33), (5, 21))


def torus_alexander(p, q):
    """Delta of T(p, q) by its closed form, t read as u."""
    t, one = LaurentPoly.monomial((1, 0)), LaurentPoly.const(1)
    return divexact((t ** (p * q) - one) * (t - one), (t ** p - one) * (t ** q - one))


@pytest.mark.parametrize("p, q", TORUS, ids=[f"T({p},{q})" for p, q in TORUS])
def test_torus_knot_invariants_match_their_closed_forms(p, q):
    code = braid_closure(p, list(range(1, p)) * q)
    d = parse_gauss(code)
    assert d.crossings == (p - 1) * q
    delta = torus_alexander(p, q)
    assert char_poly(*quotient_matrix(d, "none", "v1"), 1) == delta
    assert determinant_long(parse_gauss(code.removeprefix("closed\n"))) == abs(subs_int(delta, (-1, 1)))
    if p == 2:
        ms = (3, 5, 7, 101)
        assert coloring_count(d, ms) == [m * math.gcd(q, m) for m in ms]


def test_braid_closure_of_several_components_is_rejected():
    with pytest.raises(ValueError, match="more than one component"):
        braid_closure(2, [1, 1])
    # strand 0 passes under strand 1 three times: at sigma_1 strand 1 comes from position 2, at its inverse from 1
    assert braid_closure(2, [1, -1, 1]) == "closed\nU1+ U2- U3+ O1+ O2- O3+"
