"""Classical knots as oracles at 84 to 301 crossings: torus knots from braid closures, and their connected sums.

At v = 1 a crossing's row of A(u, v) is (1 - t) OI + t UI - UO, the
Fox-calculus row of the Wirtinger presentation, so the ``--t v1`` char
poly k = 1 of a classical diagram is its Alexander polynomial.  The torus
knot T(p, q), p and q coprime, is the closure of (sigma_1 ... sigma_(p-1))^q
(``oracles.braid_closure``), with

    Delta(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

its determinant is |Delta(-1)|, and T(2, n) has m gcd(n, m) colorings mod m.
The connected sum of two long knots is their concatenation, and both Delta
and the determinant are multiplicative under it.
"""

import math

import pytest

from oracles import braid_closure, subs_int
from vka.diagram import concatenate, parse_gauss, switch_all_crossings
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



T, ONE = LaurentPoly.monomial((1, 0)), LaurentPoly.const(1)
KNOTS = {  # name: (strands, braid word, Delta)
    "T(2,3)": (2, [1] * 3, T * T - T + ONE),
    "T(2,5)": (2, [1] * 5, torus_alexander(2, 5)),
    "T(3,4)": (3, [1, 2] * 4, torus_alexander(3, 4)),
    "4_1": (3, [1, -2, 1, -2], T * T - 3 * T + ONE),
    **{f"T({p},{q})": (p, list(range(1, p)) * q, torus_alexander(p, q)) for p, q in TORUS},
}


def long_knot(name):
    """The long form of a knot of ``KNOTS``, its closed code cut at the top of strand 0, and its Delta.

    "mirror " before the name switches every crossing, which changes Delta(t) to Delta(1/t), the same up to a unit.
    """
    strands, word, delta = KNOTS[name.removeprefix("mirror ")]
    d = parse_gauss(braid_closure(strands, word).removeprefix("closed\n"))
    return (switch_all_crossings(d) if name.startswith("mirror ") else d), delta


SUMS = [("T(2,101)", "T(3,50)", 201), ("T(4,33)", "T(5,21)", 183), ("T(2,101)", "T(5,21)", 185),
        ("T(2,101)", "T(2,101)", 202), ("T(3,50)", "mirror T(3,50)", 200), ("4_1", "T(2,101)", 105)]


@pytest.mark.parametrize("first, second, crossings", SUMS, ids=[f"{a}#{b}" for a, b, _ in SUMS])
def test_connected_sums_multiply_delta_and_the_determinant(first, second, crossings):
    (a, delta_a), (b, delta_b) = long_knot(first), long_knot(second)
    d = concatenate(a, b)
    assert d.crossings == crossings
    assert char_poly(*quotient_matrix(d, "none", "v1"), 1) == (delta_a * delta_b).canonical()
    assert determinant_long(d) == determinant_long(a) * determinant_long(b)


@pytest.mark.parametrize("name", ["T(2,3)", "T(2,5)", "T(3,4)", "4_1"])
def test_observed_two_variable_char_polys_of_small_classical_knots(name):
    """An observation on four knots, not a theorem: on the closed diagram, Delta_0(u, v) = 0 and
    Delta_1(u, v) = Delta_K(uv), the Alexander polynomial at t = uv."""
    strands, word, delta = KNOTS[name]
    m = quotient_matrix(parse_gauss(braid_closure(strands, word)), "none")
    assert char_poly(*m, 0) == LaurentPoly()
    assert char_poly(*m, 1) == LaurentPoly({(e, e): c for (e, _), c in delta.terms.items()})
