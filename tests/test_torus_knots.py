"""Classical knots as oracles at 84 to 301 crossings: torus knots from braid closures, twist knots from plat
closures, and connected sums.

At v = 1 a crossing's row of A(u, v) is (1 - t) OI + t UI - UO, the
Fox-calculus row of the Wirtinger presentation, so the ``--t v1`` char
poly k = 1 of a classical diagram is its Alexander polynomial.  The torus
knot T(p, q), p and q coprime, is the closure of (sigma_1 ... sigma_(p-1))^q
(``oracles.braid_closure``), with

    Delta(t) = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

its determinant is |Delta(-1)|, and T(2, n) has m gcd(n, m) colorings mod m.
The twist knot K_n, n + 2 crossings, is the plat closure of the 4-braid
sigma_2^n sigma_1^-1 sigma_2 (``oracles.plat_closure``), with

    Delta(t) = ((n+1)/2) t^2 - n t + (n+1)/2     (n odd),
    Delta(t) = (n/2) t^2 - (n+1) t + n/2         (n even),

and determinant 2n + 1.  The connected sum of two long knots is their
concatenation, and both Delta and the determinant are multiplicative
under it.

The rows of a twist or torus knot present a free module of rank one plus
the cyclic module Z[t^+-1]/(Delta), so its maps to Z/n with t acting as a
unit s number n gcd(Delta(s), n) (``hom_count_to_cyclic`` with ``--t v1``):
p^(1 + [Delta(s) = 0 mod p]) for a prime p.  On a closed connected sum the
module is one free part plus both cyclic parts, and the count is
n gcd(Delta_1(s), n) gcd(Delta_2(s), n).
"""

import math

import pytest

from oracles import braid_closure, brute_force_hom_count, plat_closure, subs_int
from vka.alexander import merged_arc_rows
from vka.diagram import close, concatenate, parse_gauss, switch_all_crossings
from vka.invariants import (
    char_poly, coloring_count, determinant_long, hom_count_to_cyclic, quotient_matrix, quotient_pipeline, quotient_rows,
)
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
        assert coloring_count(*merged_arc_rows(d), ms)[1] == [m * math.gcd(q, m) for m in ms]


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


def twist_word(n):
    """The 4-braid word whose plat closure is the twist knot K_n."""
    return [(1, 1)] * n + [(0, -1), (1, 1)]


def twist_alexander(n):
    """Delta of K_n by its closed form, t read as u."""
    a, b = ((n + 1) // 2, n) if n % 2 else (n // 2, n + 1)
    return a * T * T - b * T + a * ONE


TWISTS = (1, 2, 3, 4, 98, 99, 150, 200)


def test_twist_alexander_of_the_first_twist_knots():
    # K_1 is the trefoil, K_2 the figure-eight, K_3 the knot 5_2 and K_4 the knot 6_1
    assert [str(twist_alexander(n)) for n in (1, 2, 3, 4)] == [
        "u^2 - u + 1", "u^2 - 3*u + 1", "2*u^2 - 3*u + 2", "2*u^2 - 5*u + 2"]


@pytest.mark.parametrize("n", TWISTS, ids=[f"K_{n}" for n in TWISTS])
def test_twist_knot_invariants_match_their_closed_forms(n):
    code = plat_closure(twist_word(n))
    d = parse_gauss(code)
    assert d.crossings == n + 2
    assert char_poly(*quotient_matrix(d, "none", "v1"), 1) == twist_alexander(n)
    assert determinant_long(parse_gauss(code.removeprefix("closed\n"))) == 2 * n + 1


def test_plat_closure_of_several_components_is_rejected():
    # the caps of positions 2 and 3 close a circle of their own unless a crossing joins it to positions 0 and 1
    for word in ([], [(0, 1)], [(1, 1), (1, 1)]):
        with pytest.raises(ValueError, match="more than one component"):
            plat_closure(word)
    # sigma_2 alone: an unknot with one crossing, passed under and then over, both strands running down
    assert plat_closure([(1, 1)]) == "closed\nU1+ O1+"


def delta_mod(delta, s, n):
    """Delta(s) mod n, t read as u, for s a unit mod n."""
    return sum(c * pow(s, a, n) for (a, _), c in delta.terms.items()) % n


def cyclic_count(deltas, s, n):
    """n times gcd(Delta(s), n) for each of ``deltas``: the hom count to Z/n of a free part plus their
    cyclic modules.

    For a prime n it is n^(1 + the number of ``deltas`` that vanish at s mod n).
    """
    return n * math.prod(math.gcd(delta_mod(delta, s, n), n) for delta in deltas)


MODULI = (3, 5, 7, 4, 6, 8, 9, 12, 15, 25, 27)  # primes, then composites: each is checked with every unit s


def units(n):
    """The units of Z/n, as 1..n-1."""
    return [s for s in range(1, n) if math.gcd(s, n) == 1]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_hom_counts_of_small_twist_knots_match_delta_and_the_brute_force(n):
    d = parse_gauss(plat_closure(twist_word(n)))
    rows, shown, delta = quotient_rows(d), quotient_pipeline(d), twist_alexander(n)
    for m in MODULI:
        for s in units(m):
            count = hom_count_to_cyclic(*rows, m, s, "v1")
            assert count == cyclic_count([delta], s, m) == brute_force_hom_count(shown, m, s, "v1"), (m, s)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_observed_diagonal_hom_counts_of_small_twist_knots(n):
    """An observation on three knots, not a theorem: with u = v = t acting as s (``--t diag``), the count is
    n gcd(Delta(s^2), n) for every n of ``MODULI`` and every unit s, as the brute force on the relations says too.

    It follows from the observed Delta_1(u, v) = Delta_K(uv) (see
    ``test_observed_two_variable_char_polys_of_small_classical_knots``).
    """
    d = parse_gauss(plat_closure(twist_word(n)))
    rows, shown, delta = quotient_rows(d), quotient_pipeline(d), twist_alexander(n)
    for m in MODULI:
        for s in units(m):
            expected = cyclic_count([delta], s * s % m, m)
            assert hom_count_to_cyclic(*rows, m, s, "diag") == expected == brute_force_hom_count(shown, m, s), (m, s)


LARGE = {  # name: (closed code, Delta, the (n, s) checked beside every n of MODULI and every unit s)
    # s = -1 and a divisor n of the determinant |Delta(-1)|: 2k + 1 for K_k, 301 = 7 * 43 for K_150
    **{f"K_{k}": (plat_closure(twist_word(k)), twist_alexander(k), [(n, -1) for n in ns])
       for k, ns in ((98, [197]), (99, [199]), (150, [43, 301]), (200, [401]))},
    "T(2,101)": (braid_closure(2, [1] * 101), torus_alexander(2, 101), [(101, -1)]),
    # Delta(T(3, 50)) holds the cyclotomic factors of the orders 6, 15 and 30, all of which occur mod 31
    "T(3,50)": (braid_closure(3, [1, 2] * 50), torus_alexander(3, 50), [(31, s) for s in range(1, 31)]),
}


@pytest.mark.parametrize("name", LARGE)
def test_hom_counts_of_large_cyclic_knots_match_delta(name):
    code, delta, extra = LARGE[name]
    rows = quotient_rows(parse_gauss(code))
    cases = [(n, s) for n in MODULI for s in units(n)] + extra
    for n, s in cases:
        assert hom_count_to_cyclic(*rows, n, s, "v1") == cyclic_count([delta], s, n), (n, s)
    assert any(cyclic_count([delta], s, n) > n for n, s in cases)


CLOSED_SUMS = [("T(2,101)", "T(2,101)"), ("T(2,101)", "T(3,50)")]


@pytest.mark.parametrize("first, second", CLOSED_SUMS, ids=[f"{a}#{b}" for a, b in CLOSED_SUMS])
def test_hom_counts_of_closed_connected_sums_add_their_summands_exponents(first, second):
    (a, delta_a), (b, delta_b) = long_knot(first), long_knot(second)
    rows = quotient_rows(close(concatenate(a, b)))
    cases = [(n, s) for n in MODULI + (31,) for s in units(n)] + [(101, s) for s in (1, 2, 100)]
    for n, s in cases:
        assert hom_count_to_cyclic(*rows, n, s, "v1") == cyclic_count([delta_a, delta_b], s, n), (n, s)
    # each summand's Delta vanishes in some case, T(2, 101)'s at (101, -1), T(3, 50)'s at (7, 3)
    assert all(any(delta_mod(delta, s, p) == 0 for p, s in cases) for delta in (delta_a, delta_b))
