"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete; each criterion is also an ordinary test.
"""

import math
import random

import catalog
from oracles import (
    brute_force_hom_count,
    convolve,
    in_rowspan_mod,
    random_long_diagram,
    random_poly,
    random_unit,
    rank_mod,
    subs_int,
    transfer_brute_force,
)
from vka.alexander import (
    OpLetter,
    OpRelation,
    abelianize,
    diagonal_t,
    extended_presentation,
    one_var_matrix,
    quotient_kill,
    tietze_eliminate,
)
from vka.diagram import TRIVIAL_LONG, dn_family
from vka.invariants import (
    char_poly,
    coloring_count,
    determinant_long,
    hom_count_to_cyclic,
    invariant_profile,
    quotient_pipeline,
    transfer_condition,
    unit_minor_check,
)
from vka.laurent import UV, LaurentPoly, divexact, gcd
from vka.moves import random_walk


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def L(gen, u=0, v=0, sign=1):
    return OpLetter(gen, (u, v), sign)


def test_criterion_1_golden_presentations():
    p = extended_presentation(catalog.k1())
    expected_relations = (
        OpRelation((L("a"), L("c", u=1)), (L("d"), L("b", u=1))),
        OpRelation((L("a", v=1),), (L("b"),)),
        OpRelation((L("d"), L("b", u=1)), (L("c"), L("e", u=1))),
        OpRelation((L("d", v=1),), (L("e"),)),
    )
    ok = p.relations == expected_relations
    e = tietze_eliminate(p)
    expected_eliminated = OpRelation(
        (L("a"), L("d", u=1), L("a", u=2, v=1)),
        (L("d"), L("a", u=1, v=1), L("d", u=2, v=1)),
    )
    ok = ok and e.generators == ("a", "d") and e.relations == (expected_eliminated,)
    ok = ok and e.end_minus == (L("a"),) and e.end_plus == (L("d", v=1),)
    report(1, ok, "k1 crossing relations and eliminated presentation match symbol for symbol")


def test_criterion_2_golden_polynomials():
    expected = {
        "k1": "u^2*v - u + 1",
        "k2": "u^2*v + u*v^2 - u - v + 1",
        "k3": "u*v^2 - v + 1",
    }
    results = {}
    for name, text in expected.items():
        mat = abelianize(quotient_pipeline(getattr(catalog, name)(), "end-minus"))
        results[name] = str(char_poly(mat, 0))
    ok = all(results[n] == expected[n] for n in expected)
    report(2, ok, f"end-quotient characteristic polynomials {results}")


def test_criterion_3_k4_k5_separation():
    modules = {}
    for name in ("k4", "k5"):
        pres = extended_presentation(getattr(catalog, name)())
        killed = quotient_kill(pres, {pres.end_minus[0].gen, pres.end_plus[0].gen})
        modules[name] = abelianize(tietze_eliminate(killed))
    k5_always_trivial = True
    k4_sometimes_nontrivial = False
    for p in (5, 7):
        for u0 in range(1, p):
            for v0 in range(1, p):
                for name, mat in modules.items():
                    reduced = [[e.subs_mod((u0, v0), p) for e in row] for row in mat.rows]
                    corank = len(mat.cols) - rank_mod(reduced, p)
                    if name == "k5" and corank != 0:
                        k5_always_trivial = False
                    if name == "k4" and corank > 0:
                        k4_sometimes_nontrivial = True
    ok = k5_always_trivial and k4_sometimes_nontrivial
    report(3, ok, "k4 killed-ends module nonzero, k5's vanishes at every specialization mod 5 and 7")


def test_criterion_4_noncommutativity():
    # brute-force assignment oracle first
    oracle = {}
    for name in ("k4k5", "k5k4"):
        pres = extended_presentation(getattr(catalog, name)())
        killed = quotient_kill(pres, {pres.end_minus[0].gen})
        oracle[name] = brute_force_hom_count(killed, 5, 3)
    counts = {
        name: hom_count_to_cyclic(
            diagonal_t(abelianize(quotient_pipeline(getattr(catalog, name)(), "end-minus"))), 5, 3)
        for name in ("k4k5", "k5k4")
    }
    ok = oracle == counts == {"k4k5": 25, "k5k4": 5}
    report(4, ok, f"hom counts to Z/5 with t=3: {counts} (oracle {oracle}); products do not commute")


def test_criterion_5_determinant_properties():
    rng = random.Random(2024)
    diagrams = list(catalog.corpus().values())
    while len(diagrams) < 212:
        diagrams.append(random_long_diagram(rng, 6))
    violations = 0
    for d in diagrams:
        if d.kind != "long":
            continue
        det = determinant_long(d)
        if det % 2 == 0 or not unit_minor_check(d):
            violations += 1
            continue
        for rep in coloring_count(d, (3, 5, 7, 11, 13)):
            if rep.nontrivial != (det % rep.p == 0):
                violations += 1
    ok = violations == 0
    report(5, ok, f"{len(diagrams)} diagrams: determinants odd, unit minors, "
                  f"coloring iff p | det for p in 3,5,7,11,13; {violations} violations")


def test_criterion_6_winding_family():
    ok = True
    for n in range(1, 11):
        d = dn_family(TRIVIAL_LONG, n)
        for rep in coloring_count(d, range(2, 30)):
            p = rep.p
            cond = transfer_condition(n, p)  # closed form; the brute force solves the matrix equation
            expected = math.gcd(2 * n + 1, p) > 1
            solver = rep.nontrivial
            brute = transfer_brute_force(n, p)
            if not (cond == expected == solver == brute):
                ok = False
    report(6, ok, "transfer condition == gcd(2n+1, p) > 1 == coloring solver for n<=10, p<=29")


def test_criterion_7_move_invariance():
    failures = []
    for name, d in catalog.corpus().items():
        base = invariant_profile(d)
        cap = d.crossings + 4
        for seed in range(100):
            steps = 5 + (seed * 9) % 46  # lengths 5..50
            walked = random_walk(d, seed, steps, max_crossings=cap)
            if invariant_profile(walked) != base:
                failures.append((name, seed))
    ok = not failures
    report(7, ok, f"100 walks per corpus diagram leave determinant, characteristic "
                  f"polynomials and colorings unchanged; failures: {failures}")


def test_criterion_8_classical_sanity():
    from itertools import combinations

    from oracles import det_cofactor

    d = catalog.trefoil()
    a = one_var_matrix(d)
    poly = char_poly(a, 1)
    det = determinant_long(d)
    ok = str(poly) == "t^2 - t + 1" and det == 3
    # re-derive both values through cofactor expansion of the maximal minors
    rows = a.rows
    minors = [
        det_cofactor([[row[j] for j in cs] for row in rows])
        for cs in combinations(range(len(rows[0])), len(rows))
    ]
    oracle_poly = minors[0]
    for m in minors[1:]:
        oracle_poly = gcd(oracle_poly, m)
    oracle_det = math.gcd(*(subs_int(m, (-1,)) for m in minors))
    ok = ok and oracle_poly.canonical() == poly and abs(oracle_det) == det
    # the end arcs lie in the first and the last column of A(t)
    for p in (3, 5, 7):
        for t0 in range(1, p):
            rows = [[x.subs_mod((t0,), p) for x in row] for row in a.rows]
            diff = [0] * len(a.cols)
            diff[0] += 1
            diff[-1] -= 1
            if not in_rowspan_mod(rows, diff, p):
                ok = False
    report(8, ok, f"classical long trefoil: polynomial {poly}, determinant {det}, "
                  f"ends equal at all unit specializations mod 3, 5, 7")


def test_criterion_9_ring_layer():
    rng = random.Random(90)
    ok = True
    t = LaurentPoly.monomial(("t",), (1,))
    one_t = LaurentPoly.const(("t",), 1)
    for _ in range(1000):
        p, q, r = (random_poly(rng, UV, max_terms=3) for _ in range(3))
        if (p * q) * r != p * (q * r) or p * q != q * p or p * (q + r) != p * q + p * r:
            ok = False
        if p * q != convolve(p, q):
            ok = False
        c = p.canonical()
        if c.canonical() != c or (p * random_unit(rng, UV)).canonical() != c:
            ok = False
        g = gcd(p, q)
        if g.is_zero:
            if not (p.is_zero and q.is_zero):
                ok = False
        else:
            if divexact(p, g) * g != p or divexact(q, g) * g != q:
                ok = False
        for images in ((t, one_t), (t, t)):
            if (p + q).subs(images) != p.subs(images) + q.subs(images):
                ok = False
            if (p * q).subs(images) != p.subs(images) * q.subs(images):
                ok = False
    report(9, ok, "1000-sample ring axiom, gcd divisibility, canonical idempotence "
                  "and specialization homomorphism suites")
