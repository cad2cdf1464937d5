import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    T_ONE,
    convolve,
    l1,
    l2,
    random_poly,
    random_unit,
    specialize_entry,
    subs_int,
    subs_reference,
)
from vka import laurent
from vka.alexander import diagonal_t, one_variable
from vka.laurent import (
    InexactDivision,
    LaurentPoly,
    TVAR,
    UV,
    divexact,
    divides,
    gcd,
    gcd_many,
    pack,
    parse_poly,
    unpack,
)

U = LaurentPoly.monomial(UV, (1, 0))
V = LaurentPoly.monomial(UV, (0, 1))
T = LaurentPoly.monomial(TVAR, (1,))


def test_difference_of_squares():
    assert (U - 1) * (U + 1) == U * U - 1


def test_multiplicative_identity():
    rng = random.Random(1)
    one = LaurentPoly.const(UV, 1)
    for _ in range(50):
        p = random_poly(rng, UV)
        assert p * one == p


def test_product_golden():
    p = parse_poly("u^2*v - u + 1")
    q = parse_poly("u*v^2 - v + 1")
    # frozen from the convolution oracle
    expected = parse_poly("u^3*v^3 - 2*u^2*v^2 + u^2*v + u*v^2 + u*v - u - v + 1")
    assert p * q == expected
    assert convolve(p, q) == expected


def test_mul_matches_convolution_oracle():
    rng = random.Random(7)
    for _ in range(300):
        p, q = random_poly(rng, UV), random_poly(rng, UV)
        assert p * q == convolve(p, q)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        p, q, r = (random_poly(rng, UV, max_terms=3) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)


def test_canonical_golden():
    assert l2({(-1, 0): 1, (0, 0): -1}).canonical() == U - 1
    assert l2({(2, -1): -3}).canonical() == LaurentPoly.const(UV, 3)
    assert LaurentPoly.zero(UV).canonical() == LaurentPoly.zero(UV)


def test_canonical_idempotent_and_associate_invariant():
    rng = random.Random(13)
    for _ in range(1000):
        p = random_poly(rng, UV)
        c = p.canonical()
        assert c.canonical() == c
        unit = random_unit(rng, UV)
        assert (p * unit).canonical() == c


def test_gcd_golden():
    assert gcd(U * U - 1, U - 1) == U - 1
    assert gcd(LaurentPoly.const(UV, 6), LaurentPoly.const(UV, 4)) == LaurentPoly.const(UV, 2)
    g = gcd((U - V) * (U + 1), (U - V) * (V + 1))
    assert g == (U - V).canonical()


def test_gcd_construct_by_factors():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        f = random_poly(rng, UV, max_terms=3, max_exp=2)
        a = random_poly(rng, UV, max_terms=2, max_exp=2)
        b = random_poly(rng, UV, max_terms=2, max_exp=2)
        if f.is_zero or a.is_zero or b.is_zero:
            continue
        g = gcd(f * a, f * b)
        assert divides(g, f * a) and divides(g, f * b)
        assert divides(f.canonical(), g) or divides(f, g)
        checked += 1


def test_gcd_divides_randomized():
    rng = random.Random(19)
    for _ in range(1000):
        p, q = random_poly(rng, UV, max_terms=3, max_exp=2), random_poly(rng, UV, max_terms=3, max_exp=2)
        g = gcd(p, q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
            continue
        for x in (p, q):
            cofactor = divexact(x, g)
            assert cofactor * g == x
        assert gcd(q, p) == g


def test_gcd_with_zero_and_units():
    p = U * V - 1
    zero = LaurentPoly.zero(UV)
    assert gcd(p, zero) == p.canonical()
    assert gcd(zero, zero) == zero
    assert gcd(p, LaurentPoly.monomial(UV, (2, -1), -1)) == LaurentPoly.const(UV, 1)
    assert gcd_many([], vars=UV) == zero


def test_univariate_gcd():
    p = (T - 1) * (T * T + 1)
    q = (T - 1) * (T + 2)
    assert gcd(p, q) == (T - 1).canonical()


def test_specialize_golden():
    p = parse_poly("u^2*v - u + 1")
    assert specialize_entry(one_variable, p) == parse_poly("t^2 - t + 1", TVAR)
    assert specialize_entry(diagonal_t, p) == parse_poly("t^3 - t + 1", TVAR)
    q = parse_poly("u^2*v + u*v^2 - u - v + 1")
    assert specialize_entry(diagonal_t, q) == parse_poly("2*t^3 - 2*t + 1", TVAR)
    assert subs_int(p, (-1, -1)) == 1


def test_specialize_is_homomorphism():
    rng = random.Random(23)
    for _ in range(1000):
        p, q = random_poly(rng, UV, max_terms=3), random_poly(rng, UV, max_terms=3)
        for f in (one_variable, diagonal_t):
            assert specialize_entry(f, p + q) == specialize_entry(f, p) + specialize_entry(f, q)
            assert specialize_entry(f, p * q) == specialize_entry(f, p) * specialize_entry(f, q)
        assert subs_int(p * q, (1, -1)) == subs_int(p, (1, -1)) * subs_int(q, (1, -1))
        assert (p + q).subs_mod((2, 3), 7) == (p.subs_mod((2, 3), 7) + q.subs_mod((2, 3), 7)) % 7
        assert (p * q).subs_mod((2, 3), 7) == (p.subs_mod((2, 3), 7) * q.subs_mod((2, 3), 7)) % 7


def test_specialize_matches_reference():
    rng = random.Random(41)
    for _ in range(500):
        p = random_poly(rng, UV, max_terms=6)
        for f, images in ((one_variable, (T, T_ONE)), (diagonal_t, (T, T))):
            assert specialize_entry(f, p) == subs_reference(p, images), (p, f)
    # terms that collide: u = v = t sends u*v^-1 and u^-1*v to 1 each
    p = parse_poly("u*v^-1 - u^-1*v")
    assert specialize_entry(diagonal_t, p) == LaurentPoly.zero(TVAR)
    assert specialize_entry(diagonal_t, p) == subs_reference(p, (T, T))


def test_subs_mod_matches_integer_evaluation():
    # x^K p has no negative exponent: evaluate it over Z, then multiply by the K-th powers
    # of the images' inverses, found by search
    K = 3
    rng = random.Random(59)
    for _ in range(600):
        vars = rng.choice((UV, TVAR))
        p = random_poly(rng, vars, max_terms=5, max_exp=K)
        m = rng.randrange(2, 13)
        images = [rng.choice([x for x in range(-2 * m, 2 * m) if math.gcd(x, m) == 1]) for _ in vars]
        value = sum(c * math.prod(im ** (e + K) for im, e in zip(images, exps)) for exps, c in p.terms.items())
        for im in images:
            value *= next(x for x in range(m) if im * x % m == 1) ** K
        assert p.subs_mod(images, m) == value % m, (p, images, m)


def test_specialize_rejects_non_units():
    p = U + V
    with pytest.raises(ValueError, match="^2 is not a unit of Z$"):
        subs_int(p, (2, 1))
    # u and v occur with positive exponents only, and the image is still checked
    with pytest.raises(ValueError, match="^3 is not a unit mod 6$"):
        p.subs_mod((9, 1), 6)
    with pytest.raises(ValueError, match="^modulus must be at least 2$"):
        p.subs_mod((1, 1), 1)


def test_divexact_errors():
    with pytest.raises(InexactDivision):
        divexact(U + 1, U - 1)
    with pytest.raises(ZeroDivisionError):
        divexact(U, LaurentPoly.zero(UV))


def test_parse_render_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        p = random_poly(rng, UV)
        assert parse_poly(str(p), UV) == p
    for _ in range(100):
        p = random_poly(rng, TVAR)
        assert parse_poly(str(p), TVAR) == p


@pytest.mark.parametrize("text, expected", [
    ("u^2*v - u + 1", U * U * V - U + 1),
    ("0", LaurentPoly.zero(UV)),
    (" u ^ 2 * v ", U * U * V),
    ("2*3*u", 6 * U),
    ("u*u", U * U),
    ("u^-1*u", LaurentPoly.const(UV, 1)),
    ("+u", U),
    ("u^ -1", U.inverse()),
    ("t^-1 + 2", T.inverse() + 2),
])
def test_parse_poly_accepts_the_grammar(text, expected):
    assert parse_poly(text, expected.vars) == expected


@pytest.mark.parametrize("text", [
    "2u", "2u^2 - 3u + 1", "u^2v", "1 2",  # juxtaposed factors
    "u*", "u +", "3*-u", "--u", "u - - v", "u^", "^", "*u", "", " ", "w", "t",
])
def test_parse_poly_rejects_text_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_poly(text)


@pytest.mark.parametrize("terms", [
    {(0.5, 1.9): 2.7}, {(0, 1): 2.7}, {(0.0, 1): 2}, {("1", 0): 1}, {(0, 1): "3"},
])
def test_constructor_rejects_non_integers(terms):
    with pytest.raises(TypeError):
        LaurentPoly(UV, terms)


def test_constructor_takes_ints_and_bools():
    assert LaurentPoly(UV, [((True, False), True), ((1, 0), 2)]) == 3 * U


@pytest.mark.parametrize("c", [0, 1, 3, -2])
def test_constants_hash_as_the_ints_they_equal(c):
    for vars in (UV, TVAR):
        p = LaurentPoly.const(vars, c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1
    assert len({LaurentPoly.zero(UV), 0}) == 1
    assert hash(parse_poly("u*v - 1")) == hash(U * V - 1)


def test_render_graded_lex():
    assert str(parse_poly("1 - u + u^2*v")) == "u^2*v - u + 1"
    assert str(l1({2: 1, 0: 1, 1: -1})) == "t^2 - t + 1"
    assert str(LaurentPoly.zero(UV)) == "0"
    assert str(l2({(-1, 0): 2})) == "2*u^-1"


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))
def test_unit_times_inverse_is_one(i, j, c):
    unit = LaurentPoly.monomial(UV, (i, j), 1 if c >= 0 else -1)
    assert unit * unit.inverse() == LaurentPoly.const(UV, 1)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-9, 9), max_size=5
    ),
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)), st.integers(-9, 9), max_size=5
    ),
)
def test_gcd_divides_both_hypothesis(da, db):
    p, q = l2(da), l2(db)
    g = gcd(p, q)
    if not g.is_zero:
        assert divides(g, p)
        assert divides(g, q)


# -- Kronecker packing ---------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), st.integers(-2**70, 2**70), max_size=8),
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 4), st.integers(0, 8),
)
def test_pack_round_trip_two_variables(terms, du, dv, extra_d, extra_b):
    p = l2(terms)
    lu, lv = p.min_exps()
    low = (lu - du, lv - dv)  # at most the least exponents
    D = p.max_degree(0) - low[0] + 1 + extra_d  # u-span of p / x^low below D
    B = max((abs(c).bit_length() for c in p.terms.values()), default=0) + 1 + extra_b
    assert unpack(pack(p, low, B, D), B, D, UV, low) == p


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-9, 9), st.integers(-2**70, 2**70), max_size=8),
    st.integers(0, 3), st.integers(0, 8), st.integers(1, 5),
)
def test_pack_round_trip_one_variable(terms, dt, extra_b, D):
    p = l1(terms)
    low = (p.min_exps()[0] - dt,)
    B = max((abs(c).bit_length() for c in p.terms.values()), default=0) + 1 + extra_b
    assert unpack(pack(p, low, B, D), B, D, TVAR, low) == p  # D is unused in one variable


def test_pack_at_the_digit_bounds():
    # the balanced digits reach -2^(B-1) but not 2^(B-1)
    for c in (-8, 7, -1, 1):
        p = l2({(0, 0): c, (2, 1): c, (1, 3): c, (2, 3): -1})
        assert unpack(pack(p, (0, 0), 4, 3), 4, 3, UV, (0, 0)) == p
    assert unpack(pack(l1({0: 8}), (0,), 4, 1), 4, 1, TVAR, (0,)) != l1({0: 8})


# -- gcd_many: single input, GCDHEU at D and D + 1, subresultant fallback ----


def pairwise_gcd(polys):
    """The subresultant path alone: gcd folded pair by pair."""
    g = polys[0]
    for p in polys[1:]:
        g = gcd(g, p)
    return g.canonical()


def planted_lists(seed, vars):
    """Seeded lists of 1-5 polynomials sharing a random factor, with zero entries."""
    rng = random.Random(seed)
    for _ in range(300):
        f = random_poly(rng, vars, max_terms=3, max_exp=2) * rng.choice((1, 1, 2, 6))
        yield [
            LaurentPoly.zero(vars) if rng.random() < 0.15
            else f * random_poly(rng, vars, max_terms=3, max_exp=2) * random_unit(rng, vars)
            for _ in range(rng.randint(1, 5))
        ]


@pytest.fixture
def traced_paths(monkeypatch):
    """Record the D of every ``pack`` and count the calls of the subresultant ``gcd``."""
    seen = {"D": [], "gcd": 0}

    def counted_pack(p, low, B, D):
        seen["D"].append(D)
        return pack(p, low, B, D)

    def counted_gcd(p, q):
        seen["gcd"] += 1
        return gcd(p, q)

    monkeypatch.setattr(laurent, "pack", counted_pack)
    monkeypatch.setattr(laurent, "gcd", counted_gcd)

    def path(polys, vars=None):
        """gcd_many(polys) and the path it took."""
        seen["D"].clear()
        seen["gcd"] = 0
        value = gcd_many(polys, vars=vars)
        if sum(1 for p in polys if p) <= 1:
            return value, "single"
        if seen["gcd"]:
            return value, "fallback"
        return value, "retry" if len(set(seen["D"])) == 2 else "heuristic"

    return path


@pytest.mark.parametrize("vars", [UV, TVAR], ids=["uv", "t"])
def test_gcd_many_matches_pairwise_subresultant_gcd(vars, traced_paths):
    paths = {"single": 0, "heuristic": 0, "retry": 0, "fallback": 0}
    for seed in (31, 41, 43):
        for polys in planted_lists(seed, vars):
            value, path = traced_paths(polys, vars=vars)
            paths[path] += 1
            assert value == pairwise_gcd(polys), polys
    # both the single-input path and the heuristic gcd are exercised
    assert min(paths["single"], paths["heuristic"]) >= 50, paths


def sympy_gcd(sympy, polys, vars):
    gens = sympy.symbols(vars)
    shifted = [p.shift(tuple(-e for e in p.min_exps())) for p in polys if p]
    if not shifted:
        return LaurentPoly.zero(vars)
    g = functools.reduce(sympy.gcd, (sympy.Poly.from_dict(p.terms, *gens) for p in shifted))
    return LaurentPoly(vars, g.as_dict()).canonical()


@pytest.mark.parametrize("vars", [UV, TVAR], ids=["uv", "t"])
def test_gcd_many_matches_sympy(vars):
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    for polys in planted_lists(37, vars):
        assert gcd_many(polys, vars=vars) == sympy_gcd(sympy, polys, vars), polys


def gcd_pairs(seed):
    """Seeded pairs f*a*m, f*b*n, m and n integers, in u and v, free of v, free of u and in t.

    f, a and b are nonzero; one pair in ten has its second input replaced by
    zero, and one in ten by a unit.
    """
    rng = random.Random(seed)

    def draw(kind):
        while True:
            p = random_poly(rng, UV if kind == "uv" else TVAR, max_terms=3)
            if kind in ("u", "v"):  # the same polynomial in u alone or in v alone
                p = LaurentPoly(UV, {(e, 0) if kind == "u" else (0, e): c for (e,), c in p.terms.items()})
            if p:
                return p

    for kind in ("uv", "u", "v", "t") * 40:
        f, a, b = draw(kind), draw(kind), draw(kind)
        shared = rng.choice((1, 2, 6))
        p, q = (f * x * shared * rng.choice((1, 2, 3)) for x in (a, b))
        other = rng.random()
        yield p, (q if other >= 0.2 else LaurentPoly.zero(p.vars) if other >= 0.1 else random_unit(rng, p.vars))


def test_gcd_matches_sympy():
    """The pairwise subresultant gcd itself, on every input class its recursion meets, against sympy."""
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    fixed = [
        (LaurentPoly.const(UV, 6), LaurentPoly.const(UV, 4)),
        (LaurentPoly.const(TVAR, -9), 6 * T ** -3),
        (6 * (U + 1) * V ** -2, 4 * (U + 1)),
        (6 * (V - 2) * U ** 2, 4 * (V - 2) * (V + U)),
        (LaurentPoly.zero(UV), 6 * (U - V) * V ** -1),
        (U ** -1 * V, 4 * (U + 1)),
    ]
    for p, q in fixed + list(gcd_pairs(59)):
        expected = sympy_gcd(sympy, [p, q], p.vars)
        assert gcd(p, q) == gcd(q, p) == expected, (p, q)


# v -> X^D maps both inputs to multiples of X - 1 for every D; in the last
# list 2^B = 2^18 divides both packed integers, but X does not divide the
# image of 2^18 + u*v as a polynomial
FALLBACK = {
    "u-1, v-1": [U - 1, V - 1],
    "v^2-1, u^2-1": [V ** 2 - 1, U ** 2 - 1],
    "u+v, 2^18+u*v": [U + V, 2**18 + U * V],
}
# u(1 - v) and v(u^2 + u + 1): at D = 3 both images hold X^2 + X + 1
RETRY = {"u(1-v), v(u^2+u+1)": [-U * V + U, U ** 2 * V + U * V + V]}


@pytest.mark.parametrize("name, path", [(n, "fallback") for n in FALLBACK] + [(n, "retry") for n in RETRY])
def test_gcd_many_reaches_retry_and_fallback(name, path, traced_paths):
    polys = {**FALLBACK, **RETRY}[name]
    value, taken = traced_paths(polys)
    assert taken == path
    assert value.is_one and value == pairwise_gcd(polys)
    shared = [(U * V + 3) * p for p in polys]
    assert gcd_many(shared) == pairwise_gcd(shared) == U * V + 3
    sympy = pytest.importorskip("sympy")
    assert sympy_gcd(sympy, polys, UV).is_one and sympy_gcd(sympy, shared, UV) == U * V + 3


# Lists once built against a modular coprimality certificate over GF(l) with
# l = 2^31 - 1 and the evaluation points 16807, 48271 and 69621; they stay as
# gcd vectors.
ELL = LaurentPoly.const(UV, 2**31 - 1)
ELL_T = LaurentPoly.const(TVAR, 2**31 - 1)


def vanishing_at_points(x):
    """A polynomial in one variable that is zero at 16807, 48271 and 69621."""
    return math.prod(x - r for r in (16807, 48271, 69621))


# its highest u- and v-coefficients vanish at every point, where its image is 1
LEAD_VANISHES = 1 + U * V * vanishing_at_points(U) * vanishing_at_points(V)
ADVERSARIAL = {
    "lead-vanishes": [LEAD_VANISHES * (U + 2), LEAD_VANISHES * (V + 3)],
    # no common factor, but the first input's lowest u-coefficient vanishes
    "trail-vanishes": [U + vanishing_at_points(V), U + 1],
    "trail-multiple-of-ell": [(U + ELL * V) * (U + 2), (U + ELL * V) * (V + 3)],
    "coefficients-multiple-of-ell": [ELL * (U + 1), ELL * (V + 1)],
    "lead-multiple-of-ell-t": [(ELL_T * T + 1) * (T + 2), (ELL_T * T + 1) * (T + 3)],
    "trail-multiple-of-ell-t": [(T + ELL_T) * (T + 2), (T + ELL_T) * (T + 3)],
    "factor-free-of-u": [(V + 2) * (U + 1), (V + 2) * (U + 3)],
    "factor-free-of-v": [(U + 2) * (V + 1), (U + 2) * (V + 3)],
    "content-times-factor": [6 * (U - V) * (U + 1), 4 * (U - V) * (V + 1)],
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_certificate_declines_adversarial_lists(name):
    """Lists on which the former coprimality certificate declined: gcd_many equals the references."""
    polys = ADVERSARIAL[name]
    assert gcd_many(polys) == pairwise_gcd(polys)
    sympy = pytest.importorskip("sympy")
    assert gcd_many(polys) == sympy_gcd(sympy, polys, polys[0].vars)


def test_adversarial_gcds():
    assert gcd_many(ADVERSARIAL["lead-vanishes"]) == LEAD_VANISHES.canonical()
    assert gcd_many(ADVERSARIAL["trail-vanishes"]).is_one
    assert gcd_many(ADVERSARIAL["trail-multiple-of-ell"]) == (U + ELL * V).canonical()
    assert gcd_many(ADVERSARIAL["coefficients-multiple-of-ell"]) == ELL
    assert gcd_many(ADVERSARIAL["lead-multiple-of-ell-t"]) == ELL_T * T + 1
    assert gcd_many(ADVERSARIAL["content-times-factor"]) == (2 * (U - V)).canonical()


def test_certificate_returns_integer_content():
    """Coprime primitive parts: the gcd is the gcd of the contents, as the former certificate returned."""
    polys = [6 * (U + 1), LaurentPoly.zero(UV), 10 * (V - 1) * U ** -2]
    assert gcd_many(polys) == LaurentPoly.const(UV, 2)
    assert gcd_many([LaurentPoly.const(TVAR, -4), 6 * T]) == LaurentPoly.const(TVAR, 2)
    # one nonzero input is its own gcd, zeros included
    assert gcd_many([LaurentPoly.zero(UV), -3 * U ** -1 * (V - 2)]) == 3 * V - 6
    assert gcd_many([LaurentPoly.zero(TVAR)] * 3) == LaurentPoly.zero(TVAR)
