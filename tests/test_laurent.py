import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    convolve,
    gcd_reference,
    l1,
    l2,
    random_poly,
    random_unit,
    specialize_entry,
    subs_int,
    subs_mod,
    subs_reference,
)
from vka import laurent
from vka.alexander import diagonal_t, one_variable
from vka.laurent import (
    InexactDivision,
    LaurentPoly,
    divexact,
    divides,
    gcd_many,
    pack,
    parse_poly,
    unpack,
)

U = LaurentPoly.monomial((1, 0))
V = LaurentPoly.monomial((0, 1))


def test_difference_of_squares():
    assert (U - 1) * (U + 1) == U * U - 1


def test_multiplicative_identity():
    rng = random.Random(1)
    one = LaurentPoly.const(1)
    for _ in range(50):
        p = random_poly(rng)
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
        p, q = random_poly(rng), random_poly(rng)
        assert p * q == convolve(p, q)


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(1000):
        p, q, r = (random_poly(rng, max_terms=3) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p + q) + r == p + (q + r)


def test_canonical_golden():
    assert l2({(-1, 0): 1, (0, 0): -1}).canonical() == U - 1
    assert l2({(2, -1): -3}).canonical() == LaurentPoly.const(3)
    assert not LaurentPoly().canonical()


def test_canonical_idempotent_and_associate_invariant():
    rng = random.Random(13)
    for _ in range(1000):
        p = random_poly(rng)
        c = p.canonical()
        assert c.canonical() == c
        unit = random_unit(rng)
        assert (p * unit).canonical() == c


def test_gcd_golden():
    assert gcd_many([U * U - 1, U - 1]) == U - 1
    assert gcd_many([LaurentPoly.const(6), LaurentPoly.const(4)]) == LaurentPoly.const(2)
    g = gcd_many([(U - V) * (U + 1), (U - V) * (V + 1)])
    assert g == (U - V).canonical()


def test_gcd_construct_by_factors():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        f = random_poly(rng, max_terms=3, max_exp=2)
        a = random_poly(rng, max_terms=2, max_exp=2)
        b = random_poly(rng, max_terms=2, max_exp=2)
        if not (f and a and b):
            continue
        g = gcd_many([f * a, f * b])
        assert divides(g, f * a) and divides(g, f * b)
        assert divides(f.canonical(), g) or divides(f, g)
        checked += 1


def test_gcd_divides_randomized():
    rng = random.Random(19)
    for _ in range(1000):
        p, q = random_poly(rng, max_terms=3, max_exp=2), random_poly(rng, max_terms=3, max_exp=2)
        g = gcd_many([p, q])
        if not g:
            assert not p and not q
            continue
        for x in (p, q):
            cofactor = divexact(x, g)
            assert cofactor * g == x
        assert gcd_many([q, p]) == g


def test_gcd_with_zero_and_units():
    p = U * V - 1
    zero = LaurentPoly()
    assert gcd_many([p, zero]) == p.canonical()
    assert gcd_many([zero, zero]) == zero
    assert gcd_many([p, LaurentPoly.monomial((2, -1), -1)]) == LaurentPoly.const(1)
    assert gcd_many([]) == zero


def test_univariate_gcd():
    p = (U - 1) * (U * U + 1)
    q = (U - 1) * (U + 2)
    assert gcd_many([p, q]) == (U - 1).canonical()


def test_specialize_golden():
    p = parse_poly("u^2*v - u + 1")
    # the images lie in Z[u^+-1]: t is read as u
    assert specialize_entry(one_variable, p) == parse_poly("u^2 - u + 1")
    assert specialize_entry(diagonal_t, p) == parse_poly("u^3 - u + 1")
    q = parse_poly("u^2*v + u*v^2 - u - v + 1")
    assert specialize_entry(diagonal_t, q) == parse_poly("2*u^3 - 2*u + 1")
    assert subs_int(p, (-1, -1)) == 1


def test_specialize_is_homomorphism():
    rng = random.Random(23)
    for _ in range(1000):
        p, q = random_poly(rng, max_terms=3), random_poly(rng, max_terms=3)
        for f in (one_variable, diagonal_t):
            assert specialize_entry(f, p + q) == specialize_entry(f, p) + specialize_entry(f, q)
            assert specialize_entry(f, p * q) == specialize_entry(f, p) * specialize_entry(f, q)
        assert subs_int(p * q, (1, -1)) == subs_int(p, (1, -1)) * subs_int(q, (1, -1))
        assert subs_mod(p + q, (2, 3), 7) == (subs_mod(p, (2, 3), 7) + subs_mod(q, (2, 3), 7)) % 7
        assert subs_mod(p * q, (2, 3), 7) == (subs_mod(p, (2, 3), 7) * subs_mod(q, (2, 3), 7)) % 7


def test_specialize_matches_reference():
    rng = random.Random(41)
    for _ in range(500):
        p = random_poly(rng, max_terms=6)
        for f, images in ((one_variable, (U, LaurentPoly.const(1))), (diagonal_t, (U, U))):
            assert specialize_entry(f, p) == subs_reference(p, images), (p, f)
    # terms that collide: u = v = t sends u*v^-1 and u^-1*v to 1 each
    p = parse_poly("u*v^-1 - u^-1*v")
    assert not specialize_entry(diagonal_t, p)
    assert specialize_entry(diagonal_t, p) == subs_reference(p, (U, U))


def test_subs_mod_matches_integer_evaluation():
    # x^K p has no negative exponent: evaluate it over Z, then multiply by the K-th powers
    # of the images' inverses, found by search
    K = 3
    rng = random.Random(59)
    for _ in range(600):
        u_only = rng.choice((False, True))  # in u alone, the image is evaluated at u only
        p = random_poly(rng, max_terms=5, max_exp=K, u_only=u_only)
        m = rng.randrange(2, 13)
        images = [rng.choice([x for x in range(-2 * m, 2 * m) if math.gcd(x, m) == 1]) for _ in range(2 - u_only)]
        value = sum(c * math.prod(im ** (e + K) for im, e in zip(images, exps)) for exps, c in p.terms.items())
        for im in images:
            value *= next(x for x in range(m) if im * x % m == 1) ** K
        assert subs_mod(p, images, m) == value % m, (p, images, m)


def test_specialize_rejects_non_units():
    p = U + V
    with pytest.raises(ValueError, match="^2 is not a unit of Z$"):
        subs_int(p, (2, 1))
    # u and v occur with positive exponents only, and the image is still checked
    with pytest.raises(ValueError, match="^3 is not a unit mod 6$"):
        subs_mod(p, (9, 1), 6)
    with pytest.raises(ValueError, match="^modulus must be at least 2$"):
        subs_mod(p, (1, 1), 1)


def test_divexact_inverts_multiplication():
    """q * f divided by q is f, and q * f + 1 is not a multiple of a q that is not a unit."""
    rng = random.Random(67)
    for _ in range(300):
        f, q = random_poly(rng, max_terms=5), random_poly(rng, max_terms=5)
        if not q:
            continue
        assert divexact(q * f, q) == f
        if not q.is_unit:
            with pytest.raises(InexactDivision):
                divexact(q * f + 1, q)


def test_divexact_errors():
    with pytest.raises(InexactDivision):
        divexact(U + 1, U - 1)
    with pytest.raises(ZeroDivisionError):
        divexact(U, LaurentPoly())


def test_parse_render_round_trip():
    rng = random.Random(29)
    for _ in range(200):
        p = random_poly(rng)
        assert parse_poly(str(p)) == p
    for _ in range(100):
        p = random_poly(rng, u_only=True)
        assert parse_poly(str(p)) == p


@pytest.mark.parametrize("text, expected", [
    ("u^2*v - u + 1", U * U * V - U + 1),
    ("0", LaurentPoly()),
    (" u ^ 2 * v ", U * U * V),
    ("2*3*u", 6 * U),
    ("u*u", U * U),
    ("u^-1*u", LaurentPoly.const(1)),
    ("+u", U),
    ("u^ -1", U.inverse()),
    ("t^-1 + 2", U.inverse() + 2),  # "L1" text, in t
])
def test_parse_poly_accepts_the_grammar(text, expected):
    assert parse_poly(text.replace("t", "u")) == expected  # "L1" text reads back with t as u


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
        LaurentPoly(terms)


@pytest.mark.parametrize("terms", [{(1,): 1}, {(1, 0, 0): 1}, {(): 1}])
def test_constructor_rejects_exponents_that_are_not_pairs(terms):
    with pytest.raises(ValueError, match="is not a pair"):
        LaurentPoly(terms)


def test_constructor_takes_ints_and_bools():
    assert LaurentPoly([((True, False), True), ((1, 0), 2)]) == 3 * U


@pytest.mark.parametrize("c", [0, 1, 3, -2])
def test_constants_hash_as_the_ints_they_equal(c):
    p = LaurentPoly.const(c)
    assert p == c and hash(p) == hash(c)
    assert len({p, c}) == 1
    assert len({LaurentPoly(), 0}) == 1
    assert hash(parse_poly("u*v - 1")) == hash(U * V - 1)


def test_render_graded_lex():
    assert str(parse_poly("1 - u + u^2*v")) == "u^2*v - u + 1"
    assert str(l1({2: 1, 0: 1, 1: -1})) == "u^2 - u + 1"
    assert str(LaurentPoly()) == "0"
    assert str(l2({(-1, 0): 2})) == "2*u^-1"


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-6, 6))
def test_unit_times_inverse_is_one(i, j, c):
    unit = LaurentPoly.monomial((i, j), 1 if c >= 0 else -1)
    assert unit * unit.inverse() == LaurentPoly.const(1)


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
    g = gcd_many([p, q])
    if g:
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
    assert unpack(pack(p.terms, low, B, D), B, D, low) == p


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-9, 9), st.integers(-2**70, 2**70), max_size=8),
    st.integers(0, 3), st.integers(0, 8), st.integers(0, 4),
)
def test_pack_round_trip_one_variable(terms, du, extra_b, extra_d):
    p = l1(terms)  # in u alone, t read as u
    low = (p.min_exps()[0] - du, 0)
    D = p.max_degree(0) - low[0] + 1 + extra_d
    B = max((abs(c).bit_length() for c in p.terms.values()), default=0) + 1 + extra_b
    assert pack(p.terms, low, B, D) == pack(p.terms, low, B, 1)  # v^0: the image does not depend on D
    assert unpack(pack(p.terms, low, B, D), B, D, low) == p


def test_pack_at_the_digit_bounds():
    # the balanced digits reach -2^(B-1) but not 2^(B-1)
    for c in (-8, 7, -1, 1):
        p = l2({(0, 0): c, (2, 1): c, (1, 3): c, (2, 3): -1})
        assert unpack(pack(p.terms, (0, 0), 4, 3), 4, 3, (0, 0)) == p
    assert unpack(pack(l1({0: 8}).terms, (0, 0), 4, 2), 4, 2, (0, 0)) != l1({0: 8})


# -- gcd_many: single input, shared primitive part, GCDHEU on v -> v + c ----


def pairwise_gcd(polys):
    """The subresultant reference alone: ``gcd_reference`` folded pair by pair."""
    g = polys[0]
    for p in polys[1:]:
        g = gcd_reference(g, p)
    return g.canonical()


def planted_lists(seed, u_only):
    """Seeded lists of 1-5 polynomials sharing a random factor, with zero entries; in u alone when ``u_only``."""
    rng = random.Random(seed)
    for _ in range(300):
        f = random_poly(rng, max_terms=3, max_exp=2, u_only=u_only) * rng.choice((1, 1, 2, 6))
        yield [
            LaurentPoly() if rng.random() < 0.15
            else f * random_poly(rng, max_terms=3, max_exp=2, u_only=u_only) * random_unit(rng, u_only=u_only)
            for _ in range(rng.randint(1, 5))
        ]


@pytest.fixture
def traced_paths(monkeypatch):
    """Record the D of every ``pack`` and the shift c of every GCDHEU attempt."""
    seen = {"D": [], "c": []}
    real_heuristic = laurent._heuristic

    def counted_pack(terms, low, B, D):
        seen["D"].append(D)
        return pack(terms, low, B, D)

    def counted_heuristic(prims, D, c):
        seen["c"].append(c)
        return real_heuristic(prims, D, c)

    monkeypatch.setattr(laurent, "pack", counted_pack)
    monkeypatch.setattr(laurent, "_heuristic", counted_heuristic)

    def path(polys):
        """gcd_many(polys) and the path it took; ``path.shifts`` holds the shifts c >= 1 of the last call
        and ``path.D`` the D of each of its packs."""
        seen["D"].clear()
        seen["c"].clear()
        value = gcd_many(polys)
        path.shifts = [c for c in seen["c"] if c]
        if sum(1 for p in polys if p) <= 1:
            return value, "single"
        if not seen["c"]:
            return value, "shared"
        return value, "shifted" if path.shifts else "heuristic"

    path.D = seen["D"]
    return path


@pytest.fixture
def unshifted_rejected(monkeypatch):
    """Make ``gcd_many`` reject every candidate of its c = 0 attempt, so each list with two
    distinct primitive parts reaches the attempts on shifted inputs."""
    real = laurent._heuristic
    monkeypatch.setattr(laurent, "_heuristic", lambda prims, D, c: real(prims, D, c) if c else None)


# "t": the one-variable lists, in u alone (t read as u), as the specialized char polys reach gcd_many
@pytest.mark.parametrize("u_only", [False, True], ids=["uv", "t"])
def test_gcd_many_matches_pairwise_subresultant_gcd(u_only, traced_paths):
    paths = {"single": 0, "shared": 0, "heuristic": 0, "shifted": 0}
    for seed in (31, 41, 43):
        for polys in planted_lists(seed, u_only):
            value, path = traced_paths(polys)
            paths[path] += 1
            assert value == pairwise_gcd(polys), polys
    # both the single-input path and the heuristic gcd are exercised
    assert min(paths["single"], paths["heuristic"]) >= 50, paths


def associates(rng, p, count):
    """``count`` random associates of p times integers: monomial shifts, both signs, contents 1-12."""
    return [p * random_unit(rng) * rng.randint(1, 12) for _ in range(count)]


@pytest.mark.parametrize("u_only", [False, True], ids=["uv", "t"])
def test_gcd_many_of_associates_is_the_shared_primitive_part(u_only, traced_paths):
    rng = random.Random(47)
    for _ in range(200):
        p = random_poly(rng, max_terms=4, u_only=u_only)
        if not p:
            continue
        polys = associates(rng, p, rng.randint(2, 5))
        value, path = traced_paths(polys)
        assert path == "shared" and value == pairwise_gcd(polys), polys
        assert value == laurent._primitive(p) * math.gcd(*(q.content() for q in polys))


def test_gcd_many_of_mixed_lists_and_zeros(traced_paths):
    """Associates of one or two polynomials, other multiples and zeros, in random order."""
    rng = random.Random(53)
    paths = set()
    for _ in range(300):
        p, q = random_poly(rng, max_terms=3), random_poly(rng, max_terms=3)
        polys = associates(rng, p, rng.randint(0, 3)) + associates(rng, q, rng.randint(0, 2))
        polys += [p * random_poly(rng, max_terms=2) for _ in range(rng.randint(0, 2))]
        polys += [LaurentPoly()] * rng.randint(0, 2)
        rng.shuffle(polys)
        value, path = traced_paths(polys)
        paths.add(path)
        expected = pairwise_gcd(polys) if polys else LaurentPoly()
        assert value == expected, polys
    assert {"single", "shared", "heuristic"} <= paths, paths


def test_primitive_with_its_content_given():
    rng = random.Random(61)
    for _ in range(300):
        p = random_poly(rng) * random_unit(rng) * rng.randint(1, 12)
        if p:
            assert laurent._primitive(p, p.content()).terms == laurent._primitive(p).terms
            assert laurent._primitive(p) * p.content() == p.canonical()


def sympy_gcd(sympy, polys):
    gens = sympy.symbols("u v")
    shifted = [p.shift(tuple(-e for e in p.min_exps())) for p in polys if p]
    if not shifted:
        return LaurentPoly()
    g = functools.reduce(sympy.gcd, (sympy.Poly.from_dict(p.terms, *gens) for p in shifted))
    return LaurentPoly(g.as_dict()).canonical()


@pytest.mark.parametrize("u_only", [False, True], ids=["uv", "t"])
def test_gcd_many_matches_sympy(u_only):
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    for polys in planted_lists(37, u_only):
        assert gcd_many(polys) == sympy_gcd(sympy, polys), polys


def gcd_pairs(seed):
    """Seeded pairs f*a*m, f*b*n, m and n integers, in u and v, free of v, free of u and in t (read as u).

    f, a and b are nonzero; one pair in ten has its second input replaced by
    zero, and one in ten by a unit.
    """
    rng = random.Random(seed)

    def draw(kind):
        while True:
            p = random_poly(rng, max_terms=3, u_only=kind != "uv")
            if kind == "v":  # the same polynomial in v alone
                p = LaurentPoly({(0, a): c for (a, _), c in p.terms.items()})
            if p:
                return p

    for kind in ("uv", "u", "v", "t") * 40:
        f, a, b = draw(kind), draw(kind), draw(kind)
        shared = rng.choice((1, 2, 6))
        p, q = (f * x * shared * rng.choice((1, 2, 3)) for x in (a, b))
        other = rng.random()
        yield p, (q if other >= 0.2 else LaurentPoly() if other >= 0.1 else random_unit(rng, u_only=kind == "t"))


def test_gcd_matches_sympy():
    """The pairwise subresultant reference itself, on every input class its recursion meets, against sympy."""
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    fixed = [
        (LaurentPoly.const(6), LaurentPoly.const(4)),
        (LaurentPoly.const(-9), 6 * U ** -3),
        (6 * (U + 1) * V ** -2, 4 * (U + 1)),
        (6 * (V - 2) * U ** 2, 4 * (V - 2) * (V + U)),
        (LaurentPoly(), 6 * (U - V) * V ** -1),
        (U ** -1 * V, 4 * (U + 1)),
    ]
    for p, q in fixed + list(gcd_pairs(59)):
        expected = sympy_gcd(sympy, [p, q])
        assert gcd_reference(p, q) == gcd_reference(q, p) == expected, (p, q)


# Lists whose c = 0 GCDHEU attempt is declined (the "fallback" lists):
# v -> X^D maps both inputs to multiples of X - 1 for every D; in the last list
# 2^B = 2^18 divides both packed integers, but X does not divide the image of
# 2^18 + u*v as a polynomial.  They reach the attempts on shifted inputs.
FALLBACK = {
    "u-1, v-1": [U - 1, V - 1],
    "v^2-1, u^2-1": [V ** 2 - 1, U ** 2 - 1],
    "u+v, 2^18+u*v": [U + V, 2**18 + U * V],
}
# u(1 - v) and v(u^2 + u + 1): at D = 3 both images hold X^2 + X + 1, and v -> v + 1 parts them
RETRY = {"u(1-v), v(u^2+u+1)": [-U * V + U, U ** 2 * V + U * V + V]}


@pytest.mark.parametrize("name, lists", [(n, "fallback") for n in FALLBACK] + [(n, "retry") for n in RETRY])
def test_gcd_many_reaches_retry_and_fallback(name, lists, traced_paths):
    polys = {**FALLBACK, **RETRY}[name]
    value, taken = traced_paths(polys)
    assert taken == "shifted" and len(set(traced_paths.D)) == 1  # one D in every pack
    if lists == "retry":
        assert traced_paths.shifts == [1]
    assert value.is_one and value == pairwise_gcd(polys)
    shared = [(U * V + 3) * p for p in polys]
    assert gcd_many(shared) == pairwise_gcd(shared) == U * V + 3
    sympy = pytest.importorskip("sympy")
    assert sympy_gcd(sympy, polys).is_one and sympy_gcd(sympy, shared) == U * V + 3


def test_gcd_many_fallback_keeps_the_integer_contents(unshifted_rejected, traced_paths):
    """Every unshifted GCDHEU candidate rejected: the retries on shifted primitive parts, times the gcd
    of the contents.  (Rejecting every candidate, the shifted ones too, would retry forever.)"""
    rng = random.Random(59)
    fallbacks = 0
    for polys in planted_lists(61, False):
        polys = [p * rng.choice((1, -1)) * rng.randint(1, 12) for p in polys]
        value, path = traced_paths(polys)
        fallbacks += path == "shifted"
        assert value == pairwise_gcd(polys), polys
    assert fallbacks >= 50, fallbacks


def test_shift_that_makes_a_factor_a_monomial(traced_paths):
    """v -> v + 1 turns the shared factor v - 1 into v, which the primitive parts drop: it is put back."""
    polys = [(U - 1) * (V - 1), (V - 1) ** 2]  # v - 1 and u - 1 share X - 1 at D and D + 1
    value, path = traced_paths(polys)
    assert (value, path, traced_paths.shifts) == (V - 1, "shifted", [1])
    assert gcd_many([(V - 1) * p for p in polys]) == (V - 1) ** 2


def test_second_attempt_packs_other_integers(monkeypatch):
    """A rejected first candidate: the next attempt packs new integers, not the ones the first packed."""
    packed, candidates = [], [U + 12345]  # the first candidate divides neither input

    def counted_pack(terms, low, B, D):
        packed.append(pack(terms, low, B, D))
        return packed[-1]

    monkeypatch.setattr(laurent, "pack", counted_pack)
    monkeypatch.setattr(laurent, "unpack", lambda *a: candidates.pop() if candidates else unpack(*a))
    assert gcd_many([(U + 1) * (U - 2), (U + 1) * (U + 3)]) == U + 1
    assert packed[:2] == [274877382654, 274880004099]
    assert len(packed) == 4 and not set(packed[2:]) & set(packed[:2]), packed


@pytest.mark.parametrize("u_only", [False, True], ids=["uv", "t"])
def test_shifted_retries_match_sympy(u_only, unshifted_rejected, traced_paths):
    sympy = pytest.importorskip("sympy")  # dev-only oracle
    shifted = 0
    for polys in planted_lists(37, u_only):
        value, path = traced_paths(polys)
        shifted += path == "shifted"
        assert value == sympy_gcd(sympy, polys), polys
    assert shifted >= 50, shifted


# Lists once built against a modular coprimality certificate over GF(l) with
# l = 2^31 - 1 and the evaluation points 16807, 48271 and 69621; they stay as
# gcd vectors.
ELL = LaurentPoly.const(2**31 - 1)


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
    # the "-t" lists are in u alone, t read as u
    "lead-multiple-of-ell-t": [(ELL * U + 1) * (U + 2), (ELL * U + 1) * (U + 3)],
    "trail-multiple-of-ell-t": [(U + ELL) * (U + 2), (U + ELL) * (U + 3)],
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
    assert gcd_many(polys) == sympy_gcd(sympy, polys)


def test_adversarial_gcds():
    assert gcd_many(ADVERSARIAL["lead-vanishes"]) == LEAD_VANISHES.canonical()
    assert gcd_many(ADVERSARIAL["trail-vanishes"]).is_one
    assert gcd_many(ADVERSARIAL["trail-multiple-of-ell"]) == (U + ELL * V).canonical()
    assert gcd_many(ADVERSARIAL["coefficients-multiple-of-ell"]) == ELL
    assert gcd_many(ADVERSARIAL["lead-multiple-of-ell-t"]) == ELL * U + 1
    assert gcd_many(ADVERSARIAL["content-times-factor"]) == (2 * (U - V)).canonical()


def test_certificate_returns_integer_content():
    """Coprime primitive parts: the gcd is the gcd of the contents, as the former certificate returned."""
    polys = [6 * (U + 1), LaurentPoly(), 10 * (V - 1) * U ** -2]
    assert gcd_many(polys) == LaurentPoly.const(2)
    assert gcd_many([LaurentPoly.const(-4), 6 * U]) == LaurentPoly.const(2)
    # one nonzero input is its own gcd, zeros included
    assert gcd_many([LaurentPoly(), -3 * U ** -1 * (V - 2)]) == 3 * V - 6
    assert not gcd_many([LaurentPoly()] * 3)
