"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own computation paths:
polynomial products by direct convolution, determinants by cofactor
recursion, minors of Laurent matrices by Bareiss elimination with exact
Laurent division, gcds by the subresultant remainder sequence (the
library runs a heuristic gcd only), specializations by powers of the
images, abelianization by one monomial per letter, colorings and homomorphism
counts by exhaustive assignment, colorings and determinants also by the
Smith form of the full A(-1) that the reduced A(u, v) replaced and by
the reduced A(u, v) evaluated by parity, hom counts by the specialized
reduced matrix evaluated mod p (the routes the one evaluation of A(u, v)
at a point replaced), the ``--t v1``/``--t diag`` char-poly matrices by
reducing in two variables and then specializing (the order that
specializing the rows first replaced), move
sites by trying every combination of adjacent pairs through matchers of
their own (in ``vka`` the partner-index scan is the only definition of a
legal site), seeded walks by a scan and one draw into the ``legal_sites``
order at every step (the mapping before the walk drew against a bound),
R2+ sites by walking the rows of the pair triangle, arc incidences by a per-crossing table, merged arcs by a search along
the over strands (``arc_classes``, the one partition under
the references for A(u, v), A(t) and the colorings; the library walks
the under passages), Tietze elimination by the rescanning implementation
the incremental one replaced, the end-quotient module matrix by the word
route the merged arc matrix replaced (and A(u, v)'s rows by the word
route, in ``_word_row``'s key order), Gauss code text by the token loop
the one-scan ``parse_gauss`` replaced, Smith normal form by a full
smallest-entry scan at every pivot, and ranks mod p by Gauss-Jordan
elimination over Z/p (the library counts maps to Z/p from Smith forms).

The helpers at the end are test conveniences built on the library: the
quotient list, one char-poly and hom-count comparison of two module
matrices, the dense form of a matrix (``dense``), polynomial literals,
the specialization of one polynomial, evaluation at +-1 and mod m, end
columns, row-space membership of an end difference and relation
comparison.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from vka.alexander import (
    E0,
    arc_names,
    GroupPresentationZ2,
    _crossing_relation,
    _reduce,
    _word_row,
    diagonal_t,
    extended_presentation,
    one_variable,
    tietze_eliminate,
)
from vka import moves
from vka.diagram import CLOSED, LONG, OVER, UNDER, Diagram, GaussCodeError, is_int, parse_gauss
from vka.invariants import (
    _end_quotient,
    _solutions_mod,
    char_poly,
    hom_count_to_cyclic,
    quotient_matrix,
)
from vka.laurent import LaurentPoly, divexact

U = LaurentPoly.monomial((1, 0))  # t read as u: the Laurent A(t) of ``one_var_matrix_reference``


def convolve(p, q):
    """Schoolbook product of two polynomials given as exponent->coeff dicts."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPoly(out)


def det_cofactor(rows):
    """Integer determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * head * det_cofactor(minor)
    return total


def maximal_minors(rows, ncols):
    """Cofactor determinants of every square submatrix keeping all rows."""
    return [
        det_cofactor([[r[j] for j in cs] for r in rows])
        for cs in combinations(range(ncols), len(rows))
    ]


def det_exact_reference(rows):
    """Laurent-polynomial Bareiss determinant over Z[u^+-1, v^+-1].

    Every step divides exactly in the Laurent ring with ``divexact``.  This
    is the reference for the packed-integer minors of ``elementary_minors``.
    """
    zero, one = LaurentPoly(), LaurentPoly.const(1)
    n = len(rows)
    if n == 0:
        return one
    M = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return zero
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = divexact(M[k][k] * M[i][j] - M[i][k] * M[k][j], prev)
            M[i][k] = zero
        prev = M[k][k]
    out = M[n - 1][n - 1]
    return out if sign > 0 else -out


def _coeffs_in(p, k):
    """Split p by the exponent of variable k: {e: coefficient poly}."""
    out = {}
    for exps, c in p.terms.items():
        out.setdefault(exps[k], {})[exps[:k] + (0,) + exps[k + 1:]] = c
    return {e: LaurentPoly._raw(t) for e, t in out.items()}


def _content(p, k):
    """gcd of p's coefficients in variable k, a polynomial in the variables before k."""
    g = LaurentPoly()
    for c in _coeffs_in(p, k).values():
        g = _gcd_rec(g, c, k - 1)
    return g


def _prem(f, g, k):
    """Classical pseudo-remainder in variable k: lc(g)^(df-dg+1) f mod g, or f when df < dg."""
    dg = g.max_degree(k)
    lg = _coeffs_in(g, k)[dg]
    r, n = f, f.max_degree(k) - dg + 1
    while r and r.max_degree(k) >= dg:
        dr = r.max_degree(k)
        shift = (dr - dg, 0) if k == 0 else (0, dr - dg)
        r = r * lg - g * _coeffs_in(r, k)[dr].shift(shift)
        n -= 1
    return r * lg ** n if n > 0 else r


def _subresultant_tail(f, g, k):
    """Last nonzero element of the subresultant remainder sequence in var k.

    Requires deg_k(f) >= deg_k(g) > ... ; coefficient growth stays
    polynomial because every pseudo-remainder is divided by the predicted
    subresultant factor.
    """
    n, m = f.max_degree(k), g.max_degree(k)
    d = n - m
    h = _prem(f, g, k) * (-1) ** (d + 1)
    lc = _coeffs_in(g, k)[m]
    c = -(lc ** d)
    while h:
        deg_h = h.max_degree(k)
        f, g, m, d = g, h, deg_h, m - deg_h
        b = -lc * c ** d
        h = divexact(_prem(f, g, k), b)
        lc = _coeffs_in(g, k)[m]
        c = divexact((-lc) ** d, c ** (d - 1)) if d > 1 else -lc
    return g


def _gcd_rec(p, q, k):
    """gcd, up to sign, of polynomials (nonnegative exponents) in u (k = 0) or u and v (k = 1); integers at k = -1."""
    if not p:
        return q
    if not q:
        return p
    if k < 0:
        return LaurentPoly.const(math.gcd(p.content(), q.content()))
    cp, cq = _content(p, k), _content(q, k)
    cont_gcd = _gcd_rec(cp, cq, k - 1)
    f, g = divexact(p, cp), divexact(q, cq)
    if f.max_degree(k) < g.max_degree(k):
        f, g = g, f
    if not g.max_degree(k):  # g = 1: the primitive parts are coprime in variable k
        return cont_gcd
    tail = _subresultant_tail(f, g, k)
    return cont_gcd * divexact(tail, _content(tail, k))


def gcd_reference(p, q):
    """Canonical gcd of two polynomials in the Laurent ring, integer content included, by the
    pairwise subresultant recursion (the library's ``gcd_many`` runs GCDHEU only)."""
    if p.is_unit or q.is_unit:
        return LaurentPoly.const(1)
    pp = p.shift(tuple(-e for e in p.min_exps()))
    qq = q.shift(tuple(-e for e in q.min_exps()))
    return _gcd_rec(pp, qq, 1).canonical()


def minors_reference(m, k):
    """The minors of size (columns - k) of a matrix ``m`` = (rows, cols), in
    ``elementary_minors`` order, each by ``det_exact_reference`` of ``dense(*m)``."""
    a, ncols = dense(*m), len(m[1])
    size = ncols - k
    if size <= 0:
        return [LaurentPoly.const(1)]
    return [
        det_exact_reference([[a[i][j] for j in cs] for i in rs])
        for rs in combinations(range(len(a)), size)
        for cs in combinations(range(ncols), size)
    ]


def subs_reference(p, images):
    """``LaurentPoly.subs`` by powers of the images: sum of coeff * prod im**e."""
    out = LaurentPoly()
    for exps, coeff in p.terms.items():
        term = LaurentPoly.const(coeff)
        for im, e in zip(images, exps):
            term = term * im ** e
        out = out + term
    return out


def abelianize_reference(p):
    """``abelianize`` by adding one monomial per letter, left minus right, as (rows, cols)."""
    rows = []
    for left, right in p.relations:
        coeffs = {}
        for word, scale in ((left, 1), (right, -1)):
            for gen, exp, sign in word:
                coeffs[gen] = coeffs.get(gen, LaurentPoly()) + LaurentPoly.monomial(exp, scale * sign)
        rows.append({g: e.terms for g, e in coeffs.items() if e})
    return rows, tuple(p.generators)


class CrossingArcs(NamedTuple):
    over_in: int
    over_out: int
    under_in: int
    under_out: int


@dataclass(frozen=True)
class ArcStructure:
    """Arc numbering and per-crossing incidences of a diagram.

    Arcs break at every passage, over and under alike.  For a long diagram
    with c crossings there are 2c+1 arcs numbered in traversal order; arc 0
    runs in from infinity and arc 2c runs back out.  Closed diagrams have
    2c arcs, cyclically.
    """

    arc_count: int
    crossings: dict  # crossing id -> CrossingArcs


def arc_structure(d):
    n = len(d.passages)
    if d.kind == LONG:
        arc_in = list(range(n))
        arc_out = list(range(1, n + 1))
        count = n + 1
    else:
        arc_in = list(range(n))
        arc_out = [(i + 1) % n for i in range(n)]
        count = n if n else 1
    halves = {}
    for idx, (cid, role, _) in enumerate(d.passages):
        halves.setdefault(cid, {})[role] = (arc_in[idx], arc_out[idx])
    crossings = {}
    for cid, roles in halves.items():
        oi, oo = roles[OVER]
        ui, uo = roles[UNDER]
        crossings[cid] = CrossingArcs(oi, oo, ui, uo)
    return ArcStructure(arc_count=count, crossings=crossings)


def arc_classes(d):
    """Merged-arc class and v-exponent of every arc, and the class names.

    Each crossing's second relation makes its two over arcs one generator
    up to a power of v: OO = v*OI when positive, OI = v*OO when negative.
    A search along these links from each unvisited arc, in arc order,
    numbers the classes in order of their smallest arc, names each after
    that arc and gives every arc its v-exponent against it.  The library's
    ``merged_arc_rows`` finds the classes by one walk over the under
    passages instead.
    """
    arcs = arc_structure(d)
    n = arcs.arc_count
    sign_of = {cid: sign for cid, _, sign in d.passages}
    links = {a: [] for a in range(n)}
    for cid, inc in arcs.crossings.items():
        links[inc.over_in].append((inc.over_out, sign_of[cid]))
        links[inc.over_out].append((inc.over_in, -sign_of[cid]))
    classes, vexp, firsts = [None] * n, [0] * n, []
    for start in range(n):
        if classes[start] is not None:
            continue
        classes[start], todo = len(firsts), [start]
        firsts.append(start)
        while todo:
            a = todo.pop()
            for b, step in links[a]:
                if classes[b] is None:
                    classes[b], vexp[b] = classes[a], vexp[a] + step
                    todo.append(b)
    names = arc_names(n)
    return classes, vexp, tuple(names[a] for a in firsts)


def brute_force_colorings(d, p):
    """Count colorings mod p by trying every assignment on the merged arcs.

    A coloring gives each class of ``arc_classes`` a residue, with twice
    the over arc's equal to the sum of the under arcs' at every crossing.
    The classes come from a search of their own, so the count does not
    depend on the library's column construction.
    """
    arcs = arc_structure(d)
    classes, _, names = arc_classes(d)
    k = len(names)
    count = 0
    for assignment in range(p ** k):
        colors = []
        rest = assignment
        for _ in range(k):
            colors.append(rest % p)
            rest //= p
        ok = True
        for inc in arcs.crossings.values():
            over = colors[classes[inc.over_in]]
            ui = colors[classes[inc.under_in]]
            uo = colors[classes[inc.under_out]]
            if (2 * over - ui - uo) % p:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_force_hom_count(presentation, p, s, t="diag"):
    """Count maps to Z/p with t acting as s, straight from the relations, for any p >= 2 and s a unit mod p.

    A letter g^(u^j v^k) evaluates to s^(j+k) * value(g) under ``t`` "diag"
    (u = v = t) and to s^j * value(g) under "v1" (v = 1); a relation holds
    when both sides sum to the same residue.
    """
    gens = presentation.generators
    sinv = pow(s, -1, p)
    v = {"diag": 1, "v1": 0}[t]  # the weight of a v-exponent

    def letter_value(letter, values):
        gen, (j, k), sign = letter
        e = j + v * k
        factor = pow(s if e >= 0 else sinv, abs(e), p)
        return sign * factor * values[gen]

    count = 0
    for assignment in range(p ** len(gens)):
        values = {}
        rest = assignment
        for g in gens:
            values[g] = rest % p
            rest //= p
        ok = True
        for left, right in presentation.relations:
            lhs = sum(letter_value(l, values) for l in left) % p
            rhs = sum(letter_value(l, values) for l in right) % p
            if lhs != rhs:
                ok = False
                break
        if ok:
            count += 1
    return count


def _random_exps(rng, max_exp, u_only):
    """(a, b) drawn from [-max_exp, max_exp]; b = 0, and one draw, when ``u_only``."""
    a = rng.randrange(-max_exp, max_exp + 1)
    return (a, 0) if u_only else (a, rng.randrange(-max_exp, max_exp + 1))


def random_poly(rng, max_terms=4, max_exp=3, max_coeff=5, u_only=False):
    """A random polynomial; ``u_only`` draws one in u alone, the shape of a one-variable image (t read as u)."""
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[_random_exps(rng, max_exp, u_only)] = rng.randrange(-max_coeff, max_coeff + 1)
    return LaurentPoly(terms)


def random_unit(rng, max_exp=3, u_only=False):
    return LaurentPoly.monomial(_random_exps(rng, max_exp, u_only), rng.choice((1, -1)))


def random_long_diagram(rng, max_crossings=6):
    """A uniformly scrambled valid long Gauss code (any code is valid)."""
    return parse_gauss(random_code(rng, rng.randrange(0, max_crossings + 1)))


def random_code(rng, crossings, closed=False):
    """A uniformly scrambled long or closed Gauss code with exact crossing count."""
    slots = list(range(2 * crossings))
    rng.shuffle(slots)
    tokens = [None] * (2 * crossings)
    for cid in range(1, crossings + 1):
        i, j = slots[2 * cid - 2], slots[2 * cid - 1]
        sign = rng.choice("+-")
        first, second = ("O", "U") if rng.random() < 0.5 else ("U", "O")
        tokens[i] = f"{first}{cid}{sign}"
        tokens[j] = f"{second}{cid}{sign}"
    body = " ".join(tokens)
    return f"closed\n{body}" if closed else body


def reverse_code(d):
    """The diagram whose passages are ``d``'s in reverse order: the strand read from its other end.

    Its module is ``d``'s with u and v inverted, and the minus and plus ends swap.
    """
    return Diagram(d.kind, d.passages[::-1])


def random_diagrams(crossings, seeds):
    """``random_code`` diagrams from ``random.Random(seed)``, long then closed, for each seed."""
    return [
        parse_gauss(random_code(random.Random(seed), crossings, closed=closed))
        for seed in seeds
        for closed in (False, True)
    ]


def braid_closure(strands, word):
    """The closed Gauss code of the closure of a braid on ``strands`` strands; the closure must be one component.

    ``word`` lists the braid's letters: i for sigma_i, -i for its inverse
    and ("v", i) for the virtual tau_i, 1 <= i < ``strands``.  The strands
    run down the page, and at sigma_i the strand in position i + 1 crosses
    over the one in position i, a positive crossing; sigma_i^-1 is its
    mirror, a negative one.  tau_i swaps positions i and i + 1 with no
    passage, as virtual crossings are not written in a Gauss code; the
    classical letters are numbered 1, 2, ... in order.  The code follows
    strand 0 from the top, and from the bottom of each position goes on
    with the strand that starts at its top.  Without the ``closed`` line
    it is the long knot cut at the top of strand 0.  The torus knot
    T(p, q) is ``braid_closure(p, list(range(1, p)) * q)``.
    """
    at = list(range(strands))  # position -> the strand there; strand s starts at position s
    tokens = [[] for _ in range(strands)]  # strand -> its passages, top to bottom
    cid = 0
    for letter in word:
        i = (letter[1] if isinstance(letter, tuple) else abs(letter)) - 1
        left, right = at[i], at[i + 1]
        if not isinstance(letter, tuple):
            cid += 1
            sign = "+" if letter > 0 else "-"
            over, under = (right, left) if letter > 0 else (left, right)
            tokens[over].append(f"O{cid}{sign}")
            tokens[under].append(f"U{cid}{sign}")
        at[i], at[i + 1] = right, left
    code, strand = [], 0
    for n in range(strands):
        if n and not strand:
            raise ValueError("the closure has more than one component")
        code += tokens[strand]
        strand = at.index(strand)
    return "closed\n" + " ".join(code)


def random_virtual_braid(rng, strands, crossings):
    """A word of ``crossings`` classical letters on ``strands`` strands, about a third of its letters
    virtual, whose closure is one component."""
    while True:
        word = []
        while len(word) - sum(isinstance(x, tuple) for x in word) < crossings:
            i = rng.randint(1, strands - 1)
            word.append(("v", i) if rng.random() < 1 / 3 else rng.choice((i, -i)))
        try:
            braid_closure(strands, word)
        except ValueError:
            continue
        return word


def braid_matrix_reference(strands, word, kind=CLOSED, quotient="none"):
    """The module matrix of ``braid_closure(strands, word)`` from a Burau-type representation, as (rows, cols).

    From the top arcs x to the bottom arcs y of positions (i, i + 1), read
    off the crossing relation OI UI^u = UO OO^u (UI OI^u = OO UO^u when
    negative) with OI^v = OO:

        rho(sigma_i) = ((0, v), (u, 1 - uv)),
        rho(sigma_i^-1) = ((1 - u^-1 v^-1, u^-1), (v^-1, 0)),
        rho(tau_i) = ((0, 1), (1, 0)),

    and rho(b_1 ... b_m) = rho(b_m) ... rho(b_1), a Burau-type
    representation of the virtual braid group (Kauffman's virtual braids;
    cf. Vershinin, J. Knot Theory Ramif. 10, 2001).  The closed closure
    (``kind`` CLOSED) is presented by rho - I over the columns x_0, x_1,
    ...  The long one (LONG), cut at the top of strand 0, has a column
    y_0 for the bottom of position 0, and its row 0 is rho_0 x - y_0; the
    end quotients drop x_0 (``end-minus``), y_0 (``end-plus``) or both.
    """
    u, v, one, zero = LaurentPoly.monomial((1, 0)), LaurentPoly.monomial((0, 1)), LaurentPoly.const(1), LaurentPoly()
    sigma, tau = ((zero, v), (u, one - u * v)), ((zero, one), (one, zero))
    sigma_inverse = ((one - (u * v).inverse(), u.inverse()), (v.inverse(), zero))
    rho = [[one if i == j else zero for j in range(strands)] for i in range(strands)]
    for letter in word:
        virtual = isinstance(letter, tuple)
        i = (letter[1] if virtual else abs(letter)) - 1
        (a, b), (c, d) = tau if virtual else sigma if letter > 0 else sigma_inverse
        rho[i], rho[i + 1] = ([a * x + b * y for x, y in zip(rho[i], rho[i + 1])],
                              [c * x + d * y for x, y in zip(rho[i], rho[i + 1])])
    cols = [f"x{j}" for j in range(strands)]
    rows = [{cols[j]: (x - one if i == j else x).terms for j, x in enumerate(row)} for i, row in enumerate(rho)]
    if kind == LONG:
        rows[0]["x0"] = rho[0][0].terms
        rows[0]["y0"] = (-one).terms
        cols.append("y0")
    gone = {"none": (), "end-minus": ("x0",), "end-plus": ("y0",), "ends": ("x0", "y0")}[quotient]
    cols = tuple(g for g in cols if g not in gone)
    return [{g: x for g, x in row.items() if x and g in cols} for row in rows], cols


def plat_closure(word):
    """The closed Gauss code of the plat closure of a 4-braid; the closure must be one component.

    ``word`` lists the crossings from the bottom up, each a pair (i, e):
    the strands in positions i and i + 1 cross, 0 <= i <= 2, and the over
    strand runs from bottom position i to top position i + 1 when e = +1,
    from bottom position i + 1 to top position i when e = -1.  Caps join
    positions (0, 1) and (2, 3) at the top and at the bottom.  The code
    walks the one strand from the bottom of position 0, up and down by
    turns, taking a cap at each end.  A crossing's sign is e times the
    directions of its two strands there (up +1, down -1).  Without the
    ``closed`` line it is the long knot cut at the bottom of position 0.
    The twist knot K_n is ``plat_closure([(1, 1)] * n + [(0, -1), (1, 1)])``.
    """
    passages, directions = [], [[] for _ in word]  # (crossing, role) in walk order; each crossing's strands
    pos, level, up, caps = 0, 0, True, 0  # level: the crossings below the walk's place
    while True:
        if up and level == len(word) or not up and level == 0:  # a cap: the partner position, the way back
            pos, up, caps = pos ^ 1, not up, caps + 1
            if up and pos == 0:
                break
            continue
        cid = level if up else level - 1
        i, e = word[cid]
        if pos in (i, i + 1):
            bottom = pos if up else 2 * i + 1 - pos  # the strand's position below the crossing
            passages.append((cid, "O" if bottom == (i if e > 0 else i + 1) else "U"))
            directions[cid].append(1 if up else -1)
            pos = 2 * i + 1 - pos
        level += 1 if up else -1
    if caps < 4:  # every strand ends at two caps, so one component takes all four
        raise ValueError("the closure has more than one component")
    signs = ["+" if e * a * b > 0 else "-" for (_, e), (a, b) in zip(word, directions)]
    return "closed\n" + " ".join(f"{role}{cid + 1}{signs[cid]}" for cid, role in passages)


# -- reference parser --------------------------------------------------
# The token loop that the one-scan ``parse_gauss`` replaced: each line cut
# at its first ``#``, each token found by ``str.index`` for its column,
# every passage checked, then renumbered, in passes of their own.  The
# crossing-id bound is ``int()``'s digit limit, 4300 by default.

_TOKEN_RE = re.compile(r"[OU][1-9][0-9]*[+-]$")


def _validate(passages):
    seen = {}
    for idx, (cid, role, sign) in enumerate(passages):
        if not (role in (OVER, UNDER) and is_int(sign) and sign in (1, -1) and is_int(cid) and cid >= 1):
            raise GaussCodeError(f"bad passage {(cid, role, sign)!r} at position {idx}")
        seen.setdefault(cid, []).append((role, sign))
    for cid, ps in seen.items():
        if len(ps) != 2:
            raise GaussCodeError(f"crossing {cid} appears {len(ps)} times, expected 2")
        (role_a, sign_a), (role_b, sign_b) = ps
        if role_a == role_b:
            raise GaussCodeError(f"crossing {cid} has two {role_a} passages")
        if sign_a != sign_b:
            raise GaussCodeError(f"crossing {cid} has mismatched signs")


def _relabel(passages):
    """Renumber crossing ids to 1..c in order of first appearance."""
    order = {}
    for cid, _, _ in passages:
        if cid not in order:
            order[cid] = len(order) + 1
    return tuple((order[cid], role, sign) for cid, role, sign in passages)


def parse_gauss_reference(text):
    """The (kind, passages) of the Diagram that Gauss-code text gives."""
    kind = LONG
    passages = []
    header_done = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        col = 1
        for raw in line.split():
            column = line.index(raw, col - 1) + 1
            col = column + len(raw)
            if not header_done and raw == "closed" and not passages:
                kind = CLOSED
                header_done = True
                continue
            header_done = True
            if not _TOKEN_RE.match(raw):
                raise GaussCodeError(f"malformed token {raw!r}", lineno, column)
            role = raw[0]
            sign = 1 if raw[-1] == "+" else -1
            try:
                cid = int(raw[1:-1])
            except ValueError:  # more digits than int() converts
                raise GaussCodeError(f"crossing id of {len(raw) - 2} digits", lineno, column) from None
            passages.append((cid, role, sign))
    _validate(passages)
    return kind, _relabel(passages)


# -- reference Tietze elimination -------------------------------------
# The rescanning implementation that the incremental ``tietze_eliminate``
# replaced: every elimination rewrites, normalizes and dedupes every
# relation, and pass 2 counts each generator in each relation afresh.
# ``normalize_relation_reference`` free-reduces both sides again after
# every moved letter, where the library's ``normalize_relation`` cancels at
# the junction only.  The reference has its own word helpers on
# ``(gen, exp, sign)`` letters, so it runs none of the library's word code.


def word_shift_reference(word, exp):
    """Apply the Z^2 operator x -> x^exp to every letter."""
    return tuple((g, (e[0] + exp[0], e[1] + exp[1]), s) for g, e, s in word)


def word_inverse_reference(word):
    return tuple((g, e, -s) for g, e, s in reversed(word))


def free_reduce_reference(word):
    out = []
    for g, e, s in word:
        if out and out[-1] == (g, e, -s):
            out.pop()
        else:
            out.append((g, e, s))
    return tuple(out)


def _relation_is_trivial(rel):
    return rel[0] == rel[1]


def _solve_reference(rel, gen):
    """Express ``gen`` from a relation containing it exactly once."""
    w = free_reduce_reference(rel[0] + word_inverse_reference(rel[1]))
    idx = next(i for i, l in enumerate(w) if l[0] == gen)
    _, exp, sign = w[idx]
    p, q = w[:idx], w[idx + 1:]
    if sign > 0:
        expr = word_inverse_reference(p) + word_inverse_reference(q)
    else:
        expr = q + p
    return free_reduce_reference(word_shift_reference(expr, (-exp[0], -exp[1])))


def normalize_relation_reference(rel):
    """Free-reduce both sides and move edge inverse letters across.

    A trailing inverse on one side becomes a trailing positive letter on the
    other (right multiplication), a leading inverse becomes a leading
    positive letter (left multiplication).  The abelianized row is
    unchanged; the displayed form matches hand calculation.
    """
    left, right = list(free_reduce_reference(rel[0])), list(free_reduce_reference(rel[1]))
    changed = True
    while changed:
        changed = False
        if left and left[-1][2] < 0:
            g, e, _ = left.pop()
            right.append((g, e, 1))
            changed = True
        elif right and right[-1][2] < 0:
            g, e, _ = right.pop()
            left.append((g, e, 1))
            changed = True
        elif left and left[0][2] < 0:
            g, e, _ = left.pop(0)
            right.insert(0, (g, e, 1))
            changed = True
        elif right and right[0][2] < 0:
            g, e, _ = right.pop(0)
            left.insert(0, (g, e, 1))
            changed = True
        if changed:
            left, right = list(free_reduce_reference(left)), list(free_reduce_reference(right))
    return tuple(left), tuple(right)


def _substitute_word(word, gen, replacement):
    out = []
    for letter in word:
        g, exp, sign = letter
        if g != gen:
            out.append(letter)
            continue
        rep = word_shift_reference(replacement, exp)
        if sign < 0:
            rep = word_inverse_reference(rep)
        out.extend(rep)
    return free_reduce_reference(tuple(out))


def _occurrences(gen, rel):
    return sum(1 for l in rel[0] + rel[1] if l[0] == gen)


def _shaped_candidate(rel):
    """Substitution-shaped relation: one side is a single positive letter."""
    options = []
    left, right = rel
    for side, other in ((left, right), (right, left)):
        if len(side) == 1 and side[0][2] > 0:
            g = side[0][0]
            if all(l[0] != g for l in other):
                options.append((side[0], other))
    if not options:
        return None
    for (g, exp, _), other in options:  # prefer a bare-exponent letter
        if exp == E0:
            return g, free_reduce_reference(word_shift_reference(other, (-exp[0], -exp[1])))
    (g, exp, _), other = options[0]
    return g, free_reduce_reference(word_shift_reference(other, (-exp[0], -exp[1])))


def dedupe_relations(relations):
    """The relations in order, less each that repeats an earlier one, either side first."""
    seen = set()
    out = []
    for rel in relations:
        key = frozenset(rel)
        if key not in seen:
            seen.add(key)
            out.append(rel)
    return out


def tietze_eliminate_reference(p):
    """Eliminate redundant generators, deterministically.

    First pass: repeatedly use the first relation with a whole side equal to
    a single positive letter (preferring the bare-exponent side) to delete
    that generator.  Second pass: delete non-end generators that occur
    exactly once in some relation, preferring exponent-free occurrences and
    scanning generators in arc order.  End-arc generators survive the second
    pass so the distinguished elements stay visible; if the first pass
    consumes one, its image is retained as a word.
    """
    gens = list(p.generators)
    rels = [normalize_relation_reference(r) for r in p.relations]
    rels = dedupe_relations([r for r in rels if not _relation_is_trivial(r)])
    ends = [p.end_minus, p.end_plus]
    protected = set()
    for e in ends:
        if e is not None:
            protected.update(l[0] for l in e)

    def eliminate(gen, expr, used_rel):
        gens.remove(gen)
        new = []
        for r in rels:
            if r is used_rel:
                continue
            r2 = normalize_relation_reference((
                _substitute_word(r[0], gen, expr),
                _substitute_word(r[1], gen, expr),
            ))
            if not _relation_is_trivial(r2):
                new.append(r2)
        rels[:] = dedupe_relations(new)
        for i, e in enumerate(ends):
            if e is not None:
                ends[i] = _substitute_word(e, gen, expr)

    while True:
        # pass 1: substitution-shaped relations
        step = None
        for r in rels:
            cand = _shaped_candidate(r)
            if cand:
                step = (cand[0], cand[1], r)
                break
        if step:
            eliminate(*step)
            continue
        # pass 2: single-occurrence generators, exponent-free first
        step = None
        for want_bare in (True, False):
            for g in gens:
                if g in protected:
                    continue
                for r in rels:
                    if _occurrences(g, r) != 1:
                        continue
                    letter = next(l for l in r[0] + r[1] if l[0] == g)
                    if want_bare and letter[1] != E0:
                        continue
                    step = (g, _solve_reference(r, g), r)
                    break
                if step:
                    break
            if step:
                break
        if not step:
            break
        eliminate(*step)

    return GroupPresentationZ2(tuple(gens), tuple(rels), *(tuple(e) if e is not None else None for e in ends))


def transfer_matrix_reference(n):
    """S (T S)^(n-1) U by n - 1 products of two-by-two matrices."""
    s = ((1, 2), (0, -1))
    t = ((-1, 0), (2, 1))
    u = ((0, -1), (1, 2))

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    m = s
    for _ in range(n - 1):
        m = mul(m, mul(t, s))
    return mul(m, u)


def transfer_brute_force(n, p):
    """Solve the two-by-two propagation condition by trying every color pair."""
    m = transfer_matrix_reference(n)
    for alpha in range(p):
        for beta in range(p):
            if alpha == beta:
                continue
            second = alpha * m[0][1] + beta * m[1][1]
            if (second - beta) % p == 0:
                return True
    return False


def _r2_pairs_match(passages, i, j):
    (a1, a1_role, a1_sign), (a2, a2_role, a2_sign) = passages[i], passages[i + 1]
    (b1, b1_role, _), (b2, b2_role, _) = passages[j], passages[j + 1]
    if a1 == a2 or b1 == b2:
        return False
    if {a1, a2} != {b1, b2}:
        return False
    if a1_role != a2_role or b1_role != b2_role or a1_role == b1_role:
        return False
    if a1_sign == a2_sign:
        return False
    return True


def _r3_match(passages, site, sign_of=None):
    """Check the braid-relation pattern; returns True when the site is legal."""
    (it, im, ib, e_top, e_bot) = site
    if len({it, it + 1, im, im + 1, ib, ib + 1}) != 6:
        return False
    if max(it, im, ib) + 1 >= len(passages) or min(it, im, ib) < 0:
        return False
    (top0, top0_role, _), (top1, top1_role, _) = passages[it], passages[it + 1]
    (mid0, mid0_role, _), (mid1, mid1_role, _) = passages[im], passages[im + 1]
    (bot0, bot0_role, _), (bot1, bot1_role, _) = passages[ib], passages[ib + 1]
    if top0_role != OVER or top1_role != OVER:
        return False
    if bot0_role != UNDER or bot1_role != UNDER:
        return False
    if mid0_role == UNDER and mid1_role == OVER:
        e_mid = 1
        x2, z2 = mid0, mid1
    elif mid0_role == OVER and mid1_role == UNDER:
        e_mid = -1
        z2, x2 = mid0, mid1
    else:
        return False
    x, y = (top0, top1) if e_top > 0 else (top1, top0)
    y2, z3 = (bot0, bot1) if e_bot > 0 else (bot1, bot0)
    if x2 != x or y2 != y or z2 != z3 or len({x, y, z2}) != 3:
        return False
    if sign_of is None:
        sign_of = {cid: sign for cid, _, sign in passages}
    if sign_of[x] != e_top * e_mid or sign_of[y] != e_top * e_bot or sign_of[z2] != e_mid * e_bot:
        return False
    return True


def shrinking_sites_brute_force(passages):
    """All R1-, R2- and R3 sites by the cubic scan over adjacent pairs.

    The reference for ``vka.moves`` site enumeration: every pair of
    adjacent pairs is an R2- candidate, and every over-pair x mixed-pair x
    under-pair triple an R3 candidate, tried with both strand orientations.
    """
    n = len(passages)
    sites = []
    for i in range(n - 1):
        if passages[i][0] == passages[i + 1][0]:
            sites.append(("r1-", (i,)))
    adj = [i for i in range(n - 1) if passages[i][0] != passages[i + 1][0]]
    for ai, i in enumerate(adj):
        for j in adj[ai + 1:]:
            if j > i + 1 and _r2_pairs_match(passages, i, j):
                sites.append(("r2-", (i, j)))
    over_pairs, under_pairs, mixed_pairs = [], [], []
    for i in adj:
        r1, r2 = passages[i][1], passages[i + 1][1]
        if r1 == OVER and r2 == OVER:
            over_pairs.append(i)
        elif r1 == UNDER and r2 == UNDER:
            under_pairs.append(i)
        else:
            mixed_pairs.append(i)
    sign_of = {cid: sign for cid, _, sign in passages}
    for it in over_pairs:
        for im in mixed_pairs:
            for ib in under_pairs:
                for e_top in (1, -1):
                    matched = False
                    for e_bot in (1, -1):
                        site = (it, im, ib, e_top, e_bot)
                        if _r3_match(passages, site, sign_of):
                            sites.append(("r3", site))
                            matched = True
                            break
                    if matched:
                        break
    return sites


def random_walk_reference(d, seed, steps, max_crossings=None):
    """``vka.moves.random_walk`` by its route before rejection sampling.

    Every step scans for the shrinking sites and draws one index into the
    ``legal_sites`` order: the shrinking sites, then the R1+ and R2+ sites.
    Each step has the law of ``random_walk``, uniform over ``legal_sites``;
    the seed-to-walk mapping is the one before it drew against a bound.
    """
    if max_crossings is None:
        max_crossings = d.crossings + 6
    rng = random.Random(seed)
    passages = list(d.passages)
    fresh = itertools.count(d.crossings + 1)
    for _ in range(steps):
        n = len(passages)
        shrink = moves._shrinking_sites(passages)
        r1, r2 = moves._growth(n, max_crossings)
        count = len(shrink) + r1 + r2
        if count == 0:
            break
        k = rng.randrange(count)
        site = shrink[k] if k < len(shrink) else moves._growing_site(n, r1, k - len(shrink))
        passages = moves._moved(passages, site, fresh)
    return Diagram(d.kind, passages)


def decode_r2_add_reference(n, idx):
    """``vka.moves._decode_r2_add`` by walking the rows of pairs i <= j <= n, as it did before ``math.isqrt``."""
    pair, rest = divmod(idx, 8)
    i = 0
    span = n + 1
    while pair >= span:
        pair -= span
        span -= 1
        i += 1
    j = i + pair
    sign = 1 if rest // 4 == 0 else -1
    first_role = OVER if (rest // 2) % 2 == 0 else UNDER
    parallel = rest % 2 == 0
    return "r2+", (i, j, sign, first_role, parallel)


# -- references for the module-matrix route ----------------------------


def reduced_matrix(p):
    """``_reduce`` of the abelianized relation words: the elementary ideals of ``abelianize(p)``.

    The word route's module matrix, which ``invariants --presentation
    --charpoly`` reduced before every request took its char polys from
    A(u, v).
    """
    return _reduce([_word_row(*rel) for rel in p.relations], p.generators)


def quotient_matrix_reference(d, quotient="none"):
    """The unit-reduced matrix of the word route that ``quotient_matrix`` replaced.

    The end quotient of the raw 2c x (2c+1) presentation is taken by
    killing generator families, and ``reduced_matrix`` abelianizes and
    reduces its relation words; the v-relations are eliminated as pivots.
    """
    return reduced_matrix(_end_quotient(extended_presentation(d), quotient))


def merged_arc_rows_reference(d):
    """A(u, v) by one rewritten word per crossing.

    The first relation of each crossing is rewritten through
    ``arc_classes``, each arc as its class's generator times v to its
    exponent, and abelianized one letter at a time.
    """
    classes, vexp, cols = arc_classes(d)
    arc_of = {name: i for i, name in enumerate(arc_names(len(classes)))}
    rows = []
    for left, right in extended_presentation(d).relations[::2]:
        row = {}
        for word, scale in ((left, 1), (right, -1)):
            for gen, (a, b), sign in word:
                arc = arc_of[gen]
                entry = row.setdefault(cols[classes[arc]], {})
                exp = (a, b + vexp[arc])
                entry[exp] = entry.get(exp, 0) + scale * sign
        rows.append({g: {e: c for e, c in entry.items() if c} for g, entry in row.items()})
    return [{g: entry for g, entry in row.items() if entry} for row in rows], cols


def merged_arc_rows_by_words(d):
    """A(u, v) by the word route: ``_word_row(*_crossing_relation(...))`` of each crossing.

    Its arcs are those of ``arc_structure``, each as its ``arc_classes``
    class and v-exponent, so the rows and their entries come in the key
    order that ``_word_row`` gives them.
    """
    classes, vexp, cols = arc_classes(d)
    arc = [(cols[k], e) for k, e in zip(classes, vexp)]
    sign_of = {cid: sign for cid, _, sign in d.passages}
    incidences = arc_structure(d).crossings
    return [_word_row(*_crossing_relation(sign_of[cid], *(arc[a] for a in incidences[cid])))
            for cid in range(1, d.crossings + 1)], cols


def one_var_matrix_reference(d, t=U):
    """Merged arc matrix A(t): rows UO - t*UI - (1-t)*OV per crossing, t^-1 for t at a negative one.

    The per-crossing builder that ``one_var_matrix`` replaced by units
    times the rows of A(u, v), on the columns of ``arc_classes``, as (rows,
    cols).  ``t`` is the image of t.  ``U`` gives the rows over Z[t^+-1]
    with t read as u, entries term dicts (as ``one_variable`` gives them);
    1 or -1 gives the integer specialization, int entries, where
    t^-1 = t.  ``one_var_matrix`` builds only the coloring matrix -A(-1),
    and A(u, v) at (1, 1) is -A(1).
    """
    arcs = arc_structure(d)
    classes, _, col_names = arc_classes(d)
    if isinstance(t, int):
        if t not in (1, -1):
            raise ValueError(f"{t} is not a unit of Z")
        zero, one, tinv = 0, 1, t
    else:
        zero, one, tinv = LaurentPoly(), LaurentPoly.const(1), t.inverse()
    sign_of = {cid: sign for cid, _, sign in d.passages}
    rows = []
    for cid in sorted(arcs.crossings):
        inc = arcs.crossings[cid]
        row = {}
        ov, ui, uo = classes[inc.over_in], classes[inc.under_in], classes[inc.under_out]
        tt = t if sign_of[cid] > 0 else tinv
        for j, x in ((uo, one), (ui, -tt), (ov, -(one - tt))):
            row[j] = row.get(j, zero) + x
        rows.append({col_names[j]: x if isinstance(t, int) else x.terms for j, x in row.items() if x})
    return rows, col_names


def colorings_reference(a, ps):
    """The gcd of the maximal minors of -A(-1) = ``a`` and the coloring count mod each p in ``ps``.

    The route ``coloring_count`` and ``determinant_long`` took before they
    reduced A(u, v) first: one Smith form of the full integer matrix
    -A(-1) (``one_var_matrix(d)``, c x (c+1) for a long diagram, whose gcd
    is then the determinant), here ``smith_normal_form_reference``'s,
    counted by ``_solutions_mod``.  A(-1) has the same Smith invariants.
    ``one_var_matrix_reference`` is the reference of ``a``, a pair
    (int rows, cols).
    """
    inv = smith_normal_form_reference(dense(*a, int))
    return math.prod(inv), [_solutions_mod(inv, len(a[1]), p) for p in ps]


def colorings_by_reduction_reference(m, ps):
    """The gcd and the coloring counts of the reduced ``none`` matrix ``m`` (``quotient_matrix(d)``).

    The route ``coloring_count`` and ``determinant_long`` took before they
    evaluated A(u, v) first: reduce in two variables, evaluate each entry
    at (u, v) = (-1, 1) by the parity of its exponents (``subs_int``), and
    count from its ``smith_normal_form_reference`` (``_solutions_mod``).
    """
    inv = smith_normal_form_reference([[subs_int(e, (-1, 1)) for e in row] for row in dense(*m)])
    return math.prod(inv), [_solutions_mod(inv, len(m[1]), p) for p in ps]


def hom_count_by_specialization_reference(m, t, p, s):
    """Maps to Z/p with t acting as s, from the reduced L2 matrix ``m`` of a quotient.

    The route ``hom_count_to_cyclic`` took before it evaluated A(u, v) at a
    point: ``m`` goes to Z[u^+-1] by ``one_variable`` (``t`` "v1") or
    ``diagonal_t`` ("diag"), each entry is evaluated at u = s mod p
    (``subs_mod``), and the count is p^(columns - rank mod p).
    """
    m = {"v1": one_variable, "diag": diagonal_t}[t](*m)
    return p ** (len(m[1]) - rank_mod([[subs_mod(e, (s, 1), p) for e in row] for row in dense(*m)], p))


def specialized_matrix_reference(d, quotient, t):
    """The module matrix of ``quotient`` under ``--t`` ``t``, reduced in two variables and then specialized.

    The route ``vka invariants --charpoly --t v1|diag`` took before
    ``quotient_matrix(d, quotient, t)`` specialized the rows first:
    ``quotient_matrix(d, quotient)`` over Z[u^+-1, v^+-1], then
    ``one_variable`` ("v1") or ``diagonal_t`` ("diag"); "uv" leaves it as
    it is.  Both orders give one module over Z[u^+-1], so one char poly
    for every k, but the shapes can differ.
    """
    m = quotient_matrix(d, quotient)
    return m if t == "uv" else {"v1": one_variable, "diag": diagonal_t}[t](*m)


def smith_normal_form_reference(rows):
    """Smith invariants with a full scan for the smallest entry at every pivot.

    The pivot must divide the rest of the submatrix, or a row that it does
    not divide is added to its row and the pivot is sought again, so the
    invariants form the divisor chain d1 | d2 | ..., zeros last.
    ``invariants._smith_at`` stops at a diagonal that need not be a chain.
    """
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] and (best is None or abs(A[i][j]) < best):
                    best = abs(A[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        A[t], A[pivot[0]] = A[pivot[0]], A[t]
        for r in A:
            r[t], r[pivot[1]] = r[pivot[1]], r[t]
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                A[i] = [a - q * b for a, b in zip(A[i], A[t])]
                if A[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                for r in A:
                    r[j] -= q * r[t]
                if A[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            A[t] = [a + b for a, b in zip(A[t], A[offender])]
            continue
        t += 1
    return tuple(abs(A[i][i]) for i in range(limit))


def rank_mod(rows, p):
    """Rank of an integer matrix over the field Z/p (p prime)."""
    A = [[x % p for x in row] for row in rows]
    m = len(A)
    n = len(A[0]) if m else 0
    rank = 0
    col = 0
    while rank < m and col < n:
        pivot = next((i for i in range(rank, m) if A[i][col]), None)
        if pivot is None:
            col += 1
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        inv = pow(A[rank][col], -1, p)
        A[rank] = [x * inv % p for x in A[rank]]
        for i in range(m):
            if i != rank and A[i][col]:
                f = A[i][col]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
        col += 1
    return rank


# -- test helpers --------------------------------------------------------

QUOTIENTS = ("none", "end-minus", "end-plus", "ends")
HOM_CASES = ((5, 3), (7, 3), (11, 2))  # (p, image of t) for hom_count_to_cyclic


def quotients(d):
    """The quotients ``d`` has: all four when long, only "none" when closed."""
    return QUOTIENTS if d.kind == LONG else ("none",)


def assert_same_module(a, b, ks=(0, 1, 2), context=()):
    """Matrices ``a`` and ``b``, each (rows, cols), give the same char polys and hom counts.

    Char polys for each k in ``ks`` over L2 and after the v1 and diag
    specializations; hom counts for every ``HOM_CASES`` entry with t as
    either.  ``context`` heads the message of a failing assertion.
    """
    for t, x, y in [("uv", a, b)] + [(t, f(*a), f(*b)) for t, f in (("v1", one_variable), ("diag", diagonal_t))]:
        for k in ks:
            assert char_poly(*x, k) == char_poly(*y, k), (*context, t, k)
    for t in ("v1", "diag"):
        for prime, s in HOM_CASES:
            counts = [hom_count_to_cyclic(*m, prime, s, t) for m in (a, b)]
            assert counts[0] == counts[1], (*context, t, prime, s)


def dense(rows, cols, entry=LaurentPoly):
    """The dense rows of sparse rows over ``cols``: ``entry`` of each row's entry, ``entry()`` where it has none.

    The one converter for references that index a matrix: ``LaurentPoly``
    wraps term-dict entries, and ``int`` reads int rows {column: value}.
    """
    return [[entry(row[g]) if g in row else entry() for g in cols] for row in rows]


def l2(terms):
    """Two-variable polynomial from {(u_exp, v_exp): coeff}."""
    return LaurentPoly(terms)


def l1(terms):
    """Polynomial in u alone from {u_exp: coeff}: a one-variable image, t read as u."""
    return LaurentPoly({(e, 0): c for e, c in terms.items()})


def specialize_entry(f, p):
    """``f`` (``one_variable`` or ``diagonal_t``) of ``p``, as the entry of a 1x1 matrix."""
    return dense(*f([{"x": p.terms}], ("x",)))[0][0]


def subs_int(p, images):
    """Evaluate p over Z; images must be +-1 (the units of Z)."""
    for im in images:
        if im not in (1, -1):
            raise ValueError(f"{im} is not a unit of Z")
    total = 0
    for exps, coeff in p.terms.items():
        val = coeff
        for im, e in zip(images, exps):
            if im == -1 and e % 2:
                val = -val
        total += val
    return total


def subs_mod(p, images, m):
    """Evaluate p in Z/m, each term by ``pow(image, e, m)``, which inverts the image when e < 0.

    Every image must be a unit mod m, whether or not an exponent of p is
    negative.  The reference for ``alexander._at`` mod p, which returns the
    residue of least absolute value.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    for im in images:
        if math.gcd(im, m) != 1:
            raise ValueError(f"{im % m} is not a unit mod {m}")
    total = 0
    for exps, coeff in p.terms.items():
        for im, e in zip(images, exps):
            coeff = coeff * pow(im, e, m) % m
        total += coeff
    return total % m


def end_generator_columns(p, m):
    """Images of the two end elements as column vectors over Z[u^+-1, v^+-1], on the columns of m = (rows, cols)."""
    if p.end_minus is None or p.end_plus is None:
        raise ValueError("presentation has no distinguished ends")
    if tuple(m[1]) != tuple(p.generators):
        raise ValueError("matrix does not match presentation")
    return dense([_word_row(p.end_minus), _word_row(p.end_plus)], m[1])


def end_arc_columns(m):
    """Unit columns at the first and at the last column of m = (rows, cols): the end arcs in a long diagram's A(t)."""
    units = [LaurentPoly.const(1)] + [LaurentPoly()] * (len(m[1]) - 1)
    return units, units[::-1]


def difference_in_rowspan(m, a, b):
    """Whether a - b lies in the row space of m = (rows, cols) mod p at each unit point (u, v).

    ``a`` and ``b`` are columns of two-variable Laurent polynomials.  One
    bool per p = 3, 5, 7 and per point of nonzero residues mod p, in order.
    """
    entries = dense(*m)
    for p in (3, 5, 7):
        for point in product(range(1, p), repeat=2):
            rows = [[subs_mod(x, point, p) for x in row] for row in entries]
            diff = [subs_mod(x - y, point, p) for x, y in zip(a, b)]
            yield rank_mod(rows + [diff], p) == rank_mod(rows, p)


def is_trivial_presentation(p):
    """True when elimination empties the generator list (trivial group).

    A False answer is not a proof of nontriviality at the symbolic level.
    """
    return len(tietze_eliminate(p).generators) == 0


def same_relation(r1, r2):
    """Equality of relations regardless of which side is written first."""
    return r1 in (r2, r2[::-1])
