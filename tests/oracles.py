"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the library's own computation paths:
polynomial products by direct convolution, determinants by cofactor
recursion, minors of Laurent matrices by Bareiss elimination with exact
Laurent division, specializations by powers of the images,
abelianization by one monomial per letter, colorings and homomorphism
counts by exhaustive assignment, colorings and determinants also by the
Smith form of the full A(-1) that the reduced A(u, v) replaced, move
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

The helpers at the end are test conveniences built on the library:
polynomial literals, the quotient list, one char-poly and hom-count
comparison of two module matrices, the specialization of one polynomial,
evaluation at +-1, end columns, row-space membership of an end
difference and relation comparison.
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
    T_GEN,
    arc_names,
    GroupPresentationZ2,
    OpLetter,
    OpRelation,
    PresentationMatrix,
    _crossing_relation,
    _dense,
    _reduce,
    _word_row,
    diagonal_t,
    extended_presentation,
    one_variable,
    tietze_eliminate,
)
from vka import moves
from vka.diagram import CLOSED, LONG, OVER, UNDER, Diagram, GaussCodeError, Passage, is_int, parse_gauss
from vka.invariants import (
    RING_VARS,
    _end_quotient,
    _solutions_mod,
    char_poly,
    hom_count_to_cyclic,
    smith_normal_form,
)
from vka.laurent import LaurentPoly, TVAR, UV, divexact
from vka.moves import MoveSite

T_ONE = LaurentPoly.const(TVAR, 1)


def convolve(p, q):
    """Schoolbook product of two polynomials given as exponent->coeff dicts."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return LaurentPoly(p.vars, out)


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


def det_exact_reference(rows, vars):
    """Laurent-polynomial Bareiss determinant over the ring in ``vars``.

    Every step divides exactly in the Laurent ring with ``divexact``.  This
    is the reference for the packed-integer minors of ``elementary_minors``.
    """
    zero, one = LaurentPoly.zero(vars), LaurentPoly.const(vars, 1)
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


def minors_reference(m, k):
    """The minors of size (columns - k) of a Laurent matrix, in
    ``elementary_minors`` order, each by ``det_exact_reference``."""
    vars = RING_VARS[m.ring]
    nrows, ncols = m.shape
    size = ncols - k
    if size <= 0:
        return [LaurentPoly.const(vars, 1)]
    return [
        det_exact_reference([[m.rows[i][j] for j in cs] for i in rs], vars)
        for rs in combinations(range(nrows), size)
        for cs in combinations(range(ncols), size)
    ]


def subs_reference(p, images):
    """``LaurentPoly.subs`` by powers of the images: sum of coeff * prod im**e."""
    tvars = images[0].vars
    out = LaurentPoly.zero(tvars)
    for exps, coeff in p.terms.items():
        term = LaurentPoly.const(tvars, coeff)
        for im, e in zip(images, exps):
            term = term * im ** e
        out = out + term
    return out


def abelianize_reference(p):
    """``abelianize`` by adding one monomial per letter, left minus right."""
    def row(word):
        coeffs = {g: LaurentPoly.zero(UV) for g in p.generators}
        for l in word:
            coeffs[l.gen] = coeffs[l.gen] + LaurentPoly.monomial(UV, l.exp, l.sign)
        return [coeffs[g] for g in p.generators]

    rows = tuple(
        tuple(a - b for a, b in zip(row(rel.left), row(rel.right))) for rel in p.relations
    )
    return PresentationMatrix("L2", tuple(p.generators), rows)


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
    for idx, p in enumerate(d.passages):
        halves.setdefault(p.crossing, {})[p.role] = (arc_in[idx], arc_out[idx])
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
    sign_of = {p.crossing: p.sign for p in d.passages}
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


def brute_force_hom_count(presentation, p, s):
    """Count maps to Z/p with t acting as s, straight from the relations.

    A letter g^(u^j v^k) evaluates to s^(j+k) * value(g); a relation holds
    when both sides sum to the same residue.
    """
    gens = presentation.generators
    sinv = pow(s, -1, p)

    def letter_value(letter, values):
        j, k = letter.exp
        e = j + k
        factor = pow(s if e >= 0 else sinv, abs(e), p)
        return letter.sign * factor * values[letter.gen]

    count = 0
    for assignment in range(p ** len(gens)):
        values = {}
        rest = assignment
        for g in gens:
            values[g] = rest % p
            rest //= p
        ok = True
        for rel in presentation.relations:
            lhs = sum(letter_value(l, values) for l in rel.left) % p
            rhs = sum(letter_value(l, values) for l in rel.right) % p
            if lhs != rhs:
                ok = False
                break
        if ok:
            count += 1
    return count


def random_poly(rng, vars, max_terms=4, max_exp=3, max_coeff=5):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        exps = tuple(rng.randrange(-max_exp, max_exp + 1) for _ in vars)
        terms[exps] = rng.randrange(-max_coeff, max_coeff + 1)
    return LaurentPoly(vars, terms)


def random_unit(rng, vars, max_exp=3):
    exps = tuple(rng.randrange(-max_exp, max_exp + 1) for _ in vars)
    return LaurentPoly.monomial(vars, exps, rng.choice((1, -1)))


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


def random_diagrams(crossings, seeds):
    """``random_code`` diagrams from ``random.Random(seed)``, long then closed, for each seed."""
    return [
        parse_gauss(random_code(random.Random(seed), crossings, closed=closed))
        for seed in seeds
        for closed in (False, True)
    ]


# -- reference parser --------------------------------------------------
# The token loop that the one-scan ``parse_gauss`` replaced: each line cut
# at its first ``#``, each token found by ``str.index`` for its column,
# every passage checked, then renumbered, in passes of their own.  The
# crossing-id bound is ``int()``'s digit limit, 4300 by default.

_TOKEN_RE = re.compile(r"[OU][1-9][0-9]*[+-]$")


def _validate(passages):
    seen = {}
    for idx, p in enumerate(passages):
        if not (p.role in (OVER, UNDER) and is_int(p.sign) and p.sign in (1, -1)
                and is_int(p.crossing) and p.crossing >= 1):
            raise GaussCodeError(f"bad passage {p!r} at position {idx}")
        seen.setdefault(p.crossing, []).append(p)
    for cid, ps in seen.items():
        if len(ps) != 2:
            raise GaussCodeError(f"crossing {cid} appears {len(ps)} times, expected 2")
        a, b = ps
        if a.role == b.role:
            raise GaussCodeError(f"crossing {cid} has two {a.role} passages")
        if a.sign != b.sign:
            raise GaussCodeError(f"crossing {cid} has mismatched signs")


def _relabel(passages):
    """Renumber crossing ids to 1..c in order of first appearance."""
    order = {}
    for p in passages:
        if p.crossing not in order:
            order[p.crossing] = len(order) + 1
    return tuple(Passage(order[p.crossing], p.role, p.sign) for p in passages)


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
            passages.append(Passage(cid, role, sign))
    _validate(passages)
    return kind, _relabel(passages)


# -- reference Tietze elimination -------------------------------------
# The rescanning implementation that the incremental ``tietze_eliminate``
# replaced: every elimination rewrites, normalizes and dedupes every
# relation, and pass 2 counts each generator in each relation afresh.
# ``normalize_relation_reference`` free-reduces both sides again after
# every moved letter, where the library's ``normalize_relation`` cancels at
# the junction only.  The reference has its own word helpers on
# ``OpLetter``s, so it runs none of the library's word code.


def word_shift_reference(word, exp):
    """Apply the Z^2 operator x -> x^exp to every letter."""
    return tuple(OpLetter(l.gen, (l.exp[0] + exp[0], l.exp[1] + exp[1]), l.sign) for l in word)


def word_inverse_reference(word):
    return tuple(OpLetter(l.gen, l.exp, -l.sign) for l in reversed(word))


def free_reduce_reference(word):
    out = []
    for letter in word:
        if out and out[-1].gen == letter.gen and out[-1].exp == letter.exp and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _relation_is_trivial(rel):
    return rel.left == rel.right


def _solve_reference(rel, gen):
    """Express ``gen`` from a relation containing it exactly once."""
    w = free_reduce_reference(rel.left + word_inverse_reference(rel.right))
    idx = next(i for i, l in enumerate(w) if l.gen == gen)
    letter = w[idx]
    p, q = w[:idx], w[idx + 1:]
    if letter.sign > 0:
        expr = word_inverse_reference(p) + word_inverse_reference(q)
    else:
        expr = q + p
    return free_reduce_reference(word_shift_reference(expr, (-letter.exp[0], -letter.exp[1])))


def normalize_relation_reference(rel):
    """Free-reduce both sides and move edge inverse letters across.

    A trailing inverse on one side becomes a trailing positive letter on the
    other (right multiplication), a leading inverse becomes a leading
    positive letter (left multiplication).  The abelianized row is
    unchanged; the displayed form matches hand calculation.
    """
    left, right = list(free_reduce_reference(rel.left)), list(free_reduce_reference(rel.right))
    changed = True
    while changed:
        changed = False
        if left and left[-1].sign < 0:
            right.append(OpLetter(left[-1].gen, left[-1].exp, 1))
            left.pop()
            changed = True
        elif right and right[-1].sign < 0:
            left.append(OpLetter(right[-1].gen, right[-1].exp, 1))
            right.pop()
            changed = True
        elif left and left[0].sign < 0:
            right.insert(0, OpLetter(left[0].gen, left[0].exp, 1))
            left.pop(0)
            changed = True
        elif right and right[0].sign < 0:
            left.insert(0, OpLetter(right[0].gen, right[0].exp, 1))
            right.pop(0)
            changed = True
        if changed:
            left, right = list(free_reduce_reference(left)), list(free_reduce_reference(right))
    return OpRelation(tuple(left), tuple(right))


def _substitute_word(word, gen, replacement):
    out = []
    for letter in word:
        if letter.gen != gen:
            out.append(letter)
            continue
        rep = word_shift_reference(replacement, letter.exp)
        if letter.sign < 0:
            rep = word_inverse_reference(rep)
        out.extend(rep)
    return free_reduce_reference(tuple(out))


def _occurrences(gen, rel):
    return sum(1 for l in rel.left + rel.right if l.gen == gen)


def _shaped_candidate(rel):
    """Substitution-shaped relation: one side is a single positive letter."""
    options = []
    for side, other in ((rel.left, rel.right), (rel.right, rel.left)):
        if len(side) == 1 and side[0].sign > 0:
            g = side[0].gen
            if all(l.gen != g for l in other):
                options.append((side[0], other))
    if not options:
        return None
    for letter, other in options:  # prefer a bare-exponent letter
        if letter.exp == E0:
            return letter.gen, free_reduce_reference(word_shift_reference(other, (-letter.exp[0], -letter.exp[1])))
    letter, other = options[0]
    return letter.gen, free_reduce_reference(word_shift_reference(other, (-letter.exp[0], -letter.exp[1])))


def dedupe_relations(relations):
    """The relations in order, less each that repeats an earlier one, either side first."""
    seen = set()
    out = []
    for rel in relations:
        key = frozenset({rel.left, rel.right})
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
            protected.update(l.gen for l in e)

    def eliminate(gen, expr, used_rel):
        gens.remove(gen)
        new = []
        for r in rels:
            if r is used_rel:
                continue
            r2 = normalize_relation_reference(OpRelation(
                _substitute_word(r.left, gen, expr),
                _substitute_word(r.right, gen, expr),
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
                    letter = next(l for l in r.left + r.right if l.gen == g)
                    if want_bare and letter.exp != E0:
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


def transfer_brute_force(n, p):
    """Solve the two-by-two propagation condition by trying every color pair."""
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
    m = mul(m, u)
    for alpha in range(p):
        for beta in range(p):
            if alpha == beta:
                continue
            second = alpha * m[0][1] + beta * m[1][1]
            if (second - beta) % p == 0:
                return True
    return False


def _r2_pairs_match(passages, i, j):
    a1, a2 = passages[i], passages[i + 1]
    b1, b2 = passages[j], passages[j + 1]
    if a1.crossing == a2.crossing or b1.crossing == b2.crossing:
        return False
    if {a1.crossing, a2.crossing} != {b1.crossing, b2.crossing}:
        return False
    if a1.role != a2.role or b1.role != b2.role or a1.role == b1.role:
        return False
    if a1.sign == a2.sign:
        return False
    return True


def _r3_match(passages, site, sign_of=None):
    """Check the braid-relation pattern; returns True when the site is legal."""
    (it, im, ib, e_top, e_bot) = site
    if len({it, it + 1, im, im + 1, ib, ib + 1}) != 6:
        return False
    if max(it, im, ib) + 1 >= len(passages) or min(it, im, ib) < 0:
        return False
    top = passages[it], passages[it + 1]
    mid = passages[im], passages[im + 1]
    bot = passages[ib], passages[ib + 1]
    if top[0].role != OVER or top[1].role != OVER:
        return False
    if bot[0].role != UNDER or bot[1].role != UNDER:
        return False
    if mid[0].role == UNDER and mid[1].role == OVER:
        e_mid = 1
        x2, z2 = mid[0].crossing, mid[1].crossing
    elif mid[0].role == OVER and mid[1].role == UNDER:
        e_mid = -1
        z2, x2 = mid[0].crossing, mid[1].crossing
    else:
        return False
    x, y = (top[0].crossing, top[1].crossing) if e_top > 0 else (top[1].crossing, top[0].crossing)
    y2, z3 = (bot[0].crossing, bot[1].crossing) if e_bot > 0 else (bot[1].crossing, bot[0].crossing)
    if x2 != x or y2 != y or z2 != z3 or len({x, y, z2}) != 3:
        return False
    if sign_of is None:
        sign_of = {p.crossing: p.sign for p in passages}
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
        if passages[i].crossing == passages[i + 1].crossing:
            sites.append(MoveSite("r1-", (i,)))
    adj = [i for i in range(n - 1) if passages[i].crossing != passages[i + 1].crossing]
    for ai, i in enumerate(adj):
        for j in adj[ai + 1:]:
            if j > i + 1 and _r2_pairs_match(passages, i, j):
                sites.append(MoveSite("r2-", (i, j)))
    over_pairs, under_pairs, mixed_pairs = [], [], []
    for i in adj:
        r1, r2 = passages[i].role, passages[i + 1].role
        if r1 == OVER and r2 == OVER:
            over_pairs.append(i)
        elif r1 == UNDER and r2 == UNDER:
            under_pairs.append(i)
        else:
            mixed_pairs.append(i)
    sign_of = {p.crossing: p.sign for p in passages}
    for it in over_pairs:
        for im in mixed_pairs:
            for ib in under_pairs:
                for e_top in (1, -1):
                    matched = False
                    for e_bot in (1, -1):
                        site = (it, im, ib, e_top, e_bot)
                        if _r3_match(passages, site, sign_of):
                            sites.append(MoveSite("r3", site))
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
    return MoveSite("r2+", (i, j, sign, first_role, parallel))


# -- references for the module-matrix route ----------------------------


def reduced_matrix(p):
    """``_reduce`` of the abelianized relation words: the elementary ideals of ``abelianize(p)``.

    The word route's module matrix, which ``invariants --presentation
    --charpoly`` reduced before every request took its char polys from
    A(u, v).
    """
    return _reduce([_word_row(rel.left, rel.right) for rel in p.relations], p.generators)


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
    for rel in extended_presentation(d).relations[::2]:
        row = {}
        for word, scale in ((rel.left, 1), (rel.right, -1)):
            for l in word:
                arc = arc_of[l.gen]
                entry = row.setdefault(cols[classes[arc]], {})
                exp = (l.exp[0], l.exp[1] + vexp[arc])
                entry[exp] = entry.get(exp, 0) + scale * l.sign
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
    sign_of = {p.crossing: p.sign for p in d.passages}
    incidences = arc_structure(d).crossings
    return [_word_row(*_crossing_relation(sign_of[cid], *(arc[a] for a in incidences[cid])))
            for cid in range(1, d.crossings + 1)], cols


def one_var_matrix_reference(d, t=T_GEN):
    """Merged arc matrix A(t): rows UO - t*UI - (1-t)*OV per crossing.

    The per-crossing builder that ``one_var_matrix`` replaced by units
    times the rows of A(u, v), on the columns of ``arc_classes``.  ``t`` is
    the image of t.  T_GEN gives the Laurent matrix over Z[t^+-1] (ring
    "L1"); 1 or -1 gives the integer specialization (ring "Z"), where
    t^-1 = t.  The coloring matrix is -A(-1).
    """
    arcs = arc_structure(d)
    classes, _, col_names = arc_classes(d)
    count = len(col_names)
    if isinstance(t, int):
        if t not in (1, -1):
            raise ValueError(f"{t} is not a unit of Z")
        ring, zero, one, tinv = "Z", 0, 1, t
    else:
        ring, zero, one, tinv = "L1", LaurentPoly.zero(TVAR), T_ONE, t.inverse()
    sign_of = {p.crossing: p.sign for p in d.passages}
    rows = []
    for cid in sorted(arcs.crossings):
        inc = arcs.crossings[cid]
        row = [zero] * count
        ov, ui, uo = classes[inc.over_in], classes[inc.under_in], classes[inc.under_out]
        tt = t if sign_of[cid] > 0 else tinv
        row[uo] = row[uo] + one
        row[ui] = row[ui] - tt
        row[ov] = row[ov] - (one - tt)
        rows.append(tuple(row))
    return PresentationMatrix(ring, col_names, tuple(rows))


def colorings_reference(a, ps):
    """The gcd of the maximal minors of A(-1) = ``a`` and the coloring count mod each p in ``ps``.

    The route ``coloring_count`` and ``determinant_long`` took before they
    reduced A(u, v) first: one Smith form of the full integer matrix A(-1)
    (``one_var_matrix(d, -1)``, c x (c+1) for a long diagram, whose gcd is
    then the determinant), counted by ``_solutions_mod``.  Its rows are
    those of the coloring matrix -A(-1) up to sign.  Its parts have
    references of their own: ``one_var_matrix_reference`` and
    ``smith_normal_form_reference``.
    """
    inv = smith_normal_form(a.rows)
    return math.prod(inv), [_solutions_mod(inv, len(a.cols), p) for p in ps]


def smith_normal_form_reference(rows):
    """Smith invariants with a full scan for the smallest entry at every pivot.

    The pivot must divide the rest of the submatrix, or a row that it does
    not divide is added to its row and the pivot is sought again.
    ``smith_normal_form`` stops its scan at the first entry of absolute
    value 1 and makes the divisor chain after diagonalizing, from gcds and
    lcms of the diagonal.
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
    """Matrices ``a`` and ``b`` give the same char polys and hom counts.

    Char polys for each k in ``ks`` over L2 and after the v1 and diag
    specializations; hom counts for every ``HOM_CASES`` entry after both.
    ``context`` heads the message of a failing assertion.
    """
    pairs = [(a, b)] + [(f(a), f(b)) for f in (one_variable, diagonal_t)]
    for x, y in pairs:
        for k in ks:
            assert char_poly(x, k) == char_poly(y, k), (*context, x.ring, k)
    for x, y in pairs[1:]:
        for prime, s in HOM_CASES:
            assert hom_count_to_cyclic(x, prime, s) == hom_count_to_cyclic(y, prime, s), (*context, x.ring, prime, s)


def l2(terms):
    """Two-variable polynomial from {(u_exp, v_exp): coeff}."""
    return LaurentPoly(UV, terms)


def l1(terms):
    """One-variable polynomial from {t_exp: coeff}."""
    return LaurentPoly(TVAR, {(e,): c for e, c in terms.items()})


def specialize_entry(f, p):
    """``f`` (``one_variable`` or ``diagonal_t``) of ``p``, as the entry of a 1x1 L2 matrix."""
    return f(PresentationMatrix("L2", ("x",), ((p,),))).rows[0][0]


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


def end_generator_columns(p, m):
    """Images of the two end elements as column vectors over m's ring."""
    if p.end_minus is None or p.end_plus is None:
        raise ValueError("presentation has no distinguished ends")
    if m.ring != "L2":
        raise ValueError("end columns are computed over the L2 matrix")
    if tuple(m.cols) != tuple(p.generators):
        raise ValueError("matrix does not match presentation")
    return _dense(_word_row(p.end_minus), m.cols), _dense(_word_row(p.end_plus), m.cols)


def end_arc_columns(m):
    """Unit columns at the first and at the last column of m: the end arcs in a long diagram's A(t)."""
    vars = RING_VARS[m.ring]
    units = [LaurentPoly.const(vars, 1)] + [LaurentPoly.zero(vars)] * (len(m.cols) - 1)
    return units, units[::-1]


def difference_in_rowspan(m, a, b):
    """Whether a - b lies in the row space of the Laurent matrix m mod p at each unit point.

    ``a`` and ``b`` are columns of Laurent polynomials over m's ring.  One
    bool per p = 3, 5, 7 and per point of nonzero residues mod p, in order.
    """
    for p in (3, 5, 7):
        for point in product(range(1, p), repeat=len(RING_VARS[m.ring])):
            rows = [[x.subs_mod(point, p) for x in row] for row in m.rows]
            diff = [(x - y).subs_mod(point, p) for x, y in zip(a, b)]
            yield rank_mod(rows + [diff], p) == rank_mod(rows, p)


def is_trivial_presentation(p):
    """True when elimination empties the generator list (trivial group).

    A False answer is not a proof of nontriviality at the symbolic level.
    """
    return len(tietze_eliminate(p).generators) == 0


def same_relation(r1, r2):
    """Equality of relations regardless of which side is written first."""
    return r1 == r2 or (r1.left, r1.right) == (r2.right, r2.left)
