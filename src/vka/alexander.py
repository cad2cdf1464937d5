"""Arc-group presentations of virtual knot diagrams over the operator group Z^2.

Each arc of a diagram contributes a generator family indexed by Z^2; letters
carry multiplicative exponents u^j v^k.  Every classical crossing contributes
two relation families.  Writing OI/OO for the over-strand's incoming and
outgoing arcs and UI/UO for the under-strand's:

    positive crossing:   OI * UI^u = UO * OO^u      OI^v = OO
    negative crossing:   UI * OI^u = OO * UO^u      OO^v = OI

The first family is written in one place, ``_crossing_relation``, which
both the word presentation and the merged arc matrix A(u, v) call.
Setting v = 1 recovers the classical one-variable arc relations, with the
two halves of each over-arc merged.  Abelianizing yields presentation
matrices over Z[u^+-1, v^+-1] whose minors drive all downstream invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .diagram import LONG, OVER, UNDER
from .laurent import UV, LaurentPoly, TVAR


class OpLetter(NamedTuple):
    gen: str
    exp: tuple  # (u_exp, v_exp)
    sign: int  # +1 or -1


class OpRelation(NamedTuple):
    left: tuple  # word: tuple of OpLetter
    right: tuple


E0 = (0, 0)
EV = (0, 1)


def arc_names(count):
    """Arc generator names in traversal order: a, b, c, ... then g26, g27, ..."""
    names = []
    for i in range(count):
        if i < 26:
            names.append(chr(ord("a") + i))
        else:
            names.append(f"g{i}")
    return names


# -- words ------------------------------------------------------------


def _exp_neg(a):
    return (-a[0], -a[1])


def word_shift(word, exp):
    """Apply the Z^2 operator x -> x^exp to every letter."""
    if exp == E0:
        return tuple(word)
    du, dv = exp
    return tuple(OpLetter(g, (u + du, v + dv), s) for g, (u, v), s in word)


def word_inverse(word):
    return tuple(OpLetter(l.gen, l.exp, -l.sign) for l in reversed(word))


def free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1].gen == letter.gen and out[-1].exp == letter.exp \
                and out[-1].sign == -letter.sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def letter_str(l):
    body = l.gen
    j, k = l.exp
    if (j, k) != (0, 0):
        factors = []
        if j:
            factors.append("u" if j == 1 else f"u^{j}")
        if k:
            factors.append("v" if k == 1 else f"v^{k}")
        mono = " ".join(factors)
        if len(factors) == 1 and factors[0] in ("u", "v"):
            body += f"^{mono}"
        else:
            body += f"^{{{mono}}}"
    return body if l.sign > 0 else "~" + body


def word_str(word):
    return " ".join(letter_str(l) for l in word) if word else "1"


def relation_str(rel):
    return f"{word_str(rel.left)} = {word_str(rel.right)}"


def normalize_relation(rel):
    """Free-reduce both sides and move edge inverse letters across.

    A trailing inverse on one side becomes a trailing positive letter on the
    other (right multiplication), a leading inverse becomes a leading
    positive letter (left multiplication).  The abelianized row is
    unchanged; the displayed form matches hand calculation.
    """
    return _normalized(list(free_reduce(rel.left)), list(free_reduce(rel.right)))


def _normalized(left, right):
    """``normalize_relation`` of two free-reduced sides, given as lists.

    A moved letter can only cancel against the letter it lands next to,
    and removing an edge letter keeps a side reduced, so both sides stay
    free-reduced without rescanning them.
    """
    while True:
        if left and left[-1].sign < 0:
            moved, side, at = left.pop(), right, -1
        elif right and right[-1].sign < 0:
            moved, side, at = right.pop(), left, -1
        elif left and left[0].sign < 0:
            moved, side, at = left.pop(0), right, 0
        elif right and right[0].sign < 0:
            moved, side, at = right.pop(0), left, 0
        else:
            return OpRelation(tuple(left), tuple(right))
        if side and side[at] == moved:  # the inverse of the letter it becomes
            side.pop(at)
        elif at:
            side.append(moved._replace(sign=1))
        else:
            side.insert(0, moved._replace(sign=1))


def relation_is_trivial(rel):
    return rel.left == rel.right


@dataclass(frozen=True)
class GroupPresentationZ2:
    """Generators, Z^2-operator relations, and the two distinguished ends.

    ``end_minus`` / ``end_plus`` are words expressing the images of the
    unbounded end arcs (None for closed diagrams).  For a freshly built long
    diagram they are the single first and last arc generators.
    """

    generators: tuple
    relations: tuple
    end_minus: Optional[tuple] = None
    end_plus: Optional[tuple] = None

    def __str__(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(relation_str(r) for r in self.relations)
        return f"<{gens} | {rels}>"

    def to_json(self):
        """JSON-ready dict mirroring the presentation's fields."""

        def word(w):
            return [[l.gen, list(l.exp), l.sign] for l in w]

        return {
            "generators": list(self.generators),
            "relations": [{"left": word(r.left), "right": word(r.right)} for r in self.relations],
            "end_minus": word(self.end_minus) if self.end_minus is not None else None,
            "end_plus": word(self.end_plus) if self.end_plus is not None else None,
        }


def _crossing_relation(sign, oi, oo, ui, uo):
    """The first-family relation of a crossing, each arc given as (generator, v-exponent)."""
    if sign < 0:  # UI * OI^u = OO * UO^u is OI * UI^u = UO * OO^u with over and under swapped
        oi, oo, ui, uo = ui, uo, oi, oo
    return OpRelation(
        (OpLetter(oi[0], (0, oi[1]), 1), OpLetter(ui[0], (1, ui[1]), 1)),
        (OpLetter(uo[0], (0, uo[1]), 1), OpLetter(oo[0], (1, oo[1]), 1)),
    )


def extended_presentation(d):
    """Two-variable arc-group presentation of a diagram."""
    names = arc_names(d.arc_count)
    over, under = {}, {}
    for i, (cid, role, sign) in enumerate(d.passages):  # the passage at i runs from arc i to arc i + 1
        (over if role == OVER else under)[cid] = (names[i], 0), (names[(i + 1) % d.arc_count], 0), sign
    relations = []
    for cid in range(1, d.crossings + 1):
        (oi, oo, sign), (ui, uo, _) = over[cid], under[cid]
        relations.append(_crossing_relation(sign, oi, oo, ui, uo))
        shifted, plain = (oi, oo) if sign > 0 else (oo, oi)  # OI^v = OO, or OO^v = OI
        relations.append(OpRelation((OpLetter(shifted[0], EV, 1),), (OpLetter(plain[0], E0, 1),)))
    if d.kind == LONG:
        end_minus = (OpLetter(names[0], E0, 1),)
        end_plus = (OpLetter(names[-1], E0, 1),)
    else:
        end_minus = end_plus = None
    return GroupPresentationZ2(tuple(names), tuple(relations), end_minus, end_plus)


# -- Tietze elimination ------------------------------------------------


def _solve(rel, gen):
    """Express ``gen`` from a relation containing it exactly once."""
    w = free_reduce(rel.left + word_inverse(rel.right))
    idx = next(i for i, l in enumerate(w) if l.gen == gen)
    letter = w[idx]
    p, q = w[:idx], w[idx + 1:]
    if letter.sign > 0:
        expr = word_inverse(p) + word_inverse(q)
    else:
        expr = q + p
    return free_reduce(word_shift(expr, _exp_neg(letter.exp)))


def _join(out, word):
    """Append a reduced word to a reduced list, cancelling at the junction."""
    i = 0
    while i < len(word) and out and out[-1] == (word[i].gen, word[i].exp, -word[i].sign):
        out.pop()
        i += 1
    out.extend(word[i:])


class _Entry(NamedTuple):
    """A normalized relation with what elimination asks of it, computed once."""

    rel: OpRelation
    once: dict  # generator -> exponent of its only letter, or None if it occurs more
    candidate: Optional[tuple]  # pass 1's (generator, expression), if any
    key: frozenset  # equal for equal relations, either side first


def _entry(rel):
    once = {}
    for gen, exp, _ in rel.left + rel.right:
        once[gen] = None if gen in once else exp
    return _Entry(rel, once, _shaped_candidate(rel, once), frozenset({rel.left, rel.right}))


def _shaped_candidate(rel, once):
    """Pass 1's substitution from a relation, or None.

    A side that is a single positive letter, whose generator occurs nowhere
    else in the relation, expresses that generator by the other side.  A
    bare-exponent letter is preferred, then the left side.
    """
    pick = None
    for side, other in ((rel.left, rel.right), (rel.right, rel.left)):
        if len(side) == 1 and side[0].sign > 0 and once[side[0].gen] is not None:
            if side[0].exp == E0:
                return side[0].gen, other
            pick = pick or (side[0], other)
    if pick is None:
        return None
    letter, other = pick
    return letter.gen, word_shift(other, _exp_neg(letter.exp))


def _single_occurrence_step(entries, gens, protected):
    """Pass 2's pick: (generator, expression, entry index) or None.

    The first unprotected generator, in ``gens`` order, with an
    exponent-free single occurrence, solved from the first relation that
    holds it so; failing that, the first with any single occurrence.
    """
    first_bare, first_any = {}, {}
    for i, e in enumerate(entries):
        for g, exp in e.once.items():
            if exp is not None:
                first_any.setdefault(g, i)
                if exp == E0:
                    first_bare.setdefault(g, i)
    for first in (first_bare, first_any):
        for g in gens:
            if g in first and g not in protected:
                return g, _solve(entries[first[g]].rel, g), first[g]
    return None


def tietze_eliminate(p):
    """Eliminate redundant generators, deterministically.

    First pass: repeatedly use the first relation with a whole side equal to
    a single positive letter (preferring the bare-exponent side) to delete
    that generator.  Second pass: delete non-end generators that occur
    exactly once in some relation, preferring exponent-free occurrences and
    scanning generators in arc order.  End-arc generators survive the second
    pass so the distinguished elements stay visible; if the first pass
    consumes one, its image is retained as a word.

    Each relation keeps which generators it holds once, its pass-1
    candidate and its dedupe key, so an elimination rewrites only the
    relations and end words that hold the eliminated generator; the others
    are already normalized.  End words are taken to be free-reduced, as
    every presentation built here has them.
    """
    gens = list(p.generators)
    firsts = {}  # dedupe key -> the first entry with it
    for r in p.relations:
        r = normalize_relation(r)
        if not relation_is_trivial(r):
            e = _entry(r)
            firsts.setdefault(e.key, e)
    entries = list(firsts.values())
    ends = [p.end_minus, p.end_plus]
    protected = set()
    for e in ends:
        if e is not None:
            protected.update(l.gen for l in e)

    def eliminate(gen, expr, used):
        gens.remove(gen)
        images = {}  # letter of gen -> its image

        def substitute(word):
            """The reduced image of a reduced word, as a list."""
            out = []
            for letter in word:
                if letter.gen == gen:
                    image = images.get(letter)
                    if image is None:
                        image = word_shift(expr, letter.exp)
                        if letter.sign < 0:
                            image = word_inverse(image)
                        images[letter] = image
                    _join(out, image)
                elif out and out[-1] == (letter.gen, letter.exp, -letter.sign):
                    out.pop()  # an image ended in the inverse of this letter
                else:
                    out.append(letter)
            return out

        firsts.clear()
        for i, e in enumerate(entries):
            if gen in e.once:
                if i == used:
                    continue
                rel = _normalized(substitute(e.rel.left), substitute(e.rel.right))
                if relation_is_trivial(rel):
                    continue
                e = _entry(rel)
            firsts.setdefault(e.key, e)
        entries[:] = firsts.values()
        for i, e in enumerate(ends):
            if e is not None and any(l.gen == gen for l in e):
                ends[i] = tuple(substitute(e))

    while True:
        step = next(((*e.candidate, i) for i, e in enumerate(entries) if e.candidate), None)
        if step is None:
            step = _single_occurrence_step(entries, gens, protected)
            if step is None:
                break
        eliminate(*step)

    rels = tuple(e.rel for e in entries)
    return GroupPresentationZ2(tuple(gens), rels, *(tuple(e) if e is not None else None for e in ends))


def quotient_kill(p, victims):
    """Quotient by the normal closure of whole generator families.

    Victim generators are deleted and every letter mentioning them erased
    (all their Z^2-translates become the identity).  Rows are kept one-for-
    one so abelianization commutes with the quotient.
    """
    victims = set(victims)
    unknown = victims - set(p.generators)
    if unknown:
        raise KeyError(f"unknown generators {sorted(unknown)}")

    def erase(word):
        return tuple(l for l in word if l.gen not in victims)

    rels = tuple(
        normalize_relation(OpRelation(erase(r.left), erase(r.right))) for r in p.relations
    )
    gens = tuple(g for g in p.generators if g not in victims)
    ends = [p.end_minus, p.end_plus]
    ends = [erase(e) if e is not None else None for e in ends]
    return GroupPresentationZ2(gens, rels, ends[0], ends[1])


# -- abelianization ----------------------------------------------------


@dataclass(frozen=True)
class PresentationMatrix:
    """Relations-by-generators matrix over a tagged coefficient ring.

    ring is one of "L2" (Z[u,v] Laurent), "L1" (Z[t] Laurent) or "Z";
    entries are LaurentPoly for the Laurent rings and int over Z.
    """

    ring: str
    cols: tuple  # generator names
    rows: tuple  # tuple of tuples of entries

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))


def _word_row(word, minus=()):
    """Abelianized ``word`` less abelianized ``minus``: {generator: {exp: coeff}}.

    Only generators with a nonzero entry appear.
    """
    terms = {}
    for w, scale in ((word, 1), (minus, -1)):
        for gen, exp, sign in w:
            entry = terms.get(gen)
            if entry is None:
                entry = terms[gen] = {}
            c = entry.get(exp, 0) + scale * sign
            if c:
                entry[exp] = c
            else:
                del entry[exp]
    return {g: entry for g, entry in terms.items() if entry}


def _dense(terms, cols):
    """One LaurentPoly per column of a sparse row."""
    return tuple(LaurentPoly._raw(UV, terms.get(g) or {}) for g in cols)


def abelianize(p):
    """Presentation matrix of the abelianized module over Z[u^+-1, v^+-1]."""
    rows = tuple(_dense(_word_row(rel.left, rel.right), p.generators) for rel in p.relations)
    return PresentationMatrix("L2", tuple(p.generators), rows)


def _sub_product(target, f, g):
    """target -= f * g, on term dicts; target is changed in place."""
    for (a, b), x in f.items():
        for (c, d), y in g.items():
            e = (a + c, b + d)
            v = target.get(e, 0) - x * y
            if v:
                target[e] = v
            else:
                del target[e]


def _unit_columns(row):
    """The columns of a sparse row whose entry is a unit +-u^a v^b."""
    return [g for g, entry in row.items() if len(entry) == 1 and abs(next(iter(entry.values()))) == 1]


def _reduce(rows, cols):
    """Sparse rows over ``cols``, unit pivots eliminated, as an L2 matrix.

    A row maps column -> {exp: coeff}; the rows and their entries are
    changed in place.  While an entry is a unit +-u^a v^b, the one of
    least Markowitz cost (row entries - 1) * (column entries - 1) is
    taken, first in row order on ties: its column is cleared from the
    other rows, and its row and column are dropped.  Each step is an
    elementary equivalence of presentations, so every Fitting ideal, and
    with it every char poly and hom count, is kept.  Zero rows are dropped.
    """
    where = {g: set() for g in cols}  # column -> ids of the rows holding it
    rows = {i: row for i, row in enumerate(rows) if row}  # in input order
    for i, row in rows.items():
        for g in row:
            where[g].add(i)
    units = {i: _unit_columns(row) for i, row in rows.items()}  # kept until the row changes
    while True:
        best = None
        for i, row_units in units.items():
            if not row_units:
                continue
            others = len(rows[i]) - 1
            for g in row_units:
                cost = others * (len(where[g]) - 1)
                if best is None or cost < best[0]:
                    best = cost, i, g
                    if not cost:
                        break
            if not best[0]:
                break
        if best is None:
            break
        _, i, g = best
        pivot = rows.pop(i)
        del units[i]
        (a, b), s = next(iter(pivot.pop(g).items()))
        holders = where.pop(g)
        holders.discard(i)
        for h in pivot:
            where[h].discard(i)
        for j in holders:
            # row -= (entry / pivot) * pivot row
            row = rows[j]
            f = {(e0 - a, e1 - b): s * c for (e0, e1), c in row.pop(g).items()}
            for h, pterms in pivot.items():
                target = row.get(h)
                if target is None:
                    target = row[h] = {}
                    where[h].add(j)
                _sub_product(target, f, pterms)
                if not target:
                    del row[h]
                    where[h].discard(j)
            if row:
                units[j] = _unit_columns(row)
            else:
                del rows[j], units[j]
    cols = tuple(g for g in cols if g in where)
    return PresentationMatrix("L2", cols, tuple(_dense(row, cols) for row in rows.values()))


def specialize_uv(m, u_image, v_image):
    """Entry-wise ring homomorphism from an L2 matrix into Z[t^+-1]."""
    if m.ring != "L2":
        raise ValueError("specialize_uv expects an L2 matrix")
    rows = tuple(
        tuple(e.subs((u_image, v_image)) for e in row) for row in m.rows
    )
    return PresentationMatrix("L1", m.cols, rows)


T_GEN = LaurentPoly.monomial(TVAR, (1,))
T_ONE = LaurentPoly.const(TVAR, 1)


def one_variable(m):
    """Set v = 1 and rename u to t (the one-variable specialization)."""
    return specialize_uv(m, T_GEN, T_ONE)


def diagonal_t(m):
    """Set u = v = t."""
    return specialize_uv(m, T_GEN, T_GEN)


# -- merged arc matrices -----------------------------------------------


def merged_arc_rows(d):
    """Sparse rows {column: {(u_exp, v_exp): coeff}} of the merged arc matrix A(u, v), and its columns.

    Over passages do not split its arcs, so column j holds the arcs after
    the j-th under passage, named after its first arc: c+1 columns for a
    long diagram with c crossings, c for a closed one (one if c = 0), where
    the arcs after the last under passage run on into column 0.  The
    relation OI^v = OO (OO^v = OI when negative) makes an arc v^e times the
    first arc of its column, e the sum of the signs of the over passages
    between them; the arcs that run on into column 0 are shifted by the
    signs of the over passages up to arc 0.

    One row per crossing, in id order: the abelianized ``_crossing_relation``,
    OI + u*UI - UO - u*OO at a positive crossing, UI + u*OI - OO - u*UO at a
    negative one.  These are the first relation family's rows once the
    second family has eliminated the OO (or OI) columns, so A(u, v) has the
    elementary ideals of ``abelianize(extended_presentation(d))``.
    """
    names = arc_names(d.arc_count)
    cols = [names[0]]
    col = e = tail = 0  # tail: the v-exponent of the arc after a closed diagram's last under passage
    if d.kind != LONG:
        for p in reversed(d.passages):
            if p.role == UNDER:
                break
            tail -= p.sign
    overs, unders = [None] * d.crossings, [None] * d.crossings  # each crossing's arcs in and out, as (column, v-exponent)
    for i, (cid, role, sign) in enumerate(d.passages):
        arc_in = cols[col], e
        if role == OVER:
            e += sign
            overs[cid - 1] = arc_in, (cols[col], e), sign
            continue
        if d.kind == LONG or len(cols) < d.crossings:
            col, e = len(cols), 0
            cols.append(names[i + 1])
        else:
            col, e = 0, tail
        unders[cid - 1] = arc_in, (cols[col], e)
    rows = [
        _word_row(*_crossing_relation(sign, oi, oo, ui, uo)) for (oi, oo, sign), (ui, uo) in zip(overs, unders)
    ]
    return rows, tuple(cols)


def _arc_matrix_at(d, arcs, t):
    """A(t) from A(u, v) = ``arcs``, as ``merged_arc_rows(d)`` gives it: see ``one_var_matrix``."""
    rows, cols = arcs
    index = {g: j for j, g in enumerate(cols)}
    sign_of = {p.crossing: p.sign for p in d.passages}
    if isinstance(t, int):
        if t not in (1, -1):
            raise ValueError(f"{t} is not a unit of Z")
        ring, zero = "Z", 0

        def value(entry, sign):
            # at (u, v) = (t, 1), times -1 or -t^-1 = -t: t^a is t for odd a, else 1
            return -sum(c * t if (a + (sign < 0)) % 2 else c for (a, _), c in entry.items())
    else:
        ring, zero, one = "L1", LaurentPoly.zero(t.vars), LaurentPoly.const(t.vars, 1)
        units = {1: -one, -1: -t.inverse()}

        def value(entry, sign):
            return LaurentPoly._raw(UV, entry).subs((t, one)) * units[sign]
    out = []
    for cid, row in enumerate(rows, 1):
        dense = [zero] * len(cols)
        for g, entry in row.items():
            dense[index[g]] = value(entry, sign_of[cid])
        out.append(tuple(dense))
    return PresentationMatrix(ring, cols, tuple(out))


def one_var_matrix(d, t=T_GEN):
    """Merged arc matrix A(t): rows UO - t*UI - (1-t)*OV per crossing.

    Its rows are those of A(u, v) (``merged_arc_rows``) at (u, v) = (t, 1),
    each scaled by its unit: -1 at a positive crossing, -t^-1 at a negative
    one, where the row becomes UO - t^-1*UI - (1-t^-1)*OV.  ``t`` is the
    image of t: T_GEN gives the Laurent matrix over Z[t^+-1] (ring "L1");
    1 or -1 gives the integer specialization (ring "Z"), where t^-1 = t.
    The coloring matrix is -A(-1): A(-1, 1) with the rows of the negative
    crossings negated.
    """
    return _arc_matrix_at(d, merged_arc_rows(d), t)
