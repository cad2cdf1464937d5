"""Arc-group presentations of virtual knot diagrams over the operator group Z^2.

Each arc of a diagram contributes a generator family indexed by Z^2; letters
carry multiplicative exponents u^j v^k.  Every classical crossing contributes
two relation families.  Writing OI/OO for the over-strand's incoming and
outgoing arcs and UI/UO for the under-strand's:

    positive crossing:   OI * UI^u = UO * OO^u      OI^v = OO
    negative crossing:   UI * OI^u = OO * UO^u      OO^v = OI

The first family is written in one place, ``_crossing_relation``, whose
arcs ``_relation_arcs`` picks: the word presentation calls it, and the
merged arc matrix A(u, v) writes its terms from those arcs.
Setting v = 1 recovers the classical one-variable arc relations, with the
two halves of each over-arc merged.  Abelianizing yields presentation
matrices over Z[u^+-1, v^+-1] whose minors drive all downstream invariants.
A matrix is a pair ``(rows, cols)``: sparse rows {column: {(a, b): coeff}},
zero entries left out, over a tuple of column names.

A letter is a plain ``(gen, (u_exp, v_exp), sign)`` tuple, a word a tuple
of letters and a relation a plain ``(left, right)`` pair of words, inside
the module and in every presentation it returns.  Where a presentation is
returned (``_presented``: ``extended_presentation``, ``quotient_kill``,
``tietze_eliminate`` and ``tietze_from_diagram``), equal letters are made
one shared tuple.  Both Tietze passes only pick a generator and a
relation; ``_solve`` writes every substitution.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .diagram import LONG, OVER, UNDER


E0 = (0, 0)
EV = (0, 1)


def arc_names(count):
    """Arc generator names in traversal order: a, b, c, ... then g26, g27, ..."""
    return [chr(ord("a") + i) if i < 26 else f"g{i}" for i in range(count)]


# -- words ------------------------------------------------------------


def word_shift(word, exp):
    """Apply the Z^2 operator x -> x^exp to every letter."""
    if exp == E0:
        return tuple(word)
    du, dv = exp
    return tuple([(g, (u + du, v + dv), s) for g, (u, v), s in word])


def word_inverse(word):
    return tuple([(g, e, -s) for g, e, s in reversed(word)])


def free_reduce(word):
    out = []
    for g, e, s in word:
        if out and out[-1] == (g, e, -s):
            out.pop()
        else:
            out.append((g, e, s))
    return tuple(out)


def _presented(gens, relations, ends):
    """A ``GroupPresentationZ2`` of plain relations and end words, equal letters made one tuple.

    A long word repeats few letters many times, so each distinct letter is kept once.
    """
    shared = {}  # letter -> the one tuple of its value

    def word(w):
        return tuple(map(shared.setdefault, w, w))

    return GroupPresentationZ2(tuple(gens), tuple([(word(l), word(r)) for l, r in relations]),
                               *(None if e is None else word(e) for e in ends))


def letter_str(l):
    body, (j, k), sign = l
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
    return body if sign > 0 else "~" + body


def word_str(word):
    return " ".join(letter_str(l) for l in word) if word else "1"


def relation_str(rel):
    left, right = rel
    return f"{word_str(left)} = {word_str(right)}"


def normalize_relation(rel):
    """Free-reduce both sides and move edge inverse letters across.

    A trailing inverse on one side becomes a trailing positive letter on the
    other (right multiplication), a leading inverse becomes a leading
    positive letter (left multiplication).  The abelianized row is
    unchanged; the displayed form matches hand calculation.
    """
    left, right = rel
    return _normalized(list(free_reduce(left)), list(free_reduce(right)))


def _normalized(left, right):
    """``normalize_relation`` of two free-reduced sides, given as lists.

    A moved letter can only cancel against the letter it lands next to,
    and removing an edge letter keeps a side reduced, so both sides stay
    free-reduced without rescanning them.
    """
    while True:
        if left and left[-1][2] < 0:
            moved, side, at = left.pop(), right, -1
        elif right and right[-1][2] < 0:
            moved, side, at = right.pop(), left, -1
        elif left and left[0][2] < 0:
            moved, side, at = left.pop(0), right, 0
        elif right and right[0][2] < 0:
            moved, side, at = right.pop(0), left, 0
        else:
            return tuple(left), tuple(right)
        if side and side[at] == moved:  # the inverse of the letter it becomes
            side.pop(at)
        elif at:
            side.append((moved[0], moved[1], 1))
        else:
            side.insert(0, (moved[0], moved[1], 1))


class GroupPresentationZ2(NamedTuple):
    """Generators, Z^2-operator relations, and the two distinguished ends.

    ``end_minus`` / ``end_plus`` are words expressing the images of the
    unbounded end arcs (None for closed diagrams).  For a freshly built long
    diagram they are the single first and last arc generators.
    """

    generators: tuple
    relations: tuple  # (left, right) pairs of words
    end_minus: Optional[tuple] = None
    end_plus: Optional[tuple] = None

    def __str__(self):
        gens = ", ".join(self.generators)
        rels = ", ".join(relation_str(r) for r in self.relations)
        return f"<{gens} | {rels}>"

    def to_json(self):
        """JSON-ready dict mirroring the presentation's fields."""

        def word(w):
            return [[g, list(e), s] for g, e, s in w]

        return {
            "generators": list(self.generators),
            "relations": [{"left": word(l), "right": word(r)} for l, r in self.relations],
            "end_minus": word(self.end_minus) if self.end_minus is not None else None,
            "end_plus": word(self.end_plus) if self.end_plus is not None else None,
        }


def _relation_arcs(sign, oi, oo, ui, uo):
    """The arcs (x, y, z, w) of a crossing's ``_crossing_relation`` x * y^u = z * w^u."""
    # UI * OI^u = OO * UO^u at a negative crossing is OI * UI^u = UO * OO^u with over and under swapped
    return (oi, ui, uo, oo) if sign > 0 else (ui, oi, oo, uo)


def _crossing_relation(sign, oi, oo, ui, uo):
    """The first-family relation of a crossing, each arc given as (generator, v-exponent)."""
    x, y, z, w = _relation_arcs(sign, oi, oo, ui, uo)
    return ((x[0], (0, x[1]), 1), (y[0], (1, y[1]), 1)), ((z[0], (0, z[1]), 1), (w[0], (1, w[1]), 1))


def _crossings(d, names):
    """Per crossing, in id order: its sign and its arcs OI, OO, UI, UO, and the arcs (shifted, plain)
    of its second-family relation shifted^v = plain."""
    over, under = {}, {}
    for i, (cid, role, sign) in enumerate(d.passages):  # the passage at i runs from arc i to arc i + 1
        (over if role == OVER else under)[cid] = names[i], names[(i + 1) % d.arc_count], sign
    for cid in range(1, d.crossings + 1):
        (oi, oo, sign), (ui, uo, _) = over[cid], under[cid]
        yield sign, (oi, oo, ui, uo), ((oi, oo) if sign > 0 else (oo, oi))  # OI^v = OO, or OO^v = OI


def extended_presentation(d):
    """Two-variable arc-group presentation of a diagram."""
    names = arc_names(d.arc_count)
    relations = []
    for sign, arcs, (shifted, plain) in _crossings(d, names):
        relations.append(_crossing_relation(sign, *((arc, 0) for arc in arcs)))
        relations.append((((shifted, EV, 1),), ((plain, E0, 1),)))
    ends = [((g, E0, 1),) if d.kind == LONG else None for g in (names[0], names[-1])]
    return _presented(names, relations, ends)


# -- Tietze elimination ------------------------------------------------


def _solve(rel, gen):
    """Express ``gen`` from a normalized relation containing it exactly once, for both passes:
    where the single letter gen^e is a whole side, it is the other side shifted by -e."""
    left, right = rel
    w = list(left)
    _join(w, word_inverse(right))
    idx = next(i for i, (g, _, _) in enumerate(w) if g == gen)
    _, exp, sign = w[idx]
    p, expr = w[:idx], w[idx + 1:]
    _join(expr, p)  # p gen^sign q = 1 makes gen^-sign = q p
    if sign > 0:
        expr = word_inverse(expr)
    return word_shift(expr, (-exp[0], -exp[1]))


def _join(out, word):
    """Append a reduced word to a reduced list, cancelling at the junction."""
    i = 0
    while i < len(word) and out:
        g, e, s = word[i]
        if out[-1] != (g, e, -s):
            break
        out.pop()
        i += 1
    out.extend(word[i:] if i else word)


# An entry is a normalized relation with what elimination asks of it, computed once: the tuple
# (relation, once, candidate, key), where ``once`` maps each generator to the exponent of its only
# letter, or None if it occurs more; ``candidate`` is the generator pass 1 would solve it for, or
# None; and ``key`` is equal for equal relations, either side first.


def _entry(rel):
    once = {}
    for side in rel:
        for gen, exp, _ in side:
            once[gen] = None if gen in once else exp
    return rel, once, _shaped_candidate(rel, once), frozenset(rel)


def _shaped_candidate(rel, once):
    """The generator pass 1 solves a relation for, or None.

    A side that is a single positive letter, whose generator occurs nowhere
    else in the relation, expresses that generator by the other side, as
    ``_solve`` writes it.  A bare-exponent letter is preferred, then the left side.
    """
    pick = None
    for side in rel:
        if len(side) == 1:
            gen, exp, sign = side[0]
            if sign > 0 and once[gen] is not None:
                if exp == E0:
                    return gen
                pick = pick or gen
    return pick


def _single_occurrence_step(entries, gens, protected):
    """Pass 2's pick: (generator, entry index) or None.

    The first unprotected generator, in ``gens`` order, with an
    exponent-free single occurrence, to be solved from the first relation
    that holds it so; failing that, the first with any single occurrence.
    """
    fallback = None  # the first generator with any single occurrence, and its first entry
    for g in gens:
        if g in protected:
            continue
        for i, (_, once, _, _) in enumerate(entries):
            exp = once.get(g)
            if exp is None:
                continue
            if exp == E0:
                return g, i
            if fallback is None:
                fallback = g, i
    return fallback


def tietze_eliminate(p):
    """Eliminate redundant generators, deterministically.

    First pass: repeatedly use the first relation with a whole side equal to
    a single positive letter (preferring the bare-exponent side) to delete
    that generator.  Second pass: delete non-end generators that occur
    exactly once in some relation, preferring exponent-free occurrences and
    scanning generators in arc order.  The generators of the input's end
    words are protected: they survive the second pass so the distinguished
    elements stay visible.  The first pass may still consume one; its image
    is then kept as the end word, and the generator it went to stays
    unprotected.

    Each relation keeps which generators it holds once, its pass-1
    candidate and its dedupe key, so an elimination rewrites only the
    relations and end words that hold the eliminated generator; the others
    are already normalized.  End words are taken to be free-reduced, as
    every presentation built here has them.
    """
    ends = [p.end_minus, p.end_plus]
    protected = {g for e in ends if e is not None for g, _, _ in e}
    return _eliminate(list(p.generators), _entries(map(normalize_relation, p.relations)), ends, protected)


def tietze_from_diagram(d):
    """``tietze_eliminate(extended_presentation(d))``, with the first pass read off the diagram.

    Until the second-family relations are used up, the first pass takes
    them in crossing-id order: their sides are single letters, and the
    first-family relations keep two positive letters a side.  Each one,
    x^{v^a} = y^{v^b} at the arcs' current images, sends every arc of one
    generator to the other, times a power of v: x goes if a = 0 or b != 0,
    else y.  x and y differ, as no loop of the diagram is over passages
    only.  Each first-family relation is then written once, at the arcs'
    images, already normalized, and the elimination goes on from there.
    """
    names = arc_names(d.arc_count)
    image = {g: (g, 0) for g in names}  # arc -> (surviving generator, v-exponent)
    members = {g: [g] for g in names}  # surviving generator -> the arcs whose image it is
    crossings = list(_crossings(d, names))
    for _, _, (shifted, plain) in crossings:
        (x, a), (y, b) = image[shifted], image[plain]
        a += 1
        gone, kept, shift = (x, y, b - a) if a == 0 or b != 0 else (y, x, a)
        for g in members[gone]:
            image[g] = kept, image[g][1] + shift
        members[kept] += members.pop(gone)
    entries = _entries(_crossing_relation(sign, *map(image.get, arcs)) for sign, arcs, _ in crossings)
    long = d.kind == LONG
    ends = [((image[g][0], (0, image[g][1]), 1),) if long else None for g in (names[0], names[-1])]
    return _eliminate([g for g in names if g in members], entries, ends, {names[0], names[-1]} if long else set())


def _entries(relations):
    """The entries of the nontrivial normalized ``relations``, less each that repeats an earlier one."""
    firsts = {}  # dedupe key -> the first entry with it
    for r in relations:
        if r[0] != r[1]:
            e = _entry(r)
            firsts.setdefault(e[3], e)
    return list(firsts.values())


def _eliminate(gens, entries, ends, protected):
    """``tietze_eliminate``'s loop, from normalized, nontrivial, deduplicated ``entries``.

    ``gens`` and ``ends`` are lists, changed in place; ``protected`` holds
    the generators that the second pass keeps.
    """
    firsts = {}

    def eliminate(gen, used):
        expr = _solve(entries[used][0], gen)
        gens.remove(gen)
        images = {}  # letter of gen -> its image

        def substitute(word):
            """The reduced image of a reduced word, as a list."""
            out = []
            for letter in word:
                g, exp, sign = letter
                if g == gen:
                    image = images.get(letter)
                    if image is None:
                        image = word_shift(expr, exp)
                        if sign < 0:
                            image = word_inverse(image)
                        images[letter] = image
                    _join(out, image)
                elif out and out[-1] == (g, exp, -sign):
                    out.pop()  # an image ended in the inverse of this letter
                else:
                    out.append(letter)
            return out

        firsts.clear()
        for i, e in enumerate(entries):
            rel, once, _, key = e
            if gen in once:
                if i == used:
                    continue
                left, right = rel
                rel = _normalized(substitute(left), substitute(right))
                if rel[0] == rel[1]:
                    continue
                e = _entry(rel)
                key = e[3]
            firsts.setdefault(key, e)
        entries[:] = firsts.values()
        for i, e in enumerate(ends):
            if e is not None and any(g == gen for g, _, _ in e):
                ends[i] = substitute(e)

    while step := (next(((cand, i) for i, (_, _, cand, _) in enumerate(entries) if cand), None)
                   or _single_occurrence_step(entries, gens, protected)):
        eliminate(*step)

    return _presented(gens, (e[0] for e in entries), ends)


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
        return tuple([letter for letter in word if letter[0] not in victims])

    rels = [normalize_relation((erase(l), erase(r))) for l, r in p.relations]
    gens = [g for g in p.generators if g not in victims]
    return _presented(gens, rels, [erase(e) if e is not None else None for e in (p.end_minus, p.end_plus)])


# -- abelianization ----------------------------------------------------


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


def abelianize(p):
    """The abelianized module over Z[u^+-1, v^+-1]: one ``_word_row`` per relation, and the generators as columns."""
    return [_word_row(*rel) for rel in p.relations], tuple(p.generators)


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


def _pivot_out(rows, cols, units_of, clear):
    """Sparse rows over ``cols``, unit pivots eliminated: the rows left, in input order, and their columns.

    The one pivot loop under ``_reduce`` (term-dict entries) and
    ``invariants._reduce_int`` (int entries), which differ only in entry
    arithmetic: ``units_of(row)`` lists the columns of a row's unit entries
    that may be pivots, and ``clear(row, entry, pivot, unit, j, where)``
    subtracts entry / unit times the ``pivot`` row from row ``j``, whose
    ``entry`` in the pivot column is already popped, and keeps ``where``
    (column -> ids of the rows holding it) up to date.  While a row has a
    unit, the one of least Markowitz cost (row entries - 1) * (column
    entries - 1) is taken, first in row order on ties: its column is
    cleared from the other rows, and its row and column are dropped.  Zero
    rows are dropped.  The rows and their entries are changed in place.
    """
    rows = {i: row for i, row in enumerate(rows) if row}  # in input order
    units = {i: units_of(row) for i, row in rows.items()}  # kept until the row changes
    if not any(units.values()):  # no pivot: nothing changes
        return list(rows.values()), tuple(cols)
    where = {g: set() for g in cols}  # column -> ids of the rows holding it
    for i, row in rows.items():
        for g in row:
            where[g].add(i)
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
        unit = pivot.pop(g)
        holders = where.pop(g)
        holders.discard(i)
        for h in pivot:
            where[h].discard(i)
        for j in holders:
            row = rows[j]
            clear(row, row.pop(g), pivot, unit, j, where)
            if row:
                units[j] = units_of(row)
            else:
                del rows[j], units[j]
    return list(rows.values()), tuple(g for g in cols if g in where)


def _clear_terms(row, entry, pivot, unit, j, where):
    """``_pivot_out``'s step on term dicts: row -= (entry / unit) * pivot, unit a monomial +-u^a v^b."""
    (a, b), s = next(iter(unit.items()))
    f = {(e0 - a, e1 - b): s * c for (e0, e1), c in entry.items()}
    for h, pterms in pivot.items():
        target = row.get(h)
        if target is None:
            target = row[h] = {}
            where[h].add(j)
        _sub_product(target, f, pterms)
        if not target:
            del row[h]
            where[h].discard(j)


def _reduce(rows, cols, keep=()):
    """Sparse rows {column: {(a, b): coeff}} over ``cols``, unit pivots eliminated (``_pivot_out``).

    A pivot is an entry +-u^a v^b outside the columns ``keep``.  Each step
    is an elementary equivalence of presentations, so every Fitting ideal,
    and with it every char poly and hom count, is kept.  The rows left can
    go to a later ``_reduce`` or to the readers in ``invariants``.  Rows
    evaluated at a point (``_at``) go to ``invariants._reduce_int`` instead.
    """
    return _pivot_out(rows, cols, lambda row: [g for g, e in row.items() if len(e) == 1 and g not in keep
                                               and abs(next(iter(e.values()))) == 1], _clear_terms)


def _specialized(rows, t):
    """New sparse rows {column: {(a, b): coeff}}, each term c*u^a*v^b sent to c*u^a (``t`` "v1") or c*u^(a+b)
    ("diag"), equal exponents added and zero entries left out: rows over Z[u^+-1], t read as u.  A unit goes to
    a unit, so reducing the image (``_reduce``) or taking the image of the reduced rows keeps one module."""
    diagonal, out = {"v1": 0, "diag": 1}[t], []
    for row in rows:
        image = {}
        for g, terms in row.items():
            entry = {}
            for (a, b), c in terms.items():
                e = a + diagonal * b, 0
                entry[e] = entry.get(e, 0) + c
            if entry := {e: c for e, c in entry.items() if c}:
                image[g] = entry
        out.append(image)
    return out


def one_variable(rows, cols):
    """Set v = 1 in sparse rows over ``cols`` (the one-variable specialization, t read as u): u^a v^b -> u^a."""
    return _specialized(rows, "v1"), cols


def diagonal_t(rows, cols):
    """Set u = v = t in sparse rows over ``cols``, t read as u: u^a v^b -> u^(a + b)."""
    return _specialized(rows, "diag"), cols


def _at(rows, point, p=None):
    """Sparse rows {column: {(a, b): coeff}} at (u, v) = ``point``, as int rows {column: value}, zeros left out.

    Over Z (``p`` None) the images must be +-1, so x^e is x^(e mod 2); mod any ``p`` a value is the
    residue of least absolute value, and ``pow(x, e, p)`` inverts x when e < 0, so x and y are units mod p.
    """
    (x, y), half = point, (p - 1) // 2 if p else 0

    def value(terms):
        if p is None:
            return sum(c * x ** (a % 2) * y ** (b % 2) for (a, b), c in terms.items())
        return (sum(c * pow(x, a, p) * pow(y, b, p) for (a, b), c in terms.items()) + half) % p - half

    return [{g: v for g, terms in row.items() if (v := value(terms))} for row in rows]


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
    written straight from its ``_relation_arcs``: OI + u*UI - UO - u*OO at a
    positive crossing, UI + u*OI - OO - u*UO at a negative one.  These are the
    first relation family's rows once the second family has eliminated the
    OO (or OI) columns, so A(u, v) has the elementary ideals of
    ``abelianize(extended_presentation(d))``.
    """
    names = arc_names(d.arc_count)
    cols = [names[0]]
    col = e = tail = 0  # tail: the v-exponent of the arc after a closed diagram's last under passage
    if d.kind != LONG:
        for _, role, sign in reversed(d.passages):
            if role == UNDER:
                break
            tail -= sign
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
    rows = []
    for (oi, oo, sign), (ui, uo) in zip(overs, unders):
        (x, ex), (y, ey), (z, ez), (w, ew) = _relation_arcs(sign, oi, oo, ui, uo)
        row = {x: {(0, ex): 1}}  # x + u*y - z - u*w, in the key order of _word_row
        row.setdefault(y, {})[1, ey] = 1
        for g, key in ((z, (0, ez)), (w, (1, ew))):  # a key of z (of w) can only be one of x (of y)
            entry = row.setdefault(g, {})
            if not entry.pop(key, 0):  # else the two terms cancel
                entry[key] = -1
        rows.append({g: entry for g, entry in row.items() if entry})
    return rows, tuple(cols)


def one_var_matrix(d):
    """The coloring matrix -A(-1), int rows {column: value} and columns: 2*OV - UI - UO per crossing.

    Its rows are the int rows of A(u, v) at (u, v) = (-1, 1) (``_at``), those of the negative crossings negated.
    """
    rows, cols = merged_arc_rows(d)
    signs = {cid: sign for cid, _, sign in d.passages}
    return [{g: signs[cid] * x for g, x in row.items()} for cid, row in enumerate(_at(rows, (-1, 1)), 1)], cols
