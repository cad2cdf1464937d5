"""Classical Reidemeister moves on Gauss codes.

Virtual moves reroute arcs through virtual crossings only, which leaves a
Gauss code unchanged, so the move set here is the classical one: kinks
(R1), pokes (R2) and the triangle slide (R3).  The R3 matcher accepts only
the braid-relation configuration (one strand over both of its crossings,
one under both, signs consistent with some orientation of the three
strands); a stricter matcher loses fuzz coverage but can never rewrite a
diagram into an inequivalent one.

Site enumeration builds one index per diagram, the position of each
passage's partner (the other passage of its crossing).  With it the
shrinking sites (R1-, R2-, R3) come from one O(n) scan over adjacent
pairs; the growing sites (R1+, R2+) are counted and decoded from their
index on demand.  A random-walk
step therefore costs O(n) plus building and validating the new diagram.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .diagram import Diagram, OVER, Passage, UNDER


class MoveSite(NamedTuple):
    kind: str  # "r1+", "r1-", "r2+", "r2-", "r3"
    data: tuple


class IllegalMove(ValueError):
    """The site does not match the required local pattern."""


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


def _partners(passages):
    """The index: position -> position of the other passage of its crossing."""
    partner = [0] * len(passages)
    first = {}
    for k, p in enumerate(passages):
        j = first.pop(p.crossing, None)
        if j is None:
            first[p.crossing] = k
        else:
            partner[j], partner[k] = k, j
    return partner


def _shrinking_sites(passages):
    """All R1-, R2- and R3 sites, in deterministic order, in O(n).

    Sites come in kind order (R1-, R2-, R3), each kind sorted by its data.
    Every site uses an adjacent pair of passages at i, i + 1, and the
    partner index fixes the rest of it: an R2- partner pair can only sit at
    the other passages of the two crossings, and an over-over pair fixes
    the crossings x, y of an R3 triangle, so the middle pair holds x's under
    passage and the bottom pair y's, two positions each.  Each candidate
    still passes the matcher ``apply_move`` uses.
    """
    n = len(passages)
    partner = _partners(passages)
    sign_of = {p.crossing: p.sign for p in passages}
    r1, r2, r3 = [], [], []
    for i in range(n - 1):
        a, b = passages[i], passages[i + 1]
        if a.crossing == b.crossing:
            r1.append(MoveSite("r1-", (i,)))
            continue
        pa, pb = partner[i], partner[i + 1]
        j = min(pa, pb)
        if abs(pa - pb) == 1 and j > i + 1 and _r2_pairs_match(passages, i, j):
            r2.append(MoveSite("r2-", (i, j)))
        if a.role == OVER and b.role == OVER:
            r3.extend(_r3_sites(passages, partner, sign_of, i))
    r3.sort(key=lambda site: site.data)
    return r1 + r2 + r3


def _r3_sites(passages, partner, sign_of, it):
    """The R3 sites whose top (over-over) pair sits at ``it``."""
    n = len(passages)
    sites = []
    for e_top, xo, yo in ((1, it, it + 1), (-1, it + 1, it)):
        xu, yu = partner[xo], partner[yo]
        # middle pair (U x, O z) at xu, or (O z, U x) at xu - 1
        for im, zo in ((xu, xu + 1), (xu - 1, xu - 1)):
            if not 0 <= zo < n:
                continue
            zu = partner[zo]
            # bottom pair (U y, U z) at yu, or (U z, U y) at yu - 1
            if zu == yu + 1:
                site = (it, im, yu, e_top, 1)
            elif zu == yu - 1:
                site = (it, im, yu - 1, e_top, -1)
            else:
                continue
            if _r3_match(passages, site, sign_of):
                sites.append(MoveSite("r3", site))
    return sites


def _r1_add_count(n):
    return 4 * (n + 1)


def _decode_r1_add(idx):
    pos, rest = divmod(idx, 4)
    sign = 1 if rest // 2 == 0 else -1
    order = "OU" if rest % 2 == 0 else "UO"
    return MoveSite("r1+", (pos, sign, order))


def _r2_add_count(n):
    return (n + 1) * (n + 2) // 2 * 8


def _decode_r2_add(n, idx):
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


def _site_table(d, max_crossings):
    """The legal sites of ``d`` in their fixed order, as (count, site_at).

    The shrinking sites come first, listed by one O(n) scan; the R1+ and
    R2+ sites after them are decoded from their index on demand.  Growing
    moves are withheld once the crossing count reaches ``max_crossings``.
    """
    n = len(d.passages)
    shrink = _shrinking_sites(d.passages)
    r1 = _r1_add_count(n) if max_crossings is None or d.crossings < max_crossings else 0
    r2 = _r2_add_count(n) if max_crossings is None or d.crossings + 2 <= max_crossings else 0

    def site_at(k):
        if k < len(shrink):
            return shrink[k]
        k -= len(shrink)
        if k < r1:
            return _decode_r1_add(k)
        return _decode_r2_add(n, k - r1)

    return len(shrink) + r1 + r2, site_at


def legal_sites(d, max_crossings=None):
    """Deterministically ordered legal move sites for a diagram.

    Growing moves (R1+, R2+) are withheld once the crossing count reaches
    ``max_crossings``.
    """
    count, site_at = _site_table(d, max_crossings)
    return [site_at(k) for k in range(count)]


def apply_move(d, site):
    """Apply one Reidemeister move; raises IllegalMove on a bad site."""
    passages = list(d.passages)
    n = len(passages)
    kind, data = site.kind, site.data
    if kind == "r1+":
        pos, sign, order = data
        if not (0 <= pos <= n) or sign not in (1, -1) or order not in ("OU", "UO"):
            raise IllegalMove(f"bad r1+ site {data}")
        cid = d.crossings + 1
        roles = (OVER, UNDER) if order == "OU" else (UNDER, OVER)
        kink = [Passage(cid, roles[0], sign), Passage(cid, roles[1], sign)]
        return Diagram(d.kind, passages[:pos] + kink + passages[pos:])
    if kind == "r1-":
        (i,) = data
        if i < 0 or i + 1 >= n or passages[i].crossing != passages[i + 1].crossing:
            raise IllegalMove(f"no kink at position {i}")
        return Diagram(d.kind, passages[:i] + passages[i + 2:])
    if kind == "r2+":
        i, j, sign, first_role, parallel = data
        if not (0 <= i <= j <= n) or sign not in (1, -1) or first_role not in (OVER, UNDER):
            raise IllegalMove(f"bad r2+ site {data}")
        a, b = d.crossings + 1, d.crossings + 2
        other = UNDER if first_role == OVER else OVER
        first = [Passage(a, first_role, sign), Passage(b, first_role, -sign)]
        if parallel:
            second = [Passage(a, other, sign), Passage(b, other, -sign)]
        else:
            second = [Passage(b, other, -sign), Passage(a, other, sign)]
        return Diagram(d.kind, passages[:i] + first + passages[i:j] + second + passages[j:])
    if kind == "r2-":
        i, j = data
        if not (0 <= i and i + 1 < j and j + 1 < n) or not _r2_pairs_match(passages, i, j):
            raise IllegalMove(f"no poke pair at positions {i}, {j}")
        drop = {i, i + 1, j, j + 1}
        return Diagram(d.kind, [p for k, p in enumerate(passages) if k not in drop])
    if kind == "r3":
        if not _r3_match(passages, data):
            raise IllegalMove(f"no triangle at {data}")
        it, im, ib = data[0], data[1], data[2]
        for start in (it, im, ib):
            passages[start], passages[start + 1] = passages[start + 1], passages[start]
        return Diagram(d.kind, passages)
    raise IllegalMove(f"unknown move kind {kind!r}")


def random_walk(d, seed, steps, max_crossings=None):
    """Apply ``steps`` uniformly chosen legal moves, reproducibly.

    Growth is capped at the starting crossing count plus six unless an
    explicit cap is given, keeping fuzz campaigns within minor budgets.
    Each step draws one index into the site table of ``legal_sites``: the
    shrinking sites come from one O(n) scan of the partner index and only
    the drawn growing site is decoded, so a step costs O(n) for the scan
    plus the validation of the new diagram.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if max_crossings is None:
        max_crossings = d.crossings + 6
    rng = random.Random(seed)
    current = d
    for _ in range(steps):
        count, site_at = _site_table(current, max_crossings)
        if count == 0:
            break
        current = apply_move(current, site_at(rng.randrange(count)))
    return current
