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
shrinking sites (R1-, R2-, R3) come from one O(n) scan over adjacent pairs,
which is the only definition of their legality; the growing sites (R1+,
R2+) are counted in closed form and decoded from their index on demand.  A
random-walk step draws against the growing count plus a bound on the
shrinking count, so it scans only when the draw lands past the growing
sites.  The walk moves on passage triples read by index, and one ``Diagram``
validates its end.  A passage is a plain (crossing id, role, sign) triple
and a site a plain (kind, data) pair: kind is "r1+", "r1-", "r2+", "r2-"
or "r3", and data the tuple of the move's positions and choices.
"""

from __future__ import annotations

import itertools
import math
import random

from .diagram import Diagram, OVER, UNDER, is_int


class IllegalMove(ValueError):
    """The site does not match the required local pattern."""


def _partners(passages):
    """The index: position -> position of the other passage of its crossing."""
    partner = [0] * len(passages)
    first = {}
    for k, p in enumerate(passages):
        j = first.setdefault(p[0], k)
        if j != k:
            partner[j], partner[k] = k, j
    return partner


def _shrinking_sites(passages):
    """All R1-, R2- and R3 sites, in deterministic order, in O(n).

    This scan defines which shrinking sites are legal.  Sites come in kind
    order (R1-, R2-, R3), each kind sorted by its data.  Every site uses an
    adjacent pair of passages a, b at i, i + 1, and the partner index fixes
    the rest of it.  A kink is a pair of partners.  An R2- or R3 site needs
    a and b of equal roles, which a kink never has.  An R2- partner pair
    can only sit at the other passages of the two crossings, which already
    have the other role and the same crossings, so a and b need only
    opposite signs.  An over-over pair fixes the crossings x, y of an R3
    triangle, so the middle pair holds x's under passage and the bottom
    pair y's (see ``_r3_sites``).
    """
    partner = _partners(passages)
    r1, r2, r3 = [], [], []
    for i in range(len(passages) - 1):
        a, b = passages[i], passages[i + 1]
        pa = partner[i]
        if pa == i + 1:
            r1.append(("r1-", (i,)))
        elif a[1] == b[1]:
            pb = partner[i + 1]
            if a[2] != b[2] and (pa - pb == 1 or pb - pa == 1) and min(pa, pb) > i + 1:
                r2.append(("r2-", (i, min(pa, pb))))
            if a[1] == OVER:
                r3 += _r3_sites(passages, partner, i)
    if len(r3) > 1:
        r3.sort()  # one kind, so by data
    return r1 + r2 + r3


def _r3_sites(passages, partner, it):
    """The R3 sites whose top (over-over) pair sits at ``it``: at most two.

    A site (it, im, ib, e_top, e_bot) reads the top pair as (O x, O y) when
    e_top = 1 and (O y, O x) when it is -1; the middle pair is (U x, O z)
    or (O z, U x) (e_mid = 1 or -1) and the bottom pair (U y, U z) or
    (U z, U y) (e_bot = 1 or -1).  The signs of x, y and z must be
    e_top * e_mid, e_top * e_bot and e_mid * e_bot, so x's sign fixes
    e_mid for each e_top.  The partner index then places all six passages,
    but the one taken for z's over passage, at x's under passage + e_mid,
    must be an over passage other than x's own (in ``U1+ U2+ O2+ O1+`` it
    is x's own); z's under passage beside y's fixes e_bot.
    """
    n = len(passages)
    sites = []
    for e_top, xo, yo in ((1, it, it + 1), (-1, it + 1, it)):
        e_mid = e_top * passages[xo][2]
        xu = partner[xo]
        im, zo = (xu, xu + 1) if e_mid == 1 else (xu - 1, xu - 1)
        if not 0 <= zo < n or zo == xo or passages[zo][1] != OVER:
            continue
        zu, yu = partner[zo], partner[yo]
        if zu == yu + 1:
            ib, e_bot = yu, 1
        elif zu == yu - 1:
            ib, e_bot = yu - 1, -1
        else:
            continue
        if passages[yo][2] == e_top * e_bot and passages[zo][2] == e_mid * e_bot:
            sites.append(("r3", (it, im, ib, e_top, e_bot)))
    return sites


def _shrink_bound(n):
    """An upper bound on the shrinking sites of an n-passage list: 2(n - 1).

    Each site is anchored at one of the n - 1 adjacent pairs a, b at i,
    i + 1: an R1- site at its kink, an R2- site at its first pair and an
    R3 site at its top pair.  A kink anchors its R1- site only, a pair of
    an over and an under passage of two crossings nothing, and an
    under-under pair at most one R2- site, whose second pair the partner
    index fixes.  An over-over pair anchors at most two R3 sites, one per
    e_top (see ``_r3_sites``).  If it also anchors an R2- site, a and b
    have opposite signs and adjacent under passages.  z's over passage sits
    at x's under passage + e_mid, so y's under passage must sit at x's -
    e_mid: at a's - sign(a) when e_top = 1 (x = a, e_mid = sign(a)) and at
    a's + sign(a) when e_top = -1 (x = b, e_mid = -sign(b) = sign(a)).  So
    at most one R3 site joins the R2- site, and no pair anchors more than
    two sites.
    """
    return 2 * (n - 1) if n else 0


def _r1_add_count(n):
    return 4 * (n + 1)


def _decode_r1_add(idx):
    pos, rest = divmod(idx, 4)
    sign = 1 if rest // 2 == 0 else -1
    order = "OU" if rest % 2 == 0 else "UO"
    return "r1+", (pos, sign, order)


def _r2_add_count(n):
    return (n + 1) * (n + 2) // 2 * 8


def _decode_r2_add(n, idx):
    pair, rest = divmod(idx, 8)
    # the pairs i <= j <= n in row order; counted from the last pair, row i = n - k
    # holds the k + 1 after the k * (k + 1) / 2 of the rows below it
    back = (n + 1) * (n + 2) // 2 - 1 - pair
    k = (math.isqrt(8 * back + 1) - 1) // 2
    i, j = n - k, n - (back - k * (k + 1) // 2)
    sign = 1 if rest // 4 == 0 else -1
    first_role = OVER if (rest // 2) % 2 == 0 else UNDER
    parallel = rest % 2 == 0
    return "r2+", (i, j, sign, first_role, parallel)


def _growth(n, max_crossings):
    """The R1+ and R2+ site counts of an n-passage list.

    Growing moves are withheld once the crossing count reaches
    ``max_crossings``: R2+ once it is within two of it.
    """
    crossings = n // 2
    r1 = _r1_add_count(n) if max_crossings is None or crossings < max_crossings else 0
    r2 = _r2_add_count(n) if max_crossings is None or crossings + 2 <= max_crossings else 0
    return r1, r2


def _growing_site(n, r1, k):
    """Growing site ``k`` of an n-passage list with ``r1`` R1+ sites: the R1+ sites, then the R2+."""
    return _decode_r1_add(k) if k < r1 else _decode_r2_add(n, k - r1)


def legal_sites(d, max_crossings=None):
    """Deterministically ordered legal move sites for a diagram.

    The shrinking sites come first, in the order of ``_shrinking_sites``,
    then the R1+ and R2+ sites.  Growing moves are withheld once the
    crossing count reaches ``max_crossings``.
    """
    n = len(d.passages)
    r1, r2 = _growth(n, max_crossings)
    return _shrinking_sites(d.passages) + [_growing_site(n, r1, k) for k in range(r1 + r2)]


_NO_SITE = {"r1-": "no kink at", "r2-": "no poke pair at", "r3": "no triangle at"}


def apply_move(d, site):
    """Apply the move at a (kind, data) ``site``; raises IllegalMove on a bad site.

    A shrinking site is legal exactly when its data are ints (not bools or
    floats) and ``legal_sites`` lists it.
    """
    if not (isinstance(site, (tuple, list)) and len(site) == 2):
        raise IllegalMove(f"bad site {site!r}")
    kind, data = site
    if kind not in ("r1+", "r1-", "r2+", "r2-", "r3"):
        raise IllegalMove(f"unknown move kind {kind!r}")
    if not isinstance(data, (tuple, list)):
        raise IllegalMove(f"bad {kind} site data {data!r}")
    n, data = len(d.passages), tuple(data)
    if kind == "r1+":
        pos, sign, order = data if len(data) == 3 else (None,) * 3
        if not (is_int(pos) and 0 <= pos <= n and is_int(sign) and sign in (1, -1) and order in ("OU", "UO")):
            raise IllegalMove(f"bad r1+ site {data}")
    elif kind == "r2+":
        i, j, sign, first_role, parallel = data if len(data) == 5 else (None,) * 5
        if not (is_int(i) and is_int(j) and 0 <= i <= j <= n and is_int(sign) and sign in (1, -1)
                and first_role in (OVER, UNDER) and isinstance(parallel, bool)):
            raise IllegalMove(f"bad r2+ site {data}")
    elif not (all(map(is_int, data)) and (kind, data) in _shrinking_sites(d.passages)):
        raise IllegalMove(f"{_NO_SITE[kind]} {data}")
    return Diagram(d.kind, _moved(list(d.passages), (kind, data), itertools.count(d.crossings + 1)))


def _moved(passages, site, fresh):
    """The passage list after the move at a legal ``site``.

    New crossings take their ids from the iterator ``fresh``, which must
    yield ids that ``passages`` does not use; they go in as plain triples.
    """
    kind, data = site
    if kind == "r1+":
        pos, sign, order = data
        cid = next(fresh)
        roles = (OVER, UNDER) if order == "OU" else (UNDER, OVER)
        kink = [(cid, roles[0], sign), (cid, roles[1], sign)]
        return passages[:pos] + kink + passages[pos:]
    if kind == "r1-":
        (i,) = data
        return passages[:i] + passages[i + 2:]
    if kind == "r2+":
        i, j, sign, first_role, parallel = data
        a, b = next(fresh), next(fresh)
        other = UNDER if first_role == OVER else OVER
        first = [(a, first_role, sign), (b, first_role, -sign)]
        if parallel:
            second = [(a, other, sign), (b, other, -sign)]
        else:
            second = [(b, other, -sign), (a, other, sign)]
        return passages[:i] + first + passages[i:j] + second + passages[j:]
    if kind == "r2-":
        i, j = data
        return passages[:i] + passages[i + 2:j] + passages[j + 2:]
    out = list(passages)  # r3: swap the passages of each of its three pairs
    for start in data[:3]:
        out[start], out[start + 1] = out[start + 1], out[start]
    return out


def random_walk(d, seed, steps, max_crossings=None):
    """Apply ``steps`` uniformly chosen legal moves, reproducibly.

    Growth is capped at the starting crossing count plus six unless an
    explicit cap is given, keeping fuzz campaigns within minor budgets.
    A step with G growing sites draws k from [0, G + B), where B =
    ``_shrink_bound(n)`` bounds the S shrinking sites.  If k < G it decodes
    growing site k with no scan.  Otherwise it scans once, takes shrinking
    site k - G if k - G < S and else redraws once from [0, G + S); with
    G + S = 0 the walk stops.  Each legal site has probability 1/(G + B)
    on the first draw and the same share, (B - S)/(G + B) * 1/(G + S), on
    the redraw: 1/(G + S) in all, the uniform law over ``legal_sites``.
    The walk moves on the bare passage list, whose sites are legal by
    construction, so a step costs O(n); ``_moved`` writes plain triples,
    and one ``Diagram`` at the end validates and relabels the result.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if max_crossings is None:
        max_crossings = d.crossings + 6
    rng = random.Random(seed)
    passages = list(d.passages)
    fresh = itertools.count(d.crossings + 1)
    for _ in range(steps):
        n = len(passages)
        r1, r2 = _growth(n, max_crossings)
        grow = r1 + r2
        total = grow + _shrink_bound(n)
        if total == 0:
            break
        k = rng.randrange(total)
        if k >= grow:
            shrink = _shrinking_sites(passages)
            if k - grow >= len(shrink):  # past the shrinking sites: redraw from the exact range
                if grow + len(shrink) == 0:
                    break
                k = rng.randrange(grow + len(shrink))
        site = _growing_site(n, r1, k) if k < grow else shrink[k - grow]
        passages = _moved(passages, site, fresh)
    return Diagram(d.kind, passages)
