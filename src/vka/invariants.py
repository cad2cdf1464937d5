"""Module invariants: minors, characteristic polynomials, determinants,
colorings and homomorphism counts from one diagonal form, and the
winding-family transfer criterion.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, combinations

from .alexander import (
    _at,
    _pivot_out,
    _reduce,
    diagonal_t,
    extended_presentation,
    merged_arc_rows,
    one_variable,
    quotient_kill,
    tietze_eliminate,
    tietze_from_diagram,
)
from .diagram import LONG, is_int
from .laurent import LaurentPoly, _least, gcd_many, pack, unpack

DEFAULT_MINOR_BUDGET = 200000
PROFILE_MODULI = (3, 5, 7)  # the coloring counts of ``invariant_profile``
MODULUS_LIMIT = 10 ** 1000  # p prints within int's 4300-digit limit for text; a count p^k, k >= 5, may not


class BudgetExceeded(RuntimeError):
    """A computation would exceed the configured resource budget."""


# -- exact determinants and minors -------------------------------------

def det_exact(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        pk, rk = M[k][k], M[k]
        for i in range(k + 1, n):
            ri = M[i]
            ik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (pk * ri[j] - ik * rk[j]) // prev
        prev = pk
    out = M[n - 1][n - 1]
    return out if sign > 0 else -out


def _kronecker(rows, cols, size):
    """Integer images of sparse rows over ``cols`` and the decoder of their minors.

    Each row, and then each column, is divided by the monomial of its
    least exponents, so that every entry is a polynomial; the minors pick
    the shifts of their rows and columns back up.  The entries are then
    mapped by ``laurent.pack``: u -> X = 2^B, v -> X^D.  That map is a
    ring homomorphism, so an integer minor is the image of the polynomial
    minor.  A minor's coefficients are at most the product of its rows'
    1-norms, below 2^(B-1), and its u-degree is at most the sum of its
    rows' u-degrees, below D, so ``laurent.unpack`` reads its coefficients
    off the balanced base-X digits of the image, exponent (a, b) at digit
    a + D*b.
    """
    lows = [{g: _least(terms) for g, terms in row.items()} for row in rows]
    row_low = [_least(list(low.values())) for low in lows]
    col_low = [_least([tuple(map(operator.sub, low[g], rlow)) for low, rlow in zip(lows, row_low) if g in low])
               for g in cols]
    offsets = [{g: tuple(map(operator.add, rlow, clow)) for g, clow in zip(cols, col_low) if g in row}
               for row, rlow in zip(rows, row_low)]
    norms = [sum(abs(c) for terms in row.values() for c in terms.values()) for row in rows]
    B = math.prod(sorted(norms)[-size:]).bit_length() + 1
    degrees = [max((max(terms)[0] - offs[g][0] for g, terms in row.items()), default=0)
               for row, offs in zip(rows, offsets)]
    D = sum(sorted(degrees)[-size:]) + 1
    packed = [[pack(row[g], offs[g], B, D) if g in row else 0 for g in cols] for row, offs in zip(rows, offsets)]

    def decode(x, rs, cs):
        shift = tuple(map(sum, zip(*[row_low[i] for i in rs], *[col_low[j] for j in cs])))
        return unpack(x, B, D, shift)

    return packed, decode


def _minors(rows, cols, k, max_minors):
    """Yield the minors of size (columns - k) of sparse rows over ``cols``, after the budget check.

    Size zero (k >= columns) yields 1; a size exceeding the row count
    yields nothing (the zero ideal).  A 1x1 minor is its entry; for a
    larger size the rows are packed into integers once (``_kronecker``),
    and every minor is an integer Bareiss determinant, decoded.
    """
    nrows, ncols = len(rows), len(cols)
    size = ncols - k
    if size <= 0:
        yield LaurentPoly.const(1)
        return
    if size > nrows:
        return
    count = math.comb(nrows, size) * math.comb(ncols, size)
    if count > max_minors:
        raise BudgetExceeded(f"{count} minors of size {size} exceed budget {max_minors}")
    if size == 1:
        yield from (LaurentPoly._raw(dict(row.get(g, ()))) for row in rows for g in cols)  # copies: rows stay the caller's
        return
    packed, decode = _kronecker(rows, cols, size)
    for rs in combinations(range(nrows), size):
        picked = [packed[i] for i in rs]
        for cs in combinations(range(ncols), size):
            yield decode(det_exact([[row[j] for j in cs] for row in picked]), rs, cs)


def elementary_minors(rows, cols, k, max_minors=DEFAULT_MINOR_BUDGET):
    """All minors of size (columns - k) of sparse rows over ``cols``; the generators of the k-th ideal."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return list(_minors(rows, cols, k, max_minors))


def char_poly(rows, cols, k, max_minors=DEFAULT_MINOR_BUDGET):
    """Canonical gcd of the k-th ideal's minors (0 for the empty list), of sparse rows over ``cols``."""
    return gcd_many(elementary_minors(rows, cols, k, max_minors=max_minors))


# -- integer linear algebra --------------------------------------------


def _clear_int(row, x, pivot, s, j, where):
    """``_pivot_out``'s step on int rows: row -= (x / s) * pivot, s = +-1."""
    f = x * s
    for h, y in pivot.items():
        if v := row.get(h, 0) - f * y:
            row[h] = v
            where[h].add(j)
        else:
            del row[h]
            where[h].discard(j)


def _reduce_int(rows, cols):
    """Int rows {column: value} over ``cols``, their +-1 pivots eliminated under ``_reduce``'s pick (``_pivot_out``)."""
    return _pivot_out(rows, cols, lambda row: [g for g, x in row.items() if x == 1 or x == -1], _clear_int)


def _smith_at(rows, cols, point, p=None):
    """A diagonal d of sparse rows {column: {(a, b): coeff}} over ``cols`` at ``point``, and the columns left.

    ``_at`` gives int rows, and ``_reduce_int`` eliminates their +-1 pivots.  Mod ``p`` each round scales every
    row left by the inverse of its first unit value mod p, to residues of least absolute value, leaves out the
    rows zero mod p and eliminates again, until a round leaves no value 1; for a prime p the rounds end only when
    no row is left.  In the rows left the nonzero entry of least absolute value is the pivot, and it reduces its
    row and column to remainders; once none is left, its absolute value joins d and its row and column go.  d is
    padded with zeros to min(rows, columns) of the rows left, the zero rows ``_reduce_int`` drops included.
    Exact: over Z every step is a unimodular row or column operation, and scaling by a unit mod p and reducing
    keep the solutions mod p, so the matrix at ``point`` is equivalent to diag(1, ..., 1, d) (over Z/p, given p).
    With no more rows than columns the product of d is the gcd of the maximal minors, and as Hom(-, Z/m) is
    additive over the sum of the Z/d_i, m^(columns left - len d) * prod gcd(d_i, m) counts the solutions mod any
    m (mod p alone, given p; ``_solutions_mod``), whether or not d_i divides d_(i+1).
    """
    nrows, ncols = len(rows), len(cols)
    at, half = _at(rows, point, p), (p - 1) // 2 if p else 0
    while True:
        rows, cols = _reduce_int(at, cols)
        if p is None:
            break
        at = [{g: v for g, x in row.items() if (v := (unit * x + half) % p - half)} for row in rows
              for unit in (next((pow(x, -1, p) for x in row.values() if math.gcd(x, p) == 1), 1),)]
        if not any(1 in row.values() for row in at):
            rows = [row for row in at if row]
            break
    A, d = [[row.get(g, 0) for g in cols] for row in rows], []
    while any(flat := list(chain.from_iterable(A))):
        i, j = divmod(flat.index(min(filter(None, flat), key=abs)), len(A[0]))
        pr = A[i]
        e = pr[j]
        for n, r in enumerate(A):
            if r[j] and n != i:
                q = r[j] // e
                A[n] = [a - q * b for a, b in zip(r, pr)]
        for c, x in enumerate(pr):
            if x and c != j:
                q = x // e
                for r in A:
                    r[c] -= q * r[j]
        if pr.count(0) + 1 == len(pr) and [r[j] for r in A].count(0) + 1 == len(A):  # no remainder left
            d.append(abs(e))
            del A[i]
            for r in A:
                del r[j]
    return tuple(d) + (0,) * (min(nrows - ncols + len(cols), len(cols)) - len(d)), len(cols)


def _solutions_mod(inv, ncols, p):
    """Solutions of M x = 0 mod p, for any p >= 2, from a diagonal form ``inv`` of M (``_smith_at``).

    For a prime p this is p^(ncols - rank of M mod p).
    """
    return p ** (ncols - len(inv)) * math.prod(math.gcd(d, p) for d in inv)


def check_modulus(p, s=None):
    """Raise ValueError unless p is a modulus of a count, an int at least 2 and below MODULUS_LIMIT, and, given
    the unit s of a hom count, s is an int invertible mod p."""
    if not is_int(p):
        raise ValueError(f"p must be an int, not {p!r}")
    if p < 2:
        raise ValueError("modulus must be at least 2")
    if p >= MODULUS_LIMIT:
        raise ValueError("modulus must be below 10^1000")
    if s is not None and not is_int(s):
        raise ValueError(f"s must be an int, not {s!r}")
    if s is not None and math.gcd(s, p) != 1:
        raise ValueError("s must be invertible mod p")


# -- knot determinant and colorings ------------------------------------


def determinant_long(d):
    """gcd of the maximal minors of the merged arc matrix A(-1), from ``coloring_count``."""
    if d.kind != LONG:
        raise ValueError("determinant is defined for long diagrams")
    return coloring_count(*merged_arc_rows(d), ())[0]


def unit_minor_check(d, max_minors=DEFAULT_MINOR_BUDGET):
    """True when every maximal minor of A(u, v) at (1, 1), the merged matrix A(1) up to row signs, is +-1.

    This holds for every diagram.  At t = 1 a crossing's row is UO - UI,
    and the under passage it records joins two consecutive columns, so A(1)
    is the incidence matrix of a path (long diagram) or a cycle (closed).
    Deleting one column of a path, or one row and one column of a cycle,
    leaves the incidence matrix of a tree less one vertex's column, whose
    determinant is +-1.
    """
    rows, cols = merged_arc_rows(d)
    constants = [{g: {(0, 0): x} for g, x in row.items()} for row in _at(rows, (1, 1))]  # as term dicts
    return all(x in (1, -1) for x in _minors(constants, cols, 1, max_minors))


def coloring_count(rows, cols, ps):
    """The gcd of the maximal minors of A(u, v) at (u, v) = (-1, 1), and the coloring counts mod ``ps``, in order.

    ``rows`` over ``cols`` are ``merged_arc_rows(d)`` or its reduced ``none`` matrix (``quotient_matrix``), and are
    only read.  A coloring mod p labels the arcs over Z/p with 2*over = under + under at every crossing; the p
    constant ones are trivial.  At (-1, 1) A(u, v) is -A(-1) up to row signs, so the colorings mod p are the
    solutions of one diagonal form (``_smith_at``), and for a long diagram the gcd is the determinant.
    """
    for p in ps:
        check_modulus(p)
    inv, ncols = _smith_at(rows, cols, (-1, 1))
    return math.prod(inv), [_solutions_mod(inv, ncols, p) for p in ps]


def hom_count_to_cyclic(rows, cols, p, s, t="diag"):
    """Number of module maps to Z/p with t acting as the unit s.

    ``rows`` over ``cols`` present the module over Z[u^+-1, v^+-1] (``quotient_rows``, or a reduced
    matrix), and are only read.  The maps solve the rows at (u, v) = (s, 1) for ``t`` "v1" and
    (s, s) for "diag", mod p: one diagonal form (``_smith_at``).  p is any int from 2 to below MODULUS_LIMIT and s
    an int invertible mod p.
    """
    check_modulus(p, s)
    return _solutions_mod(*_smith_at(rows, cols, {"v1": (s, 1), "diag": (s, s)}[t], p), p)


# -- winding-family transfer criterion ----------------------------------

def transfer_matrix(n):
    """The color propagation matrix S (T S)^(n-1) U of the n-th winding, in closed form.

    With S = ((1, 2), (0, -1)), T = ((-1, 0), (2, 1)) and U = ((0, -1), (1, 2)),
    T S = I + N for N = ((-2, -2), (2, 2)), and N^2 = 0, so (T S)^(n-1) = I + (n-1) N.
    S U = ((2, 3), (-1, -2)) and S N U = ((2, 2), (-2, -2)) then give
    M(n) = S U + (n-1) S N U = ((2n, 2n+1), (1-2n, -2n)).  n is an int at least 1.
    """
    if not (is_int(n) and n >= 1):
        raise ValueError(f"n must be at least 1 and an int, not {n!r}")
    return ((2 * n, 2 * n + 1), (1 - 2 * n, -2 * n))


def transfer_condition(n, p):
    """True when distinct colors alpha, beta solve (a, b) M = (d, b) mod p.

    The second entry of (alpha, beta) M, M = transfer_matrix(n), is
    (2n+1) alpha - 2n beta, which is beta exactly when (2n+1)(alpha - beta) = 0 mod p.
    """
    transfer_matrix(n)  # checks n
    check_modulus(p)
    return math.gcd(2 * n + 1, p) > 1


# -- aggregate profile (move-invariance fuzzing) -------------------------


_KILLED_ENDS = {"none": (), "end-minus": (0,), "end-plus": (-1,), "ends": (0, -1)}  # --quotient's choices


def _killed_ends(long, quotient):
    """The ends that ``quotient`` kills, 0 for the minus end and -1 for the plus end."""
    if quotient != "none" and not long:
        raise ValueError("end quotients require a long diagram")
    if quotient not in _KILLED_ENDS:
        raise ValueError(f"unknown quotient {quotient!r}")
    return _KILLED_ENDS[quotient]


def _end_quotient(pres, quotient):
    """``pres`` with the end generators that ``quotient`` names killed."""
    ends = _killed_ends(pres.end_minus is not None, quotient)
    if not ends:
        return pres
    return quotient_kill(pres, {(pres.end_minus, pres.end_plus)[e][0][0] for e in ends})


def quotient_pipeline(d, quotient="none"):
    """Tietze-eliminated presentation of the requested end quotient, for display.

    With no quotient the first pass is read off the diagram.  A killed end
    erases letters, which makes first-family relations into first-pass
    candidates, so the end quotients take the generic ``tietze_eliminate``.
    """
    if quotient == "none":
        return tietze_from_diagram(d)
    return tietze_eliminate(_end_quotient(extended_presentation(d), quotient))


def _drop(rows, cols, gone):
    """Sparse rows, changed in place, and their columns, less the columns ``gone``."""
    for row in rows:
        for g in gone:
            row.pop(g, None)
    return rows, tuple(g for g in cols if g not in gone)


def quotient_rows(d, quotient="none"):
    """The rows of A(u, v) and their columns, less the end columns that ``quotient`` kills, unreduced."""
    rows, cols = merged_arc_rows(d)
    return _drop(rows, cols, {cols[e] for e in _killed_ends(d.kind == LONG, quotient)})


def quotient_matrix(d, quotient="none", t="uv"):
    """The unit-reduced module matrix of ``quotient``: its ``quotient_rows``, first sent to Z[u^+-1] by
    ``one_variable`` (``t`` "v1") or ``diagonal_t`` ("diag") unless ``t`` is "uv"; any other ``t`` is a KeyError."""
    m = quotient_rows(d, quotient)
    if t != "uv":
        m = {"v1": one_variable, "diag": diagonal_t}[t](*m)  # looked up per call, so a rebinding of either is seen
    return _reduce(*m)


def _profile_matrices(d):
    """The reduced matrices of ``invariant_profile``: ``none`` and, when ``d`` is long, ``end-minus``.

    One ``_reduce`` of A(u, v) with no pivot in column 0, which ``end-minus`` kills, serves both.  A row
    operation acts on each column on its own, so ``end-minus`` drops column 0 from a copy of the rows left
    (``_reduce`` changes rows in place) and reduces that, and ``none`` finishes on the rows themselves.
    """
    if d.kind != LONG:
        return {"none": quotient_matrix(d)}
    rows, cols = merged_arc_rows(d)
    rows, cols = _reduce(rows, cols, {cols[0]})
    minus = _reduce(*_drop([{g: dict(t) for g, t in row.items()} for row in rows], cols, {cols[0]}))
    return {"none": _reduce(rows, cols), "end-minus": minus}


def invariant_profile(d, max_minors=DEFAULT_MINOR_BUDGET):
    """The invariants expected to survive Reidemeister moves, as one dict.

    One reduction of A(u, v) serves both quotients (``_profile_matrices``),
    and the reduced ``none`` matrix also serves the determinant and every
    coloring count (``coloring_count``).
    """
    profile = {}
    for quotient, mat in _profile_matrices(d).items():
        if quotient == "none":
            det, colorings = coloring_count(*mat, PROFILE_MODULI)
        for k in (0, 1):
            profile[f"charpoly k={k} quotient={quotient}"] = str(char_poly(*mat, k, max_minors=max_minors))
    if d.kind == LONG:
        profile["determinant"] = det
    for p, count in zip(PROFILE_MODULI, colorings):
        profile[f"colorings p={p}"] = count
    return profile
