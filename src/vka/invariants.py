"""Module invariants: minors, characteristic polynomials, determinants,
Smith normal form, colorings, homomorphism counts and the winding-family
transfer criterion.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, combinations
from typing import NamedTuple

from .alexander import (
    _reduce,
    extended_presentation,
    merged_arc_rows,
    one_var_matrix,
    quotient_kill,
    tietze_eliminate,
    tietze_from_diagram,
)
from .diagram import LONG
from .laurent import UV, TVAR, LaurentPoly, _least, gcd_many, pack, unpack

DEFAULT_MINOR_BUDGET = 200000
PROFILE_MODULI = (3, 5, 7)  # the coloring counts of ``invariant_profile``


class BudgetExceeded(RuntimeError):
    """A computation would exceed the configured resource budget."""


# -- exact determinants and minors -------------------------------------

RING_VARS = {"L2": UV, "L1": TVAR}  # the Laurent rings; "Z" has plain ints


def det_exact(rows):
    """Fraction-free (Bareiss) determinant of a square integer matrix.

    The entry of a 1x1 matrix is returned as it is, over any ring.
    """
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


def _kronecker(rows, size, vars):
    """Integer images of a Laurent matrix and the decoder of its minors.

    Each row, and then each column, is divided by the monomial of its
    least exponents, so that every entry is a polynomial; the minors pick
    the shifts of their rows and columns back up.  The entries are then
    mapped by ``laurent.pack``: u -> X = 2^B, v -> X^D (t -> X in one
    variable).  That map is a ring homomorphism, so an integer minor is
    the image of the polynomial minor.  A minor's coefficients are at
    most the product of its rows' 1-norms, below 2^(B-1), and its u-degree
    is at most the sum of its rows' u-degrees, below D, so
    ``laurent.unpack`` reads its coefficients off the balanced base-X
    digits of the image, exponent (a, b) at digit a + D*b.
    """
    nvars = len(vars)
    lows = [[p.min_exps() if p else None for p in row] for row in rows]
    row_low = [_least([e for e in row if e], nvars) for row in lows]
    col_low = [
        _least([tuple(map(operator.sub, row[j], rlow)) for row, rlow in zip(lows, row_low) if row[j]], nvars)
        for j in range(len(rows[0]))
    ]
    offsets = [[tuple(map(operator.add, rlow, clow)) for clow in col_low] for rlow in row_low]
    norms = [sum(abs(c) for p in row for c in p.terms.values()) for row in rows]
    B = math.prod(sorted(norms)[-size:]).bit_length() + 1
    D = 1
    if nvars == 2:
        degrees = [
            max((max(p.terms)[0] - o[0] for p, o in zip(row, offs) if p), default=0)
            for row, offs in zip(rows, offsets)
        ]
        D = sum(sorted(degrees)[-size:]) + 1
    packed = [[pack(p, o, B, D) for p, o in zip(row, offs)] for row, offs in zip(rows, offsets)]

    def decode(x, rs, cs):
        shift = tuple(map(sum, zip(*[row_low[i] for i in rs], *[col_low[j] for j in cs])))
        return unpack(x, B, D, vars, shift)

    return packed, decode


def _minors(m, k, max_minors):
    """Yield the minors of size (columns - k), after the budget check.

    Size zero (k >= columns) yields 1; a size exceeding the row count
    yields nothing (the zero ideal).  A Laurent matrix is packed into
    integers once, and every minor of size 2 or more is an integer
    Bareiss determinant, decoded.
    """
    nrows, ncols = m.shape
    size = ncols - k
    vars = RING_VARS.get(m.ring)
    if size <= 0:
        yield 1 if vars is None else LaurentPoly.const(vars, 1)
        return
    if size > nrows:
        return
    count = math.comb(nrows, size) * math.comb(ncols, size)
    if count > max_minors:
        raise BudgetExceeded(f"{count} minors of size {size} exceed budget {max_minors}")
    rows, decode = m.rows, None
    if vars is not None and size > 1:  # a 1x1 minor is its entry, over any ring
        rows, decode = _kronecker(rows, size, vars)
    for rs in combinations(range(nrows), size):
        picked = [rows[i] for i in rs]
        for cs in combinations(range(ncols), size):
            det = det_exact([[row[j] for j in cs] for row in picked])
            yield det if decode is None else decode(det, rs, cs)


def elementary_minors(m, k, max_minors=DEFAULT_MINOR_BUDGET):
    """All minors of size (columns - k); the generators of the k-th ideal."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return list(_minors(m, k, max_minors))


def char_poly(m, k, max_minors=DEFAULT_MINOR_BUDGET):
    """Canonical gcd of the k-th ideal's minors (0 for the empty list)."""
    if m.ring not in RING_VARS:
        raise ValueError("char_poly expects a Laurent presentation matrix")
    vars = RING_VARS[m.ring]
    minors = elementary_minors(m, k, max_minors=max_minors)
    return gcd_many(minors, vars=vars)


# -- integer linear algebra --------------------------------------------


def smith_normal_form(rows):
    """Smith invariants d1 | d2 | ... >= 0 of an integer matrix, min(rows, columns) of them.

    The nonzero entry of least absolute value is the pivot, and it reduces
    the other entries of its row and column to remainders.  Once no
    remainder is left, its absolute value is a diagonal entry, and its row
    and column are deleted.  When no nonzero entry is left, the invariants
    not reached are 0.  Then each pair (d_i, d_j), i < j, becomes
    (gcd, lcm), giving the divisor chain, zeros last.
    """
    A = [list(r) for r in rows]
    size = min(len(A), len(A[0]) if A else 0)
    d = []
    while any(flat := list(chain.from_iterable(A))):
        i, j = divmod(flat.index(min(filter(None, flat), key=abs)), len(A[0]))
        pr = A[i]
        p = pr[j]
        for n, r in enumerate(A):
            if r[j] and n != i:
                q = r[j] // p
                A[n] = [a - q * b for a, b in zip(r, pr)]
        for c, x in enumerate(pr):
            if x and c != j:
                q = x // p
                for r in A:
                    r[c] -= q * r[j]
        if pr.count(0) + 1 == len(pr) and [r[j] for r in A].count(0) + 1 == len(A):  # no remainder left
            d.append(abs(p))
            del A[i]
            for r in A:
                del r[j]
    d += [0] * (size - len(d))
    for i in range(size):
        for j in range(i + 1, size):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return tuple(d)


def _solutions_mod(inv, ncols, p):
    """Solutions of M x = 0 mod p, for any p >= 2, from M's Smith invariants.

    For a prime p this is p^(ncols - rank of M mod p).
    """
    return p ** (ncols - len(inv)) * math.prod(math.gcd(d, p) for d in inv)


# Miller-Rabin bases: the first 13 primes.  The smallest strong pseudoprime
# to all of them is MR_LIMIT (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981


def is_prime(p):
    """Deterministic Miller-Rabin primality test, exact for p < MR_LIMIT."""
    if p >= MR_LIMIT:
        raise ValueError(f"primality of p >= {MR_LIMIT} is not certified")
    if p < 2:
        return False
    for q in MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_modulus(p, s=None):
    """Raise ValueError unless p is a coloring modulus (at least 2) or,
    given the unit s of a hom count, a prime with s invertible mod p."""
    if s is None:
        if p < 2:
            raise ValueError("modulus must be at least 2")
    elif not is_prime(p):
        raise ValueError("p must be prime")
    elif s % p == 0:
        raise ValueError("s must be invertible mod p")


# -- knot determinant and colorings ------------------------------------


def determinant_long(d):
    """gcd of the maximal minors of the merged arc matrix A(-1), from ``coloring_reports``."""
    if d.kind != LONG:
        raise ValueError("determinant is defined for long diagrams")
    return coloring_reports(quotient_matrix(d), ())[0]


def unit_minor_check(d, max_minors=DEFAULT_MINOR_BUDGET):
    """True when every maximal minor of the merged matrix A(1) is +-1.

    This holds for every diagram.  At t = 1 a crossing's row is UO - UI,
    and the under passage it records joins two consecutive columns, so A(1)
    is the incidence matrix of a path (long diagram) or a cycle (closed).
    Deleting one column of a path, or one row and one column of a cycle,
    leaves the incidence matrix of a tree less one vertex's column, whose
    determinant is +-1.
    """
    return all(x in (1, -1) for x in _minors(one_var_matrix(d, 1), 1, max_minors))


class ColoringReport(NamedTuple):
    p: int
    count: int
    nontrivial: bool


def coloring_reports(m, ps):
    """The gcd of the maximal minors of ``m`` at (u, v) = (-1, 1), and a report per modulus in ``ps``.

    ``m`` is the reduced ``none`` matrix (``quotient_matrix``).  At (-1, 1)
    A(u, v) is -A(-1) up to row signs and each ``_reduce`` pivot is +-1, so
    the colorings mod p are the solutions of one small Smith form
    (``_solutions_mod``).  A long diagram's ``m`` is r x (r+1), as A(1) has
    unit maximal minors, so the gcd is the determinant (README).
    """
    for p in ps:
        check_modulus(p)
    at = [[sum(-c if a % 2 else c for (a, _), c in e.terms.items()) for e in row] for row in m.rows]
    inv = smith_normal_form(at)
    reports = []
    for p in ps:
        count = _solutions_mod(inv, len(m.cols), p)
        reports.append(ColoringReport(p=p, count=count, nontrivial=count > p))
    return math.prod(inv), reports


def coloring_count(d, ps):
    """One report per modulus in ``ps`` (input order, duplicates kept).

    A coloring mod p labels the arcs over Z/p with 2*over = under + under
    at every crossing.  All moduli share one Smith form of the reduced
    A(u, v) at (-1, 1) (``coloring_reports``).
    """
    return coloring_reports(quotient_matrix(d), ps)[1] if ps else []


def hom_count_to_cyclic(m, p, s):
    """Number of module maps to Z/p with t acting as the unit s.

    They are the solutions of M(s) x = 0 mod p, counted from the Smith form
    of M(s) as the colorings are.  p must be a prime below MR_LIMIT, where
    ``is_prime`` is exact and the Smith form's integers stay small.
    """
    if m.ring != "L1":
        raise ValueError("hom counting expects an L1 matrix")
    check_modulus(p, s)
    inv = smith_normal_form([[e.subs_mod((s,), p) for e in row] for row in m.rows])
    return _solutions_mod(inv, len(m.cols), p)


# -- winding-family transfer criterion ----------------------------------

TRANSFER_S = ((1, 2), (0, -1))
TRANSFER_T = ((-1, 0), (2, 1))
TRANSFER_U = ((0, -1), (1, 2))


def _mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def transfer_matrix(n):
    """S (T S)^(n-1) U, the color propagation matrix of the n-th winding."""
    m = TRANSFER_S
    ts = _mat2_mul(TRANSFER_T, TRANSFER_S)
    for _ in range(n - 1):
        m = _mat2_mul(m, ts)
    return _mat2_mul(m, TRANSFER_U)


def transfer_condition(n, p):
    """True when distinct colors alpha, beta solve (a, b) M = (d, b) mod p.

    M = transfer_matrix(n); the matrix equation reduces to
    (2n+1)(alpha - beta) = 0 mod p.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
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
    return quotient_kill(pres, {(pres.end_minus, pres.end_plus)[e][0].gen for e in ends})


def quotient_pipeline(d, quotient="none"):
    """Tietze-eliminated presentation of the requested end quotient, for display.

    With no quotient the first pass is read off the diagram.  A killed end
    erases letters, which makes first-family relations into first-pass
    candidates, so the end quotients take the generic ``tietze_eliminate``.
    """
    if quotient == "none":
        return tietze_from_diagram(d)
    return tietze_eliminate(_end_quotient(extended_presentation(d), quotient))


def quotient_matrices(d, quotients):
    """A unit-reduced module matrix per end quotient in ``quotients``, from one reduction of A(u, v).

    An end quotient drops the columns of the ends it kills from the merged
    arc matrix A(u, v), which has the elementary ideals of the abelianized
    presentation; no word elimination runs.  One ``_reduce`` takes no pivot
    in the columns that only some quotients kill.  A row operation acts on
    each column on its own, so each quotient drops its columns from the
    rows left and finishes there with the Fitting ideals it would have had.
    """
    rows, cols = merged_arc_rows(d)
    killed = {q: {cols[e] for e in _killed_ends(d.kind == LONG, q)} for q in quotients}
    common = set.intersection(*killed.values())
    keep = set.union(*killed.values()) - common
    if common:
        rows = [{g: terms for g, terms in row.items() if g not in common} for row in rows]
    reduced = _reduce(rows, tuple(g for g in cols if g not in common), keep)
    if not keep:  # nothing is protected, so nothing is left to finish
        return dict.fromkeys(killed, reduced)
    (rows, cols), last, matrices = reduced, len(killed) - 1, {}
    for n, (q, own) in enumerate(killed.items()):
        # ``_reduce`` changes its rows' entries in place: the last quotient takes the shared ones
        rows_q = [{g: dict(t) if n < last else t for g, t in row.items() if g not in own} for row in rows]
        matrices[q] = _reduce(rows_q, tuple(g for g in cols if g not in own))
    return matrices


def quotient_matrix(d, quotient="none"):
    """The unit-reduced module matrix of the requested end quotient (``quotient_matrices``)."""
    return quotient_matrices(d, (quotient,))[quotient]


def invariant_profile(d, max_minors=DEFAULT_MINOR_BUDGET):
    """The invariants expected to survive Reidemeister moves, as one dict.

    One reduction of A(u, v) serves both quotients, and the reduced
    ``none`` matrix also serves the determinant and every coloring count
    (``coloring_reports``).
    """
    profile = {}
    for quotient, mat in quotient_matrices(d, ("none", "end-minus") if d.kind == LONG else ("none",)).items():
        if quotient == "none":
            det, colorings = coloring_reports(mat, PROFILE_MODULI)
        for k in (0, 1):
            value = char_poly(mat, k, max_minors=max_minors)
            profile[f"charpoly k={k} quotient={quotient}"] = str(value)
    if d.kind == LONG:
        profile["determinant"] = det
    for rep in colorings:
        profile[f"colorings p={rep.p}"] = rep.count
    return profile
