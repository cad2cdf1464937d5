"""Exact Laurent polynomial arithmetic over the integers.

The package computes in one ring, Z[u,v] with both variables invertible;
its one-variable specializations lie in Z[u], and the CLI prints those
images in t.  A polynomial is a map from integer exponent pairs (a, b),
for u^a v^b, to nonzero coefficients; all arithmetic is exact, with
arbitrary-precision integers.
"""

from __future__ import annotations

import heapq
import math
import operator
import re

UV = ("u", "v")  # the names ``str`` writes and ``parse_poly`` reads


class InexactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _mono_key(exps):
    # graded-lex, first variable strongest
    return exps[0] + exps[1], exps


def _least(vectors):
    """Componentwise minimum of a collection of exponent pairs ((0, 0) when empty)."""
    return tuple(map(min, zip(*vectors))) if vectors else (0, 0)


class LaurentPoly:
    """Immutable Laurent polynomial in u and v with integer coefficients.

    ``terms`` maps exponent pairs (a, b), for u^a v^b, to nonzero
    coefficients; ``LaurentPoly()`` is zero.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            exps = tuple(map(operator.index, exps))
            if len(exps) != 2:
                raise ValueError(f"exponent {exps} is not a pair")
            coeff = operator.index(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def _raw(cls, terms):
        """Internal constructor: terms must already be clean (no zeros)."""
        self = object.__new__(cls)
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    # -- basic queries -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_unit(self):
        """True for +-(monomial), the units of the Laurent ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    @property
    def is_one(self):
        return self.terms == {(0, 0): 1}

    def min_exps(self):
        """Componentwise minimum exponent pair ((0, 0) if p = 0)."""
        return _least(self.terms)

    def max_degree(self, k):
        if not self.terms:
            return 0
        return max(e[k] for e in self.terms)

    def content(self):
        """gcd of the integer coefficients, nonnegative."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
        return g

    # -- ring operations ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = terms.get(e, 0) + c
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return LaurentPoly._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    del terms[e]
        return LaurentPoly._raw(terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inverse(self):
        if not self.is_unit:
            raise ZeroDivisionError(f"{self} is not a unit")
        ((a, b), coeff), = self.terms.items()
        return LaurentPoly._raw({(-a, -b): coeff})

    def shift(self, exps):
        """Multiply by the monomial u^a v^b, (a, b) = exps."""
        du, dv = exps
        return LaurentPoly._raw({(a + du, b + dv): c for (a, b), c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if all(e == (0, 0) for e in self.terms):  # a constant, zero included, equals its int
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    # -- canonical form ----------------------------------------------

    def canonical(self):
        """The distinguished associate under multiplication by +-x^e.

        Exponents are shifted so each variable's minimum exponent is 0,
        and the sign is fixed so the lexicographically greatest monomial
        (u strongest) has a positive coefficient.
        canonical(0) = 0; idempotent.
        """
        return _primitive(self, 1) if self.terms else self

    # -- rendering / parsing -----------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_mono_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(UV, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly(u.v: {self})"


_FACTOR = re.compile(r"\s*(?:([0-9]+)|([A-Za-z]\w*)(?:\s*\^\s*(-?)\s*([0-9]+))?)")
_JOINER = re.compile(r"\s*([-+*]?)")


def parse_poly(text):
    """Parse polynomial text, the format ``str()`` writes.

    The grammar, with whitespace allowed between any two tokens::

        poly   := ("+" | "-")? term (("+" | "-") term)*
        term   := factor ("*" factor)*
        factor := digits | name ("^" "-"? digits)?

    where each name is ``u`` or ``v``.  Examples: ``u^2*v - u + 1``,
    ``u^-1 + 2``, ``0``.  Any other text, the empty text included, raises
    ValueError.
    """
    terms = []
    lead = _JOINER.match(text)
    # a leading "*" is left for the factor match to reject
    op, pos = ("", 0) if lead.group(1) == "*" else (lead.group(1), lead.end())
    while True:
        if op != "*":  # a term starts
            coeff, exps = -1 if op == "-" else 1, [0, 0]
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise ValueError(f"bad polynomial syntax at column {pos + 1} of {text!r}")
        digits, name, minus, power = factor.groups()
        if digits:
            coeff *= int(digits)
        elif name in UV:
            exps[UV.index(name)] += int(minus + power) if power else 1
        else:
            raise ValueError(f"unknown variable {name!r}")
        join = _JOINER.match(text, factor.end())
        op, pos = join.group(1), join.end()
        if op != "*":  # the term ends
            terms.append((exps, coeff))
        if not op:
            if pos < len(text):
                raise ValueError(f"bad polynomial syntax at column {pos + 1} of {text!r}")
            return LaurentPoly(terms)


# -- exact division ------------------------------------------------


def divexact(p, q):
    """Exact quotient p / q in the Laurent ring; raises InexactDivision."""
    if not isinstance(p, LaurentPoly):
        raise TypeError("LaurentPoly expected")
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    if not p:
        return p
    # Shift both operands into ordinary polynomials; monomials are units.
    pm, qm = p.min_exps(), q.min_exps()
    net = tuple(a - b for a, b in zip(pm, qm))
    rem = dict(p.shift(tuple(-e for e in pm)).terms)
    div = q.shift(tuple(-e for e in qm)).terms
    lead_q = max(div, key=_mono_key)
    # (-a - b, -a, -b, (a, b)) per remainder term (a, b): the least is the leading term
    heap = [(-a - b, -a, -b, (a, b)) for a, b in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        lead_r = heapq.heappop(heap)[3]
        if lead_r not in rem:  # cancelled since it was pushed
            continue
        e = (lead_r[0] - lead_q[0], lead_r[1] - lead_q[1])
        if e[0] < 0 or e[1] < 0:
            raise InexactDivision(f"{q} does not divide {p}")
        k, r = divmod(rem[lead_r], div[lead_q])
        if r:
            raise InexactDivision(f"{q} does not divide {p}")
        quot[e] = k
        for (a, b), cq in div.items():
            key = (e[0] + a, e[1] + b)
            val = rem.get(key, 0) - k * cq
            if val:
                if key not in rem:
                    heapq.heappush(heap, (-key[0] - key[1], -key[0], -key[1], key))
                rem[key] = val
            else:
                rem.pop(key, None)
    return LaurentPoly._raw(quot).shift(net)


def divides(q, p):
    """True when q divides p exactly (q | p)."""
    if not q:
        return not p
    try:
        divexact(p, q)
        return True
    except InexactDivision:
        return False


# -- Kronecker packing ------------------------------------------------


def pack(terms, low, B, D):
    """The integer image of p / u^lu v^lv, (lu, lv) = low, under u -> X = 2^B, v -> X^D.

    p is given by its term dict ``terms`` {(a, b): coeff}: a ``LaurentPoly``'s
    ``terms`` or an entry of a sparse row.  ``low`` is at most p's least
    exponents, so every shifted exponent is nonnegative.  The map is a ring
    homomorphism on polynomials, and ``unpack`` inverts it while the
    coefficients of p lie in [-2^(B-1), 2^(B-1)) and p / u^lu v^lv has
    u-degree below D.
    """
    lu, lv = low
    BD = B * D
    return sum(c << (a - lu) * B + (b - lv) * BD for (a, b), c in terms.items())


def unpack(x, B, D, low):
    """The polynomial whose ``pack`` with these arguments is x.

    The balanced base-2^B digits of x are the coefficients, each in
    [-2^(B-1), 2^(B-1)); digit n is the coefficient of u^(n mod D) v^(n // D),
    times u^lu v^lv, (lu, lv) = low.
    """
    base, half = 1 << B, 1 << (B - 1)
    mask = base - 1
    digits = []
    n = 0
    while x:
        c = x & mask
        if not c:  # skip the run of zero digits
            zeros = ((x & -x).bit_length() - 1) // B
            x >>= zeros * B
            n += zeros
            continue
        x >>= B
        if c >= half:
            c -= base
            x += 1
        digits.append((n, c))
        n += 1
    lu, lv = low
    return LaurentPoly._raw({(n % D + lu, n // D + lv): c for n, c in digits})


_HEU_MARGIN = 16  # bits of 2^B beyond the bound of the heuristic gcd


def _primitive(p, k=None):
    """The canonical form of p divided by its content k (p != 0; k is ``p.content()`` when not given)."""
    k = p.content() if k is None else k
    k = k if p.terms[max(p.terms)] > 0 else -k
    lu, lv = p.min_exps()
    return LaurentPoly._raw({(a - lu, b - lv): c // k for (a, b), c in p.terms.items()})


def _shift_v(p, c):
    """p(u, v + c), for p with nonnegative exponents."""
    return LaurentPoly([((a, k), x * math.comb(b, k) * c ** (b - k)) for (a, b), x in p.terms.items()
                        for k in range(b + 1)])


def _heuristic(prims, D, c):
    """GCDHEU's attempt c on ``prims`` (primitive, least exponents 0) at u-span bound D: their gcd, or None.

    It runs on the A_i(u, v + c) less v^low, as ``gcd_many`` states; c = 0 copies nothing.
    """
    if c:
        images = [_shift_v(p, c) for p in prims]
        low = min(p.min_exps()[1] for p in images)  # v^low divides every image
        prims = [_primitive(p) for p in images]
    B = (2 * min(max(map(abs, p.terms.values())) for p in prims) + 1).bit_length() + (1 + c) * _HEU_MARGIN
    h = math.gcd(*(pack(p.terms, (0, 0), B, D) for p in prims))
    j = ((h & -h).bit_length() - 1) // B
    if j and any(min(a + D * b for a, b in p.terms) < j for p in prims):
        return None
    g = _primitive(unpack(h, B, D, (0, 0)))
    if len(g.terms) > 1 and not all(p == g or divides(g, p) for p in prims):
        return None
    return _shift_v(g.shift((0, low)), -c).canonical() if c else g


def gcd_many(polys):
    """Canonical gcd of a collection; the empty collection has gcd 0.

    One nonzero input is its own gcd.  For more, Gauss's lemma (primitive
    times primitive is primitive) makes the gcd G = gcd(A_i) times the gcd
    of the contents, A_i the primitive parts of the nonzero inputs, and
    G = A when every A_i is one A.  Else GCDHEU (Char, Geddes and Gonnet,
    JSC 7, 1989) runs for c = 0, 1, 2, ... until an attempt is certified
    (``_heuristic``), at one D = 1 + the largest u-span.  Attempt c shifts
    the A_i by v -> v + c (c = 0 is the identity) and sets aside v^low, the
    highest power of v dividing all of them, leaving primitive Q_i.  Each
    Q_i is packed with 2^B > 2 min ||Q_i||_inf + 1 plus (1 + c)
    ``_HEU_MARGIN`` bits, h is the integer gcd of the images, and the
    candidate C is the primitive part of ``unpack(h)``.  C is gcd(Q_i) when
    X^j, the power of X = 2^B in h, divides every image as a polynomial
    and C is a monomial or divides every Q_i; then v^low C, shifted back
    by v -> v - c, is G.

    Exactness: v -> v + c is a ring automorphism that keeps u-exponents,
    so the A_i(u, v + c) = v^l_i Q_i are primitive with u-spans below D,
    and their gcd G(u, v + c) is v^low gcd(Q_i), low the least l_i.  Below
    u-span D, S: u -> X, v -> X^D keeps the terms of a Q_i and of its
    divisors apart, so P_i = S(Q_i) has the coefficients of Q_i, and
    h = k S(C)(2^B) with |k| <= 2^(B-1).  S(C) divides every P_i in Z[X],
    so their gcd H is S(C) e, and e(2^B) divides k.  A nonconstant e
    divides the P_i of least norm, whose roots lie below
    1 + ||P_i||_inf <= 2^(B-1) (Cauchy), so |e(2^B)| > 2^(B-1): e = +-1.
    C divides gcd(Q_i), whose image S divides H, so S(gcd(Q_i) / C) is
    +-X^r, and gcd(Q_i) / C, whose terms S keeps apart, is a unit.

    Termination: the cofactors A_i / G have gcd 1, so their common complex
    zeros are finitely many.  A zero (x0, y0) gives the images of the
    shifted cofactors a common root only where x0^D = y0 - c, for at most
    one c, so all but finitely many c give coprime cofactor images.  Then
    the integer gcd k of their values at 2^B divides a fixed nonzero
    integer of their ideal in Z[X] (Bezout).  That integer and
    ||G(u, v + c)||_inf grow like O(log c) bits, while B grows by
    c ``_HEU_MARGIN``, so some attempt has |k| ||G(u, v + c)||_inf < 2^(B-1),
    where ``unpack(h)`` is k gcd(Q_i) and its primitive part is certified.
    """
    nonzero = [p for p in polys if p]
    if len(nonzero) <= 1:
        return nonzero[0].canonical() if nonzero else LaurentPoly()
    contents = [p.content() for p in nonzero]
    prims = [_primitive(p, k) for p, k in zip(nonzero, contents)]  # least exponents 0
    g = prims[0]
    if any(p.terms != g.terms for p in prims):
        span = max(p.max_degree(0) for p in prims) + 1
        shift = 0
        while (g := _heuristic(prims, span, shift)) is None:
            shift += 1
    content = math.gcd(*contents)
    return g if content == 1 else LaurentPoly._raw({e: c * content for e, c in g.terms.items()})
