"""Exact Laurent polynomial arithmetic over the integers.

Two coefficient rings are used throughout the package: Z[u,v] with both
variables invertible (two-variable arc-group modules) and Z[t] with t
invertible (one-variable specializations).  A polynomial is a map from
integer exponent vectors to nonzero coefficients; all arithmetic is exact,
with arbitrary-precision integers.
"""

from __future__ import annotations

import math
import operator
import re

UV = ("u", "v")
TVAR = ("t",)


class InexactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _mono_key(exps):
    # graded-lex, first variable strongest
    return (sum(exps), exps)


def _least(vectors, nvars):
    """Componentwise minimum of a collection of exponent vectors (zero when empty)."""
    return tuple(map(min, zip(*vectors))) if vectors else (0,) * nvars


class LaurentPoly:
    """Immutable Laurent polynomial with integer coefficients.

    ``vars`` names the variables (``("u", "v")`` or ``("t",)``); ``terms``
    maps exponent tuples to nonzero coefficients.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=()):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exps, coeff in items:
            exps = tuple(map(operator.index, exps))
            if len(exps) != n:
                raise ValueError(f"exponent {exps} has wrong arity for vars {self.vars}")
            coeff = operator.index(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    @classmethod
    def _raw(cls, vars, terms):
        """Internal constructor: terms must already be clean (no zeros)."""
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def monomial(cls, vars, exps, coeff=1):
        return cls(vars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_unit(self):
        """True for +-(monomial), the units of the Laurent ring."""
        return len(self.terms) == 1 and abs(next(iter(self.terms.values()))) == 1

    @property
    def is_one(self):
        zero_exp = (0,) * len(self.vars)
        return self.terms == {zero_exp: 1}

    def min_exps(self):
        """Componentwise minimum exponent vector (zero vector if p = 0)."""
        return _least(self.terms, len(self.vars))

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
            if other.vars != self.vars:
                raise ValueError(f"mixed variable sets {self.vars} and {other.vars}")
            return other
        if isinstance(other, int):
            return LaurentPoly.const(self.vars, other)
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
        return LaurentPoly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

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
        pair = len(self.vars) == 2
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                if pair:
                    e = (e1[0] + e2[0], e1[1] + e2[1])
                else:
                    e = tuple(a + b for a, b in zip(e1, e2))
                v = terms.get(e, 0) + c1 * c2
                if v:
                    terms[e] = v
                else:
                    del terms[e]
        return LaurentPoly._raw(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentPoly.const(self.vars, 1)
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
        (exps, coeff), = self.terms.items()
        return LaurentPoly(self.vars, {tuple(-e for e in exps): coeff})

    def shift(self, exps):
        """Multiply by the monomial x^exps."""
        return LaurentPoly._raw(self.vars, {tuple(a + b for a, b in zip(e, exps)): c for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        zero_exp = (0,) * len(self.vars)
        if all(e == zero_exp for e in self.terms):  # a constant, zero included, equals its int
            return hash(self.terms.get(zero_exp, 0))
        return hash((self.vars, frozenset(self.terms.items())))

    # -- canonical form ----------------------------------------------

    def canonical(self):
        """The distinguished associate under multiplication by +-x^e.

        Exponents are shifted so each variable's minimum exponent is 0,
        and the sign is fixed so the lexicographically greatest monomial
        (first variable strongest) has a positive coefficient.
        canonical(0) = 0; idempotent.
        """
        if not self.terms:
            return self
        mins = self.min_exps()
        terms = {tuple(a - b for a, b in zip(e, mins)): c for e, c in self.terms.items()}
        if terms[max(terms)] < 0:
            terms = {e: -c for e, c in terms.items()}
        return LaurentPoly._raw(self.vars, terms)

    # -- specializations ---------------------------------------------

    def subs_mod(self, images, m):
        """Evaluate in Z/m, each term by ``pow(image, e, m)``, which inverts the image when e < 0.

        Every image must be a unit mod m, whether or not an exponent of p is negative.
        """
        if m < 2:
            raise ValueError("modulus must be at least 2")
        for im in images:
            if math.gcd(im, m) != 1:
                raise ValueError(f"{im % m} is not a unit mod {m}")
        total = 0
        for exps, coeff in self.terms.items():
            for im, e in zip(images, exps):
                coeff = coeff * pow(im, e, m) % m
            total += coeff
        return total % m

    # -- rendering / parsing -----------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_mono_key, reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = "*".join([str(mag)] + factors)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({'.'.join(self.vars)}: {self})"


_FACTOR = re.compile(r"\s*(?:([0-9]+)|([A-Za-z]\w*)(?:\s*\^\s*(-?)\s*([0-9]+))?)")
_JOINER = re.compile(r"\s*([-+*]?)")


def parse_poly(text, vars=UV):
    """Parse polynomial text, the format ``str()`` writes.

    The grammar, with whitespace allowed between any two tokens::

        poly   := ("+" | "-")? term (("+" | "-") term)*
        term   := factor ("*" factor)*
        factor := digits | name ("^" "-"? digits)?

    where each name is one of ``vars``.  Examples: ``u^2*v - u + 1``,
    ``t^-1 + 2``, ``0``.  Any other text, the empty text included, raises
    ValueError.
    """
    vars = tuple(vars)
    terms = []
    lead = _JOINER.match(text)
    # a leading "*" is left for the factor match to reject
    op, pos = ("", 0) if lead.group(1) == "*" else (lead.group(1), lead.end())
    while True:
        if op != "*":  # a term starts
            coeff, exps = -1 if op == "-" else 1, [0] * len(vars)
        factor = _FACTOR.match(text, pos)
        if factor is None:
            raise ValueError(f"bad polynomial syntax at column {pos + 1} of {text!r}")
        digits, name, minus, power = factor.groups()
        if digits:
            coeff *= int(digits)
        elif name in vars:
            exps[vars.index(name)] += int(minus + power) if power else 1
        else:
            raise ValueError(f"unknown variable {name!r}")
        join = _JOINER.match(text, factor.end())
        op, pos = join.group(1), join.end()
        if op != "*":  # the term ends
            terms.append((exps, coeff))
        if not op:
            if pos < len(text):
                raise ValueError(f"bad polynomial syntax at column {pos + 1} of {text!r}")
            return LaurentPoly(vars, terms)


# -- exact division and gcd ------------------------------------------


def divexact(p, q):
    """Exact quotient p / q in the Laurent ring; raises InexactDivision."""
    if not isinstance(p, LaurentPoly):
        raise TypeError("LaurentPoly expected")
    if q.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero:
        return p
    # Shift both operands into ordinary polynomials; monomials are units.
    pm, qm = p.min_exps(), q.min_exps()
    net = tuple(a - b for a, b in zip(pm, qm))
    rem = dict(p.shift(tuple(-e for e in pm)).terms)
    div = q.shift(tuple(-e for e in qm)).terms
    lead_q = max(div, key=_mono_key)
    quot = {}
    while rem:
        lead_r = max(rem, key=_mono_key)
        e = tuple(a - b for a, b in zip(lead_r, lead_q))
        if any(x < 0 for x in e):
            raise InexactDivision(f"{q} does not divide {p}")
        c, d = rem[lead_r], div[lead_q]
        if c % d:
            raise InexactDivision(f"{q} does not divide {p}")
        k = c // d
        quot[e] = k
        for eq, cq in div.items():
            key = tuple(a + b for a, b in zip(e, eq))
            val = rem.get(key, 0) - k * cq
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return LaurentPoly(p.vars, quot).shift(net)


def divides(q, p):
    """True when q divides p exactly (q | p)."""
    if q.is_zero:
        return p.is_zero
    try:
        divexact(p, q)
        return True
    except InexactDivision:
        return False


def _coeffs_in(p, k):
    """Split p by the exponent of variable k: {e: coefficient poly}."""
    out = {}
    for exps, c in p.terms.items():
        e = exps[k]
        key = exps[:k] + (0,) + exps[k + 1:]
        out.setdefault(e, {})[key] = c
    return {e: LaurentPoly._raw(p.vars, t) for e, t in out.items()}


def _content(p, k):
    """gcd of p's coefficients in variable k, a polynomial in vars[0..k-1]."""
    g = LaurentPoly.zero(p.vars)
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
        shift = tuple((dr - dg) if i == k else 0 for i in range(len(f.vars)))
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
    while not h.is_zero:
        deg_h = h.max_degree(k)
        f, g, m, d = g, h, deg_h, m - deg_h
        b = -lc * c ** d
        h = divexact(_prem(f, g, k), b)
        lc = _coeffs_in(g, k)[m]
        c = divexact((-lc) ** d, c ** (d - 1)) if d > 1 else -lc
    return g


def _gcd_rec(p, q, k):
    """gcd, up to sign, of polynomials (nonnegative exponents) in vars[0..k]; integers at k = -1."""
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    if k < 0:
        return LaurentPoly.const(p.vars, math.gcd(p.content(), q.content()))
    cp, cq = _content(p, k), _content(q, k)
    cont_gcd = _gcd_rec(cp, cq, k - 1)
    f, g = divexact(p, cp), divexact(q, cq)
    if f.max_degree(k) < g.max_degree(k):
        f, g = g, f
    if not g.max_degree(k):  # g = 1: the primitive parts are coprime in variable k
        return cont_gcd
    tail = _subresultant_tail(f, g, k)
    return cont_gcd * divexact(tail, _content(tail, k))


def gcd(p, q):
    """Canonical gcd in the Laurent ring, integer content included."""
    if p.vars != q.vars:
        raise ValueError("mixed variable sets")
    if p.is_unit or q.is_unit:
        return LaurentPoly.const(p.vars, 1)
    pp = p.shift(tuple(-e for e in p.min_exps()))
    qq = q.shift(tuple(-e for e in q.min_exps()))
    return _gcd_rec(pp, qq, len(p.vars) - 1).canonical()


# -- Kronecker packing ------------------------------------------------


def pack(p, low, B, D):
    """The integer image of p / x^low under u -> X = 2^B, v -> X^D (t -> X).

    ``low`` is at most p's least exponents, so every shifted exponent is
    nonnegative; D is unused in one variable.  The map is a ring
    homomorphism on polynomials, and ``unpack`` inverts it while the
    coefficients of p lie in [-2^(B-1), 2^(B-1)) and p / x^low has u-degree
    below D.
    """
    if len(low) == 2:
        lu, lv = low
        BD = B * D
        return sum(c << (a - lu) * B + (b - lv) * BD for (a, b), c in p.terms.items())
    (lt,) = low
    return sum(c << (a - lt) * B for (a,), c in p.terms.items())


def unpack(x, B, D, vars, low):
    """The polynomial whose ``pack`` with these arguments is x.

    The balanced base-2^B digits of x are the coefficients, each in
    [-2^(B-1), 2^(B-1)); digit n is the coefficient of u^(n mod D) v^(n // D)
    (of t^n in one variable), times x^low.
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
    if len(low) == 1:
        return LaurentPoly._raw(vars, {(n + low[0],): c for n, c in digits})
    return LaurentPoly._raw(vars, {(n % D + low[0], n // D + low[1]): c for n, c in digits})


_HEU_MARGIN = 16  # bits of 2^B beyond the bound of the heuristic gcd


def _primitive(p):
    """The canonical form of p divided by its content (p != 0)."""
    k = p.content() if p.terms[max(p.terms)] > 0 else -p.content()
    low = p.min_exps()
    return LaurentPoly._raw(p.vars, {tuple(map(operator.sub, e, low)): c // k for e, c in p.terms.items()})


def gcd_many(polys, vars=None):
    """Canonical gcd of a collection; the empty collection has gcd 0.

    One nonzero input is its own gcd.  Otherwise GCDHEU (Char, Geddes and
    Gonnet, JSC 7, 1989) runs on the primitive parts A_i: each is packed
    with 2^B > 2 min ||A_i||_inf + 1 plus ``_HEU_MARGIN`` bits and
    D = 1 + the largest u-span, h is the integer gcd of the images, and
    the candidate C is the primitive part of ``unpack(h)``.  C, times the
    gcd of the contents, is the gcd when X^j, the power of X = 2^B in h,
    divides every image as a polynomial and C is a monomial or divides
    every A_i.  Else D + 1 is tried once, as v -> X^D can give images of
    coprime inputs a factor such as X - 1; then the subresultant loop runs.

    Exactness: below u-span D, S: u -> X, v -> X^D keeps the terms of an
    A_i and of its divisors apart, so P_i = S(A_i) has the coefficients of
    A_i, and h = k S(C)(2^B) with |k| <= 2^(B-1).  S(C) divides every P_i
    in Z[X], so their gcd H is S(C) c, and c(2^B) divides k.  A
    nonconstant c divides the P_i of least norm, whose roots lie below
    1 + ||P_i||_inf <= 2^(B-1) (Cauchy), so |c(2^B)| > 2^(B-1): c = +-1.
    C divides G = gcd(A_i) and S(G) divides H, so S(G / C) = +-X^r, and
    G / C, whose terms S keeps apart, is a unit.
    """
    polys = list(polys)
    if not polys:
        if vars is None:
            raise ValueError("vars required for an empty collection")
        return LaurentPoly.zero(vars)
    nonzero = [p for p in polys if p]
    if len(nonzero) <= 1:
        return (nonzero or polys)[0].canonical()
    vars = polys[0].vars
    content = math.gcd(*(p.content() for p in nonzero))
    prims = [_primitive(p) for p in nonzero]  # least exponents 0
    B = (2 * min(max(map(abs, p.terms.values())) for p in prims) + 1).bit_length() + _HEU_MARGIN
    span = max(p.max_degree(0) for p in prims) + 1
    zero = (0,) * len(vars)
    for D in (span, span + 1) if len(vars) == 2 else (1,):
        h = math.gcd(*(pack(p, zero, B, D) for p in prims))
        j = ((h & -h).bit_length() - 1) // B  # 0 in one variable, where every P_i(0) != 0
        if j and any(min(a + D * b for a, b in p.terms) < j for p in prims):
            continue
        candidate = _primitive(unpack(h, B, D, vars, zero))
        if len(candidate.terms) == 1 or all(p == candidate or divides(candidate, p) for p in prims):
            return candidate * content
    g = polys[0]
    for p in polys[1:]:
        g = gcd(g, p)
        if g.is_one:
            break
    return g.canonical()
