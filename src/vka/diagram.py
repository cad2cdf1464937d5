"""Gauss codes for long and closed virtual knot diagrams.

A diagram is a sequence of classical-crossing passages, each tagged with a
crossing id, an over/under role and a sign.  Virtual crossings leave no
trace in a Gauss code (any arc through them can be rerouted), so they are
not represented.  Long diagrams read the sequence linearly, closed ones
cyclically.

Text format (one diagram per file): an optional header line ``closed``,
then whitespace-separated tokens matching ``[OU][1-9][0-9]*[+-]``.
``#`` starts a comment running to the end of the line.
"""

from __future__ import annotations

import re
from typing import NamedTuple

LONG = "long"
CLOSED = "closed"

OVER = "O"
UNDER = "U"


class GaussCodeError(ValueError):
    """Invalid Gauss code text or passage sequence."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class Passage(NamedTuple):
    crossing: int
    role: str  # OVER or UNDER
    sign: int  # +1 or -1

    def __str__(self):
        """The Gauss-code token ``[OU]<id>[+-]``."""
        return f"{self.role}{self.crossing}{'+' if self.sign > 0 else '-'}"


def is_int(x):
    """True for an int that is not a bool (nor any other subclass of int).

    Crossing ids (at least 1), signs (1 or -1) and move positions are such
    ints.  ``True == 1`` and ``1.0 == 1``, so a range check alone would let
    bools and floats through.
    """
    return type(x) is int


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


class Diagram:
    """A validated Gauss code, ids normalized to first-appearance order."""

    __slots__ = ("kind", "passages")

    def __init__(self, kind, passages):
        if kind not in (LONG, CLOSED):
            raise GaussCodeError(f"unknown diagram kind {kind!r}")
        passages = tuple(passages)
        _validate(passages)
        self.kind = kind
        self.passages = _relabel(passages)

    @property
    def crossings(self):
        return len(self.passages) // 2

    @property
    def arc_count(self):
        if self.kind == LONG:
            return len(self.passages) + 1
        return len(self.passages) if self.passages else 1

    def canonical_key(self):
        if self.kind == LONG:
            return (self.kind, self.passages)
        if not self.passages:
            return (self.kind, ())
        n = len(self.passages)
        best = None
        for r in range(n):
            rot = _relabel(self.passages[r:] + self.passages[:r])
            if best is None or rot < best:
                best = rot
        return (self.kind, best)

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Diagram({self.kind}: {' '.join(map(str, self.passages))})"


_TOKEN_RE = re.compile(r"[OU][1-9][0-9]*[+-]$")


def parse_gauss(text):
    """Parse Gauss-code text into a Diagram."""
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
    return Diagram(kind, passages)


def serialize_gauss(d):
    """Render a Diagram in the normalized text format; inverse of parse_gauss."""
    body = " ".join(map(str, d.passages))
    if d.kind == CLOSED:
        return "closed\n" + body if body else "closed"
    return body


def concatenate(d1, d2):
    """Join two long diagrams end to end."""
    if d1.kind != LONG or d2.kind != LONG:
        raise ValueError("concatenation requires long diagrams")
    offset = d1.crossings
    shifted = [Passage(p.crossing + offset, p.role, p.sign) for p in d2.passages]
    return Diagram(LONG, d1.passages + tuple(shifted))


def close(d):
    """Join the two ends of a long diagram."""
    if d.kind != LONG:
        raise ValueError("can only close a long diagram")
    return Diagram(CLOSED, d.passages)


def switch_all_crossings(d):
    """Reverse every classical crossing: swap over/under and negate signs."""
    flipped = [
        Passage(p.crossing, UNDER if p.role == OVER else OVER, -p.sign) for p in d.passages
    ]
    return Diagram(d.kind, flipped)


def dn_family(base, n):
    """Wind a long diagram n times before threading through it.

    Inserts 2n classical crossings of alternating sign, one above and one
    below the base per winding, with the base code embedded unchanged just
    before the returning over-passes.  Each winding deepens the spiral: the
    strand alternates over/under on the way in, returns under the remaining
    upper crossings, threads the base, and exits over the lower ones.
    Joining the ends lets the windings cancel in pairs, so the closure is
    the base's closure; as a long diagram the windings are locked and force
    the (2n+1)-coloring condition.
    """
    if base.kind != LONG:
        raise ValueError("dn_family requires a long base diagram")
    if n < 1:
        raise ValueError("n must be at least 1")
    offset = 2 * n
    forward = []
    unders = []
    overs = []
    for i in range(1, n + 1):
        forward.append(Passage(2 * i - 1, OVER, 1))
        forward.append(Passage(2 * i, UNDER, -1))
        unders.append(Passage(2 * i - 1, UNDER, 1))
        overs.append(Passage(2 * i, OVER, -1))
    unders.reverse()
    overs.reverse()
    middle = [Passage(p.crossing + offset, p.role, p.sign) for p in base.passages]
    return Diagram(LONG, forward + unders + middle + overs)


TRIVIAL_LONG = Diagram(LONG, ())
UNKNOT = Diagram(CLOSED, ())
