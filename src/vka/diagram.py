"""Gauss codes for long and closed virtual knot diagrams.

A diagram is a sequence of classical-crossing passages, each tagged with a
crossing id, an over/under role and a sign.  Virtual crossings leave no
trace in a Gauss code (any arc through them can be rerouted), so they are
not represented.  Long diagrams read the sequence linearly, closed ones
cyclically.  The text format, one diagram per file, is the grammar that
``parse_gauss`` states.
"""

from __future__ import annotations

import re

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


def _token(passage):
    """The Gauss-code token ``[OU]<id>[+-]`` of a (crossing id, role, sign) triple."""
    cid, role, sign = passage
    return f"{role}{cid}{'+' if sign > 0 else '-'}"


def is_int(x):
    """True for an int that is not a bool (nor any other subclass of int).

    Crossing ids (at least 1), signs (1 or -1) and move positions are such
    ints.  ``True == 1`` and ``1.0 == 1``, so a range check alone would let
    bools and floats through.
    """
    return type(x) is int


def _raise_crossing_error(ids, passages):
    """Raise for the first crossing of ``ids`` (the given ids, in ``passages`` renumbered in order) that is
    not two passages of opposite roles and one sign."""
    found = {}
    for crossing, role, sign in passages:
        found.setdefault(crossing, []).append((role, sign))
    for cid, ps in zip(ids, found.values()):
        if len(ps) != 2:
            raise GaussCodeError(f"crossing {cid} appears {len(ps)} times, expected 2")
        (role_a, sign_a), (role_b, sign_b) = ps
        if role_a == role_b:
            raise GaussCodeError(f"crossing {cid} has two {role_a} passages")
        if sign_a != sign_b:
            raise GaussCodeError(f"crossing {cid} has mismatched signs")


def _renumbered(passages):
    """Valid ``passages`` with their ids renumbered to first-appearance order, as ``Diagram`` stores them."""
    ids = {}
    return tuple((ids.setdefault(cid, len(ids) + 1), role, sign) for cid, role, sign in passages)


class Diagram:
    """A validated Gauss code, ids normalized to first-appearance order."""

    __slots__ = ("kind", "passages")

    def __init__(self, kind, passages):
        """Check (crossing id, role, sign) triples and store them renumbered, as plain tuples, in one pass."""
        if kind not in (LONG, CLOSED):
            raise GaussCodeError(f"unknown diagram kind {kind!r}")
        ids, out, paired = {}, [], True  # ids: crossing id -> its first passage, renumbered
        for p in passages:
            try:
                cid, role, sign = p
            except (TypeError, ValueError):  # not a triple: fails the check below
                cid = role = sign = None
            # is_int(cid) and is_int(sign), inlined: exact ints, not bools or floats
            if not (role in (OVER, UNDER) and type(cid) is type(sign) is int and sign in (1, -1) and cid >= 1):
                raise GaussCodeError(f"bad passage {p!r} at position {len(out)}")
            first = ids.get(cid)
            if first is None:
                first = ids[cid] = (len(ids) + 1, role, sign)
                out.append(first)
            else:
                paired = paired and first[1] != role and first[2] == sign
                out.append((first[0], role, sign))
        # with each later passage of a crossing paired with its first, all distinct means at most two a crossing
        if not (paired and len(out) == 2 * len(ids) == len(set(out))):
            _raise_crossing_error(ids, out)
        self.kind = kind
        self.passages = tuple(out)

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
        ps = self.passages
        return (self.kind, min((_renumbered(ps[r:] + ps[:r]) for r in range(len(ps))), default=()))

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"Diagram({self.kind}: {' '.join(map(_token, self.passages))})"


MAX_ID_DIGITS = 4300  # the longest crossing id, in digits
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")  # the line ends of str.splitlines
_HEADER = re.compile(r"\s*closed(?!\S)")
_WORD = re.compile(rf"([OU])([1-9][0-9]{{0,{MAX_ID_DIGITS - 1}}})([+-])(?!\S)|\S+")
_TOKEN = re.compile(r"[OU]([1-9][0-9]*)[+-]")


def parse_gauss(text):
    """Parse Gauss-code text into a Diagram.

    The grammar, with words separated by whitespace (any, CRLF and the
    other line ends of ``str.splitlines`` included)::

        code  := "closed"? token*
        token := [OU] [1-9] [0-9]* [+-]

    ``#`` starts a comment that runs to the end of its line.  A token is a
    passage: role, crossing id and sign; its id has at most
    ``MAX_ID_DIGITS`` digits.  ``closed``, only as the first word, makes
    the diagram closed, else it is long.  The first word outside the
    grammar raises GaussCodeError with its line and column; passages that
    do not make a diagram raise it without them, as ``Diagram`` does.
    """
    if "#" in text:
        text = _COMMENT.sub(lambda m: " " * len(m[0]), text)  # as long as the comment, so positions stay
    header = _HEADER.match(text)
    start = header.end() if header else 0
    try:
        triples = [(int(digits), role, 1 if sign == "+" else -1) for role, digits, sign in _WORD.findall(text, start)]
    except ValueError:  # a bad word, or an id longer than int() converts here
        triples = list(_checked_triples(text, start))
    return Diagram(CLOSED if header else LONG, triples)


def _checked_triples(text, start):
    """The passages of the words from ``start`` on, one word at a time, or GaussCodeError at the first bad one."""
    for match in _WORD.finditer(text, start):
        word = match[0]
        token = _TOKEN.fullmatch(word)
        if token is None or len(token[1]) > MAX_ID_DIGITS:
            lines = text[:match.start() + 1].splitlines()
            message = f"malformed token {word!r}" if token is None else f"crossing id of {len(token[1])} digits"
            raise GaussCodeError(message, len(lines), len(lines[-1]))
        yield _int(token[1]), word[0], 1 if word[-1] == "+" else -1


def _int(digits):
    """``int(digits)`` under any limit of ``sys.set_int_max_str_digits``, which is 0 or at least 640."""
    return int(digits) if len(digits) <= 640 else _int(digits[:-640]) * 10 ** 640 + int(digits[-640:])


def serialize_gauss(d):
    """Render a Diagram in the normalized text format; inverse of parse_gauss."""
    body = " ".join(map(_token, d.passages))
    if d.kind == CLOSED:
        return "closed\n" + body if body else "closed"
    return body


def concatenate(d1, d2):
    """Join two long diagrams end to end."""
    if d1.kind != LONG or d2.kind != LONG:
        raise ValueError("concatenation requires long diagrams")
    offset = d1.crossings
    return Diagram(LONG, d1.passages + tuple((cid + offset, role, sign) for cid, role, sign in d2.passages))


def close(d):
    """Join the two ends of a long diagram."""
    if d.kind != LONG:
        raise ValueError("can only close a long diagram")
    return Diagram(CLOSED, d.passages)


def switch_all_crossings(d):
    """Reverse every classical crossing: swap over/under and negate signs."""
    return Diagram(d.kind, [(cid, UNDER if role == OVER else OVER, -sign) for cid, role, sign in d.passages])


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
    if not (is_int(n) and n >= 1):
        raise ValueError(f"n must be at least 1 and an int, not {n!r}")
    offset = 2 * n
    forward = []
    unders = []
    overs = []
    for i in range(1, n + 1):
        forward.append((2 * i - 1, OVER, 1))
        forward.append((2 * i, UNDER, -1))
        unders.append((2 * i - 1, UNDER, 1))
        overs.append((2 * i, OVER, -1))
    unders.reverse()
    overs.reverse()
    middle = [(cid + offset, role, sign) for cid, role, sign in base.passages]
    return Diagram(LONG, forward + unders + middle + overs)


TRIVIAL_LONG = Diagram(LONG, ())
UNKNOT = Diagram(CLOSED, ())
