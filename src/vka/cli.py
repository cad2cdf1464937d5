"""Command-line front end.

Subcommands: parse, invariants, construct {concat,close,switch,dn}, color,
homcount, fuzz.  Exit codes: 0 success, 1 parse error, 2 invalid
configuration, 3 computation budget exceeded, 4 move-invariance failure.
JSON output carries ``"schema": 1`` and is byte-stable for identical runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import alexander, diagram, invariants, moves
from .diagram import GaussCodeError, parse_gauss, serialize_gauss
from .invariants import BudgetExceeded

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_UNSTABLE = 4

SCHEMA = 1
MAX_WINDINGS = 10_000  # dn builds 4n passages


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse_gauss(text)


def _emit(args, payload, text_lines):
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _check_coeff_budget(rows, max_bits):
    if max_bits is not None and any(abs(c).bit_length() > max_bits
                                    for row in rows for terms in row.values() for c in terms.values()):
        raise BudgetExceeded(f"coefficient exceeds {max_bits} bits")


def _at_least(low):
    """argparse type: an int no smaller than low (else exit 2)."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def cmd_parse(args):
    d = _load(args.input)
    payload = {
        "kind": d.kind,
        "crossings": d.crossings,
        "arcs": d.arc_count,
        "code": serialize_gauss(d),
    }
    _emit(args, payload, [serialize_gauss(d), f"# {d.kind}, {d.crossings} crossings, {d.arc_count} arcs"])
    return EXIT_OK


def _colorings(ps, counts):
    """JSON value and text lines of the coloring ``counts`` mod ``ps``."""
    items, lines = [], []
    for p, count in zip(ps, counts):
        items.append({"p": p, "count": count, "nontrivial": count > p})
        lines.append(f"p={p}: {count} colorings" + (" (nontrivial)" if count > p else ""))
    return (items[0] if len(items) == 1 else items), lines


def cmd_invariants(args):
    # checked before the diagram is read, so a bad request costs no elimination or minors
    if any(k < 0 for k in args.charpoly or ()):
        raise ValueError("k must be nonnegative")
    for p in args.color or ():
        invariants.check_modulus(p)
    if not (args.presentation or args.charpoly or args.det or args.color):
        raise ValueError("nothing requested: use --charpoly/--det/--color/--presentation")
    d = _load(args.input)
    if args.det and d.kind != diagram.LONG:
        raise ValueError("--det requires a long diagram")
    payload = {"input": args.input, "quotient": args.quotient}
    lines = []
    if args.presentation:
        pres = invariants.quotient_pipeline(d, args.quotient)
        payload["presentation"] = pres.to_json()
        if not args.json:  # --json prints no text lines
            lines.append(str(pres))
    if args.charpoly:
        # reduced on its own, so the budgets read the same with or without --det and --color
        mat = invariants.quotient_matrix(d, args.quotient, args.t)
        _check_coeff_budget(mat[0], args.max_coeff_bits)
        entries = []
        for k in args.charpoly:
            value = str(invariants.char_poly(*mat, k, max_minors=args.max_minors))
            if args.t != "uv":  # a polynomial in u alone, reported over Z[t^+-1] with u written as t
                value = value.replace("u", "t")
            entries.append({"k": k, "ring": "L2" if args.t == "uv" else "L1", "value": value})
            lines.append(value)
        payload["charpoly"] = entries[0] if len(entries) == 1 else entries
    if args.det or args.color:
        # A(u, v) at (-1, 1) whatever --quotient and --t say: --charpoly's rows if "none" and not "diag" (v = 1 there)
        rows, cols = (mat if args.charpoly and args.quotient == "none" and args.t != "diag"
                      else alexander.merged_arc_rows(d))
        det, colorings = invariants.coloring_count(rows, cols, args.color or ())
        if args.det:
            payload["determinant"] = det
            lines.append(str(det))
        if colorings:
            payload["colorings"], color_lines = _colorings(args.color, colorings)
            lines += color_lines
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_construct(args):
    if args.op == "concat":
        if not args.other:
            raise ValueError("concat requires two diagrams")
        out = diagram.concatenate(_load(args.input), _load(args.other))
    elif args.other is not None and args.op != "dn":
        raise ValueError(f"{args.op} takes one diagram, not {args.other!r} too")
    elif args.op == "close":
        out = diagram.close(_load(args.input))
    elif args.op == "switch":
        out = diagram.switch_all_crossings(_load(args.input))
    else:  # dn; argparse rejects any other op
        try:
            n = int(args.other)
        except (TypeError, ValueError):
            raise ValueError("dn requires a winding count") from None
        if not 1 <= n <= MAX_WINDINGS:
            raise ValueError(f"dn requires a winding count from 1 to {MAX_WINDINGS}")
        out = diagram.dn_family(_load(args.input), n)
    text = serialize_gauss(out)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n" if text else text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from exc
    else:
        _emit(args, {"code": text, "crossings": out.crossings}, [text])
    return EXIT_OK


def cmd_color(args):
    for p in args.p:  # before the diagram is read, as in cmd_invariants
        invariants.check_modulus(p)
    d = _load(args.input)
    payload = {"input": args.input}
    payload["colorings"], lines = _colorings(args.p, invariants.coloring_count(*alexander.merged_arc_rows(d), args.p)[1])
    if args.matrix and args.json:
        rows, cols = alexander.one_var_matrix(d)
        payload["matrix"] = {"columns": list(cols), "rows": rows}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_homcount(args):
    invariants.check_modulus(args.p, args.s)  # before the diagram is read
    d = _load(args.input)
    count = invariants.hom_count_to_cyclic(*invariants.quotient_rows(d, args.quotient), args.p, args.s, args.t)
    _emit(args, {"input": args.input, "p": args.p, "s": args.s, "quotient": args.quotient, "count": count}, [str(count)])
    return EXIT_OK


def cmd_fuzz(args):
    d = _load(args.input)
    baseline = invariants.invariant_profile(d, max_minors=args.max_minors)
    walks = []
    for w in range(args.walks):
        seed = args.seed + w
        walked = moves.random_walk(d, seed, args.steps, max_crossings=args.max_crossings)
        profile = invariants.invariant_profile(walked, max_minors=args.max_minors)
        if profile != baseline:
            drift = sorted(k for k in baseline if profile.get(k) != baseline[k])
            payload = {
                "input": args.input,
                "seed": seed,
                "steps": args.steps,
                "stable": False,
                "changed": drift,
            }
            _emit(args, payload, [f"INVARIANCE FAILURE at seed {seed}: {', '.join(drift)}"])
            return EXIT_UNSTABLE
        walks.append(seed)
    payload = {
        "input": args.input,
        "seeds": walks,
        "steps": args.steps,
        "stable": True,
    }
    _emit(args, payload, ["OK (invariants stable)"])
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vka",
        description="Alexander-type invariants of long and closed virtual knots from Gauss codes.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--max-minors", type=_at_least(0), default=invariants.DEFAULT_MINOR_BUDGET,
                        help="abort (exit 3) beyond this many minor evaluations in --charpoly "
                             "or in the char polys of fuzz, counted on the unit-reduced module "
                             "matrix; --det uses none")
    parser.add_argument("--max-coeff-bits", type=_at_least(0), default=None,
                        help="abort (exit 3) when an entry of the --charpoly input matrix (reduced after --quotient "
                             "and --t) has a coefficient longer than this many bits")
    # not required: _args parses the options before the command without it, and reports a missing command itself
    sub = parser.add_subparsers(dest="command")
    parser.commands = sub.choices  # command name -> its parser, for _args

    p = sub.add_parser("parse", help="validate and normalize a Gauss code")
    p.add_argument("input")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("invariants", help="characteristic polynomials, determinant, colorings")
    p.add_argument("input")
    p.add_argument("--charpoly", type=int, action="append", metavar="K",
                   help="characteristic polynomial of the K-th ideal (repeatable)")
    p.add_argument("--quotient", choices=list(invariants._KILLED_ENDS), default="none")
    p.add_argument("--t", choices=["uv", "v1", "diag"], default="uv",
                   help="coefficients: two-variable, v=1, or u=v=t")
    p.add_argument("--det", action="store_true", help="knot determinant")
    p.add_argument("--color", type=int, action="append", metavar="P", help="coloring count mod P")
    p.add_argument("--presentation", action="store_true", help="print the eliminated presentation")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("construct", help="concatenate, close, switch, or wind diagrams")
    p.add_argument("op", choices=["concat", "close", "switch", "dn"])
    p.add_argument("input")
    p.add_argument("other", nargs="?", help="second diagram (concat) or winding count (dn)")
    p.add_argument("-o", "--output", help="write the result to a file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("color", help="coloring report for one or more moduli")
    p.add_argument("input")
    p.add_argument("-p", type=int, action="append", required=True, help="modulus (repeatable)")
    p.add_argument("--matrix", action="store_true", help="include the coloring matrix -A(-1) as sparse rows (JSON)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("homcount", help="count module maps to Z/p with t acting as s")
    p.add_argument("input")
    p.add_argument("-p", type=int, required=True, help="modulus, at least 2")
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--quotient", choices=list(invariants._KILLED_ENDS), default="none")
    p.add_argument("--t", choices=["v1", "diag"], default="diag")
    p.set_defaults(func=cmd_homcount)

    p = sub.add_parser("fuzz", help="seeded move walks, checking invariant stability")
    p.add_argument("input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_at_least(0), default=50)
    p.add_argument("--walks", type=_at_least(1), default=1)
    p.add_argument("--max-crossings", type=_at_least(0), default=None)
    p.set_defaults(func=cmd_fuzz)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first call and reused: parsing leaves it unchanged."""
    return build_parser()


def _args(argv=None):
    """The namespace of ``argv`` (default ``sys.argv[1:]``), each token parsed once.

    The first token that names a command splits ``argv``: the global options
    before it take no value or an int, so in any valid invocation that token
    is the command.  The top-level parser reads what comes before it and the
    command's own parser what comes after, into the same namespace; an
    ``argv`` with no command goes through the top-level parser whole.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser()
    k = next((i for i, token in enumerate(argv) if token in parser.commands), None)
    if k is None:  # help, an invalid choice, or a missing command, as the full parse reports them
        parser.parse_known_args(argv)
        parser.error("the following arguments are required: command")
    args = parser.parse_args(argv[:k])
    args.command = argv[k]
    return parser.commands[argv[k]].parse_args(argv[k + 1:], args)


def main(argv=None):
    args = _args(argv)
    try:
        return args.func(args)
    except GaussCodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
