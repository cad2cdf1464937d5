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
# --t: the specialization, by name, so a rebound ``alexander`` function (perfbench's tracer) is called
SPECIALIZATIONS = {"v1": "one_variable", "diag": "diagonal_t"}


class ConfigError(ValueError):
    pass


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_gauss(text)


def _emit(args, payload, text_lines):
    if args.json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _check_coeff_budget(matrix, max_bits):
    if max_bits is None:
        return
    for row in matrix.rows:
        for entry in row:
            for c in entry.terms.values():
                if abs(c).bit_length() > max_bits:
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


def _colorings(reports, matrix=False):
    """JSON value and text lines of coloring reports, one per modulus."""
    items, lines = [], []
    for rep in reports:
        item = {"p": rep.p, "count": rep.count, "nontrivial": rep.nontrivial}
        if matrix:
            item["matrix"] = [list(r) for r in rep.matrix]
        items.append(item)
        lines.append(f"p={rep.p}: {rep.count} colorings" + (" (nontrivial)" if rep.nontrivial else ""))
    return (items[0] if len(items) == 1 else items), lines


def cmd_invariants(args):
    # checked before the diagram is read, so a bad request costs no elimination or minors
    if any(k < 0 for k in args.charpoly or ()):
        raise ConfigError("k must be nonnegative")
    for p in args.color or ():
        invariants.check_modulus(p)
    d = _load(args.input)
    if not (args.presentation or args.charpoly or args.det or args.color):
        raise ConfigError("nothing requested: use --charpoly/--det/--color/--presentation")
    if args.det and d.kind != diagram.LONG:
        raise ConfigError("--det requires a long diagram")
    payload = {"input": args.input, "quotient": args.quotient}
    lines = []
    if args.presentation:
        pres = invariants.quotient_pipeline(d, args.quotient)
        payload["presentation"] = pres.to_json()
        if not args.json:  # --json prints no text lines
            lines.append(str(pres))
    if args.charpoly or args.det or args.color:
        arcs = alexander.merged_arc_rows(d)  # A(u, v): the char polys, A(-1) and colorings all come from it
    if args.charpoly:
        mat = invariants.module_matrix(d, arcs, args.quotient)
        if args.t in SPECIALIZATIONS:
            mat = getattr(alexander, SPECIALIZATIONS[args.t])(mat)
        _check_coeff_budget(mat, args.max_coeff_bits)
        entries = []
        for k in args.charpoly:
            value = invariants.char_poly(mat, k, max_minors=args.max_minors)
            entries.append({"k": k, "ring": mat.ring, "value": str(value)})
            lines.append(str(value))
        payload["charpoly"] = entries[0] if len(entries) == 1 else entries
    if args.det or args.color:
        # the determinant reuses the colorings' Smith form of A(-1)
        smith, colorings = invariants.coloring_reports(d, arcs, args.color or ())
        if args.det:
            det = invariants.determinant_long(d, smith)
            payload["determinant"] = det
            lines.append(str(det))
        if colorings:
            payload["colorings"], color_lines = _colorings(colorings)
            lines += color_lines
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_construct(args):
    if args.op == "concat":
        if not args.other:
            raise ConfigError("concat requires two diagrams")
        out = diagram.concatenate(_load(args.input), _load(args.other))
    elif args.op == "close":
        out = diagram.close(_load(args.input))
    elif args.op == "switch":
        out = diagram.switch_all_crossings(_load(args.input))
    else:  # dn; argparse rejects any other op
        try:
            n = int(args.other)
        except (TypeError, ValueError):
            raise ConfigError("dn requires a winding count") from None
        if not 1 <= n <= MAX_WINDINGS:
            raise ConfigError(f"dn requires a winding count from 1 to {MAX_WINDINGS}")
        out = diagram.dn_family(_load(args.input), n)
    text = serialize_gauss(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n" if text else text)
    else:
        _emit(args, {"code": text, "crossings": out.crossings}, [text])
    return EXIT_OK


def cmd_color(args):
    for p in args.p:  # before the diagram is read, as in cmd_invariants
        invariants.check_modulus(p)
    d = _load(args.input)
    reports, lines = _colorings(invariants.coloring_count(d, args.p), matrix=args.matrix)
    _emit(args, {"input": args.input, "colorings": reports}, lines)
    return EXIT_OK


def cmd_homcount(args):
    invariants.check_modulus(args.p, args.s)  # before the diagram is read
    d = _load(args.input)
    mat = getattr(alexander, SPECIALIZATIONS[args.t])(invariants.quotient_matrix(d, args.quotient))
    count = invariants.hom_count_to_cyclic(mat, args.p, args.s)
    _emit(
        args,
        {"input": args.input, "p": args.p, "s": args.s, "quotient": args.quotient, "count": count},
        [str(count)],
    )
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
                        help="abort (exit 3) when an entry of the --charpoly input matrix (the "
                             "unit-reduced module matrix) has a coefficient longer than this many bits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and normalize a Gauss code")
    p.add_argument("input")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("invariants", help="characteristic polynomials, determinant, colorings")
    p.add_argument("input")
    p.add_argument("--charpoly", type=int, action="append", metavar="K",
                   help="characteristic polynomial of the K-th ideal (repeatable)")
    p.add_argument("--quotient", choices=list(invariants._KILLED_ENDS), default="none")
    p.add_argument("--t", choices=["uv", *SPECIALIZATIONS], default="uv",
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
    p.add_argument("--matrix", action="store_true", help="include the coloring matrix (JSON)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("homcount", help="count module maps to Z/p with t acting as s")
    p.add_argument("input")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--quotient", choices=list(invariants._KILLED_ENDS), default="none")
    p.add_argument("--t", choices=list(SPECIALIZATIONS), default="diag")
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


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GaussCodeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
