"""Output checks that avoid the layer each request times.

Run after the timed rounds.  The matrices are rebuilt here from the Gauss
text, and ``sympy`` (a dev-only dependency) does the algebra:

- colorings and determinants: invariant factors of the integer coloring
  matrix (Smith normal form);
- characteristic polynomials: the gcd of the minors of the abelianized
  arc-group matrix over Z[u, v] (two variables) or of the merged arc
  matrix A(t) (one variable), over sympy's polynomial rings;
- reported presentations: the same ideals, from the matrix read off the
  presentation;
- hom counts: rank over GF(p) of A(s) with the end-minus class killed;
- fuzz reports: ``"stable": true`` for the requested seed and steps.

Where ``tests/oracles.py`` is present, a seeded sample of small coloring
requests is also checked by its brute force; ``check`` reports the
sample's size.  Every other check covers every output.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
from itertools import combinations

from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

R2, U, V = ring("u,v", ZZ)
R1, T = ring("t", ZZ)

BRUTE_FORCE_SAMPLE = 6  # requests checked by exhaustive coloring
BRUTE_FORCE_LIMIT = 5_000  # largest p^arcs tried


class Knot:
    """A Gauss code read independently of ``vka.diagram``.

    Arc i runs into passage i.  Each crossing's over-strand relation
    (OO = v*OI when positive, OI = v*OO when negative) makes its two over
    arcs one generator up to a power of v, so the arcs fall into classes:
    arc a is v^vexp[a] times the generator of class cls[a].
    """

    def __init__(self, text):
        words = text.split()
        self.closed = bool(words) and words[0] == "closed"
        tokens = words[1:] if self.closed else words
        n = len(tokens)
        arcs = max(n if self.closed else n + 1, 1)
        out_arc = [(i + 1) % n if self.closed else i + 1 for i in range(n)]
        passages = {}
        for i, tok in enumerate(tokens):
            passages.setdefault(int(tok[1:-1]), {})[tok[0]] = (i, out_arc[i], 1 if tok[-1] == "+" else -1)
        # per crossing: (over in, over out, under in, under out, sign), as arcs
        self.arcs = [(*roles["O"][:2], *roles["U"][:2], roles["U"][2]) for _, roles in sorted(passages.items())]
        links = {a: [] for a in range(arcs)}
        for oi, oo, _, _, sign in self.arcs:
            links[oi].append((oo, sign))
            links[oo].append((oi, -sign))
        self.cls, self.vexp = [None] * arcs, [0] * arcs
        self.classes = 0
        for start in range(arcs):
            if self.cls[start] is not None:
                continue
            self.cls[start], todo = self.classes, [start]
            while todo:
                a = todo.pop()
                for b, step in links[a]:
                    if self.cls[b] is None:
                        self.cls[b], self.vexp[b] = self.classes, self.vexp[a] + step
                        todo.append(b)
            self.classes += 1
        self.arc0 = self.cls[0]
        # per crossing: (over class, under-in class, under-out class, sign)
        self.crossings = [(self.cls[oi], self.cls[ui], self.cls[uo], sign) for oi, _, ui, uo, sign in self.arcs]

    def two_variable_rows(self):
        """The abelianized arc-group relations over Z[u, v], one per crossing.

        Positive: OI + u*UI - UO - u*OO; negative: UI + u*OI - OO - u*UO,
        with each arc written through its class.  Each row is shifted by a
        monomial to polynomial entries, which leaves the ideals unchanged.
        """
        rows = []
        for oi, oo, ui, uo, sign in self.arcs:
            if sign > 0:
                terms = ((oi, 0, 1), (ui, 1, 1), (uo, 0, -1), (oo, 1, -1))
            else:
                terms = ((ui, 0, 1), (oi, 1, 1), (oo, 0, -1), (uo, 1, -1))
            low = min(self.vexp[arc] for arc, _, _ in terms)
            row = [R2.zero] * self.classes
            for arc, uexp, coeff in terms:
                row[self.cls[arc]] += coeff * U ** uexp * V ** (self.vexp[arc] - low)
            rows.append(row)
        return rows

    def coloring_rows(self):
        rows = []
        for ov, ui, uo, _ in self.crossings:
            row = [0] * self.classes
            row[ov] += 2
            row[ui] -= 1
            row[uo] -= 1
            rows.append(row)
        return rows

    def alexander_rows(self, t, one):
        """A(t) scaled by t on negative rows: a polynomial matrix, same ideals."""
        rows = []
        for ov, ui, uo, sign in self.crossings:
            row = [0 * one] * self.classes
            if sign > 0:
                coeffs = ((uo, one), (ui, -t), (ov, t - one))
            else:
                coeffs = ((uo, t), (ui, -one), (ov, one - t))
            for col, c in coeffs:
                row[col] = row[col] + c
            rows.append(row)
        return rows

    def invariant_factors(self):
        rows = self.coloring_rows()
        if not rows:
            return ()
        return tuple(abs(int(s)) for s in invariant_factors(Matrix(rows), domain=ZZ))


def coloring_count(knot, inv, p):
    count = p ** (knot.classes - len(inv))
    for s in inv:
        count *= math.gcd(s, p) if s else p
    return count


def determinant(inv):
    return 0 if 0 in inv else math.prod(inv)


# -- polynomials, compared up to units ------------------------------------


def parse_poly(text, names):
    """Terms {exponents: coeff} of a polynomial printed by ``vka``."""
    terms = {}
    if text.strip() == "0":
        return terms
    for raw in text.replace(" - ", " + -").split(" + "):
        sign = -1 if raw.startswith("-") else 1
        coeff, exps = 1, [0] * len(names)
        for factor in raw.lstrip("-").split("*"):
            if factor.isdigit():
                coeff = int(factor)
            else:
                name, _, exp = factor.partition("^")
                exps[names.index(name)] = int(exp) if exp else 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + sign * coeff
    return {e: c for e, c in terms.items() if c}


def normal_form(terms):
    """The associate with minimum exponents 0 and a positive leading term."""
    if not terms:
        return {}
    mins = [min(e[i] for e in terms) for i in range(len(next(iter(terms))))]
    shifted = {tuple(a - b for a, b in zip(e, mins)): c for e, c in terms.items()}
    lead = shifted[max(shifted)]
    return {e: (c if lead > 0 else -c) for e, c in shifted.items()}


def _is_unit(entry):
    """A unit of the Laurent ring: one term with coefficient +-1."""
    return len(entry) == 1 and abs(next(iter(entry.values()))) == 1


def eliminate_units(rows, ncols):
    """Clear unit entries by row operations over the Laurent ring.

    Each step scales rows by the unit pivot, clears its column and drops
    its row and column; the k-th ideal of the result, with one column
    fewer, is the k-th ideal of the input.  Returns the rows and their
    column count.
    """
    rows = [list(row) for row in rows]
    while True:
        units = [(sum(1 for row in rows if row[j]), i, j)
                 for i, row in enumerate(rows) for j, e in enumerate(row) if _is_unit(e)]
        if not units:
            return rows, ncols
        _, i, j = min(units)
        pivot = rows.pop(i)
        rows = [[pivot[j] * e - row[j] * pivot[c] for c, e in enumerate(row) if c != j] if row[j]
                else row[:j] + row[j + 1:] for row in rows]
        ncols -= 1


def ideal_gcd(rows, ncols, k, ring_):
    """gcd of the minors of size ncols - k: 1 when that is <= 0, 0 when there are none."""
    rows, ncols = eliminate_units(rows, ncols)
    size = ncols - k
    if size <= 0:
        return ring_.one
    if size > len(rows):
        return ring_.zero
    domain = ring_.to_domain()
    g = ring_.zero
    for rs in combinations(range(len(rows)), size):
        for cs in combinations(range(ncols), size):
            sub = [[rows[i][j] for j in cs] for i in rs]
            g = g.gcd(DomainMatrix(sub, (size, size), domain).det())
            if g == ring_.one:
                return g
    return g


def associates(a, b):
    """Whether two polynomials differ by a unit of the Laurent ring."""
    return normal_form(dict(a.terms())) == normal_form(dict(b.terms()))


def same_up_to_units(reported, names, expected):
    return normal_form(parse_poly(reported, names)) == normal_form(dict(expected.terms()))


def presentation_rows(presentation):
    """Abelianized relation rows read from a reported presentation."""
    gens = presentation["generators"]
    col = {g: i for i, g in enumerate(gens)}

    def word_terms(word, sign, into):
        for gen, (j, k), s in word:
            key = (col[gen], j, k)
            into[key] = into.get(key, 0) + sign * s

    raw_rows = []
    for rel in presentation["relations"]:
        terms = {}
        word_terms(rel["left"], 1, terms)
        word_terms(rel["right"], -1, terms)
        raw_rows.append(terms)
    rows = []
    for terms in raw_rows:
        live = {key: c for key, c in terms.items() if c}
        mu = min((j for _, j, _ in live), default=0)
        mv = min((k for _, _, k in live), default=0)
        row = [R2.zero] * len(gens)
        for (i, j, k), c in live.items():
            row[i] += c * U ** (j - mu) * V ** (k - mv)
        rows.append(row)
    return rows


# -- per-workload checks --------------------------------------------------


def _load_brute_force():
    tests = pathlib.Path("tests").resolve()
    if not (tests / "oracles.py").is_file():
        return None
    sys.path.insert(0, str(tests))
    try:
        from oracles import brute_force_colorings
    finally:
        sys.path.remove(str(tests))
    return brute_force_colorings


def _check_colorings(knot, inv, reports):
    reports = reports if isinstance(reports, list) else [reports]
    return all(r["count"] == coloring_count(knot, inv, r["p"]) and r["nontrivial"] == (r["count"] > r["p"])
               for r in reports)


class Checker:
    """Checks one workload's outputs; ``failed`` collects request ids."""

    def __init__(self, requests, outputs, rng):
        self.requests, self.outputs, self.rng = requests, outputs, rng
        self.failed = set()
        self.samples = {}
        self._knots = {}

    def knot(self, path):
        if path not in self._knots:
            knot = Knot(pathlib.Path(path).read_text(encoding="utf-8"))
            self._knots[path] = (knot, knot.invariant_factors())
        return self._knots[path]

    def sample(self, label, ids, size):
        ids = sorted(ids)
        chosen = sorted(self.rng.sample(ids, min(size, len(ids))))
        self.samples[label] = f"{len(chosen)} of {len(ids)}"
        return chosen

    def expect(self, rid, ok):
        if not ok:
            self.failed.add(rid)

    def reports(self):
        parsed = {}
        for rid, text in enumerate(self.outputs):
            try:
                report = json.loads(text)
            except ValueError:
                self.failed.add(rid)
                continue
            if report.get("schema") != 1 or report.get("input") != self.requests[rid][2]:
                self.failed.add(rid)
                continue
            parsed[rid] = report
        return parsed

    def each(self, ids, check):
        """Run ``check(rid)`` for each id; a malformed report fails its request."""
        for rid in ids:
            try:
                check(rid)
            except (KeyError, TypeError, ValueError, IndexError, AttributeError):
                self.failed.add(rid)

    def brute_force(self, reports):
        """Exhaustive coloring counts for a seeded sample of small diagrams."""
        brute = _load_brute_force()
        if brute is None:
            self.samples["brute-force colorings"] = "0 (tests/oracles.py not found)"
            return
        from vka.diagram import parse_gauss

        def check(rid):
            path = self.requests[rid][2]
            knot, _ = self.knot(path)
            d = parse_gauss(pathlib.Path(path).read_text(encoding="utf-8"))
            entries = reports[rid]["colorings"]
            for r in entries if isinstance(entries, list) else [entries]:
                if r["p"] ** knot.classes <= BRUTE_FORCE_LIMIT:
                    self.expect(rid, brute(d, r["p"]) == r["count"])

        small = [rid for rid, rep in reports.items()
                 if "colorings" in rep and 2 ** self.knot(self.requests[rid][2])[0].classes <= BRUTE_FORCE_LIMIT]
        self.each(self.sample("brute-force colorings", small, BRUTE_FORCE_SAMPLE), check)

    def ladder(self):
        reports = self.reports()

        def check(rid):
            rep = reports[rid]
            knot, inv = self.knot(rep["input"])
            rows, ncols = knot.two_variable_rows(), knot.classes
            if rep["quotient"] == "end-minus":  # kill the first arc's class
                rows, ncols = [row[:knot.arc0] + row[knot.arc0 + 1:] for row in rows], ncols - 1
            expected = {entry["k"]: ideal_gcd(rows, ncols, entry["k"], R2) for entry in rep["charpoly"]}
            for entry in rep["charpoly"]:
                self.expect(rid, same_up_to_units(entry["value"], ("u", "v"), expected[entry["k"]]))
            if "presentation" in rep:
                # Tietze moves keep the ideals, so the reported presentation
                # must give the ideals of the matrix built here.
                pres = rep["presentation"]
                shown = presentation_rows(pres)
                for k, poly in expected.items():
                    self.expect(rid, associates(ideal_gcd(shown, len(pres["generators"]), k, R2), poly))
                self.expect(rid, _check_colorings(knot, inv, rep["colorings"]))
                if not knot.closed:
                    self.expect(rid, rep["determinant"] == determinant(inv))

        self.each(sorted(reports), check)
        self.brute_force(reports)

    def fuzz(self):
        reports = self.reports()

        def check(rid):
            rep, argv = reports[rid], self.requests[rid]
            seed = int(argv[argv.index("--seed") + 1])
            steps = int(argv[argv.index("--steps") + 1])
            self.expect(rid, rep["stable"] is True and rep["seeds"] == [seed] and rep["steps"] == steps)

        self.each(sorted(reports), check)

    def winding(self):
        reports = self.reports()

        def check(rid):
            rep, argv = reports[rid], self.requests[rid]
            knot, inv = self.knot(argv[2])
            if argv[1] == "color":
                self.expect(rid, _check_colorings(knot, inv, rep["colorings"]))
            elif argv[1] == "invariants":
                self.expect(rid, rep["determinant"] == determinant(inv))
            else:
                p, s = rep["p"], rep["s"]
                field = GF(p)
                rows = [[field(int(x) % p) for x in row] for row in knot.alexander_rows(s, 1)]
                kill = [field(int(i == knot.arc0)) for i in range(knot.classes)]
                rank = DomainMatrix(rows + [kill], (len(rows) + 1, knot.classes), field).rank()
                self.expect(rid, rep["count"] == p ** (knot.classes - rank))

        def check_charpoly(rid):
            knot, _ = self.knot(reports[rid]["input"])
            entry = reports[rid]["charpoly"]
            expected = ideal_gcd(knot.alexander_rows(T, R1.one), knot.classes, entry["k"], R1)
            self.expect(rid, same_up_to_units(entry["value"], ("t",), expected))

        self.each(sorted(reports), check)
        self.each([rid for rid in sorted(reports) if self.requests[rid][1] == "invariants"], check_charpoly)
        self.brute_force(reports)


def check(workload, requests, outputs, rng):
    """Request ids whose output is wrong, and the size of each sample."""
    checker = Checker(requests, outputs, rng)
    {"invariants-ladder": checker.ladder, "fuzz-walks": checker.fuzz,
     "winding-colorings": checker.winding}[workload]()
    return checker.failed, checker.samples
