"""Layer spans recorded from outside the program.

``Tracer.install`` rebinds the public functions of ``vka``'s layers, in
every ``vka`` module that holds them, to wrappers that record a span per
call: name, start, end, parent span and request id, plus the counts
measured at that boundary.  Nothing under ``src/`` changes; the untraced
rounds never install the wrappers.  Spans stay in memory until the round
ends.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, public functions timed under it)
LAYERS = {
    "diagram.parse": ("diagram", ("parse_gauss",)),
    "alexander.presentation": ("alexander", ("extended_presentation",)),
    "alexander.tietze": ("alexander", ("tietze_eliminate",)),
    "alexander.abelianize": ("alexander", ("quotient_kill", "abelianize", "one_variable", "diagonal_t")),
    "alexander.one_var_matrix": ("alexander", ("one_var_matrix",)),
    "invariants.minors": ("invariants", ("elementary_minors",)),
    "invariants.det": ("invariants", ("determinant_long",)),
    "invariants.unit_minors": ("invariants", ("unit_minor_check",)),
    "invariants.snf": ("invariants", ("coloring_count",)),
    "invariants.rank_mod": ("invariants", ("hom_count_to_cyclic",)),
    "laurent.gcd": ("laurent", ("gcd_many",)),
    "moves.walk": ("moves", ("random_walk",)),
}
ROOT = "request"
SCAN = "moves.scan"  # probe run after a request, outside its timing

COUNTS = (
    "laurent.gcd_calls", "laurent.gcd_inputs", "laurent.gcd_units",
    "laurent.gcd_terms_max", "laurent.coeff_bits_max",
    "invariants.minors", "invariants.budget_exceeded",
    "alexander.tietze_gens_removed", "moves.steps", "moves.sites",
)
MAX_COUNTS = ("laurent.gcd_terms_max", "laurent.coeff_bits_max")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "counts")

    def __init__(self, id, name, start, parent, request):
        self.id, self.name, self.start, self.end = id, name, start, None
        self.parent, self.request, self.counts = parent, request, {}

    def to_json(self):
        return [self.id, self.name, self.start, self.end, self.parent, self.request, self.counts]


def _gcd_counts(span, polys, result):
    bits = [abs(c).bit_length() for p in polys for c in p.terms.values()]
    span.counts = {
        "laurent.gcd_calls": 1,
        "laurent.gcd_inputs": len(polys),
        "laurent.gcd_units": int(result.is_one),
        "laurent.gcd_terms_max": max((len(p.terms) for p in polys), default=0),
        "laurent.coeff_bits_max": max(bits, default=0),
    }


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = None
        self.walks = []  # (start, end) diagrams of the current request's walks
        self.pending = []  # calls whose counts are taken after the request

    # -- span bookkeeping ---------------------------------------------

    def open(self, name):
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.request)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, budget_error):
        tracer = self
        materialize = fn.__name__ == "gcd_many"  # its counts need the inputs twice

        def traced(*args, **kwargs):
            if materialize:
                args = (list(args[0]),) + args[1:]
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except budget_error as exc:
                if not getattr(exc, "counted_by_tracer", False):  # count it once, where raised
                    exc.counted_by_tracer = True
                    span.counts["invariants.budget_exceeded"] = 1
                raise
            finally:
                tracer.close(span)
            tracer.pending.append((fn.__name__, span, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fname, span, args, result):
        if fname == "gcd_many":
            _gcd_counts(span, args[0], result)
        elif fname == "elementary_minors":
            span.counts["invariants.minors"] = len(result)
        elif fname == "tietze_eliminate":
            removed = len(args[0].generators) - len(result.generators)
            span.counts["alexander.tietze_gens_removed"] = removed
        elif fname == "random_walk":
            self.walks.append((args[0], result))

    def _count_step(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            for span in reversed(tracer.stack):
                if span.name == "moves.walk":
                    span.counts["moves.steps"] = span.counts.get("moves.steps", 0) + 1
                    break
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------

    def install(self):
        """Rebind every layer function in every loaded ``vka`` module."""
        from vka import invariants, moves

        self._legal_sites = moves.legal_sites
        replace = {}
        for name, (module, functions) in LAYERS.items():
            mod = sys.modules[f"vka.{module}"]
            for fname in functions:
                fn = getattr(mod, fname)
                replace[id(fn)] = (fn, self._wrap(name, fn, invariants.BudgetExceeded))
        replace[id(moves.apply_move)] = (moves.apply_move, self._count_step(moves.apply_move))
        for modname, mod in list(sys.modules.items()):
            if modname != "vka" and not modname.startswith("vka."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- requests -----------------------------------------------------

    def run_request(self, rid, call):
        """Run ``call()`` as request ``rid`` under a root span.

        Returns its value and traced latency.  Afterwards, outside the
        root span, takes the counts of the calls it traced and times
        ``legal_sites(d, max_crossings=d.crossings)`` on the start and end
        diagram of each walk it made: exactly the shrinking-site scan
        ``random_walk`` repeats at every step.
        """
        self.request = rid
        self.walks = []
        root = self.open(ROOT)
        try:
            value = call()
        finally:
            self.close(root)
            for pending in self.pending:
                self._count(*pending)
            self.pending = []
            for start, end in self.walks:
                for d in (start, end):
                    span = self.open(SCAN)
                    sites = self._legal_sites(d, max_crossings=d.crossings)
                    self.close(span)
                    span.counts["moves.sites"] = len(sites)
            self.request = None
        return value, root.end - root.start

    def to_json(self):
        return [s.to_json() for s in self.spans]


def self_times(spans):
    """Self time of each span: its duration minus its children's durations."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_report(traced_rounds, scales, untraced):
    """Per-layer self times and counts from traced rounds.

    ``traced_rounds`` holds each traced round's spans (``Span.to_json``
    lists) and ``scales`` each round's host-speed scale, which multiplies
    its durations.  Each request is taken from the round where its scaled
    root span was shortest.  ``cli.self_s`` is the self time of those root
    spans: argument parsing, file reading, report rendering and glue.  The
    layer self times and ``cli.self_s`` add up to the traced total.
    ``untraced`` maps request id to the best scaled latency of the same
    request in untraced rounds; ``trace.overhead_s`` is the traced total
    minus their sum, ``trace.untraced_s``.
    """
    best = {}
    for index, spans in enumerate(traced_rounds):
        for s in spans:
            duration = (s[3] - s[2]) * scales[index]
            if s[1] == ROOT and (s[5] not in best or duration < best[s[5]][1]):
                best[s[5]] = (index, duration)
    out = {f"{name}_s": 0.0 for name in (*LAYERS, SCAN)}
    out["cli.self_s"] = 0.0
    counts = dict.fromkeys(COUNTS, 0)
    for index, spans in enumerate(traced_rounds):
        own = self_times(spans)
        for sid, name, start, end, parent, rid, span_counts in spans:
            if best[rid][0] != index:
                continue
            out["cli.self_s" if name == ROOT else f"{name}_s"] += own[sid] * scales[index]
            for key, value in span_counts.items():
                counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value
    calls = counts.pop("laurent.gcd_calls")
    units = counts.pop("laurent.gcd_units")
    out.update(counts)
    out["laurent.gcd_calls"] = calls
    out["laurent.gcd_unit_share"] = units / calls if calls else 0.0
    out["trace.untraced_s"] = sum(untraced.values())
    out["trace.overhead_s"] = sum(b[1] for b in best.values()) - out["trace.untraced_s"]
    return out
