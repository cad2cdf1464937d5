import hashlib
import itertools
import random
import types
from fractions import Fraction

import pytest

import catalog
from oracles import (
    _r2_pairs_match,
    _r3_match,
    decode_r2_add_reference,
    random_code,
    random_long_diagram,
    random_walk_reference,
    shrinking_sites_brute_force,
)
from vka import moves
from vka.diagram import Diagram, LONG, OVER, TRIVIAL_LONG, UNDER, close, parse_gauss, serialize_gauss
from vka.invariants import determinant_long, invariant_profile
from vka.moves import IllegalMove, apply_move, legal_sites, random_walk


def test_r1_add_on_trivial():
    d = apply_move(TRIVIAL_LONG, ("r1+", (0, 1, "OU")))
    assert d == parse_gauss("O1+ U1+")
    assert determinant_long(d) == 1


def test_r1_add_then_remove():
    base = catalog.k1()
    for pos in range(len(base.passages) + 1):
        grown = apply_move(base, ("r1+", (pos, -1, "UO")))
        shrunk = apply_move(grown, ("r1-", (pos,)))
        assert shrunk == base


def test_r2_add_then_remove():
    base = catalog.k4()
    n = len(base.passages)
    rng = random.Random(1)
    for _ in range(20):
        i = rng.randrange(n + 1)
        j = rng.randrange(i, n + 1)
        sign = rng.choice((1, -1))
        first_role = rng.choice("OU")
        parallel = rng.choice((True, False))
        grown = apply_move(base, ("r2+", (i, j, sign, first_role, parallel)))
        assert grown.crossings == base.crossings + 2
        shrunk = apply_move(grown, ("r2-", (i, j + 2)))
        assert shrunk == base


def test_moves_produce_valid_diagrams():
    rng = random.Random(3)
    for _ in range(25):
        d = random_long_diagram(rng, 4)
        for site in legal_sites(d, max_crossings=6)[:40]:
            out = apply_move(d, site)
            assert isinstance(out, Diagram)
            assert out.kind == LONG


def test_illegal_sites_rejected():
    d = catalog.k1()
    with pytest.raises(IllegalMove):
        apply_move(d, ("r1-", (0,)))  # positions 0,1 are different crossings
    with pytest.raises(IllegalMove):
        apply_move(d, ("r2-", (0, 2)))
    with pytest.raises(IllegalMove):
        apply_move(d, ("r3", (0, 1, 2, 1, 1)))
    # z's over passage must not be x's own: here "z" is x and the
    # six positions overlap, though every partner and sign fits
    with pytest.raises(IllegalMove):
        apply_move(parse_gauss("U1+ U2+ O2+ O1+"), ("r3", (2, 1, 0, 1, 1)))
    with pytest.raises(IllegalMove):
        apply_move(d, ("r1+", (99, 1, "OU")))
    for parallel in ("yes", 1, None):
        with pytest.raises(IllegalMove):
            apply_move(d, ("r2+", (0, 0, 1, "O", parallel)))
    # positions and signs are ints, not bools or floats; each site has its length
    for data in ((0, True, "OU"), (0, 1.0, "OU"), (1.0, 1, "OU"), (True, 1, "OU"), (0, 1)):
        with pytest.raises(IllegalMove):
            apply_move(d, ("r1+", data))
    for data in ((0, 1, 1.0, "O", True), (0, 1, True, "O", True), (0.0, 1, 1, "O", True), (0, 1, 1, "O")):
        with pytest.raises(IllegalMove):
            apply_move(d, ("r2+", data))
    with pytest.raises(IllegalMove):
        apply_move(d, ("nope", ()))
    # site data that is not a tuple or a list, for every kind
    for kind in ("r1+", "r1-", "r2+", "r2-", "r3", "nope"):
        for data in (None, 5, 1.5, "OU", {0: 1}):
            for base in (d, TRIVIAL_LONG):
                with pytest.raises(IllegalMove):
                    apply_move(base, (kind, data))
    # a shrinking site's data are ints, not bools or floats that equal them
    kink, poke = parse_gauss("O1+ U1+"), parse_gauss("O1+ O2- U1+ U2-")
    triangle = parse_gauss("O1+ O2+ U1+ O3+ U2+ U3+")
    (r3,) = [data for kind, data in legal_sites(triangle) if kind == "r3"]
    assert apply_move(kink, ("r1-", (0,))) == apply_move(kink, ("r1-", [0])) == TRIVIAL_LONG
    assert apply_move(poke, ("r2-", (0, 2))) == TRIVIAL_LONG
    cases = [(kink, "r1-", data) for data in ((0.0,), (False,), [False])]
    cases += [(poke, "r2-", data) for data in ((0, 2.0), (0.0, 2), (False, 2))]
    cases += [(triangle, "r3", r3[:k] + (float(r3[k]),) + r3[k + 1:]) for k in range(5)]
    cases += [(triangle, "r3", r3[:3] + (r3[3] == 1,) + r3[4:])]
    for base, kind, data in cases:
        with pytest.raises(IllegalMove):
            apply_move(base, (kind, data))
    # the kind is one of the five strings, and a site is a (kind, data) pair
    for site in ((["r1-"], (0,)), (("r1-",), (0,)), (None, (0,)), ("R1-", (0,)), "r1-", ("r1-",),
                 ("r1-", (0,), None), None, 5, {"r1-": (0,)}):
        with pytest.raises(IllegalMove):
            apply_move(kink, site)


def test_r3_fires_and_preserves_invariants():
    # braid-like triple: top strand over x then y, middle under x over z,
    # bottom under y then z, all positive
    d = parse_gauss("O1+ O2+ U1+ O3+ U2+ U3+")
    sites = [s for s in legal_sites(d) if s[0] == "r3"]
    assert sites, "triangle pattern not matched"
    before = invariant_profile(d)
    for site in sites:
        after = apply_move(d, site)
        assert invariant_profile(after) == before


def test_random_walk_deterministic():
    d = catalog.k3()
    a = random_walk(d, seed=9, steps=30)
    b = random_walk(d, seed=9, steps=30)
    assert a == b
    assert random_walk(d, seed=9, steps=0) == d


def test_random_walk_respects_cap():
    d = catalog.k1()
    for seed in range(10):
        w = random_walk(d, seed, 40, max_crossings=5)
        assert w.crossings <= 5
    # no shrinking site and no room to grow: the walk stays put
    assert random_walk(TRIVIAL_LONG, 0, 5, max_crossings=0) == TRIVIAL_LONG


def test_walk_preserves_k1_invariants():
    d = catalog.k1()
    base = invariant_profile(d)
    for seed in range(12):
        w = random_walk(d, seed, 50)
        assert invariant_profile(w) == base
        assert determinant_long(w) == 3


def test_walk_preserves_corpus_profiles_smoke():
    for name, d in catalog.corpus().items():
        base = invariant_profile(d)
        for seed in (0, 1):
            w = random_walk(d, seed, 20, max_crossings=d.crossings + 4)
            assert invariant_profile(w) == base, name


def check_shrinking_sites(d, brute_force=None):
    """The shrinking sites of ``d``, checked against the brute force (computed unless given) and applied."""
    sites = legal_sites(d, max_crossings=d.crossings)
    assert sites == (shrinking_sites_brute_force(d.passages) if brute_force is None else brute_force)
    assert len(sites) <= moves._shrink_bound(len(d.passages))
    for site in sites:
        apply_move(d, site)  # raises IllegalMove on a bad site
    return sites


def test_sites_match_brute_force_on_random_diagrams():
    rng = random.Random(11)
    for _ in range(1000):
        d = parse_gauss(random_code(rng, rng.randrange(15), closed=rng.random() < 0.5))
        check_shrinking_sites(d)


@pytest.fixture(scope="module")
def corpus_walk_states():
    """(passages, diagram, brute-force shrinking sites) of each state that
    20 reference walks of 50 steps from every corpus code move on.  The
    passages are as ``_moved`` receives them: the start's triples mixed
    with those that moves write, whose new crossings keep the ids they were
    given, not yet renumbered."""
    captured = []
    real_moved = moves._moved
    with pytest.MonkeyPatch.context() as patch:
        for d in catalog.corpus().values():
            patch.setattr(moves, "_moved", lambda ps, site, fresh, kind=d.kind: (
                captured.append((kind, list(ps))) or real_moved(ps, site, fresh)))
            for seed in range(20):
                # the states the scan was checked on before the walk drew against
                # a bound: the two walks share one step law (see
                # test_one_walk_step_is_uniform_over_legal_sites), not one mapping
                random_walk_reference(d, seed, 50)
    states = [(ps, Diagram(kind, ps)) for kind, ps in captured]
    return [(ps, d, shrinking_sites_brute_force(d.passages)) for ps, d in states]


def test_sites_match_brute_force_along_corpus_walks(corpus_walk_states):
    assert len(corpus_walk_states) == len(catalog.corpus()) * 20 * 50
    r3_counts = [sum(s[0] == "r3" for s in check_shrinking_sites(d, brute)) for _, d, brute in corpus_walk_states]
    # walk states hold R3 sites far more often than random diagrams do
    assert sum(1 for k in r3_counts if k) >= 2000


def test_scan_reads_passages_plain_triples_and_mixed_lists(corpus_walk_states):
    mixed_states = 0
    for n, (mixed, d, brute) in enumerate(corpus_walk_states):
        assert all(type(p) is tuple for p in d.passages) and all(type(p) is tuple for p in mixed)
        mixed_states += mixed != list(d.passages)  # ids the walk gave that the Diagram renumbers
        sites = moves._shrinking_sites(d.passages)
        assert sites == moves._shrinking_sites(list(d.passages)) == moves._shrinking_sites(mixed)
        assert sites == brute == legal_sites(d, max_crossings=d.crossings)
        if n % 25:
            continue
        # every 25th state: its growing sites too, and the first site of each kind applied
        first = {}
        for site in legal_sites(d, max_crossings=d.crossings + 2):
            assert type(site) is tuple and len(site) == 2 and type(site[1]) is tuple
            first.setdefault(site[0], site)
        for site in first.values():
            assert all(type(p) is tuple for p in apply_move(d, site).passages), site
    assert mixed_states >= len(corpus_walk_states) // 2


def _oracle_accepts(passages, site):
    """Whether the brute-force matchers take a shrinking site."""
    n = len(passages)
    kind, data = site
    if kind == "r1-":
        (i,) = data
        return 0 <= i < n - 1 and passages[i][0] == passages[i + 1][0]
    if kind == "r2-":
        i, j = data
        return 0 <= i and i + 1 < j and j + 1 < n and _r2_pairs_match(passages, i, j)
    return _r3_match(passages, data)


def test_apply_move_accepts_exactly_the_oracle_sites():
    rng = random.Random(23)
    # many codes of up to three crossings meet most near misses of a
    # triangle; a few larger ones test the scan's index arithmetic
    diagrams = [
        parse_gauss(random_code(rng, rng.randrange(c), closed=k % 2 == 1))
        for c, count in ((4, 150), (9, 6))
        for k in range(count)
    ]
    # a braid triangle, and walks on windings, hold the R3 sites that
    # random codes rarely do
    diagrams += [parse_gauss(kind + "O1+ O2+ U1+ O3+ U2+ U3+") for kind in ("", "closed\n")]
    for seed, base in enumerate((catalog.dn(1), catalog.dn(2), close(catalog.dn(2)))):
        diagrams += [random_walk(base, seed + k, 12, max_crossings=8) for k in (0, 10)]
    accepted = {"r1-": 0, "r2-": 0, "r3": 0}
    for d in diagrams:
        assert d.crossings <= 8
        positions = range(-1, len(d.passages))
        candidates = [("r1-", (i,)) for i in positions]
        candidates += [("r2-", (i, j)) for i in positions for j in positions]
        candidates += [
            ("r3", (it, im, ib, e_top, e_bot))
            for it in positions
            for im in positions
            for ib in positions
            for e_top in (1, -1)
            for e_bot in (1, -1)
        ]
        for site in candidates:
            expected = _oracle_accepts(d.passages, site)
            try:
                apply_move(d, site)
            except IllegalMove:
                assert not expected, (d, site)
            else:
                assert expected, (d, site)
                accepted[site[0]] += 1
    assert min(accepted.values()) > 0, accepted


def test_random_walk_builds_one_diagram_and_no_apply_move(monkeypatch):
    built = []
    real_diagram = moves.Diagram

    def counted(kind, passages):
        built.append(kind)
        return real_diagram(kind, passages)

    def forbidden(d, site):
        raise AssertionError("random_walk called apply_move")

    monkeypatch.setattr(moves, "Diagram", counted)
    monkeypatch.setattr(moves, "apply_move", forbidden)
    for d in (catalog.k1(), close(catalog.k3())):
        for steps in (0, 1, 40):
            built.clear()
            walked = random_walk(d, 5, steps)
            assert built == [d.kind]
            assert isinstance(walked, real_diagram)
            assert all(type(p) is tuple for p in walked.passages)


def _walks_digest(walk):
    lines = [
        f"{name} {seed} {serialize_gauss(walk(d, seed, 50))}"
        for name, d in sorted(catalog.corpus().items())
        for seed in range(100)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_seed_to_walk_mapping():
    # re-pinned when the walk began to draw against a bound on the
    # shrinking sites and to scan only on a draw past the growing sites:
    # the law of a step is unchanged, the seed-to-walk mapping is not
    assert _walks_digest(random_walk) == "dd723bf321a14bf3cf3c2ba9dc97e3900c52b6a8b40d0063a8e907e7b127eb1a"


def test_walk_reference_keeps_the_mapping_before_the_bound():
    assert _walks_digest(random_walk_reference) == "db661c56dc23b28d5cb17e1669496debc1cc2c080df591ba53ef77bcaad49957"


def test_r2_add_decoder_matches_the_row_walk():
    for n in range(61):
        count = moves._r2_add_count(n)
        assert [moves._decode_r2_add(n, idx) for idx in range(count)] == [
            decode_r2_add_reference(n, idx) for idx in range(count)
        ], n


def test_walk_scans_at_most_once_per_step(monkeypatch):
    events = []
    real_scan, real_moved = moves._shrinking_sites, moves._moved
    monkeypatch.setattr(moves, "_shrinking_sites", lambda ps: events.append("scan") or real_scan(ps))
    monkeypatch.setattr(moves, "_moved", lambda ps, site, fresh: events.append("move") or real_moved(ps, site, fresh))
    for d in list(catalog.corpus().values()) + [close(catalog.k3())]:
        for seed in range(5):
            for cap in (d.crossings, None):
                events.clear()
                random_walk(d, seed, 50, max_crossings=cap)
                assert "scan scan" not in " ".join(events)  # a stopped walk ends on its scan
                if cap is None:  # growth allowed: some steps decode a growing site unscanned
                    assert events.count("move") == 50 and events.count("scan") < 50


class _Exhausted(Exception):
    """The scripted draws ran out; ``bound`` is the range of the next draw."""

    def __init__(self, bound):
        super().__init__(bound)
        self.bound = bound


def _step_law(monkeypatch, d, max_crossings):
    """The exact law of one ``random_walk`` step from ``d``: each site's mass, and the mass that stops.

    The walk's RNG is scripted through every sequence of draws it asks
    for, the first draw and, after a miss, the redraw; each sequence has
    mass 1/(product of the draws' ranges).
    """
    law, stopped, taken = {}, Fraction(0), []

    def scripted(prefix):
        class Scripted:
            def __init__(self, seed):
                self.draws = iter(prefix)

            def randrange(self, bound):
                k = next(self.draws, None)
                if k is None:
                    raise _Exhausted(bound)
                return k

        return types.SimpleNamespace(Random=Scripted)

    monkeypatch.setattr(moves, "_moved", lambda ps, site, fresh: taken.append(site) or ps)
    pending = [((), Fraction(1))]
    while pending:
        prefix, mass = pending.pop()
        monkeypatch.setattr(moves, "random", scripted(prefix))
        taken.clear()
        try:
            random_walk(d, 0, 1, max_crossings=max_crossings)
        except _Exhausted as out:
            pending.extend((prefix + (k,), mass / out.bound) for k in range(out.bound))
            continue
        if taken:
            (site,) = taken
            law[site] = law.get(site, 0) + mass
        else:
            stopped += mass
    monkeypatch.undo()
    return law, stopped


@pytest.mark.parametrize("code, extra, growing, shrinking", [
    ("O1- O2+ O3+ O4- U1- U2+ U4- U3+", 6, 396, 3),  # far below the cap
    ("closed\nO1+ O2+ U1+ O3+ U2+ U3+", 6, 252, 1),
    ("O1- O2+ O3+ O4- U1- U2+ U4- U3+", 1, 36, 3),  # one below the cap: R1+ only
    ("closed\nO1+ O2+ U1+ O3+ U2+ U3+", 1, 28, 1),
    ("", 1, 4, 0),
    ("O1+ U2+ U3+ O3+ U4+ O4+ U1+ U5+ O6+ U6+ O5+ O2+", 0, 0, 4),  # at the cap
    ("closed\nO1+ O2+ U1+ O3+ U2+ U3+", 0, 0, 1),
    ("O1+ U2+ U1+ O2+", 6, 140, 0),  # no shrinking site: every scan misses
    ("O1+ U2+ U1+ O2+", 0, 0, 0),  # no site: the walk stops
    ("", 0, 0, 0),
])
def test_one_walk_step_is_uniform_over_legal_sites(monkeypatch, code, extra, growing, shrinking):
    d = parse_gauss(code)
    cap = d.crossings + extra
    sites = legal_sites(d, max_crossings=cap)
    assert len(set(sites)) == len(sites)
    assert len(moves._shrinking_sites(d.passages)) == shrinking
    assert len(sites) == growing + shrinking
    law, stopped = _step_law(monkeypatch, d, cap)
    if sites:
        assert stopped == 0
        assert law == {site: Fraction(1, len(sites)) for site in sites}
    else:
        assert (law, stopped) == ({}, 1)


def _all_codes(crossings):
    """Every passage list of ``crossings`` crossings, ids in first-appearance order."""
    def orders(seq, fresh, open_ids):
        if len(seq) == 2 * crossings:
            yield seq
            return
        if len(open_ids) < 2 * crossings - len(seq):
            yield from orders(seq + (fresh,), fresh + 1, open_ids + (fresh,))
        for c in open_ids:
            yield from orders(seq + (c,), fresh, tuple(o for o in open_ids if o != c))

    for seq in orders((), 1, ()):
        for roles in itertools.product((OVER, UNDER), repeat=crossings):
            for signs in itertools.product((1, -1), repeat=crossings):
                seen = set()
                passages = []
                for c in seq:
                    role = roles[c - 1] if c not in seen else ({OVER, UNDER} - {roles[c - 1]}).pop()
                    seen.add(c)
                    passages.append((c, role, signs[c - 1]))
                yield passages


def test_shrink_bound_holds_on_every_small_code():
    counted = 0
    for crossings in range(5):
        for passages in _all_codes(crossings):
            counted += 1
            sites = moves._shrinking_sites(passages)
            # the lemma behind the bound: no adjacent pair anchors more than two sites
            anchors = [data[0] for _, data in sites]
            assert all(anchors.count(i) <= 2 for i in anchors)
            assert len(sites) <= moves._shrink_bound(len(passages))
    assert counted == 1 + 4 + 48 + 960 + 26880
