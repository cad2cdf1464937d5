import functools
import hashlib
import importlib.util
import json
import os
import random
import shlex
import subprocess
import sys
import time
from itertools import product

import pytest

from oracles import brute_force_hom_count, quotients, random_code, specialized_matrix_reference
from test_readme import _block
from conftest import REPO_ROOT
from vka import alexander, cli, diagram, invariants
from vka.cli import MAX_WINDINGS, main
from vka.laurent import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys, corpus_dir):
    code, out, _ = run(capsys, "parse", str(corpus_dir / "k1.gauss"))
    assert code == 0
    assert out.splitlines()[0] == "O1+ U2+ U1+ O2+"


def test_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.gauss"
    bad.write_text("O1+ qq5\n")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 1
    assert "malformed token" in err
    assert "line 1" in err


def test_parse_huge_crossing_id_exit_1(capsys, tmp_path):
    huge = tmp_path / "huge.gauss"
    huge.write_text(f"O{'1' * 5000}+ U{'1' * 5000}+\n")
    code, _, err = run(capsys, "parse", str(huge))
    assert code == 1
    assert "crossing id of 5000 digits (line 1, column 1)" in err


def test_charpoly_quotient_end_minus(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "invariants", str(corpus_dir / "k1.gauss"), "--charpoly", "0",
        "--quotient", "end-minus",
    )
    assert code == 0
    assert out.strip() == "u^2*v - u + 1"


def test_det_k1(capsys, corpus_dir):
    code, out, _ = run(capsys, "invariants", str(corpus_dir / "k1.gauss"), "--det")
    assert code == 0
    assert out.strip() == "3"


def test_det_empty(capsys, corpus_dir):
    code, out, _ = run(capsys, "invariants", str(corpus_dir / "empty.gauss"), "--det")
    assert code == 0
    assert out.strip() == "1"


def test_invariants_nothing_requested_exit_2(capsys, corpus_dir):
    code, _, err = run(capsys, "invariants", str(corpus_dir / "k1.gauss"))
    assert code == 2
    assert "nothing requested" in err


def test_invariants_det_on_closed_exit_2(capsys, tmp_path, corpus_dir):
    closed = tmp_path / "c.gauss"
    closed.write_text("closed\nO1+ U2+ U1+ O2+\n")
    code, _, err = run(capsys, "invariants", str(closed), "--det")
    assert code == 2


def test_det_on_closed_fails_before_any_computation(capsys, tmp_path, monkeypatch):
    # c = 30: the char polys alone took seconds before the check ran
    closed = tmp_path / "c30.gauss"
    closed.write_text(random_code(random.Random(2), 30, closed=True) + "\n")
    calls = []
    monkeypatch.setattr(invariants, "quotient_pipeline", lambda *a: calls.append(a))
    monkeypatch.setattr(invariants, "char_poly", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "invariants", str(closed), "--charpoly", "1", "--det")
    assert code == 2
    assert "--det requires a long diagram" in err
    assert calls == []


@pytest.mark.parametrize("flags, message", [
    (["--charpoly", "1", "--color", "1"], "modulus must be at least 2"),
    (["--charpoly", "1", "--charpoly", "-1"], "k must be nonnegative"),
    (["--color", "3", "--charpoly", "-2", "--color", "0"], "k must be nonnegative"),
    (["--det", "--color", str(10 ** 1000)], "modulus must be below 10^1000"),
    ([], "nothing requested: use --charpoly/--det/--color/--presentation"),
])
def test_bad_charpoly_or_color_fails_before_any_computation(capsys, corpus_dir, monkeypatch, flags, message):
    # the diagram is not even read: at c = 30 the minors alone took seconds before the check ran
    calls = []
    monkeypatch.setattr(cli, "_load", lambda *a: calls.append(a))
    monkeypatch.setattr(invariants, "quotient_pipeline", lambda *a: calls.append(a))
    monkeypatch.setattr(invariants, "char_poly", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "invariants", str(corpus_dir / "k1.gauss"), *flags)
    assert code == 2
    assert err == f"invalid configuration: {message}\n"
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    (["color", "-p", "3", "-p", "1"], "modulus must be at least 2"),
    (["homcount", "-p", "1", "-s", "3"], "modulus must be at least 2"),
    (["homcount", "-p", "6", "-s", "4"], "s must be invertible mod p"),
    (["homcount", "-p", "5", "-s", "10"], "s must be invertible mod p"),
    (["homcount", "-p", "1" + "0" * 1000, "-s", "3"], "modulus must be below 10^1000"),
    (["color", "-p", "3", "-p", "9" + "0" * 4299], "modulus must be below 10^1000"),
])
def test_bad_modulus_fails_before_the_diagram_is_read(capsys, tmp_path, monkeypatch, argv, message):
    # a missing input would be "cannot read"; the modulus is checked first
    calls = []
    monkeypatch.setattr(invariants, "coloring_count", lambda *a: calls.append(a))
    monkeypatch.setattr(invariants, "quotient_matrix", lambda *a: calls.append(a))
    code, _, err = run(capsys, *argv[:1], str(tmp_path / "missing.gauss"), *argv[1:])
    assert code == 2
    assert err.startswith("invalid configuration: ") and message in err
    assert calls == []


def test_largest_coloring_modulus_prints_its_count(capsys, corpus_dir):
    # 10^1000 is refused before the work; below it a count prints (a 4301-digit one did not)
    p = 10 ** 1000 - 1  # divisible by 3, so the trefoil has 3p colorings
    for argv in (["color", "-p", str(p)], ["invariants", "--color", str(p)]):
        code, out, _ = run(capsys, argv[0], str(corpus_dir / "trefoil.gauss"), *argv[1:])
        assert code == 0
        assert out == f"p={p}: {3 * p} colorings (nontrivial)\n"


def test_combined_invariants_request_matches_its_parts(capsys, corpus_dir, tmp_path):
    # --quotient and --t for --charpoly, and the diagram's --det and --color, in one request: under "none" they
    # evaluate --charpoly's reduced rows for uv and v1, and A(u, v)'s for diag
    rng = random.Random(5)
    paths = [p for p in sorted(corpus_dir.glob("*.gauss")) if not p.read_text().startswith("closed")]
    for n in range(12):
        paths.append(tmp_path / f"r{n}.gauss")
        paths[-1].write_text(random_code(rng, rng.randint(0, 14)))
    requests = [("end-minus", "uv"), ("none", "uv"), ("none", "v1"), ("none", "diag")]
    for path, (quotient, t) in product(paths, requests):
        charpoly = ["--charpoly", "1", "--quotient", quotient, "--t", t]
        colorings = ["--det", "--color", "3"]
        parts, text = {}, ""
        for argv in (charpoly, colorings):
            code, out, _ = run(capsys, "--json", "invariants", str(path), *argv)
            assert code == 0
            parts.update(json.loads(out))
            text += run(capsys, "invariants", str(path), *argv)[1]
        code, out, _ = run(capsys, "--json", "invariants", str(path), *charpoly, *colorings)
        assert code == 0
        assert json.loads(out) == {**parts, "quotient": quotient}, (path.name, quotient, t)
        assert run(capsys, "invariants", str(path), *charpoly, *colorings)[1] == text, (path.name, quotient, t)


def test_budget_exit_3(capsys, corpus_dir):
    code, _, err = run(
        capsys, "--max-minors", "1", "invariants", str(corpus_dir / "k4k5.gauss"),
        "--charpoly", "1",
    )
    assert code == 3
    assert "budget" in err
    k1 = str(corpus_dir / "k1.gauss")
    code, _, err = run(capsys, "--max-coeff-bits", "0", "invariants", k1, "--charpoly", "0")
    assert code == 3
    assert "budget exceeded: coefficient exceeds 0 bits" in err
    # a budget the matrix fits in changes nothing
    assert run(capsys, "--max-coeff-bits", "1", "invariants", k1, "--charpoly", "1") == (0, "1\n", "")
    assert run(capsys, "invariants", k1, "--charpoly", "1") == (0, "1\n", "")


@pytest.mark.parametrize("flag", ["--max-minors", "--max-coeff-bits"])
def test_negative_budgets_exit_2(capsys, corpus_dir, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag, "-1", "invariants", str(corpus_dir / "k1.gauss"), "--charpoly", "1"])
    assert exc.value.code == 2
    assert f"{flag}: must be at least 0" in capsys.readouterr().err


def test_det_is_not_bounded_by_minor_budget(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "--max-minors", "1", "invariants", str(corpus_dir / "k1.gauss"), "--det",
    )
    assert code == 0
    assert out.strip() == "3"


def test_homcount_large_prime_is_fast(capsys, corpus_dir):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "homcount", "-p", "1000000000000000003", "-s", "3", str(corpus_dir / "k1.gauss"),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.strip() == "1000000000000000003"


def homcount(capsys, path, p, s, t):
    code, out, err = run(capsys, "homcount", str(path), "-p", str(p), "-s", str(s), "--t", t)
    assert (code, err) == (0, ""), (p, s, t)
    return int(out)


def test_homcount_counts_mod_composites(capsys, corpus_dir):
    k1 = corpus_dir / "k1.gauss"
    shown = invariants.quotient_pipeline(diagram.parse_gauss(k1.read_text()))
    for t in ("v1", "diag"):
        for s in (3, -1):
            assert homcount(capsys, k1, 4, s, t) == brute_force_hom_count(shown, 4, s % 4, t), (s, t)


# two products of two primes: a strong pseudoprime to the first 12 prime bases, and the least one to the first 13
@pytest.mark.parametrize("a, b", [(399165290221, 798330580441), (1287836182261, 2575672364521)],
                         ids=["318665857834031151167461", "3317044064679887385961981"])
def test_homcount_counts_mod_products_of_two_primes(capsys, corpus_dir, a, b):
    k1 = corpus_dir / "k1.gauss"
    # the maps mod a product of coprime moduli are the pairs of maps mod each
    for t, s in product(("v1", "diag"), (2, 3, -1)):
        count = homcount(capsys, k1, a * b, s, t)
        assert count == homcount(capsys, k1, a, s, t) * homcount(capsys, k1, b, s, t), (s, t)
    # k1's --t v1 Delta_1 is t^2 - t + 1; each prime a is 1 mod 6, and a primitive sixth root s of 1 mod a is a
    # root of Delta_1 mod a, not mod b, so the count is a^2 mod a and b mod b
    s = next(r for r in (pow(x, (a - 1) // 6, a) for x in range(2, 100)) if (r * r - r + 1) % a == 0)
    count = homcount(capsys, k1, a * b, s, "v1")
    assert count == homcount(capsys, k1, a, s, "v1") * homcount(capsys, k1, b, s, "v1") == a * a * b


def test_a_count_too_long_to_print_exits_2(capsys, tmp_path):
    # p < 10^1000 prints, but a count p^k, k >= 5, can pass int's limit on the digits of its text
    trefoil = diagram.parse_gauss("O1+ U2+ O3+ U1+ O2+ U3+")
    path = tmp_path / "five.gauss"
    path.write_text(diagram.serialize_gauss(functools.reduce(diagram.concatenate, [trefoil] * 5)))
    s = 3 * 10 ** 499
    p = s * s - s + 1  # Delta(s) = p for each trefoil, so the count is p^6, of about 6000 digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, *json_flag, "homcount", str(path), "-p", str(p), "-s", str(s), "--t", "v1")
            assert (code, out) == (2, "")
            assert err.startswith("invalid configuration: Exceeds the limit (4300 digits)")
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_deterministic(capsys, corpus_dir):
    args = ("--json", "invariants", str(corpus_dir / "k1.gauss"),
            "--charpoly", "0", "--quotient", "end-minus", "--det", "--color", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1
    assert payload["determinant"] == 3
    assert payload["charpoly"]["value"] == "u^2*v - u + 1"
    assert payload["colorings"] == {"p": 3, "count": 9, "nontrivial": True}


@pytest.mark.parametrize("t", ["uv", "v1", "diag"])
def test_json_char_polys_read_back(capsys, corpus_dir, t):
    for path in sorted(corpus_dir.glob("*.gauss")):
        code, out, _ = run(capsys, "--json", "invariants", str(path), "--charpoly", "0", "--charpoly", "1", "--t", t)
        assert code == 0
        mat = specialized_matrix_reference(diagram.parse_gauss(path.read_text()), "none", t)
        for entry in json.loads(out)["charpoly"]:
            assert entry["ring"] == ("L2" if t == "uv" else "L1")
            value = parse_poly(entry["value"].replace("t", "u"))  # "L1" values are in u alone, printed in t
            assert value == invariants.char_poly(*mat, entry["k"]), (path.name, entry)


def test_presentation_follows_quotient(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "--json", "invariants", str(corpus_dir / "k1.gauss"), "--presentation",
        "--quotient", "end-minus", "--charpoly", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["charpoly"]["value"] == "u^2*v - u + 1"
    pres = payload["presentation"]
    assert pres["end_minus"] == []  # the killed end is gone from the words
    relations = tuple(
        tuple(tuple((g, tuple(e), s) for g, e, s in rel[side]) for side in ("left", "right"))
        for rel in pres["relations"]
    )
    shown = alexander.GroupPresentationZ2(tuple(pres["generators"]), relations)
    assert str(invariants.char_poly(*alexander.abelianize(shown), 0)) == "u^2*v - u + 1"


def _golden_inputs(corpus_dir):
    """(name, code) of every corpus file and of random long and closed codes at c = 0..12 and 20, seeds 0-3."""
    inputs = [(path.stem, path.read_text()) for path in sorted(corpus_dir.glob("*.gauss"))]
    for crossings in (*range(13), 20):
        for seed in range(4):
            for closed in (False, True):
                name = f"{'closed' if closed else 'long'}-c{crossings}-s{seed}"
                inputs.append((name, random_code(random.Random(seed), crossings, closed)))
    return inputs


def _golden_digest(capsys, corpus_dir, tmp_path, flag_sets):
    """sha256 over the --json reports of `invariants CODE FLAGS --quotient Q`, input path left out,
    for every golden input, every valid Q and every flag set, in that order."""
    lines = []
    for name, text in _golden_inputs(corpus_dir):
        path = tmp_path / f"{name}.gauss"
        path.write_text(text + "\n")
        for quotient in quotients(diagram.parse_gauss(text)):
            for flags in flag_sets:
                code, out, _ = run(capsys, "--json", "invariants", str(path), *flags, "--quotient", quotient)
                assert code == 0
                payload = json.loads(out)
                del payload["input"]
                lines.append(f"{name} {json.dumps(payload, sort_keys=True)}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_presentation_digest(capsys, corpus_dir, tmp_path):
    # pins the eliminated presentations: elimination order, relation
    # orientation and dedupe survivors, for every valid --quotient
    digest = _golden_digest(capsys, corpus_dir, tmp_path, [("--presentation",)])
    assert digest == "3adfeb70a39ed15c6a98d9ca9958ee264e01f71cd79c22b6fcb60ec5070a3676"


def test_golden_charpoly_digest(capsys, corpus_dir, tmp_path):
    # pins the char-poly report bytes, ring tag and variable name included, of every --t and every valid --quotient
    flag_sets = [("--charpoly", "0", "--charpoly", "1", "--t", t) for t in ("uv", "v1", "diag")]
    digest = _golden_digest(capsys, corpus_dir, tmp_path, flag_sets)
    assert digest == "c7970c606b64539a3a49b5f97de2c444bd2a90bb4755150f4ac2d8ea744f9c6e"


def test_golden_coloring_matrix_bytes(capsys, corpus_dir, monkeypatch):
    # pins -A(-1) as `color --matrix` prints it, sparse rows and columns once per report, for every corpus file
    monkeypatch.chdir(corpus_dir)
    outputs = []
    for path in sorted(corpus_dir.glob("*.gauss")):
        code, out, _ = run(capsys, "--json", "color", path.name, "-p", "3", "--matrix")
        assert code == 0
        outputs.append(out)
    assert outputs[5] == ('{"colorings": {"count": 3, "nontrivial": false, "p": 3}, "input": "k2.gauss", '
                          '"matrix": {"columns": ["a", "b", "c"], "rows": [{"a": -1, "b": -1, "c": 2}, '
                          '{"b": -1, "c": 1}]}, "schema": 1}\n')
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "6c78a3e0de4618a01ccd2f2b4d5bfa8b253ab84d80e98082ceb06493f587fdb2"


def test_color_matrix_is_written_once_and_grows_with_the_crossings(capsys, corpus_dir, tmp_path):
    # a dense copy of -A(-1) in each of 28 items took 13.7 MB of JSON on dn(k1, 200)
    d = diagram.dn_family(diagram.parse_gauss((corpus_dir / "k1.gauss").read_text()), 200)
    path = tmp_path / "dn.gauss"
    path.write_text(diagram.serialize_gauss(d) + "\n")
    moduli = [arg for p in range(2, 30) for arg in ("-p", str(p))]
    code, out, _ = run(capsys, "--json", "color", str(path), *moduli, "--matrix")
    assert code == 0
    assert out.count('"matrix"') == 1
    payload = json.loads(out)
    rows, cols = alexander.one_var_matrix(d)
    assert payload["matrix"] == {"columns": list(cols), "rows": rows}
    assert (len(rows), len(cols)) == (402, 403)
    assert max(map(len, rows)) <= 3
    assert [item["p"] for item in payload["colorings"]] == list(range(2, 30))
    assert not any("matrix" in item for item in payload["colorings"])
    assert len(out) <= 100 * d.crossings


def test_presentation_adds_nothing_to_the_char_polys(capsys, corpus_dir, tmp_path):
    # the char polys and their budget come from A(u, v) with or without --presentation
    inputs = [(path.stem, path.read_text()) for path in sorted(corpus_dir.glob("*.gauss"))]
    for crossings in range(13):
        for seed in range(2):
            for closed in (False, True):
                inputs.append((f"{closed}-{crossings}-{seed}", random_code(random.Random(seed), crossings, closed)))
    for name, text in inputs:
        path = tmp_path / f"{name}.gauss"
        path.write_text(text + "\n")
        for quotient in quotients(diagram.parse_gauss(text)):
            argv = ["invariants", str(path), "--charpoly", "0", "--charpoly", "1", "--quotient", quotient]
            for budget in ((), ("--max-minors", "1")):
                code, out, _ = run(capsys, "--json", *budget, *argv)
                shown_code, shown, _ = run(capsys, "--json", *budget, *argv, "--presentation")
                assert shown_code == code, (name, quotient, budget)
                if code == 0:
                    assert json.loads(shown)["charpoly"] == json.loads(out)["charpoly"], (name, quotient)


@pytest.mark.parametrize("text, quotient, expected", [
    # the trefoil's word route reduced to 1x1 and printed u^2*v^2 - u*v + 1
    ("O1+ U2+ O3+ U1+ O2+ U3+", "ends", 3),
    # the word route reduced to 2x2, needed 4 minors and exited 3
    ("closed\nO3+ O2+ U4- U1- O4- U2+ O1- U3+", "none", 0),
])
def test_presentation_budget_is_counted_on_the_merged_route(capsys, tmp_path, text, quotient, expected):
    path = tmp_path / "d.gauss"
    path.write_text(text + "\n")
    for presentation in ((), ("--presentation",)):
        code, _, err = run(capsys, "--max-minors", "1", "invariants", str(path), "--charpoly", "0",
                           "--charpoly", "1", "--quotient", quotient, *presentation)
        assert code == expected, presentation
        assert ("budget exceeded: 2 minors of size 1" in err) == (expected == 3)


ELEVEN = "U5+ U7- U4- O10+ U1+ O3- O8+ U9+ O4- O2- O7- U10+ U6+ O6+ U2- O5+ O9+ U8+ O1+ U3- O11- U11-"
THIRTEEN = ("U4+ U1+ O11- O7- U11- U12+ U9- O12+ U2- O6- U7- O5+ U10- U8+ O13- U3- O4+ U13- O9- O10- U5+ O2- "
            "U6- O3- O8+ O1+")


@pytest.mark.parametrize("code, budget, quotient", [
    # reduced together with the "none" matrix of --det and --color, end-minus kept a 3-bit entry
    (ELEVEN, ("--max-coeff-bits", "2"), "end-minus"),
    # and these needed more than 4 minors
    (THIRTEEN, ("--max-minors", "4"), "end-minus"),
    (THIRTEEN, ("--max-minors", "4"), "ends"),
], ids=["c11-end-minus", "c13-end-minus", "c13-ends"])
def test_budgets_do_not_depend_on_det_or_color(capsys, tmp_path, code, budget, quotient):
    path = tmp_path / "d.gauss"
    path.write_text(code + "\n")
    argv = [*budget, "invariants", str(path), "--charpoly", "0", "--charpoly", "1", "--quotient", quotient]
    for extra in ([], ["--det"], ["--color", "3"], ["--det", "--color", "3"]):
        assert run(capsys, *argv, *extra)[0] == 0, extra


@pytest.mark.parametrize("seed, crossings, quotient, shapes, budget, expected", [
    # k = 1: specialized first, 6x6 and 36 minors; reduced in two variables, then specialized, 5x5 and 25 minors
    (5, 30, "end-minus", ((6, 6), (5, 5)), "25", 3),
    # specialized first, 0x1, whose one minor has size 0 and needs no budget; the other order, 1x2 and 2 minors
    (1, 8, "none", ((0, 1), (1, 2)), "1", 0),
], ids=["c30-more-minors", "c8-no-minors"])
def test_specialized_char_poly_budget_counts_the_specialized_reduction(capsys, tmp_path, seed, crossings, quotient,
                                                                       shapes, budget, expected):
    # --max-minors counts on the reduced specialized matrix, whose shape can move either way
    path = tmp_path / "d.gauss"
    path.write_text(random_code(random.Random(seed), crossings) + "\n")
    d = diagram.parse_gauss(path.read_text())
    assert (tuple(map(len, invariants.quotient_matrix(d, quotient, "diag"))),
            tuple(map(len, specialized_matrix_reference(d, quotient, "diag")))) == shapes
    argv = ["invariants", str(path), "--charpoly", "1", "--quotient", quotient, "--t", "diag"]
    code, _, err = run(capsys, "--max-minors", budget, *argv)
    assert code == expected
    assert ("budget exceeded: 36 minors of size 5 exceed budget 25" in err) == (expected == 3)
    assert run(capsys, *argv)[0] == 0


def test_json_presentation_renders_no_text(capsys, corpus_dir, monkeypatch):
    rendered = []
    real = alexander.GroupPresentationZ2.__str__
    monkeypatch.setattr(alexander.GroupPresentationZ2, "__str__", lambda p: rendered.append(p) or real(p))
    args = ("invariants", str(corpus_dir / "k1.gauss"), "--presentation", "--charpoly", "0",
            "--quotient", "end-minus")
    code, out, _ = run(capsys, "--json", *args)
    assert code == 0
    assert rendered == []
    assert json.loads(out)["charpoly"]["value"] == "u^2*v - u + 1"
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert len(rendered) == 1
    assert out.splitlines() == [real(rendered[0]), "u^2*v - u + 1"]


def test_presentation_and_charpoly_share_one_elimination(capsys, corpus_dir, monkeypatch):
    # every Tietze elimination, from a presentation or from a diagram, runs one _eliminate loop
    calls = []
    real = alexander._eliminate
    monkeypatch.setattr(alexander, "_eliminate", lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(
        capsys, "invariants", str(corpus_dir / "k1.gauss"), "--presentation", "--charpoly", "0",
    )
    assert code == 0
    assert len(calls) == 1


def test_construct_concat(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "construct", "concat", str(corpus_dir / "k4.gauss"), str(corpus_dir / "k5.gauss")
    )
    assert code == 0
    assert out.strip() == "U1- O2+ O1- U2+ O3+ U4- U3+ O4-"
    code, _, err = run(capsys, "construct", "concat", str(corpus_dir / "k1.gauss"))
    assert code == 2
    assert "concat requires two diagrams" in err


def test_construct_close(capsys, corpus_dir):
    code, out, _ = run(capsys, "construct", "close", str(corpus_dir / "k1.gauss"))
    assert code == 0
    assert out.startswith("closed")


def test_construct_close_closed_exit_2(capsys, tmp_path):
    closed = tmp_path / "c.gauss"
    closed.write_text("closed\nO1+ U1+\n")
    code, _, err = run(capsys, "construct", "close", str(closed))
    assert code == 2


def test_construct_switch(capsys, corpus_dir):
    code, out, _ = run(capsys, "construct", "switch", str(corpus_dir / "k4.gauss"))
    assert code == 0
    assert out.strip() == "O1+ U2- U1+ O2-"


@pytest.mark.parametrize("op, other", [("close", "7"), ("switch", "k5.gauss")])
def test_construct_close_and_switch_reject_a_second_operand_exit_2(capsys, corpus_dir, op, other):
    code, out, err = run(capsys, "construct", op, str(corpus_dir / "k4.gauss"), other)
    assert code == 2
    assert out == ""
    assert err == f"invalid configuration: {op} takes one diagram, not {other!r} too\n"


def test_construct_dn(capsys, corpus_dir, tmp_path):
    out_path = tmp_path / "d2.gauss"
    code, _, _ = run(
        capsys, "construct", "dn", str(corpus_dir / "empty.gauss"), "2", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().strip() == (corpus_dir / "d2.gauss").read_text().strip()


def test_construct_dn_nontrivial_coloring(capsys, corpus_dir):
    code, out, _ = run(capsys, "construct", "dn", str(corpus_dir / "empty.gauss"), "2")
    assert code == 0
    from vka.alexander import merged_arc_rows
    from vka.diagram import parse_gauss
    from vka.invariants import coloring_count

    d = parse_gauss(out.strip())
    assert d.crossings == 4
    assert coloring_count(*merged_arc_rows(d), [5])[1][0] > 5


def test_construct_dn_rejects_huge_winding_count_exit_2(capsys, corpus_dir, monkeypatch):
    built = []
    monkeypatch.setattr(diagram, "dn_family", lambda d, n: built.append(n))
    code, _, err = run(
        capsys, "construct", "dn", str(corpus_dir / "empty.gauss"), str(MAX_WINDINGS + 1),
    )
    assert code == 2
    assert str(MAX_WINDINGS) in err
    code, _, err = run(capsys, "construct", "dn", str(corpus_dir / "k1.gauss"), "abc")
    assert code == 2
    assert "dn requires a winding count" in err
    assert built == []


def test_construct_dn_takes_one_winding_count(capsys, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "dn", str(corpus_dir / "empty.gauss"), "2", "3"])
    assert exc.value.code == 2


def test_color_command(capsys, corpus_dir):
    code, out, _ = run(capsys, "--json", "color", str(corpus_dir / "trefoil.gauss"), "-p", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["colorings"]["count"] == 9


def test_color_builds_one_smith_form_per_request(capsys, corpus_dir, monkeypatch, arc_builds):
    smith = []
    real_smith = invariants._smith_at
    monkeypatch.setattr(invariants, "_smith_at", lambda *a: smith.append(a) or real_smith(*a))
    moduli = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    argv = ["color", str(corpus_dir / "trefoil.gauss")]
    for p in moduli:
        argv += ["-p", str(p)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(arc_builds) == 1
    assert len(smith) == 1


def test_det_and_colors_share_one_smith_form(capsys, corpus_dir, monkeypatch, arc_builds):
    smith = []
    real_smith = invariants._smith_at
    monkeypatch.setattr(invariants, "_smith_at", lambda *a: smith.append(a) or real_smith(*a))
    code, out, _ = run(capsys, "--json", "invariants", str(corpus_dir / "k1.gauss"),
                       "--det", "--color", "3", "--color", "5")
    assert code == 0
    assert len(arc_builds) == 1
    assert len(smith) == 1
    payload = json.loads(out)
    assert payload["determinant"] == 3
    assert [c["count"] for c in payload["colorings"]] == [9, 5]


@pytest.mark.parametrize("flags", [
    ("--charpoly", "1", "--det", "--color", "3"),
    ("--charpoly", "1", "--det"),
    ("--presentation", "--charpoly", "0", "--charpoly", "1", "--det", "--color", "3", "--color", "5"),
    ("--charpoly", "1", "--t", "v1", "--det", "--color", "3"),  # A(u, 1) at u = -1 is A(-1, 1)
])
def test_char_polys_det_and_colors_share_one_arc_matrix(capsys, corpus_dir, arc_builds, flags):
    code, out, _ = run(capsys, "--json", "invariants", str(corpus_dir / "k1.gauss"), *flags)
    assert code == 0
    assert len(arc_builds) == 1
    assert json.loads(out)["determinant"] == 3


def _coloring_report(capsys, *argv):
    """The colorings and the determinant of a --json report (None where absent)."""
    code, out, _ = run(capsys, "--json", *argv)
    assert code == 0
    payload = json.loads(out)
    return payload.get("colorings"), payload.get("determinant")


@pytest.mark.parametrize("t", ["diag", "v1"])
def test_colorings_and_det_ignore_t(capsys, corpus_dir, t):
    # taken from the L2 matrix at (u, v) = (-1, 1), not from its --t specialization
    for path in sorted(corpus_dir.glob("*.gauss")):
        flags = ["invariants", str(path), "--charpoly", "1", "--color", "3", "--det"]
        report = _coloring_report(capsys, *flags, "--t", t)
        assert report == _coloring_report(capsys, *flags), path.name
        assert report[1] == invariants.determinant_long(diagram.parse_gauss(path.read_text()))


def test_end_quotient_colors_the_diagram(capsys, corpus_dir):
    # --quotient changes the char polys, not the colorings: they are the diagram's
    for path in sorted(corpus_dir.glob("*.gauss")):
        for quotient in ("end-minus", "ends"):
            colorings, _ = _coloring_report(capsys, "invariants", str(path), "--charpoly", "0",
                                            "--quotient", quotient, "--color", "3")
            assert colorings == _coloring_report(capsys, "color", str(path), "-p", "3")[0], (path.name, quotient)


def test_only_color_matrix_builds_a_minus_one(capsys, corpus_dir, monkeypatch):
    built = []
    real = alexander.one_var_matrix
    monkeypatch.setattr(alexander, "one_var_matrix", lambda *a: built.append(a) or real(*a))  # cli reads it from alexander
    k1 = str(corpus_dir / "k1.gauss")
    for argv in (["color", k1, "-p", "3", "-p", "5"],
                 ["color", k1, "-p", "3", "--matrix"],  # the text report has no matrix
                 ["invariants", k1, "--color", "3", "--det"],
                 ["invariants", k1, "--charpoly", "1", "--quotient", "end-minus", "--t", "diag", "--color", "3"]):
        assert run(capsys, *argv)[0] == 0
    assert built == []
    assert run(capsys, "--json", "color", k1, "-p", "3", "--matrix")[0] == 0
    assert len(built) == 1


def test_presentation_alone_builds_no_arc_matrix(capsys, corpus_dir, arc_builds):
    code, _, _ = run(capsys, "invariants", str(corpus_dir / "k1.gauss"), "--presentation")
    assert code == 0
    assert arc_builds == []


def test_count_commands_skip_the_two_variable_reduction(capsys, corpus_dir, monkeypatch):
    # colorings, determinants and hom counts evaluate A(u, v) at their point first, and eliminate the
    # int rows' +-1 pivots in int arithmetic: the Laurent _reduce is never called
    calls, eliminations = [], []
    real = invariants._reduce_int
    monkeypatch.setattr(invariants, "_reduce", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(invariants, "_reduce_int", lambda *a: eliminations.append(a) or real(*a))
    k4k5 = str(corpus_dir / "k4k5.gauss")
    for argv in (["color", k4k5, "-p", "3"],
                 ["homcount", k4k5, "-p", "5", "-s", "3", "--quotient", "end-minus"],
                 ["invariants", k4k5, "--det", "--color", "3"]):
        assert run(capsys, *argv)[0] == 0
    assert calls == [] and eliminations


def test_specialized_char_polys_reduce_one_variable_rows(capsys, corpus_dir, monkeypatch):
    # --t v1 and diag map A(u, v)'s rows into Z[u^+-1] before the reduction: _reduce sees no v-exponent but 0
    reduced = []
    real = invariants._reduce
    monkeypatch.setattr(invariants, "_reduce", lambda rows, *a: reduced.append([dict(r) for r in rows])
                        or real(rows, *a))
    for path in sorted(corpus_dir.glob("*.gauss")):
        for quotient in quotients(diagram.parse_gauss(path.read_text())):
            for t in ("v1", "diag"):
                reduced.clear()
                flags = ["--charpoly", "0", "--charpoly", "1", "--quotient", quotient, "--t", t]
                assert run(capsys, "invariants", str(path), *flags)[0] == 0
                assert len(reduced) == 1, (path.name, quotient, t)
                assert all(b == 0 for row in reduced[0] for e in row.values() for _, b in e), (path.name, quotient, t)


def test_homcount_command(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "homcount", str(corpus_dir / "k4k5.gauss"), "-p", "5", "-s", "3",
        "--quotient", "end-minus",
    )
    assert code == 0
    assert out.strip() == "25"
    code, out, _ = run(
        capsys, "homcount", str(corpus_dir / "k5k4.gauss"), "-p", "5", "-s", "3",
        "--quotient", "end-minus",
    )
    assert code == 0
    assert out.strip() == "5"


def test_fuzz_ok(capsys, corpus_dir):
    code, out, _ = run(
        capsys, "fuzz", str(corpus_dir / "k1.gauss"), "--seed", "7", "--steps", "50"
    )
    assert code == 0
    assert out.strip() == "OK (invariants stable)"


def test_fuzz_zero_steps(capsys, corpus_dir):
    code, out, _ = run(capsys, "fuzz", str(corpus_dir / "k3.gauss"), "--steps", "0")
    assert code == 0
    assert "OK" in out


@pytest.mark.parametrize("walks", ["0", "-1"])
def test_fuzz_rejects_walk_counts_below_one_exit_2(capsys, corpus_dir, walks):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", str(corpus_dir / "k1.gauss"), "--walks", walks])
    assert exc.value.code == 2
    assert "--walks: must be at least 1" in capsys.readouterr().err


def test_fuzz_rejects_negative_steps_before_any_computation(capsys, corpus_dir, monkeypatch):
    # the baseline profile used to run first: 1.8 s on a 30-crossing code, then exit 2
    calls = []
    monkeypatch.setattr(invariants, "invariant_profile", lambda *a, **k: calls.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", str(corpus_dir / "k1.gauss"), "--steps", "-1"])
    assert exc.value.code == 2
    assert "--steps: must be at least 0" in capsys.readouterr().err
    assert calls == []


def test_fuzz_rejects_negative_max_crossings_exit_2(capsys, corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", str(corpus_dir / "k1.gauss"), "--max-crossings", "-3"])
    assert exc.value.code == 2
    assert "--max-crossings: must be at least 0" in capsys.readouterr().err


def test_fuzz_parse_error_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.gauss"
    bad.write_text("O1+ U1- extra\n")
    code, _, err = run(capsys, "fuzz", str(bad))
    assert code == 1


def test_fuzz_instability_exit_4(capsys, corpus_dir, monkeypatch):
    # correct moves never destabilize the invariants, so exercise the
    # failure path by making the profile drift on purpose
    from vka import invariants

    real = invariants.invariant_profile
    calls = []

    def drifting(d, max_minors=invariants.DEFAULT_MINOR_BUDGET):
        profile = dict(real(d, max_minors))
        profile["drift"] = len(calls)
        calls.append(None)
        return profile

    monkeypatch.setattr(invariants, "invariant_profile", drifting)
    code, out, _ = run(capsys, "fuzz", str(corpus_dir / "k1.gauss"), "--steps", "1")
    assert code == 4
    assert "INVARIANCE FAILURE" in out


def test_unknown_flag_exits_2(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", str(corpus_dir / "k1.gauss"), "--frobnicate"])
    assert exc.value.code == 2


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "parse", "no-such-file.gauss")
    assert code == 2
    assert "cannot read" in err


def test_a_key_error_inside_a_command_propagates(capsys, corpus_dir, monkeypatch):
    # no input reaches the library's one KeyError (quotient_kill's), so a KeyError is a defect, not exit 2
    def broken(*args):
        raise KeyError("x1")

    monkeypatch.setattr(invariants, "hom_count_to_cyclic", broken)
    with pytest.raises(KeyError):
        main(["homcount", str(corpus_dir / "k1.gauss"), "-p", "5", "-s", "3"])
    assert capsys.readouterr().err == ""


def test_undecodable_file_exit_2_names_the_path(capsys, tmp_path):
    bad = tmp_path / "bad.gauss"
    bad.write_bytes(b"O1+ U1+ \xff\n")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid configuration: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("target", ["missing/x.gauss", "."])
def test_unwritable_output_exit_2(capsys, corpus_dir, tmp_path, target):
    out_path = tmp_path / target  # a file in a missing directory, or a directory
    code, out, err = run(capsys, "construct", "dn", str(corpus_dir / "d1.gauss"), "2", "-o", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid configuration: cannot write {out_path}: ")
    assert list(tmp_path.iterdir()) == []


def _reuse_calls(corpus_dir):
    k1, k4k5, trefoil = (str(corpus_dir / f"{name}.gauss") for name in ("k1", "k4k5", "trefoil"))
    return [
        ["--json", "invariants", k1, "--charpoly", "0", "--charpoly", "1", "--color", "3", "--det"],
        ["--json", "invariants", k1, "--charpoly", "1"],  # no colorings or det carried over
        ["--max-minors", "1", "invariants", k4k5, "--charpoly", "1"],  # exit 3
        ["invariants", k4k5, "--charpoly", "1"],  # the default budget again
        ["color", trefoil, "-p", "3", "-p", "5"],
        ["--json", "color", trefoil, "-p", "7", "--matrix"],
        ["color", trefoil, "-p", "11"],
        ["invariants", k1, "--color", "x"],  # argparse error, exit 2
        ["fuzz", trefoil, "--walks", "0"],  # argparse type error, exit 2
        ["--json", "fuzz", k1, "--steps", "3", "--walks", "2"],
        ["homcount", k1, "-p", "5", "-s", "3", "--quotient", "end-minus"],
        ["construct", "dn", str(corpus_dir / "empty.gauss"), "2"],
        ["parse", k1],
        ["invariants", k1],  # nothing requested, exit 2
        ["--json", "invariants", k1, "--presentation", "--quotient", "end-minus"],
        [],  # no command, exit 2
        ["--json"],
        ["bogus", k1],  # invalid choice, exit 2
        ["--max-minors", "color", k1],  # --max-minors takes no command name as its value, exit 2
        ["color", k1, "-p", "3", "--bogus"],  # reported under the command's usage line, exit 2
        ["color", k1, "--json", "-p", "3"],  # a global option after the command, exit 2
        ["-h"],
        ["color", "-h"],
    ]


def test_parser_is_built_once_and_reused(capsys, corpus_dir, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    for argv in _reuse_calls(corpus_dir):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "vka", *argv], capture_output=True,
                               text=True, env=env, cwd=REPO_ROOT, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert len(built) == 1


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import vka.cli\n"
        "print(len(built), vka.cli._parser.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, cwd=REPO_ROOT, timeout=60, check=True).stdout
    assert out.split() == ["0", "0"]


def _readme_calls():
    """The argv of each line of the README's command-line block."""
    return [shlex.split(line, comments=True)[1:] for line in _block("Command line").splitlines() if line.strip()]


def _workload_calls(tmp_path):
    """Every request of the three benchmark workloads at seeds 1 and 2 (run from the checkout root)."""
    spec = importlib.util.spec_from_file_location("workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [request for workload in workloads.WORKLOADS for seed in (1, 2)
            for request in workloads.build(workload, seed, tmp_path / f"{workload}-{seed}")]


def _parsed(parse, argv):
    """vars() of parse(argv), or the exit code when it exits."""
    try:
        return vars(parse(argv))
    except SystemExit as exc:
        return exc.code


def test_args_match_the_full_parse(capsys, corpus_dir, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    k1 = str(corpus_dir / "k1.gauss")
    short_forms = [  # abbreviated and "=" forms, and an unknown option before the command (exit 2)
        ["--js", "color", k1, "-p", "3"],
        ["--max-minors=5", "invariants", k1, "--charpoly", "1"],
        ["--max-c=4", "--js", "fuzz", k1, "--max-cr", "9", "--st=3"],
        ["color", k1, "-p3", "--mat"],
        ["--json", "--max-m", "2", "homcount", k1, "-p", "5", "-s=3", "--q", "end-plus"],
        ["--bogus", "parse", k1],
    ]
    assert all(isinstance(_parsed(cli._args, argv), dict) for argv in _readme_calls())
    calls = _workload_calls(tmp_path) + _readme_calls() + _reuse_calls(corpus_dir) + short_forms
    assert len(calls) > 1300
    reference = cli.build_parser()
    for argv in calls:
        expected = _parsed(reference.parse_args, argv)
        if isinstance(expected, dict) and expected["command"] is None:
            expected = 2  # build_parser leaves the command optional; _args requires it
        assert _parsed(cli._args, argv) == expected, argv
    capsys.readouterr()


def test_each_token_is_parsed_once(capsys, corpus_dir, monkeypatch):
    # the top-level parser reads the tokens before the command, the command's parser the ones after it
    k1 = str(corpus_dir / "k1.gauss")
    parser = cli._parser()
    seen = []
    for name, p in [("vka", parser), *parser.commands.items()]:
        def recording(args=None, namespace=None, name=name, real=p.parse_known_args):
            seen.append((name, list(args)))
            return real(args, namespace)
        monkeypatch.setattr(p, "parse_known_args", recording)
    for argv in (["parse", k1], ["--json", "parse", k1], ["--max-minors", "5", "--js", "color", k1, "-p", "3"],
                 ["construct", "dn", k1, "2"], ["homcount", k1, "-p", "5", "-s", "3"]):
        seen.clear()
        k = next(i for i, token in enumerate(argv) if token in parser.commands)
        assert main(argv) == 0
        assert seen == [("vka", argv[:k]), (argv[k], argv[k + 1:])], argv
    capsys.readouterr()


@pytest.mark.parametrize("argv, code, usage, error", [
    ([], 2, "usage: vka [-h]", "vka: error: the following arguments are required: command"),
    (["--json"], 2, "usage: vka [-h]", "vka: error: the following arguments are required: command"),
    (["bogus", "K1"], 2, "usage: vka [-h]", "vka: error: argument command: invalid choice: 'bogus'"),
    (["--max-minors", "color", "K1"], 2, "usage: vka [-h]", "vka: error: argument --max-minors: expected one argument"),
    (["color", "K1", "-p", "3", "--bogus"], 2, "usage: vka color [-h]",
     "vka color: error: unrecognized arguments: --bogus"),
    (["color", "K1", "--json", "-p", "3"], 2, "usage: vka color [-h]",
     "vka color: error: unrecognized arguments: --json"),
    (["-h"], 0, "usage: vka [-h]", None),
    (["color", "-h"], 0, "usage: vka color [-h]", None),
])
def test_usage_errors_and_help(capsys, corpus_dir, argv, code, usage, error):
    argv = [str(corpus_dir / "k1.gauss") if token == "K1" else token for token in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert (err if error else out).startswith(usage)
    errors = [line for line in err.splitlines() if "error:" in line]
    if "invalid choice" in (error or ""):  # the list of commands after it is quoted or not by Python version
        errors = [line.partition(" (choose from ")[0] for line in errors]
    assert errors == ([error] if error else [])


def test_command_options_are_read_by_the_command_alone(capsys, corpus_dir):
    # "--max" abbreviates fuzz's --max-crossings and two global options: after the command only fuzz's parser reads it
    code, out, _ = run(capsys, "fuzz", str(corpus_dir / "k1.gauss"), "--max", "5", "--steps", "0")
    assert (code, out) == (0, "OK (invariants stable)\n")
