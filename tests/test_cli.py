import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from oracles import random_code
from conftest import REPO_ROOT
from vka import alexander, cli, diagram, invariants
from vka.cli import MAX_WINDINGS, main


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
    (["homcount", "-p", "1", "-s", "3"], "p must be prime"),
    (["homcount", "-p", "4", "-s", "3"], "p must be prime"),
    (["homcount", "-p", "5", "-s", "10"], "s must be invertible mod p"),
    (["homcount", "-p", "3317044064679887385961981", "-s", "3"], "is not certified"),
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


def test_budget_exit_3(capsys, corpus_dir):
    code, _, err = run(
        capsys, "--max-minors", "1", "invariants", str(corpus_dir / "k4k5.gauss"),
        "--charpoly", "1",
    )
    assert code == 3
    assert "budget" in err


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


@pytest.mark.parametrize("p, message", [
    ("318665857834031151167461", "must be prime"),  # composite, below the bound
    ("3317044064679887385961981", "not certified"),  # the bound itself
])
def test_homcount_rejects_uncertified_moduli_exit_2(capsys, corpus_dir, p, message):
    code, _, err = run(capsys, "homcount", "-p", p, "-s", "3", str(corpus_dir / "k1.gauss"))
    assert code == 2
    assert message in err


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
        alexander.OpRelation(*(tuple(alexander.OpLetter(g, tuple(e), s) for g, e, s in side)
                               for side in (rel["left"], rel["right"])))
        for rel in pres["relations"]
    )
    shown = alexander.GroupPresentationZ2(tuple(pres["generators"]), relations)
    assert str(invariants.char_poly(alexander.abelianize(shown), 0)) == "u^2*v - u + 1"


def test_golden_presentation_digest(capsys, corpus_dir, tmp_path):
    # pins the eliminated presentations: elimination order, relation
    # orientation and dedupe survivors, for every valid --quotient
    inputs = [(path.stem, path.read_text()) for path in sorted(corpus_dir.glob("*.gauss"))]
    for crossings in (*range(13), 20):
        for seed in range(4):
            for closed in (False, True):
                name = f"{'closed' if closed else 'long'}-c{crossings}-s{seed}"
                inputs.append((name, random_code(random.Random(seed), crossings, closed)))
    lines = []
    for name, text in inputs:
        path = tmp_path / f"{name}.gauss"
        path.write_text(text + "\n")
        closed = text.lstrip().startswith("closed")
        for quotient in ("none",) if closed else ("none", "end-minus", "end-plus", "ends"):
            code, out, _ = run(capsys, "--json", "invariants", str(path), "--presentation",
                               "--quotient", quotient)
            assert code == 0
            payload = json.loads(out)
            del payload["input"]
            lines.append(f"{name} {json.dumps(payload, sort_keys=True)}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3adfeb70a39ed15c6a98d9ca9958ee264e01f71cd79c22b6fcb60ec5070a3676"


def test_golden_coloring_matrix_bytes(capsys, corpus_dir, monkeypatch):
    # pins -A(-1) as `color --matrix` prints it, for every corpus file
    monkeypatch.chdir(corpus_dir)
    outputs = []
    for path in sorted(corpus_dir.glob("*.gauss")):
        code, out, _ = run(capsys, "--json", "color", path.name, "-p", "3", "--matrix")
        assert code == 0
        outputs.append(out)
    assert outputs[5] == ('{"colorings": {"count": 3, "matrix": [[-1, -1, 2], [0, -1, 1]], "nontrivial": false, '
                          '"p": 3}, "input": "k2.gauss", "schema": 1}\n')
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "7313dbad907877f5971b1a814e32598a6734c57828a53f34ea775823c26f0b25"


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
        closed = text.lstrip().startswith("closed")
        for quotient in ("none",) if closed else ("none", "end-minus", "end-plus", "ends"):
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
    calls = []
    real = alexander.tietze_eliminate
    for module in (alexander, invariants):
        monkeypatch.setattr(module, "tietze_eliminate", lambda p: calls.append(p) or real(p))
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
    from vka.diagram import parse_gauss
    from vka.invariants import coloring_count

    d = parse_gauss(out.strip())
    assert d.crossings == 4
    assert coloring_count(d, [5])[0].nontrivial


def test_construct_dn_rejects_huge_winding_count_exit_2(capsys, corpus_dir, monkeypatch):
    built = []
    monkeypatch.setattr(diagram, "dn_family", lambda d, n: built.append(n))
    code, _, err = run(
        capsys, "construct", "dn", str(corpus_dir / "empty.gauss"), str(MAX_WINDINGS + 1),
    )
    assert code == 2
    assert str(MAX_WINDINGS) in err
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
    real_smith = invariants.smith_normal_form
    monkeypatch.setattr(invariants, "smith_normal_form", lambda rows: smith.append(rows) or real_smith(rows))
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
    real_smith = invariants.smith_normal_form
    monkeypatch.setattr(invariants, "smith_normal_form", lambda rows: smith.append(rows) or real_smith(rows))
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
])
def test_char_polys_det_and_colors_share_one_arc_matrix(capsys, corpus_dir, arc_builds, flags):
    code, out, _ = run(capsys, "--json", "invariants", str(corpus_dir / "k1.gauss"), *flags)
    assert code == 0
    assert len(arc_builds) == 1
    assert json.loads(out)["determinant"] == 3


def test_presentation_alone_builds_no_arc_matrix(capsys, corpus_dir, arc_builds):
    code, _, _ = run(capsys, "invariants", str(corpus_dir / "k1.gauss"), "--presentation")
    assert code == 0
    assert arc_builds == []


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
