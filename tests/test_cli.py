import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import belle_paire
import belle_paire.random_endo as random_endo
from belle_paire.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_approx_endo_success(capsys):
    code, blob = run_json(capsys, "approx-endo", "--endo", "successor",
                          "--n", "8")
    assert code == 0
    assert blob["max_defect"] <= 1
    assert blob["bijective"] is True
    assert blob["semi_orbits"] == 1


def test_approx_endo_bad_table_exits_3(capsys):
    code, _ = run(capsys, "approx-endo", "--endo", "table:[[0,0],[1,0]]",
                  "--n", "4")
    assert code == 3


def test_approx_endo_unknown_endo_exits_2(capsys):
    code, _ = run(capsys, "approx-endo", "--endo", "whatever", "--n", "4")
    assert code == 2


@pytest.mark.parametrize("n", ["1", "2"])
def test_approx_endo_validates_the_whole_window(capsys, n):
    # tau sends 300 and 5000 to 5000, past the first 256 points
    code, out = run(capsys, "--window", "6000", "approx-endo", "--endo",
                    "table:[[300,5000]]", "--n", n)
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("argv,want,bijective", [
    # sigma_1 sends 300 and 5000 to 5000: tau's chain leaves the window and
    # comes back
    (["--window", "400", "approx-endo", "--endo", "table:[[300,5000]]", "--n", "2"],
     1, False),
    # sigma_0 swaps 0 and 100; tau's collision at 100 is outside the window
    (["--window", "40", "approx-endo", "--endo", "table:[[0,100]]", "--n", "1"],
     0, True),
], ids=["off-window-collision", "collision-past-window"])
def test_approx_endo_bijectivity_is_exact_on_the_window(capsys, argv, want, bijective):
    code, blob = run_json(capsys, *argv)
    assert code == want
    assert blob["bijective"] is bijective


def test_approx_endo_classifies_the_window_once(capsys, monkeypatch):
    import belle_paire.approx as approx
    made = []
    init = approx.OrbitClassifier.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(approx.OrbitClassifier, "__init__", counting_init)
    code, _ = run(capsys, "--window", "500", "approx-endo", "--endo",
                  "fq-shift:2", "--n", "3")
    assert code == 0
    assert len(made) == 1


def test_approx_endo_applies_tau_once_per_window_code(capsys, monkeypatch):
    # orbit_decompose reads the 2,000-code prefix of the classifier's
    # 3,000-code window instead of building a second window
    from belle_paire.structures import ShiftInjection
    applied = []
    apply_code = ShiftInjection.apply_code

    def counting(self, k):
        applied.append(k)
        return apply_code(self, k)

    monkeypatch.setattr(ShiftInjection, "apply_code", counting)
    code, out = run(capsys, "--window", "3000", "approx-endo", "--endo",
                    "successor", "--n", "3")
    assert code == 0
    assert len(applied) == 3000
    blob = json.loads(out)
    assert (blob["orbits"], blob["semi_orbits"]) == (0, 1)
    # the stdout before the window was shared
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d593672b2f92505712e8048d1910e65e28070a3068be071d5c3e00c633030ee8")


def test_pair_certify_applies_each_injection_once_per_window_code(capsys, monkeypatch):
    # validate_window, orbit_reduce, the classifier's window and the gap's
    # h row all read the injection's one window_codes row
    from collections import Counter

    from belle_paire.structures import LinearInjection
    applied = Counter()
    apply_code = LinearInjection.apply_code

    def counting(self, k):
        applied[self] += 1
        return apply_code(self, k)

    monkeypatch.setattr(LinearInjection, "apply_code", counting)
    code, out = run(capsys, "--window", "3000", "pair-certify",
                    "--pair1", "fq2:identity", "--pair2", "fq2:shift")
    assert code == 0
    assert list(applied.values()) == [3000]
    # the stdout recorded when each window code was applied five times
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c1c8bae8493d4d657ac21882246a98401edd2b28498635d698f5ad65c04b9aa")


def test_malformed_table_payload_exits_2(capsys):
    code, _ = run(capsys, "approx-endo", "--endo", "table:[[0]]", "--n", "2")
    assert code == 2


def test_lift_within_bound(capsys):
    code, blob = run_json(capsys, "lift", "--endo", "x+2", "--n", "10",
                          "--alphabet", "50")
    assert code == 0
    assert blob["matches_cell_formula"] is True
    assert blob["within_bound"] is True


@pytest.mark.parametrize("endo,want", [("table:[[0,3]]", 3), ("table:[[0,150]]", 0)])
def test_lift_checks_tau_on_its_alphabet(capsys, endo, want):
    # the lift reads the 100 points of its alphabet; 0 and 150 collide past it
    code, _ = run(capsys, "lift", "--endo", endo, "--n", "2")
    assert code == want


def test_pair_certify_certificate(capsys):
    code, blob = run_json(capsys, "--eps", "1/10", "--window", "60",
                          "pair-certify", "--pair1", "pure:identity",
                          "--pair2", "pure:successor")
    assert code == 0
    assert blob["kind"] == "certificate"


def test_pair_certify_refusal_exits_1(capsys):
    code, blob = run_json(
        capsys, "--eps", "1/4", "--window", "40", "pair-certify",
        "--pair1", "fq2:identity", "--pair2", "fq2:shift",
        "--obstruction",
        '{"q": 2, "dim": 2, "grid": 2, "subspace": [[1, 0]]}')
    assert code == 1
    assert blob["kind"] == "refusal"


def test_pair_certify_writes_out_file(capsys, tmp_path):
    out = tmp_path / "cert.json"
    code, blob = run_json(capsys, "--eps", "1/10", "--window", "50",
                          "pair-certify", "--pair1", "pure:identity",
                          "--pair2", "pure:successor", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == blob


def test_pair_certify_unknown_preset_exits_2(capsys):
    code, _ = run(capsys, "pair-certify", "--pair1", "pure:nope",
                  "--pair2", "pure:identity")
    assert code == 2


def test_pair_distance(capsys):
    code, blob = run_json(capsys, "--window", "40", "pair-distance",
                          "--pair1", "pure:identity",
                          "--pair2", "pure:successor", "--alphabet", "10")
    assert code == 0
    from belle_paire.serialize import parse_frac
    assert parse_frac(blob["lower"]) <= parse_frac(blob["upper"])


def test_compose_reports_budgets(capsys):
    code, blob = run_json(capsys, "--eps", "1/4", "--window", "30",
                          "compose", "--expr", "wreath(pure,pure,m=2)")
    assert code == 0
    alloc = dict(tuple(a) for a in blob["certificate"]["allocations"])
    assert alloc["h"] == "1/8"
    assert alloc["b0"] == "1/16"
    assert blob["within_budget"] is True


def test_compose_bad_expr_exits_2(capsys):
    code, _ = run(capsys, "compose", "--expr", "wreath(pure)")
    assert code == 2
    code, _ = run(capsys, "compose", "--expr", "product(pure,pure)",
                  "--element", "nope")
    assert code == 2


def test_bound_table(capsys):
    code, blob = run_json(capsys, "bound", "--geometry", "affine:2",
                          "--delta", "1/8", "--n-max", "4")
    assert code == 0
    assert blob["min_k"]["1/8"] == 3
    assert blob["bounds"][0] == {"n": 1, "lower": "1/2", "modular": "1"}
    assert blob["bounds"][3] == {"n": 4, "lower": "1/8", "modular": "1/4"}


def test_bound_disintegrated_reports_refusal_text(capsys):
    code, blob = run_json(capsys, "bound", "--geometry", "disintegrated",
                          "--delta", "1/4")
    assert code == 0
    assert isinstance(blob["min_k"]["1/4"], str)  # refusal, not a number


def test_bound_bad_geometry_exits_2(capsys):
    code, _ = run(capsys, "bound", "--geometry", "hyperbolic:2")
    assert code == 2


def test_search_matches_baseline(capsys):
    code, blob = run_json(capsys, "--grid", "2", "search", "--q", "2",
                          "--dim", "2", "--subspace", "e0")
    assert code == 0
    assert blob["baseline"] == "match"
    assert blob["gap"] == "1"


def test_search_full_subspace_gap_zero(capsys):
    code, blob = run_json(capsys, "--grid", "2", "search", "--q", "2",
                          "--dim", "2", "--subspace", "full")
    assert code == 0
    assert blob["gap"] == "0"


def test_search_output_stable_across_calls(capsys):
    # the parser is built once per process; each call must parse afresh
    _, a = run(capsys, "search")
    run(capsys, "--grid", "1", "search", "--pure", "2,1")
    _, b = run(capsys, "search")
    assert a == b
    assert json.loads(b)["baseline_key"] == "q2_dim2_grid2_span_e0"


@pytest.mark.parametrize("argv,gap", [
    (["--grid", "3", "search"], "2/3"),
    (["--grid", "4", "search"], "3/4"),
    (["--grid", "2", "search", "--q", "3"], "1"),
])
def test_search_larger_scales_match_baseline(capsys, argv, gap):
    code, blob = run_json(capsys, *argv)
    assert code == 0
    assert blob["baseline"] == "match"
    assert blob["gap"] == gap


# stdout of the search core's earlier product loop, byte for byte: the
# search cases and two search-backed refusals
FROZEN_SEARCH = json.loads(
    (Path(__file__).parent / "search_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", FROZEN_SEARCH,
                         ids=[" ".join(c["argv"]) for c in FROZEN_SEARCH])
def test_search_stdout_is_frozen(capsys, case):
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"])


# stdout and exit codes of the combinators, the gap commands and
# pair-certify, each recorded before a change that could have moved it
FROZEN_CLI = json.loads(
    (Path(__file__).parent / "cli_stdout.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", FROZEN_CLI,
                         ids=[" ".join(c["argv"]) for c in FROZEN_CLI])
def test_cli_stdout_is_frozen(capsys, monkeypatch, case):
    # and every classifier a case builds lays out exactly one window: any
    # other window would drop its records and be laid out afresh
    from collections import Counter

    from belle_paire.approx import OrbitClassifier
    built, laid = [], Counter()
    init, lay_out = OrbitClassifier.__init__, OrbitClassifier._lay_out

    def counting_init(self, tau):
        built.append(self)
        init(self, tau)

    def counting_lay_out(self, n):
        laid[self] += 1
        return lay_out(self, n)

    monkeypatch.setattr(OrbitClassifier, "__init__", counting_init)
    monkeypatch.setattr(OrbitClassifier, "_lay_out", counting_lay_out)
    assert run(capsys, *case["argv"]) == (case["code"], case["stdout"])
    assert [laid[c] for c in built] == [1] * len(built)


@pytest.mark.parametrize("expr", ["findex(product(pure,pure),reps=L.swap)",
                                  "findex(wreath(pure,pure,m=2),reps=b0.swap)"])
def test_findex_composes_with_products_and_wreaths(capsys, expr):
    code, blob = run_json(capsys, "compose", "--expr", expr)
    assert (code, blob["within_budget"]) == (0, True)


@pytest.mark.parametrize("text", ["fq2:identity", "pure:identity"])
def test_pair_presets_build_only_the_named_image(monkeypatch, text):
    from belle_paire import cli
    from belle_paire.structures import IdentityInjection

    def refuse(*args):
        raise AssertionError("an image that was not named was built")

    monkeypatch.setattr(cli, "basis_shift_endo", refuse)
    monkeypatch.setattr(cli, "successor_endo", refuse)
    (image,) = cli._parse_pair(text, 40).image.values()
    assert isinstance(image, IdentityInjection)


@pytest.mark.parametrize("text,known", [("fq2:nope", "identity, shift"),
                                        ("fq3:x", "identity, shift"),
                                        ("pure:nope", "identity, successor")])
def test_unknown_pair_image_names_the_presets(capsys, text, known):
    code = main(["--window", "40", "pair-distance",
                 "--pair1", text, "--pair2", "fq2:shift"])
    name = text.partition(":")[2]
    assert (code, capsys.readouterr().err) == \
        (2, f"error: unknown pair image {name!r}; known: {known}\n")


@pytest.mark.parametrize("pairs", [("pure:identity", "pure:successor"),
                                   ("fq2:identity", "fq2:shift")])
def test_certificate_computes_no_lower_bound(capsys, monkeypatch, pairs):
    def refuse(*args):
        raise AssertionError("a certificate computed the gap's lower bound")

    argv = ["--window", "40", "pair-certify",
            "--pair1", pairs[0], "--pair2", pairs[1]]
    (case,) = [c for c in FROZEN_CLI if c["argv"] == argv]
    monkeypatch.setattr(random_endo, "_gap_lower", refuse)
    monkeypatch.setattr(random_endo, "_uncovered", refuse)
    assert run(capsys, *argv) == (0, case["stdout"])


def test_approx_endo_decodes_only_the_preview_points(capsys, decode_calls):
    code, blob = run_json(capsys, "--window", "2000", "approx-endo",
                          "--endo", "fq-shift:3", "--n", "7")
    assert (code, blob["max_defect"], blob["bijective"]) == (0, 1, True)
    assert blob["semi_orbits"] > 0
    # the 8 preview points and, for the 4 previewed sigmas, their images
    assert 8 <= len(decode_calls) <= 8 + 4 * 8


@pytest.mark.parametrize("q,dim,grid,gap", [
    (2, 2, 5, "4/5"), (2, 2, 6, "2/3"), (2, 2, 8, "3/4"),
    (3, 2, 3, "1"), (3, 2, 4, "3/4"), (2, 3, 3, "1"),
])
def test_search_table_matches_baseline(capsys, q, dim, grid, gap):
    code, blob = run_json(capsys, "--grid", str(grid), "search", "--q", str(q),
                          "--dim", str(dim))
    assert code == 0
    assert blob["baseline_key"] == f"q{q}_dim{dim}_grid{grid}_span_e0"
    assert blob["baseline"] == "match"
    assert blob["gap"] == gap


@pytest.mark.parametrize("argv", [
    ["--grid", "0", "search"],
    ["--grid", "0", "search", "--pure", "3,1"],
    ["search", "--q", "4"],
    ["search", "--q", "1"],
])
def test_search_bad_input_exits_2(capsys, argv):
    code, _ = run(capsys, *argv)
    assert code == 2


def test_search_non_prime_q_exits_2_under_optimize():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "belle_paire.cli",
                           "search", "--q", "4"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""


def test_search_guard_exits_3(capsys):
    code, _ = run(capsys, "--grid", "4", "search", "--q", "3", "--dim", "3",
                  "--subspace", "e0")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["search", "--dim", "5"],
    ["search", "--pure", "11,1"],
])
def test_search_guard_exits_3_before_enumerating(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 3
    assert out == ""


def test_search_baseline_mismatch_exits_1(capsys, tmp_path, monkeypatch):
    from belle_paire.serialize import store_baseline
    store_baseline("search", {"q2_dim2_grid2_span_e0":
                              {"gap": "1/2", "candidates": 1}}, str(tmp_path))
    monkeypatch.setenv("BELLE_PAIRE_BASELINES", str(tmp_path))
    code, blob = run_json(capsys, "--grid", "2", "search")
    assert code == 1
    assert blob["baseline"] == "MISMATCH"


def test_realize_sampled(capsys):
    code, blob = run_json(capsys, "--seed", "5", "realize")
    assert code == 0
    assert blob["identity_holds"] is True


def test_realize_deterministic(capsys):
    _, a = run(capsys, "--seed", "9", "realize")
    _, b = run(capsys, "--seed", "9", "realize")
    assert a == b


def test_realize_from_spec_file(capsys, tmp_path):
    from belle_paire.sampling import SampleStream
    from belle_paire.serialize import json_dumps, realization_spec_to_json
    spec = SampleStream(3).realization_spec()
    path = tmp_path / "spec.json"
    path.write_text(json_dumps(realization_spec_to_json(spec)))
    code, blob = run_json(capsys, "realize", "--spec", str(path))
    assert code == 0
    assert blob["identity_holds"] is True


def test_realize_bad_spec_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"groups\": []}")
    code, _ = run(capsys, "realize", "--spec", str(path))
    assert code == 2
    code, _ = run(capsys, "realize", "--spec", str(tmp_path / "missing.json"))
    assert code == 2


# one group whose home rect has omega interval [1, 0)
REVERSED_RECT_SPEC = {"groups": [{"home": {"rects": [["1", "0", "0", "1"]]},
                                  "pieces": [{"density": [["0", "1", "1"]],
                                              "value": "a"}]}]}


def test_realize_reversed_rect_exits_2(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(REVERSED_RECT_SPEC))
    code = main(["realize", "--spec", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "bad omega interval" in err


def test_realize_reversed_rect_exits_2_under_optimize(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(REVERSED_RECT_SPEC))
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "belle_paire.cli",
                           "realize", "--spec", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "bad omega interval" in proc.stderr


@pytest.mark.parametrize("window", ["0", "-1"])
def test_window_below_one_exits_2(capsys, window):
    code = main(["--window", window, "pair-certify",
                 "--pair1", "fq2:identity", "--pair2", "fq2:shift"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "--window must be >= 1" in err


@pytest.mark.parametrize("endo", ["shift:0", "x+-1"])
def test_shift_below_one_exits_2(capsys, endo):
    code = main(["approx-endo", "--endo", endo, "--n", "3"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "shift offset must be >= 1" in err


def test_shift_below_one_exits_2_under_optimize():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-m", "belle_paire.cli",
                           "approx-endo", "--endo", "x+-1", "--n", "3"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("blob", [{"q": 2}, [1, 2]])
def test_pair_file_missing_fields_exits_2(capsys, tmp_path, blob):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(blob))
    code = main(["pair-certify", "--pair1", f"@{path}", "--pair2", "pure:identity"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "bad pair model" in err


@pytest.mark.parametrize("alphabet", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["lift", "--endo", "successor", "--n", "2"],
    ["pair-distance", "--pair1", "pure:identity", "--pair2", "pure:successor"],
    ["compose", "--expr", "product(pure,pure)"],
], ids=lambda a: a[0])
def test_alphabet_below_one_exits_2(capsys, argv, alphabet):
    code = main(argv + ["--alphabet", alphabet])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "--alphabet must be >= 1" in err


def test_cli_import_leaves_numpy_out():
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, belle_paire.cli; "
                           "print('numpy' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_battery(capsys):
    code, blob = run_json(capsys, "verify")
    assert code == 0
    assert blob["all_ok"] is True
    names = {c["name"] for c in blob["checks"]}
    assert {"defect_bound", "strip_lift", "search_baseline",
            "realization_round_trip", "combinator_budget"} <= names


def test_csv_format(capsys):
    code, out = run(capsys, "--format", "csv", "bound", "--n-max", "2")
    assert code == 0
    assert out.splitlines()[0] == "n,lower_bound,modular_bound"
    assert out.splitlines()[1] == "1,1/2,1"


def test_bad_eps_exits_2(capsys):
    with pytest.raises(SystemExit):
        # argparse handles its own failures; a bad subcommand dies with 2
        main(["no-such-command"])
    code = main(["--eps", "0.5", "bound"])
    assert code == 2


@pytest.mark.parametrize("eps", [["--eps", "0"], ["--eps=-1/4"]],
                         ids=["zero", "negative"])
@pytest.mark.parametrize("expr", ["pure", "product(pure,pure)",
                                  "wreath(pure,pure,m=2)",
                                  "findex(parity,reps=shift2)"])
def test_compose_nonpositive_eps_exits_2(capsys, expr, eps):
    # a bare -1/4 would read as a flag, hence --eps=-1/4
    code = main([*eps, "compose", "--expr", expr])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: eps must be a positive rational\n")


def _pair_file(rect, injection, structure="nat", window=100):
    return {"structure": structure, "window": window,
            "image": {"cells": [[{"rects": [rect]}, injection]]}}


def _linear_pair_file(images):
    return _pair_file(["0", "1", "0", "1"],
                      {"kind": "linear", "q": 2, "images": images}, "fqvec(2)")


# pair files the argv lists below name as @<key>
PAIR_FILES = {
    "rect-zero-denominator.json": _pair_file(["0", "1/0", "0", "1"],
                                             {"kind": "shift", "offset": 1}),
    "float-offset.json": _pair_file(["0", "1", "0", "1"],
                                    {"kind": "shift", "offset": 1.5}),
    "float-image-entry.json": _linear_pair_file([[2.0, 1], [1, 0]]),
    "bool-image-entry.json": _linear_pair_file([[0, True], [True, 0]]),
    **{f"window-{name}-{kind}.json": _pair_file(["0", "1", "0", "1"], injection,
                                               window=window)
       for name, window in (("zero", 0), ("negative", -5))
       for kind, injection in (("identity", {"kind": "identity"}),
                               ("shift", {"kind": "shift", "offset": 1}))},
    **{f"table-{name}.json": _pair_file(["0", "1", "0", "1"],
                                        {"kind": "table", "entries": entries})
       for name, entries in (("repeated-key", [[0, 1], [0, 2], [2, 0]]),
                             ("not-injective", [[0, 5], [1, 5]]))},
}


def with_pair_files(argv, directory):
    for name, blob in PAIR_FILES.items():
        (directory / name).write_text(json.dumps(blob))
    return [f"@{directory / a[1:]}" if a[1:] in PAIR_FILES else a for a in argv]


# inputs that once exited 1 with a traceback, or 0 or 1 with a wrong result
MENDED_INPUTS = {
    "eps-zero-denominator": ["--eps", "1/0", "compose", "--expr", "pure"],
    "delta-zero-denominator": ["bound", "--delta", "1/0"],
    "rect-zero-denominator": ["pair-certify", "--pair1",
                              "@rect-zero-denominator.json",
                              "--pair2", "pure:identity"],
    "deep-expr": ["compose", "--expr",
                  "product(" * 1200 + "pure" + ",pure)" * 1200],
    "negative-table-point": ["--window", "6", "approx-endo", "--endo",
                             "table:[[-1,2]]", "--n", "2"],
    "float-offset": ["pair-certify", "--pair1", "@float-offset.json",
                     "--pair2", "pure:successor"],
    "float-image-entry": ["pair-certify", "--pair1", "@float-image-entry.json",
                          "--pair2", "fq2:identity"],
    "bool-image-entry": ["pair-certify", "--pair1", "@bool-image-entry.json",
                         "--pair2", "fq2:identity"],
    "float-obstruction": ["--eps", "1/4", "--window", "40", "pair-certify",
                          "--pair1", "fq2:identity", "--pair2", "fq2:shift",
                          "--obstruction", '{"q": 2.7, "dim": 2.2, "grid": 2.9, '
                                           '"subspace": [[1.5, 0]]}'],
    "window-zero": ["pair-certify", "--pair1", "@window-zero-identity.json",
                    "--pair2", "@window-zero-shift.json"],
    "window-negative": ["pair-certify", "--pair1", "@window-negative-identity.json",
                        "--pair2", "@window-negative-shift.json"],
    **{f"obstruction-{name}": ["--eps", "1/10", "--window", "40", "pair-certify",
                               "--pair1", "fq2:identity", "--pair2", "fq2:shift",
                               "--obstruction",
                               '{"q": 2, "dim": 2, "grid": 2, "subspace": %s}' % gens]
       for name, gens in (("short-generator", "[[1]]"),
                          ("entry-outside-field", "[[2, 0]]"))},
    "subspace-entry-outside-field": ["search", "--subspace", "2 0"],
    "n-max-zero": ["bound", "--n-max", "0"],
    "n-max-negative": ["bound", "--n-max", "-1"],
    "table-repeated-key": ["approx-endo", "--endo", "table:[[1,2],[1,3]]",
                           "--n", "2"],
    "pair-table-repeated-key": ["pair-certify", "--pair1", "@table-repeated-key.json",
                                "--pair2", "pure:identity"],
    "obstruction-dim-zero": ["--eps", "1/10", "--window", "40", "pair-certify",
                             "--pair1", "fq2:identity", "--pair2", "fq2:shift",
                             "--obstruction",
                             '{"q": 2, "dim": 0, "grid": 2, "subspace": [[]]}'],
    **{f"delta-{name}": ["bound", f"--delta={delta}"]
       for name, delta in (("zero", "0"), ("one", "1"), ("three-halves", "3/2"),
                           ("negative", "-1/2"))},
    "delta-one-of-two": ["bound", "--geometry", "disintegrated", "--delta", "1/4",
                         "--delta", "1"],
}


@pytest.mark.parametrize("argv", MENDED_INPUTS.values(), ids=MENDED_INPUTS)
def test_mended_inputs_exit_2(capsys, tmp_path, argv):
    code = main(with_pair_files(argv, tmp_path))
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,message", [
    (["search", "--subspace", "1"], "generator [1] has length 1, expected dim 2"),
    (["search", "--subspace", "e0,1 1 0"], "generator [1, 1, 0] has length 3"),
    (["search", "--subspace", "2 0"], "generator [2, 0] has an entry outside [0, 2)"),
    (["approx-endo", "--endo", "table:[[1,2],[1,3]]", "--n", "2"],
     "table key 1 is listed with images 2 and 3"),
    (["bound", "--n-max", "0"], "--n-max must be >= 1"),
    (["--grid", "0", "compose", "--expr", "pure"], "--grid must be >= 1"),
    (["--grid", "-1", "compose", "--expr", "pure"], "--grid must be >= 1"),
    (["search", "--dim", "0", "--subspace", "full"], "dim must be >= 1"),
    (["pair-certify", "--pair1", "@table-repeated-key.json", "--pair2",
      "pure:identity"], "table key 0 is listed with images 1 and 2"),
])
def test_malformed_counts_and_generators_are_named(capsys, tmp_path, argv, message):
    assert main(with_pair_files(argv, tmp_path)) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_table_key_repeated_with_one_image_is_one_entry(capsys):
    code, out = run(capsys, "--window", "6", "approx-endo", "--endo",
                    "table:[[1,2],[1,2],[2,1]]", "--n", "2")
    assert (code, out) == run(capsys, "--window", "6", "approx-endo", "--endo",
                              "table:[[1,2],[2,1]]", "--n", "2")
    assert code == 0


GUARD_INPUTS = {
    # refused by the search guard; 6^10000 and |GL(200,2)|^2 have more
    # digits than an int prints
    "pure-grid-10000": ["--grid", "10000", "search", "--pure", "3,1"],
    "dim-200": ["search", "--dim", "200"],
    # one option, so only the rows of a column bound the work
    "pure-grid-2^63": ["--grid", "9223372036854775808", "search", "--pure", "1,1"],
    "q2-dim1-grid-2^63": ["--grid", "9223372036854775808", "search", "--q", "2",
                          "--dim", "1"],
    # |GL(5,2)| passes at grid 1, its 2^25 candidate matrices do not
    "q2-dim5-grid1": ["--grid", "1", "search", "--q", "2", "--dim", "5"],
}

OPTIMIZE_CASES = [
    (["approx-endo", "--endo", "fq-shift:3", "--n", "7"], 0),
    (["--window", "6000", "approx-endo", "--endo", "table:[[300,5000]]",
      "--n", "1"], 3),
    (["--window", "400", "approx-endo", "--endo", "table:[[300,5000]]",
      "--n", "2"], 1),
    (["--window", "2000", "approx-endo", "--endo", "table:[[2,450],[450,7],[7,2]]",
      "--n", "3"], 0),
    (["--eps", "1/4", "--window", "40", "pair-certify", "--pair1", "fq2:identity",
      "--pair2", "fq2:shift"], 0),
    (["--eps", "1/4", "--window", "40", "pair-certify", "--pair1", "fq2:identity",
      "--pair2", "fq2:shift", "--obstruction",
      '{"q": 2, "dim": 2, "grid": 2, "subspace": [[1, 0]]}'], 1),
    (["--grid", "3", "search", "--q", "2", "--dim", "2"], 0),
    (["--seed", "7", "realize"], 0),
    (["pair-distance", "--pair1", "fq2:identity", "--pair2", "fq2:shift",
      "--alphabet", "9"], 0),
    (["compose", "--expr", "findex(parity,reps=shift2)"], 0),
    # a pair file's table is refused as --endo table: refuses it
    (["pair-certify", "--pair1", "@table-not-injective.json", "--pair2",
      "pure:identity"], 3),
] + [(argv, 2) for argv in MENDED_INPUTS.values()] + [
    (argv, 3) for argv in GUARD_INPUTS.values()]


@pytest.mark.parametrize("argv,want", OPTIMIZE_CASES,
                         ids=["approx-endo-fq", "table-collision",
                              "table-off-window-collision", "table-3-cycle",
                              "pair-certify-fq2",
                              "pair-certify-fq2-obstruction", "search",
                              "realize", "pair-distance-fq2",
                              "compose-findex-parity", "pair-table-collision",
                              *MENDED_INPUTS, *GUARD_INPUTS])
def test_cli_output_is_the_same_under_optimize(tmp_path, argv, want):
    # no check of the program lives in an assert, so python -O prints the
    # same bytes and exits with the same code
    argv = with_pair_files(argv, tmp_path)
    src = str(Path(belle_paire.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    runs = [subprocess.run([sys.executable, *flags, "-m", "belle_paire.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
            for flags in ([], ["-O"])]
    plain, optimized = runs
    assert plain.returncode == want, plain.stderr
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode, plain.stdout, plain.stderr)
    if want == 3:  # a precondition: one stderr line, no output, no traceback
        assert plain.stdout == "" and plain.stderr.count("\n") == 1
        assert plain.stderr.startswith("precondition failed: ")
