import argparse
import inspect
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from skeinlab import cli, suites
from skeinlab.cli import main
from skeinlab.ribbon_backend import make_backend, simple, tensor_word
from skeinlab.skein_algebra import lift_element, loop_element, mu, random_element
from skeinlab.surface import annulus, disk_with_two_points, once_punctured_torus
from skeinlab.tangle import Cell, TangleWord


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_eval_tangle(tmp_path):
    w = TangleWord((simple(1), simple(1)), ((Cell("braid+", 0),), (Cell("braid-", 0),)), {})
    path = tmp_path / "word.json"
    path.write_text(json.dumps(w.to_json()))
    code, out, _ = run_cli(["eval-tangle", str(path), "--backend", "quantum", "--order", "3"])
    assert code == 0
    data = json.loads(out)
    # R2: the evaluation is the identity matrix
    assert all(v == ["1", "0", "0"] for v in data["entries"].values())


def test_product_and_sigma(tmp_path):
    cl = make_backend("classical")
    ann = annulus()
    tr = loop_element(cl, ann, [[0]])
    left = tmp_path / "a.json"
    right = tmp_path / "b.json"
    left.write_text(json.dumps(tr.to_json()))
    right.write_text(json.dumps(tr.to_json()))
    code, out, _ = run_cli(["product", str(left), str(right)])
    assert code == 0
    code, out_g, _ = run_cli(["sigma", str(left), str(right), "--method", "goldman"])
    assert code == 0
    code, out_a, _ = run_cli(["sigma", str(left), str(right), "--method", "algebraic"])
    assert code == 0
    ga = json.loads(out_g)
    aa = json.loads(out_a)
    assert ga.pop("method") == "goldman" and aa.pop("method") == "algebraic"
    assert ga == aa  # identical payloads (both vanish here)


def test_fuse_command(tmp_path):
    disk = disk_with_two_points()
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(disk.to_json()))
    code, out, _ = run_cli(["fuse", str(path), "0", "1"])
    assert code == 0
    assert json.loads(out)["vertices"] == 1


def test_verify_fusion_v2v1_checks_its_cases():
    code, out, err = run_cli(["verify", "--suite", "fusion", "--convention", "fusion=v2v1", "--cases", "1"])
    assert code == 0, err
    report = json.loads(out)
    assert report["cases"] == 2 and report["defects"] == []


def test_verify_exit_codes_and_determinism(tmp_path):
    args = ["verify", "--suite", "moves", "--seed", "3", "--cases", "1"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2  # byte-identical up to timing


def test_verify_does_not_depend_on_the_hash_seed():
    """The moves suite on Drinfeld(3) in two interpreters with different hash seeds: equal reports apart from
    `elapsed_ms`, so no hash that varies between runs (of a str, or of an id()) reaches an output order."""
    src = str(Path(cli.__file__).resolve().parents[1])
    args = ["verify", "--suite", "moves", "--backend", "drinfeld", "--order", "3"]
    reports = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "skeinlab.cli", *args], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        report.pop("elapsed_ms")
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["cases"] > 0


def test_verify_reports_the_order_of_the_ring_that_ran():
    for backend, order in (("classical", 1), ("epsilon", 2), ("quantum", 2)):
        code, out, _ = run_cli(["verify", "--suite", "ribbon", "--backend", backend, "--order", "2"])
        assert code == 0
        assert json.loads(out)["order"] == order, backend
    code, out, _ = run_cli(["verify", "--suite", "moves", "--backend", "epsilon", "--cases", "1"])
    assert code == 0 and json.loads(out)["order"] == 2


def test_verify_rejects_case_counts_below_one():
    for suite, cases in (("moves", "0"), ("moves", "-3"), ("sigma", "-3")):
        code, out, err = run_cli(["verify", "--suite", suite, "--cases", cases])
        assert code == 2 and out == "", (suite, cases)
        assert "--cases must be at least 1" in err


def test_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["eval-tangle", str(bad)])
    assert code == 2


def test_unknown_backend_exit_2(tmp_path):
    w = TangleWord((simple(1),), (), {})
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w.to_json()))
    code, out, err = run_cli(["eval-tangle", str(path), "--backend", "nonsense"])
    assert code == 2


def test_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SKEINLAB_SEED", "11")
    code, out, _ = run_cli(["verify", "--suite", "torsion"])
    assert code == 0
    assert json.loads(out)["seed"] == 11


def test_coupon_entry_out_of_range_exit_2(tmp_path):
    # a V -> V coupon whose only entry lies outside the 2x2 matrix
    coupon = {"source": ["V"], "target": ["V"], "mode": "hbar", "order": 3, "entries": {"9,9": ["1", "0", "0"]}}
    w = {"bottom": [["V", "+"]], "slices": [[{"cell": "coupon", "at": 0, "id": "c"}]], "coupons": {"c": coupon}}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w))
    code, out, err = run_cli(["eval-tangle", str(path), "--backend", "quantum", "--order", "3"])
    assert code == 2 and out == ""
    assert "outside" in err


GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


def _edited_annulus(tmp_path, edit):
    data = json.loads((GOLDEN_INPUTS / "annulus_a.json").read_text(encoding="utf-8"))
    edit(data["terms"][0])
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_non_intertwiner_core_exit_2(tmp_path):
    left = _edited_annulus(tmp_path, lambda term: term["core"]["entries"].update({"1,0": ["5"]}))
    code, out, err = run_cli(["product", left, str(GOLDEN_INPUTS / "annulus_b.json")])
    assert code == 2 and out == ""
    assert "term 0 (labels adj)" in err and "invariant Hom space" in err


def test_labels_not_matching_core_exit_2(tmp_path):
    left = _edited_annulus(tmp_path, lambda term: term.update({"labels": ["V"]}))
    code, out, err = run_cli(["product", left, str(GOLDEN_INPUTS / "annulus_b.json")])
    assert code == 2 and out == ""
    assert "term 0 (labels V)" in err and "boundary word" in err


def test_elements_on_different_patterns_or_backends_exit_2():
    """Every ordered pair of golden elements that differ in pattern or
    backend is refused by `product` and by each sigma method.  The product
    walk names the mismatch, unless a vertex sum or intersection rule first
    refuses its non-classical left operand; the algebraic route may refuse
    an unliftable operand first."""
    names = ("annulus_a", "annulus_b", "quantum_annulus_a", "quantum_annulus_b", "torus_a", "torus_b")
    data = {name: json.loads((GOLDEN_INPUTS / f"{name}.json").read_text(encoding="utf-8")) for name in names}
    checked = 0
    for a, b in itertools.permutations(names, 2):
        left, right = data[a], data[b]
        if (left["backend"], left["pattern"]) == (right["backend"], right["pattern"]):
            continue
        mismatch = "different backends" if left["backend"] != right["backend"] else "different patterns"
        for command in (["product"], *(["sigma", "--method", m] for m in ("algebraic", "goldman", "fock-rosly"))):
            code, out, err = run_cli([command[0], str(GOLDEN_INPUTS / f"{a}.json"), str(GOLDEN_INPUTS / f"{b}.json"),
                                      *command[1:]])
            assert code == 2 and out == "" and "internal error" not in err, (a, b, command, err)
            if command[-1] in ("goldman", "fock-rosly") and left["backend"] != "classical":
                assert "runs over the classical backend" in err, (a, b, command, err)
            elif command[-1] != "algebraic":
                assert mismatch in err, (a, b, command, err)
            checked += 1
    assert checked == 24 * 4


def test_sigma_algebraic_quantum_order_1_exit_2(tmp_path):
    q1 = make_backend("quantum", 1)
    paths = []
    for name, loops in (("a", [[0]]), ("b", [[1]])):
        element = lift_element(loop_element(make_backend("classical"), once_punctured_torus(), loops), q1)
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(element.to_json()))
    code, out, err = run_cli(["sigma", str(paths[0]), str(paths[1]), "--method", "algebraic"])
    assert code == 2 and out == ""
    assert "first-order deformation" in err


def test_missing_key_exit_2_names_the_file(tmp_path):
    data = json.loads((GOLDEN_INPUTS / "annulus_a.json").read_text(encoding="utf-8"))
    del data["pattern"]
    path = tmp_path / "no_pattern.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["product", str(path), str(GOLDEN_INPUTS / "annulus_b.json")])
    assert code == 2 and out == ""
    assert "no_pattern.json" in err and "KeyError" in err and "internal error" not in err


def test_internal_error_exit_3(monkeypatch):
    def broken_mu(a, b):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "mu", broken_mu)
    code, out, err = run_cli(["product", str(GOLDEN_INPUTS / "annulus_a.json"), str(GOLDEN_INPUTS / "annulus_b.json")])
    assert code == 3 and out == ""
    assert "internal error" in err and "Traceback" in err and "broken_mu" in err


def test_engine_fault_in_the_span_check_exit_3(monkeypatch):
    """A fault inside an element's span check is a bug, not malformed input."""
    from skeinlab import skein_algebra

    def broken_coordinates(m, basis):
        raise IndexError("bug")

    monkeypatch.setattr(skein_algebra, "coordinates", broken_coordinates)
    code, out, err = run_cli(["product", str(GOLDEN_INPUTS / "annulus_a.json"), str(GOLDEN_INPUTS / "annulus_b.json")])
    assert code == 3 and out == ""
    assert "internal error" in err and "broken_coordinates" in err and "malformed" not in err


def test_float_and_boolean_coefficients_exit_2(tmp_path):
    """Only strings and integers are exact coefficients: the JSON number 0.1
    read as Fraction(0.1) would be 3602879701896397/36028797018963968, and
    true would be read as 1."""
    right = str(GOLDEN_INPUTS / "annulus_b.json")
    for value in (0.1, 2.0, True, None, ["2"]):
        left = _edited_annulus(tmp_path, lambda term: term["core"]["entries"].update(
            {pos: [value] for pos in term["core"]["entries"]}))
        code, out, err = run_cli(["product", left, right])
        assert code == 2 and out == "", value
        assert "coefficient" in err and "internal error" not in err, err
    # the golden input's "2" as the integer 2 or the decimal string "2.0" is the same element
    golden = (GOLDEN_INPUTS.parent / "product_annulus.json").read_text(encoding="utf-8")
    for value in (2, "2.0"):
        left = _edited_annulus(tmp_path, lambda term: term["core"]["entries"].update(
            {pos: [value] for pos in term["core"]["entries"]}))
        code, out, _ = run_cli(["product", left, right])
        assert code == 0 and out == golden, value


def _edited_tangle(tmp_path, edit):
    data = json.loads((GOLDEN_INPUTS / "tangle_adj.json").read_text(encoding="utf-8"))
    edit(data)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_non_string_labels_exit_2(tmp_path):
    right = str(GOLDEN_INPUTS / "annulus_b.json")
    # a label's digits are ASCII: "V\u0662" (Arabic-Indic two) is not adj
    for labels, message in (([5], "label must be a string"), ([None], "label must be a string"),
                            ("adj", "labels must be a list"), (["V\u0662"], "unknown simple label")):
        code, out, err = run_cli(["product", _edited_annulus(tmp_path, lambda term: term.update(labels=labels)), right])
        assert code == 2 and out == "" and "internal error" not in err, err
        assert message in err, (labels, err)
    # the integer 7 is not the label "V7"; ["unit"] and [label] take no further
    # element, "dual" exactly one and "tensor" at least two
    data = json.loads((GOLDEN_INPUTS / "annulus_a.json").read_text(encoding="utf-8"))
    for argument, message in (
        ([[7]], "label must be a string"),
        ([7], "non-empty list"),
        ([[]], "non-empty list"),
        (["V"], "non-empty list"),
        ([["unit", "junk", 7]], "malformed object"),
        ([["V", ["V"]]], "malformed object"),
        ([["tensor"]], "malformed object"),
        ([["tensor", ["unit"]]], "malformed object"),
        ([["dual"]], "malformed object"),
        ([["dual", ["V"], ["V"]]], "malformed object"),
        ([["V\u00b2"]], "unknown simple label"),
        ([["V\u0663"]], "unknown simple label"),
    ):
        data["argument"] = argument
        path = tmp_path / "arg.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["product", str(path), right])
        assert code == 2 and out == "" and "internal error" not in err, argument
        assert message in err, (argument, err)
    path = _edited_annulus(tmp_path, lambda term: term["core"].update(source=["unit", {"anything": 1}]))
    code, out, err = run_cli(["product", path, right])
    assert code == 2 and out == "" and "malformed object" in err, err
    path = _edited_tangle(tmp_path, lambda w: w["bottom"][0].__setitem__(0, 5))
    code, out, err = run_cli(["eval-tangle", path, "--backend", "quantum", "--order", "3"])
    assert code == 2 and out == "" and "label must be a string" in err, err


def test_tangle_orientation_and_position_must_be_exact(tmp_path):
    """Only "+"/"-" orient a strand, only non-negative, non-bool integers
    place a cell and only "l"/"r" flavor a cup or cap; "up" was read as
    down, true as position 1, and a cup of another flavor as "l" on the
    boundary but "r" in its morphism."""
    edits = [
        lambda w: (w.pop("top"), w["bottom"][0].__setitem__(1, "up")),
        lambda w: w["bottom"][0].__setitem__(1, 1),
        lambda w: w["bottom"][0].append("+"),
        lambda w: w["slices"][4][0].__setitem__("at", True),
        lambda w: w["slices"][4][0].__setitem__("at", 1.0),
        lambda w: w["slices"][4][0].__setitem__("at", "1"),
        lambda w: w["slices"][0][0].__setitem__("at", -1),
        lambda w: w["slices"][3][0].__setitem__("flavor", "x"),
    ]
    for n, edit in enumerate(edits):
        code, out, err = run_cli(["eval-tangle", _edited_tangle(tmp_path, edit), "--backend", "quantum", "--order", "3"])
        assert code == 2 and out == "" and "internal error" not in err, (n, err)
        assert "strand must be" in err or "cell position" in err or "cell flavor" in err, (n, err)
    code, out, _ = run_cli(["eval-tangle", _edited_tangle(tmp_path, lambda w: None), "--backend", "quantum", "--order", "3"])
    assert code == 0 and out


def test_tangle_coupon_table_ids_and_cup_labels_exit_2(tmp_path):
    """A coupon table that is not an object, a coupon id that is not a
    string and a cup with no label were internal errors (exit 3); a cup
    past the last strand was placed after it."""
    edits = [
        (lambda w: w.update(coupons=[]), "coupons must be an object"),
        (lambda w: w["slices"].append([{"cell": "coupon", "at": 0, "id": ["x"]}]), "coupon id must be a string"),
        (lambda w: w["slices"][3][0].pop("label"), "cup at 2 has no label"),
        (lambda w: w["slices"][3][0].update(at=3), "cup at 3 is past the 2 strands"),
    ]
    for edit, message in edits:
        code, out, err = run_cli(["eval-tangle", _edited_tangle(tmp_path, edit), "--backend", "classical"])
        assert code == 2 and out == "" and "internal error" not in err, err
        assert message in err, err


def test_tangle_spins_are_bounded(tmp_path):
    """Strand and cup labels obey the same spin bound as coupon boundaries."""
    edits = [
        lambda w: (w.pop("top"), w["bottom"][0].__setitem__(0, "V9")),
        lambda w: w["slices"][3][0].__setitem__("label", "V99999999"),
    ]
    for edit in edits:
        code, out, err = run_cli(["eval-tangle", _edited_tangle(tmp_path, edit), "--backend", "classical"])
        assert code == 2 and out == "" and "out of range 0..8" in err, err


def _two_vertex_pattern(tmp_path, first, second):
    ends = [{"v": 0, "slot": 0}, {"v": 1, "slot": 0}]
    for end, orient in zip(ends, (first, second)):
        if orient is not None:
            end["orient"] = orient
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps({"vertices": 2, "handles": [{"ends": ends}]}))
    return str(path)


def test_handle_orientations_must_be_exact(tmp_path):
    """Only "+" and "-" orient a handle end, and two stated orientations
    must differ; "x" was read as "-", and (-, -) was rewritten to (+, -)."""
    for first, second in (("x", "-"), ("+", 1), ("-", "-"), ("+", "+"), (None, "x")):
        code, out, err = run_cli(["fuse", _two_vertex_pattern(tmp_path, first, second), "0", "1"])
        assert code == 2 and out == "" and "internal error" not in err, (first, second, err)
        assert "orient" in err or "opposite orientation" in err, err
    # an omitted orientation is the opposite of the other end's, and "+" first when both are omitted
    for first, second, signs in ((None, None, "+-"), (None, "+", "-+"), ("-", None, "-+"), ("+", "-", "+-")):
        code, out, _ = run_cli(["fuse", _two_vertex_pattern(tmp_path, first, second), "0", "1"])
        assert code == 0, (first, second)
        (handle,) = json.loads(out)["handles"]
        assert "".join(end["orient"] for end in handle["ends"]) == signs, (first, second)


def test_vertex_count_is_bounded_by_the_handle_ends(tmp_path):
    """Every vertex but one must hold a handle end.  Nothing bounded the
    count before: a million vertices with no handles took seconds to fuse
    and printed megabytes."""
    path = tmp_path / "pattern.json"
    path.write_text(json.dumps({"vertices": 1_000_000, "handles": []}))
    start = time.perf_counter()
    code, out, err = run_cli(["fuse", str(path), "0", "1"])
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and "exceeds the 0 handle ends plus one" in err, err
    handle = {"ends": [{"v": 0, "slot": 0}, {"v": 1, "slot": 0}]}
    for vertices, code_wanted in ((3, 0), (4, 2)):
        path.write_text(json.dumps({"vertices": vertices, "handles": [handle]}))
        code, out, err = run_cli(["fuse", str(path), "0", "1"])
        assert code == code_wanted, (vertices, err)


TANGLE = ["eval-tangle", "tangle_adj.json"]
ANNULI = ["product", "annulus_a.json", "annulus_b.json"]
TORI = ["sigma", "torus_a.json", "torus_b.json"]
DISK = ["fuse", "disk.json", "0", "1"]
TORSION = ["verify", "--suite", "torsion"]
RIBBON_SUITE = ["verify", "--suite", "ribbon"]
SIGMA_SUITE = ["verify", "--suite", "sigma", "--cases", "1"]
MOVES_SUITE = ["verify", "--suite", "moves", "--cases", "1"]
FUSION_SUITE = ["verify", "--suite", "fusion", "--cases", "1"]
JACOBI_SUITE = ["verify", "--suite", "jacobi", "--cases", "1"]


@pytest.mark.parametrize(
    "command, option",
    [
        (TANGLE, ["--fr-diagonal", "exclude"]),
        (TANGLE, ["--seed", "3"]),
        (TANGLE, ["--convention", "fusion=v2v1"]),
        (ANNULI, ["--backend", "quantum"]),
        (ANNULI, ["--order", "5"]),
        (ANNULI, ["--seed", "9"]),
        (ANNULI, ["--convention", "fusion=v2v1"]),
        (ANNULI, ["--fr-diagonal", "exclude"]),
        (ANNULI, ["--backend", "drinfeld", "--order", "4"]),
        (TORI + ["--method", "goldman"], ["--fr-diagonal", "exclude"]),
        (TORI + ["--method", "algebraic"], ["--fr-diagonal", "include"]),
        (TORI, ["--fr-diagonal", "exclude"]),
        (TORI, ["--backend", "quantum"]),
        (TORI, ["--seed", "3"]),
        (TORI, ["--convention", "fusion=v1v2"]),
        (DISK, ["--seed", "3"]),
        (DISK, ["--backend", "quantum"]),
        (DISK, ["--order", "3"]),
        (DISK, ["--fr-diagonal", "exclude"]),
        (TORSION, ["--backend", "quantum", "--order", "5"]),
        (TORSION, ["--order", "2"]),
        (TORSION, ["--seed", "3"]),
        (TORSION, ["--cases", "9"]),
        (TORSION, ["--seed", "5", "--cases", "9"]),
        (RIBBON_SUITE, ["--seed", "3"]),
        (RIBBON_SUITE, ["--cases", "2"]),
        (SIGMA_SUITE, ["--backend", "classical"]),
        (SIGMA_SUITE, ["--convention", "fusion=v1v2"]),
        (SIGMA_SUITE, ["--fr-diagonal", "include"]),
        (MOVES_SUITE, ["--fr-diagonal", "exclude", "--convention", "fusion=v2v1"]),
        (MOVES_SUITE, ["--convention", "fusion=v1v2"]),
        (FUSION_SUITE, ["--order", "3"]),
        (FUSION_SUITE, ["--fr-diagonal", "exclude"]),
        (JACOBI_SUITE, ["--backend", "quantum"]),
        (JACOBI_SUITE, ["--convention", "fusion=v2v1"]),
        (JACOBI_SUITE, ["--fr-diagonal", "exclude"]),
    ],
    ids=lambda words: " ".join(w for w in words if not w.endswith(".json") and not w.isdigit()),
)
def test_an_option_the_command_does_not_read_exit_2(command, option, tmp_path):
    """Every command accepted every option, so one that it does not read was
    silently ignored: the command printed the answer it gives without it."""
    (tmp_path / "disk.json").write_text(json.dumps(disk_with_two_points().to_json()))
    argv = [str((tmp_path if w == "disk.json" else GOLDEN_INPUTS) / w) if w.endswith(".json") else w for w in command]
    assert run_cli(argv)[0] == 0
    code, out, _ = run_cli(argv + option)
    assert code == 2 and out == ""


@pytest.mark.parametrize("suite", sorted(suites.SUITES))
def test_each_suite_runner_reads_exactly_its_listed_options(suite):
    """`verify` refuses the options SUITES does not list for a suite and
    passes the listed ones to its runner in order, so the list must bind
    every parameter: a runner parameter left unbound would keep its default
    while verify accepted nothing for it, and one bound twice or too many
    options would not bind."""
    runner, options = suites.SUITES[suite]
    assert set(options) <= set(cli.VERIFY_SUITE_OPTIONS)
    signature = inspect.signature(runner)
    assert list(signature.bind(*options).arguments) == list(signature.parameters)


def test_verify_drinfeld_order_above_3_exit_2():
    code, out, err = run_cli(["verify", "--suite", "moves", "--backend", "drinfeld", "--order", "4"])
    assert code == 2 and out == ""
    assert "orders <= 3" in err


def test_readme_cli_block_parses_and_shows_every_option():
    """Each `skeinlab ...` line of the README's CLI block parses, and the
    block shows each command with exactly the options its parser declares."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    parser = cli.build_parser()
    shown = {}
    for words in (shlex.split(line) for line in block.splitlines() if line.startswith("skeinlab ")):
        args = parser.parse_args(words[1:])
        shown.setdefault(args.command, set()).update(w for w in words if w.startswith("--"))
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--") and o != "--help"}
        for name, p in commands.items()
    }
    assert shown == declared


@pytest.mark.parametrize("command", [["verify", "--suite", "torsion"], ["fuse", "{disk}", "0", "1"]], ids=["verify", "fuse"])
def test_out_writes_what_stdout_would_print(command, tmp_path):
    disk = tmp_path / "disk.json"
    disk.write_text(json.dumps(disk_with_two_points().to_json()))
    args = [a.format(disk=disk) for a in command]
    code, printed, _ = run_cli(args)
    assert code == 0
    target = tmp_path / "out.json"
    code, out, _ = run_cli(args + ["--out", str(target)])
    assert code == 0 and out == ""
    written, expected = json.loads(target.read_text()), json.loads(printed)
    written.pop("elapsed_ms", None)
    expected.pop("elapsed_ms", None)
    assert written == expected


def test_non_integer_env_seed_exit_2(monkeypatch):
    monkeypatch.setenv("SKEINLAB_SEED", "abc")
    code, out, err = run_cli(["verify", "--suite", "torsion"])
    assert code == 2 and out == ""
    assert "SKEINLAB_SEED must be an integer, got 'abc'" in err


def test_unknown_fuse_convention_exit_2(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(disk_with_two_points().to_json()))
    code, out, err = run_cli(["fuse", str(path), "0", "1", "--convention", "fusion=bad"])
    assert code == 2 and out == ""
    assert "unknown convention 'fusion=bad'" in err


def test_coupon_over_another_ring_exit_2(tmp_path):
    ep = make_backend("epsilon")
    coupon = ep.random_invariant(tensor_word([simple(1)]), tensor_word([simple(1)]), random.Random(3))
    w = TangleWord((simple(1),), ((Cell("coupon", 0, coupon_id="c"),),), {"c": coupon})
    path = tmp_path / "w.json"
    path.write_text(json.dumps(w.to_json()))
    code, out, err = run_cli(["eval-tangle", str(path), "--backend", "quantum", "--order", "3"])
    assert code == 2 and out == ""
    assert "coupon 'c' lives in epsilon" in err
