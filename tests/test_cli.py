import json
import random
import subprocess
import sys
from pathlib import Path

from skeinlab import cli
from skeinlab.cli import main
from skeinlab.ribbon_backend import make_backend, simple
from skeinlab.skein_algebra import lift_element, loop_element, mu, random_element
from skeinlab.surface import annulus, disk_with_two_points, once_punctured_torus
from skeinlab.tangle import Cell, Strand, TangleWord


def run_cli(args, tmp_path=None):
    import io
    from contextlib import redirect_stdout, redirect_stderr

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_eval_tangle(tmp_path):
    w = TangleWord((Strand(1, 1), Strand(1, 1)), ((Cell("braid+", 0),), (Cell("braid-", 0),)), {})
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


def test_verify_exit_codes_and_determinism(tmp_path):
    args = ["verify", "--suite", "torsion", "--backend", "quantum", "--order", "2", "--seed", "3"]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2  # byte-identical up to timing


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
    w = TangleWord((Strand(1, 1),), (), {})
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
