"""Golden outputs of the CLI on fixed inputs.

Each case runs `skeinlab.cli.main` in-process on JSON inputs from
`tests/golden/inputs/` and compares its stdout byte for byte with the
committed file `tests/golden/<case>.json`.  `verify` reports are compared
with their `elapsed_ms` timing field removed.  `tests/golden/hom_cg.json`
pins the exact solver's outputs on every backend: invariant Hom bases and
the Clebsch-Gordan idempotents embed o project, which do not depend on how
an embedding is normalised.  A refactor of the engine must leave every one
of these files unchanged.

To regenerate after a deliberate change of output:
    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from skeinlab.cli import main
from skeinlab.ribbon_backend import UNIT, dual, make_backend, simple, tensor_word

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "eval_tangle_quantum3": ["eval-tangle", "tangle_hbar3.json", "--backend", "quantum", "--order", "3"],
    "eval_tangle_drinfeld3": ["eval-tangle", "tangle_hbar3.json", "--backend", "drinfeld", "--order", "3"],
    "eval_tangle_adj_quantum3": ["eval-tangle", "tangle_adj.json", "--backend", "quantum", "--order", "3"],
    "eval_tangle_adj_drinfeld3": ["eval-tangle", "tangle_adj.json", "--backend", "drinfeld", "--order", "3"],
    "product_annulus": ["product", "annulus_a.json", "annulus_b.json"],
    "product_torus": ["product", "torus_a.json", "torus_b.json"],
    "product_quantum_annulus": ["product", "quantum_annulus_a.json", "quantum_annulus_b.json"],
    "sigma_algebraic_torus": ["sigma", "torus_a.json", "torus_b.json", "--method", "algebraic"],
    "sigma_goldman_torus": ["sigma", "torus_a.json", "torus_b.json", "--method", "goldman"],
    "sigma_fock_rosly_torus": ["sigma", "torus_a.json", "torus_b.json", "--method", "fock-rosly"],
    "sigma_algebraic_annulus": ["sigma", "annulus_a.json", "annulus_b.json", "--method", "algebraic"],
    "verify_moves_drinfeld3": ["verify", "--suite", "moves", "--backend", "drinfeld", "--order", "3", "--seed", "7",
                               "--cases", "2"],
    "verify_moves_quantum3": ["verify", "--suite", "moves", "--backend", "quantum", "--order", "3", "--seed", "7",
                              "--cases", "2"],
    "verify_ribbon_drinfeld3": ["verify", "--suite", "ribbon", "--backend", "drinfeld", "--order", "3"],
    "verify_ribbon_quantum3": ["verify", "--suite", "ribbon", "--backend", "quantum", "--order", "3"],
    "verify_sigma": ["verify", "--suite", "sigma", "--seed", "3", "--cases", "1"],
    "verify_fusion": ["verify", "--suite", "fusion", "--seed", "3", "--cases", "1"],
    "verify_jacobi": ["verify", "--suite", "jacobi", "--seed", "3", "--cases", "1"],
    "verify_torsion": ["verify", "--suite", "torsion"],
    "eval_tangle_adj_classical": ["eval-tangle", "tangle_adj.json", "--backend", "classical"],
    "eval_tangle_adj_epsilon": ["eval-tangle", "tangle_adj.json", "--backend", "epsilon"],
    "verify_ribbon_epsilon": ["verify", "--suite", "ribbon", "--backend", "epsilon"],
    "verify_ribbon_drinfeld2": ["verify", "--suite", "ribbon", "--backend", "drinfeld", "--order", "2"],
    "verify_moves_epsilon": ["verify", "--suite", "moves", "--backend", "epsilon", "--seed", "7", "--cases", "2"],
    "sigma_fock_rosly_annulus": ["sigma", "annulus_a.json", "annulus_b.json", "--method", "fock-rosly"],
    "sigma_fock_rosly_torus_nodiag": ["sigma", "torus_a.json", "torus_b.json", "--method", "fock-rosly",
                                      "--fr-diagonal", "exclude"],
}


V, ADJ = simple(1), simple(2)
HOM_SPACES = {
    "Hom(1, V V V* V*)": (UNIT, tensor_word([V, V, dual(V), dual(V)])),
    "End(V V)": (tensor_word([V, V]), tensor_word([V, V])),
    "End(V V adj)": (tensor_word([V, V, ADJ]), tensor_word([V, V, ADJ])),
    "Hom(1, adj adj V V)": (UNIT, tensor_word([ADJ, ADJ, V, V])),
}
CG_PAIRS = {"V x V": (V, V), "adj x V": (ADJ, V), "V x adj": (V, ADJ), "adj x adj": (ADJ, ADJ),
            "V3 x adj": (simple(3), ADJ)}


def hom_cg_text():
    payload = {}
    for name in ("classical", "epsilon", "quantum", "drinfeld"):
        bk = make_backend(name, 3)
        payload[name] = {
            "hom": {key: [b.to_json() for b in bk.invariant_hom_basis(s, t)] for key, (s, t) in HOM_SPACES.items()},
            "cg": {
                key: [{"spin": z.spin, "idempotent": (e @ p).to_json()} for z, e, p in bk.cg_decompose(x, y)]
                for key, (x, y) in CG_PAIRS.items()
            },
        }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def run_case(name):
    args = [str(INPUTS / a) if a.endswith(".json") else a for a in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    text = out.getvalue()
    if args[0] == "verify":
        report = json.loads(text)
        report.pop("elapsed_ms")
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return code, text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, text = run_case(name)
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_hom_and_cg_outputs():
    assert hom_cg_text() == (GOLDEN / "hom_cg.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    for case in sorted(CASES):
        exit_code, output = run_case(case)
        if exit_code != 0:
            sys.exit(f"{case}: exit {exit_code}")
        (GOLDEN / f"{case}.json").write_text(output, encoding="utf-8")
    (GOLDEN / "hom_cg.json").write_text(hom_cg_text(), encoding="utf-8")
