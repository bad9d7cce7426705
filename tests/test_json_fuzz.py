"""Hypothesis fuzz of the JSON front door.

Arbitrary JSON in entry keys, entry positions and coefficient lists must
either raise SkeinlabError (exit 2 on the command line) or give a value
whose to_json reads back to the same JSON, with every coefficient the
exact value of the string or integer it was given: never a TypeError, an
IndexError, or a rational made from a float.  Tangle words and surface
patterns, well formed or not, and skein elements with mutated fields go
through the command line, which must exit 0 or 2 and never report an
internal error (exit 3).
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from skeinlab.cli import main
from skeinlab.errors import SkeinlabError
from skeinlab.ribbon_backend import Morphism
from skeinlab.scalars import ScalarSeries

json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# coefficients that are sometimes exact: integers, rational and decimal strings, and lookalikes
coefficients = (
    st.integers(-50, 50)
    | st.fractions(max_denominator=30).map(str)
    | st.decimals(allow_nan=True, allow_infinity=True, places=2).map(str)
    | st.sampled_from(["0", "-0", "1/0", "1 / 2", " 3", "0x10", "1_0", "nan", "inf", "²", "1e3"])
    | json_values
)
coefficient_lists = st.lists(coefficients, max_size=4) | json_values
# V (x) V -> V: keys in range, out of range, malformed or not numbers at all
keys = (
    st.tuples(st.integers(-1, 3), st.integers(-1, 4)).map(lambda ij: f"{ij[0]},{ij[1]}")
    | st.sampled_from(["0,01", "00,1", "+1,0", "-0,0", "1,2,3", "1", ",", "٣,0", "²,0", "--1,0", " 1,0"])
    | st.text(max_size=6)
)
entries = st.dictionaries(keys, coefficient_lists, max_size=4) | json_values


def _exact(c):
    return isinstance(c, str) or type(c) is int


def _given_coefficients(data):
    return [c for coeffs in data.values() for c in coeffs]


@settings(max_examples=400, deadline=None)
@given(entries)
def test_morphism_from_json_accepts_exact_coefficients_or_raises(entries):
    data = {"source": ["tensor", ["V"], ["V"]], "target": ["V"], "mode": "hbar", "order": 3, "entries": entries}
    try:
        m = Morphism.from_json(data)
    except SkeinlabError:
        return
    assert all(_exact(c) for c in _given_coefficients(entries)), entries
    for pos, coeffs in entries.items():
        i, j = map(int, pos.split(","))
        assert list(m.entry(i, j).coeffs[: len(coeffs)]) == [Fraction(c) for c in coeffs]
    text = m.to_json()
    assert Morphism.from_json(text) == m
    assert Morphism.from_json(text).to_json() == text


@settings(max_examples=300, deadline=None)
@given(coefficient_lists)
def test_scalar_series_from_json_accepts_exact_coefficients_or_raises(coeffs):
    data = {"mode": "hbar", "order": 3, "coeffs": coeffs}
    try:
        s = ScalarSeries.from_json(data)
    except SkeinlabError:
        return
    assert all(_exact(c) for c in coeffs), coeffs
    assert list(s.coeffs[: len(coeffs)]) == [Fraction(c) for c in coeffs]
    assert ScalarSeries.from_json(s.to_json()) == s
    assert ScalarSeries.from_json(s.to_json()).to_json() == s.to_json()


@given(st.sampled_from([0.1, 1.0, True, False, None, [1], {"1": 2}]))
def test_floats_and_booleans_are_not_coefficients(value):
    for parse in (
        lambda: Morphism.from_json({"source": ["V"], "target": ["V"], "mode": "classical", "order": 1,
                                    "entries": {"0,0": [value]}}),
        lambda: ScalarSeries.from_json({"mode": "classical", "order": 1, "coeffs": [value]}),
    ):
        try:
            parse()
        except SkeinlabError as exc:
            assert "coefficient" in str(exc)
        else:
            raise AssertionError(f"{value!r} was read as a coefficient")


def test_exponents_are_bounded():
    """A string exponent is read exactly, so a huge one would build a huge integer."""
    read = ScalarSeries.from_json({"mode": "classical", "order": 1, "coeffs": ["-2.5e3"]})
    assert read.coeffs == (Fraction(-2500),)
    for text in ("1e99999999", "1E+100000", "5e-123456"):
        try:
            ScalarSeries.from_json({"mode": "classical", "order": 1, "coeffs": [text]})
        except SkeinlabError as exc:
            assert "exponent" in str(exc)
        else:
            raise AssertionError(f"{text!r} was read")


def _exit_code(args, data, at=1):
    """Run the command line with `data` written to a file whose path is inserted at args[at]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*args[:at], str(path), *args[at:]])
    assert code in (0, 2) and "internal error" not in err.getvalue(), (code, err.getvalue())
    return code, out.getvalue()


def mostly(good, bad):
    """`good` nine times in ten, else `bad`: most inputs get past the first check."""
    return st.integers(0, 9).flatmap(lambda n: bad if n == 0 else good)


# spins of at most 2 keep every word small: 4 strands and 4 slices of cups stay below 3^12
junk_labels = st.sampled_from(["V9", "V99999999", "W", ""]) | json_scalars
labels = mostly(st.sampled_from(["V", "adj", "unit", "V0"]), junk_labels)
strands = mostly(st.tuples(labels, st.sampled_from(["+", "-"])).map(list), json_values)
kinds = mostly(st.sampled_from(["braid+", "braid-", "cup", "cap", "twist+", "twist-", "coupon", "assoc+", "assoc-"]),
               json_scalars)
cells = mostly(st.fixed_dictionaries(
    {"cell": kinds, "at": mostly(st.integers(0, 3), json_scalars)},
    optional={"label": labels, "flavor": mostly(st.sampled_from(["l", "r"]), json_scalars),
              "id": mostly(st.sampled_from(["c", "d"]), json_values)},
), json_values)
identity_on = [
    {"source": source, "target": source, "mode": "classical", "order": 1,
     "entries": {f"{i},{i}": ["1"] for i in range(dim)}}
    for source, dim in ((["V"], 2), (["tensor", ["V"], ["dual", ["V"]]], 4), (["unit"], 1))
]
coupons = mostly(st.sampled_from(identity_on), json_values)
coupon_tables = mostly(st.dictionaries(st.sampled_from(["c", "d"]), coupons, max_size=2), json_values)
tangle_words = mostly(st.fixed_dictionaries(
    {"bottom": mostly(st.lists(strands, max_size=4), json_values),
     "slices": st.lists(st.lists(cells, max_size=2), max_size=4)},
    optional={"coupons": coupon_tables, "top": st.lists(strands, max_size=4)},
), json_values)


@settings(max_examples=300, deadline=None)
@given(tangle_words)
def test_tangle_words_evaluate_or_exit_2(word):
    _exit_code(["eval-tangle", "--backend", "classical"], word)


ends = mostly(st.fixed_dictionaries(
    {"v": mostly(st.integers(0, 2), json_scalars), "slot": mostly(st.integers(0, 1), json_scalars)},
    optional={"orient": mostly(st.sampled_from(["+", "-"]), json_scalars)},
), json_values)
handles = mostly(st.fixed_dictionaries({"ends": mostly(st.lists(ends, min_size=2, max_size=2), json_values)}),
                 json_values)
patterns = mostly(st.fixed_dictionaries(
    {"vertices": mostly(st.integers(1, 3), json_scalars.filter(lambda v: type(v) is not int)),
     "handles": st.lists(handles, max_size=3)},
), json_values)


@settings(max_examples=300, deadline=None)
@given(patterns, st.sampled_from([(0, 1), (1, 0), (1, 2), (0, 0), (0, 3)]))
def test_surface_patterns_fuse_or_exit_2(pattern, site):
    code, out = _exit_code(["fuse", *map(str, site)], pattern)
    if code == 0:
        fused = json.loads(out)
        assert fused["vertices"] == pattern["vertices"] - 1
        for handle in fused["handles"]:
            assert sorted(end["orient"] for end in handle["ends"]) == ["+", "-"]


INPUTS = Path(__file__).parent / "golden" / "inputs"
ELEMENT = json.loads((INPUTS / "annulus_a.json").read_text(encoding="utf-8"))
# key paths into ELEMENT that a mutation replaces or removes
element_fields = st.sampled_from([
    ("argument",), ("argument", 0), ("backend",), ("order",), ("pattern",), ("pattern", "vertices"),
    ("pattern", "handles"), ("pattern", "handles", 0, "ends", 1), ("terms",), ("terms", 0), ("terms", 0, "labels"),
    ("terms", 0, "labels", 0), ("terms", 0, "core"), ("terms", 0, "core", "source"), ("terms", 0, "core", "target"),
    ("terms", 0, "core", "entries"), ("terms", 0, "core", "mode"), ("terms", 0, "core", "order"),
])
REMOVED = "<removed>"
element_values = st.sampled_from([
    REMOVED, "classical", "epsilon", "quantum", "drinfeld", "hbar", "V", "adj", "V8", "V9", ["V"], ["unit"], ["adj"],
    ["tensor", ["adj"], ["dual", ["adj"]]], [["V"]], [["unit"], ["unit"]], 0, 1, 2, 3, 99, {"0,0": ["1"]},
]) | json_values
element_mutations = st.lists(st.tuples(element_fields, element_values), min_size=1, max_size=3)


def _mutated_element(mutations):
    data = copy.deepcopy(ELEMENT)
    for path, value in mutations:
        try:  # an earlier mutation may have removed or replaced the path
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if value == REMOVED:
                parent.pop(path[-1])
            else:
                parent[path[-1]] = copy.deepcopy(value)  # Hypothesis shares its values between examples
        except (KeyError, IndexError, TypeError, AttributeError):
            pass
    return data


@settings(max_examples=300, deadline=None)
@given(element_mutations)
def test_skein_elements_multiply_or_exit_2(mutations):
    _exit_code(["product", str(INPUTS / "annulus_b.json")], _mutated_element(mutations))


@settings(max_examples=300, deadline=None)
@given(element_mutations)
def test_skein_elements_beside_a_torus_element_give_a_goldman_sigma_or_exit_2(mutations):
    """The unmutated annulus element lives on another pattern than the torus
    one, which the product walk refuses before any crossing is applied."""
    _exit_code(["sigma", str(INPUTS / "torus_a.json"), "--method", "goldman"], _mutated_element(mutations), at=2)
