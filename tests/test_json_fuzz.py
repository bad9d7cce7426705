"""Hypothesis fuzz of the JSON front door of morphisms and scalar series.

Arbitrary JSON in entry keys, entry positions and coefficient lists must
either raise SkeinlabError (exit 2 on the command line) or give a value
whose to_json reads back to the same JSON, with every coefficient the
exact value of the string or integer it was given: never a TypeError, an
IndexError, or a rational made from a float.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

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
