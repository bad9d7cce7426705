"""Integer layers over a common denominator against the Fraction kernels they replaced.

The `_frac_*` functions below are the sparse kernels of the engine before
its layers became (den, {(i, j): int}) pairs, kept here as the reference.
Each integer kernel must give the same rational matrix as its reference on
seeded random sparse layers with mixed denominators, negative entries and
entries that cancel, and every layer the engine builds must be canonical.
"""

import io
import random
import tokenize
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path

import pytest

from skeinlab import ribbon_backend, suites
from skeinlab.ribbon_backend import (
    OMEGA_TENSOR,
    T_TENSOR,
    Morphism,
    _convolve,
    _int_apply,
    _int_compose,
    _int_kron,
    _layer,
    _layers_add,
    _layers_kron,
    _layers_scale,
    _product,
    _sum,
    as_layer,
    classical_action,
    exp_nilseries,
    insert_legs,
    make_backend,
    simple,
    to_fractions,
)
from skeinlab.scalars import ScalarSeries, epsilon_mode, hbar_mode
from skeinlab.skein_algebra import lift_element, mu, random_element
from skeinlab.surface import once_punctured_torus

# ---------------------------------------------------------------------------
# The reference: sparse Fraction kernels
# ---------------------------------------------------------------------------


def _frac_compose(a, b):
    by_row = {}
    for (j, k), v in b.items():
        by_row.setdefault(j, []).append((k, v))
    out = {}
    for (i, j), x in a.items():
        for k, y in by_row.get(j, ()):
            key = (i, k)
            p = x * y
            s = out.get(key)
            out[key] = p if s is None else s + p
    return {k: v for k, v in out.items() if v}


def _frac_kron(a, b, bd_rows, bd_cols):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i * bd_rows + k, j * bd_cols + l)] = x * y
    return out


def _frac_apply(a, b, right, src, tgt):
    """(id (x) a (x) id_right) b by mixed-radix row arithmetic."""
    by_col = {}
    for (k, c), x in a.items():
        by_col.setdefault(c, []).append((k, None if x == 1 else x))
    block = src * right
    out = {}
    for (r, j), y in b.items():
        l, rest = divmod(r, block)
        c, rr = divmod(rest, right)
        for k, x in by_col.get(c, ()):
            key = ((l * tgt + k) * right + rr, j)
            p = y if x is None else x * y
            s = out.get(key)
            out[key] = p if s is None else s + p
    return {k: v for k, v in out.items() if v}


def _frac_iadd(out, b):
    """out += b in place, dropping cancelled entries; returns out."""
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s += v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _frac_add(a, b):
    return _frac_iadd(dict(a), b)


def _frac_scale(a, s):
    return {k: v * s for k, v in a.items()} if s else {}


def _frac_convolve(a, b, product):
    """Truncated convolution: layer k of the result is sum_{i+j=k} product(a[i], b[j])."""
    n = len(a)
    out = [None] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(n - i):
            y = b[j]
            if y:
                p = product(x, y)
                acc = out[i + j]
                out[i + j] = p if acc is None else _frac_iadd(acc, p)
    return [{} if layer is None else layer for layer in out]


# ---------------------------------------------------------------------------
# Seeded random layers
# ---------------------------------------------------------------------------

DENOMINATORS = (1, 1, 2, 3, 4, 6, 24)


def _value(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice(DENOMINATORS))


def _fractions(rng, rows, cols, density=0.4):
    """A sparse Fraction matrix; one in four is integral, one in eight empty."""
    shape = rng.random()
    if shape < 0.125:
        return {}
    m = {(i, j): _value(rng) for i in range(rows) for j in range(cols) if rng.random() < density}
    if shape < 0.375:
        m = {k: Fraction(v.numerator) for k, v in m.items()}
    return m


def _cancelling(rng, a, rows, cols):
    """A matrix that cancels part of `a` and adds entries elsewhere."""
    b = {k: -v for k, v in a.items() if rng.random() < 0.5}
    b.update({k: _value(rng) for k, v in _fractions(rng, rows, cols, 0.2).items() if k not in b})
    return b


def assert_canonical(layer):
    den, entries = layer
    assert type(den) is int and den > 0, layer
    assert all(type(v) is int and v for v in entries.values()), layer
    assert gcd(den, *entries.values()) == 1, layer


def _equal(layer, expected):
    assert_canonical(layer)
    return to_fractions(layer) == {k: v for k, v in expected.items() if v}


SEEDS = range(40)


@pytest.mark.parametrize("seed", SEEDS)
def test_binary_kernels_match_the_fraction_reference(seed):
    rng = random.Random(seed)
    r, m, c = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    a, b = _fractions(rng, r, m), _fractions(rng, m, c)
    la, lb = as_layer(a), as_layer(b)
    assert _equal(_layer(*_product(la, lb, _int_compose)), _frac_compose(a, b))
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    kron = _layer(*_product(la, lb, lambda x, y: _int_kron(x, y, rows, cols)))
    assert _equal(kron, _frac_kron(a, b, rows, cols))
    # apply: b, from c to m letters, acts on the middle factor of left (x) c (x) right
    left, right = rng.randint(1, 3), rng.randint(1, 3)
    core = _fractions(rng, left * c * right, rng.randint(1, 3))
    applied = _layer(*_product(lb, as_layer(core), lambda x, y: _int_apply(x, y, right, c, m)))
    assert _equal(applied, _frac_apply(b, core, right, c, m))


@pytest.mark.parametrize("seed", SEEDS)
def test_sums_match_the_fraction_reference(seed):
    rng = random.Random(100 + seed)
    r, c = rng.randint(1, 6), rng.randint(1, 6)
    a = _fractions(rng, r, c)
    b = _cancelling(rng, a, r, c)
    d = _fractions(rng, r, c)
    expected = _frac_add(_frac_add(a, b), d)
    assert _equal(_sum([as_layer(a), as_layer(b), as_layer(d)]), expected)
    assert _equal(_layers_add([as_layer(a)], [as_layer(b)])[0], _frac_add(a, b))
    assert _sum([as_layer(a), as_layer({k: -v for k, v in a.items()})]) == (1, {})
    # _sum reads its terms and never writes them
    terms = [as_layer(a), as_layer(b)]
    snapshot = [(den, dict(e)) for den, e in terms]
    _sum(terms)
    assert terms == snapshot


@pytest.mark.parametrize("seed", SEEDS)
def test_convolutions_and_scaling_match_the_fraction_reference(seed):
    rng = random.Random(200 + seed)
    mode = rng.choice((epsilon_mode(), hbar_mode(2), hbar_mode(3), hbar_mode(4)))
    n, r, m, c = mode.order, rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
    a = [_fractions(rng, r, m) for _ in range(n)]
    b = [_fractions(rng, m, c) for _ in range(n)]
    la, lb = [as_layer(x) for x in a], [as_layer(x) for x in b]
    for got, want in zip(_convolve(la, lb, _int_compose), _frac_convolve(a, b, _frac_compose)):
        assert _equal(got, want)
    for got, want in zip(_layers_kron(la, lb, m, c), _frac_convolve(a, b, lambda x, y: _frac_kron(x, y, m, c))):
        assert _equal(got, want)
    s = ScalarSeries.from_coeffs(mode, [_value(rng) if rng.random() < 0.7 else 0 for _ in range(n)])
    scaled = [{} for _ in range(n)]
    for i, coeff in enumerate(s.coeffs):
        for j in range(n - i):
            _frac_iadd(scaled[i + j], _frac_scale(a[j], coeff))
    for got, want in zip(_layers_scale(la, s), scaled):
        assert _equal(got, want)


@pytest.mark.parametrize("seed", range(12))
def test_exp_nilseries_matches_the_fraction_reference(seed):
    rng = random.Random(300 + seed)
    mode = hbar_mode(rng.randint(1, 4))
    d = rng.randint(1, 5)
    m = _fractions(rng, d, d, 0.5)
    rate = _value(rng)
    power = {(i, i): Fraction(1) for i in range(d)}
    expected = [power]
    for k in range(1, mode.order):
        power = _frac_compose(power, m)
        expected.append(_frac_scale(power, rate**k / factorial(k)))
    for got, want in zip(exp_nilseries(as_layer(m), d, mode, rate), expected):
        assert _equal(got, want)


def test_insert_legs_matches_fraction_leg_products():
    """insert_legs against each term built from the reference kernels, with
    coefficients over 24 as rebracket uses them."""
    rng = random.Random(400)
    pool = [simple(0), simple(1), simple(2)]
    tensors = [T_TENSOR, tuple((c / 24, *g) for c, *g in OMEGA_TENSOR)]
    for _ in range(20):
        factors = [rng.choice(pool) for _ in range(rng.randint(3, 4))]
        dims = [w.dim for w in factors]
        m = _fractions(rng, prod(dims), rng.randint(1, 3))
        terms = []
        for tensor in tensors:
            legs = len(tensor[0]) - 1
            terms.append((*rng.sample(range(len(factors)), legs), tensor))
        expected = {}
        for *positions, tensor in terms:
            for coeff, *gens in tensor:
                x = m
                for p, g in reversed(list(zip(positions, gens))):
                    action = {k: Fraction(v) for k, v in classical_action(g, factors[p]).items()}
                    x = _frac_apply(action, x, prod(dims[p + 1 :]), dims[p], dims[p])
                _frac_iadd(expected, _frac_scale(x, coeff))
        assert _equal(insert_legs(factors, terms, as_layer(m)), expected)


def test_layer_round_trips():
    rng = random.Random(500)
    for _ in range(30):
        m = _fractions(rng, 4, 4)
        assert to_fractions(as_layer(m)) == m
        assert_canonical(as_layer(m))
    assert as_layer({(0, 0): 0, (0, 1): Fraction(0), (1, 1): "0"}) == (1, {})
    assert as_layer({(0, 0): True, (1, 1): "-3/6"}) == (2, {(0, 0): 2, (1, 1): -1})
    assert_canonical(as_layer({(0, 0): True}))
    with pytest.raises(TypeError):
        as_layer({(0, 0): 0.5})


def test_scaling_by_two_and_back_is_the_same_morphism():
    rng = random.Random(600)
    for mode in (epsilon_mode(), hbar_mode(3)):
        for _ in range(10):
            x, y = simple(rng.randint(0, 2)), simple(rng.randint(0, 2))
            m = Morphism(x, y, mode, [_fractions(rng, y.dim, x.dim) for _ in range(mode.order)])
            back = m.scale(2).scale(Fraction(1, 2))
            assert back == m and back.layers == m.layers
            assert m.scale(Fraction(1, 24)).scale(24).layers == m.layers


# ---------------------------------------------------------------------------
# Every layer the engine builds is canonical
# ---------------------------------------------------------------------------


def _watch_layers(monkeypatch):
    """Check every morphism constructed from here on; returns the count."""
    seen = [0]
    of, init = Morphism._of, Morphism.__init__

    def check(m):
        seen[0] += 1
        assert len(m.layers) == m.mode.order
        for layer in m.layers:
            assert_canonical(layer)

    def watched_of(source, target, mode, layers):
        m = of(source, target, mode, layers)
        check(m)
        return m

    def watched_init(self, *args):
        init(self, *args)
        check(self)

    monkeypatch.setattr(Morphism, "_of", staticmethod(watched_of))
    monkeypatch.setattr(Morphism, "__init__", watched_init)
    return seen


@pytest.mark.parametrize("name", ["quantum", "drinfeld"])
def test_every_layer_of_a_moves_case_set_is_canonical(name, monkeypatch):
    # a fresh backend, so that its braidings, twists and Hom bases are built under the watch
    monkeypatch.setattr(suites, "make_backend", lambda n, o: ribbon_backend.BackendSpec(n, hbar_mode(o)))
    seen = _watch_layers(monkeypatch)
    cases = suites.moves_suite(name, 3, 2, words_per_kind=1)
    assert cases and all(case["ok"] for case in cases)
    assert seen[0] > 100, seen


def test_every_layer_of_an_epsilon_torus_product_is_canonical(monkeypatch):
    # a fresh epsilon backend, so that its braidings and Hom bases are built under the watch
    cl, eps = make_backend("classical"), ribbon_backend.BackendSpec("epsilon", epsilon_mode())
    rng = random.Random(8)
    torus = once_punctured_torus()
    a = lift_element(random_element(cl, torus, rng, label_pool=(1, 2)), eps)
    b = lift_element(random_element(cl, torus, rng, label_pool=(1, 2)), eps)
    seen = _watch_layers(monkeypatch)
    product = mu(a, b)
    assert not all(core.is_zero for _, core in product.terms)
    assert seen[0] > 50, seen


def test_no_float_in_the_engine_source():
    """No float literal and no `float` name anywhere in the engine, so no
    float can be produced by it and enter a layer."""
    found = []
    for path in sorted(Path(ribbon_backend.__file__).parent.glob("*.py")):
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            literal = tok.type == tokenize.NUMBER and any(ch in tok.string.lower() for ch in ".ej")
            if literal or (tok.type == tokenize.NAME and tok.string == "float"):
                found.append((path.name, tok.start, tok.string))
    assert found == []
