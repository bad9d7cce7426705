"""Integer layers over a common denominator against the Fraction kernels they replaced.

The `_frac_*` functions below are the sparse kernels of the engine before
its layers became (den, {(i, j): int}) pairs, kept here as the reference.
Each integer kernel must give the same rational matrix as its reference on
seeded random sparse layers with mixed denominators, negative entries and
entries that cancel, and every layer the engine builds must be canonical.
"""

import ast
import io
import random
import sys
import tokenize
from fractions import Fraction
from math import factorial, gcd, prod
from pathlib import Path

import pytest

from skeinlab import ribbon_backend, suites
from skeinlab.ribbon_backend import (
    OMEGA_TENSOR,
    T_TENSOR,
    UNIT,
    DualObj,
    Morphism,
    TensorObj,
    _convolve,
    _int_compose,
    _int_kron,
    _layer,
    _layers_add,
    _layers_kron,
    _layers_scale,
    _product,
    _series_apply,
    _sum,
    as_layer,
    classical_action,
    exp_nilseries,
    insert_legs,
    make_backend,
    simple,
)
from skeinlab.scalars import ScalarSeries, epsilon_mode, hbar_mode
from skeinlab.skein_algebra import lift_element, mu, random_element
from skeinlab.surface import once_punctured_torus

# ---------------------------------------------------------------------------
# The reference: sparse Fraction kernels
# ---------------------------------------------------------------------------


def to_fractions(layer):
    """A layer as a sparse {(i, j): Fraction} matrix."""
    den, entries = layer
    return {k: Fraction(v, den) for k, v in entries.items()}


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


@pytest.mark.parametrize("order", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("seed", range(8))
def test_series_apply_matches_the_fraction_reference(order, seed):
    """The one-pass apply kernel against the convolution of per-layer applies.

    An operator from c to m letters acts on the middle factor of left (x) c
    (x) right.  Layers may be empty, the operator's integral layers carry
    entries equal to 1, and at order >= 2 degree 1 gets a0 (s b0) + (-s a0) b0,
    two terms over different denominators that cancel to (1, {})."""
    rng = random.Random(300 + 10 * order + seed)
    m, c, left, right, cols = (rng.randint(1, 3) for _ in range(5))
    a = [_fractions(rng, m, c) for _ in range(order)]
    for layer in a:
        if layer and all(v.denominator == 1 for v in layer.values()):
            layer[rng.choice(sorted(layer))] = Fraction(1)
    b = [_fractions(rng, left * c * right, cols) for _ in range(order)]
    if order >= 2:
        a[0] = a[0] or {(0, 0): Fraction(1)}
        b[0] = b[0] or {(0, 0): Fraction(5, 6)}
        s = _value(rng)
        a[1], b[1] = _frac_scale(a[0], -s), _frac_scale(b[0], s)
    got = _series_apply([as_layer(x) for x in a], [as_layer(x) for x in b], right, c, m)
    want = _frac_convolve(a, b, lambda x, y: _frac_apply(x, y, right, c, m))
    assert len(got) == order
    for layer, expected in zip(got, want):
        assert _equal(layer, expected)
    if order >= 2:
        assert got[1] == (1, {})


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


def _frac_leg_products(factors, terms, m):
    """sum over terms of sum_k c_k g_k1^(p_1) ... g_kn^(p_n) m, one leg at a time, the last leg first."""
    dims = [w.dim for w in factors]
    expected = {}
    for *positions, tensor in terms:
        for coeff, *gens in tensor:
            x = m
            for p, g in reversed(list(zip(positions, gens))):
                action = {k: Fraction(v) for k, v in classical_action(g, factors[p]).items()}
                x = _frac_apply(action, x, prod(dims[p + 1 :]), dims[p], dims[p])
            _frac_iadd(expected, _frac_scale(x, coeff))
    return expected


def test_insert_legs_matches_fraction_leg_products():
    """insert_legs against each term built from the reference kernels, with
    coefficients over 24 as rebracket uses them; then three-leg terms that
    repeat a position (legs on one factor compose, the first on the left)
    or list positions out of order, on dual, unit and tensor factors."""
    rng = random.Random(400)
    pool = [simple(0), simple(1), simple(2)]
    omega = tuple((c / 24, *g) for c, *g in OMEGA_TENSOR)
    for _ in range(20):
        factors = [rng.choice(pool) for _ in range(rng.randint(3, 4))]
        m = _fractions(rng, prod(w.dim for w in factors), rng.randint(1, 3))
        terms = [(*rng.sample(range(len(factors)), len(t[0]) - 1), t) for t in (T_TENSOR, omega)]
        assert _equal(insert_legs(factors, terms, as_layer(m)), _frac_leg_products(factors, terms, m))
    v, adj = simple(1), simple(2)
    pool = [v, adj, DualObj(v), DualObj(adj), TensorObj(v, adj), TensorObj(DualObj(v), v), UNIT]
    gens = ("e", "f", "h")
    seen = set()
    for n in range(60):
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
        m = _fractions(rng, prod(w.dim for w in factors), rng.randint(1, 3))
        terms = []
        for _ in range(rng.randint(1, 3)):
            if n % 2:
                positions = [rng.randrange(len(factors)) for _ in range(3)]
            else:
                p, q = rng.sample(range(len(factors)), 2)
                positions = rng.choice([[p, p, q], [q, p, p], [p, q, p], [p, p, p]])
            tensor = rng.choice([omega, [(_value(rng), *rng.choices(gens, k=3)) for _ in range(rng.randint(1, 3))]])
            terms.append((*positions, tensor))
            seen.add((len(set(positions)) < 3, positions != sorted(positions)))
        expected = _frac_leg_products(factors, terms, m)
        assert _equal(insert_legs(factors, terms, as_layer(m)), expected), (factors, terms)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


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


def test_the_engine_imports_only_the_standard_library():
    """Every import in the engine names a standard-library module or the
    package itself, so the package keeps no runtime dependency even where
    numpy, scipy or sympy happen to be installed."""
    found = []
    for path in sorted(Path(ribbon_backend.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            roots = {name.split(".")[0] for name in names}
            found += [(path.name, node.lineno, r) for r in sorted(roots - sys.stdlib_module_names - {"skeinlab"})]
    assert found == []


def _layer_format_uses(path):
    """(line, name) for each `.layers` read, `._of` call and `_`-prefixed name taken from `ribbon_backend` in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and (
            node.attr in ("layers", "_of")
            or (isinstance(node.value, ast.Name) and node.value.id == "ribbon_backend" and node.attr.startswith("_"))
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ribbon_backend"):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_layer_format_has_one_owner():
    """Only `ribbon_backend` reads or builds a morphism's layers: no other
    engine module reads `.layers`, calls `Morphism._of` or imports a
    `_`-prefixed name from it, and the skein algebra and Poisson modules
    leave the Drinfeld round trip (`nontrivial_associator`, `rebracket`) to
    the backend."""
    package = Path(ribbon_backend.__file__).parent
    assert _layer_format_uses(package / "ribbon_backend.py")  # the scan sees what it looks for
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name != "ribbon_backend.py":
            found += [(path.name, *use) for use in _layer_format_uses(path)]
        if path.name in ("skein_algebra.py", "poisson.py"):
            text = path.read_text(encoding="utf-8")
            found += [(path.name, word) for word in ("nontrivial_associator", "rebracket") if word in text]
    assert found == []


def test_only_rebracket_and_sort_blocks_read_the_associator_flag():
    """One bracketing path on every backend: in `ribbon_backend`, only `BackendSpec.rebracket` and
    `BackendSpec.sort_blocks` (its closed-form crossing coherence) read `nontrivial_associator`, which
    `__init__` sets, and no strict-backend shortcut such as `_on_raw_word` remains."""
    tree = ast.parse(Path(ribbon_backend.__file__).read_text(encoding="utf-8"))
    (spec,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "BackendSpec"]

    def uses(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "nontrivial_associator"]

    methods = [(type(n.ctx).__name__, f.name) for f in spec.body if isinstance(f, ast.FunctionDef) for n in uses(f)]
    assert len(methods) == len(uses(tree))  # every use is inside a BackendSpec method
    assert set(methods) == {("Store", "__init__"), ("Load", "rebracket"), ("Load", "sort_blocks")}
    names = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_on_raw_word" not in names
