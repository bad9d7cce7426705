import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import prod

import pytest

from skeinlab.errors import CgError, LabelError, ModeError, Part1DomainError, SkeinlabError, TruncationUnsupported
from skeinlab.ribbon_backend import (
    RA_TENSOR,
    BackendSpec,
    R_TENSOR,
    OMEGA_TENSOR,
    TSYM_TENSOR,
    T_TENSOR,
    DualObj,
    Morphism,
    SimpleObj,
    TensorObj,
    UNIT,
    UnitObj,
    as_layer,
    classical_action,
    dual,
    flip_matrix,
    eliminate,
    insert_legs,
    leg_insertion,
    left_nested,
    make_backend,
    object_from_json,
    simple,
    solve_series,
    tensor_word,
    to_fractions,
    word_tensor,
)
from skeinlab.scalars import ScalarSeries, classical_mode, epsilon_mode, hbar_mode

V = simple("V")
ADJ = simple("adj")
VS = DualObj(V)
ALL_BACKENDS = [("classical", 1), ("epsilon", 2), ("quantum", 3), ("drinfeld", 3)]


def backends():
    return [make_backend(name, order) for name, order in ALL_BACKENDS]


def test_object_dims_and_duals():
    assert UNIT.dim == 1 and V.dim == 2 and ADJ.dim == 3
    w = tensor_word([V, VS, ADJ])
    assert w.dim == 12
    # duals reverse the word (the tree comes out right-nested)
    assert dual(w).leaves() == [DualObj(ADJ), V, VS]
    assert dual(dual(w)).leaves() == w.leaves()
    assert object_from_json(w.to_json()) == w
    with pytest.raises(LabelError):
        simple("W7")


def test_classical_braiding_is_flip():
    cl = make_backend("classical")
    assert cl.braiding(V, V) == flip_matrix(V, V, cl.mode)
    assert cl.twist(V) == Morphism.identity(V, cl.mode)


def test_epsilon_braiding_entries():
    ep = make_backend("epsilon")
    b = ep.braiding(V, V)
    # flip o (1 + eps (e(x)f + h(x)h/4)) on the weight basis (++, +-, -+, --)
    eps = ScalarSeries.param(ep.mode)
    q = Fraction(1, 4)
    expected = {
        (0, 0): ScalarSeries.from_coeffs(ep.mode, [1, q]),
        (1, 2): ScalarSeries.from_coeffs(ep.mode, [1, -q]),
        (2, 1): ScalarSeries.from_coeffs(ep.mode, [1, -q]),
        (2, 2): eps,  # flip of the e(x)f contribution v-v+ -> v+v- -> flipped
        (3, 3): ScalarSeries.from_coeffs(ep.mode, [1, q]),
    }
    assert b.entries == expected


def test_inf_braiding_is_flip_minus_half():
    # t = e(x)f + f(x)e + h(x)h/2 acts on V(x)V as flip - id/2
    for bk in backends():
        t = bk.inf_braiding(V, V)
        cl = make_backend("classical")
        expected = flip_matrix(V, V, cl.mode).retyped(target=TensorObj(V, V)) - Morphism.identity(
            TensorObj(V, V), cl.mode
        ).scale(Fraction(1, 2))
        assert t == expected, bk.name
        assert bk.inf_braiding(UNIT, V).is_zero


@pytest.mark.parametrize(
    "name,order", [("epsilon", 2), ("quantum", 1), ("quantum", 2), ("quantum", 3), ("drinfeld", 1), ("drinfeld", 3)]
)
def test_extracted_inf_braiding_equals_classical_t(name, order):
    # [beta^2 - id]_1 of each deformed braiding against t built from its legs;
    # at order 1 there is no first-order term, and t is built from its legs
    cl = make_backend("classical")
    bk = make_backend(name, order)
    for x, y in ((V, V), (VS, V), (ADJ, V), (UNIT, V)):
        assert bk.inf_braiding(x, y) == cl.inf_braiding(x, y), (name, order, str(x), str(y))


def test_inf_braiding_symmetry():
    cl = make_backend("classical")
    t = cl.inf_braiding(V, V)
    flip = flip_matrix(V, V, cl.mode).retyped(target=TensorObj(V, V))
    assert flip @ t == t @ flip


def test_twist_values():
    # Casimir acts on V_n by n(n+2)/2; the deformed twists are exp-type
    dr = make_backend("drinfeld", 2)
    th = dr.twist(V)
    assert th.entry(0, 0) == ScalarSeries.from_coeffs(dr.mode, [1, Fraction(3, 4)])
    sq = th @ th - Morphism.identity(V, dr.mode)
    assert sq.entry(0, 0) == ScalarSeries.from_coeffs(dr.mode, [0, Fraction(3, 2)])
    q = make_backend("quantum", 3)
    thq = q.twist(V)
    from skeinlab.scalars import exp_param_series

    assert thq.entry(0, 0) == exp_param_series(q.mode, Fraction(3, 4))
    assert thq.entry(1, 1) == thq.entry(0, 0) and len(thq.entries) == 2


@pytest.mark.parametrize(
    "name, order", [("classical", 1), ("quantum", 2), ("quantum", 3), ("drinfeld", 2), ("drinfeld", 3)]
)
def test_braiding_on_v_v_satisfies_the_hecke_relation(name, order):
    """(c - e^{h/4})(c + e^{-3h/4}) = 0 on V (x) V, truncated to the ring's order.

    c acts by e^{h/4} on Sym^2 V = V_2 and by -e^{-3h/4} on Lambda^2 V = V_0;
    the series are written out from that closed form, not computed.
    """
    bk = make_backend(name, order)
    assert bk.mode.order == order
    c = bk.braiding(V, V)
    one = Morphism.identity(c.source, bk.mode)
    sym = ScalarSeries.from_coeffs(bk.mode, [1, Fraction(1, 4), Fraction(1, 32)][:order])
    alt = ScalarSeries.from_coeffs(bk.mode, [-1, Fraction(3, 4), Fraction(-9, 32)][:order])
    assert not (c - one.scale(sym)).is_zero and not (c - one.scale(alt)).is_zero
    assert ((c - one.scale(sym)) @ (c - one.scale(alt))).is_zero


def test_braiding_inverse_all_backends():
    for bk in backends():
        for a, b in ((V, V), (V, VS), (VS, VS), (ADJ, V)):
            assert bk.braiding_inv(a, b) @ bk.braiding(a, b) == Morphism.identity(
                word_tensor(a, b), bk.mode
            ), bk.name


def test_snake_identities():
    for bk in backends():
        for x in (V, ADJ):
            dx = DualObj(x)
            s1 = bk.flat_apply([x, dx, x], [(1, 2, bk.ev(x))]) @ bk.flat_apply(
                [x], [(0, 0, bk.coev(x))]
            )
            s2 = bk.flat_apply([dx, x, dx], [(0, 2, bk.ev(x))]) @ bk.flat_apply(
                [dx], [(1, 0, bk.coev(x))]
            )
            assert s1 == Morphism.identity(x, bk.mode), (bk.name, str(x))
            assert s2 == Morphism.identity(dx, bk.mode), (bk.name, str(x))


def test_snake_identities_on_a_nested_word():
    # ev/coev of a tensor word whose left factor is itself a tensor word
    x = TensorObj(TensorObj(V, V), VS)
    dx = dual(x)
    for bk in backends():
        s1 = bk.flat_apply([x, dx, x], [(1, 2, bk.ev(x))]) @ bk.flat_apply([x], [(0, 0, bk.coev(x))])
        s2 = bk.flat_apply([dx, x, dx], [(0, 2, bk.ev(x))]) @ bk.flat_apply([dx], [(1, 0, bk.coev(x))])
        assert s1 == Morphism.identity(x, bk.mode), bk.name
        assert s2 == Morphism.identity(left_nested(dx), bk.mode), bk.name


def test_loop_value_classical_and_quantum():
    cl = make_backend("classical")
    loop = cl.ev_right(V) @ cl.coev(V)
    assert loop.entry(0, 0) == ScalarSeries.from_rational(cl.mode, 2)
    q = make_backend("quantum", 3)
    loopq = q.ev_right(V) @ q.coev(V)
    # the ribbon closure of the unknot: classical limit 2, here q + 1/q
    val = loopq.entry(0, 0)
    assert val.coeffs[0] == 2


def test_twist_axiom_and_transpose():
    for bk in backends():
        word = TensorObj(V, V)
        axiom = bk.braiding(V, V) @ bk.braiding(V, V) @ bk.twist(V).tensor(bk.twist(V))
        assert bk.twist(word) == axiom, bk.name
        assert bk.transpose(bk.twist(V)) == bk.twist(VS), bk.name


def test_transpose_contravariant():
    rng = random.Random(3)
    for bk in backends():
        w = TensorObj(V, V)
        f = bk.random_invariant(w, w, rng)
        g = bk.random_invariant(w, w, rng)
        assert bk.transpose(g @ f) == bk.transpose(f) @ bk.transpose(g), bk.name


def test_drinfeld_associator_and_pentagon():
    dr = make_backend("drinfeld", 3)
    phi = dr.associator(V, V, V)
    ident = Morphism.identity(phi.source, dr.mode).retyped(target=phi.target)
    assert (phi - ident).part1().is_zero  # Phi = 1 + O(h^2)
    assert not (phi - ident).is_zero  # and the h^2 term is genuinely there
    assert phi.part0() == Morphism.identity(
        TensorObj(TensorObj(V, V), V), make_backend("classical").mode
    ).retyped(target=phi.target)
    a = b = c = d = V
    p1 = dr.associator(a, b, TensorObj(c, d)) @ dr.associator(TensorObj(a, b), c, d)
    p2 = (
        Morphism.identity(a, dr.mode).tensor(dr.associator(b, c, d))
        @ dr.associator(a, TensorObj(b, c), d)
        @ dr.associator(a, b, c).tensor(Morphism.identity(d, dr.mode))
    )
    assert p1.entries == p2.entries
    with pytest.raises(TruncationUnsupported):
        make_backend("drinfeld", 4)
    with pytest.raises(TruncationUnsupported):
        BackendSpec("drinfeld", hbar_mode(4))


def test_drinfeld_associator_inverse():
    dr = make_backend("drinfeld", 3)
    words = (V, VS, ADJ, UNIT, TensorObj(V, VS), TensorObj(ADJ, TensorObj(V, V)))
    rng = random.Random(5)
    for _ in range(8):
        x, y, z = (rng.choice(words) for _ in range(3))
        phi, phi_inv = dr.associator(x, y, z), dr.associator_inv(x, y, z)
        assert phi_inv.source == phi.target and phi_inv.target == phi.source
        assert phi @ phi_inv == Morphism.identity(phi.target, dr.mode)
        assert phi_inv @ phi == Morphism.identity(phi.source, dr.mode)


def bracketings(letters):
    """Every binary bracketing of the letters, units kept as leaves."""
    if len(letters) == 1:
        return [letters[0]]
    return [
        TensorObj(left, right)
        for k in range(1, len(letters))
        for left in bracketings(letters[:k])
        for right in bracketings(letters[k:])
    ]


@pytest.mark.parametrize("name,order", ALL_BACKENDS + [("drinfeld", 2)])
def test_rebracket_is_coherence_conjugation(name, order):
    bk = make_backend(name, order)
    rng = random.Random(order * 31 + len(name))
    words = [[V, VS, V, V]]
    for length in (3, 3, 4, 4):
        letters = [rng.choice((UNIT, V, VS, ADJ)) for _ in range(length)]
        while prod(w.dim for w in letters) > 18:
            letters = [rng.choice((UNIT, V, VS, ADJ)) for _ in range(length)]
        words.append(letters)
    for letters in words:
        trees = bracketings(letters)
        m = Morphism.zero(UNIT, UNIT, bk.mode)
        while m.is_zero:
            m = bk.random_invariant(rng.choice(trees), rng.choice(trees), rng)
        for s in trees:
            for t in trees:
                expected = bk.coherence(m.target, t) @ m @ bk.coherence(s, m.source)
                assert bk.rebracket(m, s, t) == expected, (letters, s, t)
        assert bk.rebracket(m) == m


def test_rebracket_rejects_other_flat_words():
    for bk in backends() + [make_backend("drinfeld", 2)]:
        m = Morphism.identity(TensorObj(TensorObj(V, VS), V), bk.mode)
        with pytest.raises(ModeError):
            bk.rebracket(m, source=TensorObj(VS, TensorObj(V, V)))
        with pytest.raises(ModeError):
            bk.rebracket(m, target=TensorObj(V, TensorObj(V, VS)))
        with pytest.raises(ModeError):
            bk.rebracket(m, source=TensorObj(V, VS))


def test_hexagons_all_backends():
    from skeinlab.suites import _hexagon1, _hexagon2

    for bk in backends():
        for a in (UNIT, V, VS):
            for b in (UNIT, V, VS):
                for c in (UNIT, V, VS):
                    assert _hexagon1(bk, a, b, c), (bk.name, str(a), str(b), str(c))
                    assert _hexagon2(bk, a, b, c), (bk.name, str(a), str(b), str(c))


def test_braiding_twist_naturality_random_coupons():
    rng = random.Random(7)
    w = tensor_word([V, V, DualObj(V), DualObj(V)])
    for bk in backends():
        for _ in range(12):
            f = bk.random_invariant(w, w, rng)
            lhs = bk.braiding(w, V) @ f.tensor(Morphism.identity(V, bk.mode))
            rhs = Morphism.identity(V, bk.mode).tensor(f) @ bk.braiding(w, V)
            assert lhs == rhs, bk.name
            assert (f @ bk.twist(w)) == (bk.twist(w) @ f), bk.name


def test_cg_completeness_orthogonality():
    for bk in backends():
        for x, y in ((V, V), (ADJ, V), (V, ADJ), (ADJ, ADJ), (simple(0), V)):
            comps = bk.cg_decompose(x, y)
            word = TensorObj(x, y)
            total = Morphism.zero(word, word, bk.mode)
            for z, emb, proj in comps:
                total = total + emb @ proj
                for z2, emb2, proj2 in comps:
                    pe = proj @ emb2
                    if z2 == z:
                        assert pe == Morphism.identity(z, bk.mode)
                    else:
                        assert pe.is_zero
            assert total == Morphism.identity(word, bk.mode), (bk.name, str(x), str(y))
    with pytest.raises(CgError):
        make_backend("classical").cg_decompose(simple(8), simple(8))


def test_cg_spins():
    cl = make_backend("classical")
    assert [z.spin for z, _, _ in cl.cg_decompose(V, V)] == [2, 0]
    assert [z.spin for z, _, _ in cl.cg_decompose(ADJ, V)] == [3, 1]
    assert [z.spin for z, _, _ in cl.cg_decompose(simple(0), V)] == [1]


def test_part0_reduction_to_classical():
    # every deformed structure morphism reduces to the classical one
    cl = make_backend("classical")
    for name, order in ALL_BACKENDS[1:]:
        bk = make_backend(name, order)
        for a, b in ((V, V), (V, VS), (ADJ, V)):
            assert bk.braiding(a, b).part0() == cl.braiding(a, b), name
        assert bk.twist(V).part0() == cl.twist(V)
        assert bk.ev(V).part0() == cl.ev(V)
        assert bk.coev(V).part0() == cl.coev(V)
        for (z, e, p), (zc, ec, pc) in zip(bk.cg_decompose(V, V), cl.cg_decompose(V, V)):
            assert z == zc and e.part0() == ec and p.part0() == pc, name


def test_hom_basis_dimensions_and_lift():
    cl = make_backend("classical")
    q = make_backend("quantum", 3)
    cases = [
        (UNIT, TensorObj(V, VS), 1),
        (UNIT, tensor_word([V, V, VS, VS]), 2),
        (TensorObj(V, V), TensorObj(V, V), 2),
    ]
    for src, tgt, dim in cases:
        bc = cl.invariant_hom_basis(src, tgt)
        bq = q.invariant_hom_basis(src, tgt)
        assert len(bc) == dim and len(bq) == dim
        for mc, mq in zip(bc, bq):
            assert mq.part0() == mc


def test_morphism_json_roundtrip():
    ep = make_backend("epsilon")
    m = ep.braiding(V, VS)
    assert Morphism.from_json(m.to_json()) == m


# -- layered kernels against per-entry ScalarSeries arithmetic ---------------

REF_MODES = [classical_mode(), epsilon_mode(), hbar_mode(2), hbar_mode(3)]


def _obj(d):
    return simple(d - 1)


def _random_dense(rng, mode, rows, cols, shape=None):
    """Dense ScalarSeries rows; the shape picks sparse, zero, constant-only
    or no-constant matrices so that empty layers occur."""
    shape = shape or rng.choice(["sparse", "dense", "zero", "constant", "no-constant"])

    def coeff(k):
        if shape == "zero" or (shape == "constant" and k > 0) or (shape == "no-constant" and k == 0):
            return 0
        if shape == "sparse" and rng.random() < 0.6:
            return 0
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return [
        [ScalarSeries.from_coeffs(mode, [coeff(k) for k in range(mode.order)]) for _ in range(cols)]
        for _ in range(rows)
    ]


def _from_dense(src, tgt, mode, rows):
    layers = [
        {(i, j): v.coeffs[k] for i, row in enumerate(rows) for j, v in enumerate(row)} for k in range(mode.order)
    ]
    return Morphism(src, tgt, mode, layers)


def _dense(m):
    return [[m.entry(i, j) for j in range(m.source_dim)] for i in range(m.target_dim)]


def _ref_matmul(a, b, mode):
    return [
        [sum((a[i][j] * b[j][k] for j in range(len(b))), ScalarSeries.zero(mode)) for k in range(len(b[0]))]
        for i in range(len(a))
    ]


def _ref_inverse(a, mode):
    """Gauss-Jordan over the truncated ring, pivoting on units."""
    d = len(a)
    one, zero = ScalarSeries.one(mode), ScalarSeries.zero(mode)
    aug = [list(row) + [one if k == i else zero for k in range(d)] for i, row in enumerate(a)]
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col].coeffs[0] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pinv = aug[col][col].inverse()
        aug[col] = [x * pinv for x in aug[col]]
        for r in range(d):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[d:] for row in aug]


def _check(m, src, tgt, mode, ref):
    assert (m.source, m.target, m.mode) == (src, tgt, mode)
    assert all(v for _, e in m.layers for v in e.values()), "stored zero"
    assert len(m.layers) == mode.order
    assert _dense(m) == ref
    assert m == _from_dense(src, tgt, mode, ref)


def test_layered_ops_match_entrywise_reference():
    for seed, mode in enumerate(REF_MODES):
        rng = random.Random(seed)
        for _ in range(40):
            d0, d1, d2 = (rng.randint(1, 6) for _ in range(3))
            x0, x1, x2 = _obj(d0), _obj(d1), _obj(d2)
            a = _random_dense(rng, mode, d2, d1)
            b = _random_dense(rng, mode, d1, d0)
            c = _random_dense(rng, mode, d2, d1)
            ma, mb, mc = _from_dense(x1, x2, mode, a), _from_dense(x0, x1, mode, b), _from_dense(x1, x2, mode, c)
            _check(ma, x1, x2, mode, a)
            _check(ma.compose(mb), x0, x2, mode, _ref_matmul(a, b, mode))
            _check(ma + mc, x1, x2, mode, [[u + v for u, v in zip(r, s)] for r, s in zip(a, c)])
            _check(ma - mc, x1, x2, mode, [[u - v for u, v in zip(r, s)] for r, s in zip(a, c)])
            s = _random_dense(rng, mode, 1, 1)[0][0]
            _check(ma.scale(s), x1, x2, mode, [[u * s for u in r] for r in a])
            kron = [
                [a[i][j] * b[k][l] for j in range(d1) for l in range(d0)] for i in range(d2) for k in range(d1)
            ]
            _check(ma.tensor(mb), TensorObj(x1, x0), TensorObj(x2, x1), mode, kron)
            _check(ma.part0(), x1, x2, classical_mode(), [[u.part0() for u in r] for r in a])
            if all(u.coeffs[0] == 0 for r in a for u in r):
                _check(ma.part1(), x1, x2, classical_mode(), [[u.part1() for u in r] for r in a])
            else:
                with pytest.raises(Part1DomainError):
                    ma.part1()


def test_layered_inverse_matches_entrywise_reference():
    for seed, mode in enumerate(REF_MODES):
        rng = random.Random(100 + seed)
        done = 0
        while done < 15:
            d = rng.randint(1, 6)
            a = _random_dense(rng, mode, d, d, rng.choice(["sparse", "dense", "constant"]))
            x = _obj(d)
            m = _from_dense(x, x, mode, a)
            try:
                m.part0().inverse()
            except ZeroDivisionError:
                continue
            _check(m.inverse(), x, x, mode, _ref_inverse(a, mode))
            done += 1


def test_layered_convert_matches_entrywise_reference():
    conversions = [
        (classical_mode(), epsilon_mode()),
        (classical_mode(), hbar_mode(3)),
        (epsilon_mode(), classical_mode()),
        (epsilon_mode(), hbar_mode(2)),
        (hbar_mode(3), epsilon_mode()),
        (hbar_mode(3), hbar_mode(2)),
        (hbar_mode(3), classical_mode()),
        (hbar_mode(2), hbar_mode(2)),
        (hbar_mode(3), hbar_mode(3)),
        (hbar_mode(4), hbar_mode(3)),
    ]
    rng = random.Random(7)
    for src_mode, mode in conversions:
        for _ in range(10):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = _random_dense(rng, src_mode, rows, cols)
            m = _from_dense(_obj(cols), _obj(rows), src_mode, a)
            _check(m.convert(mode), _obj(cols), _obj(rows), mode, [[u.convert(mode) for u in r] for r in a])
    m = _from_dense(V, V, epsilon_mode(), _random_dense(rng, epsilon_mode(), 2, 2, "dense"))
    with pytest.raises(ModeError):
        m.convert(hbar_mode(3))
    with pytest.raises(ModeError):
        Morphism.identity(V, hbar_mode(2)).convert(hbar_mode(3))


# -- malformed morphism JSON ------------------------------------------------


def _coupon_json(entries, mode="hbar", order=2):
    return {"source": ["V"], "target": ["V"], "mode": mode, "order": order, "entries": entries}


@pytest.mark.parametrize(
    "entries",
    [
        {"9,9": ["1", "0"]},
        {"2,0": ["1"]},
        {"0,2": ["1"]},
        {"-1,0": ["1"]},
        {"0,-1": ["1"]},
    ],
)
def test_morphism_json_rejects_out_of_range_positions(entries):
    with pytest.raises(SkeinlabError, match="outside"):
        Morphism.from_json(_coupon_json(entries))


@pytest.mark.parametrize("key", ["0;0", "0", "a,b", "0,0,0", "00,1", " 0,1", "+1,0", "1,", ""])
def test_morphism_json_rejects_malformed_keys(key):
    with pytest.raises(SkeinlabError, match="form"):
        Morphism.from_json(_coupon_json({key: ["1"]}))


def test_morphism_json_rejects_too_many_coefficients():
    with pytest.raises(SkeinlabError, match="coefficients"):
        Morphism.from_json(_coupon_json({"0,0": ["1", "0", "9"]}))
    with pytest.raises(SkeinlabError, match="coefficients"):
        Morphism.from_json(_coupon_json({"0,0": ["1", "0"]}, mode="classical", order=1))
    m = Morphism.from_json(_coupon_json({"0,0": ["1"], "1,1": ["0", "1/2"]}))
    assert m.entry(0, 0) == ScalarSeries.one(m.mode)
    assert m.entry(1, 1) == ScalarSeries.from_coeffs(m.mode, [0, Fraction(1, 2)])


# ---------------------------------------------------------------------------
# leg_insertion against the full Kronecker-chain construction
# ---------------------------------------------------------------------------


def _matmul(a, b):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            if j == k:
                out[(i, l)] = out.get((i, l), 0) + x * y
    return out


def _kron_chain_spread(factors, positions, gen):
    """gen on each listed factor in turn: a Kronecker chain over all factors."""
    total = {}
    for p in positions:
        m = {(0, 0): Fraction(1)}
        for v, w in enumerate(factors):
            d = w.dim
            factor = classical_action(gen, w) if v == p else {(i, i): Fraction(1) for i in range(d)}
            m = {(i * d + k, j * d + l): x * y for (i, j), x in m.items() for (k, l), y in factor.items()}
        for key, val in m.items():
            total[key] = total.get(key, 0) + val
    return total


def _kron_chain_insertion(factors, first, second, tensor):
    total = {}
    for coeff, a, b in tensor:
        legs = _matmul(_kron_chain_spread(factors, first, a), _kron_chain_spread(factors, second, b))
        for key, val in legs.items():
            total[key] = total.get(key, 0) + coeff * val
    return {k: v for k, v in total.items() if v}


LEG_CASES = [
    ([V, V], [0], [1]),
    ([VS, V], [0], [1]),
    ([UNIT, V, ADJ], [0], [2]),
    ([V, UNIT, ADJ], [2], [0]),
    ([TensorObj(V, ADJ), VS], [0], [1]),
    ([V, TensorObj(VS, V), ADJ], [1], [0, 2]),
    ([V, UNIT, VS, ADJ], [0, 2], [1, 3]),
    ([V, ADJ, VS], [1], [1]),
    ([V, VS, V], [0, 2], [0, 2]),
]


@pytest.mark.parametrize("tensor", [R_TENSOR, T_TENSOR, RA_TENSOR, TSYM_TENSOR])
def test_leg_insertion_matches_kron_chain_fixed(tensor):
    for factors, first, second in LEG_CASES:
        expected = _kron_chain_insertion(factors, first, second, tensor)
        assert to_fractions(leg_insertion(factors, first, second, tensor)) == expected


def test_leg_insertion_matches_kron_chain_random():
    rng = random.Random(31)
    pool = [UNIT, V, VS, ADJ, DualObj(ADJ), TensorObj(V, ADJ)]
    gens = ("e", "f", "h")
    for _ in range(40):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        n = len(factors)
        first = rng.sample(range(n), rng.randint(1, n))
        second = first if rng.random() < 0.25 else rng.sample(range(n), rng.randint(1, n))
        tensor = [(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.choice(gens), rng.choice(gens))
                  for _ in range(rng.randint(1, 3))]
        expected = _kron_chain_insertion(factors, first, second, tensor)
        assert to_fractions(leg_insertion(factors, first, second, tensor)) == expected, (factors, first, second, tensor)


def _random_columns(rng, rows, ncols):
    return {
        (rng.randrange(rows), c): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        for c in range(ncols)
        for _ in range(rng.randint(1, 4))
    }


def _dropping_zeros(m):
    return {k: v for k, v in m.items() if v}


def test_insert_legs_on_a_matrix_matches_leg_insertion_composed():
    rng = random.Random(32)
    pool = [UNIT, V, VS, ADJ]
    tensors = [R_TENSOR, T_TENSOR, TSYM_TENSOR, RA_TENSOR]
    seen = set()
    for n in range(80):
        factors = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        k = len(factors)
        first = rng.sample(range(k), rng.randint(1, k))
        second = first if n // 4 % 2 else rng.sample(range(k), rng.randint(1, k))
        tensor = tensors[n % 4]
        m = _random_columns(rng, prod(w.dim for w in factors), rng.randint(1, 3))
        pairs = [(i, j, tensor) for i in first for j in second]
        expected = _dropping_zeros(_matmul(to_fractions(leg_insertion(factors, first, second, tensor)), m))
        assert to_fractions(insert_legs(factors, pairs, as_layer(m))) == expected, (factors, first, second, tensor)
        seen.add((len(first) > 1 or len(second) > 1, first == second, n % 4))
    assert len(seen) == 16, seen


def test_insert_legs_sums_pairs_with_different_tensors():
    """Several (i, j, tensor) triples at once, as in the Fock-Rosly vertex sum."""
    rng = random.Random(33)
    pool = [UNIT, V, VS, ADJ]
    tensors = [R_TENSOR, T_TENSOR, TSYM_TENSOR, RA_TENSOR, [(Fraction(-2), "h", "e")]]
    for _ in range(30):
        factors = [rng.choice(pool) for _ in range(rng.randint(2, 5))]
        k = len(factors)
        pairs = [(rng.randrange(k), rng.randrange(k), rng.choice(tensors)) for _ in range(rng.randint(1, 6))]
        m = _random_columns(rng, prod(w.dim for w in factors), rng.randint(1, 3))
        expected = {}
        for i, j, tensor in pairs:
            for key, val in _matmul(to_fractions(leg_insertion(factors, [i], [j], tensor)), m).items():
                expected[key] = expected.get(key, 0) + val
        assert to_fractions(insert_legs(factors, pairs, as_layer(m))) == _dropping_zeros(expected), (factors, pairs)


# ---------------------------------------------------------------------------
# The exact series solver against Morphism arithmetic
# ---------------------------------------------------------------------------


def _det(rows):
    """Leibniz determinant: independent of the elimination under test."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((rows[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


def _random_layer(rng, rows, cols):
    return {(i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for i in range(rows) for j in range(cols)}


def _one_plus_param(rng, ob, mode):
    """An invertible endomorphism 1 + O(param) with random higher layers."""
    higher = [_random_layer(rng, ob.dim, ob.dim) for _ in range(1, mode.order)]
    return Morphism(ob, ob, mode, [{(i, i): 1 for i in range(ob.dim)}] + higher)


def _solvable_system(rng, mode, nrows, ncols, rank, extra):
    """A = J L A0 R with L, R = 1 + O(param) and A0 = U W of rank `rank`.

    U is the identity on the rows `urows` and W on the columns `wcols`, so
    ker A is free (it is R^-1 ker W) and a vector that is nonzero in a row
    outside J(urows) is not in the column space of A's constant layer.  J
    places the nrows rows among nrows + extra, leaving `extra` zero rows.
    """
    urows, wcols = rng.sample(range(nrows), rank), rng.sample(range(ncols), rank)
    u, w = _random_layer(rng, nrows, rank), _random_layer(rng, rank, ncols)
    for a in range(rank):
        u.update({(r, a): Fraction(int(r == urows[a])) for r in urows})
        w.update({(a, c): Fraction(int(c == wcols[a])) for c in wcols})
    a0 = {
        (i, j): sum((u[i, a] * w[a, j] for a in range(rank)), Fraction(0)) for i in range(nrows) for j in range(ncols)
    }
    placed = rng.sample(range(nrows + extra), nrows)
    src, mid, tgt = _obj(ncols), _obj(nrows), _obj(nrows + extra)
    embed = Morphism(mid, tgt, mode, [{(placed[i], i): 1 for i in range(nrows)}])
    a = embed @ _one_plus_param(rng, mid, mode) @ Morphism(src, mid, mode, [a0]) @ _one_plus_param(rng, src, mode)
    outside = sorted(set(range(nrows + extra)) - {placed[r] for r in urows})
    return a, wcols, outside


def _columns_of(m, n):
    """Per right-hand side, the list of per-order sparse column vectors."""
    return [[{i: v for (i, j), v in to_fractions(layer).items() if j == col} for layer in m.layers] for col in range(n)]


def _matrix_of(src, tgt, mode, vectors):
    """The morphism whose columns are the given per-order vectors."""
    layers = [{(i, col): v for col, vec in enumerate(vectors) for i, v in vec[k].items()} for k in range(mode.order)]
    return Morphism(src, tgt, mode, layers)


@pytest.mark.parametrize("seed", range(40))
def test_series_solver_against_morphism_arithmetic(seed):
    rng = random.Random(seed)
    mode = hbar_mode(rng.randint(1, 3))
    nrows, ncols, extra, nrhs = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 2), rng.randint(1, 3)
    rank = max(0, min(nrows, ncols) - rng.randint(0, 2))
    a, wcols, outside = _solvable_system(rng, mode, nrows, ncols, rank, extra)
    src, tgt, rhs_obj = a.source, a.target, _obj(nrhs)
    x_star = Morphism(rhs_obj, src, mode, [_random_layer(rng, ncols, nrhs) for _ in range(mode.order)])
    b = a @ x_star
    rhs = _columns_of(b, nrhs)
    at = rng.randint(0, nrhs)
    if outside:
        # b_0 plus param^k e_row, with e_row outside the column space of A_0
        bad = [dict(layer) for layer in rhs[0]]
        row, k = rng.choice(outside), rng.randrange(mode.order)
        bad[k][row] = bad[k].get(row, 0) + 1
        rhs.insert(at, bad)
    kernel, solutions = solve_series([to_fractions(layer) for layer in a.layers], ncols, rhs)
    if outside:
        assert solutions.pop(at) is None
    assert a @ _matrix_of(rhs_obj, src, mode, solutions) == b
    # the lifts: as many as ker A_0 has dimensions, killed by A, and
    # independent already classically (W is the identity on wcols)
    assert len(kernel) == ncols - rank
    for v in kernel:
        assert (a @ _matrix_of(_obj(1), src, mode, [v])).is_zero
    free = [c for c in range(ncols) if c not in wcols]
    assert _det([[v[0].get(c, 0) for c in free] for v in kernel]) != 0


def test_series_solver_without_rows_or_columns():
    zero = Fraction(0)
    # no constraint rows: every unknown is free, and only b = 0 is solvable
    kernel, solutions = solve_series([{}, {}], 3, [[{}, {}], [{}, {7: Fraction(1)}]])
    assert kernel == [[{c: 1}, {}] for c in range(3)]
    assert solutions == [[{}, {}], None]
    # no unknowns
    assert eliminate({}, 0, [{}, {0: zero}, {2: Fraction(5)}]) == ([], [{}, {}, None])
    assert solve_series([{}, {}], 0, [[{1: zero}, {}], [{}, {1: Fraction(-1)}]]) == ([], [[{}, {}], None])


def test_solver_takes_integers_and_returns_fractions():
    """Integer input is taken as exact: no true division of ints, no floats out."""
    a0, rhs = {(0, 0): 2, (0, 1): 1, (1, 1): 3}, [{0: 1, 1: 1}]
    as_fractions = ({k: Fraction(v) for k, v in a0.items()}, [{r: Fraction(v) for r, v in b.items()} for b in rhs])
    solved = eliminate(a0, 2, rhs)
    assert solved == eliminate(as_fractions[0], 2, as_fractions[1]) == ([], [{0: Fraction(1, 3), 1: Fraction(1, 3)}])
    # a kernel vector and an order-by-order lift, from integer layers
    layers, series_rhs = [{(0, 0): 2, (0, 1): 4}, {(0, 0): 3}], [[{0: 2}, {0: 5}]]
    lifted = solve_series(layers, 2, series_rhs)
    fraction_layers = [{k: Fraction(v) for k, v in layer.items()} for layer in layers]
    assert lifted == solve_series(fraction_layers, 2, [[{0: Fraction(2)}, {0: Fraction(5)}]])
    assert lifted == ([[{1: 1, 0: -2}, {0: 3}]], [[{0: 1}, {0: 1}]])
    unit_pivot = eliminate({(0, 0): 1}, 1, [{0: 5}])[1][0]
    vectors = [solved[1][0], *lifted[0][0], *lifted[1][0], unit_pivot]
    assert all(type(v) is Fraction for vec in vectors for v in vec.values())
    with pytest.raises(TypeError):  # a float is not an exact input
        eliminate({(0, 0): 1}, 1, [{0: 0.5}])


# ---------------------------------------------------------------------------
# The sparse eliminator against the dense row reduction it replaced
# ---------------------------------------------------------------------------


def rref(rows, ncols):
    """Row-reduce a dense Fraction matrix in place, pivoting only on its
    first `ncols` columns; returns the pivot columns."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots


def _ref_eliminate(a0, ncols, rhs):
    """Solve a0 x = b for every b in `rhs` with one row reduction of [a0 | rhs].

    `a0` is a sparse {(row, col): rational} matrix with `ncols` columns (rows
    are any hashable keys) and each b a sparse {row: rational} vector.
    Returns (kernel, solutions): a kernel basis of a0, one vector per free
    column with that column set to 1, and per b the solution with the free
    variables set to 0, or None if b is inconsistent.  Vectors are sparse
    {col: rational}.
    """
    rows = {r: n for n, r in enumerate(dict.fromkeys([r for r, _ in a0] + [r for b in rhs for r in b]))}
    work = [[Fraction(0)] * (ncols + len(rhs)) for _ in rows]
    for (r, c), v in a0.items():
        work[rows[r]][c] = v
    for j, b in enumerate(rhs, ncols):
        for r, v in b.items():
            work[rows[r]][j] = v
    pivots = rref(work, ncols)
    free = sorted(set(range(ncols)) - set(pivots))
    kernel = [{fc: Fraction(1)} | {pc: -work[r][fc] for r, pc in enumerate(pivots) if work[r][fc]} for fc in free]
    solutions = [
        None
        if any(row[j] for row in work[len(pivots) :])
        else {pc: work[r][j] for r, pc in enumerate(pivots) if work[r][j]}
        for j in range(ncols, ncols + len(rhs))
    ]
    return kernel, solutions


def _ref_solve_series(layers, ncols, rhs):
    """The order-by-order lift that re-reduced A_0 once per order."""
    kernel, first = _ref_eliminate(layers[0], ncols, [b[0] for b in rhs])
    lifts = [[v] for v in kernel]
    solutions = [None if x is None else [x] for x in first]
    zero = [{} for _ in layers]
    for k in range(1, len(layers)):
        pending = [(x, zero) for x in lifts] + [(x, b) for x, b in zip(solutions, rhs) if x is not None]
        residuals = []
        for x, b in pending:
            res = dict(b[k])
            for i in range(1, k + 1):
                prev = x[k - i]
                for (r, c), v in layers[i].items():
                    if c in prev:
                        res[r] = res.get(r, Fraction(0)) - v * prev[c]
            residuals.append(res)
        for (x, _), step in zip(pending, _ref_eliminate(layers[0], ncols, residuals)[1]):
            x.append(step)
        if any(v[-1] is None for v in lifts):
            raise CgError("kernel does not lift: module is not free")
        solutions = [None if x is None or x[-1] is None else x for x in solutions]
    return lifts, solutions


def _items(vectors):
    """Vectors (or per-order vector lists, or None) with their key order."""
    if vectors is None:
        return None
    if isinstance(vectors, dict):
        return list(vectors.items())
    return [_items(v) for v in vectors]


def _sparse_system(seed):
    """A sparse random system with tuple row keys, non-unit pivots, explicit
    zeros, rank deficiency (rows that combine others, empty columns) and
    right-hand sides that are consistent, random, or nonzero in a row a0
    does not have.  Sizes grow with the seed up to 40 x 30."""
    rng = random.Random(1000 + seed)
    nrows, ncols = rng.randint(1, min(40, 2 + seed)), rng.randint(1, min(30, 2 + seed))
    density = rng.uniform(0.05, 0.5)
    keys = [(rng.randrange(3), i) for i in range(nrows)]
    empty = set(rng.sample(range(ncols), rng.randint(0, ncols // 4)))

    def value():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))

    def layer():
        rows = [{c: value() for c in range(ncols) if c not in empty and rng.random() < density} for _ in keys]
        for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
            # a combination of two rows: rank deficiency
            a, b, s = rng.randrange(nrows), rng.randrange(nrows), value()
            rows[i] = {c: rows[a].get(c, 0) + s * rows[b].get(c, 0) for c in rows[a].keys() | rows[b].keys()}
        m = {(keys[i], c): v for i, row in enumerate(rows) for c, v in row.items()}
        for _ in range(rng.randint(0, 3)):
            m[(rng.choice(keys), rng.randrange(ncols))] = Fraction(0)
        return m

    order = rng.randint(1, 3)
    a0 = layer()
    if rng.random() < 0.5:
        # A = A0 (1 + sum param^k R_k): the classical kernel lifts
        square = [(i, j) for i in range(ncols) for j in range(ncols)]
        higher = [{key: value() for key in square if rng.random() < density / 2} for _ in range(1, order)]
        layers = [a0] + [_frac_product(a0, rk) for rk in higher]
    else:
        layers = [a0] + [layer() for _ in range(1, order)]

    def vector(kind):
        if kind == "consistent":
            x = {c: value() for c in range(ncols) if rng.random() < density}
            b = {}
            for (r, c), v in a0.items():
                if c in x:
                    b[r] = b.get(r, 0) + v * x[c]
        else:
            b = {k: value() for k in keys if rng.random() < density}
        if rng.random() < 0.3:
            b[rng.choice(keys)] = Fraction(0)
        if kind == "outside":
            b[("absent", rng.randrange(3))] = value()
        elif rng.random() < 0.2:
            b[("absent", 9)] = Fraction(0)
        return b

    kinds = [rng.choice(["consistent", "random", "outside"]) for _ in range(rng.randint(0, 4))]
    rhs = [[vector(kind) for _ in range(order)] for kind in kinds]
    return layers, ncols, rhs


def _frac_product(a, r):
    """The sparse product a @ r of {(row, col): rational} matrices."""
    out = {}
    for (i, j), x in a.items():
        for (jj, k), y in r.items():
            if jj == j:
                out[(i, k)] = out.get((i, k), 0) + x * y
    return out


@pytest.mark.parametrize("seed", range(60))
def test_sparse_eliminator_matches_dense_reference(seed):
    layers, ncols, rhs = _sparse_system(seed)
    firsts = [b[0] for b in rhs]
    assert _items(eliminate(layers[0], ncols, firsts)) == _items(_ref_eliminate(layers[0], ncols, firsts))
    try:
        expected = _ref_solve_series(layers, ncols, rhs)
    except CgError:
        with pytest.raises(CgError):
            solve_series(layers, ncols, rhs)
        return
    assert _items(solve_series(layers, ncols, rhs)) == _items(expected)


def test_sparse_eliminator_cases_are_not_vacuous():
    kernels = nones = solved = lifted = raised = 0
    for seed in range(60):
        layers, ncols, rhs = _sparse_system(seed)
        kernel, solutions = eliminate(layers[0], ncols, [b[0] for b in rhs])
        kernels += bool(kernel)
        nones += solutions.count(None)
        solved += sum(x is not None and bool(x) for x in solutions)
        try:
            lifted += len(layers) > 1 and bool(solve_series(layers, ncols, rhs)[0])
        except CgError:
            raised += 1
    assert min(kernels, nones, solved, lifted, raised) >= 5, (kernels, nones, solved, lifted, raised)


def test_singular_constant_layer_and_unliftable_kernel_raise():
    x = _obj(2)
    mode = hbar_mode(2)
    # the constant layer has rank 1, so no higher layer makes m invertible
    m = Morphism(x, x, mode, [{(0, 0): Fraction(2)}, {(1, 1): Fraction(1)}])
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    # A = param: the constant layer is 0, its kernel vector e_0 does not lift
    with pytest.raises(CgError):
        solve_series([{}, {(0, 0): Fraction(1)}], 1, [])


TWIST_BACKENDS = [("classical", 1), ("epsilon", 2), ("quantum", 2), ("quantum", 3), ("drinfeld", 3)]


@pytest.mark.parametrize("name,order", TWIST_BACKENDS)
def test_inverse_twist_equals_inverse_of_twist(name, order):
    # a fresh backend, so that twist_inv is built before twist
    bk = BackendSpec(name, make_backend(name, order).mode)
    for x in [V, ADJ, VS, TensorObj(V, ADJ)]:
        assert bk.twist_inv(x) == bk.twist(x).inverse(), (name, order, str(x))
        assert bk.twist(x) @ bk.twist_inv(x) == Morphism.identity(x, bk.mode)


# ---------------------------------------------------------------------------
# Coherence against the comb of commutator-built associators
# ---------------------------------------------------------------------------


def _t_commutator(x, y, z):
    """[t12, t23] on the word x y z, from two-leg t insertions."""
    t12 = to_fractions(leg_insertion([x, y, z], [0], [1], T_TENSOR))
    t23 = to_fractions(leg_insertion([x, y, z], [1], [2], T_TENSOR))
    comm = _matmul(t12, t23)
    for key, val in _matmul(t23, t12).items():
        comm[key] = comm.get(key, 0) - val
    return _dropping_zeros(comm)


def _reference_associator(bk, x, y, z, sign):
    """Phi^sign = 1 + sign h^2/24 [t12, t23] on (xy)z."""
    left, right = TensorObj(TensorObj(x, y), z), TensorObj(x, TensorObj(y, z))
    comm = _t_commutator(x, y, z)
    ident = {(i, i): Fraction(1) for i in range(left.dim)}
    source, target = (left, right) if sign > 0 else (right, left)
    return Morphism(source, target, bk.mode, [ident, {}, {k: v * Fraction(sign, 24) for k, v in comm.items()}])


def _reference_comb(bk, tree):
    """Canonical morphism tree -> left_nested(tree), one reference inverse associator at a time."""
    if not isinstance(tree, TensorObj):
        return Morphism.identity(tree, bk.mode).retyped(target=left_nested(tree))
    a, b = tree.left, tree.right
    if isinstance(b, TensorObj):
        step = _reference_associator(bk, a, b.left, b.right, -1)
        rest = _reference_comb(bk, TensorObj(TensorObj(a, b.left), b.right))
        return rest @ step.retyped(source=tree)
    if isinstance(b, UnitObj):
        return _reference_comb(bk, a).retyped(source=tree)
    comb_a = _reference_comb(bk, a)
    m = comb_a.tensor(Morphism.identity(b, bk.mode))
    return m.retyped(source=tree, target=left_nested(tree))


def _reference_coherence(bk, s, t):
    return _reference_comb(bk, t).inverse() @ _reference_comb(bk, s)


ASSOC_WORDS = (V, VS, ADJ, TensorObj(V, V))


def test_associator_matches_commutator_reference():
    bk = BackendSpec("drinfeld", hbar_mode(3))  # fresh caches
    for x in ASSOC_WORDS:
        for y in ASSOC_WORDS:
            for z in ASSOC_WORDS:
                assert bk.associator(x, y, z) == _reference_associator(bk, x, y, z, 1), (x, y, z)
                assert bk.associator_inv(x, y, z) == _reference_associator(bk, x, y, z, -1), (x, y, z)


def test_omega_tensor_is_the_commutator_of_t12_and_t23():
    for x in ASSOC_WORDS:
        for y in ASSOC_WORDS:
            for z in ASSOC_WORDS:
                ident = as_layer({(i, i): Fraction(1) for i in range(x.dim * y.dim * z.dim)})
                omega = to_fractions(insert_legs([x, y, z], [(0, 1, 2, OMEGA_TENSOR)], ident))
                assert omega == _t_commutator(x, y, z), (x, y, z)


def _random_tree(rng, letters):
    if len(letters) == 1:
        return letters[0]
    k = rng.randint(1, len(letters) - 1)
    return TensorObj(_random_tree(rng, letters[:k]), _random_tree(rng, letters[k:]))


def test_coherence_matches_inverted_comb():
    bk = BackendSpec("drinfeld", hbar_mode(3))  # fresh caches
    rng = random.Random(17)
    moved = 0
    for _ in range(30):
        letters = [rng.choice((V, VS, ADJ)) for _ in range(rng.randint(3, 5))]
        s, t = _random_tree(rng, letters), _random_tree(rng, letters)
        assert bk.coherence(s, t) == _reference_coherence(bk, s, t), (s, t)
        moved += s != t
    assert moved >= 20


def _random_letters(rng, pool, lo, hi, max_dim):
    while True:
        letters = [rng.choice(pool) for _ in range(rng.randint(lo, hi))]
        if prod(w.dim for w in letters) <= max_dim:
            return letters


def test_rebracket_matches_reference_comb_conjugation():
    """Both sides move, on seeded random trees of 3-6 leaves including units."""
    bk = BackendSpec("drinfeld", hbar_mode(3))  # fresh caches
    rng = random.Random(23)
    pool = (UNIT, V, VS, ADJ)
    sides = set()
    for _ in range(24):
        src_letters = _random_letters(rng, pool, 3, 6, 36)
        tgt_letters = _random_letters(rng, pool, 3, 6, 36)
        m_src, s = _random_tree(rng, src_letters), _random_tree(rng, src_letters)
        m_tgt, t = _random_tree(rng, tgt_letters), _random_tree(rng, tgt_letters)
        m = _random_morphism(rng, m_src, m_tgt, bk.mode, density=0.3)
        expected = _reference_coherence(bk, m_tgt, t) @ m @ _reference_coherence(bk, s, m_src)
        assert bk.rebracket(m, s, t) == expected, (m_src, m_tgt, s, t)
        sides.add((bk.coherence(s, m_src) != Morphism.identity(s, bk.mode).retyped(target=m_src),
                   bk.coherence(m_tgt, t) != Morphism.identity(m_tgt, bk.mode).retyped(target=t)))
    assert sides == {(False, False), (False, True), (True, False), (True, True)}, sides


# ---------------------------------------------------------------------------
# apply against the Kronecker-product flat_apply
# ---------------------------------------------------------------------------

APPLY_BACKENDS = [("classical", 1), ("epsilon", 2), ("quantum", 3), ("drinfeld", 2), ("drinfeld", 3)]
APPLY_POOL = (UNIT, V, VS, ADJ, TensorObj(V, ADJ))
APPLY_TARGETS = (UNIT, V, VS, ADJ, TensorObj(VS, V), TensorObj(V, TensorObj(ADJ, VS)))


def _kron_flat_apply(bk, context, placed):
    """flat_apply as a Kronecker product of the placed morphisms and identities."""
    factors = []
    pos = 0
    for at, span, m in sorted(placed, key=lambda p: p[0]):
        factors += context[pos:at]
        if tensor_word(context[at : at + span]).leaves() != m.source.leaves():
            raise ModeError(f"flat_apply: source {m.source} does not match context at {at}")
        factors.append(m)
        pos = at + span
    factors += context[pos:]
    parts = [f if isinstance(f, Morphism) else Morphism.identity(f, bk.mode) for f in factors]
    raw = reduce(Morphism.tensor, parts or [Morphism.identity(UNIT, bk.mode)])
    return bk.rebracket(raw, left_nested(raw.source), left_nested(raw.target))


def _random_morphism(rng, source, target, mode, density=0.5):
    layers = [
        {(i, j): Fraction(rng.randint(-2, 2), rng.randint(1, 2))
         for i in range(target.dim) for j in range(source.dim) if rng.random() < density}
        for _ in range(mode.order)
    ]
    return Morphism(source, target, mode, layers)


def _random_placement(rng, bk, context, lo, hi):
    """One morphism placed in context[lo:hi]: a random span, coev, or a random source tree."""
    span = min(rng.choice((0, 1, 2, 2)), hi - lo)
    at = rng.randint(lo, hi - span)
    if span == 0 and rng.random() < 0.5:
        return at, 0, bk.coev(rng.choice((V, ADJ)))
    pieces = context[at : at + span]
    source = _random_tree(rng, pieces) if pieces else UNIT
    return at, span, _random_morphism(rng, source, rng.choice(APPLY_TARGETS), bk.mode)


def _apply_cases(bk, seed):
    rng = random.Random(seed)
    cases = [
        ([], [(0, 0, bk.coev(V))]),
        ([V, ADJ], [(1, 0, bk.coev(V))]),
        ([VS, V, ADJ], [(0, 2, bk.ev(V)), (2, 1, bk.twist(ADJ))]),
        ([V, V, ADJ], [(0, 2, bk.braiding(V, V)), (2, 0, bk.coev(V))]),
    ]
    while len(cases) < 24:
        context = [rng.choice(APPLY_POOL) for _ in range(rng.randint(1, 4))]
        if prod(x.dim for x in context) > 36:
            continue
        n = len(context)
        if n >= 2 and rng.random() < 0.6:
            cut = rng.randint(1, n - 1)
            placed = [_random_placement(rng, bk, context, 0, cut), _random_placement(rng, bk, context, cut, n)]
            if placed[0][0] + placed[0][1] > placed[1][0] or placed[0][0] == placed[1][0]:
                continue
        else:
            placed = [_random_placement(rng, bk, context, 0, n)]
        cases.append((context, placed))
    return rng, cases


@pytest.mark.parametrize("name,order", APPLY_BACKENDS)
def test_apply_matches_kronecker_flat_apply(name, order):
    bk = make_backend(name, order)
    rng, cases = _apply_cases(bk, order * 101 + len(name))
    for context, placed in cases:
        ref = _kron_flat_apply(bk, context, placed)
        assert bk.flat_apply(context, placed) == ref, (context, placed)
        for source in (UNIT, V, ADJ, TensorObj(V, V)):
            core = _random_morphism(rng, source, ref.source, bk.mode)
            assert bk.apply(context, placed, core) == ref @ core, (context, placed, source)


@pytest.mark.parametrize("name,order", APPLY_BACKENDS)
def test_apply_drops_cancelled_entries(name, order):
    bk = make_backend(name, order)
    word = TensorObj(VS, V)
    core = Morphism(UNIT, word, bk.mode, [{(0, 0): 1, (3, 0): -1}])  # ev(V) sums rows 0 and 3
    out = bk.apply([VS, V], [(0, 2, bk.ev(V))], core)
    assert out == _kron_flat_apply(bk, [VS, V], [(0, 2, bk.ev(V))]) @ core
    assert out.layers == tuple((1, {}) for _ in range(order))


def test_apply_rejects_wrong_modes_and_core_targets():
    for name, order in APPLY_BACKENDS:
        bk = make_backend(name, order)
        other = make_backend("epsilon" if name == "classical" else "classical")
        word = TensorObj(TensorObj(V, V), V)
        braid = bk.braiding(V, V)
        with pytest.raises(ModeError):  # core over another ring
            bk.apply([V, V, V], [(0, 2, braid)], Morphism.identity(word, other.mode))
        with pytest.raises(ModeError):  # placed morphism over another ring
            bk.apply([V, V, V], [(0, 2, other.braiding(V, V))], Morphism.identity(word, bk.mode))
        with pytest.raises(ModeError):  # core ends on another bracketing
            bk.apply([V, V, V], [(0, 2, braid)], Morphism.identity(TensorObj(V, TensorObj(V, V)), bk.mode))
        with pytest.raises(ModeError):  # core ends on another word
            bk.apply([V, V, V], [(0, 2, braid)], Morphism.identity(TensorObj(V, V), bk.mode))
        with pytest.raises(ModeError):  # placed source does not match the context
            bk.apply([V, ADJ], [(0, 2, braid)], Morphism.identity(TensorObj(V, ADJ), bk.mode))
