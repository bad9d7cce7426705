import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skeinlab.errors import ModeError, Part1DomainError
from skeinlab.scalars import (
    RingMode,
    ScalarSeries,
    classical_mode,
    epsilon_mode,
    exp_param_series,
    hbar_mode,
)


def S(mode, *coeffs):
    return ScalarSeries.from_coeffs(mode, coeffs)


def test_binomial_identity_hbar3():
    m = hbar_mode(3)
    one_plus = S(m, 1, 1)
    one_minus = S(m, 1, -1)
    assert one_plus * one_minus == S(m, 1, 0, -1)


def test_epsilon_squares_to_zero():
    e = ScalarSeries.param(epsilon_mode())
    assert (e * e).is_zero


def test_exp_truncation_squared():
    m = hbar_mode(3)
    a = S(m, 1, 1, Fraction(1, 2))
    assert a * a == S(m, 1, 2, 2)


def test_part0_part1():
    e = epsilon_mode()
    x = S(e, 3, 5)
    assert x.part0() == S(classical_mode(), 3)
    assert (ScalarSeries.param(e) * 7).part1() == S(classical_mode(), 7)
    h = hbar_mode(3)
    y = S(h, 2, 1, 4)
    assert y.part0() == S(classical_mode(), 2)
    z = ScalarSeries.param(h) * S(h, 2, 3)
    assert z.part1() == S(classical_mode(), 2)
    with pytest.raises(Part1DomainError):
        y.part1()
    assert S(h, 0, 0, 0).part1().is_zero


def test_mode_mismatch():
    with pytest.raises(ModeError):
        S(epsilon_mode(), 1) * S(hbar_mode(3), 1)


def test_conversions_are_ring_maps():
    h = hbar_mode(4)
    a = S(h, 1, 2, 3, 4)
    b = S(h, 2, -1, 0, 5)
    for target in (epsilon_mode(), classical_mode(), hbar_mode(2)):
        f = lambda x: x.convert(target)
        assert f(a * b) == f(a) * f(b)
        assert f(a + b) == f(a) + f(b)
    assert a.convert(epsilon_mode()) == S(epsilon_mode(), 1, 2)


def test_exp_param_series():
    m = hbar_mode(4)
    assert exp_param_series(m, Fraction(3, 4)) == S(
        m, 1, Fraction(3, 4), Fraction(9, 32), Fraction(9, 128)
    )


def test_inverse():
    m = hbar_mode(4)
    a = S(m, 2, 1, Fraction(1, 3), 5)
    assert a * a.inverse() == ScalarSeries.one(m)
    with pytest.raises(ZeroDivisionError):
        ScalarSeries.param(m).inverse()


def test_json_roundtrip():
    m = hbar_mode(3)
    a = S(m, Fraction(1, 2), -2, Fraction(7, 3))
    assert ScalarSeries.from_json(a.to_json()) == a


small = st.integers(min_value=-6, max_value=6)


@st.composite
def scalars(draw, mode):
    return ScalarSeries.from_coeffs(
        mode, [Fraction(draw(small), draw(small.filter(lambda x: x != 0))) for _ in range(mode.order)]
    )


@given(scalars(hbar_mode(3)), scalars(hbar_mode(3)), scalars(hbar_mode(3)))
def test_ring_axioms_hbar(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a * ScalarSeries.one(a.mode) == a


def test_ring_axioms_bulk():
    rng = random.Random(0)
    for mode in (classical_mode(), epsilon_mode(), hbar_mode(3)):
        for _ in range(1000):
            a, b, c = (
                ScalarSeries.from_coeffs(mode, [Fraction(rng.randint(-5, 5)) for _ in range(mode.order)])
                for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_part1_of_param_times():
    rng = random.Random(1)
    for mode in (epsilon_mode(), hbar_mode(3)):
        p = ScalarSeries.param(mode)
        for _ in range(50):
            m = ScalarSeries.from_coeffs(mode, [Fraction(rng.randint(-5, 5)) for _ in range(mode.order)])
            assert (p * m).part1() == m.part0()


def test_leibniz_for_composites():
    # for matrix pairs with vanishing classical composite:
    # part1(g o f) == part0(g) o part1(f) + part1(g) o part0(f)
    from skeinlab.ribbon_backend import Morphism, as_layer, simple, solve_series

    rng = random.Random(2)
    mode = epsilon_mode()
    V = simple(3)  # any 4-dim space
    for _ in range(20):
        d_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        a0 = {(i, j): x for i, row in enumerate(d_rows) for j, x in enumerate(row)}
        ((den, k0),), _, _ = solve_series([as_layer(a0)], 4, [])
        kernel = [[Fraction(k0.get((c, n), 0), den) for c in range(4)] for n in sorted({n for _, n in k0})]
        if not kernel:
            continue
        # B's columns lie in ker(D) so that D B = 0
        b_cols = [kernel[rng.randrange(len(kernel))] for _ in range(4)]
        D = Morphism.from_rows(V, V, mode, d_rows)
        B = Morphism.from_rows(V, V, mode, [[b_cols[j][i] for j in range(4)] for i in range(4)])
        A = Morphism.from_rows(V, V, mode, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        C = Morphism.from_rows(V, V, mode, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        eps = ScalarSeries.param(mode)
        f = B + A.scale(eps)
        g = D + C.scale(eps)
        comp = g @ f
        assert comp.part0().is_zero
        lhs = comp.part1()
        rhs = g.part0() @ f.part1() + g.part1() @ f.part0()
        assert lhs == rhs


def test_from_json_rejects_coefficients_beyond_the_order():
    with pytest.raises(ModeError):
        ScalarSeries.from_json({"mode": "hbar", "order": 2, "coeffs": ["1", "0", "9"]})
    with pytest.raises(ModeError):
        ScalarSeries.from_coeffs(epsilon_mode(), [1, 2, 3])
    assert ScalarSeries.from_json({"mode": "hbar", "order": 3, "coeffs": ["1"]}) == S(hbar_mode(3), 1, 0, 0)
