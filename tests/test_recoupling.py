"""A recoupling oracle: the backends' trivalent data against 6j symbols.

For simples a, b, c, d the left-nested tree vectors of Hom(V_d, (a b) c),
one per intermediate spin e, and the right-nested ones of
Hom(V_d, a (b c)), one per f, are built from `cg_decompose`'s embeddings,
with the matching projections (project o embed = id).  With

    F_ef = project_f o associator(a, b, c) o embed_e
    G_fe = project_e o associator_inv(a, b, c) o embed_f

(scalars on V_d), P_ef = F_ef G_fe does not change when an embedding is
rescaled and its projection rescaled inversely, so it can be compared with
a closed form.  Classically P_ef = (e+1)(f+1) {a/2 b/2 e/2; c/2 d/2 f/2}^2,
the squared Wigner 6j symbol from the Racah sum (Racah, Phys. Rev. 62
(1942)), computed here with `Fraction`.  The quantum and Drinfeld
categories are braided equivalent (Drinfeld-Kohno) and P_ef is a gauge
invariant, so the two agree at the same order; Drinfeld's CG maps are
classical, so its h^2 terms come from the associator alone.

The braiding of V_a with itself acts on each component V_c of V_a V_a by
one scalar, +-q^((C_c - 2 C_a)/2) with C_n = n(n+2)/2 and q = e^(h/2);
one eigenvalue per component, so no gauge enters.
"""

from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from skeinlab.ribbon_backend import Morphism, make_backend, simple
from skeinlab.scalars import ScalarSeries


def _spins(x, y):
    """The spins of V_x (x) V_y."""
    return range(abs(x - y), x + y + 1, 2)


def _trees(bk, a, b, c, d):
    """({e: (embed, project)} left-nested, {f: (embed, project)} right-nested) for V_d in a b c."""
    cg = {}

    def pieces(x, y):
        if (x, y) not in cg:
            cg[x, y] = {k.spin: (embed, project) for k, embed, project in bk.cg_decompose(x, y)}
        return cg[x, y]

    va, vc = simple(a), simple(c)
    left, right = {}, {}
    for e in _spins(a, b):
        if d in _spins(e, c):
            (inner, inner_p), (outer, outer_p) = pieces(a, b)[e], pieces(e, c)[d]
            ident = Morphism.identity(vc, bk.mode)
            left[e] = inner.tensor(ident) @ outer, outer_p @ inner_p.tensor(ident)
    for f in _spins(b, c):
        if d in _spins(a, f):
            (inner, inner_p), (outer, outer_p) = pieces(b, c)[f], pieces(a, f)[d]
            ident = Morphism.identity(va, bk.mode)
            right[f] = ident.tensor(inner) @ outer, outer_p @ ident.tensor(inner_p)
    return left, right


def recoupling(bk, a, b, c, d):
    """{(e, f): P_ef} for V_d in V_a V_b V_c on backend `bk`, as ScalarSeries."""
    va, vb, vc = simple(a), simple(b), simple(c)
    assoc, assoc_inv = bk.associator(va, vb, vc), bk.associator_inv(va, vb, vc)
    left, right = _trees(bk, a, b, c, d)
    out = {}
    for (e, (embed_e, project_e)), (f, (embed_f, project_f)) in product(left.items(), right.items()):
        forward = (project_f @ assoc @ embed_e).entry(0, 0)
        back = (project_e @ assoc_inv @ embed_f).entry(0, 0)
        out[e, f] = forward * back
    return out


def _triangle(x, y, z):
    """Delta(x/2, y/2, z/2)^2 = (j1+j2-j3)! (j1-j2+j3)! (-j1+j2+j3)! / (j1+j2+j3+1)!."""
    return Fraction(
        factorial((x + y - z) // 2) * factorial((x - y + z) // 2) * factorial((-x + y + z) // 2),
        factorial((x + y + z) // 2 + 1),
    )


def six_j_squared(a, b, e, c, d, f):
    """{a/2 b/2 e/2; c/2 d/2 f/2}^2 by the Racah sum, on doubled spins."""
    triads = [(a, b, e), (a, d, f), (c, b, f), (c, d, e)]
    sums = [sum(t) // 2 for t in triads]
    tops = [(a + b + c + d) // 2, (b + e + d + f) // 2, (e + a + f + c) // 2]
    total = Fraction(0)
    for z in range(max(sums), min(tops) + 1):
        den = 1
        for n in [z - s for s in sums] + [t - z for t in tops]:
            den *= factorial(n)
        total += Fraction((-1) ** z * factorial(z + 1), den)
    scale = Fraction(1)
    for t in triads:
        scale *= _triangle(*t)
    return scale * total**2


def _cases(triples):
    return [(a, b, c, d) for a, b, c in triples for d in range(a + b + c + 1) if (a + b + c - d) % 2 == 0]


CLASSICAL_CASES = _cases(product(range(3), repeat=3))
DEFORMED_CASES = _cases([(1, 1, 1), (1, 2, 1), (2, 2, 2), (1, 1, 2), (2, 1, 3)])


def test_the_racah_sum_on_known_values():
    # {1/2 1/2 0; 1/2 1/2 0} = -1/2 and {1 1 1; 1 1 1} = 1/6
    assert six_j_squared(1, 1, 0, 1, 1, 0) == Fraction(1, 4)
    assert six_j_squared(2, 2, 2, 2, 2, 2) == Fraction(1, 36)
    # orthogonality: sum_f (e+1)(f+1) {a b e; c d f}^2 = 1
    for a, b, c, d in CLASSICAL_CASES:
        for e in _spins(a, b):
            fs = [f for f in _spins(b, c) if d in _spins(a, f)]
            if d in _spins(e, c):
                assert sum((e + 1) * (f + 1) * six_j_squared(a, b, e, c, d, f) for f in fs) == 1, (a, b, c, d, e)


@pytest.mark.parametrize("name,order", [("classical", 1), ("epsilon", 2), ("drinfeld", 2)])
def test_classical_recoupling_is_the_squared_6j_symbol(name, order):
    """P_ef = (e+1)(f+1) 6j^2 for a, b, c <= 2 and every admissible d, e, f, with no
    higher-order term: epsilon and Drinfeld(2) keep the classical CG maps and a
    trivial associator."""
    bk = make_backend(name, order)
    checked = 0
    for a, b, c, d in CLASSICAL_CASES:
        for (e, f), p in recoupling(bk, a, b, c, d).items():
            want = (e + 1) * (f + 1) * six_j_squared(a, b, e, c, d, f)
            assert p.coeffs == (want,) + (0,) * (order - 1), (name, a, b, c, d, e, f)
            checked += 1
    assert checked == 99


def test_quantum_and_drinfeld_recoupling_agree():
    """quantum(3) and Drinfeld(3) give the same P_ef, with an h^2 term in most cases."""
    quantum, drinfeld = make_backend("quantum", 3), make_backend("drinfeld", 3)
    deformed = total = 0
    for a, b, c, d in DEFORMED_CASES:
        ps = recoupling(quantum, a, b, c, d)
        assert ps == recoupling(drinfeld, a, b, c, d), (a, b, c, d)
        total += len(ps)
        deformed += sum(1 for p in ps.values() if p.coeffs[2])
    assert (total, deformed) == (42, 33)


def test_the_first_quantum_correction():
    """(1, 1, 1; d = 1) with e = f = 0 gives 1/[2]^2 = 1/4 - h^2/16 mod h^3."""
    for name in ("quantum", "drinfeld"):
        p = recoupling(make_backend(name, 3), 1, 1, 1, 1)[0, 0]
        assert p.coeffs == (Fraction(1, 4), 0, Fraction(-1, 16)), name


def braiding_eigenvalue(a, c, order):
    """The coefficients of +-q^((C_c - 2 C_a)/2) = +-exp(h (C_c - 2 C_a)/4), C_n = n(n+2)/2, up to h^(order-1).

    The sign is the classical flip's on V_c in V_a V_a.  At c = 2a the
    component holds u_0 (x) u_0, which the flip fixes.  Each step down by 2
    adds one to m = (2a - c)/2: the highest-weight vector of V_c is
    sum_{i+j=m} (-1)^i x_i u_i (x) u_j with x_i = x_{m-i}, and the flip, which
    swaps i and j, multiplies it by (-1)^m.
    """
    sign = (-1) ** ((2 * a - c) // 2)
    x = Fraction(c * (c + 2) - 2 * a * (a + 2), 8)  # (C_c - 2 C_a)/4
    return [sign * x**n / factorial(n) for n in range(order)]


@pytest.mark.parametrize("name,order", [("classical", 1), ("epsilon", 2), ("drinfeld", 2), ("drinfeld", 3),
                                        ("quantum", 3), ("quantum", 5), ("quantum", 8)])
def test_the_braiding_acts_on_each_component_by_its_eigenvalue(name, order):
    """project_c o braiding(V_a, V_a) o embed_c = +-q^((C_c - 2 C_a)/2) on V_c, for a <= 4.

    On epsilon the braiding is flip(1 + e r) with r = t/2 + r_a; the flip
    takes V_c to itself and r_a to -r_a, so r_a drops out of the component
    and epsilon follows the same formula to first order."""
    bk = make_backend(name, order)
    checked = 0
    for a in range(1, 5):
        va = simple(a)
        braiding = bk.braiding(va, va)
        for vc, embed, project in bk.cg_decompose(va, va):
            want = ScalarSeries.from_coeffs(bk.mode, braiding_eigenvalue(a, vc.spin, order))
            assert project @ braiding @ embed == Morphism.identity(vc, bk.mode).scale(want), (name, order, a, vc)
            checked += 1
    assert checked == 2 + 3 + 4 + 5
