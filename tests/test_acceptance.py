"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All tolerances are exact equalities of rationals.
"""

import random
import time
from fractions import Fraction as F

from skeinlab.polynomials import SL2Poly
from skeinlab.ribbon_backend import (
    DualObj,
    Morphism,
    TensorObj,
    UNIT,
    flip_matrix,
    make_backend,
    simple,
)
from skeinlab.scalars import ScalarSeries, classical_mode
from skeinlab.skein_algebra import (
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    random_element,
    unit_element,
)
from skeinlab.poisson import (
    biderivation_check,
    check_fusion,
    fock_rosly_consistency,
    fock_rosly_sigma,
    sigma_algebraic,
    sigma_goldman,
    symmetrization_check,
)
from skeinlab.suites import MOVE_KINDS, moves_suite, ribbon_suite, torsion_suite
from skeinlab.surface import annulus, disk_with_two_points, once_punctured_torus, two_strand_chaps

CL = make_backend("classical")
EP = make_backend("epsilon")
V = simple(1)
ANN = annulus()
TOR = once_punctured_torus()
DISK = disk_with_two_points()
BACKENDS = (("classical", 1), ("epsilon", 2), ("quantum", 3), ("drinfeld", 3))


def report(n, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n:>2} {name}: {status} {extra}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_move_invariance():
    t0 = time.time()
    all_ok = True
    total = 0
    for name, order in BACKENDS:
        cases = moves_suite(name, order, seed=101, words_per_kind=25)
        total += len(cases)
        all_ok &= all(c["ok"] for c in cases)
    elapsed = time.time() - t0
    report(1, "move invariance", all_ok and total == 25 * len(MOVE_KINDS) * 4, f"({total} cases, {elapsed:.1f}s)")


def test_criterion_02_ribbon_axioms():
    all_ok = True
    for name, order in BACKENDS:
        cases = ribbon_suite(name, order)
        all_ok &= all(c["ok"] for c in cases)
    report(2, "ribbon axioms", all_ok)


def test_criterion_03_torsion_exhibit():
    cases = torsion_suite()
    # theta^2 - id == (3/2) h id, exactly, and nonzero
    extra_ok = True
    for name in ("quantum", "drinfeld"):
        bk = make_backend(name, 2)
        defect = bk.twist(V) @ bk.twist(V) - Morphism.identity(V, bk.mode)
        expected = Morphism.identity(V, bk.mode).scale(ScalarSeries.from_coeffs(bk.mode, [0, F(3, 2)]))
        extra_ok &= defect == expected and not defect.is_zero
    report(3, "torsion exhibit", all(c["ok"] for c in cases) and extra_ok)


def test_criterion_04_t_extraction():
    expected = flip_matrix(V, V, classical_mode()).retyped(target=TensorObj(V, V)) - Morphism.identity(
        TensorObj(V, V), classical_mode()
    ).scale(F(1, 2))
    t = EP.inf_braiding(V, V)
    ok = t == expected
    ident = Morphism.identity(TensorObj(V, V), classical_mode())
    ok &= ((t - ident.scale(F(1, 2))) @ (t + ident.scale(F(3, 2)))).is_zero
    # quantum: the h-coefficient of R21 R - 1 matches with ratio one
    for order in (2, 3):
        q = make_backend("quantum", order)
        ok &= q.inf_braiding(V, V) == expected
    report(4, "t extraction", ok, "(eigenvalues 1/2, -3/2; quantum ratio 1)")


def test_criterion_05_disk_formula():
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import T_TENSOR

    rng = random.Random(105)
    ok = True
    for i in range(50):
        arg = rng.choice((UNIT, V, simple(2)))
        s1 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        sig = sigma_algebraic(s1, s2).element
        prod0 = mu(s1.part0(), s2.part0())
        factors, first, second = interleaved_argument_factors(s1, s2)
        t24 = argument_insertion(prod0, T_TENSOR, factors, [(first[1], second[1])]).canonical()
        ok &= sig.equal(t24)
    report(5, "disk formula", ok, "(50 random pairs)")


def test_criterion_06_goldman_oracle():
    rng = random.Random(106)
    ok = True
    # generators
    ta, tb = loop_element(CL, TOR, [[0]]), loop_element(CL, TOR, [[1]])
    ok &= sigma_goldman(ta, tb).equal(sigma_algebraic(lift_element(ta, EP), lift_element(tb, EP)))
    tr = loop_element(CL, ANN, [[0]])
    ok &= sigma_goldman(tr, tr).equal(sigma_algebraic(lift_element(tr, EP), lift_element(tr, EP)))
    # 50 random pairs
    for pat, pool, count in ((ANN, (0, 1, 2), 25), (TOR, (0, 1), 25)):
        for _ in range(count):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            g = sigma_goldman(s1, s2)
            a = sigma_algebraic(lift_element(s1, EP), lift_element(s2, EP))
            ok &= g.equal(a)
    report(6, "Goldman oracle equivalence", ok, "(generators + 50 random pairs)")


def test_criterion_07_symmetrization():
    rng = random.Random(107)
    ok = True
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(50):
            s1 = random_element(EP, pat, rng, label_pool=pool)
            s2 = random_element(EP, pat, rng, label_pool=pool)
            ok &= symmetrization_check(s1, s2)
    report(7, "symmetrization identity", ok, "(50 pairs per surface)")


def test_criterion_08_biderivation():
    rng = random.Random(108)
    ok = True
    for pat, pool, count in ((ANN, (0, 1, 2), 25), (TOR, (0, 1), 25)):
        for _ in range(count):
            a = random_element(EP, pat, rng, label_pool=pool)
            b = random_element(EP, pat, rng, label_pool=pool)
            c = random_element(EP, pat, rng, label_pool=pool)
            ok &= biderivation_check(a, b, c)
    report(8, "biderivation (Leibniz)", ok, "(50 random triples)")


def test_criterion_09_fusion_theorem():
    rng = random.Random(109)
    ok = True
    for i in range(25):
        arg = rng.choice((UNIT, V))
        s1 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        good, _ = check_fusion(s1, s2, 0, 1)
        ok &= good
    chaps = two_strand_chaps()
    for i in range(25):
        s1 = random_element(EP, chaps, rng, label_pool=(0, 1))
        s2 = random_element(EP, chaps, rng, label_pool=(0, 1))
        good, _ = check_fusion(s1, s2, 0, 1)
        ok &= good
    report(9, "fusion theorem", ok, "(25 pairs per fusion tree)")


def test_criterion_10_fock_rosly():
    rng = random.Random(110)
    ok = True
    for pat, pool, count in ((ANN, (0, 1, 2), 13), (TOR, (0, 1), 12)):
        for _ in range(count):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            ok &= fock_rosly_consistency(s1, s2)
    # Jacobi of the induced bracket on the invariant trace triple
    ta, tb = loop_element(CL, TOR, [[0]]), loop_element(CL, TOR, [[1]])
    tab = loop_element(CL, TOR, [[0, 1]])

    def br(f, g):
        return fock_rosly_sigma(f, g).element

    total = None
    for x, y, z in ((ta, tb, tab), (tb, tab, ta), (tab, ta, tb)):
        h = holonomy_evaluate(br(br(x, y), z))[0]
        total = h if total is None else total + h
    ok &= total.is_zero
    report(10, "Fock-Rosly consistency + Jacobi", ok, "(25 pairs + trace triple)")


def test_criterion_11_classical_limit():
    rng = random.Random(111)
    ok = True
    # structure morphisms reduce to the classical ones
    for name, order in BACKENDS[1:]:
        bk = make_backend(name, order)
        for a, b in ((V, V), (V, DualObj(V))):
            ok &= bk.braiding(a, b).part0() == CL.braiding(a, b)
        ok &= bk.twist(V).part0() == CL.twist(V)
    # deformed products reduce to classical products
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        s1 = random_element(CL, pat, rng, label_pool=pool)
        s2 = random_element(CL, pat, rng, label_pool=pool)
        expected = mu(s1, s2)
        for name, order in BACKENDS[1:]:
            bk = make_backend(name, order)
            ok &= mu(lift_element(s1, bk), lift_element(s2, bk)).part0().equal(expected)
    # h -> e reduction: quantum mod h^2 agrees with epsilon
    q2 = make_backend("quantum", 2)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(3):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            se = sigma_algebraic(lift_element(s1, EP), lift_element(s2, EP))
            sq = sigma_algebraic(lift_element(s1, q2), lift_element(s2, q2))
            ok &= se.equal(sq)
    report(11, "classical-limit coherence", ok)
