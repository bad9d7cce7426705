import json
import random
from fractions import Fraction as F
from functools import lru_cache, reduce
from pathlib import Path

import pytest

from skeinlab import ribbon_backend
from skeinlab.errors import AlgebraError, ModeError
from skeinlab.polynomials import SL2Poly
from skeinlab.ribbon_backend import (
    DualObj,
    Morphism,
    TensorObj,
    UNIT,
    classical_action,
    flip_matrix,
    make_backend,
    simple,
    tensor_word,
    to_fractions,
    word_tensor,
)
from skeinlab.scalars import classical_mode
from skeinlab.skein_algebra import (
    SkeinElement,
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    product_term_chains,
    random_element,
    slot_objects,
    unit_element,
)
from skeinlab.poisson import (
    SigmaResult,
    _end_pairs_tensor,
    check_fusion,
    fock_rosly_consistency,
    fock_rosly_sigma,
    forgetful_correction,
    goldman_sites,
    sigma_algebraic,
    sigma_goldman,
    symmetrization_check,
    biderivation_check,
)
from skeinlab.surface import annulus, disk_with_two_points, once_punctured_torus, two_strand_chaps

CL = make_backend("classical")
EP = make_backend("epsilon")
Q2 = make_backend("quantum", 2)
V = simple(1)
ANN = annulus()
TOR = once_punctured_torus()
DISK = disk_with_two_points()


def test_t_extraction_value_and_ratio():
    # [beta^2 - 1]_1 = e(x)f + f(x)e + h(x)h/2 = flip - id/2 on V(x)V
    expected = flip_matrix(V, V, classical_mode()).retyped(target=TensorObj(V, V)) - Morphism.identity(
        TensorObj(V, V), classical_mode()
    ).scale(F(1, 2))
    for bk in (EP, Q2, make_backend("quantum", 3), make_backend("drinfeld", 3)):
        t = bk.inf_braiding(V, V)
        assert t == expected, bk.name
        # ratio one against the tensor the classical backend stores
        assert t == CL.inf_braiding(V, V), bk.name
    assert EP.inf_braiding(UNIT, V).is_zero


def test_t_extraction_eigenvalues():
    # eigenvalues 1/2 (triple) and -3/2 (single): (t - 1/2)(t + 3/2) = 0
    t = EP.inf_braiding(V, V)
    word = t.source
    ident = Morphism.identity(word, classical_mode())
    prod = (t - ident.scale(F(1, 2))) @ (t + ident.scale(F(3, 2)))
    assert prod.is_zero
    trace = sum((t.entry(i, i).coeffs[0] for i in range(4)), F(0))
    assert trace == 0  # 3*(1/2) + (-3/2)


def test_overcross_minus_undercross():
    # [beta_{X,Y} - beta^{-1}_{Y,X}]_1 == flip o t
    for bk in (EP, Q2):
        d = bk.braiding(V, V) - bk.braiding_inv(V, V)
        lhs = d.part1()
        rhs = (flip_matrix(V, V, classical_mode()) @ bk.inf_braiding(V, V)).retyped(
            source=lhs.source, target=lhs.target
        )
        assert lhs == rhs, bk.name


def test_partial_transpose_sign_rule():
    # dualizing one leg partially transposes t and flips its sign
    t_vv = CL.inf_braiding(V, V).entries
    t_dv = CL.inf_braiding(DualObj(V), V).entries
    flipped = {}
    for (i, j), v in t_vv.items():
        # partial transpose on the first leg of a 2x2 (x) 2x2 matrix
        i1, i2 = divmod(i, 2)
        j1, j2 = divmod(j, 2)
        flipped[(j1 * 2 + i2, i1 * 2 + j2)] = -v
    assert t_dv == {k: v for k, v in flipped.items() if not v.is_zero}


def test_disk_formula():
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import T_TENSOR

    rng = random.Random(40)
    for i in range(6):
        arg = rng.choice((UNIT, V, simple(2)))
        s1 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        sig = sigma_algebraic(s1, s2).element
        prod0 = mu(s1.part0(), s2.part0())
        factors, first, second = interleaved_argument_factors(s1, s2)
        t24 = argument_insertion(prod0, T_TENSOR, factors, [first[1]], [second[1]]).canonical()
        t13 = argument_insertion(prod0, T_TENSOR, factors, [first[0]], [second[0]]).canonical()
        assert sig.equal(t24)
        assert sig.equal(t13)  # the two disk forms agree


def test_goldman_sites_counts():
    # annulus: two interior sites; torus: eight; disk: one
    assert len(goldman_sites(DISK)) == 1
    assert len(goldman_sites(ANN)) == 2
    assert len(goldman_sites(TOR)) == 8


def test_goldman_torus_generators():
    ta = loop_element(CL, TOR, [[0]])
    tb = loop_element(CL, TOR, [[1]])
    g = sigma_goldman(ta, tb)
    a = sigma_algebraic(lift_element(ta, EP), lift_element(tb, EP))
    assert g.equal(a)
    # frozen value: one intersection inserting t = flip - id/2 gives
    # sigma(tr_a, tr_b) = (1/2) tr(a) tr(b) - tr(ab)
    h = holonomy_evaluate(g.element)[0]
    a0 = SL2Poly.variable(2, 0, "a")
    d0 = SL2Poly.variable(2, 0, "d")
    a1 = SL2Poly.variable(2, 1, "a")
    d1 = SL2Poly.variable(2, 1, "d")
    b0 = SL2Poly.variable(2, 0, "b")
    c0 = SL2Poly.variable(2, 0, "c")
    b1 = SL2Poly.variable(2, 1, "b")
    c1 = SL2Poly.variable(2, 1, "c")
    tr_a = a0 + d0
    tr_b = a1 + d1
    tr_ab = a0 * a1 + b0 * c1 + c0 * b1 + d0 * d1
    assert h == tr_a * tr_b * F(1, 2) - tr_ab


def test_goldman_disjoint_supports():
    ta = loop_element(CL, TOR, [[0]])
    u = unit_element(CL, TOR)
    assert sigma_goldman(ta, u).is_zero
    assert sigma_goldman(u, ta).is_zero
    # parallel loops on the annulus never intersect
    tr = loop_element(CL, ANN, [[0]])
    assert sigma_goldman(tr, tr).is_zero


def test_goldman_oracle_random():
    rng = random.Random(41)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(4):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            g = sigma_goldman(s1, s2)
            a = sigma_algebraic(lift_element(s1, EP), lift_element(s2, EP))
            assert g.equal(a)


def test_sigma_quantum_matches_epsilon():
    rng = random.Random(42)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        s1 = random_element(CL, pat, rng, label_pool=pool)
        s2 = random_element(CL, pat, rng, label_pool=pool)
        se = sigma_algebraic(lift_element(s1, EP), lift_element(s2, EP))
        sq = sigma_algebraic(lift_element(s1, Q2), lift_element(s2, Q2))
        assert se.equal(sq)


def test_symmetrization():
    rng = random.Random(43)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(3):
            s1 = random_element(EP, pat, rng, label_pool=pool)
            s2 = random_element(EP, pat, rng, label_pool=pool)
            assert symmetrization_check(s1, s2)


def test_biderivation():
    rng = random.Random(44)
    u = unit_element(EP, ANN)
    s2 = random_element(EP, ANN, rng, label_pool=(0, 1, 2))
    s3 = random_element(EP, ANN, rng, label_pool=(0, 1, 2))
    assert biderivation_check(u, s2, s3)  # Leibniz collapses at the unit
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(2):
            a = random_element(EP, pat, rng, label_pool=pool)
            b = random_element(EP, pat, rng, label_pool=pool)
            c = random_element(EP, pat, rng, label_pool=pool)
            assert biderivation_check(a, b, c)


def test_fusion_theorem():
    rng = random.Random(45)
    for i in range(3):
        arg = rng.choice((UNIT, V))
        s1 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(EP, DISK, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        ok, defect = check_fusion(s1, s2, DISK, 0, 1)
        assert ok, holonomy_evaluate(defect) if defect.backend.name == "classical" else defect
    chaps = two_strand_chaps()
    for i in range(2):
        s1 = random_element(EP, chaps, rng, label_pool=(0, 1))
        s2 = random_element(EP, chaps, rng, label_pool=(0, 1))
        ok, defect = check_fusion(s1, s2, chaps, 0, 1)
        assert ok


def test_fusion_classical_sanity():
    # with the classical backend the deformation vanishes: sigma_f,
    # sigma-unfused and the t-term are all zero, trivially consistent
    rng = random.Random(46)
    s1 = random_element(CL, DISK, rng, label_pool=(0, 1, 2), argument=(V, V))
    s2 = random_element(CL, DISK, rng, label_pool=(0, 1, 2), argument=(V, V))
    from skeinlab.skein_algebra import mu_op_minus

    assert mu(s1, s2).equal(mu_op_minus(s1, s2))


def test_fock_rosly_disk_reduces_to_ra_bracket():
    # on the disk all t-terms cancel and only the antisymmetric r-matrix
    # insertions at the two ends survive
    rng = random.Random(47)
    s1 = random_element(CL, DISK, rng, label_pool=(0, 1, 2), argument=(V, V))
    s2 = random_element(CL, DISK, rng, label_pool=(0, 1, 2), argument=(V, V))
    fr = fock_rosly_sigma(DISK, s1, s2)
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import RA_TENSOR

    prod0 = mu(s1, s2)
    factors, first, second = interleaved_argument_factors(s1, s2)
    expected = argument_insertion(prod0, RA_TENSOR, factors, [first[0]], [second[0]])
    expected = (
        expected + argument_insertion(prod0, RA_TENSOR, factors, [first[1]], [second[1]])
    ).canonical()
    assert fr.element.equal(expected)


def test_fock_rosly_consistency_random():
    rng = random.Random(48)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(2):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            assert fock_rosly_consistency(s1, s2)


def _full_forgetful_correction(s1, s2):
    """(-t + r_a) on the argument sides of the classical product, always computed."""
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import RA_TENSOR, TSYM_TENSOR

    factors, first, second = interleaved_argument_factors(s1, s2)
    minus_t = [(-c, g1, g2) for c, g1, g2 in TSYM_TENSOR]
    return argument_insertion(mu(s1, s2), minus_t + list(RA_TENSOR), factors, first, second).canonical()


def test_forgetful_correction_matches_the_full_computation():
    rng = random.Random(49)
    trivial = simple(0)
    for pattern, argument in ((ANN, None), (TOR, None), (DISK, (trivial, trivial)), (DISK, (V, V))):
        for _ in range(2):
            s1 = random_element(CL, pattern, rng, label_pool=(0, 1, 2), argument=argument)
            s2 = random_element(CL, pattern, rng, label_pool=(0, 1, 2), argument=argument)
            expected = _full_forgetful_correction(s1, s2)
            got = forgetful_correction(s1, s2)
            assert got.argument == expected.argument and got.terms == expected.terms, pattern
            assert got.is_zero == (argument != (V, V)), (pattern, argument)


def test_forgetful_correction_on_one_dimensional_arguments_computes_no_product(monkeypatch):
    import skeinlab.poisson as poisson

    rng = random.Random(51)
    s1 = random_element(CL, TOR, rng, label_pool=(0, 1))
    s2 = random_element(CL, TOR, rng, label_pool=(0, 1))

    def no_product(*args, **kwargs):
        raise AssertionError("mu called")

    monkeypatch.setattr(poisson, "mu", no_product)
    assert forgetful_correction(s1, s2).terms == []
    with pytest.raises(AlgebraError):
        forgetful_correction(s1, random_element(CL, ANN, rng, label_pool=(0, 1)))


@lru_cache(maxsize=64)
def _kron_chain(factors, p, gen):
    """id (x) (gen on factors[p]) (x) id as a Kronecker chain of morphisms."""
    mode = classical_mode()
    chain = [
        Morphism(w, w, mode, [classical_action(gen, w)]) if v == p else Morphism.identity(w, mode)
        for v, w in enumerate(factors)
    ]
    return reduce(Morphism.tensor, chain)


def _kron_leg_insertion(factors, first, second, tensor):
    """leg_insertion from Kronecker chains id (x) g (x) id built with Morphism.tensor.

    Shares no code with `insert_legs`, so the reference below does not
    inherit a fault of the primitive under test.
    """
    def spread(positions, gen):
        return reduce(Morphism.__add__, [_kron_chain(tuple(factors), p, gen) for p in positions])

    terms = [(spread(first, a) @ spread(second, b)).scale(c) for c, a, b in tensor]
    return to_fractions(reduce(Morphism.__add__, terms).layers[0])


def _reference_slot_insertion_product(s1, s2, triples):
    """The vertex sum as one D x D insertion matrix `mid` per label tuple, composed with the core.

    The construction `_slot_insertion_product` used before it applied the
    insertions to the core, with `_kron_leg_insertion` for `leg_insertion`.
    """
    backend = s1.backend
    pattern = s1.pattern

    def plain(n, objL, objR):
        return backend.braiding(objL, objR)

    new_argument = tuple(word_tensor(a, b) for a, b in zip(s1.argument, s2.argument))
    nslots = len(pattern.all_slots())
    slot_cache = {}
    out_terms = []
    for new_labels, core, chain in product_term_chains(s1, s2, plain):
        objs1 = slot_objects(pattern, [lab.left for lab in new_labels])
        objs2 = slot_objects(pattern, [lab.right for lab in new_labels])
        factors = tuple(objs1 + objs2)
        if factors not in slot_cache:
            entries = {}
            for i, j, tensor in triples:
                for k, val in _kron_leg_insertion(factors, [i], [nslots + j], tensor).items():
                    entries[k] = entries.get(k, 0) + val
            word = tensor_word(list(factors))
            slot_cache[factors] = Morphism(word, word, backend.mode, [entries])
        mid = slot_cache[factors]
        for sid, context, placed, _info in chain:
            core = backend.apply(context, placed, core)
            if sid is None:
                core = mid @ core
        out_terms.append((new_labels, core))
    out = SkeinElement(backend, pattern, new_argument, out_terms)
    return out.canonical()


def test_fock_rosly_sigma_matches_the_insertion_matrix_reference():
    rng = random.Random(50)
    labels, nonzero = set(), set()
    # the first element of a pair is drawn from `pool`: without adj on the
    # torus, because on an adj x adj product word (3^8) the Kronecker
    # reference takes seconds, and without unit on the annulus, so that
    # sums are nonzero
    for name, pattern, argument, pool in (
        ("disk", DISK, (V, V), (0, 1, 2)),
        ("annulus", ANN, None, (1, 2)),
        ("torus", TOR, None, (0, 1)),
    ):
        for _ in range(3):
            s1 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            s2 = random_element(CL, pattern, rng, label_pool=(0, 1, 2), argument=argument)
            labels.update((name, lab.spin) for s in (s1, s2) for lab in s.terms[0][0])
            for diagonal in (True, False):
                expected = _reference_slot_insertion_product(s1, s2, _end_pairs_tensor(pattern, diagonal))
                got = fock_rosly_sigma(pattern, s1, s2, include_diagonal=diagonal).element
                assert got.terms == expected.terms, (pattern, diagonal)
                if expected.terms:
                    nonzero.add((name, diagonal))
    assert {(n, k) for n in ("annulus", "torus") for k in (0, 1, 2)} <= labels, labels
    # with unit arguments the full annulus sum equals sigma_algebraic, which
    # vanishes there; its part without the diagonal does not
    assert nonzero >= {("disk", True), ("disk", False), ("annulus", False), ("torus", True), ("torus", False)}, nonzero


def test_fock_rosly_sigma_builds_no_matrix_on_the_product_word(monkeypatch):
    """A torus adj x adj vertex sum applies its insertions to the core.

    A first run fills the backend's caches; the second may build no
    identity of dimension 81 (one element's boundary word) or more, where
    an insertion matrix on W_f (x) W_g would need 3^8.
    """
    rng = random.Random(5)
    a = random_element(CL, TOR, rng, label_pool=(2,))
    b = random_element(CL, TOR, rng, label_pool=(2,))
    fock_rosly_sigma(TOR, a, b)
    sizes = []
    int_ident = ribbon_backend._int_ident

    def watched(d):
        sizes.append(d)
        return int_ident(d)

    monkeypatch.setattr(ribbon_backend, "_int_ident", watched)
    assert not fock_rosly_sigma(TOR, a, b).is_zero
    assert max(sizes, default=0) < 81, (len(sizes), max(sizes))


def _golden_input(name):
    path = Path(__file__).parent / "golden" / "inputs" / f"{name}.json"
    return SkeinElement.from_json(json.loads(path.read_text()))


def test_fock_rosly_sigma_rejects_a_pattern_other_than_the_elements():
    torus = _golden_input("torus_a"), _golden_input("torus_b")
    ann = _golden_input("annulus_a"), _golden_input("annulus_b")
    for pattern, (s1, s2) in ((ANN, torus), (DISK, ann), (TOR, ann)):
        with pytest.raises(AlgebraError, match="pattern"):
            fock_rosly_sigma(pattern, s1, s2)
    with pytest.raises(AlgebraError, match="pattern"):
        fock_rosly_sigma(TOR, torus[0], ann[1])
    assert not fock_rosly_sigma(TOR, *torus).is_zero


def test_jacobi_on_trace_triple():
    ta = loop_element(CL, TOR, [[0]])
    tb = loop_element(CL, TOR, [[1]])
    tab = loop_element(CL, TOR, [[0, 1]])

    def br(f, g):
        return fock_rosly_sigma(TOR, f, g).element

    total = None
    for x, y, z in ((ta, tb, tab), (tb, tab, ta), (tab, ta, tb)):
        h = holonomy_evaluate(br(br(x, y), z))[0]
        total = h if total is None else total + h
    assert total.is_zero


def test_goldman_bracket_antisymmetric_on_traces():
    ta = loop_element(CL, TOR, [[0]])
    tb = loop_element(CL, TOR, [[1]])
    ab = sigma_goldman(ta, tb).element
    ba = sigma_goldman(tb, ta).element
    assert holonomy_evaluate(ab)[0] + holonomy_evaluate(ba)[0] == SL2Poly.constant(2, 0)


def test_sigma_mode_errors():
    rng = random.Random(49)
    s = random_element(CL, ANN, rng, label_pool=(0, 1, 2))
    with pytest.raises(ModeError):
        sigma_algebraic(s, s)
    with pytest.raises(ModeError):
        sigma_goldman(lift_element(s, EP), lift_element(s, EP))
    # quantum at order 1 has no first-order term: raise rather than return 0
    q1 = make_backend("quantum", 1)
    a, b = loop_element(CL, TOR, [[0]]), loop_element(CL, TOR, [[1]])
    with pytest.raises(ModeError):
        sigma_algebraic(lift_element(a, q1), lift_element(b, q1))
