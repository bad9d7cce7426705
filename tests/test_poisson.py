import hashlib
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
    RA_TENSOR,
    R_TENSOR,
    TSYM_TENSOR,
    T_TENSOR,
    TensorObj,
    UNIT,
    _crossings,
    classical_action,
    flip_matrix,
    make_backend,
    simple,
    tensor_word,
)
from skeinlab.scalars import classical_mode
from skeinlab.skein_algebra import (
    SkeinElement,
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    mu_op_minus,
    product_argument,
    product_terms,
    random_element,
    slot_objects,
    strand_positions,
    unit_element,
)
from skeinlab.poisson import (
    SigmaResult,
    _end_pairs_tensor,
    _goldman_triples,
    check_fusion,
    fock_rosly_consistency,
    fock_rosly_sigma,
    forgetful_correction,
    sigma_algebraic,
    sigma_goldman,
    symmetrization_check,
    biderivation_check,
)
from skeinlab.surface import (
    Handle,
    HandleEnd,
    SurfacePattern,
    annulus,
    disk_with_two_points,
    disjoint_union,
    fuse,
    genus_two_one_boundary,
    once_punctured_torus,
    two_strand_chaps,
)

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
        t24 = argument_insertion(prod0, T_TENSOR, factors, [(first[1], second[1])]).canonical()
        t13 = argument_insertion(prod0, T_TENSOR, factors, [(first[0], second[0])]).canonical()
        assert sig.equal(t24)
        assert sig.equal(t13)  # the two disk forms agree


def test_products_are_pinned():
    """mu, mu^op-, both diagrammatic sigmas and the quantum-lifted mu, pinned by a digest of their JSON.

    Each element is a sum of two random elements, so products run over
    several term pairs; the disk pairs carry different arguments on the two
    sides.  Genus two is pinned through mu and mu^op- only.
    """
    adj = simple(2)
    q2 = make_backend("quantum", 2)
    cases = (
        (DISK, ((V, V), (V, V)), (1, 2), True),
        (DISK, ((adj, adj), (V, V)), (0, 1, 2), False),
        (two_strand_chaps(), (None, None), (1, 2), True),
        (ANN, (None, None), (1, 2), True),
        (TOR, (None, None), (0, 1, 2), True),
        (genus_two_one_boundary(), (None, None), (0, 1), None),
    )
    outputs = []
    for pattern, arguments, pool, lift in cases:
        rng = random.Random(7)
        for _ in range(3):
            s1, s2 = (
                random_element(CL, pattern, rng, label_pool=pool, argument=argument)
                + random_element(CL, pattern, rng, label_pool=pool, argument=argument)
                for argument in arguments
            )
            outputs += [mu(s1, s2).to_json(), mu_op_minus(s1, s2).to_json()]
            if lift is None:
                continue
            outputs += [
                sigma_goldman(s1, s2).element.to_json(),
                fock_rosly_sigma(s1, s2).element.to_json(),
                fock_rosly_sigma(s1, s2, include_diagonal=False).element.to_json(),
            ]
            if lift:
                outputs.append(mu(lift_element(s1, q2), lift_element(s2, q2)).to_json())
    assert len(outputs) == 18 * 2 + 15 * 3 + 12
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == "4437d341d69b594fc76c7746a9779295ac4b0470a2d42d995b35c0430a7f8690"


def test_lifted_products_and_genus_two_sigmas_are_pinned():
    """mu and mu^op- on lifted pairs, and the classical sigmas on genus two, pinned by a digest of their JSON.

    Each classical pair is lifted to epsilon, quantum(3) and Drinfeld(3);
    the genus-two {V} pair to epsilon and quantum(3) only.  The genus-two
    pair also carries sigma_goldman and both vertex sums, which
    `test_products_are_pinned` skips there.
    """
    q3, d3 = make_backend("quantum", 3), make_backend("drinfeld", 3)
    g2 = genus_two_one_boundary()
    cases = (
        (DISK, (V, V), (0, 1, 2), 2, (EP, q3, d3)),
        (ANN, None, (0, 1, 2), 2, (EP, q3, d3)),
        (TOR, None, (0, 1), 2, (EP, q3, d3)),
        (two_strand_chaps(), (V, V), (0, 1), 2, (EP, q3, d3)),
        (g2, None, (1,), 1, (EP, q3)),
    )
    outputs = []
    for pattern, argument, pool, n_pairs, backends in cases:
        rng = random.Random(8)
        for _ in range(n_pairs):
            s1 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            s2 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            for bk in backends:
                a, b = lift_element(s1, bk), lift_element(s2, bk)
                outputs += [mu(a, b).to_json(), mu_op_minus(a, b).to_json()]
            if pattern is g2:
                outputs += [
                    sigma_goldman(s1, s2).element.to_json(),
                    fock_rosly_sigma(s1, s2).element.to_json(),
                    fock_rosly_sigma(s1, s2, include_diagonal=False).element.to_json(),
                ]
    assert len(outputs) == 4 * 2 * 3 * 2 + 2 * 2 + 3
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == "0de5364867183004f1d68bd51a161f0379fc0c2fbff5a05663a8deff32f71a46"


def test_products_with_composite_arguments_are_pinned():
    """mu and mu^op- on Drinfeld(3) and quantum(5) lifts of pairs whose arguments are composite words, pinned.

    The arguments are not left-nested, so the argument crossings move
    blocks of several strands and the Drinfeld coherence of each crossing
    rebrackets inside them.  The disk pairs are sums of two random
    elements; the chaps pair is one term on each side.
    """
    adj, vvd = simple(2), TensorObj(V, DualObj(V))
    d3, q5 = make_backend("drinfeld", 3), make_backend("quantum", 5)
    cases = (
        (DISK, (vvd, adj), (vvd, adj), 2),
        (DISK, (TensorObj(V, TensorObj(V, V)), TensorObj(adj, V)), (vvd, adj), 2),
        (DISK, (TensorObj(TensorObj(DualObj(V), adj), V), UNIT), (V, TensorObj(V, TensorObj(DualObj(V), V))), 2),
        (two_strand_chaps(), (TensorObj(V, TensorObj(V, V)), V), (vvd, TensorObj(DualObj(V), V)), 1),
    )
    outputs = []
    for pattern, a1, a2, summands in cases:
        rng = random.Random(9)
        pool = (0, 1, 2) if summands > 1 else (0, 1)
        for _ in range(summands):
            s1, s2 = (
                reduce(
                    SkeinElement.__add__,
                    [random_element(CL, pattern, rng, label_pool=pool, argument=a) for _ in range(summands)],
                )
                for a in (a1, a2)
            )
            for bk in (d3, q5):
                a, b = lift_element(s1, bk), lift_element(s2, bk)
                outputs += [mu(a, b).to_json(), mu_op_minus(a, b).to_json()]
    assert len(outputs) == 3 * 2 * 2 * 2 + 2 * 2
    assert all(out["terms"] for out in outputs)
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == "c9bbab37c714f089d3e1247414710e052b20bc1f7877972aeda268078607b60e"


# Hand-built patterns with a handle whose --end comes before its +-end in slot order:
# one vertex with one handle, a torus with its second handle reversed, and a
# disk whose --end sits at vertex 0.
REVERSED_PATTERNS = tuple(
    SurfacePattern.from_json(data)
    for data in (
        {"vertices": 1, "handles": [{"ends": [{"v": 0, "slot": 1, "orient": "+"}, {"v": 0, "slot": 0, "orient": "-"}]}]},
        {
            "vertices": 1,
            "handles": [
                {"ends": [{"v": 0, "slot": 0, "orient": "+"}, {"v": 0, "slot": 2, "orient": "-"}]},
                {"ends": [{"v": 0, "slot": 3, "orient": "+"}, {"v": 0, "slot": 1, "orient": "-"}]},
            ],
        },
        {"vertices": 2, "handles": [{"ends": [{"v": 1, "slot": 0, "orient": "+"}, {"v": 0, "slot": 0, "orient": "-"}]}]},
    )
)


def _sigma_pin_pairs():
    """(backend, s1, s2) lifted pairs pinned by `test_sigma_algebraic_and_reversed_handles_are_pinned`.

    Each element is a sum of two random classical elements, so label tuples
    repeat across term pairs; every pair is lifted to epsilon, quantum(3),
    Drinfeld(2) and Drinfeld(3), and the genus-two {V} pair to epsilon only.
    """
    deformed = (EP, make_backend("quantum", 3), make_backend("drinfeld", 2), make_backend("drinfeld", 3))
    cases = (
        (DISK, (V, V), (0, 1, 2), deformed),
        (ANN, None, (0, 1, 2), deformed),
        (TOR, None, (0, 1), deformed),
        (two_strand_chaps(), (V, V), (0, 1), deformed),
        (genus_two_one_boundary(), None, (1,), (EP,)),
    )
    rng = random.Random(23)
    for pattern, argument, pool, backends in cases:
        s1, s2 = (
            random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            + random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            for _ in range(2)
        )
        for bk in backends:
            yield bk, lift_element(s1, bk), lift_element(s2, bk)


def test_sigma_algebraic_and_reversed_handles_are_pinned():
    """sigma_algebraic on lifted sums, and products on patterns with a reversed handle, pinned by a digest.

    The reversed patterns carry composite labels through `canonical()` with
    the --end of a handle before its +-end; their products run on all four
    backends, each element a sum of two random ones.
    """
    outputs = [(a.pattern, sigma_algebraic(a, b).element.to_json()) for _, a, b in _sigma_pin_pairs()]
    assert [pattern for pattern, out in outputs if not out["terms"]] == [ANN] * 4  # the annulus bracket vanishes
    outputs = [out for _, out in outputs]
    rng = random.Random(25)
    for pattern in REVERSED_PATTERNS:
        argument = (V, V) if pattern.n_vertices == 2 else None
        s1, s2 = (
            random_element(CL, pattern, rng, label_pool=(1, 2), argument=argument)
            + random_element(CL, pattern, rng, label_pool=(1, 2), argument=argument)
            for _ in range(2)
        )
        for bk in (CL, EP, make_backend("quantum", 3), make_backend("drinfeld", 3)):
            a, b = (s1, s2) if bk is CL else (lift_element(s1, bk), lift_element(s2, bk))
            outputs += [mu(a, b).to_json(), mu_op_minus(a, b).to_json()]
    assert len(outputs) == 4 * 4 + 1 + 3 * 4 * 2
    assert all(out["terms"] for out in outputs[17:])
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert digest == "946e1767d3e88d92d59cee375c9144a271e588b8522896e2c1f7dbf203e07547"


def _reference_sigma_algebraic(s1, s2):
    """[mu - mu^op-]_1 from the two canonical products, each reduced on its own."""
    diff = (mu(s1, s2) - mu_op_minus(s1, s2)).canonical()
    assert all(core.part0().is_zero for _, core in diff.terms)
    return diff.part1().canonical()


def test_sigma_algebraic_matches_the_difference_of_canonical_products():
    """Subtracting the term lists before `canonical()` gives the difference of the two canonical products."""
    for bk, a, b in _sigma_pin_pairs():
        assert sigma_algebraic(a, b).element.terms == _reference_sigma_algebraic(a, b).terms, (bk, a.pattern)


def _reference_product_terms(s1, s2, positive=True):
    """`product_terms(s1, s2, positive).terms` by the per-crossing walk: one `apply` of each braiding as it happens."""
    backend, pattern = s1.backend, s1.pattern

    def walk(blocks, over, core):
        for context, i, (left, right) in _crossings(blocks):
            b = backend.braiding(left, right) if over else backend.braiding_inv(right, left)
            core = backend.apply(context, [(i, 2, b)], core)
        return core

    arg_blocks = [((side, v), a) for v, pair in enumerate(zip(s1.argument, s2.argument)) for side, a in enumerate(pair)]
    start = Morphism.identity(tensor_word([leaf for _, a in arg_blocks for leaf in a.leaves()]), backend.mode)
    start = walk(arg_blocks, not positive, start)
    places = strand_positions(pattern)
    terms = []
    for labels1, f in s1.terms:
        for labels2, g in s2.terms:
            blocks = [(places[i][0], o) for i, o in enumerate(slot_objects(pattern, labels1))]
            blocks += [(places[i][1], o) for i, o in enumerate(slot_objects(pattern, labels2))]
            core = backend.apply([f.source, g.source], [(0, 1, f), (1, 1, g)], start)
            labels = tuple(TensorObj(l1, l2) for l1, l2 in zip(labels1, labels2))
            terms.append((labels, walk(blocks, positive, core)))
    return terms


def test_product_terms_match_the_per_crossing_walk():
    """The walk at fixed strand positions gives exactly the per-crossing walk's terms.

    On all four backends, Drinfeld at orders 2 and 3, both crossing
    signs; the disk pairs have composite arguments.  Genus two {V} runs on
    classical and epsilon only.
    """
    adj = simple(2)
    deformed = (EP, make_backend("quantum", 3), make_backend("drinfeld", 2), make_backend("drinfeld", 3))
    cases = (
        (DISK, (V, V), (V, V), (0, 1, 2), deformed),
        (DISK, (TensorObj(V, DualObj(V)), adj), (TensorObj(V, TensorObj(V, V)), TensorObj(adj, V)), (0, 1, 2), deformed),
        (TOR, None, None, (0, 1), deformed),
        (two_strand_chaps(), (V, V), (V, V), (0, 1), deformed),
        (genus_two_one_boundary(), None, None, (1,), (EP,)),
    )
    rng = random.Random(62)
    for pattern, a1, a2, pool, backends in cases:
        s1 = random_element(CL, pattern, rng, label_pool=pool, argument=a1)
        s2 = random_element(CL, pattern, rng, label_pool=pool, argument=a2)
        for bk in (CL, *backends):
            a, b = (s1, s2) if bk is CL else (lift_element(s1, bk), lift_element(s2, bk))
            for positive in (True, False):
                assert product_terms(a, b, positive).terms == _reference_product_terms(a, b, positive), (bk, positive)


def test_goldman_sites_counts():
    """Goldman inserts t once per pair of strands that cross at one vertex.

    Those are the same-vertex end pairs whose blocks swap when `_crossings`
    sorts the product's strands by their `strand_positions`: at a vertex
    with n ends, m of them --ends, n(n - 1)/2 + m pairs.
    """
    for pattern, count in (
        (DISK, 1),
        (ANN, 2),
        (TOR, 8),
        (two_strand_chaps(), 4),
        (genus_two_one_boundary(), 32),
    ):
        slots = pattern.slots
        places = strand_positions(pattern)
        blocks = [(p1, (1, i)) for i, (p1, _) in enumerate(places)]
        blocks += [(p2, (2, j)) for j, (_, p2) in enumerate(places)]
        swaps = [pair for _, _, pair in _crossings(blocks)]
        assert all(left[0] == 1 and right[0] == 2 for left, right in swaps)
        same_vertex = [(i, j) for (_, i), (_, j) in swaps if slots[i][1].vertex == slots[j][1].vertex]
        triples = _goldman_triples(pattern)
        assert all(tensor is T_TENSOR for _, _, tensor in triples)
        pairs = [(i, j) for i, j, _ in triples]
        assert sorted(pairs) == sorted(same_vertex) and len(set(pairs)) == len(pairs), pattern
        ends = [[e for _, e in pattern.slots_at(v)] for v in range(pattern.n_vertices)]
        assert len(pairs) == sum(len(e) * (len(e) - 1) // 2 + sum(x.sign < 0 for x in e) for e in ends) == count


def _reference_walk(s1, s2):
    """mu's classical walk per term pair, rebuilt beside `product_terms` from `_crossings`.

    Yields (labels, start, steps); applying the steps (context, placed,
    site) in turn to `start`, the identity of the interleaved argument
    word, gives the product term's core.  The argument flips come first,
    then the tensor of the two cores (site None), then the boundary flips,
    each strand tagged (slot, rank) with the first factor's strand first at
    +-ends.  `site` is True on a flip of two strands at one vertex.
    """
    backend, pattern = s1.backend, s1.pattern
    slots = pattern.slots
    rank = [(0, 1) if end.sign > 0 else (1, 0) for _, end in slots]

    def flips(blocks, same_vertex):
        steps = []
        for context, i, ((tag_l, left), (tag_r, right)) in _crossings([(tag, (tag, o)) for tag, o in blocks]):
            flip = flip_matrix(left, right, backend.mode)
            steps.append(([o for _, o in context], [(i, 2, flip)], same_vertex(tag_l, tag_r)))
        return steps

    arg_blocks = [((side, v), a) for v, pair in enumerate(zip(s1.argument, s2.argument)) for side, a in enumerate(pair)]
    start = Morphism.identity(tensor_word([leaf for _, a in arg_blocks for leaf in a.leaves()]), backend.mode)
    arg_steps = flips(arg_blocks, lambda tag_l, tag_r: False)
    for labels1, f in s1.terms:
        for labels2, g in s2.terms:
            blocks = [((i, rank[i][0]), o) for i, o in enumerate(slot_objects(pattern, labels1))]
            blocks += [((i, rank[i][1]), o) for i, o in enumerate(slot_objects(pattern, labels2))]
            steps = arg_steps + [([f.source, g.source], [(0, 1, f), (1, 1, g)], None)]
            steps += flips(blocks, lambda tag_l, tag_r: slots[tag_l[0]][1].vertex == slots[tag_r[0]][1].vertex)
            yield tuple(TensorObj(l1, l2) for l1, l2 in zip(labels1, labels2)), start, steps


def _reference_goldman(s1, s2):
    """Goldman's rule as a two-core walk: flip o t at each same-vertex crossing as it happens.

    One pass carries the plain core and the sum of the insertions made so
    far, as `sigma_goldman` did before it inserted t on the finished terms.
    """
    backend = s1.backend
    terms = []
    for labels, plain, steps in _reference_walk(s1, s2):
        total = None
        for context, placed, site in steps:
            if site:
                i = placed[0][0]
                t = backend.apply(context, [(i, 2, backend.inf_braiding(context[i], context[i + 1]))], plain)
                total = t if total is None else total + t
            if total is not None:
                total = backend.apply(context, placed, total)
            plain = backend.apply(context, placed, plain)
        if total is not None:
            terms.append((labels, total))
    return SkeinElement(backend, s1.pattern, product_argument(s1, s2), terms).canonical()


def test_sigma_goldman_matches_the_two_core_walk():
    rng = random.Random(52)
    nonzero = set()
    for name, pattern, argument, pool, n_pairs in (
        ("disk", DISK, (V, V), (0, 1, 2), 3),
        ("annulus", ANN, (simple(2),), (1, 2), 3),
        ("torus", TOR, None, (0, 1), 3),
        ("chaps", two_strand_chaps(), (V, V), (0, 1), 3),
        ("genus two", genus_two_one_boundary(), None, (1,), 1),
    ):
        for _ in range(n_pairs):
            s1 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            s2 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            expected = _reference_goldman(s1, s2)
            assert sigma_goldman(s1, s2).element.terms == expected.terms, name
            if expected.terms:
                nonzero.add(name)
    assert nonzero == {"disk", "annulus", "torus", "chaps", "genus two"}, nonzero


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


def test_sigma_drinfeld_matches_epsilon():
    """sigma_algebraic reads only the first-order layer, where the Drinfeld
    braiding is the epsilon one: both Drinfeld rings agree with epsilon."""
    rng = random.Random(51)
    d2, d3 = make_backend("drinfeld", 2), make_backend("drinfeld", 3)
    nonzero = 0
    for pat, pool, argument in ((ANN, (0, 1, 2), None), (TOR, (0, 1), None), (DISK, (0, 1, 2), (V, V))):
        kwargs = {} if argument is None else {"argument": argument}
        for _ in range(3):
            s1 = random_element(CL, pat, rng, label_pool=pool, **kwargs)
            s2 = random_element(CL, pat, rng, label_pool=pool, **kwargs)
            se = sigma_algebraic(lift_element(s1, EP), lift_element(s2, EP))
            nonzero += not se.is_zero
            for dr in (d2, d3):
                assert se.equal(sigma_algebraic(lift_element(s1, dr), lift_element(s2, dr))), (pat, dr.mode)
    assert nonzero


def test_symmetrization():
    rng = random.Random(43)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(3):
            s1 = random_element(EP, pat, rng, label_pool=pool)
            s2 = random_element(EP, pat, rng, label_pool=pool)
            assert symmetrization_check(s1, s2)


def test_symmetrization_acts_per_vertex_on_two_vertex_arguments():
    """On two-vertex patterns with V and adj arguments t-hat acts inside each vertex:
    the identity holds on every deformed backend, with a nonzero right-hand side."""
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors

    rng = random.Random(5)
    for name, order in (("epsilon", 2), ("quantum", 3), ("drinfeld", 3)):
        bk = make_backend(name, order)
        for pat in (DISK, two_strand_chaps()):
            for arg in (V, simple(2)):
                s1 = random_element(bk, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                s2 = random_element(bk, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                factors, first, second = interleaved_argument_factors(s1, s2)
                rhs = argument_insertion(mu(s1.part0(), s2.part0()), T_TENSOR, factors, zip(first, second))
                assert not rhs.canonical().is_zero, (name, pat, arg)
                assert symmetrization_check(s1, s2), (name, pat, arg)


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
        ok, defect = check_fusion(s1, s2, 0, 1)
        assert ok, holonomy_evaluate(defect) if defect.backend.name == "classical" else defect
    chaps = two_strand_chaps()
    for i in range(2):
        s1 = random_element(EP, chaps, rng, label_pool=(0, 1))
        s2 = random_element(EP, chaps, rng, label_pool=(0, 1))
        ok, defect = check_fusion(s1, s2, 0, 1)
        assert ok


def test_fusion_theorem_with_vertex_1_first():
    """fuse(p, 1, 0) and fuse(p, 0, 1, "v2v1") put vertex 1's slots first;
    the check relabels the vertices instead of failing on the slot order."""
    rng = random.Random(48)
    chaps = two_strand_chaps()
    for pattern, pool, argument in ((DISK, (0, 1, 2), (V, V)), (DISK, (0, 1, 2), (UNIT, UNIT)), (chaps, (0, 1), None)):
        kwargs = {} if argument is None else {"argument": argument}
        s1 = random_element(EP, pattern, rng, label_pool=pool, **kwargs)
        s2 = random_element(EP, pattern, rng, label_pool=pool, **kwargs)
        for v1, v2, order in ((1, 0, "v1v2"), (0, 1, "v2v1")):
            ok, defect = check_fusion(s1, s2, v1, v2, order)
            assert ok and defect.pattern == fuse(pattern, v1, v2, order), (pattern, v1, v2, order)


def test_excision_at_every_order_on_the_disk_and_the_chaps():
    """Fusing the two marked points commutes with the product, up to one braiding on the arguments.

    For s1, s2 on a two-vertex pattern with arguments (X1, X2) and (Y1, Y2)
    and T the transplant onto the fused pattern, mu(T s1, T s2) equals
    T(mu(s1, s2)) precomposed with c = braiding(X2, Y1) on X1 X2 Y1 Y2.
    Fusion concatenates the slot orders, so stage B (positive crossings)
    moves the same strands the same way in both products.  Stage A differs:
    the unfused product reorders X1 Y1 X2 Y2 to X1 X2 Y1 Y2 with one negative
    crossing, braiding_inv(X2, Y1), which the fused product (one argument
    block per factor) does not make; c is its inverse.  With
    braiding_inv(Y1, X2) in place of c the identity fails on every deformed ring.
    """
    rng = random.Random(7)
    rings = [("classical", 1), ("epsilon", 2), ("quantum", 3), ("quantum", 5), ("drinfeld", 2), ("drinfeld", 3)]
    for name, order in rings:
        bk = make_backend(name, order)
        for pat in (DISK, two_strand_chaps()):
            for arg in (V, simple(2)):
                s1 = random_element(bk, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                s2 = random_element(bk, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                _assert_excision(s1, s2, (name, order, pat, arg))


def test_excision_at_every_order_on_torus_and_torus():
    """The excision identity above on two tori fused to `genus_two_one_boundary()`.

    adj arguments, labels from {unit, V}, seeds 1 and 2, on classical and
    quantum(3); with braiding_inv(Y1, X2) in place of c it fails on
    quantum(3).  Drinfeld(3) holds too but takes about 7 s per case, so it is
    left out here.
    """
    pat, adj = disjoint_union(TOR, TOR), simple(2)
    assert fuse(pat, 0, 1) == genus_two_one_boundary()
    for name, order in (("classical", 1), ("quantum", 3)):
        bk = make_backend(name, order)
        for seed in (1, 2):
            rng = random.Random(seed)
            s1, s2 = (random_element(bk, pat, rng, label_pool=(0, 1), argument=(adj, adj)) for _ in range(2))
            _assert_excision(s1, s2, (name, order, seed))


def _assert_excision(s1, s2, case):
    """mu(T s1, T s2) == T(mu(s1, s2)) o c(X2, Y1), nonzero, and != with braiding_inv(Y1, X2) iff deformed."""
    from skeinlab.poisson import _transplant

    bk, fused = s1.backend, fuse(s1.pattern, 0, 1)
    (x1, x2), (y1, y2) = s1.argument, s2.argument
    context = [x1, x2, y1, y2]
    lhs = mu(_transplant(s1, fused), _transplant(s2, fused))
    product = _transplant(mu(s1, s2), fused)
    rhs = product.precompose(bk.flat_apply(context, [(1, 2, bk.braiding(x2, y1))]), lhs.argument)
    wrong = product.precompose(bk.flat_apply(context, [(1, 2, bk.braiding_inv(y1, x2))]), lhs.argument)
    assert not lhs.is_zero, case
    assert lhs.equal(rhs), case
    assert lhs.equal(wrong) is not bk.is_deformed, case


def test_fusion_check_rejects_a_pattern_other_than_the_elements():
    """A disk element beside one on the chaps, or on a disk whose handle
    runs -/+, is refused by the product walk before either is fused; one
    beside an annulus element, before its vertices are exchanged."""
    rng = random.Random(50)
    s1 = random_element(EP, DISK, rng, label_pool=(0, 1, 2))
    reversed_disk = SurfacePattern(2, (Handle((HandleEnd(0, 0, -1), HandleEnd(1, 0, 1))),))
    for pattern in (two_strand_chaps(), reversed_disk, ANN):
        s2 = random_element(EP, pattern, rng, label_pool=(0, 1))
        for v1, v2, order in ((0, 1, "v1v2"), (1, 0, "v1v2")):
            with pytest.raises(AlgebraError, match="pattern"):
                check_fusion(s1, s2, v1, v2, order)
            with pytest.raises(AlgebraError, match="pattern"):
                check_fusion(s2, s1, v1, v2, order)


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
    fr = fock_rosly_sigma(s1, s2)
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import RA_TENSOR

    prod0 = mu(s1, s2)
    factors, first, second = interleaved_argument_factors(s1, s2)
    expected = argument_insertion(prod0, RA_TENSOR, factors, [(first[0], second[0])])
    expected = (
        expected + argument_insertion(prod0, RA_TENSOR, factors, [(first[1], second[1])])
    ).canonical()
    assert fr.element.equal(expected)


def test_fock_rosly_consistency_random():
    rng = random.Random(48)
    for pat, pool in ((ANN, (0, 1, 2)), (TOR, (0, 1))):
        for _ in range(2):
            s1 = random_element(CL, pat, rng, label_pool=pool)
            s2 = random_element(CL, pat, rng, label_pool=pool)
            assert fock_rosly_consistency(s1, s2)


def test_fock_rosly_consistency_on_two_vertex_arguments():
    """On the disk and the chaps with V and adj arguments, -t + r_a acts inside each vertex:
    the vertex sum equals sigma plus the correction, and both are nonzero."""
    rng = random.Random(5)
    for pat in (DISK, two_strand_chaps()):
        for arg in (V, simple(2)):
            for _ in range(2):
                s1 = random_element(CL, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                s2 = random_element(CL, pat, rng, label_pool=(0, 1, 2), argument=(arg, arg))
                assert not forgetful_correction(s1, s2).is_zero, (pat, arg)
                assert not fock_rosly_sigma(s1, s2).element.is_zero, (pat, arg)
                assert fock_rosly_consistency(s1, s2), (pat, arg)


def _full_forgetful_correction(s1, s2):
    """(-t + r_a) on each vertex's two argument sides of the classical product, always computed."""
    from skeinlab.poisson import argument_insertion, interleaved_argument_factors
    from skeinlab.ribbon_backend import RA_TENSOR, TSYM_TENSOR

    factors, first, second = interleaved_argument_factors(s1, s2)
    minus_t = [(-c, g1, g2) for c, g1, g2 in TSYM_TENSOR]
    return argument_insertion(mu(s1, s2), minus_t + list(RA_TENSOR), factors, zip(first, second)).canonical()


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
    den, entries = reduce(Morphism.__add__, terms).layers[0]
    return {k: F(v, den) for k, v in entries.items()}


def _reference_slot_insertion_product(s1, s2, triples):
    """The vertex sum as one D x D insertion matrix `mid` per label tuple, composed with the core.

    `mid` acts right after the tensor step of `_reference_walk`, on the
    word W_f (x) W_g, before any strand moves; it is built with
    `_kron_leg_insertion` for `leg_insertion`.
    """
    backend = s1.backend
    pattern = s1.pattern
    nslots = len(pattern.slots)
    slot_cache = {}
    out_terms = []
    for new_labels, core, steps in _reference_walk(s1, s2):
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
        for context, placed, site in steps:
            core = backend.apply(context, placed, core)
            if site is None:
                core = mid @ core
        out_terms.append((new_labels, core))
    out = SkeinElement(backend, pattern, product_argument(s1, s2), out_terms)
    return out.canonical()


def _three_family_end_pairs(pattern, include_diagonal):
    """The vertex sum as three overlapping families of end pairs.

    Per vertex: t/2 at equal ends, t at cilium-ordered pairs (later end on
    the first factor), and -t/2 + r_a over all ordered end pairs, the
    diagonal only when it is included.  Summed per pair this is r, -r21 and
    r_a (t/2 without the diagonal), the form `fock_rosly_sigma` inserts.
    """
    minus_tsym_plus_ra = tuple((-c, a, b) for c, a, b in TSYM_TENSOR) + RA_TENSOR
    triples = []
    slots = pattern.slots
    for v in range(pattern.n_vertices):
        ends = [i for i, (_, e) in enumerate(slots) if e.vertex == v]
        triples += [(i, i, TSYM_TENSOR) for i in ends]
        triples += [(j, i, T_TENSOR) for a, i in enumerate(ends) for j in ends[a + 1 :]]
        triples += [(i, j, minus_tsym_plus_ra) for i in ends for j in ends if include_diagonal or i != j]
    return triples


def test_fock_rosly_sigma_matches_the_insertion_matrix_reference():
    rng = random.Random(50)
    labels, nonzero = set(), set()
    # the first element of a pair is drawn from `pool`: without adj on the
    # torus, because on an adj x adj product word (3^8) the Kronecker
    # reference takes seconds, and without unit on the annulus, so that
    # sums are nonzero; the chaps take V arguments, as its full sums vanish
    # on unit ones
    for name, pattern, argument, pool in (
        ("disk", DISK, (V, V), (0, 1, 2)),
        ("annulus", ANN, None, (1, 2)),
        ("torus", TOR, None, (0, 1)),
        ("chaps", two_strand_chaps(), (V, V), (0, 1)),
    ):
        for _ in range(3):
            s1 = random_element(CL, pattern, rng, label_pool=pool, argument=argument)
            s2 = random_element(CL, pattern, rng, label_pool=(0, 1, 2), argument=argument)
            labels.update((name, lab.spin) for s in (s1, s2) for lab in s.terms[0][0])
            for diagonal in (True, False):
                expected = _reference_slot_insertion_product(s1, s2, _three_family_end_pairs(pattern, diagonal))
                got = fock_rosly_sigma(s1, s2, include_diagonal=diagonal).element
                assert got.terms == expected.terms, (pattern, diagonal)
                if expected.terms:
                    nonzero.add((name, diagonal))
    assert {(n, k) for n in ("annulus", "torus") for k in (0, 1, 2)} <= labels, labels
    # with unit arguments the full annulus sum equals sigma_algebraic, which
    # vanishes there; its part without the diagonal does not
    assert nonzero >= {(n, k) for n in ("disk", "torus", "chaps") for k in (True, False)} | {("annulus", False)}, nonzero


def test_vertex_sum_inserts_once_per_ordered_end_pair():
    """n^2 triples at a vertex with n ends, one per ordered pair: r when the
    first factor's end comes later, -r21 when it comes earlier, r_a on the
    diagonal, and t/2 there when the diagonal is excluded."""
    for pattern in (DISK, ANN, TOR, two_strand_chaps(), genus_two_one_boundary()):
        slots = pattern.slots
        for diagonal in (True, False):
            triples = _end_pairs_tensor(pattern, diagonal)
            pairs = [(i, j) for i, j, _ in triples]
            per_vertex = [len(pattern.slots_at(v)) ** 2 for v in range(pattern.n_vertices)]
            assert len(pairs) == len(set(pairs)) == sum(per_vertex), (pattern, diagonal)
            for i, j, tensor in triples:
                assert slots[i][1].vertex == slots[j][1].vertex
                expected = RA_TENSOR if diagonal else TSYM_TENSOR
                if i != j:
                    expected = R_TENSOR if i > j else tuple((-c, a, b) for c, a, b in TSYM_TENSOR) + RA_TENSOR
                assert tensor == expected, (pattern, i, j)


def test_fock_rosly_sigma_builds_no_matrix_on_the_product_word(monkeypatch):
    """A torus adj x adj vertex sum applies its insertions to the core.

    A first run fills the backend's caches; the second may build no
    identity of dimension 81 (one element's boundary word) or more, where
    an insertion matrix on W_f (x) W_g would need 3^8.
    """
    rng = random.Random(5)
    a = random_element(CL, TOR, rng, label_pool=(2,))
    b = random_element(CL, TOR, rng, label_pool=(2,))
    fock_rosly_sigma(a, b)
    sizes = []
    int_ident = ribbon_backend._int_ident

    def watched(d):
        sizes.append(d)
        return int_ident(d)

    monkeypatch.setattr(ribbon_backend, "_int_ident", watched)
    assert not fock_rosly_sigma(a, b).is_zero
    assert max(sizes, default=0) < 81, (len(sizes), max(sizes))


def _golden_input(name):
    path = Path(__file__).parent / "golden" / "inputs" / f"{name}.json"
    return SkeinElement.from_json(json.loads(path.read_text()))


def test_fock_rosly_sigma_rejects_a_pattern_other_than_the_elements():
    torus = _golden_input("torus_a"), _golden_input("torus_b")
    ann = _golden_input("annulus_a"), _golden_input("annulus_b")
    for s1, s2 in ((torus[0], ann[1]), (ann[0], torus[1])):
        with pytest.raises(AlgebraError, match="pattern"):
            fock_rosly_sigma(s1, s2)
    assert not fock_rosly_sigma(*torus).is_zero


def test_jacobi_on_trace_triple():
    ta = loop_element(CL, TOR, [[0]])
    tb = loop_element(CL, TOR, [[1]])
    tab = loop_element(CL, TOR, [[0, 1]])

    def br(f, g):
        return fock_rosly_sigma(f, g).element

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
