import random
from fractions import Fraction as F

import pytest

from skeinlab import ribbon_backend, skein_algebra
from skeinlab.errors import AlgebraError, ModeError
from skeinlab.polynomials import SL2Poly
from skeinlab.ribbon_backend import BackendSpec, DualObj, Morphism, TensorObj, UNIT, make_backend, simple, tensor_word
from skeinlab.skein_algebra import (
    SkeinElement,
    action,
    element_hom_basis,
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    mu_op_minus,
    product_terms,
    random_element,
    slot_objects,
    unit_element,
)
from skeinlab.surface import (
    SurfacePattern,
    annulus,
    disk_with_two_points,
    genus_two_one_boundary,
    once_punctured_torus,
    two_strand_chaps,
)

CL = make_backend("classical")
EP = make_backend("epsilon")
Q3 = make_backend("quantum", 3)
DR = make_backend("drinfeld", 3)
V = simple(1)
ANN = annulus()
TOR = once_punctured_torus()
DISK = disk_with_two_points()


def poly(s):
    return str(holonomy_evaluate(s)[0])


def test_trace_generators_holonomy():
    tr = loop_element(CL, ANN, [[0]])
    assert poly(tr) == "d + a"
    tr_adj = loop_element(CL, ANN, [[0]], spin=2)
    a = SL2Poly.variable(1, 0, "a")
    d = SL2Poly.variable(1, 0, "d")
    assert holonomy_evaluate(tr_adj)[0] == (a + d) * (a + d) - 1
    assert poly(unit_element(CL, ANN)) == "1*1"


def test_torus_generators():
    ta = loop_element(CL, TOR, [[0]])
    tab = loop_element(CL, TOR, [[0, 1]])
    assert poly(ta) == "d0 + a0"
    assert poly(tab) == "d0*d1 + c0*b1 + b0*c1 + a0*a1"


def test_loop_elements_are_pinned():
    """Classical loop elements of spins 0, 1 and 2 on five patterns, byte for byte."""
    import hashlib
    import json

    cases = [
        (ANN, [[[0]]]),
        (TOR, [[[0]], [[1]], [[0, 1]], [[1, 0]], [[0], [1]]]),
        (genus_two_one_boundary(), [[[0, 1, 2, 3]], [[0, 2], [1, 3]], [[3]], [[1, 0]]]),
        (DISK, [[[0]]]),
        (two_strand_chaps(), [[[0, 1]], [[0], [1]]]),
    ]
    outputs = [
        loop_element(CL, pattern, loops, spin=spin).to_json()
        for pattern, loop_lists in cases
        for loops in loop_lists
        for spin in (0, 1, 2)
    ]
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    assert len(outputs) == 39
    assert digest == "2b4a4687c64a661bcb91c333454b1d207a708551aea7b61a97b6a21fc2d22f74"


def test_mu_matches_function_product():
    tr = loop_element(CL, ANN, [[0]])
    sq = mu(tr, tr)
    a = SL2Poly.variable(1, 0, "a")
    d = SL2Poly.variable(1, 0, "d")
    assert holonomy_evaluate(sq)[0] == (a + d) * (a + d)
    # two presentations of tr^2: squared generator vs CG pieces, equal via reduction
    # V (x) V = adj (+) trivial, so tr^2 = tr_adj + 1
    tr_adj = loop_element(CL, ANN, [[0]], spin=2)
    u = unit_element(CL, ANN)
    assert sq.equal(tr_adj + u)


def test_unit_laws_all_backends():
    rng = random.Random(2)
    for bk in (CL, EP, Q3, DR):
        for pat in (ANN, TOR):
            u = unit_element(bk, pat)
            s = random_element(CL, pat, rng, label_pool=(0, 1, 2))
            s = lift_element(s, bk) if bk.name != "classical" else s
            assert mu(u, s).equal(s), bk.name
            assert mu(s, u).equal(s), bk.name


def test_holonomy_multiplicative():
    rng = random.Random(3)
    for _ in range(8):
        s1 = random_element(CL, ANN, rng, label_pool=(0, 1, 2))
        s2 = random_element(CL, ANN, rng, label_pool=(0, 1, 2))
        h1, h2 = holonomy_evaluate(s1)[0], holonomy_evaluate(s2)[0]
        assert holonomy_evaluate(mu(s1, s2))[0] == h1 * h2
    for _ in range(4):
        s1 = random_element(CL, TOR, rng, label_pool=(0, 1))
        s2 = random_element(CL, TOR, rng, label_pool=(0, 1))
        assert holonomy_evaluate(mu(s1, s2))[0] == holonomy_evaluate(s1)[0] * holonomy_evaluate(s2)[0]


def test_associativity():
    rng = random.Random(4)
    for bk in (CL, EP, Q3, DR):
        for pat, args in ((DISK, (V, V)), (TOR, (UNIT,))):
            xs = []
            for _ in range(3):
                s = random_element(CL, pat, rng, label_pool=(0, 1), argument=args)
                xs.append(lift_element(s, bk) if bk.name != "classical" else s)
            a, b, c = xs
            assert mu(mu(a, b), c).equal(mu(a, mu(b, c))), (bk.name, pat.n_handles)


def test_mu_op_minus_properties():
    rng = random.Random(5)
    s1 = random_element(CL, TOR, rng, label_pool=(0, 1))
    s2 = random_element(CL, TOR, rng, label_pool=(0, 1))
    # symmetric backend: the two products agree
    assert mu_op_minus(s1, s2).equal(mu(s1, s2))
    # deformed backends: the difference is O(parameter)
    for bk in (EP, Q3):
        l1, l2 = lift_element(s1, bk), lift_element(s2, bk)
        diff = (mu(l1, l2) - mu_op_minus(l1, l2)).canonical()
        assert all(c.part0().is_zero for _, c in diff.terms), bk.name


def test_action_contravariant():
    from skeinlab.ribbon_backend import tensor_word

    rng = random.Random(6)
    target = tensor_word([V, V])
    s = random_element(CL, ANN, rng, label_pool=(1,), argument=(target,))
    f = CL.random_invariant(target, target, rng)
    g = CL.random_invariant(target, target, rng)
    lhs = action(g @ f, 0, s)
    rhs = action(f, 0, action(g, 0, s))
    assert lhs.equal(rhs)
    ident = Morphism.identity(target, CL.mode)
    assert action(ident, 0, s).equal(s)
    zero = Morphism.zero(target, target, CL.mode)
    assert action(zero, 0, s).is_zero
    # precomposition needs a map onto the argument word, from the new argument's word
    assert s.precompose(ident, (target,)).equal(s)
    for m, argument in ((Morphism.identity(V, CL.mode), (V,)), (ident, (V,))):
        with pytest.raises(AlgebraError):
            s.precompose(m, argument)


def test_freeness_part0_rank():
    # coefficient modules are free: the deformed Hom basis has the classical rank
    for pat, labels, args in (
        (ANN, (simple(1),), (UNIT,)),
        (TOR, (simple(1), simple(1)), (UNIT,)),
        (DISK, (simple(1),), (V, V)),
    ):
        b_cl = element_hom_basis(CL, pat, args, labels)
        for bk in (EP, Q3, DR):
            b_q = element_hom_basis(bk, pat, args, labels)
            assert len(b_q) == len(b_cl), bk.name
            for m_q, m_cl in zip(b_q, b_cl):
                assert m_q.part0() == m_cl, bk.name


def test_classical_limit_of_products():
    rng = random.Random(7)
    s1 = random_element(CL, TOR, rng, label_pool=(0, 1))
    s2 = random_element(CL, TOR, rng, label_pool=(0, 1))
    expected = mu(s1, s2)
    for bk in (EP, Q3, DR):
        lifted = mu(lift_element(s1, bk), lift_element(s2, bk))
        assert lifted.part0().equal(expected), bk.name


def test_element_errors():
    rng = random.Random(8)
    s_ann = random_element(CL, ANN, rng, label_pool=(0, 1, 2))
    s_tor = random_element(CL, TOR, rng, label_pool=(0, 1))
    with pytest.raises(AlgebraError):
        mu(s_ann, s_tor)
    with pytest.raises(ModeError):
        holonomy_evaluate(lift_element(s_ann, EP))
    from skeinlab.ribbon_backend import tensor_word

    s_v = random_element(CL, ANN, rng, label_pool=(1,), argument=(tensor_word([V, V]),))
    with pytest.raises(AlgebraError):
        s_ann + s_v


def test_element_json_roundtrip():
    rng = random.Random(9)
    s = random_element(CL, TOR, rng, label_pool=(0, 1))
    s2 = SkeinElement.from_json(s.to_json())
    assert s2.equal(s)
    # trivial labels must round-trip as the spin-0 simple, not the unit object
    ta = loop_element(CL, TOR, [[0]])
    ta2 = SkeinElement.from_json(ta.to_json())
    assert ta2.equal(ta)
    assert mu(ta2, ta2).equal(mu(ta, ta))


def test_element_json_checks_every_core():
    rng = random.Random(10)
    for bk in (CL, Q3):
        s = random_element(bk, ANN, rng, label_pool=(1, 2))
        assert SkeinElement.from_json(s.to_json()).equal(s), bk.name
    data = random_element(CL, ANN, rng, label_pool=(2,)).to_json()
    core = data["terms"][0]["core"]
    # a core over another ring
    with pytest.raises(ModeError, match="term 0"):
        SkeinElement.from_json({**data, "terms": [{"labels": ["adj"], "core": {**core, "mode": "epsilon", "order": 2}}]})
    # labels whose boundary word the core does not reach
    with pytest.raises(AlgebraError, match=r"term 0 \(labels V\).*boundary word"):
        SkeinElement.from_json({**data, "terms": [{"labels": ["V"], "core": core}]})
    with pytest.raises(AlgebraError, match="handles"):
        SkeinElement.from_json({**data, "terms": [{"labels": ["adj", "adj"], "core": core}]})
    # a core that is not an intertwiner, at the classical and at a higher order
    bad = {**core, "entries": {**core["entries"], "1,0": ["5"]}}
    with pytest.raises(AlgebraError, match="term 0.*invariant Hom space"):
        SkeinElement.from_json({**data, "terms": [{"labels": ["adj"], "core": bad}]})
    lifted = lift_element(SkeinElement.from_json(data), Q3).to_json()
    qcore = lifted["terms"][0]["core"]
    pos = next(iter(qcore["entries"]))
    qbad = {**qcore, "entries": {**qcore["entries"], pos: qcore["entries"][pos][:1] + ["1", "0"]}}
    assert SkeinElement.from_json(lifted)
    with pytest.raises(AlgebraError, match="invariant Hom space"):
        SkeinElement.from_json({**lifted, "terms": [{"labels": ["adj"], "core": qbad}]})


def test_classical_commutativity():
    # mu(s1, s2) == mu(s2, s1) pulled back along the argument flips; with
    # the disk formula this is the first-order content of the braided
    # commutativity of the disk algebra
    from skeinlab.ribbon_backend import flip_matrix

    rng = random.Random(12)
    for pat, args, pool in ((DISK, (V, V), (0, 1, 2)), (TOR, (UNIT,), (0, 1))):
        s1 = random_element(CL, pat, rng, label_pool=pool, argument=args)
        s2 = random_element(CL, pat, rng, label_pool=pool, argument=args)
        m12 = mu(s1, s2)
        m21 = mu(s2, s1)
        context, placed = [], []
        for v in range(pat.n_vertices):
            x, y = s1.argument[v], s2.argument[v]
            context.extend([x, y])
            placed.append((2 * v, 2, flip_matrix(x, y, CL.mode)))
        perm = CL.flat_apply(context, placed)
        pulled = SkeinElement(CL, pat, m12.argument, [(ls, c @ perm) for ls, c in m21.terms])
        assert m12.equal(pulled)


def test_zero_propagation():
    rng = random.Random(10)
    s = random_element(CL, ANN, rng, label_pool=(0, 1, 2))
    z = s - s
    assert z.is_zero
    assert mu(z, s).is_zero and mu(s, z).is_zero


def test_product_builds_no_matrix_on_the_boundary_word(monkeypatch):
    """mu, then canonical, of a torus adj x adj pair applies every step to the core.

    A first product fills the backend's caches (braidings, Clebsch-Gordan
    maps and their transposes), so only the product's own steps are
    watched: none may build a matrix on a boundary word, whose dimension is
    3^4 = 81 for one element and 3^8 for the product.
    """
    rng = random.Random(4)
    a = random_element(CL, TOR, rng, label_pool=(2,))
    b = random_element(CL, TOR, rng, label_pool=(2,))
    mu(a, b)
    dims = []
    flat_apply = BackendSpec.flat_apply

    def watched(self, context, placed):
        m = flat_apply(self, context, placed)
        dims.append(max(m.source.dim, m.target.dim))
        return m

    monkeypatch.setattr(BackendSpec, "flat_apply", watched)
    product = mu(a, b).canonical()
    assert product.terms
    assert max(dims, default=0) < 81, (len(dims), max(dims))


# a torus whose second handle has its --end (slot 1) before its +-end (slot 3)
REVERSED_TORUS = SurfacePattern.from_json(
    {
        "vertices": 1,
        "handles": [
            {"ends": [{"v": 0, "slot": 0, "orient": "+"}, {"v": 0, "slot": 2, "orient": "-"}]},
            {"ends": [{"v": 0, "slot": 3, "orient": "+"}, {"v": 0, "slot": 1, "orient": "-"}]},
        ],
    }
)


def _reference_reduce_handle(element, labels, core, hi):
    """`_reduce_handle` as one `apply` per Clebsch-Gordan component: the projection at
    the handle's +-end and the transposed embedding at its --end."""
    backend, lab = element.backend, labels[hi]
    slots = element.pattern.slots
    pos_plus = next(i for i, (h, e) in enumerate(slots) if h == hi and e.sign > 0)
    pos_minus = next(i for i, (h, e) in enumerate(slots) if h == hi and e.sign < 0)
    context = slot_objects(element.pattern, labels)
    results = []
    for target, embed, project in backend.cg_decompose(lab.left, lab.right):
        new_labels = labels[:hi] + (target,) + labels[hi + 1 :]
        placed = [(pos_plus, 1, project), (pos_minus, 1, backend.transpose(embed))]
        results.append((new_labels, backend.apply(context, placed, core)))
    return results


def test_reduce_handle_matches_one_apply_per_component():
    """The one-pass reduction equals the per-component `apply` loop on every composite handle.

    Every handle of every product term is reduced, and so is every handle
    of the once-reduced terms, where simple and composite labels mix; on
    all four backends (Drinfeld at orders 2 and 3), with composite
    non-left-nested arguments on the disk and a handle whose --end comes
    first on the reversed torus.
    """
    adj = simple(2)
    backends = (CL, EP, Q3, make_backend("drinfeld", 2), DR)
    cases = (
        (DISK, (V, V), (V, V), (0, 1, 2)),
        (DISK, (TensorObj(V, DualObj(V)), adj), (TensorObj(V, TensorObj(V, V)), TensorObj(adj, V)), (0, 1, 2)),
        (TOR, None, None, (1, 2)),
        (REVERSED_TORUS, None, None, (1, 2)),
        (two_strand_chaps(), (V, V), (V, V), (0, 1)),
    )
    rng = random.Random(31)
    checked = set()
    for pattern, a1, a2, pool in cases:
        s1 = random_element(CL, pattern, rng, label_pool=pool, argument=a1)
        s2 = random_element(CL, pattern, rng, label_pool=pool, argument=a2)
        for bk in backends:
            a, b = (s1, s2) if bk is CL else (lift_element(s1, bk), lift_element(s2, bk))
            product = product_terms(a, b, positive=bk is not EP)
            terms = list(product.terms)
            for labels, core in product.terms:
                terms += product._reduce_handle(labels, core, 0)
            for labels, core in terms:
                for hi, lab in enumerate(labels):
                    if isinstance(lab, TensorObj):
                        expected = _reference_reduce_handle(product, labels, core, hi)
                        assert product._reduce_handle(labels, core, hi) == expected, (bk, pattern, labels, hi)
                        checked.add((bk.name, bk.mode.order, pattern))
    assert len(checked) == len(backends) * 4  # the two disk cases share a pattern


def test_reduce_handle_refuses_a_core_off_the_boundary_word():
    """A core over another ring, or ending on another bracketing of the boundary word, raises ModeError."""
    rng = random.Random(32)
    s1 = random_element(CL, TOR, rng, label_pool=(1,))
    s2 = random_element(CL, TOR, rng, label_pool=(1,))
    for bk in (CL, DR):
        a, b = (s1, s2) if bk is CL else (lift_element(s1, bk), lift_element(s2, bk))
        product = product_terms(a, b)
        (labels, core), = product.terms
        blocky = tensor_word(slot_objects(TOR, labels))  # composite labels kept as blocks
        assert blocky != core.target and blocky.leaves() == core.target.leaves()
        with pytest.raises(ModeError):
            product._reduce_handle(labels, core.retyped(target=blocky), 0)
        with pytest.raises(ModeError):
            SkeinElement(bk, TOR, product.argument, [(labels, core.retyped(target=blocky))]).canonical()
    (labels, core), = product_terms(s1, s2).terms
    with pytest.raises(ModeError):
        product._reduce_handle(labels, core, 1)  # a classical core on the Drinfeld element


def test_canonical_reduces_each_label_tuple_once(monkeypatch):
    """canonical() sums the cores of equal label tuples, composite ones included, before reducing.

    Each distinct label tuple reaches `_reduce_handle` once, and a tuple
    whose cores cancel reaches it not at all.
    """
    calls = []
    reduce_handle = SkeinElement._reduce_handle

    def counted(self, labels, core, hi):
        calls.append(labels)
        return reduce_handle(self, labels, core, hi)

    monkeypatch.setattr(SkeinElement, "_reduce_handle", counted)
    rng = random.Random(33)
    for pattern, pool in ((TOR, (1, 2)), (REVERSED_TORUS, (1, 2)), (ANN, (0, 1, 2))):
        s1, s2 = (
            random_element(CL, pattern, rng, label_pool=pool) + random_element(CL, pattern, rng, label_pool=pool)
            for _ in range(2)
        )
        for bk in (CL, EP, DR):
            a, b = (s1, s2) if bk is CL else (lift_element(s1, bk), lift_element(s2, bk))
            product = product_terms(a, b)
            calls.clear()
            expected = product.canonical()
            assert len(calls) == len(set(calls)), (pattern, bk)
            assert {labels for labels, _ in product.terms} <= set(calls)
            # the same terms, every core split in two summands: still one reduction per tuple
            halves = [(labels, c) for labels, core in product.terms for c in (core.scale(F(1, 3)), core.scale(F(2, 3)))]
            calls.clear()
            assert SkeinElement(bk, pattern, product.argument, halves).canonical().terms == expected.terms
            assert len(calls) == len(set(calls))
            calls.clear()
            zero = (product + product.scale(-1)).canonical()
            assert zero.terms == [] and calls == []


def test_drinfeld_product_inserts_each_leaf_triple_once(monkeypatch):
    """A Drinfeld(3) product's coherence terms reach `insert_legs` once per leaf triple, in increasing order.

    Omega is totally antisymmetric, so the walk keys each term by its
    sorted leaf triple with the permutation's sign and sums the
    coefficients; at least one torus triple gets several terms.
    """
    calls = []
    insert_legs = ribbon_backend.insert_legs

    def watched(factors, terms, m):
        calls.append([t[:-1] for t in terms if len(t) == 4])
        return insert_legs(factors, terms, m)

    rng = random.Random(34)
    a, b = (lift_element(random_element(CL, TOR, rng, label_pool=(1,)), DR) for _ in range(2))
    expected = product_terms(a, b).terms
    monkeypatch.setattr(ribbon_backend, "insert_legs", watched)
    assert product_terms(a, b).terms == expected
    triples = [legs for call in calls for legs in call]
    assert triples and all(i < j < k for i, j, k in triples)
    assert all(len(set(call)) == len(call) for call in calls)


EQUAL_CASES = [(DISK, (V, V), (0, 1, 2)), (ANN, (UNIT,), (0, 1, 2)), (TOR, (UNIT,), (0, 1))]


def counted_holonomy(monkeypatch):
    """Spy on the holonomy oracle that `equal` calls: returns the list of its arguments."""
    calls = []
    evaluate = skein_algebra.holonomy_evaluate

    def counted(s):
        calls.append(s)
        return evaluate(s)

    monkeypatch.setattr(skein_algebra, "holonomy_evaluate", counted)
    return calls


@pytest.mark.parametrize("pattern,args,pool", EQUAL_CASES, ids=["disk", "annulus", "torus"])
def test_equal_evaluates_holonomy_only_on_differing_classical_forms(pattern, args, pool, monkeypatch):
    """Equal canonical forms have equal holonomies, so `equal` evaluates none; differing forms get both."""
    rng = random.Random(35)
    a, b = (random_element(CL, pattern, rng, label_pool=pool, argument=args) for _ in range(2))
    calls = counted_holonomy(monkeypatch)
    p, q = mu(a, b), mu(a, b)
    assert p.terms and p.equal(q) and calls == []
    assert not p.equal(p.scale(2)) and len(calls) == 2
    for bk in (EP, Q3):
        calls.clear()
        lp, lq = lift_element(p, bk), lift_element(q, bk)
        assert lp.equal(lq) and not lp.equal(lq.scale(2)) and calls == []


@pytest.mark.parametrize("pattern,args,pool", EQUAL_CASES, ids=["disk", "annulus", "torus"])
def test_equal_raises_when_differing_forms_have_equal_holonomy(pattern, args, pool, monkeypatch):
    rng = random.Random(36)
    p = random_element(CL, pattern, rng, label_pool=pool, argument=args)
    assert not p.equal(p.scale(2))
    monkeypatch.setattr(skein_algebra, "holonomy_evaluate", lambda s: [SL2Poly.constant(pattern.n_handles, 1)])
    with pytest.raises(AlgebraError, match="canonical form and holonomy oracle disagree"):
        p.equal(p.scale(2))
    assert p.equal(p.scale(1))


def test_genus_two_products_compare_without_holonomy(monkeypatch):
    """Two separately computed genus-two products with V labels are equal with no holonomy evaluation.

    The pair is the reach ladder's genus-two {V} rung; evaluating both
    holonomies took about 1.6 s of a 0.04 s product.
    """
    g2 = genus_two_one_boundary()
    rng = random.Random("ladder/1/genus_two/V")
    argument = tuple(UNIT for _ in range(g2.n_vertices))
    a, b = (random_element(CL, g2, rng, label_pool=(1,), argument=argument) for _ in range(2))
    calls = counted_holonomy(monkeypatch)
    assert mu(a, b).equal(mu(a, b)) and calls == []


@pytest.mark.parametrize(
    "backend,loops,error,match",
    [
        (EP, [[0]], ModeError, "built over the classical backend"),
        (CL, [[0], [0, 1]], AlgebraError, "must not share handles"),
    ],
    ids=["epsilon", "shared-handle"],
)
def test_loop_element_refusals(backend, loops, error, match):
    with pytest.raises(error, match=match):
        loop_element(backend, TOR, loops)


def test_canonical_refuses_a_label_that_is_not_a_pair_of_simples():
    ((_, core),) = loop_element(CL, ANN, [[0]]).terms
    odd = SkeinElement(CL, ANN, (UNIT,), [((TensorObj(TensorObj(V, V), V),), core)])
    with pytest.raises(AlgebraError, match="cannot reduce handle label"):
        odd.canonical()


def test_equal_is_false_on_different_flat_arguments():
    """Elements on different argument words differ, the zero elements too."""
    on_units = random_element(CL, DISK, random.Random(1), label_pool=(0,))
    on_vs = random_element(CL, DISK, random.Random(1), label_pool=(1,), argument=(V, V))
    assert not on_units.equal(on_vs) and not on_vs.equal(on_units)
    assert not on_units.scale(0).equal(on_vs.scale(0)) and on_vs.scale(0).equal(on_vs.scale(0))


def test_random_element_refuses_a_pool_with_no_admissible_label():
    with pytest.raises(AlgebraError, match="no labels from the pool admit a nonzero element"):
        random_element(CL, DISK, random.Random(1), label_pool=(1,))


def test_lift_element_refuses_the_classical_backend():
    with pytest.raises(ModeError, match="cannot lift into classical"):
        lift_element(loop_element(CL, ANN, [[0]]), CL)


def test_action_refuses_a_morphism_onto_another_object():
    s = random_element(CL, DISK, random.Random(1), label_pool=(1,), argument=(V, V))
    with pytest.raises(AlgebraError, match="action target"):
        action(Morphism.identity(simple(2), CL.mode), 0, s)
