"""Verification suites: deterministic, seeded case lists with defect reports.

Each suite returns a list of case dicts {"id", "ok", "defect"}; defects are
JSON-serializable payloads (usually the offending element or morphism).
The CLI wraps these; the acceptance tests run them at the contract sizes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .ribbon_backend import (
    DualObj,
    Morphism,
    SimpleObj,
    T_TENSOR,
    TensorObj,
    UNIT,
    make_backend,
    simple,
    tensor_word,
    word_tensor,
)
from .scalars import ScalarSeries
from .skein_algebra import (
    holonomy_evaluate,
    lift_element,
    loop_element,
    mu,
    random_element,
)
from .poisson import (
    argument_insertion,
    check_fusion,
    fock_rosly_consistency,
    fock_rosly_sigma,
    interleaved_argument_factors,
    sigma_algebraic,
    sigma_goldman,
    symmetrization_check,
)
from .surface import (
    annulus,
    disk_with_two_points,
    once_punctured_torus,
    two_strand_chaps,
)
from .tangle import (
    Cell,
    TangleWord,
    apply_move,
    coupon_then_cross,
    random_word,
    reparenthesize_coupon,
    rt_evaluate,
)

V = simple(1)


def _case(case_id, ok, defect=None):
    return {"id": case_id, "ok": bool(ok), "defect": defect if not ok else None}


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

MOVE_KINDS = ("R2", "R3", "FramedR1", "Snake", "CouponSlide", "Reparenthesize")


def _splice(word, lvl, gadget, coupons=()):
    """`word` with the slices `gadget` inserted at level `lvl` and the (id, morphism) `coupons` added."""
    return TangleWord(word.bottom, word.slices[:lvl] + gadget + word.slices[lvl:], {**word.coupons, **dict(coupons)})


def _apply_random_move(word, kind, backend, rng):
    """Return (before, after) words for the move, or None if no site fits."""
    levels = word.interfaces
    if kind == "R2":
        sites = [(l, p) for l, s in enumerate(levels[:-1]) for p in range(len(s) - 1)]
        if not sites:
            return None
        lvl, p = rng.choice(sites)
        return word, apply_move(word, "R2", (lvl, p, "insert"))
    if kind in ("FramedR1", "Snake"):
        sites = [(l, p) for l, s in enumerate(levels) for p in range(len(s)) if isinstance(s[p], SimpleObj)]
        if not sites:
            return None
        lvl, p = rng.choice(sites)
        if kind == "Snake":
            return word, apply_move(word, rng.choice(("SnakeLeft", "SnakeRight")), (lvl, p, "insert"))
        before = _splice(word, lvl, ((Cell("twist+", p),),))
        return before, apply_move(before, "FramedR1", (lvl, p))
    if kind == "Reparenthesize":
        sites = [(l, p) for l, s in enumerate(levels) for p in range(len(s) - 2)]
        if not sites:
            return None
        lvl, p = rng.choice(sites)
        a, b, c = levels[lvl][p : p + 3]
        src = TensorObj(TensorObj(a, b), c)
        m = backend.random_invariant(src, src, rng)
        cid = f"rp{len(word.coupons)}"
        before = _splice(word, lvl, ((Cell("coupon", p, coupon_id=cid),),), [(cid, m)])
        return before, reparenthesize_coupon(before, cid, TensorObj(a, TensorObj(b, c)), m.target, backend)
    # the braid and slide gadgets permute the interface, so they go in at the top
    top = len(word.slices)
    strands = levels[top]
    if kind == "R3":
        if len(strands) < 3:
            return None
        p = rng.randrange(len(strands) - 2)
        before = _splice(word, top, ((Cell("braid+", p),), (Cell("braid+", p + 1),), (Cell("braid+", p),)))
        return before, apply_move(before, "R3", (top, "lr"))
    if kind == "CouponSlide":
        if len(strands) < 2:
            return None
        for _ in range(8):
            p = rng.randrange(len(strands) - 1)
            m = backend.random_invariant(strands[p], strands[p], rng)
            if not m.is_zero:
                cid = f"slide{len(word.coupons)}"
                before = _splice(word, top, coupon_then_cross(cid, m, p), [(cid, m)])
                return before, apply_move(before, "CouponSlide", (top, p))
        return None
    raise ValueError(kind)


def moves_suite(backend_name: str, order: int, seed: int, words_per_kind: int = 5):
    backend = make_backend(backend_name, order)
    rng = random.Random(seed)
    cases = []
    for kind in MOVE_KINDS:
        done = 0
        attempts = 0
        while done < words_per_kind and attempts < words_per_kind * 12:
            attempts += 1
            word = random_word(rng, backend, n_strands=rng.choice((2, 3)), n_slices=rng.choice((2, 3, 4)))
            pair = _apply_random_move(word, kind, backend, rng)
            if pair is None:
                continue
            before, after = pair
            ok = rt_evaluate(before, backend) == rt_evaluate(after, backend)
            cases.append(_case(f"{kind}-{done}", ok, None if ok else (rt_evaluate(before, backend) - rt_evaluate(after, backend)).to_json()))
            done += 1
    return cases


# ---------------------------------------------------------------------------
# ribbon axioms
# ---------------------------------------------------------------------------


def _matrix_compose(factors):
    """Multiply morphism matrices top-down, ignoring bracketing in types."""
    product = factors[0]
    for m in factors[1:]:
        product = product @ m.retyped(target=product.source)
    return product


def _same_matrix(a, b):
    return a == b.retyped(source=a.source, target=a.target)


def _hexagon1(bk, a, b, c):
    lhs = bk.braiding(a, word_tensor(b, c))
    idb = Morphism.identity(b, bk.mode)
    idc = Morphism.identity(c, bk.mode)
    rhs = _matrix_compose(
        [
            bk.associator_inv(b, c, a),
            idb.tensor(bk.braiding(a, c)),
            bk.associator(b, a, c),
            bk.braiding(a, b).tensor(idc),
            bk.associator_inv(a, b, c),
        ]
    )
    return _same_matrix(lhs, rhs)


def _hexagon2(bk, a, b, c):
    lhs = bk.braiding(word_tensor(a, b), c)
    ida = Morphism.identity(a, bk.mode)
    idb = Morphism.identity(b, bk.mode)
    rhs = _matrix_compose(
        [
            bk.associator(c, a, b),
            bk.braiding(a, c).tensor(idb),
            bk.associator_inv(a, c, b),
            ida.tensor(bk.braiding(b, c)),
            bk.associator(a, b, c),
        ]
    )
    return _same_matrix(lhs, rhs)


def _snakes(bk, x: SimpleObj):
    dx = DualObj(x)
    s1 = bk.flat_apply([x, dx, x], [(1, 2, bk.ev(x))]) @ bk.flat_apply([x], [(0, 0, bk.coev(x))])
    s2 = bk.flat_apply([dx, x, dx], [(0, 2, bk.ev(x))]) @ bk.flat_apply([dx], [(1, 0, bk.coev(x))])
    return s1 == Morphism.identity(x, bk.mode) and s2 == Morphism.identity(dx, bk.mode)


def ribbon_suite(backend_name: str, order: int):
    bk = make_backend(backend_name, order)
    objs = [UNIT, V, DualObj(V)]
    cases = []
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            for k, c in enumerate(objs):
                ok = _hexagon1(bk, a, b, c) and _hexagon2(bk, a, b, c)
                cases.append(_case(f"hexagons-{i}{j}{k}", ok))
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            axiom = bk.braiding(b, a) @ bk.braiding(a, b) @ bk.twist(a).tensor(bk.twist(b))
            word = tensor_word([a, b])
            ok = bk.twist(word) == axiom.retyped(source=word, target=word)
            cases.append(_case(f"twist-axiom-{i}{j}", ok))
    cases.append(_case("snakes-V", _snakes(bk, V)))
    cases.append(_case("twist-transpose-V", bk.transpose(bk.twist(V)) == bk.twist(DualObj(V))))
    if backend_name == "drinfeld" and order >= 3:
        cases.append(_case("pentagon-VVVV", _pentagon(bk)))
    return cases


def _pentagon(bk):
    a = b = c = d = V
    p1 = bk.associator(a, b, TensorObj(c, d)) @ bk.associator(TensorObj(a, b), c, d)
    p2 = (
        Morphism.identity(a, bk.mode).tensor(bk.associator(b, c, d))
        @ bk.associator(a, TensorObj(b, c), d)
        @ bk.associator(a, b, c).tensor(Morphism.identity(d, bk.mode))
    )
    return p1 == p2


# ---------------------------------------------------------------------------
# sigma, fusion, jacobi, torsion
# ---------------------------------------------------------------------------


def sigma_suite(seed: int, pairs: int = 5):
    rng = random.Random(seed)
    ep = make_backend("epsilon")
    cl = make_backend("classical")
    disk = disk_with_two_points()
    cases = []
    for i in range(pairs):
        arg = rng.choice((UNIT, V, simple(2)))
        s1 = random_element(ep, disk, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(ep, disk, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        sig = sigma_algebraic(s1, s2).element
        prod0 = mu(s1.part0(), s2.part0())
        factors, first, second = interleaved_argument_factors(s1, s2)
        rhs = argument_insertion(prod0, T_TENSOR, factors, [(first[1], second[1])]).canonical()
        ok = sig.equal(rhs)
        cases.append(_case(f"disk-formula-{i}", ok, None if ok else (sig - rhs).canonical().to_json()))
    for pat_name, pat in (("annulus", annulus()), ("torus", once_punctured_torus())):
        for i in range(pairs):
            s1 = random_element(cl, pat, rng, label_pool=(0, 1, 2))
            s2 = random_element(cl, pat, rng, label_pool=(0, 1, 2))
            g = sigma_goldman(s1, s2)
            a = sigma_algebraic(lift_element(s1, ep), lift_element(s2, ep))
            ok = g.equal(a)
            cases.append(_case(f"goldman-{pat_name}-{i}", ok, None if ok else (g.element - a.element).canonical().to_json()))
            e1 = random_element(ep, pat, rng, label_pool=(0, 1, 2))
            e2 = random_element(ep, pat, rng, label_pool=(0, 1, 2))
            cases.append(_case(f"symmetrization-{pat_name}-{i}", symmetrization_check(e1, e2)))
    return cases


def fusion_suite(seed: int, pairs: int = 5, order: str = "v1v2"):
    rng = random.Random(seed)
    ep = make_backend("epsilon")
    cases = []
    disk = disk_with_two_points()
    for i in range(pairs):
        arg = rng.choice((UNIT, V))
        s1 = random_element(ep, disk, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        s2 = random_element(ep, disk, rng, label_pool=(0, 1, 2), argument=(arg, arg))
        ok, defect = check_fusion(s1, s2, 0, 1, order=order)
        cases.append(_case(f"fuse-disk-annulus-{i}", ok, None if ok else defect.to_json()))
    chaps = two_strand_chaps()
    for i in range(pairs):
        s1 = random_element(ep, chaps, rng, label_pool=(0, 1))
        s2 = random_element(ep, chaps, rng, label_pool=(0, 1))
        ok, defect = check_fusion(s1, s2, 0, 1, order=order)
        cases.append(_case(f"fuse-chaps-torus-{i}", ok, None if ok else defect.to_json()))
    return cases


def jacobi_suite(seed: int, pairs: int = 5):
    rng = random.Random(seed)
    cl = make_backend("classical")
    cases = []
    for pat_name, pat in (("annulus", annulus()), ("torus", once_punctured_torus())):
        for i in range(pairs):
            s1 = random_element(cl, pat, rng, label_pool=(0, 1, 2))
            s2 = random_element(cl, pat, rng, label_pool=(0, 1, 2))
            ok = fock_rosly_consistency(s1, s2)
            cases.append(_case(f"fr-consistency-{pat_name}-{i}", ok))
    tor = once_punctured_torus()
    ta = loop_element(cl, tor, [[0]])
    tb = loop_element(cl, tor, [[1]])
    tab = loop_element(cl, tor, [[0, 1]])

    def br(f, g):
        return fock_rosly_sigma(f, g).element

    total = None
    for x, y, z in ((ta, tb, tab), (tb, tab, ta), (tab, ta, tb)):
        h = holonomy_evaluate(br(br(x, y), z))[0]
        total = h if total is None else total + h
    cases.append(_case("jacobi-trace-triple", total.is_zero, None if total.is_zero else str(total)))
    return cases


def torsion_suite():
    """theta^2 - id == (3/2) h id on V, which holds modulo h^2 only."""
    cases = []
    for name in ("quantum", "drinfeld"):
        bk = make_backend(name, 2)
        th = bk.twist(V)
        defect = th @ th - Morphism.identity(V, bk.mode)
        expected = Morphism.identity(V, bk.mode).scale(
            ScalarSeries.from_coeffs(bk.mode, [0, Fraction(3, 2)])
        )
        ok = defect == expected
        cases.append(_case(f"torsion-{name}", ok, None if ok else defect.to_json()))
    return cases


# each suite's runner and the options of `skeinlab verify` it takes, in
# parameter order; moves and ribbon run the configured backend and order,
# the others fix their own, and ribbon and torsion draw no random cases
SUITES = {
    "moves": (moves_suite, ("backend", "order", "seed", "cases")),
    "ribbon": (ribbon_suite, ("backend", "order")),
    "sigma": (sigma_suite, ("seed", "cases")),
    "fusion": (fusion_suite, ("seed", "cases", "fusion_order")),
    "jacobi": (jacobi_suite, ("seed", "cases")),
    "torsion": (torsion_suite, ()),
}
