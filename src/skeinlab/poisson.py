"""First-order deformation tensors of the skein product and their checks.

sigma is the first-order difference between the product and its globally
undercrossed opposite.  It can be computed three ways: algebraically from
a deformed backend, diagrammatically by inserting the infinitesimal
braiding wherever two strands cross at one vertex, and in the
classical holonomy model by the ciliated vertex sum built from the
classical r-matrix.  The acceptance identities (disk formula, oracle
equivalence, symmetrization, Leibniz, fusion, Fock-Rosly consistency)
pin all sign and side conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AlgebraError, ModeError
from .ribbon_backend import (
    Morphism,
    RA_TENSOR,
    R_TENSOR,
    TSYM_TENSOR,
    T_TENSOR,
    act_legs,
    flat_word,
    flip_matrix,
    make_backend,
    tensor_word,
    word_tensor,
)
from .scalars import classical_mode
from .skein_algebra import (
    SkeinElement,
    lift_element,
    mu,
    product_argument,
    product_terms,
    slot_objects,
    strand_positions,
)
from .surface import Handle, SurfacePattern, fuse


@dataclass
class SigmaResult:
    element: SkeinElement  # over the classical backend
    method: str

    def equal(self, other) -> bool:
        e = other.element if isinstance(other, SigmaResult) else other
        return self.element.equal(e)

    @property
    def is_zero(self):
        return self.element.is_zero


# ---------------------------------------------------------------------------
# Insertion helper (classical two-leg actions on element words)
# ---------------------------------------------------------------------------


def argument_insertion(element: SkeinElement, tensor, factors, pairs) -> SkeinElement:
    """Precompose every core with a two-leg insertion on pairs of argument blocks.

    `factors` lists the argument blocks of the element's source word
    explicitly (unit blocks included), so that product elements keep their
    pair structure even when one side's argument is trivial.  Each (i, j)
    in `pairs` inserts `tensor`, its first legs on block i and its second
    legs on block j.
    """
    legs = [(i, j, tensor) for i, j in pairs]
    return element.precompose(act_legs(factors, legs, Morphism.identity(flat_word(element.argument), classical_mode())))


def interleaved_argument_factors(s1: SkeinElement, s2: SkeinElement):
    """Argument blocks of mu(s1, s2) and the positions of the two sides."""
    factors = []
    first, second = [], []
    for x, y in zip(s1.argument, s2.argument):
        first.append(len(factors))
        factors.append(x)
        second.append(len(factors))
        factors.append(y)
    return factors, first, second


def _flip_arguments(element: SkeinElement, factors, positions, argument) -> SkeinElement:
    """The element pulled back along flips of adjacent argument factors.

    `factors` lists the blocks of the new argument's flat word, and each
    p in `positions` exchanges factors p and p + 1; `argument` is the new
    argument.
    """
    backend = element.backend
    placed = [(p, 2, flip_matrix(factors[p], factors[p + 1], backend.mode)) for p in positions]
    return element.precompose(backend.flat_apply(factors, placed), argument)


# ---------------------------------------------------------------------------
# sigma: algebraic and diagrammatic
# ---------------------------------------------------------------------------


def sigma_algebraic(s1: SkeinElement, s2: SkeinElement) -> SigmaResult:
    """[mu - mu^op-]_1 over a deformed backend, as a classical element.

    The product terms are subtracted before `canonical()`, so each term
    pair's two cores cancel in their constant layer before any reduction."""
    if not s1.backend.is_deformed:
        raise ModeError("sigma needs a first-order deformation (epsilon, or quantum or drinfeld at order >= 2)")
    diff = (product_terms(s1, s2) - product_terms(s1, s2, False)).canonical()
    for _, core in diff.terms:
        if not core.part0().is_zero:
            raise AlgebraError("product difference has a nonzero classical part")
    return SigmaResult(diff.part1().canonical(), "algebraic")


def sigma_goldman(s1: SkeinElement, s2: SkeinElement) -> SigmaResult:
    """Goldman's intersection rule: t inserted at every crossing of two strands at one vertex.

    Such a crossing is an intersection site, where the first-order
    difference of an overcrossing and an undercrossing is flip o t; the
    crossings between strands at different vertices and the argument
    rearrangements cancel pairwise in that difference.  Every classical
    crossing is a flip, so by naturality each t is inserted once, on the
    finished product term, at the two strands' `strand_positions`
    (`_goldman_triples`).  Orientation signs arise from the
    dual-representation legs of t.
    """
    if s1.backend.name != "classical":
        raise ModeError("the intersection rule runs over the classical backend")
    return SigmaResult(_slot_insertion_product(s1, s2, _goldman_triples(s1.pattern)), "goldman")


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def symmetrization_check(s1: SkeinElement, s2: SkeinElement) -> bool:
    """sigma_{X,Y} + E0(beta_0) o sigma_{Y,X} o flip == E0(t-hat) o mu_0.

    t-hat acts at each vertex on that vertex's two argument blocks (the
    first and the second factor's), never across vertices.
    """
    sig12 = sigma_algebraic(s1, s2).element
    sig21 = sigma_algebraic(s2, s1).element
    # pull sigma(Y,X) back along the per-vertex classical flips
    factors, first, second = interleaved_argument_factors(s1, s2)
    pulled = _flip_arguments(sig21, factors, first, sig12.argument)
    lhs = (sig12 + pulled).canonical()
    prod0 = mu(s1.part0(), s2.part0())
    rhs = argument_insertion(prod0, T_TENSOR, factors, zip(first, second)).canonical()
    return lhs.equal(rhs)


def biderivation_check(s1: SkeinElement, s2: SkeinElement, s3: SkeinElement) -> bool:
    """Leibniz rule: sigma(mu(a,b), c) = perm*[mu0(sigma(a,c), b0)] + mu0(a0, sigma(b,c))."""
    lhs = sigma_algebraic(mu(s1, s2), s3).element.canonical()
    term1 = mu(sigma_algebraic(s1, s3).element, s2.part0())
    # rearrange ((X (x) Z) (x) Y) -> ((X (x) Y) (x) Z) by flipping Z past Y per vertex
    xyz = list(zip(s1.argument, s2.argument, s3.argument))
    factors = [a for block in xyz for a in block]
    target_argument = tuple(word_tensor(word_tensor(x, y), z) for x, y, z in xyz)
    term1 = _flip_arguments(term1, factors, range(1, len(factors), 3), target_argument)
    term2 = mu(s1.part0(), sigma_algebraic(s2, s3).element)
    rhs = (term1 + term2.canonical()).canonical()
    return lhs.equal(rhs)


def check_fusion(s1: SkeinElement, s2: SkeinElement, v1: int, v2: int, order: str = "v1v2"):
    """Fusion theorem: sigma_f == (x)0(sigma) o J0 + (mu_f)0 o t-hat_{2,3}.

    s1, s2 live on one two-vertex pattern, which is fused at (v1, v2) in
    the given slot order; returns (ok, defect).  When the fused slot order
    starts with vertex 1, the check runs on the elements with the two
    vertices exchanged, whose v1v2 fusion is the same pattern.  Elements on
    different patterns are refused by the product walk.
    """
    if s1.pattern.n_vertices != 2 or s2.pattern.n_vertices != 2 or (v1, v2) not in ((0, 1), (1, 0)):
        raise AlgebraError("fusion check implemented for two-vertex patterns")
    fused = fuse(s1.pattern, v1, v2, order=order)
    if (v1 if order == "v1v2" else v2) == 1:
        s1, s2 = _swap_vertices(s1), _swap_vertices(s2)
    # right-hand side, first term: the fused image of the unfused sigma,
    # pulled back along the classical middle interchange J0; its product
    # walk refuses elements on different patterns before they are fused
    sig = sigma_algebraic(s1, s2).element
    X1, X2 = s1.argument
    Y1, Y2 = s2.argument
    context = [X1, X2, Y1, Y2]
    target_argument = (word_tensor(word_tensor(X1, X2), word_tensor(Y1, Y2)),)
    term1 = _flip_arguments(_transplant(sig, fused), context, [1], target_argument)

    # second term: classical fused product with t on the middle arguments
    prod = mu(_transplant(s1.part0(), fused), _transplant(s2.part0(), fused))
    term2 = argument_insertion(prod, T_TENSOR, context, [(1, 2)])

    # the fused sigma, its argument bracketed as the rhs one
    lhs = sigma_algebraic(_transplant(s1, fused), _transplant(s2, fused)).element
    lhs = SkeinElement(lhs.backend, fused, target_argument, list(lhs.terms))
    defect = (lhs - (term1 + term2).canonical()).canonical()
    return defect.is_zero, defect


def _swap_vertices(element: SkeinElement) -> SkeinElement:
    """The element with the two vertices of its pattern exchanged: the
    argument reverses, and each core is conjugated by the flips of the two
    vertices' boundary blocks and of the two arguments."""
    pattern, backend = element.pattern, element.backend
    ends = [Handle(tuple(replace(e, vertex=1 - e.vertex) for e in h.ends)) for h in pattern.handles]
    n0, terms = len(pattern.slots_at(0)), []
    for labels, core in element.terms:
        objs = slot_objects(pattern, labels)
        w0, w1 = tensor_word(objs[:n0]), tensor_word(objs[n0:])
        terms.append((labels, backend.apply([w0, w1], [(0, 2, flip_matrix(w0, w1, backend.mode))], core)))
    x0, x1 = element.argument
    swapped = SkeinElement(backend, SurfacePattern(2, tuple(ends)), element.argument, terms)
    return _flip_arguments(swapped, [x1, x0], [0], (x1, x0))


def _transplant(element: SkeinElement, fused: SurfacePattern) -> SkeinElement:
    """Reinterpret a two-vertex element on the fused one-vertex pattern.

    Fusion concatenates the slot orders, so the boundary word and the core
    matrices are unchanged; the argument becomes the tensor of the two.
    """
    argument = (tensor_word(element.argument),)
    return SkeinElement(element.backend, fused, argument, list(element.terms))


# ---------------------------------------------------------------------------
# Fock-Rosly vertex sum in the holonomy model
# ---------------------------------------------------------------------------


# -t + r_a with t = (r + r21)/2 and r_a = (r - r21)/2 (that is, -r21): an end
# pair whose first end comes first, and the argument sides in `forgetful_correction`
MINUS_T_PLUS_RA = tuple((-c, g1, g2) for c, g1, g2 in TSYM_TENSOR) + RA_TENSOR


def _vertex_end_pairs(pattern: SurfacePattern):
    """Every ordered pair (i, j) of handle ends at one vertex, as global slot indices."""
    slots = pattern.slots
    return [(i, j) for i, (_, a) in enumerate(slots) for j, (_, b) in enumerate(slots) if a.vertex == b.vertex]


def _goldman_triples(pattern: SurfacePattern):
    """(i, j, t) for each end pair at a vertex whose strands cross in the product walk.

    The first factor's strand at end i crosses the second's at end j when
    it ends up right of it: when i > j, or i == j at a --end.
    """
    places = strand_positions(pattern)
    return [(i, j, T_TENSOR) for i, j in _vertex_end_pairs(pattern) if places[i][0] > places[j][1]]


def _end_pairs_tensor(pattern: SurfacePattern, include_diagonal: bool):
    """(i, j, tensor) triples of the ciliated vertex sum, one per ordered end pair at a vertex.

    i, j are global slot indices of handle ends; the first leg acts on the
    first factor's strand at end i, the second on the second factor's at j.
    The tensor is r when i comes after j in the cilium order, -r21 when it
    comes before, and on the diagonal r_a, the antisymmetric half of r
    (t/2, its symmetric half, when the diagonal is excluded).
    """
    diagonal = RA_TENSOR if include_diagonal else TSYM_TENSOR
    return [
        (i, j, R_TENSOR if i > j else MINUS_T_PLUS_RA if i < j else diagonal)
        for i, j in _vertex_end_pairs(pattern)
    ]


def _slot_insertion_product(s1: SkeinElement, s2: SkeinElement, triples) -> SkeinElement:
    """The classical product with boundary-end insertions, summed per term.

    Each (i, j, tensor) triple acts on every term core of `product_terms`,
    its first legs on the first factor's strand at end i and its second
    legs on the second factor's at end j, at their `strand_positions`.
    Every classical crossing is a flip, so this equals inserting before the
    strands move.  `act_legs` applies the insertions to the core, and no
    matrix on the product word is built.
    """
    pattern = s1.pattern
    places = strand_positions(pattern)
    legs = [(places[i][0], places[j][1], tensor) for i, j, tensor in triples]
    product = product_terms(s1, s2)
    terms = []
    for labels, core in product.terms:
        strands = [None] * (2 * len(places))
        objs1 = slot_objects(pattern, [lab.left for lab in labels])
        objs2 = slot_objects(pattern, [lab.right for lab in labels])
        for (p1, p2), o1, o2 in zip(places, objs1, objs2):
            strands[p1], strands[p2] = o1, o2
        terms.append((labels, act_legs(strands, legs, core)))
    return SkeinElement(product.backend, pattern, product.argument, terms).canonical()


def fock_rosly_sigma(s1: SkeinElement, s2: SkeinElement, include_diagonal: bool = True) -> SigmaResult:
    """The ciliated vertex sum built from the classical r-matrix.

    Per ordered pair of ends at a vertex, one insertion into the classical
    product: r when the first factor's end comes later in the cilium order,
    -r21 when it comes earlier, and r_a on the diagonal (t/2 with
    include_diagonal=False).
    """
    if s1.backend.name != "classical":
        raise ModeError("the vertex sum runs over the classical backend")
    total = _slot_insertion_product(s1, s2, _end_pairs_tensor(s1.pattern, include_diagonal))
    return SigmaResult(total, "fock_rosly")


def forgetful_correction(s1: SkeinElement, s2: SkeinElement) -> SkeinElement:
    """(-t + r_a) acting on the argument sides of the classical product.

    It acts at each vertex on that vertex's two argument blocks (the first
    and the second factor's), never across vertices.  Leg generators act
    by 0 on one-dimensional argument blocks, so when every block has
    dimension 1 the correction is the empty element and the product is
    not computed.
    """
    factors, first, second = interleaved_argument_factors(s1, s2)
    if all(f.dim == 1 for f in factors):
        s1._check_compatible(s2)
        return SkeinElement(s1.backend, s1.pattern, product_argument(s1, s2), [])
    prod0 = mu(s1, s2)
    return argument_insertion(prod0, MINUS_T_PLUS_RA, factors, zip(first, second)).canonical()


def fock_rosly_consistency(s1: SkeinElement, s2: SkeinElement) -> bool:
    """fock_rosly_sigma == sigma_algebraic + (-t + r_a) on the arguments."""
    fr = fock_rosly_sigma(s1, s2)
    ep = make_backend("epsilon")
    sig = sigma_algebraic(lift_element(s1, ep), lift_element(s2, ep)).element
    rhs = (sig + forgetful_correction(s1, s2)).canonical()
    return fr.element.equal(rhs)
