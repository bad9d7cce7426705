"""First-order deformation tensors of the skein product and their checks.

sigma is the first-order difference between the product and its globally
undercrossed opposite.  It can be computed three ways: algebraically from
a deformed backend, diagrammatically by summing infinitesimal-braiding
insertions over the interior crossings of the product plan, and in the
classical holonomy model by the ciliated vertex sum built from the
classical r-matrix.  The acceptance identities (disk formula, oracle
equivalence, symmetrization, Leibniz, fusion, Fock-Rosly consistency)
pin all sign and side conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AlgebraError, ModeError
from .ribbon_backend import (
    Morphism,
    RA_TENSOR,
    TSYM_TENSOR,
    T_TENSOR,
    flip_matrix,
    insert_legs,
    leg_insertion,
    make_backend,
    tensor_word,
    word_tensor,
)
from .scalars import classical_mode
from .skein_algebra import (
    SkeinElement,
    lift_element,
    mu,
    mu_op_minus,
    product_plan,
    same_pattern,
    slot_objects,
)
from .surface import SurfacePattern, fuse


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


def argument_insertion(element: SkeinElement, tensor, factors, first_blocks, second_blocks) -> SkeinElement:
    """Precompose every core with a two-leg insertion on argument blocks.

    `factors` lists the argument blocks of the element's source word
    explicitly (unit blocks included), so that product elements keep their
    pair structure even when one side's argument is trivial.
    """
    layer = leg_insertion(factors, first_blocks, second_blocks, tensor)
    word = tensor_word([leaf for a in element.argument for leaf in a.leaves()])
    m = Morphism._of(word, word, classical_mode(), [layer])
    terms = [(labels, core @ m) for labels, core in element.terms]
    return SkeinElement(element.backend, element.pattern, element.argument, terms)


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


# ---------------------------------------------------------------------------
# sigma: algebraic and diagrammatic
# ---------------------------------------------------------------------------


def sigma_algebraic(s1: SkeinElement, s2: SkeinElement) -> SigmaResult:
    """[mu - mu^op-]_1 over a deformed backend, as a classical element."""
    if s1.backend.name not in ("epsilon", "quantum") or not s1.backend.is_deformed:
        raise ModeError("sigma needs a first-order deformation (epsilon, or quantum at order >= 2)")
    diff = (mu(s1, s2) - mu_op_minus(s1, s2)).canonical()
    for _, core in diff.terms:
        if not core.part0().is_zero:
            raise AlgebraError("product difference has a nonzero classical part")
    return SigmaResult(diff.part1().canonical(), "algebraic")


def goldman_sites(pattern: SurfacePattern):
    """Interior crossing sites of the product plan: the intra-vertex ones.

    Sites are numbered as in the product plan (argument swaps first); the
    crossings between slot strands of different vertices and the argument
    rearrangements cancel pairwise in the first-order difference and carry
    no interior intersection.
    """
    plan_a, plan_b = product_plan(pattern)
    slots = pattern.all_slots()
    vertex_of = [end.vertex for _, end in slots]
    sites = []
    for idx, (_, tl, tr) in enumerate(plan_b):
        side_l, a = tl
        side_r, b = tr
        if vertex_of[a] == vertex_of[b]:
            sites.append(len(plan_a) + idx)
    return sites


def sigma_goldman(s1: SkeinElement, s2: SkeinElement) -> SigmaResult:
    """Sum over interior intersection sites of t-coupon insertions.

    For each interior crossing of the product plan, the crossing is
    replaced by flip o t (the first-order difference of an overcrossing
    and an undercrossing); everything else is evaluated classically.
    Orientation signs arise from the dual-representation legs of t.
    One forward pass over the step chain carries the plain core and the sum
    of the insertions made so far.
    """
    if s1.backend.name != "classical":
        raise ModeError("the intersection rule runs over the classical backend")
    from .skein_algebra import product_term_chains

    backend = s1.backend
    sites = set(goldman_sites(s1.pattern))

    def plain(n, L, R):
        return backend.braiding(L, R)

    out_terms = []
    for labels, acc, chain in product_term_chains(s1, s2, plain):
        total_core = None
        for sid, context, placed, info in chain:
            if sid in sites:
                t_ins = backend.apply(context, [(placed[0][0], 2, backend.inf_braiding(*info))], acc)
                total_core = t_ins if total_core is None else total_core + t_ins
            if total_core is not None:
                total_core = backend.apply(context, placed, total_core)
            acc = backend.apply(context, placed, acc)
        if total_core is not None and not total_core.is_zero:
            out_terms.append((labels, total_core))
    new_argument = tuple(word_tensor(a, b) for a, b in zip(s1.argument, s2.argument))
    total = SkeinElement(backend, s1.pattern, new_argument, out_terms)
    return SigmaResult(total.canonical(), "goldman")


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def symmetrization_check(s1: SkeinElement, s2: SkeinElement) -> bool:
    """sigma_{X,Y} + E0(beta_0) o sigma_{Y,X} o flip == E0(t-hat) o mu_0."""
    sig12 = sigma_algebraic(s1, s2).element
    sig21 = sigma_algebraic(s2, s1).element
    # pull sigma(Y,X) back along the per-vertex classical flips
    backend = sig21.backend
    context = []
    placed = []
    for v in range(s1.pattern.n_vertices):
        x, y = s1.argument[v], s2.argument[v]
        context.extend([x, y])
        placed.append((2 * v, 2, flip_matrix(x, y, backend.mode)))
    perm = backend.flat_apply(context, placed)
    pulled_terms = [(labels, core @ perm) for labels, core in sig21.terms]
    pulled = SkeinElement(backend, sig21.pattern, sig12.argument, pulled_terms)
    lhs = (sig12 + pulled).canonical()
    prod0 = mu(s1.part0(), s2.part0())
    factors, first, second = interleaved_argument_factors(s1, s2)
    rhs = argument_insertion(prod0, T_TENSOR, factors, first, second).canonical()
    return lhs.equal(rhs)


def biderivation_check(s1: SkeinElement, s2: SkeinElement, s3: SkeinElement) -> bool:
    """Leibniz rule: sigma(mu(a,b), c) = perm*[mu0(sigma(a,c), b0)] + mu0(a0, sigma(b,c))."""
    lhs = sigma_algebraic(mu(s1, s2), s3).element.canonical()
    backend_cl = make_backend("classical")
    sig13 = sigma_algebraic(s1, s3).element
    term1 = mu(sig13, s2.part0())
    # rearrange ((X (x) Z) (x) Y) -> ((X (x) Y) (x) Z) by flipping Z past Y per vertex
    context = []
    placed = []
    for v in range(s1.pattern.n_vertices):
        x, y, z = s1.argument[v], s2.argument[v], s3.argument[v]
        context.extend([x, y, z])
        placed.append((3 * v + 1, 2, flip_matrix(y, z, backend_cl.mode)))
    perm = backend_cl.flat_apply(context, placed)
    rearranged = [(labels, core @ perm) for labels, core in term1.terms]
    target_argument = tuple(
        word_tensor(word_tensor(x, y), z)
        for x, y, z in zip(s1.argument, s2.argument, s3.argument)
    )
    term1 = SkeinElement(backend_cl, s1.pattern, target_argument, rearranged)
    term2 = mu(s1.part0(), sigma_algebraic(s2, s3).element)
    rhs = (term1 + term2.canonical()).canonical()
    return lhs.equal(rhs)


def check_fusion(s1: SkeinElement, s2: SkeinElement, pattern: SurfacePattern, v1: int, v2: int, order: str = "v1v2"):
    """Fusion theorem: sigma_f == (x)0(sigma) o J0 + (mu_f)0 o t-hat_{2,3}.

    s1, s2 live on the unfused two-vertex pattern; returns (ok, defect).
    """
    if pattern.n_vertices != 2 or (v1, v2) not in ((0, 1), (1, 0)):
        raise AlgebraError("fusion check implemented for two-vertex patterns")
    fused = fuse(pattern, v1, v2, order=order)
    f1 = _transplant(s1, fused)
    f2 = _transplant(s2, fused)
    lhs = sigma_algebraic(f1, f2).element

    # right-hand side, first term: the fused image of the unfused sigma,
    # pulled back along the classical middle interchange J0
    sig = sigma_algebraic(s1, s2).element
    sig_f = _transplant(sig, fused)
    backend_cl = make_backend("classical")
    X1, X2 = s1.argument
    Y1, Y2 = s2.argument
    context = [X1, X2, Y1, Y2]
    perm = backend_cl.flat_apply(context, [(1, 2, flip_matrix(X2, Y1, backend_cl.mode))])
    target_argument = (word_tensor(word_tensor(X1, X2), word_tensor(Y1, Y2)),)
    term1 = SkeinElement(
        backend_cl, fused, target_argument, [(labels, core @ perm) for labels, core in sig_f.terms]
    )

    # second term: classical fused product with t on the middle arguments
    prod = mu(_transplant(s1.part0(), fused), _transplant(s2.part0(), fused))
    term2 = argument_insertion(prod, T_TENSOR, context, [1], [2])

    # align lhs argument bracketing with the rhs one
    lhs = SkeinElement(backend_cl, fused, target_argument, list(lhs.terms))
    defect = (lhs - (term1 + term2).canonical()).canonical()
    return defect.is_zero, defect


def _transplant(element: SkeinElement, fused: SurfacePattern) -> SkeinElement:
    """Reinterpret a two-vertex element on the fused one-vertex pattern.

    Fusion concatenates the slot orders, so the boundary word and the core
    matrices are unchanged; the argument becomes the tensor of the two.
    """
    argument = (tensor_word(list(element.argument)),)
    return SkeinElement(element.backend, fused, argument, list(element.terms))


# ---------------------------------------------------------------------------
# Fock-Rosly vertex sum in the holonomy model
# ---------------------------------------------------------------------------


def _end_pairs_tensor(pattern: SurfacePattern, include_diagonal: bool):
    """(i, j, tensor) triples of the ciliated vertex sum.

    i, j are global slot indices of handle ends; the first leg acts on the
    first factor's strand at end i, the second on the second factor's at j.
    t is the symmetric half of the classical r-matrix, r_a its
    antisymmetric half.
    """
    triples = []
    slots = pattern.all_slots()
    for v in range(pattern.n_vertices):
        ends = [i for i, (_, e) in enumerate(slots) if e.vertex == v]
        for i in ends:
            triples.append((i, i, [(c, g1, g2) for c, g1, g2 in TSYM_TENSOR]))
        for a, i in enumerate(ends):
            for j in ends[a + 1 :]:
                triples.append((j, i, [(2 * c, g1, g2) for c, g1, g2 in TSYM_TENSOR]))
        for i in ends:
            for j in ends:
                if i == j and not include_diagonal:
                    continue
                minus_t = [(-c, g1, g2) for c, g1, g2 in TSYM_TENSOR]
                triples.append((i, j, minus_t + list(RA_TENSOR)))
    return triples


def _slot_insertion_product(s1: SkeinElement, s2: SkeinElement, triples) -> SkeinElement:
    """Classical product with boundary-end insertions summed per term pair.

    For each pair of terms the insertions act on the core right after the
    tensor-of-cores step of the product chain, whose rows index the word
    W_f (x) W_g: first legs on W_f slots, second legs on W_g slots, applied
    to the core by `insert_legs` (no matrix on the word is built).
    """
    from .skein_algebra import product_term_chains

    backend = s1.backend
    pattern = s1.pattern

    def plain(n, objL, objR):
        return backend.braiding(objL, objR)

    new_argument = tuple(word_tensor(a, b) for a, b in zip(s1.argument, s2.argument))
    nslots = len(pattern.all_slots())
    pairs = [(i, nslots + j, tensor) for i, j, tensor in triples]
    out_terms = []
    for new_labels, core, chain in product_term_chains(s1, s2, plain):
        objs1 = slot_objects(pattern, [lab.left for lab in new_labels])
        objs2 = slot_objects(pattern, [lab.right for lab in new_labels])
        for sid, context, placed, _info in chain:
            core = backend.apply(context, placed, core)
            if sid is None:
                layers = [insert_legs(objs1 + objs2, pairs, layer) for layer in core.layers]
                core = Morphism._of(core.source, core.target, backend.mode, layers)
        out_terms.append((new_labels, core))
    out = SkeinElement(backend, pattern, new_argument, out_terms)
    return out.canonical()


def fock_rosly_sigma(
    pattern: SurfacePattern, s1: SkeinElement, s2: SkeinElement, include_diagonal: bool = True
) -> SigmaResult:
    """The ciliated vertex sum built from the classical r-matrix.

    Per vertex: t at equal ends, 2t at cilium-ordered pairs (later end on
    the first factor), and -t + r_a over all ordered end pairs (including
    the diagonal by default), realized as boundary-end insertions into the
    classical product.
    """
    if s1.backend.name != "classical":
        raise ModeError("the vertex sum runs over the classical backend")
    if not (same_pattern(pattern, s1.pattern) and same_pattern(pattern, s2.pattern)):
        raise AlgebraError("the elements do not live on the given pattern")
    triples = _end_pairs_tensor(pattern, include_diagonal)
    total = _slot_insertion_product(s1, s2, triples)
    return SigmaResult(total, "fock_rosly")


def forgetful_correction(s1: SkeinElement, s2: SkeinElement) -> SkeinElement:
    """(-t + r_a) acting on the argument sides of the classical product.

    Leg generators act by 0 on one-dimensional argument blocks, so when
    every block has dimension 1 the correction is the empty element and
    the product is not computed.
    """
    factors, first, second = interleaved_argument_factors(s1, s2)
    if all(f.dim == 1 for f in factors):
        s1._check_compatible(s2)
        argument = tuple(word_tensor(a, b) for a, b in zip(s1.argument, s2.argument))
        return SkeinElement(s1.backend, s1.pattern, argument, [])
    prod0 = mu(s1, s2)
    minus_t = [(-c, g1, g2) for c, g1, g2 in TSYM_TENSOR]
    return argument_insertion(prod0, minus_t + list(RA_TENSOR), factors, first, second).canonical()


def fock_rosly_consistency(s1: SkeinElement, s2: SkeinElement, include_diagonal: bool = True) -> bool:
    """fock_rosly_sigma == sigma_algebraic + (-t + r_a) on the arguments."""
    fr = fock_rosly_sigma(s1.pattern, s1, s2, include_diagonal)
    ep = make_backend("epsilon")
    sig = sigma_algebraic(lift_element(s1, ep), lift_element(s2, ep)).element
    rhs = (sig + forgetful_correction(s1, s2)).canonical()
    return fr.element.equal(rhs)
