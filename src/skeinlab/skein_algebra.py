"""Internal skein-algebra elements over a surface pattern and their product.

An element of the algebra at argument X = (X_v) is a finite sum of terms
(handle labels, core), where the labels are simple objects and the core is
a morphism from the tensor of the arguments to the boundary word read off
the pattern: each handle contributes its label at its +-end slot and the
dual at its --end slot, slots ordered vertex by vertex along the cilia.

The product of two elements places the second element's strands beside the
first's at every slot (second to the right at +-ends, mirrored at --ends)
and realizes the interleaving by backend braidings; composite handle
labels are immediately reduced to simples by Clebsch-Gordan insertion.
All crossings of the product are enumerated in a deterministic plan, which
the diagrammatic first-order machinery reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlgebraError, ModeError
from .polynomials import SL2Poly, sl2_rep_entries
from .ribbon_backend import (
    BackendSpec,
    Morphism,
    SimpleObj,
    TensorObj,
    UNIT,
    dual,
    left_nested,
    make_backend,
    simple,
    solve_series,
    tensor_word,
    to_fractions,
    word_tensor,
)
from .surface import SurfacePattern


def slot_objects(pattern: SurfacePattern, labels):
    """Boundary slot objects in global cilium order for the given labels."""
    objs = []
    for hi, end in pattern.all_slots():
        lab = labels[hi]
        objs.append(lab if end.sign > 0 else dual(lab))
    return objs


def same_pattern(p: SurfacePattern, q: SurfacePattern) -> bool:
    """Whether two patterns have the same vertices and handles; fusion history aside."""
    return (p.n_vertices, p.handles) == (q.n_vertices, q.handles)


def _source_word(argument):
    return tensor_word([leaf for arg in argument for leaf in arg.leaves()])


@dataclass
class SkeinElement:
    backend: BackendSpec
    pattern: SurfacePattern
    argument: tuple  # one ObjectExpr per vertex
    terms: list  # list of (labels: tuple[ObjectExpr], core: Morphism)

    def __post_init__(self):
        self.argument = tuple(self.argument)
        if len(self.argument) != self.pattern.n_vertices:
            raise AlgebraError("one argument object per marked point is required")

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other: "SkeinElement"):
        if self.backend is not other.backend and (
            self.backend.name != other.backend.name or self.backend.mode != other.backend.mode
        ):
            raise AlgebraError("elements live over different backends")
        if not same_pattern(self.pattern, other.pattern):
            raise AlgebraError("elements live on different patterns")

    def _flat_argument(self):
        return tuple(left_nested(a) for a in self.argument)

    def __add__(self, other: "SkeinElement") -> "SkeinElement":
        self._check_compatible(other)
        if self._flat_argument() != other._flat_argument():
            raise AlgebraError("cannot add elements with different arguments")
        return SkeinElement(
            self.backend, self.pattern, self.argument, list(self.terms) + list(other.terms)
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, r) -> "SkeinElement":
        return SkeinElement(
            self.backend,
            self.pattern,
            self.argument,
            [(labels, core.scale(r)) for labels, core in self.terms],
        )

    @property
    def is_zero(self):
        return all(core.is_zero for _, core in self.canonical().terms)

    # -- canonical form -------------------------------------------------------

    def canonical(self) -> "SkeinElement":
        """Reduce all labels to simples, merge equal label tuples, sort."""
        terms = list(self.terms)
        out = []
        while terms:
            labels, core = terms.pop()
            if core.is_zero:
                continue
            hi = next((i for i, lab in enumerate(labels) if not isinstance(lab, SimpleObj)), None)
            if hi is None:
                out.append((labels, core))
                continue
            terms.extend(self._reduce_handle(labels, core, hi))
        merged = {}
        for labels, core in out:
            key = tuple(lab.spin for lab in labels)
            if key in merged:
                merged[key] = (labels, merged[key][1] + core)
            else:
                merged[key] = (labels, core)
        final = [(labels, core) for key, (labels, core) in sorted(merged.items()) if not core.is_zero]
        return SkeinElement(self.backend, self.pattern, self.argument, final)

    def _reduce_handle(self, labels, core, hi):
        lab = labels[hi]
        if not isinstance(lab, TensorObj) or not (
            isinstance(lab.left, SimpleObj) and isinstance(lab.right, SimpleObj)
        ):
            raise AlgebraError(f"cannot reduce handle label {lab}")
        backend = self.backend
        slots = self.pattern.all_slots()
        pos_plus = next(i for i, (h, e) in enumerate(slots) if h == hi and e.sign > 0)
        pos_minus = next(i for i, (h, e) in enumerate(slots) if h == hi and e.sign < 0)
        context = slot_objects(self.pattern, labels)
        comps = _cg_with_transpose(backend, lab.left, lab.right)
        results = []
        for target, project, embed_t in comps:
            new_labels = list(labels)
            new_labels[hi] = target
            placed = [(pos_plus, 1, project), (pos_minus, 1, embed_t)]
            results.append((tuple(new_labels), backend.apply(context, placed, core)))
        return results

    def equal(self, other: "SkeinElement") -> bool:
        """Exact equality of canonical forms.

        Over the classical backend the holonomy realizations are compared
        as well, as an independent cross-check of the canonicalization.
        """
        self._check_compatible(other)
        if self._flat_argument() != other._flat_argument():
            return False
        a, b = self.canonical(), other.canonical()
        keys_a = [tuple(l.spin for l in labels) for labels, _ in a.terms]
        keys_b = [tuple(l.spin for l in labels) for labels, _ in b.terms]
        matrix_equal = keys_a == keys_b and all(
            ca == cb for (_, ca), (_, cb) in zip(a.terms, b.terms)
        )
        if self.backend.name == "classical":
            hol_equal = holonomy_evaluate(a) == holonomy_evaluate(b)
            if hol_equal != matrix_equal:
                raise AlgebraError("canonical form and holonomy oracle disagree")
        return matrix_equal

    # -- truncation calculus ----------------------------------------------------

    def part0(self) -> "SkeinElement":
        cl = make_backend("classical")
        return SkeinElement(
            cl, self.pattern, self.argument, [(labels, core.part0()) for labels, core in self.terms]
        )

    def part1(self) -> "SkeinElement":
        cl = make_backend("classical")
        return SkeinElement(
            cl, self.pattern, self.argument, [(labels, core.part1()) for labels, core in self.terms]
        )

    def to_json(self):
        return {
            "pattern": self.pattern.to_json(),
            "argument": [a.to_json() for a in self.argument],
            "backend": self.backend.name,
            "order": self.backend.mode.order,
            "terms": [
                {"labels": [str(lab) for lab in labels], "core": core.to_json()}
                for labels, core in self.terms
            ],
        }

    @staticmethod
    def from_json(data) -> "SkeinElement":
        """Inverse of to_json.  Each core must be over the backend's ring, map
        the argument word to the boundary word of its labels and lie in the
        span of `element_hom_basis`; anything else raises."""
        from .ribbon_backend import object_from_json, parse_label

        backend = make_backend(data["backend"], data.get("order", 3))
        pattern = SurfacePattern.from_json(data["pattern"])
        argument = tuple(object_from_json(a) for a in data["argument"])
        element = SkeinElement(backend, pattern, argument, [])
        source = _source_word(argument)
        for n, t in enumerate(data["terms"]):
            labels = tuple(simple(parse_label(lab)) for lab in t["labels"])
            core = Morphism.from_json(t["core"])
            where = f"term {n} (labels {', '.join(map(str, labels))})"
            if len(labels) != pattern.n_handles:
                raise AlgebraError(f"{where}: the pattern has {pattern.n_handles} handles")
            if core.mode != backend.mode:
                raise ModeError(f"{where}: core is over {core.mode}, the backend over {backend.mode}")
            target = tensor_word(slot_objects(pattern, labels))
            if core.source.leaves() != source.leaves() or core.target.leaves() != target.leaves():
                raise AlgebraError(
                    f"{where}: core {core.source} -> {core.target} does not map the argument "
                    f"{source} to the boundary word {target}"
                )
            basis = element_hom_basis(backend, pattern, argument, labels)
            try:
                _coordinates(core, basis)
            except AlgebraError:
                raise AlgebraError(f"{where}: core does not lie in the invariant Hom space") from None
            element.terms.append((labels, core))
        return element


def _cg_with_transpose(backend: BackendSpec, b: SimpleObj, c: SimpleObj):
    key = ("cgT", b.spin, c.spin)

    def build():
        comps = backend.cg_decompose(b, c)
        return [(target, project, backend.transpose(embed)) for target, embed, project in comps]

    return backend._cached(key, build)


# ---------------------------------------------------------------------------
# Elements: unit, traces, random
# ---------------------------------------------------------------------------


def unit_element(backend: BackendSpec, pattern: SurfacePattern) -> SkeinElement:
    """The unit: all handles labeled by the trivial simple, scalar core one."""
    labels = tuple(simple(0) for _ in pattern.handles)
    target = tensor_word(slot_objects(pattern, labels))
    core = Morphism.from_rows(UNIT, target, backend.mode, [[1]])
    argument = tuple(UNIT for _ in range(pattern.n_vertices))
    return SkeinElement(backend, pattern, argument, [(labels, core)])


def loop_element(backend: BackendSpec, pattern: SurfacePattern, loops, spin: int = 1) -> SkeinElement:
    """Trace-of-holonomy generator along the given handle loops (classical).

    `loops` is a list of handle-index sequences; the element is the product
    of the trace functions of the corresponding loop holonomies, with every
    unused handle labeled trivially.  Each loop visits its handles once.
    """
    if backend.name != "classical":
        raise ModeError("loop generators are built over the classical backend")
    used = [h for loop in loops for h in loop]
    if len(set(used)) != len(used):
        raise AlgebraError("loops must not share handles")
    labels = [simple(0)] * pattern.n_handles
    for loop in loops:
        for h in loop:
            labels[h] = simple(spin)
    labels = tuple(labels)
    slots = pattern.all_slots()
    objs = slot_objects(pattern, labels)
    dims = [o.dim for o in objs]
    d = simple(spin).dim
    # index of each handle's +/- slot
    # enumerate index tuples loop by loop: the + slot of handle m carries
    # the next handle's running index, the - slot its own, so the holonomy
    # pairing contracts to tr(rho(g_{h1}) rho(g_{h2}) ...)
    from itertools import product as iproduct

    all_assignments = [{}]
    for loop in loops:
        r = len(loop)
        new = []
        for base in all_assignments:
            for tup in iproduct(range(d), repeat=r):
                ass = dict(base)
                for m, h in enumerate(loop):
                    i_own = tup[m]
                    i_next = tup[(m + 1) % r]
                    ass[h] = (i_next, i_own)
                new.append(ass)
        all_assignments = new
    one = Fraction(1)
    raw = {}
    for ass in all_assignments:
        idx = 0
        for pos in range(len(objs)):
            h, e = slots[pos]
            if labels[h].spin == 0:
                k = 0
            else:
                k = ass[h][0] if e.sign > 0 else ass[h][1]
            idx = idx * dims[pos] + k
        raw[(idx, 0)] = raw.get((idx, 0), Fraction(0)) + one
    target = tensor_word(objs)
    core = Morphism(UNIT, target, backend.mode, [raw])
    argument = tuple(UNIT for _ in range(pattern.n_vertices))
    return SkeinElement(backend, pattern, argument, [(labels, core)])


def element_hom_basis(backend: BackendSpec, pattern: SurfacePattern, argument, labels):
    """Basis of the coefficient module at one label tuple.

    A core intertwines one copy of the backend's symmetry per marked point,
    so the module is the tensor product over vertices of the per-vertex
    invariant Hom spaces Hom(X_v, W_v).
    """
    from itertools import product as iproduct

    objs = slot_objects(pattern, labels)
    per_vertex = []
    pos = 0
    for v in range(pattern.n_vertices):
        k = len(pattern.slots_at(v))
        w_v = tensor_word(objs[pos : pos + k])
        x_v = left_nested(argument[v])
        per_vertex.append(backend.invariant_hom_basis(x_v, w_v))
        pos += k
    source = _source_word(argument)
    target = tensor_word(objs)
    basis = []
    for combo in iproduct(*per_vertex):
        m = None
        for b in combo:
            m = b if m is None else m.tensor(b)
        if m is None:
            m = Morphism.identity(UNIT, backend.mode)
        basis.append(m.retyped(source=source, target=target))
    return basis


def random_element(
    backend: BackendSpec,
    pattern: SurfacePattern,
    rng,
    label_pool=(0, 1, 1, 2),
    argument=None,
) -> SkeinElement:
    """A random element: random simple labels and a random invariant core.

    Label tuples with an empty coefficient module (parity mismatch with
    the argument) are redrawn.
    """
    if argument is None:
        argument = tuple(UNIT for _ in range(pattern.n_vertices))
    argument = tuple(argument)
    for _ in range(60):
        labels = tuple(simple(rng.choice(label_pool)) for _ in pattern.handles)
        basis = element_hom_basis(backend, pattern, argument, labels)
        if basis:
            break
    else:
        raise AlgebraError("no labels from the pool admit a nonzero element")
    core = None
    while core is None or core.is_zero:
        core = basis[0].scale(0)
        for b in basis:
            core = core + b.scale(Fraction(rng.randint(-3, 3)))
    return SkeinElement(backend, pattern, argument, [(labels, core)])


def lift_element(element: SkeinElement, backend: BackendSpec) -> SkeinElement:
    """Lift a classical element along part0 into a deformed backend.

    For the classically-structured backends the cores embed unchanged; for
    the quantum backend each core is rewritten in the lifted Hom basis with
    the same rational coordinates.
    """
    if element.backend.name != "classical":
        raise ModeError("only classical elements are lifted")
    if backend.name in ("epsilon", "drinfeld"):
        terms = [(labels, core.convert(backend.mode)) for labels, core in element.terms]
        return SkeinElement(backend, element.pattern, element.argument, terms)
    if backend.name != "quantum":
        raise ModeError(f"cannot lift into {backend.name}")
    cl = make_backend("classical")
    terms = []
    for labels, core in element.terms:
        cl_basis = element_hom_basis(cl, element.pattern, element.argument, labels)
        q_basis = element_hom_basis(backend, element.pattern, element.argument, labels)
        lifted = Morphism.zero(core.source, core.target, backend.mode)
        for n, x in _coordinates(core, cl_basis)[0].items():
            lifted = lifted + q_basis[n].scale(x)
        terms.append((labels, lifted))
    return SkeinElement(backend, element.pattern, element.argument, terms)


def _coordinates(m: Morphism, basis):
    """Exact coordinates of m in a Hom basis over the backend ring.

    Returns one sparse {basis index: rational} vector per order, with
    m = sum_k sum_b param^k coords[k][b] basis[b].
    """
    layers = [
        {(p, n): v for n, b in enumerate(basis) for p, v in to_fractions(b.layers[k]).items()}
        for k in range(m.mode.order)
    ]
    _, (coords,) = solve_series(layers, len(basis), [[to_fractions(layer) for layer in m.layers]])
    if coords is None:
        raise AlgebraError("morphism does not lie in the invariant Hom space")
    return coords


# ---------------------------------------------------------------------------
# The product
# ---------------------------------------------------------------------------


def _plan_swaps(tags, key):
    """Adjacent-transposition plan bubble-sorting `tags` by `key`.

    Returns (plan, sorted_tags) where plan lists (position, left_tag,
    right_tag) in execution order; each pair of blocks crosses at most once.
    """
    work = list(tags)
    plan = []
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            if key(work[i]) > key(work[i + 1]):
                plan.append((i, work[i], work[i + 1]))
                work[i], work[i + 1] = work[i + 1], work[i]
                changed = True
    return plan, work


def product_plan(pattern: SurfacePattern):
    """The deterministic crossing plan of the product on this pattern.

    Stage A reorders argument blocks from (X_1, Y_1, ..., X_k, Y_k) to
    (X_1..X_k, Y_1..Y_k); stage B reorders boundary slot blocks from
    (all of s1's, all of s2's) to the per-slot interleaving, second
    element's strand right of the first's at +-ends and mirrored at --ends.
    """
    k = pattern.n_vertices
    arg_tags = []
    for v in range(k):
        arg_tags.extend([("x", v), ("y", v)])
    plan_a, _ = _plan_swaps(arg_tags, key=lambda t: (0 if t[0] == "x" else 1, t[1]))
    slots = pattern.all_slots()
    n = len(slots)
    slot_tags = [("f", i) for i in range(n)] + [("g", i) for i in range(n)]

    def slot_key(tag):
        side, i = tag
        _, end = slots[i]
        if end.sign > 0:
            return (i, 0 if side == "f" else 1)
        return (i, 0 if side == "g" else 1)

    plan_b, _ = _plan_swaps(slot_tags, key=slot_key)
    return plan_a, plan_b


def _replay_steps(blocks, plan, swap_for_site, site_offset):
    """Yield (site_id, context, placed, (objL, objR)) per swap."""
    work = list(blocks)
    for n, (i, tl, tr) in enumerate(plan):
        if work[i][0] != tl or work[i + 1][0] != tr:
            raise AlgebraError("product plan out of sync")
        objL, objR = work[i][1], work[i + 1][1]
        m = swap_for_site(site_offset + n, objL, objR)
        yield site_offset + n, [o for _, o in work], [(i, 2, m)], (objL, objR)
        work[i], work[i + 1] = work[i + 1], work[i]


def product_term_chains(s1: SkeinElement, s2: SkeinElement, swap_for_site):
    """Per term pair: the composite labels, the start core and the step chain.

    The chain lists (site_id, context, placed, info) in application order;
    site_id and info are None for the tensor-of-cores step.  Applying the
    steps in turn to the start core, the identity of the interleaved
    argument word, with `BackendSpec.apply` gives the term core of the
    product.
    """
    backend = s1.backend
    pattern = s1.pattern
    arguments = [a for pair in zip(s1.argument, s2.argument) for a in pair]
    start = Morphism.identity(_source_word(arguments), backend.mode)
    plan_a, plan_b = product_plan(pattern)
    slots = pattern.all_slots()
    for labels1, f in s1.terms:
        for labels2, g in s2.terms:
            chain = []
            arg_blocks = []
            for v in range(pattern.n_vertices):
                arg_blocks.append((("x", v), s1.argument[v]))
                arg_blocks.append((("y", v), s2.argument[v]))
            chain.extend(_replay_steps(arg_blocks, plan_a, swap_for_site, 0))
            chain.append((None, [f.source, g.source], [(0, 1, f), (1, 1, g)], None))
            objs1 = slot_objects(pattern, labels1)
            objs2 = slot_objects(pattern, labels2)
            slot_blocks = [(("f", i), objs1[i]) for i in range(len(slots))] + [
                (("g", i), objs2[i]) for i in range(len(slots))
            ]
            chain.extend(_replay_steps(slot_blocks, plan_b, swap_for_site, len(plan_a)))
            new_labels = tuple(TensorObj(l1, l2) for l1, l2 in zip(labels1, labels2))
            yield new_labels, start, chain


def mu(s1: SkeinElement, s2: SkeinElement, positive: bool = True) -> SkeinElement:
    """The stacking product E(X) (x) E(Y) -> E(X (x) Y).

    With positive=True the boundary-interleaving crossings (stage B) are
    positive braidings and the argument-side crossings at the marked
    points (stage A) are negative; this is the convention under which the
    disk algebra satisfies sigma = mu0 o t-hat on the second components.
    positive=False is the global mirror.
    """
    s1._check_compatible(s2)
    backend = s1.backend
    pattern = s1.pattern
    n_arg_sites = len(product_plan(pattern)[0])

    def swap_for_site(n, objL, objR):
        pos = positive if n >= n_arg_sites else not positive
        if pos:
            return backend.braiding(objL, objR)
        return backend.braiding_inv(objR, objL)

    new_argument = tuple(
        word_tensor(a, b) for a, b in zip(s1.argument, s2.argument)
    )
    out_terms = []
    for new_labels, core, chain in product_term_chains(s1, s2, swap_for_site):
        for _, context, placed, _info in chain:
            core = backend.apply(context, placed, core)
        out_terms.append((new_labels, core))
    out = SkeinElement(backend, pattern, new_argument, out_terms)
    return out.canonical()


def mu_op_minus(s1: SkeinElement, s2: SkeinElement) -> SkeinElement:
    """The opposite-braided product: mu with every crossing undercrossed.

    Geometrically this is the product with the first element's strands
    passing under the second's everywhere, the form the first-order
    telescoping argument subtracts from mu; the braiding-pullback
    presentation of the same map differs from this normal form only by
    isotopies which the matrix model has already evaluated away.
    """
    return mu(s1, s2, positive=False)


def action(x: Morphism, vertex: int, s: SkeinElement) -> SkeinElement:
    """Contravariant action at a marked point: precompose with x there."""
    if x.target != s.argument[vertex]:
        raise AlgebraError(
            f"action target {x.target} does not match argument {s.argument[vertex]}"
        )
    backend = s.backend
    context = list(s.argument)
    placed = [(vertex, 1, x)]
    m = backend.flat_apply(context, placed)
    new_argument = tuple(
        x.source if v == vertex else a for v, a in enumerate(s.argument)
    )
    terms = [(labels, core @ m) for labels, core in s.terms]
    return SkeinElement(backend, s.pattern, new_argument, terms)


# ---------------------------------------------------------------------------
# Holonomy oracle (classical backend)
# ---------------------------------------------------------------------------


def holonomy_evaluate(s: SkeinElement):
    """Realize a classical element as polynomial functions on SL2^handles.

    Returns a list of SL2Poly, one per basis vector of the argument word:
    the matrix coefficient functions of the element.  The --end slot index
    pairs with the rho(g)-translate of the +-end slot index.
    """
    if s.backend.name != "classical":
        raise ModeError("holonomy evaluation needs the classical backend")
    s = s.canonical()
    n = s.pattern.n_handles
    slots = s.pattern.all_slots()
    src_dim = _source_word(s.argument).dim
    out = [SL2Poly.constant(n, 0) for _ in range(src_dim)]
    rep_cache = {}
    for labels, core in s.terms:
        objs = slot_objects(s.pattern, labels)
        dims = [o.dim for o in objs]
        for h, lab in enumerate(labels):
            if (lab.spin, h) not in rep_cache:
                rep_cache[(lab.spin, h)] = sl2_rep_entries(lab.spin, n, h)
        den, constant = core.layers[0]
        for (i, j), v in constant.items():
            # decode the boundary index i into slot indices
            idx = []
            rest = i
            for d in reversed(dims):
                idx.append(rest % d)
                rest //= d
            idx.reverse()
            plus = {}
            minus = {}
            for pos, (h, e) in enumerate(slots):
                if e.sign > 0:
                    plus[h] = idx[pos]
                else:
                    minus[h] = idx[pos]
            poly = SL2Poly.constant(n, Fraction(v, den))
            for h, lab in enumerate(labels):
                rep = rep_cache[(lab.spin, h)]
                poly = poly * rep[minus[h]][plus[h]]
            out[j] = out[j] + poly
    return out
