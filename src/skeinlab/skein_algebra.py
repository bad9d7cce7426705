"""Internal skein-algebra elements over a surface pattern and their product.

An element of the algebra at argument X = (X_v) is a finite sum of terms
(handle labels, core), where the labels are simple objects and the core is
a morphism from the tensor of the arguments to the boundary word read off
the pattern: each handle contributes its label at its +-end slot and the
dual at its --end slot, slots ordered vertex by vertex along the cilia.

The product of two elements places the second element's strands beside the
first's at every slot (second to the right at +-ends, mirrored at --ends,
`strand_positions`) and realizes the interleaving by backend braidings,
each acting at the strands' fixed positions before one row relabelling
(`BackendSpec.sort_blocks`); composite handle labels are then reduced to
simples by Clebsch-Gordan insertion.  `product_terms` is the one walk over
a product's crossings; the first-order rules insert legs on its terms.
`canonical()` sums equal label tuples before it reduces them, one pass per
composite handle (`BackendSpec.cg_reduce`).  Cores are handled only through
`Morphism` and backend operations; their layers stay inside `ribbon_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .errors import AlgebraError, LabelError, ModeError
from .polynomials import SL2Poly, sl2_rep_entries
from .ribbon_backend import (
    BackendSpec,
    Morphism,
    SimpleObj,
    TensorObj,
    UNIT,
    coordinates,
    dual,
    flat_word,
    make_backend,
    object_from_json,
    parse_label,
    simple,
    tensor_word,
    word_tensor,
)
from .surface import SurfacePattern


def slot_objects(pattern: SurfacePattern, labels):
    """Boundary slot objects in global cilium order for the given labels."""
    objs = []
    for hi, end in pattern.slots:
        lab = labels[hi]
        objs.append(lab if end.sign > 0 else dual(lab))
    return objs


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
        if self.pattern != other.pattern:
            raise AlgebraError("elements live on different patterns")

    def _flat_argument(self):
        return tuple(flat_word([a]) for a in self.argument)

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

    def precompose(self, m: Morphism, argument=None) -> "SkeinElement":
        """Every core precomposed with `m`, a map onto the flat argument word.

        `argument` (by default the element's own) is the new argument, whose
        flat word must be the source of `m`.
        """
        argument = self.argument if argument is None else tuple(argument)
        if m.target != flat_word(self.argument) or m.source != flat_word(argument):
            raise AlgebraError(f"{m!r} does not map {flat_word(argument)} onto the argument word")
        terms = [(labels, core @ m) for labels, core in self.terms]
        return SkeinElement(self.backend, self.pattern, argument, terms)

    @property
    def is_zero(self):
        return all(core.is_zero for _, core in self.canonical().terms)

    # -- canonical form -------------------------------------------------------

    def canonical(self) -> "SkeinElement":
        """Reduce all labels to simples, merge equal label tuples, sort.

        Equal tuples, composite ones included, are summed before they are
        reduced, from the most composite labels down, so each is reduced once."""
        groups, todo = {}, self.terms
        for level in range(self.pattern.n_handles, -1, -1):
            for labels, core in todo:
                groups[labels] = groups[labels] + core if labels in groups else core
            todo = []
            for labels in [l for l in groups if level and sum(not isinstance(x, SimpleObj) for x in l) == level]:
                core = groups.pop(labels)
                if not core.is_zero:
                    hi = next(i for i, lab in enumerate(labels) if not isinstance(lab, SimpleObj))
                    todo += self._reduce_handle(labels, core, hi)
        final = sorted((tuple(lab.spin for lab in labels), labels, core) for labels, core in groups.items())
        return SkeinElement(self.backend, self.pattern, self.argument, [t[1:] for t in final if not t[2].is_zero])

    def _reduce_handle(self, labels, core, hi):
        """`core` with handle hi's composite label reduced to each simple V_k (`BackendSpec.cg_reduce`)."""
        lab = labels[hi]
        if not (isinstance(lab, TensorObj) and isinstance(lab.left, SimpleObj) and isinstance(lab.right, SimpleObj)):
            raise AlgebraError(f"cannot reduce handle label {lab}")
        slot = self.pattern.slot_of
        reduced = self.backend.cg_reduce(core, slot_objects(self.pattern, labels), slot[hi, 1], slot[hi, -1])
        return [(labels[:hi] + (target,) + labels[hi + 1 :], m) for target, m in reduced]

    def equal(self, other: "SkeinElement") -> bool:
        """Exact equality of canonical forms.

        Over the classical backend, two canonical forms that differ are
        cross-checked by their holonomy realizations: equal holonomies raise
        AlgebraError, since distinct canonical forms are distinct functions
        on SL2^handles.  Equal forms need no evaluation: `holonomy_evaluate`
        is a pure function of the pattern, the label tuples, the cores and
        the dimension of the flat argument word.  Both sides share the
        pattern and the flat argument before the forms are compared, and
        equal forms share the labels and the cores, so their holonomies are
        equal and the cross-check cannot fire.
        """
        self._check_compatible(other)
        if self._flat_argument() != other._flat_argument():
            return False
        a, b = self.canonical(), other.canonical()
        keys_a = [tuple(l.spin for l in labels) for labels, _ in a.terms]
        keys_b = [tuple(l.spin for l in labels) for labels, _ in b.terms]
        if keys_a == keys_b and all(ca == cb for (_, ca), (_, cb) in zip(a.terms, b.terms)):
            return True
        if self.backend.name == "classical" and holonomy_evaluate(a) == holonomy_evaluate(b):
            raise AlgebraError("canonical form and holonomy oracle disagree")
        return False

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
        backend = make_backend(data["backend"], data.get("order", 3))
        order = data.get("order", backend.mode.order)
        if type(order) is not int or order != backend.mode.order:
            raise ModeError(f"the {backend.name} backend's ring has order {backend.mode.order}, got {order!r}")
        pattern = SurfacePattern.from_json(data["pattern"])
        argument = tuple(object_from_json(a) for a in data["argument"])
        element = SkeinElement(backend, pattern, argument, [])
        source = flat_word(argument)
        for n, t in enumerate(data["terms"]):
            if not isinstance(t["labels"], list):
                raise LabelError(f"term {n}: labels must be a list of strings, got {t['labels']!r}")
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
            try:
                coordinates(core, element_hom_basis(backend, pattern, argument, labels))
            except AlgebraError:
                raise AlgebraError(f"{where}: core does not lie in the invariant Hom space") from None
            except (KeyError, ValueError, TypeError, IndexError) as exc:  # an engine fault, not bad input
                raise RuntimeError(f"{where}: the span check failed") from exc
            element.terms.append((labels, core))
        return element


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
    Each step h -> h' of a loop is one coev cup from the +-end slot of h to
    the --end slot of h', so the holonomy pairing contracts to
    tr(rho(g_{h1}) rho(g_{h2}) ...); an unused handle is a spin-0 loop of
    its own.  `BackendSpec.sort_blocks` moves the cups' strands into slot
    order: the crossings are flips, so it only relabels rows.
    """
    if backend.name != "classical":
        raise ModeError("loop generators are built over the classical backend")
    used = [h for loop in loops for h in loop]
    if len(set(used)) != len(used):
        raise AlgebraError("loops must not share handles")
    labels = [simple(0)] * pattern.n_handles
    for h in used:
        labels[h] = simple(spin)
    labels = tuple(labels)
    steps = [(h, loop[(m + 1) % len(loop)]) for loop in loops for m, h in enumerate(loop)]
    steps += [(h, h) for h in range(pattern.n_handles) if h not in used]
    slot = pattern.slot_of
    blocks = []  # each cup's two strands, tagged by their slots
    for h, h2 in steps:
        blocks += [(slot[h, 1], labels[h]), (slot[h2, -1], dual(labels[h]))]
    cups = backend.flat_apply([], [(0, 0, backend.coev(labels[h])) for h, _ in steps])
    core = backend.sort_blocks(blocks, True, cups)
    argument = tuple(UNIT for _ in range(pattern.n_vertices))
    return SkeinElement(backend, pattern, argument, [(labels, core)])


def element_hom_basis(backend: BackendSpec, pattern: SurfacePattern, argument, labels):
    """Basis of the coefficient module at one label tuple.

    A core intertwines one copy of the backend's symmetry per marked point,
    so the module is the tensor product over vertices of the per-vertex
    invariant Hom spaces Hom(X_v, W_v).
    """
    objs = slot_objects(pattern, labels)
    per_vertex = []
    pos = 0
    for v in range(pattern.n_vertices):
        k = len(pattern.slots_at(v))
        w_v = tensor_word(objs[pos : pos + k])
        x_v = flat_word([argument[v]])
        per_vertex.append(backend.invariant_hom_basis(x_v, w_v))
        pos += k
    source = flat_word(argument)
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
        for b, c in zip(q_basis, coordinates(core, cl_basis)):
            if c.coeffs[0]:
                lifted = lifted + b.scale(c.coeffs[0])
        terms.append((labels, lifted))
    return SkeinElement(backend, element.pattern, element.argument, terms)


# ---------------------------------------------------------------------------
# The product
# ---------------------------------------------------------------------------


def strand_positions(pattern: SurfacePattern):
    """Per slot, the positions of the first and the second factor's strands in a product's boundary word.

    The two strands at slot i take positions 2i and 2i + 1: the first
    factor's strand sits left at +-ends and right at --ends.
    """
    return [(2 * i, 2 * i + 1) if end.sign > 0 else (2 * i + 1, 2 * i) for i, (_, end) in enumerate(pattern.slots)]


def product_argument(s1: SkeinElement, s2: SkeinElement):
    """The argument of the product: X_v (x) Y_v at every marked point."""
    return tuple(word_tensor(a, b) for a, b in zip(s1.argument, s2.argument))


def product_terms(s1: SkeinElement, s2: SkeinElement, positive: bool = True) -> SkeinElement:
    """The terms of mu(s1, s2, positive) before `canonical()`, one per term pair.

    Stage A reorders the argument blocks from (X_1, Y_1, ..., X_k, Y_k) to
    (X_1..X_k, Y_1..Y_k), once, on the identity of the interleaved argument
    word.  Each term then tensors the two cores (the only `apply`) and, in
    stage B, moves the boundary strands from (all of s1's, all of s2's) to
    their `strand_positions`.  Both stages are one `BackendSpec.sort_blocks`
    on every backend.  Labels are the composite pairs.  Operands over
    different backends or on different patterns are refused here.
    """
    s1._check_compatible(s2)
    backend, pattern = s1.backend, s1.pattern

    pairs = zip(s1.argument, s2.argument)
    arg_blocks = [((side, v), a) for v, pair in enumerate(pairs) for side, a in enumerate(pair)]
    start = Morphism.identity(flat_word([a for _, a in arg_blocks]), backend.mode)
    start = backend.sort_blocks(arg_blocks, not positive, start)
    places = strand_positions(pattern)
    terms = []
    for labels1, f in s1.terms:
        for labels2, g in s2.terms:
            blocks = [(places[i][0], o) for i, o in enumerate(slot_objects(pattern, labels1))]
            blocks += [(places[i][1], o) for i, o in enumerate(slot_objects(pattern, labels2))]
            core = backend.apply([f.source, g.source], [(0, 1, f), (1, 1, g)], start)
            labels = tuple(TensorObj(l1, l2) for l1, l2 in zip(labels1, labels2))
            terms.append((labels, backend.sort_blocks(blocks, positive, core)))
    return SkeinElement(backend, pattern, product_argument(s1, s2), terms)


def mu(s1: SkeinElement, s2: SkeinElement, positive: bool = True) -> SkeinElement:
    """The stacking product E(X) (x) E(Y) -> E(X (x) Y).

    With positive=True the boundary-interleaving crossings (stage B) are
    positive braidings and the argument-side crossings at the marked
    points (stage A) are negative; this is the convention under which the
    disk algebra satisfies sigma = mu0 o t-hat on the second components.
    positive=False is the global mirror.
    """
    return product_terms(s1, s2, positive).canonical()


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
    m = s.backend.flat_apply(list(s.argument), [(vertex, 1, x)])
    return s.precompose(m, (x.source if v == vertex else a for v, a in enumerate(s.argument)))


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
    src_dim = flat_word(s.argument).dim
    out = [SL2Poly.constant(n, 0) for _ in range(src_dim)]
    for labels, core in s.terms:
        dims = [o.dim for o in slot_objects(s.pattern, labels)]
        for (i, j), v in core.entries.items():
            digits = {}  # the boundary index i as one index per (handle, end sign)
            for (h, e), d in zip(reversed(s.pattern.slots), reversed(dims)):
                i, digits[h, e.sign] = divmod(i, d)
            poly = SL2Poly.constant(n, v.coeffs[0])
            for h, lab in enumerate(labels):
                poly = poly * sl2_rep_entries(lab.spin, n, h)[digits[h, -1]][digits[h, 1]]
            out[j] = out[j] + poly
    return out
