"""Concrete ribbon-category backends on sl2.

Four backends share one interface: objects are parenthesized tensor words
over simple labels and their duals, morphisms are matrices over the
backend's truncated coefficient ring, M = sum_k param^k M_k, stored as
per-order sparse integer matrices over a common denominator: each layer M_k
is one canonical pair (den, {(i, j): int}) with den > 0 and
gcd(den, *entries) == 1, so equal matrices have equal layers.  The kernels
multiply and add integers and normalise once per result; Fraction appears
only at the boundaries (construction and JSON, and the ScalarSeries entry
view).

  ClassicalSl2   symmetric flip braiding, trivial twist and associator
  EpsilonSl2     braiding flip(1 + e*r) with r = e(x)f + h(x)h/4
  QuantumSl2     braiding from the truncated universal R-matrix, q = exp(h/2)
  DrinfeldSl2    braiding flip*exp(h*t/2), twist exp(h*C/2), associator
                 1 + h^2/24 [t12, t23] (order <= 3)

All four backends share one twist: exp(param*C/2), the scalar
exp(param n(n+2)/4) on V_n and its dual, and on a tensor word the
balancing axiom theta_{a@b} = c_{b,a} c_{a,b} (theta_a (x) theta_b).  All
but the quantum backend share one braiding formula, flip o
exp(rate*param*Omega), with (Omega, rate) = (r, 1) on epsilon and (t, 1/2)
otherwise.  The quantum braiding is flip o R for the truncated universal
R-matrix R.  The truncation does the rest: the order-1 exponential is the
identity on classical, and e^2 = 0 makes exp(e*r) = 1 + e*r.  On every
backend the inverse braiding and the inverse twist are the series inverses
(`Morphism.inverse`) of the braiding and the twist.
`ev` and `coev` build every cup and cap.  On a simple they are the
pairing and the copairing; a dual's ev and coev are the right duality of
its simple V, ev(V) c(V, V*) (theta_V (x) id) and
(id (x) theta_V) c(V, V*) coev(V); on a tensor word they nest the
factors' maps.  On every backend `coev` divides the copairing by its
snake through associator(x, x*, x) (a scalar, 1 where the associator is
trivial), so the snake identities hold exactly.
Every two-leg tensor (r, t, r_a) and the three-leg [t12, t23] act through
`insert_legs`, on a given matrix: each term is one small integer operator
on the factors its legs touch, cached, and acts in one pass over the
matrix by moving rows by fixed offsets.  `leg_insertion` is `insert_legs`
on the identity of a word.

Only Drinfeld at order 3 is non-strict.  `BackendSpec.rebracket` is the one
place a morphism changes bracketing.  There, with h^3 = 0, the coherence
src -> tgt is 1 + h^2/24 sum_{i<j<k} (psi_tgt - psi_src)(i, j, k) [t_ij, t_jk]
in closed form (psi_T(i, j, k) = 1 when leaves j and k join before i in
T), so rebracketing adds one h^2 term to the morphism and builds no comb
of associators; `coherence` and the associators are rebrackets of the
identity.  On the other backends it relabels.

`BackendSpec.apply_chain` is the one way local morphisms (crossings,
coupons, cups, caps) act inside a word, step after step: it moves a core's
sparse rows by mixed-radix index arithmetic, never builds id (x) m (x) id,
and rebrackets once per step boundary, onto the step's raw block word
(where the associator is trivial, a relabelling).  As in `cg_reduce`, each
operator layer goes straight to its output degree, in one pass per core
layer.
`apply` is its one-step case and `flat_apply` is `apply` on the identity.
`sort_blocks` walks the crossings that reorder a word's blocks: each acts at
the blocks' fixed positions, then the rows move once, and it builds no word
per crossing (on Drinfeld(3) it reads each crossing's coherence off the leaf
indices).  `cg_reduce` reduces a skein handle's two ends to every
Clebsch-Gordan component in one pass, on the raw word of its blocks as
`apply_chain` does.  Only this module reads or builds a morphism's layers.

All exact linear solving goes through one solver on integer layers:
`_factor` reduces the constant layer once, fraction-free (rows stay
primitive integer vectors, one gcd per row update), and `solve_series`
replays its recorded row operations once per order on the residuals of
every right-hand side at once.  The inverse of a morphism and the
coordinates of a skein core use it, and one classical reduction per flat
Hom space (`_hom_system`) serves every backend and bracketing: its kernel
is the classical basis, and the quantum basis lifts it through the
quantum constraint layers of order >= 1.  Each Clebsch-Gordan embedding
is the basis of the one-dimensional Hom space Hom(V_k, x (x) y), and each
projection the basis of Hom(x (x) y, V_k), scaled to be its left inverse.

The sl2 data is one table, `_quantum_action`: E and F on V_n, the
coproduct on a tensor word, the antipode on a dual, and
K^(+-1) = exp(+-h H/2) on the weights (`weights_of`).  The classical e and
f are its order-1 truncation, where K = 1, and h is the diagonal of the
weights.  The epsilon and Drinfeld categories keep the classical
generators, so their Hom bases are the classical ones taken into their
ring.

Normalization: the invariant form is the trace form on the fundamental
representation, so t = e(x)f + f(x)e + h(x)h/2, C = ef + fe + h^2/2, and
C acts on the fundamental by 3/2 and on V_n by n(n+2)/2.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import factorial, gcd, lcm, prod

from .errors import AlgebraError, CgError, LabelError, ModeError, Part1DomainError, SkeinlabError, TruncationUnsupported
from .scalars import (
    RingMode,
    ScalarSeries,
    as_fraction,
    classical_mode,
    conversion_prefix,
    epsilon_mode,
    exp_param_series,
    hbar_mode,
    rational_from_json,
)


MAX_SPIN = 8


# ---------------------------------------------------------------------------
# Object expressions
# ---------------------------------------------------------------------------


_WORDS = {}  # (class, *fields) -> the one node of that word


class ObjectExpr:
    """A parenthesized tensor word over simple labels and their duals.

    Words are hash-consed: a constructor returns the one node built for its
    (class, fields), so `==` is identity, and `dim`, the leaves (a tuple) and
    the hash (a frozen dataclass's, hash of the fields) are computed once.
    Nodes are immutable; copies and pickles are the node itself.  Each
    subclass names its fields in `__slots__` and gives its dim and leaves
    in `_shape`.
    """

    __slots__ = ("dim", "_leaves", "_hash")

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _WORDS.get(key)
        if node is None:
            if len(fields) != len(cls.__slots__):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__)} fields, got {len(fields)}")
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            dim, leaves = node._shape()
            object.__setattr__(node, "dim", dim)
            object.__setattr__(node, "_leaves", leaves)
            object.__setattr__(node, "_hash", hash(fields))
            node = _WORDS.setdefault(key, node)
        return node

    def _fields(self):
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(type(self).__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def leaves(self):
        return self._leaves


class UnitObj(ObjectExpr):
    __slots__ = ()

    def _shape(self):
        return 1, ()

    def to_json(self):
        return ["unit"]

    def __str__(self):
        return "1"


class SimpleObj(ObjectExpr):
    __slots__ = ("spin",)

    def _shape(self):
        return self.spin + 1, (self,)

    def to_json(self):
        # the trivial simple is "V0", distinct from the monoidal unit
        return ["V0"] if self.spin == 0 else [spin_name(self.spin)]

    def __str__(self):
        return spin_name(self.spin)


class DualObj(ObjectExpr):
    __slots__ = ("inner",)

    def _shape(self):
        return self.inner.dim, (self,)

    def to_json(self):
        return ["dual", self.inner.to_json()]

    def __str__(self):
        return f"{self.inner}*"


class TensorObj(ObjectExpr):
    __slots__ = ("left", "right")

    def _shape(self):
        return self.left.dim * self.right.dim, self.left._leaves + self.right._leaves

    def to_json(self):
        return ["tensor", self.left.to_json(), self.right.to_json()]

    def __str__(self):
        return f"({self.left} @ {self.right})"


UNIT = UnitObj()

_SPIN_NAMES = {0: "unit", 1: "V", 2: "adj"}
_NAME_SPINS = {"unit": 0, "V": 1, "adj": 2, "adjoint": 2, "triv": 0, "trivial": 0}


def spin_name(n: int) -> str:
    return _SPIN_NAMES.get(n, f"V{n}")


def parse_label(name: str) -> int:
    if not isinstance(name, str):
        raise LabelError(f"a simple label must be a string, got {name!r}")
    if name in _NAME_SPINS:
        return _NAME_SPINS[name]
    if name.startswith("V") and name[1:].isascii() and name[1:].isdigit():
        return int(name[1:])
    raise LabelError(f"unknown simple label {name!r}")


def simple(label) -> SimpleObj:
    if isinstance(label, SimpleObj):
        return label
    spin = label if isinstance(label, int) else parse_label(label)
    if not 0 <= spin <= MAX_SPIN:
        raise LabelError(f"spin {spin} out of range 0..{MAX_SPIN}")
    return SimpleObj(spin)


@lru_cache(maxsize=None)
def dual(x) -> ObjectExpr:
    """Dual of a word: reverse the factors and dualize the leaves; one dual per node."""
    if isinstance(x, UnitObj):
        return UNIT
    if isinstance(x, SimpleObj):
        return DualObj(x)
    if isinstance(x, DualObj):
        return x.inner
    if isinstance(x, TensorObj):
        return TensorObj(dual(x.right), dual(x.left))
    raise TypeError(x)


def tensor_word(factors) -> ObjectExpr:
    """The tensor of the factors nested to the left as given, unit factors dropped.

    A composite factor stays a subtree, so the word is left-nested only
    when every factor is a leaf; `flat_word` flattens the factors first.
    """
    return _left_nested(tuple(factors))


@lru_cache(maxsize=None)
def _left_nested(factors) -> ObjectExpr:
    """One left-nested word per tuple of factors."""
    return reduce(word_tensor, factors, UNIT)


def flat_word(blocks) -> ObjectExpr:
    """The left-nested word of the blocks' leaves."""
    return _left_nested(tuple(leaf for obj in blocks for leaf in obj.leaves()))


def word_tensor(a: ObjectExpr, b: ObjectExpr) -> ObjectExpr:
    if isinstance(a, UnitObj):
        return b
    if isinstance(b, UnitObj):
        return a
    return TensorObj(a, b)


def object_from_json(data) -> ObjectExpr:
    """["unit"], [label], ["dual", x] or ["tensor", x, y, ...] (left-nested); any other shape raises LabelError."""
    if not isinstance(data, list) or not data:
        raise LabelError(f"an object must be a non-empty list such as [\"V\"], got {data!r}")
    head, parts = data[0], data[1:]
    if head == "tensor" and len(parts) >= 2:
        return reduce(TensorObj, map(object_from_json, parts))
    if head == "dual" and len(parts) == 1:
        return dual(object_from_json(parts[0]))
    if head in ("tensor", "dual") or parts:
        raise LabelError(f"malformed object {data!r}: use [\"unit\"], [label], [\"dual\", x] or [\"tensor\", x, y, ...]")
    return UNIT if head == "unit" else simple(parse_label(head))


# ---------------------------------------------------------------------------
# Morphisms: per-order sparse integer matrices over a common denominator
# ---------------------------------------------------------------------------


class Morphism:
    """A dim(target) x dim(source) exact matrix over the backend ring.

    Stored as its truncation layers: the matrix is sum_k param^k M_k, and
    `layers[k]` holds M_k as one pair (den, {(i, j): int}) meaning
    entries / den (mode.order layers), so every ring operation is a
    truncated convolution of integer sparse products.  Each layer is
    canonical: den > 0, gcd(den, *entries) == 1, int (never bool) values and
    no zeros, so the zero layer is (1, {}) and equal matrices have equal
    layers.  `entry` and `entries` view the matrix as positions ->
    ScalarSeries.  Composition requires source/target to match as
    parenthesized words, not merely in dimension; use
    `BackendSpec.rebracket` to move between bracketings.
    """

    __slots__ = ("source", "target", "mode", "layers")

    def __init__(self, source, target, mode, layers):
        """`layers[k]` is the {(i, j): rational} matrix of param^k.

        Missing higher layers are zero and zero values are dropped.
        """
        if len(layers) > mode.order:
            raise ModeError(f"{len(layers)} layers exceed the order of {mode}")
        self.source = source
        self.target = target
        self.mode = mode
        self.layers = tuple(as_layer(layer) for layer in layers) + _zero_layers(mode.order - len(layers))

    @staticmethod
    def _of(source, target, mode, layers) -> "Morphism":
        """Trusted constructor: exactly mode.order canonical layers."""
        m = object.__new__(Morphism)
        m.source, m.target, m.mode, m.layers = source, target, mode, tuple(layers)
        return m

    @staticmethod
    def identity(obj: ObjectExpr, mode: RingMode) -> "Morphism":
        return Morphism._of(obj, obj, mode, _layers_ident(obj.dim, mode.order))

    @staticmethod
    def zero(source, target, mode) -> "Morphism":
        return Morphism._of(source, target, mode, _zero_layers(mode.order))

    @staticmethod
    def from_rows(source, target, mode, rows) -> "Morphism":
        """The constant matrix with the given rational rows."""
        return Morphism(source, target, mode, [{(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}])

    @property
    def source_dim(self):
        return self.source.dim

    @property
    def target_dim(self):
        return self.target.dim

    def entry(self, i, j) -> ScalarSeries:
        return ScalarSeries(self.mode, tuple(Fraction(e.get((i, j), 0), den) for den, e in self.layers))

    @property
    def entries(self):
        """position -> ScalarSeries, for every nonzero position, in one pass over the layers."""
        zero = [Fraction(0)] * len(self.layers)
        coeffs = {pos: list(zero) for pos in _positions(self.layers)}
        for k, (den, e) in enumerate(self.layers):
            for pos, v in e.items():
                coeffs[pos][k] = Fraction(v, den)
        return {pos: ScalarSeries(self.mode, tuple(c)) for pos, c in coeffs.items()}

    @property
    def is_zero(self):
        return _is_zero(self.layers)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.source == other.source
            and self.target == other.target
            and self.layers == other.layers
        )

    __hash__ = None

    def __repr__(self):
        return f"Morphism({self.source} -> {self.target}, {len(_positions(self.layers))} entries, {self.mode})"

    def _check_parallel(self, other):
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch {self.mode} vs {other.mode}")
        if self.source != other.source or self.target != other.target:
            raise ModeError("morphisms are not parallel")

    def __add__(self, other):
        self._check_parallel(other)
        return Morphism._of(self.source, self.target, self.mode, _layers_add(self.layers, other.layers))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Morphism._of(self.source, self.target, self.mode, [(d, _int_scale(e, -1)) for d, e in self.layers])

    def scale(self, s) -> "Morphism":
        if not isinstance(s, ScalarSeries):
            s = ScalarSeries.from_rational(self.mode, s)
        if s.mode != self.mode:
            raise ModeError("scalar mode mismatch")
        return Morphism._of(self.source, self.target, self.mode, _layers_scale(self.layers, s))

    def compose(self, other: "Morphism") -> "Morphism":
        """self o other (apply `other` first)."""
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch {self.mode} vs {other.mode}")
        if self.source != other.target:
            raise ModeError(f"cannot compose: source {self.source} != target {other.target}")
        layers = _convolve(self.layers, other.layers, _int_compose)
        return Morphism._of(other.source, self.target, self.mode, layers)

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "Morphism") -> "Morphism":
        if self.mode != other.mode:
            raise ModeError("mode mismatch in tensor")
        src = word_tensor(self.source, other.source)
        tgt = word_tensor(self.target, other.target)
        layers = _layers_kron(self.layers, other.layers, other.target_dim, other.source_dim)
        return Morphism._of(src, tgt, self.mode, layers)

    def retyped(self, source=None, target=None) -> "Morphism":
        """Same matrix with rebracketed endpoints (dimensions must agree)."""
        source = self.source if source is None else source
        target = self.target if target is None else target
        if source.dim != self.source_dim or target.dim != self.target_dim:
            raise ModeError("retyped endpoints must preserve dimensions")
        return Morphism._of(source, target, self.mode, self.layers)

    def part0(self) -> "Morphism":
        return Morphism._of(self.source, self.target, classical_mode(), self.layers[:1])

    def part1(self) -> "Morphism":
        """First-order layer; only defined on multiples of the parameter."""
        den, constant = self.layers[0]
        if constant:
            raise Part1DomainError(f"nonzero constant term {Fraction(next(iter(constant.values())), den)}")
        first = self.layers[1] if self.mode.order >= 2 else (1, {})
        return Morphism._of(self.source, self.target, classical_mode(), [first])

    def convert(self, mode: RingMode) -> "Morphism":
        """Entrywise ring homomorphism into `mode` (see ScalarSeries.convert)."""
        kept = self.layers[: conversion_prefix(self.mode, mode)]
        return Morphism._of(self.source, self.target, mode, kept + _zero_layers(mode.order - len(kept)))

    def inverse(self) -> "Morphism":
        """Order-by-order inverse; the constant part must be invertible."""
        d = self.source_dim
        if d != self.target_dim:
            raise ModeError("only square morphisms can be inverted")
        try:
            kernel, result, _ = solve_series(self.layers, d, [(1, _int_ident(d))])
        except CgError:  # a kernel vector of the constant part that does not lift
            kernel = None
        if kernel is None or kernel[0][1]:
            raise ZeroDivisionError("constant part of the matrix is singular")
        return Morphism._of(self.target, self.source, self.mode, result)

    def to_json(self):
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "mode": self.mode.kind,
            "order": self.mode.order,
            "entries": {
                f"{i},{j}": [str(Fraction(e.get((i, j), 0), den)) for den, e in self.layers]
                for i, j in sorted(_positions(self.layers))
            },
        }

    @staticmethod
    def from_json(data) -> "Morphism":
        """Inverse of to_json: entries map "i,j" to a list of at most `order`
        coefficients (strings or integers), 0 <= i < target dim and
        0 <= j < source dim; anything else raises SkeinlabError."""
        mode = RingMode(data["mode"], data["order"])
        source = object_from_json(data["source"])
        target = object_from_json(data["target"])
        entries = data["entries"]
        if not isinstance(entries, dict):
            raise SkeinlabError(f"morphism entries must be an object, got {type(entries).__name__}")
        layers = [{} for _ in range(mode.order)]
        for pos, coeffs in entries.items():
            key = _ENTRY_KEY.fullmatch(pos) if isinstance(pos, str) else None
            if key is None or f"{int(key[1])},{int(key[2])}" != pos:
                raise SkeinlabError(f"morphism entry key {pos!r} is not of the form 'i,j'")
            i, j = int(key[1]), int(key[2])
            if not (0 <= i < target.dim and 0 <= j < source.dim):
                raise SkeinlabError(f"morphism entry {pos!r} lies outside the {target.dim}x{source.dim} matrix")
            if not isinstance(coeffs, list):
                raise SkeinlabError(f"morphism entry {pos!r} must be a list of coefficients")
            if len(coeffs) > mode.order:
                raise SkeinlabError(f"morphism entry {pos!r} has {len(coeffs)} coefficients, order is {mode.order}")
            for layer, c in zip(layers, coeffs):
                layer[(i, j)] = rational_from_json(c)
        return Morphism(source, target, mode, layers)


_ENTRY_KEY = re.compile(r"(-?[0-9]{1,18}),(-?[0-9]{1,18})")


# ---------------------------------------------------------------------------
# Layers: sparse integer kernels, one denominator per layer
# ---------------------------------------------------------------------------
#
# The `_int_*` kernels work on bare {(i, j): int} dicts and never divide.
# A layer is a canonical pair (den, entries); `_layer` and `_sum` restore
# that form once per result, combining denominators by product or lcm, and
# skip the gcd when the denominator is 1.  The apply kernels
# (`_series_apply`, `_int_pair_apply`) route each operator layer to its
# output degree in one pass per core layer and normalise each degree once.
# Layers are shared between morphisms, so no function mutates a layer's
# dict.


def _int_compose(a, b):
    by_row = {}
    for (j, k), v in b.items():
        by_row.setdefault(j, []).append((k, v))
    out = {}
    for (i, j), x in a.items():
        for k, y in by_row.get(j, ()):
            key = (i, k)
            p = x * y
            s = out.get(key)
            out[key] = p if s is None else s + p
    return {k: v for k, v in out.items() if v}


def _int_kron(a, b, bd_rows, bd_cols):
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in b.items():
            out[(i * bd_rows + k, j * bd_cols + l)] = x * y
    return out


def _series_apply(a, b, right, src, tgt):
    """The truncated series (id (x) a (x) id_right) b of two layer lists, by mixed-radix row arithmetic.

    Row (l * src + c) * right + rr of b goes to row (l * tgt + k) * right + rr
    for every entry a[k, c]; the identity factors are never built.  Each
    operator layer goes straight to its output degree, as in `_int_pair_apply`:
    one pass per core layer decodes each row once and adds it into every
    degree, over that degree's lcm of denominators, pre-scaled into a's
    entries.  An entry that scales to 1 (most of a crossing's) moves b's
    entries unmultiplied.
    """
    n = len(a)
    dens = [lcm(*(a[i][0] * b[m - i][0] for i in range(m + 1) if a[i][1] and b[m - i][1])) for m in range(n)]
    sums = [{} for _ in range(n)]
    block = src * right
    for j, (bden, entries) in enumerate(b):
        if not entries:
            continue
        by_col = {}
        for i, (aden, ops) in enumerate(a[: n - j]):
            acc, w = sums[i + j], dens[i + j] // (aden * bden)
            for (k, c), x in ops.items():
                by_col.setdefault(c, []).append((acc, k * right, None if x * w == 1 else x * w))
        for (r, col), y in entries.items():
            l, rest = divmod(r, block)
            c, rr = divmod(rest, right)
            base = l * tgt * right + rr
            for acc, kr, x in by_col.get(c, ()):
                key = (base + kr, col)
                acc[key] = acc.get(key, 0) + (y if x is None else x * y)
    return [_layer(d, {k: v for k, v in s.items() if v}) for d, s in zip(dens, sums)]


def _int_pair_apply(table, b, d, mid, inner, limit):
    """{(out, degree): entries}: maps on two factors of b's rows, in one pass.

    Row (((top d + x) mid + m) d + y) inner + low times v goes to row
    (((top k + x') mid + m) k + y') inner + low of (out, degree), for each
    (out, k, x', y', degree, v) in table[(x, y)] with degree < limit."""
    sums = {}
    moves = {
        xy: [(sums.setdefault((out, degree), {}), k * mid * k * inner, k * inner, (x2 * mid * k + y2) * inner, v)
             for out, k, x2, y2, degree, v in entries if degree < limit]
        for xy, entries in table.items()
    }
    for (r, j), w in b.items():
        q, low = divmod(r, inner)
        q, y = divmod(q, d)
        top, m = divmod(q, mid)
        top, x = divmod(top, d)
        for acc, big, small, offset, v in moves.get((x, y), ()):
            key = (top * big + m * small + offset + low, j)
            acc[key] = acc.get(key, 0) + w * v
    return {out: {k: v for k, v in acc.items() if v} for out, acc in sums.items()}


def _int_iadd(out, b, w=1):
    """out += w * b in place, dropping cancelled entries; returns out."""
    if w != 1:
        b = _int_scale(b, w)
    for k, v in b.items():
        s = out.get(k)
        if s is None:
            out[k] = v
        else:
            s += v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def _int_scale(a, c):
    return {k: v * c for k, v in a.items()} if c else {}


def _int_ident(d):
    return {(i, i): 1 for i in range(d)}


def _int_transpose(a):
    return {(j, i): v for (i, j), v in a.items()}


def _layer(den, entries):
    """The canonical layer of entries / den (den > 0, no zero entries)."""
    if den != 1:
        g = gcd(den, *entries.values())
        if g != 1:
            return den // g, {k: v // g for k, v in entries.items()}
    return den, entries


def _sum(terms):
    """The canonical layer of a sum of (den, entries) terms, over the lcm of their denominators."""
    terms = [t for t in terms if t[1]]
    if len(terms) == 1:
        return _layer(*terms[0])
    den = lcm(*(d for d, _ in terms))
    out = {}
    for d, e in terms:
        _int_iadd(out, e, den // d)
    return _layer(den, out)


def _add(a, b):
    if not b[1]:
        return a
    return _sum((a, b)) if a[1] else b


def _product(a, b, product):
    """The (uncanonical) term product(a, b) of two layers."""
    return a[0] * b[0], product(a[1], b[1])


def as_layer(entries):
    """The canonical layer of a sparse {(i, j): rational} matrix."""
    values = {k: as_fraction(v) for k, v in entries.items()}
    den = lcm(*(f.denominator for f in values.values()))
    return den, {k: f.numerator * (den // f.denominator) for k, f in values.items() if f}


def _positions(layers):
    return set().union(*(e for _, e in layers))


def _is_zero(layers):
    return not any(e for _, e in layers)


def _zero_layers(n):
    return tuple((1, {}) for _ in range(n))


def _convolve(a, b, product):
    """Truncated convolution: layer k of the result is sum_{i+j=k} product(a[i], b[j])."""
    n = len(a)
    terms = [[] for _ in range(n)]
    for i, x in enumerate(a):
        if x[1]:
            for j in range(n - i):
                if b[j][1]:
                    terms[i + j].append(_product(x, b[j], product))
    return [_sum(t) for t in terms]


def _layers_kron(a, b, bd_rows, bd_cols):
    return _convolve(a, b, lambda x, y: _int_kron(x, y, bd_rows, bd_cols))


def _layers_add(a, b):
    return list(map(_add, a, b))


def _layers_scale(a, s: ScalarSeries):
    """The layers of s * M, with s a ring element."""
    terms = [[] for _ in a]
    for i, c in enumerate(s.coeffs):
        for j, (den, e) in enumerate(a[: len(a) - i]):
            terms[i + j].append((den * c.denominator, _int_scale(e, c.numerator)))
    return [_sum(t) for t in terms]


def _layers_ident(d, order):
    return [(1, _int_ident(d))] + list(_zero_layers(order - 1))


# ---------------------------------------------------------------------------
# Exact linear solving: one fraction-free reduction, replayed on every right-hand side
# ---------------------------------------------------------------------------


def _factor(a0, ncols):
    """Fraction-free sparse Gauss-Jordan reduction of an integer matrix, recorded.

    `a0` is {(row, col): int} with `ncols` columns; rows are any hashable
    keys.  Columns are taken in order, and a column's pivot is its candidate
    row with the fewest nonzeros.  Every other row with a nonzero f in the
    pivot column, above or below the pivot, becomes (pv * row - f * pivot
    row) / g, with g its content, so rows stay primitive; the pivot row is
    never divided.  Each step is recorded as (pivot row, pv, [(row, f, g)]);
    rows stay keyed, so no swap needs recording.

    Returns (kernel, solve).  `kernel` is one layer whose column n is the
    kernel vector of the n-th free column, 1 there.  solve(b) replays the
    steps on the rows of a layer b, whose columns are right-hand sides, and
    returns (x, bad): the layer of the solutions of a0 x = b with the free
    variables 0, and the set of columns of b that have none (left out of x).
    The reduced row echelon form is unique, so neither depends on which row
    serves as a column's pivot.
    """
    rows, cols = {}, {}
    for (r, c), v in a0.items():
        if v:
            rows.setdefault(r, {})[c] = v
            cols.setdefault(c, {})[r] = None
    ops, pivots = [], {}
    for c in range(ncols):
        candidates = [r for r in cols.get(c, ()) if r not in pivots]
        if not candidates:
            continue
        p = min(candidates, key=lambda r: len(rows[r]))
        prow = rows[p]
        pv = prow[c]
        updates = []
        for r in [r for r in cols[c] if r != p]:
            row = rows[r]
            f = row[c]
            if pv != 1:
                for k in row:
                    row[k] *= pv
            for k, y in prow.items():
                x = row.get(k, 0) - f * y
                if x:
                    row[k] = x
                    cols[k][r] = None
                else:
                    del row[k], cols[k][r]
            g = gcd(*row.values()) or 1
            if g != 1:
                for k in row:
                    row[k] //= g
            updates.append((r, f, g))
        ops.append((p, pv, updates))
        pivots[p] = c
    # x_c = -R[p][fc] / R[p][c] on the pivot row p of column c, over the lcm
    # of the final pivots; only pivot rows are nonzero in a free column
    final = {p: rows[p][c] for p, c in pivots.items()}
    scale = lcm(*final.values())
    pivot_cols = set(pivots.values())
    kernel = {}
    for n, fc in enumerate(c for c in range(ncols) if c not in pivot_cols):
        kernel[fc, n] = scale
        for p in cols.get(fc, ()):
            kernel[pivots[p], n] = -rows[p][fc] * (scale // final[p])

    def solve(b):
        den, entries = b
        brows = {}
        for (r, j), v in entries.items():
            brows.setdefault(r, {})[j] = v
        for p, pv, updates in ops if brows else ():
            bp = brows.get(p, {})
            for r, f, g in updates:
                if not (bp or brows.get(r)):
                    continue
                br = brows.setdefault(r, {})
                if pv != 1:
                    for j in br:
                        br[j] *= pv
                for j, y in bp.items():
                    x = br.get(j, 0) - f * y
                    if x:
                        br[j] = x
                    else:
                        del br[j]
                if g != 1:
                    s = g // gcd(g, *br.values())
                    if s != 1:  # g does not divide the row: rescale all of b, so the division is exact
                        den *= s
                        for row in brows.values():
                            for j in row:
                                row[j] *= s
                    for j in br:
                        br[j] //= g
        bad = {j for r, row in brows.items() if r not in pivots for j in row}
        x = {
            (c, j): v * (scale // final[p]) for p, c in pivots.items() for j, v in brows.get(p, {}).items() if j not in bad
        }
        return _layer(den * scale, x), bad

    return _layer(scale, kernel), solve


def solve_series(a, ncols, b):
    """Solve A X = B over the truncated ring, A = sum_k param^k a[k], B = sum_k param^k b[k].

    `a` and `b` are lists of layers (missing layers of b are 0): A has
    `ncols` columns, rows are any hashable keys, and each column of B is a
    right-hand side.  One reduction of A_0 (`_factor`) is replayed once per
    order on the residuals B_k - sum_{i>=1} A_i X_{k-i} of all columns.
    Returns (kernel, x, bad): the layers of the lift of every classical
    kernel vector (column n lifts the n-th, which is 1 on the n-th free
    column), the layers of X with the free variables 0, and the set of
    columns of B with no solution, which are left out of X.  A kernel vector
    that does not lift means the module is not free and raises CgError.
    """
    return _lift_series(a[0][0], _factor(a[0][1], ncols), a[1:], b)


def _lift_series(den0, factored, higher, b):
    """`solve_series` with A_0 = a0 / den0 reduced, factored = _factor(a0, ncols), A_k = higher[k-1]; X = 0 if b = []."""
    kernel, solve = factored

    def lift(xs, bk):
        """X_k from a0 X_k = den0 (B_k - sum_{i>=1} A_i X_{k-i}), with k = len(xs)."""
        k = len(xs)
        terms = (_product(higher[i - 1], xs[k - i], _int_compose) for i in range(1, k + 1))
        den, e = _sum([bk, *((d, _int_scale(t, -1)) for d, t in terms)])
        return solve((den, _int_scale(e, den0)))

    lifts, xs, bad = [kernel], [], set()
    for k in range(len(higher) + 1):
        x, missing = lift(xs, b[k] if k < len(b) else (1, {})) if b else ((1, {}), set())
        xs.append(x)
        bad |= missing
        if k:
            v, missing = lift(lifts, (1, {}))
            if missing:
                raise CgError("kernel does not lift: module is not free")
            lifts.append(v)
    if bad:
        xs = [_layer(d, {key: v for key, v in e.items() if key[1] not in bad}) for d, e in xs]
    return lifts, xs, bad


def coordinates(m: Morphism, basis):
    """The ScalarSeries c_n with m = sum_n c_n basis[n], exactly (one `solve_series`); AlgebraError off the span."""

    def stacked(morphisms):
        """Per order, the layer whose column n holds the entries of morphisms[n]."""
        return [
            _sum([(d, {(p, n): v for p, v in e.items()}) for n, (d, e) in enumerate(f.layers[k] for f in morphisms)])
            for k in range(m.mode.order)
        ]

    _, coords, bad = solve_series(stacked(basis), len(basis), stacked([m]))
    if bad:
        raise AlgebraError("morphism does not lie in the invariant Hom space")
    return [ScalarSeries(m.mode, tuple(Fraction(e.get((n, 0), 0), den) for den, e in coords)) for n in range(len(basis))]


# ---------------------------------------------------------------------------
# sl2 representation data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def classical_action(gen: str, word: ObjectExpr):
    """Integer matrix {(i, j): int} of the sl2 basis element `gen` (e, f or h) on a tensor word.

    e and f are E and F truncated at order 1, where K = 1 makes the
    coproduct the Leibniz rule and the antipode minus the transpose; h is
    the diagonal of the weights.
    """
    if gen == "h":
        return {(i, i): w for i, w in enumerate(weights_of(word)) if w}
    ((_, m),) = _quantum_action(gen.upper(), word, 1)
    return m


@lru_cache(maxsize=None)
def weights_of(word: ObjectExpr):
    """Weight of each basis index: n - 2j on u_j of V_n, negated on a dual, added over a tensor."""
    weights = (0,)
    for leaf in word.leaves():
        n, sign = leaf.dim - 1, -1 if isinstance(leaf, DualObj) else 1
        weights = tuple(w + sign * (n - 2 * j) for w in weights for j in range(n + 1))
    return weights


# r = e(x)f + h(x)h/4 and t = r + flip(r), as (coeff, leg1, leg2).
R_TENSOR = ((Fraction(1), "e", "f"), (Fraction(1, 4), "h", "h"))
T_TENSOR = (
    (Fraction(1), "e", "f"),
    (Fraction(1), "f", "e"),
    (Fraction(1, 2), "h", "h"),
)
RA_TENSOR = ((Fraction(1, 2), "e", "f"), (Fraction(-1, 2), "f", "e"))  # (r - r21)/2
TSYM_TENSOR = (
    (Fraction(1, 2), "e", "f"),
    (Fraction(1, 2), "f", "e"),
    (Fraction(1, 4), "h", "h"),
)  # (r + r21)/2
# [t12, t23] = sum a (x) [b, a'] (x) b' over t = sum a (x) b, as (coeff, leg1, leg2, leg3):
# the sign-weighted sum over the orderings of (e, f, h).
OMEGA_TENSOR = (
    (Fraction(-1), "e", "h", "f"),
    (Fraction(1), "e", "f", "h"),
    (Fraction(1), "f", "h", "e"),
    (Fraction(-1), "f", "e", "h"),
    (Fraction(1), "h", "e", "f"),
    (Fraction(-1), "h", "f", "e"),
)


def leg_insertion(factors, first, second, tensor):
    """Matrix of sum_k c_k A_k B_k on the flat word of `factors`.

    `tensor` lists (c_k, a_k, b_k); A_k is a_k acting on each factor listed
    in `first` in turn (id (x) a_k (x) id, summed over the list), and B_k is
    b_k acting on the factors listed in `second` likewise.  It is
    `insert_legs` on the identity of the word, and returns a layer.
    """
    pairs = [(i, j, tensor) for i in first for j in second]
    return insert_legs(factors, pairs, (1, _int_ident(prod(w.dim for w in factors))))


def act_legs(factors, terms, m: Morphism) -> Morphism:
    """`insert_legs` on every layer of `m`, whose target is the flat word of `factors`: the
    leg terms' constant operator applied to m."""
    return Morphism._of(m.source, m.target, m.mode, [insert_legs(factors, terms, layer) for layer in m.layers])


def insert_legs(factors, terms, m):
    """sum over (p_1, ..., p_n, tensor) in `terms` of sum_k c_k g_k1^(p_1) ... g_kn^(p_n) m.

    `tensor` lists (c_k, g_k1, ..., g_kn) with rational c_k; `m` is a layer
    whose rows index the flat word of `factors`, and g^(p) is g acting on
    factors[p] (id (x) g (x) id).  Each term acts as one small integer
    operator on the factors its legs touch (`_leg_operator`), in one pass
    over m that moves its rows by fixed offsets (`_leg_offsets`), and adds
    into one running sum over the terms' common denominator.
    """
    den, entries = m
    strides = [prod(f.dim for f in factors[p + 1 :]) for p in range(len(factors))]
    tensors = {id(t): t for *_, t in terms}  # so no term hashes a tensor's Fractions
    common = lcm(*(c.denominator for t in tensors.values() for c, *_ in t))
    ints = {k: tuple((c.numerator * (common // c.denominator), *g) for c, *g in t if c) for k, t in tensors.items()}
    acc = {}
    for *positions, tensor in terms:
        slots = sorted(set(positions))
        op = _leg_operator(tuple(factors[p] for p in slots), tuple(map(slots.index, positions)), ints[id(tensor)])
        if not op:  # a leg on a unit or V0 factor
            continue
        compiled = _leg_offsets(tuple(factors[p].dim for p in slots), tuple(strides[p] for p in slots), op)
        _int_offset_apply(compiled, entries, acc)
    return _layer(den * common, {k: v for k, v in acc.items() if v})


@lru_cache(maxsize=None)
def _leg_operator(objs, slots, tensor):
    """The integer matrix of sum_k n_k G_k1 (x) ... (x) G_km on the word of `objs`, as ((k, c), n) items.

    `tensor` lists (n_k, g_k1, ...) with integer n_k, leg i acts on
    objs[slots[i]], and G_ks is the product of the generators of the legs
    on objs[s], the first leg on the left.  A unit factor makes it zero.
    """
    total = {}
    for n, *gens in tensor:
        op = {(0, 0): n}
        for s, obj in enumerate(objs):
            g = _int_ident(obj.dim)
            for slot, gen in zip(slots, gens):
                if slot == s:
                    g = _int_compose(g, classical_action(gen, obj))
            op = _int_kron(op, g, obj.dim, obj.dim)
        _int_iadd(total, op)
    return tuple(total.items())


@lru_cache(maxsize=None)
def _leg_offsets(dims, strides, op):
    """An operator's ((k, c), n) entries `op`, on factors of the given dims at the given row strides of a flat word.

    The factors need not be adjacent.  Returns (digits, by_col): row r has
    the operator column c = sum_s digit_s(r) prod_{t > s} dim_t with
    digit_s(r) = r // stride_s % dim_s, read by the (stride, dim) pairs
    `digits`, and by_col[c] lists (offset, n) for the entries n in column
    c: each moves row r to r + offset, offset = sum_s (k_s - c_s) stride_s.
    """

    def place(code):  # an operator index as a row offset in the flat word
        total = 0
        for stride, d in reversed(list(zip(strides, dims))):
            code, digit = divmod(code, d)
            total += digit * stride
        return total

    by_col = {}
    for (k, c), n in op:
        by_col.setdefault(c, []).append((place(k) - place(c), n))
    return tuple(zip(strides, dims)), {c: tuple(v) for c, v in by_col.items()}


def _int_offset_apply(compiled, b, out):
    """out += op b, in one pass over b's rows, for an operator compiled by `_leg_offsets`; cancelled entries stay as zeros."""
    digits, by_col = compiled
    for (r, j), y in b.items():
        c = 0
        for stride, d in digits:
            c = c * d + r // stride % d
        for offset, x in by_col.get(c, ()):
            key = (r + offset, j)
            s = out.get(key)
            out[key] = x * y if s is None else s + x * y
    return out


def _crossings(blocks):
    """The crossings that bubble-sort (tag, object) blocks by their tags.

    Before each swap of adjacent blocks yields (context, position, (left
    object, right object)), the context being the objects in their current
    order; each pair of blocks crosses at most once.
    """
    work = list(blocks)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            (tag_l, left), (tag_r, right) = work[i], work[i + 1]
            if tag_l > tag_r:
                yield [o for _, o in work], i, (left, right)
                work[i], work[i + 1] = work[i + 1], work[i]
                changed = True


@lru_cache(maxsize=None)
def _relabelling(dims, final):
    """(hi, lo, low): row r of a flat word goes to hi[r // low] + lo[r % low] when its factors move into the order `final`.

    The tables cover the two halves of the factors, so each is near the
    square root of the word's dimension; one table would be all of it.
    """
    strides, step = [0] * len(dims), 1
    for n in reversed(final):
        strides[n], step = step, step * dims[n]
    split = len(dims) // 2

    def table(factors):
        out = [0]
        for n in factors:
            out = [x + d * strides[n] for x in out for d in range(dims[n])]
        return out

    return table(range(split)), table(range(split, len(dims))), prod(dims[split:])


def exp_nilseries(m, d, mode: RingMode, rate=Fraction(1)):
    """Layers of exp(rate * param * M) over the truncated ring, exactly.

    `m` is the layer of M.  The exponent carries one power of the
    deformation parameter, so layer k is rate^k / k! M^k and the series
    terminates at the truncation order.
    """
    den, entries = m
    layers = _layers_ident(d, mode.order)
    power = layers[0][1]
    for k in range(1, mode.order):
        power = _int_compose(power, entries)
        if not power:
            break
        c = Fraction(rate) ** k / factorial(k)
        layers[k] = _layer(den**k * c.denominator, _int_scale(power, c.numerator))
    return layers


def flip_matrix(x: ObjectExpr, y: ObjectExpr, mode: RingMode) -> Morphism:
    dx, dy = x.dim, y.dim
    flip = {(j * dx + i, i * dy + j): 1 for i in range(dx) for j in range(dy)}
    return Morphism._of(word_tensor(x, y), word_tensor(y, x), mode, [(1, flip), *_zero_layers(mode.order - 1)])


# ---------------------------------------------------------------------------
# Quantum sl2: truncated quantum-group data
# ---------------------------------------------------------------------------


def _q_power(mode: RingMode, m) -> ScalarSeries:
    """q^m with q = exp(h/2)."""
    return exp_param_series(mode, Fraction(m, 2))


def _q_int(mode: RingMode, k: int) -> ScalarSeries:
    """[k]_q = q^{k-1} + q^{k-3} + ... + q^{1-k}."""
    total = ScalarSeries.zero(mode)
    for i in range(k):
        total = total + _q_power(mode, k - 1 - 2 * i)
    return total


@lru_cache(maxsize=None)
def _quantum_action(gen: str, word: ObjectExpr, order: int):
    """Layers of the U_q(sl2) generator `gen` (E, F, K, Kinv) on a tensor word.

    K^(+-1) = exp(+-h H/2) on the weights.  On V_n, F u_j = u_{j+1} and
    E u_j = [j]_q [n+1-j]_q u_{j-1}.  Coproduct: Delta(E) = E(x)K + 1(x)E,
    Delta(F) = F(x)1 + Kinv(x)F; a dual acts by the transpose of the
    antipode, S(E) = -E Kinv, S(F) = -K F.  The cache is shared, so the
    layers come as a tuple.
    """

    def act(g, w):
        return _quantum_action(g, w, order)

    if gen in ("K", "Kinv"):
        rate = Fraction(1 if gen == "K" else -1, 2)
        return tuple(exp_nilseries((1, classical_action("h", word)), word.dim, hbar_mode(order), rate))
    if isinstance(word, UnitObj):
        return _zero_layers(order)
    if isinstance(word, SimpleObj):
        n = word.spin
        if gen == "F":
            return ((1, {(j + 1, j): 1 for j in range(n)}), *_zero_layers(order - 1))
        mode = hbar_mode(order)
        coeffs = {(j - 1, j): (_q_int(mode, j) * _q_int(mode, n + 1 - j)).coeffs for j in range(1, n + 1)}
        return tuple(as_layer({k: c[o] for k, c in coeffs.items()}) for o in range(order))
    if isinstance(word, DualObj):
        left, right = ("E", "Kinv") if gen == "E" else ("K", "F")
        m = _convolve(act(left, word.inner), act(right, word.inner), _int_compose)
        return tuple((d, _int_scale(_int_transpose(x), -1)) for d, x in m)
    if isinstance(word, TensorObj):
        a, b = word.left, word.right
        db = b.dim
        if gen == "E":
            left = _layers_kron(act("E", a), act("K", b), db, db)
            right = _layers_kron(_layers_ident(a.dim, order), act("E", b), db, db)
        else:
            left = _layers_kron(act("F", a), _layers_ident(db, order), db, db)
            right = _layers_kron(act("Kinv", a), act("F", b), db, db)
        return tuple(_layers_add(left, right))
    raise TypeError(word)


def _quantum_r_matrix(x: ObjectExpr, y: ObjectExpr, order: int):
    """Layers of the truncated universal R-matrix q^{H(x)H/2} sum_n c_n E^n (x) F^n on x(x)y.

    c_0 = 1 and c_n = q^{n(n-1)/2} (q - q^{-1})^n / [n]_q!, so each
    coefficient is the last times q^{n-1} (q - q^{-1}) / [n]_q.
    """
    mode = hbar_mode(order)
    dy = y.dim
    d = x.dim * dy
    hh = _int_kron(classical_action("h", x), classical_action("h", y), dy, dy)
    cartan = exp_nilseries((1, hh), d, mode, rate=Fraction(1, 4))
    q_minus = _q_power(mode, 1) - _q_power(mode, -1)
    coeff = ScalarSeries.one(mode)
    total = _layers_ident(d, order)
    Epow, Fpow = _layers_ident(x.dim, order), _layers_ident(dy, order)
    Ex, Fy = _quantum_action("E", x, order), _quantum_action("F", y, order)
    for n in range(1, order):
        Epow = _convolve(Epow, Ex, _int_compose)
        Fpow = _convolve(Fpow, Fy, _int_compose)
        if _is_zero(Epow) or _is_zero(Fpow):
            break
        coeff = coeff * _q_power(mode, n - 1) * q_minus * _q_int(mode, n).inverse()
        total = _layers_add(total, _layers_scale(_layers_kron(Epow, Fpow, dy, dy), coeff))
    return _convolve(cartan, total, _int_compose)


# ---------------------------------------------------------------------------
# Drinfeld coherence in closed form
# ---------------------------------------------------------------------------


def _leaf_paths(tree, path=()):
    """Root-to-leaf paths (0 left, 1 right) of the tree's leaves, in order."""
    if isinstance(tree, TensorObj):
        return _leaf_paths(tree.left, path + (0,)) + _leaf_paths(tree.right, path + (1,))
    return [path] * len(tree.leaves())


def _joins(tree):
    """psi_T: the leaf triples i < j < k of the tree where j and k join before i."""
    paths = _leaf_paths(tree)

    def meet(a, b):  # depth of the node where leaves a and b join
        return next(d for d, (x, y) in enumerate(zip(paths[a], paths[b])) if x != y)

    return {(i, j, k) for i, j, k in combinations(range(len(paths)), 3) if meet(j, k) > meet(i, j)}


@lru_cache(maxsize=None)
def _coherence_legs(src: ObjectExpr, tgt: ObjectExpr):
    """(i, j, k, sign) terms of X(src -> tgt), coherence(src, tgt) = 1 + h^2 X.

    With h^3 = 0 every associator step is 1 + O(h^2), so the steps of any
    rebracketing add their h^2 parts.  A rotation (xy)z -> x(yz) adds
    [t_ij, t_jk] for each leaf triple i in x, j in y, k in z: exactly the
    triples whose psi turns from 0 to 1.  Hence
    X(src -> tgt) = 1/24 sum_{i<j<k} (psi_tgt - psi_src)(i, j, k) Omega_ijk,
    with Omega = [t12, t23], and `_omega(sign)` is each term's tensor.  Unit
    factors carry no leaf and give no path.
    """
    gained, lost = _joins(tgt), _joins(src)
    return tuple([(*ijk, 1) for ijk in gained - lost] + [(*ijk, -1) for ijk in lost - gained])


@lru_cache(maxsize=None)
def _omega(n: int):
    """n/24 Omega = n/24 [t12, t23] (`OMEGA_TENSOR`) as a three-leg tensor, one object per n."""
    return tuple((c * n / 24, *gens) for c, *gens in OMEGA_TENSOR)


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

BACKEND_NAMES = ("classical", "epsilon", "quantum", "drinfeld")


class BackendSpec:
    """Ribbon-category data for one of the four sl2 instances.

    The methods whose results the engine reuses are `lru_cache`d; the key is
    (backend, arguments as passed), so each backend keeps its own entries.
    """

    def __init__(self, name: str, mode: RingMode):
        if name == "drinfeld" and mode.order > 3:
            # the associator formula and its inverse need h^3 = 0
            raise TruncationUnsupported("DrinfeldSl2 supports truncation orders <= 3")
        self.name = name
        self.mode = mode
        self.nontrivial_associator = name == "drinfeld" and mode.order >= 3

    def __repr__(self):
        return f"BackendSpec({self.name}, {self.mode})"

    @property
    def is_deformed(self):
        """Whether the ring has a first-order term (order >= 2)."""
        return self.mode.order > 1

    # -- braiding ----------------------------------------------------------

    @lru_cache(maxsize=None)
    def braiding(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """The braiding x(x)y -> y(x)x; the left (x) strand passes over."""
        src = word_tensor(x, y)
        if self.name == "quantum":
            layers = _quantum_r_matrix(x, y, self.mode.order)
        else:  # flip o exp(rate * param * Omega)
            omega, rate = (R_TENSOR, 1) if self.name == "epsilon" else (T_TENSOR, Fraction(1, 2))
            layers = exp_nilseries(leg_insertion([x, y], [0], [1], omega), src.dim, self.mode, rate)
        return flip_matrix(x, y, self.mode) @ Morphism._of(src, src, self.mode, layers)

    @lru_cache(maxsize=None)
    def braiding_inv(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """Inverse of braiding(x, y): a morphism y(x)x -> x(x)y."""
        return self.braiding(x, y).inverse()

    # -- twist ---------------------------------------------------------------

    @lru_cache(maxsize=None)
    def twist(self, x: ObjectExpr) -> Morphism:
        """theta: exp(param C/2) on a simple or dual, the balancing axiom on a tensor word.

        C acts on V_n and its dual by n(n+2)/2.  On a @ b, theta =
        c_{b,a} c_{a,b} (theta_a (x) theta_b); on the Drinfeld backend this
        is exp(param C/2) again, as C_{a@b} = C_a + C_b + 2 t_ab with
        commuting terms.  The retype keeps explicit unit factors.
        """
        if isinstance(x, TensorObj):
            a, b = x.left, x.right
            m = self.braiding(b, a) @ self.braiding(a, b) @ self.twist(a).tensor(self.twist(b))
            return m.retyped(x, x)
        n = x.dim - 1  # the spin of a simple or dual, 0 on the unit
        return Morphism.identity(x, self.mode).scale(exp_param_series(self.mode, Fraction(n * (n + 2), 4)))

    @lru_cache(maxsize=None)
    def twist_inv(self, x: ObjectExpr) -> Morphism:
        return self.twist(x).inverse()

    # -- infinitesimal braiding -----------------------------------------------

    def inf_braiding(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """t = e(x)f + f(x)e + h(x)h/2 on x(x)y, as a classical morphism.

        It is built from its legs on every backend; on a deformed backend it
        equals [beta^2 - id]_1 in these conventions.
        """
        src = word_tensor(x, y)
        return Morphism._of(src, src, classical_mode(), [leg_insertion([x, y], [0], [1], T_TENSOR)])

    # -- duality ----------------------------------------------------------------

    @lru_cache(maxsize=None)
    def ev(self, x: ObjectExpr) -> Morphism:
        """Evaluation dual(x) (x) x -> unit."""
        if isinstance(x, UnitObj):
            return Morphism.identity(UNIT, self.mode)
        if isinstance(x, SimpleObj):  # the pairing
            d = x.dim
            return Morphism(TensorObj(DualObj(x), x), UNIT, self.mode, [{(0, i * d + i): 1 for i in range(d)}])
        if isinstance(x, DualObj):  # the right evaluation of V = x.inner: ev(V) o c(V, V*) o (theta_V (x) id)
            v = x.inner
            return self.ev(v) @ self.braiding(v, x) @ self.twist(v).tensor(Morphism.identity(x, self.mode))
        if isinstance(x, TensorObj):
            a, b = x.left, x.right
            da, db = dual(a), dual(b)
            steps = [([db, da, a, b], [(1, 2, self.ev(a))]), ([db, b], [(0, 2, self.ev(b))])]
            m = self.apply_chain(steps, Morphism.identity(flat_word([db, da, a, b]), self.mode))
            return self.rebracket(m, source=TensorObj(dual(x), x))
        raise TypeError(x)

    @lru_cache(maxsize=None)
    def coev(self, x: ObjectExpr) -> Morphism:
        """Coevaluation unit -> x (x) dual(x); on a simple, the copairing divided by its snake through
        associator(x, x*, x), a scalar (1 where the associator is trivial), so the snake identities hold."""
        if isinstance(x, UnitObj):
            return Morphism.identity(UNIT, self.mode)
        if isinstance(x, SimpleObj):
            d, word, zeros = x.dim, [x, DualObj(x), x], _zero_layers(self.mode.order - 1)
            pairs = [i * d + i for i in range(d)]
            m = Morphism._of(UNIT, TensorObj(x, DualObj(x)), self.mode, ((1, {(r, 0): 1 for r in pairs}), *zeros))
            # the snake is a scalar times id_x: read it off its first column, from the copairing (x) e_0
            column = Morphism._of(UNIT, tensor_word(word), self.mode, ((1, {(r * d, 0): 1 for r in pairs}), *zeros))
            snake = self.apply_chain([(word, [(1, 2, self.ev(x))])], column)
            return m.scale(snake.entry(0, 0).inverse())
        if isinstance(x, DualObj):  # the right coevaluation of V = x.inner: (id (x) theta_V) o c(V, V*) o coev(V)
            v = x.inner
            return Morphism.identity(x, self.mode).tensor(self.twist(v)) @ self.braiding(v, x) @ self.coev(v)
        if isinstance(x, TensorObj):
            a, b = x.left, x.right
            steps = [([], [(0, 0, self.coev(a))]), ([a, dual(a)], [(1, 0, self.coev(b))])]
            m = self.apply_chain(steps, Morphism.identity(UNIT, self.mode))
            return self.rebracket(m, target=TensorObj(x, dual(x)))
        raise TypeError(x)

    def transpose(self, u: Morphism) -> Morphism:
        """Categorical transpose Hom(a, b) -> Hom(dual(b), dual(a))."""
        a, b = u.source, u.target
        da, db = dual(a), dual(b)
        steps = [([db], [(1, 0, self.coev(a))]), ([db, a, da], [(1, 1, u)]), ([db, b, da], [(0, 2, self.ev(b))])]
        return self.rebracket(self.apply_chain(steps, Morphism.identity(flat_word([db]), self.mode)), db, da)

    # -- associator and coherence ------------------------------------------------

    def associator(self, x: ObjectExpr, y: ObjectExpr, z: ObjectExpr) -> Morphism:
        """(x(x)y)(x)z -> x(x)(y(x)z): the one-triple coherence, 1 + h^2/24 [t12, t23] on Drinfeld(3)."""
        return self.coherence(TensorObj(TensorObj(x, y), z), TensorObj(x, TensorObj(y, z)))

    def associator_inv(self, x: ObjectExpr, y: ObjectExpr, z: ObjectExpr) -> Morphism:
        """x(x)(y(x)z) -> (x(x)y)(x)z: 1 - h^2/24 [t12, t23] on Drinfeld(3)."""
        return self.coherence(TensorObj(x, TensorObj(y, z)), TensorObj(TensorObj(x, y), z))

    @lru_cache(maxsize=None)
    def coherence(self, src: ObjectExpr, tgt: ObjectExpr) -> Morphism:
        """The canonical rebracketing morphism src -> tgt (same flat word).

        It is `rebracket` of the identity: 1 + h^2 X(src -> tgt) on
        Drinfeld(3) (see `_coherence_legs`), a relabelled identity elsewhere.
        """
        return self.rebracket(Morphism.identity(src, self.mode), target=tgt)

    def rebracket(self, m: Morphism, source=None, target=None) -> Morphism:
        """`m` between other bracketings of its flat source and target words.

        The one place a morphism changes bracketing.  With a nontrivial
        associator (h^3 = 0) the coherence morphisms are 1 + h^2 X, so
        coherence(m.target, target) @ m @ coherence(source, m.source) is m
        plus h^2 (X m_0 + m_0 Y): X acts on the constant layer's rows by
        `insert_legs` with the three-leg terms of `_coherence_legs`, and Y is
        the cached h^2 layer of the source-side coherence.  On strict
        backends only the endpoints change.
        """
        source = m.source if source is None else source
        target = m.target if target is None else target
        if source is m.source and target is m.target:
            return m
        if source.leaves() != m.source.leaves() or target.leaves() != m.target.leaves():
            raise ModeError(f"rebracket needs equal flat words: {m.source} -> {m.target} vs {source} -> {target}")
        if not self.nontrivial_associator:
            return Morphism._of(source, target, self.mode, m.layers)
        m0, m1, m2 = m.layers
        if target != m.target:
            legs = [(i, j, k, _omega(n)) for i, j, k, n in _coherence_legs(m.target, target)]
            m2 = _add(m2, insert_legs(m.target.leaves(), legs, m0))
        if source != m.source:
            y = self.coherence(source, m.source).layers[2]
            m2 = _sum([m2, _product(m0, y, _int_compose)])
        return Morphism._of(source, target, self.mode, (m0, m1, m2))

    def apply(self, context, placed, core: Morphism) -> Morphism:
        """flat_apply(context, placed) @ core, without building the word matrix: `apply_chain` of one step."""
        return self.apply_chain([(context, placed)], core)

    def apply_chain(self, steps, core: Morphism) -> Morphism:
        """`core` (on a left-nested word) followed by each (context, placed) step's flat_apply; each context
        must be on the flat word the last step ended on, and the placements must not overlap or leave it.
        Each step rebrackets the core onto its raw placement word (the tensor of the step's blocks), acts on
        its rows by index arithmetic (`_series_apply`, every operator layer to its output degree in one pass
        per core layer) and leaves it on the raw output word until the next step: with h^3 = 0,
        X(a -> b) + X(b -> c) = X(a -> c), so one rebracket per step boundary and one back at the end equal
        a round trip per step."""

        def flat(objs):
            return tuple(leaf for obj in objs for leaf in obj.leaves())

        word = core.target.leaves()
        if core.mode != self.mode or tensor_word(word) is not core.target:
            raise ModeError(f"apply: core {core!r} is over another ring or does not end on a left-nested word")
        for context, placed in steps:
            factors, pos = [], 0
            for at, span, m in sorted(placed, key=lambda p: p[0]):
                if at < pos or at + span > len(context):
                    raise ModeError(f"apply: {m!r} at {at} overlaps another placement or leaves the context")
                if m.mode != self.mode or flat(context[at : at + span]) != m.source.leaves():
                    raise ModeError(f"apply: {m!r} does not match the context at {at}")
                factors += [*context[pos:at], m]
                pos = at + span
            if flat(context) != word:
                raise ModeError(f"apply: the context {context} is not on the word {core.target}")
            factors += context[pos:]
            sources = [f.source if isinstance(f, Morphism) else f for f in factors]
            targets = [f.target if isinstance(f, Morphism) else f for f in factors]
            layers = self.rebracket(core, target=tensor_word(sources)).layers
            dims = [s.dim for s in sources]
            right = prod(dims)
            for f, d in zip(factors, dims):
                right //= d
                if isinstance(f, Morphism):
                    layers = _series_apply(f.layers, layers, right, d, f.target.dim)
            core = Morphism._of(core.source, tensor_word(targets), self.mode, layers)
            word = core.target.leaves()
        return self.rebracket(core, target=tensor_word(word))

    def flat_apply(self, context, placed) -> Morphism:
        """Morphisms applied inside a word, as one matrix between left-nested words.

        `context` is a list or tuple of word objects; `placed` is a list of
        (position, span, morphism): the morphism replaces `span` consecutive
        context entries starting at `position` (span 0 inserts before it).
        It is `apply` on the identity of the context word; callers that go
        on to compose with a core call `apply` and never build this matrix.
        """
        return self.apply(context, placed, Morphism.identity(flat_word(context), self.mode))

    def sort_blocks(self, blocks, over: bool, core: Morphism) -> Morphism:
        """`core` followed by the crossings (`_crossings`) that sort the (tag, object) blocks of its target by tag.

        A crossing, braiding(left, right) if `over` else braiding_inv(right,
        left), is flip o B with B = flip(right, left) o crossing.  The flips
        move to the end, so B acts at the blocks' original positions (an
        uncrossed pair keeps its order; `_leg_offsets`, skipped if B = 1, as
        on classical) and one row relabelling ends the walk.  A nontrivial
        associator adds `apply`'s two rebrackets per crossing, h^2 (X_in +
        P^-1 X_out P) m_0, on the starting layer 0 (h^3 = 0, B = 1 + O(h)),
        read off leaf indices with no word built.  psi (`_coherence_legs`) is
        0 on a flat word, and the raw placement word nests the crossing pair
        as one factor after the leaves L of the blocks left of it.  So a
        crossing of block A (left) and block B adds 2 Omega_lab for l in L,
        a in A, b in B; Omega_ab1b2 for b1 < b2 in B; and -Omega_a1a2b for
        a1 < a2 in A.  A triple that does not meet both blocks keeps its
        order and its psi across the crossing, so its terms cancel.  Omega is
        totally antisymmetric, so each leaf triple acts once, its terms summed
        with the sign of their legs' permutation.
        """
        objs = [o for _, o in blocks]
        if core.mode != self.mode or core.target is not flat_word(objs):
            raise ModeError(f"sort_blocks: core {core!r} is over another ring or does not end on the blocks' word")
        dims = [o.dim for o in objs]
        strides = [prod(dims[p + 1 :]) for p in range(len(dims))]
        first = list(accumulate((len(o.leaves()) for o in objs), initial=0))  # block n's leaves start at first[n]
        layers, legs = core.layers, {}

        def act(op, m):  # an operator on blocks a and b, at their original positions
            out = _int_offset_apply(_leg_offsets((dims[a], dims[b]), (strides[a], strides[b]), op), m, {})
            return {k: v for k, v in out.items() if v}

        for before, i, (a, b) in _crossings([(tag, n) for n, (tag, _) in enumerate(blocks)]):
            rest = self._crossing_rest(over, objs[a], objs[b])
            if rest is not None:
                layers = _layers_add(layers, _convolve(rest, layers, act))
            if self.nontrivial_associator:
                left = [k for n in before[:i] for k in range(first[n], first[n + 1])]
                xa, xb = range(first[a], first[a + 1]), range(first[b], first[b + 1])
                for *triple, n in [*((l, x, y, 2) for l in left for x in xa for y in xb),
                                   *((x, *p, 1) for x in xa for p in combinations(xb, 2)),
                                   *((*p, y, -1) for p in combinations(xa, 2) for y in xb)]:
                    key = tuple(sorted(triple))
                    legs[key] = legs.get(key, 0) + n * (-1) ** sum(x > y for x, y in combinations(triple, 2))
        terms = [(*ijk, _omega(n)) for ijk, n in legs.items() if n]
        if terms:
            layers = (*layers[:2], _add(layers[2], insert_legs(core.target.leaves(), terms, core.layers[0])))
        final = sorted(range(len(blocks)), key=lambda n: blocks[n][0])
        hi, lo, low = _relabelling(tuple(dims), tuple(final))
        layers = [(d, {(hi[r // low] + lo[r % low], j): v for (r, j), v in e.items()}) for d, e in layers]
        return Morphism._of(core.source, flat_word(objs[n] for n in final), self.mode, layers)

    @lru_cache(maxsize=None)
    def _crossing_rest(self, over, left, right):
        """B - 1 for B = flip(right, left) o crossing, as layers of hashable entries; None when B = 1."""
        b = self.braiding(left, right) if over else self.braiding_inv(right, left)
        rest = flip_matrix(right, left, self.mode) @ b - Morphism.identity(b.source, self.mode)
        return None if rest.is_zero else tuple((d, tuple(e.items())) for d, e in rest.layers)

    # -- Clebsch-Gordan -------------------------------------------------------

    def cg_decompose(self, x, y):
        """Decompose V_m (x) V_n into simples.

        Returns a list of (SimpleObj, embed, project) with
        sum_k embed_k o project_k = id and project_k o embed_l = delta_kl id.
        The embedding is any basis of the one-dimensional Hom(V_k, x (x) y);
        only embed o project is independent of that choice.  The projection
        is the basis of Hom(x (x) y, V_k) scaled so that project o embed = id;
        Schur's lemma gives the other relations.
        """
        x, y = simple(x), simple(y)
        m, n = x.spin, y.spin
        if m + n > MAX_SPIN:
            raise CgError(f"product spin {m + n} exceeds the supported bound {MAX_SPIN}")
        word = TensorObj(x, y)
        result = []
        for k in range(m + n, abs(m - n) - 1, -2):
            target = SimpleObj(k)
            (embed,) = self.invariant_hom_basis(target, word)
            (project,) = self.invariant_hom_basis(word, target)
            result.append((target, embed, project.scale((project @ embed).entry(0, 0).inverse())))
        return result

    def cg_reduce(self, core, context, plus, minus):
        """`core` with a block b (x) c of simples at context[plus] and its dual at context[minus] reduced to each V_k.

        Returns one (V_k, morphism) pair per Clebsch-Gordan component: the
        projection at context[plus], the transposed embedding at
        context[minus].  One pass per core layer (`_int_pair_apply`, through
        `_cg_table`) writes every component, on the raw word of the context
        as in `apply_chain`, and one `rebracket` per component moves it onto
        the left-nested word.  `core` must end on the left-nested word of
        `context`.
        """
        word = flat_word(context)
        if core.mode != self.mode or core.target != word:
            raise ModeError(f"cg_reduce: core {core!r} does not end on the context word {word}")
        lab, first, second = context[plus], min(plus, minus), max(plus, minus)
        targets, den, table = self._cg_table(lab.left, lab.right, plus < minus)
        dims = [o.dim for o in context]  # the two ends have the same dim
        walk = (dims[first], prod(dims[first + 1 : second]), prod(dims[second + 1 :]))
        out = [[[] for _ in core.layers] for _ in targets]  # per component and order: (den, entries) terms
        for order, (d, entries) in enumerate(self.rebracket(core, target=tensor_word(context)).layers):
            for (n, degree), acc in _int_pair_apply(table, entries, *walk, self.mode.order - order).items():
                out[n][order + degree].append((d * den, acc))
        reduced = []
        for target, parts in zip(targets, out):
            blocks = list(context)
            blocks[plus], blocks[minus] = target, dual(target)
            m = Morphism._of(core.source, tensor_word(blocks), self.mode, [_sum(t) for t in parts])
            reduced.append((target, self.rebracket(m, target=flat_word(blocks))))
        return reduced

    @lru_cache(maxsize=None)
    def _cg_table(self, b: SimpleObj, c: SimpleObj, plus_first: bool):
        """(targets, den, table) for `_int_pair_apply`: per V_k = targets[n], the projection (x) the
        transposed embedding on a handle's ends in slot order (the +-end first if `plus_first`)."""
        cg = self.cg_decompose(b, c)
        ops = [p.tensor(self.transpose(e)) if plus_first else self.transpose(e).tensor(p) for _, e, p in cg]
        den, table = lcm(*(d for op in ops for d, _ in op.layers)), {}
        for n, ((target, _, _), op) in enumerate(zip(cg, ops)):
            for degree, (d, entries) in enumerate(op.layers):
                for (row, col), v in entries.items():
                    entry = (n, target.dim, *divmod(row, target.dim), degree, v * (den // d))
                    table.setdefault(divmod(col, b.dim * c.dim), []).append(entry)
        return [t for t, _, _ in cg], den, table

    # -- invariant Hom spaces -----------------------------------------------------

    @lru_cache(maxsize=None)
    def invariant_hom_basis(self, source: ObjectExpr, target: ObjectExpr):
        """Basis of Hom(source, target): the kernel of the classical system of the flat words (`_hom_system`),
        lifted through the quantum constraint layers of order >= 1, or taken into the epsilon and Drinfeld ring."""
        if self.name in ("epsilon", "drinfeld"):
            return [b.convert(self.mode) for b in make_backend("classical").invariant_hom_basis(source, target)]
        flat = flat_word([source]), flat_word([target])
        unknowns, den0, factored = _hom_system(*flat)
        lifts, _, _ = _lift_series(den0, factored, _hom_constraints(*flat, unknowns, self.mode.order, 1), [])
        columns = {}
        for o, (_, e) in enumerate(lifts):
            for (c, n), v in e.items():
                columns.setdefault(n, [{} for _ in lifts])[o][unknowns[c]] = v
        return [
            Morphism._of(source, target, self.mode, [_layer(den, part) for (den, _), part in zip(lifts, parts)])
            for _, parts in sorted(columns.items())
        ]

    def random_invariant(self, source, target, rng) -> Morphism:
        basis = self.invariant_hom_basis(source, target)
        out = Morphism.zero(source, target, self.mode)
        for b in basis:
            out = out + b.scale(Fraction(rng.randint(-3, 3)))
        return out


def _hom_constraints(source: ObjectExpr, target: ObjectExpr, unknowns, order: int, first: int):
    """Layers first..order-1 of the relations (gt M - M gs)_{ij} = 0, g = E, F, on Hom(source, target) at `order`."""
    upos = {u: a for a, u in enumerate(unknowns)}
    ns, nt = source.dim, target.dim
    terms = [[] for _ in range(first, order)]
    for g, gen in enumerate(("E", "F")):
        gs, gt = _quantum_action(gen, source, order), _quantum_action(gen, target, order)
        for o, ((dt, et), (ds, es)) in enumerate(zip(gt[first:], gs[first:])):
            terms[o] += [
                (dt, {((g, i, j), upos[k, j]): v for (i, k), v in et.items() for j in range(ns) if (k, j) in upos}),
                (ds, {((g, i, j), upos[i, k]): -v for (k, j), v in es.items() for i in range(nt) if (i, k) in upos}),
            ]
    return [_sum(t) for t in terms]


@lru_cache(maxsize=None)
def _hom_system(source: ObjectExpr, target: ObjectExpr):
    """(weight-matched unknowns, den0, `_factor` of a0) for the classical Hom(source, target) constraints a0 / den0."""
    unknowns = [(i, j) for i, wi in enumerate(weights_of(target)) for j, wj in enumerate(weights_of(source)) if wi == wj]
    (a0,) = _hom_constraints(source, target, unknowns, 1, 0)
    return unknowns, a0[0], _factor(a0[1], len(unknowns))


def make_backend(name: str, order: int = 3) -> BackendSpec:
    """One backend object per category and ring (so one set of cache entries); `order` only matters for hbar."""
    if name not in BACKEND_NAMES:
        raise LabelError(f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
    fixed = {"classical": classical_mode(), "epsilon": epsilon_mode()}
    return _backend(name, fixed[name] if name in fixed else hbar_mode(order))


@lru_cache(maxsize=None)
def _backend(name: str, mode: RingMode) -> BackendSpec:
    return BackendSpec(name, mode)
