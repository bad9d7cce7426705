"""Concrete ribbon-category backends on sl2.

Four backends share one interface: objects are parenthesized tensor words
over simple labels and their duals, morphisms are matrices over the
backend's truncated coefficient ring, M = sum_k param^k M_k, stored as
per-order sparse integer matrices over a common denominator: each layer M_k
is one canonical pair (den, {(i, j): int}) with den > 0 and
gcd(den, *entries) == 1, so equal matrices have equal layers.  The kernels
multiply and add integers and normalise once per result; Fraction appears
only at the boundaries (construction and JSON, the ScalarSeries entry
view, and the exact solver).

  ClassicalSl2   symmetric flip braiding, trivial twist and associator
  EpsilonSl2     braiding flip(1 + e*r) with r = e(x)f + h(x)h/4
  QuantumSl2     braiding from the truncated universal R-matrix, q = exp(h/2)
  DrinfeldSl2    braiding flip*exp(h*t/2), twist exp(h*C/2), associator
                 1 + h^2/24 [t12, t23] (order <= 3)

All but the quantum backend share one formula each: the braiding is
flip o exp(rate*param*Omega), its inverse exp(-rate*param*Omega) o flip,
and the twist exp(param*C/2), with (Omega, rate) = (r, 1) on epsilon and
(t, 1/2) otherwise.  The truncation does the rest: the order-1 exponential
is the identity on classical, and e^2 = 0 makes exp(e*r) = 1 + e*r.
Every two-leg tensor (r, t, r_a) and the three-leg [t12, t23] act through
`insert_legs`, on a given matrix; `leg_insertion` is `insert_legs` on the
identity of a word.

Only Drinfeld at order 3 is non-strict.  `BackendSpec.rebracket` is the one
place a morphism changes bracketing.  There, with h^3 = 0, the coherence
src -> tgt is 1 + h^2/24 sum_{i<j<k} (psi_tgt - psi_src)(i, j, k) [t_ij, t_jk]
in closed form (psi_T(i, j, k) = 1 when leaves j and k join before i in
T), so rebracketing adds one h^2 term to the morphism and builds no comb
of associators; `coherence` and the associators are rebrackets of the
identity.  On the other backends it relabels.

`BackendSpec.apply` is the one way a local morphism (a crossing, a coupon,
a cup or cap) acts inside a word: it moves the sparse rows of a core by
mixed-radix index arithmetic and never builds id (x) m (x) id on the word.
`flat_apply` is `apply` on the identity, for callers whose answer is that
matrix.

All exact linear solving goes through one solver: one sparse reduction of
A0, replayed on every order's residuals.  `eliminate` reduces the constant
layer once and replays its recorded row operations on each right-hand
side, and `solve_series` lifts the solutions order by order with the same
reduction.  Invariant Hom bases, the inverse of a constant layer and the
coordinates of a skein core use it, and each Clebsch-Gordan embedding is
the basis of the one-dimensional Hom space Hom(V_k, x (x) y).

Normalization: the invariant form is the trace form on the fundamental
representation, so t = e(x)f + f(x)e + h(x)h/2, C = ef + fe + h^2/2, and
C acts on the fundamental by 3/2 and on V_n by n(n+2)/2.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, gcd, lcm, prod

from .errors import CgError, LabelError, ModeError, Part1DomainError, SkeinlabError, TruncationUnsupported
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

_ZERO = Fraction(0)

MAX_SPIN = 8


# ---------------------------------------------------------------------------
# Object expressions
# ---------------------------------------------------------------------------


class ObjectExpr:
    """A parenthesized tensor word over simple labels and their duals."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def leaves(self):
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class UnitObj(ObjectExpr):
    @property
    def dim(self):
        return 1

    def leaves(self):
        return []

    def to_json(self):
        return ["unit"]

    def __str__(self):
        return "1"


@dataclass(frozen=True)
class SimpleObj(ObjectExpr):
    spin: int

    @property
    def dim(self):
        return self.spin + 1

    def leaves(self):
        return [self]

    def to_json(self):
        # the trivial simple is "V0", distinct from the monoidal unit
        return ["V0"] if self.spin == 0 else [spin_name(self.spin)]

    def __str__(self):
        return spin_name(self.spin)


@dataclass(frozen=True)
class DualObj(ObjectExpr):
    inner: SimpleObj

    @property
    def dim(self):
        return self.inner.dim

    def leaves(self):
        return [self]

    def to_json(self):
        return ["dual", self.inner.to_json()]

    def __str__(self):
        return f"{self.inner}*"


@dataclass(frozen=True)
class TensorObj(ObjectExpr):
    left: ObjectExpr
    right: ObjectExpr

    @property
    def dim(self):
        return self.left.dim * self.right.dim

    def leaves(self):
        return self.left.leaves() + self.right.leaves()

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
    if name in _NAME_SPINS:
        return _NAME_SPINS[name]
    if name.startswith("V") and name[1:].isdigit():
        return int(name[1:])
    raise LabelError(f"unknown simple label {name!r}")


def simple(label) -> SimpleObj:
    if isinstance(label, SimpleObj):
        return label
    spin = label if isinstance(label, int) else parse_label(label)
    if not 0 <= spin <= MAX_SPIN:
        raise LabelError(f"spin {spin} out of range 0..{MAX_SPIN}")
    return SimpleObj(spin)


def dual(x) -> ObjectExpr:
    """Dual of a word: reverse the factors and dualize the leaves."""
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
    """Left-nested tensor of the factors; unit factors are dropped."""
    factors = [f for f in factors if not isinstance(f, UnitObj)]
    if not factors:
        return UNIT
    word = factors[0]
    for f in factors[1:]:
        word = TensorObj(word, f)
    return word


def left_nested(x: ObjectExpr) -> ObjectExpr:
    return tensor_word(x.leaves())


def word_tensor(a: ObjectExpr, b: ObjectExpr) -> ObjectExpr:
    if isinstance(a, UnitObj):
        return b
    if isinstance(b, UnitObj):
        return a
    return TensorObj(a, b)


def object_from_json(data) -> ObjectExpr:
    if data[0] == "unit":
        return UNIT
    if data[0] == "tensor":
        word = object_from_json(data[1])
        for part in data[2:]:
            word = TensorObj(word, object_from_json(part))
        return word
    if data[0] == "dual":
        return dual(object_from_json(data[1]))
    return simple(data[0])


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
        """Read-only view: position -> ScalarSeries, for every nonzero position."""
        return _EntryView(self)

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
        return f"Morphism({self.source} -> {self.target}, {len(self.entries)} entries, {self.mode})"

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
        layers = self.layers
        # (entries / den)^-1 = den entries^-1, by the exact solver
        den, entries = layers[0]
        kernel, columns = eliminate(entries, d, [{j: den} for j in range(d)])
        if kernel:
            raise ZeroDivisionError("constant part of the matrix is singular")
        inv0 = as_layer({(i, j): v for j, col in enumerate(columns) for i, v in col.items()})
        result = [inv0]
        for k in range(1, len(layers)):
            acc = _sum([_product(layers[i], result[k - i], _int_compose) for i in range(1, k + 1)])
            den, e = _product(inv0, acc, _int_compose)
            result.append(_layer(den, _int_scale(e, -1)))
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


class _EntryView(Mapping):
    """Read-only view of a morphism as position -> ScalarSeries."""

    __slots__ = ("_m",)

    def __init__(self, m: Morphism):
        self._m = m

    def __len__(self):
        return len(_positions(self._m.layers))

    def __iter__(self):
        return iter(_positions(self._m.layers))

    def __getitem__(self, pos):
        if not any(pos in e for _, e in self._m.layers):
            raise KeyError(pos)
        return self._m.entry(*pos)


# ---------------------------------------------------------------------------
# Layers: sparse integer kernels, one denominator per layer
# ---------------------------------------------------------------------------
#
# The `_int_*` kernels work on bare {(i, j): int} dicts and never divide.
# A layer is a canonical pair (den, entries); `_layer` and `_sum` restore
# that form once per result, combining denominators by product or lcm, and
# skip the gcd when the denominator is 1.  Layers are shared between
# morphisms, so no function mutates a layer's dict.


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


def _int_apply(a, b, right, src, tgt):
    """(id (x) a (x) id_right) b by mixed-radix row arithmetic.

    Row (l * src + c) * right + rr of b goes to row (l * tgt + k) * right + rr
    for every entry a[k, c]; the identity factors are never built.  Entries
    of a equal to 1 (most of a crossing's) move b's entries unmultiplied.
    """
    by_col = {}
    for (k, c), x in a.items():
        by_col.setdefault(c, []).append((k, None if x == 1 else x))
    block = src * right
    out = {}
    for (r, j), y in b.items():
        l, rest = divmod(r, block)
        c, rr = divmod(rest, right)
        for k, x in by_col.get(c, ()):
            key = ((l * tgt + k) * right + rr, j)
            p = y if x is None else x * y
            s = out.get(key)
            out[key] = p if s is None else s + p
    return {k: v for k, v in out.items() if v}


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


def to_fractions(layer):
    """A layer as a sparse {(i, j): Fraction} matrix."""
    den, entries = layer
    return {k: Fraction(v, den) for k, v in entries.items()}


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
# Exact linear solving: one sparse reduction, replayed on every right-hand side
# ---------------------------------------------------------------------------


def _factor(a0, ncols):
    """Sparse Gauss-Jordan reduction of a0 ({col: rational} rows), recorded.

    Every entry of a0 and of each b is taken as a Fraction (ints and
    Fractions in, Fractions out), so the divisions stay exact.

    Returns (kernel, solve): the kernel basis of `eliminate`, and solve(b),
    which replays the row operations (pivot row, pivot, [(row, factor)]) on
    a sparse vector b and returns its solution as in `eliminate`.
    """
    rows, cols = {}, {}
    for (r, c), v in a0.items():
        if v:
            rows.setdefault(r, {})[c] = as_fraction(v)
            cols.setdefault(c, {})[r] = None
    ops, pivots = [], {}
    for c in range(ncols):
        candidates = [r for r in cols.get(c, ()) if r not in pivots]
        if not candidates:
            continue
        p = min(candidates, key=lambda r: len(rows[r]))
        prow = rows[p]
        pv = prow[c]
        if pv != 1:
            for k in prow:
                prow[k] /= pv
        updates = [(r, rows[r][c]) for r in cols[c] if r != p]
        for r, f in updates:
            row = rows[r]
            for k, y in prow.items():
                x = row.get(k, _ZERO) - f * y
                if x:
                    row[k] = x
                    cols[k][r] = None
                else:
                    del row[k], cols[k][r]
        ops.append((p, pv, updates))
        pivots[p] = c
    kernel = [
        {fc: Fraction(1)} | {c: -rows[p][fc] for p, c in pivots.items() if fc in rows[p]}
        for fc in sorted(set(range(ncols)) - set(pivots.values()))
    ]

    def solve(b):
        b = {r: as_fraction(v) for r, v in b.items()}
        for p, pv, updates in ops:
            x = b.get(p)
            if x:
                if pv != 1:
                    x = b[p] = x / pv
                for r, f in updates:
                    b[r] = b.get(r, _ZERO) - f * x
        if any(v for r, v in b.items() if r not in pivots):
            return None
        return {c: b[p] for p, c in pivots.items() if b.get(p)}

    return kernel, solve


def eliminate(a0, ncols, rhs):
    """Solve a0 x = b for every b in `rhs`: one sparse reduction of a0, replayed on each b.

    `a0` is a sparse {(row, col): rational} matrix with `ncols` columns (rows
    are any hashable keys) and each b a sparse {row: rational} vector.
    Returns (kernel, solutions): a kernel basis of a0, one vector per free
    column with that column set to 1, and per b the solution with the free
    variables set to 0, or None if b is inconsistent.  Vectors are sparse
    {col: rational}.  The reduced row echelon form is unique, so neither
    depends on which row serves as a column's pivot.
    """
    kernel, solve = _factor(a0, ncols)
    return kernel, [solve(b) for b in rhs]


def solve_series(layers, ncols, rhs):
    """Solve A x = b over the truncated ring, A = sum_k param^k layers[k].

    `layers` are sparse matrices as in `eliminate`, and each b in `rhs` is
    the list of its per-order vectors.  One sparse reduction of A_0 is
    replayed on every order's residuals: order k solves A_0 x_k = b_k -
    sum_{i>=1} A_i x_{k-i} for all vectors.  Returns (kernel, solutions):
    the lift of every classical kernel vector (A v = 0) and per b one
    solution or None, each as its list of per-order vectors.  A kernel
    vector that does not lift means the module is not free and raises.
    """
    kernel, solve = _factor(layers[0], ncols)
    lifts = [[v] for v in kernel]
    solutions = [None if x is None else [x] for x in (solve(b[0]) for b in rhs)]
    zero = [{} for _ in layers]
    for k in range(1, len(layers)):
        for x, b in [(x, zero) for x in lifts] + [(x, b) for x, b in zip(solutions, rhs) if x is not None]:
            res = dict(b[k])
            for i in range(1, k + 1):
                prev = x[k - i]
                for (r, c), v in layers[i].items():
                    if c in prev:
                        res[r] = res.get(r, _ZERO) - v * prev[c]
            x.append(solve(res))
        if any(v[-1] is None for v in lifts):
            raise CgError("kernel does not lift: module is not free")
        solutions = [None if x is None or x[-1] is None else x for x in solutions]
    return lifts, solutions


# ---------------------------------------------------------------------------
# sl2 representation data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _rep_matrices(spin: int):
    """Classical matrices (e, f, h) on V_spin: f u_j = u_{j+1}, h u_j = (n-2j) u_j."""
    n = spin
    e, f, h = {}, {}, {}
    for j in range(n + 1):
        if n - 2 * j:
            h[(j, j)] = n - 2 * j
        if j + 1 <= n:
            f[(j + 1, j)] = 1
        if j >= 1:
            e[(j - 1, j)] = j * (n + 1 - j)
    return {"e": e, "f": f, "h": h}


@lru_cache(maxsize=None)
def classical_action(gen: str, word: ObjectExpr):
    """Integer matrix {(i, j): int} of the sl2 basis element `gen` on a tensor word.

    Tensor factors via the Leibniz rule, duals via minus transpose.
    """
    if isinstance(word, UnitObj):
        return {}
    if isinstance(word, SimpleObj):
        return dict(_rep_matrices(word.spin)[gen])
    if isinstance(word, DualObj):
        return _int_scale(_int_transpose(classical_action(gen, word.inner)), -1)
    if isinstance(word, TensorObj):
        a = classical_action(gen, word.left)
        b = classical_action(gen, word.right)
        da, db = word.left.dim, word.right.dim
        return _int_iadd(_int_kron(a, _int_ident(db), db, db), _int_kron(_int_ident(da), b, db, db))
    raise TypeError(word)


@lru_cache(maxsize=None)
def weights_of(word: ObjectExpr):
    """Weight of each basis index (diagonal of the h-action)."""
    h = classical_action("h", word)
    return tuple(int(h.get((i, i), 0)) for i in range(word.dim))


def casimir_action(word: ObjectExpr):
    """Layer of C = ef + fe + h^2/2 on the word."""
    e = classical_action("e", word)
    f = classical_action("f", word)
    h = classical_action("h", word)
    return _sum([(1, _int_compose(e, f)), (1, _int_compose(f, e)), (2, _int_compose(h, h))])


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


def insert_legs(factors, terms, m):
    """sum over (p_1, ..., p_n, tensor) in `terms` of sum_k c_k g_k1^(p_1) ... g_kn^(p_n) m.

    `tensor` lists (c_k, g_k1, ..., g_kn) with rational c_k; `m` is a layer
    whose rows index the flat word of `factors`, and g^(p) is g acting on
    factors[p] (id (x) g (x) id, by `_int_apply`), the last leg first.
    Grouped so that each distinct run of later legs acts once on m, and
    each first leg (position, generator) once on the coefficient-weighted
    sum of the runs it heads.  The generators act by integer matrices, so
    the result is an integer matrix over den(m) times the lcm of the
    coefficients' denominators, normalised once.
    """
    dims = [w.dim for w in factors]

    def act(leg, x):
        p, gen = leg
        return _int_apply(classical_action(gen, factors[p]), x, prod(dims[p + 1 :]), dims[p], dims[p])

    den, entries = m
    acted = {(): entries}

    def run(legs):
        if legs not in acted:
            acted[legs] = act(legs[0], run(legs[1:]))
        return acted[legs]

    sums = {}  # (first leg, coefficient) -> unscaled sum of runs
    for *positions, tensor in terms:
        for coeff, *gens in tensor:
            legs = tuple(zip(positions, gens))
            _int_iadd(sums.setdefault((legs[0], coeff), {}), run(legs[1:]))
    scale = lcm(*{coeff.denominator for _, coeff in sums})
    firsts = {}
    for (leg, coeff), x in sums.items():
        _int_iadd(firsts.setdefault(leg, {}), x, coeff.numerator * (scale // coeff.denominator))
    out = {}
    for leg, x in firsts.items():
        _int_iadd(out, act(leg, x))
    return _layer(den * scale, out)


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
def _quantum_rep(spin: int, order: int):
    """Layers of E, F, K, Kinv on V_spin over the hbar ring."""
    mode = hbar_mode(order)
    n = spin
    gens = {g: [{} for _ in range(order)] for g in ("E", "F", "K", "Kinv")}

    def put(gen, key, s: ScalarSeries):
        for layer, c in zip(gens[gen], s.coeffs):
            if c:
                layer[key] = c

    for j in range(n + 1):
        put("K", (j, j), _q_power(mode, n - 2 * j))
        put("Kinv", (j, j), _q_power(mode, 2 * j - n))
        if j + 1 <= n:
            gens["F"][0][(j + 1, j)] = Fraction(1)
        if j >= 1:
            put("E", (j - 1, j), _q_int(mode, j) * _q_int(mode, n + 1 - j))
    return {g: [as_layer(layer) for layer in layers] for g, layers in gens.items()}


class _QuantumOps:
    """U_q(sl2) generator actions on tensor words, with antipode duals.

    Coproduct: Delta(E) = E(x)K + 1(x)E, Delta(F) = F(x)1 + Kinv(x)F,
    antipode: S(E) = -E Kinv, S(F) = -K F, S(K) = Kinv.  Actions and the
    R-matrix data are layer lists (see Morphism).
    """

    def __init__(self, order: int):
        self.mode = hbar_mode(order)
        self._cache = {}

    def action(self, gen: str, word: ObjectExpr):
        key = (gen, word)
        if key not in self._cache:
            self._cache[key] = self._compute(gen, word)
        return self._cache[key]

    def _ident(self, d):
        return _layers_ident(d, self.mode.order)

    def _compute(self, gen, word):
        if isinstance(word, UnitObj):
            if gen in ("K", "Kinv"):
                return self._ident(1)
            return list(_zero_layers(self.mode.order))
        if isinstance(word, SimpleObj):
            return _quantum_rep(word.spin, self.mode.order)[gen]
        if isinstance(word, DualObj):
            inner = word.inner
            if gen == "K":
                m = self.action("Kinv", inner)
            elif gen == "Kinv":
                m = self.action("K", inner)
            else:
                left, right = ("E", "Kinv") if gen == "E" else ("K", "F")
                m = _convolve(self.action(left, inner), self.action(right, inner), _int_compose)
                m = [(d, _int_scale(x, -1)) for d, x in m]
            return [(d, _int_transpose(x)) for d, x in m]
        if isinstance(word, TensorObj):
            a, b = word.left, word.right
            db = b.dim
            if gen in ("K", "Kinv"):
                return _layers_kron(self.action(gen, a), self.action(gen, b), db, db)
            if gen == "E":
                left = _layers_kron(self.action("E", a), self.action("K", b), db, db)
                right = _layers_kron(self._ident(a.dim), self.action("E", b), db, db)
                return _layers_add(left, right)
            left = _layers_kron(self.action("F", a), self._ident(b.dim), db, db)
            right = _layers_kron(self.action("Kinv", a), self.action("F", b), db, db)
            return _layers_add(left, right)
        raise TypeError(word)

    def _ladder_coeffs(self):
        """c_n = q^{n(n-1)/2} (q - q^{-1})^n / [n]_q! for n = 1, 2, ..."""
        mode = self.mode
        q_minus = _q_power(mode, 1) - _q_power(mode, -1)
        qm = ScalarSeries.one(mode)
        fact = ScalarSeries.one(mode)
        for n in range(1, mode.order):
            qm = qm * _q_power(mode, n - 1) * q_minus
            fact = fact * _q_int(mode, n)
            yield n, qm * fact.inverse()

    def r_matrix(self, x: ObjectExpr, y: ObjectExpr):
        """Truncated universal R-matrix q^{H(x)H/2} sum c_n E^n (x) F^n on x(x)y."""
        mode = self.mode
        dy = y.dim
        d = x.dim * dy
        hh = _int_kron(classical_action("h", x), classical_action("h", y), dy, dy)
        cartan = exp_nilseries((1, hh), d, mode, rate=Fraction(1, 4))
        total = self._ident(d)
        Epow = self._ident(x.dim)
        Fpow = self._ident(dy)
        Ex = self.action("E", x)
        Fy = self.action("F", y)
        for n, coeff in self._ladder_coeffs():
            Epow = _convolve(Epow, Ex, _int_compose)
            Fpow = _convolve(Fpow, Fy, _int_compose)
            if _is_zero(Epow) or _is_zero(Fpow):
                break
            term = _layers_kron(Epow, Fpow, dy, dy)
            total = _layers_add(total, _layers_scale(term, coeff))
        return _convolve(cartan, total, _int_compose)

    def r_matrix_inv(self, x: ObjectExpr, y: ObjectExpr):
        """(S (x) 1)(R) = R^{-1} acting on x(x)y.

        Term n is (-1)^n c_n ((E Kinv)^n (x) 1) q^{-H(x)H/2} (1 (x) F^n); the
        Cartan factor sits between the ladder factors and does not commute
        with them, so the terms are assembled individually.
        """
        mode = self.mode
        dy = y.dim
        d = x.dim * dy
        hh = _int_kron(classical_action("h", x), classical_action("h", y), dy, dy)
        cartan = exp_nilseries((1, hh), d, mode, rate=Fraction(-1, 4))
        total = cartan
        EKpow = self._ident(x.dim)
        Fpow = self._ident(dy)
        EK = _convolve(self.action("E", x), self.action("Kinv", x), _int_compose)
        Fy = self.action("F", y)
        idx = self._ident(x.dim)
        idy = self._ident(dy)
        for n, coeff in self._ladder_coeffs():
            EKpow = _convolve(EKpow, EK, _int_compose)
            Fpow = _convolve(Fpow, Fy, _int_compose)
            if _is_zero(EKpow) or _is_zero(Fpow):
                break
            if n % 2:
                coeff = coeff * Fraction(-1)
            term = _convolve(
                _layers_kron(EKpow, idy, dy, dy),
                _convolve(cartan, _layers_kron(idx, Fpow, dy, dy), _int_compose),
                _int_compose,
            )
            total = _layers_add(total, _layers_scale(term, coeff))
        return total

    def u_matrix(self, word: ObjectExpr):
        """u = S(R^2) R^1 = sum (-1)^n c_n (KF)^n exp(-h H^2/4) E^n on the word."""
        mode = self.mode
        d = word.dim
        hw = classical_action("h", word)
        mid = exp_nilseries((1, _int_compose(hw, hw)), d, mode, rate=Fraction(-1, 4))
        E = self.action("E", word)
        KF = _convolve(self.action("K", word), self.action("F", word), _int_compose)
        total = mid
        KFpow = self._ident(d)
        Epow = self._ident(d)
        for n, coeff in self._ladder_coeffs():
            KFpow = _convolve(KFpow, KF, _int_compose)
            Epow = _convolve(Epow, E, _int_compose)
            if _is_zero(KFpow) or _is_zero(Epow):
                break
            if n % 2:
                coeff = coeff * Fraction(-1)
            term = _convolve(KFpow, _convolve(mid, Epow, _int_compose), _int_compose)
            total = _layers_add(total, _layers_scale(term, coeff))
        return total


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
    """(i, j, k, tensor) terms of X(src -> tgt), coherence(src, tgt) = 1 + h^2 X.

    With h^3 = 0 every associator step is 1 + O(h^2), so the steps of any
    rebracketing add their h^2 parts.  A rotation (xy)z -> x(yz) adds
    [t_ij, t_jk] for each leaf triple i in x, j in y, k in z: exactly the
    triples whose psi turns from 0 to 1.  Hence
    X(src -> tgt) = 1/24 sum_{i<j<k} (psi_tgt - psi_src)(i, j, k) Omega_ijk,
    with Omega = [t12, t23] (`OMEGA_TENSOR`), so each term's coefficients
    are those of Omega over 24.  Unit factors carry no leaf and give no path.
    """
    gained, lost = _joins(tgt), _joins(src)
    plus = tuple((c / 24, *gens) for c, *gens in OMEGA_TENSOR)
    minus = tuple((-c, *gens) for c, *gens in plus)
    return tuple([(*ijk, plus) for ijk in gained - lost] + [(*ijk, minus) for ijk in lost - gained])


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

BACKEND_NAMES = ("classical", "epsilon", "quantum", "drinfeld")


class BackendSpec:
    """Ribbon-category data for one of the four sl2 instances."""

    def __init__(self, name: str, mode: RingMode):
        if name == "drinfeld" and mode.order > 3:
            # the associator formula and its inverse need h^3 = 0
            raise TruncationUnsupported("DrinfeldSl2 supports truncation orders <= 3")
        self.name = name
        self.mode = mode
        self._cache = {}
        self._coev_scales = {}
        self._qops = _QuantumOps(mode.order) if name == "quantum" else None
        # the exponent Omega of the non-quantum braidings and its rate
        self._omega, self._rate = (R_TENSOR, Fraction(1)) if name == "epsilon" else (T_TENSOR, Fraction(1, 2))
        self.nontrivial_associator = name == "drinfeld" and mode.order >= 3

    def __repr__(self):
        return f"BackendSpec({self.name}, {self.mode})"

    @property
    def is_deformed(self):
        """Whether the ring has a first-order term (order >= 2)."""
        return self.mode.order > 1

    def _cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- braiding ----------------------------------------------------------

    def braiding(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """The braiding x(x)y -> y(x)x; the left (x) strand passes over."""
        return self._cached(("braid", x, y), lambda: self._braiding(x, y))

    def _braiding(self, x, y):
        src = word_tensor(x, y)
        layers = self._exp_omega(x, y, self._rate) if self._qops is None else self._qops.r_matrix(x, y)
        return flip_matrix(x, y, self.mode) @ Morphism._of(src, src, self.mode, layers)

    def braiding_inv(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """Inverse of braiding(x, y): a morphism y(x)x -> x(x)y."""
        return self._cached(("braidinv", x, y), lambda: self._braiding_inv(x, y))

    def _braiding_inv(self, x, y):
        tgt = word_tensor(x, y)
        layers = self._exp_omega(x, y, -self._rate) if self._qops is None else self._qops.r_matrix_inv(x, y)
        return Morphism._of(tgt, tgt, self.mode, layers) @ flip_matrix(y, x, self.mode)

    def _exp_omega(self, x, y, rate):
        """Layers of exp(rate * param * Omega) on x(x)y."""
        omega = leg_insertion([x, y], [0], [1], self._omega)
        return exp_nilseries(omega, x.dim * y.dim, self.mode, rate)

    def swap(self, x: ObjectExpr, y: ObjectExpr, left_over: bool) -> Morphism:
        """The iso x(x)y -> y(x)x; the left strand passes over iff left_over."""
        if left_over:
            return self.braiding(x, y)
        return self.braiding_inv(y, x)

    # -- twist ---------------------------------------------------------------

    def twist(self, x: ObjectExpr) -> Morphism:
        return self._cached(("twist", x), lambda: self._twist(x, 1))

    def twist_inv(self, x: ObjectExpr) -> Morphism:
        return self._cached(("twistinv", x), lambda: self._twist(x, -1))

    def _twist(self, x, sign):
        if self._qops is None:
            return Morphism._of(x, x, self.mode, exp_nilseries(casimir_action(x), x.dim, self.mode, Fraction(sign, 2)))
        if sign > 0:
            return self.twist_inv(x).inverse()
        # quantum: the inverse twist is exp(-h rho) u, so that V_n twists by
        # exp(h n(n+2)/4), matching the Casimir normalization of the other backends
        u = Morphism._of(x, x, self.mode, self._qops.u_matrix(x))
        h = (1, classical_action("h", x))
        g = Morphism._of(x, x, self.mode, exp_nilseries(h, x.dim, self.mode, rate=Fraction(-1, 2)))
        return g @ u

    # -- infinitesimal braiding -----------------------------------------------

    def inf_braiding(self, x: ObjectExpr, y: ObjectExpr) -> Morphism:
        """t on x(x)y, as a classical morphism.

        An undeformed backend (classical, or truncation order 1) stores
        t = e(x)f + f(x)e + h(x)h/2 directly; every deformed backend extracts
        [beta^2 - id]_1, which equals the same tensor (the ratio between the
        two is one in these conventions).
        """
        return self._cached(("t", x, y), lambda: self._inf_braiding(x, y))

    def _inf_braiding(self, x, y):
        src = word_tensor(x, y)
        if not self.is_deformed:
            return Morphism._of(src, src, classical_mode(), [leg_insertion([x, y], [0], [1], T_TENSOR)])
        double = self.braiding(y, x) @ self.braiding(x, y)
        return (double - Morphism.identity(src, self.mode)).part1()

    # -- duality ----------------------------------------------------------------

    def _coev_scale(self, spin: int) -> ScalarSeries:
        """Correction making the snake identities exact (Drinfeld only)."""
        if not self.nontrivial_associator:
            return ScalarSeries.one(self.mode)
        if spin not in self._coev_scales:
            x = SimpleObj(spin)
            dx = DualObj(x)
            naive = self._naive_copairing(x)
            idx = Morphism.identity(x, self.mode)
            phi = self.associator(x, dx, x)
            snake = idx.tensor(self._pairing(x)) @ phi @ naive.tensor(idx)
            scalar = snake.entry(0, 0)
            self._coev_scales[spin] = scalar.inverse()
        return self._coev_scales[spin]

    def _pairing(self, x: SimpleObj) -> Morphism:
        d = x.dim
        return Morphism(TensorObj(DualObj(x), x), UNIT, self.mode, [{(0, i * d + i): 1 for i in range(d)}])

    def _naive_copairing(self, x: SimpleObj) -> Morphism:
        d = x.dim
        return Morphism(UNIT, TensorObj(x, DualObj(x)), self.mode, [{(i * d + i, 0): 1 for i in range(d)}])

    def _copairing(self, x: SimpleObj) -> Morphism:
        return self._naive_copairing(x).scale(self._coev_scale(x.spin))

    def ev(self, x: ObjectExpr) -> Morphism:
        """Evaluation dual(x) (x) x -> unit."""
        return self._cached(("ev", x), lambda: self._ev(x))

    def coev(self, x: ObjectExpr) -> Morphism:
        """Coevaluation unit -> x (x) dual(x)."""
        return self._cached(("coev", x), lambda: self._coev(x))

    def ev_right(self, x: SimpleObj) -> Morphism:
        """Right evaluation x (x) dual(x) -> unit: ev o braiding o (twist (x) id)."""

        def build():
            th = self.twist(x).tensor(Morphism.identity(DualObj(x), self.mode))
            return self.ev(x) @ self.braiding(x, DualObj(x)) @ th

        return self._cached(("evr", x), build)

    def coev_right(self, x: SimpleObj) -> Morphism:
        """Right coevaluation unit -> dual(x) (x) x: (id (x) twist) o braiding o coev."""

        def build():
            th = Morphism.identity(DualObj(x), self.mode).tensor(self.twist(x))
            return th @ self.braiding(x, DualObj(x)) @ self.coev(x)

        return self._cached(("coevr", x), build)

    def _ev(self, x):
        if isinstance(x, UnitObj):
            return Morphism.identity(UNIT, self.mode)
        if isinstance(x, SimpleObj):
            return self._pairing(x)
        if isinstance(x, DualObj):
            return self.ev_right(x.inner).retyped(source=TensorObj(dual(x), x))
        if isinstance(x, TensorObj):
            a, b = x.left, x.right
            da, db = dual(a), dual(b)
            m1 = self.flat_apply([db, da, a, b], [(1, 2, self.ev(a))])
            return self.rebracket(self.apply([db, b], [(0, 2, self.ev(b))], m1), source=TensorObj(dual(x), x))
        raise TypeError(x)

    def _coev(self, x):
        if isinstance(x, UnitObj):
            return Morphism.identity(UNIT, self.mode)
        if isinstance(x, SimpleObj):
            return self._copairing(x)
        if isinstance(x, DualObj):
            return self.coev_right(x.inner).retyped(target=TensorObj(x, dual(x)))
        if isinstance(x, TensorObj):
            a, b = x.left, x.right
            m1 = self.flat_apply([], [(0, 0, self.coev(a))])
            return self.rebracket(self.apply([a, dual(a)], [(1, 0, self.coev(b))], m1), target=TensorObj(x, dual(x)))
        raise TypeError(x)

    def transpose(self, u: Morphism) -> Morphism:
        """Categorical transpose Hom(a, b) -> Hom(dual(b), dual(a))."""
        a, b = u.source, u.target
        da, db = dual(a), dual(b)
        m = self.flat_apply([db], [(1, 0, self.coev(a))])
        m = self.apply([db, a, da], [(1, 1, u)], m)
        return self.rebracket(self.apply([db, b, da], [(0, 2, self.ev(b))], m), db, da)

    # -- associator and coherence ------------------------------------------------

    def associator(self, x: ObjectExpr, y: ObjectExpr, z: ObjectExpr) -> Morphism:
        """(x(x)y)(x)z -> x(x)(y(x)z): the one-triple coherence, 1 + h^2/24 [t12, t23] on Drinfeld(3)."""
        return self.coherence(TensorObj(TensorObj(x, y), z), TensorObj(x, TensorObj(y, z)))

    def associator_inv(self, x: ObjectExpr, y: ObjectExpr, z: ObjectExpr) -> Morphism:
        """x(x)(y(x)z) -> (x(x)y)(x)z: 1 - h^2/24 [t12, t23] on Drinfeld(3)."""
        return self.coherence(TensorObj(x, TensorObj(y, z)), TensorObj(TensorObj(x, y), z))

    def coherence(self, src: ObjectExpr, tgt: ObjectExpr) -> Morphism:
        """The canonical rebracketing morphism src -> tgt (same flat word).

        It is `rebracket` of the identity: 1 + h^2 X(src -> tgt) on
        Drinfeld(3) (see `_coherence_legs`), a relabelled identity elsewhere.
        """
        return self._cached(("coh", src, tgt), lambda: self.rebracket(Morphism.identity(src, self.mode), target=tgt))

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
        if source.leaves() != m.source.leaves() or target.leaves() != m.target.leaves():
            raise ModeError(f"rebracket needs equal flat words: {m.source} -> {m.target} vs {source} -> {target}")
        if not self.nontrivial_associator:
            return m.retyped(source, target)
        m0, m1, m2 = m.layers
        if target != m.target:
            m2 = _add(m2, insert_legs(m.target.leaves(), _coherence_legs(m.target, target), m0))
        if source != m.source:
            y = self.coherence(source, m.source).layers[2]
            m2 = _sum([m2, _product(m0, y, _int_compose)])
        return Morphism._of(source, target, self.mode, (m0, m1, m2))

    def apply(self, context, placed, core: Morphism) -> Morphism:
        """flat_apply(context, placed) @ core, without building the word matrix.

        `core` must end on the left-nested word of `context`.  Each placed
        morphism acts on the core's rows by index arithmetic (`_int_apply`),
        one placement at a time.  With a nontrivial associator `rebracket`
        moves the core onto the raw placement word before and the result to
        the left-nested target word after, so this is exact in the Drinfeld
        backend as well; on strict backends both moves would only relabel
        and are skipped.
        """

        def flat(objs):
            return [leaf for obj in objs for leaf in obj.leaves()]

        factors, pos = [], 0
        for at, span, m in sorted(placed, key=lambda p: p[0]):
            if m.mode != self.mode or flat(context[at : at + span]) != m.source.leaves():
                raise ModeError(f"apply: {m!r} does not match the context at {at}")
            factors += context[pos:at] + [m]
            pos = at + span
        factors += context[pos:]
        sources = [f.source if isinstance(f, Morphism) else f for f in factors]
        targets = [f.target if isinstance(f, Morphism) else f for f in factors]
        source, target = tensor_word(flat(sources)), tensor_word(flat(targets))
        if core.mode != self.mode or core.target != source:
            raise ModeError(f"apply: core {core!r} does not end on the context word {source}")
        layers = core.layers
        if self.nontrivial_associator:
            layers = self.rebracket(core, target=reduce(word_tensor, sources, UNIT)).layers
        dims = [s.dim for s in sources]
        right = prod(dims)
        for f, d in zip(factors, dims):
            right //= d
            if isinstance(f, Morphism):
                layers = _convolve(f.layers, layers, lambda a, b: _int_apply(a, b, right, d, f.target.dim))
        if not self.nontrivial_associator:
            return Morphism._of(core.source, target, self.mode, layers)
        placement = Morphism._of(core.source, reduce(word_tensor, targets, UNIT), self.mode, layers)
        return self.rebracket(placement, target=target)

    def flat_apply(self, context, placed) -> Morphism:
        """Morphisms applied inside a word, as one matrix between left-nested words.

        `context` is a list of strand/word objects; `placed` is a list of
        (position, span, morphism): the morphism replaces `span` consecutive
        context entries starting at `position` (span 0 inserts before it).
        It is `apply` on the identity of the context word; callers that go
        on to compose with a core call `apply` and never build this matrix.
        """
        word = tensor_word([leaf for obj in context for leaf in obj.leaves()])
        return self.apply(context, placed, Morphism.identity(word, self.mode))

    # -- Clebsch-Gordan -------------------------------------------------------

    def cg_decompose(self, x, y):
        """Decompose V_m (x) V_n into simples.

        Returns a list of (SimpleObj, embed, project) with
        sum_k embed_k o project_k = id and project_k o embed_l = delta_kl id.
        The embedding is any basis of the one-dimensional Hom(V_k, x (x) y);
        only embed o project is independent of that choice.
        """
        x, y = simple(x), simple(y)
        return self._cached(("cg", x.spin, y.spin), lambda: self._cg(x, y))

    def _cg(self, x: SimpleObj, y: SimpleObj):
        m, n = x.spin, y.spin
        if m + n > MAX_SPIN:
            raise CgError(f"product spin {m + n} exceeds the supported bound {MAX_SPIN}")
        word = TensorObj(x, y)
        mode = self.mode
        pieces = []
        stacked = [[] for _ in range(mode.order)]
        offset = 0
        for k in range(m + n, abs(m - n) - 1, -2):
            target = SimpleObj(k)
            (embed,) = self.invariant_hom_basis(target, word)
            for terms, (den, part) in zip(stacked, embed.layers):
                terms.append((den, {(i, j + offset): v for (i, j), v in part.items()}))
            pieces.append((target, embed))
            offset += target.dim
        big_inv = Morphism._of(word, word, mode, [_sum(terms) for terms in stacked]).inverse()
        result = []
        offset = 0
        for target, embed in pieces:
            dk = target.dim
            proj = [
                _layer(den, {(i - offset, j): v for (i, j), v in e.items() if offset <= i < offset + dk})
                for den, e in big_inv.layers
            ]
            result.append((target, embed, Morphism._of(word, target, mode, proj)))
            offset += dk
        return result

    def _raising_lowering(self, word):
        """Layers of the raising and lowering operators on the word."""
        if self._qops is not None:
            return self._qops.action("E", word), self._qops.action("F", word)
        empty = _zero_layers(self.mode.order - 1)
        return [(1, classical_action("e", word)), *empty], [(1, classical_action("f", word)), *empty]

    # -- invariant Hom spaces -----------------------------------------------------

    def invariant_hom_basis(self, source: ObjectExpr, target: ObjectExpr):
        """Basis of Hom(source, target) in the backend category.

        Computed weight-graded: an intertwiner only connects equal weights,
        so the unknowns are the weight-matched matrix positions and the
        constraints are the raising/lowering intertwining relations.  For
        the quantum backend the basis is the lift of the classical one.
        """
        return self._cached(("hom", source, target), lambda: self._hom_basis(source, target))

    def _hom_basis(self, source, target):
        order = self.mode.order
        ws, wt = weights_of(source), weights_of(target)
        unknowns = [(i, j) for i in range(target.dim) for j in range(source.dim) if wt[i] == ws[j]]
        upos = {u: a for a, u in enumerate(unknowns)}
        gens = zip(self._raising_lowering(source), self._raising_lowering(target))
        # one constraint row per (g, i, j): (gt M - M gs)_{ij} = 0, as a
        # sparse {(row, unknown): coefficient} matrix per order
        layers = [{} for _ in range(order)]

        def add(row, upair, o, v):
            col = upos.get(upair)
            if col is not None:
                layers[o][(row, col)] = layers[o].get((row, col), _ZERO) + v

        for g_index, (gs, gt) in enumerate(gens):
            for o in range(order):
                for (i, k), v in to_fractions(gt[o]).items():
                    for j in range(source.dim):
                        add((g_index, i, j), (k, j), o, v)
                for (k, j), v in to_fractions(gs[o]).items():
                    for i in range(target.dim):
                        add((g_index, i, j), (i, k), o, -v)
        lifts, _ = solve_series(layers, len(unknowns), [])
        return [
            Morphism._of(source, target, self.mode, [as_layer({unknowns[c]: v for c, v in x.items()}) for x in lift])
            for lift in lifts
        ]

    def random_invariant(self, source, target, rng) -> Morphism:
        basis = self.invariant_hom_basis(source, target)
        out = Morphism.zero(source, target, self.mode)
        for b in basis:
            out = out + b.scale(Fraction(rng.randint(-3, 3)))
        return out


@lru_cache(maxsize=None)
def make_backend(name: str, order: int = 3) -> BackendSpec:
    """Build one of the four backends; `order` only matters for hbar modes."""
    if name == "classical":
        return BackendSpec("classical", classical_mode())
    if name == "epsilon":
        return BackendSpec("epsilon", epsilon_mode())
    if name in ("quantum", "drinfeld"):
        return BackendSpec(name, hbar_mode(order))
    raise LabelError(f"unknown backend {name!r}; choose from {BACKEND_NAMES}")
