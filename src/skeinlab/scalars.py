"""Exact arithmetic in truncated deformation rings.

The three coefficient rings are Q (classical), Q[e]/(e^2) and Q[h]/(h^N).
A scalar is stored as the tuple of its coefficients up to the truncation
order, always exact rationals.  The classical ring is the order-1
truncation, so every ring operation is a single truncated convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ModeError, Part1DomainError

MAX_HBAR_ORDER = 8

CLASSICAL = "classical"
EPSILON = "epsilon"
HBAR = "hbar"


@dataclass(frozen=True)
class RingMode:
    """Kind and truncation order of the coefficient ring.

    order is 1 for classical, 2 for epsilon and N for Q[h]/(h^N).
    """

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in (CLASSICAL, EPSILON, HBAR):
            raise ModeError(f"unknown ring kind {self.kind!r}")
        expected = {CLASSICAL: 1, EPSILON: 2}.get(self.kind)
        if expected is not None and self.order != expected:
            raise ModeError(f"{self.kind} ring has order {expected}, got {self.order}")
        if self.kind == HBAR and not (1 <= self.order <= MAX_HBAR_ORDER):
            raise ModeError(f"hbar order must be in 1..{MAX_HBAR_ORDER}, got {self.order}")

    def __str__(self):
        if self.kind == HBAR:
            return f"hbar({self.order})"
        return self.kind

    @property
    def param_name(self) -> str:
        return {CLASSICAL: "", EPSILON: "e", HBAR: "h"}[self.kind]


def classical_mode() -> RingMode:
    return RingMode(CLASSICAL, 1)


def epsilon_mode() -> RingMode:
    return RingMode(EPSILON, 2)


def hbar_mode(order: int = 3) -> RingMode:
    return RingMode(HBAR, order)


def conversion_prefix(source: RingMode, target: RingMode) -> int:
    """The ring homomorphism source -> target, as the number of leading
    coefficients it keeps; the target's remaining coefficients are zero.

    hbar -> epsilon sends h to e and kills orders >= 2; anything ->
    classical is the constant term; classical embeds as constants.
    Truncation to a lower hbar order is the quotient map.
    """
    if source.kind == EPSILON and target.kind == HBAR and target.order > 2:
        # e -> h; well-defined only into order <= 2 (e^2 = 0 must hold)
        raise ModeError("epsilon ring only maps to hbar orders <= 2")
    if source.kind == HBAR and target.kind == HBAR and target.order > source.order:
        raise ModeError("cannot extend truncation order")
    return min(source.order, target.order)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


_ZERO = Fraction(0)


@dataclass(frozen=True)
class ScalarSeries:
    """Element of the truncated coefficient ring fixed by `mode`."""

    mode: RingMode
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.mode.order:
            raise ModeError(
                f"need {self.mode.order} coefficients for {self.mode}, got {len(self.coeffs)}"
            )

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(mode: RingMode, value) -> "ScalarSeries":
        coeffs = [_ZERO] * mode.order
        coeffs[0] = as_fraction(value)
        return ScalarSeries(mode, tuple(coeffs))

    @staticmethod
    def from_coeffs(mode: RingMode, values) -> "ScalarSeries":
        values = [as_fraction(v) for v in values]
        if len(values) > mode.order:
            raise ModeError(f"{len(values)} coefficients exceed the order of {mode}")
        while len(values) < mode.order:
            values.append(_ZERO)
        return ScalarSeries(mode, tuple(values))

    @staticmethod
    def zero(mode: RingMode) -> "ScalarSeries":
        return ScalarSeries.from_rational(mode, 0)

    @staticmethod
    def one(mode: RingMode) -> "ScalarSeries":
        return ScalarSeries.from_rational(mode, 1)

    @staticmethod
    def param(mode: RingMode) -> "ScalarSeries":
        """The deformation parameter (e or h); zero in the classical ring."""
        coeffs = [_ZERO] * mode.order
        if mode.order >= 2:
            coeffs[1] = Fraction(1)
        return ScalarSeries(mode, tuple(coeffs))

    # -- ring operations ----------------------------------------------

    def _check(self, other: "ScalarSeries"):
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch: {self.mode} vs {other.mode}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarSeries.from_rational(self.mode, other)
        self._check(other)
        return ScalarSeries(self.mode, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ScalarSeries(self.mode, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarSeries.from_rational(self.mode, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = as_fraction(other)
            return ScalarSeries(self.mode, tuple(a * r for a in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        n = len(a)
        out = [_ZERO] * n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return ScalarSeries(self.mode, tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        result = ScalarSeries.one(self.mode)
        for _ in range(k):
            result = result * self
        return result

    def inverse(self) -> "ScalarSeries":
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("constant term is zero; not a unit")
        n = self.mode.order
        inv = [Fraction(1, 1) / c0] + [_ZERO] * (n - 1)
        for k in range(1, n):
            acc = _ZERO
            for i in range(1, k + 1):
                acc += self.coeffs[i] * inv[k - i]
            inv[k] = -acc / c0
        return ScalarSeries(self.mode, tuple(inv))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- coefficient extraction and ring homomorphisms ----------------

    def part0(self) -> "ScalarSeries":
        """Constant coefficient, as a classical scalar."""
        return ScalarSeries(classical_mode(), (self.coeffs[0],))

    def part1(self) -> "ScalarSeries":
        """First-order coefficient; only defined on multiples of the parameter."""
        if self.coeffs[0] != 0:
            raise Part1DomainError(f"nonzero constant term {self.coeffs[0]}")
        c1 = self.coeffs[1] if self.mode.order >= 2 else _ZERO
        return ScalarSeries(classical_mode(), (c1,))

    def convert(self, mode: RingMode) -> "ScalarSeries":
        """Ring homomorphism into `mode` (see `conversion_prefix`)."""
        if mode == self.mode:
            return self
        return ScalarSeries.from_coeffs(mode, self.coeffs[: conversion_prefix(self.mode, mode)])

    # -- misc -----------------------------------------------------------

    def __str__(self):
        name = self.mode.param_name
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{name}")
            else:
                parts.append(f"{c}*{name}^{i}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {
            "mode": self.mode.kind,
            "order": self.mode.order,
            "coeffs": [str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(data) -> "ScalarSeries":
        mode = RingMode(data["mode"], data["order"])
        return ScalarSeries.from_coeffs(mode, [Fraction(c) for c in data["coeffs"]])


def exp_param_series(mode: RingMode, rate) -> ScalarSeries:
    """exp(rate * parameter) in the given ring, e.g. exp(h*3/4) at hbar order N.

    Exact: coefficient k is rate^k / k!.  In the classical ring this is 1.
    """
    rate = as_fraction(rate)
    coeffs = [rate**k / factorial(k) for k in range(mode.order)]
    return ScalarSeries.from_coeffs(mode, coeffs)
