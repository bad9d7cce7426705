"""Polynomial functions on copies of SL2, with exact determinant reduction.

A function on n copies of SL2 is a polynomial in the matrix entries
a_i, b_i, c_i, d_i reduced modulo the relations a_i d_i - b_i c_i - 1.
The reduction rewrites a_i d_i -> b_i c_i + 1 until no monomial contains
both a_i and d_i; with one relation per copy and leading monomial a_i d_i
this rewriting is confluent, so the result is a normal form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

# a monomial over n copies is a tuple of 4n exponents (a_i, b_i, c_i, d_i)


class SL2Poly:
    """Exact polynomial on SL2^n in normal form."""

    __slots__ = ("ncopies", "terms")

    def __init__(self, ncopies: int, terms=None, reduce: bool = True):
        self.ncopies = ncopies
        terms = dict(terms or {})
        if reduce:
            terms = _reduce(terms, ncopies)
        self.terms = {m: c for m, c in terms.items() if c}

    @staticmethod
    def constant(ncopies: int, value) -> "SL2Poly":
        value = Fraction(value)
        if not value:
            return SL2Poly(ncopies, {})
        return SL2Poly(ncopies, {(0,) * (4 * ncopies): value}, reduce=False)

    @staticmethod
    def variable(ncopies: int, copy: int, var: str) -> "SL2Poly":
        idx = 4 * copy + "abcd".index(var)
        mono = [0] * (4 * ncopies)
        mono[idx] = 1
        return SL2Poly(ncopies, {tuple(mono): Fraction(1)}, reduce=False)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SL2Poly):
            return NotImplemented
        return self.ncopies == other.ncopies and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SL2Poly.constant(self.ncopies, other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return SL2Poly(self.ncopies, terms, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return SL2Poly(self.ncopies, {m: -c for m, c in self.terms.items()}, reduce=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SL2Poly.constant(self.ncopies, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return SL2Poly(self.ncopies, {m: c * r for m, c in self.terms.items()}, reduce=False)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2
        return SL2Poly(self.ncopies, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = SL2Poly.constant(self.ncopies, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, matrices):
        """Evaluate at a list of 2x2 Fraction matrices (one per copy)."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            val = coeff
            for i in range(self.ncopies):
                a, b, c, d = mono[4 * i : 4 * i + 4]
                m = matrices[i]
                val *= m[0][0] ** a * m[0][1] ** b * m[1][0] ** c * m[1][1] ** d
            total += val
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        names = []
        for mono, coeff in sorted(self.terms.items()):
            factors = []
            for i in range(self.ncopies):
                for k, var in enumerate("abcd"):
                    e = mono[4 * i + k]
                    if e:
                        suffix = str(i) if self.ncopies > 1 else ""
                        factors.append(f"{var}{suffix}" + (f"^{e}" if e > 1 else ""))
            body = "*".join(factors) if factors else "1"
            names.append(f"{coeff}*{body}" if coeff != 1 or not factors else body)
        return " + ".join(names)


def _reduce(terms, ncopies):
    """Rewrite a_i d_i -> b_i c_i + 1 until no monomial has both."""
    pending = dict(terms)
    done = {}
    while pending:
        mono, coeff = pending.popitem()
        if not coeff:
            continue
        hit = None
        for i in range(ncopies):
            if mono[4 * i] > 0 and mono[4 * i + 3] > 0:
                hit = i
                break
        if hit is None:
            done[mono] = done.get(mono, Fraction(0)) + coeff
            continue
        base = list(mono)
        base[4 * hit] -= 1
        base[4 * hit + 3] -= 1
        bc = list(base)
        bc[4 * hit + 1] += 1
        bc[4 * hit + 2] += 1
        for m in (tuple(bc), tuple(base)):
            pending[m] = pending.get(m, Fraction(0)) + coeff
    return done


@lru_cache(maxsize=None)
def sl2_rep_entries(spin: int, ncopies: int, copy: int):
    """Matrix of rho_{V_spin}(g_copy) with SL2Poly entries, as a tuple of rows.

    The fundamental representation acts on column vectors by g = [[a, b],
    [c, d]]; V_spin is its spin-th symmetric power in the basis matching
    the backend's rep matrices (highest weight first, f-lowering by 1).
    Cached and shared by every caller: no SL2Poly operation mutates its
    operands.
    """
    a = SL2Poly.variable(ncopies, copy, "a")
    b = SL2Poly.variable(ncopies, copy, "b")
    c = SL2Poly.variable(ncopies, copy, "c")
    d = SL2Poly.variable(ncopies, copy, "d")
    n = spin
    if n == 0:
        return ((SL2Poly.constant(ncopies, 1),),)
    # Sym^n(V) in the monomial basis x^(n-j) y^j with x = e_1, y = e_2;
    # g sends x -> a x + c y, y -> b x + d y, so
    # g(x^(n-j) y^j) = (a x + c y)^(n-j) (b x + d y)^j.
    rows = [[SL2Poly.constant(ncopies, 0) for _ in range(n + 1)] for _ in range(n + 1)]
    for j in range(n + 1):
        for s in range(n - j + 1):
            for t in range(j + 1):
                coeff_poly = (
                    a ** (n - j - s) * (c**s) * (b ** (j - t)) * (d**t) * (comb(n - j, s) * comb(j, t))
                )
                k = s + t  # y-degree of the resulting monomial
                rows[k][j] = rows[k][j] + coeff_poly
    # the backend basis is u_j = f^j u_0 = (n!/(n-j)!) x^(n-j) y^j, so the
    # u-basis entry is rows[k][j] * mu_j / mu_k with mu_j = n!/(n-j)!
    mu = [Fraction(factorial(n), factorial(n - j)) for j in range(n + 1)]
    return tuple(tuple(rows[k][j] * (mu[j] / mu[k]) for j in range(n + 1)) for k in range(n + 1))
