"""The sl2 and U_q(sl2) generator actions on tensor words.

A digest pins `classical_action` and `_quantum_action` byte for byte on
every short word, so a rewrite of how the actions are tabulated must give
the same layers.  The relation tests build both sides of the defining
relations with `Morphism` arithmetic, so they check the tables against the
algebra, not against stored values.
"""

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from skeinlab.ribbon_backend import UNIT, DualObj, Morphism, TensorObj, _quantum_action, classical_action, simple
from skeinlab.scalars import ScalarSeries, classical_mode, hbar_mode

V, ADJ, V3 = simple(1), simple(2), simple(3)
LETTERS = (UNIT, V, DualObj(V), ADJ, DualObj(ADJ))


def short_words():
    """Every word of one to three letters over `LETTERS`, in both bracketings."""
    words = list(LETTERS)
    words += [TensorObj(a, b) for a, b in product(LETTERS, repeat=2)]
    for a, b, c in product(LETTERS, repeat=3):
        words += [TensorObj(TensorObj(a, b), c), TensorObj(a, TensorObj(b, c))]
    return words


def _entries_json(entries):
    return sorted([i, j, v] for (i, j), v in entries.items())


def test_generator_actions_are_pinned():
    """e, f, h and E, F, K, Kinv at orders 1-5 on 280 words."""
    outputs = []
    for word in short_words():
        outputs += [_entries_json(classical_action(g, word)) for g in ("e", "f", "h")]
        for g, order in product(("E", "F", "K", "Kinv"), range(1, 6)):
            outputs.append([[den, _entries_json(e)] for den, e in _quantum_action(g, word, order)])
    assert len(outputs) == 280 * 23
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    assert digest == "29a8d2bf1d43ff4450e05f446b68e48f86f9237a12fb5e89559a6605701a4197"


# unit factors, duals, nested tensors and spins up to 3
RELATION_WORDS = [
    V3,
    DualObj(V3),
    TensorObj(UNIT, V),
    TensorObj(ADJ, UNIT),
    TensorObj(V, DualObj(V3)),
    TensorObj(TensorObj(ADJ, DualObj(V)), V3),
    TensorObj(DualObj(ADJ), TensorObj(UNIT, TensorObj(V, DualObj(V)))),
    TensorObj(TensorObj(V, UNIT), TensorObj(DualObj(V3), ADJ)),
]


@pytest.mark.parametrize("word", RELATION_WORDS, ids=str)
def test_classical_generators_satisfy_the_sl2_relations(word):
    """[e, f] = h, [h, e] = 2e and [h, f] = -2f."""
    mode = classical_mode()
    e, f, h = (Morphism(word, word, mode, [classical_action(g, word)]) for g in "efh")
    assert not (e.is_zero or f.is_zero or h.is_zero)
    assert e @ f - f @ e == h
    assert h @ e - e @ h == e.scale(2)
    assert h @ f - f @ h == f.scale(-2)


def _q(mode, m):
    """q^m = exp(m h/2), from its power series."""
    return ScalarSeries.from_coeffs(mode, [Fraction(m, 2) ** k / factorial(k) for k in range(mode.order)])


@pytest.mark.parametrize("order", [3, 5])
@pytest.mark.parametrize("word", RELATION_WORDS, ids=str)
def test_quantum_generators_satisfy_the_uq_sl2_relations(word, order):
    """K K^-1 = 1, K E K^-1 = q^2 E, K F K^-1 = q^-2 F and
    (q - q^-1)(EF - FE) = K - K^-1, with q = exp(h/2)."""
    mode = hbar_mode(order)
    E, F, K, Kinv = (Morphism._of(word, word, mode, _quantum_action(g, word, order)) for g in ("E", "F", "K", "Kinv"))
    one = Morphism.identity(word, mode)
    assert not (E.is_zero or F.is_zero or (K - one).is_zero)
    assert K @ Kinv == one and Kinv @ K == one
    assert K @ E @ Kinv == E.scale(_q(mode, 2))
    assert K @ F @ Kinv == F.scale(_q(mode, -2))
    assert (E @ F - F @ E).scale(_q(mode, 1) - _q(mode, -1)) == K - Kinv
