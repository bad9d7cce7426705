"""Slice-word tangles in the square and their Reshetikhin-Turaev evaluation.

A tangle word is a list of horizontal slices acting on a boundary word of
oriented labeled strands.  Evaluation applies the backend images of the
cells slice by slice, as one `BackendSpec.apply_chain`; consecutive slices
are joined by one canonical rebracketing, so evaluation is exact also for
the non-strict Drinfeld backend.

A strand is a leaf object of the backend: `SimpleObj(n)` going up,
`DualObj(SimpleObj(n))` going down.  Interfaces between slices are tuples
of strands, as `ObjectExpr.leaves()` returns a word's leaves, carrying the
implicit left-nested bracketing; coupons keep their own parenthesization as the
source/target trees of their morphism.  In JSON a strand is
[label, "+" or "-"].
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ModeError, MoveError, WordError
from .ribbon_backend import (
    BackendSpec,
    DualObj,
    Morphism,
    SimpleObj,
    dual,
    parse_label,
    simple,
    spin_name,
    tensor_word,
)


def _spin(label) -> int:
    """The spin of a JSON label, within the backends' bound."""
    return simple(parse_label(label)).spin


def _strand_to_json(strand):
    if isinstance(strand, DualObj):
        return [spin_name(strand.inner.spin), "-"]
    return [spin_name(strand.spin), "+"]


def _strand_from_json(data):
    if not isinstance(data, list) or len(data) != 2 or data[1] not in ("+", "-"):
        raise WordError(f"a strand must be [label, \"+\" or \"-\"], got {data!r}")
    up = simple(parse_label(data[0]))
    return up if data[1] == "+" else DualObj(up)


@dataclass(frozen=True)
class Cell:
    """One generator occurrence inside a slice.

    kind: braid+ braid- cup cap twist+ twist- coupon assoc+ assoc-
    at: leftmost strand position; label/flavor for cup and cap
    (flavor 'l' is the left duality pair ev/coev, 'r' the ribbon right pair);
    coupon_id references the word's coupon table.
    """

    kind: str
    at: int
    label: int | None = None
    flavor: str = "l"
    coupon_id: str | None = None

    def to_json(self):
        data = {"cell": self.kind, "at": self.at}
        if self.label is not None:
            data["label"] = spin_name(self.label)
        if self.kind in ("cup", "cap"):
            data["flavor"] = self.flavor
        if self.coupon_id is not None:
            data["id"] = self.coupon_id
        return data

    @staticmethod
    def from_json(data):
        kind, at, flavor, cid = data["cell"], data["at"], data.get("flavor", "l"), data.get("id")
        if not isinstance(kind, str):
            raise WordError(f"a cell kind must be a string, got {kind!r}")
        if not isinstance(at, int) or isinstance(at, bool) or at < 0:
            raise WordError(f"a cell position must be a non-negative integer, got {at!r}")
        if flavor not in ("l", "r"):
            raise WordError(f"a cell flavor must be \"l\" or \"r\", got {flavor!r}")
        if cid is not None and not isinstance(cid, str):
            raise WordError(f"a coupon id must be a string, got {cid!r}")
        label = _spin(data["label"]) if "label" in data else None
        return Cell(kind=kind, at=at, label=label, flavor=flavor, coupon_id=cid)


@dataclass
class TangleWord:
    bottom: tuple
    slices: tuple  # tuple of tuples of Cell
    coupons: dict = field(default_factory=dict)  # id -> Morphism

    def __post_init__(self):
        self.bottom = tuple(self.bottom)
        self.slices = tuple(tuple(s) for s in self.slices)

    # -- interfaces -----------------------------------------------------

    def _walk(self):
        """The interfaces between slices, and each slice's (cell, ins) pairs."""
        levels, placed = [self.bottom], []
        for index, cells in enumerate(self.slices):
            strands, out, pos, io = levels[-1], (), 0, []
            for cell in sorted(cells, key=lambda c: c.at):
                if cell.at < pos:
                    raise WordError(f"overlapping cells in slice {index}")
                try:
                    ins, outs = _cell_io(cell, strands, self.coupons)
                except WordError as exc:
                    raise WordError(f"slice {index}: {exc}") from None
                out += strands[pos : cell.at] + outs
                pos = cell.at + len(ins)
                io.append((cell, ins))
            levels.append(out + strands[pos:])
            placed.append(io)
        return levels, placed

    def interfaces(self):
        """The strands between slices, each level a tuple of `SimpleObj`s (up) and
        `DualObj`s (down): interfaces()[0] is the bottom, interfaces()[-1] the top."""
        return self._walk()[0]

    @property
    def top(self):
        return self.interfaces()[-1]

    def to_json(self):
        return {
            "bottom": [_strand_to_json(s) for s in self.bottom],
            "top": [_strand_to_json(s) for s in self.top],
            "slices": [[c.to_json() for c in cells] for cells in self.slices],
            "coupons": {k: m.to_json() for k, m in self.coupons.items()},
        }

    @staticmethod
    def from_json(data):
        if not isinstance(data, dict):
            raise WordError(f"a tangle word must be an object, got {type(data).__name__}")
        coupons = data.get("coupons", {})
        if not isinstance(coupons, dict) or not all(isinstance(k, str) for k in coupons):
            raise WordError(f"coupons must be an object with string keys, got {type(coupons).__name__}")
        word = TangleWord(
            bottom=tuple(_strand_from_json(s) for s in data["bottom"]),
            slices=tuple(tuple(Cell.from_json(c) for c in cells) for cells in data["slices"]),
            coupons={k: Morphism.from_json(m) for k, m in coupons.items()},
        )
        if "top" in data:
            declared = tuple(_strand_from_json(s) for s in data["top"])
            if declared != word.top:
                raise WordError("declared top boundary does not match the slices")
        return word


_SPANS = {"braid+": 2, "braid-": 2, "twist+": 1, "twist-": 1, "assoc+": 3, "assoc-": 3}


def _cell_io(cell: Cell, strands, coupons):
    """(ins, outs): the strands `cell` takes from the interface `strands`
    at its position, and the strands it puts in their place."""
    k, p = cell.kind, cell.at
    if p > len(strands):
        raise WordError(f"{k} at {p} is past the {len(strands)} strands")
    if k in ("cup", "cap"):
        if cell.label is None:
            raise WordError(f"{k} at {p} has no label")
        up = SimpleObj(cell.label)
        pair = (up, DualObj(up))
        if (k == "cup") != (cell.flavor == "l"):
            pair = pair[::-1]
        ins, outs = ((), pair) if k == "cup" else (pair, ())
    elif k == "coupon":
        m = coupons.get(cell.coupon_id)
        if m is None:
            raise WordError(f"unknown coupon {cell.coupon_id!r}")
        ins, outs = m.source.leaves(), m.target.leaves()
    elif k in _SPANS:
        ins = strands[p : p + _SPANS[k]]
        if len(ins) < _SPANS[k]:
            raise WordError(f"{k} at {p} needs {_SPANS[k]} strands")
        return ins, ins[::-1] if k.startswith("braid") else ins
    else:
        raise WordError(f"unknown cell kind {k!r}")
    if strands[p : p + len(ins)] != ins:
        raise WordError(f"{k} at {p} does not match strands {strands[p : p + len(ins)]}")
    return ins, outs


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _cell_morphism(cell: Cell, ins, coupons, backend: BackendSpec):
    """The backend image of a cell whose input strands are `ins`."""
    k = cell.kind
    if k == "braid+":
        return backend.braiding(ins[0], ins[1])
    if k == "braid-":
        return backend.braiding_inv(ins[1], ins[0])
    if k == "twist+":
        return backend.twist(ins[0])
    if k == "twist-":
        return backend.twist_inv(ins[0])
    if k in ("cup", "cap"):
        lab = SimpleObj(cell.label)
        duality = backend.coev if k == "cup" else backend.ev
        return duality(lab if cell.flavor == "l" else DualObj(lab))
    if k == "coupon":
        return coupons[cell.coupon_id]
    return Morphism.identity(tensor_word(ins), backend.mode)  # assoc+-


def rt_evaluate(word: TangleWord, backend: BackendSpec) -> Morphism:
    """Evaluate the tangle word to a morphism bottom -> top."""
    for cid, m in word.coupons.items():
        if m.mode != backend.mode:
            raise ModeError(f"coupon {cid!r} lives in {m.mode}, backend is {backend.mode}")
    levels, placed = word._walk()
    steps = [(strands, [(c.at, len(ins), _cell_morphism(c, ins, word.coupons, backend)) for c, ins in cells])
             for strands, cells in zip(levels, placed)]
    return backend.apply_chain(steps, Morphism.identity(tensor_word(word.bottom), backend.mode))


def _merge_coupons(base: TangleWord, extra: TangleWord):
    """The coupon table of `base` joined with that of `extra`, and the slices
    of `extra` with its coupon ids renamed where they clash with base's."""
    coupons = dict(base.coupons)
    renames = {}
    for cid, m in extra.coupons.items():
        new = cid
        while new in coupons and coupons[new] != m:
            new = new + "'"
        renames[cid] = new
        coupons[new] = m
    slices = tuple(
        tuple(replace(c, coupon_id=renames.get(c.coupon_id)) if c.kind == "coupon" else c for c in cells)
        for cells in extra.slices
    )
    return coupons, slices


def compose(upper: TangleWord, lower: TangleWord) -> TangleWord:
    """Stack `upper` on top of `lower`."""
    if lower.top != upper.bottom:
        raise WordError("boundaries do not match for composition")
    coupons, upper_slices = _merge_coupons(lower, upper)
    return TangleWord(lower.bottom, lower.slices + upper_slices, coupons)


def tensor(left: TangleWord, right: TangleWord) -> TangleWord:
    """Juxtapose two words side by side."""
    llevels = left.interfaces()
    coupons, right_slices = _merge_coupons(left, right)
    slices = []
    for i in range(max(len(left.slices), len(right.slices))):
        cells = list(left.slices[i]) if i < len(left.slices) else []
        # right's cells shift past left's strands at this level
        width = len(llevels[min(i, len(left.slices))])
        if i < len(right_slices):
            cells.extend(replace(c, at=c.at + width) for c in right_slices[i])
        slices.append(tuple(cells))
    return TangleWord(left.bottom + right.bottom, tuple(slices), coupons)


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


def apply_move(word: TangleWord, move: str, site) -> TangleWord:
    """Apply a syntactic move; the contract is invariance of rt_evaluate.

    Sites:
      R2:          (level, pos, "insert"|"reduce")
      R3:          (level, "lr"|"rl") on a braid-braid-braid pattern
      FramedR1:    (level, pos) expands a lone twist+ into a curl
      SnakeLeft:   (level, pos, "insert") zigzag via the left duality pair
      SnakeRight:  (level, pos, "insert") zigzag via the right duality pair
      CouponSlide: (level, pos) slides the lone coupon at pos past its right
                   neighbor strand, inserting the naturality braidings
    """
    level, lhs, rhs = _move_rule(word, move, site)
    if word.slices[level : level + len(lhs)] != lhs:
        raise MoveError(f"no {move} pattern at site {site!r}")
    slices = word.slices[:level] + rhs + word.slices[level + len(lhs) :]
    return TangleWord(word.bottom, slices, dict(word.coupons))


def _move_rule(word: TangleWord, move: str, site):
    """(level, lhs, rhs): the slices that `move` at `site` replaces, and their replacement."""
    if move == "R3":
        level, direction = site
        step = {"lr": 1, "rl": -1}.get(direction)
        if step is None:
            raise MoveError(f"unknown R3 direction {direction!r}")
        p = _lone_cell(word, level).at
        return level, _braids(p, p + step, p), _braids(p + step, p, p + step)
    if move == "CouponSlide":
        level, p = site
        cell = _lone_cell(word, level)
        if cell.kind != "coupon" or cell.coupon_id not in word.coupons:
            raise MoveError("CouponSlide needs a lone coupon slice at the site")
        m = word.coupons[cell.coupon_id]
        return level, coupon_then_cross(cell.coupon_id, m, p), cross_then_coupon(cell.coupon_id, m, p)
    if move == "R2":
        level, p, direction = site
        pair = ((Cell("braid+", p),), (Cell("braid-", p),))
        if direction == "reduce":
            return level, pair[::-1] if word.slices[level : level + 1] == pair[1:] else pair, ()
        if direction != "insert":
            raise MoveError(f"unknown R2 direction {direction!r}")
        _strands_at(word, level, p, 2)
        return level, (), pair
    if move not in ("FramedR1", "SnakeLeft", "SnakeRight"):
        raise MoveError(f"unknown move {move!r}")
    if move == "FramedR1":
        level, p = site
    else:
        level, p, direction = site
        if direction != "insert":
            raise MoveError("snake moves are insertions")
    (strand,) = _strands_at(word, level, p, 1)
    if isinstance(strand, DualObj):
        raise MoveError(f"{move} implemented for upward strands")
    lab = strand.spin
    if move == "FramedR1":
        curl = ((Cell("cup", p + 1, lab, "l"),), (Cell("braid+", p),), (Cell("cap", p + 1, lab, "r"),))
        return level, ((Cell("twist+", p),),), curl
    if move == "SnakeLeft":
        return level, (), ((Cell("cup", p, lab, "l"),), (Cell("cap", p + 1, lab, "l"),))
    return level, (), ((Cell("cup", p + 1, lab, "r"),), (Cell("cap", p, lab, "r"),))


def _braids(*positions):
    return tuple((Cell("braid+", p),) for p in positions)


def _lone_cell(word, level):
    cells = word.slices[level] if 0 <= level < len(word.slices) else ()
    if len(cells) != 1:
        raise MoveError(f"no lone cell in slice {level}")
    return cells[0]


def _strands_at(word, level, pos, count):
    levels = word.interfaces()
    if not (0 <= level < len(levels) and 0 <= pos and pos + count <= len(levels[level])):
        raise MoveError(f"no {count} strand(s) at {pos} on level {level}")
    return levels[level][pos : pos + count]


def coupon_then_cross(coupon_id: str, m: Morphism, p: int):
    """Slices for a lone coupon at p followed by its right neighbor strand
    crossing under the coupon outputs to position p."""
    k_out = len(m.target.leaves())
    return ((Cell("coupon", p, coupon_id=coupon_id),),) + _braids(*reversed(range(p, p + k_out)))


def cross_then_coupon(coupon_id: str, m: Morphism, p: int):
    """Slices for the right neighbor strand crossing under the coupon inputs,
    then the coupon shifted one position right."""
    k_in = len(m.source.leaves())
    return _braids(*reversed(range(p, p + k_in))) + ((Cell("coupon", p + 1, coupon_id=coupon_id),),)


def random_word(rng, backend, n_strands: int = 3, n_slices: int = 4) -> TangleWord:
    """A random well-formed word over V and dual(V), with assorted cells; a cup needs fewer than 5 strands."""
    up, down = SimpleObj(1), DualObj(SimpleObj(1))
    bottom = tuple(rng.choice((up, down)) for _ in range(n_strands))
    word = TangleWord(bottom, (), {})
    coupon_count = 0
    for _ in range(n_slices):
        strands = word.top
        width = len(strands)
        options = ["twist"]
        if width >= 2:
            options.extend(["braid", "braid", "cap_maybe"])
        if width < 5:
            options.append("cup")
        if width >= 1:
            options.append("coupon")
        kind = rng.choice(options)
        cell = None
        if kind == "braid":
            p = rng.randrange(width - 1)
            cell = Cell(rng.choice(("braid+", "braid-")), p)
        elif kind == "twist":
            if width == 0:
                continue
            p = rng.randrange(width)
            cell = Cell(rng.choice(("twist+", "twist-")), p)
        elif kind == "cup":
            p = rng.randrange(width + 1)
            cell = Cell("cup", p, label=1, flavor=rng.choice(("l", "r")))
        elif kind == "cap_maybe":
            sites = []
            for p in range(width - 1):
                a, b = strands[p], strands[p + 1]
                if a in (up, down) and b == dual(a):
                    sites.append((p, "l" if a == down else "r"))
            if not sites:
                continue
            p, flavor = rng.choice(sites)
            cell = Cell("cap", p, label=1, flavor=flavor)
        elif kind == "coupon":
            span = 1 if width == 1 else rng.choice((1, 2))
            p = rng.randrange(width - span + 1)
            source = tensor_word(strands[p : p + span])
            m = backend.random_invariant(source, source, rng)
            if m.is_zero:
                continue
            coupon_count += 1
            cid = f"c{coupon_count}"
            word.coupons[cid] = m
            cell = Cell("coupon", p, coupon_id=cid)
        if cell is not None:
            word = TangleWord(word.bottom, word.slices + ((cell,),), word.coupons)
    return word


def reparenthesize_coupon(word: TangleWord, coupon_id: str, new_source, new_target, backend) -> TangleWord:
    """Rebracket a coupon's boundary parenthesizations.

    The backend rebrackets the coupon morphism, so evaluation is unchanged.
    """
    if coupon_id not in word.coupons:
        raise WordError(f"unknown coupon {coupon_id!r}")
    m = word.coupons[coupon_id]
    if new_source.leaves() != m.source.leaves() or new_target.leaves() != m.target.leaves():
        raise WordError("new parenthesization must keep the same flat boundary")
    coupons = dict(word.coupons)
    coupons[coupon_id] = backend.rebracket(m, new_source, new_target)
    return TangleWord(word.bottom, word.slices, coupons)
