"""Slice-word tangles in the square and their Reshetikhin-Turaev evaluation.

A tangle word is a list of horizontal slices acting on a boundary word of
oriented labeled strands.  Evaluation composes the backend images of the
cells slice by slice; every slice is wrapped in the canonical rebracketing
morphisms, so evaluation is exact also for the non-strict Drinfeld backend.

Interfaces between slices are flat strand lists carrying the implicit
left-nested bracketing; coupons keep their own parenthesization as the
source/target trees of their morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ModeError, MoveError, WordError
from .ribbon_backend import (
    BackendSpec,
    DualObj,
    Morphism,
    SimpleObj,
    parse_label,
    spin_name,
    tensor_word,
)


@dataclass(frozen=True)
class Strand:
    spin: int
    orient: int  # +1 up, -1 down

    @property
    def obj(self):
        s = SimpleObj(self.spin)
        return s if self.orient > 0 else DualObj(s)

    def to_json(self):
        return [spin_name(self.spin), "+" if self.orient > 0 else "-"]

    @staticmethod
    def from_json(data):
        if not isinstance(data, list) or len(data) != 2 or data[1] not in ("+", "-"):
            raise WordError(f"a strand must be [label, \"+\" or \"-\"], got {data!r}")
        return Strand(parse_label(data[0]), 1 if data[1] == "+" else -1)


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
        at, flavor = data["at"], data.get("flavor", "l")
        if not isinstance(at, int) or isinstance(at, bool) or at < 0:
            raise WordError(f"a cell position must be a non-negative integer, got {at!r}")
        if flavor not in ("l", "r"):
            raise WordError(f"a cell flavor must be \"l\" or \"r\", got {flavor!r}")
        return Cell(
            kind=data["cell"],
            at=at,
            label=parse_label(data["label"]) if "label" in data else None,
            flavor=flavor,
            coupon_id=data.get("id"),
        )


@dataclass
class TangleWord:
    bottom: tuple
    slices: tuple  # tuple of tuples of Cell
    coupons: dict = field(default_factory=dict)  # id -> Morphism

    def __post_init__(self):
        self.bottom = tuple(self.bottom)
        self.slices = tuple(tuple(s) for s in self.slices)

    # -- interfaces -----------------------------------------------------

    def interfaces(self):
        """Strand tuples between slices: interfaces()[0] is the bottom."""
        levels = [self.bottom]
        current = self.bottom
        for slice_index, cells in enumerate(self.slices):
            current = _apply_slice_to_interface(current, cells, self.coupons, slice_index)
            levels.append(current)
        return levels

    @property
    def top(self):
        return self.interfaces()[-1]

    def to_json(self):
        return {
            "bottom": [s.to_json() for s in self.bottom],
            "top": [s.to_json() for s in self.top],
            "slices": [[c.to_json() for c in cells] for cells in self.slices],
            "coupons": {k: m.to_json() for k, m in self.coupons.items()},
        }

    @staticmethod
    def from_json(data):
        word = TangleWord(
            bottom=tuple(Strand.from_json(s) for s in data["bottom"]),
            slices=tuple(tuple(Cell.from_json(c) for c in cells) for cells in data["slices"]),
            coupons={k: Morphism.from_json(m) for k, m in data.get("coupons", {}).items()},
        )
        if "top" in data:
            declared = tuple(Strand.from_json(s) for s in data["top"])
            if declared != word.top:
                raise WordError("declared top boundary does not match the slices")
        return word


def _strand_of_obj(obj):
    if isinstance(obj, SimpleObj):
        return Strand(obj.spin, 1)
    if isinstance(obj, DualObj):
        return Strand(obj.inner.spin, -1)
    raise WordError(f"coupon boundaries must be words of simples and duals, got {obj}")


def _apply_slice_to_interface(strands, cells, coupons, slice_index):
    cells = sorted(cells, key=lambda c: c.at)
    out = []
    pos = 0
    strands = list(strands)
    for cell in cells:
        if cell.at < pos:
            raise WordError(f"overlapping cells in slice {slice_index}")
        out.extend(strands[pos : cell.at])
        pos = cell.at
        k = cell.kind
        if k in ("braid+", "braid-"):
            if pos + 2 > len(strands):
                raise WordError(f"braid at {pos} needs two strands (slice {slice_index})")
            out.extend([strands[pos + 1], strands[pos]])
            pos += 2
        elif k in ("twist+", "twist-"):
            if pos + 1 > len(strands):
                raise WordError(f"twist at {pos} needs a strand (slice {slice_index})")
            out.append(strands[pos])
            pos += 1
        elif k == "cup":
            pair = [Strand(cell.label, 1), Strand(cell.label, -1)]
            if cell.flavor == "r":
                pair.reverse()
            out.extend(pair)
        elif k == "cap":
            if pos + 2 > len(strands):
                raise WordError(f"cap at {pos} needs two strands (slice {slice_index})")
            a, b = strands[pos], strands[pos + 1]
            want = (Strand(cell.label, -1), Strand(cell.label, 1))
            if cell.flavor == "r":
                want = (Strand(cell.label, 1), Strand(cell.label, -1))
            if (a, b) != want:
                raise WordError(f"cap at {pos} does not match strands {(a, b)} (slice {slice_index})")
            pos += 2
        elif k == "coupon":
            m = coupons.get(cell.coupon_id)
            if m is None:
                raise WordError(f"unknown coupon {cell.coupon_id!r}")
            ins = [_strand_of_obj(o) for o in m.source.leaves()]
            outs = [_strand_of_obj(o) for o in m.target.leaves()]
            if tuple(strands[pos : pos + len(ins)]) != tuple(ins):
                raise WordError(f"coupon {cell.coupon_id!r} does not match strands at {pos}")
            out.extend(outs)
            pos += len(ins)
        elif k in ("assoc+", "assoc-"):
            if pos + 3 > len(strands):
                raise WordError(f"assoc at {pos} needs three strands (slice {slice_index})")
            out.extend(strands[pos : pos + 3])
            pos += 3
        else:
            raise WordError(f"unknown cell kind {k!r}")
    out.extend(strands[pos:])
    return tuple(out)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _cell_morphism(cell: Cell, strands, backend: BackendSpec):
    """(span, Morphism) for a cell on the given interface."""
    k = cell.kind
    p = cell.at
    if k == "braid+":
        return 2, backend.braiding(strands[p].obj, strands[p + 1].obj)
    if k == "braid-":
        return 2, backend.braiding_inv(strands[p + 1].obj, strands[p].obj)
    if k == "twist+":
        return 1, backend.twist(strands[p].obj)
    if k == "twist-":
        return 1, backend.twist_inv(strands[p].obj)
    if k == "cup":
        lab = SimpleObj(cell.label)
        return 0, backend.coev(lab) if cell.flavor == "l" else backend.coev_right(lab)
    if k == "cap":
        lab = SimpleObj(cell.label)
        return 2, backend.ev(lab) if cell.flavor == "l" else backend.ev_right(lab)
    if k == "coupon":
        m = cell.coupon_id
        return None, m  # resolved by caller
    if k in ("assoc+", "assoc-"):
        word = tensor_word([strands[p + i].obj for i in range(3)])
        return 3, Morphism.identity(word, backend.mode)
    raise WordError(f"unknown cell kind {k!r}")


def rt_evaluate(word: TangleWord, backend: BackendSpec) -> Morphism:
    """Evaluate the tangle word to a morphism bottom -> top."""
    for cid, m in word.coupons.items():
        if m.mode != backend.mode:
            raise ModeError(f"coupon {cid!r} lives in {m.mode}, backend is {backend.mode}")
    levels = word.interfaces()
    total = Morphism.identity(tensor_word([s.obj for s in word.bottom]), backend.mode)
    for index, cells in enumerate(word.slices):
        strands = levels[index]
        context = [s.obj for s in strands]
        placed = []
        for cell in sorted(cells, key=lambda c: c.at):
            if cell.kind == "coupon":
                m = word.coupons[cell.coupon_id]
                placed.append((cell.at, len(m.source.leaves()), m))
            else:
                span, m = _cell_morphism(cell, strands, backend)
                placed.append((cell.at, span, m))
        total = backend.apply(context, placed, total)
    return total


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


def identity_word(strands) -> TangleWord:
    return TangleWord(tuple(strands), (), {})


# ---------------------------------------------------------------------------
# Moves
# ---------------------------------------------------------------------------


def _insert_slices(word: TangleWord, level: int, new_slices) -> TangleWord:
    slices = word.slices[:level] + tuple(tuple(s) for s in new_slices) + word.slices[level:]
    return TangleWord(word.bottom, slices, dict(word.coupons))


def apply_move(word: TangleWord, move: str, site) -> TangleWord:
    """Apply a syntactic move; the contract is invariance of rt_evaluate.

    Sites:
      R2:          (level, pos, "insert"|"reduce")
      R3:          (level, "lr"|"rl") on a braid-braid-braid pattern
      FramedR1:    (level, pos, "insert") expands a twist+ into a curl
      SnakeLeft:   (level, pos, "insert") zigzag via the left duality pair
      SnakeRight:  (level, pos, "insert") zigzag via the right duality pair
      CouponSlide: (level, "left"|"right") slides the slice's coupon past
                   its neighbor strand, inserting the naturality braidings
    """
    if move == "R2":
        return _move_r2(word, site)
    if move == "R3":
        return _move_r3(word, site)
    if move == "FramedR1":
        return _move_framed_r1(word, site)
    if move == "SnakeLeft":
        return _move_snake(word, site, "l")
    if move == "SnakeRight":
        return _move_snake(word, site, "r")
    if move == "CouponSlide":
        return _move_coupon_slide(word, site)
    raise MoveError(f"unknown move {move!r}")


def _interface_at(word, level):
    levels = word.interfaces()
    if not 0 <= level <= len(word.slices):
        raise MoveError(f"no interface at level {level}")
    return levels[level]


def _move_r2(word, site):
    level, pos, direction = site
    strands = _interface_at(word, level)
    if direction == "insert":
        if pos + 2 > len(strands):
            raise MoveError("R2 insertion needs two adjacent strands")
        return _insert_slices(word, level, [[Cell("braid+", pos)], [Cell("braid-", pos)]])
    if direction == "reduce":
        if level + 2 > len(word.slices):
            raise MoveError("no R2 pattern at site")
        s1, s2 = word.slices[level], word.slices[level + 1]
        ok = (
            len(s1) == 1
            and len(s2) == 1
            and s1[0].at == pos
            and s2[0].at == pos
            and {s1[0].kind, s2[0].kind} == {"braid+", "braid-"}
        )
        if not ok:
            raise MoveError("no R2 pattern at site")
        slices = word.slices[:level] + word.slices[level + 2 :]
        return TangleWord(word.bottom, slices, dict(word.coupons))
    raise MoveError(f"unknown R2 direction {direction!r}")


def _move_r3(word, site):
    level, direction = site
    if level + 3 > len(word.slices):
        raise MoveError("R3 needs three slices")
    trip = word.slices[level : level + 3]
    if not all(len(s) == 1 and s[0].kind == "braid+" for s in trip):
        raise MoveError("R3 pattern must be three positive braid slices")
    a, b, c = (s[0].at for s in trip)
    step = {"lr": 1, "rl": -1}.get(direction)
    if step is None:
        raise MoveError(f"unknown R3 direction {direction!r}")
    if not (a == c and b == a + step):
        raise MoveError(f"no (p, p{step:+d}, p) braid pattern at site")
    new = ([Cell("braid+", b)], [Cell("braid+", a)], [Cell("braid+", b)])
    slices = word.slices[:level] + new + word.slices[level + 3 :]
    return TangleWord(word.bottom, slices, dict(word.coupons))


def _move_framed_r1(word, site):
    """Replace a twist+ cell by the positive curl it abbreviates."""
    level, pos = site
    if level >= len(word.slices):
        raise MoveError("no slice at site")
    cells = word.slices[level]
    target = next((c for c in cells if c.kind == "twist+" and c.at == pos), None)
    if target is None or len(cells) != 1:
        raise MoveError("FramedR1 needs a lone twist+ cell at the site")
    strands = _interface_at(word, level)
    st = strands[pos]
    if st.orient < 0:
        raise MoveError("FramedR1 implemented for upward strands")
    lab = st.spin
    curl = (
        [Cell("cup", pos + 1, label=lab, flavor="l")],
        [Cell("braid+", pos)],
        [Cell("cap", pos + 1, label=lab, flavor="r")],
    )
    slices = word.slices[:level] + curl + word.slices[level + 1 :]
    return TangleWord(word.bottom, slices, dict(word.coupons))


def _move_snake(word, site, flavor):
    level, pos, direction = site
    if direction != "insert":
        raise MoveError("snake moves are insertions")
    strands = _interface_at(word, level)
    if pos >= len(strands):
        raise MoveError("no strand at site")
    st = strands[pos]
    if st.orient < 0:
        raise MoveError("snake insertion implemented for upward strands")
    lab = st.spin
    if flavor == "l":
        gadget = [
            [Cell("cup", pos, label=lab, flavor="l")],
            [Cell("cap", pos + 1, label=lab, flavor="l")],
        ]
    else:
        gadget = [
            [Cell("cup", pos + 1, label=lab, flavor="r")],
            [Cell("cap", pos, label=lab, flavor="r")],
        ]
    return _insert_slices(word, level, gadget)


def coupon_then_cross(coupon_id: str, m: Morphism, p: int):
    """Slices for a lone coupon at p followed by its right neighbor strand
    crossing under the coupon outputs to position p."""
    k_out = len(m.target.leaves())
    return [[Cell("coupon", p, coupon_id=coupon_id)]] + [
        [Cell("braid+", p + i)] for i in reversed(range(k_out))
    ]


def cross_then_coupon(coupon_id: str, m: Morphism, p: int):
    """Slices for the right neighbor strand crossing under the coupon inputs,
    then the coupon shifted one position right."""
    k_in = len(m.source.leaves())
    return [[Cell("braid+", p + i)] for i in reversed(range(k_in))] + [
        [Cell("coupon", p + 1, coupon_id=coupon_id)]
    ]


def _move_coupon_slide(word, site):
    """Rewrite coupon-then-cross into cross-then-coupon (naturality).

    Site is (level, pos): the slice at `level` must be a lone coupon at
    `pos` followed by the braid slices that carry its right neighbor strand
    to position `pos`.
    """
    level, p = site
    if level >= len(word.slices):
        raise MoveError("no slice at site")
    cells = word.slices[level]
    if len(cells) != 1 or cells[0].kind != "coupon" or cells[0].at != p:
        raise MoveError("CouponSlide needs a lone coupon slice at the site")
    cell = cells[0]
    m = word.coupons[cell.coupon_id]
    k_out = len(m.target.leaves())
    expected = tuple(tuple(s) for s in coupon_then_cross(cell.coupon_id, m, p))
    got = tuple(tuple(s) for s in word.slices[level : level + len(expected)])
    if got != expected:
        raise MoveError("no coupon-then-cross pattern at site")
    new = cross_then_coupon(cell.coupon_id, m, p)
    slices = word.slices[:level] + tuple(tuple(s) for s in new) + word.slices[level + 1 + k_out :]
    return TangleWord(word.bottom, slices, dict(word.coupons))


def random_word(rng, backend, n_strands: int = 3, n_slices: int = 4, max_width: int = 5) -> TangleWord:
    """A random well-formed word over V and dual(V), with assorted cells."""
    bottom = tuple(Strand(1, rng.choice((1, -1))) for _ in range(n_strands))
    word = TangleWord(bottom, (), {})
    coupon_count = 0
    for _ in range(n_slices):
        strands = word.top
        width = len(strands)
        options = ["twist"]
        if width >= 2:
            options.extend(["braid", "braid", "cap_maybe"])
        if width < max_width:
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
                if a.spin == b.spin == 1 and a.orient != b.orient:
                    flavor = "l" if a.orient < 0 else "r"
                    sites.append((p, flavor))
            if not sites:
                continue
            p, flavor = rng.choice(sites)
            cell = Cell("cap", p, label=1, flavor=flavor)
        elif kind == "coupon":
            span = 1 if width == 1 else rng.choice((1, 2))
            p = rng.randrange(width - span + 1)
            source = tensor_word([strands[p + i].obj for i in range(span)])
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
