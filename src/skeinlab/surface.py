"""Marked surfaces with boundary as ciliated gluing patterns of handles.

A pattern is a set of vertices (disks with one marked boundary point each)
joined by handles.  Each handle end sits in a slot of a vertex; the slots
at a vertex are linearly ordered, reading left to right from the cilium.
The Euler characteristic is #vertices - #handles.  A pattern derives its
slot order once, as it is validated: `slots` lists every end vertex by vertex
in cilium order, and `slot_of` maps (handle, sign) to its position there.

Fusion merges two vertices into one, concatenating their slot orders
(first vertex first by default, which realizes the "left skein starts to
the left" convention on the merged disk).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FusionError


def _index(value, what):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FusionError(f"a {what} must be a non-negative integer, got {value!r}")
    return value


@dataclass(frozen=True)
class HandleEnd:
    vertex: int
    slot: int
    sign: int  # +1 carries the handle label, -1 carries its dual

    def to_json(self):
        return {"v": self.vertex, "slot": self.slot, "orient": "+" if self.sign > 0 else "-"}

    @staticmethod
    def from_json(data, default="+"):
        """`default` orients an end whose "orient" is omitted."""
        if not isinstance(data, dict):
            raise FusionError(f"a handle end must be an object, got {type(data).__name__}")
        orient = data.get("orient", default)
        if orient not in ("+", "-"):
            raise FusionError(f"a handle end's orient must be \"+\" or \"-\", got {orient!r}")
        return HandleEnd(_index(data["v"], "vertex"), _index(data["slot"], "slot"), 1 if orient == "+" else -1)


@dataclass(frozen=True)
class Handle:
    ends: tuple  # (HandleEnd, HandleEnd), signs +1 and -1

    def to_json(self):
        return {"ends": [e.to_json() for e in self.ends]}

    @staticmethod
    def from_json(data):
        """An end with no orientation takes the opposite of the other end's,
        and the first end is "+" when neither states one."""
        ends = data["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise FusionError("a handle must have a list of two ends")
        second = ends[1].get("orient") if isinstance(ends[1], dict) else None
        first = HandleEnd.from_json(ends[0], "-" if second == "+" else "+")
        return Handle((first, HandleEnd.from_json(ends[1], "-" if first.sign > 0 else "+")))


@dataclass(frozen=True)
class SurfacePattern:
    n_vertices: int
    handles: tuple  # tuple of Handle
    # (handle index, end) pairs and (handle index, sign) -> position, set by __post_init__
    slots: tuple = field(init=False, compare=False, repr=False)
    slot_of: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ends = {}  # (vertex, slot) -> (handle index, end)
        for hi, h in enumerate(self.handles):
            if len(h.ends) != 2:
                raise FusionError("handles have exactly two ends")
            if {h.ends[0].sign, h.ends[1].sign} != {1, -1}:
                raise FusionError("handle ends must carry opposite orientation flags")
            for e in h.ends:
                if not 0 <= e.vertex < self.n_vertices:
                    raise FusionError(f"handle end at missing vertex {e.vertex}")
                key = (e.vertex, e.slot)
                if key in ends:
                    raise FusionError(f"two handle ends in slot {key}")
                ends[key] = (hi, e)
        order = sorted(ends)
        for v, s in order:
            if s and (v, s - 1) not in ends:
                raise FusionError(f"slots at vertex {v} must be 0..k-1 with no gaps")
        slots = tuple(ends[key] for key in order)
        object.__setattr__(self, "slots", slots)
        object.__setattr__(self, "slot_of", {(hi, e.sign): n for n, (hi, e) in enumerate(slots)})

    # -- derived data ------------------------------------------------------

    @property
    def n_handles(self):
        return len(self.handles)

    def slots_at(self, v: int):
        """Handle ends at vertex v in cilium order: list of (handle index, end)."""
        return [(hi, e) for hi, e in self.slots if e.vertex == v]

    def to_json(self):
        return {
            "vertices": self.n_vertices,
            "marked": list(range(self.n_vertices)),
            "handles": [h.to_json() for h in self.handles],
        }

    @staticmethod
    def from_json(data):
        """Every vertex but one must hold a handle end, so that work and
        output stay linear in the size of the input."""
        handles = tuple(Handle.from_json(h) for h in data["handles"])
        n_vertices = _index(data["vertices"], "vertex count")
        if n_vertices > 2 * len(handles) + 1:
            raise FusionError(f"vertex count {n_vertices} exceeds the {2 * len(handles)} handle ends plus one")
        marked = data.get("marked", list(range(n_vertices)))
        if marked != list(range(n_vertices)) or any(type(m) is not int for m in marked):
            raise FusionError(f"marked must list the vertices 0..{n_vertices - 1} in order, got {marked!r}")
        return SurfacePattern(n_vertices, handles)


def disk_with_two_points() -> SurfacePattern:
    """Disk with two marked boundary points; one holonomy copy of G."""
    h = Handle((HandleEnd(0, 0, 1), HandleEnd(1, 0, -1)))
    return SurfacePattern(2, (h,))


def disjoint_union(p: SurfacePattern, q: SurfacePattern) -> SurfacePattern:
    shift = p.n_vertices
    handles = list(p.handles)
    for h in q.handles:
        handles.append(Handle(tuple(HandleEnd(e.vertex + shift, e.slot, e.sign) for e in h.ends)))
    return SurfacePattern(p.n_vertices + q.n_vertices, tuple(handles))


def fuse(p: SurfacePattern, v1: int, v2: int, order: str = "v1v2") -> SurfacePattern:
    """Merge marked points v1 and v2 into one vertex.

    The merged slot order is v1's slots followed by v2's (or the reverse
    with order="v2v1"); the handle count is unchanged and the Euler
    characteristic drops by one.
    """
    if v1 == v2:
        raise FusionError("cannot fuse a marked point with itself")
    if not (0 <= v1 < p.n_vertices and 0 <= v2 < p.n_vertices):
        raise FusionError("fusion vertices out of range")
    if order not in ("v1v2", "v2v1"):
        raise FusionError(f"unknown fusion order {order!r}")
    first, second = (v1, v2) if order == "v1v2" else (v2, v1)
    n1 = len(p.slots_at(first))
    survivors = [v for v in range(p.n_vertices) if v != v2]
    position = {v: i for i, v in enumerate(survivors)}
    handles = []
    for h in p.handles:
        ends = []
        for e in h.ends:
            if e.vertex == first:
                ends.append(HandleEnd(position[v1], e.slot, e.sign))
            elif e.vertex == second:
                ends.append(HandleEnd(position[v1], n1 + e.slot, e.sign))
            else:
                ends.append(HandleEnd(position[e.vertex], e.slot, e.sign))
        handles.append(Handle(tuple(ends)))
    return SurfacePattern(p.n_vertices - 1, tuple(handles))


def annulus() -> SurfacePattern:
    """Annulus with one marked point: fuse the two points of the disk."""
    return fuse(disk_with_two_points(), 0, 1)


def two_strand_chaps() -> SurfacePattern:
    """Two vertices joined by two parallel handles (chaps with two strands).

    Fusing its two vertices yields the once-punctured torus.
    """
    p = disjoint_union(disk_with_two_points(), disk_with_two_points())
    p = fuse(p, 0, 2)  # merge the two +-ends
    p = fuse(p, 1, 2)  # merge the two --ends
    return p


def once_punctured_torus() -> SurfacePattern:
    """One vertex, two handles with interleaved end slots [a b a* b*]."""
    return fuse(two_strand_chaps(), 0, 1)


def genus_two_one_boundary() -> SurfacePattern:
    """Genus-2 surface with one boundary circle: two interleaved handle pairs."""
    p = disjoint_union(once_punctured_torus(), once_punctured_torus())
    return fuse(p, 0, 1)
