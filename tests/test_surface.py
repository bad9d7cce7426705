from dataclasses import fields

import pytest

from skeinlab.errors import FusionError
from skeinlab.poisson import _swap_vertices
from skeinlab.ribbon_backend import make_backend
from skeinlab.skein_algebra import unit_element
from skeinlab.surface import (
    Handle,
    HandleEnd,
    SurfacePattern,
    annulus,
    disjoint_union,
    disk_with_two_points,
    fuse,
    genus_two_one_boundary,
    once_punctured_torus,
    two_strand_chaps,
)


def test_disk():
    d = disk_with_two_points()
    assert (d.n_vertices, d.n_handles) == (2, 1)


def test_standard_surfaces():
    a = annulus()
    assert (a.n_vertices, a.n_handles) == (1, 1)
    t = once_punctured_torus()
    assert (t.n_vertices, t.n_handles) == (1, 2)
    # interleaved handle ends: the standard fatgraph of the punctured torus
    order = [(hi, e.sign) for hi, e in t.slots_at(0)]
    assert order == [(0, 1), (1, 1), (0, -1), (1, -1)]
    g2 = genus_two_one_boundary()
    assert (g2.n_vertices, g2.n_handles) == (1, 4)
    chaps = two_strand_chaps()
    assert (chaps.n_vertices, chaps.n_handles) == (2, 2)


def test_fuse_decrements_chi():
    # the Euler characteristic of the ribbon graph is n_vertices - n_handles
    p = disjoint_union(disk_with_two_points(), disk_with_two_points())
    q = fuse(p, 0, 2)
    assert q.n_vertices - q.n_handles == p.n_vertices - p.n_handles - 1
    assert q.n_handles == p.n_handles


def test_fuse_slot_orders():
    d = disk_with_two_points()
    a12 = fuse(d, 0, 1, order="v1v2")
    a21 = fuse(d, 0, 1, order="v2v1")
    assert [(h, e.sign) for h, e in a12.slots_at(0)] == [(0, 1), (0, -1)]
    assert [(h, e.sign) for h, e in a21.slots_at(0)] == [(0, -1), (0, 1)]


def test_fuse_errors():
    d = disk_with_two_points()
    with pytest.raises(FusionError):
        fuse(d, 0, 0)
    with pytest.raises(FusionError):
        fuse(d, 0, 5)
    with pytest.raises(FusionError, match="unknown fusion order"):
        fuse(d, 0, 1, order="v3")


def test_chi_additive_under_disjoint_union():
    a, t = annulus(), once_punctured_torus()
    u = disjoint_union(a, t)
    assert u.n_vertices == a.n_vertices + t.n_vertices
    assert u.n_handles == a.n_handles + t.n_handles


def test_validation():
    with pytest.raises(FusionError):
        SurfacePattern(1, (Handle((HandleEnd(0, 0, 1), HandleEnd(0, 0, -1))),))
    with pytest.raises(FusionError):
        SurfacePattern(1, (Handle((HandleEnd(0, 0, 1), HandleEnd(0, 2, -1))),))
    with pytest.raises(FusionError):
        SurfacePattern(2, (Handle((HandleEnd(0, 0, 1), HandleEnd(1, 0, 1))),))
    with pytest.raises(FusionError, match="handles have exactly two ends"):
        SurfacePattern(1, (Handle((HandleEnd(0, 0, 1), HandleEnd(0, 1, -1), HandleEnd(0, 2, 1))),))
    with pytest.raises(FusionError, match="handle end at missing vertex 1"):
        SurfacePattern(1, (Handle((HandleEnd(0, 0, 1), HandleEnd(1, 0, -1))),))


def test_json_roundtrip():
    t = once_punctured_torus()
    t2 = SurfacePattern.from_json(t.to_json())
    assert t2.n_vertices == t.n_vertices and t2.handles == t.handles


def test_patterns_compare_by_vertices_and_handles():
    """How a pattern was built (fused, united, read from JSON) does not enter its equality."""
    for p in (annulus(), once_punctured_torus(), two_strand_chaps()):
        for q in (SurfacePattern(p.n_vertices, p.handles), SurfacePattern.from_json(p.to_json())):
            assert p == q and hash(p) == hash(q)


def _reference_slots(p):
    """Every end as (handle index, end), vertex by vertex in cilium order, by sorting the ends."""
    found = sorted((e.vertex, e.slot, hi, e) for hi, h in enumerate(p.handles) for e in h.ends)
    return [(hi, e) for (_, _, hi, e) in found]


def _patterns():
    d, t = disk_with_two_points(), once_punctured_torus()
    built = [d, annulus(), two_strand_chaps(), t, genus_two_one_boundary(), disjoint_union(t, d)]
    built += [fuse(disjoint_union(d, t), 0, 2, order) for order in ("v1v2", "v2v1")]
    built += [SurfacePattern(2, (Handle((HandleEnd(0, 0, -1), HandleEnd(1, 0, 1))),))]  # the --end first
    built += [_swap_vertices(unit_element(make_backend("classical"), p)).pattern for p in (d, two_strand_chaps())]
    return built + [SurfacePattern.from_json(p.to_json()) for p in built]


def test_slot_order_matches_the_sorted_ends():
    """`slots`, `slot_of` and `slots_at` agree with sorting the ends by (vertex, slot)."""
    for p in _patterns():
        reference = _reference_slots(p)
        assert list(p.slots) == reference
        assert [hi_e for v in range(p.n_vertices) for hi_e in p.slots_at(v)] == reference
        assert p.slot_of == {(hi, e.sign): n for n, (hi, e) in enumerate(reference)}
        assert len(p.slot_of) == 2 * p.n_handles


def test_derived_slots_stay_out_of_equality_and_repr():
    p = once_punctured_torus()
    assert "slots=" not in repr(p) and "slot_of=" not in repr(p)
    assert [f.name for f in fields(p) if f.compare or f.hash] == ["n_vertices", "handles"]
