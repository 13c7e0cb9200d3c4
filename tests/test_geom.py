import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrig import geom
from diskrig.boundary import CROSSING, REFUSED, _CrossingTable
from diskrig.errors import AngleUndefined, DegenerateTriple, NotTransverse
from diskrig.geom import (
    RELATIONS,
    Arc,
    Disk,
    DiskRelation,
    Lens,
    Lune,
    arc_in_disk,
    boundary_crossings,
    circle_arrays,
    circle_intersections,
    circles_tangent,
    disk_relation,
    eye_nesting,
    lens_in_disk,
    meeting_pairs,
    overlap_angle,
    regions_meet,
)

from conftest import grid_triple_oracle, random_overlapping_pair, triple_intersection_nonempty


def test_disk_numpy_center_is_complex():
    # a numpy centre is stored as complex, so memberships are bools and add up
    d = Disk(np.complex128(0.5 + 0.25j), 1.0)
    assert type(d.center) is complex
    assert type(d.contains(0j)) is bool and type(d.contains(0j, strict=True)) is bool
    assert d.contains(0j) + d.contains(0.1j) == 2
    assert d == Disk(0.5 + 0.25j, 1.0)


def test_tolerance_restores_eps_geom_after_a_raising_body():
    before = geom.EPS_GEOM
    with geom.tolerance(1e-5):
        assert geom.EPS_GEOM == 1e-5
    assert geom.EPS_GEOM == before
    with pytest.raises(NotTransverse):
        with geom.tolerance(1e-5):
            # a pair 1e-6 from tangency reads as tangent under the override
            assert disk_relation(Disk(0j, 1.0), Disk(2 - 1e-6 + 0j, 1.0)) is DiskRelation.EXTERNALLY_TANGENT
            raise NotTransverse("raised inside the block")
    assert geom.EPS_GEOM == before


def test_disk_relation_cases():
    assert disk_relation(Disk(0j, 1), Disk(3 + 0j, 1)) is DiskRelation.DISJOINT
    assert disk_relation(Disk(0j, 1), Disk(2 + 0j, 1)) is DiskRelation.EXTERNALLY_TANGENT
    assert disk_relation(Disk(0j, 2), Disk(0.5 + 0j, 1)) is DiskRelation.FIRST_CONTAINS_SECOND
    assert disk_relation(Disk(0.5 + 0j, 1), Disk(0j, 2)) is DiskRelation.SECOND_CONTAINS_FIRST
    assert disk_relation(Disk(0j, 1), Disk(1 + 0j, 1)) is DiskRelation.OVERLAPPING
    assert disk_relation(Disk(0j, 1), Disk(1 + 0j, 2)) is DiskRelation.INTERNALLY_TANGENT
    assert disk_relation(Disk(0j, 1), Disk(0j, 1)) is DiskRelation.EQUAL


def _near_threshold_pair(scale, center, phi, ratio, place, side, ulps):
    """Two disks whose centre distance lies within a few ulps of one of the
    classifier's thresholds: EPS_GEOM off external or internal tangency
    (the second disk containing the first, or the first the second),
    EPS_GEOM off equal circles, or the near-tangent crossing height
    EPS_GEOM max(r, 1) of circle_intersections; or a pair at a distance of
    ratio times the radius sum."""
    eps = geom.EPS_GEOM
    r = scale
    r_t = max(ratio * r, 2 * eps * max(r, 1.0)) if place.startswith("near") else (1 + ratio) * r
    if place == "external":
        d = r + r_t + side * eps
    elif place == "internal":
        d = r_t - r + side * eps
    elif place == "inside":
        r_t = max(r * ratio, 1e-6)
        d = r - r_t + side * eps
    elif place == "equal":
        r_t, d = r + side * eps, abs(side) * eps
    elif place == "random":
        d = ratio * (r + r_t)
    else:
        h = eps * max(r, 1.0)
        along, along_t = math.sqrt(r * r - h * h), math.sqrt(r_t * r_t - h * h)
        d = along + along_t if place == "near external" else along - along_t
    d = max(d + ulps * float(np.spacing(d)), 0.0)
    c = complex(*center) * scale
    return Disk(c, r), Disk(c + d * complex(math.cos(phi), math.sin(phi)), r_t)


def _scalar_kind(disk, disk_t):
    """The crossing table's kind of a source and an image circle, from the
    scalar predicates: REFUSED, CROSSING, or None for a pair it leaves out."""
    if circles_tangent(disk, disk_t):
        return REFUSED
    if disk_relation(disk, disk_t) is not DiskRelation.OVERLAPPING:
        return None
    try:
        circle_intersections(disk, disk_t)
    except NotTransverse:
        return REFUSED
    return CROSSING


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    scale=st.sampled_from([1e-3, 1.0, 1e3, 2.0**20, 1e7, 1e8]),
    center=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
    phi=st.floats(0, 2 * math.pi),
    ratio=st.sampled_from([1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0, 1.7]),
    place=st.sampled_from(["external", "internal", "inside", "equal", "near external", "near internal", "random"]),
    side=st.sampled_from([-1, 0, 1]),
    ulps=st.integers(-4, 4),
    eps=st.sampled_from([None, 1e-7]),
    pair_pass=st.sampled_from([geom.PAIR_PASS, 1]),
)
def test_meeting_pairs_classify_as_the_scalar_predicates_do(scale, center, phi, ratio, place, side, ulps, eps, pair_pass):
    # differential oracle at every threshold of the bulk classifier, also
    # under an EPS_GEOM override as --eps-geom sets it and in passes of one
    # circle: each ordered pair of the two disks (and each disk with itself)
    # that disk_relation does not read as disjoint is listed, by v and then
    # w, with disk_relation's code, circles_tangent's tangency and Python's
    # centre distance, bit for bit; and the crossing table refuses the pair
    # where circle_intersections does, and otherwise places its crossings
    # where circle_intersections does
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "EPS_GEOM", eps or geom.EPS_GEOM)
        patch.setattr(geom, "PAIR_PASS", pair_pass)
        disks = _near_threshold_pair(scale, center, phi, ratio, place, side, ulps)
        circles = circle_arrays(disks)
        v, w, code, d = meeting_pairs(circles, circles)
        want = [(n, m, disk_relation(a, b)) for n, a in enumerate(disks) for m, b in enumerate(disks)]
        assert [(n, m, RELATIONS[k]) for n, m, k in zip(v.tolist(), w.tolist(), code.tolist())] == [x for x in want if x[2] is not DiskRelation.DISJOINT]
        assert d.tolist() == [abs(disks[n].center - disks[m].center) for n, m in zip(v.tolist(), w.tolist())]
        tangent = {DiskRelation.EXTERNALLY_TANGENT, DiskRelation.INTERNALLY_TANGENT, DiskRelation.EQUAL}
        assert [rel in tangent for _n, _m, rel in want] == [circles_tangent(a, b) for a in disks for b in disks]
        disk, disk_t = disks
        table = _CrossingTable(circle_arrays([disk]), circle_arrays([disk_t]))
        assert table.kind.tolist() == [k for k in [_scalar_kind(disk, disk_t)] if k is not None]
        if table.kind.tolist() == [CROSSING]:
            # the angles of the same crossings u, then v, up to the
            # rounding of the points' coordinates, seen from the centre
            z = np.array(circle_intersections(disk, disk_t))
            for theta, e in ((table.theta, disk), (table.theta_t, disk_t)):
                turn = np.abs(np.exp(1j * theta[0]) - np.exp(1j * np.angle(z - e.center)))
                assert turn.max() <= 1e-12 * (abs(e.center) + e.radius) / e.radius


def test_crossings_of_near_concentric_circles_keep_their_order():
    # circles whose centres lie far closer than their radii: a enters b at
    # u = mid - i*axis*h, in the scalar and in the crossing table alike,
    # where a side test that cancels terms of size r^2 picked either point
    a = Disk(0j, 1e8)
    b = Disk(math.nextafter(1e-9, 1.0) * complex(math.cos(1.0), math.sin(1.0)), 1e8)
    assert disk_relation(a, b) is DiskRelation.OVERLAPPING
    u, v = circle_intersections(a, b)
    want = [1.0 - math.pi / 2, 1.0 + math.pi / 2]
    assert np.allclose([np.angle(u - a.center), np.angle(v - a.center)], want, atol=1e-9)
    table = _CrossingTable(circle_arrays([a]), circle_arrays([b]))
    assert table.kind.tolist() == [CROSSING]
    assert np.allclose(table.theta[0], want, atol=1e-9) and np.allclose(table.theta_t[0], want, atol=1e-6)


def test_overlap_angle_values():
    assert overlap_angle(Disk(0j, 1), Disk(2 + 0j, 1)) == 0.0
    assert abs(overlap_angle(Disk(0j, 1), Disk(math.sqrt(2) + 0j, 1)) - math.pi / 2) < 1e-12
    assert abs(overlap_angle(Disk(0j, 1), Disk(1 + 0j, 1)) - 2 * math.pi / 3) < 1e-12
    with pytest.raises(AngleUndefined):
        overlap_angle(Disk(0j, 1), Disk(5 + 0j, 1))
    with pytest.raises(AngleUndefined):
        overlap_angle(Disk(0j, 2), Disk(0.2 + 0j, 1))


def _tangent_oracle(a: Disk, b: Disk) -> float:
    # independent oracle: pi minus the angle between the CCW boundary tangents
    # at the corner where the boundary of a enters b
    u, _ = circle_intersections(a, b)
    ta = 1j * (u - a.center)
    tb = 1j * (u - b.center)
    cosang = (ta.conjugate() * tb).real / (abs(ta) * abs(tb))
    return math.pi - math.acos(max(-1.0, min(1.0, cosang)))


def test_overlap_angle_tangent_oracle(rng):
    for _ in range(1000):
        a, b = random_overlapping_pair(rng)
        assert abs(overlap_angle(a, b) - _tangent_oracle(a, b)) < 1e-9


def test_overlap_angle_unit_distance_derived():
    # frozen via the tangent oracle at the intersection point (1/2, sqrt(3)/2)
    a, b = Disk(0j, 1), Disk(1 + 0j, 1)
    assert abs(_tangent_oracle(a, b) - 2 * math.pi / 3) < 1e-12
    assert abs(overlap_angle(a, b) - 2 * math.pi / 3) < 1e-12


def test_overlap_angle_symmetry(rng):
    for _ in range(200):
        a, b = random_overlapping_pair(rng)
        assert abs(overlap_angle(a, b) - overlap_angle(b, a)) < 1e-12


def test_overlap_angle_monotone_in_distance(rng):
    for _ in range(100):
        a, b = random_overlapping_pair(rng)
        d = abs(b.center - a.center)
        lo = abs(a.radius - b.radius) + 1e-3
        hi = a.radius + b.radius - 1e-3
        if not (lo < d - 1e-4 and d + 1e-4 < hi):
            continue
        axis = (b.center - a.center) / d
        h = 1e-6 * d
        up = overlap_angle(a, Disk(a.center + (d + h) * axis, b.radius))
        dn = overlap_angle(a, Disk(a.center + (d - h) * axis, b.radius))
        assert up < overlap_angle(a, b) < dn


def test_circle_intersections_convention():
    a, b = Disk(0j, 1), Disk(1 + 0j, 1)
    u, v = circle_intersections(a, b)
    assert abs(u - (0.5 - math.sqrt(3) / 2 * 1j)) < 1e-12
    assert abs(v - (0.5 + math.sqrt(3) / 2 * 1j)) < 1e-12
    # swapped roles swap labels
    u2, v2 = circle_intersections(b, a)
    assert abs(u2 - v) < 1e-12 and abs(v2 - u) < 1e-12
    with pytest.raises(NotTransverse):
        circle_intersections(Disk(0j, 1), Disk(2 + 0j, 1))


def test_circle_intersections_on_boundaries(rng):
    for _ in range(300):
        a, b = random_overlapping_pair(rng)
        for p in circle_intersections(a, b):
            assert abs(abs(p - a.center) - a.radius) < 1e-9
            assert abs(abs(p - b.center) - b.radius) < 1e-9


def test_circle_intersections_entering_oracle(rng):
    # oracle: a point on the boundary of a slightly past u (in CCW order) must
    # be inside b, slightly before must be outside
    for _ in range(300):
        a, b = random_overlapping_pair(rng)
        u, v = circle_intersections(a, b)
        t = a.angle_of(u)
        eps = 1e-5
        assert b.contains(a.point_at(t + eps), strict=True)
        assert not b.contains(a.point_at(t - eps))
        tv = a.angle_of(v)
        assert not b.contains(a.point_at(tv + eps))
        assert b.contains(a.point_at(tv - eps), strict=True)


def test_triple_intersection_examples():
    side1 = [Disk(0j, 1), Disk(1 + 0j, 1), Disk(0.5 + math.sqrt(3) / 2 * 1j, 1)]
    assert triple_intersection_nonempty(*side1) is True
    side25 = [Disk(0j, 1), Disk(2.5 + 0j, 1), Disk(1.25 + 2.5 * math.sqrt(3) / 2 * 1j, 1)]
    assert triple_intersection_nonempty(*side25) is False
    side2 = [Disk(0j, 1), Disk(2 + 0j, 1), Disk(1 + math.sqrt(3) * 1j, 1)]
    assert triple_intersection_nonempty(*side2) is False
    with pytest.raises(DegenerateTriple):
        triple_intersection_nonempty(Disk(0j, 2), Disk(0.1 + 0j, 0.5), Disk(5 + 0j, 1))


def test_triple_intersection_grid_oracle(rng):
    checked = 0
    trials = 0
    while checked < 500 and trials < 5000:
        trials += 1
        disks = []
        for _ in range(3):
            disks.append(Disk(complex(*rng.normal(0, 1.1, 2)), rng.uniform(0.5, 1.4)))
        try:
            got = triple_intersection_nonempty(*disks)
        except DegenerateTriple:
            continue
        verdict, margin = grid_triple_oracle(*disks)
        if margin <= 1e-3:
            continue  # oracle witness not decisive at this resolution
        assert got == verdict, f"disagrees with grid oracle on {disks}"
        checked += 1
    assert checked == 500


def test_predicate_stability_under_tiny_perturbation(rng):
    for _ in range(200):
        a, b = random_overlapping_pair(rng)
        rel = disk_relation(a, b)
        jit = complex(*rng.normal(0, 1e-11, 2))
        assert disk_relation(Disk(a.center + jit, a.radius), b) is rel


def test_region_predicates():
    a, b = Disk(0j, 1.2), Disk(1.0 + 0j, 1.2)
    lens = Lens(a, b)
    assert lens_in_disk(lens, Disk(0.5 + 0j, 1.5))
    assert not lens_in_disk(lens, Disk(0.5 + 0j, 0.9))
    assert regions_meet(Lune(a, b), Lune(a, b))
    # far-separated pairs give disjoint difference regions
    c, d = Disk(10 + 0j, 1.2), Disk(11 + 0j, 1.2)
    assert not regions_meet(Lune(a, b), Lune(c, d))
    # a lune nested inside the other pair's disk difference
    big_a, big_b = Disk(0j, 4.0), Disk(7.5 + 0j, 4.0)
    assert regions_meet(Lune(big_a, big_b), Lune(a, b))


def test_regions_meet_on_disks():
    # Disk, Lens and Lune share boundary_arcs and contains, so a disk is a
    # region too
    a = Disk(0j, 1.0)
    assert not regions_meet(a, Disk(5 + 0j, 1.0))
    assert regions_meet(a, Disk(0.2 + 0.1j, 0.3)) and regions_meet(Disk(0.2 + 0.1j, 0.3), a)
    assert regions_meet(a, Disk(1.5 + 0j, 1.0))
    assert regions_meet(Lens(a, Disk(1.5 + 0j, 1.0)), Disk(0.75 + 0j, 0.1))


def test_boundary_crossings_and_nesting():
    a, b = Disk(0j, 1.2), Disk(1.0 + 0j, 1.2)
    (arc,) = a.boundary_arcs()
    assert (arc.a0, arc.da) == (0.0, 2 * math.pi)
    # two circles cross at their two intersection points, in the order of
    # circle_intersections
    assert [p for _x, _y, p in boundary_crossings(a, b)] == list(circle_intersections(a, b))
    eye = Lens(a, b)
    # the arc of a runs from u to v, the arc of b from v back to u
    (u, v), (arc_a, arc_b) = eye.corners, eye.boundary_arcs()
    assert max(abs(arc_a.start - u), abs(arc_a.end - v), abs(arc_b.start - v), abs(arc_b.end - u)) < 1e-12
    # a lens and a disk through it: each crossing names the arc it lies on
    cut = Disk(0.5 + 1.0j, 0.5)
    got = list(boundary_crossings(eye, cut))
    assert [x.disk for x, _y, _p in got] == [a, b] and all(y.disk == cut for _x, y, _p in got)
    # the lazy generator stops at the first crossing
    assert next(boundary_crossings(eye, Lens(Disk(0.5 + 1.0j, 0.5), Disk(0.5 + 1.5j, 0.5))), None) is not None
    small = Lens(Disk(0.3 + 0j, 0.6), Disk(0.7 + 0j, 0.6))
    assert next(boundary_crossings(eye, small), None) is None
    assert eye_nesting(eye, small) == "fwd" and eye_nesting(small, eye) == "rev"
    far = Lens(Disk(10 + 0j, 1.0), Disk(11 + 0j, 1.0))
    assert eye_nesting(eye, far) is None


def test_arc_in_disk():
    d = Disk(0j, 1.0)
    arc = Arc(d, 0.0, math.pi / 2)
    assert arc_in_disk(arc, Disk(0.5 + 0.5j, 1.2))
    assert not arc_in_disk(arc, Disk(-1 + 0j, 1.1))
