import collections
import functools
import itertools
import json
import math
import os
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskrig.boundary import (
    BASE_STEP,
    CORNER_REFINE,
    CORNER_WINDOW,
    COARSE,
    PASS_SAMPLES,
    ArcLoopMap,
    CornerRef,
    FaithfulMap,
    SampledLoopMap,
    _arc_bounds,
    _arcs_offsets,
    _certify,
    _exact_windings,
    _grid_counts,
    _LoopArcs,
    _min_disp,
    _refine,
    _sampled_min_displacement,
    _winding_of_closed,
    boundary_complex,
    build_faithful_map,
    fixed_point_index,
    index_sums,
    loop_index,
    sample_loops,
    winding_number,
)
from diskrig import geom
from diskrig.config import DiskConfiguration, eye_of_pair
from diskrig.docio import read_document
from diskrig.errors import (
    CoincidentCorner,
    CombinatoricsMismatch,
    DiskrigError,
    NearFixedPoint,
    NotTransverse,
    PointOnCurve,
)
from diskrig.geom import Disk, DiskRelation, circle_intersections, cyclic_spans, disk_relation, tangency_point
from diskrig.moebius import apply_disk, dilation_about

from conftest import _reference_classify, random_monotone_pins, ring_of_twelve

NEGIDX_C = DiskConfiguration([(1, Disk(3.18 - 0.05j, 1.51)), (2, Disk(5.02 + 0.05j, 1.43))])
NEGIDX_CT = DiskConfiguration([(1, Disk(2.85 - 0.02j, 1.46)), (2, Disk(5.54 + 0.05j, 1.57))])
NEGIDX_PINS = {
    1: [(3.75 + 1.32j, 1.75 + 0.88j), (3.89 - 1.36j, 1.71 - 0.90j)],
    2: [(4.45 + 1.34j, 6.79 + 0.98j), (4.45 - 1.24j, 6.73 - 0.94j)],
}


def _circle(n=256, r=1.0, center=0j):
    return center + r * np.exp(1j * np.linspace(0, 2 * math.pi, n, endpoint=False))


def test_winding_number_cases():
    circ = _circle()
    assert winding_number(circ, 0j) == 1
    assert winding_number(circ, 3 + 0j) == 0
    assert winding_number(circ[::-1], 0j) == -1
    with pytest.raises(PointOnCurve):
        winding_number(circ, 1 + 0j)


def test_boundary_complex_shapes():
    single = boundary_complex(DiskConfiguration([("a", Disk(0j, 1.0))]))
    assert len(single.curves) == 1
    assert len(single.curves[0].pieces) == 1

    two = boundary_complex(DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1 + 0j, 1.0))]))
    assert len(two.curves) == 1
    assert [p.vertex for p in two.curves[0].pieces] in (["a", "b"], ["b", "a"])

    ring_items = []
    n = 6
    for k in range(n):
        ring_items.append((k, Disk(2 * np.exp(2j * math.pi * k / n), 1.2)))
    ring_config = DiskConfiguration(ring_items)
    ring = boundary_complex(ring_config)
    assert len(ring.curves) == 2
    ring_t = ring_config.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d))
    windings = sorted(winding_number(loop.src, 0j) for loop in sample_loops(build_faithful_map(ring_config, ring_t).loops(), 1))
    assert windings == [-1, 1]  # inner curve clockwise, outer counterclockwise


def test_faithful_map_translation():
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1 + 0j, 1.0))])
    ct = c.transformed(lambda d: Disk(d.center + 5, d.radius))
    fmap = build_faithful_map(c, ct)
    rep = fixed_point_index(fmap)
    assert rep.eta == 0
    assert abs(rep.min_displacement - 5) < 0.2


def _pair_corners(config, i, j):
    """Corner refs of the pair {i, j} for sorted label order, classified
    afresh: how boundary_complex traced each pair before the contact table,
    kept as the oracle for the table's corners."""
    si, sj = sorted((i, j), key=str)
    a, b = config.disks[si], config.disks[sj]
    rel = disk_relation(a, b)
    if rel is DiskRelation.OVERLAPPING:
        u, v = circle_intersections(a, b)
        return (CornerRef((si, sj), "u", u), CornerRef((si, sj), "v", v))
    if rel is DiskRelation.EXTERNALLY_TANGENT:
        t = tangency_point(a, b)
        return (CornerRef((si, sj), "t", t),)
    return ()


def _count_disk_relation(monkeypatch):
    """Count the disk_relation calls made outside geom, through every other
    diskrig module's binding of it, keyed by the unordered pair of disk
    objects (geom's own predicates check their relation afresh)."""
    import sys

    from diskrig import geom

    calls = collections.Counter()
    original = geom.disk_relation

    def counted(a, b):
        calls[frozenset((id(a), id(b)))] += 1
        return original(a, b)

    for name, mod in list(sys.modules.items()):
        if name.startswith("diskrig") and name != "diskrig.geom" and getattr(mod, "disk_relation", None) is original:
            monkeypatch.setattr(mod, "disk_relation", counted)
    return calls


def test_faithful_map_reads_corners_from_its_complexes(monkeypatch, rng):
    # labels 0..11 list the pair (9, 10) against str order; a ring of
    # overlaps and a flower of tangencies
    from diskrig.config import contact_graph, eyes, is_general_position, is_thin
    from diskrig.experiments import main_b_identity
    from diskrig.moebius import anchor_points
    from diskrig.solver import FixedBoundaryRadii, flower, layout, solve_radii
    from diskrig.subsumption import subsumptive_subsets

    tri = flower(11)
    tangent = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 12)})), {})
    calls = _count_disk_relation(monkeypatch)
    for items in (ring_of_twelve(rng).items(), tangent.items()):
        calls.clear()
        c = DiskConfiguration(items)
        ct = c.transformed(lambda d: Disk(d.center * 1.05 + 0.01j, d.radius * 1.05))
        pairs = [(cfg, i, j) for cfg in (c, ct) for i, j in itertools.combinations(cfg.labels, 2)]
        # building a configuration calls disk_relation on no pair ...
        assert not calls
        # ... into the table that classifying every pair gives ...
        for cfg in (c, ct):
            want = [(e, pair, rel, np.float64(theta).tobytes()) for e, pair, rel, theta in _reference_classify(cfg.items())]
            assert [(e, x.pair, x.relation, np.float64(x.theta).tobytes()) for e, x in cfg.contacts().items()] == want
        # ... and no reader of its contacts classifies a pair again
        calls.clear()
        fmap = build_faithful_map(c, ct)
        fixed_point_index(fmap)
        is_general_position(c, ct)
        subsumptive_subsets(c, ct)
        for cfg in (c, ct):
            for read in (contact_graph, is_thin, eyes, boundary_complex, anchor_points):
                read(cfg)
        # a proper subset's loops read the restricted configuration's table
        lhs, rhs = main_b_identity(fmap, set(c.labels[:5]))
        assert lhs == rhs
        assert not any(calls[frozenset((id(cfg.disks[i]), id(cfg.disks[j])))] for cfg, i, j in pairs)
        # the table's corners and the complexes' corner refs match the oracle
        for cx in (fmap.complex_src, boundary_complex(fmap.config_t)):
            contacts = cx.config.contacts()
            for i, j in itertools.combinations(cx.config.labels, 2):
                want = _pair_corners(cx.config, i, j)
                assert cx.corners.get(frozenset((i, j)), ()) == want
                got = contacts.get(frozenset((i, j)))
                assert (got.pair, got.corners) == (want[0].pair, tuple(r.point for r in want)) if want else got is None
    assert any(str(i) > str(j) for cfg, i, j in pairs if frozenset((i, j)) in cfg.contacts())


def test_faithful_map_identical_raises():
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1 + 0j, 1.0))])
    with pytest.raises(CoincidentCorner):
        build_faithful_map(c, c)


def test_faithful_map_combinatorics_mismatch():
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1 + 0j, 1.0))])
    far = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(5 + 0j, 1.0))])
    with pytest.raises(CombinatoricsMismatch):
        build_faithful_map(c, far)


def test_fixed_point_index_radial():
    # boundary of the unit disk onto a concentric radius-3 circle
    src = _circle(512)
    dst = 3 * src
    assert loop_index(SampledLoopMap(src, dst)) == 1


def test_fixed_point_index_translation_circle():
    src = _circle(512)
    assert loop_index(SampledLoopMap(src, src + 5)) == 0


def test_negative_index_counterexample():
    fmap = build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS)
    assert fixed_point_index(fmap).eta == -1
    # without the pinned identifications the arc-proportional map gives +1
    plain = build_faithful_map(NEGIDX_C, NEGIDX_CT)
    assert fixed_point_index(plain).eta == 1


def test_index_inverse_invariance(rng):
    from conftest import random_overlapping_pair

    done = 0
    while done < 200:
        a, b = random_overlapping_pair(rng)
        shift = complex(*rng.normal(0, 2, 2))
        scale = rng.uniform(0.5, 1.8)
        bt = Disk(b.center + shift, b.radius * scale)
        c, ct = DiskConfiguration([("k", a)]), DiskConfiguration([("k", bt)])
        # a random monotone circle map and its inverse, from the swapped pins
        pins = random_monotone_pins(rng, a, bt, 2)
        try:
            fwd = build_faithful_map(c, ct, pins={"k": pins})
            bwd = build_faithful_map(ct, c, pins={"k": [(zt, z) for z, zt in pins]})
            e1 = fixed_point_index(fwd).eta
            e2 = fixed_point_index(bwd).eta
        except (NearFixedPoint, CoincidentCorner):
            continue
        assert e1 == e2
        done += 1


def test_metric_disk_index_nonnegative(rng):
    # eta >= 0 for any indexable map between metric disk boundaries, all
    # relation classes; containment gives exactly 1, disjoint gives exactly 0
    done = 0
    while done < 300:
        d1 = Disk(complex(*rng.normal(0, 1.5, 2)), rng.uniform(0.4, 1.5))
        d2 = Disk(complex(*rng.normal(0, 1.5, 2)), rng.uniform(0.4, 1.5))
        c = DiskConfiguration([("k", d1)])
        ct = DiskConfiguration([("k", d2)])
        try:
            fmap = build_faithful_map(c, ct, rng=rng, n_random_pins=3)
            eta = fixed_point_index(fmap).eta
        except (NearFixedPoint, CoincidentCorner):
            continue
        assert eta >= 0
        rel = abs(d1.center - d2.center)
        if rel + d2.radius < d1.radius or rel + d1.radius < d2.radius:
            assert eta == 1
        if rel > d1.radius + d2.radius:
            assert eta == 0
        done += 1


def test_index_stability_resample_and_jitter(rng):
    fmap = build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS)
    base = fixed_point_index(fmap).eta
    dense = [loop_index(l) for l in sample_loops(fmap.loops(), 2)]
    assert sum(dense) == base
    jit = 1e-10
    c_j = NEGIDX_C.transformed(lambda d: Disk(d.center + complex(jit, -jit), d.radius + jit))
    fmap_j = build_faithful_map(c_j, NEGIDX_CT, pins=NEGIDX_PINS)
    assert fixed_point_index(fmap_j).eta == base


def test_tangency_packing_pair():
    # classical packing case: tangency contacts trace through pinch points,
    # the union has one outer curve plus six interstice curves, and with no
    # eyes the additivity identity reduces to eta == sum of per-disk indices
    from diskrig.solver import FixedBoundaryRadii, flower, layout, solve_radii
    from diskrig.subsumption import index_lower_bound

    tri = flower(6)
    c = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)})), {})
    other = {k: [1.3, 0.8, 1.1, 0.9, 1.2, 1.0][k - 1] for k in range(1, 7)}
    ct = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii(other)), {})
    fmap = build_faithful_map(c, ct)
    rep = fixed_point_index(fmap)
    assert len(rep.per_curve) == 7
    bound = index_lower_bound(c, ct)
    assert rep.eta >= bound
    deltas = index_sums([[fmap.disk_loop(v)] for v in c.labels])
    assert rep.eta == sum(deltas)


def test_multiply_connected_ring_pair(rng):
    items = [(k, Disk(2 * np.exp(2j * math.pi * k / 6), 1.2)) for k in range(6)]
    c = DiskConfiguration(items)
    m = dilation_about(0.1 + 0.05j, 0.93)
    ct = c.transformed(lambda d: apply_disk(m, d))
    fmap = build_faithful_map(c, ct)
    rep = fixed_point_index(fmap)
    assert len(rep.per_curve) == 2
    assert rep.eta == sum(rep.per_curve)
    # the report against each curve's winding from the scalar count and
    # from loop_index, which samples
    loops = fmap.loops()
    exact = [_exact_index(loop.arcs, loop.table) for loop in loops]
    assert None not in exact
    assert collections.Counter(exact) == collections.Counter(rep.per_curve) == collections.Counter(map(loop_index, sample_loops(loops, 2)))
    assert sum(exact) == rep.eta


# --- differential oracles: the earlier set-based grid and grouped evaluation ----------


def _reference_arc_offsets(span, refine_start, refine_end, density=1):
    step = BASE_STEP / density
    n = max(4, int(math.ceil(span / step)))
    pts = set(np.linspace(0.0, span, n, endpoint=False))
    fine = step / CORNER_REFINE
    win = min(CORNER_WINDOW, span / 2)
    if refine_start:
        pts.update(np.arange(0.0, win, fine))
    if refine_end:
        pts.update(span - np.arange(fine, win, fine))
    return np.array(sorted(p for p in pts if 0.0 <= p < span - 1e-15))


def _reference_eval_theta(nodes, theta):
    """A vertex map with these nodes at theta as it was evaluated before the
    node table: the node with the least forward angle to theta, found by an
    argmin over all nodes."""
    theta = np.asarray(theta, dtype=float)
    if not nodes:
        return theta
    t0 = np.array([n[0] for n in nodes])
    t1 = np.array([n[1] for n in nodes])
    idx = np.argmin((theta[..., None] - t0) % (2 * math.pi), axis=-1)
    span = np.array(cyclic_spans(t0))[idx]
    span_t = np.array(cyclic_spans(t1))[idx]
    frac = ((theta - t0[idx]) % (2 * math.pi)) / span
    return t1[idx] + frac * span_t


def _reference_eval_nodes(fmap, verts, thetas):
    out = np.empty(len(thetas), dtype=complex)
    groups = {}
    for idx, v in enumerate(verts):
        groups.setdefault(v, []).append(idx)
    for v, idxs in groups.items():
        sel = np.asarray(idxs)
        disk_t = fmap.config_t.disks[v]
        out[sel] = disk_t.center + disk_t.radius * np.exp(1j * _reference_eval_theta(fmap.nodes[v], thetas[sel]))
    return out


def _reference_loop(config, arcs, fmap, density):
    """A loop sampled arc by arc with the set-based grid, its image evaluated
    vertex by vertex with the argmin."""
    pts, verts, thetas = [], [], []
    for v, a0, da, refine_start, refine_end in arcs:
        disk = config.disks[v]
        ang = a0 + _reference_arc_offsets(da, refine_start, refine_end, density)
        pts.append(disk.center + disk.radius * np.exp(1j * ang))
        verts.extend([v] * len(ang))
        thetas.append(ang)
    return np.concatenate(pts), _reference_eval_nodes(fmap, verts, np.concatenate(thetas))


def _piece_arcs(curve):
    """A curve's arcs read from its pieces, refined where a piece ends at a corner."""
    return [(p.vertex, p.a0, p.da, p.start is not None, p.end is not None) for p in curve.pieces]


def _reference_grid(loops, density):
    """The bytes of the vertex codes and the angles of the loops' samples,
    in arc order, from the set-based grid."""
    arcs = [arc for loop in loops for arc in loop.arcs]
    code = loops[0].table.code
    thetas = [a0 + _reference_arc_offsets(da, rs, re, density) for _v, a0, da, rs, re in arcs]
    codes = np.concatenate([np.full(len(t), code[arc[0]], dtype=np.intp) for arc, t in zip(arcs, thetas)])
    return codes.tobytes(), np.concatenate(thetas).tobytes()


def _assert_same_loop(loop, config, arcs, fmap, density):
    src, dst = _reference_loop(config, arcs, fmap, density)
    assert loop.src.tobytes() == src.tobytes() and loop.dst.tobytes() == dst.tobytes()


def test_arc_offsets_match_set_reference(rng):
    spans = [2 * math.pi, 0.1, 0.1 + 1e-13, 2 * CORNER_WINDOW, 1e-3, 3e-12]
    spans += list(rng.uniform(0, 2 * math.pi, 12)) + list(rng.uniform(0, 0.2, 6))
    for span in spans:
        for refine_start in (False, True):
            for refine_end in (False, True):
                for density in range(1, 17):
                    spans = np.array([span])
                    got = _arcs_offsets(spans, _grid_counts(spans, refine_start, refine_end, density), density)[1]
                    want = _reference_arc_offsets(span, refine_start, refine_end, density)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# spans where the grid's points meet the corner windows or the span's end
SPANS = st.one_of(
    st.sampled_from([2 * math.pi, 0.1, 0.1 + 1e-13, 0.1 - 1e-13, 3e-12, 2 * CORNER_WINDOW]),
    st.floats(1e-12, 2 * math.pi),
)
ARCS = st.lists(st.tuples(SPANS, st.booleans(), st.booleans()), min_size=1, max_size=16)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(arcs=ARCS, density=st.integers(1, 16))
def test_arcs_offsets_match_set_reference(arcs, density):
    spans, refine_start, refine_end = (np.array(col) for col in zip(*arcs))
    arc, off = _arcs_offsets(spans, _grid_counts(spans, refine_start, refine_end, density), density)
    assert np.all(np.diff(arc) >= 0)
    for k, (span, rs, re) in enumerate(arcs):
        want = _reference_arc_offsets(span, rs, re, density)
        assert off[arc == k].tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(arcs=ARCS, a0=st.lists(st.floats(-math.pi, 2 * math.pi), min_size=27, max_size=27), density=st.sampled_from([1, 4, 16]), cuts=st.lists(st.integers(1, 26), max_size=3))
@example(arcs=[(2 * math.pi, True, False), (1.0, True, True), (3e-12, False, True)] * 9, a0=[0.5] * 27, density=4, cuts=[4, 13])
def test_sampling_passes_split_between_arcs(arcs, a0, density, cuts):
    # one curve per run of arcs between the cuts; each pass takes whole
    # consecutive arcs up to PASS_SAMPLES candidates, or one larger arc
    arcs = [(k, a0[k], span, rs, re) for k, (span, rs, re) in enumerate(arcs)]
    bounds = sorted({0, len(arcs), *(c for c in cuts if c < len(arcs))})
    curves = [arcs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    passes = []

    def points(codes, thetas):
        passes.append(np.unique(codes))
        return codes, thetas

    # a node table whose points are the samples' vertex codes and angles
    table = types.SimpleNamespace(code={k: k for k in range(len(arcs))}, points=points)
    got = [(loop.src, loop.dst) for loop in sample_loops([ArcLoopMap(curve, table) for curve in curves], density)]
    assert len(got) == len(curves)
    for (codes, thetas), curve in zip(got, curves):
        want = [(v, a + _reference_arc_offsets(da, rs, re, density)) for v, a, da, rs, re in curve]
        assert codes.tobytes() == np.concatenate([np.full(len(t), v) for v, t in want]).astype(codes.dtype).tobytes()
        assert thetas.tobytes() == np.concatenate([t for _v, t in want]).tobytes()
    counts = sum(_grid_counts(np.array([a[2] for a in arcs]), np.array([a[3] for a in arcs]), np.array([a[4] for a in arcs]), density))
    assert np.array_equal(np.concatenate(passes), np.arange(len(arcs)))
    # a curve within one pass is a view of it; only a curve over several is copied
    for (codes, _thetas), curve in zip(got, curves):
        one_pass = any({a[0] for a in curve} <= set(p.tolist()) for p in passes)
        assert (codes.base is not None) == one_pass
    assert all(len(p) == 1 or counts[p].sum() <= PASS_SAMPLES for p in passes)
    if counts.sum() > PASS_SAMPLES:
        assert len(passes) > 1


def test_node_table_matches_argmin_reference(rng):
    # the last node at or before theta mod 2 pi, found by searchsorted, is the
    # node of least forward angle: at the nodes themselves, before the first
    # node, at negative angles and where theta % 2 pi rounds up to 2 pi
    c = DiskConfiguration([("k", Disk(0j, 1.0))])
    ct = DiskConfiguration([("k", Disk(0.3 + 0.1j, 1.4))])
    fmaps = [build_faithful_map(c, ct), build_faithful_map(c, ct, pins={"k": [(1 + 0j, 1.7 + 0.1j), (-1j, 0.3 - 1.3j)]})]
    fmaps += [build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS), build_faithful_map(NEGIDX_C, NEGIDX_CT, rng=rng, n_random_pins=3)]
    # a vertex with no nodes, the identity in angle, among vertices with nodes
    lone = DiskConfiguration(NEGIDX_C.items() + [(3, Disk(20 + 0j, 1.0))])
    lone_t = DiskConfiguration(NEGIDX_CT.items() + [(3, Disk(20.5 + 0.2j, 1.1))])
    fmaps.append(build_faithful_map(lone, lone_t))
    for fmap in fmaps:
        for v, nodes in fmap.nodes.items():
            t0 = np.array([t for t, _t in nodes])
            thetas = [t0, t0 - 2 * math.pi, t0 + 2 * math.pi, np.nextafter(t0, -np.inf), np.nextafter(t0, np.inf)]
            thetas += [np.array([-1e-17, -1e-300, -0.0, 0.0, 2 * math.pi, np.nextafter(2 * math.pi, 0), -2 * math.pi])]
            thetas += [rng.uniform(-math.pi, 4 * math.pi, 200)]
            if len(t0):
                thetas += [np.linspace(-1, t0[0], 50)]
            theta = np.concatenate(thetas)
            want = _reference_eval_theta(nodes, theta)
            table = fmap._table
            codes = np.full(len(theta), table.code[v])
            _src, dst = table.points(codes, theta)
            disk_t = fmap.config_t.disks[v]
            assert dst.tobytes() == (disk_t.center + disk_t.radius * np.exp(1j * want)).tobytes()
    assert any(nodes for fmap in fmaps for nodes in fmap.nodes.values())
    assert any(not nodes for fmap in fmaps for nodes in fmap.nodes.values())


def _eye_arcs(config, i, j):
    pair = config.contacts()[frozenset((i, j))].pair
    return [(k, arc.a0, arc.da, True, True) for k, arc in zip(pair, eye_of_pair(config, i, j).boundary_arcs())]


def _disk_arcs(nodes, v):
    angles = [t for t, _t in nodes]
    return [(v, t, span, True, True) for t, span in zip(angles, cyclic_spans(angles))] or [(v, 0.0, 2 * math.pi, False, False)]


def test_loops_match_grouped_reference():
    items = [(k, Disk(2 * np.exp(2j * math.pi * k / 6), 1.2)) for k in range(6)]
    ring = DiskConfiguration(items)
    ring_t = ring.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d))
    fmaps = [build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS), build_faithful_map(ring, ring_t)]
    for fmap in fmaps:
        for density in range(1, 17):
            loops = sample_loops(fmap.loops(), density)
            assert len(loops) == len(fmap.complex_src.curves)
            for loop, curve in zip(loops, fmap.complex_src.curves):
                _assert_same_loop(loop, fmap.config, _piece_arcs(curve), fmap, density)
            for v, nodes in fmap.nodes.items():
                (loop,) = sample_loops([fmap.disk_loop(v)], density)
                _assert_same_loop(loop, fmap.config, _disk_arcs(nodes, v), fmap, density)
            for c in fmap.config.contacts().values():
                (loop,) = sample_loops([fmap.eye_loop(*c.pair)], density)
                _assert_same_loop(loop, fmap.config, _eye_arcs(fmap.config, *c.pair), fmap, density)
    for subset in ({0, 1, 2}, {1}):
        sub = ring.restricted(subset)
        for density in range(1, 17):
            loops = sample_loops(fmaps[1].subset_loops(subset), density)
            curves = boundary_complex(sub).curves
            assert len(loops) == len(curves)
            for loop, curve in zip(loops, curves):
                _assert_same_loop(loop, sub, _piece_arcs(curve), fmaps[1], density)


def _reference_loop_index(loop):
    """loop_index as it was, one loop at a time: the oracle of the batched
    certificate."""
    disp = loop.dst - loop.src
    rel = np.abs(disp)
    if np.min(rel) <= 10 * geom.EPS_GEOM:
        raise NearFixedPoint(f"min displacement {np.min(rel):.3g}")
    chord = np.abs(np.diff(loop.src, append=loop.src[:1])) + np.abs(np.diff(loop.dst, append=loop.dst[:1]))
    gap = np.minimum(rel, np.roll(rel, -1)) - chord
    if np.min(gap) <= 0:
        raise NearFixedPoint("displacement certificate fails between samples")
    return _winding_of_closed(disp)


def _reference_certify(loops):
    """fixed_point_index's windings and smallest displacement as they were
    computed, loop by loop."""
    per_curve = [_reference_loop_index(loop) for loop in loops]
    return per_curve, min(float(np.min(np.abs(loop.dst - loop.src))) for loop in loops)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the DiskrigError it raises."""
    try:
        return fn(*args)
    except DiskrigError as exc:
        return type(exc), str(exc)


def _synthetic_loop(rng, n, kind):
    """A sampled circle of n points and an image of winding 1 (a contraction
    towards an inner point), 0 (a translation) or -1 (a reflection, scaled
    up), or one with a sample whose displacement is below the certificate's
    floor ("fixed") or below its chord ("gap")."""
    center, r = complex(*rng.normal(0, 1, 2)), float(rng.uniform(0.5, 2))
    src = center + r * np.exp(1j * (rng.uniform(0, 2 * math.pi) + np.linspace(0, 2 * math.pi, n, endpoint=False)))
    p = center + 0.3 * r * np.exp(1j * rng.uniform(0, 2 * math.pi))
    dst = {"1": p + 0.5 * (src - p), "0": src + 3 + 1j, "-1": p + 2 * np.conj(src - p)}.get(kind, src + 3 + 1j)
    k = int(rng.integers(n))
    if kind == "fixed":
        dst[k] = src[k] + 1e-12
    elif kind == "gap":
        dst[k] = src[k] + 1e-4
    return SampledLoopMap(src, dst)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    loops=st.lists(st.tuples(st.integers(4, 3000), st.sampled_from(["1", "0", "-1", "1", "0", "fixed", "gap"])), min_size=1, max_size=12),
    pass_samples=st.sampled_from([PASS_SAMPLES, 8, 1000, 5000]),
)
def test_certificate_runs_match_loop_by_loop_reference(seed, loops, pass_samples):
    # differential oracle: certifying runs of loops in one pass gives each
    # loop's winding and the smallest displacement, or raises the exception,
    # with the message, of the first loop that fails, whatever the runs
    from diskrig import boundary

    rng = np.random.default_rng(seed)
    loops = [_synthetic_loop(rng, n, kind) for n, kind in loops]
    saved = boundary.PASS_SAMPLES
    boundary.PASS_SAMPLES = pass_samples
    try:
        assert _outcome(_certify, loops) == _outcome(_reference_certify, loops)
    finally:
        boundary.PASS_SAMPLES = saved
    for loop in loops:
        assert _outcome(loop_index, loop) == _outcome(_reference_loop_index, loop)


def test_certificate_of_faithful_maps_matches_loop_by_loop_reference(rng):
    # the loops of faithful maps at several densities, certified in runs of
    # many loops and in runs of one, against the reference; the plain
    # negative-index map fails the certificate at density 1, which is also
    # put after and before the two certified curves of a ring
    from diskrig import boundary

    ring = ring_of_twelve(rng)
    fmaps = [build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS), build_faithful_map(NEGIDX_C, NEGIDX_CT)]
    fmaps += [build_faithful_map(ring, ring.transformed(lambda d: Disk(d.center * 1.05 + 0.01j, d.radius * 1.05)))]
    fmaps += [build_faithful_map(ring, ring.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d)))]
    loop_lists = [sample_loops(fmap.loops(), density) for fmap in fmaps for density in (1, 2, 4, 16)]
    failing = sample_loops(fmaps[1].loops(), 1)
    loop_lists += [sample_loops(fmaps[2].loops(), 1) + failing, failing + sample_loops(fmaps[3].loops(), 2)]
    outcomes = []
    for loops in loop_lists:
        want = _outcome(_reference_certify, loops)
        for pass_samples in (PASS_SAMPLES, 1000, 1):
            saved = boundary.PASS_SAMPLES
            boundary.PASS_SAMPLES = pass_samples
            try:
                assert _outcome(_certify, loops) == want
            finally:
                boundary.PASS_SAMPLES = saved
        outcomes.append(want)
    assert outcomes[-2] == outcomes[-1] == (NearFixedPoint, "displacement certificate fails between samples")
    assert sum(isinstance(o[0], list) and len(o[0]) == 2 for o in outcomes) == 8


def test_refine_tries_every_density_then_reraises():
    seen = []

    def never_certified(density):
        seen.append(density)
        raise NearFixedPoint("certificate fails")

    with pytest.raises(NearFixedPoint):
        _refine(never_certified)
    assert seen == [1, 2, 4, 8, 16]


def test_refine_stops_at_first_certified_density():
    seen = []

    def certified_from_four(density):
        seen.append(density)
        if density < 4:
            raise NearFixedPoint("certificate fails")
        return density

    assert _refine(certified_from_four) == 4
    assert seen == [1, 2, 4]


def test_refine_frees_failed_loops_before_next_density():
    built = []

    def index_at(density):
        assert all(ref() is None for ref in built)
        loop = SampledLoopMap(np.zeros(4, dtype=complex), np.ones(4, dtype=complex))
        built.append(weakref.ref(loop))
        if density < 8:
            raise NearFixedPoint("certificate fails")
        return density

    assert _refine(index_at) == 8


# --- the index report kept on the map ----------------------------------------------


def _ring_map():
    items = [(k, Disk(2 * np.exp(2j * math.pi * k / 6), 1.2)) for k in range(6)]
    c = DiskConfiguration(items)
    return build_faithful_map(c, c.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d)))


def _sampled_points(monkeypatch):
    """A list to which each evaluation of a faithful map's points, where
    every sampling happens, appends its (vertex codes, angles)."""
    from diskrig import boundary

    sampled = []
    points = boundary._NodeTable.points
    monkeypatch.setattr(boundary._NodeTable, "points", lambda self, codes, thetas: sampled.append((codes, thetas)) or points(self, codes, thetas))
    return sampled


def _samples(sampled):
    """The number of samples the evaluations of points took, which it clears."""
    n = sum(len(thetas) for _codes, thetas in sampled)
    sampled.clear()
    return n


def test_fixed_point_index_samples_each_map_once(monkeypatch):
    # a map the crossing count decides is indexed, and its identities checked,
    # without sampling; reading min_displacement makes one bounded
    # evaluation, at the density and with the value of the loop-by-loop
    # certificate, under the tolerance of its report, and takes at most the
    # samples of full sampling and of one coarse pass at that density; a
    # changed tolerance makes a new report and a new crossing table
    from diskrig import boundary, experiments, geom

    want = _refine(lambda density: _reference_certify(sample_loops(_ring_map().loops(), density)))
    most = sum(len(loop.src) for density in (1, 1 / COARSE) for loop in sample_loops(_ring_map().loops(), density))
    sampled = _sampled_points(monkeypatch)
    calls = []  # (density, EPS_GEOM) of each bounded evaluation
    bounded = boundary._bounded_min_displacement
    monkeypatch.setattr(boundary, "_bounded_min_displacement", lambda *args: calls.append((args[1], geom.EPS_GEOM)) or bounded(*args))
    fmap, other = _ring_map(), _ring_map()
    rep, rep_other = fixed_point_index(fmap), fixed_point_index(other)
    assert rep.method == "exact" and calls == []
    assert fixed_point_index(fmap) is rep
    lhs_a, rhs_a = experiments.obs_a_identity(fmap)
    lhs_b, rhs_b = experiments.main_b_identity(fmap, {0, 1, 2})
    assert lhs_a == rhs_a == lhs_b == rhs_b == rep.eta
    assert calls == [] and sampled == []
    min_disp = rep.min_displacement
    assert calls == [(1, 1e-9)] and 0 < _samples(sampled) <= most
    assert rep.min_displacement == min_disp and len(calls) == 1 and sampled == []
    assert (rep.per_curve, min_disp) == want
    assert fixed_point_index(fmap) is rep
    table = fmap._table.crossings()
    monkeypatch.setattr(geom, "EPS_GEOM", 2e-9)
    again = fixed_point_index(fmap)
    assert again is not rep and (again.eta, again.per_curve, again.method) == (rep.eta, rep.per_curve, "exact")
    assert fmap._table.crossings() is not table
    assert fixed_point_index(fmap) is again
    assert again.min_displacement == min_disp and calls[1:] == [(1, 2e-9)] and 0 < _samples(sampled) <= most
    # a report read after the tolerance changed samples under its own
    assert rep_other.min_displacement == min_disp and calls[2:] == [(1, 1e-9)] and 0 < _samples(sampled) <= most
    assert geom.EPS_GEOM == 2e-9


def test_index_report_method_exact():
    # every curve decided by the crossing count
    fmap = _ring_map()
    report = fixed_point_index(fmap)
    assert report.method == "exact"
    assert report.per_curve == _exact_windings(fmap.loops()) and report.eta == sum(report.per_curve)


def test_index_report_method_sampled():
    # a vertex map that folds leaves the count undecided, and the sampled
    # certificate gives the whole report; min_displacement is found when it
    # is read, as for an exact report, with full sampling's value
    folded = _folded_map()
    report = fixed_point_index(folded)
    assert report.method == "sampled"
    per_curve, min_disp = _refine(lambda density: _certify(sample_loops(folded.loops(), density)))
    assert (report.eta, report.per_curve) == (sum(per_curve), per_curve)
    assert report.min_displacement == _full_min_displacement(folded.loops()) == min_disp


def test_main_theorem_trials_refine_nothing_the_count_decides(monkeypatch):
    # every map of these trials, canonical and variant, and every identity
    # loop is decided by the crossing count, so no density is ever refined
    from diskrig import boundary
    from diskrig.experiments import run_main_theorem_trial

    refined = []
    refine = boundary._refine
    monkeypatch.setattr(boundary, "_refine", lambda index_at: refined.append(index_at) or refine(index_at))
    records = [run_main_theorem_trial(np.random.default_rng(seed)) for seed in range(6)]
    assert refined == []
    assert all(r["theorem_ok"] and r["obs_a_ok"] and r["main_b_ok"] for r in records)
    # the same loops, certified by sampling, do refine
    c, ct = records[0]["pair"]
    fmap = build_faithful_map(c, ct)
    assert fixed_point_index(fmap).min_displacement > 0
    assert len(refined) == 1


# --- the exact index of a faithful map's loops, against sampling ----------------------


def _exact_index(arcs, table) -> int | None:
    """The torus formula of one closed arc list as the scalar code computed
    it, pair by pair of circles: the oracle of the crossing-table engine.

    The image of arc k lies on the target circle of its vertex v, from
    phi_v(a0) over phi_v(a0 + da) - phi_v(a0) mod 2 pi (2 pi for a full
    circle).  A position on either curve is (arc, offset), ordered by arc and
    then offset, and the map is the monotone graph offset -> phi_v(a0 +
    offset) - phi_v(a0) within each arc.  With u the start of arc 0 and u~ its
    image, eta = w(gamma, u~) + w(gamma~, u) - the sum of iota(z) over the
    crossings z of the two curves whose image position lies below the graph
    at their source position.  None where the count cannot decide; a
    near-tangent crossing raises NotTransverse out of circle_intersections."""
    tol = _min_disp()
    disks, disks_t = _disks_of(table)
    codes = [table.code[arc[0]] for arc in arcs]
    if not all(table.degree_one[c] for c in codes):
        return None
    n = len(arcs)
    a0 = [arc[1] for arc in arcs]
    ends = table.angles(np.array(codes * 2), np.array(a0 + [arc[1] + arc[2] for arc in arcs])).tolist()
    src = [_arc(disks[c], arc[1], arc[2]) for c, arc in zip(codes, arcs)]
    dst = [
        _arc(disks_t[c], b0, 2 * math.pi if arc[2] == 2 * math.pi else (b1 - b0) % (2 * math.pi))
        for c, arc, b0, b1 in zip(codes, arcs, ends[:n], ends[n:])
    ]
    if any(disk.radius * span <= tol for disk, _a, span, *_ends in src + dst):
        return None
    u, ut = src[0][3], dst[0][3]
    if _curve_distance(dst, u) <= tol or _curve_distance(src, ut) <= tol:
        return None
    eta = _arcs_winding(src, ut) + _arcs_winding(dst, u)
    on_circle = {}
    for k, c in enumerate(codes):
        on_circle.setdefault(c, []).append(k)
    same_arc = []  # (arc, source offset, image offset, iota) of crossings on one arc of both curves
    for v, src_arcs in on_circle.items():
        for w, dst_arcs in on_circle.items():
            disk, disk_t = disks[v], disks_t[w]
            if geom.circles_tangent(disk, disk_t):
                return None
            if geom.disk_relation(disk, disk_t) is not DiskRelation.OVERLAPPING:
                continue
            # circle_intersections' u is where the source circle enters the
            # image disk: iota = +1; at its v, iota = -1
            for z, iota in zip(geom.circle_intersections(disk, disk_t), (1, -1)):
                at_src, at_dst = _arc_offsets_of(src, src_arcs, z, tol), _arc_offsets_of(dst, dst_arcs, z, tol)
                if at_src is None or at_dst is None:
                    return None
                for k, t in at_src:
                    for m, s in at_dst:
                        if m < k:
                            eta -= iota
                        elif m == k:
                            same_arc.append((k, t, s, iota))
    if same_arc:
        ks, ts, ss, iotas = zip(*same_arc)
        graph = table.angles(np.array([codes[k] for k in ks]), np.array([a0[k] + t for k, t in zip(ks, ts)])).tolist()
        for k, s, g, iota in zip(ks, ss, graph, iotas):
            g = (g - ends[k]) % (2 * math.pi)
            if dst[k][0].radius * abs(s - g) <= tol:
                return None
            if s < g:
                eta -= iota
    return eta


@functools.lru_cache(maxsize=16)
def _disks_of(table):
    """The source and the image disks of a node table, by vertex code."""
    return tuple([Disk(complex(c), float(r)) for c, r in zip(*circles)] for circles in (table.circles, table.circles_t))


def _arc(disk, a0, span):
    """(disk, start angle, span, start point, end point) of a CCW arc."""
    c, r, a1 = disk.center, disk.radius, a0 + span
    return disk, a0, span, c + r * complex(math.cos(a0), math.sin(a0)), c + r * complex(math.cos(a1), math.sin(a1))


def _phase(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _arc_offsets_of(arcs, ks, z, tol):
    """(k, offset of z from the start of arc k) for each arc k among ks that
    holds the point z of their circle, or None when z lies within tol of an
    end of any of them."""
    out = []
    for k in ks:
        disk, a0, span, *_ends = arcs[k]
        t = (_phase(z - disk.center) - a0) % (2 * math.pi)
        to_end = abs(t - span)
        if disk.radius * min(t, 2 * math.pi - t, to_end, 2 * math.pi - to_end) <= tol:
            return None
        if t < span:
            out.append((k, t))
    return out


def _curve_distance(arcs, p) -> float:
    """Distance from p to a curve of _arc arcs."""
    best = math.inf
    for disk, a0, span, start, end in arcs:
        if (_phase(p - disk.center) - a0) % (2 * math.pi) <= span:
            best = min(best, abs(abs(p - disk.center) - disk.radius))
        best = min(best, abs(p - start), abs(p - end))
    return best


def _arcs_winding(arcs, p) -> int:
    """Winding number of a closed curve of CCW _arc arcs about a point off
    it: each arc turns the direction from p by the angle between its ends,
    taken in [0, 2 pi) when p lies inside its circle (where that direction
    turns monotonically) and in (-pi, pi] outside it."""
    total = 0.0
    for disk, _a0, span, start, end in arcs:
        inside = abs(p - disk.center) < disk.radius
        if span == 2 * math.pi:
            total += 2 * math.pi if inside else 0.0
            continue
        turn = _phase((end - p) / (start - p))
        total += turn + 2 * math.pi if inside and turn < 0 else turn
    return round(total / (2 * math.pi))



def _sampled_windings(loops):
    """The windings of the loops, sampled and certified at the first density
    whose certificate holds: the oracle of the exact path."""
    return _refine(lambda density: _certify(sample_loops(loops, density))[0])


def _loop_sets(fmap, rng):
    """(name, make) for the loops of the whole map, of both parts of two
    random bipartitions, of every disk and of every eye: make() builds
    them."""
    labels = list(fmap.config.labels)
    sets = [("loops", fmap.loops)]
    for _ in range(2 if len(labels) > 1 else 0):
        part = {labels[k] for k in rng.choice(len(labels), size=int(rng.integers(1, len(labels))), replace=False)}
        for sub in (part, set(labels) - part):
            sets.append((f"subset {sorted(sub, key=str)}", lambda sub=sub: fmap.subset_loops(sub)))
    sets += [(f"disk {v}", lambda v=v: [fmap.disk_loop(v)]) for v in labels]
    sets += [
        (f"eye {c.pair}", lambda c=c: [fmap.eye_loop(*c.pair)])
        for c in fmap.config.contacts().values()
        if c.relation is DiskRelation.OVERLAPPING
    ]
    return sets


def test_exact_index_matches_sampling(rng):
    # differential oracle: on the canonical maps of experiment pairs, the ring
    # of twelve and the pinned negative-index pair, and on random-pin variants
    # of each, the crossing count decides every loop of every kind, as the
    # scalar count does, and its winding is the certified sampled one
    from diskrig.experiments import generate_experiment_pair

    pairs = [generate_experiment_pair(np.random.default_rng(seed))[:2] for seed in range(12)]
    ring = ring_of_twelve(rng)
    pairs.append((ring, ring.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d))))
    fmaps = [build_faithful_map(c, ct) for c, ct in pairs]
    fmaps.append(build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS))
    for c, ct in pairs + [(NEGIDX_C, NEGIDX_CT)]:
        for n_pins in (1, 3):
            fmaps.append(build_faithful_map(c, ct, rng=rng, n_random_pins=n_pins))
    compared = undecided = 0
    for k, fmap in enumerate(fmaps):
        for name, make in _loop_sets(fmap, rng):
            try:
                loops = make()
            except CombinatoricsMismatch:  # a part whose union traces differently in C~
                continue
            exact = _exact_windings(loops)
            assert exact == [_exact_index(loop.arcs, loop.table) for loop in loops], (k, name)
            undecided += exact.count(None)
            try:
                want = _sampled_windings(loops)
            except NearFixedPoint:
                continue
            assert exact == want, (k, name)
            assert index_sums([loops]) == [sum(want)]
            compared += 1
    assert undecided == 0
    assert compared >= 400


def _folded_map():
    """A single disk whose nodes go round the target circle twice."""
    c = DiskConfiguration([("k", Disk(0j, 1.0))])
    ct = DiskConfiguration([("k", Disk(0.3 + 0.1j, 1.4))])
    return FaithfulMap(c, ct, boundary_complex(c), {"k": [(0.0, 0.0), (1.0, 3.0), (2.0, 1.0), (4.0, 5.0)]})


def _fixed_circle_map():
    """A pair of disks in which disk b is the same disk in C and C~."""
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1.5 + 0j, 1.0))])
    ct = DiskConfiguration([("a", Disk(0.1 + 0.3j, 1.0)), ("b", Disk(1.5 + 0j, 1.0))])
    return build_faithful_map(c, ct)


def test_exact_index_falls_back_to_sampling():
    # a vertex map that is not monotone of degree one, and a target circle
    # equal to its source circle, leave the count undecided; index_sums then
    # returns the sum of the sampled, certified windings
    folded, fixed = _folded_map(), _fixed_circle_map()
    cases = [
        folded.loops(),
        [folded.disk_loop("k")],
        fixed.loops(),
        [fixed.disk_loop("b")],
        [fixed.eye_loop("a", "b")],
    ]
    for loops in cases:
        assert _exact_windings(loops) == [None] * len(loops)
        assert all(_exact_index(loop.arcs, loop.table) is None for loop in loops)
        assert index_sums([loops]) == [sum(_sampled_windings(loops))]
    # the disk of b alone has no target circle equal to its own: decided
    loop = fixed.disk_loop("a")
    assert _exact_windings([loop]) == [_exact_index(loop.arcs, loop.table)] == [_certify(sample_loops([loop], 1))[0][0]]
    # undecided loops among decided ones of one run leave the others decided
    loops = [fixed.disk_loop("a"), fixed.disk_loop("b"), fixed.eye_loop("a", "b"), fixed.disk_loop("a")]
    w_a = _certify(sample_loops(loops[:1], 1))[0][0]
    assert _exact_windings(loops) == [w_a, None, None, w_a]


def _ring(n, rng):
    """A closed ring of n overlapping disks, labelled 0..n-1, drawn as
    ring_of_twelve draws twelve, on a circle that keeps their gaps."""
    R = 2.0 * n / 12
    gap = 2 * R * math.sin(math.pi / n)
    return DiskConfiguration(
        [(k, Disk(R * np.exp(1j * (2 * math.pi * k / n + rng.normal(0, 0.02 * 12 / n))), gap / 2 * rng.uniform(1.1, 1.25))) for k in range(n)]
    )


@pytest.mark.parametrize("pass_samples", [PASS_SAMPLES, 100, 1])
def test_exact_windings_on_a_ring_of_seventy(monkeypatch, pass_samples):
    # a map of 70 disks, whose 4,900 circle pairs the crossing table
    # classifies in more than one pass, and whose two curves have 70 arcs
    # each: in passes of any size, the count decides every loop of every
    # kind as the scalar count does, and the curves as sampling does
    from diskrig import boundary

    rng = np.random.default_rng(70)
    ring = _ring(70, rng)
    fmap = build_faithful_map(ring, ring.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d)), rng=rng, n_random_pins=2)
    monkeypatch.setattr(boundary, "PASS_SAMPLES", pass_samples)
    monkeypatch.setattr(geom, "PAIR_PASS", pass_samples)
    curves = fmap.loops()
    assert [len(loop.arcs) for loop in curves] == [70, 70]
    loops = curves + [fmap.disk_loop(v) for v in ring.labels] + [fmap.eye_loop(v, (v + 1) % 70) for v in ring.labels]
    exact = _exact_windings(loops)
    assert None not in exact
    assert exact == [_exact_index(loop.arcs, loop.table) for loop in loops]
    assert exact[:2] == _sampled_windings(curves)


def _near_degenerate_maps(rng):
    """(kind, fmap) of single-disk maps from the unit circle, each built at a
    refusal of the crossing count, within a fraction of its tolerance, and
    beyond it: an image circle at tangency; a node of the vertex map at a
    crossing, on the source or the image circle; a vertex map whose graph
    passes at the crossing of the circles; an image circle nested within
    its tolerance of the base point; and an arc shorter than it.  Then
    three-disk maps with a crossing within it of the start of an arc that
    it lies off."""
    tol = _min_disp()
    c = DiskConfiguration([("k", Disk(0j, 1.0))])
    cx = boundary_complex(c)

    def fmap(disk_t, nodes):
        return FaithfulMap(c, DiskConfiguration([("k", disk_t)]), cx, {"k": sorted((a % (2 * math.pi), b % (2 * math.pi)) for a, b in nodes)})

    for _ in range(6):
        phi, r_t = float(rng.uniform(1, 5)), float(rng.uniform(0.3, 0.8))
        for gap in (0.0, 0.5e-9, 3e-9, 1e-6):
            for dist in (1 + r_t + gap, 1 - r_t + gap):
                yield "tangent", fmap(Disk(dist * np.exp(1j * phi), r_t), [])
        disk_t = Disk(complex(*rng.uniform(-0.6, 0.6, 2)), float(rng.uniform(0.7, 1.3)))
        z = circle_intersections(Disk(0j, 1.0), disk_t)[int(rng.integers(2))]
        theta, theta_t = math.atan2(z.imag, z.real), disk_t.angle_of(z)
        for off in (0.0, 0.5 * tol, 3 * tol, 1e-3):
            turn = float(rng.uniform(1, 5))
            yield "node at crossing", fmap(disk_t, [(theta + off, 0.3), (theta + off + turn, 0.3 + turn)])
            yield "node at crossing", fmap(disk_t, [(0.3, theta_t + off), (0.3 + turn, theta_t + off + turn)])
            a, b = float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
            shift = off / disk_t.radius
            yield "graph", fmap(disk_t, [(theta - a, theta_t - b), (theta + a, theta_t + b + 2 * shift)])
        for gap in (0.5 * tol, 3 * tol, 1e-3):
            yield "base point", fmap(Disk(1 - r_t - gap, r_t), [])
            far = Disk(complex(5, rng.uniform(-1, 1)), r_t)
            start = float(rng.uniform(0, 2))
            yield "short arc", fmap(far, [(start, 1.0), (start + gap, 2.0)])
            yield "short arc", fmap(far, [(start, 1.0), (start + 2.0, 1.0 + gap)])
    # a circle with two arcs on the outer curve, and the other map's circle
    # of the disk whose corner starts one of them through a point off both,
    # just before that start: on the source circle, and with the two maps
    # swapped, on the image circle.  That circle is moved towards the corner
    # and shrunk to the point, so it nests in its own source circle, and its
    # crossings with it lie far from the corner
    disks = {"k": Disk(0j, 1.0), "a": Disk(1 + 0j, 0.3), "b": Disk(-1 + 0j, 0.3)}
    c3 = DiskConfiguration(list(disks.items()))
    arcs = [arc for arc in boundary_complex(c3).curves[0].arcs() if arc[0] == "k"]
    assert len(arcs) == 2
    for _vertex, start, *_ in arcs * 2:
        for off in (0.5 * tol, 3 * tol, 1e-3):
            corner, p = np.exp(1j * start), np.exp(1j * (start - off))
            u = min("ab", key=lambda u: abs(abs(corner - disks[u].center) - disks[u].radius))
            moved = {v: Disk(d.center + complex(*rng.uniform(-0.01, 0.01, 2)), d.radius * float(rng.uniform(1, 1.01))) for v, d in disks.items()}
            center = disks[u].center + 1e-3 * (corner - disks[u].center) / abs(corner - disks[u].center)
            moved[u] = Disk(center, abs(p - center))
            ct3 = DiskConfiguration(list(moved.items()))
            yield "crossing off a source arc", build_faithful_map(c3, ct3)
            yield "crossing off an image arc", build_faithful_map(ct3, c3)


def test_exact_windings_refuse_where_the_scalar_count_does(rng):
    # differential oracle at each refusal of the count: the crossing table's
    # count refuses exactly where the scalar count does, and decides the same
    # winding where neither refuses; each kind of map is both refused and
    # decided
    seen = collections.Counter()
    for kind, fmap in _near_degenerate_maps(rng):
        loops = [fmap.disk_loop("k"), *fmap.loops()]
        exact = _exact_windings(loops)
        assert exact == [_exact_index(loop.arcs, loop.table) for loop in loops], kind
        seen[kind, None in exact] += 1
    assert all(seen[kind, refused] > 0 for kind, _ in seen for refused in (True, False)), seen


def test_base_point_gap_rounds_as_the_scalar_count_does():
    # single-disk maps from the unit circle, its base point at angle 0,
    # pinned by the one node to a random image angle, whose image circle
    # passes 10 EPS_GEOM +- 3 ulps from that base point: the count measures
    # the gap as Python's abs does, so it refuses exactly where the scalar
    # count does
    rng = np.random.default_rng(5)
    tol = _min_disp()
    c = DiskConfiguration([("k", Disk(0j, 1.0))])
    cx = boundary_complex(c)
    seen = collections.Counter()
    for _ in range(1000):
        center = complex(*rng.uniform(-3, 3, 2))
        r_t = abs(1 - center) + rng.choice([-1.0, 1.0]) * tol
        r_t += int(rng.integers(-3, 4)) * float(np.spacing(r_t))
        fmap = FaithfulMap(c, DiskConfiguration([("k", Disk(center, r_t))]), cx, {"k": [(0.0, float(rng.uniform(0, 2 * math.pi)))]})
        loop = fmap.disk_loop("k")
        exact = _exact_windings([loop])
        assert exact == [_exact_index(loop.arcs, loop.table)]
        seen[exact == [None]] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_near_tangent_crossing_is_undecided():
    # a source circle that disk_relation reads as overlapping its image
    # circle, at a crossing that circle_intersections calls near-tangent (a
    # radius of 2**20 against 1, their circles 4e-9 from internal tangency):
    # the scalar count raised NotTransverse there, the crossing table refuses,
    # and index_sums samples, which finds the near fixed point; pinned away
    # from angle 0, the disk's arc holds no crossing near its ends
    c = DiskConfiguration([("k", Disk(0j, 2.0**20))])
    ct = DiskConfiguration([("k", Disk(1j * (2.0**20 - 1 + 4e-9), 1.0))])
    fmap = build_faithful_map(c, ct)
    pinned = build_faithful_map(c, ct, pins={"k": [(2.0**20 * np.exp(1j), ct.disks["k"].center + np.exp(2j))]})
    loop = fmap.disk_loop("k")
    with pytest.raises(NotTransverse):
        _exact_index(loop.arcs, loop.table)
    assert _exact_windings([loop]) == _exact_windings([pinned.disk_loop("k")]) == [None]
    with pytest.raises(NearFixedPoint):
        index_sums([[loop]])


CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus")


def _corpus_loop_sets():
    """(name, map, loops) of the benchmark corpora's loops: for each
    index_theorem pair, the loops of the canonical and the variant map of the
    workload, and the canonical map's subset loops of its bipartitions, disk
    loops and eye loops; for each cli_pairs pair, its map's loops.  map is
    the faithful map whose loops these are, or None for its other loops."""
    for name in ("index_theorem", "cli_pairs"):
        with open(os.path.join(CORPUS, name, "manifest.json")) as fh:
            items = json.load(fh)["items"]
        for item in items:
            c, ct = (read_document(os.path.join(CORPUS, name, f)).to_configuration() for f in item["files"])
            fmap = build_faithful_map(c, ct)
            yield f"{name} {item['id']}", fmap, fmap.loops()
            if name == "cli_pairs":
                continue
            variant = build_faithful_map(c, ct, rng=np.random.default_rng(item["variant_seed"]), n_random_pins=2)
            yield f"{name} {item['id']} variant", variant, variant.loops()
            for part in item["bipartitions"]:
                for sub in (set(part), set(c.labels) - set(part)):
                    yield f"{name} {item['id']} subset {sorted(sub)}", None, fmap.subset_loops(sub)
            for v in c.labels:
                yield f"{name} {item['id']} disk {v}", None, [fmap.disk_loop(v)]
            for e in c.contacts().values():
                if e.relation is DiskRelation.OVERLAPPING:
                    yield f"{name} {item['id']} eye {e.pair}", None, [fmap.eye_loop(*e.pair)]


def test_exact_windings_match_sampling_on_the_corpora():
    # differential oracle over the committed corpora: the crossing table's
    # count refuses exactly where the scalar count does, and each winding it
    # decides, the sum and fixed_point_index's report equal the certified
    # sampled ones
    sets = maps = 0
    for name, fmap, loops in _corpus_loop_sets():
        exact = _exact_windings(loops)
        assert exact == [_exact_index(loop.arcs, loop.table) for loop in loops], name
        assert None not in exact, name
        assert exact == _sampled_windings(loops), name
        if fmap is not None:
            report = fixed_point_index(fmap)
            assert (report.method, report.eta, report.per_curve) == ("exact", sum(exact), exact), name
            maps += 1
        sets += 1
    assert maps == 60 * 2 + 40
    assert sets > 1000


def test_identities_sample_nothing_once_the_map_is_indexed(monkeypatch):
    # the additivity identities read every disk, eye and sub-union loop from
    # the crossing count; only fixed_point_index samples
    from diskrig import experiments

    ring = ring_of_twelve(np.random.default_rng(3))
    fmap = build_faithful_map(ring, ring.transformed(lambda d: apply_disk(dilation_about(0.1 + 0.05j, 0.93), d)))
    eta = fixed_point_index(fmap).eta
    calls = _sampled_points(monkeypatch)
    assert experiments.obs_a_identity(fmap) == (eta, eta)
    assert experiments.main_b_identity(fmap, set(range(6))) == (eta, eta)
    assert calls == []
    # sample_loops still samples them
    assert len(sample_loops([fmap.disk_loop(0)], 1)[0].src) > 0
    assert len(calls) == 1


def test_index_sums_samples_only_the_undecided_loops(monkeypatch):
    # one crossing count takes every list; the disk of b and the eye, which
    # it leaves undecided, are sampled together, though they are in different
    # lists, at each density the certificate tries, and nothing else is: here
    # at density 1 only, in one pass
    fixed = _fixed_circle_map()
    disk_a, disk_b, eye = fixed.disk_loop("a"), fixed.disk_loop("b"), fixed.eye_loop("a", "b")
    calls = _sampled_points(monkeypatch)
    (w_a,) = _exact_windings([disk_a])
    w_b, w_eye = _sampled_windings([disk_b, eye])
    want = [(codes.tobytes(), thetas.tobytes()) for codes, thetas in calls]
    assert want == [_reference_grid([disk_b, eye], 1)]
    calls.clear()
    assert index_sums([[disk_a, disk_b], [eye], [disk_a]]) == [w_a + w_b, w_eye, w_a]
    assert [(codes.tobytes(), thetas.tobytes()) for codes, thetas in calls] == want


def _half_fixed_map():
    """Two disjoint disks: disk a moves, and disk b is the same disk in C and
    C~, turned a quarter turn by a pin, so the crossing count decides the
    curve of a and leaves that of b undecided."""
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(5 + 0j, 1.0))])
    ct = DiskConfiguration([("a", Disk(0.1 + 0.3j, 1.0)), ("b", Disk(5 + 0j, 1.0))])
    return build_faithful_map(c, ct, pins={"b": [(6 + 0j, 5 + 1j)]})


def test_fixed_point_index_samples_only_the_undecided_curves(monkeypatch):
    # fixed_point_index takes the windings the count decides from the count,
    # and samples only the curves it leaves undecided, here at density 1 in
    # one pass; min_displacement is full sampling's over every curve
    fmap = _half_fixed_map()
    loops = fmap.loops()
    exact = _exact_windings(loops)
    assert exact == [0, None]
    calls = _sampled_points(monkeypatch)
    report = fixed_point_index(fmap)
    assert [(codes.tobytes(), thetas.tobytes()) for codes, thetas in calls] == [_reference_grid(loops[1:], 1)]
    assert report.method == "sampled"
    assert report.per_curve == [exact[0], *_sampled_windings(loops[1:])] == [0, 1]
    assert report.eta == 1
    assert report.min_displacement == _full_min_displacement(loops) > 0


def test_index_theorem_corpus_samples_nothing(monkeypatch):
    # on every index_theorem pair, the workload's fixed_point_index of the
    # canonical and the variant map and its identities call sample_loops
    # not once; reading min_displacement makes one bounded evaluation, under
    # the report's EPS_GEOM, whose value is the sampled certificate's
    from diskrig import boundary, experiments, geom

    calls = []
    sample = boundary.sample_loops
    monkeypatch.setattr(boundary, "sample_loops", lambda *args: calls.append(args) or sample(*args))
    with open(os.path.join(CORPUS, "index_theorem", "manifest.json")) as fh:
        items = json.load(fh)["items"]
    for item in items:
        c, ct = (read_document(os.path.join(CORPUS, "index_theorem", f)).to_configuration() for f in item["files"])
        fmap = build_faithful_map(c, ct)
        fixed_point_index(fmap)
        fixed_point_index(build_faithful_map(c, ct, rng=np.random.default_rng(item["variant_seed"]), n_random_pins=2))
        experiments.obs_a_identity(fmap)
        for part in item["bipartitions"]:
            experiments.main_b_identity(fmap, set(part))
    assert len(items) == 60 and calls == []
    evaluations = []
    bounded = boundary._bounded_min_displacement
    monkeypatch.setattr(boundary, "_bounded_min_displacement", lambda *args: evaluations.append((args[1], geom.EPS_GEOM)) or bounded(*args))
    min_disp = fixed_point_index(fmap).min_displacement
    assert min_disp > 0 and evaluations == [(1, 1e-9)] and calls == []
    assert min_disp == _certify(sample(fmap.loops(), 1))[1]


def _full_min_displacement(loops):
    """The smallest displacement of the loops' samples at the first density
    whose certificate holds, or None: the oracle of the bounded one."""
    try:
        return _refine(lambda density: _certify(sample_loops(loops, density))[1])
    except NearFixedPoint:
        return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e7]),
    shift=st.sampled_from([0j, 10 - 20j]),
    n_pins=st.integers(0, 6),
    eps=st.sampled_from([None, 1e-7]),
    density=st.sampled_from([1, 2, 8]),
)
def test_arc_bounds_are_sound_and_the_bounded_minimum_is_the_sampled_one(seed, scale, shift, n_pins, eps, density):
    # on a random ring map, scaled and moved off the origin, with random pins
    # and under an EPS_GEOM override as --eps-geom sets it: each arc's coarse
    # bound is at most the smallest displacement of the arc's full grid, and
    # the bounded min_displacement is full sampling's, bit for bit, or None
    # on both sides
    rng = np.random.default_rng(seed)
    ring = ring_of_twelve(rng)
    center, k = complex(*rng.normal(0, 0.1, 2)), float(rng.uniform(0.85, 1.15))
    jitter = rng.normal(0, 0.01, (len(ring.labels), 3))
    image = DiskConfiguration([
        (v, Disk(center + k * (d.center - center) + complex(*jitter[n, :2]), d.radius * k * (1 + jitter[n, 2])))
        for n, (v, d) in enumerate(ring.items())
    ])
    c, ct = (x.transformed(lambda d: Disk((d.center + shift) * scale, d.radius * scale)) for x in (ring, image))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "EPS_GEOM", eps or geom.EPS_GEOM)
        try:
            fmap = build_faithful_map(c, ct, rng=rng, n_random_pins=n_pins)
        except (CoincidentCorner, CombinatoricsMismatch):
            return
        loops = fmap.loops()
        arcs = _LoopArcs(loops)
        bound = _arc_bounds(arcs, density)[0]
        grids = sample_loops([ArcLoopMap([arc], loops[0].table) for loop in loops for arc in loop.arcs], density)
        assert (bound <= [np.abs(grid.dst - grid.src).min() for grid in grids]).all()
        got, want = _sampled_min_displacement(loops, geom.EPS_GEOM), _full_min_displacement(loops)
        assert got == want


def test_bounded_min_displacement_samples_a_quarter_on_the_cli_pairs(monkeypatch):
    # on every cli_pairs map, reading min_displacement evaluates at most a
    # quarter of the samples that full sampling does, in all, and on no map
    # more than full sampling and one coarse pass at each density it tries,
    # with full sampling's value
    from diskrig import boundary

    counted = [0]
    points = boundary._NodeTable.points
    monkeypatch.setattr(boundary._NodeTable, "points", lambda self, codes, thetas: counted.__setitem__(0, counted[0] + len(thetas)) or points(self, codes, thetas))

    def samples(fn, *args):
        counted[0] = 0
        value = fn(*args)
        return value, counted[0]

    with open(os.path.join(CORPUS, "cli_pairs", "manifest.json")) as fh:
        items = json.load(fh)["items"]
    bounded_total = full_total = 0
    for item in items:
        c, ct = (read_document(os.path.join(CORPUS, "cli_pairs", f)).to_configuration() for f in item["files"])
        loops = build_faithful_map(c, ct).loops()
        tried = []
        full, n_full = samples(lambda: _refine(lambda density: tried.append(density) or _certify(sample_loops(loops, density))[1]))
        got, n_bounded = samples(_sampled_min_displacement, loops, geom.EPS_GEOM)
        assert got == full, item["id"]
        coarse = sum(len(loop.src) for density in tried for loop in sample_loops(loops, density / COARSE))
        assert n_bounded <= n_full + coarse, item["id"]
        bounded_total, full_total = bounded_total + n_bounded, full_total + n_full
    assert len(items) == 40 and bounded_total <= 0.25 * full_total


def test_random_pins_keep_every_variant_monotone():
    # two pins drawn into one span pair their fractions in sorted order, so no
    # variant folds a disk's map back on itself
    ring = ring_of_twelve(np.random.default_rng(0))
    pairs = [(NEGIDX_C, NEGIDX_CT), (ring, ring.transformed(lambda d: Disk(d.center * 1.05 + 0.01j, d.radius * 1.05)))]
    for seed in range(60):
        for n_pins in (1, 2, 3, 4):
            for c, ct in pairs:
                fmap = build_faithful_map(c, ct, rng=np.random.default_rng(seed), n_random_pins=n_pins)
                for v, nodes in fmap.nodes.items():
                    targets = [t for _t, t in nodes]
                    rotated = [(t - targets[0]) % (2 * math.pi) for t in targets]
                    assert all(a < b for a, b in zip(rotated, rotated[1:])), (seed, n_pins, v)
                    assert len(nodes) >= n_pins
