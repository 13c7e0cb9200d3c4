import collections
import json
import os

import numpy as np
import pytest

from diskrig import geom, subsumption
from diskrig.config import DiskConfiguration, contact_graph, eye_of_pair, neighbours
from diskrig.docio import read_document
from diskrig.errors import DiskrigError, NotTransverse
from diskrig.geom import (
    Disk,
    DiskRelation,
    Lens,
    boundary_crossings,
    circle_intersections,
    disk_relation,
    eye_nesting,
    overlaps,
)
from diskrig.subsumption import build_H, index_lower_bound, subsumptive_subsets

from conftest import random_overlapping_pair

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus")

SHIFT_GRAPH_SOLID = {
    "p1": Disk(4.5 - 0.33j, 1.1),
    "p2": Disk(5.65 + 0.12j, 0.85),
    "p3": Disk(6.25 + 1.12j, 0.85),
    "p4": Disk(6.95 + 1.52j, 0.65),
    "p5": Disk(6.4 - 0.73j, 0.8),
    "q1": Disk(3.2 + 0.27j, 1.1),
    "q2": Disk(1.45 + 0.12j, 1.45),
}
SHIFT_GRAPH_NESTED = {
    "p1": Disk(4.63 - 0.24j, 0.87),
    "p2": Disk(5.72 + 0.23j, 0.68),
    "p3": Disk(6.34 + 1.17j, 0.7),
    "p4": Disk(6.83 + 1.44j, 0.45),
    "p5": Disk(6.25 - 0.58j, 0.53),
    "q1": Disk(3.34 - 0.79j, 1.1),
    "q2": Disk(1.64 - 0.77j, 1.4),
}


def _seven_disk_pair():
    return (
        DiskConfiguration(sorted(SHIFT_GRAPH_SOLID.items())),
        DiskConfiguration(sorted(SHIFT_GRAPH_NESTED.items())),
    )


def _chain(n=4, spacing=1.3, r=1.0):
    return DiskConfiguration([(k, Disk(k * spacing + 0j, r)) for k in range(n)])


def test_all_of_v_subsumptive():
    # a strongly overlapping chain, every disk shrunk about its own center by
    # a factor keeping all contacts: one maximal subset covering V
    c = _chain(4, spacing=1.3)
    ct = c.transformed(lambda d: Disk(d.center, d.radius * 0.97))
    inc, inc_t = contact_graph(c), contact_graph(ct)
    assert inc.same_combinatorics(inc_t)
    rep = subsumptive_subsets(c, ct)
    assert len(rep.subsets) == 1
    assert rep.subsets[0].vertices == frozenset(range(4))
    assert rep.subsets[0].direction == "down"


def test_no_containments_zero_bound():
    c = _chain(4)
    ct = c.transformed(lambda d: Disk(d.center + 8j, d.radius))
    rep = subsumptive_subsets(c, ct)
    assert rep.subsets == []
    assert rep.lower_bound == 0
    assert index_lower_bound(c, ct) == 0


def test_seven_disk_structure():
    c, ct = _seven_disk_pair()
    rep = subsumptive_subsets(c, ct)
    assert len(rep.subsets) == 1
    info = rep.subsets[0]
    assert info.vertices == frozenset({"p1", "p2", "p3", "p4", "p5"})
    assert info.direction == "down"
    assert info.isolated
    assert rep.lower_bound == 1
    # the drawn double arrow at the top pair
    assert ("p3", "p4") in info.h_edges and ("p4", "p3") in info.h_edges
    assert ("p5", "p2") in info.h_edges and ("p2", "p3") in info.h_edges
    assert info.sink == "p1"


def test_seven_disk_h_edges_frozen():
    # hand-drawn coordinates do not share exact incidence data, so only the
    # computed arrow set is asserted (the report path stays tolerant)
    c, ct = _seven_disk_pair()
    rep = subsumptive_subsets(c, ct)
    (info,) = rep.subsets
    assert set(info.hu_edges) == {("p1", "p2"), ("p2", "p3"), ("p2", "p5"), ("p3", "p4")}
    assert set(info.h_edges) == {("p2", "p3"), ("p3", "p4"), ("p4", "p3"), ("p5", "p2")}
    outs = {}
    for i, _j in info.h_edges:
        outs[i] = outs.get(i, 0) + 1
    assert all(v <= 1 for v in outs.values())  # oj2


def test_build_h_strict_on_same_incidence_pair(rng):
    # honest same-incidence instances (Moebius dilation pairs) satisfy the
    # observation checks of the strict op
    from diskrig.experiments import dilation_pair, random_thin_config

    checked = 0
    while checked < 10:
        c, ct = dilation_pair(random_thin_config(rng), rng)
        if not contact_graph(c).same_combinatorics(contact_graph(ct)):
            continue
        if contact_graph(c).max_theta_deviation(contact_graph(ct)) > 1e-9:
            continue
        rep = subsumptive_subsets(c, ct)
        for info in rep.subsets:
            hu, h, ties = build_H(c, ct, info.vertices)
            if not ties:
                for i, j in hu:
                    assert (i, j) in h or (j, i) in h  # oj1
            checked += 1


def test_h_direction_by_shift():
    # two nested pairs, the first tilde shifted toward the second disk
    c = DiskConfiguration([(1, Disk(0j, 1.0)), (2, Disk(1.6 + 0j, 1.0))])
    ct = DiskConfiguration([(1, Disk(0.25 + 0j, 0.7)), (2, Disk(1.6 + 0j, 0.75))])
    rep = subsumptive_subsets(c, ct)
    (info,) = rep.subsets
    assert ("1", "2") not in info.h_edges  # labels are ints here
    assert (1, 2) in info.h_edges
    assert (2, 1) not in info.h_edges
    assert info.sink == 2


def test_h_tie_tolerance_is_read_at_call_time(monkeypatch):
    c = DiskConfiguration([(1, Disk(0j, 1.0)), (2, Disk(1.6 + 0j, 1.0))])
    ct = DiskConfiguration([(1, Disk(0.25 + 0j, 0.7)), (2, Disk(1.6 + 0j, 0.75))])
    _hu, h, ties = build_H(c, ct, {1, 2})
    assert (1, 2) in h and not ties
    monkeypatch.setattr(geom, "EPS_ANGLE", 10.0)
    _hu, h, ties = build_H(c, ct, {1, 2})
    assert (1, 2) in ties and (1, 2) not in h


def test_oj1_forced_by_finlandia(rng):
    # same-angle nested pairs (the finlandia cast): at least one direction per
    # H_u edge; both-concentric shrinks are impossible at equal angles
    from diskrig.lemmas import finlandia_hypothesis, generate_finlandia

    done = 0
    while done < 50:
        inst = generate_finlandia(rng)
        if not finlandia_hypothesis(inst.disks):
            continue
        d = inst.disks
        c = DiskConfiguration([(1, d["A"]), (2, d["B"])])
        ct = DiskConfiguration([(1, d["At"]), (2, d["Bt"])])
        if not contact_graph(c).same_combinatorics(contact_graph(ct)):
            continue
        hu, h, ties = build_H(c, ct, {1, 2})
        assert hu == [(1, 2)]
        if not ties:
            assert h  # oj1
        done += 1


def test_concentric_shrink_is_sink():
    # one disk shrunk about its own center inside a chain: megabus corollary
    c = _chain(3, spacing=1.4)
    items = []
    for k, d in c.items():
        if k == 1:
            items.append((k, Disk(d.center, d.radius * 0.82)))
        else:
            items.append((k, d))
    ct = DiskConfiguration(items)
    if not contact_graph(c).same_combinatorics(contact_graph(ct)):
        pytest.skip("shrink broke contacts")
    rep = subsumptive_subsets(c, ct)
    assert any(s.vertices == frozenset({1}) and s.sink == 1 for s in rep.subsets)
    assert rep.lower_bound >= 1


def test_chain_shifted_rightward_sink():
    # every tilde shifted right inside its disk: the rightmost element is the sink
    c = _chain(4, spacing=1.2)
    ct = c.transformed(lambda d: Disk(d.center + 0.12, d.radius * 0.8))
    assert contact_graph(c).same_combinatorics(contact_graph(ct))
    rep = subsumptive_subsets(c, ct)
    (info,) = rep.subsets
    assert info.vertices == frozenset(range(4))
    assert info.sink == 3
    for k in range(3):
        assert (k, k + 1) in info.h_edges


def test_two_cluster_bound():
    from diskrig.experiments import cluster_pair

    rng = np.random.default_rng(3)
    c, ct = cluster_pair(rng)
    assert index_lower_bound(c, ct) == 2


def test_hu_tree_property(rng):
    from diskrig.experiments import generate_experiment_pair

    with_edges = 0
    for _ in range(25):
        c, ct, _f = generate_experiment_pair(rng)
        rep = subsumptive_subsets(c, ct)
        # H_u restricted to each subset is a forest: no cycle, so at most
        # |V| - 1 edges
        for info in rep.subsets:
            assert not subsumption._has_cycle(info.vertices, info.hu_edges)
            assert len(info.hu_edges) <= max(0, len(info.vertices) - 1)
            with_edges += bool(info.hu_edges)
    assert with_edges > 0


def test_at_most_one_cross_eye_containment(rng):
    # for every maximal subsumptive subset, at most one cross pair
    # (i inside, j outside) has nested eyes
    from diskrig.experiments import generate_experiment_pair

    checked = 0
    for _ in range(60):
        c, ct, _f = generate_experiment_pair(rng)
        rep = subsumptive_subsets(c, ct)
        inc = contact_graph(c)
        for info in rep.subsets:
            crossings = 0
            for i in info.vertices:
                for e in inc.edges:
                    if i not in e:
                        continue
                    (j,) = set(e) - {i}
                    if j in info.vertices:
                        continue
                    if not overlaps(c.disks[i], c.disks[j]):
                        continue
                    if _nested(Lens(c.disks[i], c.disks[j]), Lens(ct.disks[i], ct.disks[j])):
                        crossings += 1
            assert crossings <= 1
            checked += 1
    assert checked > 20


def test_oj3_path_propagation(rng):
    # along any simple H_u path ending in an H edge, all edges point forward
    from diskrig.experiments import generate_experiment_pair

    checked = 0
    for _ in range(40):
        c, ct, _f = generate_experiment_pair(rng)
        rep = subsumptive_subsets(c, ct)
        for info in rep.subsets:
            if info.ties or len(info.vertices) > 6 or len(info.vertices) < 2:
                continue
            adj = {}
            for i, j in info.hu_edges:
                adj.setdefault(i, set()).add(j)
                adj.setdefault(j, set()).add(i)
            h = set(info.h_edges)

            def paths_from(v, seen):
                yield [v]
                for w in adj.get(v, ()):  # noqa: B023
                    if w not in seen:
                        for rest in paths_from(w, seen | {w}):
                            yield [v] + rest

            for start in info.vertices:
                for path in paths_from(start, {start}):
                    if len(path) < 2:
                        continue
                    if (path[-2], path[-1]) in h:
                        for a, b in zip(path, path[1:]):
                            assert (a, b) in h
                            checked += 1
    assert checked > 0


def dj_regions_disjoint(config, config_t, j) -> bool:
    """Grid detector for the excision hypothesis: d_j = D_j minus the others
    and its counterpart do not meet."""
    dj, djt = config.disks[j], config_t.disks[j]
    lo_x = max(dj.center.real - dj.radius, djt.center.real - djt.radius)
    hi_x = min(dj.center.real + dj.radius, djt.center.real + djt.radius)
    lo_y = max(dj.center.imag - dj.radius, djt.center.imag - djt.radius)
    hi_y = min(dj.center.imag + dj.radius, djt.center.imag + djt.radius)
    if lo_x >= hi_x or lo_y >= hi_y:
        return True
    xs = np.linspace(lo_x, hi_x, 200)
    ys = np.linspace(lo_y, hi_y, 200)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    in_dj = np.abs(Z - dj.center) <= dj.radius
    in_djt = np.abs(Z - djt.center) <= djt.radius
    for v in config.labels:
        if v == j:
            continue
        in_dj &= np.abs(Z - config.disks[v].center) > config.disks[v].radius
        in_djt &= np.abs(Z - config_t.disks[v].center) > config_t.disks[v].radius
    return not bool(np.any(in_dj & in_djt))


def test_excision_consequences_when_detected(rng):
    # when d_j = D_j minus the others is disjoint from its counterpart, the
    # vertex may be excised: the lower bound is preserved and the index drops
    # by exactly the (zero) contribution of the excised piece
    from diskrig.boundary import fixed_point_index, index_sums
    from diskrig.experiments import generate_experiment_pair

    detected = 0
    trials = 0
    while detected < 8 and trials < 60:
        trials += 1
        c, ct, fmap = generate_experiment_pair(rng)
        if len(c) < 3:
            continue
        for j in c.labels:
            rel = disk_relation(c.disks[j], ct.disks[j])
            both_contain = rel in (
                DiskRelation.FIRST_CONTAINS_SECOND,
                DiskRelation.SECOND_CONTAINS_FIRST,
            )
            if not dj_regions_disjoint(c, ct, j):
                continue
            rest = [v for v in c.labels if v != j]
            bound_full = index_lower_bound(c, ct)
            bound_rest = index_lower_bound(c.restricted(rest), ct.restricted(rest))
            if both_contain:
                assert bound_full == bound_rest
            else:
                rep = subsumptive_subsets(c, ct)
                assert all(j not in s.vertices for s in rep.subsets)
                assert bound_full == bound_rest
            # eta excision: the full index equals the sub-configuration index
            try:
                eta_full = fixed_point_index(fmap).eta
                (eta_rest,) = index_sums([fmap.subset_loops(rest)])
            except DiskrigError:
                continue
            assert eta_full == eta_rest
            detected += 1
            break
    assert detected >= 3


def test_isolation_detects_eye_containment():
    # the tilde eye of the cross pair (1,2) nests inside the original eye, so
    # the subsumptive subset {0,1} is not isolated and contributes no bound
    c = DiskConfiguration([(0, Disk(0j, 1.0)), (1, Disk(1.4 + 0j, 1.0)), (2, Disk(2.8 + 0j, 1.0))])
    ct = DiskConfiguration([(0, Disk(-0.02 + 0j, 0.8)), (1, Disk(1.45 + 0j, 0.8)), (2, Disk(3.0 + 0j, 1.0))])
    assert contact_graph(c).same_combinatorics(contact_graph(ct))
    assert _nested(eye_of_pair(c, 1, 2), eye_of_pair(ct, 1, 2)) == "fwd"
    rep = subsumptive_subsets(c, ct)
    (info,) = rep.subsets
    assert info.vertices == frozenset({0, 1})
    assert info.isolated is False
    assert rep.lower_bound == 0


def _nested(eye, eye_t):
    """The isolation test of subsumptive_subsets: None when the boundaries
    cross, else eye_nesting."""
    return None if next(boundary_crossings(eye, eye_t), None) is not None else eye_nesting(eye, eye_t)


def _reference_eye_containment(a: Disk, b: Disk, at: Disk, bt: Disk) -> str | None:
    """The former subsumption.eye_containment, kept as the oracle of _nested:
    crossings counted circle by circle, a crossing of circles d1 and d2 lying
    on an eye's boundary when the eye's other disk contains it."""
    crossings = 0
    for d1, o1 in ((a, b), (b, a)):
        for d2, o2 in ((at, bt), (bt, at)):
            if overlaps(d1, d2):
                for z in circle_intersections(d1, d2):
                    if o1.contains(z) and o2.contains(z):
                        crossings += 1
    if crossings:
        return None
    u, v = circle_intersections(a, b)
    ut, vt = circle_intersections(at, bt)
    if a.contains(ut) and b.contains(ut) and a.contains(vt) and b.contains(vt):
        return "fwd"
    if at.contains(u) and bt.contains(u) and at.contains(v) and bt.contains(v):
        return "rev"
    return None


def test_eye_nesting_matches_reference(rng):
    # random eye pairs, and eyes dilated about their centre (by s < 1 the
    # tilde eye nests inside, by s > 1 it contains the eye)
    seen = collections.Counter()
    for k in range(800):
        a, b = random_overlapping_pair(rng)
        if k % 2:
            at, bt = random_overlapping_pair(rng)
        else:
            p, s = sum(Lens(a, b).corners) / 2, rng.uniform(0.6, 1.6)
            at, bt = (Disk(p + (d.center - p) * s, d.radius * s) for d in (a, b))
        try:
            want = _reference_eye_containment(a, b, at, bt)
        except NotTransverse:
            continue
        eye, eye_t = Lens(a, b), Lens(at, bt)
        assert _nested(eye, eye_t) == want
        if next(boundary_crossings(eye, eye_t), None) is None:
            # the containment test check_eye_pair_hypotheses made at M = 0
            (u, _v), (ut, _vt) = eye.corners, eye_t.corners
            assert bool(eye_nesting(eye, eye_t)) == (eye_t.contains(u) or eye.contains(ut))
        seen[want] += 1
    assert min(seen["fwd"], seen["rev"]) >= 100 and seen[None] >= 300


def test_isolation_tests_on_the_corpora_match_reference():
    # every isolation test subsumptive_subsets makes on the index_theorem and
    # cli_pairs corpora: none nests, by either test
    results = []
    for name in ("index_theorem", "cli_pairs"):
        with open(os.path.join(CORPUS, name, "manifest.json")) as fh:
            items = json.load(fh)["items"]
        for item in items:
            c, ct = (read_document(os.path.join(CORPUS, name, f)).to_configuration() for f in item["files"])
            adj = neighbours(c)
            for info in subsumptive_subsets(c, ct).subsets:
                for i in info.vertices:
                    for j in adj[i] - info.vertices:
                        if overlaps(c.disks[i], c.disks[j]):
                            old = _reference_eye_containment(c.disks[i], c.disks[j], ct.disks[i], ct.disks[j])
                            results.append((_nested(eye_of_pair(c, i, j), eye_of_pair(ct, i, j)), old))
    assert len(results) == 342
    assert set(results) == {(None, None)}
