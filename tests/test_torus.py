import cmath
import math

import numpy as np
import pytest

from diskrig.boundary import winding_number
from diskrig.config import DiskConfiguration, eye_of_pair
from diskrig.errors import (
    AlternationViolated,
    DegenerateInput,
    DiskrigError,
    HypothesesViolated,
    NotTransverse,
    PathThroughTorusPoint,
)
from diskrig.geom import Arc, Disk, arc_between
from diskrig.torus import (
    ArcChain,
    _base_windings,
    build_parametrization,
    check_eye_pair_hypotheses,
    default_base,
    find_zero_index_eye_map,
    graph_eta,
    index_via_torus,
    path_to_homeomorphism,
    random_monotone_graph,
    three_point_map,
    verify_local_windings,
)

from conftest import random_overlapping_pair

# frozen six-crossing eye quadruples found by seeded search over
# rotated/scaled lens pairs
SIX_CROSSING = [
    ((0j, 1.0), (0.5062568113885021 + 0j, 1.2870551154873047),
     (-0.15466528171158422 - 0.15859915077059764j, 1.1882099695295645),
     (0.1300848597212097 - 0.0004548203991403821j, 1.0368025202645719)),
    ((0j, 1.0), (0.812544100662658 + 0j, 1.5722558353244893),
     (-0.42707063264957307 - 0.016482570525710286j, 1.0197344694213368),
     (0.3125537221128311 + 0.02034669933617558j, 1.1611889397250057)),
    ((0j, 1.0), (0.7702824594003858 + 0j, 1.5197771010821421),
     (-0.45159448811483377 - 0.11732713568308638j, 1.0465321659108937),
     (0.5751856754995393 + 0.07319354581486569j, 1.3169315009503157)),
]


def _eye(ca, ra, cb, rb):
    cfg = DiskConfiguration([("a", Disk(ca, ra)), ("b", Disk(cb, rb))])
    return eye_of_pair(cfg, "a", "b")


def _six_crossing_eyes(k):
    (ca, ra), (cb, rb), (cat, rat), (cbt, rbt) = SIX_CROSSING[k]
    return _eye(ca, ra, cb, rb), _eye(cat, rat, cbt, rbt)


def test_parametrization_unit_pair():
    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    assert par.M == 1
    kinds = sorted(c.kind for c in par.crossings)
    assert kinds == ["p", "pt"]


def test_parametrization_concentric():
    par = build_parametrization(Disk(0j, 1.0), Disk(0j, 2.0))
    assert par.M == 0


def test_parametrization_tangent_raises():
    with pytest.raises(NotTransverse):
        build_parametrization(Disk(0j, 1.0), Disk(2 + 0j, 1.0))


def test_chains_sharing_a_circle_raise():
    # a shared circle is tangent to itself, so the pair is not transverse
    a, b, bt = Disk(0j, 1.0), Disk(1.2 + 0j, 0.8), Disk(0.9 + 0.5j, 0.7)
    with pytest.raises(NotTransverse):
        build_parametrization(_eye(a.center, a.radius, b.center, b.radius), _eye(a.center, a.radius, bt.center, bt.radius))
    with pytest.raises(NotTransverse):
        build_parametrization(a, Disk(0j, 1.0))


def test_chains_match_the_former_constructors(rng):
    # differential oracle: ArcChain.from_disk was the full circle from angle
    # 0; ArcChain.from_eye ran from corner u along disk i to corner v, then
    # along disk j back to u, with the corners of the pair's contact
    for _ in range(100):
        a, b = random_overlapping_pair(rng)
        cfg = DiskConfiguration([("a", a), ("b", b)])
        (contact,) = cfg.contacts().values()
        u, v = contact.corners
        from_eye = [arc_between(contact.disk_i, u, v), arc_between(contact.disk_j, v, u)]
        assert ArcChain(list(eye_of_pair(cfg, "a", "b").boundary_arcs())).pieces == from_eye
        assert ArcChain(list(a.boundary_arcs())).pieces == [Arc(a, 0.0, 2 * math.pi)]


def test_parametrization_six_crossing_eyes():
    E, Et = _six_crossing_eyes(0)
    par = build_parametrization(E, Et)
    assert par.M == 3
    assert verify_local_windings(par)


def test_local_windings_unit_pair():
    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    assert verify_local_windings(par)


def test_local_windings_four_crossing(rng):
    found = 0
    while found < 5:
        a, b = random_overlapping_pair(rng)
        E = _eye(a.center, a.radius, b.center, b.radius)
        shift = complex(*rng.normal(0, 0.25, 2))
        rot = np.exp(1j * rng.uniform(0.3, 1.2))
        piv = sum(E.corners) / 2
        f = lambda z: piv + (z - piv) * rot + shift
        Et = _eye(f(a.center), a.radius, f(b.center), b.radius)
        try:
            par = build_parametrization(E, Et)
        except (NotTransverse, AlternationViolated):
            continue
        if par.M != 2:
            continue
        assert verify_local_windings(par)
        found += 1


def test_torus_formula_disjoint():
    par = build_parametrization(Disk(0j, 1.0), Disk(5 + 0j, 1.0))
    g = path_to_homeomorphism(par, 0.0, 0.0, [0.0, 1.0], [0.0, 1.0])
    assert index_via_torus(g) == 0 == graph_eta(g)


def test_torus_formula_nested():
    par = build_parametrization(Disk(0j, 3.0), Disk(0.2 + 0j, 1.0))
    g = path_to_homeomorphism(par, 0.0, 0.0, [0.0, 1.0], [0.0, 1.0])
    assert index_via_torus(g) == 1 == graph_eta(g)


def test_torus_formula_equivalence_random(rng):
    done = 0
    while done < 250:
        a, b = random_overlapping_pair(rng)
        try:
            par = build_parametrization(a, b)
            g = random_monotone_graph(par, rng)
            formula = index_via_torus(g)
            direct = graph_eta(g)
        except DiskrigError:
            continue
        assert formula == direct
        done += 1


def test_torus_formula_equivalence_eyes(rng):
    done = 0
    while done < 120:
        a, b = random_overlapping_pair(rng)
        at, bt = random_overlapping_pair(rng)
        try:
            E = _eye(a.center, a.radius, b.center, b.radius)
            Et = _eye(at.center + 0.5, at.radius, bt.center + 0.5, bt.radius)
            par = build_parametrization(E, Et)
            g = random_monotone_graph(par, rng)
            formula = index_via_torus(g)
            direct = graph_eta(g)
        except DiskrigError:
            continue
        assert formula == direct
        assert verify_local_windings(par)
        done += 1


def test_formula_at_offbase_point(rng):
    # the formula may be evaluated at any admissible base point
    from diskrig.errors import BasePointOnBoundary

    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    g = random_monotone_graph(par, np.random.default_rng(5))
    eta0 = graph_eta(g)
    evaluated = 0
    for x in (0.11, 0.37, 0.81):
        u = complex(par.chain.point((x + g.base_s) % 1.0))
        try:
            assert index_via_torus(g, u) == eta0
            evaluated += 1
        except BasePointOnBoundary:
            continue
    assert evaluated >= 2


def test_homotopic_paths_same_eta(rng):
    # paths with the same below/above assignment give equal indices
    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    base = default_base(par)
    for _ in range(20):
        g1 = random_monotone_graph(par, rng)
        g2 = random_monotone_graph(par, rng)
        from diskrig.torus import shifted_crossings

        a1 = [y < np.interp(x, g1.xs, g1.ys) for _k, x, y in shifted_crossings(par, *base)]
        a2 = [y < np.interp(x, g2.xs, g2.ys) for _k, x, y in shifted_crossings(par, *base)]
        if a1 == a2:
            assert graph_eta(g1) == graph_eta(g2)


def test_torus_formula_on_shallow_overlaps():
    # unit circles overlapping by h: the base point of K~ lies about 1e-6
    # inside K, where 2048 chord samples of the circle read it as outside
    checked = 0
    for h in (1e-6, 5e-7, 2e-7):
        for k in range(12):
            kt = Disk((2 - h) * cmath.exp(1j * (2 * math.pi * k / 12 + 0.123)), 1.0)
            par = build_parametrization(Disk(0j, 1.0), kt)
            g = random_monotone_graph(par, np.random.default_rng(k))
            try:
                direct = graph_eta(g)
            except DiskrigError:
                continue
            assert index_via_torus(g) == direct
            checked += 1
    assert checked >= 8


def _sampled_winding(chain, z):
    return winding_number(chain.point(np.arange(2048) / 2048), z)


@pytest.mark.parametrize("kind", ["disk", "eye"])
def test_windings_by_membership_match_sampled(rng, kind):
    pairs = 0
    while pairs < 30:
        if kind == "disk":
            k_obj, kt_obj = random_overlapping_pair(rng)
        else:
            a, b = random_overlapping_pair(rng)
            k_obj = _eye(a.center, a.radius, b.center, b.radius)
            # an overlapping copy, turned about the eye's centre and shifted
            piv = sum(k_obj.corners) / 2
            rot, shift = np.exp(1j * rng.uniform(0, 1.2)), complex(*rng.normal(0, 0.25, 2))
            kt_obj = _eye(piv + (a.center - piv) * rot + shift, a.radius, piv + (b.center - piv) * rot + shift, b.radius)
        try:
            par = build_parametrization(k_obj, kt_obj)
        except DiskrigError:
            continue
        pairs += 1
        # region membership is the winding of the region's boundary chain,
        # tried at points scattered about both curves
        near = np.concatenate([par.chain.point(rng.random(20)), par.chain_t.point(rng.random(20))])
        for z in near + rng.normal(0, 0.2, 40) + 1j * rng.normal(0, 0.2, 40):
            for region, chain in ((par.region, par.chain), (par.region_t, par.chain_t)):
                if chain.distance(z) >= 1e-3:
                    assert int(region.contains(z, strict=True)) == _sampled_winding(chain, z)
        # and the formula's two windings at base pairs on the curves
        for s, s_t in rng.random((20, 2)):
            u, ut = complex(par.chain.point(s)), complex(par.chain_t.point(s_t))
            if par.chain_t.distance(u) < 1e-3 or par.chain.distance(ut) < 1e-3:
                continue
            assert _base_windings(par, s, s_t) == _sampled_winding(par.chain, ut) + _sampled_winding(par.chain_t, u)


def test_path_invariants():
    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    with pytest.raises(DegenerateInput):
        path_to_homeomorphism(par, 0.0, 0.0, [0.0, 0.5, 0.4, 1.0], [0.0, 0.3, 0.6, 1.0])
    c = par.crossings[0]
    base_s, base_st = default_base(par)
    x = (c.s - base_s) % 1.0
    y = (c.s_t - base_st) % 1.0
    with pytest.raises(PathThroughTorusPoint):
        path_to_homeomorphism(par, base_s, base_st, [0.0, x, 1.0], [0.0, y, 1.0])


def test_zero_index_disjoint_eyes():
    E = _eye(0j, 1.1, 1.0 + 0j, 1.1)
    Et = _eye(10 + 0j, 1.1, 11 + 0j, 1.1)
    g = find_zero_index_eye_map(E, Et)
    assert graph_eta(g) == 0


def test_zero_index_two_crossing(rng):
    done = 0
    while done < 40:
        a, b = random_overlapping_pair(rng)
        at, bt = random_overlapping_pair(rng)
        shift = complex(*rng.normal(0, 0.6, 2))
        try:
            E = _eye(a.center, a.radius, b.center, b.radius)
            Et = _eye(at.center + shift, at.radius, bt.center + shift, bt.radius)
            par = check_eye_pair_hypotheses(E, Et)
        except (HypothesesViolated, NotTransverse, AlternationViolated):
            continue
        if par.M != 1:
            continue
        g = find_zero_index_eye_map(E, Et)
        assert graph_eta(g) == 0
        done += 1


def test_zero_index_six_crossing():
    for k in (0, 1, 2):
        E, Et = _six_crossing_eyes(k)
        g = find_zero_index_eye_map(E, Et)
        assert graph_eta(g) == 0
        assert index_via_torus(g) == 0


def test_zero_index_respects_corners():
    E, Et = _six_crossing_eyes(0)
    g = find_zero_index_eye_map(E, Et)
    # u -> u~ and v -> v~ exactly (faithfulness); each chain starts at its u,
    # and its v ends the first arc
    par = g.param
    xu = (0.0 - g.base_s) % 1.0
    xv = (par.chain._cum[1] - g.base_s) % 1.0
    (u, v), (ut, vt) = E.corners, Et.corners
    assert abs(g.source_point(xu) - u) < 1e-9
    assert abs(g.image_point(xu) - ut) < 1e-9
    assert abs(g.source_point(xv) - v) < 1e-9
    assert abs(g.image_point(xv) - vt) < 1e-7


def test_eye_containment_hypothesis_violated():
    E = _eye(0j, 1.5, 1.0 + 0j, 1.5)
    Et = _eye(0.4 + 0j, 1.02, 0.6 + 0j, 1.02)
    with pytest.raises(HypothesesViolated):
        check_eye_pair_hypotheses(E, Et)


def test_three_point_map_disjoint():
    K, Kt = Disk(0j, 1.0), Disk(6 + 0j, 1.0)
    zs = [K.point_at(t) for t in (0.3, 2.0, 4.0)]
    zts = [Kt.point_at(t) for t in (1.0, 2.5, 5.0)]
    g, eta = three_point_map(K, Kt, zs, zts)
    assert eta == 0
    for z, zt in zip(zs, zts):
        x = (g.param.chain.param_of(z) - g.base_s) % 1.0
        assert abs(g.image_point(x) - zt) < 1e-9


def test_three_point_map_nested():
    K, Kt = Disk(0j, 3.0), Disk(0.2 + 0j, 1.0)
    zs = [K.point_at(t) for t in (0.5, 2.5, 4.5)]
    zts = [Kt.point_at(t) for t in (1.0, 3.0, 5.0)]
    _g, eta = three_point_map(K, Kt, zs, zts)
    assert eta == 1


def test_three_point_map_transverse(rng):
    done = 0
    while done < 30:
        a, b = random_overlapping_pair(rng)
        par = build_parametrization(a, b)
        # prescription points off the other boundary
        ss = np.sort(rng.uniform(0, 1, 3))
        sts = np.sort(rng.uniform(0, 1, 3))
        zs = [complex(par.chain.point(s)) for s in ss]
        zts = [complex(par.chain_t.point(s)) for s in sts]
        if any(par.chain_t.distance(z) < 1e-3 for z in zs):
            continue
        if any(par.chain.distance(z) < 1e-3 for z in zts):
            continue
        try:
            g, eta = three_point_map(a, b, zs, zts)
        except DegenerateInput:
            continue
        assert eta >= 0
        assert eta in (0, 1)
        done += 1


def test_lem1_crossing_count_law(rng):
    from diskrig.lemmas import eye_boundary_crossing_pairs, generate_eye_quadruple

    done = 0
    while done < 1000:
        q = generate_eye_quadruple(rng, mode="rotate" if done % 2 else "free")
        if q is None:
            continue
        assert len(eye_boundary_crossing_pairs(q)) in (0, 2, 4, 6)
        done += 1
