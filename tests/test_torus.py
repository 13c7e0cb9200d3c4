import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskrig.boundary import winding_number
from diskrig.config import DiskConfiguration, eye_of_pair
from diskrig.errors import (
    AlternationViolated,
    DegenerateInput,
    DiskrigError,
    HypothesesViolated,
    NoNonnegativeRoute,
    NotTransverse,
    PathThroughTorusPoint,
)
from diskrig.geom import Arc, Disk, arc_between
from diskrig.lemmas import generate_eye_quadruple
from diskrig.torus import (
    ArcChain,
    Crossing,
    GraphMap,
    _base_windings,
    _route_search,
    build_parametrization,
    check_eye_pair_hypotheses,
    default_base,
    find_zero_index_eye_map,
    graph_eta,
    index_via_torus,
    path_to_homeomorphism,
    random_monotone_graph,
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


def _reference_sample_grid(gmap, n):
    """GraphMap._sample_grid built as a Python set: the byte oracle of the
    numpy grid."""
    pts = set(np.linspace(0.0, 1.0, n, endpoint=False))
    pts.update(x % 1.0 for x in gmap.xs if 0 <= x < 1)
    fine = 1.0 / (32 * n)
    for c in gmap.param.crossings:
        x = (c.s - gmap.base_s) % 1.0
        lo = max(0.0, x - 0.01)
        hi = min(1.0 - 1e-12, x + 0.01)
        pts.update(np.arange(lo, hi, fine))
    return np.array(sorted(pts))


@pytest.fixture
def checked_grids(monkeypatch):
    """Every grid a graph map samples in the test must have the bytes of the
    reference grid, and the test must sample one."""
    checked = []
    sample_grid = GraphMap._sample_grid

    def checked_grid(gmap, n):
        grid = sample_grid(gmap, n)
        checked.append(n)
        assert grid.tobytes() == _reference_sample_grid(gmap, n).tobytes()
        return grid

    monkeypatch.setattr(GraphMap, "_sample_grid", checked_grid)
    yield
    assert checked


def _unsampled(monkeypatch, search, *args):
    """search(*args), asserting that it samples no graph map."""
    loops = []
    loop = GraphMap.loop

    def counted_loop(gmap, n=4096):
        loops.append(n)
        return loop(gmap, n)

    with monkeypatch.context() as m:
        m.setattr(GraphMap, "loop", counted_loop)
        result = search(*args)
    assert loops == []
    return result


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


def test_torus_formula_on_shallow_overlaps(checked_grids):
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


# a crossing offset from the base: anywhere, or close enough to 0 or 1 that
# its window is clipped
CROSSING_OFFSETS = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 0.01), st.floats(0.99, 1.0, exclude_max=True))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    k=st.integers(0, 4),
    free=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6),
    on_grid=st.lists(st.integers(0, 4095), max_size=4),
    offsets=st.lists(CROSSING_OFFSETS, max_size=3),
    near_one=st.lists(st.integers(1, 1000), max_size=2),
    base_s=st.floats(0.0, 1.0, exclude_max=True),
)
def test_sample_grid_matches_set_reference(k, free, on_grid, offsets, near_one, base_s):
    # differential oracle: the numpy grid has the bytes of the set-built one,
    # with path corners that repeat points of the even steps or of a window,
    # and with windows whose last step would fall within 1e-12 of 1
    n = 4096 * 2**k
    even = np.linspace(0.0, 1.0, n, endpoint=False)
    fine = 1.0 / (32 * n)
    offsets += [1.0 - 5e-13 - (32 * n // 100 + j) * fine + 0.01 for j in near_one]
    crossings = [Crossing("p", (x + base_s) % 1.0, 0.0, 0j) for x in offsets]
    windows = [(c.s - base_s) % 1.0 for c in crossings]
    corners = [*free, *(even[j * 2**k] for j in on_grid), *(max(0.0, x - 0.01) + 3 * fine for x in windows)]
    xs = np.array([0.0, *sorted(corners), 1.0])
    gmap = GraphMap(SimpleNamespace(crossings=crossings), base_s, 0.0, xs, xs)
    assert gmap._sample_grid(n).tobytes() == _reference_sample_grid(gmap, n).tobytes()


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


def test_zero_index_six_crossing(monkeypatch):
    for k in (0, 1, 2):
        E, Et = _six_crossing_eyes(k)
        g = _unsampled(monkeypatch, find_zero_index_eye_map, E, Et)
        assert graph_eta(g) == 0
        assert index_via_torus(g) == 0


def test_zero_index_eye_quadruples(monkeypatch, rng):
    # the search reads eta from the torus formula alone; sampling agrees
    done = 0
    while done < 20:
        q = generate_eye_quadruple(rng, mode="rotate" if done % 2 else "free")
        if q is None:
            continue
        E = _eye(q.A.center, q.A.radius, q.B.center, q.B.radius)
        Et = _eye(q.At.center, q.At.radius, q.Bt.center, q.Bt.radius)
        try:
            check_eye_pair_hypotheses(E, Et)
        except (HypothesesViolated, NotTransverse):
            continue
        g = _unsampled(monkeypatch, find_zero_index_eye_map, E, Et)
        assert graph_eta(g) == 0
        done += 1


def _source_point(g: GraphMap, x: float) -> complex:
    return complex(g.param.chain.point((x + g.base_s) % 1.0))


def _image_point(g: GraphMap, x: float) -> complex:
    return complex(g.param.chain_t.point((g.eval_y(x) + g.base_st) % 1.0))


def three_point_map(k_obj, kt_obj, zs, zts) -> tuple[GraphMap, int]:
    """Indexable homeomorphism with eta >= 0 through the three prescriptions
    z_i -> z~_i (points in positively oriented order, off the other curve):
    the check of the torus parametrization's three-point prescriptions."""
    param = build_parametrization(k_obj, kt_obj)
    s = [param.chain.param_of(z) for z in zs]
    st = [param.chain_t.param_of(z) for z in zts]
    base_s, base_st = s[0], st[0]
    xs = [(x - base_s) % 1.0 for x in s]
    ys = [(y - base_st) % 1.0 for y in st]
    if not (0 == xs[0] < xs[1] < xs[2] and 0 == ys[0] < ys[1] < ys[2]):
        raise DegenerateInput("prescription points are not in positive cyclic order")
    waypoints = [(xs[1], ys[1]), (xs[2], ys[2])]
    w_total = _base_windings(param, base_s, base_st)
    for target in range(0, w_total + param.M + 1):
        for gmap in _route_search(param, base_s, base_st, waypoints, w_total, target):
            if index_via_torus(gmap) == target:
                return gmap, target
    raise NoNonnegativeRoute("no nonnegative-index route through the prescriptions")

def test_zero_index_respects_corners():
    E, Et = _six_crossing_eyes(0)
    g = find_zero_index_eye_map(E, Et)
    # u -> u~ and v -> v~ exactly (faithfulness); each chain starts at its u,
    # and its v ends the first arc
    par = g.param
    xu = (0.0 - g.base_s) % 1.0
    xv = (par.chain._cum[1] - g.base_s) % 1.0
    (u, v), (ut, vt) = E.corners, Et.corners
    assert abs(_source_point(g, xu) - u) < 1e-9
    assert abs(_image_point(g, xu) - ut) < 1e-9
    assert abs(_source_point(g, xv) - v) < 1e-9
    assert abs(_image_point(g, xv) - vt) < 1e-7


def test_eye_containment_hypothesis_violated():
    E = _eye(0j, 1.5, 1.0 + 0j, 1.5)
    Et = _eye(0.4 + 0j, 1.02, 0.6 + 0j, 1.02)
    with pytest.raises(HypothesesViolated):
        check_eye_pair_hypotheses(E, Et)


def test_three_point_map_disjoint(monkeypatch):
    K, Kt = Disk(0j, 1.0), Disk(6 + 0j, 1.0)
    zs = [K.point_at(t) for t in (0.3, 2.0, 4.0)]
    zts = [Kt.point_at(t) for t in (1.0, 2.5, 5.0)]
    g, eta = _unsampled(monkeypatch, three_point_map, K, Kt, zs, zts)
    assert eta == 0 == graph_eta(g)
    for z, zt in zip(zs, zts):
        x = (g.param.chain.param_of(z) - g.base_s) % 1.0
        assert abs(_image_point(g, x) - zt) < 1e-9


def test_three_point_map_nested(monkeypatch):
    K, Kt = Disk(0j, 3.0), Disk(0.2 + 0j, 1.0)
    zs = [K.point_at(t) for t in (0.5, 2.5, 4.5)]
    zts = [Kt.point_at(t) for t in (1.0, 3.0, 5.0)]
    g, eta = _unsampled(monkeypatch, three_point_map, K, Kt, zs, zts)
    assert eta == 1 == graph_eta(g)


def test_three_point_map_transverse(monkeypatch, rng):
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
            g, eta = _unsampled(monkeypatch, three_point_map, a, b, zs, zts)
        except DegenerateInput:
            continue
        assert eta >= 0
        assert eta in (0, 1)
        assert graph_eta(g) == eta
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
