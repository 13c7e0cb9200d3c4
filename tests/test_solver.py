import math

import numpy as np
import pytest

from diskrig import solver
from diskrig.config import DiskConfiguration, contact_graph, is_thin
from diskrig.errors import DiskrigError, ExtraneousContact, InconsistentPlacement, Nonconvergence, UnsupportedAngle
from diskrig.geom import Disk
from diskrig.solver import (
    FixedBoundaryRadii,
    Triangulation,
    angle_sum,
    double_flower,
    edge_length,
    face_angle,
    flower,
    k4_disk,
    layout,
    rigidity_experiment,
    solve_radii,
)


def test_edge_length_cases():
    assert abs(edge_length(1, 1, 0.0) - 2.0) < 1e-15
    assert abs(edge_length(1, 1, math.pi / 2) - math.sqrt(2)) < 1e-15
    assert abs(edge_length(2, 3, math.pi / 3) - math.sqrt(19)) < 1e-12
    with pytest.raises(UnsupportedAngle):
        edge_length(1, 1, 2.0)


def test_edge_length_round_trips_overlap_angle(rng):
    from diskrig.geom import Disk, overlap_angle

    for _ in range(300):
        r1, r2 = rng.uniform(0.3, 2.0, 2)
        theta = rng.uniform(0, math.pi / 2)
        d = edge_length(r1, r2, theta)
        got = overlap_angle(Disk(0j, r1), Disk(d + 0j, r2))
        assert abs(got - theta) < 1e-12


def test_face_angle_cases():
    radii = {0: 1.0, 1: 1.0, 2: 1.0}
    assert abs(face_angle((0, 1, 2), 0, radii, {}) - math.pi / 3) < 1e-12
    th = {frozenset((i, j)): math.pi / 2 for i, j in ((0, 1), (1, 2), (0, 2))}
    assert abs(face_angle((0, 1, 2), 0, radii, th) - math.pi / 3) < 1e-12
    radii345 = {0: 1.0, 1: 2.0, 2: 3.0}
    assert abs(face_angle((0, 1, 2), 0, radii345, {}) - math.pi / 2) < 1e-12


def test_k4_descartes_oracle():
    tri = k4_disk()
    radii = solve_radii(tri, {}, FixedBoundaryRadii({1: 1.0, 2: 1.0, 3: 1.0}))
    k = 3 + 2 * math.sqrt(3)  # Descartes: k4 = k1+k2+k3 + 2*sqrt(k1k2+k2k3+k3k1)
    assert abs(radii[0] - 1 / k) < 1e-8


def test_hexagonal_flower():
    tri = flower(6)
    radii = solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)}))
    assert abs(radii[0] - 1.0) < 1e-10
    cfg = layout(tri, radii, {})
    # regular hexagonal packing up to similarity: petal centers at distance
    # 2 from the center, pairwise consecutive distance 2
    centers = [cfg.disks[k].center - cfg.disks[0].center for k in range(1, 7)]
    assert all(abs(abs(c) - 2.0) < 1e-8 for c in centers)


def test_mixed_theta_flower_bisection_oracle():
    # center-petal theta = pi/3, petal-petal theta = 0, boundary radii 1
    tri = flower(6)
    theta = {frozenset((0, k)): math.pi / 3 for k in range(1, 7)}
    radii = solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)}))

    # independent scalar bisection on the angle-sum equation in r
    def angle_at_center(r):
        a = math.sqrt(r * r + 1 + 2 * r * math.cos(math.pi / 3))  # center-petal
        return 6 * 2 * math.asin(1.0 / a)  # petal-petal tangent: chord 2, isoceles

    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if angle_at_center(mid) > 2 * math.pi:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert abs(radii[0] - oracle) < 1e-9


def test_angle_sums_within_tolerance():
    tri = double_flower()
    theta = {e: 0.3 for e in tri.edges()}
    radii = solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(2, 8)}))
    for v in tri.interior_vertices:
        assert abs(angle_sum(tri, v, radii, theta) - 2 * math.pi) < 1e-10


def test_layout_k4_apollonian():
    tri = k4_disk()
    radii = solve_radii(tri, {}, FixedBoundaryRadii({1: 1.0, 2: 1.0, 3: 1.0}))
    cfg = layout(tri, radii, {})
    inc = contact_graph(cfg)
    assert len(inc.edges) == 6
    assert all(abs(t) < 1e-7 for t in inc.theta.values())


def test_layout_reproduces_theta():
    tri = flower(5)
    rng = np.random.default_rng(3)
    theta = {e: float(rng.uniform(0, math.pi / 3)) for e in tri.edges()}
    radii = solve_radii(tri, theta, FixedBoundaryRadii({k: float(rng.uniform(0.8, 1.2)) for k in range(1, 6)}))
    cfg = layout(tri, radii, theta)
    inc = contact_graph(cfg)
    assert inc.edges == frozenset(tri.edge_faces)
    for e in inc.edges:
        want = theta.get(e, 0.0)
        assert abs(inc.theta[e] - want) < 1e-7


def test_double_flower_consistency():
    tri = double_flower()
    radii = solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(2, 8)}))
    cfg = layout(tri, radii, {})
    assert len(cfg) == 8


def test_solve_takes_only_fixed_boundary_radii():
    with pytest.raises(TypeError, match="unknown boundary condition"):
        solve_radii(flower(6), {}, {k: 1.0 for k in range(1, 7)})


def test_angle_sum_monotone_in_own_radius(rng):
    tri = flower(6)
    theta = {e: float(rng.uniform(0, math.pi / 2)) for e in tri.edges()}
    for _ in range(50):
        radii = {v: float(np.exp(rng.normal(0, 0.4))) for v in tri.vertices}
        r0 = radii[0]
        h = 1e-6 * r0
        up = dict(radii)
        up[0] = r0 + h
        dn = dict(radii)
        dn[0] = r0 - h
        assert angle_sum(tri, 0, up, theta) < angle_sum(tri, 0, dn, theta)


def test_relabeling_invariance():
    tri = flower(5)
    theta = {e: 0.4 for e in tri.edges()}
    radii = solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, 6)}))
    # relabel petals cyclically
    perm = {0: 0, 1: 2, 2: 3, 3: 4, 4: 5, 5: 1}
    tri2 = Triangulation([perm[v] for v in tri.vertices], [tuple(perm[v] for v in f) for f in tri.faces])
    theta2 = {frozenset(perm[v] for v in e): 0.4 for e in tri.edges()}
    radii2 = solve_radii(tri2, theta2, FixedBoundaryRadii({perm[k]: 1.0 for k in range(1, 6)}))
    assert abs(radii2[0] / radii2[perm[1]] - radii[0] / radii[1]) < 1e-9


def test_solver_outputs_thin():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n = int(rng.integers(5, 8))
        tri = flower(n)
        theta = {e: float(rng.uniform(0, math.pi / 3.2)) for e in tri.edges()}
        radii = solve_radii(tri, theta, FixedBoundaryRadii({k: float(rng.uniform(0.8, 1.3)) for k in range(1, n + 1)}))
        cfg = layout(tri, radii, theta)
        assert is_thin(cfg)[0]


def test_rigidity_experiment_hex():
    res = rigidity_experiment(flower(6), {}, {k: 1.0 for k in range(1, 7)}, seed=1)
    assert res <= 1e-6


def test_rigidity_experiment_mixed():
    tri = flower(6)
    theta = {e: 0.5 for e in tri.edges()}
    res = rigidity_experiment(tri, theta, {k: 1.0 for k in range(1, 7)}, seed=2)
    assert res <= 1e-6


def test_triangulation_validation():
    with pytest.raises(ValueError):
        Triangulation([0, 1, 2], [(0, 1, 2), (0, 1, 2), (0, 2, 1)])
    with pytest.raises(ValueError):
        Triangulation([0, 1], [(0, 1, 1)])


# --- differential oracle: the dict-copy bisection the star tables replaced --------


def _reference_solve_radii(tri, theta, boundary_condition, *, tol=1e-10, max_iters=2000, initial=None):
    """The sweep as it was before the star tables: every evaluation copies the
    radius dict and calls the public ``angle_sum``."""
    for e in tri.edges():
        t = solver._theta_of(theta, *tuple(e))
        if t < -1e-15 or t > math.pi / 2 + 1e-12:
            raise UnsupportedAngle(f"theta{tuple(e)}={t}")
    radii = {v: 1.0 for v in tri.vertices}
    if initial:
        radii.update({v: float(r) for v, r in initial.items()})
    targets = {v: 2 * math.pi for v in tri.interior_vertices}
    for v, r in boundary_condition.values.items():
        radii[v] = float(r)
    unknowns = sorted(tri.interior_vertices, key=str)
    log = []
    for _ in range(max_iters):
        worst = 0.0
        for v in unknowns:
            radii[v] = _reference_solve_vertex(tri, v, radii, theta, targets[v], tol / 10)
        for v in unknowns:
            worst = max(worst, abs(angle_sum(tri, v, radii, theta) - targets[v]))
        log.append(worst)
        if worst < tol:
            return radii
    raise Nonconvergence(f"residual {log[-1]:.3g} after {max_iters} sweeps")


def _reference_solve_vertex(tri, v, radii, theta, target, tol):
    def f(r):
        trial = dict(radii)
        trial[v] = r
        return angle_sum(tri, v, trial, theta) - target

    lo = solver._bracket(f, radii[v], factor=0.5, want_positive=True, vertex=v)
    hi = solver._bracket(f, radii[v], factor=2.0, want_positive=False, vertex=v)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def _hex_two_ring():
    """The 19-vertex hexagonal patch of tests/test_acceptance.py."""
    faces = []
    a = lambda i: 1 + (i % 6)
    r = lambda i: 7 + 2 * (i % 6)
    m = lambda i: 8 + 2 * (i % 6)
    for i in range(6):
        faces += [(0, a(i), a(i + 1)), (a(i), r(i), m(i)), (a(i), m(i), a(i + 1)), (a(i + 1), m(i), r(i + 1))]
    return Triangulation(list(range(19)), faces)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DiskrigError as exc:
        return (type(exc), str(exc))


def _assert_same_solve(tri, theta, bc, **kwargs):
    got = _outcome(solve_radii, tri, theta, bc, **kwargs)
    want = _outcome(_reference_solve_radii, tri, theta, bc, **kwargs)
    assert got == want
    if isinstance(want, dict):
        assert all(type(r) is float for r in got.values())
    return got


def _uniform_theta(tri, rng):
    return {e: float(rng.uniform(0, 0.95 * math.pi / 2)) for e in tri.edges()}


@pytest.mark.parametrize("n", range(3, 13))
def test_solve_matches_reference_on_flowers(n):
    rng = np.random.default_rng([41, n])
    tri = flower(n)
    theta = _uniform_theta(tri, rng)
    fixed = FixedBoundaryRadii({k: float(rng.uniform(0.8, 1.25)) for k in range(1, n + 1)})
    init = {v: float(np.exp(rng.normal(0, 0.5))) for v in tri.vertices}
    outcomes = [
        _assert_same_solve(tri, theta, fixed),
        _assert_same_solve(tri, theta, fixed, initial=init),
    ]
    # three petals overlapping this deeply leave the centre no room, and both
    # sweeps fail the same way
    assert all(isinstance(o, tuple if n == 3 else dict) for o in outcomes)


def test_solve_matches_reference_on_double_flower():
    rng = np.random.default_rng(42)
    tri = double_flower()
    for theta in ({}, _uniform_theta(tri, rng)):
        fixed = FixedBoundaryRadii({k: float(rng.uniform(0.8, 1.25)) for k in range(2, 8)})
        assert isinstance(_assert_same_solve(tri, theta, fixed), dict)


@pytest.mark.parametrize("seed", range(3))
def test_solve_matches_reference_on_two_ring(seed):
    rng = np.random.default_rng([43, seed])
    tri = _hex_two_ring()
    theta = _uniform_theta(tri, rng)
    fixed = FixedBoundaryRadii({v: float(rng.uniform(0.8, 1.25)) for v in tri.boundary_vertices})
    assert isinstance(_assert_same_solve(tri, theta, fixed), dict)
    init = {v: float(np.exp(rng.normal(0, 0.5))) for v in tri.interior_vertices}
    _assert_same_solve(tri, theta, fixed, initial=init)


def test_star_angle_sum_is_bit_equal_to_angle_sum(rng):
    for tri in [flower(n) for n in range(3, 13)] + [double_flower(), _hex_two_ring()]:
        theta = _uniform_theta(tri, rng)
        for _ in range(20):
            radii = {v: float(np.exp(rng.normal(0, 0.5))) for v in tri.vertices}
            for v in tri.vertices:
                sides = solver._star_sides(solver._star(tri, v, theta), radii)
                assert solver._star_angle_sum(sides, radii[v]) == angle_sum(tri, v, radii, theta)


# --- layout errors name their cause -------------------------------------------------


def test_near_tangent_spoke_reads_as_tangent():
    # theta = 2e-5 puts the centres within 1e-10 of the radius sum, inside
    # EPS_GEOM, so the re-derived angle is 0
    tri = flower(6)
    theta = {e: 0.3 for e in tri.edges()}
    theta[frozenset((0, 1))] = 2e-5
    radii = solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)}))
    with pytest.raises(InconsistentPlacement, match=r"edge \(0, 1\) off by 2e-05: read as tangent.*EPS_GEOM=1e-09"):
        layout(tri, radii, theta)


def test_angle_mismatch_away_from_tangency_reads_as_drift():
    tri = flower(6)
    theta = {e: 0.3 for e in tri.edges()}
    cfg = layout(tri, solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)})), theta)
    shifted = dict(theta)
    shifted[frozenset((2, 3))] = 0.3 + 2e-6
    with pytest.raises(InconsistentPlacement, match=r"edge \(2, 3\) off by 2e-06: numerical drift"):
        solver._verify_incidence(tri, shifted, cfg)


def test_extraneous_contact_lists_overlap_depth():
    tri = flower(4)
    cfg = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 5)})), {})
    d1, d3 = cfg.disks[1], cfg.disks[3]
    grown = DiskConfiguration([(v, Disk(d.center, 1.5) if v in (1, 3) else d) for v, d in cfg.disks.items()])
    depth = 3.0 - abs(d1.center - d3.center)
    with pytest.raises(ExtraneousContact, match=rf"\(1, 3\) by {depth:.3g}$"):
        solver._verify_incidence(tri, {}, grown)


def test_solve_logs_each_sweep_and_the_solve(caplog):
    tri = double_flower()
    bc = FixedBoundaryRadii({k: 1.0 for k in range(2, 8)})
    with caplog.at_level("WARNING", logger="diskrig.solver"):
        solve_radii(tri, {}, bc)
    assert not caplog.records
    with caplog.at_level("DEBUG", logger="diskrig.solver"):
        solve_radii(tri, {}, bc)
    sweeps = [r.getMessage() for r in caplog.records if r.levelname == "DEBUG"]
    (done,) = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
    assert sweeps and all(m.startswith(f"sweep {k}: residual ") for k, m in enumerate(sweeps, 1))
    assert done.startswith(f"solved 2 radii in {len(sweeps)} sweeps, residual ")
    assert float(done.rsplit(" ", 1)[1]) < 1e-10
