import math

import numpy as np
import pytest

from diskrig.config import DiskConfiguration
from diskrig.errors import ConditionFailed, DegenerateInput, MapsToInfinity, NoAnchorFound, UnboundedImage
from diskrig.geom import Disk, overlap_angle
from diskrig.moebius import (
    EPSILONS,
    IDENTITY,
    MoebiusMap,
    align,
    apply_disk,
    apply_point,
    compose,
    concentricize,
    fit_similarity,
    from_three_points,
    inversion,
    normalize_pair,
    similarity,
    translation,
)

from conftest import random_overlapping_pair, tangency_flower_pair


def test_apply_point_cases():
    assert apply_point(IDENTITY, 1 + 2j) == 1 + 2j
    assert apply_point(inversion(), 2 + 0j) == 0.5 + 0j
    assert apply_point(translation(1j), 0j) == 1j
    with pytest.raises(MapsToInfinity):
        apply_point(inversion(), 0j)


def test_apply_disk_cases():
    ident = apply_disk(IDENTITY, Disk(0j, 1))
    assert abs(ident.center) < 1e-12 and abs(ident.radius - 1) < 1e-12
    img = apply_disk(similarity(2), Disk(1 + 0j, 1))
    assert abs(img.center - 2) < 1e-12 and abs(img.radius - 2) < 1e-12
    inv = apply_disk(inversion(), Disk(3 + 0j, 1))
    assert abs(inv.center - 3 / 8) < 1e-12 and abs(inv.radius - 1 / 8) < 1e-12
    with pytest.raises(UnboundedImage):
        apply_disk(inversion(), Disk(0.5 + 0j, 1))


def test_apply_disk_sample_fit_oracle(rng):
    # oracle: map 64 boundary samples and fit a circle through extremes
    m = compose(inversion(0.1 + 0.2j), similarity(1.5 + 0.5j, 1 - 2j))
    d = Disk(3 + 1j, 0.8)
    img = apply_disk(m, d)
    pts = apply_point(m, d.center + d.radius * np.exp(1j * np.linspace(0, 2 * math.pi, 64, endpoint=False)))
    assert np.max(np.abs(np.abs(pts - img.center) - img.radius)) < 1e-9


def test_from_three_points_cases():
    m = from_three_points(0j, 1 + 0j, 1j, 0j, 1 + 0j, 1j)
    for z in (0j, 1 + 0j, 1j, 0.3 + 0.2j):
        assert abs(apply_point(m, z) - z) < 1e-10
    m = from_three_points(0j, 1 + 0j, 1j, 1 + 0j, 2 + 0j, 1 + 1j)
    assert abs(apply_point(m, 0.5 + 3j) - (1.5 + 3j)) < 1e-10
    m = from_three_points(0j, 1 + 0j, 2 + 0j, 0j, 1 + 0j, 0.5 + 0j)
    assert abs(apply_point(m, 2 + 0j) - 0.5) < 1e-10
    with pytest.raises(DegenerateInput):
        from_three_points(0j, 0j, 1j, 0j, 1 + 0j, 1j)


def test_from_three_points_cross_ratio_oracle(rng):
    # oracle: Moebius maps preserve the cross ratio
    def cross(z, z1, z2, z3):
        return (z - z1) * (z2 - z3) / ((z - z3) * (z2 - z1))

    for _ in range(100):
        zs = [complex(*rng.normal(0, 2, 2)) for _ in range(3)]
        ws = [complex(*rng.normal(0, 2, 2)) for _ in range(3)]
        try:
            m = from_three_points(*zs, *ws)
        except DegenerateInput:
            continue
        z = complex(*rng.normal(0, 2, 2))
        try:
            w = apply_point(m, z)
        except MapsToInfinity:
            continue
        assert abs(cross(z, *zs) - cross(w, *ws)) < 1e-7


def test_reproduces_defining_points(rng):
    for _ in range(100):
        zs = [complex(*rng.normal(0, 2, 2)) for _ in range(3)]
        ws = [complex(*rng.normal(0, 2, 2)) for _ in range(3)]
        try:
            m = from_three_points(*zs, *ws)
        except DegenerateInput:
            continue
        for z, w in zip(zs, ws):
            assert abs(apply_point(m, z) - w) < 1e-10


def test_apply_disk_commutes_with_composition(rng):
    for _ in range(100):
        m1 = compose(similarity(complex(*rng.normal(0, 1, 2)) + 1.5, complex(*rng.normal(0, 1, 2))), inversion(5 + 5j))
        m2 = similarity(0.5 + 1j, -2j)
        d = Disk(complex(*rng.normal(0, 1, 2)), rng.uniform(0.3, 0.8))
        try:
            lhs = apply_disk(compose(m2, m1), d)
            rhs = apply_disk(m2, apply_disk(m1, d))
        except UnboundedImage:
            continue
        assert abs(lhs.center - rhs.center) < 1e-9
        assert abs(lhs.radius - rhs.radius) < 1e-9


def test_overlap_angle_moebius_invariant(rng):
    done = 0
    while done < 1000:
        a, b = random_overlapping_pair(rng)
        pole = complex(*rng.normal(0, 1, 2)) * 10 + 12
        m = compose(similarity(complex(*rng.normal(0, 1, 2)) + 2), inversion(pole))
        try:
            ia, ib = apply_disk(m, a), apply_disk(m, b)
        except UnboundedImage:
            continue
        assert abs(overlap_angle(ia, ib) - overlap_angle(a, b)) < 1e-9
        done += 1


def test_anti_moebius_reverses_winding():
    from diskrig.boundary import winding_number

    d = Disk(0.3 + 0.2j, 1.0)
    pts = d.center + d.radius * np.exp(1j * np.linspace(0, 2 * math.pi, 256, endpoint=False))
    m = compose(similarity(1.3 - 0.4j, 2j), MoebiusMap(1, 0, 0, 1, conjugate_first=True))
    img = apply_point(m, pts)
    center_img = apply_point(m, d.center)
    assert winding_number(pts, d.center) == 1
    assert winding_number(img, center_img) == -1


def test_concentricize():
    a, b = Disk(0j, 1.0), Disk(5 + 1j, 1.5)
    m = concentricize(a, b)
    img_b = apply_disk(m, b)
    assert abs(img_b.center) < 1e-9
    # a maps over infinity in this chart
    with pytest.raises(UnboundedImage):
        apply_disk(m, a)


def test_align_similarity_exact(rng):
    from diskrig.experiments import random_chain_config

    cfg = random_chain_config(rng, 4)
    m = similarity(1.4 - 0.3j, 2 + 1j)
    cfg_t = cfg.transformed(lambda d: apply_disk(m, d))
    _m2, res = align(cfg, cfg_t)
    assert res <= 1e-9


def test_align_perturbed_radius(rng):
    from diskrig.experiments import random_chain_config

    cfg = random_chain_config(rng, 4)
    m = similarity(1.2 + 0.1j, -1j)
    items = cfg.transformed(lambda d: apply_disk(m, d)).items()
    k, d = items[-1]
    items[-1] = (k, Disk(d.center, d.radius * 1.01))
    _m2, res = align(cfg, DiskConfiguration(items))
    assert res >= 1e-3


def test_align_three_cycle_unique():
    # kit-kat-bar: a 3-cycle's realization is unique up to Moebius, so any two
    # realizations of the same (3-cycle, Theta) align exactly
    theta = {frozenset((0, 1)): 0.5, frozenset((1, 2)): 0.9, frozenset((0, 2)): 0.3}

    def realize(radii):
        def dist(i, j):
            t = theta[frozenset((i, j))]
            return math.sqrt(radii[i] ** 2 + radii[j] ** 2 + 2 * radii[i] * radii[j] * math.cos(t))

        p0 = 0j
        p1 = dist(0, 1) + 0j
        d02, d12 = dist(0, 2), dist(1, 2)
        x = (d02**2 - d12**2 + abs(p1) ** 2) / (2 * abs(p1))
        y = math.sqrt(d02**2 - x * x)
        return DiskConfiguration([(i, Disk(p, radii[i])) for i, p in ((0, p0), (1, p1), (2, complex(x, y)))])

    c1 = realize({0: 1.0, 1: 0.8, 2: 1.1})
    c2 = realize({0: 0.5, 1: 1.3, 2: 0.7})
    _m, res = align(c1, c2)
    assert res <= 1e-9


def test_fit_similarity_scale_quotient(rng):
    from diskrig.experiments import random_chain_config

    cfg = random_chain_config(rng, 5)
    cfg_t = cfg.transformed(lambda d: Disk(d.center * (2 - 1j) + 3, d.radius * abs(2 - 1j)))
    _m, res = fit_similarity(cfg.disks, cfg_t.disks)
    assert res < 1e-9


# --- normalization ------------------------------------------------------------------


def _scan(cfg, cfg_t, mode):
    try:
        return normalize_pair(cfg, cfg_t, mode)
    except ConditionFailed:
        return None


def test_normalize_modes_succeed_on_distinct_realizations():
    cfg, cfg_t = tangency_flower_pair()
    for mode in ("PlanePlane", "Sphere", "PlaneVsHyp"):
        res = _scan(cfg, cfg_t, mode)
        assert res is not None, f"{mode} never satisfied its conditions"
        assert res.ok and res.epsilon in EPSILONS


def _flower_modes():
    # HypHyp needs both configurations inside the unit disk
    cfg, cfg_t = tangency_flower_pair()
    shrink = lambda s, off: (lambda d: Disk(d.center * s + off, d.radius * s))
    yield "HypHyp", cfg.transformed(shrink(0.18, 0)), cfg_t.transformed(shrink(0.16, 0.02))
    for mode in ("Sphere", "PlanePlane", "PlaneVsHyp"):
        yield mode, cfg, cfg_t


def test_scan_returns_the_first_single_epsilon_success():
    for mode, cfg, cfg_t in _flower_modes():
        singles = []
        for eps in EPSILONS:
            try:
                singles.append(normalize_pair(cfg, cfg_t, mode, (eps,)))
            except ConditionFailed:
                continue
        assert singles, mode
        assert normalize_pair(cfg, cfg_t, mode) == singles[0]


def test_scan_builds_the_normalization_once(monkeypatch):
    from diskrig import moebius

    cfg, _ = tangency_flower_pair()
    sim = similarity(1.3 + 0.4j, 2 - 1j)
    equivalent = ("PlanePlane", cfg, cfg.transformed(lambda d: apply_disk(sim, d)))
    for mode, c, ct in (equivalent, *_flower_modes()):
        runs = []
        builder = moebius._BUILDERS[mode]
        monkeypatch.setitem(moebius._BUILDERS, mode, lambda *a, b=builder, runs=runs: runs.append(a) or b(*a))
        try:
            normalize_pair(c, ct, mode)
        except ConditionFailed as exc:
            # equivalent inputs fail at every epsilon, the last one reported
            assert (mode, exc.epsilon) == ("PlanePlane", EPSILONS[-1])
        monkeypatch.undo()
        assert len(runs) == 1, mode


def test_normalize_hyp_mode():
    mode, cfg_h, cfg_ht = next(_flower_modes())
    res = _scan(cfg_h, cfg_ht, mode)
    assert res is not None
    unit = Disk(0j, 1.0)
    da, dt = apply_disk(res.map_for_C, unit), apply_disk(res.map_for_Ctilde, unit)
    # the normalized unit-disk images must nest strictly
    gap = abs(da.center - dt.center)
    assert gap + min(da.radius, dt.radius) < max(da.radius, dt.radius)


def test_normalize_epsilon_zero_fails():
    cfg, _ = tangency_flower_pair()
    with pytest.raises(ConditionFailed):
        normalize_pair(cfg, cfg, "PlaneVsHyp", (0.0,))


def test_normalize_equivalent_inputs_fail_at_c_anchor():
    # Moebius-equivalent inputs admit no differing third anchor; the c-anchor
    # nesting then fails for every epsilon (the proofs only need the
    # normalization under their contradiction hypothesis)
    cfg, _ = tangency_flower_pair()
    m = similarity(1.3 + 0.4j, 2 - 1j)
    cfg_t = cfg.transformed(lambda d: apply_disk(m, d))
    failures = set()
    for k in range(1, 10):
        try:
            normalize_pair(cfg, cfg_t, "PlanePlane", (2.0**-k,))
            raise AssertionError("equivalent inputs should not normalize")
        except ConditionFailed as exc:
            failures.update(exc.failures)
    assert failures == {"nested[0]"}


def test_normalize_no_anchor():
    # overlapping pair only: no tangency-only vertex for the concentric modes
    cfg = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(1.2 + 0j, 1.0))])
    with pytest.raises(NoAnchorFound):
        normalize_pair(cfg, cfg, "PlanePlane", (0.1,))
