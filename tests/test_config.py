import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diskrig.config import (
    DiskConfiguration,
    classify_triple,
    contact_graph,
    eye_of_pair,
    eyes,
    is_general_position,
    is_thin,
)
from diskrig import geom
from diskrig.errors import ContainmentViolation, DiskrigError, HypothesesViolated
from diskrig.geom import Disk, Lens, circle_intersections, circles_tangent
from diskrig.moebius import apply_disk, compose, inversion, similarity

from conftest import _is_thin_reference, grid_triple_oracle


def test_configuration_invariant():
    with pytest.raises(ContainmentViolation):
        DiskConfiguration([("a", Disk(0j, 2)), ("b", Disk(0.1 + 0j, 0.5))])
    with pytest.raises(ContainmentViolation):
        DiskConfiguration([("a", Disk(0j, 1)), ("a", Disk(5 + 0j, 1))])


def test_contact_graph_cases():
    c = DiskConfiguration([("a", Disk(0j, 1)), ("b", Disk(5 + 0j, 1))])
    assert contact_graph(c).edges == frozenset()

    tangent = DiskConfiguration(
        [(0, Disk(0j, 1)), (1, Disk(2 + 0j, 1)), (2, Disk(1 + math.sqrt(3) * 1j, 1))]
    )
    inc = contact_graph(tangent)
    assert len(inc.edges) == 3
    assert all(t == 0.0 for t in inc.theta.values())

    pair = DiskConfiguration([("a", Disk(0j, 1)), ("b", Disk(1 + 0j, 1))])
    inc = contact_graph(pair)
    (e,) = inc.edges
    assert abs(inc.theta[e] - 2 * math.pi / 3) < 1e-12


def test_contact_corners_are_computed_once(monkeypatch):
    from diskrig.boundary import boundary_complex, build_faithful_map
    from diskrig.subsumption import subsumptive_subsets

    original = geom.circle_intersections
    calls = Counter()
    monkeypatch.setattr(geom, "circle_intersections", lambda a, b: calls.update([frozenset((id(a), id(b)))]) or original(a, b))
    (contact,) = DiskConfiguration([("a", Disk(0j, 1)), ("b", Disk(1 + 0j, 1))]).contacts().values()
    assert contact.corners == contact.corners == original(contact.disk_i, contact.disk_j)
    assert not calls

    # the table places every pair's corners in its numpy pass, so whichever
    # readers run, no pair of a table costs a scalar call; the only calls
    # left are the isolation test's crossings of a disk of C with one of C~
    c = DiskConfiguration([(0, Disk(0j, 1.0)), (1, Disk(1.4 + 0j, 1.0)), (2, Disk(2.8 + 0j, 1.0))])
    ct = DiskConfiguration([(0, Disk(-0.02 + 0j, 0.8)), (1, Disk(1.45 + 0j, 0.8)), (2, Disk(3.0 + 0j, 1.0))])
    # three disks with a common interior point, listed against str order
    tight = DiskConfiguration([(2, Disk(0.5 + math.sqrt(3) / 2 * 1j, 1)), (1, Disk(1 + 0j, 1)), (0, Disk(0j, 1))])
    fmap = build_faithful_map(c, ct)
    for cfg in (c, ct, tight):
        for contact in cfg.contacts().values():
            pair = contact.pair
            assert eyes(cfg)[pair] is eye_of_pair(cfg, *pair) is eye_of_pair(cfg, *pair[::-1]) is contact.lens
            assert contact.corners is contact.lens.corners
        assert is_thin(cfg, interiors_only=True)[0] is (cfg is not tight)
    for cfg in (c, ct):
        boundary_complex(cfg)
    assert not subsumptive_subsets(c, ct).subsets[0].isolated
    for pair in eyes(c):
        fmap.eye_loop(*pair)
    tables = {frozenset(map(id, (eye.a, eye.b))) for cfg in (c, ct, tight) for eye in eyes(cfg).values()}
    assert len(tables) == 7
    assert set(calls) <= {frozenset((id(a), id(b))) for a in c.disks.values() for b in ct.disks.values()}


def test_is_thin_cases():
    tangent = DiskConfiguration(
        [(0, Disk(0j, 1)), (1, Disk(2 + 0j, 1)), (2, Disk(1 + math.sqrt(3) * 1j, 1))]
    )
    assert is_thin(tangent) == (True, None)

    tight = DiskConfiguration(
        [(0, Disk(0j, 1)), (1, Disk(1 + 0j, 1)), (2, Disk(0.5 + math.sqrt(3) / 2 * 1j, 1))]
    )
    flag, witness = is_thin(tight)
    assert not flag and set(witness) == {0, 1, 2}
    verdict, margin = grid_triple_oracle(tight.disks[0], tight.disks[1], tight.disks[2])
    assert verdict and margin > 1e-3

    two = DiskConfiguration([(0, Disk(0j, 1)), (1, Disk(1 + 0j, 1))])
    assert is_thin(two)[0]


def test_is_thin_interiors_only_variant():
    # three disks through one common boundary point but disjoint interiors
    p = 0j
    disks = [Disk(p + np.exp(1j * t), 1.0) for t in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    cfg = DiskConfiguration(list(enumerate(disks)))
    assert not is_thin(cfg)[0]
    assert is_thin(cfg, interiors_only=True)[0]
    # three circles through the same two points: no corner lies strictly
    # inside the third disk, but the midpoint of a pair's corners does
    coaxal = DiskConfiguration([(0, Disk(-0.5 + 0j, 1)), (1, Disk(0.5 + 0j, 1)), (2, Disk(0j, math.sqrt(3) / 2))])
    assert is_thin(coaxal, interiors_only=True) == (False, (0, 1, 2)) == _is_thin_reference(coaxal, interiors_only=True)


@pytest.mark.parametrize("interiors_only", [False, True])
def test_is_thin_matches_any_pair_filter(rng, interiors_only):
    # differential oracle: skipping every triple with a non-meeting pair gives
    # the same flag and witness as the old filter
    from diskrig.experiments import random_thin_config

    configs = [random_thin_config(rng) for _ in range(30)]
    while len(configs) < 150:
        items = [(k, Disk(complex(*rng.normal(0, 1.3, 2)), float(rng.uniform(0.4, 1.2)))) for k in range(7)]
        try:
            configs.append(DiskConfiguration(items))
        except ContainmentViolation:
            continue
    verdicts = []
    for cfg in configs:
        got = is_thin(cfg, interiors_only=interiors_only)
        assert got == _is_thin_reference(cfg, interiors_only=interiors_only)
        verdicts.append(got[0])
    assert 20 < sum(verdicts) < len(verdicts) - 20


# a fixed set of examples keeps tier-1 deterministic
EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@EXAMPLES
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 9),
    thin=st.booleans(),
    interiors_only=st.booleans(),
    order=st.randoms(use_true_random=False),
)
def test_is_thin_walks_contact_triangles(seed, n, thin, interiors_only, order):
    # differential oracle: the triangles of the contact graph give the same
    # flag and witness as every triple, in any listing order
    from diskrig.experiments import random_thin_config

    rng = np.random.default_rng(seed)
    if thin:
        cfg = random_thin_config(rng)
    else:
        while True:
            items = [(k, Disk(complex(*rng.normal(0, 1.3, 2)), float(rng.uniform(0.4, 1.2)))) for k in range(n)]
            try:
                cfg = DiskConfiguration(items)
                break
            except ContainmentViolation:
                continue
    items = cfg.items()
    order.shuffle(items)
    cfg = DiskConfiguration(items)
    assert is_thin(cfg, interiors_only=interiors_only) == _is_thin_reference(cfg, interiors_only=interiors_only)


def _reference_is_general_position(config, config_tilde):
    """is_general_position as it was: the scalar tests on every cross pair
    and on every corner against every circle of the other configuration."""
    report = []
    for i in config.labels:
        for j in config_tilde.labels:
            a, b = config.disks[i], config_tilde.disks[j]
            if circles_tangent(a, b):
                report.append(("tangential_cross_pair", i, j))
            if abs(a.center - b.center) <= geom.EPS_GEOM and abs(a.radius - b.radius) <= geom.EPS_GEOM:
                report.append(("coincident_boundaries", i, j))
    for cfg, other in ((config, config_tilde), (config_tilde, config)):
        for c in cfg.contacts().values():
            for kind, p in zip(c.kinds, c.corners):
                for j, d in other.items():
                    if abs(abs(p - d.center) - d.radius) <= geom.EPS_GEOM:
                        report.append(("special_point_on_circle", (*c.pair, kind), j))
    return (len(report) == 0), report


def _near_general_position_pair(rng, kind, delta, scale=1.0):
    """A chain C, scaled by scale, and a dilated copy with one disk replaced:
    a circle delta from external or internal tangency with a circle of C, a
    copy of a disk of C moved by delta, or a circle delta from a corner of C."""
    from diskrig.experiments import random_chain_config

    cfg = random_chain_config(rng).transformed(lambda d: Disk(d.center * scale, d.radius * scale))
    p = complex(*rng.normal(0, 1, 2)) * scale
    items = cfg.transformed(lambda d: Disk(p + (d.center - p) * 1.02, d.radius * 1.02)).items()
    k = int(rng.integers(len(items)))
    d = cfg.disks[items[k][0]]
    r = items[k][1].radius
    turn = np.exp(1j * rng.uniform(0, 2 * math.pi))
    if kind == "external":
        new = Disk(d.center + (d.radius + r + delta) * turn, r)
    elif kind == "internal":
        new = Disk(d.center + (abs(d.radius - r) + delta) * turn, r)
    elif kind == "coincident":
        new = Disk(d.center + abs(delta) * turn, d.radius + delta)
    else:
        corner = next(iter(cfg.contacts().values())).corners[int(rng.integers(2))]
        new = Disk(corner + (r + delta) * turn, r)
    items[k] = (items[k][0], new)
    return cfg, DiskConfiguration(items)


@EXAMPLES
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["external", "internal", "coincident", "corner", "random"]),
    exponent=st.floats(-10, -6),
    sign=st.sampled_from([-1, 1]),
    eps=st.sampled_from([None, 1e-7]),
    scale=st.sampled_from([1.0, 1e7, 1e8]),
)
@example(seed=4, kind="external", exponent=-10.0, sign=1, eps=None, scale=1e7)
@example(seed=0, kind="corner", exponent=-10.0, sign=1, eps=None, scale=1e8)
def test_general_position_prefilter_matches_every_pair(seed, kind, exponent, sign, eps, scale):
    # differential oracle: the candidates of the numpy prefilter give the
    # report of the scalar tests on every pair, in the same order, under the
    # default EPS_GEOM and under an override as --eps-geom makes it, also at
    # radii of 1e7 and more, where numpy's distances may differ from
    # Python's by more than EPS_GEOM
    from diskrig.experiments import random_chain_config

    rng = np.random.default_rng(seed)
    saved = geom.EPS_GEOM
    geom.EPS_GEOM = eps or saved
    try:
        if kind == "random":
            cfg, cfg_t = random_chain_config(rng), random_chain_config(rng)
        else:
            cfg, cfg_t = _near_general_position_pair(rng, kind, sign * 10**exponent, scale)
        assert is_general_position(cfg, cfg_t) == _reference_is_general_position(cfg, cfg_t)
        assert is_general_position(cfg_t, cfg) == _reference_is_general_position(cfg_t, cfg)
    except ContainmentViolation:
        pass
    finally:
        geom.EPS_GEOM = saved


def test_general_position_prefilter_reports_each_kind(rng):
    # the differential test's pairs reach every kind of report
    kinds = set()
    for kind in ("external", "internal", "coincident", "corner"):
        for _ in range(20):
            try:
                cfg, cfg_t = _near_general_position_pair(rng, kind, 1e-10)
            except ContainmentViolation:
                continue
            gp, report = is_general_position(cfg, cfg_t)
            assert (gp, report) == _reference_is_general_position(cfg, cfg_t)
            kinds.update(entry[0] for entry in report)
    assert kinds == {"tangential_cross_pair", "coincident_boundaries", "special_point_on_circle"}


def test_general_position_cases(rng):
    c = DiskConfiguration([("a", Disk(0j, 1)), ("b", Disk(1 + 0j, 1))])
    assert not is_general_position(c, c)[0]
    translated = c.transformed(lambda d: Disk(d.center + 10, d.radius))
    assert is_general_position(c, translated)[0]
    ok = 0
    for _ in range(50):
        from diskrig.experiments import random_chain_config

        cfg = random_chain_config(rng)
        p = complex(*rng.normal(0, 1, 2))
        dil = cfg.transformed(lambda d: Disk(p + (d.center - p) * 1.001, d.radius * 1.001))
        if is_general_position(cfg, dil)[0]:
            ok += 1
    assert ok >= 45


def test_eyes():
    tangent = DiskConfiguration(
        [(0, Disk(0j, 1)), (1, Disk(2 + 0j, 1)), (2, Disk(1 + math.sqrt(3) * 1j, 1))]
    )
    assert eyes(tangent) == {}

    pair = DiskConfiguration([("b", Disk(1 + 0j, 1)), ("a", Disk(0j, 1))])
    ((key, eye),) = eyes(pair).items()
    assert key == ("a", "b") and eye == Lens(Disk(0j, 1), Disk(1 + 0j, 1))
    u, v = eye.corners
    assert abs(u - (0.5 - math.sqrt(3) / 2 * 1j)) < 1e-12
    assert abs(v - (0.5 + math.sqrt(3) / 2 * 1j)) < 1e-12

    chain = DiskConfiguration([(1, Disk(0j, 1)), (2, Disk(1.2 + 0j, 1)), (3, Disk(2.4 + 0j, 1))])
    assert sorted(eyes(chain)) == [(1, 2), (2, 3)]


def test_eye_corner_alternation(rng):
    from conftest import random_overlapping_pair

    for _ in range(200):
        a, b = random_overlapping_pair(rng)
        cfg = DiskConfiguration([("a", a), ("b", b)])
        eye = eye_of_pair(cfg, "a", "b")
        t = a.angle_of(eye.corners[0])
        assert b.contains(a.point_at(t + 1e-5), strict=True)
        assert not b.contains(a.point_at(t - 1e-5))


def test_contact_graph_moebius_invariant(rng):
    from diskrig.experiments import random_chain_config
    from diskrig.errors import UnboundedImage

    done = 0
    while done < 50:
        cfg = random_chain_config(rng)
        pole = 30 + 5j
        m = compose(similarity(2.0 + 0.5j), inversion(pole))
        try:
            cfg_t = cfg.transformed(lambda d: apply_disk(m, d))
        except UnboundedImage:
            continue
        inc, inc_t = contact_graph(cfg), contact_graph(cfg_t)
        assert inc.same_combinatorics(inc_t)
        assert inc.max_theta_deviation(inc_t) < 1e-9
        done += 1


# --- classify_triple ------------------------------------------------------------


def test_classify_examples():
    # X inside A crossing only the boundary of B: signature {P cap Q, P},
    # v outside X: the unique matching code (letter f)
    a, b = Disk(0j, 1.4), Disk(2 + 0j, 1.4)
    x = Disk(0.2 + 0j, 1.0)
    code = classify_triple(a, b, x, "Atilde")
    assert code.family == "diamond" and code.letter == "f"
    assert set(code.signature[1]) == {"PQ", "P"}
    # X covers the whole pair: the B-minus-A quadrant is swallowed, not a code
    with pytest.raises(HypothesesViolated):
        classify_triple(a, b, Disk(1 + 0j, 5.0), "Atilde")


def test_classify_reflection_is_degenerate():
    # reflecting A across the corner chord gives a circle coaxal with both
    # boundaries: X then misses the A-minus-B region entirely
    a, b = Disk(0j, 1.0), Disk(1.2 + 0j, 0.9)
    u, v = circle_intersections(a, b)
    # reflection across the vertical line through the corners
    x = Disk(complex(2 * u.real - a.center.real, a.center.imag), a.radius)
    with pytest.raises(HypothesesViolated):
        classify_triple(a, b, x, "Atilde")


def test_classify_enlarged_reflection_swallows_a_quadrant():
    # enlarging the reflected disk makes it swallow B minus A whole, which the
    # classification excludes just like the exact coaxal reflection
    a, b = Disk(0j, 1.0), Disk(1.2 + 0j, 0.9)
    u, _ = circle_intersections(a, b)
    x = Disk(complex(2 * u.real - a.center.real, a.center.imag), a.radius * 1.05)
    with pytest.raises(HypothesesViolated):
        classify_triple(a, b, x, "Atilde")


def test_classify_letter_a_from_drawn_instance():
    a = Disk(1.97 - 0.09j, 0.3)
    b = Disk(2.57 - 0.09j, 0.7)
    x = Disk(1.47 - 0.09j, 0.7)
    code = classify_triple(a, b, x, "Atilde")
    assert code.letter == "a"
    assert set(code.signature[1]) == {"PQ", "Q", "C"}


def test_classify_known_letters():
    a, b = Disk(0.97 - 0.19j, 0.7), Disk(1.97 - 0.19j, 0.7)
    # the drawn instances of the eight-case figure, re-derived
    mid_small = Disk(1.47 - 0.04j, 0.3)
    assert classify_triple(Disk(0.97 - 0.04j, 0.7), Disk(1.97 - 0.04j, 0.7), mid_small, "Atilde").letter == "g"
    centered = Disk(1.47 - 0.19j, 0.7)
    assert classify_triple(a, b, centered, "Atilde").letter == "c"
    above = Disk(1.47 + 0.21j, 0.3)
    assert classify_triple(Disk(0.97 - 0.19j, 0.7), Disk(1.97 - 0.19j, 0.7), above, "Atilde").letter == "d"


def test_classify_similarity_invariant(rng):
    from conftest import random_overlapping_pair

    done = 0
    while done < 500:
        a, b = random_overlapping_pair(rng)
        x = Disk(complex(*rng.normal(0, 1.5, 2)), rng.uniform(0.4, 1.5))
        try:
            code = classify_triple(a, b, x, "Atilde")
        except DiskrigError:
            continue
        s = complex(*rng.normal(0, 1, 2))
        if abs(s) < 0.2:
            continue
        t = complex(*rng.normal(0, 3, 2))
        f = lambda d: Disk(d.center * s + t, d.radius * abs(s))
        code2 = classify_triple(f(a), f(b), f(x), "Atilde")
        assert code.letter == code2.letter
        done += 1


def test_classify_role_symmetry():
    # the heart family mirrors the diamond family with the base pair swapped
    a, b = Disk(0j, 1.4), Disk(2 + 0j, 1.4)
    x = Disk(1.8 + 0j, 1.0)
    code = classify_triple(a, b, x, "Btilde")
    assert code.family == "heart"
    mirrored = classify_triple(b, a, x, "Atilde")
    assert code.letter == mirrored.letter
