import math

import pytest

from diskrig.errors import HypothesisUnmet
from diskrig.geom import Disk
from diskrig.lemmas import (
    SUITES,
    EyeQuadruple,
    LemmaInstance,
    check,
    check_eye_lemmas,
    contained_loops_hypothesis,
    eye_boundary_crossing_pairs,
    finlandia_hypothesis,
    generate_contained_loops,
    generate_eye_quadruple,
    generate_finlandia,
    generate_hat,
    generate_meat,
    hat_hypothesis,
    meat_hypothesis,
    run_suite,
)

N_SMALL = 120  # per-suite count for the unit tests; the acceptance run uses 1000

# a closed chain of six overlapping disks and a nested copy of it
HEX_CHAIN_SOLID = [
    Disk(1.56 + 1.01j, 1.56),
    Disk(3.06 + 2.21j, 1.38),
    Disk(4.83 + 1.66j, 1.21),
    Disk(6.16 + 0.55j, 0.94),
    Disk(5.68 - 1.41j, 1.62),
    Disk(2.92 - 1.59j, 2.0),
]
HEX_CHAIN_NESTED = [
    Disk(1.53 + 0.92j, 1.41),
    Disk(3.03 + 2.28j, 1.25),
    Disk(4.87 + 1.62j, 1.07),
    Disk(6.12 + 0.57j, 0.82),
    Disk(5.72 - 1.37j, 1.44),
    Disk(2.99 - 1.5j, 1.77),
]


@pytest.mark.parametrize("lemma", sorted(SUITES))
def test_suite_strict_margins(lemma):
    margins = run_suite(lemma, seed=7, count=N_SMALL)
    assert len(margins) == N_SMALL
    assert min(margins) > 1e-7


def test_suites_are_seed_reproducible():
    a = run_suite("meat", seed=123, count=20)
    b = run_suite("meat", seed=123, count=20)
    assert a == b


def test_four_disk_symmetric_margin():
    # symmetric square instance: margin is exactly 2*pi - 4*theta
    side = 1.8
    disks = {k: Disk(c, 1.0) for k, c in enumerate([0j, side + 0j, side + side * 1j, side * 1j])}
    inst = LemmaInstance("four_disk", disks)
    margin = check(inst)
    from diskrig.geom import overlap_angle

    theta = overlap_angle(disks[0], disks[1])
    assert abs(margin - (2 * math.pi - 4 * theta)) < 1e-12


def test_four_disk_hypothesis_unmet():
    # orthogonal-angle construction degenerates: no curvilinear quadrilateral
    r = 1.0
    side = math.sqrt(2)  # orthogonal overlaps
    disks = {k: Disk(c, r) for k, c in enumerate([0j, side + 0j, side + side * 1j, side * 1j])}
    inst = LemmaInstance("four_disk", disks)
    with pytest.raises(HypothesisUnmet):
        check(inst)


def test_meat_concentric_shrink_strict(rng):
    # concentric shrink: every angle strictly drops, margin strictly positive
    done = 0
    while done < 30:
        inst = generate_meat(rng)
        if not meat_hypothesis(inst.disks):
            continue
        d = dict(inst.disks)
        d["Dt"] = Disk(d["D"].center, d["D"].radius * 0.8)
        inst2 = LemmaInstance("meat", d)
        try:
            m = check(inst2)
        except HypothesisUnmet:
            continue
        assert m > 0
        done += 1


def test_meat_near_degenerate_margin(rng):
    # margin approaches 0+ as the inner disk approaches the outer one
    done = 0
    while done < 20:
        inst = generate_meat(rng, shrink=1 - 1e-4)
        if not meat_hypothesis(inst.disks):
            continue
        m = check(inst)
        assert 0 < m < 0.05
        done += 1


def test_finlandia_near_degenerate(rng):
    done = 0
    while done < 20:
        inst = generate_finlandia(rng, shrink=1 - 1e-4)
        if not finlandia_hypothesis(inst.disks):
            continue
        m = check(inst)
        assert m > 0
        done += 1


def test_contained_loops_frozen_hex_chain():
    inst = LemmaInstance("contained_loops", {"solid": HEX_CHAIN_SOLID, "dashed": HEX_CHAIN_NESTED})
    margin = check(inst)
    assert margin > 0.1


def test_contained_loops_concentric(rng):
    done = 0
    while done < 20:
        inst = generate_contained_loops(rng)
        if not contained_loops_hypothesis(inst.disks):
            continue
        solid = inst.disks["solid"]
        dashed = [Disk(d.center, d.radius * 0.93) for d in solid]
        inst2 = LemmaInstance("contained_loops", {"solid": solid, "dashed": dashed})
        try:
            m = check(inst2)
        except HypothesisUnmet:
            continue
        assert m > 0
        done += 1


def test_contained_loops_all_lengths(rng):
    for n in range(3, 9):
        got = 0
        while got < 5:
            inst = generate_contained_loops(rng, n=n)
            if not contained_loops_hypothesis(inst.disks):
                continue
            assert check(inst) > 1e-7
            got += 1


def test_run_suite_tests_each_draw_once(monkeypatch):
    gen, hypothesis, margin = SUITES["hat"]
    draws, tested = [], []

    def drawing(rng):
        draws.append(gen(rng))
        return draws[-1]

    def testing(disks):
        tested.append(disks)
        return hypothesis(disks)

    monkeypatch.setitem(SUITES, "hat", (drawing, testing, margin))
    margins = run_suite("hat", seed=3, count=10)
    assert [inst.disks for inst in draws] == tested
    assert margins == [check(inst) for inst in draws if hypothesis(inst.disks)]


def test_check_reads_the_instance_suite(rng):
    # hat, shoes and pop share one triple-code hypothesis: a hat cast (code c)
    # is a pop cast as well, but not a shoes cast
    inst = generate_hat(rng)
    while not hat_hypothesis(inst.disks):
        inst = generate_hat(rng)
    assert check(inst) > 0
    assert check(LemmaInstance("pop", inst.disks)) > 0
    with pytest.raises(HypothesisUnmet):
        check(LemmaInstance("shoes", inst.disks))


# --- eye lemmas -------------------------------------------------------------------


def test_eye_lemmas_random(rng):
    done = 0
    while done < 400:
        q = generate_eye_quadruple(rng, mode="rotate" if done % 3 else "free")
        if q is None:
            continue
        report = check_eye_lemmas(q)
        assert report["lem1_ok"]
        if "lem2_ok" in report:
            assert report["lem2_ok"]
        for hyp, concl in report["lem3"]:
            if hyp:
                assert concl
        if "lem4_ok" in report:
            assert report["lem4_ok"]
        if "lem5_ok" in report:
            assert report["lem5_ok"]
        done += 1


def _threaded_eyes_instance():
    # both lenses from vertically stacked disks; the tilde lens is labeled so
    # that its eye arcs thread through the OPPOSITE plain circles (the tilde
    # pair is the mirror of the plain pair), giving the four-crossing
    # configuration of the lemma
    a = Disk(0 + 1.2j, 2.0)
    b = Disk(0 - 1.2j, 2.0)
    at = Disk(0 - 0.55j, 1.5)
    bt = Disk(0 + 0.55j, 1.5)
    return EyeQuadruple(a, b, at, bt)


def test_threaded_eyes_lem4_conclusions():
    q = _threaded_eyes_instance()
    E, Et = q.E, q.Et
    (u, v), (ut, vt) = E.corners, Et.corners
    assert len(eye_boundary_crossing_pairs(q)) == 4
    assert E.contains(ut, strict=True) and E.contains(vt, strict=True)
    assert not Et.contains(u) and not Et.contains(v)
    report = check_eye_lemmas(q)
    assert report["lem4_ok"] is True
    assert report["diff_regions_meet"] == (False, False)


def test_mirrored_labels_are_not_threaded():
    # swapping the tilde labels breaks the threading and the difference
    # regions then genuinely meet: the predicate must exclude it
    a = Disk(0 + 1.2j, 2.0)
    b = Disk(0 - 1.2j, 2.0)
    q = EyeQuadruple(a, b, Disk(0 + 0.55j, 1.5), Disk(0 - 0.55j, 1.5))
    report = check_eye_lemmas(q)
    assert "lem4_ok" not in report
    assert report["diff_regions_meet"] == (True, True)


def test_lem5_instances(rng):
    # constructed hypothesis instances: u in E~ and u~ in E
    done = 0
    while done < 25:
        q = generate_eye_quadruple(rng, mode="rotate")
        if q is None:
            continue
        E, Et = q.E, q.Et
        (u, _v), (ut, _vt) = E.corners, Et.corners
        if not (Et.contains(u, strict=True) and E.contains(ut, strict=True)):
            continue
        report = check_eye_lemmas(q)
        assert report["lem5_ok"] is True
        done += 1
