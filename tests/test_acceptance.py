"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes.
"""
import math

import numpy as np

from diskrig.boundary import build_faithful_map, fixed_point_index, loop_index, sample_loops
from diskrig.config import DiskConfiguration, contact_graph, eye_of_pair
from diskrig.errors import (
    CoincidentCorner,
    DiskrigError,
    HypothesesViolated,
    NearFixedPoint,
    NotTransverse,
    NoZeroIndexMap,
)
from diskrig.geom import Disk, DiskRelation, disk_relation
from diskrig.lemmas import SUITES, check_eye_lemmas, generate_eye_quadruple, run_suite
from diskrig.solver import (
    FixedBoundaryRadii,
    Triangulation,
    angle_sum,
    double_flower,
    flower,
    k4_disk,
    layout,
    rigidity_experiment,
    solve_radii,
)
from diskrig.subsumption import index_lower_bound
from diskrig.torus import (
    build_parametrization,
    check_eye_pair_hypotheses,
    find_zero_index_eye_map,
    graph_eta,
    index_via_torus,
    random_monotone_graph,
    verify_local_windings,
)

from conftest import random_monotone_pins
from test_boundary import NEGIDX_C, NEGIDX_CT, NEGIDX_PINS
from test_torus import SIX_CROSSING, checked_grids


def _report(criterion, ok, detail=""):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_circle_index_lemma():
    rng = np.random.default_rng(101)
    n_done = 0
    violations = 0
    while n_done < 1000:
        d1 = Disk(complex(*rng.normal(0, 1.5, 2)), float(rng.uniform(0.4, 1.6)))
        d2 = Disk(complex(*rng.normal(0, 1.5, 2)), float(rng.uniform(0.4, 1.6)))
        rel = disk_relation(d1, d2)
        if rel in (DiskRelation.EXTERNALLY_TANGENT, DiskRelation.INTERNALLY_TANGENT, DiskRelation.EQUAL):
            continue
        # a random monotone circle map and its inverse, from the swapped pins
        pins = random_monotone_pins(rng, d1, d2, 3)
        try:
            fwd = build_faithful_map(DiskConfiguration([("k", d1)]), DiskConfiguration([("k", d2)]), pins={"k": pins})
            eta = fixed_point_index(fwd).eta
            inv = build_faithful_map(DiskConfiguration([("k", d2)]), DiskConfiguration([("k", d1)]), pins={"k": [(zt, z) for z, zt in pins]})
            eta_inv = fixed_point_index(inv).eta
        except (NearFixedPoint, CoincidentCorner):
            continue
        if eta < 0 or eta != eta_inv:
            violations += 1
        if rel in (DiskRelation.FIRST_CONTAINS_SECOND, DiskRelation.SECOND_CONTAINS_FIRST) and eta != 1:
            violations += 1
        if rel is DiskRelation.DISJOINT and eta != 0:
            violations += 1
        n_done += 1
    _report(1, violations == 0, f"{n_done} pairs, {violations} violations")


def test_criterion_02_torus_formula(checked_grids):
    rng = np.random.default_rng(202)
    done = 0
    violations = 0
    windings_ok = True
    while done < 500:
        if done % 3 == 2:
            # eye pairs for higher crossing counts
            a = Disk(0j, 1.0)
            b = Disk(float(rng.uniform(0.4, 1.7)) + 0j, float(rng.uniform(0.7, 1.4)))
            at = Disk(complex(*rng.normal(0.3, 0.5, 2)), float(rng.uniform(0.8, 1.2)))
            bt = Disk(at.center + float(rng.uniform(0.4, 1.5)) * np.exp(1j * rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.7, 1.3)))
            try:
                k_obj = eye_of_pair(DiskConfiguration([("a", a), ("b", b)]), "a", "b")
                kt_obj = eye_of_pair(DiskConfiguration([("a", at), ("b", bt)]), "a", "b")
            except NotTransverse:
                continue
        else:
            k_obj = Disk(complex(*rng.normal(0, 1, 2)), float(rng.uniform(0.5, 1.5)))
            kt_obj = Disk(complex(*rng.normal(0, 1, 2)), float(rng.uniform(0.5, 1.5)))
            if disk_relation(k_obj, kt_obj) is not DiskRelation.OVERLAPPING:
                continue
        try:
            par = build_parametrization(k_obj, kt_obj)
            g = random_monotone_graph(par, rng)
            formula = index_via_torus(g)
            direct = graph_eta(g)
        except DiskrigError:
            continue
        if formula != direct:
            violations += 1
        if par.M and not verify_local_windings(par):
            windings_ok = False
        done += 1
    _report(2, violations == 0 and windings_ok, f"{done} pairs, {violations} formula mismatches")


def test_criterion_03_negative_index():
    fmap = build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS)
    eta = fixed_point_index(fmap).eta
    _report(3, eta == -1, f"eta = {eta}")


def test_criterion_04_lemma_suites():
    failures = []
    for lemma in sorted(SUITES):
        margins = run_suite(lemma, seed=404, count=1000)
        if min(margins) <= 1e-7:
            failures.append((lemma, min(margins)))
    # eye lemmas lem1..lem5 over 1000 quadruples
    rng = np.random.default_rng(405)
    done = 0
    eye_bad = 0
    while done < 1000:
        q = generate_eye_quadruple(rng, mode="rotate" if done % 3 else "free")
        if q is None:
            continue
        rep = check_eye_lemmas(q)
        checks = [rep["lem1_ok"], rep.get("lem2_ok", True), rep.get("lem4_ok", True), rep.get("lem5_ok", True)]
        checks += [c for h, c in rep["lem3"] if h]
        if not all(checks):
            eye_bad += 1
        done += 1
    ok = not failures and eye_bad == 0
    _report(4, ok, f"suites min-margins ok={not failures}, eye-lemma violations={eye_bad}")


def test_criterion_05_main_index_theorem():
    from diskrig.experiments import run_main_theorem_trial

    rng = np.random.default_rng(505)
    bad_bound = bad_a = bad_b = 0
    bounds_seen = set()
    for _ in range(200):
        rec = run_main_theorem_trial(rng)
        bounds_seen.add(rec["bound"])
        bad_bound += not rec["theorem_ok"]
        bad_a += not rec["obs_a_ok"]
        bad_b += not rec["main_b_ok"]
    ok = bad_bound == 0 and bad_a == 0 and bad_b == 0
    _report(5, ok, f"200 pairs, bounds seen {sorted(bounds_seen)}, violations {bad_bound}/{bad_a}/{bad_b}")


def test_criterion_06_zero_index_eye_maps():
    rng = np.random.default_rng(606)
    counts_seen = set()
    failures = 0
    done = 0
    # frozen six-crossing instances first
    for cand in SIX_CROSSING:
        (ca, ra), (cb, rb), (cat, rat), (cbt, rbt) = cand
        E = eye_of_pair(DiskConfiguration([("a", Disk(ca, ra)), ("b", Disk(cb, rb))]), "a", "b")
        Et = eye_of_pair(DiskConfiguration([("a", Disk(cat, rat)), ("b", Disk(cbt, rbt))]), "a", "b")
        try:
            par = check_eye_pair_hypotheses(E, Et)
        except HypothesesViolated:
            continue
        counts_seen.add(2 * par.M)
        try:
            g = find_zero_index_eye_map(E, Et)
            if graph_eta(g) != 0:
                failures += 1
        except NoZeroIndexMap:
            failures += 1
        done += 1
    while done < 80:
        q = generate_eye_quadruple(rng, mode="rotate" if done % 2 else "free")
        if q is None:
            continue
        E = eye_of_pair(DiskConfiguration([("a", q.A), ("b", q.B)]), "a", "b")
        Et = eye_of_pair(DiskConfiguration([("a", q.At), ("b", q.Bt)]), "a", "b")
        try:
            par = check_eye_pair_hypotheses(E, Et)
        except (HypothesesViolated, NotTransverse):
            continue
        counts_seen.add(2 * par.M)
        try:
            g = find_zero_index_eye_map(E, Et)
            if graph_eta(g) != 0:
                failures += 1
        except NoZeroIndexMap:
            failures += 1
        done += 1
    ok = failures == 0 and counts_seen == {0, 2, 4, 6}
    _report(6, ok, f"{done} pairs, crossing counts seen {sorted(counts_seen)}, failures {failures}")


def test_criterion_07_solver_anchors():
    problems = []
    tri = k4_disk()
    radii = solve_radii(tri, {}, FixedBoundaryRadii({1: 1.0, 2: 1.0, 3: 1.0}))
    if abs(radii[0] - 1 / (3 + 2 * math.sqrt(3))) > 1e-8:
        problems.append("descartes")
    tri6 = flower(6)
    radii6 = solve_radii(tri6, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)}))
    if abs(radii6[0] - 1.0) > 1e-10:
        problems.append("hex")
    theta = {frozenset((0, k)): math.pi / 3 for k in range(1, 7)}
    radm = solve_radii(tri6, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)}))

    def center_angle(r):
        a = math.sqrt(r * r + 1 + 2 * r * math.cos(math.pi / 3))
        return 6 * 2 * math.asin(1.0 / a)

    lo, hi = 0.1, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if center_angle(mid) > 2 * math.pi else (lo, mid)
    if abs(radm[0] - 0.5 * (lo + hi)) > 1e-9:
        problems.append("mixed-theta")
    for v in tri6.interior_vertices:
        if abs(angle_sum(tri6, v, radm, theta) - 2 * math.pi) > 1e-10:
            problems.append("angle-sum")
    cfg = layout(tri6, radm, theta)
    inc = contact_graph(cfg)
    for e in inc.edges:
        if abs(inc.theta[e] - theta.get(e, 0.0)) > 1e-7:
            problems.append("theta-reproduction")
    _report(7, not problems, f"problems: {problems or 'none'}")


def _hex_two_ring():
    verts = list(range(19))
    faces = []
    a = lambda i: 1 + (i % 6)
    r = lambda i: 7 + 2 * (i % 6)
    m = lambda i: 8 + 2 * (i % 6)
    for i in range(6):
        faces.append((0, a(i), a(i + 1)))
        faces.append((a(i), r(i), m(i)))
        faces.append((a(i), m(i), a(i + 1)))
        faces.append((a(i + 1), m(i), r(i + 1)))
    return Triangulation(verts, faces)


def test_criterion_08_rigidity_surrogate():
    rng = np.random.default_rng(808)
    worst = 0.0
    cases = 0
    tris = [flower(n) for n in (4, 5, 6, 7, 8, 9, 10, 12)] + [double_flower(), _hex_two_ring()]
    for tri in tris:
        assert len(tri.vertices) <= 30
        theta = {e: float(rng.uniform(0, math.pi / 2 * 0.95)) for e in tri.edges()}
        boundary = {v: float(rng.uniform(0.8, 1.25)) for v in tri.boundary_vertices}
        res = rigidity_experiment(tri, theta, boundary, seed=int(rng.integers(1 << 30)))
        worst = max(worst, res)
        cases += 1
    _report(8, cases == 10 and worst <= 1e-6, f"{cases} triangulations, worst residual {worst:.3g}")


def test_criterion_09_stability():
    rng = np.random.default_rng(909)
    problems = []
    # eta under x2 density and 1e-10 jitter (negative-index corpus)
    fmap = build_faithful_map(NEGIDX_C, NEGIDX_CT, pins=NEGIDX_PINS)
    base = fixed_point_index(fmap).eta
    if sum(loop_index(l) for l in sample_loops(fmap.loops(), 2)) != base:
        problems.append("eta-density")
    jit = lambda d: Disk(d.center + complex(*rng.normal(0, 1e-10, 2)), d.radius * (1 + 1e-10))
    fmap_j = build_faithful_map(NEGIDX_C.transformed(jit), NEGIDX_CT.transformed(jit), pins=NEGIDX_PINS)
    if fixed_point_index(fmap_j).eta != base:
        problems.append("eta-jitter")
    # crossing counts and classification codes
    from diskrig.config import classify_triple

    a, b = Disk(0j, 1.4), Disk(2 + 0j, 1.4)
    x = Disk(0.2 + 0j, 1.0)
    c0 = classify_triple(a, b, x, "Atilde").letter
    c1 = classify_triple(jit(a), jit(b), jit(x), "Atilde").letter
    if c0 != c1:
        problems.append("classify-jitter")
    par = build_parametrization(Disk(0j, 1.0), Disk(1 + 0j, 1.0))
    par_j = build_parametrization(jit(Disk(0j, 1.0)), jit(Disk(1 + 0j, 1.0)))
    if par.M != par_j.M:
        problems.append("crossings-jitter")
    # subsumption bound under jitter
    from diskrig.experiments import dilation_pair, random_thin_config

    c, ct = dilation_pair(random_thin_config(rng), rng)
    if index_lower_bound(c, ct) != index_lower_bound(c.transformed(jit), ct.transformed(jit)):
        problems.append("bound-jitter")
    _report(9, not problems, f"problems: {problems or 'none'}")


def test_criterion_10_cli_golden(tmp_path):
    import json

    from diskrig.cli import main

    doc = tmp_path / "tri.json"
    doc.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "disks": [],
                "triangulation": {
                    "faces": [[0, k, k % 6 + 1] for k in range(1, 7)],
                    "boundary_radii": {str(k): 1.0 + 0.05 * k for k in range(1, 7)},
                },
            }
        )
    )
    outs = []
    svgs = []
    for tag in ("x", "y"):
        o = tmp_path / f"out_{tag}.json"
        s = tmp_path / f"out_{tag}.svg"
        assert main(["--seed", "7", "solve", str(doc), "-o", str(o), "--svg", str(s)]) == 0
        outs.append(o.read_bytes())
        svgs.append(s.read_bytes())
    r1 = tmp_path / "r1.svg"
    r2 = tmp_path / "r2.svg"
    assert main(["--seed", "7", "render", str(tmp_path / "out_x.json"), "-o", str(r1), "--overlay", "eyes,labels"]) == 0
    assert main(["--seed", "7", "render", str(tmp_path / "out_x.json"), "-o", str(r2), "--overlay", "eyes,labels"]) == 0
    ok = outs[0] == outs[1] and svgs[0] == svgs[1] and r1.read_bytes() == r2.read_bytes()
    _report(10, ok, "solve + render byte-stable")
