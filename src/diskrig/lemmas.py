"""Randomized hypothesis-class generators and strict-inequality checks for the
geometric lemmas: the numerical verification layer.

Each suite in ``SUITES`` is a (generator, hypothesis, margin) triple.  A
generator draws a candidate instance; ``run_suite`` tests each draw's
hypothesis once and keeps the margin, in radians, of every draw that meets
it.  ``check`` validates an instance built by hand (or drawn) against its
suite's hypothesis before computing the margin.  Hypothesis-valid instances
must come out strictly positive.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import DiskConfiguration, classify_triple, eye_of_pair, eyes, is_general_position, is_thin
from .errors import ContainmentViolation, DiskrigError, HypothesisUnmet, NotTransverse
from .geom import (
    Arc,
    Disk,
    DiskRelation,
    Lens,
    Lune,
    arc_between,
    arc_circle_crossings,
    arc_in_disk,
    boundary_crossings,
    center_distance,
    circle_intersections,
    disk_relation,
    lens_in_disk,
    overlap_angle,
    overlaps,
    regions_meet,
)

TWO_PI = 2 * math.pi


@dataclass
class LemmaInstance:
    lemma_id: str
    disks: dict
    margin: float = math.nan


# --- four-disk quadrilateral ----------------------------------------------------


def four_disk_hypothesis(disks) -> bool:
    """A curvilinear-quadrilateral bounded complementary component whose four
    sides come from the four disks in cyclic order."""
    d = [disks[k] for k in range(4)]
    for k in range(4):
        if not overlaps(d[k], d[(k + 1) % 4]):
            return False
    for k in range(2):
        if disk_relation(d[k], d[k + 2]) is not DiskRelation.DISJOINT:
            return False
    centroid = sum(x.center for x in d) / 4
    if any(x.contains(centroid) for x in d):
        return False
    corners = []
    for k in range(4):
        a, b = d[k], d[(k + 1) % 4]
        cands = circle_intersections(a, b)
        inner = min(cands, key=lambda z: abs(z - centroid))
        others = [d[m] for m in range(4) if m not in (k, (k + 1) % 4)]
        if any(o.contains(inner) for o in others):
            return False
        corners.append(inner)
    # quadrilateral sides: the arc of each circle between its two corners must
    # stay clear of the other disks
    for k in range(4):
        za = corners[(k - 1) % 4]  # corner with previous disk
        zb = corners[k]  # corner with next disk
        arc = _near_arc(d[k], za, zb, centroid)
        others = [d[m] for m in range(4) if m != k]
        for o in others:
            pts = arc_circle_crossings(arc, o)
            interior = [z for z in pts if abs(z - arc.start) > 1e-9 and abs(z - arc.end) > 1e-9]
            if interior:
                return False
        mid = complex(arc.point(0.5))
        if any(o.contains(mid, strict=True) for o in others):
            return False
    return True


def _near_arc(disk, za, zb, toward) -> Arc:
    a1 = arc_between(disk, za, zb)
    a2 = arc_between(disk, zb, za)
    return min((a1, a2), key=lambda a: abs(complex(a.point(0.5)) - toward))


def _four_disk_margin(d) -> float:
    return TWO_PI - sum(overlap_angle(d[k], d[(k + 1) % 4]) for k in range(4))


def generate_four_disk(rng) -> LemmaInstance:
    side = rng.uniform(1.55, 1.95)
    base = [0j, complex(side, 0), complex(side, side), complex(0, side)]
    disks = {}
    for k in range(4):
        c = base[k] + complex(*rng.normal(0, 0.06, 2))
        disks[k] = Disk(c, rng.uniform(0.85, 1.1))
    return LemmaInstance("four_disk", disks)


# --- meat -----------------------------------------------------------------------


def meat_hypothesis(disks) -> bool:
    D, Dt = disks["D"], disks["Dt"]
    dm, dp = disks["dm"], disks["dp"]
    if disk_relation(D, Dt) is not DiskRelation.FIRST_CONTAINS_SECOND:
        return False
    if not all(overlaps(d, body) for d in (dm, dp) for body in (D, Dt)):
        return False
    try:
        # labels in str order keep the pairs (dm, dp), (dm, D), (dp, D); the
        # configuration refuses dm and dp when one contains the other
        return is_thin(DiskConfiguration(enumerate((dm, dp, D))))[0]
    except DiskrigError:
        return False


def _meat_margin(d) -> float:
    lhs = overlap_angle(d["Dt"], d["dm"]) + overlap_angle(d["Dt"], d["dp"])
    rhs = overlap_angle(d["D"], d["dm"]) + overlap_angle(d["D"], d["dp"])
    return rhs - lhs


def generate_meat(rng, *, shrink=None) -> LemmaInstance:
    D = Disk(0j, 1.0)
    s = shrink if shrink is not None else rng.uniform(0.55, 0.9)
    off = rng.uniform(0, (1 - s) * 0.85)
    ang = rng.uniform(0, TWO_PI)
    Dt = Disk(off * np.exp(1j * ang), s)
    phi = rng.uniform(0, TWO_PI)
    dphi = rng.uniform(0.9 * math.pi / 2, 1.25 * math.pi)
    disks = {"D": D, "Dt": Dt}
    for name, p in (("dm", phi), ("dp", phi + dphi)):
        r = rng.uniform(0.6, 1.4)
        dist = rng.uniform(max(1.02, 0.75 + r * 0.5), 0.95 + r)
        disks[name] = Disk(dist * np.exp(1j * p), r)
    return LemmaInstance("meat", disks)


# --- finlandia --------------------------------------------------------------------


def finlandia_hypothesis(disks) -> bool:
    A, B, At, Bt = disks["A"], disks["B"], disks["At"], disks["Bt"]
    if not overlaps(A, B) or not overlaps(At, Bt):
        return False
    if disk_relation(A, At) is not DiskRelation.FIRST_CONTAINS_SECOND:
        return False
    if disk_relation(B, Bt) is not DiskRelation.FIRST_CONTAINS_SECOND:
        return False
    if disk_relation(B, At) is DiskRelation.FIRST_CONTAINS_SECOND:
        return False
    if disk_relation(A, Bt) is DiskRelation.FIRST_CONTAINS_SECOND:
        return False
    if abs(overlap_angle(A, B) - overlap_angle(At, Bt)) > 1e-9:
        return False
    # the cross angles in the conclusion must be defined
    return overlaps(At, B) and overlaps(A, Bt)


def _finlandia_margin(d) -> float:
    return overlap_angle(d["At"], d["B"]) + overlap_angle(d["A"], d["Bt"]) - 2 * overlap_angle(d["A"], d["B"])


def generate_finlandia(rng, *, shrink=None) -> LemmaInstance:
    theta = rng.uniform(0.15, 0.9) * math.pi
    rB = rng.uniform(0.7, 1.3)
    A = Disk(0j, 1.0)
    B = Disk(center_distance(1.0, rB, theta) + 0j, rB)
    st = shrink if shrink is not None else rng.uniform(0.6, 0.92)
    rat = st * rng.uniform(0.9, 1.0)
    cat = complex(*rng.normal(0, (1 - rat) * 0.4, 2))
    At = Disk(cat, rat)
    rbt = rB * st * rng.uniform(0.85, 1.0)
    direction = np.exp(1j * rng.uniform(-0.5, 0.5))
    Bt = Disk(cat + center_distance(rat, rbt, theta) * direction, rbt)
    return LemmaInstance("finlandia", {"A": A, "B": B, "At": At, "Bt": Bt})


# --- mogwai ------------------------------------------------------------------------


def mogwai_hypothesis(disks) -> bool:
    try:
        # the configuration refuses a disk that contains another
        eye = eye_of_pair(DiskConfiguration(enumerate((disks["A"], disks["B"], disks["C"]))), 0, 2)
    except (ContainmentViolation, NotTransverse):
        return False
    return lens_in_disk(eye, disks["B"])


def _mogwai_margin(d) -> float:
    if not overlaps(d["A"], d["B"]):
        return -math.inf  # lemma asserts the overlap; flag loudly
    return overlap_angle(d["A"], d["B"]) - overlap_angle(d["A"], d["C"])


def generate_mogwai(rng) -> LemmaInstance:
    A = Disk(0j, 1.0)
    rC = rng.uniform(0.5, 1.4)
    theta = rng.uniform(0.1, 0.85) * math.pi
    C = Disk(center_distance(1.0, rC, theta) * np.exp(1j * rng.uniform(0, TWO_PI)), rC)
    lens = Lens(A, C)
    u, v = lens.corners
    mid = (u + v) / 2
    slack = rng.uniform(0.15, 0.9)
    center = mid + complex(*rng.normal(0, 0.1, 2))
    radius = max(abs(u - center), abs(v - center)) * (1 + slack)
    return LemmaInstance("mogwai", {"A": A, "B": Disk(center, radius), "C": C})


# --- contained loops ------------------------------------------------------------------


def contained_loops_hypothesis(disks) -> bool:
    solid, dashed = disks["solid"], disks["dashed"]
    n = len(solid)
    if n < 3 or len(dashed) != n:
        return False
    for i in range(n):
        if disk_relation(solid[i], dashed[i]) is not DiskRelation.FIRST_CONTAINS_SECOND:
            return False
        if not overlaps(solid[i], solid[(i + 1) % n]):
            return False
        if not overlaps(dashed[i], dashed[(i + 1) % n]):
            return False
    for i in range(n):
        for j in range(i + 2, n):
            if (i, j) == (0, n - 1):
                continue
            if disk_relation(solid[i], solid[j]) is not DiskRelation.DISJOINT:
                return False
    cfg = DiskConfiguration(list(enumerate(solid)))
    cfg_t = DiskConfiguration(list(enumerate(dashed)))
    if not is_thin(cfg)[0] or not is_thin(cfg_t)[0]:
        return False
    return is_general_position(cfg, cfg_t)[0]


def _contained_loops_margin(d) -> float:
    solid, dashed = d["solid"], d["dashed"]
    n = len(solid)
    s1 = sum(overlap_angle(solid[i], solid[(i + 1) % n]) for i in range(n))
    s2 = sum(overlap_angle(dashed[i], dashed[(i + 1) % n]) for i in range(n))
    return s1 - s2


def generate_contained_loops(rng, *, n=None) -> LemmaInstance:
    n = n or int(rng.integers(3, 9))
    R = 2.0
    gap = 2 * R * math.sin(math.pi / n)
    base_r = gap / 2 * rng.uniform(1.08, 1.30)
    solid = []
    dashed = []
    for k in range(n):
        ang = TWO_PI * k / n + rng.normal(0, 0.02)
        c = R * np.exp(1j * ang)
        r = base_r * rng.uniform(0.97, 1.05)
        solid.append(Disk(c, r))
        s = rng.uniform(0.88, 0.96)
        off = complex(*rng.normal(0, r * (1 - s) * 0.3, 2))
        dashed.append(Disk(c + off, r * s))
    return LemmaInstance("contained_loops", {"solid": solid, "dashed": dashed})


# --- hat / shoes / pop (three-disk configurations via the topological codes) -------------


def _triple_code(dm: Disk, dp: Disk, D: Disk):
    try:
        return classify_triple(dm, dp, D, "Atilde").letter
    except DiskrigError:
        return None


def _triple_code_hypothesis(*codes):
    """Hypothesis of hat, shoes and pop: dm, dp and D overlap pairwise, none
    contains another, and the triple's topological code is one of `codes`."""

    def hypothesis(disks) -> bool:
        dm, dp, D = disks["dm"], disks["dp"], disks["D"]
        return overlaps(dm, dp) and overlaps(dm, D) and overlaps(dp, D) and _triple_code(dm, dp, D) in codes

    return hypothesis


hat_hypothesis = _triple_code_hypothesis("c")
shoes_hypothesis = _triple_code_hypothesis("d", "e")
pop_hypothesis = _triple_code_hypothesis("c", "g")


def _hat_margin(d) -> float:
    lhs = math.pi + overlap_angle(d["dm"], d["dp"])
    rhs = overlap_angle(d["dm"], d["D"]) + overlap_angle(d["dp"], d["D"])
    return rhs - lhs


def _shoes_margin(d) -> float:
    lhs = overlap_angle(d["dm"], d["D"]) + overlap_angle(d["dp"], d["D"])
    rhs = math.pi + overlap_angle(d["dm"], d["dp"])
    return rhs - lhs


def _pop_margin(d) -> float:
    base = overlap_angle(d["dm"], d["dp"])
    return min(overlap_angle(d["dm"], d["D"]), overlap_angle(d["dp"], d["D"])) - base


def generate_hat(rng) -> LemmaInstance:
    r1, r2 = rng.uniform(0.6, 1.1, 2)
    theta = rng.uniform(0.2, 0.95) * math.pi
    dm = Disk(0j, r1)
    dp = Disk(center_distance(r1, r2, theta) + 0j, r2)
    u, v = circle_intersections(dm, dp)
    mid = (u + v) / 2
    R = abs(u - mid) * rng.uniform(1.4, 3.0) + rng.uniform(0.2, 0.8)
    D = Disk(mid + complex(*rng.normal(0, 0.15, 2)), R)
    return LemmaInstance("hat", {"dm": dm, "dp": dp, "D": D})


def generate_shoes(rng) -> LemmaInstance:
    r1, r2 = rng.uniform(0.7, 1.2, 2)
    theta = rng.uniform(0.25, 0.9) * math.pi
    dm = Disk(0j, r1)
    dp = Disk(center_distance(r1, r2, theta) + 0j, r2)
    u, v = circle_intersections(dm, dp)
    corner = u if rng.random() < 0.5 else v
    R = rng.uniform(0.45, 1.0)
    D = Disk(corner + complex(*rng.normal(0, R * 0.35, 2)), R)
    return LemmaInstance("shoes", {"dm": dm, "dp": dp, "D": D})


def generate_pop(rng) -> LemmaInstance | None:
    if rng.random() < 0.5:
        return LemmaInstance("pop", generate_hat(rng).disks)
    # pop1: small disk swallowed by the union of two larger overlapping disks
    r1, r2 = rng.uniform(0.9, 1.3, 2)
    theta = rng.uniform(0.3, 0.8) * math.pi
    dm = Disk(0j, r1)
    dist = center_distance(r1, r2, theta)
    dp = Disk(dist + 0j, r2)
    R = rng.uniform(0.3, 0.62)
    D = Disk(complex(dist / 2 + rng.normal(0, 0.08), rng.normal(0, 0.08)), R)
    # this branch draws the swallowed case only: code g, not the hat's c
    return LemmaInstance("pop", {"dm": dm, "dp": dp, "D": D}) if _triple_code(dm, dp, D) == "g" else None


# --- eye lemmas -----------------------------------------------------------------------


@dataclass
class EyeQuadruple:
    A: Disk
    B: Disk
    At: Disk
    Bt: Disk

    @functools.cached_property
    def E(self) -> Lens:
        return Lens(self.A, self.B)

    @functools.cached_property
    def Et(self) -> Lens:
        return Lens(self.At, self.Bt)


def quadruple_general_position(q: EyeQuadruple) -> bool:
    cfg = DiskConfiguration([("a", q.A), ("b", q.B)])
    cfg_t = DiskConfiguration([("a", q.At), ("b", q.Bt)])
    return bool(eyes(cfg)) and bool(eyes(cfg_t)) and is_general_position(cfg, cfg_t)[0]


def eye_boundary_crossing_pairs(q: EyeQuadruple):
    """Eye-boundary crossing points tagged by (plain circle, tilde circle):
    each tag is ("A"|"B", "At"|"Bt")."""
    return [
        (("A" if a.disk is q.A else "B", "At" if b.disk is q.At else "Bt"), z)
        for a, b, z in boundary_crossings(q.E, q.Et)
    ]


def check_eye_lemmas(q: EyeQuadruple) -> dict:
    """Verify every applicable eye-lemma conclusion on the quadruple."""
    if not quadruple_general_position(q):
        raise HypothesisUnmet("quadruple not in general position")
    E, Et = q.E, q.Et
    (u, v), (ut, vt) = E.corners, Et.corners
    tags = sorted(t for t, _z in eye_boundary_crossing_pairs(q))
    n_cross = len(tags)
    report = {"crossings": n_cross, "lem1_ok": n_cross in (0, 2, 4, 6)}

    a_meet = regions_meet(Lune(q.A, q.B), Lune(q.At, q.Bt))
    b_meet = regions_meet(Lune(q.B, q.A), Lune(q.Bt, q.At))
    report["diff_regions_meet"] = (a_meet, b_meet)

    if n_cross == 6 and a_meet and b_meet:
        ok = not (Et.contains(u) or Et.contains(v) or E.contains(ut) or E.contains(vt))
        report["lem2_ok"] = ok

    report["lem3"] = _lem3_report(q, a_meet, b_meet)

    if n_cross == 4 and E.contains(ut, strict=True) and E.contains(vt, strict=True) and not Et.contains(u) and not Et.contains(v):
        # the threaded configuration also requires the crossings to pair the
        # tilde eye arcs with the opposite plain circles
        if tags == [("A", "Bt"), ("A", "Bt"), ("B", "At"), ("B", "At")]:
            report["lem4_ok"] = (not a_meet) and (not b_meet)

    if Et.contains(u, strict=True) and E.contains(ut, strict=True):
        report["lem5_ok"] = (not a_meet) or (not b_meet)
    return report


def _lem3_report(q: EyeQuadruple, a_meet: bool, b_meet: bool):
    """The four disjointness implications; each entry is (hypothesis_held,
    conclusion_ok or None).  a_meet and b_meet say whether the A-side and
    B-side difference regions meet."""
    arc_a, arc_b = q.E.boundary_arcs()
    arc_at, arc_bt = q.Et.boundary_arcs()  # [u~ -> v~] along At, then [v~ -> u~] along Bt
    out = []
    cases = [
        (arc_at, q.A, arc_bt, not b_meet),
        (arc_bt, q.B, arc_at, not a_meet),
        (arc_a, q.At, arc_b, not b_meet),
        (arc_b, q.Bt, arc_a, not a_meet),
    ]
    for inside_arc, big, other_arc, conclusion in cases:
        hyp = arc_in_disk(inside_arc, big) and len(arc_circle_crossings(other_arc, big)) > 0
        out.append((hyp, conclusion if hyp else None))
    return out


def generate_eye_quadruple(rng, *, mode="free") -> EyeQuadruple | None:
    """Random general-position quadruples; mode biases toward higher crossing
    counts ("rotate" reuses the base pair rotated about the eye center)."""
    theta = rng.uniform(0.2, 0.95) * math.pi
    rB = rng.uniform(0.7, 1.3)
    A = Disk(0j, 1.0)
    B = Disk(center_distance(1.0, rB, theta) + 0j, rB)
    if mode == "rotate":
        u, v = circle_intersections(A, B)
        pivot = (u + v) / 2 + complex(*rng.normal(0, 0.05, 2))
        rot = np.exp(1j * rng.uniform(0.15, math.pi - 0.15))
        scale = rng.uniform(0.9, 1.12)
        move = complex(*rng.normal(0, 0.08, 2))
        f = lambda z: pivot + (z - pivot) * rot * scale + move
        At = Disk(f(A.center), A.radius * scale)
        Bt = Disk(f(B.center), B.radius * scale)
    else:
        thetat = rng.uniform(0.2, 0.95) * math.pi
        rAt, rBt = rng.uniform(0.6, 1.4, 2)
        ct = complex(*rng.normal(0, 0.8, 2))
        direction = np.exp(1j * rng.uniform(0, TWO_PI))
        At = Disk(ct, rAt)
        Bt = Disk(ct + center_distance(rAt, rBt, thetat) * direction, rBt)
    q = EyeQuadruple(A, B, At, Bt)
    try:
        if not quadruple_general_position(q):
            return None
    except DiskrigError:
        return None
    return q


# --- registry used by the CLI and the acceptance suite ------------------------------


SUITES = {
    "four_disk": (generate_four_disk, four_disk_hypothesis, _four_disk_margin),
    "meat": (generate_meat, meat_hypothesis, _meat_margin),
    "finlandia": (generate_finlandia, finlandia_hypothesis, _finlandia_margin),
    "mogwai": (generate_mogwai, mogwai_hypothesis, _mogwai_margin),
    "contained_loops": (generate_contained_loops, contained_loops_hypothesis, _contained_loops_margin),
    "hat": (generate_hat, hat_hypothesis, _hat_margin),
    "shoes": (generate_shoes, shoes_hypothesis, _shoes_margin),
    "pop": (generate_pop, pop_hypothesis, _pop_margin),
}


def check(instance: LemmaInstance) -> float:
    """The instance's margin in radians, after validating its suite's
    hypothesis (HypothesisUnmet when it fails)."""
    _gen, hypothesis, margin = SUITES[instance.lemma_id]
    if not hypothesis(instance.disks):
        raise HypothesisUnmet(f"{instance.lemma_id} cast invalid")
    instance.margin = margin(instance.disks)
    return instance.margin


def run_suite(lemma_id: str, seed: int, count: int):
    """Draw instances until `count` meet the hypothesis and return their margins."""
    rng = np.random.default_rng(seed)
    gen, hypothesis, margin = SUITES[lemma_id]
    margins = []
    attempts = 0
    while len(margins) < count:
        attempts += 1
        if attempts > 400 * count:
            raise HypothesisUnmet(f"generator for {lemma_id} starves: {len(margins)}/{count}")
        inst = gen(rng)
        if inst is not None and hypothesis(inst.disks):
            margins.append(margin(inst.disks))
    return margins
