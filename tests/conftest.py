import itertools
import math

import numpy as np
import pytest

from diskrig.geom import Disk


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)


def grid_triple_oracle(a: Disk, b: Disk, c: Disk, n: int = 400):
    """Dense grid oracle for triple intersection: (verdict, witness_margin).

    The margin is the largest distance by which a witness point clears all
    three boundaries (or, for empty verdicts, the smallest clearance failure).
    """
    lo_x = max(d.center.real - d.radius for d in (a, b, c))
    hi_x = min(d.center.real + d.radius for d in (a, b, c))
    lo_y = max(d.center.imag - d.radius for d in (a, b, c))
    hi_y = min(d.center.imag + d.radius for d in (a, b, c))
    if lo_x > hi_x or lo_y > hi_y:
        return False, math.inf
    xs = np.linspace(lo_x, hi_x, n)
    ys = np.linspace(lo_y, hi_y, n)
    X, Y = np.meshgrid(xs, ys)
    Z = X + 1j * Y
    depth = np.minimum.reduce([d.radius - np.abs(Z - d.center) for d in (a, b, c)])
    best = float(depth.max())
    return best >= 0, abs(best)


def triple_intersection_nonempty(a: Disk, b: Disk, c: Disk) -> bool:
    """Whether the three closed disks share a common point: the reference for
    is_thin, which reads the corners from the contact table instead.

    Uses the boundary-point criterion: valid when no disk of the triple
    contains another.  Tangency points count as witnesses.
    """
    from diskrig.errors import DegenerateTriple
    from diskrig.geom import DiskRelation, circle_intersections, disk_relation

    disks = (a, b, c)
    for i in range(3):
        for j in range(i + 1, 3):
            rel = disk_relation(disks[i], disks[j])
            if rel in (
                DiskRelation.FIRST_CONTAINS_SECOND,
                DiskRelation.SECOND_CONTAINS_FIRST,
                DiskRelation.INTERNALLY_TANGENT,
                DiskRelation.EQUAL,
            ):
                raise DegenerateTriple(f"containment between disks {i} and {j}")
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        di, dj, dk = disks[i], disks[j], disks[k]
        rel = disk_relation(di, dj)
        if rel is DiskRelation.OVERLAPPING:
            witnesses = circle_intersections(di, dj)
        elif rel is DiskRelation.EXTERNALLY_TANGENT:
            witnesses = (tangency_point(di, dj),)
        else:
            continue
        if any(dk.contains(w) for w in witnesses):
            return True
    return False


def tangency_point(a: Disk, b: Disk) -> complex:
    """The point where two externally tangent disks touch, computed as the
    scalar geometry computed it: the oracle of the contact table's tangency
    corners."""
    from diskrig import geom
    from diskrig.errors import NotTransverse

    d = abs(b.center - a.center)
    if abs(d - (a.radius + b.radius)) > 10 * geom.EPS_GEOM * max(1.0, d):
        raise NotTransverse("disks are not externally tangent")
    return a.center + (b.center - a.center) * (a.radius / d)


def random_disk(rng, center_scale=2.0, r_lo=0.4, r_hi=1.6) -> Disk:
    return Disk(complex(*rng.normal(0, center_scale, 2)), float(rng.uniform(r_lo, r_hi)))


def random_overlapping_pair(rng):
    from diskrig.geom import DiskRelation, disk_relation

    while True:
        a = random_disk(rng)
        theta = rng.uniform(0.05, 0.97) * math.pi
        r2 = rng.uniform(0.4, 1.6)
        d = math.sqrt(a.radius**2 + r2 * r2 + 2 * a.radius * r2 * math.cos(theta))
        b = Disk(a.center + d * np.exp(1j * rng.uniform(0, 2 * math.pi)), r2)
        if disk_relation(a, b) is DiskRelation.OVERLAPPING:
            return a, b


def ring_of_twelve(rng):
    """A closed ring of twelve overlapping disks, labelled 0..11, so that its
    pair (9, 10) is listed against str order; drawn as
    experiments.random_ring_config draws its rings of five to seven."""
    from diskrig.config import DiskConfiguration

    n, R = 12, 2.0
    gap = 2 * R * math.sin(math.pi / n)
    return DiskConfiguration(
        [(k, Disk(R * np.exp(1j * (2 * math.pi * k / n + rng.normal(0, 0.02))), gap / 2 * rng.uniform(1.1, 1.25))) for k in range(n)]
    )


def random_monotone_pins(rng, d: Disk, dt: Disk, k: int):
    """The pins of a random monotone circle map from the boundary of d onto
    that of dt: k sorted random angles on d matched in order to k sorted
    random angles on dt, as build_faithful_map's pins take them."""
    t = np.sort(rng.uniform(0, 2 * math.pi, k))
    tt = np.sort(rng.uniform(0, 2 * math.pi, k))
    return [(d.center + d.radius * np.exp(1j * a), dt.center + dt.radius * np.exp(1j * b)) for a, b in zip(t, tt)]


def tangency_flower_pair():
    """Two realizations of the six-petal tangency flower with different
    boundary radii: a pair that every normalization mode accepts (HypHyp
    after shrinking both into the unit disk)."""
    from diskrig.solver import FixedBoundaryRadii, flower, layout, solve_radii

    tri = flower(6)
    cfg = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)})), {})
    other = {k: [1.3, 0.8, 1.1, 0.9, 1.2, 1.0][k - 1] for k in range(1, 7)}
    cfg_t = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii(other)), {})
    return cfg, cfg_t


def _triple_interior_witness(a: Disk, b: Disk, c: Disk) -> bool:
    """Whether three disks that share a point share an interior point: a
    corner of an overlapping pair, or the midpoint of its two, strictly inside
    the third disk.  Each pair is classified and its corners computed afresh,
    in the order the triple is given."""
    from diskrig.geom import circle_intersections, overlaps

    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        if overlaps(x, y):
            for p in circle_intersections(x, y):
                if z.contains(p, strict=True):
                    return True
            u, v = circle_intersections(x, y)
            if z.contains((u + v) / 2, strict=True):
                return True
    return False


def _is_thin_reference(config, *, interiors_only=False):
    """is_thin as it was when every triple with a meeting pair was tested, and
    each triple's interior witness was computed from its disks: the oracle for
    the walk over contact-graph triangles and the contact table's corners."""
    from diskrig.geom import DiskRelation, disk_relation

    def meets(a, b):
        return disk_relation(a, b) in (DiskRelation.OVERLAPPING, DiskRelation.EXTERNALLY_TANGENT)

    for i, j, k in itertools.combinations(config.labels, 3):
        a, b, c = config.disks[i], config.disks[j], config.disks[k]
        if not (meets(a, b) or meets(a, c) or meets(b, c)):
            continue
        if triple_intersection_nonempty(a, b, c):
            if interiors_only and not _triple_interior_witness(a, b, c):
                continue
            return False, (i, j, k)
    return True, None


def _reference_classify(items):
    """DiskConfiguration._classify as it was: disk_relation on every pair, in
    combinations order of the str-sorted labels, and each overlap angle by
    its own scalar arccos; the oracle of the prefiltered contact table.
    Returns (key, pair, relation, theta) of each meeting pair in table order,
    or raises ContainmentViolation at the first pair where one disk contains
    the other."""
    from diskrig.errors import ContainmentViolation
    from diskrig.geom import DiskRelation, disk_relation

    disks = dict(items)
    table = []
    for i, j in itertools.combinations(sorted(disks, key=str), 2):
        a, b = disks[i], disks[j]
        rel = disk_relation(a, b)
        if rel is DiskRelation.OVERLAPPING:
            d = abs(a.center - b.center)
            x = (d * d - a.radius * a.radius - b.radius * b.radius) / (2 * a.radius * b.radius)
            theta = float(np.arccos(np.clip(x, -1.0, 1.0)))
        elif rel is DiskRelation.EXTERNALLY_TANGENT:
            theta = 0.0
        elif rel is DiskRelation.DISJOINT:
            continue
        else:
            raise ContainmentViolation(f"disk {i} vs {j}: {rel.value}")
        table.append((frozenset((i, j)), (i, j), rel, theta))
    return table
