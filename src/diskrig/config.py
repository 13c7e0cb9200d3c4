"""Disk configurations, contact graphs, incidence data, thinness and
general-position predicates, eyes, and the three-disk topological classifier.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import geom
from .errors import ContainmentViolation, HypothesesViolated, NotTransverse
from .geom import (
    Disk,
    DiskRelation,
    Lens,
    circle_intersections,
    disk_relation,
    meets,
    overlap_angle,
    overlaps,
    solve_apollonius,
    tangency_point,
    triple_intersection_nonempty,
)


class DiskConfiguration:
    """Labeled collection of closed disks, none contained in another."""

    def __init__(self, items):
        items = list(items)
        labels = [k for k, _ in items]
        if len(set(labels)) != len(labels):
            raise ContainmentViolation("labels must be unique")
        self.labels = labels
        self.disks = dict(items)
        for i, j in itertools.combinations(labels, 2):
            rel = disk_relation(self.disks[i], self.disks[j])
            if rel in (
                DiskRelation.FIRST_CONTAINS_SECOND,
                DiskRelation.SECOND_CONTAINS_FIRST,
                DiskRelation.INTERNALLY_TANGENT,
                DiskRelation.EQUAL,
            ):
                raise ContainmentViolation(f"disk {i} vs {j}: {rel.value}")

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, label) -> Disk:
        return self.disks[label]

    def items(self):
        return [(k, self.disks[k]) for k in self.labels]

    def restricted(self, subset) -> "DiskConfiguration":
        keep = set(subset)
        return DiskConfiguration([(k, d) for k, d in self.items() if k in keep])

    def transformed(self, fn) -> "DiskConfiguration":
        return DiskConfiguration([(k, fn(d)) for k, d in self.items()])


@dataclass(frozen=True)
class IncidenceData:
    vertices: frozenset
    edges: frozenset  # of frozenset pairs
    theta: dict  # edge -> angle in [0, pi)

    def same_combinatorics(self, other: "IncidenceData") -> bool:
        return self.vertices == other.vertices and self.edges == other.edges

    def max_theta_deviation(self, other: "IncidenceData") -> float:
        if not self.same_combinatorics(other):
            return math.inf
        if not self.edges:
            return 0.0
        return max(abs(self.theta[e] - other.theta[e]) for e in self.edges)


def contact_graph(config: DiskConfiguration) -> IncidenceData:
    """Edges for meeting pairs; tangency edges get angle exactly 0."""
    edges = set()
    theta = {}
    for i, j in itertools.combinations(config.labels, 2):
        a, b = config.disks[i], config.disks[j]
        rel = disk_relation(a, b)
        if rel is DiskRelation.OVERLAPPING:
            e = frozenset((i, j))
            edges.add(e)
            theta[e] = overlap_angle(a, b)
        elif rel is DiskRelation.EXTERNALLY_TANGENT:
            e = frozenset((i, j))
            edges.add(e)
            theta[e] = 0.0
    return IncidenceData(frozenset(config.labels), frozenset(edges), theta)


def is_thin(config: DiskConfiguration, *, interiors_only: bool = False):
    """(flag, witness): no three disks share a common point (Def. default) or,
    with interiors_only, no common interior point."""
    for i, j, k in itertools.combinations(config.labels, 3):
        a, b, c = config.disks[i], config.disks[j], config.disks[k]
        # a common point needs every pair of the three to meet
        if not (meets(a, b) and meets(a, c) and meets(b, c)):
            continue
        if triple_intersection_nonempty(a, b, c):
            if interiors_only and not _triple_interior_witness(a, b, c):
                continue
            return False, (i, j, k)
    return True, None


def _triple_interior_witness(a: Disk, b: Disk, c: Disk) -> bool:
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        if overlaps(x, y):
            for p in circle_intersections(x, y):
                if z.contains(p, strict=True):
                    return True
            u, v = circle_intersections(x, y)
            if z.contains((u + v) / 2, strict=True):
                return True
    return False


def is_general_position(config: DiskConfiguration, config_tilde: DiskConfiguration):
    """(flag, report): every cross pair transverse as closed Jordan domains and
    no pair-intersection point of one configuration on a boundary circle of
    the other."""
    report = []
    for i in config.labels:
        for j in config_tilde.labels:
            a, b = config.disks[i], config_tilde.disks[j]
            d = abs(a.center - b.center)
            if abs(d - (a.radius + b.radius)) <= geom.EPS_GEOM or abs(d - abs(a.radius - b.radius)) <= geom.EPS_GEOM:
                report.append(("tangential_cross_pair", i, j))
            if d <= geom.EPS_GEOM and abs(a.radius - b.radius) <= geom.EPS_GEOM:
                report.append(("coincident_boundaries", i, j))
    special = _special_points(config)
    special_t = _special_points(config_tilde)
    for tag, p in special:
        for j in config_tilde.labels:
            b = config_tilde.disks[j]
            if abs(abs(p - b.center) - b.radius) <= geom.EPS_GEOM:
                report.append(("special_point_on_circle", tag, j))
    for tag, p in special_t:
        for i in config.labels:
            a = config.disks[i]
            if abs(abs(p - a.center) - a.radius) <= geom.EPS_GEOM:
                report.append(("special_point_on_circle", tag, i))
    return (len(report) == 0), report


def _special_points(config: DiskConfiguration):
    pts = []
    for i, j in itertools.combinations(config.labels, 2):
        a, b = config.disks[i], config.disks[j]
        rel = disk_relation(a, b)
        if rel is DiskRelation.OVERLAPPING:
            u, v = circle_intersections(a, b)
            pts.append(((i, j, "u"), u))
            pts.append(((i, j, "v"), v))
        elif rel is DiskRelation.EXTERNALLY_TANGENT:
            pts.append(((i, j, "t"), tangency_point(a, b)))
    return pts


@dataclass(frozen=True)
class Eye:
    """Lens of an overlapping pair with corners labeled by the orientation
    convention: the boundary of disk i enters disk j at corner_u."""

    pair: tuple
    disk_i: Disk
    disk_j: Disk
    corner_u: complex
    corner_v: complex

    @property
    def lens(self) -> Lens:
        return Lens(self.disk_i, self.disk_j)

    def contains(self, z: complex, *, strict: bool = False) -> bool:
        return self.disk_i.contains(z, strict=strict) and self.disk_j.contains(z, strict=strict)


def eyes(config: DiskConfiguration) -> list[Eye]:
    """One eye per overlapping pair, keyed by the unordered pair in label order."""
    out = []
    for i, j in itertools.combinations(config.labels, 2):
        a, b = config.disks[i], config.disks[j]
        if disk_relation(a, b) is DiskRelation.OVERLAPPING:
            u, v = circle_intersections(a, b)
            out.append(Eye((i, j), a, b, u, v))
    return out


def eye_of_pair(config: DiskConfiguration, i, j) -> Eye:
    a, b = config.disks[i], config.disks[j]
    if disk_relation(a, b) is not DiskRelation.OVERLAPPING:
        raise NotTransverse(f"pair ({i},{j}) does not overlap")
    u, v = circle_intersections(a, b)
    return Eye((i, j), a, b, u, v)


# --- triple classification (quasi-quadrant signatures) ------------------------

FAMILIES = {"Atilde": "diamond", "Btilde": "heart", "Aplain": "spade", "Bplain": "club"}

# signature -> letter; signature is (v_in_x, frozenset of quadrant tags met by
# the boundary of X).  Quadrants: "PQ" = P cap Q, "P" = P minus Q, "Q" = Q
# minus P, "C" = complement.
_CODE_TABLE = {
    (True, frozenset({"PQ", "Q", "C"})): "a",
    (True, frozenset({"Q", "C"})): "b",
    (True, frozenset({"P", "Q", "C"})): "c",
    (True, frozenset({"PQ", "P", "Q", "C"})): "d",
    (False, frozenset({"PQ", "P", "Q", "C"})): "e",
    (False, frozenset({"P", "PQ"})): "f",
    (False, frozenset({"PQ", "P", "Q"})): "g",
    (False, frozenset({"PQ", "P", "C"})): "h",
}


@dataclass(frozen=True)
class TripleConfigCode:
    family: str
    letter: str
    signature: tuple = field(default=())

    def __str__(self):
        return f"{self.family}:{self.letter}"


def quadrant_signature(p: Disk, q: Disk, x: Disk) -> frozenset:
    """Which of the four quasi-quadrants the boundary circle of x passes
    through, relative to the ordered overlapping pair (p, q)."""
    cuts = []
    for other in (p, q):
        if disk_relation(x, other) is DiskRelation.OVERLAPPING:
            cuts.extend(circle_intersections(x, other))
    if not cuts:
        angles = [0.0]
        spans = [2 * math.pi]
    else:
        angs = sorted(x.angle_of(z) for z in cuts)
        deduped = [angs[0]]
        for t in angs[1:]:
            if t - deduped[-1] > 1e-12:
                deduped.append(t)
        angles = deduped
        spans = [
            ((angles[(k + 1) % len(angles)] - angles[k]) % (2 * math.pi)) or 2 * math.pi
            for k in range(len(angles))
        ]
    tags = set()
    for a0, da in zip(angles, spans):
        mid = x.point_at(a0 + da / 2)
        in_p = p.contains(mid)
        in_q = q.contains(mid)
        if in_p and in_q:
            tags.add("PQ")
        elif in_p:
            tags.add("P")
        elif in_q:
            tags.add("Q")
        else:
            tags.add("C")
    return frozenset(tags)


def classify_triple(a: Disk, b: Disk, x: Disk, role: str) -> TripleConfigCode:
    """Topological configuration code of {a, b, x} per the eight-case table.

    role names which cast member x plays; it fixes the ordered base pair and
    the corner whose membership in x is tested.
    """
    if role not in FAMILIES:
        raise ValueError(f"unknown role {role}")
    if role in ("Atilde", "Aplain"):
        p, q = a, b
    else:
        p, q = b, a
    if disk_relation(p, q) is not DiskRelation.OVERLAPPING:
        raise NotTransverse("base pair must overlap transversely")
    for other in (p, q):
        rel = disk_relation(x, other)
        # transverse position only forbids tangential meetings; containment
        # and disjointness are vacuously transverse
        if rel in (
            DiskRelation.EQUAL,
            DiskRelation.INTERNALLY_TANGENT,
            DiskRelation.EXTERNALLY_TANGENT,
        ):
            raise HypothesesViolated(f"x vs base pair: {rel.value}")
    _, v = circle_intersections(p, q)
    v_in_x = x.contains(v)
    sig = quadrant_signature(p, q, x)
    key = (v_in_x, sig)
    if key not in _CODE_TABLE:
        raise HypothesesViolated(f"signature {sorted(sig)} with v_in_x={v_in_x} matches no code")
    return TripleConfigCode(FAMILIES[role], _CODE_TABLE[key], (v_in_x, tuple(sorted(sig))))


# --- interstice augmentation ---------------------------------------------------


def augment_with_inscribed_disk(config: DiskConfiguration, face, label="aug"):
    """Add the inscribed (Apollonius) disk of the face's interstice.

    The face is a triple of vertex labels; the new disk is externally tangent
    to all three face disks, realizing the tangency-only anchor needed by the
    normalization procedures.
    """
    i, j, k = face
    d = solve_apollonius(config.disks[i], config.disks[j], config.disks[k])
    for v, other in config.items():
        rel = disk_relation(d, other)
        if rel not in (DiskRelation.DISJOINT, DiskRelation.EXTERNALLY_TANGENT):
            raise ContainmentViolation(f"inscribed disk collides with {v}: {rel.value}")
    return DiskConfiguration(config.items() + [(label, d)])
