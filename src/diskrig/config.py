"""Disk configurations, contact graphs, incidence data, thinness and
general-position predicates, eyes, and the three-disk topological classifier.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .errors import ContainmentViolation, HypothesesViolated, IncidenceMismatch, NotTransverse
from .geom import (
    RELATIONS,
    Disk,
    DiskRelation,
    Lens,
    circle_arrays,
    circle_intersections,
    complex_abs,
    cyclic_spans,
    disk_relation,
    meeting_pairs,
    place_crossings,
)


@dataclass(frozen=True)
class Contact:
    """A meeting pair of a configuration, oriented by str of its labels: the
    convention of every pair-indexed corner (a boundary trace's corner keys,
    eyes, anchors)."""

    pair: tuple  # (i, j) with i before j in str order
    relation: DiskRelation  # OVERLAPPING or EXTERNALLY_TANGENT
    disk_i: Disk = field(repr=False)
    disk_j: Disk = field(repr=False)
    # computed with the table: overlap_angle of the pair, exactly 0 for a
    # tangency, and the corners, circle_intersections' (u, v) or the point
    # where a tangent pair touches, with their angles on the circles of
    # disk_i and disk_j (None where circle_intersections refuses the pair)
    theta: float = field(repr=False, compare=False)
    points: tuple | None = field(repr=False, compare=False)
    angles: tuple | None = field(repr=False, compare=False)

    @property
    def corners(self) -> tuple:
        """The points, raising NotTransverse where there are none."""
        if self.points is None:
            raise NotTransverse("near-tangent crossing")
        return self.points

    @property
    def kinds(self) -> str:
        """Each corner's name: 'u' and 'v' of an overlap, 't' of a tangency."""
        return "uv" if self.relation is DiskRelation.OVERLAPPING else "t"

    @functools.cached_property
    def lens(self) -> Lens:
        """The eye Lens(disk_i, disk_j) of an overlap: one per contact."""
        return Lens(self.disk_i, self.disk_j, self.points)


class DiskConfiguration:
    """Labeled collection of closed disks, none contained in another."""

    def __init__(self, items):
        items = list(items)
        labels = [k for k, _ in items]
        if len(set(labels)) != len(labels):
            raise ContainmentViolation("labels must be unique")
        self.labels = labels
        self.disks = dict(items)
        self._contacts = (geom.EPS_GEOM, self._classify())

    def _classify(self) -> dict:
        """Classify every pair once: the contact table of the meeting pairs,
        raising ContainmentViolation where one disk contains another.

        meeting_pairs classifies every pair of the str-sorted labels in
        numpy, as disk_relation would, and numpy places their corners; the
        pairs (i, j) with i before j are read in combinations order, so the
        first containing pair raises."""
        labels = sorted(self.labels, key=str)
        disks = [self.disks[v] for v in labels]
        c, r = circle_arrays(disks)
        v, w, code, d = meeting_pairs((c, r), (c, r))
        v, w, code, d = (x[v < w] for x in (v, w, code, d))
        cv, cw, rv, rw = c[v], c[w], r[v], r[w]
        overlap, tangent = code == RELATIONS.index(DiskRelation.OVERLAPPING), code == RELATIONS.index(DiskRelation.EXTERNALLY_TANGENT)
        cosine = np.minimum(np.maximum((d * d - rv * rv - rw * rw) / (2 * rv * rw), -1.0), 1.0)
        theta = np.where(overlap, np.arccos(cosine), 0.0)
        # each pair's corners, with their angles on the circles of v and w
        points, angles, near = np.zeros((len(v), 2), complex), np.zeros((len(v), 2, 2)), np.zeros(len(v), bool)
        crossings = place_crossings(cv[overlap], rv[overlap], cw[overlap], rw[overlap], d[overlap])
        points[overlap], angles[overlap, :, 0], angles[overlap, :, 1], near[overlap] = crossings
        if tangent.any():
            cv, cw = cv[tangent], cw[tangent]
            points[tangent, 0] = touch = cv + (cw - cv) * (rv[tangent] / d[tangent])
            angles[tangent, 0, 0], angles[tangent, 0, 1] = (np.arctan2(z.imag, z.real) for z in (touch - cv, touch - cw))
        table = {}
        for n, m, k, t, p, a, x in zip(v.tolist(), w.tolist(), code.tolist(), theta.tolist(), points.tolist(), angles.tolist(), near.tolist()):
            rel = RELATIONS[k]
            if rel not in (DiskRelation.OVERLAPPING, DiskRelation.EXTERNALLY_TANGENT):
                raise ContainmentViolation(f"disk {labels[n]} vs {labels[m]}: {rel.value}")
            count = 2 if rel is DiskRelation.OVERLAPPING else 1
            corners = (None, None) if x else (tuple(p[:count]), tuple(map(tuple, a[:count])))
            table[frozenset((labels[n], labels[m]))] = Contact((labels[n], labels[m]), rel, disks[n], disks[m], t, *corners)
        return table

    def contacts(self) -> dict:
        """The contact table: frozenset pair -> Contact for every overlapping
        or externally tangent pair, in str order of the pairs' labels whatever
        the listing order, classified under the current EPS_GEOM (the table is
        rebuilt when EPS_GEOM has changed since it was built)."""
        if self._contacts[0] != geom.EPS_GEOM:
            self._contacts = (geom.EPS_GEOM, self._classify())
        return self._contacts[1]

    def __len__(self):
        return len(self.labels)

    def items(self):
        return [(k, self.disks[k]) for k in self.labels]

    def restricted(self, subset) -> "DiskConfiguration":
        """The sub-configuration of the labels in subset, in listing order.
        Its contact table is the parent's entries whose pair lies in the
        subset, the same Contacts in the same order: nothing is classified
        again."""
        keep = set(subset)
        table = {e: c for e, c in self.contacts().items() if e <= keep}
        sub = object.__new__(DiskConfiguration)
        sub.labels = [k for k in self.labels if k in keep]
        sub.disks = {k: self.disks[k] for k in sub.labels}
        sub._contacts = (geom.EPS_GEOM, table)
        return sub

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


def require_same_ids(config: DiskConfiguration, config_tilde: DiskConfiguration) -> None:
    """Raise IncidenceMismatch naming the disk ids that only one of C and C~
    has."""
    only_c = sorted(map(str, set(config.labels) - set(config_tilde.labels)))
    only_t = sorted(map(str, set(config_tilde.labels) - set(config.labels)))
    if only_c or only_t:
        sides = [f"{', '.join(ids)} only in {name}" for ids, name in ((only_c, "C"), (only_t, "C~")) if ids]
        raise IncidenceMismatch("disk ids differ: " + "; ".join(sides))


def contact_graph(config: DiskConfiguration) -> IncidenceData:
    """Edges for meeting pairs; tangency edges get angle exactly 0."""
    table = config.contacts()
    return IncidenceData(frozenset(config.labels), frozenset(table), {e: c.theta for e, c in table.items()})


def neighbours(config: DiskConfiguration) -> dict:
    """Each label's set of meeting partners, from the contact table."""
    adj = {v: set() for v in config.labels}
    for i, j in (c.pair for c in config.contacts().values()):
        adj[i].add(j)
        adj[j].add(i)
    return adj


def is_thin(config: DiskConfiguration, *, interiors_only: bool = False):
    """(flag, witness): no three disks share a common point (Def. default) or,
    with interiors_only, no common interior point.

    Three pairwise meeting disks, none containing another, share a point
    exactly when a corner of one pair (read from the contact table) lies in
    the third disk."""
    adj = neighbours(config)
    contacts = config.contacts()
    pos = {v: n for n, v in enumerate(config.labels)}
    # a common point needs every pair of the three to meet: walk the
    # triangles of the contact graph, i before j before k in listing order,
    # which is the order of itertools.combinations
    for i in config.labels:
        later = sorted((v for v in adj[i] if pos[v] > pos[i]), key=pos.__getitem__)
        for n, j in enumerate(later):
            for k in later[n + 1 :]:
                if k not in adj[j]:
                    continue
                sides = [(contacts[frozenset(p)], config.disks[x]) for p, x in (((i, j), k), ((i, k), j), ((j, k), i))]
                if not any(third.contains(w) for c, third in sides for w in c.corners):
                    continue
                # a common interior point: a corner of an overlap, or the
                # midpoint of its two, strictly inside the third disk
                if interiors_only and not any(
                    third.contains(w, strict=True)
                    for c, third in sides
                    if c.relation is DiskRelation.OVERLAPPING
                    for w in (*c.corners, (c.corners[0] + c.corners[1]) / 2)
                ):
                    continue
                return False, (i, j, k)
    return True, None


def is_general_position(config: DiskConfiguration, config_tilde: DiskConfiguration):
    """(flag, report): every cross pair transverse as closed Jordan domains and
    no pair-intersection point of one configuration on a boundary circle of
    the other.

    meeting_pairs reads the tangent and equal cross pairs, in listing order;
    each corner is tested against every circle of the other configuration
    in one numpy pass, measured with complex_abs as Python's abs measures
    it."""
    report = []
    circles = [circle_arrays([cfg.disks[v] for v in cfg.labels]) for cfg in (config, config_tilde)]
    for n, m, k in zip(*(x.tolist() for x in meeting_pairs(*circles)[:3])):
        # equal circles are internally tangent too
        if RELATIONS[k] in (DiskRelation.EXTERNALLY_TANGENT, DiskRelation.INTERNALLY_TANGENT, DiskRelation.EQUAL):
            report.append(("tangential_cross_pair", config.labels[n], config_tilde.labels[m]))
        if RELATIONS[k] is DiskRelation.EQUAL:
            report.append(("coincident_boundaries", config.labels[n], config_tilde.labels[m]))
    # the corners of each configuration's contact table against every circle
    # of the other
    for cfg, other, (oc, orad) in ((config, config_tilde, circles[1]), (config_tilde, config, circles[0])):
        corners = [(contact, kind, p) for contact in cfg.contacts().values() for kind, p in zip(contact.kinds, contact.corners)]
        dist = complex_abs(np.array([z for _c, _k, z in corners], dtype=complex)[:, None] - oc[None, :])
        for n, m in zip(*np.nonzero(np.abs(dist - orad[None, :]) <= geom.EPS_GEOM)):
            contact, kind, _z = corners[n]
            report.append(("special_point_on_circle", (*contact.pair, kind), other.labels[m]))
    return (len(report) == 0), report


def eyes(config: DiskConfiguration) -> dict:
    """The eye of each overlapping pair of the contact table: its pair (i, j),
    in str order of the labels, -> its contact's Lens(disk i, disk j)."""
    return {c.pair: c.lens for c in config.contacts().values() if c.relation is DiskRelation.OVERLAPPING}


def overlap_contact(config: DiskConfiguration, i, j) -> Contact:
    """The contact of {i, j}, raising NotTransverse unless the pair overlaps."""
    c = config.contacts().get(frozenset((i, j)))
    if c is None or c.relation is not DiskRelation.OVERLAPPING:
        raise NotTransverse(f"pair ({i},{j}) does not overlap")
    return c


def eye_of_pair(config: DiskConfiguration, i, j) -> Lens:
    """The eye of {i, j}: its contact's Lens, oriented by str order of the labels."""
    return overlap_contact(config, i, j).lens


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


def quadrant_signature(p: Disk, q: Disk, x: Disk) -> frozenset:
    """Which of the four quasi-quadrants the boundary circle of x passes
    through, relative to the ordered overlapping pair (p, q)."""
    cuts = []
    for other in (p, q):
        if disk_relation(x, other) is DiskRelation.OVERLAPPING:
            cuts.extend(circle_intersections(x, other))
    angles = []
    for t in sorted(x.angle_of(z) for z in cuts):
        if not angles or t - angles[-1] > 1e-12:
            angles.append(t)
    angles = angles or [0.0]
    tags = set()
    for a0, da in zip(angles, cyclic_spans(angles)):
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
