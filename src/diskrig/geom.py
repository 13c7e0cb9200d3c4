"""Exact-tolerance primitives for disks in the plane.

Points are complex numbers; disks are (center, radius) pairs.  All predicates
classify with the fixed tolerance EPS_GEOM so that downstream discrete case
analysis is stable.
"""
from __future__ import annotations

import contextlib
import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AngleUndefined, DegenerateDisk, NotTransverse

EPS_GEOM = 1e-9
EPS_ANGLE = 1e-7
PAIR_PASS = 4096  # circle pairs one meeting_pairs pass classifies, unless one circle's pairs are more


@contextlib.contextmanager
def tolerance(eps: float):
    """Classify with EPS_GEOM = eps inside the with block, and restore the
    tolerance on leaving it, also when the block raises."""
    global EPS_GEOM
    saved, EPS_GEOM = EPS_GEOM, eps
    try:
        yield
    finally:
        EPS_GEOM = saved


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        # a numpy centre would make contains return np.bool_, whose sums are
        # logical ors
        object.__setattr__(self, "center", complex(self.center))
        if not (self.radius > EPS_GEOM):
            raise DegenerateDisk(f"radius must exceed {EPS_GEOM}: {self.radius}")
        if not (math.isfinite(self.center.real) and math.isfinite(self.center.imag)):
            raise DegenerateDisk("center must be finite")

    def point_at(self, theta: float) -> complex:
        return self.center + self.radius * np.exp(1j * theta)

    def angle_of(self, z: complex) -> float:
        return float(np.angle(z - self.center))

    def contains(self, z: complex, *, strict: bool = False) -> bool:
        d = abs(z - self.center)
        if strict:
            return d < self.radius - EPS_GEOM
        return d <= self.radius + EPS_GEOM

    def boundary_arcs(self) -> tuple:
        """The boundary circle as one CCW arc from angle 0."""
        return (Arc(self, 0.0, 2 * math.pi),)


class DiskRelation(enum.Enum):
    DISJOINT = "Disjoint"
    EXTERNALLY_TANGENT = "ExternallyTangent"
    OVERLAPPING = "Overlapping"
    INTERNALLY_TANGENT = "InternallyTangent"
    FIRST_CONTAINS_SECOND = "FirstContainsSecond"
    SECOND_CONTAINS_FIRST = "SecondContainsFirst"
    EQUAL = "Equal"


RELATIONS = tuple(DiskRelation)  # the relation of each code that meeting_pairs gives


def disk_relation(a: Disk, b: Disk) -> DiskRelation:
    """Classify the ordered pair by center distance vs radius sums/differences."""
    d = abs(a.center - b.center)
    if d <= EPS_GEOM and abs(a.radius - b.radius) <= EPS_GEOM:
        return DiskRelation.EQUAL
    if abs(d - (a.radius + b.radius)) <= EPS_GEOM:
        return DiskRelation.EXTERNALLY_TANGENT
    if d > a.radius + b.radius:
        return DiskRelation.DISJOINT
    if abs(d - abs(a.radius - b.radius)) <= EPS_GEOM:
        return DiskRelation.INTERNALLY_TANGENT
    if d < abs(a.radius - b.radius):
        if a.radius > b.radius:
            return DiskRelation.FIRST_CONTAINS_SECOND
        return DiskRelation.SECOND_CONTAINS_FIRST
    return DiskRelation.OVERLAPPING


def complex_abs(z):
    """The moduli of a complex array, rounded as Python's abs of a complex
    rounds them: np.hypot of the parts (np.abs can differ by an ulp)."""
    return np.hypot(z.real, z.imag)


def meeting_pairs(circles, circles2):
    """(v, w, code, d) of every pair of circle v of circles and circle w of
    circles2, each a (centres, radii) pair of arrays as circle_arrays gives
    them, that disk_relation does not read as disjoint, sorted by v and then
    w: code indexes RELATIONS, and d is the centre distance, as
    complex_abs measures it, so each code is disk_relation's, bit for bit.
    The pairs are classified in passes of at most PAIR_PASS pairs, or of one
    circle v's pairs when circles2 holds more."""
    (c, r), (c2, r2) = circles, circles2
    eps, R, code_of = EPS_GEOM, DiskRelation, RELATIONS.index
    step = max(1, PAIR_PASS // max(len(r2), 1))
    parts = []
    for lo in range(0, max(len(r), 1), step):
        d = complex_abs(c[lo : lo + step, None] - c2)
        # however they round, the tests below, on this d, read a pair farther
        # apart than r + r2 + 2 eps as disjoint: tangency within eps is nearer
        v, w = np.nonzero(d <= r[lo : lo + step, None] + r2 + 2 * eps)
        d, v = d[v, w], v + lo
        rv, rw = r[v], r2[w]
        rsum, rdiff = rv + rw, np.abs(rv - rw)
        # disk_relation's tests, applied in reverse, so that where several
        # hold the one it tries first decides
        code = np.where(d < rdiff, np.where(rv > rw, code_of(R.FIRST_CONTAINS_SECOND), code_of(R.SECOND_CONTAINS_FIRST)), code_of(R.OVERLAPPING))
        code[np.abs(d - rdiff) <= eps] = code_of(R.INTERNALLY_TANGENT)
        code[d > rsum] = code_of(R.DISJOINT)
        code[np.abs(d - rsum) <= eps] = code_of(R.EXTERNALLY_TANGENT)
        code[(d <= eps) & (rdiff <= eps)] = code_of(R.EQUAL)
        keep = np.flatnonzero(code != code_of(R.DISJOINT))
        parts.append((v.take(keep), w.take(keep), code.take(keep), d.take(keep)))
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(x) for x in zip(*parts))


def circles_tangent(a: Disk, b: Disk) -> bool:
    """Whether the two boundary circles touch, externally or internally,
    within EPS_GEOM."""
    d = abs(a.center - b.center)
    return abs(d - (a.radius + b.radius)) <= EPS_GEOM or abs(d - abs(a.radius - b.radius)) <= EPS_GEOM


def overlaps(a: Disk, b: Disk) -> bool:
    return disk_relation(a, b) is DiskRelation.OVERLAPPING


def center_distance(r_a: float, r_b: float, theta: float) -> float:
    """Center distance realizing the overlap angle theta in [0, pi) between
    radii r_a and r_b (law of cosines; inverse of overlap_angle)."""
    return math.sqrt(r_a * r_a + r_b * r_b + 2 * r_a * r_b * math.cos(theta))


def overlap_angle(a: Disk, b: Disk) -> float:
    """External intersection angle of an overlapping or tangent pair, in [0, pi)."""
    rel = disk_relation(a, b)
    if rel is DiskRelation.EXTERNALLY_TANGENT:
        return 0.0
    if rel is not DiskRelation.OVERLAPPING:
        raise AngleUndefined(f"pair is {rel.value}; overlap angle needs contact")
    d = abs(a.center - b.center)
    x = (d * d - a.radius * a.radius - b.radius * b.radius) / (2 * a.radius * b.radius)
    return float(np.arccos(min(max(x, -1.0), 1.0)))


def circle_intersections(a: Disk, b: Disk) -> tuple[complex, complex]:
    """Ordered pair (u, v): u is where the positively-oriented boundary of a
    enters b, v is where the boundary of b enters a."""
    if disk_relation(a, b) is not DiskRelation.OVERLAPPING:
        raise NotTransverse("boundaries do not cross at two distinct points")
    d = abs(b.center - a.center)
    along = (a.radius**2 - b.radius**2 + d * d) / (2 * d)
    h2 = a.radius**2 - along**2
    if h2 <= (EPS_GEOM * max(a.radius, 1.0)) ** 2:
        raise NotTransverse("near-tangent crossing")
    h = math.sqrt(h2)
    axis = (b.center - a.center) / d
    mid = a.center + along * axis
    # a's CCW tangent at p = mid + i*axis*h, i*(p - c_a), heads away from
    # b's centre, Re(conj(i*(p - c_a))*(c_b - p)) = -h*d < 0, so a enters b
    # at the other crossing
    return mid - 1j * axis * h, mid + 1j * axis * h


def place_crossings(c, r, c2, r2, d):
    """circle_intersections' (u, v), bit for bit, as the columns of z, of
    each overlapping pair of circle k of (c, r) and of (c2, r2) at centre
    distance d[k], their angles on either circle, and near, true where it
    refuses the pair as near-tangent."""
    # float_power is libm's pow, as Python's x**2, not numpy's x*x; numpy
    # divides a complex by a real through its reciprocal, Python each part
    r_sq = np.float_power(r, 2)
    along = (r_sq - np.float_power(r2, 2) + d * d) / (2 * d)
    h2 = r_sq - np.float_power(along, 2)
    near = h2 <= np.float_power(EPS_GEOM * np.maximum(r, 1.0), 2)
    diff = c2 - c
    axis = np.empty_like(diff)
    axis.real, axis.imag = (diff.real + diff.imag * 0.0) / d, (diff.imag - diff.real * 0.0) / d
    mid, turn = c + along * axis, 1j * axis * np.sqrt(np.maximum(h2, 0.0))
    z = np.empty((len(d), 2), dtype=complex)
    z[:, 0], z[:, 1] = mid - turn, mid + turn
    rel, rel2 = z - c[:, None], z - c2[:, None]
    return z, np.arctan2(rel.imag, rel.real), np.arctan2(rel2.imag, rel2.real), near


# --- circular arcs and two-disk regions -------------------------------------


@dataclass(frozen=True)
class Arc:
    """CCW arc of a circle from angle a0 spanning da in (0, 2*pi]."""

    disk: Disk
    a0: float
    da: float

    def point(self, t):
        return self.disk.center + self.disk.radius * np.exp(1j * (self.a0 + self.da * np.asarray(t)))

    @property
    def start(self) -> complex:
        return complex(self.point(0.0))

    @property
    def end(self) -> complex:
        return complex(self.point(1.0))

    def length(self) -> float:
        return self.disk.radius * self.da


def arc_between(disk: Disk, za: complex, zb: complex) -> Arc:
    """CCW arc of disk's boundary from za to zb (points assumed on the circle)."""
    a0 = disk.angle_of(za)
    da = (disk.angle_of(zb) - a0) % (2 * math.pi)
    if da == 0.0:
        da = 2 * math.pi
    return Arc(disk, a0, da)


def circle_arrays(disks) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius arrays of a list of disks, in its order."""
    return np.array([d.center for d in disks], dtype=complex), np.array([d.radius for d in disks], dtype=float)


def cyclic_spans(angles) -> list:
    """Span from each angle to the next, cyclically; a lone angle spans the
    full turn."""
    n = len(angles)
    return [(angles[(k + 1) % n] - t) % (2 * math.pi) or 2 * math.pi for k, t in enumerate(angles)]


def arc_contains_angle(arc: Arc, theta: float) -> bool:
    return (theta - arc.a0) % (2 * math.pi) <= arc.da


def arc_circle_crossings(arc: Arc, other: Disk) -> list[complex]:
    """Transverse crossing points of the arc with the other disk's boundary."""
    if disk_relation(arc.disk, other) is not DiskRelation.OVERLAPPING:
        return []
    pts = circle_intersections(arc.disk, other)
    out = []
    for p in pts:
        if arc_contains_angle(arc, arc.disk.angle_of(p)):
            out.append(p)
    return out


def arc_crossings(arc: Arc, arc_t: Arc) -> list[complex]:
    """Transverse crossing points of two arcs: the crossings of arc with the
    circle of arc_t that lie on arc_t, in arc_circle_crossings order."""
    return [p for p in arc_circle_crossings(arc, arc_t.disk) if arc_contains_angle(arc_t, arc_t.disk.angle_of(p))]


def arc_in_disk(arc: Arc, other: Disk) -> bool:
    """Whether the closed arc lies inside the closed disk `other`.

    Exact: the distance to other's center is extremal at the arc endpoints or
    at the point of the carrier circle radially opposite other's center.
    """
    cands = [arc.start, arc.end]
    if abs(arc.disk.center - other.center) > EPS_GEOM:
        away = arc.disk.angle_of(arc.disk.center + (arc.disk.center - other.center))
        if arc_contains_angle(arc, away):
            cands.append(arc.disk.point_at(away))
    return all(other.contains(z) for z in cands)


@dataclass(frozen=True)
class _TwoDiskRegion:
    """A region cut out of two overlapping disks a and b."""

    a: Disk
    b: Disk
    # circle_intersections' (u, v), where the caller has placed them already
    placed: tuple | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def corners(self) -> tuple[complex, complex]:
        """circle_intersections' (u, v): the boundary of a enters b at u.
        The placed corners, or computed once per object, when first read."""
        return self.placed or circle_intersections(self.a, self.b)


class Lens(_TwoDiskRegion):
    """Closed intersection A cap B of two overlapping disks: an eye."""

    def boundary_arcs(self) -> tuple[Arc, Arc]:
        """The arc of a from u to v, then the arc of b from v to u."""
        u, v = self.corners
        return arc_between(self.a, u, v), arc_between(self.b, v, u)

    def contains(self, z: complex, *, strict: bool = False) -> bool:
        return self.a.contains(z, strict=strict) and self.b.contains(z, strict=strict)


class Lune(_TwoDiskRegion):
    """Closed difference A \\ int(B) of two overlapping disks."""

    def boundary_arcs(self) -> tuple[Arc, Arc]:
        u, v = self.corners
        # part of the boundary of a outside b, plus part of boundary of b
        # inside a traversed backwards; as unoriented arcs:
        return arc_between(self.a, v, u), arc_between(self.b, v, u)

    def contains(self, z: complex, *, strict: bool = False) -> bool:
        if strict:
            return self.a.contains(z, strict=True) and not self.b.contains(z)
        return self.a.contains(z) and not self.b.contains(z, strict=True)


def boundary_crossings(r1, r2):
    """Transverse crossings of the boundaries of two regions (Disk, Lens or
    Lune), found lazily: (arc of r1, arc of r2, point) in boundary_arcs
    order."""
    arcs2 = r2.boundary_arcs()
    for a1 in r1.boundary_arcs():
        for a2 in arcs2:
            for p in arc_crossings(a1, a2):
                yield a1, a2, p


def eye_nesting(eye: Lens, eye_t: Lens) -> str | None:
    """Which of two eyes whose boundaries do not cross contains the other:
    "fwd" (eye_t inside eye), "rev" (eye inside eye_t) or None (disjoint)."""
    if all(eye.contains(z) for z in eye_t.corners):
        return "fwd"
    if all(eye_t.contains(z) for z in eye.corners):
        return "rev"
    return None


def regions_meet(r1, r2) -> bool:
    """Whether two closed regions intersect (exact circle tests)."""
    for _a1, _a2, p in boundary_crossings(r1, r2):
        if r1.contains(p) and r2.contains(p):
            return True
    # no boundary crossing: disjoint or nested, and a nested region holds the
    # midpoints of its own boundary arcs
    for a1 in r1.boundary_arcs():
        if r2.contains(complex(a1.point(0.5))):
            return True
    for a2 in r2.boundary_arcs():
        if r1.contains(complex(a2.point(0.5))):
            return True
    return False


def lens_in_disk(lens: Lens, d: Disk) -> bool:
    return all(arc_in_disk(arc, d) for arc in lens.boundary_arcs())
