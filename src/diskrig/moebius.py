"""Moebius and anti-Moebius transformations on points and disks, plus the
normalization procedures and configuration alignment used in the rigidity
experiments.

Infinity is never a representable point: operations that would produce it
raise, and normalizations that conceptually put infinity inside a disk carry
that disk as an explicit bounded complement record instead.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .config import DiskConfiguration, is_general_position, neighbours
from .errors import (
    ConditionFailed,
    DegenerateInput,
    InsufficientAnchors,
    MapsToInfinity,
    NoAnchorFound,
    UnboundedImage,
)
from .geom import Disk, DiskRelation, circles_tangent, disk_relation


@dataclass(frozen=True)
class MoebiusMap:
    """z -> (a*z + b)/(c*z + d), conjugating the input first when anti-Moebius."""

    a: complex
    b: complex
    c: complex
    d: complex
    conjugate_first: bool = False

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if abs(det) <= geom.EPS_GEOM:
            raise DegenerateInput("moebius determinant vanishes")


IDENTITY = MoebiusMap(1, 0, 0, 1)


def translation(t: complex) -> MoebiusMap:
    return MoebiusMap(1, t, 0, 1)


def similarity(scale: complex, offset: complex = 0j) -> MoebiusMap:
    if abs(scale) <= geom.EPS_GEOM:
        raise DegenerateInput("zero similarity factor")
    return MoebiusMap(scale, offset, 0, 1)


def dilation_about(p: complex, factor: float) -> MoebiusMap:
    return MoebiusMap(factor, p * (1 - factor), 0, 1)


def inversion(pole: complex = 0j) -> MoebiusMap:
    """z -> 1/(z - pole)."""
    return MoebiusMap(0, 1, 1, -pole)


def apply_point(m: MoebiusMap, z):
    """Image of a point (or numpy array of points)."""
    w = np.conj(z) if m.conjugate_first else np.asarray(z, dtype=complex)
    den = m.c * w + m.d
    if np.min(np.abs(den)) <= geom.EPS_GEOM:
        raise MapsToInfinity("denominator vanishes")
    out = (m.a * w + m.b) / den
    if np.ndim(z) == 0:
        return complex(out)
    return out


def compose(m2: MoebiusMap, m1: MoebiusMap) -> MoebiusMap:
    """m2 after m1."""
    a1, b1, c1, d1 = m1.a, m1.b, m1.c, m1.d
    if m2.conjugate_first:
        a1, b1, c1, d1 = a1.conjugate(), b1.conjugate(), c1.conjugate(), d1.conjugate()
    a = m2.a * a1 + m2.b * c1
    b = m2.a * b1 + m2.b * d1
    c = m2.c * a1 + m2.d * c1
    d = m2.c * b1 + m2.d * d1
    return MoebiusMap(a, b, c, d, m1.conjugate_first != m2.conjugate_first)


def inverse(m: MoebiusMap) -> MoebiusMap:
    a, b, c, d = m.d, -m.b, -m.c, m.a
    if m.conjugate_first:
        a, b, c, d = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
    return MoebiusMap(a, b, c, d, m.conjugate_first)


def pole_of(m: MoebiusMap):
    """Preimage of infinity, or None for affine maps."""
    if abs(m.c) <= geom.EPS_GEOM:
        return None
    p = -m.d / m.c
    return p.conjugate() if m.conjugate_first else p


def apply_disk(m: MoebiusMap, disk: Disk) -> Disk:
    """Exact image disk, via three boundary-point images plus an interior
    witness; raises UnboundedImage when the image is not a bounded disk."""
    pole = pole_of(m)
    if pole is not None and abs(pole - disk.center) <= disk.radius + geom.EPS_GEOM:
        raise UnboundedImage("pole meets the disk; image is unbounded")
    img = Disk(*_three_point_circle(m, disk))
    if not img.contains(apply_point(m, disk.center), strict=False):
        raise UnboundedImage("image side flipped; disk maps over infinity")
    return img


def _three_point_circle(m: MoebiusMap, disk: Disk) -> tuple[complex, float]:
    """Circle through the images of three points of the disk's boundary."""
    return circumcircle(*[apply_point(m, disk.point_at(t)) for t in (0.0, 2.0944, 4.1888)])


def circumcircle(z1: complex, z2: complex, z3: complex) -> tuple[complex, float]:
    ax, ay = z1.real, z1.imag
    bx, by = z2.real, z2.imag
    cx, cy = z3.real, z3.imag
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-14 * max(abs(z1 - z2), abs(z2 - z3), 1.0) ** 2:
        raise DegenerateInput("collinear points have no circumcircle")
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    center = complex(ux, uy)
    return center, abs(z1 - center)


def from_three_points(z1, z2, z3, w1, w2, w3) -> MoebiusMap:
    """The unique Moebius map with z_i -> w_i."""
    for trio in ((z1, z2, z3), (w1, w2, w3)):
        if min(abs(trio[0] - trio[1]), abs(trio[1] - trio[2]), abs(trio[0] - trio[2])) <= geom.EPS_GEOM:
            raise DegenerateInput("coincident points")
    src = _to_zero_one_inf(z1, z2, z3)
    dst = _to_zero_one_inf(w1, w2, w3)
    return compose(inverse(dst), src)


def _to_zero_one_inf(z1, z2, z3) -> MoebiusMap:
    # z -> (z - z1)(z2 - z3) / ((z - z3)(z2 - z1))
    return MoebiusMap(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def concentricize(a: Disk, b: Disk) -> MoebiusMap:
    """Moebius map sending the pair of disjoint (or nested) circles to circles
    centered at the origin, with the common inverse point inside `a` going to
    infinity (so a's image is the complement of a bounded disk and b's image
    is a bounded disk at the origin)."""
    rel = disk_relation(a, b)
    if rel not in (DiskRelation.DISJOINT, DiskRelation.FIRST_CONTAINS_SECOND, DiskRelation.SECOND_CONTAINS_FIRST):
        raise DegenerateInput(f"cannot concentricize pair in relation {rel.value}")
    d = abs(b.center - a.center)
    if d <= geom.EPS_GEOM:
        return inversion(a.center + 0.0)  # already concentric: any inversion center works; use pole in a
    axis = (b.center - a.center) / d
    # inverse-point pair on the axis: positions x, y from a.center with
    # (x)(y) = ra^2 and (x - d)(y - d) = rb^2
    ra2, rb2 = a.radius**2, b.radius**2
    s = (d * d + ra2 - rb2) / d
    p = ra2
    disc = s * s - 4 * p
    if disc <= 0:
        raise DegenerateInput("no real inverse-point pair")
    x = (s - math.sqrt(disc)) / 2
    y = (s + math.sqrt(disc)) / 2
    f1 = a.center + axis * x
    f2 = a.center + axis * y
    inside_a = f1 if abs(f1 - a.center) < a.radius else f2
    other = f2 if inside_a is f1 else f1
    return MoebiusMap(1, -other, 1, -inside_a)


# --- configuration-level helpers ---------------------------------------------


def fit_similarity(src: dict, dst: dict):
    """Least-squares orientation-preserving similarity alpha*z + beta matching
    corresponding disk centers; returns (map, residual) with the residual the
    max radius-normalized Hausdorff distance between mapped and target disks."""
    keys = sorted(set(src) & set(dst))
    if len(keys) < 2:
        raise InsufficientAnchors("need >= 2 common disks")
    zs = np.array([src[k].center for k in keys])
    ws = np.array([dst[k].center for k in keys])
    A = np.stack([zs, np.ones_like(zs)], axis=1)
    sol, *_ = np.linalg.lstsq(A, ws, rcond=None)
    alpha, beta = sol
    if abs(alpha) <= geom.EPS_GEOM:
        raise DegenerateInput("degenerate similarity fit")
    m = similarity(alpha, beta)
    res = _alignment_residual(m, src, dst)
    return m, res


def _alignment_residual(m: MoebiusMap, src: dict, dst: dict) -> float:
    worst = 0.0
    for k in dst:
        img = apply_disk(m, src[k])
        tgt = dst[k]
        haus = abs(img.center - tgt.center) + abs(img.radius - tgt.radius)
        worst = max(worst, haus / tgt.radius)
    return worst


def anchor_points(config) -> list:
    """Corners of every meeting pair (u and v of an overlap, the tangency
    point), in the contact table's order: by the pairs' label strings, as
    docio writes edges."""
    return [z for c in config.contacts().values() for z in c.corners]


def align(config, config_tilde):
    """Moebius alignment from three corresponding anchor points.

    Returns (map, residual): residual is the max over disks of the Hausdorff
    distance between the mapped disk and its target, normalized by the target
    radius.
    """
    src_pts = anchor_points(config)
    dst_pts = anchor_points(config_tilde)
    if len(src_pts) < 3 or len(dst_pts) < 3 or len(src_pts) != len(dst_pts):
        raise InsufficientAnchors(f"{len(src_pts)} vs {len(dst_pts)} anchor points")
    m = from_three_points(src_pts[0], src_pts[1], src_pts[2], dst_pts[0], dst_pts[1], dst_pts[2])
    res = _alignment_residual(m, config.disks, config_tilde.disks)
    return m, res


# --- normalization N(eps) ----------------------------------------------------


@dataclass
class NormalizationResult:
    map_for_C: MoebiusMap
    map_for_Ctilde: MoebiusMap
    epsilon: float
    anchor_vertices: list
    checks: dict = field(default_factory=dict)
    outer_complements: dict = field(default_factory=dict)  # vertex -> (Disk, Disk) complement records

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _nested_strictly(a: Disk, b: Disk) -> bool:
    rel = disk_relation(a, b)
    return rel in (DiskRelation.FIRST_CONTAINS_SECOND, DiskRelation.SECOND_CONTAINS_FIRST)


# the epsilons that normalize_pair tries, largest first
EPSILONS = tuple(2.0**-k for k in range(1, 14))


def normalize_pair(config, config_tilde, theorem_mode: str, epsilons=EPSILONS) -> NormalizationResult:
    """Carry out the mode's enumerated normalization steps and check the
    bracketed conditions for each epsilon in turn.

    Modes: "Sphere", "PlanePlane", "HypHyp", "PlaneVsHyp".  Epsilon enters
    only the final 1+epsilon dilation of C, so the rest of the normalization,
    C~'s images among it, is built once.  Returns the result of the first
    epsilon whose checks hold.  Raises NoAnchorFound when the mode's required
    anchors do not exist and ConditionFailed, with the last epsilon's
    failures, when the checks fail at every epsilon.
    """
    if theorem_mode not in _BUILDERS:
        raise ValueError(f"unknown mode {theorem_mode}")
    if not epsilons:
        raise ValueError("no epsilon to try")
    m_c0, m_t, anchors, pivot, outer = _BUILDERS[theorem_mode](config, config_tilde)
    order = [v for v in config.labels if v != outer]
    mapped_t = {v: apply_disk(m_t, config_tilde.disks[v]) for v in order}
    cfg_t = DiskConfiguration([(v, mapped_t[v]) for v in order])
    comp_t = None if outer is None else _complement_record(m_t, config_tilde.disks[outer])
    for epsilon in epsilons:
        m_c = compose(dilation_about(mapped_t[pivot].center, 1 + epsilon), m_c0)
        mapped = {v: apply_disk(m_c, config.disks[v]) for v in order}
        complements = {} if outer is None else {outer: (_complement_record(m_c, config.disks[outer]), comp_t)}
        # the disk over infinity is checked through its complement records,
        # whose containment is reversed
        pairs = {v: (mapped[v], mapped_t[v]) for v in order} | complements
        checks = {f"nested[{v}]": _nested_strictly(*pairs[v]) for v in anchors}
        gp, _report = is_general_position(DiskConfiguration([(v, mapped[v]) for v in order]), cfg_t)
        if outer is not None:
            gp = gp and _outer_general_position(*complements[outer], mapped, mapped_t)
        checks["general_position"] = gp
        result = NormalizationResult(m_c, m_t, epsilon, anchors, checks, complements)
        if result.ok:
            return result
    raise ConditionFailed(epsilon, [k for k, ok in checks.items() if not ok])


def _outer_general_position(comp_c: Disk, comp_t: Disk, mapped: dict, mapped_t: dict) -> bool:
    # the outer circles must not be tangent to, or coincident with, anything
    # from the other configuration; circle-level transversality only.
    if circles_tangent(comp_c, comp_t):
        return False
    return not any(circles_tangent(comp_c, d) for d in mapped_t.values()) and not any(
        circles_tangent(comp_t, d) for d in mapped.values()
    )


def _pick_differing(disks: dict, disks_t: dict, exclude: set):
    """Vertex whose disks differ in radius or center distance from origin;
    falls back to the first admissible vertex when the configurations are
    indistinguishable at this step."""
    cands = [v for v in sorted(disks, key=str) if v not in exclude]
    for v in cands:
        a, b = disks[v], disks_t[v]
        if abs(a.radius - b.radius) > geom.EPS_GEOM or abs(abs(a.center) - abs(b.center)) > geom.EPS_GEOM:
            return v
    return cands[0] if cands else None


def _rotate_to_positive_axis(c: complex) -> MoebiusMap:
    if abs(c) <= geom.EPS_GEOM:
        return IDENTITY
    return similarity(abs(c) / c)


def _anchor_step(config, config_tilde, m_c, m_t, exclude, skip, ordinal):
    """The next anchor: pick the next differing vertex outside `exclude`,
    rotate it onto the positive real axis in both configurations and match
    its center distance by scaling C.  Disks in `skip` (mapped over infinity)
    are left out.  Returns (vertex, m_c, m_t)."""
    cur = {v: apply_disk(m_c, d) for v, d in config.disks.items() if v not in skip}
    cur_t = {v: apply_disk(m_t, d) for v, d in config_tilde.disks.items() if v not in skip}
    v = _pick_differing(cur, cur_t, exclude)
    if v is None:
        raise NoAnchorFound(f"no {ordinal} anchor vertex")
    m_c = compose(_rotate_to_positive_axis(cur[v].center), m_c)
    m_t = compose(_rotate_to_positive_axis(cur_t[v].center), m_t)
    cv, cvt = abs(apply_disk(m_c, config.disks[v]).center), abs(apply_disk(m_t, config_tilde.disks[v]).center)
    if cv > geom.EPS_GEOM and cvt > geom.EPS_GEOM:
        m_c = compose(similarity(cvt / cv), m_c)
    return v, m_c, m_t


# Each builder returns (C's map before the dilation, C~'s map, the anchors,
# the anchor about whose C~ image C is dilated, the vertex mapped over
# infinity or None).


def _normalize_plane_vs_hyp(config, config_tilde):
    a = sorted(config.labels, key=str)[0]
    scale = config_tilde.disks[a].radius / config.disks[a].radius
    m_c = compose(similarity(scale), translation(-config.disks[a].center))
    m_t = translation(-config_tilde.disks[a].center)
    b, m_c, m_t = _anchor_step(config, config_tilde, m_c, m_t, {a}, (), "second")
    return m_c, m_t, [a, b], b, None


def _normalize_concentric_modes(config, config_tilde, dilation_anchor):
    """Shared construction for the Sphere and PlanePlane modes: concentricize
    the (a, b) pair in each configuration (a tangency-only, b disjoint from a),
    unit-normalize b and match the c anchors on the positive real axis; C is
    dilated about the stated anchor's center, and D_a maps over infinity."""
    contacts, adj = config.contacts(), neighbours(config)
    pairs = (
        (a, b)
        for a in config.labels
        if adj[a] and all(contacts[frozenset((a, w))].relation is DiskRelation.EXTERNALLY_TANGENT for w in adj[a])
        for b in sorted(config.labels, key=str)
        if b != a and b not in adj[a]
    )
    a, b = next(pairs, (None, None))
    if a is None:
        raise NoAnchorFound("no tangency-only vertex with a disjoint partner (augment first)")
    m_c = concentricize(config.disks[a], config.disks[b])
    m_t = concentricize(config_tilde.disks[a], config_tilde.disks[b])
    # scale so that D_b and D_b~ become the unit disk
    img_b = apply_disk(m_c, config.disks[b])
    img_bt = apply_disk(m_t, config_tilde.disks[b])
    m_c = compose(similarity(1 / img_b.radius, -img_b.center / img_b.radius), m_c)
    m_t = compose(similarity(1 / img_bt.radius, -img_bt.center / img_bt.radius), m_t)
    c, m_c, m_t = _anchor_step(config, config_tilde, m_c, m_t, {a, b}, {a}, "third")
    return m_c, m_t, [a, b, c], {"b": b, "c": c}[dilation_anchor], a


def _complement_record(m: MoebiusMap, disk: Disk) -> Disk:
    """Bounded disk whose complement is the image of `disk` (whose interior
    holds the pole).  Computed from three boundary images."""
    return Disk(*_three_point_circle(m, disk))


def _hyp_radius(d: Disk) -> float:
    s1 = abs(d.center) - d.radius
    s2 = abs(d.center) + d.radius
    if s2 >= 1.0:
        raise DegenerateInput("disk not inside the unit disk")
    return math.atanh(s2) - math.atanh(s1)


def _hyp_translation_to_origin(d: Disk) -> MoebiusMap:
    """Hyperbolic isometry of the unit disk sending d's hyperbolic center to 0."""
    if abs(d.center) <= geom.EPS_GEOM:
        return IDENTITY
    h1 = math.atanh(abs(d.center) - d.radius)
    h2 = math.atanh(abs(d.center) + d.radius)
    s = math.tanh((h1 + h2) / 2)
    w = d.center / abs(d.center) * s
    return MoebiusMap(1, -w, -w.conjugate(), 1)


def _normalize_hyp_hyp(config, config_tilde):
    labels = sorted(config.labels, key=str)
    a = None
    for v in labels:
        if abs(_hyp_radius(config.disks[v]) - _hyp_radius(config_tilde.disks[v])) > geom.EPS_GEOM:
            a = v
            break
    if a is None:
        raise NoAnchorFound("all hyperbolic radii agree")
    m_c = _hyp_translation_to_origin(config.disks[a])
    m_t = _hyp_translation_to_origin(config_tilde.disks[a])
    ra = apply_disk(m_c, config.disks[a]).radius
    rat = apply_disk(m_t, config_tilde.disks[a]).radius
    m_c = compose(similarity(rat / ra), m_c)
    b, m_c, m_t = _anchor_step(config, config_tilde, m_c, m_t, {a}, (), "second")
    return m_c, m_t, [a, b], b, None


# the final dilation is anchored at the common center of the c disks on the
# sphere, and of the b disks (the origin of the concentric normalization) in
# the plane
_BUILDERS = {
    "Sphere": functools.partial(_normalize_concentric_modes, dilation_anchor="c"),
    "PlanePlane": functools.partial(_normalize_concentric_modes, dilation_anchor="b"),
    "HypHyp": _normalize_hyp_hyp,
    "PlaneVsHyp": _normalize_plane_vs_hyp,
}
