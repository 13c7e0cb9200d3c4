"""Thurston-style radius relaxation for realizing incidence data (G, Theta) on
finite triangulated disks, Euclidean metric, overlap angles up to pi/2.

The interior angle sum at a vertex is strictly decreasing in its own radius in
this regime, so a per-vertex bisection sweep converges monotonically; layout
places centers breadth-first and re-derives the incidence data as a check.

The sweep evaluates angle sums from per-vertex star tables: each unknown
vertex's faces, neighbours and the cosines of their overlap angles are read
once per solve, and the side opposite the vertex once per vertex solve.  The
arithmetic is that of ``face_angle`` and ``angle_sum``, the scalar reference,
operation for operation, so the radii are bit-identical to a bisection that
calls them.  A Newton step on log r (Colin de Verdiere, Invent. Math. 104,
1991) would converge in far fewer evaluations but changes the output bits.

Each sweep's residual is logged at debug level and each solve's sweep count
and final residual at info level, on the ``diskrig.solver`` logger.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import geom
from .config import DiskConfiguration, contact_graph
from .errors import (
    ExtraneousContact,
    InconsistentPlacement,
    InvalidTriangulation,
    Nonconvergence,
    TriangleViolation,
    UnsupportedAngle,
)
from .geom import Disk

TWO_PI = 2 * math.pi

log = logging.getLogger("diskrig.solver")


@dataclass
class Triangulation:
    vertices: list
    faces: list  # oriented triples of vertex labels

    def __post_init__(self):
        edge_faces = {}
        for f in self.faces:
            if len(set(f)) != 3:
                raise InvalidTriangulation(f"degenerate face {f}")
            for k in range(3):
                e = frozenset((f[k], f[(k + 1) % 3]))
                edge_faces.setdefault(e, []).append(tuple(f))
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                raise InvalidTriangulation(f"edge {tuple(e)} lies in {len(fs)} faces")
        self.edge_faces = edge_faces
        self.boundary_edges = {e for e, fs in edge_faces.items() if len(fs) == 1}
        self.boundary_vertices = sorted({v for e in self.boundary_edges for v in e}, key=str)
        self.interior_vertices = [v for v in self.vertices if v not in set(self.boundary_vertices)]
        for v in self.interior_vertices:
            if not self._link_is_cycle(v):
                raise InvalidTriangulation(f"link of interior vertex {v} is not a cycle")

    def _link_is_cycle(self, v):
        star = [f for f in self.faces if v in f]
        if len(star) < 3:
            return False
        nbr_pairs = []
        for f in star:
            others = [x for x in f if x != v]
            nbr_pairs.append(tuple(others))
        deg = {}
        for a, b in nbr_pairs:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        return all(c == 2 for c in deg.values())

    def edges(self):
        return sorted(self.edge_faces, key=lambda e: tuple(sorted(e, key=str)))


def edge_length(r_i: float, r_j: float, theta: float) -> float:
    """Center distance realizing overlap angle theta between radii r_i, r_j."""
    _supported_cos(theta)
    return geom.center_distance(r_i, r_j, theta)


def _supported_cos(theta, name="theta"):
    if theta < -1e-15 or theta > math.pi / 2 + 1e-12:
        raise UnsupportedAngle(f"{name}={theta} outside the supported [0, pi/2]")
    return math.cos(theta)


def face_angle(face, at_vertex, radii, theta) -> float:
    """Interior angle at the vertex's center in the triangle of centers."""
    i = face.index(at_vertex)
    v, u, w = face[i], face[(i + 1) % 3], face[(i + 2) % 3]
    a = edge_length(radii[v], radii[u], _theta_of(theta, v, u))
    b = edge_length(radii[v], radii[w], _theta_of(theta, v, w))
    c = edge_length(radii[u], radii[w], _theta_of(theta, u, w))
    if a + b <= c or a + c <= b or b + c <= a:
        raise TriangleViolation(face)
    x = (a * a + b * b - c * c) / (2 * a * b)
    return float(np.arccos(np.clip(x, -1.0, 1.0)))


def _theta_of(theta, i, j):
    return theta.get(frozenset((i, j)), theta.get((i, j), theta.get((j, i), 0.0)))


def angle_sum(tri: Triangulation, v, radii, theta) -> float:
    return sum(face_angle(f, v, radii, theta) for f in tri.faces if v in f)


@dataclass
class FixedBoundaryRadii:
    values: dict


SOLVE_TOL = 1e-10  # largest angle-sum residual a solve accepts
SOLVE_MAX_SWEEPS = 2000


def solve_radii(tri: Triangulation, theta, boundary_condition, *, initial=None):
    """Per-vertex bisection sweep driving every constrained vertex's angle sum
    to its target (2*pi at interior vertices)."""
    for e in tri.edges():
        _supported_cos(_theta_of(theta, *tuple(e)), f"theta{tuple(e)}")
    radii = {v: 1.0 for v in tri.vertices}
    if initial:
        radii.update({v: float(r) for v, r in initial.items()})
    targets = {v: TWO_PI for v in tri.interior_vertices}
    if not isinstance(boundary_condition, FixedBoundaryRadii):
        raise TypeError("unknown boundary condition")
    for v, r in boundary_condition.values.items():
        radii[v] = float(r)
    unknowns = sorted(tri.interior_vertices, key=str)
    stars = {v: _star(tri, v, theta) for v in unknowns}
    worst = math.inf
    for it in range(SOLVE_MAX_SWEEPS):
        for v in unknowns:
            radii[v] = _solve_vertex(_star_sides(stars[v], radii), v, radii[v], targets[v], SOLVE_TOL / 10)
        worst = 0.0
        for v in unknowns:
            worst = max(worst, abs(_star_angle_sum(_star_sides(stars[v], radii), radii[v]) - targets[v]))
        log.debug("sweep %d: residual %.3g", it + 1, worst)
        if worst < SOLVE_TOL:
            log.info("solved %d radii in %d sweeps, residual %.3g", len(unknowns), it + 1, worst)
            return radii
    raise Nonconvergence(f"residual {worst:.3g} after {SOLVE_MAX_SWEEPS} sweeps")


def _star(tri, v, theta):
    """v's faces in ``tri.faces`` order, each as (face, u, w, cos theta_vu,
    cos theta_vw, cos theta_uw) with (v, u, w) in the face's cyclic order, as
    ``face_angle`` reads it."""
    star = []
    for f in tri.faces:
        if v in f:
            i = f.index(v)
            u, w = f[(i + 1) % 3], f[(i + 2) % 3]
            cos = [_supported_cos(_theta_of(theta, *pair)) for pair in ((v, u), (v, w), (u, w))]
            star.append((f, u, w, *cos))
    return star


def _star_sides(star, radii):
    """The star with its neighbours' radii and the side opposite v, which do
    not depend on r_v: (face, r_u, r_w, cos theta_vu, cos theta_vw, |uw|)."""
    sides = []
    for f, u, w, c_vu, c_vw, c_uw in star:
        r_u, r_w = radii[u], radii[w]
        sides.append((f, r_u, r_w, c_vu, c_vw, math.sqrt(r_u * r_u + r_w * r_w + 2 * r_u * r_w * c_uw)))
    return sides


def _star_angle_sum(sides, r):
    """``angle_sum`` at a vertex of radius r, with ``face_angle``'s
    arithmetic: the same operation order, the same triangle check, one
    ``np.arccos`` over the star (bit-equal to the scalar calls) and a Python
    ``sum`` in face order."""
    xs = []
    for f, r_u, r_w, c_vu, c_vw, c in sides:
        a = math.sqrt(r * r + r_u * r_u + 2 * r * r_u * c_vu)
        b = math.sqrt(r * r + r_w * r_w + 2 * r * r_w * c_vw)
        if a + b <= c or a + c <= b or b + c <= a:
            raise TriangleViolation(f)
        x = (a * a + b * b - c * c) / (2 * a * b)
        xs.append(1.0 if x > 1.0 else -1.0 if x < -1.0 else x)  # np.clip, NaN kept
    return sum(np.arccos(xs).tolist())


def _solve_vertex(sides, v, r0, target, tol):
    """Bisection on r_v: the angle sum is strictly decreasing in r_v.

    Triangle violations cannot occur for theta <= pi/2 (the edge lengths
    always satisfy the triangle inequality); the damped retry is a defensive
    guard only.
    """

    def f(r):
        return _star_angle_sum(sides, r) - target

    lo = _bracket(f, r0, factor=0.5, want_positive=True, vertex=v)
    hi = _bracket(f, r0, factor=2.0, want_positive=False, vertex=v)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * hi:
            break
    return 0.5 * (lo + hi)


def _bracket(f, r0, factor, want_positive, vertex):
    r = r0
    fac = factor
    last_exc = None
    for _ in range(300):
        try:
            val = f(r)
        except TriangleViolation as exc:
            last_exc = exc
            r /= fac
            fac = math.sqrt(fac)  # damp the step and retry
            if abs(fac - 1.0) < 1e-6:
                raise
            r *= fac
            continue
        if (val > 0) == want_positive:
            return r
        r *= fac
    if last_exc is not None:
        raise last_exc
    raise Nonconvergence(f"could not bracket vertex {vertex}")


def layout(tri: Triangulation, radii, theta) -> DiskConfiguration:
    """Place centers breadth-first so every edge realizes its length; verifies
    placement consistency and that the re-derived incidence matches."""
    lengths = {e: edge_length(radii[min(e, key=str)], radii[max(e, key=str)], _theta_of(theta, *tuple(e))) for e in tri.edge_faces}

    def elen(i, j):
        return lengths[frozenset((i, j))]

    faces = sorted(tri.faces, key=lambda f: tuple(sorted(f, key=str)))
    f0 = faces[0]
    pos = {f0[0]: 0j, f0[1]: complex(elen(f0[0], f0[1]), 0.0)}
    pos[f0[2]] = _third_point(pos[f0[0]], pos[f0[1]], elen(f0[0], f0[2]), elen(f0[1], f0[2]), ccw=True)
    placed_faces = {tuple(f0)}
    progress = True
    while progress:
        progress = False
        for f in faces:
            if tuple(f) in placed_faces:
                continue
            known = [v for v in f if v in pos]
            if len(known) < 2:
                continue
            placed_faces.add(tuple(f))
            progress = True
            if len(known) == 3:
                _check_face(f, pos, elen)
                continue
            (u, w), (missing,) = (known, [v for v in f if v not in pos])
            i = f.index(u)
            ccw = f[(i + 1) % 3] == w  # (u, w, missing) cyclic means CCW triple
            pos[missing] = _third_point(pos[u], pos[w], elen(u, missing), elen(w, missing), ccw=ccw)
            _check_face(f, pos, elen)
    if len(pos) != len(tri.vertices):
        raise InconsistentPlacement("triangulation is not face-connected")
    config = DiskConfiguration([(v, Disk(pos[v], radii[v])) for v in tri.vertices])
    _verify_incidence(tri, theta, config)
    return config


def _check_face(f, pos, elen):
    for k in range(3):
        i, j = f[k], f[(k + 1) % 3]
        if abs(abs(pos[i] - pos[j]) - elen(i, j)) > 1e-8 * max(1.0, elen(i, j)):
            raise InconsistentPlacement(f"edge ({i},{j}) length off by {abs(abs(pos[i]-pos[j])-elen(i,j)):.2g}")


def _third_point(za, zb, la, lb, *, ccw: bool) -> complex:
    d = abs(zb - za)
    along = (la * la - lb * lb + d * d) / (2 * d)
    h2 = la * la - along * along
    h = math.sqrt(max(h2, 0.0))
    axis = (zb - za) / d
    mid = za + along * axis
    return mid + 1j * axis * h if ccw else mid - 1j * axis * h


def _verify_incidence(tri: Triangulation, theta, config: DiskConfiguration):
    """Re-derive the incidence data of the laid-out disks; a mismatch names
    each pair and its cause."""
    derived = contact_graph(config)
    want_edges = frozenset(tri.edge_faces)

    def gap(e):  # centre distance minus the radius sum
        a, b = (config.disks[v] for v in e)
        return abs(a.center - b.center) - (a.radius + b.radius)

    extra = derived.edges - want_edges
    if extra:
        pairs = ", ".join(f"{_pair(e)} by {-gap(e):.3g}" for e in sorted(extra, key=_pair))
        raise ExtraneousContact(f"contacts beyond the triangulation, overlap depth r_i + r_j - d: {pairs}")
    missing = want_edges - derived.edges
    if missing:
        pairs = ", ".join(f"{_pair(e)} apart by {gap(e):.3g}" for e in sorted(missing, key=_pair))
        raise InconsistentPlacement(f"edges not realized as contacts: {pairs}")
    off = {e: abs(derived.theta[e] - _theta_of(theta, *tuple(e))) for e in want_edges}
    worst = max(sorted(want_edges, key=_pair), key=off.get)
    if off[worst] > geom.EPS_ANGLE:
        got, want = derived.theta[worst], _theta_of(theta, *tuple(worst))
        if config.contacts()[worst].relation is geom.DiskRelation.EXTERNALLY_TANGENT:
            cause = (
                f"read as tangent, the centre distance being within EPS_GEOM={geom.EPS_GEOM:.3g} "
                f"of the radius sum (d - r_i - r_j = {gap(worst):.3g}), while the input angle is {want:.3g}"
            )
        else:
            cause = f"numerical drift, derived {got!r} against input {want!r}"
        raise InconsistentPlacement(f"angle on edge {_pair(worst)} off by {off[worst]:.2g}: {cause}")


def _pair(e):
    return tuple(sorted(e, key=str))


def rigidity_experiment(tri: Triangulation, theta, boundary_radii, *, seed=0):
    """Re-solve the same (G, Theta) from five random initial radii (and a scaled
    boundary), align by similarity, and return the max residual."""
    from .moebius import fit_similarity

    rng = np.random.default_rng(seed)
    base = layout(tri, solve_radii(tri, theta, FixedBoundaryRadii(boundary_radii)), theta)
    worst = 0.0
    for _ in range(5):
        init = {v: float(np.exp(rng.normal(0, 0.5))) for v in tri.vertices}
        radii = solve_radii(tri, theta, FixedBoundaryRadii(boundary_radii), initial=init)
        other = layout(tri, radii, theta)
        _m, res = fit_similarity(other.disks, base.disks)
        worst = max(worst, res)
    scale = 7.0
    scaled = {v: r * scale for v, r in boundary_radii.items()}
    radii = solve_radii(tri, theta, FixedBoundaryRadii(scaled))
    other = layout(tri, radii, theta)
    _m, res = fit_similarity(other.disks, base.disks)
    worst = max(worst, res)
    return worst


# --- stock triangulations ------------------------------------------------------


def flower(n_petals: int) -> Triangulation:
    """Single interior vertex 0 with petals 1..n in a cycle."""
    verts = list(range(n_petals + 1))
    faces = [(0, k, k % n_petals + 1) for k in range(1, n_petals + 1)]
    return Triangulation(verts, faces)


def k4_disk() -> Triangulation:
    """Central vertex 0 inside triangle 1,2,3 (the tangency case realizes the
    Descartes configuration)."""
    return flower(3)


def double_flower() -> Triangulation:
    """Two interior vertices sharing two petals."""
    verts = list(range(8))
    faces = [
        (0, 2, 3),
        (0, 3, 4),
        (0, 4, 5),
        (0, 5, 1),
        (1, 5, 6),
        (1, 6, 7),
        (1, 7, 2),
        (0, 1, 2),
    ]
    return Triangulation(verts, faces)
