"""Sampled boundary curves, faithful correspondences, winding numbers, and the
fixed-point index, including the multiply-connected sum, sampled or, for a
faithful map's loop, counted exactly from the crossings of its two curves.

The canonical faithful map is the arc-proportional one: every pair-intersection
corner of one configuration is pinned to its counterpart, and each arc between
consecutive pinned points is mapped proportionally in angle.  Optional interior
pins (used e.g. to force specific point identifications) and random monotone
reparametrizations refine the same structure, so restrictions to disks, eyes,
and sub-configurations all agree with the full map where they overlap; the
additivity identities are then exact.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import geom
from .config import DiskConfiguration, contact_graph, overlap_contact
from .errors import (
    CoincidentCorner,
    CombinatoricsMismatch,
    DegenerateContact,
    NearFixedPoint,
    PointOnCurve,
)
from .geom import circle_arrays, cyclic_spans

TWO_PI = 2 * math.pi
BASE_STEP = TWO_PI / 512
CORNER_WINDOW = 0.05
CORNER_REFINE = 8
MAX_DENSITY = 16  # densest sampling step: BASE_STEP / 16 = 2*pi/8192
PASS_SAMPLES = 4096  # grid points one sampling pass holds, unless one arc needs more
WINDING_RESIDUAL = 0.01  # largest distance of a summed turn from a whole winding


def _min_disp() -> float:
    """Smallest displacement a certificate accepts, from the current EPS_GEOM."""
    return 10 * geom.EPS_GEOM


# --- winding numbers -----------------------------------------------------------


def winding_number(samples: np.ndarray, z: complex) -> int:
    """Winding number of the closed sampled curve around z."""
    rel = np.asarray(samples) - z
    if np.min(np.abs(rel)) <= geom.EPS_GEOM:
        raise PointOnCurve("query point lies on the curve")
    return _winding_of_closed(rel)


def _winding_of_closed(rel: np.ndarray) -> int:
    ang = np.angle(rel)
    d = np.diff(ang, append=ang[:1])
    d = (d + math.pi) % TWO_PI - math.pi
    return _whole_turns(float(d.sum()) / TWO_PI)


def _whole_turns(total: float) -> int:
    """The winding that a summed turn of total revolutions reads, raising
    PointOnCurve when it lies WINDING_RESIDUAL or more from a whole number."""
    n = round(total)
    if abs(total - n) >= WINDING_RESIDUAL:
        raise PointOnCurve(f"winding residual {total - n:.3g} too large; refine sampling")
    return int(n)


def _grid_counts(spans, refine_start, refine_end, density: int):
    """Per arc, the number of uniform points and of start- and end-window
    points that _arcs_offsets draws before it merges them; an arc without
    refinement at an end draws no window points there."""
    step = BASE_STEP / density
    fine = step / CORNER_REFINE
    win = np.minimum(CORNER_WINDOW, spans / 2)
    n = np.maximum(4, np.ceil(spans / step)).astype(np.intp)
    n_start = np.ceil(win / fine).astype(np.intp) * refine_start
    n_end = np.maximum(0, np.ceil((win - fine) / fine)).astype(np.intp) * refine_end
    return n, n_start, n_end


def _ramp(counts):
    """0, 1, ..., count - 1 for each count in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _arcs_offsets(spans, counts, density: int):
    """(arc, offset) of every arc's grid, by arc and then offset, given the
    arcs' _grid_counts.  An arc's grid is strictly increasing offsets in
    [0, span) from 0: uniform at the base step, with x8 refinement inside the
    corner windows.  Its points are np.linspace(0, span, n, endpoint=False),
    np.arange(0, win, fine) and span - np.arange(fine, win, fine), written
    out as numpy computes them, so they keep every bit."""
    fine = BASE_STEP / density / CORNER_REFINE
    n, n_start, n_end = counts
    arcs = np.arange(len(spans))
    end_arc = np.repeat(arcs, n_end)
    arc = np.concatenate([np.repeat(arcs, n), np.repeat(arcs, n_start), end_arc])
    off = np.concatenate([
        _ramp(n) * np.repeat(spans / n, n) + 0.0,
        0.0 + _ramp(n_start) * fine,
        spans[end_arc] - (fine + _ramp(n_end) * fine),
    ])
    # complex keys arc + i*off sort by arc and then offset, exactly; a stable
    # sort keeps the order of equal points
    key = np.empty(len(arc), dtype=complex)
    key.real, key.imag = arc, off
    order = np.argsort(key, kind="stable")
    arc, off = arc[order], off[order]
    keep = (off >= 0.0) & (off < spans[arc] - 1e-15)
    arc, off = arc[keep], off[keep]
    rises = np.ones(len(off), dtype=bool)  # drop equal neighbours within an arc
    rises[1:] = (off[1:] > off[:-1]) | (arc[1:] != arc[:-1])
    return arc[rises], off[rises]


# --- boundary complexes ----------------------------------------------------------


@dataclass(frozen=True)
class CornerRef:
    """Identity of a corner: the pair, oriented as its Contact in the
    configuration's contact table (str order of the labels), and which
    intersection point: 'u' and 'v' are circle_intersections' corners for
    that orientation, 't' marks a tangency.  angles holds the point's angle
    on the circle of each disk of the pair, in pair order."""

    pair: tuple
    kind: str
    point: complex
    angles: tuple = field(default=(), repr=False, compare=False)


@dataclass
class BoundaryArc:
    vertex: object
    a0: float
    da: float
    start: CornerRef | None
    end: CornerRef | None


@dataclass
class BoundaryCurve:
    pieces: list

    def signature(self):
        return [(p.vertex, p.end.pair if p.end else None) for p in self.pieces]

    def arcs(self):
        """The pieces as (vertex, a0, da, refine_start, refine_end) arcs,
        refined at their corners."""
        return [(p.vertex, p.a0, p.da, p.start is not None, p.end is not None) for p in self.pieces]


@dataclass
class BoundaryComplex:
    config: DiskConfiguration
    curves: list
    corners: dict  # frozenset pair -> its CornerRefs, for every meeting pair


def boundary_complex(config: DiskConfiguration) -> BoundaryComplex:
    """Trace the union boundary into positively oriented curves with arcs
    labeled by owning disk and corners at pair-intersection points."""
    covered = {i: [] for i in config.labels}  # (start_angle, end_angle, start_ref, end_ref)
    markers = {i: [] for i in config.labels}  # tangency splits: (angle, ref)
    named = [(e, c, list(c.named_corners())) for e, c in config.contacts().items()]
    # every corner's angle on both circles of its pair, in one numpy pass
    angles = iter(np.angle(np.array(
        [z - d.center for _e, c, points in named for _k, z in points for d in (c.disk_i, c.disk_j)], dtype=complex
    )).tolist())
    corners = {}
    for e, c, points in named:
        refs = tuple(CornerRef(c.pair, kind, z, (next(angles), next(angles))) for kind, z in points)
        corners[e] = refs
        if len(refs) == 1:
            (tref,) = refs
            for v, t in zip(c.pair, tref.angles):
                markers[v].append((t, tref))
            continue
        uref, vref = refs
        si, sj = c.pair
        # boundary of disk si inside disk sj runs u -> v; of sj inside si runs v -> u
        covered[si].append((uref.angles[0], vref.angles[0], uref, vref))
        covered[sj].append((vref.angles[1], uref.angles[1], vref, uref))
    free = {}
    for i in config.labels:
        free[i] = _free_arcs(config.disks[i], i, covered[i], markers[i])
    # successor index: free arc starting at a given corner ref on a given disk
    start_index = {}
    for i, arcs in free.items():
        for a in arcs:
            if a.start is not None:
                start_index[(i, a.start.pair, a.start.kind)] = a
    curves = []
    unused = {id(a): a for arcs in free.values() for a in arcs}
    # curves are traced in str order of the labels, whatever the listing order
    for i in sorted(config.labels, key=str):
        for a in free[i]:
            if id(a) not in unused:
                continue
            piece = a
            cycle = []
            while id(piece) in unused:
                del unused[id(piece)]
                cycle.append(piece)
                if piece.end is None:
                    break
                other = piece.end.pair[0] if piece.end.pair[1] == piece.vertex else piece.end.pair[1]
                key = (other, piece.end.pair, piece.end.kind)
                if key not in start_index:
                    raise DegenerateContact(f"no continuation at corner {piece.end}")
                piece = start_index[key]
            curves.append(BoundaryCurve(cycle))
    return BoundaryComplex(config, curves, corners)


def _free_arcs(disk, vertex, intervals, marks):
    """Complement of the covered intervals on one circle, split at tangency
    marks, as BoundaryArc pieces."""
    if not intervals and not marks:
        return [BoundaryArc(vertex, 0.0, TWO_PI, None, None)]
    if not intervals:
        marks = sorted(marks)
        spans = cyclic_spans([t for t, _ref in marks])
        return [
            BoundaryArc(vertex, t0, span, ref0, marks[(k + 1) % len(marks)][1])
            for k, ((t0, ref0), span) in enumerate(zip(marks, spans))
        ]
    events = sorted(((a0 % TWO_PI, (a1 - a0) % TWO_PI, s, e) for a0, a1, s, e in intervals))
    if sum(iv[1] for iv in events) >= TWO_PI - geom.EPS_GEOM:
        raise DegenerateContact(f"disk {vertex} has no free boundary")
    # disjoint cyclically ordered intervals tile the circle together with
    # their end-to-next-start gaps; an overlap makes a gap wrap a full turn
    walked = sum(iv[1] for iv in events) + sum(
        ((b0 - (a0 + da)) % TWO_PI)
        for (a0, da, _s, _e), (b0, _db, _s2, _e2) in zip(events, events[1:] + events[:1])
    )
    if abs(walked - TWO_PI) > 1e-9:
        raise DegenerateContact(f"covered intervals overlap on disk {vertex}")
    arcs = []
    for k, (a0, da, _, eref_prev) in enumerate(events):
        b0, _, sref_next, _ = events[(k + 1) % len(events)]
        start_angle = (a0 + da) % TWO_PI
        span = (b0 - start_angle) % TWO_PI
        if span <= 1e-12:
            raise DegenerateContact(f"zero-length free arc on disk {vertex}")
        sub_marks = sorted(
            ((t - start_angle) % TWO_PI, ref) for t, ref in marks if 0 < (t - start_angle) % TWO_PI < span
        )
        prev_off, prev_ref = 0.0, eref_prev
        for off, mref in sub_marks:
            arcs.append(BoundaryArc(vertex, (start_angle + prev_off) % TWO_PI, off - prev_off, prev_ref, mref))
            prev_off, prev_ref = off, mref
        arcs.append(BoundaryArc(vertex, (start_angle + prev_off) % TWO_PI, span - prev_off, prev_ref, sref_next))
    return arcs


def _pass_ends(sizes):
    """End of each run of consecutive arcs that one sampling pass takes: as
    many whole arcs as hold at most PASS_SAMPLES grid points together, or one
    arc that alone holds more."""
    start, total = 0, 0
    for k, size in enumerate(sizes):
        if total + size > PASS_SAMPLES and k > start:
            yield k
            start, total = k, 0
        total += size
    yield len(sizes)


def _sample_curves(curves, density: int, code: dict, points):
    """The samples of closed curves, each a list of (vertex, a0, da,
    refine_start, refine_end) arcs, taken in passes over whole consecutive
    arcs of all the curves: points(codes, thetas) returns the (source, image)
    samples of one pass at the angles thetas on the circles of vertex codes
    code[vertex].  Returns each curve's (source, image) samples, in arc order."""
    if not curves:
        return []
    arcs = [a for arcs in curves for a in arcs]
    codes = np.array([code[a[0]] for a in arcs], dtype=np.intp)
    a0, da, refine_start, refine_end = np.array([a[1:] for a in arcs], dtype=float).T
    refine_start, refine_end = refine_start != 0, refine_end != 0
    starts = list(itertools.accumulate((len(arcs) for arcs in curves[:-1]), initial=0))  # first arc of each curve
    counts = _grid_counts(da, refine_start, refine_end, density)
    pieces = [[] for _ in curves]
    lo = 0
    for hi in _pass_ends(sum(counts).tolist()):
        arc, off = _arcs_offsets(da[lo:hi], [c[lo:hi] for c in counts], density)
        arc += lo
        src, dst = points(codes[arc], a0[arc] + off)
        # cut the pass where each of its curves after the first starts: a
        # curve within one pass is a view of it, and only a curve that spans
        # passes is copied
        first, end = bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)
        cuts = [0, *(int(np.searchsorted(arc, k)) for k in starts[first + 1:end]), len(arc)]
        for c, a, b in zip(range(first, end), cuts, cuts[1:]):
            pieces[c].append((src[a:b], dst[a:b]))
        lo = hi
    return [p[0] if len(p) == 1 else tuple(np.concatenate(s) for s in zip(*p)) for p in pieces]


def _on_circles(center, radius, codes, thetas):
    return center[codes] + radius[codes] * np.exp(1j * thetas)


# --- the faithful correspondence -------------------------------------------------


class _NodeTable:
    """The nodes of all vertex maps of a faithful map in one table, ordered
    by vertex code (listing order) and then angle, so one searchsorted finds
    the node of every sample of a pass, whatever its vertex: complex keys
    code + i*angle compare lexicographically, and exactly."""

    def __init__(self, config, config_t, nodes):
        nodes = [nodes[v] for v in config.labels]
        self.code = {v: k for k, v in enumerate(config.labels)}
        self.disks = [config.disks[v] for v in config.labels]
        self.disks_t = [config_t.disks[v] for v in config.labels]
        self.circles = circle_arrays(self.disks)
        self.circles_t = circle_arrays(self.disks_t)
        sizes = np.array([len(n) for n in nodes], dtype=np.intp)
        self.first = np.cumsum(sizes) - sizes
        self.last = self.first + sizes - 1
        self.unmapped = sizes == 0  # no nodes: the identity in angle
        # (t0, t1, span, span_t): node angles and the span to the next node,
        # on the source and the target circle
        t0 = [np.array([t for t, _t in n], dtype=float) for n in nodes]
        t1 = [np.array([t for _t, t in n], dtype=float) for n in nodes]
        spans = [cyclic_spans(t) for t in t0]
        spans_t = [cyclic_spans(t) for t in t1]
        # a vertex map is a homeomorphism when the spans between its nodes go
        # round each circle once; one that folds back goes round more often
        self.degree_one = [
            not n or round(sum(s) / TWO_PI) == round(sum(s_t) / TWO_PI) == 1 for n, s, s_t in zip(nodes, spans, spans_t)
        ]
        self.arrays = [np.concatenate(column, dtype=float) for column in (t0, t1, spans, spans_t)]
        self.keys = np.repeat(np.arange(len(nodes)), sizes) + 1j * self.arrays[0]

    def angles(self, codes, thetas):
        """The target-circle angles that the vertex maps of the codes take
        the source angles thetas to."""
        if self.unmapped.all():
            return thetas
        # the last node of the vertex at or before the angle; a sample before
        # its vertex's first node takes that vertex's last node
        idx = np.searchsorted(self.keys, codes + 1j * (thetas % TWO_PI), side="right") - 1
        idx = np.where(idx < self.first[codes], self.last[codes], idx)
        t0, t1, span, span_t = self.arrays
        tt = t1[idx] + ((thetas - t0[idx]) % TWO_PI) / span[idx] * span_t[idx]
        if self.unmapped.any():
            tt = np.where(self.unmapped[codes], thetas, tt)
        return tt

    def points(self, codes, thetas):
        """(source, image) points of the samples at angles thetas on the
        circles of the vertex codes."""
        return _on_circles(*self.circles, codes, thetas), _on_circles(*self.circles_t, codes, self.angles(codes, thetas))


@dataclass
class SampledLoopMap:
    """A closed sampled curve with its image samples."""

    src: np.ndarray
    dst: np.ndarray


class ArcLoopMap:
    """A closed curve of a faithful map held as its (vertex, a0, da,
    refine_start, refine_end) arcs and the map's node table.  Reading src or
    dst samples every loop of the same call at once; loop_index samples only
    when the crossing count cannot decide."""

    def __init__(self, arcs, table, samples, k):
        self.arcs, self.table = arcs, table
        self._samples, self._k = samples, k

    @property
    def src(self) -> np.ndarray:
        return self._samples()[self._k][0]

    @property
    def dst(self) -> np.ndarray:
        return self._samples()[self._k][1]


@dataclass
class IndexReport:
    eta: int
    per_curve: list
    min_displacement: float


@dataclass
class FaithfulMap:
    """One orientation-preserving circle map per disk, pinned at its nodes:
    nodes[v] holds vertex v's sorted (theta, theta_t) pins, between which the
    map is linear in angle; a disk without nodes is the identity in angle."""

    config: DiskConfiguration
    config_t: DiskConfiguration
    complex_src: BoundaryComplex
    nodes: dict
    # (EPS_GEOM, IndexReport) of the last fixed_point_index; nothing changes a
    # map after build_faithful_map, so the report holds while EPS_GEOM does
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @functools.cached_property
    def _table(self) -> _NodeTable:
        return _NodeTable(self.config, self.config_t, self.nodes)

    def _loops(self, curves, density: int) -> list:
        """The closed curves of the arc lists and their images, each arc
        mapped by its own vertex map, sampled at the density in one
        _sample_curves call when any of them is first read."""
        table = self._table
        samples = functools.cache(lambda: _sample_curves(curves, density, table.code, table.points))
        return [ArcLoopMap(arcs, table, samples, k) for k, arcs in enumerate(curves)]

    def loops(self, density: int = 1):
        return self._loops([c.arcs() for c in self.complex_src.curves], density)

    def subset_loops(self, subset, density: int = 1):
        """Sampled loops of the faithful map restricted to the union of the
        given vertex subset (uses the same vertex maps, so additivity
        identities are exact)."""
        return self._loops([c.arcs() for c in boundary_complex(self.config.restricted(subset)).curves], density)

    def disk_loop(self, vertex, density: int = 1) -> SampledLoopMap:
        """delta_v: the induced map on the full circle of one disk."""
        angles = [t for t, _t in self.nodes[vertex]]
        arcs = [(vertex, t, span, True, True) for t, span in zip(angles, cyclic_spans(angles))]
        return self._loops([arcs or [(vertex, 0.0, TWO_PI, False, False)]], density)[0]

    def eye_loop(self, i, j, density: int = 1) -> SampledLoopMap:
        """epsilon_ij: the induced map on the eye boundary of pair {i, j}."""
        c = overlap_contact(self.config, i, j)  # the eye, oriented by c.pair
        return self._loops([[(k, arc.a0, arc.da, True, True) for k, arc in zip(c.pair, c.lens.boundary_arcs())]], density)[0]


def _match_curves(cx_src: BoundaryComplex, cx_dst: BoundaryComplex):
    """Raise CombinatoricsMismatch unless each source curve, in order, takes
    the first target curve not yet taken with the same arc labels up to
    rotation."""
    if len(cx_src.curves) != len(cx_dst.curves):
        raise CombinatoricsMismatch(
            f"{len(cx_src.curves)} vs {len(cx_dst.curves)} boundary curves"
        )
    free = [c.signature() for c in cx_dst.curves]
    for c in cx_src.curves:
        sig = c.signature()
        found = next((k for k, sig_t in enumerate(free) if len(sig) == len(sig_t) and _cyclic_equal(sig, sig_t)), None)
        if found is None:
            raise CombinatoricsMismatch(f"no matching curve for signature {sig}")
        del free[found]


def _cyclic_equal(a, b):
    """Whether the equally long lists a and b differ by a rotation."""
    return any(a == b[r:] + b[:r] for r in range(len(b)))


def build_faithful_map(config, config_tilde, *, pins=None, rng=None, n_random_pins=0) -> FaithfulMap:
    """Arc-proportional faithful correspondence between the union boundaries.

    pins: optional {vertex: [(z, z_tilde), ...]} extra point identifications
    (points are projected onto the circles).  rng/n_random_pins inserts random
    monotone reparametrization nodes, producing a different faithful map with
    the same corner structure.  Each random pin subdivides a span between two
    nodes that the disk already has, so a disk without nodes stays the
    identity in angle; only pins give such a disk another circle map.
    """
    if not contact_graph(config).same_combinatorics(contact_graph(config_tilde)):
        raise CombinatoricsMismatch("contact graphs differ")
    cx = boundary_complex(config)
    cx_t = boundary_complex(config_tilde)
    _match_curves(cx, cx_t)

    # each corner pins its angle on both disks of its pair
    nodes = {v: [] for v in config.labels}
    for e, refs in cx.corners.items():
        if len(refs) != len(cx_t.corners[e]):
            raise CombinatoricsMismatch(f"pair {refs[0].pair} differs in contact type")
        for ref, ref_t in zip(refs, cx_t.corners[e]):
            if abs(ref.point - ref_t.point) <= _min_disp():
                raise CoincidentCorner(f"corner of pair {ref.pair} is fixed")
            for v, t, t_t in zip(ref.pair, ref.angles, ref_t.angles):
                nodes[v].append((t % TWO_PI, t_t % TWO_PI))
    for v in config.labels:
        d, dt = config.disks[v], config_tilde.disks[v]
        for z, zt in (pins or {}).get(v, ()):
            nodes[v].append((d.angle_of(_project(d, z)) % TWO_PI, dt.angle_of(_project(dt, zt)) % TWO_PI))
        nodes[v] = sorted(set(nodes[v]))
        _check_monotone(nodes[v], v)
        if rng is not None and n_random_pins and nodes[v]:
            nodes[v] = _randomize_vmap(nodes[v], rng, n_random_pins, v)
    return FaithfulMap(config, config_tilde, cx, nodes)


def _project(disk, z):
    return disk.center + disk.radius * (z - disk.center) / abs(z - disk.center)


def _check_monotone(nodes, v):
    if len(nodes) < 2:
        return
    t_t = [n[1] for n in nodes]
    # target angles must be cyclically increasing along with the sources
    rotated = [(x - t_t[0]) % TWO_PI for x in t_t]
    if any(b <= a for a, b in zip(rotated, rotated[1:])):
        raise CombinatoricsMismatch(f"node order reverses on disk {v}")


def _randomize_vmap(nodes, rng, n_pins, v) -> list:
    """The sorted nodes with n_pins random nodes added, each inside the span
    from a random node to the next, on both circles.  The pins of one span
    pair their source and target fractions in sorted order, so the map stays
    monotone however the draws fall."""
    spans = cyclic_spans([t for t, _t in nodes])
    spans_t = cyclic_spans([t for _t, t in nodes])
    draws = [(int(rng.integers(len(nodes))), *sorted(rng.uniform(0.1, 0.9, size=2))) for _ in range(n_pins)]
    out = list(nodes)
    for k in {k for k, _f, _g in draws}:
        t0, t0t = nodes[k]
        fs = sorted(f for j, f, _g in draws if j == k)
        gs = sorted(g for j, _f, g in draws if j == k)
        out += [((t0 + f * spans[k]) % TWO_PI, (t0t + g * spans_t[k]) % TWO_PI) for f, g in zip(fs, gs)]
    out.sort()
    _check_monotone(out, v)
    return out


# --- the index -------------------------------------------------------------------


def _refine(index_at):
    """index_at(density) at densities 1, 2, 4, ..., MAX_DENSITY, returning the
    first result whose fixed-point-free certificate holds; NearFixedPoint from
    the densest grid is re-raised.  A failed density's loops are freed before
    the next density builds its own."""
    density = 1
    while True:
        try:
            return index_at(density)
        except NearFixedPoint:
            density *= 2
            if density > MAX_DENSITY:
                raise


def loop_index(loop: SampledLoopMap | ArcLoopMap) -> int:
    """The displacement winding of one loop: for a loop of a faithful map,
    its exact value when the crossing count decides it; otherwise from the
    loop's samples, certified fixed-point free."""
    if isinstance(loop, ArcLoopMap):
        eta = _exact_index(loop.arcs, loop.table)
        if eta is not None:
            return eta
    return _certify([loop])[0][0]


def _exact_index(arcs, table: _NodeTable) -> int | None:
    """The displacement winding of a closed arc list of a faithful map, by
    the torus formula, or None when the count cannot decide it.

    The image of arc k lies on the target circle of its vertex v, from
    phi_v(a0) over phi_v(a0 + da) - phi_v(a0) mod 2 pi (2 pi for a full
    circle).  A position on either curve is (arc, offset), ordered by arc and
    then offset, and the map is the monotone graph offset -> phi_v(a0 +
    offset) - phi_v(a0) within each arc.  With u the start of arc 0 and u~ its
    image, eta = w(gamma, u~) + w(gamma~, u) - the sum of iota(z) =
    -sign Im(conj(z - c)(z - c~)) over the crossings z of the two curves
    whose image position lies below the graph at their source position:
    index_via_torus's eta_down.  Undecided: a vertex map that is not
    monotone of degree one, an arc no longer than 10 EPS_GEOM, a source
    circle tangent to or equal to an image circle, a crossing within
    10 EPS_GEOM of an arc end or of the graph, and a base point within
    10 EPS_GEOM of the other curve."""
    tol = _min_disp()
    codes = [table.code[arc[0]] for arc in arcs]
    if not all(table.degree_one[c] for c in codes):
        return None
    n = len(arcs)
    a0 = [arc[1] for arc in arcs]
    ends = table.angles(np.array(codes * 2), np.array(a0 + [arc[1] + arc[2] for arc in arcs])).tolist()
    src = [_arc(table.disks[c], arc[1], arc[2]) for c, arc in zip(codes, arcs)]
    dst = [
        _arc(table.disks_t[c], b0, TWO_PI if arc[2] == TWO_PI else (b1 - b0) % TWO_PI)
        for c, arc, b0, b1 in zip(codes, arcs, ends[:n], ends[n:])
    ]
    if any(disk.radius * span <= tol for disk, _a, span, *_ends in src + dst):
        return None
    u, ut = src[0][3], dst[0][3]
    if _curve_distance(dst, u) <= tol or _curve_distance(src, ut) <= tol:
        return None
    eta = _arcs_winding(src, ut) + _arcs_winding(dst, u)
    on_circle = {}
    for k, c in enumerate(codes):
        on_circle.setdefault(c, []).append(k)
    same_arc = []  # (arc, source offset, image offset, iota) of crossings on one arc of both curves
    for v, src_arcs in on_circle.items():
        for w, dst_arcs in on_circle.items():
            disk, disk_t = table.disks[v], table.disks_t[w]
            if geom.circles_tangent(disk, disk_t):
                return None
            if geom.disk_relation(disk, disk_t) is not geom.DiskRelation.OVERLAPPING:
                continue
            # circle_intersections' u is where the source circle enters the
            # image disk: iota = +1; at its v, iota = -1
            for z, iota in zip(geom.circle_intersections(disk, disk_t), (1, -1)):
                at_src, at_dst = _arc_offsets_of(src, src_arcs, z, tol), _arc_offsets_of(dst, dst_arcs, z, tol)
                if at_src is None or at_dst is None:
                    return None
                for k, t in at_src:
                    for m, s in at_dst:
                        if m < k:
                            eta -= iota
                        elif m == k:
                            same_arc.append((k, t, s, iota))
    if same_arc:
        ks, ts, ss, iotas = zip(*same_arc)
        graph = table.angles(np.array([codes[k] for k in ks]), np.array([a0[k] + t for k, t in zip(ks, ts)])).tolist()
        for k, s, g, iota in zip(ks, ss, graph, iotas):
            g = (g - ends[k]) % TWO_PI
            if dst[k][0].radius * abs(s - g) <= tol:
                return None
            if s < g:
                eta -= iota
    return eta


def _arc(disk, a0, span):
    """(disk, start angle, span, start point, end point) of a CCW arc."""
    c, r, a1 = disk.center, disk.radius, a0 + span
    return disk, a0, span, c + r * complex(math.cos(a0), math.sin(a0)), c + r * complex(math.cos(a1), math.sin(a1))


def _phase(z: complex) -> float:
    return math.atan2(z.imag, z.real)


def _arc_offsets_of(arcs, ks, z, tol):
    """(k, offset of z from the start of arc k) for each arc k among ks that
    holds the point z of their circle, or None when z lies within tol of an
    end of any of them."""
    out = []
    for k in ks:
        disk, a0, span, *_ends = arcs[k]
        t = (_phase(z - disk.center) - a0) % TWO_PI
        to_end = abs(t - span)
        if disk.radius * min(t, TWO_PI - t, to_end, TWO_PI - to_end) <= tol:
            return None
        if t < span:
            out.append((k, t))
    return out


def _curve_distance(arcs, p) -> float:
    """Distance from p to a curve of _arc arcs."""
    best = math.inf
    for disk, a0, span, start, end in arcs:
        if (_phase(p - disk.center) - a0) % TWO_PI <= span:
            best = min(best, abs(abs(p - disk.center) - disk.radius))
        best = min(best, abs(p - start), abs(p - end))
    return best


def _arcs_winding(arcs, p) -> int:
    """Winding number of a closed curve of CCW _arc arcs about a point off
    it: each arc turns the direction from p by the angle between its ends,
    taken in [0, 2 pi) when p lies inside its circle (where that direction
    turns monotonically) and in (-pi, pi] outside it."""
    total = 0.0
    for disk, _a0, span, start, end in arcs:
        inside = abs(p - disk.center) < disk.radius
        if span == TWO_PI:
            total += TWO_PI if inside else 0.0
            continue
        turn = _phase((end - p) / (start - p))
        total += turn + TWO_PI if inside and turn < 0 else turn
    return round(total / TWO_PI)


def _successor(x, starts, last, out=None):
    """x at each sample's successor: the next sample of its loop, or, at the
    last sample of a loop, the loop's first."""
    out = np.empty_like(x) if out is None else out
    out[:-1] = x[1:]
    out[last] = x[starts]
    return out


def _certify(loops):
    """(winding of each loop, smallest displacement) of the loops, each
    certified fixed-point free: every displacement exceeds _min_disp(), and
    between consecutive samples the displacement cannot vanish, as it moves
    by at most the source and image chords.  Runs of consecutive loops that
    hold at most PASS_SAMPLES samples together are certified in one numpy
    pass.  Raises as the first loop that fails, checked in order for its
    displacement, its gap and its winding residual."""
    per_curve, min_disp = [], math.inf
    sizes = [len(loop.src) for loop in loops]
    lo = 0
    for hi in _pass_ends(sizes):
        run = loops[lo:hi]
        # a lone loop is read in place; the loops of a longer run are copied
        # into one array
        src = run[0].src if len(run) == 1 else np.concatenate([loop.src for loop in run])
        dst = run[0].dst if len(run) == 1 else np.concatenate([loop.dst for loop in run])
        starts = np.array(list(itertools.accumulate(sizes[lo:hi - 1], initial=0)), dtype=np.intp)
        last = np.append(starts[1:], len(src)) - 1
        successor = functools.partial(_successor, starts=starts, last=last)
        # in-place operations keep the bits of the expressions they spell out
        # and hold fewer sample-sized arrays at once
        disp = dst - src
        rel = np.abs(disp)
        low = np.minimum.reduceat(rel, starts)
        moved = successor(src)
        moved -= src
        chord = np.abs(moved)
        moved = successor(dst, out=moved)
        moved -= dst
        chord += np.abs(moved)
        del moved
        gap = successor(rel)
        np.minimum(rel, gap, out=gap)
        gap -= chord
        del chord
        gap = np.minimum.reduceat(gap, starts)
        ang = np.angle(disp)
        del disp
        turn = successor(ang)
        turn -= ang
        turn += math.pi
        turn %= TWO_PI
        turn -= math.pi
        turns = np.add.reduceat(turn, starts) / TWO_PI
        for m, g, total in zip(low.tolist(), gap.tolist(), turns.tolist()):
            if m <= _min_disp():
                raise NearFixedPoint(f"min displacement {m:.3g}")
            if g <= 0:
                raise NearFixedPoint("displacement certificate fails between samples")
            per_curve.append(_whole_turns(total))
            min_disp = min(min_disp, m)
        lo = hi
    return per_curve, min_disp


def fixed_point_index(fmap: FaithfulMap) -> IndexReport:
    """Per-curve displacement winding and the multiply-connected sum, refining
    the sampling on NearFixedPoint up to the densest grid.  The report is kept
    on the map and returned again while EPS_GEOM is unchanged."""
    eps = geom.EPS_GEOM
    if fmap._index is not None and fmap._index[0] == eps:
        return fmap._index[1]

    def index_at(density):
        per_curve, min_disp = _certify(fmap.loops(density))
        return IndexReport(int(sum(per_curve)), per_curve, min_disp)

    report = _refine(index_at)
    fmap._index = (eps, report)
    return report
