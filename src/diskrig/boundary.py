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
from .geom import RELATIONS, DiskRelation, circle_arrays, complex_abs, cyclic_spans

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


def _grid_passes(spans, refine_start, refine_end, density):
    """(arc, offset) of the arcs' grids at the density, in passes of whole
    consecutive arcs that _pass_ends takes."""
    counts = _grid_counts(spans, refine_start, refine_end, density)
    lo = 0
    for hi in _pass_ends(sum(counts).tolist()):
        arc, off = _arcs_offsets(spans[lo:hi], [c[lo:hi] for c in counts], density)
        yield arc + lo, off
        lo = hi


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
    pieces = [[] for _ in curves]
    for arc, off in _grid_passes(da, refine_start, refine_end, density):
        lo, hi = int(arc[0]), int(arc[-1]) + 1
        src, dst = points(codes[arc], a0[arc] + off)
        # cut the pass where each of its curves after the first starts: a
        # curve within one pass is a view of it, and only a curve that spans
        # passes is copied
        first, end = bisect.bisect_right(starts, lo) - 1, bisect.bisect_left(starts, hi)
        cuts = [0, *(int(np.searchsorted(arc, k)) for k in starts[first + 1:end]), len(arc)]
        for c, a, b in zip(range(first, end), cuts, cuts[1:]):
            pieces[c].append((src[a:b], dst[a:b]))
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
        self.circles = circle_arrays([config.disks[v] for v in config.labels])
        self.circles_t = circle_arrays([config_t.disks[v] for v in config.labels])
        sizes = np.array([len(n) for n in nodes], dtype=np.intp)
        self.first = np.cumsum(sizes) - sizes
        self.last = self.first + sizes - 1
        self.unmapped = sizes == 0  # no nodes: the identity in angle
        # (t0, t1, span, span_t): node angles and the span to the next node
        # of the vertex, cyclically, on the source and the target circle, in
        # cyclic_spans' arithmetic
        t0, t1 = np.array([node for n in nodes for node in n], dtype=float).reshape(-1, 2).T
        vertex = np.repeat(np.arange(len(nodes)), sizes)
        node = np.arange(len(t0))
        after = np.where(node == self.last[vertex], self.first[vertex], node + 1)
        spans, spans_t = (np.where(s == 0, TWO_PI, s) for s in ((t[after] - t) % TWO_PI for t in (t0, t1)))
        # a vertex map is a homeomorphism when the spans between its nodes go
        # round each circle once; one that folds back goes round more often
        turns = [np.round(np.bincount(vertex, weights=s, minlength=len(nodes)) / TWO_PI) for s in (spans, spans_t)]
        self.degree_one = self.unmapped | ((turns[0] == 1) & (turns[1] == 1))
        self.arrays = [t0, t1, spans, spans_t]
        self.keys = vertex + 1j * t0
        self._crossings = None

    @functools.cached_property
    def slope(self):
        """Each vertex map's steepest span_t / span over its node spans: 1
        for a vertex without nodes, the identity in angle."""
        _t0, _t1, spans, spans_t = self.arrays
        slope = np.ones(len(self.first))
        mapped = ~self.unmapped
        if mapped.any():
            slope[mapped] = np.maximum.reduceat(spans_t / spans, self.first[mapped])
        return slope

    def crossings(self) -> _CrossingTable:
        """The map's crossing table under the current EPS_GEOM, built afresh
        when EPS_GEOM has changed since it was built."""
        if self._crossings is None or self._crossings.eps != geom.EPS_GEOM:
            self._crossings = _CrossingTable(self.circles, self.circles_t)
        return self._crossings

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


@dataclass
class ArcLoopMap:
    """A closed curve of a faithful map held as its (vertex, a0, da,
    refine_start, refine_end) arcs, each mapped by its own vertex map of the
    map's node table; sample_loops samples it."""

    arcs: list
    table: _NodeTable


def sample_loops(loops, density: int) -> list:
    """The SampledLoopMap of each loop of one faithful map at the sampling
    density, all in one _sample_curves call."""
    table = loops[0].table
    return [SampledLoopMap(src, dst) for src, dst in _sample_curves([loop.arcs for loop in loops], density, table.code, table.points)]


@dataclass
class IndexReport:
    """eta, each curve's winding, and how they were found: method "exact"
    when the crossing count decided every curve, "sampled" when they come
    from certified samples.  min_displacement, the smallest displacement of
    the certified samples, is sampled for an exact report only when it is
    first read (sample_min), at the density the certificate first holds, and
    is None when no density certifies them."""

    eta: int
    per_curve: list
    method: str
    sample_min: object = field(repr=False, compare=False)  # () -> min_displacement

    @functools.cached_property
    def min_displacement(self) -> float | None:
        return self.sample_min()


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

    def loops(self) -> list:
        return [ArcLoopMap(c.arcs(), self._table) for c in self.complex_src.curves]

    def subset_loops(self, subset) -> list:
        """The loops of the faithful map restricted to the union of the given
        vertex subset (uses the same vertex maps, so additivity identities
        are exact)."""
        return [ArcLoopMap(c.arcs(), self._table) for c in boundary_complex(self.config.restricted(subset)).curves]

    def disk_loop(self, vertex) -> ArcLoopMap:
        """delta_v: the induced map on the full circle of one disk."""
        angles = [t for t, _t in self.nodes[vertex]]
        arcs = [(vertex, t, span, True, True) for t, span in zip(angles, cyclic_spans(angles))]
        return ArcLoopMap(arcs or [(vertex, 0.0, TWO_PI, False, False)], self._table)

    def eye_loop(self, i, j) -> ArcLoopMap:
        """epsilon_ij: the induced map on the eye boundary of pair {i, j}."""
        c = overlap_contact(self.config, i, j)  # the eye, oriented by c.pair
        return ArcLoopMap([(k, arc.a0, arc.da, True, True) for k, arc in zip(c.pair, c.lens.boundary_arcs())], self._table)


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


def loop_index(loop: SampledLoopMap) -> int:
    """The displacement winding of one sampled loop, certified fixed-point
    free."""
    return _certify([loop])[0][0]


def index_sums(groups) -> list:
    """For each list of loops of one faithful map, the sum of the loops'
    displacement windings: exact for each loop the crossing count decides.
    One crossing count takes the loops of every list; the loops it leaves
    undecided are sampled together and certified at the first density whose
    certificate holds for all of them."""
    loops = [loop for group in groups for loop in group]
    windings = _exact_windings(loops)
    undecided = [loop for loop, w in zip(loops, windings) if w is None]
    if undecided:
        sampled = iter(_refine(lambda density: _certify(sample_loops(undecided, density))[0]))
        windings = [next(sampled) if w is None else w for w in windings]
    windings = iter(windings)
    return [sum(itertools.islice(windings, len(group))) for group in groups]


# --- the exact index: the torus formula over one crossing table per map ----------

CROSSING, REFUSED = 1, 2
IOTA = np.array([1, -1])  # the sign of a pair's crossings u and v


class _CrossingTable:
    """Every source circle v of a faithful map against every image circle w,
    classified once, by meeting_pairs, under the EPS_GEOM it was built with.
    It keeps the pairs that meet without nesting, sorted by v and then w, in
    the columns v, w, kind, theta and theta_t; rows first[v]:first[v + 1]
    are source circle v's.  kind is REFUSED where circles_tangent holds
    (tangent or equal circles) or where circle_intersections calls the
    crossings near-tangent, and CROSSING otherwise.  A CROSSING row holds
    the angles on the source and on the image circle of
    circle_intersections' u (where the source circle enters the image disk,
    iota = +1), then of its v (iota = -1); REFUSED rows hold zeros."""

    def __init__(self, circles, circles_t):
        self.eps = eps = geom.EPS_GEOM
        v, w, code, d = geom.meeting_pairs(circles, circles_t)
        meet = (code != RELATIONS.index(DiskRelation.FIRST_CONTAINS_SECOND)) & (code != RELATIONS.index(DiskRelation.SECOND_CONTAINS_FIRST))
        v, w, code, d = (x[meet] for x in (v, w, code, d))
        k = np.flatnonzero(code == RELATIONS.index(DiskRelation.OVERLAPPING))
        kind = np.full(len(v), REFUSED)
        c, r, c_t, r_t, d = circles[0][v[k]], circles[1][v[k]], circles_t[0][w[k]], circles_t[1][w[k]], d[k]
        along = (r**2 - r_t**2 + d * d) / (2 * d)
        h2 = r**2 - along**2
        near = h2 <= (eps * np.maximum(r, 1.0)) ** 2
        k, c, c_t, d, along, h = (x[~near] for x in (k, c, c_t, d, along, np.sqrt(np.maximum(h2, 0.0))))
        kind[k] = CROSSING
        axis = (c_t - c) / d
        mid = c + along * axis
        # u = mid - i*axis*h, as circle_intersections places it
        z = np.stack([mid - 1j * axis * h, mid + 1j * axis * h], axis=1)
        self.theta, self.theta_t = np.zeros((len(v), 2)), np.zeros((len(v), 2))
        self.theta[k], self.theta_t[k] = np.angle(z - c[:, None]), np.angle(z - c_t[:, None])
        self.v, self.w, self.kind = v, w, kind
        self.first = np.searchsorted(v, np.arange(len(circles[1]) + 1))


def _exact_windings(loops) -> list:
    """The displacement winding of each loop of one faithful map, by the
    torus formula, or None where the count cannot decide it.  Runs of
    consecutive loops holding at most PASS_SAMPLES arcs together, or one
    loop that alone holds more, are counted in one numpy pass each.

    The image of arc k lies on the target circle of its vertex v, from
    phi_v(a0) over phi_v(a0 + da) - phi_v(a0) mod 2 pi (2 pi for a full
    circle).  A position on either curve is (arc, offset), ordered by arc and
    then offset, and the map is the monotone graph offset -> phi_v(a0 +
    offset) - phi_v(a0) within each arc.  With u the start of arc 0 and u~ its
    image, eta = w(gamma, u~) + w(gamma~, u) - the sum of iota(z) =
    -sign Im(conj(z - c)(z - c~)) over the crossings z of the two curves
    whose image position lies below the graph at their source position:
    index_via_torus's eta_down.  The crossings are those of each source
    circle of the loop with each of its image circles, read from the map's
    crossing table.  Undecided: a vertex map that is not monotone of degree
    one, an arc no longer than 10 EPS_GEOM, a source circle tangent to or
    equal to an image circle, or crossing it near-tangent, a crossing within
    10 EPS_GEOM of an arc end or of the graph, and a base point within
    10 EPS_GEOM of the other curve."""
    if not loops:
        return []
    out, lo = [], 0
    for hi in _pass_ends([len(loop.arcs) for loop in loops]):
        out += _count_windings([loop.arcs for loop in loops[lo:hi]], loops[lo].table)
        lo = hi
    return out


def _count_windings(curves, table: _NodeTable) -> list:
    """_exact_windings of the closed arc lists of one run, in one pass."""
    tol, n = _min_disp(), len(table.code)
    arcs = [arc for arcs in curves for arc in arcs]
    n_loops, n_arcs = len(curves), len(arcs)
    sizes = np.array([len(arcs) for arcs in curves], dtype=np.intp)
    loop = np.repeat(np.arange(n_loops), sizes)
    first = np.cumsum(sizes) - sizes
    code = np.fromiter((table.code[arc[0]] for arc in arcs), np.intp, n_arcs)
    a0 = np.fromiter((arc[1] for arc in arcs), float, n_arcs)
    da = np.fromiter((arc[2] for arc in arcs), float, n_arcs)
    refused = np.bincount(loop[~table.degree_one[code]], minlength=n_loops) > 0
    # the arcs of a loop on one of its circles, a group keyed loop * n +
    # code, which do not overlap, sorted by group and then start angle
    a0_mod, group_key = a0 % TWO_PI, loop * n + code
    by_start = np.lexsort((a0_mod, group_key))
    key = group_key[by_start]
    lo = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    hi = np.append(lo[1:], n_arcs) - 1
    groups = key[lo]
    # every row of the crossing table of a source circle of a loop against
    # an image circle of the same loop
    crossings = table.crossings()
    row_lo = crossings.first[groups % n]
    count = crossings.first[groups % n + 1] - row_lo
    src_group = np.repeat(np.arange(len(groups)), count)
    row = np.arange(len(src_group)) + np.repeat(row_lo + count - np.cumsum(count), count)
    image = groups[src_group] - groups[src_group] % n + crossings.w[row]
    dst_group = np.searchsorted(groups, image)
    mine = groups.take(dst_group, mode="clip") == image
    src_group, dst_group, row = src_group[mine], dst_group[mine], row[mine]
    kind = crossings.kind[row]
    refused[groups[src_group[kind == REFUSED]] // n] = True
    # the crossings u, then v, of each crossing pair
    pick = kind == CROSSING
    row, src_group, dst_group = row[pick], np.repeat(src_group[pick], 2), np.repeat(dst_group[pick], 2)
    theta, theta_t, iota = crossings.theta[row].ravel(), crossings.theta_t[row].ravel(), np.tile(IOTA, len(row))
    # each crossing's arcs on the source and on the image circle: the arc of
    # its group that starts last at or before it, cyclically, and the next;
    # the vertex maps at the arcs' starts and ends, and at the crossings on
    # a source arc: where the graph lies
    sorted_groups = (key, lo, hi, groups)
    k, k_next = _arcs_at(sorted_groups, by_start, a0_mod, src_group, theta % TWO_PI)
    t = (theta - a0[k]) % TWO_PI  # offset on the source arc
    on_src = np.flatnonzero(t < da[k])
    b0, b1, graph = np.split(
        table.angles(np.concatenate([code, code, code[k[on_src]]]), np.concatenate([a0, a0 + da, a0[k[on_src]] + t[on_src]])),
        [n_arcs, 2 * n_arcs],
    )
    span_t = np.where(da == TWO_PI, TWO_PI, (b1 - b0) % TWO_PI)
    b0_mod = b0 % TWO_PI
    m, m_next = _arcs_at(sorted_groups, np.lexsort((b0_mod, group_key)), b0_mod, dst_group, theta_t % TWO_PI)
    # the source arcs, then their images: circle, start angle, span
    center = np.concatenate([table.circles[0][code], table.circles_t[0][code]])
    radius = np.concatenate([table.circles[1][code], table.circles_t[1][code]])
    t0, span = np.concatenate([a0, b0]), np.concatenate([da, span_t])
    side_loop = np.concatenate([loop, loop + n_loops])
    # each crossing's offsets on its source arc and the next, and on its
    # image arc and the next; a crossing within tol of an end of any of
    # them; an arc no longer than tol
    arc = np.concatenate([k, k_next, n_arcs + m, n_arcs + m_next])
    offset = (np.concatenate([theta, theta, theta_t, theta_t]) - t0[arc]) % TWO_PI
    refused[loop[k[_near_end(offset, radius[arc], span[arc], tol).reshape(4, -1).any(axis=0)]]] = True
    refused[side_loop[radius * span <= tol] % n_loops] = True
    s = offset[2 * len(k) : 3 * len(k)]  # offset on the image arc
    # each curve against the other curve's base point, the start of its first
    # arc: their distance, and the base winding, which each arc turns by the
    # angle between its ends, in [0, 2 pi) about a point inside its circle
    start, end = center + radius * np.exp(1j * t0), center + radius * np.exp(1j * (t0 + span))
    base = np.concatenate([start[n_arcs + first][loop], start[first][loop]])
    rel = base - center
    gap = np.minimum(complex_abs(base - start), complex_abs(base - end))
    gap = np.where((np.angle(rel) - t0) % TWO_PI <= span, np.minimum(gap, np.abs(complex_abs(rel) - radius)), gap)
    refused[side_loop[gap <= tol] % n_loops] = True
    inside = complex_abs(rel) < radius
    turn = np.angle((end - base) * np.conj(start - base))
    turn = np.where(span == TWO_PI, np.where(inside, TWO_PI, 0.0), np.where(inside & (turn < 0), turn + TWO_PI, turn))
    eta = np.round(np.bincount(side_loop, weights=turn, minlength=2 * n_loops) / TWO_PI).reshape(2, n_loops).sum(axis=0)
    # a crossing on both arcs counts when its image arc comes before its
    # source arc, or is the same arc with the image offset below the graph,
    # which it may not come within tol of
    held = (t < da[k]) & (s < span_t[m])
    below = held & (m < k)
    own = held[on_src] & (k[on_src] == m[on_src])
    graph = (graph[own] - b0[k[on_src[own]]]) % TWO_PI
    own = on_src[own]
    below[own] = s[own] < graph
    refused[loop[k[own[radius[n_arcs + k[own]] * np.abs(s[own] - graph) <= tol]]]] = True
    eta -= np.bincount(loop[k], weights=iota * below, minlength=n_loops)
    return [None if r else int(e) for r, e in zip(refused.tolist(), eta.tolist())]


def _arcs_at(sorted_groups, order, start, group, at):
    """For each angle at in [0, 2 pi) on the circle of the arcs of group
    index group: the arc of that group that starts last at or before it,
    cyclically, and the arc after that one.  order sorts the arcs by group
    and then by their start angle; sorted_groups holds, in that order, each
    arc's group key, and each group's first and last position and key.
    Complex keys group key + i*angle compare lexicographically, and
    exactly."""
    key, lo, hi, groups = sorted_groups
    pos = np.searchsorted(key + 1j * start[order], groups[group] + 1j * at, side="right") - 1
    lo, hi = lo[group], hi[group]
    pos = np.where(pos < lo, hi, pos)
    return order[pos], order[np.where(pos == hi, lo, pos + 1)]


def _near_end(offset, radius, span, tol):
    """Whether each offset on an arc lies within tol of one of its ends."""
    to_end = np.abs(offset - span)
    return radius * np.minimum(np.minimum(offset, TWO_PI - offset), np.minimum(to_end, TWO_PI - to_end)) <= tol


def _successor(x, starts, last):
    """x at each sample's successor: the next sample of its loop, or, at the
    last sample of a loop, the loop's first."""
    out = np.empty_like(x)
    out[:-1] = x[1:]
    out[last] = x[starts]
    return out


def _certify(loops):
    """(winding of each loop, smallest displacement) of the sampled loops,
    each certified fixed-point free: every displacement exceeds _min_disp(),
    and between consecutive samples the displacement cannot vanish, as it
    moves by at most the source and image chords.  Runs of consecutive loops
    that hold at most PASS_SAMPLES samples together are certified in one
    numpy pass.  Raises as the first loop that fails, checked in order for
    its displacement, its gap and its winding residual."""
    per_curve, min_disp = [], math.inf
    sizes = [len(loop.src) for loop in loops]
    lo = 0
    for hi in _pass_ends(sizes):
        src = np.concatenate([loop.src for loop in loops[lo:hi]])
        dst = np.concatenate([loop.dst for loop in loops[lo:hi]])
        starts = np.array(list(itertools.accumulate(sizes[lo:hi - 1], initial=0)), dtype=np.intp)
        successor = functools.partial(_successor, starts=starts, last=np.append(starts[1:], len(src)) - 1)
        disp = dst - src
        rel = np.abs(disp)
        low = np.minimum.reduceat(rel, starts)
        chord = np.abs(successor(src) - src) + np.abs(successor(dst) - dst)
        gap = np.minimum.reduceat(np.minimum(rel, successor(rel)) - chord, starts)
        ang = np.angle(disp)
        turns = np.add.reduceat((successor(ang) - ang + math.pi) % TWO_PI - math.pi, starts) / TWO_PI
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
    """Per-curve displacement winding and the multiply-connected sum: exact
    when the crossing count decides every curve, otherwise sampled and
    certified, refining the sampling on NearFixedPoint up to the densest
    grid.  The report is kept on the map and returned again while EPS_GEOM
    is unchanged."""
    eps = geom.EPS_GEOM
    if fmap._index is not None and fmap._index[0] == eps:
        return fmap._index[1]
    loops = fmap.loops()
    per_curve = _exact_windings(loops)
    if None in per_curve:
        per_curve, min_disp = _refine(lambda density: _certify(sample_loops(loops, density)))
        report = IndexReport(sum(per_curve), per_curve, "sampled", lambda: min_disp)
    else:
        report = IndexReport(sum(per_curve), per_curve, "exact", functools.partial(_sampled_min_displacement, loops, eps))
    fmap._index = (eps, report)
    return report


def _sampled_min_displacement(loops, eps: float) -> float | None:
    """The smallest displacement of the loops' samples at the first density
    whose certificate holds, under the tolerance eps of their report, or
    None when no density certifies them: _certify's value on sample_loops,
    bit for bit, found by _bounded_min_displacement."""
    saved, geom.EPS_GEOM = geom.EPS_GEOM, eps
    try:
        arcs = _LoopArcs(loops)
        return _refine(functools.partial(_bounded_min_displacement, arcs))
    except NearFixedPoint:
        return None
    finally:
        geom.EPS_GEOM = saved


# --- min_displacement, sampled only where an arc-length bound cannot settle it ---

# The coarse pass samples each arc uniformly, without corner windows, at
# 1/COARSE of the density: a step 8 times the fine one moves the displacement
# by at most 8 fine steps' arc length, which on most arcs is still far below
# the displacement, while the pass costs about a sixteenth of sampling every
# arc, whose corner windows hold about half its points.
COARSE = 8


class _LoopArcs:
    """The arcs of the loops of one faithful map as flat arrays, in loop and
    then arc order: vertex code, a0, da, the refine flags and the next arc of
    the same loop (cyclically).  Each arc's Lipschitz constant L = r + r~ s,
    with s the steepest span_t / span of its vertex map, bounds how fast the
    displacement moves with the source angle; margin exceeds the rounding of
    a displacement, and of L times an angle, on the arc.  first holds the
    source and image of each arc's first sample, at offset 0 of its grid at
    every density, and rel their distance; jump, how far the next arc's
    first sample lies from this arc's end, on the source and the image
    (rounding at a crossing, up to the tangency tolerance at a tangency)."""

    def __init__(self, loops):
        self.table = table = loops[0].table
        arcs = [arc for loop in loops for arc in loop.arcs]
        sizes = np.array([len(loop.arcs) for loop in loops], dtype=np.intp)
        self.code = code = np.array([table.code[arc[0]] for arc in arcs], dtype=np.intp)
        self.a0, self.da, refine_start, refine_end = np.array([arc[1:] for arc in arcs], dtype=float).T
        self.refine = (refine_start != 0, refine_end != 0)
        first = np.repeat(np.cumsum(sizes) - sizes, sizes)
        k = np.arange(len(arcs))
        self.next = np.where(k == first + np.repeat(sizes, sizes) - 1, first, k + 1)
        c, r = table.circles[0][code], table.circles[1][code]
        c_t, r_t = table.circles_t[0][code], table.circles_t[1][code]
        self.lipschitz = r + r_t * table.slope[code]
        self.margin = 1e-12 * (np.abs(c) + r + np.abs(c_t) + r_t + self.lipschitz)
        self.first = table.points(code, self.a0 + 0.0)
        self.rel = np.abs(self.first[1] - self.first[0])
        end_src, end_dst = table.points(code, self.a0 + self.da)
        self.jump = np.abs(self.first[0][self.next] - end_src) + np.abs(self.first[1][self.next] - end_dst)

    def grids(self, sel, density, windows=True):
        """(arc, offset, source, image) of the grids of the arcs sel, in
        order, at the density, in passes: each arc's points are those
        _sample_curves gives it, or without windows its uniform points."""
        for arc, off in _grid_passes(self.da[sel], self.refine[0][sel] & windows, self.refine[1][sel] & windows, density):
            arc = sel[arc]
            yield (arc, off, *self.table.points(self.code[arc], self.a0[arc] + off))


def _arc_starts(arc):
    """The position of each arc's first sample in a run sorted by arc."""
    return np.flatnonzero(np.concatenate([[True], arc[1:] != arc[:-1]]))


def _arc_bounds(arcs: _LoopArcs, density):
    """The uniform coarse pass at density / COARSE: (a lower bound on each
    arc's displacement, the smallest coarse displacement).  Between coarse
    samples j and j + 1 an angle w_j apart the displacement is at least
    (rel_j + rel_j+1 - L w_j) / 2, and after an arc's last sample at least
    rel - L w to the arc's end."""
    bound, least = np.empty(len(arcs.a0)), math.inf
    for arc, off, src, dst in arcs.grids(np.arange(len(arcs.a0)), density / COARSE, windows=False):
        rel = np.abs(dst - src)
        starts = _arc_starts(arc)
        ends = np.append(starts[1:], len(arc)) - 1
        lip = arcs.lipschitz[arc]
        low = np.empty(len(arc))
        low[:-1] = (rel[:-1] + rel[1:] - lip[:-1] * (off[1:] - off[:-1])) / 2
        low[ends] = rel[ends] - lip[ends] * (arcs.da[arc[ends]] - off[ends])
        k = arc[starts]
        bound[k] = np.minimum.reduceat(low, starts) - arcs.margin[k]
        least = min(least, float(rel.min()))
    return bound, least


def _bounded_min_displacement(arcs: _LoopArcs, density: int) -> float:
    """_certify(sample_loops(loops, density))[1] of the loops of arcs, bit
    for bit, raising NearFixedPoint where that raises, while sampling on
    the density's grid only the arcs the coarse bounds cannot settle.

    A step of the grid moves along its arc by at most the arc's uniform
    step, and a chord is no longer than its arc, so a step within an arc
    has a chord of at most L times the uniform step, and a step out of it at
    most that plus the jump to the next arc: its reach.  An arc is settled
    when its bound and the next arc's first sample both exceed its reach,
    so every step within and out of it passes the chord test, and when its
    bound exceeds the smallest sample found, so no sample of it is smaller.
    Every other arc is sampled and checked as _certify checks it, each step
    out of it against the next arc's first sample.  Arcs whose bound the
    smallest sample found comes down to are sampled in turn.

    The winding residual needs no check: when every step passes the chord
    test, |d_i+1 - d_i| < min(|d_i|, |d_i+1|), so each step turns the
    displacement by less than pi / 3, every wrapped turn is the true one,
    and their sum is a whole number of turns up to rounding."""
    tol = _min_disp()
    found = float(arcs.rel.min())
    if found <= tol:
        raise NearFixedPoint(f"min displacement {found:.3g}")
    bound, least = _arc_bounds(arcs, density)
    reach = arcs.lipschitz * arcs.da / _grid_counts(arcs.da, *arcs.refine, density)[0] + arcs.jump + arcs.margin
    sampled = np.zeros(len(bound), dtype=bool)
    # the arcs that cannot be settled, and first those whose bound is below
    # the smallest coarse displacement, where the smallest sample likely lies
    todo = (bound <= reach) | (arcs.rel[arcs.next] <= reach) | (bound <= least)
    while todo.any():
        for arc, _off, src, dst in arcs.grids(np.flatnonzero(todo), density):
            # each sample's successor: the next of its arc, or the next arc's first
            last = np.append(_arc_starts(arc)[1:], len(arc)) - 1
            nxt = arcs.next[arc[last]]
            rel = np.abs(dst - src)
            succ_src, succ_dst, succ_rel = np.append(src[1:], 0j), np.append(dst[1:], 0j), np.append(rel[1:], 0.0)
            succ_src[last], succ_dst[last], succ_rel[last] = arcs.first[0][nxt], arcs.first[1][nxt], arcs.rel[nxt]
            low = float(rel.min())
            if low <= tol:
                raise NearFixedPoint(f"min displacement {low:.3g}")
            chord = np.abs(succ_src - src) + np.abs(succ_dst - dst)
            if (np.minimum(rel, succ_rel) - chord).min() <= 0:
                raise NearFixedPoint("displacement certificate fails between samples")
            found = min(found, low)
        sampled |= todo
        todo = ~sampled & (bound <= found)
    return found
