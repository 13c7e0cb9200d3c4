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


def boundary_complex(config: DiskConfiguration) -> list:
    """Trace the union boundary into positively oriented curves, each a list
    of (vertex, a0, da, start, end) arcs of the owning disk's circle, whose
    start and end corners are keys (pair, kind) into the contact table: the
    Contact's pair and its corner 'u', 'v' or 't'; a disk that meets no
    other is one arc with neither.  One interval pass over the table's
    corner angles: sorted by disk, start (mod 2 pi) and length, each covered
    interval is followed by a free arc from its end, (a0 + da) mod 2 pi, to
    the disk's next one, cut at the tangency points inside it, and each
    arc's end corner names the arc of the pair's other disk that follows it.
    Raises DegenerateContact at the first disk, in listing order, with no
    free boundary, with overlapping intervals (three disks share a point) or
    with an empty free arc."""
    labels, n = config.labels, len(config.labels)
    code = {v: k for k, v in enumerate(labels)}
    # refs: each corner's key, in table order; the covered intervals (disk,
    # a0, a1, start ref, end ref), the tangency points (disk, angle, ref),
    # and the second disk of each ref's pair, a ref being an index into refs
    refs, second, covers, marks = [], [], [], []
    for c in config.contacts().values():
        i, j, r = code[c.pair[0]], code[c.pair[1]], len(refs)
        refs += [(c.pair, k) for k in c.kinds]
        second += [j] * len(c.kinds)
        # reading the corners refuses a near-tangent crossing
        if len(c.corners) == 2:
            (ui, uj), (vi, vj) = c.angles
            covers += (i, ui, vi, r, r + 1, j, vj, uj, r + 1, r)
        else:
            ((ti, tj),) = c.angles
            marks += (i, ti, r, j, tj, r)
    covers = np.array(covers, dtype=float).reshape(-1, 5)
    start, length = covers[:, 1] % TWO_PI, (covers[:, 2] - covers[:, 1]) % TWO_PI
    order = np.lexsort((length, start, covers[:, 0]))
    start, length = start[order], length[order]
    disk, start_ref, end_ref = covers[order][:, [0, 3, 4]].astype(np.intp).T
    count, nxt = np.bincount(disk, minlength=n), _cyclic_next(disk)
    covered, start_next, end = np.bincount(disk, length, n), start[nxt], start + length
    # disjoint cyclically ordered intervals tile the circle together with
    # their end-to-next-start gaps; an overlap makes a gap wrap a full turn
    walked = covered + np.bincount(disk, (start_next - end) % TWO_PI, n)
    free_start = end % TWO_PI
    span = (start_next - free_start) % TWO_PI
    full, overlap = covered >= TWO_PI - geom.EPS_GEOM, (count > 0) & (np.abs(walked - TWO_PI) > 1e-9)
    bad = full | overlap | (np.bincount(disk, span <= 1e-12, n) > 0)
    if bad.any():
        b = int(np.argmax(bad))
        if full[b]:
            raise DegenerateContact(f"disk {labels[b]} has no free boundary")
        if overlap[b]:
            # the first interval whose successor starts inside it
            k = np.flatnonzero((disk == b) & ((start_next - start) % TWO_PI < length))[0]
            j, m = (p for r in (start_ref[k], start_ref[nxt[k]]) for p in refs[r][0] if code[p] != b)
            raise DegenerateContact(f"not thin: disks {labels[b]}, {j}, {m} share a point")
        raise DegenerateContact(f"zero-length free arc on disk {labels[b]}")
    # the arcs: disk, a0, da, start ref and end ref
    arcs = [disk, free_start, span, end_ref, start_ref[nxt]]
    if marks:
        marks = np.array(marks, dtype=float).reshape(-1, 3)
        at, (mark_disk, mark_ref) = marks[:, 1], marks[:, [0, 2]].astype(np.intp).T
        # a point on a disk with intervals lies in the free arc after the
        # last interval starting at or before it, or in none
        split = np.flatnonzero(count[mark_disk] > 0)
        gap = np.searchsorted(disk + 1j * start, mark_disk[split] + 1j * (at[split] % TWO_PI), side="right") - 1
        gap = np.where(disk[gap] == mark_disk[split], gap, np.searchsorted(disk, mark_disk[split], side="right") - 1)
        offset = (at[split] - free_start[gap]) % TWO_PI
        inside = (0 < offset) & (offset < span[gap])
        # an arc runs from an interval's end or a point to the next point of
        # its free arc, or to the free arc's end
        g = np.concatenate([np.arange(len(disk)), gap[inside]])
        offset = np.concatenate([np.zeros(len(disk)), offset[inside]])
        order = np.lexsort((offset, g))
        g, offset, ref = g[order], offset[order], np.concatenate([end_ref, mark_ref[split[inside]]])[order]
        more, after = np.concatenate([g[1:] == g[:-1], [False]]), np.minimum(np.arange(1, len(g) + 1), len(g) - 1)
        stop, stop_ref = np.where(more, offset[after], span[g]), np.where(more, ref[after], start_ref[nxt[g]])
        arcs = [disk[g], (free_start[g] + offset) % TWO_PI, stop - offset, ref, stop_ref]
        # a disk with tangency points only is cut at their raw angles
        lone = np.flatnonzero(count[mark_disk] == 0)
        lone = lone[np.lexsort((at[lone], mark_disk[lone]))]
        after = lone[_cyclic_next(mark_disk[lone])]
        da = (at[after] - at[lone]) % TWO_PI
        cuts = (mark_disk[lone], at[lone], np.where(da == 0, TWO_PI, da), mark_ref[lone], mark_ref[after])
        order = np.argsort(np.concatenate([arcs[0], cuts[0]]), kind="stable")
        arcs = [np.concatenate(x)[order] for x in zip(arcs, cuts)]
    vertex, a0, da, begin, end = arcs
    # the arc starting at ref r has the key 2 r on the first disk of r's pair
    # and 2 r + 1 on the second; an arc's successor starts at its end ref on
    # the other disk
    second = np.array(second, dtype=np.intp)
    arc_at = np.full(2 * len(refs), -1)
    arc_at[2 * begin + (second[begin] == vertex)] = np.arange(len(vertex))
    succ = arc_at[2 * end + (second[end] != vertex)].tolist()
    pieces = [(labels[x], t0, span, refs[s], refs[f]) for x, t0, span, s, f in zip(*(x.tolist() for x in arcs))]
    bounds, used, curves = np.searchsorted(vertex, np.arange(n + 1)).tolist(), [False] * len(pieces), []
    # curves are traced in str order of the labels, whatever the listing
    # order; a disk that meets no other is a whole circle from angle 0
    for x in sorted(range(n), key=lambda k: str(labels[k])):
        if bounds[x] == bounds[x + 1]:
            curves.append([(labels[x], 0.0, TWO_PI, None, None)])
        for first in range(bounds[x], bounds[x + 1]):
            cycle, k = [], first
            while not used[k]:
                used[k] = True
                cycle.append(pieces[k])
                if succ[k] < 0:
                    pair, kind = pieces[k][4]
                    raise DegenerateContact(f"no continuation at corner {kind} of pair {pair}")
                k = succ[k]
            if cycle:
                curves.append(cycle)
    return curves


def _cyclic_next(group):
    """The next row of each row's group, cyclically, for rows sorted by
    group."""
    last = np.concatenate([group[1:] != group[:-1], [True]])
    return np.where(last, np.searchsorted(group, group), np.arange(1, len(group) + 1))


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


class _LoopArcs:
    """The arcs of a list of loops of one faithful map as flat arrays, in
    loop and then arc order: each arc's vertex code, a0, da and loop, and
    each loop's first arc.  The rest is built when it is first read: for
    sampling, the refine flags and the next arc of the same loop
    (cyclically); for the bounded min_displacement, each arc's Lipschitz
    constant L = r + r~ s, with s the steepest span_t / span of its vertex
    map, which bounds how fast the displacement moves with the source angle,
    and margin, which exceeds the rounding of a displacement, and of L times
    an angle, on the arc.  first_sample holds the source and image of each
    arc's first sample, at offset 0 of its grid at every density, and their
    distance; jump, how far the next arc's first sample lies from this
    arc's end, on the source and the image (rounding at a crossing, up to
    the tangency tolerance at a tangency)."""

    def __init__(self, loops):
        self.table = table = loops[0].table
        self.arcs = arcs = [arc for loop in loops for arc in loop.arcs]
        n = len(arcs)
        sizes = np.fromiter((len(loop.arcs) for loop in loops), np.intp, len(loops))
        self.code = np.fromiter((table.code[arc[0]] for arc in arcs), np.intp, n)
        self.a0 = np.fromiter((arc[1] for arc in arcs), float, n)
        self.da = np.fromiter((arc[2] for arc in arcs), float, n)
        self.loop = np.repeat(np.arange(len(loops)), sizes)
        self.first = np.cumsum(sizes) - sizes

    @functools.cached_property
    def refine(self):
        return tuple(np.fromiter((arc[k] for arc in self.arcs), bool, len(self.arcs)) for k in (3, 4))

    @functools.cached_property
    def next(self):
        nxt = np.arange(1, len(self.arcs) + 1)
        nxt[np.append(self.first[1:], len(self.arcs)) - 1] = self.first
        return nxt

    @functools.cached_property
    def lipschitz(self):
        table, code = self.table, self.code
        return table.circles[1][code] + table.circles_t[1][code] * table.slope[code]

    @functools.cached_property
    def margin(self):
        c, r, c_t, r_t = (x[self.code] for x in (*self.table.circles, *self.table.circles_t))
        return 1e-12 * (np.abs(c) + r + np.abs(c_t) + r_t + self.lipschitz)

    @functools.cached_property
    def first_sample(self):
        src, dst = self.table.points(self.code, self.a0 + 0.0)
        return src, dst, np.abs(dst - src)

    @functools.cached_property
    def jump(self):
        (src, dst, _rel), nxt = self.first_sample, self.next
        end_src, end_dst = self.table.points(self.code, self.a0 + self.da)
        return np.abs(src[nxt] - end_src) + np.abs(dst[nxt] - end_dst)

    def grids(self, sel, density, windows=True):
        """(arc, offset, source, image) of the grids of the arcs sel, in
        order, at the density, in passes of whole consecutive arcs that
        _pass_ends takes: each arc's points are those sample_loops gives it,
        or without windows its uniform points."""
        spans = self.da[sel]
        counts = _grid_counts(spans, self.refine[0][sel] & windows, self.refine[1][sel] & windows, density)
        lo = 0
        for hi in _pass_ends(sum(counts).tolist()):
            arc, off = _arcs_offsets(spans[lo:hi], [c[lo:hi] for c in counts], density)
            arc = sel[arc + lo]
            yield (arc, off, *self.table.points(self.code[arc], self.a0[arc] + off))
            lo = hi


def sample_loops(loops, density: int) -> list:
    """The SampledLoopMap of each loop of one faithful map at the sampling
    density, in arc order, taken in passes over whole consecutive arcs of
    all the loops."""
    arcs = _LoopArcs(loops)
    pieces = [[] for _ in loops]
    for arc, _off, src, dst in arcs.grids(np.arange(len(arcs.arcs)), density):
        # cut the pass where each of its loops after the first starts: a loop
        # within one pass is a view of it, and only a loop that spans passes
        # is copied
        first, last = arcs.loop[arc[[0, -1]]].tolist()
        cuts = [0, *np.searchsorted(arc, arcs.first[first + 1 : last + 1]).tolist(), len(arc)]
        for c, a, b in zip(range(first, last + 1), cuts, cuts[1:]):
            pieces[c].append((src[a:b], dst[a:b]))
    return [SampledLoopMap(*(p[0] if len(p) == 1 else (np.concatenate(s) for s in zip(*p)))) for p in pieces]


@dataclass
class IndexReport:
    """eta, each curve's winding, and how they were found: method "exact"
    when the crossing count decided every curve, "sampled" when the curves
    it left undecided come from certified samples.  min_displacement, the
    smallest displacement of all the curves' samples at the first density
    whose certificate holds for all of them, is found only when it is first
    read (sample_min), and is None when no density certifies them."""

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
    curves: list  # boundary_complex(config)
    nodes: dict
    # (EPS_GEOM, IndexReport) of the last fixed_point_index; nothing changes a
    # map after build_faithful_map, so the report holds while EPS_GEOM does
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @functools.cached_property
    def _table(self) -> _NodeTable:
        return _NodeTable(self.config, self.config_t, self.nodes)

    def loops(self) -> list:
        return self._arc_loops(self.curves)

    def subset_loops(self, subset) -> list:
        """The loops of the faithful map restricted to the union of the given
        vertex subset (uses the same vertex maps, so additivity identities
        are exact)."""
        return self._arc_loops(boundary_complex(self.config.restricted(subset)))

    def _arc_loops(self, curves) -> list:
        """The traced curves as loops of (vertex, a0, da, refine_start,
        refine_end) arcs, refined where an arc ends at a corner."""
        return [ArcLoopMap([(v, a0, da, s is not None, e is not None) for v, a0, da, s, e in c], self._table) for c in curves]

    def disk_loop(self, vertex) -> ArcLoopMap:
        """delta_v: the induced map on the full circle of one disk."""
        angles = [t for t, _t in self.nodes[vertex]]
        arcs = [(vertex, t, span, True, True) for t, span in zip(angles, cyclic_spans(angles))]
        return ArcLoopMap(arcs or [(vertex, 0.0, TWO_PI, False, False)], self._table)

    def eye_loop(self, i, j) -> ArcLoopMap:
        """epsilon_ij: the induced map on the eye boundary of pair {i, j}."""
        c = overlap_contact(self.config, i, j)  # the eye, oriented by c.pair
        return ArcLoopMap([(k, arc.a0, arc.da, True, True) for k, arc in zip(c.pair, c.lens.boundary_arcs())], self._table)


def _match_curves(curves, curves_t):
    """Raise CombinatoricsMismatch unless each source curve, in order, takes
    the first target curve not yet taken with the same arc labels, (vertex,
    end pair or None), up to rotation."""
    if len(curves) != len(curves_t):
        raise CombinatoricsMismatch(f"{len(curves)} vs {len(curves_t)} boundary curves")
    free = [_signature(c) for c in curves_t]
    for c in curves:
        sig = _signature(c)
        found = next((k for k, sig_t in enumerate(free) if len(sig) == len(sig_t) and _cyclic_equal(sig, sig_t)), None)
        if found is None:
            raise CombinatoricsMismatch(f"no matching curve for signature {sig}")
        del free[found]


def _signature(curve):
    return [(v, e[0] if e else None) for v, _a0, _da, _s, e in curve]


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
    curves = boundary_complex(config)
    _match_curves(curves, boundary_complex(config_tilde))

    # each corner pins its angle on both disks of its pair
    nodes = {v: [] for v in config.labels}
    contacts_t = config_tilde.contacts()
    for e, c in config.contacts().items():
        c_t = contacts_t[e]
        if c.relation is not c_t.relation:
            raise CombinatoricsMismatch(f"pair {c.pair} differs in contact type")
        for z, z_t, angles, angles_t in zip(c.corners, c_t.corners, c.angles, c_t.angles):
            if abs(z - z_t) <= _min_disp():
                raise CoincidentCorner(f"corner of pair {c.pair} is fixed")
            for v, t, t_t in zip(c.pair, angles, angles_t):
                nodes[v].append((t % TWO_PI, t_t % TWO_PI))
    for v in config.labels:
        d, dt = config.disks[v], config_tilde.disks[v]
        for z, zt in (pins or {}).get(v, ()):
            nodes[v].append((d.angle_of(_project(d, z)) % TWO_PI, dt.angle_of(_project(dt, zt)) % TWO_PI))
        nodes[v] = sorted(set(nodes[v]))
        _check_monotone(nodes[v], v)
        if rng is not None and n_random_pins and nodes[v]:
            nodes[v] = _randomize_vmap(nodes[v], rng, n_random_pins, v)
    return FaithfulMap(config, config_tilde, curves, nodes)


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


def _windings(loops):
    """(each loop's displacement winding, "exact" or "sampled") for loops of
    one faithful map: exact for each loop the crossing count decides.  The
    loops it leaves undecided, if any, are sampled together and certified at
    the first density whose certificate holds for all of them."""
    windings = _exact_windings(loops)
    undecided = [loop for loop, w in zip(loops, windings) if w is None]
    if not undecided:
        return windings, "exact"
    sampled = iter(_refine(lambda density: _certify(sample_loops(undecided, density))[0]))
    return [next(sampled) if w is None else w for w in windings], "sampled"


def index_sums(groups) -> list:
    """For each list of loops of one faithful map, the sum of the loops'
    displacement windings, all found by one _windings call."""
    windings = iter(_windings([loop for group in groups for loop in group])[0])
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
    (tangent or equal circles) or where place_crossings finds the crossings
    near-tangent, and CROSSING otherwise.  A CROSSING row holds the angles,
    on the source and on the image circle, of place_crossings' u (where the
    source circle enters the image disk, iota = +1), then of its v (iota =
    -1); REFUSED rows hold zeros."""

    def __init__(self, circles, circles_t):
        self.eps = geom.EPS_GEOM
        v, w, code, d = geom.meeting_pairs(circles, circles_t)
        meet = (code != RELATIONS.index(DiskRelation.FIRST_CONTAINS_SECOND)) & (code != RELATIONS.index(DiskRelation.SECOND_CONTAINS_FIRST))
        v, w, code, d = (x[meet] for x in (v, w, code, d))
        k = np.flatnonzero(code == RELATIONS.index(DiskRelation.OVERLAPPING))
        _z, theta, theta_t, near = geom.place_crossings(circles[0][v[k]], circles[1][v[k]], circles_t[0][w[k]], circles_t[1][w[k]], d[k])
        k, theta, theta_t = k[~near], theta[~near], theta_t[~near]
        self.v, self.w, self.kind = v, w, np.full(len(v), REFUSED)
        self.kind[k] = CROSSING
        self.theta, self.theta_t = np.zeros((len(v), 2)), np.zeros((len(v), 2))
        self.theta[k], self.theta_t[k] = theta, theta_t
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
        out += _count_windings(_LoopArcs(loops[lo:hi]))
        lo = hi
    return out


def _count_windings(arcs: _LoopArcs) -> list:
    """_exact_windings of the loops of one run, in one pass."""
    table, code, a0, da, loop, first = arcs.table, arcs.code, arcs.a0, arcs.da, arcs.loop, arcs.first
    tol, n = _min_disp(), len(table.code)
    n_loops, n_arcs = len(first), len(code)
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
    """Per-curve displacement winding and the multiply-connected sum, from
    _windings.  The report is kept on the map and returned again while
    EPS_GEOM is unchanged."""
    eps = geom.EPS_GEOM
    if fmap._index is not None and fmap._index[0] == eps:
        return fmap._index[1]
    loops = fmap.loops()
    per_curve, method = _windings(loops)
    report = IndexReport(sum(per_curve), per_curve, method, functools.partial(_sampled_min_displacement, loops, eps))
    fmap._index = (eps, report)
    return report


def _sampled_min_displacement(loops, eps: float) -> float | None:
    """The smallest displacement of the loops' samples at the first density
    whose certificate holds, under the tolerance eps of their report, or
    None when no density certifies them: _certify's value on sample_loops,
    bit for bit, found by _bounded_min_displacement."""
    with geom.tolerance(eps):
        try:
            arcs = _LoopArcs(loops)
            return _refine(functools.partial(_bounded_min_displacement, arcs))
        except NearFixedPoint:
            return None


# --- min_displacement, sampled only where an arc-length bound cannot settle it ---

# The coarse pass samples each arc uniformly, without corner windows, at
# 1/COARSE of the density: a step 8 times the fine one moves the displacement
# by at most 8 fine steps' arc length, which on most arcs is still far below
# the displacement, while the pass costs about a sixteenth of sampling every
# arc, whose corner windows hold about half its points.
COARSE = 8


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
    first_src, first_dst, first_rel = arcs.first_sample
    found = float(first_rel.min())
    if found <= tol:
        raise NearFixedPoint(f"min displacement {found:.3g}")
    bound, least = _arc_bounds(arcs, density)
    reach = arcs.lipschitz * arcs.da / _grid_counts(arcs.da, *arcs.refine, density)[0] + arcs.jump + arcs.margin
    sampled = np.zeros(len(bound), dtype=bool)
    # the arcs that cannot be settled, and first those whose bound is below
    # the smallest coarse displacement, where the smallest sample likely lies
    todo = (bound <= reach) | (first_rel[arcs.next] <= reach) | (bound <= least)
    while todo.any():
        for arc, _off, src, dst in arcs.grids(np.flatnonzero(todo), density):
            # each sample's successor: the next of its arc, or the next arc's first
            last = np.append(_arc_starts(arc)[1:], len(arc)) - 1
            nxt = arcs.next[arc[last]]
            rel = np.abs(dst - src)
            succ_src, succ_dst, succ_rel = np.append(src[1:], 0j), np.append(dst[1:], 0j), np.append(rel[1:], 0.0)
            succ_src[last], succ_dst[last], succ_rel[last] = first_src[nxt], first_dst[nxt], first_rel[nxt]
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
