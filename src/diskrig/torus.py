"""Torus parametrization of a transverse pair of boundary curves: crossing
classification, the two-sided index formula, and synthesis of boundary
homeomorphisms from monotone paths, including the exhaustive zero-index eye
map search and the three-point prescription construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary import SampledLoopMap, _min_disp, _refine, _winding_of_closed, loop_index
from .errors import (
    AlternationViolated,
    BasePointOnBoundary,
    DegenerateInput,
    HypothesesViolated,
    NoNonnegativeRoute,
    NotTransverse,
    NoZeroIndexMap,
    PathThroughTorusPoint,
)
from .geom import (
    Disk,
    Lens,
    Lune,
    arc_contains_angle,
    boundary_crossings,
    circles_tangent,
    eye_nesting,
    regions_meet,
)

TWO_PI = 2 * math.pi
EPS_TORUS = 1e-4


# --- arc chains -----------------------------------------------------------------


@dataclass
class ArcChain:
    """Closed positively oriented curve made of CCW circular arcs."""

    pieces: list  # of Arc

    def __post_init__(self):
        self._lens = np.array([p.length() for p in self.pieces])
        self.total = float(self._lens.sum())
        self._cum = np.concatenate([[0.0], np.cumsum(self._lens)]) / self.total

    def point(self, s):
        s = np.asarray(s, dtype=float) % 1.0
        idx = np.clip(np.searchsorted(self._cum, s, side="right") - 1, 0, len(self.pieces) - 1)
        out = np.empty(s.shape, dtype=complex)
        for k, piece in enumerate(self.pieces):
            mask = idx == k
            if not np.any(mask):
                continue
            frac = (s[mask] - self._cum[k]) / (self._cum[k + 1] - self._cum[k])
            out[mask] = piece.point(frac)
        if out.ndim == 0:
            return complex(out)
        return out

    def param_of(self, z: complex) -> float:
        """Normalized arclength parameter of a point lying on the chain."""
        best = None
        for k, piece in enumerate(self.pieces):
            if abs(abs(z - piece.disk.center) - piece.disk.radius) > 1e-7 * max(1.0, piece.disk.radius):
                continue
            t = (piece.disk.angle_of(z) - piece.a0) % TWO_PI
            if t <= piece.da + 1e-12:
                frac = min(t / piece.da, 1.0)
                s = self._cum[k] + frac * (self._cum[k + 1] - self._cum[k])
                cand = float(s % 1.0)
                if best is None or abs(complex(self.point(cand)) - z) < abs(complex(self.point(best)) - z):
                    best = cand
        if best is None:
            raise NotTransverse(f"point {z} not on chain")
        return best

    def distance(self, z: complex) -> float:
        """Exact distance from a point to the chain."""
        best = math.inf
        for piece in self.pieces:
            radial = piece.disk.angle_of(z)
            if arc_contains_angle(piece, radial):
                best = min(best, abs(abs(z - piece.disk.center) - piece.disk.radius))
            best = min(best, abs(z - piece.start), abs(z - piece.end))
        return best


# --- parametrization ---------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    kind: str  # "p": boundary of K entering K~; "pt": boundary of K~ entering K
    s: float  # param on K
    s_t: float  # param on K~
    point: complex


@dataclass
class TorusParametrization:
    chain: ArcChain
    chain_t: ArcChain
    crossings: list
    region: Disk | Lens  # the region bounded by chain
    region_t: Disk | Lens

    @property
    def M(self) -> int:
        return sum(1 for c in self.crossings if c.kind == "p")


def build_parametrization(k_obj, kt_obj) -> TorusParametrization:
    """Locate and classify all boundary crossings; verifies the alternation law
    along both curves."""
    chain = ArcChain(list(k_obj.boundary_arcs()))
    chain_t = ArcChain(list(kt_obj.boundary_arcs()))
    if any(circles_tangent(p.disk, p_t.disk) for p in chain.pieces for p_t in chain_t.pieces):
        raise NotTransverse("tangent circles in the pair")
    crossings = []
    for piece, piece_t, z in boundary_crossings(k_obj, kt_obj):
        tangent = 1j * (z - piece.disk.center)
        entering = (tangent.conjugate() * (piece_t.disk.center - z)).real > 0
        crossings.append(Crossing("p" if entering else "pt", chain.param_of(z), chain_t.param_of(z), z))
    _check_alternation(crossings)
    return TorusParametrization(chain, chain_t, crossings, k_obj, kt_obj)


def _check_alternation(crossings):
    kinds_p = sum(1 for c in crossings if c.kind == "p")
    if 2 * kinds_p != len(crossings):
        raise AlternationViolated("unequal numbers of entering/exiting crossings")
    for key in ("s", "s_t"):
        ordered = sorted(crossings, key=lambda c: getattr(c, key))
        seq = [c.kind for c in ordered]
        for a, b in zip(seq, seq[1:] + seq[:1]):
            if a == b:
                raise AlternationViolated(f"crossings do not alternate along {key}")
        sv = [getattr(c, key) for c in ordered]
        if any(b - a < 1e-12 for a, b in zip(sv, sv[1:])):
            raise AlternationViolated("crossings share a torus coordinate")


# --- graph maps (monotone torus paths) ------------------------------------------------


@dataclass
class GraphMap:
    """Boundary homeomorphism given by its monotone graph in base-shifted
    torus coordinates: y(x) with x, y in [0, 1], endpoints (0,0) -> (1,1)."""

    param: TorusParametrization
    base_s: float  # kappa(u)
    base_st: float  # kappa~(u~)
    xs: np.ndarray
    ys: np.ndarray

    def eval_y(self, x):
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def loop(self, n: int = 4096) -> SampledLoopMap:
        grid = self._sample_grid(n)
        y = self.eval_y(grid)
        src = self.param.chain.point((grid + self.base_s) % 1.0)
        dst = self.param.chain_t.point((y + self.base_st) % 1.0)
        return SampledLoopMap(src, dst)

    def _sample_grid(self, n: int) -> np.ndarray:
        """The sorted distinct points of n even steps, the path's corners in
        [0, 1) and a window 32 times finer about each crossing."""
        corners = self.xs[(0 <= self.xs) & (self.xs < 1)] % 1.0
        parts = [np.linspace(0.0, 1.0, n, endpoint=False), corners]
        fine = 1.0 / (32 * n)
        for c in self.param.crossings:
            x = (c.s - self.base_s) % 1.0
            parts.append(np.arange(max(0.0, x - 0.01), min(1.0 - 1e-12, x + 0.01), fine))
        return np.unique(np.concatenate(parts))


def shifted_crossings(param: TorusParametrization, base_s: float, base_st: float):
    return [
        (c.kind, (c.s - base_s) % 1.0, (c.s_t - base_st) % 1.0) for c in param.crossings
    ]


def index_via_torus(gmap: GraphMap, u: complex | None = None) -> int:
    """The torus index formula's down-count: the base windings, minus each
    entering crossing (p) and plus each exiting one (pt) below the graph.

    The up-count, which adds the p and subtracts the pt crossings above the
    graph, differs from it by #pt - #p, which build_parametrization's
    alternation check holds at 0, so it is not evaluated.  u defaults to the
    graph's base point.  The base point must be off the other curve (and
    its image off this curve).
    """
    param = gmap.param
    if u is None:
        x_u = 0.0
    else:
        x_u = (param.chain.param_of(u) - gmap.base_s) % 1.0
    y_u = gmap.eval_y(x_u)
    eta = _base_windings(param, x_u + gmap.base_s, y_u + gmap.base_st)
    for kind, x, y in shifted_crossings(param, gmap.base_s, gmap.base_st):
        if (y - y_u) % 1.0 < _eval_rebased(gmap, x_u, y_u, (x - x_u) % 1.0):
            eta += -1 if kind == "p" else 1
    return int(eta)


def _base_windings(param: TorusParametrization, s: float, s_t: float) -> int:
    """w(u~) about the curve of K plus w(u) about the curve of K~, for the
    base pair u = kappa(s), u~ = kappa~(s_t).

    Each chain is a positively oriented simple closed curve, so its winding
    about a point off it is 1 inside its region and 0 outside.  The guard keeps
    both points more than _min_disp() (10 EPS_GEOM) from the other curve, so
    the strict membership test (margin EPS_GEOM) reads them exactly.
    """
    u, ut = complex(param.chain.point(s)), complex(param.chain_t.point(s_t))
    if param.chain_t.distance(u) <= _min_disp() or param.chain.distance(ut) <= _min_disp():
        raise BasePointOnBoundary("base point or its image lies on the other curve")
    return param.region.contains(ut, strict=True) + param.region_t.contains(u, strict=True)


def _eval_rebased(gmap: GraphMap, x_u: float, y_u: float, xr: float) -> float:
    """Graph function in coordinates re-based at (x_u, gamma(x_u)); the graph
    extends periodically as Gamma(x) = eval_y(x mod 1) + floor(x)."""
    t = xr + x_u
    if t < 1.0:
        return gmap.eval_y(t) - y_u
    return gmap.eval_y(t - 1.0) + 1.0 - y_u


def verify_local_windings(param: TorusParametrization) -> bool:
    """w(zeta(p)) = +1 and w(zeta(p~)) = -1 for a small coordinate square
    around every crossing."""
    if not param.crossings:
        return True
    gaps = []
    for vals in ([c.s for c in param.crossings], [c.s_t for c in param.crossings]):
        sv = sorted(vals)
        gaps.extend(((b - a) % 1.0) for a, b in zip(sv, sv[1:] + sv[:1]))
    h = min(0.01, min(g for g in gaps if g > 0) / 4)
    n = 64
    t = np.arange(n) / n
    for c in param.crossings:
        xs = np.concatenate([c.s - h + 2 * h * t, np.full(n, c.s + h), c.s + h - 2 * h * t, np.full(n, c.s - h)])
        ys = np.concatenate([np.full(n, c.s_t - h), c.s_t - h + 2 * h * t, np.full(n, c.s_t + h), c.s_t + h - 2 * h * t])
        disp = param.chain_t.point(ys % 1.0) - param.chain.point(xs % 1.0)
        w = _winding_of_closed(disp)
        expected = 1 if c.kind == "p" else -1
        if w != expected:
            return False
    return True


# --- monotone path construction ----------------------------------------------------


def _feasible(below, above):
    for sx, sy in below:
        for tx, ty in above:
            if sx < tx and sy > ty:
                return False
    return True


def _construct_path(points, labels, waypoints, margin=EPS_TORUS):
    """Monotone PL path from (0,0) to (1,1) through the waypoints, keeping
    each labeled point strictly below/above with the given margin."""
    nodes = [(0.0, 0.0)] + sorted(waypoints) + [(1.0, 1.0)]
    xs = [0.0]
    ys = [0.0]
    for (x0, y0), (x1, y1) in zip(nodes, nodes[1:]):
        seg = [
            (px, py, lab)
            for (px, py), lab in zip(points, labels)
            if x0 + 1e-15 < px < x1 - 1e-15 and y0 + 1e-15 < py < y1 - 1e-15
        ]
        seg.sort()
        h_prev = y0
        for px, py, lab in seg:
            lo = h_prev
            hi = y1
            for qx, qy, qlab in seg:
                if qlab == "below" and qx <= px + margin:
                    lo = max(lo, qy + margin)
                if qlab == "above" and qx >= px - margin:
                    hi = min(hi, qy - margin)
            if lo >= hi:
                raise PathThroughTorusPoint("no corridor at constraint column")
            h = (max(lo, h_prev) + hi) / 2
            if h <= h_prev:
                raise PathThroughTorusPoint("monotonicity pinch")
            xs.append(px)
            ys.append(h)
            h_prev = h
        xs.append(x1)
        ys.append(y1)
    # deduplicate while keeping strict monotonicity
    out_x, out_y = [xs[0]], [ys[0]]
    for x, y in zip(xs[1:], ys[1:]):
        if x > out_x[-1] + 1e-15 and y > out_y[-1] + 1e-15:
            out_x.append(x)
            out_y.append(y)
        elif x >= 1.0 - 1e-15 and y >= 1.0 - 1e-15:
            out_x.append(1.0)
            out_y.append(1.0)
    if out_x[-1] != 1.0:
        out_x.append(1.0)
        out_y.append(1.0)
    return np.array(out_x), np.array(out_y)


def path_to_homeomorphism(param: TorusParametrization, base_s, base_st, xs, ys) -> GraphMap:
    """The boundary homeomorphism whose graph is the given monotone path."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
        raise DegenerateInput("path must be strictly monotone in both coordinates")
    gmap = GraphMap(param, base_s, base_st, xs, ys)
    for kind, x, y in shifted_crossings(param, base_s, base_st):
        if abs(gmap.eval_y(x) - y) < EPS_TORUS / 2:
            raise PathThroughTorusPoint(f"path hits torus point at x={x:.4f}")
    return gmap


def _eta_of_assignment(w_total, sided):
    p_down = sum(1 for kind, _x, _y, below in sided if kind == "p" and below)
    pt_down = sum(1 for kind, _x, _y, below in sided if kind == "pt" and below)
    return w_total - p_down + pt_down


def _build_route(param, base_s, base_st, sided, waypoints, margins):
    """The graph map of a monotone path through the waypoints that passes
    below each (kind, x, y, below) crossing marked below and above the rest,
    trying the margins in turn; None when no margin gives one."""
    below = [(x, y) for _k, x, y, b in sided if b]
    above = [(x, y) for _k, x, y, b in sided if not b]
    if not _feasible(below, above):
        return None
    labels = ["below"] * len(below) + ["above"] * len(above)
    for margin in margins:
        try:
            xs, ys = _construct_path(below + above, labels, waypoints, margin=margin)
            return path_to_homeomorphism(param, base_s, base_st, xs, ys)
        except (PathThroughTorusPoint, DegenerateInput):
            continue
    return None


def _route_search(param, base_s, base_st, waypoints, w_total, target):
    """Enumerate below/above assignments consistent with the waypoints and the
    monotone separation constraint; yield, one at a time, the GraphMaps whose
    assignment achieves target eta."""
    shifted = shifted_crossings(param, base_s, base_st)
    forced = []
    free = []
    for kind, x, y in shifted:
        force = None
        for wx, wy in waypoints:
            if x < wx and y > wy:
                force = "above"
            elif x > wx and y < wy:
                force = "below"
        if force:
            forced.append((kind, x, y, force == "below"))
        else:
            free.append((kind, x, y))
    for bits in itertools.product((True, False), repeat=len(free)):
        sided = forced + [(k, x, y, bit) for (k, x, y), bit in zip(free, bits)]
        if _eta_of_assignment(w_total, sided) != target:
            continue
        gmap = _build_route(param, base_s, base_st, sided, waypoints, (0.02, 0.005, EPS_TORUS))
        if gmap is not None:
            yield gmap


def random_monotone_graph(param: TorusParametrization, rng) -> GraphMap:
    """A random valid monotone path map for the pair, based at default_base
    (used by the formula equivalence experiments)."""
    base_s, base_st = default_base(param)
    shifted = shifted_crossings(param, base_s, base_st)
    for _ in range(64):
        bits = rng.random(len(shifted)) < 0.5
        sided = [(k, x, y, b) for (k, x, y), b in zip(shifted, bits)]
        gmap = _build_route(param, base_s, base_st, sided, [], (EPS_TORUS,))
        if gmap is not None:
            return gmap
    raise NoNonnegativeRoute("could not sample a monotone path")


def default_base(param: TorusParametrization):
    """Base pair at arc midpoints away from all crossings; smallest parameter
    wins ties."""
    cands_s = _gap_midpoints([c.s for c in param.crossings])
    cands_t = _gap_midpoints([c.s_t for c in param.crossings])
    return cands_s[0], cands_t[0]


def _gap_midpoints(vals):
    if not vals:
        return [0.0]
    sv = sorted(vals)
    mids = [((a + ((b - a) % 1.0) / 2) % 1.0) for a, b in zip(sv, sv[1:] + [sv[0] + 1.0])]
    return sorted(mids)


# --- zero-index eye maps and three-point prescriptions -------------------------------


def check_eye_pair_hypotheses(eye: Lens, eye_t: Lens):
    """Hypotheses of the zero-index proposition: neither eye contains the
    other and both pairs of difference regions meet."""
    param = build_parametrization(eye, eye_t)
    if param.M == 0:
        if eye_nesting(eye, eye_t):
            raise HypothesesViolated("one eye contains the other")
        return param  # disjoint eyes: the trivial case needs no further hypotheses
    if param.M > 3:
        raise HypothesesViolated(f"eye boundaries cross {2 * param.M} > 6 times")
    a, b = eye.a, eye.b
    at, bt = eye_t.a, eye_t.b
    if not regions_meet(Lune(a, b), Lune(at, bt)):
        raise HypothesesViolated("A-side difference regions do not meet")
    if not regions_meet(Lune(b, a), Lune(bt, at)):
        raise HypothesesViolated("B-side difference regions do not meet")
    return param


def find_zero_index_eye_map(eye: Lens, eye_t: Lens) -> GraphMap:
    """Faithful (corner-respecting) indexable map with eta = 0, by exhaustive
    monotone path search through the corner-pair waypoint: the first route
    whose torus-formula eta is 0.  Each eye's chain starts at its corner u;
    its corner v ends the first arc."""
    param = check_eye_pair_hypotheses(eye, eye_t)
    cx, cy = float(param.chain._cum[1]), float(param.chain_t._cum[1])
    w_total = _base_windings(param, 0.0, 0.0)
    tried = 0
    for gmap in _route_search(param, 0.0, 0.0, [(cx, cy)], w_total, target=0):
        tried += 1
        if index_via_torus(gmap) == 0:
            return gmap
    raise NoZeroIndexMap(f"no faithful eta=0 map among {tried} candidate routes (M={param.M})")


def graph_eta(gmap: GraphMap) -> int:
    """Directly computed displacement winding of a graph map, refining the
    sampling while the fixed-point-free certificate fails: the sampled oracle
    of index_via_torus."""
    return _refine(lambda d: loop_index(gmap.loop(4096 * d)))

