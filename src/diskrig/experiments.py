"""Instance generators and identity checks for the main index-theorem
experiments: same-incidence configuration pairs (Moebius images, per-cluster
dilations, solver re-solves) and the additivity identities.
"""
from __future__ import annotations

import math

import numpy as np

from .boundary import FaithfulMap, build_faithful_map, fixed_point_index, index_sums
from .config import DiskConfiguration, contact_graph, is_general_position, is_thin
from .errors import CoincidentCorner, CombinatoricsMismatch, NearFixedPoint
from .geom import Disk, DiskRelation, center_distance
from .moebius import MoebiusMap, apply_disk, compose, dilation_about, inversion, similarity
from .solver import FixedBoundaryRadii, flower, layout, solve_radii
from .subsumption import subsumptive_subsets

TWO_PI = 2 * math.pi


# --- base configurations ----------------------------------------------------------


def random_chain_config(rng, n=None) -> DiskConfiguration:
    """Open chain of overlapping disks (thin by construction)."""
    n = n or int(rng.integers(3, 7))
    disks = []
    c = 0j
    r = rng.uniform(0.8, 1.2)
    heading = rng.uniform(0, TWO_PI)
    for k in range(n):
        disks.append((k, Disk(c, r)))
        r2 = rng.uniform(0.7, 1.3)
        theta = rng.uniform(0.15, 0.8) * math.pi / 2
        d = center_distance(r, r2, theta)
        heading += rng.normal(0, 0.5)
        c = c + d * np.exp(1j * heading)
        r = r2
    return DiskConfiguration(disks)


def random_ring_config(rng) -> DiskConfiguration:
    """Closed ring of overlapping disks (multiply-connected union)."""
    n = int(rng.integers(5, 8))
    R = 2.0
    gap = 2 * R * math.sin(math.pi / n)
    disks = []
    for k in range(n):
        ang = TWO_PI * k / n + rng.normal(0, 0.02)
        r = gap / 2 * rng.uniform(1.1, 1.25)
        disks.append((k, Disk(R * np.exp(1j * ang), r)))
    return DiskConfiguration(disks)


def random_flower_config(rng) -> DiskConfiguration:
    """Solver-realized flower with random overlap angles below pi/3."""
    n = int(rng.integers(5, 8))
    tri = flower(n)
    theta = {}
    for e in tri.edges():
        theta[e] = float(rng.uniform(0, math.pi / 3.2))
    boundary = {k: float(rng.uniform(0.8, 1.3)) for k in range(1, n + 1)}
    radii = solve_radii(tri, theta, FixedBoundaryRadii(boundary))
    return layout(tri, radii, theta)


def random_thin_config(rng) -> DiskConfiguration:
    kind = rng.integers(3)
    if kind == 0:
        cfg = random_chain_config(rng)
    elif kind == 1:
        cfg = random_ring_config(rng)
    else:
        cfg = random_flower_config(rng)
    if not is_thin(cfg)[0]:
        return random_chain_config(rng, n=4)
    return cfg


# --- same-incidence pairs ------------------------------------------------------------


def random_bounded_moebius(config: DiskConfiguration, rng) -> MoebiusMap:
    """Random Moebius map keeping every disk of the configuration bounded:
    a similarity, optionally composed with an inversion whose pole lies far
    outside the union."""
    rot = np.exp(1j * rng.uniform(0, TWO_PI)) * rng.uniform(0.6, 1.6)
    shift = complex(*rng.normal(0, 2.0, 2))
    m = similarity(rot, shift)
    if rng.random() < 0.5:
        hull_c = sum(d.center for d in config.disks.values()) / len(config)
        span = max(abs(d.center - hull_c) + d.radius for d in config.disks.values())
        pole = hull_c + (span * rng.uniform(2.5, 4.0)) * np.exp(1j * rng.uniform(0, TWO_PI))
        scale = span * span * rng.uniform(2, 5)
        m = compose(m, compose(similarity(scale), inversion(pole)))
    return m


def moebius_image_pair(config, rng):
    m = random_bounded_moebius(config, rng)
    return config, config.transformed(lambda d: apply_disk(m, d))


def dilation_pair(config, rng):
    """Dilation about a point inside one disk (or inside one eye): the disks
    containing the pole shrink into themselves, giving a nonzero lower bound."""
    labels = list(config.labels)
    k = labels[int(rng.integers(len(labels)))]
    disk = config.disks[k]
    pole = disk.center + disk.radius * rng.uniform(0, 0.5) * np.exp(1j * rng.uniform(0, TWO_PI))
    factor = rng.uniform(0.82, 0.93)
    m = dilation_about(pole, factor)
    return config, config.transformed(lambda d: apply_disk(m, d))


def cluster_pair(rng):
    """Two far-separated clusters, each dilated about one of its own disks:
    lower bound = number of clusters."""
    items = []
    items_t = []
    for c in range(2):
        cfg = random_chain_config(rng, n=3)
        offset = complex(40.0 * c, 0.0)
        pole = cfg.disks[0].center + 0.2 * cfg.disks[0].radius
        m = dilation_about(pole, rng.uniform(0.85, 0.92))
        for v, d in cfg.items():
            items.append(((c, v), Disk(d.center + offset, d.radius)))
            dd = apply_disk(m, d)
            items_t.append(((c, v), Disk(dd.center + offset, dd.radius)))
    return DiskConfiguration(items), DiskConfiguration(items_t)


def resolve_pair(rng, n_petals=None):
    """Two solver realizations of the same (G, Theta) with different boundary
    radii."""
    n = n_petals or int(rng.integers(5, 8))
    tri = flower(n)
    theta = {e: float(rng.uniform(0, math.pi / 3.2)) for e in tri.edges()}
    cfg = layout(tri, solve_radii(tri, theta, FixedBoundaryRadii({k: 1.0 for k in range(1, n + 1)})), theta)
    other = {k: float(rng.uniform(0.7, 1.4)) for k in range(1, n + 1)}
    cfg_t = layout(tri, solve_radii(tri, theta, FixedBoundaryRadii(other)), theta)
    return cfg, cfg_t


def generate_experiment_pair(rng):
    """One valid (thin, general position, shared incidence) pair with its
    faithful map, retrying degenerate draws: a pair whose map has coincident
    corners or other combinatorics, or whose eta the crossing count leaves
    undecided and sampling cannot certify (NearFixedPoint).  A map whose eta
    the count decides is kept, certifiable by sampling or not."""
    for _ in range(60):
        mode = int(rng.integers(4))
        try:
            if mode == 0:
                c, ct = moebius_image_pair(random_thin_config(rng), rng)
            elif mode == 1:
                c, ct = dilation_pair(random_thin_config(rng), rng)
            elif mode == 2:
                c, ct = cluster_pair(rng)
            else:
                c, ct = resolve_pair(rng)
            if not is_thin(c)[0] or not is_thin(ct)[0]:
                continue
            if not is_general_position(c, ct)[0]:
                continue
            if contact_graph(c).max_theta_deviation(contact_graph(ct)) > 1e-6:
                continue
            fmap = build_faithful_map(c, ct)
            fixed_point_index(fmap)
            return c, ct, fmap
        except (CoincidentCorner, CombinatoricsMismatch, NearFixedPoint):
            continue
    raise RuntimeError("pair generator starved")


# --- additivity identities -------------------------------------------------------------


def obs_a_identity(fmap: FaithfulMap):
    """eta(phi) vs sum eta(delta_i) - sum eta(eps_ij); returns (lhs, rhs)."""
    lhs = fixed_point_index(fmap).eta
    disks = [[fmap.disk_loop(v)] for v in fmap.config.labels]
    eyes = [[fmap.eye_loop(*c.pair)] for c in fmap.config.contacts().values() if c.relation is DiskRelation.OVERLAPPING]
    sums = index_sums(disks + eyes)
    return lhs, sum(sums[: len(disks)]) - sum(sums[len(disks):])


def main_b_identity(fmap: FaithfulMap, subset):
    """eta(phi) vs eta(phi_I) + eta(phi_J) - sum of cross-eye indices."""
    labels = set(fmap.config.labels)
    I = set(subset)
    J = labels - I
    if not I or not J:
        raise ValueError("bipartition parts must be non-empty")
    lhs = fixed_point_index(fmap).eta
    eyes = [
        [fmap.eye_loop(i, j)]
        for i, j in (c.pair for c in fmap.config.contacts().values() if c.relation is DiskRelation.OVERLAPPING)
        if (i in I) != (j in I)
    ]
    sums = index_sums([fmap.subset_loops(I), fmap.subset_loops(J)] + eyes)
    return lhs, sums[0] + sums[1] - sum(sums[2:])


def run_main_theorem_trial(rng):
    """One full experiment record: eta, lower bound, and identity checks.

    The theorem quantifies over every faithful indexable map, so beyond the
    canonical arc-proportional map the bound is also checked on one randomly
    reparametrized faithful variant; the main-B identity is checked on two
    random bipartitions.  Each eta, of a map or of its disk, eye and
    sub-union loops, is counted from the crossings of the two curves, which
    samples nothing; only a loop the count leaves undecided is sampled.  A
    pair is redrawn when such a loop cannot be certified fixed-point-free
    even at the densest sampling.
    """
    for _ in range(8):
        try:
            return _main_theorem_trial_once(rng)
        except NearFixedPoint:
            continue
    raise NearFixedPoint("could not draw a certifiable experiment pair")


def _main_theorem_trial_once(rng):
    c, ct, fmap = generate_experiment_pair(rng)
    eta = fixed_point_index(fmap).eta
    report = subsumptive_subsets(c, ct)
    bound = report.lower_bound
    theorem_ok = eta >= bound
    try:
        variant = build_faithful_map(c, ct, rng=rng, n_random_pins=2)
        theorem_ok = theorem_ok and fixed_point_index(variant).eta >= bound
    except (NearFixedPoint, CoincidentCorner):
        pass
    lhs_a, rhs_a = obs_a_identity(fmap)
    ok_b = True
    labels = list(c.labels)
    for _ in range(2):
        k = int(rng.integers(1, len(labels)))
        subset = set(rng.choice(len(labels), size=k, replace=False).tolist())
        subset = {labels[i] for i in subset}
        try:
            lhs_b, rhs_b = main_b_identity(fmap, subset)
        except CombinatoricsMismatch:
            continue
        ok_b = ok_b and (lhs_b == rhs_b)
    return {
        "n": len(c),
        "eta": eta,
        "bound": bound,
        "theorem_ok": theorem_ok,
        "obs_a_ok": lhs_a == rhs_a,
        "main_b_ok": ok_b,
        "report": report,
        "pair": (c, ct),
    }
