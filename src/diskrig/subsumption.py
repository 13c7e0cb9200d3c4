"""Subsumptive/isolated subset detection, the directed shift graph H over each
maximal subset, sinks, and the index lower bound of the main theorem."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import geom
from .config import DiskConfiguration, eye_of_pair, neighbours, require_same_ids
from .errors import NotTransverse, ObservationViolated
from .geom import Disk, DiskRelation, boundary_crossings, disk_relation, eye_nesting, overlap_angle


@dataclass
class SubsetInfo:
    vertices: frozenset
    direction: str  # "down": D~ inside D; "up": D inside D~
    isolated: bool
    hu_edges: list
    h_edges: list
    sink: object | None
    ties: list = field(default_factory=list)


@dataclass
class SubsumptionReport:
    subsets: list
    lower_bound: int


def _containment_direction(d: Disk, dt: Disk) -> str | None:
    rel = disk_relation(d, dt)
    if rel is DiskRelation.FIRST_CONTAINS_SECOND:
        return "down"
    if rel is DiskRelation.SECOND_CONTAINS_FIRST:
        return "up"
    return None


def subsumptive_subsets(config: DiskConfiguration, config_tilde: DiskConfiguration) -> SubsumptionReport:
    """Maximal subsumptive subsets (connected same-direction containment
    components of the contact graph), their isolation, H graphs, sinks, and
    the main-theorem lower bound."""
    require_same_ids(config, config_tilde)
    directions = {}
    for v in config.labels:
        d = _containment_direction(config.disks[v], config_tilde.disks[v])
        if d is not None:
            directions[v] = d
    adj = neighbours(config)
    seen = set()
    subsets = []
    for v in sorted(directions, key=str):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in directions and directions[y] == directions[v] and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        subsets.append((frozenset(comp), directions[v]))

    infos = []
    for comp, direction in subsets:
        isolated = True
        for i in comp:
            for j in adj[i] - comp:
                try:
                    eye, eye_t = eye_of_pair(config, i, j), eye_of_pair(config_tilde, i, j)
                except NotTransverse:
                    continue  # a tangency, or no tilde eye: nothing to nest
                if next(boundary_crossings(eye, eye_t), None) is None and eye_nesting(eye, eye_t):
                    isolated = False
        hu, h, ties = _build_h(config, config_tilde, comp, direction, adj)
        # the report stays tolerant of inputs outside the same-incidence
        # hypothesis (ties, multiple sink candidates); build_H is the strict op
        outs = {i for i, _ in h}
        sinks = [v for v in sorted(comp, key=str) if v not in outs]
        sink = sinks[0] if len(sinks) == 1 else None
        infos.append(SubsetInfo(comp, direction, isolated, hu, h, sink, ties))
    bound = sum(1 for s in infos if s.isolated)
    return SubsumptionReport(infos, bound)


def _build_h(config, config_tilde, subset, direction, adj):
    cfg, cfg_t = (config, config_tilde) if direction == "down" else (config_tilde, config)
    disks, disks_t, contacts = cfg.disks, cfg_t.disks, cfg.contacts()
    hu = []
    h = []
    ties = []
    for i in sorted(subset, key=str):
        for j in sorted(adj[i] & subset, key=str):
            contact = contacts.get(frozenset((i, j)))
            if contact is None or contact.relation is not DiskRelation.OVERLAPPING:
                continue
            if str(i) < str(j):
                hu.append((i, j))
            rel = disk_relation(disks_t[i], disks[j])
            if rel in (DiskRelation.SECOND_CONTAINS_FIRST, DiskRelation.INTERNALLY_TANGENT):
                h.append((i, j))
                continue
            if rel in (DiskRelation.OVERLAPPING, DiskRelation.EXTERNALLY_TANGENT):
                shifted = overlap_angle(disks_t[i], disks[j])
                base = contact.theta
                if abs(shifted - base) <= geom.EPS_ANGLE:
                    ties.append((i, j))
                elif shifted > base:
                    h.append((i, j))
    return hu, h, ties


def build_H(config, config_tilde, subset):
    """Directed shift edges over a subsumptive subset, with the observation
    checks: every undirected edge gets a direction (unless tied) and no vertex
    has two out-edges."""
    dirs = {_containment_direction(config.disks[v], config_tilde.disks[v]) for v in subset}
    if len(dirs) != 1 or None in dirs:
        raise ObservationViolated("subset is not subsumptive in a single direction")
    direction = dirs.pop()
    hu, h, ties = _build_h(config, config_tilde, frozenset(subset), direction, neighbours(config))
    tied = {frozenset(t) for t in ties}
    out_count = {}
    for i, j in h:
        out_count[i] = out_count.get(i, 0) + 1
        if out_count[i] > 1:
            raise ObservationViolated(f"vertex {i} has two edges pointing away in H")
    for i, j in hu:
        if frozenset((i, j)) in tied:
            continue
        if (i, j) not in h and (j, i) not in h:
            raise ObservationViolated(f"undirected edge ({i},{j}) got no direction")
    if _has_cycle(subset, hu):
        raise ObservationViolated("H_u restricted to the subset is not a tree")
    return hu, h, ties


def _has_cycle(subset, hu_edges):
    parent = {v: v for v in subset}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in hu_edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            return True
        parent[ri] = rj
    return False


def index_lower_bound(config: DiskConfiguration, config_tilde: DiskConfiguration) -> int:
    """Number of maximal isolated subsumptive subsets."""
    return subsumptive_subsets(config, config_tilde).lower_bound
