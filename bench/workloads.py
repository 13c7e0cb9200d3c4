"""The four benchmark workloads: loading the frozen corpus, one item, and the
checks on its output.

A workload has four parts:

- ``load(corpus_dir, dk)``: parse ``corpus/<name>/`` into a list of items
  (part of set-up);
- ``run(item, dk, out_dir)``: the timed operation on one item, returning its
  output;
- ``failed(output)``: whether the operation failed (only ``patch_solve``
  has such items);
- ``check(item, output, dk)``: a list of problems, empty when the output is
  correct.

``dk`` is a namespace of freshly imported diskrig modules.  Set-up imports
diskrig again each time it runs, so nothing here binds a diskrig object at
import time, and every call goes through a module attribute, where the tracer
finds it.

The checks recompute what they can from the inputs with the benchmark's own
geometry (law of cosines, circle intersections, overlap counts) and compare
independent paths of the program with each other (torus formula against
sampled winding, ``index`` against ``analyze``).  None of them compares with a
stored copy of an earlier output.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

TWO_PI = 2 * math.pi

# the package's modules that are the benchmark's layers
LAYERS = ("geom", "config", "boundary", "torus", "subsumption", "experiments", "solver", "docio", "cli")

# the angle re-derived from written centres and radii may differ from the
# input by the solver's residual amplified near tangency; 1e-6 is ten times
# the solver's own layout check
THETA_TOL = 1e-6
ANGLE_SUM_TOL = 1e-9


def import_diskrig():
    """Import diskrig afresh (dropping any earlier import) and return its
    modules as a namespace."""
    for name in [m for m in sys.modules if m == "diskrig" or m.startswith("diskrig.")]:
        del sys.modules[name]
    dk = SimpleNamespace(np=np)
    for name in LAYERS + ("errors", "lemmas"):
        setattr(dk, name, importlib.import_module("diskrig." + name))
    return dk


# --- the benchmark's own geometry ------------------------------------------------


def circle_points(c1, r1, c2, r2):
    """Intersection points of two circles that cross (empty otherwise)."""
    d = abs(c2 - c1)
    if not (abs(r1 - r2) < d < r1 + r2):
        return []
    along = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h = math.sqrt(max(r1 * r1 - along * along, 0.0))
    axis = (c2 - c1) / d
    mid = c1 + along * axis
    return [mid + 1j * axis * h, mid - 1j * axis * h]


def boundary_crossings(circles, circles_t, tol=1e-9):
    """Crossings of two region boundaries, each the boundary of the
    intersection of its disks (one disk, or the two disks of an eye).

    A point of circle X lies on the boundary of its region when it lies in
    every other disk of that region."""
    count = 0
    for k, (c1, r1) in enumerate(circles):
        for m, (c2, r2) in enumerate(circles_t):
            for z in circle_points(c1, r1, c2, r2):
                on = all(abs(z - c) <= r + tol for n, (c, r) in enumerate(circles) if n != k)
                on_t = all(abs(z - c) <= r + tol for n, (c, r) in enumerate(circles_t) if n != m)
                count += on and on_t
    return count


def overlapping_pairs(disks):
    """Number of pairs of disks whose interiors meet (no containment occurs
    in the corpus)."""
    return sum(abs(c1 - c2) < r1 + r2 for (c1, r1), (c2, r2) in itertools.combinations(disks, 2))


def edge_length(r1, r2, theta):
    return math.sqrt(r1 * r1 + r2 * r2 + 2 * r1 * r2 * math.cos(theta))


def triangle_angle(a, b, c):
    """Angle opposite side c."""
    x = (a * a + b * b - c * c) / (2 * a * b)
    return math.acos(min(1.0, max(-1.0, x)))


def overlap_angle(c1, r1, c2, r2):
    x = (abs(c1 - c2) ** 2 - r1 * r1 - r2 * r2) / (2 * r1 * r2)
    return math.acos(min(1.0, max(-1.0, x)))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def doc_disks(obj):
    """{id: (centre, radius)} of a parsed configuration document."""
    return {d["id"]: (complex(d["cx"], d["cy"]), float(d["r"])) for d in obj["disks"]}


def _config(dk, path):
    return dk.docio.read_document(path).to_configuration()


def _manifest(corpus_dir, name):
    return read_json(os.path.join(corpus_dir, name, "manifest.json"))


def _path(corpus_dir, name, fname):
    return os.path.join(corpus_dir, name, fname)


def _cli(dk, argv):
    """Run the command line in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dk.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    """A named set of items; ``tail`` is the tail percentile it reports.
    Only ``patch_solve`` has operations that fail."""

    name = ""
    tail = 90

    def failed(self, out):
        return False


# --- index_theorem ---------------------------------------------------------------


class IndexTheorem(Workload):
    """Main index-theorem check on frozen same-incidence pairs."""

    name = "index_theorem"
    tail = 95

    def load(self, corpus_dir, dk):
        items = []
        for entry in _manifest(corpus_dir, self.name)["items"]:
            c, ct = (_config(dk, _path(corpus_dir, self.name, f)) for f in entry["files"])
            items.append(dict(entry, config=c, config_t=ct))
        return items

    def run(self, item, dk, out_dir=None):
        c, ct = item["config"], item["config_t"]
        b, ex = dk.boundary, dk.experiments
        fmap = b.build_faithful_map(c, ct)
        eta = b.fixed_point_index(fmap).eta
        bound = dk.subsumption.index_lower_bound(c, ct)
        rng = dk.np.random.default_rng(item["variant_seed"])
        variant = b.build_faithful_map(c, ct, rng=rng, n_random_pins=2)
        eta_variant = b.fixed_point_index(variant).eta
        obs_a = ex.obs_a_identity(fmap)
        main_b = [ex.main_b_identity(fmap, set(part)) for part in item["bipartitions"]]
        return {"eta": eta, "bound": bound, "eta_variant": eta_variant, "obs_a": obs_a, "main_b": main_b}

    def check(self, item, out, dk=None):
        problems = []
        if out["eta"] < out["bound"]:
            problems.append(f"eta {out['eta']} below the lower bound {out['bound']}")
        if out["eta_variant"] < out["bound"]:
            problems.append(f"variant eta {out['eta_variant']} below the lower bound {out['bound']}")
        lhs, rhs = out["obs_a"]
        if lhs != rhs:
            problems.append(f"observation A: {lhs} != {rhs}")
        for lhs, rhs in out["main_b"]:
            if lhs != rhs:
                problems.append(f"main B: {lhs} != {rhs}")
        if item.get("clusters") is not None and out["bound"] != item["clusters"]:
            problems.append(f"bound {out['bound']} != {item['clusters']} clusters")
        return problems


# --- eye_torus -------------------------------------------------------------------


class EyeTorus(Workload):
    """Torus-formula checks on disk and eye pairs, and zero-index eye-map
    searches."""

    name = "eye_torus"
    tail = 90

    def __init__(self):
        self._eta = {}

    def load(self, corpus_dir, dk):
        items = []
        for entry in _manifest(corpus_dir, self.name)["items"]:
            objs = []
            circles = []
            for f in entry["files"]:
                path = _path(corpus_dir, self.name, f)
                disks = doc_disks(read_json(path))
                circles.append(list(disks.values()))
                cfg = _config(dk, path)
                if entry["kind"] == "disk":
                    objs.append(cfg.disks["k"])
                else:
                    objs.append(dk.config.eye_of_pair(cfg, "a", "b"))
            items.append(dict(entry, obj=objs[0], obj_t=objs[1], crossings=boundary_crossings(*circles)))
        return items

    def run(self, item, dk, out_dir=None):
        t = dk.torus
        if item["kind"] == "search":
            gmap = t.find_zero_index_eye_map(item["obj"], item["obj_t"])
            return {"M": gmap.param.M, "gmap": gmap}
        param = t.build_parametrization(item["obj"], item["obj_t"])
        gmap = t.random_monotone_graph(param, dk.np.random.default_rng(item["graph_seed"]))
        return {
            "M": param.M,
            "formula": t.index_via_torus(gmap),
            "direct": t.graph_eta(gmap),
            "local_windings": t.verify_local_windings(param),
        }

    def check(self, item, out, dk):
        problems = []
        if 2 * out["M"] != item["crossings"]:
            problems.append(f"2M = {2 * out['M']} but the boundaries cross {item['crossings']} times")
        if item["kind"] == "search":
            g = out["gmap"]
            # repeated rounds return the same path; its index is computed once
            key = (item["id"], g.base_s, g.base_st, g.xs.tobytes(), g.ys.tobytes())
            if key not in self._eta:
                self._eta[key] = dk.torus.graph_eta(g)
            eta = self._eta[key]
            if eta != 0:
                problems.append(f"zero-index search returned a map with eta {eta}")
            return problems
        if out["formula"] != out["direct"]:
            problems.append(f"torus formula {out['formula']} != sampled winding {out['direct']}")
        if out["M"] and not out["local_windings"]:
            problems.append("local windings at the crossings are not +1/-1")
        return problems


# --- patch_solve -----------------------------------------------------------------


class PatchSolve(Workload):
    """``diskrig solve`` on 19-vertex hexagonal patches."""

    name = "patch_solve"
    tail = 75

    def load(self, corpus_dir, dk):
        items = []
        for entry in _manifest(corpus_dir, self.name)["items"]:
            path = _path(corpus_dir, self.name, entry["files"][0])
            obj = read_json(path)
            faces = [tuple(f) for f in obj["triangulation"]["faces"]]
            theta = {frozenset((i, j)): float(t) for i, j, t in obj["incidence"]["edges"]}
            boundary = {int(k): float(v) for k, v in obj["triangulation"]["boundary_radii"].items()}
            items.append(dict(entry, path=path, faces=faces, theta=theta, boundary=boundary))
        return items

    def run(self, item, dk, out_dir):
        out_path = os.path.join(out_dir, f"patch_{item['id']:03d}.json")
        rc, _out, err = _cli(dk, ["solve", item["path"], "-o", out_path])
        text = None
        if rc == 0:
            with open(out_path) as fh:
                text = fh.read()
        return {"rc": rc, "stderr": err, "text": text}

    def failed(self, out):
        return out["rc"] != 0

    def check(self, item, out, dk=None):
        disks = doc_disks(json.loads(out["text"]))
        problems = []
        for v, r in item["boundary"].items():
            if disks[v][1] != r:
                problems.append(f"boundary radius of {v} is {disks[v][1]}, input {r}")
        edge_faces = {}
        for f in item["faces"]:
            for k in range(3):
                edge_faces.setdefault(frozenset((f[k], f[(k + 1) % 3])), []).append(f)
        boundary_verts = {v for e, fs in edge_faces.items() if len(fs) == 1 for v in e}
        radii = {v: disks[v][1] for v in disks}
        for v in sorted(set(disks) - boundary_verts):
            total = 0.0
            for f in item["faces"]:
                if v not in f:
                    continue
                u, w = (x for x in f if x != v)
                a = edge_length(radii[v], radii[u], item["theta"][frozenset((v, u))])
                b = edge_length(radii[v], radii[w], item["theta"][frozenset((v, w))])
                c = edge_length(radii[u], radii[w], item["theta"][frozenset((u, w))])
                total += triangle_angle(a, b, c)
            if abs(total - TWO_PI) > ANGLE_SUM_TOL:
                problems.append(f"angle sum at {v} off 2 pi by {total - TWO_PI:.3g}")
        for i, j in itertools.combinations(sorted(disks), 2):
            (ci, ri), (cj, rj) = disks[i], disks[j]
            e = frozenset((i, j))
            if e in edge_faces:
                got = overlap_angle(ci, ri, cj, rj)
                if abs(got - item["theta"][e]) > THETA_TOL:
                    problems.append(f"overlap angle on ({i},{j}) is {got}, input {item['theta'][e]}")
            elif abs(ci - cj) < ri + rj:
                problems.append(f"non-adjacent disks {i} and {j} overlap")
        return problems

    def failure_kind(self, item, dk):
        """Reproduce a failed solve through the library and name its error."""
        verts = sorted({v for f in item["faces"] for v in f})
        tri = dk.solver.Triangulation(verts, item["faces"])
        try:
            radii = dk.solver.solve_radii(tri, item["theta"], dk.solver.FixedBoundaryRadii(item["boundary"]))
            dk.solver.layout(tri, radii, item["theta"])
        except dk.errors.DiskrigError as exc:
            return type(exc).__name__
        return None


# --- cli_pairs -------------------------------------------------------------------


class CliPairs(Workload):
    """``diskrig --json index``, ``analyze`` and ``check`` on 37-disk pairs."""

    name = "cli_pairs"
    tail = 90
    commands = ("index", "analyze", "check")

    def load(self, corpus_dir, dk):
        items = []
        for entry in _manifest(corpus_dir, self.name)["items"]:
            paths = [_path(corpus_dir, self.name, f) for f in entry["files"]]
            disks = doc_disks(read_json(paths[0]))
            items.append(dict(entry, paths=paths, edges=overlapping_pairs(disks.values())))
        return items

    def run(self, item, dk, out_dir=None):
        return {cmd: _cli(dk, ["--json", cmd, *item["paths"]])[:2] for cmd in self.commands}

    def check(self, item, out, dk=None):
        problems = [f"{cmd} exited {rc}" for cmd, (rc, _) in out.items() if rc != 0]
        if problems:
            return problems
        index, analyze, check = (json.loads(out[cmd][1]) for cmd in self.commands)
        if index["eta"] < index["lower_bound"]:
            problems.append(f"eta {index['eta']} below the lower bound {index['lower_bound']}")
        if sum(index["per_curve"]) != index["eta"]:
            problems.append(f"per-curve indices sum to {sum(index['per_curve'])}, eta {index['eta']}")
        if analyze["lower_bound"] != index["lower_bound"]:
            problems.append(f"analyze bound {analyze['lower_bound']} != index bound {index['lower_bound']}")
        if not check["thin"]:
            problems.append("check: not thin")
        if not check["incidence_match"]:
            problems.append("check: incidence differs")
        if check["n_edges"] != item["edges"]:
            problems.append(f"check: {check['n_edges']} edges, {item['edges']} overlapping pairs")
        return problems


WORKLOADS = {w.name: w for w in (IndexTheorem(), EyeTorus(), PatchSolve(), CliPairs())}
