"""Regenerate the benchmark's frozen corpus.

    python3 bench/make_corpus.py                       # every workload
    python3 bench/make_corpus.py --workload cli_pairs  # one workload
    python3 bench/make_corpus.py --out DIR --items 0,1 # a few items elsewhere

Run from the root of a source checkout.  Item k of workload W is drawn from
numpy's ``default_rng([SEEDS[W], k])`` through diskrig's public generators,
so no item depends on what the program did for another.  A draw the
benchmark cannot use is refused and drawn again from the same generator; the
reasons are counted per item in ``manifest.json``.  Configurations are
written with ``docio.canonical_text``, so running this again writes
byte-identical files.
"""
from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, import_diskrig  # noqa: E402

SEEDS = {"index_theorem": 2505, "eye_torus": 2606, "patch_solve": 2707, "cli_pairs": 2808}
N_ITEMS = {"index_theorem": 60, "eye_torus": 63, "patch_solve": 40, "cli_pairs": 40}
# items beyond the first N_ITEMS: patch_solve draws that layout rejects with
# InconsistentPlacement after the solve converged (a fault of the solver's
# fixed 1e-7 angle tolerance), kept so that a fix has a failure count to
# move.  A scan of draws 40-399 found these and 232, whose angle error of
# 1.0e-7 sits on the tolerance itself and could pass or fail with the last
# bits of the arithmetic.
EXTRA_ITEMS = {"patch_solve": [151, 291, 352]}
MAX_DRAWS = 400

# criterion 5's mix: Moebius images and dilations of chains, rings and solver
# flowers, two-cluster pairs and re-solves, a quarter each
INDEX_KINDS = [
    "moebius:chain", "dilation:ring", "cluster", "resolve",
    "moebius:ring", "dilation:flower", "cluster", "resolve",
    "moebius:flower", "dilation:chain", "cluster", "resolve",
]

# criterion 2's disk and eye pairs, and zero-index searches by crossing count
# 2M; the last three items are the six-crossing eyes below
EYE_KINDS = [
    "disk", "search:4", "disk", "eye", "search:0", "disk", "search:4", "search:2", "disk", "eye",
    "search:4", "disk", "search:0", "search:2", "disk", "search:4", "eye", "search:2", "disk", "search:0",
]

# the three six-crossing eye quadruples of tests/test_torus.py:
# (centre, radius) of a, b, a~, b~
SIX_CROSSING = [
    ((0j, 1.0), (0.5062568113885021 + 0j, 1.2870551154873047),
     (-0.15466528171158422 - 0.15859915077059764j, 1.1882099695295645),
     (0.1300848597212097 - 0.0004548203991403821j, 1.0368025202645719)),
    ((0j, 1.0), (0.812544100662658 + 0j, 1.5722558353244893),
     (-0.42707063264957307 - 0.016482570525710286j, 1.0197344694213368),
     (0.3125537221128311 + 0.02034669933617558j, 1.1611889397250057)),
    ((0j, 1.0), (0.7702824594003858 + 0j, 1.5197771010821421),
     (-0.45159448811483377 - 0.11732713568308638j, 1.0465321659108937),
     (0.5751856754995393 + 0.07319354581486569j, 1.3169315009503157)),
]


class Refused(Exception):
    """A draw the benchmark does not use; the message is the reason."""


def hex_patch(rings):
    """(vertices, counter-clockwise faces) of the hexagonal patch of the
    triangular lattice with the given number of rings around vertex 0."""
    cells = [
        (q, r)
        for q in range(-rings, rings + 1)
        for r in range(-rings, rings + 1)
        if max(abs(q), abs(r), abs(q + r)) <= rings
    ]
    pos = {c: complex(c[0] + c[1] / 2, c[1] * math.sqrt(3) / 2) for c in cells}
    cells.sort(key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), math.atan2(pos[c].imag, pos[c].real) % (2 * math.pi)))
    index = {c: k for k, c in enumerate(cells)}
    faces = []
    for q, r in cells:
        for a, b in (((q + 1, r), (q, r + 1)), ((q + 1, r - 1), (q + 1, r))):
            if a in index and b in index:
                faces.append((index[(q, r)], index[a], index[b]))
    return list(range(len(cells))), faces


def _doc_text(dk, config=None, **fields):
    doc = dk.docio.ConfigDocument.from_configuration(config) if config is not None else dk.docio.ConfigDocument()
    for key, value in fields.items():
        setattr(doc, key, value)
    return dk.docio.canonical_text(doc)


def _pair_hypotheses(dk, c, ct, max_dev):
    if not (dk.config.is_thin(c)[0] and dk.config.is_thin(ct)[0]):
        raise Refused("not thin")
    if not dk.config.is_general_position(c, ct)[0]:
        raise Refused("not in general position")
    if dk.config.contact_graph(c).max_theta_deviation(dk.config.contact_graph(ct)) > max_dev:
        raise Refused("overlap angles differ")


def _try_item(dk, name, files, entry):
    """Load the written files as the benchmark does and run the item once;
    returns (item, output)."""
    wl = WORKLOADS[name]
    tmp = tempfile.mkdtemp()
    try:
        os.makedirs(os.path.join(tmp, name))
        for fname, text in files.items():
            with open(os.path.join(tmp, name, fname), "w") as fh:
                fh.write(text)
        with open(os.path.join(tmp, name, "manifest.json"), "w") as fh:
            json.dump({"items": [entry]}, fh)
        try:
            (item,) = wl.load(tmp, dk)
            return item, wl.run(item, dk, tmp)
        except dk.errors.DiskrigError as exc:
            raise Refused(type(exc).__name__) from exc
    finally:
        shutil.rmtree(tmp)


# --- one draw per workload ----------------------------------------------------------


def draw_index_theorem(dk, rng, k, state):
    kind = INDEX_KINDS[k % len(INDEX_KINDS)]
    ex = dk.experiments
    mode, _, base = kind.partition(":")
    try:
        if mode == "cluster":
            c, ct = ex.cluster_pair(rng)
            # docio ids must be scalars: label (cluster, disk) becomes 10 * cluster + disk
            relabel = lambda cfg: dk.config.DiskConfiguration([(10 * i + v, d) for (i, v), d in cfg.items()])
            c, ct = relabel(c), relabel(ct)
        elif mode == "resolve":
            c, ct = ex.resolve_pair(rng)
        else:
            make = {"chain": ex.random_chain_config, "ring": ex.random_ring_config, "flower": ex.random_flower_config}[base]
            pair = ex.moebius_image_pair if mode == "moebius" else ex.dilation_pair
            c, ct = pair(make(rng), rng)
    except dk.errors.DiskrigError as exc:
        raise Refused(f"draw: {type(exc).__name__}") from exc
    _pair_hypotheses(dk, c, ct, 1e-6)
    labels = list(c.labels)
    bipartitions = []
    for _ in range(2):
        size = int(rng.integers(1, len(labels)))
        picked = rng.choice(len(labels), size=size, replace=False).tolist()
        bipartitions.append(sorted(labels[i] for i in picked))
    entry = {
        "id": k,
        "kind": kind,
        "n": len(labels),
        "files": [f"{k:03d}_c.json", f"{k:03d}_t.json"],
        "variant_seed": int(rng.integers(2**32)),
        "bipartitions": bipartitions,
        "clusters": 2 if mode == "cluster" else None,
    }
    files = dict(zip(entry["files"], (_doc_text(dk, c), _doc_text(dk, ct))))
    _try_item(dk, "index_theorem", files, entry)
    return files, entry


def _eye_texts(dk, disks):
    (ca, ra), (cb, rb), (cat, rat), (cbt, rbt) = disks
    Disk = dk.geom.Disk
    cfg = dk.config.DiskConfiguration([("a", Disk(ca, ra)), ("b", Disk(cb, rb))])
    cfg_t = dk.config.DiskConfiguration([("a", Disk(cat, rat)), ("b", Disk(cbt, rbt))])
    return _doc_text(dk, cfg), _doc_text(dk, cfg_t)


def draw_eye_torus(dk, rng, k, state):
    kind = "search:6" if k >= len(EYE_KINDS) * 3 else EYE_KINDS[k % len(EYE_KINDS)]
    Disk = dk.geom.Disk
    entry = {"id": k, "kind": kind.partition(":")[0], "files": [f"{k:03d}_c.json", f"{k:03d}_t.json"]}
    if kind == "disk":
        d = Disk(complex(*rng.normal(0, 1, 2)), float(rng.uniform(0.5, 1.5)))
        dt = Disk(complex(*rng.normal(0, 1, 2)), float(rng.uniform(0.5, 1.5)))
        if dk.geom.disk_relation(d, dt) is not dk.geom.DiskRelation.OVERLAPPING:
            raise Refused("disks do not overlap")
        texts = [_doc_text(dk, dk.config.DiskConfiguration([("k", x)])) for x in (d, dt)]
    elif kind == "eye":
        b = Disk(float(rng.uniform(0.4, 1.7)) + 0j, float(rng.uniform(0.7, 1.4)))
        at = Disk(complex(*rng.normal(0.3, 0.5, 2)), float(rng.uniform(0.8, 1.2)))
        bt = Disk(at.center + float(rng.uniform(0.4, 1.5)) * dk.np.exp(1j * rng.uniform(0, 2 * math.pi)), float(rng.uniform(0.7, 1.3)))
        try:
            texts = _eye_texts(dk, [(0j, 1.0), (b.center, b.radius), (at.center, at.radius), (bt.center, bt.radius)])
        except dk.errors.DiskrigError as exc:
            raise Refused(f"draw: {type(exc).__name__}") from exc
    elif kind == "search:6":
        texts = _eye_texts(dk, SIX_CROSSING[k - len(EYE_KINDS) * 3])
    else:
        q = dk.lemmas.generate_eye_quadruple(rng, mode="rotate" if rng.random() < 0.5 else "free")
        if q is None:
            raise Refused("quadruple not in general position")
        disks = [(x.center, x.radius) for x in (q.A, q.B, q.At, q.Bt)]
        texts = _eye_texts(dk, disks)
    if entry["kind"] != "search":
        entry["graph_seed"] = int(rng.integers(2**32))
    files = dict(zip(entry["files"], texts))
    _item, out = _try_item(dk, "eye_torus", files, entry)
    if entry["kind"] == "search" and 2 * out["M"] != int(kind.partition(":")[2]):
        raise Refused("crossing count is not the slot's")
    return files, entry


def draw_patch_solve(dk, rng, k, state):
    verts, faces = hex_patch(2)
    tri = dk.solver.Triangulation(verts, faces)
    edges = [(*sorted(e), float(rng.uniform(0, 0.95 * math.pi / 2))) for e in tri.edges()]
    radii = {v: float(rng.uniform(0.8, 1.25)) for v in tri.boundary_vertices}
    entry = {"id": k, "files": [f"{k:03d}.json"]}
    files = {entry["files"][0]: _doc_text(dk, edges=edges, faces=faces, boundary_radii=radii)}
    item, out = _try_item(dk, "patch_solve", files, entry)
    if out["rc"] != 0:
        kind = WORKLOADS["patch_solve"].failure_kind(item, dk)
        # kept: a fault of the solver's fixed tolerances, counted as failed
        if kind != "InconsistentPlacement":
            raise Refused(kind)
    return files, entry


def draw_cli_pairs(dk, rng, k, state):
    kind = "dilation" if k % 2 == 0 else "moebius"
    if "patch" not in state:  # kept across refused images of the same patch
        verts, faces = hex_patch(3)
        tri = dk.solver.Triangulation(verts, faces)
        theta = {e: float(rng.uniform(0, math.pi / 3.2)) for e in tri.edges()}
        radii = {v: float(rng.uniform(0.8, 1.25)) for v in tri.boundary_vertices}
        try:
            solved = dk.solver.solve_radii(tri, theta, dk.solver.FixedBoundaryRadii(radii))
            state["patch"] = dk.solver.layout(tri, solved, theta)
        except dk.errors.DiskrigError as exc:
            raise Refused(f"patch: {type(exc).__name__}") from exc
    pair = dk.experiments.dilation_pair if kind == "dilation" else dk.experiments.moebius_image_pair
    c, ct = pair(state["patch"], rng)
    _pair_hypotheses(dk, c, ct, 1e-7)
    entry = {"id": k, "kind": kind, "files": [f"{k:03d}_c.json", f"{k:03d}_t.json"]}
    files = dict(zip(entry["files"], (_doc_text(dk, c), _doc_text(dk, ct))))
    c2, ct2 = (dk.docio.document_from_obj(json.loads(t)).to_configuration() for t in files.values())
    try:
        dk.boundary.fixed_point_index(dk.boundary.build_faithful_map(c2, ct2))
    except dk.errors.DiskrigError as exc:
        raise Refused(type(exc).__name__) from exc
    _item, out = _try_item(dk, "cli_pairs", files, entry)
    for cmd, (rc, _text) in out.items():
        if rc != 0:
            raise Refused(f"{cmd} exited {rc}")
    return files, entry


DRAW = {
    "index_theorem": draw_index_theorem,
    "eye_torus": draw_eye_torus,
    "patch_solve": draw_patch_solve,
    "cli_pairs": draw_cli_pairs,
}


def make_item(dk, name, k):
    """(files, manifest entry) of item k, counting refused draws."""
    rng = dk.np.random.default_rng([SEEDS[name], k])
    refused = collections.Counter()
    state = {}
    for _ in range(MAX_DRAWS):
        try:
            files, entry = DRAW[name](dk, rng, k, state)
        except Refused as exc:
            refused[str(exc)] += 1
            continue
        entry["refused"] = dict(sorted(refused.items()))
        return files, entry
    raise RuntimeError(f"{name} item {k}: no usable draw in {MAX_DRAWS}: {dict(refused)}")


def write_workload(dk, name, out_dir, indices):
    target = os.path.join(out_dir, name)
    os.makedirs(target, exist_ok=True)
    entries = []
    for k in indices:
        files, entry = make_item(dk, name, k)
        for fname, text in files.items():
            with open(os.path.join(target, fname), "w") as fh:
                fh.write(text)
        entries.append(entry)
        print(f"{name} {k}: {entry.get('kind', '')} refused {entry['refused']}", file=sys.stderr)
    refused = collections.Counter()
    for entry in entries:
        refused.update(entry["refused"])
    manifest = {
        "workload": name,
        "seed": SEEDS[name],
        "command": "python3 bench/make_corpus.py --workload " + name,
        "refused": dict(sorted(refused.items())),
        "items": entries,
    }
    with open(os.path.join(target, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(DRAW))
    ap.add_argument("--out", default=os.path.join(BENCH, "corpus"))
    ap.add_argument("--items", help="comma-separated item indices (default: all)")
    args = ap.parse_args(argv)
    dk = import_diskrig()
    for name in args.workload or list(DRAW):
        if args.items:
            indices = [int(k) for k in args.items.split(",")]
        else:
            indices = list(range(N_ITEMS[name])) + EXTRA_ITEMS.get(name, [])
        write_workload(dk, name, args.out, indices)
    return 0


if __name__ == "__main__":
    sys.exit(main())
