"""Command-line front end.

Exit codes: 0 all requested predicates pass, 1 a predicate failed, 2 error.
Set DISKRIG_LOG=debug|info|warning for verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from . import geom
from .boundary import build_faithful_map, fixed_point_index
from .config import contact_graph, is_general_position, is_thin, require_same_ids
from .docio import ConfigDocument, canonical_text, read_document, write_document, write_text
from .errors import ConditionFailed, DiskrigError, IncidenceMismatch, IOFailure
from .lemmas import SUITES, run_suite
from .moebius import EPSILONS, align, fit_similarity, normalize_pair
from .render import render_svg, render_torus_svg
from .solver import FixedBoundaryRadii, Triangulation, layout, solve_radii
from .subsumption import index_lower_bound
from .torus import build_parametrization, random_monotone_graph


def _setup_logging():
    level = os.environ.get("DISKRIG_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s %(message)s")


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def cmd_check(args) -> int:
    doc = read_document(args.file)
    cfg = doc.to_configuration()
    thin, witness = is_thin(cfg)
    inc = contact_graph(cfg)
    payload = {
        "thin": thin,
        "thin_witness": witness,
        "n_disks": len(cfg),
        "n_edges": len(inc.edges),
        "edges": sorted([sorted(map(str, e)) + [round(inc.theta[e], 12)] for e in inc.edges]),
    }
    ok = thin
    if args.file2:
        cfg2 = read_document(args.file2).to_configuration()
        gp, report = is_general_position(cfg, cfg2)
        payload["general_position"] = gp
        payload["general_position_violations"] = report
        inc2 = contact_graph(cfg2)
        payload["incidence_match"] = inc.same_combinatorics(inc2) and inc.max_theta_deviation(inc2) <= args.eps_angle
        ok = ok and gp
    _emit(payload, args.json)
    return 0 if ok else 1


def cmd_index(args) -> int:
    cfg = read_document(args.fileC).to_configuration()
    cfg_t = read_document(args.fileCt).to_configuration()
    require_same_ids(cfg, cfg_t)
    inc, inc_t = contact_graph(cfg), contact_graph(cfg_t)
    if not inc.same_combinatorics(inc_t):
        raise IncidenceMismatch("contact graphs differ")
    dev = inc.max_theta_deviation(inc_t)
    if dev > args.eps_angle and not args.force:
        raise IncidenceMismatch(
            f"overlap angles differ by {dev:.3g} (> {args.eps_angle}); rerun with --force to proceed"
        )
    fmap = build_faithful_map(cfg, cfg_t)
    report = fixed_point_index(fmap)
    bound = index_lower_bound(cfg, cfg_t)
    violated = report.eta < bound and dev <= args.eps_angle
    payload = {
        "eta": report.eta,
        "per_curve": report.per_curve,
        "min_displacement": report.min_displacement,
        "lower_bound": bound,
        "theta_deviation": dev,
        "theorem_violated": violated,
    }
    _emit(payload, args.json)
    return 1 if violated else 0


def cmd_analyze(args) -> int:
    from .subsumption import subsumptive_subsets

    cfg = read_document(args.fileC).to_configuration()
    cfg_t = read_document(args.fileCt).to_configuration()
    rep = subsumptive_subsets(cfg, cfg_t)
    payload = {
        "lower_bound": rep.lower_bound,
        "subsets": [
            {
                "vertices": sorted(map(str, s.vertices)),
                "direction": s.direction,
                "isolated": s.isolated,
                "sink": str(s.sink) if s.sink is not None else None,
                "H_u": sorted([str(i), str(j)] for i, j in s.hu_edges),
                "H": sorted([str(i), str(j)] for i, j in s.h_edges),
                "ties": sorted([str(i), str(j)] for i, j in s.ties),
            }
            for s in rep.subsets
        ],
    }
    _emit(payload, args.json)
    return 0


def cmd_solve(args) -> int:
    doc = read_document(args.file)
    if not doc.faces:
        raise IncidenceMismatch("solve input needs a triangulation")
    verts = sorted({v for f in doc.faces for v in f}, key=str)
    tri = Triangulation(verts, [tuple(f) for f in doc.faces])
    theta = {frozenset((i, j)): t for i, j, t in doc.edges}
    # JSON object keys are strings
    boundary = {v: doc.boundary_radii.get(str(v), 1.0) for v in tri.boundary_vertices}
    radii = solve_radii(tri, theta, FixedBoundaryRadii(boundary))
    cfg = layout(tri, radii, theta)
    out_doc = ConfigDocument.from_configuration(cfg, contact_graph(cfg))
    if args.out:
        write_document(out_doc, args.out)
    else:
        sys.stdout.write(canonical_text(out_doc))
    if args.svg:
        write_text(args.svg, render_svg(cfg, overlays=("labels",)))
    return 0


def cmd_compare(args) -> int:
    cfg = read_document(args.fileC).to_configuration()
    cfg_t = read_document(args.fileCt).to_configuration()
    if args.mode:
        return _compare_normalize(cfg, cfg_t, args)
    if args.similarity:
        m, res = fit_similarity(cfg.disks, cfg_t.disks)
        payload = {"mode": "similarity", "residual": res, "map": [str(m.a), str(m.b)]}
    else:
        m, res = align(cfg, cfg_t)
        payload = {
            "mode": "moebius",
            "residual": res,
            "map": [str(m.a), str(m.b), str(m.c), str(m.d)],
        }
    payload["equivalent"] = res <= args.tolerance
    _emit(payload, args.json)
    return 0 if payload["equivalent"] else 1


def _compare_normalize(cfg, cfg_t, args) -> int:
    epsilons = EPSILONS if args.epsilon is None else (args.epsilon,)
    try:
        res = normalize_pair(cfg, cfg_t, args.mode, epsilons)
    except ConditionFailed as exc:
        payload = {"mode": args.mode, "conditions_hold": False, "last_failures": exc.failures, "scanned": list(epsilons)}
        _emit(payload, args.json)
        return 1
    payload = {
        "mode": args.mode,
        "epsilon": res.epsilon,
        "anchors": [str(a) for a in res.anchor_vertices],
        "checks": {k: bool(v) for k, v in res.checks.items()},
        "conditions_hold": True,
    }
    _emit(payload, args.json)
    return 0


def cmd_render(args) -> int:
    doc = read_document(args.file)
    cfg = doc.to_configuration()
    overlays = [o for o in (args.overlay or "").split(",") if o]
    second = read_document(args.second).to_configuration() if args.second else None
    if "torus" in overlays:
        if not args.second or args.pair is None:
            raise IOFailure("--overlay torus needs --second FILE and --pair ID")
        param = build_parametrization(
            cfg.disks[_coerce_label(args.pair, cfg.labels, args.file)],
            second.disks[_coerce_label(args.pair, second.labels, args.second)],
        )
        gmap = None
        if args.seed is not None:
            gmap = random_monotone_graph(param, np.random.default_rng(args.seed))
        text = render_torus_svg(param, gmap)
    else:
        text = render_svg(cfg, second=second, overlays=overlays)
    write_text(args.out, text)
    return 0


def _coerce_label(raw, labels, path):
    for k in labels:
        if str(k) == str(raw):
            return k
    raise IOFailure(f"no disk with id {raw} in {path}")


def cmd_lemmas(args) -> int:
    names = [args.lemma] if args.lemma else sorted(SUITES)
    worst = math.inf
    for name in names:
        margins = run_suite(name, seed=args.seed or 0, count=args.count)
        lo = min(margins)
        worst = min(worst, lo)
        print(f"{name}: count={len(margins)} min_margin={lo:.3e} max_margin={max(margins):.3e}")
    return 0 if worst > 1e-7 else 1


def _positive_int(text) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diskrig", description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--eps-geom", type=float, default=None, help="override the geometric tolerance")
    ap.add_argument("--eps-angle", type=float, default=geom.EPS_ANGLE, help="angle comparison tolerance")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="thinness / general-position report")
    p.add_argument("file")
    p.add_argument("file2", nargs="?")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("index", help="fixed-point index and lower bound for a pair of files")
    p.add_argument("fileC")
    p.add_argument("fileCt")
    p.add_argument("--force", action="store_true", help="proceed despite mismatched overlap angles")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("analyze", help="subsumptive-subset report for a pair of files")
    p.add_argument("fileC")
    p.add_argument("fileCt")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("solve", help="realize incidence data on a triangulation")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.add_argument("--svg")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("compare", help="Moebius / similarity alignment residual, or run a normalization mode")
    p.add_argument("fileC")
    p.add_argument("fileCt")
    p.add_argument("--similarity", action="store_true")
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--mode", choices=["Sphere", "PlanePlane", "HypHyp", "PlaneVsHyp"], help="run the normalization procedure instead of aligning")
    p.add_argument("--epsilon", type=float, help="normalization epsilon (default: scan 2^-k)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("render", help="SVG rendering with overlays")
    p.add_argument("file")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--overlay", help="comma list: eyes,H,labels,torus")
    p.add_argument("--second", help="second configuration file (H, torus overlays)")
    p.add_argument("--pair", help="disk id for the torus diagram")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("lemmas", help="run the inequality lemma suites")
    p.add_argument("--lemma", choices=sorted(SUITES))
    p.add_argument("--count", type=_positive_int, default=100)
    p.set_defaults(fn=cmd_lemmas)
    return ap


def main(argv=None) -> int:
    _setup_logging()
    ap = build_parser()
    args = ap.parse_args(argv)
    with geom.tolerance(geom.EPS_GEOM if args.eps_geom is None else args.eps_geom):
        try:
            return args.fn(args)
        except DiskrigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
