"""One-off timings of solve and layout on hexagonal patches too large for a
workload.

    python3 bench/solve_scaling.py --rings 3 4 6 [--radii 0.8 1.25]

Run from the root of a source checkout.  Each patch has 1 + 3r(r+1)
vertices (V = 37, 61, 127 for r = 3, 4, 6); overlap angles are uniform in
[0, 0.95 pi/2] and boundary radii uniform in the given range, drawn from
``default_rng([SEED, r])``.  Prints one line per patch: V, seconds for
``solve_radii``, seconds for ``layout``, and the outcome.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

from make_corpus import hex_patch
from workloads import import_diskrig

SEED = 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rings", type=int, nargs="+", default=[3, 4, 6])
    ap.add_argument("--radii", type=float, nargs=2, default=[0.8, 1.25])
    args = ap.parse_args(argv)
    dk = import_diskrig()
    s = dk.solver
    for rings in args.rings:
        rng = dk.np.random.default_rng([SEED, rings])
        verts, faces = hex_patch(rings)
        tri = s.Triangulation(verts, faces)
        theta = {e: float(rng.uniform(0, 0.95 * math.pi / 2)) for e in tri.edges()}
        boundary = {v: float(rng.uniform(*args.radii)) for v in tri.boundary_vertices}
        t0 = time.perf_counter()
        t_solve = t_layout = math.nan
        try:
            radii = s.solve_radii(tri, theta, s.FixedBoundaryRadii(boundary))
            t_solve = time.perf_counter() - t0
            s.layout(tri, radii, theta)
            t_layout = time.perf_counter() - t0 - t_solve
            outcome = "ok"
        except dk.errors.DiskrigError as exc:
            outcome = f"{type(exc).__name__}: {exc}"
        print(f"V={len(verts)} solve_s={t_solve:.2f} layout_s={t_layout:.3f} {outcome}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
