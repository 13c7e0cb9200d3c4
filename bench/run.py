"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: diskrig is imported from ``src/``.
The inputs are the frozen corpus under ``bench/corpus``; the seed only sets
the order in which each round visits the items.

A run attempts whole rounds (every corpus item once, in a seeded order) until
the time is up, on one thread, setting up afresh before each round; it
reports the median of at least five set-up times.  Every output is checked after the timed phase.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The traced run first times the same
rounds untraced, so the tracing overhead is measured too.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(BENCH, "corpus")
OUT = os.path.join(BENCH, "out")

SETUPS = 5
WARM_UP_ITEM = 0


def percentile(values, q):
    """Linear-interpolated q-th percentile; inf (a failed item) ranks last."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def set_up(wl):
    """Import diskrig, load the corpus and run one untimed item."""
    from workloads import import_diskrig

    dk = import_diskrig()
    items = wl.load(CORPUS, dk)
    wl.run(items[WARM_UP_ITEM], dk, OUT)
    return dk, items


def run_round(wl, items, dk, perm, tracer=None):
    """Attempt every item once in the given order.  Returns (attempts, wall
    seconds), each attempt being (item index, seconds, output, error)."""
    attempts = []
    start = time.perf_counter()
    for k in perm:
        if tracer:
            tracer.begin_item(k)
        t0 = time.perf_counter()
        try:
            out, err = wl.run(items[k], dk, OUT), None
        except Exception as exc:  # recorded and reported as a wrong result
            out, err = None, exc
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_item()
        attempts.append((k, dt, out, err))
    return attempts, time.perf_counter() - start


def run_rounds(wl, seed, seconds, min_rounds, tracer=None):
    """Set up, then attempt a whole round, in a seeded order; repeat while
    another round is expected to end nearer the target time than stopping
    now, and until ``min_rounds`` are done.  Set up again after the last
    round until there are ``SETUPS`` set-ups.

    Setting up before every round spreads the set-ups over the run, so their
    median samples the machine as the rounds do, and it starts each round
    from a fresh import, so nothing the program keeps in memory carries over
    from one round to the next.  With a tracer, every round runs twice,
    untraced and then traced, so the tracing overhead is measured on the same
    items.

    Returns (attempt records of ``check_round``, wall seconds, untraced wall
    seconds, set-up seconds, modules, items); attempts and wall seconds are
    those of the traced rounds if there is a tracer."""
    order = random.Random(seed)
    attempts, wall, plain_wall, setups = [], 0.0, 0.0, []
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        dk, items = set_up(wl)
        setups.append(time.perf_counter() - t0)
        perm = list(range(len(items)))
        order.shuffle(perm)
        if tracer:
            plain_wall += run_round(wl, items, dk, perm)[1]
            tracer.install()
            try:
                a, w = run_round(wl, items, dk, perm, tracer)
            finally:
                tracer.uninstall()
        else:
            a, w = run_round(wl, items, dk, perm)
        # checked now, so no output outlives its round
        attempts += check_round(wl, items, dk, a)
        wall += w
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed + 0.5 * elapsed / done >= seconds:
            break
    while len(setups) < SETUPS:
        t0 = time.perf_counter()
        dk, items = set_up(wl)
        setups.append(time.perf_counter() - t0)
    return attempts, wall, plain_wall, setups, dk, items


def check_round(wl, items, dk, attempts):
    """Check every output of a round: (item index, seconds, failed,
    problems) per attempt."""
    records = []
    for k, dt, out, err in attempts:
        if err is not None:
            records.append((k, dt, True, [f"item {k}: {type(err).__name__}: {err}"]))
        elif wl.failed(out):
            records.append((k, dt, True, []))
        else:
            records.append((k, dt, False, [f"item {k}: {p}" for p in wl.check(items[k], out, dk)]))
    return records


def failure_problems(wl, items, dk, attempts):
    """The only failures a workload may have are solves that layout rejects
    with InconsistentPlacement, a known fault of the solver's fixed
    tolerances; name any other."""
    failed = sorted({k for k, _dt, is_failed, problems in attempts if is_failed and not problems})
    kinds = {k: wl.failure_kind(items[k], dk) for k in failed}
    return [f"item {k} failed with {kind}" for k, kind in kinds.items() if kind != "InconsistentPlacement"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diskrig", "__init__.py")):
        print(f"error: no diskrig sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, read_json

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)

    # enough rounds that the tail percentile has at least ten items beyond it
    n_items = len(read_json(os.path.join(CORPUS, wl.name, "manifest.json"))["items"])
    min_rounds = math.ceil(10 / (1 - wl.tail / 100) / n_items)
    tracer = None
    if args.trace:
        from spans import PER_LAYER, Tracer

        tracer = Tracer()
    attempts, wall, plain_wall, setup_times, dk, items = run_rounds(wl, args.seed, args.seconds, min_rounds, tracer)
    n_failed = sum(is_failed for _k, _dt, is_failed, _p in attempts)
    problems = [p for *_rest, ps in attempts for p in ps] + failure_problems(wl, items, dk, attempts)

    if tracer:
        metrics = tracer.metrics(1e3 * (wall - plain_wall) / len(attempts))
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(os.path.join(OUT, f"trace-{wl.name}-seed{args.seed}.json"))
    else:
        times_ms = [math.inf if is_failed else 1e3 * dt for _k, dt, is_failed, _p in attempts]
        metrics = {
            "items_per_s": (len(attempts) - n_failed) / wall,
            "item_ms_p50": percentile(times_ms, 50),
            "item_ms_tail": percentile(times_ms, wl.tail),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"items_per_s": "items/s", "item_ms_p50": "ms", "item_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}

    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(attempts),
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        attempts_ms = [[k, 1e3 * dt, is_failed] for k, dt, is_failed, _p in attempts]
        json.dump(dict(result, setup_s=setup_times, attempts=attempts_ms), fh)
    print(
        f"{wl.name}: {len(attempts)} items in {wall:.2f} s, {n_failed} failed, "
        f"p{wl.tail} tail, {len(setup_times)} set-ups"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
