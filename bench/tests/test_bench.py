"""Tests of the benchmark itself: its output checks, its tracer and its
corpus.  Run with ``python3 -m pytest bench/tests`` from the repository root.
"""
import copy
import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH
from run import failure_problems
from spans import PER_LAYER, Tracer
from workloads import WORKLOADS, import_diskrig

CORPUS = os.path.join(BENCH, "corpus")


@pytest.fixture(scope="module")
def dk():
    return import_diskrig()


@pytest.fixture(scope="module")
def items(dk):
    return {name: wl.load(CORPUS, dk) for name, wl in WORKLOADS.items()}


def _first(items, name, **match):
    return next(it for it in items[name] if all(it.get(k) == v for k, v in match.items()))


def _rejects(wl, item, out, dk):
    return bool(wl.check(item, out, dk))


# --- the output checks reject wrong answers ---------------------------------------


def test_index_theorem_checks(dk, items):
    wl = WORKLOADS["index_theorem"]
    item = _first(items, "index_theorem", kind="cluster")
    out = wl.run(item, dk)
    assert wl.check(item, out, dk) == []
    wrong = [
        dict(out, eta=out["bound"] - 1),
        dict(out, eta_variant=out["bound"] - 1),
        dict(out, obs_a=(out["obs_a"][0], out["obs_a"][1] + 1)),
        dict(out, main_b=[out["main_b"][0], (out["main_b"][1][0], out["main_b"][1][1] - 1)]),
        dict(out, bound=out["bound"] + 1, eta=out["eta"] + 1, eta_variant=out["eta_variant"] + 1),
    ]
    for bad in wrong:
        assert _rejects(wl, item, bad, dk), bad


def test_eye_torus_checks(dk, items):
    wl = WORKLOADS["eye_torus"]
    pair = _first(items, "eye_torus", kind="disk")
    out = wl.run(pair, dk)
    assert wl.check(pair, out, dk) == []
    for bad in (
        dict(out, formula=out["direct"] + 1),
        dict(out, M=out["M"] + 1),
        dict(out, local_windings=False),
    ):
        assert _rejects(wl, pair, bad, dk), bad
    search, gmap = next(
        (it, g) for it in items["eye_torus"] if it["kind"] == "search" for g in [nonzero_map(dk, it)] if g is not None
    )
    found = wl.run(search, dk)
    assert wl.check(search, found, dk) == []
    assert _rejects(wl, search, dict(found, gmap=gmap), dk)
    assert _rejects(wl, search, dict(found, M=found["M"] + 1), dk)


def nonzero_map(dk, item):
    """A monotone graph map of the item's pair whose index is not 0, if one
    of a few random ones has such an index."""
    param = dk.torus.build_parametrization(item["obj"], item["obj_t"])
    for seed in range(20):
        gmap = dk.torus.random_monotone_graph(param, dk.np.random.default_rng(seed))
        if dk.torus.graph_eta(gmap) != 0:
            return gmap
    return None


def test_patch_solve_checks(dk, items, tmp_path):
    wl = WORKLOADS["patch_solve"]
    item = next(it for it in items["patch_solve"] if not wl.failed(wl.run(it, dk, str(tmp_path))))
    out = wl.run(item, dk, str(tmp_path))
    assert wl.check(item, out, dk) == []
    doc = json.loads(out["text"])
    by_id = {d["id"]: d for d in doc["disks"]}
    boundary = next(iter(item["boundary"]))
    interior = next(v for v in by_id if v not in item["boundary"])
    edges = {e for e in item["theta"]}
    far = next((i, j) for i in by_id for j in by_id if i < j and frozenset((i, j)) not in edges)

    def mutated(fn):
        bad = copy.deepcopy(doc)
        fn({d["id"]: d for d in bad["disks"]})
        return dict(out, text=json.dumps(bad))

    def move_onto(d):
        d[far[0]]["cx"], d[far[0]]["cy"] = d[far[1]]["cx"] + 0.1, d[far[1]]["cy"]

    wrong = [
        mutated(lambda d: d[boundary].update(r=d[boundary]["r"] * 1.01)),
        mutated(lambda d: d[interior].update(r=d[interior]["r"] * (1 + 1e-6))),
        mutated(lambda d: d[interior].update(cx=d[interior]["cx"] + 1e-4)),
        mutated(move_onto),
    ]
    for bad in wrong:
        assert _rejects(wl, item, bad, dk)


def test_failures_other_than_inconsistent_placement_are_problems(dk, items, tmp_path):
    wl = WORKLOADS["patch_solve"]
    fault = _first(items, "patch_solve", id=151)
    assert wl.failed(wl.run(fault, dk, str(tmp_path)))
    cases = [
        fault,
        dict(fault, theta={e: 2.0 for e in fault["theta"]}),  # beyond pi/2
        items["patch_solve"][0],  # solves and lays out without error
    ]
    attempts = [(k, 0.5, True, []) for k in range(len(cases))]
    assert failure_problems(wl, cases, dk, attempts[:1]) == []
    assert failure_problems(wl, cases, dk, attempts) == [
        "item 1 failed with UnsupportedAngle",
        "item 2 failed with None",
    ]


def test_cli_pairs_checks(dk, items):
    wl = WORKLOADS["cli_pairs"]
    item = items["cli_pairs"][0]
    out = wl.run(item, dk)
    assert wl.check(item, out, dk) == []
    index, analyze, check = (json.loads(out[c][1]) for c in wl.commands)

    def with_json(cmd, payload, rc=0):
        return dict(out, **{cmd: (rc, json.dumps(payload))})

    wrong = [
        dict(out, index=(2, "")),
        with_json("index", dict(index, eta=index["lower_bound"] - 1, per_curve=[index["lower_bound"] - 1])),
        with_json("index", dict(index, per_curve=index["per_curve"] + [1])),
        with_json("analyze", dict(analyze, lower_bound=analyze["lower_bound"] + 1)),
        with_json("check", dict(check, thin=False)),
        with_json("check", dict(check, incidence_match=False)),
        with_json("check", dict(check, n_edges=check["n_edges"] - 1)),
    ]
    for bad in wrong:
        assert _rejects(wl, item, bad, dk)


# --- the tracer -------------------------------------------------------------------


def test_tracer_counts_calls_through_from_imported_bindings(dk, items):
    item = items["index_theorem"][0]
    fmap = dk.boundary.build_faithful_map(item["config"], item["config_t"])
    original = dk.boundary.fixed_point_index
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_item(0)
        # cli binds fixed_point_index with "from .boundary import ..."
        dk.cli.fixed_point_index(fmap)
        # obs_a_identity calls it through experiments' own binding
        dk.experiments.obs_a_identity(fmap)
        tracer.end_item()
    finally:
        tracer.uninstall()
    assert tracer.calls["boundary.fixed_point_index"][0] == 2
    assert tracer.calls["boundary.FaithfulMap.disk_loop"][0] >= len(item["config"])
    assert tracer.calls["geom.disk_relation"][0] > 0
    metrics = tracer.metrics(0.0)
    assert metrics["boundary.fixed_point_index.calls_per_map"] == 2.0
    assert set(metrics) == {name for name, _, _ in PER_LAYER}
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("self_ms"))
    assert dk.boundary.fixed_point_index is original
    assert dk.cli.fixed_point_index is original


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


# --- the corpus -------------------------------------------------------------------


@pytest.mark.parametrize("name,indices", [
    ("index_theorem", "0,3"),
    ("eye_torus", "1,62"),
    ("patch_solve", "0,151"),
    ("cli_pairs", "1"),
])
def test_corpus_regenerates_byte_identically(tmp_path, name, indices):
    subprocess.run(
        [sys.executable, os.path.join(BENCH, "make_corpus.py"), "--workload", name, "--out", str(tmp_path), "--items", indices],
        check=True,
        capture_output=True,
    )
    with open(os.path.join(CORPUS, name, "manifest.json")) as fh:
        committed = {e["id"]: e for e in json.load(fh)["items"]}
    with open(tmp_path / name / "manifest.json") as fh:
        fresh = json.load(fh)["items"]
    for entry in fresh:
        assert entry == committed[entry["id"]]
        for fname in entry["files"]:
            with open(os.path.join(CORPUS, name, fname), "rb") as fh:
                assert (tmp_path / name / fname).read_bytes() == fh.read(), fname
