import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskrig
from diskrig import geom
from diskrig.cli import build_parser, main
from diskrig.docio import ConfigDocument, canonical_text, document_from_obj, read_document, write_document
from diskrig.errors import SchemaError

from conftest import tangency_flower_pair


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def tangent_triple(tmp_path):
    return _write(
        tmp_path / "triple.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": "a", "cx": 0.0, "cy": 0.0, "r": 1.0},
                {"id": "b", "cx": 2.0, "cy": 0.0, "r": 1.0},
                {"id": "c", "cx": 1.0, "cy": math.sqrt(3), "r": 1.0},
            ],
        },
    )


@pytest.fixture
def tight_triple(tmp_path):
    return _write(
        tmp_path / "tight.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": "a", "cx": 0.0, "cy": 0.0, "r": 1.0},
                {"id": "b", "cx": 1.0, "cy": 0.0, "r": 1.0},
                {"id": "c", "cx": 0.5, "cy": math.sqrt(3) / 2, "r": 1.0},
            ],
        },
    )


@pytest.fixture
def mismatched_pair(tmp_path):
    c = _write(
        tmp_path / "mismatched_c.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 3.18, "cy": -0.05, "r": 1.51},
                {"id": 2, "cx": 5.02, "cy": 0.05, "r": 1.43},
            ],
        },
    )
    ct = _write(
        tmp_path / "mismatched_t.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 2.85, "cy": -0.02, "r": 1.46},
                {"id": 2, "cx": 5.54, "cy": 0.05, "r": 1.57},
            ],
        },
    )
    return c, ct


def test_check_thin(tangent_triple, capsys):
    assert main(["check", tangent_triple]) == 0
    out = capsys.readouterr().out
    assert "thin: True" in out


def test_check_witness(tight_triple, capsys):
    assert main(["check", tight_triple]) == 1
    out = capsys.readouterr().out
    assert "thin: False" in out and "witness" in out


def test_check_pair_identical(tangent_triple, capsys):
    assert main(["check", tangent_triple, tangent_triple]) == 1
    assert "general_position: False" in capsys.readouterr().out


def test_eps_geom_reaches_config_and_ends_with_the_call(tmp_path, capsys):
    from diskrig import geom

    # the two disks a miss tangency by 1e-6: a tangential cross pair only
    # under a tolerance above that gap
    c = _write(tmp_path / "c.json", {"schema_version": 1, "disks": [{"id": "a", "cx": 0.0, "cy": 0.0, "r": 1.0}]})
    ct = _write(tmp_path / "ct.json", {"schema_version": 1, "disks": [{"id": "a", "cx": 2.000001, "cy": 0.0, "r": 1.0}]})
    assert main(["--json", "check", c, ct]) == 0
    assert json.loads(capsys.readouterr().out)["general_position"] is True
    assert main(["--eps-geom", "1e-5", "--json", "check", c, ct]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["general_position"] is False
    assert ["tangential_cross_pair", "a", "a"] in payload["general_position_violations"]
    assert geom.EPS_GEOM == 1e-9


def test_index_refuses_mismatched_angles(mismatched_pair, capsys):
    c, ct = mismatched_pair
    assert main(["index", c, ct]) == 2
    assert "force" in capsys.readouterr().err


def test_index_force_mismatched(mismatched_pair, capsys):
    c, ct = mismatched_pair
    assert main(["--json", "index", c, ct, "--force"]) in (0, 1)
    payload = json.loads(capsys.readouterr().out)
    # the arc-proportional map gives +1 here; the -1 value needs the pinned
    # identifications, exercised in the boundary tests
    assert payload["eta"] == 1
    assert payload["lower_bound"] == 0


def test_index_translated_copy(tmp_path, capsys):
    a = _write(
        tmp_path / "a.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 0.0, "cy": 0.0, "r": 1.0},
                {"id": 2, "cx": 1.0, "cy": 0.0, "r": 1.0},
            ],
        },
    )
    b = _write(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 8.0, "cy": 0.0, "r": 1.0},
                {"id": 2, "cx": 9.0, "cy": 0.0, "r": 1.0},
            ],
        },
    )
    assert main(["--json", "index", a, b]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta"] == 0 and payload["lower_bound"] == 0
    assert payload["eta"] >= payload["lower_bound"]


# an 8-disk pair whose eta the crossing count decides, but whose samples fail
# the certificate between samples at every density: (id, cx, cy, r)
UNCERTIFIED_C = [
    (0, 0.0, 0.0, 1.2851638703141361),
    (1, 2.1811430280954376, 0.0, 1.0),
    (2, 1.403833126723862, 1.6905912316020195, 1.0),
    (3, -0.48639593620387411, 2.2314840351872807, 1.0),
    (4, -1.9932185054131561, 0.97901540960821398, 1.0),
    (5, -1.9578036507161316, -1.0011368200281479, 1.0),
    (6, -0.62445754029457956, -2.1654688437865524, 1.0),
    (7, 1.3304974225630699, -1.7478995865638298, 1.0),
]
UNCERTIFIED_CT = [
    (0, 0.0, 0.0, 1.2871353227310465),
    (1, 2.1872013251377744, 0.0, 1.0044156680111156),
    (2, 1.3971401006803226, 1.6432499597579087, 0.95527207668008185),
    (3, -0.35092283909994282, 2.1551133746604174, 0.89757038569079506),
    (4, -1.8241208303348779, 1.1425875681734901, 0.92707525060521601),
    (5, -2.1100932865754336, -0.80459488922144073, 1.0603151095678844),
    (6, -0.82461900700418911, -2.106664981217671, 1.0067678984035475),
    (7, 1.346269992676566, -1.9408697269947355, 1.17146842972857),
]


def test_index_reports_an_exact_eta_whose_samples_cannot_be_certified(tmp_path, capsys):
    # the exact eta is reported with min_displacement null, and the exit code
    # is the theorem check's, not the sampling's refusal
    c, ct = (
        _write(tmp_path / name, {"schema_version": 1, "disks": [{"id": i, "cx": x, "cy": y, "r": r} for i, x, y, r in disks]})
        for name, disks in (("c.json", UNCERTIFIED_C), ("ct.json", UNCERTIFIED_CT))
    )
    assert main(["--json", "index", c, ct]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["eta"], payload["lower_bound"], payload["min_displacement"]) == (2, 1, None)
    assert payload["per_curve"] == [0] * 7 + [2] and not payload["theorem_violated"]
    assert main(["index", c, ct]) == 0
    assert "min_displacement: None" in capsys.readouterr().out.splitlines()


def test_solve_k4(tmp_path, capsys):
    doc = _write(
        tmp_path / "k4.json",
        {
            "schema_version": 1,
            "disks": [],
            "triangulation": {
                "faces": [[0, 1, 2], [0, 2, 3], [0, 3, 1]],
                "boundary_radii": {"1": 1.0, "2": 1.0, "3": 1.0},
            },
        },
    )
    out = tmp_path / "solved.json"
    svg = tmp_path / "solved.svg"
    assert main(["solve", doc, "-o", str(out), "--svg", str(svg)]) == 0
    solved = read_document(out)
    radii = {i: r for i, _cx, _cy, r in solved.disks}
    assert abs(radii[0] - 1 / (3 + 2 * math.sqrt(3))) < 1e-8
    assert svg.read_text().startswith("<svg")
    assert svg.read_text().count("<circle") == 4


def test_compare_similarity(tmp_path, capsys):
    a = _write(
        tmp_path / "a.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 0.0, "cy": 0.0, "r": 1.0},
                {"id": 2, "cx": 1.1, "cy": 0.0, "r": 0.8},
                {"id": 3, "cx": 0.4, "cy": 1.2, "r": 0.9},
            ],
        },
    )
    b = _write(
        tmp_path / "b.json",
        {
            "schema_version": 1,
            "disks": [
                {"id": 1, "cx": 3.0, "cy": 1.0, "r": 2.0},
                {"id": 2, "cx": 5.2, "cy": 1.0, "r": 1.6},
                {"id": 3, "cx": 3.8, "cy": 3.4, "r": 1.8},
            ],
        },
    )
    assert main(["--json", "compare", a, b, "--similarity"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-9
    assert main(["--json", "compare", a, b]) == 0


def test_index_bound_one(tmp_path, capsys):
    # a dilation pair with one isolated subsumptive subset: eta >= bound = 1
    import numpy as np

    from diskrig.docio import ConfigDocument, write_document
    from diskrig.experiments import dilation_pair, random_thin_config
    from diskrig.subsumption import index_lower_bound

    rng = np.random.default_rng(77)
    while True:
        c, ct = dilation_pair(random_thin_config(rng), rng)
        if index_lower_bound(c, ct) == 1:
            break
    pc = tmp_path / "c.json"
    pt = tmp_path / "ct.json"
    write_document(ConfigDocument.from_configuration(c), pc)
    write_document(ConfigDocument.from_configuration(ct), pt)
    assert main(["--json", "index", str(pc), str(pt)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == 1
    assert payload["eta"] >= 1
    assert not payload["theorem_violated"]


def test_analyze_report(tmp_path, capsys):
    from diskrig.docio import ConfigDocument, write_document
    from test_subsumption import SHIFT_GRAPH_NESTED, SHIFT_GRAPH_SOLID

    pc, pt = tmp_path / "c.json", tmp_path / "ct.json"
    write_document(ConfigDocument(disks=[(k, d.center.real, d.center.imag, d.radius) for k, d in sorted(SHIFT_GRAPH_SOLID.items())]), pc)
    write_document(ConfigDocument(disks=[(k, d.center.real, d.center.imag, d.radius) for k, d in sorted(SHIFT_GRAPH_NESTED.items())]), pt)
    assert main(["--json", "analyze", str(pc), str(pt)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower_bound"] == 1
    (subset,) = payload["subsets"]
    assert subset["isolated"] and subset["sink"] == "p1"
    assert ["p3", "p4"] in subset["H"] and ["p4", "p3"] in subset["H"]


def _disks_doc(path, disks):
    """A configuration document of {id: (centre, radius)}."""
    entries = [{"id": k, "cx": c.real, "cy": c.imag, "r": r} for k, (c, r) in disks.items()]
    return _write(path, {"schema_version": 1, "disks": entries})


def test_analyze_cross_edge_without_tilde_eye(tmp_path, capsys):
    # the cross edge (1, 2) of the subsumptive subset {1} overlaps in c but
    # not in c~: with no tilde eye there is nothing to nest, so {1} is isolated
    pc = _disks_doc(tmp_path / "c.json", {1: (0j, 1.0), 2: (1.5 + 0j, 1.0)})
    pt = _disks_doc(tmp_path / "ct.json", {1: (0j, 0.8), 2: (3.2 + 0j, 0.5)})
    assert main(["--json", "analyze", pc, pt]) == 0
    payload = json.loads(capsys.readouterr().out)
    (subset,) = payload["subsets"]
    assert subset["vertices"] == ["1"] and subset["direction"] == "down" and subset["isolated"]
    assert payload["lower_bound"] == 1


def test_check_degenerate_radius_is_an_error(tmp_path, capsys):
    # docio accepts r = 1e-10, Disk rejects it: an error (2), not a failed
    # predicate (1)
    path = _disks_doc(tmp_path / "tiny.json", {"a": (0j, 1e-10)})
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: radius must exceed") and err.count("\n") == 1


def test_solve_degenerate_face_is_an_error(tmp_path, capsys):
    path = _write(
        tmp_path / "face.json",
        {"schema_version": 1, "disks": [], "triangulation": {"faces": [[0, 0, 1]], "boundary_radii": {}}},
    )
    assert main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate face") and err.count("\n") == 1


def test_compare_normalize_mode(tmp_path, capsys):
    import numpy as np

    from diskrig.docio import ConfigDocument, write_document
    from diskrig.experiments import resolve_pair

    c, ct = resolve_pair(np.random.default_rng(5), n_petals=6)
    pc, pt = tmp_path / "c.json", tmp_path / "ct.json"
    write_document(ConfigDocument.from_configuration(c), pc)
    write_document(ConfigDocument.from_configuration(ct), pt)
    code = main(["--json", "compare", str(pc), str(pt), "--mode", "PlaneVsHyp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["conditions_hold"]


@pytest.mark.parametrize(
    "mode, scales, anchors, epsilon",
    [
        ("Sphere", None, ["1", "3", "0"], 2.0**-5),
        ("PlanePlane", None, ["1", "3", "0"], 2.0**-3),
        # HypHyp needs both configurations inside the unit disk
        ("HypHyp", ((0.18, 0), (0.16, 0.02)), ["0", "1"], 2.0**-4),
    ],
)
def test_compare_normalize_modes_on_tangency_flower(tmp_path, capsys, mode, scales, anchors, epsilon):
    pair = tangency_flower_pair()
    if scales:
        pair = [c.transformed(lambda d, s=s, o=o: geom.Disk(d.center * s + o, d.radius * s)) for c, (s, o) in zip(pair, scales)]
    paths = [str(tmp_path / name) for name in ("c.json", "ct.json")]
    for cfg, path in zip(pair, paths):
        write_document(ConfigDocument.from_configuration(cfg), path)
    code = main(["--json", "compare", *paths, "--mode", mode])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    checks = ["general_position"] + [f"nested[{a}]" for a in anchors]
    assert payload == {
        "mode": mode,
        "epsilon": epsilon,
        "anchors": anchors,
        "checks": dict.fromkeys(checks, True),
        "conditions_hold": True,
    }


def test_compare_normalize_reports_the_scan_on_equivalent_pair(tmp_path, capsys):
    from diskrig.moebius import EPSILONS, apply_disk, similarity

    cfg, _ = tangency_flower_pair()
    m = similarity(1.3 + 0.4j, 2 - 1j)
    paths = [str(tmp_path / name) for name in ("c.json", "ct.json")]
    for c, path in zip((cfg, cfg.transformed(lambda d: apply_disk(m, d))), paths):
        write_document(ConfigDocument.from_configuration(c), path)
    code = main(["--json", "compare", *paths, "--mode", "PlanePlane"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload == {
        "mode": "PlanePlane",
        "conditions_hold": False,
        "last_failures": ["nested[0]"],
        "scanned": list(EPSILONS),
    }


def test_solve_to_unwritable_path_is_an_error(tmp_path, capsys):
    doc = _write(
        tmp_path / "f.json",
        {
            "schema_version": 1,
            "disks": [],
            "triangulation": {"faces": [[0, k, k % 6 + 1] for k in range(1, 7)], "boundary_radii": {}},
        },
    )
    assert main(["solve", doc, "-o", str(tmp_path / "no" / "such" / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_overlays(tmp_path, tight_triple):
    out = tmp_path / "fig.svg"
    assert main(["render", tight_triple, "-o", str(out), "--overlay", "eyes,labels"]) == 0
    text = out.read_text()
    assert text.count("<circle") > 3  # disks + eye corner dots
    assert "<text" in text


def test_render_h_arrows(tmp_path):
    from diskrig.docio import ConfigDocument, write_document
    from test_subsumption import SHIFT_GRAPH_NESTED, SHIFT_GRAPH_SOLID

    pc, pt = tmp_path / "c.json", tmp_path / "ct.json"
    write_document(ConfigDocument(disks=[(k, d.center.real, d.center.imag, d.radius) for k, d in sorted(SHIFT_GRAPH_SOLID.items())]), pc)
    write_document(ConfigDocument(disks=[(k, d.center.real, d.center.imag, d.radius) for k, d in sorted(SHIFT_GRAPH_NESTED.items())]), pt)
    out = tmp_path / "h.svg"
    assert main(["render", str(pc), "-o", str(out), "--overlay", "H", "--second", str(pt)]) == 0
    text = out.read_text()
    assert text.count("<line") == 4  # the computed shift arrows
    assert text.count("<polygon") == 4


def test_render_torus(tmp_path, mismatched_pair):
    c, ct = mismatched_pair
    out = tmp_path / "torus.svg"
    assert main(["--seed", "4", "render", c, "-o", str(out), "--overlay", "torus", "--second", ct, "--pair", "1"]) == 0
    assert "<rect" in out.read_text()


def test_lemmas_command(capsys):
    assert main(["--seed", "5", "lemmas", "--lemma", "mogwai", "--count", "25"]) == 0
    assert "mogwai" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["0", "-3", "x"])
def test_lemmas_count_must_be_positive(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["lemmas", "--lemma", "mogwai", "--count", count])
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.fixture
def different_ids(tmp_path):
    """Two files whose disk ids differ: {1, 2} against {1, 3}."""
    pc = _disks_doc(tmp_path / "c.json", {1: (0j, 1.0), 2: (1.5 + 0j, 1.0)})
    pt = _disks_doc(tmp_path / "ct.json", {1: (0j, 0.8), 3: (1.5 + 0j, 1.0)})
    return pc, pt


@pytest.mark.parametrize("command", ["analyze", "render", "index"])
def test_different_disk_ids_are_an_error(tmp_path, capsys, different_ids, command):
    pc, pt = different_ids
    argv = {
        "analyze": ["analyze", pc, pt],
        "render": ["render", pc, "-o", str(tmp_path / "h.svg"), "--overlay", "H", "--second", pt],
        "index": ["index", pc, pt],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: disk ids differ: 2 only in C; 3 only in C~\n"


def test_render_torus_pair_missing_from_second_is_an_error(tmp_path, capsys, different_ids):
    pc, pt = different_ids
    argv = ["render", pc, "-o", str(tmp_path / "t.svg"), "--overlay", "torus", "--second", pt, "--pair", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: no disk with id 2 in {pt}\n"


def test_round_trip_byte_identical(tmp_path, tangent_triple):
    doc = read_document(tangent_triple)
    p1 = tmp_path / "c1.json"
    p2 = tmp_path / "c2.json"
    write_document(doc, p1)
    write_document(read_document(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_render_byte_stable(tmp_path, tight_triple):
    o1, o2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    main(["render", tight_triple, "-o", str(o1), "--overlay", "eyes"])
    main(["render", tight_triple, "-o", str(o2), "--overlay", "eyes"])
    assert o1.read_bytes() == o2.read_bytes()


def test_solve_byte_stable(tmp_path):
    doc = _write(
        tmp_path / "f.json",
        {
            "schema_version": 1,
            "disks": [],
            "triangulation": {
                "faces": [[0, k, k % 6 + 1] for k in range(1, 7)],
                "boundary_radii": {str(k): 1.0 for k in range(1, 7)},
            },
        },
    )
    o1, o2 = tmp_path / "s1.json", tmp_path / "s2.json"
    main(["solve", doc, "-o", str(o1)])
    main(["solve", doc, "-o", str(o2)])
    assert o1.read_bytes() == o2.read_bytes()


def test_schema_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99, "disks": []}))
    with pytest.raises(SchemaError):
        read_document(bad)
    with pytest.raises(SchemaError):
        document_from_obj({"schema_version": 1, "disks": [{"id": "a", "cx": 0, "cy": 0, "r": -1}]})
    nojson = tmp_path / "no.json"
    nojson.write_text("{nope")
    assert main(["check", str(nojson)]) == 2
    # each malformed part of a document is a schema error (exit 2), not a
    # traceback
    disks = [{"id": 0, "cx": 0, "cy": 0, "r": 1}, {"id": 1, "cx": 1.5, "cy": 0, "r": 1}]
    for extra in (
        {"incidence": {"edges": [[0, 1, "abc"]]}},
        {"incidence": {"edges": [[0, 1, None]]}},
        {"incidence": {"edges": ["abc"]}},
        {"incidence": {"edges": [[[0], 1, 0.5]]}},
        {"incidence": {"edges": {"0": 1}}},
        {"incidence": [1, 2]},
        {"triangulation": {"faces": [5]}},
        {"triangulation": {"faces": [[0, 1, {"a": 2}]]}},
        {"triangulation": {"boundary_radii": {"0": "abc"}}},
        {"triangulation": {"boundary_radii": [1.0]}},
        {"triangulation": "faces"},
        {"disks": [*disks, {"id": [1], "cx": 3, "cy": 0, "r": 1}]},
        {"disks": 5},
    ):
        path = _write(tmp_path / "malformed.json", {"schema_version": 1, "disks": disks, **extra})
        with pytest.raises(SchemaError):
            read_document(path)
        assert main(["check", path]) == 2


def test_seventeen_digit_serialization():
    doc = ConfigDocument(disks=[("a", 1 / 3, 2 / 7, 0.1)])
    text = canonical_text(doc)
    assert "0.33333333333333331" in text
    assert json.loads(text)["disks"][0]["cx"] == 1 / 3


def test_compare_is_stable_across_hash_seeds(tmp_path):
    # string labels iterate in hash order; the alignment anchors must not
    from diskrig.moebius import apply_disk, compose, inversion, similarity
    from diskrig.solver import FixedBoundaryRadii, flower, layout, solve_radii

    tri = flower(6)
    cfg = layout(tri, solve_radii(tri, {}, FixedBoundaryRadii({k: 1.0 for k in range(1, 7)})), {})
    names = dict(zip(range(7), "abcdefg"))
    m = compose(similarity(0.8 + 0.3j, 1 - 2j), inversion(9 + 7j))
    paths = []
    for name, f in (("c", lambda d: d), ("t", lambda d: apply_disk(m, d))):
        disks = [{"id": names[k], "cx": f(d).center.real, "cy": f(d).center.imag, "r": f(d).radius} for k, d in cfg.items()]
        paths.append(_write(tmp_path / f"{name}.json", {"schema_version": 1, "disks": disks}))
    env = dict(os.environ, PYTHONPATH=str(Path(diskrig.__file__).parents[1]))
    outs = []
    for seed in ("1", "2", "3"):
        run = subprocess.run(
            [sys.executable, "-m", "diskrig.cli", "--json", "compare", *paths],
            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True, check=True,
        )
        outs.append(run.stdout)
    assert json.loads(outs[0])["equivalent"]
    assert outs[0] == outs[1] == outs[2]


def test_eps_angle_default_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(geom, "EPS_ANGLE", 0.25)
    assert build_parser().parse_args(["check", "x.json"]).eps_angle == 0.25


CLI_PAIRS = Path(__file__).parent.parent / "bench" / "corpus" / "cli_pairs"


def test_cli_pairs_output_is_pinned(capsys):
    # the exit code and the sha256 of stdout of --json index, analyze and
    # check on every cli_pairs pair, as recorded in cli_pairs_stdout.json
    # when they were first pinned: any change of a printed byte shows here
    with open(Path(__file__).parent / "cli_pairs_stdout.json") as fh:
        pinned = json.load(fh)
    with open(CLI_PAIRS / "manifest.json") as fh:
        items = json.load(fh)["items"]
    got = {}
    for item in items:
        paths = [str(CLI_PAIRS / f) for f in item["files"]]
        for command in ("index", "analyze", "check"):
            rc = main(["--json", command, *paths])
            got.setdefault(item["files"][0][:3], {})[command] = [rc, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()]
    assert len(got) == 40 and got == pinned
