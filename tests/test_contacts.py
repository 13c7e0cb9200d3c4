"""The contact table: one classification of each pair per configuration, with
corners oriented by str order of the labels, so that what is read from it
does not depend on the order in which the disks are listed."""
import functools
import math
import os

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from diskrig import geom
from diskrig.boundary import boundary_complex, build_faithful_map, fixed_point_index
from diskrig.config import DiskConfiguration, contact_graph, eyes
from diskrig.docio import read_document
from diskrig.errors import ContainmentViolation, NotTransverse, UnboundedImage
from diskrig.experiments import random_bounded_moebius, random_chain_config
from diskrig.geom import Disk, DiskRelation, circle_intersections
from diskrig.moebius import apply_disk
from diskrig.subsumption import index_lower_bound

from conftest import _reference_classify, tangency_point

CLI_PAIRS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "corpus", "cli_pairs")
N_PAIRS = 40

# a fixed set of examples keeps tier-1 deterministic; each example costs about
# one fixed-point index of a 37-disk pair
EXAMPLES = settings(
    max_examples=10, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow]
)


@functools.lru_cache(maxsize=None)
def _corpus_pair(k):
    """The k-th 37-disk pair of the cli_pairs corpus and its index report and
    bound; the corpus lists its labels 0..36 in str order."""
    c, ct = (read_document(os.path.join(CLI_PAIRS, f"{k:03d}_{s}.json")).to_configuration() for s in "ct")
    return c, ct, fixed_point_index(build_faithful_map(c, ct)), index_lower_bound(c, ct)


def _eye_data(config):
    return [(pair, *e.corners) for pair, e in eyes(config).items()]


@EXAMPLES
@given(k=st.integers(0, N_PAIRS - 1), order=st.permutations(range(37)))
def test_listing_order_changes_nothing(k, order):
    c, ct, report, bound = _corpus_pair(k)
    pc, pct = (DiskConfiguration([cfg.items()[i] for i in order]) for cfg in (c, ct))
    for cfg, permuted in ((c, pc), (ct, pct)):
        inc, inc_p = contact_graph(cfg), contact_graph(permuted)
        assert inc.edges == inc_p.edges
        assert all(inc.theta[e] == inc_p.theta[e] for e in inc.edges)
        assert _eye_data(cfg) == _eye_data(permuted)
    got = fixed_point_index(build_faithful_map(pc, pct))
    assert (got.eta, got.per_curve, got.min_displacement) == (report.eta, report.per_curve, report.min_displacement)
    assert index_lower_bound(pc, pct) == bound


@EXAMPLES
@given(k=st.integers(0, N_PAIRS - 1), names=st.permutations(range(37)))
def test_relabelling_changes_nothing(k, names):
    # a relabelling that changes the labels' str order swaps some pairs'
    # orientation (theta to within rounding) and the order in which the
    # boundary curves are traced, so per_curve is compared as a multiset
    c, ct, report, bound = _corpus_pair(k)
    rc, rct = (DiskConfiguration([(names[v], d) for v, d in cfg.items()]) for cfg in (c, ct))
    for cfg, relabelled in ((c, rc), (ct, rct)):
        inc, inc_r = contact_graph(cfg), contact_graph(relabelled)
        assert {frozenset(names[v] for v in e) for e in inc.edges} == inc_r.edges
        for e in inc.edges:
            assert abs(inc.theta[e] - inc_r.theta[frozenset(names[v] for v in e)]) <= 1e-12
    got = fixed_point_index(build_faithful_map(rc, rct))
    assert got.eta == report.eta
    assert sorted(got.per_curve) == sorted(report.per_curve)
    assert index_lower_bound(rc, rct) == bound


@EXAMPLES
@given(k=st.integers(0, N_PAIRS - 1), seed=st.integers(0, 2**32 - 1))
def test_moebius_image_keeps_contacts_and_bound(k, seed):
    c, ct, _report, bound = _corpus_pair(k)
    m = random_bounded_moebius(c, np.random.default_rng(seed))
    try:
        mc, mct = (cfg.transformed(lambda d: apply_disk(m, d)) for cfg in (c, ct))
    except UnboundedImage:
        assume(False)
    assert contact_graph(mc).edges == contact_graph(c).edges
    assert contact_graph(mct).edges == contact_graph(ct).edges
    assert index_lower_bound(mc, mct) == bound


def test_reversed_listing_reads_the_same_corners():
    # labels 0..11 listed in numeric order: (9, 10) and others are listed
    # against str order
    items = [(k, Disk(2 * np.exp(2j * math.pi * k / 12), 0.6)) for k in range(12)]
    c, rev = DiskConfiguration(items), DiskConfiguration(items[::-1])
    assert list(c.contacts()) == list(rev.contacts())
    assert [(x.pair, x.theta, x.corners) for x in c.contacts().values()] == [
        (x.pair, x.theta, x.corners) for x in rev.contacts().values()
    ]
    assert frozenset((9, 10)) in c.contacts() and c.contacts()[frozenset((9, 10))].pair == (10, 9)
    assert boundary_complex(c) == boundary_complex(rev)


def test_tolerance_override_rebuilds_the_table(monkeypatch):
    # the pair (a, b) overlaps by 1e-6: overlapping under EPS_GEOM = 1e-9,
    # tangent under 1e-5; the configuration is built once, before the override
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(complex(2.0 - 1e-6, 0.0), 1.0)), ("c", Disk(5j, 1.0))])
    ab = frozenset("ab")

    def reads_as_overlapping():
        inc, curves = contact_graph(c), boundary_complex(c)
        assert inc.edges == {ab}
        keys = {key for curve in curves for arc in curve for key in arc[3:] if key}
        kinds = sorted(kind for pair, kind in keys if pair == ("a", "b"))
        if inc.theta[ab] > 0:
            assert list(eyes(c)) == [("a", "b")] and kinds == ["u", "v"]
            return True
        assert inc.theta[ab] == 0.0 and eyes(c) == {} and kinds == ["t"]
        return False

    assert reads_as_overlapping()
    monkeypatch.setattr(geom, "EPS_GEOM", 1e-5)
    assert not reads_as_overlapping()
    monkeypatch.undo()
    assert geom.EPS_GEOM == 1e-9
    assert reads_as_overlapping()


def _table_bits(config):
    """Each entry of the contact table, in table order: its key, pair and
    relation, and the bits of its theta and corners."""
    return [
        (e, c.pair, c.relation, np.float64(c.theta).tobytes(), np.array(c.corners).tobytes())
        for e, c in config.contacts().items()
    ]


def _assert_restricted_as_fresh(config, subset):
    """config.restricted(subset) reads as a configuration built afresh from
    the same items: the same disks in the same order, and the same table."""
    sub = config.restricted(subset)
    fresh = DiskConfiguration([(k, d) for k, d in config.items() if k in subset])
    assert sub.items() == fresh.items()
    assert _table_bits(sub) == _table_bits(fresh)
    return sub


def test_restricted_table_matches_a_fresh_build(monkeypatch, rng):
    # a ring of overlaps, the tangency flower, and a ring of twelve whose
    # pair (9, 10) is listed against str order
    from conftest import ring_of_twelve, tangency_flower_pair

    ring = DiskConfiguration([(k, Disk(2 * np.exp(2j * math.pi * k / 6), 1.2)) for k in range(6)])
    configs = (ring, tangency_flower_pair()[0], ring_of_twelve(rng))
    for config in configs:
        subsets = [set(config.labels), set(), {config.labels[0]}, set(config.labels[:3])]
        subsets += [{v for v in config.labels if rng.random() < 0.5} for _ in range(12)]
        for subset in subsets:
            sub = _assert_restricted_as_fresh(config, subset)
            # the sub-configuration shares the parent's Contacts
            assert all(x is config.contacts()[e] for e, x in sub.contacts().items())
    assert configs[2].contacts()[frozenset((9, 10))].pair == (10, 9)
    # the pair (a, b) overlaps by 1e-6, and reads as tangent under
    # EPS_GEOM = 1e-5: a restricted table is rebuilt like any other
    c = DiskConfiguration([("a", Disk(0j, 1.0)), ("b", Disk(complex(2.0 - 1e-6, 0.0), 1.0)), ("c", Disk(5j, 1.0))])
    sub = _assert_restricted_as_fresh(c, {"a", "b"})
    assert sub.contacts()[frozenset("ab")].theta > 0
    monkeypatch.setattr(geom, "EPS_GEOM", 1e-5)
    assert sub.contacts()[frozenset("ab")].theta == 0.0
    _assert_restricted_as_fresh(sub, {"a", "b"})
    _assert_restricted_as_fresh(c, {"a", "b"})


def _classified(classify):
    """The (key, pair, relation, theta, corners) rows that classify returns,
    with theta and the corners as bits, or the message of the
    ContainmentViolation it raises."""
    try:
        rows = classify()
    except ContainmentViolation as exc:
        return str(exc)
    return [(e, pair, rel, np.float64(theta).tobytes(), _corner_bits(corners)) for e, pair, rel, theta, corners in rows]


def _corner_bits(corners):
    """corners() as bits, or the message of the NotTransverse that the
    corners of a near-tangent overlap raise."""
    try:
        return np.array(corners()).tobytes()
    except NotTransverse as exc:
        return str(exc)


def _table_rows(config):
    return [(e, c.pair, c.relation, c.theta, lambda c=c: c.corners) for e, c in config.contacts().items()]


def _reference_rows(items):
    """_reference_classify's rows, with the corners computed as Contact
    computed them before the prefilter."""
    disks = dict(items)
    rows = []
    for e, pair, rel, theta in _reference_classify(items):
        a, b = disks[pair[0]], disks[pair[1]]
        corners = functools.partial(circle_intersections, a, b) if rel is DiskRelation.OVERLAPPING else lambda a=a, b=b: (tangency_point(a, b),)
        rows.append((e, pair, rel, theta, corners))
    return rows


def _near_contact_items(rng, n, kind, delta, scale=1.0):
    """A chain of n overlapping disks, labelled 0..n-1, scaled by scale, and
    one more disk labelled n: a circle delta from external or internal
    tangency with a disk of the chain, a copy of one moved by delta, a disk
    inside one, or a random disk; listed in a shuffled order."""
    items = [(k, Disk(d.center * scale, d.radius * scale)) for k, d in random_chain_config(rng, n).items()]
    d = items[int(rng.integers(n))][1]
    turn = np.exp(1j * rng.uniform(0, 2 * math.pi))
    r = d.radius * rng.uniform(0.3, 0.8)
    new = {
        "external": lambda: Disk(d.center + (d.radius + r + delta) * turn, r),
        "internal": lambda: Disk(d.center + (d.radius - r + delta) * turn, r),
        "coincident": lambda: Disk(d.center + abs(delta) * turn, d.radius + delta),
        "contained": lambda: Disk(d.center + 0.1 * d.radius * turn, 0.5 * d.radius),
        "random": lambda: Disk(complex(*rng.normal(0, 3, 2)) * scale, float(rng.uniform(0.3, 1.2)) * scale),
    }[kind]()
    items.append((n, new))
    return [items[k] for k in rng.permutation(len(items))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 13),
    kind=st.sampled_from(["external", "internal", "coincident", "contained", "random"]),
    exponent=st.floats(-10, -6),
    sign=st.sampled_from([-1, 1]),
    scale=st.sampled_from([1.0, 1e7, 1e8]),
)
@example(seed=3, n=4, kind="external", exponent=-10.0, sign=1, scale=1e8)
def test_prefiltered_table_matches_every_pair(seed, n, kind, exponent, sign, scale):
    # differential oracle: the prefiltered table has the keys, order,
    # relations and theta and corner bits of disk_relation on every pair, and
    # raises at the same pair, under the default EPS_GEOM, under an override
    # as --eps-geom makes it, and again once the override is lifted; at radii
    # of 1e7 and more, numpy's distances may differ from Python's by more
    # than EPS_GEOM
    items = _near_contact_items(np.random.default_rng(seed), n, kind, sign * 10**exponent, scale)
    got = _classified(lambda: _table_rows(DiskConfiguration(items)))
    assert got == _classified(lambda: _reference_rows(items))
    if isinstance(got, str):
        return
    config = DiskConfiguration(items)
    saved = geom.EPS_GEOM
    try:
        for eps in (1e-7, 1e-5, saved):
            geom.EPS_GEOM = eps
            assert _classified(lambda: _table_rows(config)) == _classified(lambda: _reference_rows(items))
    finally:
        geom.EPS_GEOM = saved


def test_prefiltered_table_reaches_every_outcome(rng):
    # the differential test's configurations reach every relation the table
    # keeps and every containment it refuses
    seen = set()
    for kind in ("external", "internal", "coincident", "contained"):
        for exponent in (-10, -8.5, -6):
            for sign in (-1, 1):
                items = _near_contact_items(rng, 11, kind, sign * 10**exponent)
                got = _classified(lambda: _table_rows(DiskConfiguration(items)))
                assert got == _classified(lambda: _reference_rows(items))
                if isinstance(got, str):
                    seen.add(got.rpartition(": ")[2])
                    continue
                seen.update(rel.value for _e, _p, rel, _t, _c in got)
    assert seen == {"Overlapping", "ExternallyTangent", "InternallyTangent", "FirstContainsSecond", "SecondContainsFirst", "Equal"}
