"""Span tracer for the per-layer metrics.

The tracer wraps public functions of diskrig's modules from outside.  A
wrapped function records a span (name, start, end, the span that caused it)
or only counts its calls.  Modules import each other's functions with
``from .boundary import loop_index`` and the like, so a wrapper replaces every
binding of the function in every diskrig module, not only the defining one.
Methods are wrapped on their class.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import json
import sys
import time

# functions traced with a span: their self time is reported
TIMED = {
    "boundary": (
        "fixed_point_index", "loop_index", "boundary_complex", "build_faithful_map",
        "FaithfulMap.loops", "FaithfulMap.subset_loops", "FaithfulMap.disk_loop", "FaithfulMap.eye_loop",
    ),
    "experiments": ("obs_a_identity", "main_b_identity"),
    "subsumption": ("index_lower_bound", "subsumptive_subsets"),
    "torus": (
        "GraphMap.loop", "index_via_torus", "build_parametrization", "random_monotone_graph",
        "verify_local_windings", "find_zero_index_eye_map", "check_eye_pair_hypotheses",
    ),
    "solver": ("solve_radii", "layout"),
    "config": ("is_thin", "is_general_position", "contact_graph"),
    "docio": ("read_document", "write_document"),
    "cli": ("main",),
}

# functions too small or too frequent for a span: only their calls are counted
COUNTED = {
    "geom": ("disk_relation", "circle_intersections"),
    "solver": ("angle_sum", "face_angle"),
    "torus": ("graph_eta",),
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("boundary.fixed_point_index.calls", "count", "lower"),
    ("boundary.fixed_point_index.self_ms", "ms", "lower"),
    ("boundary.fixed_point_index.calls_per_map", "calls/map", "lower"),
    ("boundary.FaithfulMap.loops.self_ms", "ms", "lower"),
    ("boundary.FaithfulMap.subset_loops.self_ms", "ms", "lower"),
    ("boundary.FaithfulMap.disk_loop.self_ms", "ms", "lower"),
    ("boundary.FaithfulMap.eye_loop.self_ms", "ms", "lower"),
    ("boundary.loop_index.self_ms", "ms", "lower"),
    ("boundary.loop_index.calls", "count", "lower"),
    ("boundary.loop_index.samples", "count", "lower"),
    ("boundary.loop_index.near_fixed_point", "count", "lower"),
    ("boundary.boundary_complex.self_ms", "ms", "lower"),
    ("boundary.build_faithful_map.self_ms", "ms", "lower"),
    ("experiments.obs_a_identity.self_ms", "ms", "lower"),
    ("experiments.main_b_identity.self_ms", "ms", "lower"),
    ("subsumption.index_lower_bound.self_ms", "ms", "lower"),
    ("subsumption.subsumptive_subsets.self_ms", "ms", "lower"),
    ("torus.GraphMap.loop.self_ms", "ms", "lower"),
    ("torus.GraphMap.loop.samples", "count", "lower"),
    ("torus.index_via_torus.self_ms", "ms", "lower"),
    ("torus.build_parametrization.self_ms", "ms", "lower"),
    ("torus.random_monotone_graph.self_ms", "ms", "lower"),
    ("torus.verify_local_windings.self_ms", "ms", "lower"),
    ("torus.find_zero_index_eye_map.self_ms", "ms", "lower"),
    ("torus.check_eye_pair_hypotheses.self_ms", "ms", "lower"),
    ("torus.graph_eta.calls", "count", "lower"),
    ("solver.solve_radii.self_ms", "ms", "lower"),
    ("solver.angle_sum.calls", "count", "lower"),
    ("solver.face_angle.calls", "count", "lower"),
    ("solver.layout.self_ms", "ms", "lower"),
    ("config.is_thin.self_ms", "ms", "lower"),
    ("config.is_general_position.self_ms", "ms", "lower"),
    ("config.contact_graph.self_ms", "ms", "lower"),
    ("geom.disk_relation.calls", "count", "lower"),
    ("geom.circle_intersections.calls", "count", "lower"),
    ("docio.read_document.self_ms", "ms", "lower"),
    ("docio.write_document.self_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

ITEM = "bench.item"


class Tracer:
    """Install with ``install()``, bracket each item with ``begin_item()`` /
    ``end_item()``, remove with ``uninstall()``."""

    def __init__(self):
        self.names = []  # span name table
        self._name_ids = {}
        # one entry per span, in the order spans open
        self.span_name, self.span_start, self.span_end, self.span_parent = [], [], [], []
        self._stack = [-1]
        self.calls = {}  # qualified name -> [count]
        self.samples = {"boundary.loop_index": 0, "torus.GraphMap.loop": 0}
        self.near_fixed_point = 0
        self.distinct_maps = 0
        self._item_maps = {}
        self.items = 0
        self._undo = []
        self._observe = {
            "boundary.loop_index": self._loop_index,
            "torus.GraphMap.loop": self._graph_loop,
            "boundary.fixed_point_index": self._fixed_point_index,
        }

    # -- spans --------------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_item(self, index):
        self._item_span = self._open(self._name_id(f"{ITEM}.{index}"))

    def end_item(self):
        self._close(self._item_span)
        self.items += 1
        self.distinct_maps += len(self._item_maps)
        self._item_maps.clear()

    # -- wrappers -----------------------------------------------------------------

    def _span_wrapper(self, qual, fn):
        name_id = self._name_id(qual)
        calls = self.calls.setdefault(qual, [0])
        observe = self._observe.get(qual)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            calls[0] += 1
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                close(idx)
                if observe:
                    observe(args, None, exc)
                raise
            close(idx)
            if observe:
                observe(args, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, qual, fn):
        calls = self.calls.setdefault(qual, [0])

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- what some spans record beyond time and calls ------------------------------

    def _loop_index(self, args, result, exc):
        self.samples["boundary.loop_index"] += len(args[0].src)
        if exc is not None and type(exc).__name__ == "NearFixedPoint":
            self.near_fixed_point += 1

    def _graph_loop(self, args, result, exc):
        if result is not None:
            self.samples["torus.GraphMap.loop"] += len(result.src)

    def _fixed_point_index(self, args, result, exc):
        # holding the map keeps its id from being reused within the item
        self._item_maps[id(args[0])] = args[0]

    def install(self):
        """Wrap every traced function in every diskrig module that binds it."""
        modules = [m for name, m in sys.modules.items() if name == "diskrig" or name.startswith("diskrig.")]
        for table, make in ((TIMED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for mod_name, attrs in table.items():
                module = sys.modules["diskrig." + mod_name]
                for attr in attrs:
                    qual = f"{mod_name}.{attr}"
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        orig = cls.__dict__[meth]
                        setattr(cls, meth, make(qual, orig))
                        self._undo.append((cls, meth, orig))
                        continue
                    orig = getattr(module, attr)
                    wrapper = make(qual, orig)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is orig:
                                setattr(m, key, wrapper)
                                self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results ------------------------------------------------------------------

    def self_ns(self):
        """{span name: total self time in ns}; item spans are left out."""
        child = [0] * len(self.span_start)
        for idx, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[idx] - self.span_start[idx]
        totals = {}
        for idx, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            if name.startswith(ITEM):
                continue
            dur = self.span_end[idx] - self.span_start[idx]
            totals[name] = totals.get(name, 0) + dur - child[idx]
        return totals

    def metrics(self, overhead_ms):
        """Every per-layer metric, per item."""
        n = max(self.items, 1)
        self_ns = self.self_ns()
        values = {}
        for name, _unit, _better in PER_LAYER:
            qual, _, kind = name.rpartition(".")
            if kind == "self_ms":
                values[name] = self_ns.get(qual, 0) / 1e6 / n
            elif kind == "calls":
                values[name] = self.calls.get(qual, [0])[0] / n
            elif kind == "samples":
                values[name] = self.samples[qual] / n
        fpi_calls = self.calls.get("boundary.fixed_point_index", [0])[0]
        values["boundary.fixed_point_index.calls_per_map"] = fpi_calls / self.distinct_maps if self.distinct_maps else 0.0
        values["boundary.loop_index.near_fixed_point"] = self.near_fixed_point / n
        values["trace.overhead_ms"] = overhead_ms
        return values

    def write(self, path):
        spans = [
            [self.span_name[k], self.span_start[k], self.span_end[k], self.span_parent[k]]
            for k in range(len(self.span_start))
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans}, fh)
