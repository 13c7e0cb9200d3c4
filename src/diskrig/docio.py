"""JSON configuration documents: schema validation and canonical (byte-stable)
serialization with 17 significant digits."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .config import DiskConfiguration
from .errors import IOFailure, ParseError, SchemaError
from .geom import Disk

SCHEMA_VERSION = 1


@dataclass
class ConfigDocument:
    disks: list = field(default_factory=list)  # (id, cx, cy, r)
    edges: list = field(default_factory=list)  # (id1, id2, theta)
    faces: list = field(default_factory=list)  # (id1, id2, id3)
    boundary_radii: dict = field(default_factory=dict)

    def to_configuration(self) -> DiskConfiguration:
        if not self.disks:
            raise SchemaError("document has no disks")
        return DiskConfiguration([(i, Disk(complex(cx, cy), r)) for i, cx, cy, r in self.disks])

    @classmethod
    def from_configuration(cls, config: DiskConfiguration, incidence=None) -> "ConfigDocument":
        doc = cls(disks=[(k, d.center.real, d.center.imag, d.radius) for k, d in config.items()])
        if incidence is not None:
            doc.edges = sorted(
                (tuple(sorted(e, key=str)) + (incidence.theta[e],) for e in incidence.edges),
                key=lambda t: (str(t[0]), str(t[1])),
            )
        return doc


def read_document(path) -> ConfigDocument:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return document_from_obj(raw)


def _section(obj, key, kind):
    """obj[key], which must be a JSON object (kind dict) or list (kind list);
    empty when absent or null."""
    value = obj.get(key) or kind()
    if not isinstance(value, kind):
        raise SchemaError(f"{key} must be {'an object' if kind is dict else 'a list'}")
    return value


def _triple(entry, what) -> tuple:
    """The entry, a list of three hashable items, as a tuple."""
    if not isinstance(entry, list) or len(entry) != 3:
        raise SchemaError(f"bad {what} {entry}")
    try:
        hash(tuple(entry))
    except TypeError as exc:
        raise SchemaError(f"bad {what} {entry}") from exc
    return tuple(entry)


def document_from_obj(raw) -> ConfigDocument:
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {raw.get('schema_version')}")
    doc = ConfigDocument()
    seen = set()
    for entry in _section(raw, "disks", list):
        try:
            i, cx, cy, r = entry["id"], float(entry["cx"]), float(entry["cy"]), float(entry["r"])
            hash(i)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"bad disk entry {entry}") from exc
        if i in seen:
            raise SchemaError(f"duplicate disk id {i}")
        if not (r > 0) or not all(map(math.isfinite, (cx, cy, r))):
            raise SchemaError(f"disk {i} needs finite center and positive radius")
        seen.add(i)
        doc.disks.append((i, cx, cy, r))
    inc, tri = _section(raw, "incidence", dict), _section(raw, "triangulation", dict)
    for entry in _section(inc, "edges", list):
        i, j, theta = _triple(entry, "edge entry")
        try:
            theta = float(theta)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad edge entry {entry}") from exc
        if not (0 <= theta < math.pi):
            raise SchemaError(f"theta out of range on edge ({i},{j})")
        doc.edges.append((i, j, theta))
    for f in _section(tri, "faces", list):
        doc.faces.append(_triple(f, "face"))
    try:
        doc.boundary_radii = {k: float(v) for k, v in _section(tri, "boundary_radii", dict).items()}
    except (TypeError, ValueError) as exc:
        raise SchemaError("boundary_radii values must be numbers") from exc
    return doc


def _num(x: float) -> str:
    s = format(float(x), ".17g")
    return s


def _jstr(x) -> str:
    return json.dumps(x)


def canonical_text(doc: ConfigDocument) -> str:
    """Deterministic serialization: fixed key order, disks sorted by id,
    numbers with 17 significant digits."""
    lines = ["{", f'  "schema_version": {SCHEMA_VERSION},']
    disk_lines = []
    for i, cx, cy, r in sorted(doc.disks, key=lambda t: str(t[0])):
        disk_lines.append(
            f'    {{"id": {_jstr(i)}, "cx": {_num(cx)}, "cy": {_num(cy)}, "r": {_num(r)}}}'
        )
    lines.append('  "disks": [')
    lines.append(",\n".join(disk_lines))
    lines.append("  ]" + ("," if doc.edges or doc.faces or doc.boundary_radii else ""))
    if doc.edges:
        edge_lines = [
            f"    [{_jstr(i)}, {_jstr(j)}, {_num(t)}]"
            for i, j, t in sorted(doc.edges, key=lambda t: (str(t[0]), str(t[1])))
        ]
        lines.append('  "incidence": {"edges": [')
        lines.append(",\n".join(edge_lines))
        lines.append("  ]}" + ("," if doc.faces or doc.boundary_radii else ""))
    if doc.faces or doc.boundary_radii:
        lines.append('  "triangulation": {')
        inner = []
        if doc.faces:
            face_lines = ", ".join(
                "[" + ", ".join(_jstr(v) for v in f) + "]" for f in doc.faces
            )
            inner.append(f'    "faces": [{face_lines}]')
        if doc.boundary_radii:
            rad = ", ".join(
                f"{_jstr(str(k))}: {_num(v)}" for k, v in sorted(doc.boundary_radii.items(), key=lambda kv: str(kv[0]))
            )
            inner.append(f'    "boundary_radii": {{{rad}}}')
        lines.append(",\n".join(inner))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_document(doc: ConfigDocument, path):
    text = canonical_text(doc)
    # canonical text must round-trip through the parser
    document_from_obj(json.loads(text))
    write_text(path, text)


def write_text(path, text):
    """Write the text to the path, raising IOFailure when it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc
