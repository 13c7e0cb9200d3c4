"""Deterministic SVG rendering: configurations with optional eye/H/label
overlays, and torus diagrams for a boundary pair."""
from __future__ import annotations

import math

from .config import DiskConfiguration, eyes
from .subsumption import subsumptive_subsets

W = 800.0
MARGIN = 0.08

STYLE_SOLID = 'fill="none" stroke="black" stroke-width="1.5"'
STYLE_DASHED = 'fill="none" stroke="black" stroke-width="1.2" stroke-dasharray="6,4"'
STYLE_ARROW = 'stroke="black" stroke-width="2.2"'


def _fmt(x: float) -> str:
    return format(float(x), ".6f")


class _Canvas:
    def __init__(self, configs):
        xs, ys = [], []
        for cfg in configs:
            for _k, d in cfg.items():
                xs.extend([d.center.real - d.radius, d.center.real + d.radius])
                ys.extend([d.center.imag - d.radius, d.center.imag + d.radius])
        lo_x, hi_x = min(xs), max(xs)
        lo_y, hi_y = min(ys), max(ys)
        span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
        pad = span * MARGIN
        self.scale = W / (span + 2 * pad)
        self.x0 = lo_x - pad
        self.y1 = hi_y + pad

    def pt(self, z: complex):
        return (z.real - self.x0) * self.scale, (self.y1 - z.imag) * self.scale

    def r(self, radius: float) -> float:
        return radius * self.scale


def render_svg(config: DiskConfiguration, *, second=None, overlays=()) -> str:
    configs = [config] + ([second] if second is not None else [])
    cv = _Canvas(configs)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(W)}" height="{int(W)}" '
        f'viewBox="0 0 {int(W)} {int(W)}">'
    ]
    for cfg, style in zip(configs, (STYLE_SOLID, STYLE_DASHED)):
        for k, d in cfg.items():
            x, y = cv.pt(d.center)
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(cv.r(d.radius))}" {style}/>')
    if "eyes" in overlays:
        for eye in eyes(config).values():
            for z in eye.corners:
                x, y = cv.pt(z)
                out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" fill="black"/>')
    if "H" in overlays and second is not None:
        report = subsumptive_subsets(config, second)
        for info in report.subsets:
            for i, j in info.h_edges:
                out.append(_arrow(cv, config.disks[i].center, config.disks[j].center))
    if "labels" in overlays:
        for k, d in config.items():
            x, y = cv.pt(d.center)
            out.append(
                f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="14" text-anchor="middle">{k}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _arrow(cv, za: complex, zb: complex) -> str:
    xa, ya = cv.pt(za)
    xb, yb = cv.pt(zb)
    dx, dy = xb - xa, yb - ya
    ln = math.hypot(dx, dy) or 1.0
    ux, uy = dx / ln, dy / ln
    hx, hy = xb - 10 * ux, yb - 10 * uy
    left = (hx - 4 * uy, hy + 4 * ux)
    right = (hx + 4 * uy, hy - 4 * ux)
    return (
        f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}" y2="{_fmt(yb)}" {STYLE_ARROW}/>'
        f'<polygon points="{_fmt(xb)},{_fmt(yb)} {_fmt(left[0])},{_fmt(left[1])} '
        f'{_fmt(right[0])},{_fmt(right[1])}" fill="black"/>'
    )


def render_torus_svg(param, gmap=None) -> str:
    """Unit-square torus diagram: filled dots for crossings where the first
    boundary enters the second, open dots for the reverse, and the optional
    monotone path."""
    size = 400.0
    pad = 30.0

    def pt(x, y):
        return pad + x * size, pad + (1 - y) * size

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size + 2 * pad)}" '
        f'height="{int(size + 2 * pad)}" viewBox="0 0 {int(size + 2 * pad)} {int(size + 2 * pad)}">',
        f'<rect x="{_fmt(pad)}" y="{_fmt(pad)}" width="{_fmt(size)}" height="{_fmt(size)}" '
        'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    base_s = gmap.base_s if gmap is not None else 0.0
    base_st = gmap.base_st if gmap is not None else 0.0
    for c in sorted(param.crossings, key=lambda c: (c.s, c.s_t)):
        x, y = pt((c.s - base_s) % 1.0, (c.s_t - base_st) % 1.0)
        if c.kind == "p":
            out.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="black"/>')
        else:
            out.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="white" stroke="black" stroke-width="1.5"/>'
            )
    if gmap is not None:
        pts = " ".join(f"{_fmt(pt(x, y)[0])},{_fmt(pt(x, y)[1])}" for x, y in zip(gmap.xs, gmap.ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.2"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
