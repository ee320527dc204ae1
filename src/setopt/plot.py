"""Deterministic SVG scatter plots of planar instances.

Each decision gets a color; finite images are drawn as circles and
polytopes as closed outlines, minimal elements get a heavier stroke,
and solution-set members are marked with filled squares in the legend.
Output is byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import ValidationError
from .imagesets import min_elements, minimal_vertices
from .instance import Instance

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f")

WIDTH, HEIGHT, PAD = 640, 480, 48


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_svg(inst: Instance, members: Optional[set] = None) -> str:
    if inst.m != 2:
        raise ValidationError("SVG plotting supports two-dimensional images only")
    members = members or set()
    xs = [float(p[0]) for img in inst.images for p in img.points]
    ys = [float(p[1]) for img in inst.images for p in img.points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = (hi_x - lo_x) or 1.0
    span_y = (hi_y - lo_y) or 1.0

    def sx(v):
        return PAD + (v - lo_x) / span_x * (WIDTH - 2 * PAD)

    def sy(v):
        return HEIGHT - PAD - (v - lo_y) / span_y * (HEIGHT - 2 * PAD)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for idx, (dec, img) in enumerate(zip(inst.decisions, inst.images)):
        color = PALETTE[idx % len(PALETTE)]
        if img.is_finite:
            highlights = set(min_elements(img, inst.cone))
        else:
            highlights = set(minimal_vertices(img, inst.cone))
            cx = sum(float(p[0]) for p in img.points) / len(img.points)
            cy = sum(float(p[1]) for p in img.points) / len(img.points)
            ordered = sorted(img.points, key=lambda p: math.atan2(
                float(p[1]) - cy, float(p[0]) - cx))
            path = " ".join(f"{_fmt(sx(float(p[0])))},{_fmt(sy(float(p[1])))}"
                            for p in ordered)
            parts.append(f'<polygon points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for p in img.points:
            heavy = p in highlights
            parts.append(
                f'<circle cx="{_fmt(sx(float(p[0])))}" '
                f'cy="{_fmt(sy(float(p[1])))}" r="{5 if heavy else 3.5}" '
                f'fill="{color}" stroke="{"black" if heavy else color}" '
                f'stroke-width="{1.8 if heavy else 1}"/>')
        y_leg = 18 + 16 * idx
        marker = ('<rect x="10" y="{0}" width="10" height="10" fill="{1}"/>'
                  if dec.label in members else
                  '<rect x="10" y="{0}" width="10" height="10" fill="none" '
                  'stroke="{1}"/>').format(y_leg - 9, color)
        parts.append(marker)
        suffix = " (member)" if dec.label in members else ""
        parts.append(f'<text x="26" y="{y_leg}" font-size="12" '
                     f'font-family="monospace">x={dec.label}{suffix}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_csv(inst: Instance, members: Optional[set] = None) -> str:
    """Coordinate dump used when the image dimension is not two."""
    members = members or set()
    lines = ["label,member,kind,point_index," +
             ",".join(f"y{d}" for d in range(inst.m))]
    for dec, img in zip(inst.decisions, inst.images):
        for i, p in enumerate(img.points):
            coords = ",".join(repr(float(v)) for v in p)
            lines.append(f"{dec.label},{int(dec.label in members)},"
                         f"{img.kind},{i},{coords}")
    return "\n".join(lines) + "\n"
