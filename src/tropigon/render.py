"""Standalone SVG figures for polygon orbits.

Coordinates are the only place decimals appear: a plane point (x, y) is drawn
at (x, y*sqrt(d)) with sqrt(d) taken to 30 significant digits, display-only.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from functools import cache

from .polygeom import EMPTY, ZERO, SymPolygon


@cache
def _sqrt_d(d: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 30
        return Decimal(d).sqrt()


def _display(p: SymPolygon) -> list[tuple[Decimal, Decimal]]:
    # the hull vertices (x/scale, y/scale) drawn at (x/scale, y/scale*sqrt(d));
    # division is correctly rounded, so an unreduced x/scale gives the same digits
    s, r = p.scale, _sqrt_d(p.field.d)
    with localcontext() as ctx:
        ctx.prec = 30
        return [(Decimal(x) / s, Decimal(y) / s * r) for x, y in p.hull]


def _fmt(v: Decimal) -> str:
    s = format(v, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s or "0"


def _path(points) -> str:
    parts = [f"{'M' if i == 0 else 'L'} {_fmt(x)} {_fmt(y)}" for i, (x, y) in enumerate(points)]
    return " ".join(parts) + " Z"


def render_polygon_svg(p: SymPolygon, overlays=()) -> str:
    """The orbit as a closed path; overlays (e.g. decomposition terms) dashed."""
    shapes: list[tuple[str, list[tuple[Decimal, Decimal]]]] = []
    if p.tag not in (EMPTY, ZERO):
        shapes.append(("main", _display(p)))
    for q in overlays:
        if q.tag not in (EMPTY, ZERO):
            shapes.append(("overlay", _display(q)))

    radius = Decimal(1)
    for _, pts in shapes:
        for x, y in pts:
            radius = max(radius, abs(x), abs(y))
    radius = radius * Decimal("1.15")
    r, side = _fmt(radius), _fmt(2 * radius)
    tick = _fmt(radius / 50)

    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="-{r} -{r} {side} {side}" width="480" height="480">',
        '<g transform="scale(1,-1)" stroke-linejoin="round">',
        f'<line x1="-{r}" y1="0" x2="{r}" y2="0" stroke="#bbbbbb" stroke-width="{tick}"/>',
        f'<line x1="0" y1="-{r}" x2="0" y2="{r}" stroke="#bbbbbb" stroke-width="{tick}"/>',
    ]
    sw = _fmt(radius / 40)
    if p.tag == EMPTY:
        lines.append("<!-- empty set: nothing to draw -->")
    elif p.tag == ZERO:
        lines.append(f'<circle cx="0" cy="0" r="{_fmt(radius / 25)}" fill="#1f5fa8"/>')
    dash = _fmt(radius / 12)
    for kind, pts in shapes:
        if kind == "main":
            lines.append(
                f'<path d="{_path(pts)}" fill="#1f5fa8" fill-opacity="0.25" '
                f'stroke="#1f5fa8" stroke-width="{sw}"/>'
            )
        else:
            lines.append(
                f'<path d="{_path(pts)}" fill="none" stroke="#c2503c" '
                f'stroke-width="{sw}" stroke-dasharray="{dash}"/>'
            )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
