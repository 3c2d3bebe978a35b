"""SVG snapshots of triangulations.

Coordinates stay exact until the final formatting step; output is
deterministic (sorted elements, fixed float precision).
"""

from __future__ import annotations

from typing import Mapping

from braidshear.geometry import EdgeComplex, Point

SIZE = 480  # width in pixels
MARGIN = 40.0  # pixels kept clear on each side


def triangulation_svg(
    points: Mapping[int, Point], complex_: EdgeComplex, *, edge_labels: bool = True
) -> str:
    pts = {i: (float(p.x), float(p.y)) for i, p in points.items()}
    xs = [x for x, _ in pts.values()]
    ys = [y for _, y in pts.values()]
    span_x = max(xs) - min(xs) or 1.0
    span_y = max(ys) - min(ys) or 1.0
    scale = (SIZE - 2 * MARGIN) / max(span_x, span_y)
    height = span_y * scale + 2 * MARGIN

    def place(i):
        x, y = pts[i]
        return (
            MARGIN + (x - min(xs)) * scale,
            height - MARGIN - (y - min(ys)) * scale,
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{height:.1f}" viewBox="0 0 {SIZE} {height:.1f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for a, b in sorted(complex_.edges()):
        xa, ya = place(a)
        xb, yb = place(b)
        lines.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
            'stroke="black" stroke-width="1.5"/>'
        )
        if edge_labels:
            mx, my = (xa + xb) / 2, (ya + yb) / 2
            lines.append(
                f'<text x="{mx:.2f}" y="{my - 4:.2f}" font-size="11" '
                f'fill="darkblue" text-anchor="middle">{a}-{b}</text>'
            )
    for i in sorted(pts):
        x, y = place(i)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="crimson"/>')
        lines.append(
            f'<text x="{x + 7:.2f}" y="{y - 7:.2f}" font-size="13" fill="black">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
