"""Deterministic SVG rendering of laminations and gaps.

Chords are drawn as geodesics of the Poincaré disk: circular arcs meeting
the unit circle at right angles, falling back to a straight segment for
antipodal endpoints.  Every input is drawn from integer endpoint pairs over
one denominator N (a lamination's leaf store as it stands); floats enter
only at the drawing step, as the angle x/N.  This is the one module allowed
floating point — the pictures carry no mathematical contract — but output
is still byte-stable: fixed 6-decimal formatting and sorted drawing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple

from .chords import Chord
from .circle import format_angle
from .lamination import Leaves
from .lamsets import LamSet, holes

PALETTE = ("#1f3a63", "#b03a2e", "#1e8449", "#7d3c98", "#b7950b")
STROKE = 1.2
CIRCLE_STROKE = 1.5


@dataclass
class RenderSpec:
    size: int = 600  # width and height of the square picture
    label_angles: bool = False


def _collect_pairs(obj) -> Tuple[int, Iterator[Tuple[int, int]]]:
    """The chords to draw as (N, sorted numerator pairs a <= b over N): Chord order."""
    if isinstance(obj, Chord):
        obj = [obj]
    elif isinstance(obj, LamSet):
        obj = [e for e, _ in holes(obj)]
    elif hasattr(obj, "leaves"):  # Lamination: its integer store
        return obj.leaves.N, obj.leaves.pairs()
    elif hasattr(obj, "edge_chords"):  # any gap generator
        obj = obj.edge_chords(6)
    elif not isinstance(obj, Iterable):
        raise TypeError(f"cannot render {type(obj).__name__}")
    store = Leaves.from_chords(dict.fromkeys(obj, 0))
    return store.N, store.pairs()


def render(obj, spec: Optional[RenderSpec] = None) -> str:
    """SVG document, of a positive size, for a lamination, laminational set,
    gap generator, chord, or plain iterable of chords.  An endpoint's point is
    made on its first leaf and held to its next; coordinates >= 0.023 * size
    and radii >= 0 print no "-0.000000"."""
    spec = spec or RenderSpec()
    s = spec.size
    if s <= 0:
        raise ValueError(f"size must be > 0, got {s}")
    cx = cy = s / 2.0
    r = 0.45 * s
    N, pairs = _collect_pairs(obj)

    def point(x: int) -> Tuple[float, float, str]:
        """cos and sin of x/N turns, and the point there (SVG y grows down)."""
        t = 2 * math.pi * (x / N)
        ux, uy = math.cos(t), math.sin(t)
        return ux, uy, f"{cx + r * ux:.6f} {cy - r * uy:.6f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'  <rect width="{s}" height="{s}" fill="white"/>',
        f'  <circle cx="{cx:.6f}" cy="{cy:.6f}" r="{r:.6f}" '
        f'fill="none" stroke="black" stroke-width="{CIRCLE_STROKE}"/>',
    ]
    tails = [f'" fill="none" stroke="{c}" stroke-width="{STROKE}"/>' for c in PALETTE]
    labels = {}  # label numerators in first-seen order
    held, start, lines = {}, None, []  # held: endpoints seen once, to their next use
    for i, (a, b) in enumerate(pairs):
        if len(lines) == 4096:  # joined a block at a time, to free the line objects
            out.append("\n".join(lines))
            lines.clear()
        if spec.label_angles:
            labels.update(dict.fromkeys((a, b)))
        if a != start:
            start = a
            ux1, uy1, p1 = held.pop(a, None) or point(a)
        if a == b:
            continue
        end = held.pop(b, None)
        if end is None:
            held = held if len(held) < 1024 else {}  # at most 1024
            end = held[b] = point(b)
        ux2, uy2, p2 = end
        dot = ux1 * ux2 + uy1 * uy2
        if 2 * (b - a) == N or dot == -1:  # antipodal, or too close in floats: a diameter
            lines.append(f'  <path d="M {p1} L {p2}{tails[i % len(tails)]}')
            continue
        ox, oy = (ux1 + ux2) / (1 + dot), (uy1 + uy2) / (1 + dot)
        # the geodesic is the minor arc; sweep by orientation around the center
        cross = (ux1 - ox) * (uy2 - oy) - (uy1 - oy) * (ux2 - ox)
        sweep = 0 if cross > 0 else 1  # y-flip inverts handedness
        # the radicand rounds below 0 only on chords far thinner than a pixel
        rad = ox * ox + oy * oy - 1
        rr = f"{math.sqrt(rad) * r if rad > 0 else 0.0:.6f}"
        lines.append(f'  <path d="M {p1} A {rr} {rr} 0 0 {sweep} {p2}{tails[i % len(tails)]}')
    out += lines
    for x in labels:
        ux, uy, _ = point(x)
        out.append(f'  <text x="{cx + r * 1.06 * ux:.6f}" y="{cy - r * 1.06 * uy:.6f}" '
                   f'font-size="10" text-anchor="middle">{format_angle(Fraction(x, N))}</text>')
    out.append("</svg>\n")
    return "\n".join(out)
