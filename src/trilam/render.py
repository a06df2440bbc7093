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


def _unit(x: int, N: int) -> Tuple[float, float]:
    """cos and sin of x/N turns; x / N rounds correctly, so it is float(Fraction(x, N))."""
    t = 2 * math.pi * (x / N)
    return math.cos(t), math.sin(t)


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _collect_pairs(obj) -> Tuple[int, Iterator[Tuple[int, int]]]:
    """The chords to draw as (N, sorted numerator pairs a <= b over N): Chord order."""
    if isinstance(obj, Chord):
        obj = [obj]
    elif isinstance(obj, LamSet):
        obj = [e for e, _ in holes(obj)]
    elif hasattr(obj, "leaves"):  # Lamination: its integer store
        return obj.leaves.N, obj.leaves.pairs(sort=True)
    elif hasattr(obj, "edge_chords"):  # any gap generator
        obj = obj.edge_chords(6)
    elif not isinstance(obj, Iterable):
        raise TypeError(f"cannot render {type(obj).__name__}")
    store = Leaves.from_chords(dict.fromkeys(obj, 0))
    return store.N, store.pairs(sort=True)


def render(obj, spec: Optional[RenderSpec] = None) -> str:
    """SVG document for a lamination, laminational set, gap generator,
    chord, or plain iterable of chords."""
    spec = spec or RenderSpec()
    s = spec.size
    cx = cy = s / 2.0
    r = 0.45 * s
    N, pairs = _collect_pairs(obj)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{s}" height="{s}" '
        f'viewBox="0 0 {s} {s}">',
        f'  <rect width="{s}" height="{s}" fill="white"/>',
        f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
        f'fill="none" stroke="black" stroke-width="{CIRCLE_STROKE}"/>',
    ]
    labels = {}  # label numerators in first-seen order
    for i, (a, b) in enumerate(pairs):
        if spec.label_angles:
            labels.update(dict.fromkeys((a, b)))
        if a == b:
            continue
        # unit-disk coordinates (y up); SVG y grows down, so negate sin (counterclockwise)
        ux1, uy1 = _unit(a, N)
        ux2, uy2 = _unit(b, N)
        p1 = f"{_fmt(cx + r * ux1)} {_fmt(cy - r * uy1)}"
        p2 = f"{_fmt(cx + r * ux2)} {_fmt(cy - r * uy2)}"
        dot = ux1 * ux2 + uy1 * uy2
        if 2 * (b - a) == N or dot == -1:  # antipodal, or too close in floats: a diameter
            path = f"M {p1} L {p2}"
        else:
            ox, oy = (ux1 + ux2) / (1 + dot), (uy1 + uy2) / (1 + dot)
            # the geodesic is the minor arc; sweep by orientation around the center
            cross = (ux1 - ox) * (uy2 - oy) - (uy1 - oy) * (ux2 - ox)
            sweep = 0 if cross > 0 else 1  # y-flip inverts handedness
            # the radicand rounds below 0 only on chords far thinner than a pixel
            rr = _fmt(math.sqrt(max(0.0, ox * ox + oy * oy - 1)) * r)
            path = f"M {p1} A {rr} {rr} 0 0 {sweep} {p2}"
        out.append(f'  <path d="{path}" fill="none" stroke="{PALETTE[i % len(PALETTE)]}" '
                   f'stroke-width="{STROKE}"/>')
    for x in labels:
        ux, uy = _unit(x, N)
        out.append(f'  <text x="{_fmt(cx + r * 1.06 * ux)}" y="{_fmt(cy - r * 1.06 * uy)}" '
                   f'font-size="10" text-anchor="middle">{format_angle(Fraction(x, N))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
