"""The Chord renderer: the SVG drawing path that trilam ran before it drew
from the integer leaf store, kept as a test oracle.

It builds one Chord of two Fractions per leaf, tests antipodes with
Fraction arithmetic and evaluates cos/sin twice per endpoint.  The integer
renderer in `trilam.render` must give the same SVG, byte for byte.
"""

import math
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from trilam.chords import Chord
from trilam.circle import format_angle
from trilam.lamsets import LamSet, holes
from trilam.render import CIRCLE_STROKE, PALETTE, STROKE, RenderSpec


def _pt(theta: Fraction, cx: float, cy: float, r: float) -> Tuple[float, float]:
    a = 2 * math.pi * float(theta)
    # SVG y grows downward; negate sin so positive angles run counterclockwise
    return cx + r * math.cos(a), cy - r * math.sin(a)


def _fmt(v: float) -> str:
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _chord_path(c: Chord, cx: float, cy: float, r: float) -> str:
    x1, y1 = _pt(c.a, cx, cy, r)
    x2, y2 = _pt(c.b, cx, cy, r)
    if (c.b - c.a) % 1 == Fraction(1, 2):
        return f"M {_fmt(x1)} {_fmt(y1)} L {_fmt(x2)} {_fmt(y2)}"
    # unit-disk coordinates (y up) for the geodesic construction
    ux1, uy1 = math.cos(2 * math.pi * float(c.a)), math.sin(2 * math.pi * float(c.a))
    ux2, uy2 = math.cos(2 * math.pi * float(c.b)), math.sin(2 * math.pi * float(c.b))
    dot = ux1 * ux2 + uy1 * uy2
    ox, oy = (ux1 + ux2) / (1 + dot), (uy1 + uy2) / (1 + dot)
    rad = math.sqrt(ox * ox + oy * oy - 1)
    # the geodesic is the minor arc; sweep by orientation around the center
    cross = (ux1 - ox) * (uy2 - oy) - (uy1 - oy) * (ux2 - ox)
    sweep = 0 if cross > 0 else 1  # y-flip inverts handedness
    rr = rad * r
    return (f"M {_fmt(x1)} {_fmt(y1)} "
            f"A {_fmt(rr)} {_fmt(rr)} 0 0 {sweep} {_fmt(x2)} {_fmt(y2)}")


def _collect_chords(obj) -> Iterable[Chord]:
    """The chords to draw, in sorted order."""
    if isinstance(obj, Chord):
        return [obj]
    if isinstance(obj, LamSet):
        return sorted({e for e, _ in holes(obj)})
    if hasattr(obj, "leaves"):  # Lamination
        return sorted(obj.leaves)
    if hasattr(obj, "edge_chords"):  # any gap generator
        return sorted(set(obj.edge_chords(6)))
    if isinstance(obj, Iterable):
        return sorted(set(obj))
    raise TypeError(f"cannot render {type(obj).__name__}")


def render(obj, spec: Optional[RenderSpec] = None) -> str:
    """SVG document for a lamination, laminational set, gap generator,
    chord, or plain iterable of chords."""
    spec = spec or RenderSpec()
    w = h = spec.size
    cx, cy = w / 2.0, h / 2.0
    r = 0.45 * min(w, h)
    chords = _collect_chords(obj)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'  <rect width="{w}" height="{h}" fill="white"/>',
        f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
        f'fill="none" stroke="black" stroke-width="{CIRCLE_STROKE}"/>',
    ]
    labels = {}  # label points in first-seen order
    for i, c in enumerate(chords):
        if spec.label_angles:
            labels.update(dict.fromkeys((c.a, c.b)))
        if c.degenerate:
            continue
        out.append(
            f'  <path d="{_chord_path(c, cx, cy, r)}" fill="none" '
            f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="{STROKE}"/>'
        )
    for v in labels:
        x, y = _pt(v, cx, cy, r * 1.06)
        out.append(
            f'  <text x="{_fmt(x)}" y="{_fmt(y)}" font-size="10" '
            f'text-anchor="middle">{format_angle(v)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
