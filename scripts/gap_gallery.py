#!/usr/bin/env python3
"""Render a gallery of canonical laminations to SVG.

Builds the standard suite (both diameter gaps, a regular-critical gap, a
period-3 gap with its vassal cycle, and the three finite-gap rotational
examples) and writes one picture per lamination.
"""

import argparse
import os
from fractions import Fraction as F

from trilam.chords import Chord
from trilam.lamination import (
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
)
from trilam.lamsets import parse_lamset
from trilam.quadgap import build_gap
from trilam.render import RenderSpec, render

GALLERY = [
    ("diameter", lambda depth: canonical_diameter(depth)),
    ("regular_critical", lambda depth: canonical_of_quadratic_gap(
        build_gap(Chord(F(1, 3), F(2, 3)), depth=0)[0], depth)),
    ("period3_gap", lambda depth: canonical_of_quadratic_gap(
        build_gap(Chord(F(145, 156), F(41, 156)), depth=0)[0], depth)),
    ("fingap1", lambda depth: canonical_of_rotational(
        parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13"), depth)),
    ("fingap2", lambda depth: canonical_of_rotational(
        parse_lamset("7/26,11/26,21/26"), depth)),
    ("fingap3", lambda depth: canonical_of_rotational(
        parse_lamset("1/26,3/26,9/26"), depth)),
    ("rabbit_d2", lambda depth: canonical_of_rotational(
        parse_lamset("1/7,2/7,4/7", 2), depth)),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="gallery")
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--size", type=int, default=700)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    spec = RenderSpec(size=args.size)
    for name, make in GALLERY:
        L = make(args.depth)
        path = os.path.join(args.out_dir, f"{name}.svg")
        with open(path, "w") as fh:
            fh.write(render(L, spec))
        print(f"{name}: {len(L.leaves)} leaves -> {path}")


if __name__ == "__main__":
    main()
