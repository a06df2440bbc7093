"""The region closure: the pullback that trilam ran before it had critical
portraits, kept as a test oracle.

Each registered gap's boundary is enumerated `REGION_MARGIN` levels past
the pullback depth, and a sibling candidate is valid when it crosses no
region: some boundary point strictly on each side.  This oracle raises
PullbackAmbiguityError at some shallow depths (the boundary is not deep
enough there), but wherever it succeeds, the portrait closure must give the
same leaves, levels and insertion order.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Dict, List, Tuple

from trilam.chords import Chord, format_chord
from trilam.circle import arc_length
from trilam.lamination import (
    AttachedGap,
    FiniteRegion,
    ImageGap,
    Leaves,
    PullbackAmbiguityError,
)
from trilam.lamsets import LamSet, holes

from lamsets_oracle import _displacement

REGION_MARGIN = 2  # extra enumeration depth for crossing tests


def _merge_intervals(ivs):
    out = []
    for lo, hi in sorted(ivs):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _intersect_intervals(xs, ys):
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        lo = max(xs[i][0], ys[j][0])
        hi = min(xs[i][1], ys[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return out


@lru_cache(maxsize=None)
def tracked(G: LamSet, rounds: int) -> List[List[Tuple[Fraction, Fraction]]]:
    """Per edge index: the surviving closed sub-intervals of the hole (in
    local coordinates from the hole's start vertex) after `rounds` steps of
    hole tracking.  Every interval endpoint is a basis point of the
    attached gap (a finite preimage of a vertex of G)."""
    d = G.degree_d
    vs = G.vertices
    n = len(vs)
    p = _displacement(G)
    hl = [arc_length(h) for _, h in holes(G)]
    J = [[(Fraction(0), hl[i])] for i in range(n)]
    for _ in range(rounds):
        newJ = []
        for i in range(n):
            t = (i + p) % n
            vt, vi = vs[t], vs[i]
            pre = []
            for lo, hi in J[t]:
                length = (hi - lo) / d
                for j in range(d):
                    s = (((vt + lo + j) / d) - vi) % 1
                    segs = [(s, s + length)] if s + length <= 1 \
                        else [(s, Fraction(1)), (Fraction(0), s + length - 1)]
                    for a0, b0 in segs:
                        a0, b0 = max(a0, Fraction(0)), min(b0, hl[i])
                        if a0 <= b0:
                            pre.append((a0, b0))
            newJ.append(_intersect_intervals(J[i], _merge_intervals(pre)))
        J = newJ
    if not all(J[i] and J[i][0][0] == 0 and J[i][-1][1] == hl[i] for i in range(n)):
        raise AssertionError("hole endpoints must always track")
    return J


def tracks_hole_cycle(g: AttachedGap, x: Fraction) -> bool:
    """Basis test for an attached gap: every iterate of x lies in the
    closure of the hole that the gap's edge has reached by then."""
    G = g.base
    d, vs, n, p = G.degree_d, G.vertices, len(G), _displacement(G)
    lengths = [arc_length(h) for _, h in holes(G)]
    i, seen = g.index, set()
    while (x, i) not in seen:
        seen.add((x, i))
        if (x - vs[i]) % 1 > lengths[i]:
            return False
        x, i = x * d % 1, (i + p) % n
    return True


def region_edges(obj, depth: int) -> List[Chord]:
    """The boundary edges of a registered region, `depth` levels deep."""
    if isinstance(obj, FiniteRegion):
        return sorted({e for e, _ in holes(obj.base)})
    if isinstance(obj, ImageGap):
        return [Chord((3 ** obj.power * e.a) % 1, (3 ** obj.power * e.b) % 1)
                for e in obj.base.edge_chords(depth)]
    if isinstance(obj, AttachedGap):
        vs, i = obj.base.vertices, obj.index
        segs = [((vs[i] + lo) % 1, (vs[i] + hi) % 1)
                for lo, hi in tracked(obj.base, depth)[i]]
        outer = Chord(vs[i], vs[(i + 1) % len(vs)])
        return [outer] + [Chord(segs[j][1], segs[j + 1][0])
                          for j in range(len(segs) - 1)
                          if segs[j][1] != segs[j + 1][0]]
    return obj.edge_chords(depth)  # GapGen, VassalGap


def region_boundary(obj, depth: int) -> List[Fraction]:
    return sorted({x for e in region_edges(obj, depth) for x in (e.a, e.b)})


class RegionView:
    """Boundary points of a region as sorted numerators over the common
    denominator of one construction; crossing tests are exact bisection."""

    def __init__(self, pts):
        self.pts = sorted(pts)

    def crosses(self, a: int, b: int) -> bool:
        """True iff the chord a-b (a < b) has boundary points of this region
        strictly on both sides."""
        pts = self.pts
        return bisect_right(pts, a) < bisect_left(pts, b) \
            and (pts[0] < a or pts[-1] > b)


def region_closure(d: int, seeds, regions, depth: int) -> Leaves:
    """Thurston pullback of the seeds, `depth` levels deep: each leaf's d
    sibling preimages are the preimage pairs that cross no region, on
    numerators over the lcm of d**depth times the seed denominators and of
    every boundary denominator."""
    bounds = [region_boundary(obj, depth + REGION_MARGIN) for obj in regions]
    N = lcm(d ** depth * lcm(*(x.denominator for s in seeds for x in (s.a, s.b))),
            *(x.denominator for pts in bounds for x in pts))

    def num(x: Fraction) -> int:
        return x.numerator * (N // x.denominator)

    views = [RegionView(map(num, pts)) for pts in bounds]
    leaves: Dict[Tuple[int, int], int] = {(num(s.a), num(s.b)): 0 for s in seeds}
    frontier = list(leaves)
    step = N // d
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            valid = []
            for p in (leaf[0] // d + k * step for k in range(d)):
                for q in (leaf[1] // d + k * step for k in range(d)):
                    c = (p, q) if p <= q else (q, p)
                    if c in leaves or not any(R.crosses(*c) for R in views):
                        valid.append(c)
            if len(valid) != d:
                leaf_chord = Chord(Fraction(leaf[0], N), Fraction(leaf[1], N))
                raise PullbackAmbiguityError(
                    f"pullback of {format_chord(leaf_chord)} admits {len(valid)} "
                    f"siblings where exactly {d} were expected")
            for c in valid:
                if c not in leaves:
                    leaves[c] = level
                    fresh.append(c)
        frontier = fresh
    return Leaves.from_pairs(N, leaves)
