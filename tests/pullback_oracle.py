"""The vertex-list pullback: the `_pullback_closure` that trilam ran before
it planned each leaf's siblings by the arcs of its endpoints between the
critical values, kept as a test oracle.

It finds the sector of each of a leaf's 2d preimages with one bisection into
the sorted polygon vertices.  The planned closure in
`trilam.lamination._pullback_closure` must give the same N, the same leaves
and levels in the same insertion order, and the same
`PullbackAmbiguityError` message.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Dict, Sequence, Tuple

from trilam.chords import Chord, format_chord
from trilam.circle import sigma
from trilam.lamination import Leaves, Polygon, PullbackAmbiguityError, _format_portrait


def _pullback_closure(d: int, seeds: Sequence[Chord],
                      portrait: Sequence[Polygon], depth: int) -> Leaves:
    """Thurston pullback of the seeds, `depth` levels deep, through a
    critical portrait: polygons whose vertices share one sigma_d image,
    with sum(|P| - 1) = d - 1.  A leaf's siblings are the preimage pairs
    that cross no polygon, that is, have no polygon with vertices strictly
    on both sides.  When no critical value is a leaf endpoint there are
    exactly d of them; any other count raises PullbackAmbiguityError.

    Runs on exact integers: every angle is its numerator over N, the lcm of
    d**depth times the seed denominators and of the polygon denominators.
    The preimages of x are x // d + k * (N // d), exact above the last
    level.  The leaves are returned as they were found, in insertion order.

    The crossing test is one table lookup per preimage.  A point x that is
    no polygon vertex lies in the sector (bisect_right(P, x) % |P| for each
    polygon P) of the portrait's complement, and that tuple is constant
    between consecutive vertices, so one bisection into the sorted vertex
    list finds it.  A pair (a, b) of such points crosses no polygon iff a
    and b share a sector: with i = bisect_right(P, a) <= j =
    bisect_right(P, b), it crosses P iff i < j and (i > 0 or j < |P|), that
    is, iff i and j differ mod |P|.  A leaf with a preimage on a vertex is
    tested pair by pair against every polygon.  A pair that is already a
    leaf is a sibling whether or not it crosses."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if sum(len(P) - 1 for P in portrait) != d - 1 or any(
            len({sigma(d, x) for x in P}) != 1 for P in portrait):
        raise ValueError(f"not a critical portrait of sigma_{d}: "
                         f"{_format_portrait(portrait)}")
    N = lcm(d ** depth * lcm(*(x.denominator for s in seeds for x in (s.a, s.b))),
            *(x.denominator for P in portrait for x in P))

    def num(x: Fraction) -> int:
        return x.numerator * (N // x.denominator)

    def fmt(c: Tuple[int, int]) -> str:
        return format_chord(Chord(Fraction(c[0], N), Fraction(c[1], N)))

    polys = [sorted(map(num, P)) for P in portrait]
    vertices = sorted({x for P in polys for x in P})
    vertex_set = set(vertices)
    # sector[i]: the sector of the points strictly between vertices[i - 1]
    # and vertices[i], numbered by first appearance
    ids: Dict[Tuple[int, ...], int] = {}
    sector = [ids.setdefault(tuple(bisect_right(P, v) % len(P) for P in polys), len(ids))
              for v in [-1] + vertices]
    leaves: Dict[Tuple[int, int], int] = {(num(s.a), num(s.b)): 0 for s in seeds}
    frontier = list(leaves)
    step = N // d
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            pa = [leaf[0] // d + k * step for k in range(d)]
            pb = [leaf[1] // d + k * step for k in range(d)]
            if vertex_set.isdisjoint(pa + pb):
                sa = [sector[bisect_right(vertices, p)] for p in pa]
                sb = [sector[bisect_right(vertices, q)] for q in pb]
                valid = [c for p, s in zip(pa, sa) for q, t in zip(pb, sb)
                         for c in [(p, q) if p <= q else (q, p)]
                         if s == t or c in leaves]
            else:
                valid = []
                for p in pa:
                    for q in pb:
                        a, b = (p, q) if p <= q else (q, p)
                        if (a, b) in leaves or not any(
                                bisect_right(P, a) < bisect_left(P, b)
                                and (P[0] < a or P[-1] > b) for P in polys):
                            valid.append((a, b))
            if len(valid) != d:
                raise PullbackAmbiguityError(
                    f"pullback of {fmt(leaf)} admits {len(valid)} siblings where "
                    f"exactly {d} were expected: candidates "
                    f"{', '.join(map(fmt, valid)) or '-'}; portrait "
                    f"{_format_portrait(portrait)}")
            for c in valid:
                if c not in leaves:
                    leaves[c] = level
                    fresh.append(c)
        frontier = fresh
    return Leaves.from_pairs(N, leaves)
