"""The Fraction set-up of the census constructions, kept as a test oracle.

This is the code trilam ran before `classify_critical`, `build_gap`, the
gap's edges and vertices, and the critical polygons of the canonical
constructions moved to integer numerators: the short side, L(c), the
nearest sigma^n-fixed points and each edge's hole are `Fraction` and `Arc`
values, the critical polygon of a quadratic gap is found by a search over
j/(3^m - 1) with a Fraction basis test and orbit per candidate, and the
polygon of an attached gap reads the rotation and the hole lengths from
`classify_rotational` and `holes` for each gap; criticality compares two
`sigma` images.  The trilam functions of
the same names must give the same values, and the same exception types
and messages.
"""

from fractions import Fraction
from itertools import count
from math import lcm
from typing import List, Sequence, Tuple

from trilam.chords import Chord
from trilam.circle import (
    Arc, _orbit_walk, _over, _set_period, arc_length, contains, orbit, preimages, sigma,
)
from trilam.lamination import AttachedGap
from trilam.lamsets import LamSet, classify_rotational, holes
from trilam.quadgap import CriticalClass, GapGen, _leaf_period

THIRD = Fraction(1, 3)


def is_critical(d: int, c: Chord) -> bool:
    if c.degenerate:
        raise ValueError("criticality is undefined for a degenerate chord")
    return sigma(d, c.a) == sigma(d, c.b)


def _short_side(c: Chord) -> Tuple[Fraction, Fraction]:
    """Endpoints (s, t) of the critical chord with (s, t) the positively
    oriented arc of length 1/3."""
    if (c.b - c.a) % 1 == THIRD:
        return c.a, c.b
    return c.b, c.a


def big_arc(c: Chord) -> Arc:
    """L(c): the open arc of length 2/3 on the far side of c."""
    s, t = _short_side(c)
    return Arc(t, s)


def _nearest_fixed(point: Fraction, n: int, direction: int) -> Fraction:
    """The sigma_3^n-fixed point closest to `point` in the given direction
    (+1 positive, -1 negative), excluding `point` itself: the next multiple
    of 1/(3^n - 1) strictly past `point`."""
    q = 3 ** n - 1
    num, den = point.numerator * q, point.denominator
    j = num // den + 1 if direction > 0 else -(-num // den) - 1
    return Fraction(j % q, q)


def caterpillar_head(c: Chord) -> Tuple[Chord, Fraction, int, int]:
    s, t = _short_side(c)
    k_s, k_t = (_set_period(3, x.denominator, (x.numerator,)) for x in (s, t))
    if k_s is None and k_t is None:
        raise ValueError("caterpillar construction needs a periodic endpoint")
    if k_s is not None:
        y, y_other, k, direction = s, t, k_s, +1
    else:
        y, y_other, k, direction = t, s, k_t, -1
    z = (y_other + direction * Fraction(1, 3 * (3 ** k - 1))) % 1
    return Chord(y, z), y, k, direction


def classify_critical(c: Chord) -> CriticalClass:
    if not is_critical(3, c):
        raise ValueError(f"{c} is not a critical chord of the tripling map")
    s, t = _short_side(c)
    L = big_arc(c)
    M = lcm(s.denominator, t.denominator)
    s_num, t_num = _over(M, s), _over(M, t)
    span = (s_num - t_num) % M
    orb, _ = _orbit_walk(3, 3 * _over(M, c.a) % M, M)

    escape = None
    hits_boundary = False
    for i, x in enumerate(orb):
        if (x - t_num) % M > span:
            escape = i
            break
        if x == s_num or x == t_num:
            hits_boundary = True

    if escape is not None:
        n_c = escape + 1
        y = _nearest_fixed(t, n_c, +1)
        z = _nearest_fixed(s, n_c, -1)
        if not (contains(L, y) and contains(L, z)):
            raise AssertionError("major endpoints escaped L(c)")
        major = Chord(y, z)
        if _leaf_period(3, major) != n_c:
            raise AssertionError(f"major {major} does not have period {n_c}")
        return CriticalClass(tag="PeriodicType", major=major, major_period=n_c)

    if hits_boundary:
        head, y, k, _ = caterpillar_head(c)
        return CriticalClass(tag="Caterpillar", major=head, major_period=k,
                             periodic_endpoint=y)

    return CriticalClass(tag="RegularCritical", major=c)


def base_edges(U: GapGen) -> List[Tuple[Chord, Arc]]:
    out = [(U.major, U.hole)]
    a, b = U.hole.start, U.hole.end
    h = U.hole_length
    for i in range(1, U.period or 1):
        a, b = sigma(3, a), sigma(3, b)
        h = 3 * h - 1 if i == 1 else 3 * h
        edge_hole = Arc(a, b)
        if arc_length(edge_hole) != h:
            raise AssertionError(f"edge hole {edge_hole} does not have length {h}")
        out.append((Chord(a, b), edge_hole))
    return out


def edge_holes(U: GapGen, depth: int) -> List[Tuple[Chord, Arc]]:
    frontier = base_edges(U)
    seen = {e for e, _ in frontier}
    out = list(frontier)
    for _ in range(depth):
        nxt = []
        for _, hole in frontier:
            hlen = arc_length(hole) / 3
            for p in preimages(3, hole.start):
                q = (p + hlen) % 1
                if contains(U.hole, p) or contains(U.hole, q):
                    continue
                e = Chord(p, q)
                if e in seen:
                    continue
                seen.add(e)
                nxt.append((e, Arc(p, q)))
        out.extend(nxt)
        frontier = nxt
    return out


def vertices(U: GapGen, depth: int) -> List[Fraction]:
    """The gap's vertices as the Fraction code listed them (its point
    budget is left to `GapGen.vertices`)."""
    pts = set()
    for e, _ in edge_holes(U, depth):
        pts.add(e.a)
        pts.add(e.b)
    if U.critical is not None:
        c, hole = U.critical.a, U.hole
        M = lcm(c.denominator, hole.start.denominator, hole.end.denominator)
        orb, start = _orbit_walk(3, 3 * _over(M, c) % M, M)
        last_hit = max((i for i, v in enumerate(orb) if contains(hole, Fraction(v, M))),
                       default=-1)
        if start > last_hit:
            pts.update(Fraction(v, M) for v in orb[last_hit + 1:])
    for p in range(1, depth + 1):
        q = 3 ** p - 1
        pts.update(Fraction(j, q) for j in range(q) if U.in_basis(Fraction(j, q)))
    return sorted(pts)


def build_gap(c: Chord, depth: int = 6) -> Tuple[GapGen, List[Fraction]]:
    cls = classify_critical(c)
    if cls.tag == "Caterpillar":
        raise ValueError("caterpillar critical chords do not span a plain quadratic gap")
    s, t = _short_side(c)
    if cls.tag == "RegularCritical":
        gap = GapGen(kind="regular-critical", hole=Arc(s, t), critical=c)
    else:
        n = cls.n_c
        gap = GapGen(kind="periodic-type",
                     hole=Arc(_nearest_fixed(s, n, -1), _nearest_fixed(t, n, +1)),
                     period=n, critical=c)
    return gap, vertices(gap, depth)


def _gap_polygon(U: GapGen, seeds: Sequence[Chord]) -> Tuple[Fraction, ...]:
    """The first x = j/(3^m - 1), by m and then j, in U's basis whose
    orbit misses the forward orbits of the seed endpoints, and the
    preimages of sigma(x) in the basis."""
    avoid = {y for s in seeds for e in (s.a, s.b) for y in orbit(3, e)}
    for m in count(1):
        q = 3 ** m - 1
        for j in range(q):
            x = Fraction(j, q)
            if U.in_basis(x) and avoid.isdisjoint(orbit(3, x)):
                return tuple(y for y in preimages(3, sigma(3, x)) if U.in_basis(y))


def is_attached_critical(g: AttachedGap) -> bool:
    vs, i = g.base.vertices, g.index
    return g.base.degree_d * ((vs[(i + 1) % len(vs)] - vs[i]) % 1) >= 1


def _attached_polygon(g: AttachedGap) -> Tuple[Fraction, ...]:
    G, i = g.base, g.index
    d, n, rho = G.degree_d, len(G), classify_rotational(G).rotation_number
    ell = [arc_length(h) for _, h in holes(G)]
    delta = 1 + d * ell[i] - ell[(i + int(rho * n)) % n]
    c = rho.denominator
    x = G.vertices[i] + Fraction(d ** (c - 1), d ** (2 * c) - 1)
    return tuple((x + Fraction(k, d)) % 1 for k in range(int(delta)))


def rotational_setup(G: LamSet):
    """The seeds, the attached gaps and the critical portrait of the
    canonical lamination of the rotational set G, as the Fraction code
    built them."""
    d = G.degree_d
    cycle = [AttachedGap(G, i) for i in range(len(holes(G)))]
    seeds = sorted({e for e, _ in holes(G)})
    portrait = [(s.a, s.b) for s in seeds if is_critical(d, s)]
    portrait += [_attached_polygon(g) for g in cycle if is_attached_critical(g)]
    return seeds, cycle, portrait
