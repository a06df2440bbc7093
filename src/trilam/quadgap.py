"""Invariant quadratic gaps of the tripling map.

A critical chord c determines an open arc L(c) of length 2/3 (the side away
from the short side of c).  The points whose whole forward orbit stays in
the closure of L(c) span a stand-alone invariant quadratic gap.  The orbit
of c sorts these gaps into three kinds:

* regular critical  -- the orbit of sigma(c) stays in the open arc; c itself
  is the major and its hole has length exactly 1/3;
* caterpillar       -- the orbit stays in the closed arc and hits an endpoint
  of c (which is then periodic); such a chord spans no invariant quadratic
  gap, and its class records the head of its chain instead;
* periodic type     -- the orbit escapes the closed arc after n_c steps; the
  major is a periodic leaf joining two sigma^{n_c}-fixed points, with hole
  length 3^(k-1)/(3^k-1) for k = n_c.

All enumeration here is exact; depth bounds the number of pullback levels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Iterator, List, Optional, Tuple

from .chords import Chord, format_chord, is_critical
from .circle import (
    Arc,
    _orbit_walk,
    _set_period,
    arc_length,
    contains,
    format_angle,
    parse_angle,
    preimages,
    sigma,
)

THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class CriticalClass:
    tag: str  # RegularCritical | Caterpillar | PeriodicType
    major: Chord
    n_c: Optional[int] = None
    major_period: Optional[int] = None
    periodic_endpoint: Optional[Fraction] = None
    image_in_pi: bool = False  # orbit of sigma(c) never leaves closure L(c)

    def lines(self) -> List[str]:
        out = [f"tag: {self.tag}", f"major: {format_chord(self.major)}"]
        if self.n_c is not None:
            out.append(f"n_c: {self.n_c}")
        if self.major_period is not None:
            out.append(f"major_period: {self.major_period}")
        if self.periodic_endpoint is not None:
            out.append(f"periodic_endpoint: {format_angle(self.periodic_endpoint)}")
        out.append(f"image_in_basis: {str(self.image_in_pi).lower()}")
        return out


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


def _over(M: int, x: Fraction) -> int:
    """The numerator of x mod 1 over M, a multiple of x's denominator."""
    return x.numerator % x.denominator * (M // x.denominator)


def _arc_over(M: int, arc: Arc) -> Tuple[int, int]:
    """The start and length of an arc as numerators over M."""
    a = _over(M, arc.start)
    return a, (_over(M, arc.end) - a) % M


def _nearest_fixed(point: Fraction, n: int, direction: int) -> Fraction:
    """The sigma_3^n-fixed point closest to `point` in the given direction
    (+1 positive, -1 negative), excluding `point` itself: the next multiple
    of 1/(3^n - 1) strictly past `point`."""
    q = 3 ** n - 1
    num, den = point.numerator * q, point.denominator
    j = num // den + 1 if direction > 0 else -(-num // den) - 1
    return Fraction(j % q, q)


def _leaf_period(d: int, c: Chord) -> Optional[int]:
    """Minimal n with sigma_d^n(c) = c, or None when an endpoint of c is
    not periodic."""
    M = lcm(c.a.denominator, c.b.denominator)
    return _set_period(d, M, (_over(M, c.a), _over(M, c.b)))


def caterpillar_head(c: Chord) -> Tuple[Chord, Fraction, int, int]:
    """For a critical chord with a periodic endpoint y, the head of its
    canonical chain gap: Chord(y, z) with z the sigma^k-fixed accumulation
    point of the chain (k = period of y).

    Returns (head, periodic_endpoint, period, direction) where direction is
    +1 if the chain walks positively from the non-periodic endpoint.
    """
    s, t = _short_side(c)
    k_s, k_t = (_set_period(3, x.denominator, (x.numerator,)) for x in (s, t))
    if k_s is None and k_t is None:
        raise ValueError("caterpillar construction needs a periodic endpoint")
    if k_s is not None:
        y, y_other, k, direction = s, t, k_s, +1
    else:
        y, y_other, k, direction = t, s, k_t, -1
    # The chain hole behind the m-th leaf has length 3^(-mk-1); summing the
    # geometric series locates the sigma^k-fixed accumulation point.
    z = (y_other + direction * Fraction(1, 3 * (3 ** k - 1))) % 1
    return Chord(y, z), y, k, direction


def classify_critical(c: Chord) -> CriticalClass:
    if not is_critical(3, c):
        raise ValueError(f"{c} is not a critical chord of the tripling map")
    s, t = _short_side(c)
    L = big_arc(c)
    # the orbit of sigma(c) on numerators over M; the closure of L(c) is the
    # closed arc from t to s
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
        n_c = escape + 1  # sigma^n(c) = orb[n-1]
        y = _nearest_fixed(t, n_c, +1)
        z = _nearest_fixed(s, n_c, -1)
        if not (contains(L, y) and contains(L, z)):
            raise AssertionError("major endpoints escaped L(c)")
        major = Chord(y, z)
        if _leaf_period(3, major) != n_c:
            raise AssertionError(f"major {major} does not have period {n_c}")
        return CriticalClass(
            tag="PeriodicType", major=major, n_c=n_c, major_period=n_c,
            image_in_pi=False,
        )

    if hits_boundary:
        head, y, k, _ = caterpillar_head(c)
        return CriticalClass(
            tag="Caterpillar", major=head, major_period=k,
            periodic_endpoint=y, image_in_pi=True,
        )

    return CriticalClass(tag="RegularCritical", major=c, image_in_pi=True)


# ---------------------------------------------------------------------------
# gap generators


GAP_KINDS = ("regular-critical", "periodic-type", "above-diameter", "below-diameter")


@dataclass(frozen=True)
class GapGen:
    """Symbolic recipe for an invariant quadratic gap: the major chord and
    the positively oriented hole (a, b) behind it.  Basis points are exactly
    the angles whose forward orbit avoids the open hole."""

    kind: str  # one of GAP_KINDS
    major: Chord
    hole: Arc
    period: Optional[int] = None  # leaf period of the major; None if critical
    critical: Optional[Chord] = None

    @property
    def hole_length(self) -> Fraction:
        return arc_length(self.hole)

    def _hits(self, orb: List[int], M: int) -> Iterator[bool]:
        """Whether each numerator over M in `orb` lies in the open hole."""
        a, h = _arc_over(M, self.hole)
        return (0 < (v - a) % M < h for v in orb)

    def _basis_orbit(self, x: int, N: int) -> Optional[Tuple[List[int], int, int]]:
        """The orbit of x/N as numerators over M, a multiple of 3 and N, with
        the index where its cycle starts and M; None when the orbit enters
        the open hole."""
        M = lcm(3, N, self.hole.start.denominator, self.hole.end.denominator)
        orb, start = _orbit_walk(3, x % N * (M // N), M)
        return None if any(self._hits(orb, M)) else (orb, start, M)

    def _bits(self, orb: List[int], M: int) -> List[int]:
        """psi's bits: 0 on the third of the circle starting at the hole end."""
        b = _over(M, self.hole.end)
        return [int((v - b) % M >= M // 3) for v in orb]

    def in_basis(self, x: Fraction) -> bool:
        return self._basis_orbit(x.numerator, x.denominator) is not None

    def base_edges(self) -> List[Tuple[Chord, Arc]]:
        """The major orbit with its holes (a single critical edge for a
        regular-critical gap)."""
        if self.period is None:
            return [(self.major, self.hole)]
        out = [(self.major, self.hole)]
        a, b = self.hole.start, self.hole.end
        h = self.hole_length
        for i in range(1, self.period):
            a, b = sigma(3, a), sigma(3, b)
            h = 3 * h - 1 if i == 1 else 3 * h
            edge_hole = Arc(a, b)
            if arc_length(edge_hole) != h:
                raise AssertionError(f"edge hole {edge_hole} does not have length {h}")
            out.append((Chord(a, b), edge_hole))
        return out

    def edge_holes(self, depth: int) -> List[Tuple[Chord, Arc]]:
        """All edges up to `depth` pullback levels of the major orbit, with
        their holes.  Every edge is an iterated preimage of the major."""
        frontier = self.base_edges()
        seen = {e for e, _ in frontier}
        out = list(frontier)
        for _ in range(depth):
            nxt = []
            for _, hole in frontier:
                hlen = arc_length(hole) / 3
                for p in preimages(3, hole.start):
                    q = (p + hlen) % 1
                    if contains(self.hole, p) or contains(self.hole, q):
                        continue
                    e = Chord(p, q)
                    if e in seen:
                        continue
                    seen.add(e)
                    nxt.append((e, Arc(p, q)))
            out.extend(nxt)
            frontier = nxt
        return out

    def edge_chords(self, depth: int) -> List[Chord]:
        return [e for e, _ in self.edge_holes(depth)]

    def vertices(self, depth: int) -> List[Fraction]:
        """Edge endpoints plus every periodic basis point of period <= depth
        (the gap basis is a Cantor set; periodic points fill it in)."""
        pts = set()
        for e, _ in self.edge_holes(depth):
            pts.add(e.a)
            pts.add(e.b)
        if self.critical is not None:
            # one walk of the critical orbit: its point i stays in the basis
            # iff no point from index min(i, start) on lies in the hole
            c, hole = self.critical.a, self.hole
            M = lcm(c.denominator, hole.start.denominator, hole.end.denominator)
            orb, start = _orbit_walk(3, 3 * _over(M, c) % M, M)
            last_hit = max((i for i, hit in enumerate(self._hits(orb, M)) if hit),
                           default=-1)
            if start > last_hit:
                pts.update(Fraction(v, M) for v in orb[last_hit + 1:])
        for p in range(1, depth + 1):
            q = 3 ** p - 1
            pts.update(Fraction(j, q) for j in range(q)
                       if self._basis_orbit(j, q) is not None)
        return sorted(pts)

    def serialize(self) -> str:
        parts = [
            f"kind={self.kind}",
            f"major={format_chord(self.major)}",
            f"hole={format_angle(self.hole.start)},{format_angle(self.hole.end)}",
            f"period={self.period if self.period is not None else '-'}",
            f"critical={format_chord(self.critical) if self.critical else '-'}",
        ]
        return " ".join(parts)

    def __repr__(self):
        return f"GapGen<{self.serialize()}>"


class _Fields(dict):
    """The key=value fields of a spec; a missing key is a ValueError."""

    def __missing__(self, key: str):
        raise ValueError(f"missing field {key}=")


def parse_fields(text: str) -> _Fields:
    """Parse whitespace-separated key=value tokens."""
    fields = _Fields()
    for tok in text.split():
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        fields[key] = value
    return fields


def _parse_arc(text: str) -> Arc:
    ends = text.split(",")
    if len(ends) != 2:
        raise ValueError(f"bad arc syntax: {text!r}")
    return Arc(parse_angle(ends[0]), parse_angle(ends[1]))


def build_gap(c: Chord, depth: int = 6) -> Tuple[GapGen, List[Fraction]]:
    """The invariant quadratic gap spanned by orbits avoiding the major hole
    of the critical chord `c`, together with its enumerated vertices."""
    cls = classify_critical(c)
    if cls.tag == "Caterpillar":
        raise ValueError("caterpillar critical chords do not span a plain quadratic gap")
    s, t = _short_side(c)
    if cls.tag == "RegularCritical":
        gap = GapGen(kind="regular-critical", major=c, hole=Arc(s, t), critical=c)
    else:
        y, z = None, None
        # hole runs from z (scan backward from s) to y (scan forward from t)
        for u, v in ((cls.major.a, cls.major.b), (cls.major.b, cls.major.a)):
            if ((u - t) % 1) < ((v - t) % 1):
                y, z = u, v
        gap = GapGen(
            kind="periodic-type", major=cls.major, hole=Arc(z, y),
            period=cls.n_c, critical=c,
        )
    return gap, gap.vertices(depth)


def gap_from_major(major: Chord, hole: Arc, period: int) -> GapGen:
    """Recipe for a periodic-type gap given its periodic major directly."""
    return GapGen(kind="periodic-type", major=major, hole=hole, period=period)


def below_diameter() -> GapGen:
    """The invariant quadratic gap of orbits below the diameter 0-1/2."""
    gap, _ = build_gap(Chord(Fraction(1, 12), Fraction(5, 12)), depth=0)
    return GapGen(kind="below-diameter", major=gap.major, hole=gap.hole,
                  period=gap.period, critical=gap.critical)


def above_diameter() -> GapGen:
    """The invariant quadratic gap of orbits above the diameter 0-1/2."""
    gap, _ = build_gap(Chord(Fraction(7, 12), Fraction(11, 12)), depth=0)
    return GapGen(kind="above-diameter", major=gap.major, hole=gap.hole,
                  period=gap.period, critical=gap.critical)


# ---------------------------------------------------------------------------
# vassal


@dataclass(frozen=True)
class VassalGap:
    """The period-k quadratic gap spanned by the two-arc horseshoe
    [a, b - 1/3] u [a + 1/3, b] inside the major hole (a, b)."""

    major: Chord
    hole: Arc  # the parent's major hole (a, b); the vassal lives inside it
    period: int
    kind: str = "vassal"

    @property
    def a(self) -> Fraction:
        return self.hole.start

    @property
    def b(self) -> Fraction:
        return self.hole.end

    @property
    def arcs(self) -> Tuple[Arc, Arc]:
        return (
            Arc(self.a, (self.b - THIRD) % 1),
            Arc((self.a + THIRD) % 1, self.b),
        )

    @property
    def co_major(self) -> Chord:
        """M''(U): the critical edge of the vassal, sharing its image with
        the major."""
        return Chord((self.b - THIRD) % 1, (self.a + THIRD) % 1)

    def _h(self) -> Fraction:
        return arc_length(self.hole)

    def _word_levels(self, u: Fraction) -> Iterator[List[Fraction]]:
        """Level k = 0, 1, ...: the images of u under the 2^k words of length
        k in the return map's inverse branches g0(u) = u / 3^period and
        g1(u) = h - (h - u) / 3^period (h the hole length, u measured from
        a), in lexicographic word order: the word (bit,) + w acts as g_bit
        after w, so level k is g0, then g1, of level k - 1."""
        h, k = self._h(), 3 ** self.period
        level = [u]
        while True:
            yield level
            level = [x / k for x in level] + [h - (h - x) / k for x in level]

    def vertices(self, depth: int) -> List[Fraction]:
        # lo[0], hi[0], lo[1], ... rise in [0, h]: the sort is one rotation where a + x passes 1
        lo, hi = (next(islice(self._word_levels(u), depth, None))
                  for u in (Fraction(0), self._h()))
        xs = [self.a + x for pair in zip(lo, hi) for x in pair]
        k = bisect_left(xs, 1)
        return [x - 1 for x in xs[k:]] + xs[:k]

    def edge_chords(self, depth: int) -> List[Chord]:
        u0, u1 = self._h() - THIRD, THIRD  # parameters of the co-major endpoints
        out = [self.major, self.co_major]
        for lo, hi in islice(zip(self._word_levels(u0), self._word_levels(u1)), 1, depth + 1):
            out += [Chord((self.a + x) % 1, (self.a + y) % 1) for x, y in zip(lo, hi)]
        return out

    def _basis_orbit(self, x: int, N: int) -> Optional[Tuple[List[int], int, int]]:
        """The sigma^k-orbit of x/N as numerators over M, a multiple of 3 and
        N, with the index where its cycle starts and M; None when an iterate
        leaves the closed two-arc horseshoe."""
        M = lcm(3, N, self.a.denominator, self.b.denominator)
        orb, start = _orbit_walk(3 ** self.period, x % N * (M // N), M)
        a, h = _arc_over(M, self.hole)
        third = M // 3
        if all(u <= h - third or third <= u <= h for u in ((v - a) % M for v in orb)):
            return orb, start, M
        return None

    def _bits(self, orb: List[int], M: int) -> List[int]:
        """psi's bits: 0 on the arc at a, 1 on the arc at b."""
        a, h = _arc_over(M, self.hole)
        return [int((v - a) % M > h - M // 3) for v in orb]

    def in_basis(self, x: Fraction) -> bool:
        """Every sigma^k-iterate stays in the closed two-arc horseshoe."""
        return self._basis_orbit(x.numerator, x.denominator) is not None

    def serialize(self) -> str:
        return (
            f"kind=vassal major={format_chord(self.major)} "
            f"hole={format_angle(self.hole.start)},{format_angle(self.hole.end)} "
            f"period={self.period} critical={format_chord(self.co_major)}"
        )

    def __repr__(self):
        return f"VassalGap<{self.serialize()}>"


def vassal(U: GapGen) -> VassalGap:
    if U.period is None:
        raise ValueError("only periodic-type gaps have a vassal")
    return VassalGap(major=U.major, hole=U.hole, period=U.period)


# ---------------------------------------------------------------------------
# boundary collapse onto the doubling map


def _binary_value(bits: List[int], preperiod: int) -> Fraction:
    """Exact value of the binary expansion 0.b0 b1 ... with the tail from
    `preperiod` on repeating."""
    head = tail = 0
    for b in bits[:preperiod]:
        head = 2 * head + b
    for b in bits[preperiod:]:
        tail = 2 * tail + b
    cycle = 2 ** (len(bits) - preperiod) - 1
    return Fraction(head * cycle + tail, cycle * 2 ** preperiod) % 1


class _OffBasis(ValueError):
    """psi's error for a point off the basis.  The message is formatted only
    when read, so callers that skip such points do not pay for it."""

    def __str__(self) -> str:
        U, x = self.args
        return f"{format_angle(x)} is not in the basis of {U}"


def psi(U, x: Fraction) -> Fraction:
    """Collapse a basis point of a quadratic gap to its doubling-map angle.

    Itinerary coding: the basis splits into two arcs by the fiber of the
    gap's critical chord; the itinerary of x (under sigma for an invariant
    gap, under sigma^k for a vassal) read as a binary expansion is the
    image angle.  The labels are chosen so the hole-start side reads 0; for
    the diameter gaps this sends both major endpoints to 0.  One orbit walk
    decides basis membership and gives the bits.
    """
    walk = U._basis_orbit(x.numerator, x.denominator)
    if walk is None:
        raise _OffBasis(U, x)
    orb, start, M = walk
    return _binary_value(U._bits(orb, M), start)
