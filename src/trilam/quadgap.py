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
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .chords import Chord, format_chord, is_critical
from .circle import (
    Arc,
    _orbit_walk,
    _over,
    _set_period,
    arc_length,
    format_angle,
    parse_angle,
)

THIRD = Fraction(1, 3)


class LeafBudgetError(ValueError):
    """A construction would build more leaves, or a vertex list scan or
    return more points, than its budget."""


# The most points a gap's vertex list may scan or return: a vassal at depth
# 19 returns 2**20 points (about 250 MB), and a quadratic gap at depth 12
# scans 797 145 candidates for its periodic points.
_POINT_BUDGET = 1 << 20


def _hold_budget(depth: int, count: Callable[[int], int], budget: int,
                 verb: str, things: str, unit: str, name: str = "depth") -> None:
    """Raise LeafBudgetError when a construction at `depth` (called `name`
    in the message) may `verb` more than `budget` `things`, count(depth) of
    them.  Each count here at least doubles per level, so past the budget's
    bit length in depth the count at that length already exceeds the
    budget; it is named there as "more than", and no larger power is
    computed."""
    n = min(depth, budget.bit_length())
    bound = count(n)
    if bound > budget:
        raise LeafBudgetError(f"{name} {depth} may {verb} "
                              f"{'up to' if n == depth else 'more than'} {bound} {things}, "
                              f"over the {unit} budget of {budget}")


@dataclass(frozen=True)
class CriticalClass:
    tag: str  # RegularCritical | Caterpillar | PeriodicType
    major: Chord
    major_period: Optional[int] = None
    periodic_endpoint: Optional[Fraction] = None

    @property
    def n_c(self) -> Optional[int]:
        """The step at which sigma^n(c) leaves the closure of L(c)."""
        return self.major_period if self.tag == "PeriodicType" else None

    @property
    def image_in_pi(self) -> bool:
        """The orbit of sigma(c) never leaves the closure of L(c)."""
        return self.tag != "PeriodicType"

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


def _critical_nums(c: Chord) -> Tuple[int, int, int]:
    """(M, s, t): M the lcm of c's denominators and (s, t) the short side of
    c, the positively oriented arc of length 1/3, as numerators over M.
    Raises ValueError when c is not critical."""
    if not is_critical(3, c):
        raise ValueError(f"{c} is not a critical chord of the tripling map")
    M = lcm(c.a.denominator, c.b.denominator)
    a, b = _over(M, c.a), _over(M, c.b)
    return (M, a, b) if (b - a) % M == M // 3 else (M, b, a)


def _major_ends(M: int, s: int, t: int, n: int) -> Tuple[int, int, int]:
    """(q, z, y), q = 3^n - 1: z/q is the last sigma^n-fixed point strictly
    before s/M and y/q the first one strictly past t/M."""
    q = 3 ** n - 1
    return q, (-(-s * q // M) - 1) % q, (t * q // M + 1) % q


def _arc_over(M: int, arc: Arc) -> Tuple[int, int]:
    """The start and length of an arc as numerators over M."""
    a = _over(M, arc.start)
    return a, (_over(M, arc.end) - a) % M


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
    M, s, t = _critical_nums(c)
    k_s, k_t = (_set_period(3, M, (x,)) for x in (s, t))
    if k_s is None and k_t is None:
        raise ValueError("caterpillar construction needs a periodic endpoint")
    if k_s is not None:
        y, y_other, k, direction = s, t, k_s, +1
    else:
        y, y_other, k, direction = t, s, k_t, -1
    # The chain hole behind the m-th leaf has length 3^(-mk-1); summing the geometric
    # series gives the accumulation point y_other + direction / Q, here over M * Q.
    Q = 3 * (3 ** k - 1)
    y, z = Fraction(y, M), Fraction((y_other * Q + direction * M) % (M * Q), M * Q)
    return Chord(y, z), y, k, direction


def classify_critical(c: Chord) -> CriticalClass:
    """The class of a critical chord, found on numerators over the lcm of
    its denominators; the closure of L(c) is the closed arc from t to s."""
    M, s, t = _critical_nums(c)
    span = (s - t) % M
    orb, _ = _orbit_walk(3, 3 * s % M, M)

    escape, hits_boundary = None, False
    for i, x in enumerate(orb):
        if (x - t) % M > span:
            escape = i
            break
        if x == s or x == t:
            hits_boundary = True

    if escape is not None:
        n_c = escape + 1  # sigma^n(c) = orb[n-1]
        q, z, y = _major_ends(M, s, t, n_c)
        # both ends lie in the open arc L(c) = (t, s), over q * M
        if not all(0 < (v * M - t * q) % (q * M) < span * q for v in (y, z)):
            raise AssertionError("major endpoints escaped L(c)")
        major = Chord(Fraction(y, q), Fraction(z, q))
        if _set_period(3, q, (y, z)) != n_c:
            raise AssertionError(f"major {major} does not have period {n_c}")
        return CriticalClass(tag="PeriodicType", major=major, major_period=n_c)

    if hits_boundary:
        head, y, k, _ = caterpillar_head(c)
        return CriticalClass(tag="Caterpillar", major=head, major_period=k,
                             periodic_endpoint=y)

    return CriticalClass(tag="RegularCritical", major=c)


# ---------------------------------------------------------------------------
# gap generators


GAP_KINDS = ("regular-critical", "periodic-type", "above-diameter", "below-diameter")


class QuadraticGap:
    """What an invariant quadratic gap and a vassal gap share: the
    positively oriented hole (a, b) behind the major, the chord a-b, and one
    `[gaps]` line.  A subclass supplies `kind`, `hole`, `period`, `critical`,
    `_step` (its map's degree) and `_bits`, the rule of basis and psi bits."""

    @property
    def major(self) -> Chord:
        return Chord(self.hole.start, self.hole.end)

    @property
    def hole_length(self) -> Fraction:
        return arc_length(self.hole)

    def in_basis(self, x: Fraction) -> bool:
        return None not in psi_values(self, x.denominator, (x.numerator % x.denominator,)).values()

    def serialize(self) -> str:
        return (f"kind={self.kind} major={format_chord(self.major)} "
                f"hole={format_angle(self.hole.start)},{format_angle(self.hole.end)} "
                f"period={'-' if self.period is None else self.period} "
                f"critical={format_chord(self.critical) if self.critical else '-'}")

    def __repr__(self):
        return f"{type(self).__name__}<{self.serialize()}>"


@dataclass(frozen=True, repr=False)
class GapGen(QuadraticGap):
    """Symbolic recipe for an invariant quadratic gap.  Basis points are
    exactly the angles whose forward orbit avoids the open hole."""

    kind: str  # one of GAP_KINDS
    hole: Arc
    period: Optional[int] = None  # leaf period of the major; None if critical
    critical: Optional[Chord] = None
    _step = 3

    def _bits(self, M: int) -> Callable[[int], Optional[int]]:
        """psi's bit of v/M: 0 on the third from the hole end, None in the hole."""
        a, h = _arc_over(M, self.hole)
        b, third = (a + h) % M, M // 3
        return lambda v: None if 0 < (v - a) % M < h else int((v - b) % M >= third)

    def _edges_over(self, depth: int) -> Tuple[int, List[Tuple[int, int]]]:
        """(M, edges): the major orbit, then its preimages level by level down
        to `depth`, each edge as its hole's start and length over M, 3^depth
        times the lcm of the hole's denominators, where the preimages
        x // 3 + k * M / 3 stay exact."""
        M = 3 ** depth * lcm(self.hole.start.denominator, self.hole.end.denominator)
        A, H = _arc_over(M, self.hole)
        a, b, h = A, (A + H) % M, H
        out = [(a, h)]
        for i in range(1, self.period or 1):
            a, b = 3 * a % M, 3 * b % M
            h = 3 * h - M if i == 1 else 3 * h
            if (b - a) % M != h:
                raise AssertionError(f"edge hole {Arc(Fraction(a, M), Fraction(b, M))} "
                                     f"does not have length {Fraction(h, M)}")
            out.append((a, h))
        seen = {(min(a, b), max(a, b)) for a, h in out for b in [(a + h) % M]}
        frontier = list(out)
        for _ in range(depth):
            nxt = []
            for x, h in frontier:
                h //= 3
                for p in range(x // 3, M, M // 3):
                    q = (p + h) % M
                    key = (p, q) if p <= q else (q, p)
                    if 0 < (p - A) % M < H or 0 < (q - A) % M < H or key in seen:
                        continue
                    seen.add(key)
                    nxt.append((p, h))
            out += nxt
            frontier = nxt
        return M, out

    def base_edges(self) -> List[Tuple[Chord, Arc]]:
        """The major orbit with its holes (a single critical edge for a
        regular-critical gap)."""
        return self.edge_holes(0)

    def edge_holes(self, depth: int) -> List[Tuple[Chord, Arc]]:
        """All edges up to `depth` pullback levels of the major orbit, with
        their holes."""
        M, edges = self._edges_over(depth)
        return [(Chord(p, q), Arc(p, q))
                for a, h in edges for p, q in [(Fraction(a, M), Fraction((a + h) % M, M))]]

    def edge_chords(self, depth: int) -> List[Chord]:
        return [e for e, _ in self.edge_holes(depth)]

    def vertices(self, depth: int) -> List[Fraction]:
        """Edge endpoints plus every periodic basis point of period <= depth
        (the gap basis is a Cantor set; periodic points fill it in), all over
        one D.  The scan of the j/(3^p - 1), p <= depth, is held against
        _POINT_BUDGET first and raises LeafBudgetError past it."""
        _hold_budget(depth, lambda n: (3 ** (n + 1) - 3) // 2 - n, _POINT_BUDGET,
                     "scan", "points", "point")
        M, edges = self._edges_over(depth)
        qs = [3 ** p - 1 for p in range(1, depth + 1)]
        D = lcm(M, *qs, self.critical.a.denominator if self.critical else 1)
        pts = {v * (D // M) for a, h in edges for v in (a, (a + h) % M)}
        if self.critical is not None:
            orb, _ = _orbit_walk(3, 3 * _over(D, self.critical.a) % D, D)
            pts.update(v for v, p in psi_values(self, D, orb).items() if p is not None)
        for q in qs:  # j/q is a basis point iff its orbit meets no point in the hole
            M = lcm(3, q, self.hole.start.denominator, self.hole.end.denominator)
            bit = self._bits(M)
            pts.update(j * (D // q) for j in range(q)
                       if None not in map(bit, _orbit_walk(3, j * (M // q), M)[0]))
        return [Fraction(v, D) for v in sorted(pts)]


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
    M, s, t = _critical_nums(c)
    if cls.tag == "RegularCritical":
        gap = GapGen(kind="regular-critical", hole=Arc(Fraction(s, M), Fraction(t, M)),
                     critical=c)
    else:
        q, z, y = _major_ends(M, s, t, cls.n_c)
        gap = GapGen(kind="periodic-type", hole=Arc(Fraction(z, q), Fraction(y, q)),
                     period=cls.n_c, critical=c)
    return gap, gap.vertices(depth)


def below_diameter() -> GapGen:
    """The invariant quadratic gap of orbits below the diameter 0-1/2."""
    return replace(build_gap(Chord(Fraction(1, 12), Fraction(5, 12)), 0)[0], kind="below-diameter")


def above_diameter() -> GapGen:
    """The invariant quadratic gap of orbits above the diameter 0-1/2."""
    return replace(build_gap(Chord(Fraction(7, 12), Fraction(11, 12)), 0)[0], kind="above-diameter")


# ---------------------------------------------------------------------------
# vassal


@dataclass(frozen=True, repr=False)
class VassalGap(QuadraticGap):
    """The period-k quadratic gap spanned by the two-arc horseshoe
    [a, b - 1/3] u [a + 1/3, b] inside the major hole (a, b)."""

    hole: Arc  # the parent's major hole (a, b); the vassal lives inside it
    period: int
    kind = "vassal"
    _step = property(lambda self: 3 ** self.period)  # its map is the return map sigma^k

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

    critical = co_major

    def _numerator_levels(self, u: Fraction) -> Iterator[Tuple[List[int], int]]:
        """Level j = 0, 1, ...: the images of u under the 2^j words of length
        j in the return map's inverse branches g0(u) = u / K and
        g1(u) = h - (h - u) / K (h the hole length, u measured from a,
        K = 3^period), in lexicographic word order: the word (bit,) + w acts
        as g_bit after w, so level j is g0, then g1, of level j - 1.  Level j
        is its numerators over D * K^j, D = 3 * h.denominator, u a multiple
        of 1/D: g0 keeps a numerator and g1 adds h * D * K^j * (K - 1)."""
        h, K = self.hole_length, 3 ** self.period
        den = 3 * h.denominator
        level = [u.numerator * (den // u.denominator)]
        step = 3 * h.numerator * (K - 1)
        while True:
            yield level, den
            level = level + [x + step for x in level]
            den, step = den * K, step * K

    def vertices(self, depth: int) -> List[Fraction]:
        """The 2^(depth + 1) level-`depth` images of both hole ends, in
        circle order; past _POINT_BUDGET it raises LeafBudgetError."""
        _hold_budget(depth, lambda n: 2 ** (n + 1), _POINT_BUDGET, "return", "points", "point")
        # lo[0], hi[0], lo[1], ... rise in [0, h]: the sort is one rotation where a + x passes 1
        (lo, den), (hi, _) = (next(islice(self._numerator_levels(u), depth, None))
                              for u in (Fraction(0), self.hole_length))
        M = lcm(den, self.a.denominator)
        a, f = _over(M, self.a), M // den
        xs = [a + x * f for pair in zip(lo, hi) for x in pair]
        k = bisect_left(xs, M)
        return [Fraction(x - M, M) for x in xs[k:]] + [Fraction(x, M) for x in xs[:k]]

    def edge_chords(self, depth: int) -> List[Chord]:
        u0, u1 = self.hole_length - THIRD, THIRD  # parameters of the co-major endpoints
        out = [self.major, self.co_major]
        levels = zip(self._numerator_levels(u0), self._numerator_levels(u1))
        for (lo, den), (hi, _) in islice(levels, 1, depth + 1):
            out += [Chord((self.a + Fraction(x, den)) % 1, (self.a + Fraction(y, den)) % 1)
                    for x, y in zip(lo, hi)]
        return out

    def _bits(self, M: int) -> Callable[[int], Optional[int]]:
        """psi's bit of v/M: 0 on the arc at a, 1 at b, None off the horseshoe."""
        a, h = _arc_over(M, self.hole)
        lo, hi = h - M // 3, M // 3  # the arc at a ends at lo, the arc at b starts at hi
        return lambda v: 0 if (v - a) % M <= lo else 1 if hi <= (v - a) % M <= h else None


def vassal(U: GapGen) -> VassalGap:
    if U.period is None:
        raise ValueError("only periodic-type gaps have a vassal")
    return VassalGap(hole=U.hole, period=U.period)


# ---------------------------------------------------------------------------
# boundary collapse onto the doubling map


def psi_values(U, N: int, xs: Iterable[int]) -> Dict[int, Optional[Tuple[int, int]]]:
    """psi of each point x/N, x in `xs`, as the reduced (p, q) of p/q in [0, 1),
    or None off U's basis.  A walk of the gap's map stops at a point already
    valued or on closing a cycle, valued sum b_i 2^(n-1-i)/(2^n - 1) by the
    `_bits` rule; each point before it has psi(x) = (b(x) + psi(sigma x)) / 2
    and is off the basis iff its walk meets one.  Only the result is mod 1."""
    M = lcm(3, N, U.hole.start.denominator, U.hole.end.denominator)
    f, step, bit = M // N, U._step, U._bits(M)
    val, out = {}, {}  # psi as p/q in [0, 1] over M, and as the result over N
    for x in xs:
        if x in out:
            continue
        path: Dict[int, Optional[int]] = {}  # the walk's points and their bits
        y = x * f
        while y not in val and y not in path:
            path[y] = bit(y)
            y = step * y % M
        tail = list(path)
        if y in path:  # a new cycle, from y on
            i = tail.index(y)
            cycle, tail = tail[i:], tail[:i]
            bits = [path[z] for z in cycle]
            if None in bits:
                val.update(dict.fromkeys(cycle))
            else:
                q, p = (1 << len(bits)) - 1, int("".join(map(str, bits)), 2)
                for z, b in zip(cycle, bits):
                    val[z] = (p, q)
                    p = 2 * p - b * q
        v = val[y]
        for z in reversed(tail):
            b = path[z]
            val[z] = v = None if v is None or b is None else (b * v[1] + v[0], 2 * v[1])
        if v is not None:  # psi of x, the walk's first point
            p, q = v[0] % v[1], v[1]
            v = p // gcd(p, q), q // gcd(p, q)
        out[x] = v
    return out


def psi(U, x: Fraction) -> Fraction:
    """Collapse a basis point of a quadratic gap to its doubling-map angle, by
    `psi_values`: the itinerary of x on the gap's two bit arcs (under sigma,
    or sigma^k for a vassal), read in binary; the hole-start side reads 0."""
    y = x.numerator % x.denominator
    v = psi_values(U, x.denominator, (y,))[y]
    if v is None:
        raise ValueError(f"{format_angle(x)} is not in the basis of {U!r}")
    return Fraction(*v)
