"""Finitely presented invariant laminations.

A lamination here is a truncated leaf set generated by Thurston pullback
through a critical portrait: a few critical polygons, d - 1 critical chords'
worth, one inside each critical gap of a registered family (the quadratic
gaps of `quadgap` with their vassal cycle, and the Fatou gaps attached to a
rotational polygon), plus any critical seed leaf.  A leaf's siblings are the
preimage pairs that cross no polygon.  The registry travels with the
lamination: the .lam file records it, and cleaning, projection and the SMP
classifier read it.  Invariance is checked leaf by leaf.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, compress, count, islice, repeat
from math import gcd, lcm
from operator import add, eq, le, lt, mul
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .chords import Chord, format_chord, is_critical, parse_chord
from .circle import (
    Arc,
    _angle_parts,
    _over,
    fixed_points,
    format_angle,
    orbit,
    preimages,
    sigma,
)
from .core import rotational_census
from .lamsets import (
    LamSet,
    classify_rotational,
    format_lamset,
    parse_lamset,
)
from .quadgap import (
    GAP_KINDS,
    GapGen,
    LeafBudgetError,
    VassalGap,
    _hold_budget,
    _leaf_period,
    _parse_arc,
    below_diameter,
    classify_critical,
    parse_fields,
    psi_values,
    vassal,
)

class PullbackAmbiguityError(RuntimeError):
    """A leaf had other than d sibling candidates crossing no polygon of the
    critical portrait.  The constructions choose the portrait's critical
    values off the leaf endpoints, so this cannot happen; the check stays
    so that a wrong portrait fails loudly instead of guessing."""


# The most leaves a pullback may build: fingap1 at depth 12, bounded by
# 4 782 966 leaves, still builds.
_LEAF_BUDGET = 5_000_000


# ---------------------------------------------------------------------------
# gap region types beyond quadgap


@dataclass(frozen=True)
class FiniteRegion:
    """A finite laminational set registered as a gap (or single leaf)."""

    base: LamSet

    def serialize(self) -> str:
        return f"kind=finite degree={self.base.degree_d} vertices={format_lamset(self.base)}"


@dataclass(frozen=True)
class ImageGap:
    """Forward image sigma^power of a base gap (used for the vassal cycle)."""

    base: VassalGap
    power: int

    def serialize(self) -> str:
        return f"kind=vassal-image power={self.power} {self.base.serialize().removeprefix('kind=vassal ')}"


@dataclass(frozen=True)
class AttachedGap:
    """The Fatou gap attached to edge `index` of a rotational set G.

    Its basis consists of the points x whose iterates track the hole cycle:
    sigma^s(x) stays in the closure of the hole that edge `index` reaches
    after s steps."""

    base: LamSet
    index: int

    @property
    def is_critical(self) -> bool:
        """The gap's hole, from vertex `index` to the next, is a major hole:
        d times its length is at least 1."""
        M, xs, i = self.base.M, self.base.nums, self.index
        return self.base.degree_d * ((xs[(i + 1) % len(xs)] - xs[i]) % M) >= M

    def serialize(self) -> str:
        return (f"kind=attached degree={self.base.degree_d} "
                f"set={format_lamset(self.base)} index={self.index}")


def attached_cycle(G: LamSet) -> List[AttachedGap]:
    """All Fatou gaps attached to the edges of a rotational set (none for a point)."""
    return [AttachedGap(G, i) for i in range(len(G) if len(G) > 1 else 0)]


# ---------------------------------------------------------------------------
# the lamination type


def _column(values: List[int]) -> Sequence[int]:
    """`values` as an array of 64-bit integers, or the list itself when one
    of them does not fit in 64 bits, as a key a * N + b may once
    N * N > 2**63."""
    try:
        return array("q", values)
    except OverflowError:
        return values


class Leaves(Mapping):
    """The leaves of a lamination, stored as integers in two flat arrays
    sorted by key: `packed` holds each leaf as the one integer a * N + b,
    where a <= b are the leaf's endpoint numerators over the common
    denominator `N`, and `levels` holds the leaf's level at the same
    position.  Since 0 <= b < N, packed keys sort in the order of the pairs
    (a, b), and a leaf (a, a) packs to a * (N + 1).  Other modules build a
    store only with `from_pairs`, which fixes N, and read the leaves through
    `pairs`, the decoded (a, b) in sorted order.

    As a mapping it is the public, read-only Chord -> level view of that
    store.  Length, membership and lookup work on the integers, a lookup by
    bisecting the keys; only iteration builds Chords, in sorted order."""

    def __init__(self):
        """The empty store; `from_pairs` builds any other."""
        self.N, self.packed, self.levels = 1, array("q"), array("q")

    @classmethod
    def _from_packed(cls, N: int, packed: Dict[int, int]) -> "Leaves":
        """The store over N of a packed key -> level dict, whose keys must
        already be a * N + b with 0 <= a <= b < N: one sort of the keys and
        one gather of their levels, both in C."""
        keys = sorted(packed)
        return cls._from_sorted(N, keys, list(map(packed.__getitem__, keys)))

    @classmethod
    def _from_sorted(cls, N: int, keys: List[int], levels: List[int]) -> "Leaves":
        """The store over N of packed keys a * N + b, 0 <= a <= b < N, that
        are already strictly ascending, with the level of each."""
        store = cls.__new__(cls)
        store.N, store.levels = N, _column(levels)
        del levels  # a list built for this call is freed before the keys' array is
        store.packed = _column(keys)
        return store

    @classmethod
    def from_pairs(cls, N: int, pairs: Mapping[Tuple[int, int], int]) -> "Leaves":
        """The store of an (a, b) -> level mapping, 0 <= a <= b < N; any
        other pair would pack to another leaf's key, so it raises."""
        bad = next((p for p in pairs if not 0 <= p[0] <= p[1] < N), None)
        if bad is not None:
            raise ValueError(f"pair {bad} is not 0 <= a <= b < N = {N}")
        return cls._from_packed(N, {a * N + b: lvl for (a, b), lvl in pairs.items()})

    @classmethod
    def from_chords(cls, chords: Mapping[Chord, int]) -> "Leaves":
        """The store of a Chord -> level mapping, over the lcm of its
        endpoint denominators."""
        N = lcm(*{x.denominator for c in chords for x in (c.a, c.b)})
        return cls.from_pairs(N, {(_over(N, c.a), _over(N, c.b)): lvl
                                  for c, lvl in chords.items()})

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """The endpoint numerators (a, b) of each leaf, in sorted order."""
        return map(divmod, self.packed, repeat(self.N))

    def values(self) -> ValuesView:
        """The levels, in sorted order of the leaves."""
        return _LeafValues(self)

    def chord(self, pair: Tuple[int, int]) -> Chord:
        return Chord(Fraction(pair[0], self.N), Fraction(pair[1], self.N))

    def _position(self, c) -> Optional[int]:
        """The position of the leaf c in the arrays, or None if c is no
        leaf: not a chord, not on multiples of 1/N, or not stored."""
        if not isinstance(c, Chord):
            return None
        N, qa, qb = self.N, c.a.denominator, c.b.denominator
        if N % qa or N % qb:
            return None
        k = c.a.numerator * (N // qa) * N + c.b.numerator * (N // qb)
        i = bisect_left(self.packed, k)
        return i if i < len(self.packed) and self.packed[i] == k else None

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Chord]:
        return map(self.chord, self.pairs())

    def __contains__(self, c) -> bool:
        return self._position(c) is not None

    def __getitem__(self, c: Chord) -> int:
        i = self._position(c)
        if i is None:
            raise KeyError(c)
        return self.levels[i]

    def items(self) -> ItemsView:
        return _LeafItems(self)

    def _over(self, M: int) -> Sequence[int]:
        """The sorted packed keys over a multiple M of N.  (a, b) packs to
        (a * M + b) * (M // N) there, which keeps the order of the keys."""
        if M == self.N:
            return self.packed
        f = M // self.N
        return _column([(a * M + b) * f for a, b in self.pairs()])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Leaves):
            return Mapping.__eq__(self, other)
        if len(self) != len(other) or self.levels != other.levels:
            return False
        M = lcm(self.N, other.N)
        return self._over(M) == other._over(M)

    def __repr__(self) -> str:
        return f"<{len(self)} leaves over N={self.N}>"


class _LeafItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.levels)


class _LeafValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.levels)


@dataclass
class Lamination:
    d: int
    depth: int
    recipe: str
    # leaf -> level; a Chord -> level mapping passed in is stored as Leaves
    leaves: Leaves = field(default_factory=Leaves)
    gaps: List[object] = field(default_factory=list)  # registered regions, in file order
    registry_complete: bool = False

    def __post_init__(self):
        if not isinstance(self.leaves, Leaves):
            self.leaves = Leaves.from_chords(self.leaves)

    def __len__(self):
        return len(self.leaves)

    def __repr__(self):
        return f"Lamination(d={self.d}, depth={self.depth}, {len(self.leaves)} leaves)"


# ---------------------------------------------------------------------------
# pullback engine


Polygon = Tuple[Fraction, ...]


def _gap_polygon(U: GapGen, seeds: Sequence[Chord]) -> Polygon:
    """The critical polygon inside the quadratic gap U: the preimages of
    sigma(x) that lie in U's basis, for the first x = j/(3^m - 1), by m and
    then j, that is a basis point of U whose orbit misses the forward
    orbits of the seed endpoints."""
    avoid = {y for s in seeds for e in (s.a, s.b) for y in orbit(3, e)}
    for m in count(1):
        q = 3 ** m - 1
        for x in map(Fraction, range(q), repeat(q)):
            if U.in_basis(x) and avoid.isdisjoint(orbit(3, x)):
                return tuple(y for y in preimages(3, sigma(3, x)) if U.in_basis(y))


def _vassal_chord(V: VassalGap) -> Polygon:
    """The critical chord of the vassal gap V, from a + u* to a + u* + 1/3.
    u* is the fixed point of g0(g1(u)) = h/K - h/K^2 + u/K^2, the return
    map's inverse branches g0(u) = u/K and g1(u) = h - (h - u)/K composed
    (h the hole length, K = 3^period): u* = h / (K + 1)."""
    u = V.hole_length / (3 ** V.period + 1)
    return (V.a + u) % 1, (V.a + u + Fraction(1, 3)) % 1


def _attached_polygon(g: AttachedGap) -> Polygon:
    """The critical polygon of a critical attached gap i of G: the delta
    preimages x + k/d (k < delta) of sigma(x) in hole i, where
    delta = 1 + d*l_i - l_{i+p} is the gap's degree, l the hole lengths and
    p/n the rotation number of G, so that edge i maps to edge i + p.

    In local coordinates u on a hole the inverse branches are
    u -> (u + k)/d, k < delta.  x is the fixed point of the word that goes
    twice around the c-hole cycle of hole i with k = 0, except k = 1 at the
    first critical step of the second pass, which is hole i itself:
    u = d^(c-1) / (d^(2c) - 1).  That is a basis point strictly inside the
    hole and off the cycle of G.  All of it runs on numerators over M."""
    G, i, d, n = g.base, g.index, g.base.degree_d, len(g.base)
    M, nums = G.M, G.nums
    p = nums.index(d * nums[0] % M)  # the shift i -> i + p of G's vertices
    ell = [(nums[(j + 1) % n] - nums[j]) % M for j in (i, (i + p) % n)]
    delta = 1 + (d * ell[0] - ell[1]) // M
    c = n // gcd(n, p)  # the denominator of the rotation number p/n
    K = d ** (2 * c) - 1  # x + k/d, x = vs[i] + d^(c-1)/K, over D = d * K * M
    D, x = d * K * M, (nums[i] * K + M * d ** (c - 1)) * d
    return tuple(Fraction((x + k * K * M) % D, D) for k in range(delta))


def _critical_portrait(d: int, seeds: Sequence[Chord],
                       regions: Sequence[object]) -> List[Polygon]:
    """The critical portrait of a construction: each critical seed as a
    2-gon, and one critical polygon inside each critical registered gap
    (a quadratic gap, a vassal gap or a critical attached gap)."""
    portrait: List[Polygon] = [(s.a, s.b) for s in seeds if is_critical(d, s)]
    for R in regions:
        if isinstance(R, GapGen):
            portrait.append(_gap_polygon(R, seeds))
        elif isinstance(R, VassalGap):
            portrait.append(_vassal_chord(R))
        elif isinstance(R, AttachedGap) and R.is_critical:
            portrait.append(_attached_polygon(R))
    return portrait


def _format_portrait(portrait: Sequence[Polygon]) -> str:
    return " ".join("{" + ",".join(map(format_angle, P)) + "}" for P in portrait)


def hold_leaf_budget(d: int, seeds: int, depth: int) -> None:
    """Raise ValueError on a negative depth, and LeafBudgetError when a
    pullback of `seeds` seeds, `depth` levels deep, may build more than
    _LEAF_BUDGET leaves.  Level k adds at most seeds * d**k leaves, so the
    bound is seeds * (d**(depth + 1) - 1) / (d - 1); past the budget's bit
    length in depth, d**depth alone exceeds the budget, so the bound is
    computed and named only at that depth, as a lower bound."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    _hold_budget(depth, lambda n: seeds * (d ** (n + 1) - 1) // (d - 1), _LEAF_BUDGET,
                 "build", "leaves", "leaf")


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
    level.  The leaves are returned as one store, each packed as a * N + b
    and sorted by key.

    Before level 1 `hold_leaf_budget` holds the leaf bound against the
    budget, and a deeper build raises LeafBudgetError naming both.

    The siblings of a leaf are planned once per pair of endpoint places.
    The critical values d*v mod N of the portrait vertices v cut the circle
    into open arcs, and the place of a point is the value it sits on or the
    arc it lies in: one bisect_right into the list of c and c + 1 for each
    value c, odd on a value and even on an arc.  A pair (p, q), p <= q,
    crosses a polygon P iff bisect_right(P, p) < bisect_left(P, q) and
    (P[0] < p or P[-1] > q).  That depends only on where p and q sit among
    the vertices of P, and the preimage x // d + k * (N // d) of x stays
    between the same two vertices while x stays inside one arc.  So which
    of the d * d candidate pairs of a leaf (a, b), as offsets from (a // d,
    b // d), cross no polygon depends only on the places of a and b, and
    each plan is built on first use from the first leaf with those places.
    A pair that is already a leaf is a sibling whether or not it crosses."""
    hold_leaf_budget(d, len(seeds), depth)
    if sum(len(P) - 1 for P in portrait) != d - 1 or any(
            len({sigma(d, x) for x in P}) != 1 for P in portrait):
        raise ValueError(f"not a critical portrait of sigma_{d}: "
                         f"{_format_portrait(portrait)}")
    N = lcm(d ** depth * lcm(*(x.denominator for s in seeds for x in (s.a, s.b))),
            *(x.denominator for P in portrait for x in P))

    def fmt(c: int) -> str:
        a, b = divmod(c, N)
        return format_chord(Chord(Fraction(a, N), Fraction(b, N)))

    polys = [sorted(_over(N, x) for x in P) for P in portrait]
    cuts = sorted(c + e for c in {d * v % N for P in polys for v in P} for e in (0, 1))
    leaves: Dict[int, int] = {_over(N, s.a) * N + _over(N, s.b): 0 for s in seeds}
    frontier = list(leaves)
    step = N // d
    offsets = [k * step for k in range(d)]
    # plans[i, j]: (swap, offset, free) for each candidate (a // d + u,
    # b // d + v) of a leaf (a, b) whose endpoints have the places i and j,
    # in the order of the preimages of a, then of b.  With x, y = a // d,
    # b // d it packs to x * N + y + u * N + v, or, swapped when u > v, to
    # y * N + x + v * N + u; free if it crosses no polygon
    plans: Dict[Tuple[int, int], List[Tuple[bool, int, bool]]] = {}
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            a, b = divmod(leaf, N)
            x, y = a // d, b // d
            key = bisect_right(cuts, a), bisect_right(cuts, b)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = [
                    (u > v, u * N + v if u <= v else v * N + u,
                     not any(bisect_right(P, p) < bisect_left(P, q)
                             and (P[0] < p or P[-1] > q) for P in polys))
                    for u in offsets for v in offsets
                    for p, q in [(x + u, y + v) if u <= v else (y + v, x + u)]]
            xy, yx = x * N + y, y * N + x
            valid = [c for swap, off, free in plan
                     for c in [(yx if swap else xy) + off]
                     if free or c in leaves]
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
    return Leaves._from_packed(N, leaves)


def canonical_of_quadratic_gap(U: GapGen, depth: int = 6) -> Lamination:
    """The unique invariant lamination having U (and, for periodic type, the
    vassal cycle) among its gaps: pullback closure of the major orbit."""
    regions: List[object] = [U]
    if U.period is not None:
        # The co-major M'' shares its image with M, so the pullback of the
        # major orbit discovers it (and with it all vassal-cycle edges);
        # seeding from the orbit alone makes the construction independent of
        # which gap of the lamination U happens to be.
        V = vassal(U)
        regions += [V] + [ImageGap(V, i) for i in range(1, U.period)]
    seeds = [e for e, _ in U.base_edges()]
    portrait = _critical_portrait(3, seeds, regions)
    leaves = _pullback_closure(3, seeds, portrait, depth)
    return Lamination(
        d=3, depth=depth, recipe=f"quadratic-gap:{format_chord(U.major)}",
        leaves=leaves, gaps=regions, registry_complete=True,
    )


def canonical_diameter(depth: int = 6) -> Lamination:
    """The lamination whose gaps include both diameter gaps FG_a and FG_b."""
    L = canonical_of_quadratic_gap(below_diameter(), depth)
    L.recipe = "diameter"
    return L


def canonical_of_rotational(G: LamSet, depth: int = 6) -> Lamination:
    """Canonical lamination of a rotational set: attach the Fatou gaps that
    track the hole cycle, then pull back the edges of G through a critical
    polygon inside each critical attached gap."""
    rep = classify_rotational(G)
    if not (rep.is_rotational or rep.diameter_special):
        raise ValueError("canonical construction needs a rotational set")
    d, vs, n = G.degree_d, G.vertices, len(G)
    cycle = attached_cycle(G)
    seeds = sorted({Chord(vs[i - 1], vs[i]) for i in range(n)})  # the edges of G
    leaves = _pullback_closure(d, seeds, _critical_portrait(d, seeds, cycle), depth)
    tag = "rotational" if d == 3 else "quadratic-d2"
    return Lamination(
        d=d, depth=depth, recipe=f"{tag}:{format_lamset(G)}",
        leaves=leaves, gaps=[FiniteRegion(G), *cycle], registry_complete=True,
    )


def quadratic_canonical(G2: LamSet, depth: int = 6) -> Lamination:
    """sigma_2 analogue: the unique quadratic lamination with a cycle of
    Fatou gaps attached to the edges of the rotational set G2."""
    if G2.degree_d != 2:
        raise ValueError("quadratic canonical lamination needs a degree-2 set")
    return canonical_of_rotational(G2, depth)


# ---------------------------------------------------------------------------
# invariance checking


@dataclass
class InvarianceReport:
    leaf_count: int
    linked_pairs: List[Tuple[Chord, Chord]]  # examples, at most 20
    linked_count: int  # every crossing pair
    forward_missing: List[Chord]
    sibling_missing: List[Chord]
    gap_violations: List[str]

    @property
    def ok(self) -> bool:
        return not (self.linked_pairs or self.forward_missing
                    or self.sibling_missing or self.gap_violations)

    def lines(self) -> List[str]:
        out = [f"leaves: {self.leaf_count}",
               f"linked_pairs: {self.linked_count}",
               f"forward_missing: {len(self.forward_missing)}",
               f"sibling_missing: {len(self.sibling_missing)}",
               f"gap_violations: {len(self.gap_violations)}",
               f"ok: {str(self.ok).lower()}"]
        for a, b in self.linked_pairs[:10]:
            out.append(f"  linked: {format_chord(a)} x {format_chord(b)}")
        for c in self.forward_missing[:10]:
            out.append(f"  image missing for: {format_chord(c)}")
        for c in self.sibling_missing[:10]:
            out.append(f"  sibling collection incomplete: {format_chord(c)}")
        for msg in self.gap_violations[:10]:
            out.append(f"  gap: {msg}")
        return out


_LINKED_LIMIT = 20  # the crossing pairs an invariance report lists


def _longest_first(keys: Sequence[int], N: int) -> Iterator[Tuple[int, int]]:
    """The pairs (a, b) of sorted packed keys a * N + b in the order
    (a, -b), a stable sort by a of the reversed list, each decoded as it is
    read."""
    return map(divmod, sorted(reversed(keys), key=N.__rfloordiv__), repeat(N))


def _find_linked_pairs(keys: Sequence[int], N: int
                       ) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """At most _LINKED_LIMIT crossing pairs in a family of distinct chords
    given as sorted packed keys, O(n log n) when the family is laminar
    (intervals [a, b] pairwise nested or disjoint).  The chords are scanned
    in the order (a, -b).  Every pair returned crosses, and the result is
    empty only for a laminar family; past the first crossing the stack is
    no longer a nested chain, so not every crossing pair is found."""
    out = []
    stack: List[Tuple[int, int]] = [(-1, N)]  # a sentinel around every chord
    for c in _longest_first(keys, N):
        a, b = c
        top = stack[-1]
        while top[1] <= a:
            stack.pop()
            top = stack[-1]
        # the top ends past a, so c crosses it iff it starts before a and
        # ends before b; on a laminar family it never does
        if top[0] < a and top[1] < b:
            for anc in reversed(stack):
                # below the top the stack may hold chords ending before a
                if anc[0] < a < anc[1] < b:
                    out.append((anc, c))
                    if len(out) >= _LINKED_LIMIT:
                        return out
                else:
                    break
        stack.append(c)
    return out


def _count_crossings(keys: Sequence[int], N: int) -> int:
    """The number of crossing pairs in a family of distinct chords given as
    sorted packed keys, in O(n log n).  The chords are taken in the order
    (a, -b); a Fenwick tree over the sorted endpoints counts the earlier
    chords whose b' lies strictly inside (a, b).  Those have a' < a, since
    an earlier chord with a' == a has b' > b.  Degenerate chords (a == b)
    cross nothing."""
    pts = sorted({x for k in keys if k % (N + 1) for x in divmod(k, N)})
    rank = {x: i + 1 for i, x in enumerate(pts)}
    tree = [0] * (len(pts) + 1)

    def below(i: int) -> int:  # inserted ends of rank <= i
        n = 0
        while i:
            n += tree[i]
            i &= i - 1
        return n

    total = 0
    for a, b in _longest_first(keys, N):
        if a == b:
            continue
        total += below(rank[b] - 1) - below(rank[a])
        i = rank[b]
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return total


def _crosses(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    """`chords.linked` for endpoint pairs a <= b on a common scale."""
    return x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1]


def _gap_polygons(keys: Sequence[int], N: int) -> Iterator[List[int]]:
    """The vertices c0 < ... < c(n-1), n >= 3, of each connected component
    of the endpoint graph whose sides (ci, ci+1) and (c0, c(n-1)) are all
    leaves, in sorted order, for the sorted packed keys of the leaves.

    In such a component the smallest b among the leaves (ci, b) is ci+1 and
    the largest b among the leaves (c0, b) is c(n-1).  So a walk along the
    smallest b starts at each a with two different b, and is dropped unless
    it reaches the largest.  A walk is a component iff it is closed: the
    degrees of its vertices sum to twice the number of leaves among them,
    self-loops included.  That also drops a walk from an a that ends a side
    (x, a): x < a lies outside the walk.

    When no a starts two sides there is no polygon, and the degree,
    smallest-b and repeat tables are not built."""
    sides = [k for k in keys if k % (N + 1)]  # the leaf (a, a) packs to a * (N + 1)
    starts = list(map(N.__rfloordiv__, sides))

    def repeats() -> Iterator[int]:  # the a of each side (a, b) past its first
        return compress(starts, map(eq, starts, islice(starts, 1, None)))

    if next(repeats(), None) is None:
        return
    degree = Counter(starts)
    degree.update(map(N.__rmod__, sides))
    if len(sides) < len(keys):  # a leaf (a, a) adds 2 to the degree of a
        degree.update({k // N: 2 for k in keys if not k % (N + 1)})
    first = dict(zip(reversed(starts), reversed(sides)))
    # the a of two or more sides (a, b), in order; built after `first`, so
    # that it is not alive while `first` grows
    more = dict.fromkeys(repeats())
    del sides, starts  # this frame stays alive through every walk below
    stop = N * N  # no key reaches it: a walk that finds no side ends past N
    for a in more:
        end = keys[bisect_left(keys, (a + 1) * N) - 1] - a * N
        walk = [a]
        v = first[a] - a * N
        while v < end:
            walk.append(v)
            v = first.get(v, stop) - v * N
        if v != end:
            continue
        walk.append(end)
        degrees = sum(map(degree.__getitem__, walk))
        if degrees != 2 * len(walk):
            members = set(walk)
            inside = 0
            for v in walk:
                i = bisect_left(keys, v * N)
                inside += sum(k - v * N in members
                              for k in keys[i:bisect_left(keys, (v + 1) * N, i)])
            if degrees != 2 * inside:
                continue
        yield walk


def _holes_map_to_holes(imgs: Sequence[int]) -> bool:
    """Whether each hole of a polygon maps onto a hole of its image polygon,
    for the images of its vertices c0 < ... < c(n-1) in that order: whether
    each step between two different images goes to the next image point.

    In closed form: with m distinct image points, r steps between two
    different images and w cyclic descents, iff r == m * w.  A step moves
    at least one place forward among the m points, and the steps of the
    closed walk go around m * w places in total."""
    r = w = 0
    prev = imgs[-1]
    for u in imgs:
        if u != prev:
            r += 1
            if u < prev:
                w += 1
        prev = u
    return r == len(set(imgs)) * w


def check_invariance(L: Lamination) -> InvarianceReport:
    """Leaf-by-leaf invariance check: linked pairs, forward images, sibling
    collections of leaves below the truncation depth, and holes of the
    finite gap polygons.

    The check runs on the lamination's packed integer store: numerators over
    one denominator N, whose order is angle order, and sigma_d is
    x -> d*x mod N.  It walks the store's sorted packed keys and levels as
    they stand and decodes each key only while it uses it; a pair, a Chord
    and angles are built only for a leaf in the report.  The crossing pairs
    are counted only when the scan for examples has found one.

    The images are counted in one pass over the sorted leaves: the forward
    and sibling checks first find the distinct non-degenerate images that
    may fail, and compute the images again only when there are some.  An
    image fails the forward check when it is no leaf.  A leaf below the
    truncation depth fails the sibling check unless it and d - 1 other
    leaves with its image are pairwise unlinked.  Only a leaf whose image
    is suspect is searched: an image is suspect when fewer than d leaves
    share it, or when the family has a crossing.  When the scan finds no
    crossing the family is laminar, so any d leaves with one image pass,
    and the suspect images are those with fewer.  The gap polygons are
    found by `_gap_polygons`, and each is tested in closed form by
    `_holes_map_to_holes` on the images of its vertices; only a polygon that
    fails is walked with a successor table, which names its holes that do
    not map to a hole, in vertex order."""
    d = L.d
    N, keys, levels = L.leaves.N, L.leaves.packed, L.leaves.levels

    def chord(k: int) -> Chord:
        return L.leaves.chord(divmod(k, N))

    def images() -> Iterator[int]:
        """The packed image of each leaf, in sorted order."""
        for a, b in map(divmod, keys, repeat(N)):
            u, v = d * a % N, d * b % N
            yield u * N + v if u <= v else v * N + u

    linked = _find_linked_pairs(keys, N)
    linked_pairs = [(L.leaves.chord(x), L.leaves.chord(y)) for x, y in linked]

    share = Counter(images())
    loop = N + 1  # an image is degenerate iff it is a multiple of N + 1
    missing = {img for img in share.keys() - keys if img % loop}
    forward_missing = [chord(c) for c, img in zip(keys, images())
                       if img in missing] if missing else []

    suspect = {img for img, k in share.items() if (linked or k < d) and img % loop}
    del share  # before the polygon walk's tables
    by_image: Dict[int, List[int]] = {img: [] for img in suspect}
    found = []  # the suspect leaves below the truncation depth, with their images
    if suspect:
        for c, img, lvl in zip(keys, images(), levels):
            if img in suspect:
                by_image[img].append(c)
                if lvl < L.depth:
                    found.append((c, img))

    def has_collection(c, img) -> bool:
        others = [x for x in by_image[img] if x != c]
        return any(
            not any(_crosses(divmod(x, N), divmod(y, N))
                    for x, y in combinations((c,) + combo, 2))
            for combo in combinations(others, d - 1))

    sibling_missing = [chord(c) for c, img in found if not has_collection(c, img)]

    gap_violations = []
    for cls in _gap_polygons(keys, N):
        imgs = [d * v % N for v in cls]
        if _holes_map_to_holes(imgs):
            continue
        n = len(cls)
        img_pts = sorted(set(imgs))
        succ = dict(zip(img_pts, img_pts[1:] + img_pts[:1]))
        for i in range(n):
            u, v = imgs[i], imgs[(i + 1) % n]
            if u != v and succ[u] != v:
                gap_violations.append(
                    f"hole ({format_angle(Fraction(cls[i], N))},"
                    f"{format_angle(Fraction(cls[(i + 1) % n], N))}) "
                    f"does not map to a hole of its image polygon"
                )
    return InvarianceReport(
        leaf_count=len(keys),
        linked_pairs=linked_pairs,
        linked_count=_count_crossings(keys, N) if linked_pairs else 0,
        forward_missing=forward_missing,
        sibling_missing=sibling_missing,
        gap_violations=gap_violations,
    )


# ---------------------------------------------------------------------------
# cleaning


@dataclass
class CleanReport:
    final: Lamination
    removed_per_stage: List[int]
    super_gap_count: int
    whole_disk: bool

    def lines(self) -> List[str]:
        out = [f"stages: {len(self.removed_per_stage)}"]
        for i, r in enumerate(self.removed_per_stage, 1):
            out.append(f"  stage {i}: removed {r} leaves")
        out.append(f"final_leaves: {len(self.final.leaves)}")
        out.append(f"super_gaps: {self.super_gap_count}")
        out.append(f"whole_disk: {str(self.whole_disk).lower()}")
        return out


def clean(L: Lamination) -> CleanReport:
    """The cleaned lamination of L, in one stage: every leaf removed and the
    whole disk as the single super-gap.  No leaf is tested.

    This is the theorem-backed answer for a complete registry: the
    constructors register every base gap and each pullback step carries
    gaps along, so in a canonical lamination every leaf borders two gaps and
    is isolated.  Merging the gaps across all the leaves leaves one region,
    the whole disk.  Without a complete registry, isolation cannot be
    decided at a finite truncation, so L is rejected.
    """
    if not L.registry_complete:
        raise ValueError(
            "cleaning requires a complete gap registry; isolation is "
            "undecidable for a bare truncated leaf set"
        )
    removed = len(L.leaves)
    empty = replace(L, leaves={}, gaps=list(L.gaps))
    return CleanReport(final=empty, removed_per_stage=[removed],
                       super_gap_count=1, whole_disk=True)


# ---------------------------------------------------------------------------
# projection through a quadratic gap


def project_through_gap(U: GapGen, L: Lamination) -> Lamination:
    """Collapse L through the boundary map of U: leaves with both endpoints
    in U's basis map endpoint-wise by psi; degenerate images are dropped.

    The crossing test with the major runs on numerators over the lcm of N and
    the major's denominators.  `psi_values` values the distinct endpoints in
    one walk of their orbits; the images are stored over their denominators' lcm."""
    major, N = U.major, L.leaves.N
    M = lcm(N, major.a.denominator, major.b.denominator)
    f = M // N
    m = _over(M, major.a), _over(M, major.b)
    value = psi_values(U, N, chain.from_iterable(L.leaves.pairs()))
    images = {}  # (psi a, psi b) of each leaf kept, in leaf order
    for a, b in L.leaves.pairs():
        if _crosses((a * f, b * f), m):
            raise ValueError(f"leaf {format_chord(L.leaves.chord((a, b)))} "
                             f"crosses the major {format_chord(major)}")
        pa, pb = value[a], value[b]
        if pa is not None and pb is not None and pa != pb:
            images[pa, pb] = None
    D = lcm(*{q for pair in images for _, q in pair})
    ends = [sorted((p * (D // q), r * (D // s))) for (p, q), (r, s) in images]
    return Lamination(
        d=2, depth=L.depth, recipe=f"projected:{L.recipe}", registry_complete=False,
        leaves=Leaves._from_packed(D, {x * D + y: L.depth for x, y in ends}))


# ---------------------------------------------------------------------------
# SMP classification


@dataclass
class SmpVerdict:
    case_tag: str  # CanonicalQuadraticGap | CanonicalTypeD | RotationalInsideQuadraticGap | NotSMP | Empty
    period_bound: int
    witness_rotational: Optional[LamSet] = None
    witness_type: Optional[str] = None
    witness_quadratic: Optional[GapGen] = None
    certified: bool = True
    note: str = ""

    _CASE_NUM = {
        "CanonicalQuadraticGap": 1,
        "CanonicalTypeD": 2,
        "RotationalInsideQuadraticGap": 3,
    }

    @property
    def in_smp(self) -> bool:
        return self.case_tag in self._CASE_NUM

    def lines(self) -> List[str]:
        out = [f"in_smp: {str(self.in_smp).lower()}"]
        num = self._CASE_NUM.get(self.case_tag)
        if num is not None:
            tail = f" type={self.witness_type}" if self.witness_type else ""
            out.append(f"case={num}{tail}")
        out.append(f"verdict: {self.case_tag}")
        if self.witness_rotational is not None:
            out.append(f"rotational_witness: {format_lamset(self.witness_rotational)}")
        if self.witness_quadratic is not None:
            out.append(f"quadratic_witness: {self.witness_quadratic.serialize()}")
        out.append(f"period_bound: {self.period_bound}")
        if not self.certified:
            out.append("certified: false (period bound may be insufficient)")
        if self.note:
            out.append(f"note: {self.note}")
        return out


_WITNESS_MAX_PERIOD = 6


def _witness_quadratic_gap(points: Set[Fraction]) -> Optional[GapGen]:
    """A periodic-type invariant quadratic gap whose basis contains every
    given point: scan periodic majors by increasing period, up to
    _WITNESS_MAX_PERIOD, using the exact hole-length formula, and keep the
    first whose open hole misses all the points."""
    for k in range(1, _WITNESS_MAX_PERIOD + 1):
        h = Fraction(3 ** (k - 1), 3 ** k - 1)
        for a in fixed_points(3, k):
            U = GapGen(kind="periodic-type", hole=Arc(a, (a + h) % 1), period=k)
            if _leaf_period(3, U.major) != k:
                continue
            if any(0 < (x - a) % 1 < h for x in points):
                continue
            # validate: a critical chord centered in the hole must classify
            # as periodic type with exactly this major
            m0 = (a + (h - Fraction(1, 3)) / 2) % 1
            c = Chord(m0, (m0 + Fraction(1, 3)) % 1)
            try:
                cls = classify_critical(c)
            except ValueError:
                continue
            if cls.tag != "PeriodicType" or cls.major != U.major or cls.n_c != k:
                continue
            return U
    return None


def classify_smp(L: Lamination, period_bound: int = 6) -> SmpVerdict:
    """Decide membership in the simplest-core class: laminations with exactly
    one periodic rotational gap or leaf, all of whose edges are isolated.
    Without a rotational class, case 1 needs a registered invariant
    quadratic gap whose major is a leaf of L; that gap is the witness."""
    if L.d != 3:
        raise ValueError("SMP classification applies to degree-3 laminations")
    rc = rotational_census(L, period_bound)

    if len(rc) == 0:
        wq = next((g for g in L.gaps if isinstance(g, GapGen) and g.major in L.leaves),
                  None)
        if wq is not None:
            return SmpVerdict(case_tag="CanonicalQuadraticGap",
                              period_bound=period_bound, witness_quadratic=wq)
        if not L.leaves:
            return SmpVerdict(case_tag="Empty", period_bound=period_bound)
        return SmpVerdict(case_tag="NotSMP", period_bound=period_bound,
                          certified=L.registry_complete,
                          note="no periodic rotational class found up to the period bound")

    if len(rc) >= 2:
        return SmpVerdict(case_tag="NotSMP", period_bound=period_bound,
                          note=f"{len(rc)} rotational classes found")

    G, rep = rc[0]
    if rep.type_tag == "D":
        return SmpVerdict(case_tag="CanonicalTypeD", period_bound=period_bound,
                          witness_rotational=G, witness_type="D")
    # types A and B live inside an invariant quadratic gap (co-existence)
    U = _witness_quadratic_gap({x for v in G.vertices for x in orbit(3, v)})
    if U is None:
        return SmpVerdict(case_tag="NotSMP", period_bound=period_bound, certified=False,
                          note="single rotational class but no containing quadratic gap "
                               "found within the period bound; inconclusive")
    return SmpVerdict(case_tag="RotationalInsideQuadraticGap", period_bound=period_bound,
                      witness_rotational=G, witness_type=rep.type_tag, witness_quadratic=U)


# ---------------------------------------------------------------------------
# file format


def _leaf_lines(L: Lamination) -> List[str]:
    """The [leaves] lines of L in sorted order, each endpoint as a reduced
    p/q formatted once per distinct endpoint.  A level outside 0..depth
    raises ValueError naming the first such leaf.

    The store's sorted packed keys are decoded one at a time, and each
    level is read at its key's position.  An endpoint x is kept formatted
    from its first leaf (y, x) until its own leaves (x, b): later leaves
    start past x, so they neither start nor end at x."""
    N, keys, levels = L.leaves.N, L.leaves.packed, L.leaves.levels

    def fmt(x: int) -> str:
        if not x:
            return "0"
        g = gcd(x, N)
        return f"{x // g}/{N // g}"

    if levels and not 0 <= min(levels) <= max(levels) <= L.depth:
        i = next(i for i, lvl in enumerate(levels) if not 0 <= lvl <= L.depth)
        a, b = divmod(keys[i], N)
        raise ValueError(f"leaf {fmt(a)}-{fmt(b)} has level {levels[i]}, "
                         f"outside 0..{L.depth}")
    text: Dict[int, str] = {0: "0"}  # endpoints seen as b, until their own leaves
    lines = []
    start = None
    for k, lvl in zip(keys, levels):
        a, b = divmod(k, N)
        tb = text.get(b)
        if tb is None:  # fmt(b), inline: b > 0 here
            g = gcd(b, N)
            tb = text[b] = f"{b // g}/{N // g}"
        if a != start:
            start, ta = a, text.pop(a, None) or fmt(a)
        lines.append(f"{ta}-{tb} {lvl}")
    return lines


def dumps(L: Lamination) -> str:
    lines = [f"d={L.d} depth={L.depth} recipe={L.recipe}",
             f"registry={'complete' if L.registry_complete else 'partial'}",
             "[leaves]"]
    lines += _leaf_lines(L)
    lines.append("[gaps]")
    lines += [f"G{i} {g.serialize()}" for i, g in enumerate(L.gaps)]
    lines.append("")  # the text ends with a newline
    return "\n".join(lines)


class LamFormatError(ValueError):
    """Malformed .lam text; the message names the line."""


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


# A [leaves] block as `dumps` writes it: lines "p/q-p/q level\n" in ASCII
# digits, where only the first end may be the angle 0, written "0".
# Possessive, since no digit run need ever be given back.
_CANONICAL_BLOCK = re.compile(r"(?:(?:0|[0-9]++/[0-9]++)-[0-9]++/[0-9]++ [0-9]++\n)*+")
_CHUNK = 1 << 16  # characters of the [leaves] block split at once


def _canonical_leaves(text: str, start: int, end: int, depth: int) -> Optional[Leaves]:
    """The store of the [leaves] block text[start:end] if it is exactly what
    `dumps` writes: every line canonical, each level in 0..depth, each angle
    p/q reduced with p < q, each leaf a <= b, the leaves strictly ascending.
    Otherwise None.

    One regex fullmatch checks the spelling of the whole block.  Then a
    chunk of lines at a time is split into five fields a line, p, q, p, q
    and the level, and turned into columns at once, so its strings are
    freed: the numerators and levels as integers (each distinct level text
    read once), each denominator text kept once.  M is the lcm of those
    texts, and every later step maps a C function over whole columns, so no
    bytecode runs per leaf."""
    if not _CANONICAL_BLOCK.fullmatch(text, start, end):
        return None
    a, qa, b, qb, levels = [], [], [], [], []  # each end's p and q text; the level
    texts: Dict[str, str] = {}
    try:
        while start < end:
            stop = text.find("\n", min(start + _CHUNK, end - 1)) + 1
            # from the newline before the chunk, so that a first end "0" reads as 0/1
            f = text[start - 1:stop].replace("\n0-", "\n0/1-").replace("/", " ") \
                .replace("-", " ").split()
            a += map(int, f[0::5])
            b += map(int, f[2::5])
            qa += map(texts.setdefault, f[1::5], f[1::5])
            qb += map(texts.setdefault, f[3::5], f[3::5])
            level_texts = set(f[4::5])
            levels += map(dict(zip(level_texts, map(int, level_texts))).__getitem__, f[4::5])
            start = stop
        q = {t: int(t) for t in texts}
    except ValueError:  # a number of more digits than int() reads
        return None
    if max(levels, default=0) > depth or 0 in q.values():
        return None
    M = lcm(*q.values())
    scale = {t: M // qt for t, qt in q.items()}
    a = list(map(mul, a, map(scale.__getitem__, qa)))  # each p over M
    b = list(map(mul, b, map(scale.__getitem__, qb)))
    keys = list(map(add, map(mul, a, repeat(M)), b))
    # gcd 1: N = M, as reduced angles give; then a <= b < M is a valid pair
    if gcd(M, *a, *b) > 1 or max(b, default=0) >= M or not all(map(le, a, b)) \
            or not all(map(lt, keys, islice(keys, 1, None))):
        return None
    return Leaves._from_sorted(M, keys, levels)


def loads(text: str) -> Lamination:
    """Read the .lam format that `dumps` writes.  Malformed text raises
    LamFormatError, whose message names the line.  The leaves are read as
    integers over N, the lcm of the reduced denominators.

    There are two paths, chosen by what the text holds.  A [leaves] block
    that a "[gaps]" line closes and that is exactly what `dumps` writes
    (reduced "p/q-p/q level" lines with ASCII digits and one space, in
    ascending order) is read in bulk by `_canonical_leaves`, and the header
    and gap lines around it one by one.  Any other block is read line by
    line by `_read_lines`, the one reader of other spellings and of faulty
    leaf lines, so every error keeps its message and line number."""
    at = text.find("\n[leaves]\n")
    end = text.find("\n[gaps]\n", at + len("\n[leaves]")) + 1
    if at >= 0 and end:
        start = at + len("\n[leaves]\n")
        L = _read_lines(text[:start])  # the header lines, as the whole text has them
        leaves = _canonical_leaves(text, start, end, L.depth)
        if leaves is not None:
            # one line per leaf, then the [gaps] line
            after_gaps = len(text[:start].splitlines()) + len(leaves) + 2
            gaps = _read_gaps(_numbered(text[end + len("[gaps]\n"):], after_gaps), L.d)
            return replace(L, leaves=leaves, gaps=gaps)
    return _read_lines(text)


def _numbered(text: str, first: int = 1) -> Iterator[Tuple[int, str]]:
    """The non-blank lines of text, stripped, numbered from `first`."""
    return ((no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), first)
            if ln)


def _read_gaps(numbered: Iterator[Tuple[int, str]], d: int) -> List[object]:
    """The regions of the [gaps] lines of a degree-d file, in file order."""
    gaps: List[object] = []
    sets: Dict[str, LamSet] = {}
    for no, line in numbered:
        name_spec = line.split(None, 1)
        try:
            if len(name_spec) < 2:
                raise ValueError("gap line without a spec")
            gaps.append(_parse_region(name_spec[1], d, sets))
        except ValueError as exc:
            raise LamFormatError(f"line {no}: {exc}") from None
    return gaps


def _read_lines(text: str) -> Lamination:
    """`loads` one line at a time.  Each distinct angle text is read once
    as p/q, not reduced; after the last leaf, N = M // gcd(M, each
    numerator over M), where M is the lcm of the q."""
    numbered = _numbered(text)
    no, line = next(numbered, (1, ""))
    try:
        if not line:
            raise ValueError("empty lamination file")
        header = parse_fields(line)
        d, depth = _integer(header["d"], "d"), _integer(header["depth"], "depth")
        if d not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got d={d}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got depth={depth}")
        no, line = next(numbered, (no + 1, ""))
        registry_complete = False
        if line.startswith("registry="):
            registry_complete = line.split("=", 1)[1] == "complete"
            no, line = next(numbered, (no + 1, ""))
        if line != "[leaves]":
            raise ValueError("missing [leaves] section")
        angles: Dict[str, Tuple[int, int]] = {}  # text -> (p, q)
        rows = []  # (text, text, level)
        for no, line in numbered:
            if line == "[gaps]":
                break
            parts = line.split()
            ends = parts[0].split("-")
            if len(ends) != 2:
                raise ValueError(f"bad chord syntax: {parts[0]!r}")
            ta, tb = ends
            if ta not in angles:
                angles[ta] = _angle_parts(ta)
            if tb not in angles:
                angles[tb] = _angle_parts(tb)
            level = _integer(parts[1], "level") if len(parts) > 1 else 0
            if not 0 <= level <= depth:
                raise ValueError(f"level {level} is outside 0..{depth}")
            rows.append((ta, tb, level))
    except ValueError as exc:
        raise LamFormatError(f"line {no}: {exc}") from None
    gaps = _read_gaps(numbered, d)
    M = lcm(*(q for _, q in angles.values()))
    over_m = [p * (M // q) for p, q in angles.values()]
    g = gcd(M, *over_m)
    num = {t: x // g for t, x in zip(angles, over_m)}
    N = M // g
    packed: Dict[int, int] = {}
    for ta, tb, lvl in rows:
        a, b = num[ta], num[tb]
        packed[a * N + b if a <= b else b * N + a] = lvl
    return Lamination(d=d, depth=depth, recipe=header.get("recipe", "file"),
                      leaves=Leaves._from_packed(N, packed), gaps=gaps,
                      registry_complete=registry_complete)


def _parse_region(spec: str, d: int, sets: Optional[Dict[str, LamSet]] = None):
    """The region a `[gaps]` spec serializes, in a degree-d file; `sets`
    keeps each set= or vertices= text's LamSet, so it is parsed once."""
    fields = parse_fields(spec)
    kind = fields["kind"]
    if kind in ("finite", "attached"):
        deg = _integer(fields.get("degree", d), "degree")
        if deg != d:
            raise ValueError(f"gap degree {deg} does not match d={d}")
        text = fields["vertices" if kind == "finite" else "set"]
        G = (sets or {}).get(text) or parse_lamset(text, d)
        if sets is not None:
            sets[text] = G
        if kind == "finite":
            return FiniteRegion(G)
        index = _integer(fields["index"], "index")
        if not 0 <= index < len(G):
            raise ValueError(f"attached gap index {index} is not an edge of a "
                             f"{len(G)}-vertex set")
        return AttachedGap(G, index)
    if kind not in GAP_KINDS and kind not in ("vassal", "vassal-image"):
        raise ValueError(f"unknown gap kind {kind!r}")
    major, hole = parse_chord(fields["major"]), _parse_arc(fields["hole"])
    text = fields["period"]
    period = None if text == "-" and kind in GAP_KINDS else _integer(text, "period")
    if kind in GAP_KINDS:
        critical = None if fields["critical"] == "-" else parse_chord(fields["critical"])
        gap = GapGen(kind=kind, hole=hole, period=period, critical=critical)
    else:
        gap = V = VassalGap(hole=hole, period=period)
        if kind == "vassal-image":
            gap = ImageGap(gap, _integer(fields["power"], "power"))
    if period is not None and period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if isinstance(gap, ImageGap) and not 0 < gap.power < period:
        raise ValueError(f"vassal-image power {gap.power} is outside 1..{period - 1}")
    if major != Chord(hole.start, hole.end):
        raise ValueError(f"major {format_chord(major)} does not join the hole ends "
                         f"{format_angle(hole.start)},{format_angle(hole.end)}")
    if d != 3:
        raise ValueError(f"a {kind} gap needs d=3, got d={d}")
    if kind not in GAP_KINDS:  # a vassal's critical chord is its co-major
        given = fields["critical"]
        if given == "-" or parse_chord(given) != V.critical:
            raise ValueError(f"critical {given} is not the co-major "
                             f"{format_chord(V.critical)} of the hole")
    return gap


def write_lamination(L: Lamination, path: str) -> None:
    """Write L to `path`.  L is formatted before the file is opened, so a
    lamination that `dumps` rejects leaves no file behind."""
    text = dumps(L)
    with open(path, "w") as fh:
        fh.write(text)


def read_lamination(path: str) -> Lamination:
    with open(path) as fh:
        return loads(fh.read())
