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

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations, compress, count, islice, repeat
from math import gcd, lcm
from operator import eq
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .chords import Chord, format_chord, parse_chord
from .circle import (
    Arc,
    arc_length,
    fixed_points,
    format_angle,
    orbit,
    parse_angle,
    preimages,
    sigma,
)
from .core import periodic_rotational_classes
from .lamsets import (
    LamSet,
    classify_rotational,
    format_lamset,
    holes,
    parse_lamset,
)
from .quadgap import (
    GAP_KINDS,
    GapGen,
    VassalGap,
    _leaf_period,
    _parse_arc,
    below_diameter,
    classify_critical,
    parse_fields,
    psi,
    vassal,
)

class PullbackAmbiguityError(RuntimeError):
    """A leaf had other than d sibling candidates crossing no polygon of the
    critical portrait.  The constructions choose the portrait's critical
    values off the leaf endpoints, so this cannot happen; the check stays
    so that a wrong portrait fails loudly instead of guessing."""


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
        """The gap's hole is a major hole, at least 1/d long."""
        return arc_length(holes(self.base)[self.index][1]) >= Fraction(1, self.base.degree_d)

    def serialize(self) -> str:
        return (f"kind=attached degree={self.base.degree_d} "
                f"set={format_lamset(self.base)} index={self.index}")


def attached_cycle(G: LamSet) -> List[AttachedGap]:
    """All Fatou gaps attached to the edges of a rotational set."""
    return [AttachedGap(G, i) for i in range(len(holes(G)))]


# ---------------------------------------------------------------------------
# the lamination type


class Leaves(Mapping):
    """The leaves of a lamination, stored as integers: `packed` maps each
    leaf to its level, in insertion order, as the one integer a * N + b,
    where a <= b are the leaf's endpoint numerators over the common
    denominator `N`.  Since 0 <= b < N, packed keys sort in the order of the
    pairs (a, b), and a leaf (a, a) packs to a * (N + 1).  Other modules
    build a store only with `from_pairs`, which fixes N, and read the leaves
    through `pairs`, the decoded (a, b) in insertion or sorted order.

    As a mapping it is the public, read-only Chord -> level view of that
    store.  Length, membership and lookup work on the integers; only
    iteration builds Chords, in insertion order."""

    def __init__(self):
        """The empty store; `from_pairs` builds any other."""
        self.N, self.packed = 1, {}

    @classmethod
    def _from_packed(cls, N: int, packed: Dict[int, int]) -> "Leaves":
        """The store over N that is `packed`, taken as is: its keys must
        already be a * N + b with 0 <= a <= b < N."""
        store = cls.__new__(cls)
        store.N, store.packed = N, packed
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
        return cls.from_pairs(N, {(c.a.numerator * (N // c.a.denominator),
                                   c.b.numerator * (N // c.b.denominator)): lvl
                                  for c, lvl in chords.items()})

    def pairs(self, sort: bool = False) -> Iterator[Tuple[int, int]]:
        """The endpoint numerators (a, b) of each leaf, in insertion order,
        or sorted when `sort` is true."""
        return map(divmod, sorted(self.packed) if sort else self.packed, repeat(self.N))

    def values(self) -> ValuesView:
        """The levels, in insertion order."""
        return self.packed.values()

    def chord(self, pair: Tuple[int, int]) -> Chord:
        return Chord(Fraction(pair[0], self.N), Fraction(pair[1], self.N))

    def key(self, c: Chord) -> Optional[int]:
        """The packed key of c over N, or None if c is not a chord or its
        endpoints are not multiples of 1/N (then it is not a leaf)."""
        if not isinstance(c, Chord):
            return None
        N, qa, qb = self.N, c.a.denominator, c.b.denominator
        if N % qa or N % qb:
            return None
        return c.a.numerator * (N // qa) * N + c.b.numerator * (N // qb)

    def __len__(self) -> int:
        return len(self.packed)

    def __iter__(self) -> Iterator[Chord]:
        return map(self.chord, self.pairs())

    def __contains__(self, c) -> bool:
        return self.key(c) in self.packed

    def __getitem__(self, c: Chord) -> int:
        try:
            return self.packed[self.key(c)]
        except KeyError:
            raise KeyError(c) from None

    def items(self) -> ItemsView:
        return _LeafItems(self)

    def _over(self, M: int) -> Dict[int, int]:
        """The packed store over a multiple M of N.  (a, b) packs to
        (a * M + b) * (M // N) there, which is not a multiple of a * N + b."""
        if M == self.N:
            return self.packed
        f = M // self.N
        return {(a * M + b) * f: lvl for (a, b), lvl in zip(self.pairs(), self.values())}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Leaves):
            return Mapping.__eq__(self, other)
        if len(self) != len(other):
            return False
        M = lcm(self.N, other.N)
        return self._over(M) == other._over(M)

    def __repr__(self) -> str:
        return f"<{len(self)} leaves over N={self.N}>"


class _LeafItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.values())


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
        for j in range(q):
            x = Fraction(j, q)
            if U.in_basis(x) and avoid.isdisjoint(orbit(3, x)):
                return tuple(y for y in preimages(3, sigma(3, x)) if U.in_basis(y))


def _vassal_chord(V: VassalGap) -> Polygon:
    """The critical chord of the vassal gap V, from a + u* to a + u* + 1/3.
    u* is the fixed point of g0(g1(u)) = h/K - h/K^2 + u/K^2, the return
    map's inverse branches g0(u) = u/K and g1(u) = h - (h - u)/K composed
    (h the hole length, K = 3^period): u* = h / (K + 1)."""
    u = V._h() / (3 ** V.period + 1)
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
    hole and off the cycle of G."""
    G, i = g.base, g.index
    d, n, rho = G.degree_d, len(G), classify_rotational(G).rotation_number
    ell = [arc_length(h) for _, h in holes(G)]
    delta = 1 + d * ell[i] - ell[(i + int(rho * n)) % n]
    c = rho.denominator
    x = G.vertices[i] + Fraction(d ** (c - 1), d ** (2 * c) - 1)
    return tuple((x + Fraction(k, d)) % 1 for k in range(int(delta)))


def _critical_portrait(d: int, seeds: Sequence[Chord],
                       regions: Sequence[object]) -> List[Polygon]:
    """The critical portrait of a construction: each critical seed as a
    2-gon, and one critical polygon inside each critical registered gap
    (a quadratic gap, a vassal gap or a critical attached gap)."""
    portrait: List[Polygon] = [(s.a, s.b) for s in seeds
                               if sigma(d, s.a) == sigma(d, s.b)]
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
    level.  The leaves are returned as they were found, in insertion order,
    each packed as a * N + b.

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

    def fmt(c: int) -> str:
        a, b = divmod(c, N)
        return format_chord(Chord(Fraction(a, N), Fraction(b, N)))

    polys = [sorted(map(num, P)) for P in portrait]
    cuts = sorted(c + e for c in {d * v % N for P in polys for v in P} for e in (0, 1))
    leaves: Dict[int, int] = {num(s.a) * N + num(s.b): 0 for s in seeds}
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
    d = G.degree_d
    cycle = attached_cycle(G)
    seeds = sorted({e for e, _ in holes(G)})
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


def _longest_first(keys: List[int], N: int) -> Iterator[Tuple[int, int]]:
    """The pairs (a, b) of sorted packed keys a * N + b in the order
    (a, -b), a stable sort by a of the reversed list, each decoded as it is
    read."""
    return map(divmod, sorted(reversed(keys), key=N.__rfloordiv__), repeat(N))


def _find_linked_pairs(keys: List[int], N: int
                       ) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """At most _LINKED_LIMIT crossing pairs in a family of distinct chords
    given as sorted packed keys, O(n log n) when the family is laminar
    (intervals [a, b] pairwise nested or disjoint).  The chords are scanned
    in the order (a, -b).  Every pair returned crosses, and the result is
    empty only for a laminar family; past the first crossing the stack is
    no longer a nested chain, so not every crossing pair is found."""
    out = []
    stack: List[Tuple[int, int]] = []
    for c in _longest_first(keys, N):
        a, b = c
        while stack and stack[-1][1] <= a:
            stack.pop()
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


def _count_crossings(keys: List[int], N: int) -> int:
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


def _gap_polygons(level: Mapping[int, int], keys: List[int], N: int
                  ) -> Iterator[List[int]]:
    """The vertices c0 < ... < c(n-1), n >= 3, of each connected component
    of the endpoint graph whose sides (ci, ci+1) and (c0, c(n-1)) are all
    leaves, in sorted order, for the packed leaves `level` and their sorted
    keys.

    In such a component the smallest b among the leaves (ci, b) is ci+1, the
    largest b among the leaves (c0, b) is c(n-1), and c0 ends no
    non-degenerate leaf.  So a walk along the smallest b starts at each such
    a with two different b, and is dropped unless it reaches the largest.
    A walk is a component iff it is closed: the degrees of its vertices sum
    to twice the number of leaves among them, self-loops included.  One
    count of endpoint degrees serves both the starts and the walks."""
    sides = [k for k in keys if k % (N + 1)]  # the leaf (a, a) packs to a * (N + 1)
    starts = list(map(N.__rfloordiv__, sides))
    degree = Counter(starts)
    degree.update(map(N.__rmod__, sides))
    if len(sides) < len(keys):  # a leaf (a, a) adds 2 to the degree of a
        degree.update({k // N: 2 for k in keys if not k % (N + 1)})
    first = dict(zip(reversed(starts), reversed(sides)))
    # the a of two or more sides (a, b), with the number of them past one
    more = Counter(compress(starts, map(eq, starts, islice(starts, 1, None))))
    del sides, starts  # this frame stays alive through every walk below
    for a, extra in more.items():
        # no side ends at a: its degree is its sides and its leaf (a, a)
        if degree[a] != extra + 1 + 2 * (a * (N + 1) in level):
            continue
        end = keys[bisect_left(keys, (a + 1) * N) - 1] - a * N
        walk = [a]
        v = first[a] - a * N
        while v < end:
            walk.append(v)
            k = first.get(v)
            if k is None:
                break
            v = k - v * N
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


def check_invariance(L: Lamination) -> InvarianceReport:
    """Leaf-by-leaf invariance check: linked pairs, forward images, sibling
    collections of leaves below the truncation depth, and holes of the
    finite gap polygons.

    The check runs on the lamination's packed integer store: numerators over
    one denominator N, whose order is angle order, and sigma_d is
    x -> d*x mod N.  It walks the sorted packed keys and decodes each key
    only while it uses it; a pair, a Chord and angles are built only for a
    leaf in the report.  The crossing pairs are counted only when the scan
    for examples has found one.

    The images are counted in one pass over the sorted leaves: the forward
    and sibling checks first find the distinct non-degenerate images that
    fail, and compute the images again only when there are some.  An image
    fails the forward check when it is no leaf.  When the scan finds no
    crossing the family is laminar, so any d leaves with one image are
    pairwise unlinked: an image fails the sibling check when fewer than d
    leaves share it.  Only a family with a crossing is searched for
    pairwise unlinked collections.  The gap polygons are found by
    `_gap_polygons`."""
    d = L.d
    N, level = L.leaves.N, L.leaves.packed
    keys = sorted(level)

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
    missing = {img for img in share.keys() - level.keys() if img % loop}
    forward_missing = [chord(c) for c, img in zip(keys, images())
                       if img in missing] if missing else []

    if linked:
        by_image: Dict[int, List[int]] = {}
        for c, img in zip(keys, images()):
            by_image.setdefault(img, []).append(c)

        def has_collection(c, img) -> bool:
            others = [x for x in by_image[img] if x != c]
            return any(
                not any(_crosses(divmod(x, N), divmod(y, N))
                        for x, y in combinations((c,) + combo, 2))
                for combo in combinations(others, d - 1))

        sibling_missing = [chord(c) for c, img in zip(keys, images())
                           if img % loop and level[c] < L.depth
                           and not has_collection(c, img)]
    else:
        short = {img for img, k in share.items() if k < d and img % loop}
        sibling_missing = [chord(c) for c, img in zip(keys, images())
                           if img in short and level[c] < L.depth] if short else []
    del share  # before the polygon walk's tables

    gap_violations = []
    for cls in _gap_polygons(level, keys, N):
        n = len(cls)
        imgs = [d * v % N for v in cls]
        img_pts = sorted(set(imgs))
        m = len(img_pts)
        if m < 2:
            continue
        succ = {img_pts[i]: img_pts[(i + 1) % m] for i in range(m)}
        for i in range(n):
            u, v = imgs[i], imgs[(i + 1) % n]
            if u == v:
                continue
            if succ[u] != v:
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

    The leaves are read from the integer store: the crossing test with the
    major runs on numerators over the lcm of N and the major's denominators.
    psi walks each endpoint's orbit once, deciding membership and the image."""
    major, N = U.major, L.leaves.N
    M = lcm(N, major.a.denominator, major.b.denominator)
    f = M // N
    m = (major.a.numerator * (M // major.a.denominator),
         major.b.numerator * (M // major.b.denominator))
    out: Dict[Chord, int] = {}
    for a, b in L.leaves.pairs():
        if _crosses((a * f, b * f), m):
            raise ValueError(f"leaf {format_chord(L.leaves.chord((a, b)))} "
                             f"crosses the major {format_chord(major)}")
        try:
            pa, pb = psi(U, Fraction(a, N)), psi(U, Fraction(b, N))
        except ValueError:  # an endpoint is off U's basis
            continue
        if pa != pb:
            out[Chord(pa, pb)] = L.depth
    return Lamination(
        d=2, depth=L.depth, recipe=f"projected:{L.recipe}",
        leaves=out, registry_complete=False,
    )


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
    report = periodic_rotational_classes(L, period_bound)
    rc = report.rotational_classes

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

    The sorted packed keys are decoded one at a time.  An endpoint x is
    kept formatted from its first leaf (y, x) until its own leaves (x, b):
    later leaves start past x, so they neither start nor end at x."""
    N, packed = L.leaves.N, L.leaves.packed

    def fmt(x: int) -> str:
        if not x:
            return "0"
        g = gcd(x, N)
        return f"{x // g}/{N // g}"

    keys = sorted(packed)
    if packed and not 0 <= min(packed.values()) <= max(packed.values()) <= L.depth:
        k = next(k for k in keys if not 0 <= packed[k] <= L.depth)
        a, b = divmod(k, N)
        raise ValueError(f"leaf {fmt(a)}-{fmt(b)} has level {packed[k]}, "
                         f"outside 0..{L.depth}")
    text: Dict[int, str] = {}  # endpoints seen as b, until their own leaves
    lines = []
    start = None
    for k in keys:
        a, b = divmod(k, N)
        tb = text.get(b)
        if tb is None:
            tb = text[b] = fmt(b)
        if a != start:
            start, ta = a, text.pop(a, None) or fmt(a)
        lines.append(f"{ta}-{tb} {packed[k]}")
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


def _angle_parts(text: str) -> Tuple[int, int]:
    """The angle `parse_angle(text)` as (p, q) with 0 <= p < q, not always
    reduced; plain "p/q" and "p" are read without building a Fraction."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (
            not slash or den.isascii() and den.isdigit()):
        q = int(den) if slash else 1
        if q:
            return int(num) % q, q
    x = parse_angle(text)
    return x.numerator, x.denominator


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def loads(text: str) -> Lamination:
    """Read the .lam format that `dumps` writes.  Malformed text raises
    LamFormatError.  The leaves are read as integers over N, the lcm of the
    reduced denominators: each distinct angle is read once as p/q, not
    reduced; after the last leaf, N = M // gcd(M, each numerator over M),
    where M is the lcm of the q."""
    numbered = ((no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), 1)
                if ln)
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
        gaps: List[object] = []
        for no, line in numbered:
            name_spec = line.split(None, 1)
            if len(name_spec) < 2:
                raise ValueError("gap line without a spec")
            gaps.append(_parse_region(name_spec[1], d))
    except ValueError as exc:
        raise LamFormatError(f"line {no}: {exc}") from None
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


def _parse_region(spec: str, d: int):
    """The region a `[gaps]` spec serializes, in a degree-d file."""
    fields = parse_fields(spec)
    kind = fields["kind"]
    if kind in ("finite", "attached"):
        deg = _integer(fields.get("degree", d), "degree")
        if deg != d:
            raise ValueError(f"gap degree {deg} does not match d={d}")
        if kind == "finite":
            return FiniteRegion(parse_lamset(fields["vertices"], d))
        G = parse_lamset(fields["set"], d)
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
        gap = VassalGap(hole=hole, period=period)
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
