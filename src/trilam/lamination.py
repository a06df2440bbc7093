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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm
from operator import itemgetter
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
    gap_from_major,
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
    kind: str = "finite"

    def serialize(self) -> str:
        return f"kind=finite degree={self.base.degree_d} vertices={format_lamset(self.base)}"


@dataclass(frozen=True)
class ImageGap:
    """Forward image sigma^power of a base gap (used for the vassal cycle)."""

    base: VassalGap
    power: int
    kind: str = "vassal-image"

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
    kind: str = "attached"

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
    """The leaves of a lamination, stored as integers: `pairs` maps each
    leaf's endpoint numerators (a, b), a <= b, over the common denominator
    `N` to the leaf's level, in insertion order.  N is fixed when the store
    is built.

    As a mapping it is the public, read-only Chord -> level view of that
    store.  Length, membership and lookup work on the integers; only
    iteration builds Chords, in insertion order."""

    def __init__(self, N: int = 1, pairs: Optional[Dict[Tuple[int, int], int]] = None):
        self.N = N
        self.pairs = {} if pairs is None else pairs

    @classmethod
    def from_chords(cls, chords: Mapping[Chord, int]) -> "Leaves":
        """The store of a Chord -> level mapping, over the lcm of its
        endpoint denominators."""
        N = lcm(*{x.denominator for c in chords for x in (c.a, c.b)})
        return cls(N, {(c.a.numerator * (N // c.a.denominator),
                        c.b.numerator * (N // c.b.denominator)): lvl
                       for c, lvl in chords.items()})

    def chord(self, pair: Tuple[int, int]) -> Chord:
        return Chord(Fraction(pair[0], self.N), Fraction(pair[1], self.N))

    def key(self, c: Chord) -> Optional[Tuple[int, int]]:
        """The numerators of c over N, or None if c is not a chord or its
        endpoints are not multiples of 1/N (then it is not a leaf)."""
        if not isinstance(c, Chord):
            return None
        N, qa, qb = self.N, c.a.denominator, c.b.denominator
        if N % qa or N % qb:
            return None
        return c.a.numerator * (N // qa), c.b.numerator * (N // qb)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Chord]:
        return map(self.chord, self.pairs)

    def __contains__(self, c) -> bool:
        return self.key(c) in self.pairs

    def __getitem__(self, c: Chord) -> int:
        try:
            return self.pairs[self.key(c)]
        except KeyError:
            raise KeyError(c) from None

    def items(self) -> ItemsView:
        return _LeafItems(self)

    def values(self) -> ValuesView:
        return self.pairs.values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Leaves):
            return Mapping.__eq__(self, other)
        if len(self) != len(other):
            return False
        if self.N == other.N:
            return self.pairs == other.pairs
        M = lcm(self.N, other.N)
        f, g = M // self.N, M // other.N
        return {(a * f, b * f): v for (a, b), v in self.pairs.items()} \
            == {(a * g, b * g): v for (a, b), v in other.pairs.items()}

    def __repr__(self) -> str:
        return f"<{len(self)} leaves over N={self.N}>"


class _LeafItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.pairs.values())


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
        return (f"Lamination(d={self.d}, depth={self.depth}, "
                f"recipe={self.recipe!r}, {len(self.leaves)} leaves)")


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
    level.  The leaves are returned as they were found, in insertion order.

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

    def fmt(c: Tuple[int, int]) -> str:
        return format_chord(Chord(Fraction(c[0], N), Fraction(c[1], N)))

    polys = [sorted(map(num, P)) for P in portrait]
    cuts = sorted(c + e for c in {d * v % N for P in polys for v in P} for e in (0, 1))
    leaves: Dict[Tuple[int, int], int] = {(num(s.a), num(s.b)): 0 for s in seeds}
    frontier = list(leaves)
    step = N // d
    offsets = [k * step for k in range(d)]
    # plans[i, j]: (u, v, free) for each candidate (a // d + u, b // d + v)
    # of a leaf (a, b) whose endpoints have the places i and j, in the order
    # of the preimages of a, then of b; free if it crosses no polygon
    plans: Dict[Tuple[int, int], List[Tuple[int, int, bool]]] = {}
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            a, b = leaf
            x, y = a // d, b // d
            key = bisect_right(cuts, a), bisect_right(cuts, b)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = [
                    (u, v, not any(bisect_right(P, p) < bisect_left(P, q)
                                   and (P[0] < p or P[-1] > q) for P in polys))
                    for u in offsets for v in offsets
                    for p, q in [(x + u, y + v) if u <= v else (y + v, x + u)]]
            valid = [c for u, v, free in plan
                     for c in [(x + u, y + v) if u <= v else (y + v, x + u)]
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
    return Leaves(N, leaves)


def canonical_of_quadratic_gap(U: GapGen, depth: int = 6) -> Lamination:
    """The unique invariant lamination having U (and, for periodic type, the
    vassal cycle) among its gaps: pullback closure of the major orbit."""
    if U.period is None:
        region_objs: List[object] = [U]
        seeds = [U.major]
    else:
        # The co-major M'' shares its image with M, so the pullback of the
        # major orbit discovers it (and with it all vassal-cycle edges);
        # seeding from the orbit alone makes the construction independent of
        # which gap of the lamination U happens to be.
        V = vassal(U)
        region_objs = [U, V] + [ImageGap(V, i) for i in range(1, U.period)]
        seeds = [e for e, _ in U.base_edges()]
    portrait = _critical_portrait(3, seeds, region_objs)
    leaves = _pullback_closure(3, seeds, portrait, depth)
    return Lamination(
        d=3, depth=depth, recipe=f"quadratic-gap:{format_chord(U.major)}",
        leaves=leaves, gaps=region_objs, registry_complete=True,
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


def _find_linked_pairs(chords: List[Tuple[int, int]]
                       ) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """At most _LINKED_LIMIT crossing pairs in a family of distinct chords
    given as endpoint pairs a <= b in sorted order, O(n log n) when the
    family is laminar (intervals [a, b] pairwise nested or disjoint).  The
    chords are scanned in the order (a, -b): a stable sort by a of the
    reversed list.  Every pair returned crosses, and the result is empty
    only for a laminar family; past the first crossing the stack is no
    longer a nested chain, so not every crossing pair is found."""
    out = []
    stack: List[Tuple[int, int]] = []
    for c in sorted(reversed(chords), key=itemgetter(0)):
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


def _count_crossings(chords: List[Tuple[int, int]]) -> int:
    """The number of crossing pairs in a family of distinct chords given as
    endpoint pairs a <= b, in O(n log n).  The chords are taken in the
    order (a, -b); a Fenwick tree over the sorted endpoints counts the
    earlier chords whose b' lies strictly inside (a, b).  Those have a' < a,
    since an earlier chord with a' == a has b' > b.  Degenerate chords
    (a == b) cross nothing."""
    chords = [c for c in chords if c[0] < c[1]]
    pts = sorted({x for c in chords for x in c})
    rank = {x: i + 1 for i, x in enumerate(pts)}
    tree = [0] * (len(pts) + 1)

    def below(i: int) -> int:  # inserted ends of rank <= i
        n = 0
        while i:
            n += tree[i]
            i &= i - 1
        return n

    total = 0
    for a, b in sorted(chords, key=lambda c: (c[0], -c[1])):
        total += below(rank[b] - 1) - below(rank[a])
        i = rank[b]
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    return total


def _crosses(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    """`chords.linked` for endpoint pairs a <= b on a common scale."""
    return x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1]


def _gap_polygons(level: Mapping[Tuple[int, int], int],
                  leaf_list: List[Tuple[int, int]]) -> Iterator[List[int]]:
    """The vertices c0 < ... < c(n-1), n >= 3, of each connected component
    of the endpoint graph whose sides (ci, ci+1) and (c0, c(n-1)) are all
    leaves, in sorted order, for the leaves `level` given as pairs a <= b
    and sorted in `leaf_list`.

    In such a component the smallest b among the leaves (ci, b) is ci+1, the
    largest b among the leaves (c0, b) is c(n-1), and c0 ends no
    non-degenerate leaf.  So a walk along the smallest b starts at each such
    a with two different b, and is dropped unless it reaches the largest.
    A walk is a component iff it is closed: the degrees of its vertices sum
    to twice the number of leaves among them, self-loops included."""
    sides = [c for c in leaf_list if c[0] != c[1]]
    first, last = dict(reversed(sides)), dict(sides)
    left = Counter(map(itemgetter(0), leaf_list))
    right = Counter(map(itemgetter(1), leaf_list))
    for a, end in last.items():
        if first[a] == end or right[a] != ((a, a) in level):
            continue
        walk = [a]
        v = first[a]
        while v is not None and v < end:
            walk.append(v)
            v = first.get(v)
        if v != end:
            continue
        walk.append(end)
        degrees = sum(left[v] + right[v] for v in walk)
        if degrees != 2 * len(walk):
            members = set(walk)
            inside = 0
            for v in walk:
                i = bisect_left(leaf_list, (v,))
                inside += sum(b in members for _, b in leaf_list[i:i + left[v]])
            if degrees != 2 * inside:
                continue
        yield walk


def check_invariance(L: Lamination) -> InvarianceReport:
    """Leaf-by-leaf invariance check: linked pairs, forward images, sibling
    collections of leaves below the truncation depth, and holes of the
    finite gap polygons.

    The check runs on the lamination's integer store: numerators over one
    denominator N, whose order is angle order, and sigma_d is x -> d*x mod N.
    Chords and angles are built only for the report.  The crossing pairs
    are counted only when the scan for examples has found one.

    The images are computed once, in one pass over the sorted leaves, and
    counted once: the forward and sibling checks first find the distinct
    non-degenerate images that fail, and pass over the leaves only when
    there are some.  An image fails the forward check when it is no leaf.
    When the scan finds no crossing the family is laminar, so any d leaves
    with one image are pairwise unlinked: an image fails the sibling check
    when fewer than d leaves share it.  Only a family with a crossing is
    searched for pairwise unlinked collections.  The gap polygons are found
    by `_gap_polygons`."""
    d = L.d
    N, level = L.leaves.N, L.leaves.pairs
    chord = L.leaves.chord
    leaf_list = sorted(level)

    linked = _find_linked_pairs(leaf_list)
    linked_pairs = [(chord(x), chord(y)) for x, y in linked]

    images = [(u, v) if (u := d * a % N) < (v := d * b % N) else (v, u)
              for a, b in leaf_list]
    share = Counter(images)
    missing = {img for img in share.keys() - level.keys() if img[0] != img[1]}
    forward_missing = [chord(c) for c, img in zip(leaf_list, images)
                       if img in missing] if missing else []

    if linked:
        by_image: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for c, img in zip(leaf_list, images):
            by_image.setdefault(img, []).append(c)

        def has_collection(c, img) -> bool:
            others = [x for x in by_image[img] if x != c]
            return any(
                not any(_crosses(x, y) for x, y in combinations((c,) + combo, 2))
                for combo in combinations(others, d - 1))

        sibling_missing = [chord(c) for c, img in zip(leaf_list, images)
                           if img[0] != img[1] and level[c] < L.depth
                           and not has_collection(c, img)]
    else:
        short = {img for img, k in share.items() if k < d and img[0] != img[1]}
        sibling_missing = [chord(c) for c, img in zip(leaf_list, images)
                           if img in short and level[c] < L.depth] if short else []

    gap_violations = []
    for cls in _gap_polygons(level, leaf_list):
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
        leaf_count=len(leaf_list),
        linked_pairs=linked_pairs,
        linked_count=_count_crossings(leaf_list) if linked_pairs else 0,
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
    empty = Lamination(d=L.d, depth=L.depth, recipe=L.recipe,
                       leaves={}, gaps=list(L.gaps), registry_complete=True)
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
    for a, b in L.leaves.pairs:
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
    in_smp: bool
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
            b = (a + h) % 1
            M = Chord(a, b)
            if _leaf_period(3, M) != k:
                continue
            hole = Arc(a, b)
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
            if cls.tag != "PeriodicType" or cls.major != M or cls.n_c != k:
                continue
            return gap_from_major(M, hole, k)
    return None


def classify_smp(L: Lamination, period_bound: int = 6) -> SmpVerdict:
    """Decide membership in the simplest-core class: laminations with exactly
    one periodic rotational gap or leaf, all of whose edges are isolated."""
    if L.d != 3:
        raise ValueError("SMP classification applies to degree-3 laminations")
    report = periodic_rotational_classes(L, period_bound)
    rc = report.rotational_classes

    if len(rc) == 0:
        if L.recipe.startswith(("quadratic-gap", "diameter")):
            wq = next((g for g in L.gaps if isinstance(g, GapGen)), None)
            return SmpVerdict(
                in_smp=True, case_tag="CanonicalQuadraticGap",
                period_bound=period_bound, witness_quadratic=wq,
            )
        if not L.leaves:
            return SmpVerdict(in_smp=False, case_tag="Empty",
                              period_bound=period_bound)
        return SmpVerdict(
            in_smp=False, case_tag="NotSMP", period_bound=period_bound,
            certified=L.registry_complete,
            note="no periodic rotational class found up to the period bound",
        )

    if len(rc) >= 2:
        return SmpVerdict(
            in_smp=False, case_tag="NotSMP", period_bound=period_bound,
            note=f"{len(rc)} rotational classes found",
        )

    G, rep = rc[0]
    if rep.type_tag == "D":
        return SmpVerdict(
            in_smp=True, case_tag="CanonicalTypeD", period_bound=period_bound,
            witness_rotational=G, witness_type="D",
        )
    # types A and B live inside an invariant quadratic gap (co-existence)
    U = _witness_quadratic_gap({x for v in G.vertices for x in orbit(3, v)})
    if U is None:
        return SmpVerdict(
            in_smp=False, case_tag="NotSMP", period_bound=period_bound,
            certified=False,
            note="single rotational class but no containing quadratic gap "
                 "found within the period bound; inconclusive",
        )
    return SmpVerdict(
        in_smp=True, case_tag="RotationalInsideQuadraticGap",
        period_bound=period_bound, witness_rotational=G,
        witness_type=rep.type_tag, witness_quadratic=U,
    )


# ---------------------------------------------------------------------------
# file format


def _leaf_lines(L: Lamination) -> List[str]:
    """The [leaves] lines of L in sorted order, each endpoint as a reduced
    p/q formatted once per distinct endpoint.  A level outside 0..depth
    raises ValueError naming the first such leaf."""
    N, pairs = L.leaves.N, L.leaves.pairs

    def fmt(x: int) -> str:
        if not x:
            return "0"
        g = gcd(x, N)
        return f"{x // g}/{N // g}"

    keys = sorted(pairs)
    if pairs and not 0 <= min(pairs.values()) <= max(pairs.values()) <= L.depth:
        a, b = next(k for k in keys if not 0 <= pairs[k] <= L.depth)
        raise ValueError(f"leaf {fmt(a)}-{fmt(b)} has level {pairs[a, b]}, "
                         f"outside 0..{L.depth}")
    text = {x: fmt(x) for x in {x for k in keys for x in k}}
    return [f"{text[a]}-{text[b]} {pairs[a, b]}" for a, b in keys]


def dumps(L: Lamination) -> str:
    lines = [f"d={L.d} depth={L.depth} recipe={L.recipe}",
             f"registry={'complete' if L.registry_complete else 'partial'}",
             "[leaves]"]
    lines += _leaf_lines(L)
    lines.append("[gaps]")
    lines += [f"G{i} {g.serialize()}" for i, g in enumerate(L.gaps)]
    return "\n".join(lines) + "\n"


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
    numbered = ((no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
                if ln.strip())
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
    pairs: Dict[Tuple[int, int], int] = {}
    for ta, tb, lvl in rows:
        a, b = num[ta], num[tb]
        pairs[(a, b) if a <= b else (b, a)] = lvl
    return Lamination(d=d, depth=depth, recipe=header.get("recipe", "file"),
                      leaves=Leaves(M // g, pairs), gaps=gaps,
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
    if kind in ("vassal", "vassal-image"):
        gap = VassalGap(major=parse_chord(fields["major"]),
                        hole=_parse_arc(fields["hole"]), period=int(fields["period"]))
        if kind == "vassal-image":
            gap = ImageGap(gap, int(fields["power"]))
    elif kind in GAP_KINDS:
        gap = GapGen(
            kind=kind,
            major=parse_chord(fields["major"]),
            hole=_parse_arc(fields["hole"]),
            period=None if fields["period"] == "-" else int(fields["period"]),
            critical=None if fields["critical"] == "-" else parse_chord(fields["critical"]),
        )
    else:
        raise ValueError(f"unknown gap kind {kind!r}")
    if d != 3:
        raise ValueError(f"a {kind} gap needs d=3, got d={d}")
    return gap


def write_lamination(L: Lamination, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(L))


def read_lamination(path: str) -> Lamination:
    with open(path) as fh:
        return loads(fh.read())
