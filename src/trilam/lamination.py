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
from collections.abc import ItemsView, Mapping, MutableMapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm
from operator import itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
from .core import endpoint_classes, periodic_rotational_classes
from .lamsets import (
    LamSet,
    RotationalReport,
    _displacement,
    classify_rotational,
    format_lamset,
    holes,
    parse_lamset,
)
from .quadgap import (
    GapGen,
    VassalGap,
    _leaf_period,
    _parse_arc,
    below_diameter,
    classify_critical,
    gap_from_major,
    parse_fields,
    parse_gapgen,
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
    def outer_edge(self) -> Chord:
        vs = self.base.vertices
        return Chord(vs[self.index], vs[(self.index + 1) % len(vs)])

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


class Leaves(MutableMapping):
    """The leaves of a lamination, stored as integers: `pairs` maps each
    leaf's endpoint numerators (a, b), a <= b, over the common denominator
    `N` to the leaf's level, in insertion order.

    As a mapping it is the public Chord -> level view of that store.
    Length, membership, lookup and writes work on the integers; only
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

    def __setitem__(self, c: Chord, level: int) -> None:
        if not isinstance(c, Chord):
            raise TypeError(f"leaves are Chords, got {c!r}")
        key = self.key(c)
        if key is None:  # refine the common denominator
            M = lcm(self.N, c.a.denominator, c.b.denominator)
            f = M // self.N
            self.N, self.pairs = M, {(a * f, b * f): lvl
                                     for (a, b), lvl in self.pairs.items()}
            key = self.key(c)
        self.pairs[key] = level

    def __delitem__(self, c: Chord) -> None:
        try:
            del self.pairs[self.key(c)]
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
    fatou_gaps: List[object] = field(default_factory=list)
    finite_gaps: List[LamSet] = field(default_factory=list)
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
    u* is the fixed point of the return-map branches composed as the word
    (0, 1); that composition f is affine, so u* = f(0) / (1 - (f(1) - f(0)))."""
    f0 = V._apply((0, 1), Fraction(0))
    u = f0 / (1 - (V._apply((0, 1), Fraction(1)) - f0))
    return (V.a + u) % 1, (V.a + u + Fraction(1, 3)) % 1


def _attached_polygon(g: AttachedGap) -> Polygon:
    """The critical polygon of a critical attached gap i of G: the delta
    preimages x + k/d (k < delta) of sigma(x) in hole i, where
    delta = 1 + d*l_i - l_{i+p} is the gap's degree, l the hole lengths and
    p the edge displacement of G.

    In local coordinates u on a hole the inverse branches are
    u -> (u + k)/d, k < delta.  x is the fixed point of the word that goes
    twice around the c-hole cycle of hole i with k = 0, except k = 1 at the
    first critical step of the second pass, which is hole i itself:
    u = d^(c-1) / (d^(2c) - 1).  That is a basis point strictly inside the
    hole and off the cycle of G."""
    G, i = g.base, g.index
    d, n, p = G.degree_d, len(G), _displacement(G)
    ell = [arc_length(h) for _, h in holes(G)]
    delta = 1 + d * ell[i] - ell[(i + p) % n]
    c = n // gcd(n, p)
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
        leaves=leaves, fatou_gaps=region_objs, registry_complete=True,
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
        leaves=leaves, fatou_gaps=list(cycle), finite_gaps=[G],
        registry_complete=True,
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


def _find_linked_pairs(chords: List[Tuple[int, int]],
                       limit: int = 20) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Crossing pairs in a family of distinct chords given as endpoint pairs
    a <= b in sorted order, O(n log n) when the family is laminar (intervals
    [a, b] pairwise nested or disjoint).  The chords are scanned in the
    order (a, -b): a stable sort by a of the reversed list.  Every pair
    returned crosses, and the result is empty only for a laminar family;
    past the first crossing the stack is no longer a nested chain, so not
    every crossing pair is found."""
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
                if len(out) >= limit:
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


def check_invariance(L: Lamination) -> InvarianceReport:
    """Leaf-by-leaf invariance check: linked pairs, forward images, sibling
    collections of leaves below the truncation depth, and holes of the
    finite gap polygons.

    The check runs on the lamination's integer store: numerators over one
    denominator N, whose order is angle order, and sigma_d is x -> d*x mod N.
    Chords and angles are built only for the report.  The crossing pairs
    are counted only when the scan for examples has found one.

    The images are computed once, in one pass over the sorted leaves.  When
    the scan finds no crossing the family is laminar, so any d leaves with
    one image are pairwise unlinked: a leaf has a sibling collection iff at
    least d leaves share its image.  Only a family with a crossing is
    searched for pairwise unlinked collections."""
    d = L.d
    N, level = L.leaves.N, L.leaves.pairs
    chord = L.leaves.chord
    leaf_list = sorted(level)

    linked = _find_linked_pairs(leaf_list)
    linked_pairs = [(chord(x), chord(y)) for x, y in linked]

    images = [(u, v) if (u := d * a % N) < (v := d * b % N) else (v, u)
              for a, b in leaf_list]
    forward_missing = [chord(c) for c, img in zip(leaf_list, images)
                       if img[0] != img[1] and img not in level]

    if linked:
        by_image: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        for c, img in zip(leaf_list, images):
            by_image.setdefault(img, []).append(c)

        def has_collection(c, img) -> bool:
            others = [x for x in by_image[img] if x != c]
            return any(
                not any(_crosses(x, y) for x, y in combinations((c,) + combo, 2))
                for combo in combinations(others, d - 1))
    else:
        share = Counter(images)

        def has_collection(c, img) -> bool:
            return share[img] >= d

    sibling_missing = [chord(c) for c, img in zip(leaf_list, images)
                       if img[0] != img[1] and level[c] < L.depth
                       and not has_collection(c, img)]

    gap_violations = []
    for cls in endpoint_classes(leaf_list):
        n = len(cls)
        if n < 3:
            continue
        # only treat full polygons (every consecutive chord a leaf) as gaps
        if (cls[0], cls[-1]) not in level or not all(
                (cls[i], cls[i + 1]) in level for i in range(n - 1)):
            continue
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
                       leaves={}, fatou_gaps=list(L.fatou_gaps),
                       finite_gaps=list(L.finite_gaps), registry_complete=True)
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


def _witness_quadratic_gap(vertices: Sequence[Fraction],
                           max_period: int = 6) -> Optional[GapGen]:
    """A periodic-type invariant quadratic gap whose basis contains every
    given vertex: scan periodic majors by increasing period, using the exact
    hole-length formula, and keep the first whose open hole misses all the
    vertices (and their orbits, which the vertices' invariance makes
    redundant but we check anyway)."""
    pts = sorted({v % 1 for v in vertices})
    full = sorted({x for v in pts for x in orbit(3, v)})
    for k in range(1, max_period + 1):
        h = Fraction(3 ** (k - 1), 3 ** k - 1)
        for a in fixed_points(3, k):
            b = (a + h) % 1
            M = Chord(a, b)
            if _leaf_period(3, M) != k:
                continue
            hole = Arc(a, b)
            if any(0 < (x - a) % 1 < h for x in full):
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
            wq = next((g for g in L.fatou_gaps if isinstance(g, GapGen)), None)
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
    full_orbit = [x for v in G.vertices for x in orbit(3, v)]
    U = _witness_quadratic_gap(full_orbit)
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
    idx = 0
    for G in L.finite_gaps:
        lines.append(f"G{idx} {FiniteRegion(G).serialize()}")
        idx += 1
    for g in L.fatou_gaps:
        lines.append(f"G{idx} {g.serialize()}")
        idx += 1
    return "\n".join(lines) + "\n"


class LamFormatError(ValueError):
    """Malformed .lam text; the message names the line."""


def _angle_parts(text: str) -> Tuple[int, int]:
    """Numerator and denominator of the angle `parse_angle(text)`, reduced;
    plain "p/q" and "p" are read without building a Fraction."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (
            not slash or den.isascii() and den.isdigit()):
        q = int(den) if slash else 1
        if q:
            p = int(num) % q
            g = gcd(p, q)
            return p // g, q // g
    x = parse_angle(text)
    return x.numerator, x.denominator


def _integer(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def loads(text: str) -> Lamination:
    """Read the .lam format that `dumps` writes.  Malformed text raises
    LamFormatError.  The leaves are read as integers: each angle reduced,
    then scaled to the lcm of the file's denominators."""
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
        angles: Dict[str, Tuple[int, int]] = {}
        rows = []
        for no, line in numbered:
            if line == "[gaps]":
                break
            parts = line.split()
            ends = parts[0].split("-")
            if len(ends) != 2:
                raise ValueError(f"bad chord syntax: {parts[0]!r}")
            ta, tb = ends
            a = angles.get(ta) or angles.setdefault(ta, _angle_parts(ta))
            b = angles.get(tb) or angles.setdefault(tb, _angle_parts(tb))
            level = _integer(parts[1], "level") if len(parts) > 1 else 0
            if not 0 <= level <= depth:
                raise ValueError(f"level {level} is outside 0..{depth}")
            rows.append((a, b, level))
        fatou: List[object] = []
        finite: List[LamSet] = []
        for no, line in numbered:
            name_spec = line.split(None, 1)
            if len(name_spec) < 2:
                raise ValueError("gap line without a spec")
            obj = _parse_region(name_spec[1], d)
            if isinstance(obj, FiniteRegion):
                finite.append(obj.base)
            else:
                fatou.append(obj)
    except ValueError as exc:
        raise LamFormatError(f"line {no}: {exc}") from None
    N = lcm(*(q for _, q in angles.values()))
    pairs: Dict[Tuple[int, int], int] = {}
    for (pa, qa), (pb, qb), lvl in rows:
        a, b = pa * (N // qa), pb * (N // qb)
        pairs[(a, b) if a <= b else (b, a)] = lvl
    return Lamination(d=d, depth=depth, recipe=header.get("recipe", "file"),
                      leaves=Leaves(N, pairs), fatou_gaps=fatou, finite_gaps=finite,
                      registry_complete=registry_complete)


def _parse_region(spec: str, d: int):
    fields = parse_fields(spec)
    kind = fields["kind"]
    if kind in ("finite", "attached"):
        deg = _integer(fields.get("degree", d), "degree")
        if deg != d:
            raise ValueError(f"gap degree {deg} does not match d={d}")
    if kind == "finite":
        return FiniteRegion(parse_lamset(fields["vertices"], d))
    if kind == "attached":
        G = parse_lamset(fields["set"], d)
        index = _integer(fields["index"], "index")
        if not 0 <= index < len(G):
            raise ValueError(f"attached gap index {index} is not an edge of a "
                             f"{len(G)}-vertex set")
        return AttachedGap(G, index)
    if kind == "vassal-image":
        base = VassalGap(
            major=parse_chord(fields["major"]),
            hole=_parse_arc(fields["hole"]),
            period=int(fields["period"]),
        )
        gap = ImageGap(base, int(fields["power"]))
    else:
        gap = parse_gapgen(spec)
    if d != 3:
        raise ValueError(f"a {kind} gap needs d=3, got d={d}")
    return gap


def write_lamination(L: Lamination, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(L))


def read_lamination(path: str) -> Lamination:
    with open(path) as fh:
        return loads(fh.read())
