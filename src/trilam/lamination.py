"""Finitely presented invariant laminations.

A lamination here is a truncated leaf set generated by Thurston pullback
from a registered family of gaps (the quadratic gaps of `quadgap`, finite
rotational polygons, and the Fatou gaps attached to them).  The registry is
what makes the truncation honest: invariance is checked leaf by leaf, and
isolation of leaves (for cleaning) is decided combinatorially against the
registered gaps instead of a metric criterion that a finite set cannot
certify.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chords import Chord, format_chord, linked, parse_chord
from .circle import (
    Arc,
    arc_length,
    fixed_points,
    format_angle,
    orbit,
    parse_angle,
    sigma_iter,
)
from .core import _numerators, endpoint_classes, periodic_rotational_classes
from .lamsets import (
    LamSet,
    RotationalReport,
    _displacement,
    classify_rotational,
    format_lamset,
    holes,
    majors,
    parse_lamset,
)
from .quadgap import (
    GapGen,
    VassalGap,
    _leaf_period,
    below_diameter,
    classify_critical,
    gap_from_major,
    parse_gapgen,
    psi,
    vassal,
)

class PullbackAmbiguityError(RuntimeError):
    """The admissible sibling collection at some pullback step was not the
    expected size; the construction refuses to guess."""


# ---------------------------------------------------------------------------
# gap region types beyond quadgap


@dataclass(frozen=True)
class FiniteRegion:
    """A finite laminational set registered as a gap (or single leaf)."""

    base: LamSet
    kind: str = "finite"

    def edge_chords(self, depth: int) -> List[Chord]:
        return sorted({e for e, _ in holes(self.base)})

    def serialize(self) -> str:
        return f"kind=finite degree={self.base.degree_d} vertices={format_lamset(self.base)}"


@dataclass(frozen=True)
class ImageGap:
    """Forward image sigma^power of a base gap (used for the vassal cycle)."""

    base: VassalGap
    power: int
    kind: str = "vassal-image"

    def edge_chords(self, depth: int) -> List[Chord]:
        out = []
        for e in self.base.edge_chords(depth):
            out.append(Chord(sigma_iter(3, e.a, self.power), sigma_iter(3, e.b, self.power)))
        return out

    def serialize(self) -> str:
        return f"kind=vassal-image power={self.power} {self.base.serialize().removeprefix('kind=vassal ')}"


@dataclass(frozen=True)
class AttachedGap:
    """The Fatou gap attached to edge `index` of a rotational set G.

    Its basis consists of the points x whose iterates track the hole cycle:
    sigma^s(x) stays in the closure of the hole that edge `index` reaches
    after s steps.  Enumeration is by interval refinement; every interval
    endpoint produced at a finite stage is a genuine basis point (it is a
    finite preimage of a vertex of G)."""

    base: LamSet
    index: int
    kind: str = "attached"

    @property
    def outer_edge(self) -> Chord:
        vs = self.base.vertices
        return Chord(vs[self.index], vs[(self.index + 1) % len(vs)])

    @property
    def is_critical(self) -> bool:
        return self.outer_edge in majors(self.base)

    def arcs(self, depth: int) -> List[Tuple[Fraction, Fraction]]:
        vs = self.base.vertices
        v = vs[self.index]
        return [((v + lo) % 1, (v + hi) % 1)
                for lo, hi in _tracked(self.base, depth)[self.index]]

    def edge_chords(self, depth: int) -> List[Chord]:
        segs = self.arcs(depth)
        out = [self.outer_edge]
        for j in range(len(segs) - 1):
            if segs[j][1] != segs[j + 1][0]:
                out.append(Chord(segs[j][1], segs[j + 1][0]))
        return out

    def serialize(self) -> str:
        return (f"kind=attached degree={self.base.degree_d} "
                f"set={format_lamset(self.base)} index={self.index}")


_TRACK_CACHE: Dict[Tuple, List[List[Tuple[Fraction, Fraction]]]] = {}


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


def _tracked(G: LamSet, rounds: int) -> List[List[Tuple[Fraction, Fraction]]]:
    """Per edge index: the surviving closed sub-intervals of the hole (in
    local coordinates from the hole's start vertex) after `rounds` steps of
    hole tracking."""
    key = (G.vertices, G.degree_d, rounds)
    if key in _TRACK_CACHE:
        return _TRACK_CACHE[key]
    d = G.degree_d
    vs = G.vertices
    n = len(vs)
    p = _displacement(G)
    if p is None:
        raise ValueError("hole tracking needs a rigid edge rotation")
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
    for i in range(n):
        if not (J[i] and J[i][0][0] == 0 and J[i][-1][1] == hl[i]):
            raise AssertionError("hole endpoints must always track")
    _TRACK_CACHE[key] = J
    return J


def attached_cycle(G: LamSet) -> List[AttachedGap]:
    """All Fatou gaps attached to the edges of a rotational set."""
    return [AttachedGap(G, i) for i in range(len(holes(G)))]


# ---------------------------------------------------------------------------
# regions with fast crossing tests


class _RegionView:
    """Boundary points of a gap as sorted numerators over the common
    denominator of one construction; crossing tests are exact bisection."""

    def __init__(self, pts: Iterable[int]):
        self.pts = sorted(pts)

    def crosses(self, a: int, b: int) -> bool:
        """True iff the chord a-b (a < b) has boundary points of this region
        strictly on both sides."""
        pts = self.pts
        return bisect_right(pts, a) < bisect_left(pts, b) \
            and (pts[0] < a or pts[-1] > b)


# ---------------------------------------------------------------------------
# the lamination type


@dataclass
class Lamination:
    d: int
    depth: int
    recipe: str
    leaves: Dict[Chord, int] = field(default_factory=dict)  # leaf -> level
    fatou_gaps: List[object] = field(default_factory=list)
    finite_gaps: List[LamSet] = field(default_factory=list)
    registry_complete: bool = False

    @property
    def leaf_list(self) -> List[Chord]:
        return sorted(self.leaves)

    def __len__(self):
        return len(self.leaves)

    def __repr__(self):
        return (f"Lamination(d={self.d}, depth={self.depth}, "
                f"recipe={self.recipe!r}, {len(self.leaves)} leaves)")


# ---------------------------------------------------------------------------
# pullback engine


_REGION_MARGIN = 2  # extra enumeration depth for crossing tests


def _pullback_closure(d: int, seeds: Sequence[Chord],
                      regions: Sequence[object], depth: int) -> Dict[Chord, int]:
    """Thurston pullback of the seeds, `depth` levels deep: each leaf's d
    sibling preimages are the preimage pairs that cross no region.

    Runs on exact integers: every angle is its numerator over N, the lcm of
    d**depth times the seed denominators and of every region boundary
    denominator.  The preimages of x are x // d + k * (N // d), exact above
    the last level.  Chords are rebuilt at the end, in insertion order."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    bounds = [{x for e in obj.edge_chords(depth + _REGION_MARGIN) for x in (e.a, e.b)}
              for obj in regions]
    N = lcm(d ** depth * lcm(*(x.denominator for s in seeds for x in (s.a, s.b))),
            *(x.denominator for pts in bounds for x in pts))

    def num(x: Fraction) -> int:
        return x.numerator * (N // x.denominator)

    def chord(c: Tuple[int, int]) -> Chord:
        return Chord(Fraction(c[0], N), Fraction(c[1], N))

    views = [_RegionView(map(num, pts)) for pts in bounds]
    leaves: Dict[Tuple[int, int], int] = {(num(s.a), num(s.b)): 0 for s in seeds}
    frontier = list(leaves)
    step = N // d
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            pa = [leaf[0] // d + k * step for k in range(d)]
            pb = [leaf[1] // d + k * step for k in range(d)]
            valid = []
            for p in pa:
                for q in pb:
                    c = (p, q) if p <= q else (q, p)
                    if c in leaves or not any(R.crosses(*c) for R in views):
                        valid.append(c)
            if len(valid) != d:
                raise PullbackAmbiguityError(
                    f"pullback of {format_chord(chord(leaf))} admits {len(valid)} "
                    f"siblings where exactly {d} were expected"
                )
            for c in valid:
                if c not in leaves:
                    leaves[c] = level
                    fresh.append(c)
        frontier = fresh
    return {chord(c): lvl for c, lvl in leaves.items()}


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
    leaves = _pullback_closure(3, seeds, region_objs, depth)
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
    track the hole cycle, then pull back the edges of G avoiding all of
    them."""
    rep = classify_rotational(G)
    if not (rep.is_rotational or rep.diameter_special):
        raise ValueError("canonical construction needs a rotational set")
    d = G.degree_d
    cycle = attached_cycle(G)
    region_objs: List[object] = [FiniteRegion(G)] + list(cycle)
    seeds = sorted({e for e, _ in holes(G)})
    leaves = _pullback_closure(d, seeds, region_objs, depth)
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
    linked_pairs: List[Tuple[Chord, Chord]]
    forward_missing: List[Chord]
    sibling_missing: List[Chord]
    gap_violations: List[str]

    @property
    def ok(self) -> bool:
        return not (self.linked_pairs or self.forward_missing
                    or self.sibling_missing or self.gap_violations)

    def lines(self) -> List[str]:
        out = [f"leaves: {self.leaf_count}",
               f"linked_pairs: {len(self.linked_pairs)}",
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
    """Crossing pairs in a family of chords given as endpoint pairs a <= b,
    O(n log n) when the family is laminar (intervals [a, b] pairwise nested
    or disjoint).  Every pair returned crosses, and the result is empty
    only for a laminar family; past the first crossing the stack is no
    longer a nested chain, so not every crossing pair is found."""
    out = []
    stack: List[Tuple[int, int]] = []
    for c in sorted(set(chords), key=lambda c: (c[0], -c[1])):
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


def _crosses(x: Tuple[int, int], y: Tuple[int, int]) -> bool:
    """`chords.linked` for endpoint pairs a <= b on a common scale."""
    return x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1]


def check_invariance(L: Lamination) -> InvarianceReport:
    """Leaf-by-leaf invariance check: linked pairs, forward images, sibling
    collections of leaves below the truncation depth, and holes of the
    finite gap polygons.

    The check runs on exact integers: every endpoint becomes its numerator
    over N, the lcm of all endpoint denominators.  Numerator order is angle
    order, and sigma_d is x -> d*x mod N.  Chords and angles are rebuilt
    only for the report."""
    d = L.d
    N, keys = _numerators(L.leaves)
    chord_of = dict(zip(keys, L.leaves))
    level = dict(zip(keys, L.leaves.values()))
    leaf_list = sorted(chord_of)

    linked_pairs = [(chord_of[x], chord_of[y])
                    for x, y in _find_linked_pairs(leaf_list)]

    forward_missing = []
    image_of: Dict[Tuple[int, int], Tuple[int, int]] = {}
    by_image: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for c in leaf_list:
        u, v = d * c[0] % N, d * c[1] % N
        if u == v:
            continue
        img = (u, v) if u < v else (v, u)
        image_of[c] = img
        by_image.setdefault(img, []).append(c)
        if img not in chord_of:
            forward_missing.append(chord_of[c])

    sibling_missing = []
    for c, img in image_of.items():
        if level[c] >= L.depth:
            continue
        others = [x for x in by_image[img] if x != c]
        has_collection = any(
            not any(_crosses(x, y) for x, y in combinations((c,) + combo, 2))
            for combo in combinations(others, d - 1))
        if not has_collection:
            sibling_missing.append(chord_of[c])

    gap_violations = []
    for cls in endpoint_classes(leaf_list):
        n = len(cls)
        if n < 3:
            continue
        # only treat full polygons (every consecutive chord a leaf) as gaps
        if (cls[0], cls[-1]) not in chord_of or not all(
                (cls[i], cls[i + 1]) in chord_of for i in range(n - 1)):
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
        forward_missing=forward_missing,
        sibling_missing=sibling_missing,
        gap_violations=gap_violations,
    )


# ---------------------------------------------------------------------------
# cleaning


@dataclass
class CleanReport:
    stages: List[Lamination]
    removed_per_stage: List[int]
    super_gap_count: int
    whole_disk: bool

    @property
    def final(self) -> Lamination:
        return self.stages[-1] if self.stages else None

    def lines(self) -> List[str]:
        out = [f"stages: {len(self.stages)}"]
        for i, r in enumerate(self.removed_per_stage, 1):
            out.append(f"  stage {i}: removed {r} leaves")
        out.append(f"final_leaves: {len(self.final.leaves) if self.final else 0}")
        out.append(f"super_gaps: {self.super_gap_count}")
        out.append(f"whole_disk: {str(self.whole_disk).lower()}")
        return out


def clean(L: Lamination) -> CleanReport:
    """Iteratively remove isolated leaves (those bordering two gaps of the
    registry) and report the merged super-gaps.

    Isolation is combinatorial: the constructors register every base gap and
    each pullback step carries gaps along, so in a canonical lamination every
    leaf borders two gaps.  The merge graph of gap regions across removed
    leaves is the laminar forest of the leaf set plus the root face, which is
    connected — removing everything leaves the whole disk as the unique
    super-gap.  Laminations without a complete registry cannot decide
    isolation at a finite truncation and are rejected.
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
    return CleanReport(stages=[empty], removed_per_stage=[removed],
                       super_gap_count=1, whole_disk=True)


# ---------------------------------------------------------------------------
# projection through a quadratic gap


def project_through_gap(U: GapGen, L: Lamination) -> Lamination:
    """Collapse L through the boundary map of U: leaves with both endpoints
    in U's basis map endpoint-wise by psi; degenerate images are dropped."""
    M = U.major
    for c in L.leaves:
        if linked(c, M):
            raise ValueError(
                f"leaf {format_chord(c)} crosses the major {format_chord(M)}"
            )
    out: Dict[Chord, int] = {}
    for c in L.leaves:
        if U.in_basis(c.a) and U.in_basis(c.b):
            pa, pb = psi(U, c.a), psi(U, c.b)
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


def dumps(L: Lamination) -> str:
    lines = [f"d={L.d} depth={L.depth} recipe={L.recipe}",
             f"registry={'complete' if L.registry_complete else 'partial'}",
             "[leaves]"]
    _, keys = _numerators(L.leaves)
    for _, (c, lvl) in sorted(zip(keys, L.leaves.items())):
        lines.append(f"{format_chord(c)} {lvl}")
    lines.append("[gaps]")
    idx = 0
    for G in L.finite_gaps:
        lines.append(f"G{idx} {FiniteRegion(G).serialize()}")
        idx += 1
    for g in L.fatou_gaps:
        lines.append(f"G{idx} {g.serialize()}")
        idx += 1
    return "\n".join(lines) + "\n"


def loads(text: str) -> Lamination:
    lines = [ln.rstrip("\n") for ln in text.strip().splitlines() if ln.strip()]
    header = dict(p.split("=", 1) for p in lines[0].split())
    d = int(header["d"])
    depth = int(header["depth"])
    recipe = header.get("recipe", "file")
    registry_complete = False
    i = 1
    if i < len(lines) and lines[i].startswith("registry="):
        registry_complete = lines[i].split("=", 1)[1] == "complete"
        i += 1
    if i >= len(lines) or lines[i] != "[leaves]":
        raise ValueError("lamination file: missing [leaves] section")
    i += 1
    leaves: Dict[Chord, int] = {}
    while i < len(lines) and lines[i] != "[gaps]":
        parts = lines[i].split()
        leaves[parse_chord(parts[0])] = int(parts[1]) if len(parts) > 1 else 0
        i += 1
    fatou: List[object] = []
    finite: List[LamSet] = []
    if i < len(lines) and lines[i] == "[gaps]":
        i += 1
        while i < len(lines):
            _, spec = lines[i].split(" ", 1)
            obj = _parse_region(spec, d)
            if isinstance(obj, FiniteRegion):
                finite.append(obj.base)
            else:
                fatou.append(obj)
            i += 1
    return Lamination(d=d, depth=depth, recipe=recipe, leaves=leaves,
                      fatou_gaps=fatou, finite_gaps=finite,
                      registry_complete=registry_complete)


def _parse_region(spec: str, d: int):
    fields = dict(p.split("=", 1) for p in spec.split())
    kind = fields["kind"]
    if kind == "finite":
        deg = int(fields.get("degree", d))
        return FiniteRegion(parse_lamset(fields["vertices"], deg))
    if kind == "attached":
        deg = int(fields.get("degree", d))
        return AttachedGap(parse_lamset(fields["set"], deg), int(fields["index"]))
    if kind == "vassal-image":
        base = VassalGap(
            major=parse_chord(fields["major"]),
            hole=Arc(*(parse_angle(x) for x in fields["hole"].split(","))),
            period=int(fields["period"]),
        )
        return ImageGap(base, int(fields["power"]))
    return parse_gapgen(spec)


def write_lamination(L: Lamination, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(L))


def read_lamination(path: str) -> Lamination:
    with open(path) as fh:
        return loads(fh.read())
