"""Bounded-period dynamical-core reports.

Infinite invariants (limit sets, full cores) are out of reach for a finite
truncation; what IS finitely checkable is the census of periodic rotational
classes up to a period bound and the separation predicate for finite
classes.  That census is exactly what the SMP classifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .circle import format_angle
from .lamsets import LamSet, RotationalReport, classify_rotational, format_lamset

T = TypeVar("T")


@dataclass
class CoreReport:
    period_bound: int
    rotational_classes: List[Tuple[LamSet, RotationalReport]]
    cut_classes: List[Tuple[Fraction, ...]]
    summary: str  # EmptyCore | SinglePoint | MultipleRotational

    def lines(self) -> List[str]:
        out = [f"period_bound: {self.period_bound}",
               f"summary: {self.summary}",
               f"cut_classes: {len(self.cut_classes)}",
               f"rotational_classes: {len(self.rotational_classes)}"]
        for G, rep in self.rotational_classes:
            out.append(
                f"  {format_lamset(G)} rho={format_angle(rep.rotation_number) if rep.rotation_number else '0'}"
                f" type={rep.type_tag}"
            )
        return out


def endpoint_classes(pairs: Iterable[Tuple[T, T]]) -> List[Tuple[T, ...]]:
    """Connected components of the graph whose edges are the given endpoint
    pairs, each sorted, in sorted order.  Endpoints may be any hashable,
    ordered values (angles, or integer numerators over one denominator)."""
    parent: Dict[T, T] = {}

    def find(x: T) -> T:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: Dict[T, List[T]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


def _class_period(d: int, N: int, cls: Tuple[int, ...], bound: int) -> Optional[int]:
    """Minimal j <= bound with sigma_d^j(cls) = cls as a set, for a class
    of numerators over N."""
    cset = set(cls)
    m = 1
    for j in range(1, bound + 1):
        m = m * d % N
        if m * cls[0] % N in cset and {m * v % N for v in cls} == cset:
            return j
    return None


def periodic_rotational_classes(L, period_bound: int = 6) -> CoreReport:
    """Census of periodic classes whose return map acts as a nontrivial
    rotation.  The return map of a period-j class is sigma_d^j = sigma_{d^j},
    so the rotational test reuses the plain classifier at degree d^j.  The
    classes are found on the lamination's numerators over N, where sigma_d
    is d*x mod N."""
    d = L.d
    N = L.leaves.N
    classes = [c for c in endpoint_classes(L.leaves.pairs) if len(c) >= 2]
    cut_classes = [tuple(Fraction(v, N) for v in c) for c in classes]
    rotational: List[Tuple[LamSet, RotationalReport]] = []
    for cls, angles in zip(classes, cut_classes):
        j = _class_period(d, N, cls, period_bound)
        if j is None:
            continue
        G = LamSet(angles, degree_d=d ** j)
        rep = classify_rotational(G)
        if rep.is_rotational:
            rotational.append((G, rep))
    if not rotational:
        summary = "EmptyCore"
    elif len(rotational) == 1:
        summary = "SinglePoint"
    else:
        summary = "MultipleRotational"
    return CoreReport(
        period_bound=period_bound,
        rotational_classes=rotational,
        cut_classes=cut_classes,
        summary=summary,
    )


def separates(L, g: Sequence[Fraction], A: Sequence[Fraction],
              B: Sequence[Fraction]) -> bool:
    """True iff the convex hull of class g separates point sets A and B in
    the disk: they fall into different complementary arcs of g's vertices."""
    gs = sorted(x % 1 for x in g)
    aset = {x % 1 for x in A}
    bset = {x % 1 for x in B}
    if (aset | bset) & set(gs):
        raise ValueError("A and B must be disjoint from g")
    if aset & bset:
        raise ValueError("A and B must be disjoint from each other")
    if len(gs) < 2:
        return False

    def arc_index(x: Fraction) -> int:
        # index i: x lies in the open arc (gs[i], gs[i+1])
        for i in range(len(gs)):
            lo, hi = gs[i], gs[(i + 1) % len(gs)]
            if 0 < (x - lo) % 1 < (hi - lo) % 1:
                return i
        raise ValueError(f"{format_angle(x)} not in any complementary arc")

    arcs_a = {arc_index(x) for x in aset}
    arcs_b = {arc_index(x) for x in bset}
    if len(arcs_a) > 1 or len(arcs_b) > 1:
        raise ValueError("each point set must lie in a single complementary arc")
    return arcs_a != arcs_b
