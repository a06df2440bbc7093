"""Bounded-period dynamical-core reports.

Infinite invariants (limit sets, full cores) are out of reach for a finite
truncation; what IS finitely checkable is the census of periodic rotational
classes up to a period bound.  That census is exactly what the SMP
classifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, TypeVar

from .circle import _set_period, format_angle
from .lamsets import LamSet, RotationalReport, classify_rotational, format_lamset

T = TypeVar("T")


@dataclass
class CoreReport:
    period_bound: int
    rotational_classes: List[Tuple[LamSet, RotationalReport]]
    cut_classes: List[Tuple[int, ...]]  # endpoint classes, as numerators over the leaves' N
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


def periodic_rotational_classes(L, period_bound: int = 6) -> CoreReport:
    """Census of periodic classes whose return map acts as a nontrivial
    rotation.  The return map of a period-j class is sigma_d^j = sigma_{d^j},
    so the rotational test reuses the plain classifier at degree d^j.  The
    classes are found on the lamination's numerators over N, where sigma_d
    is d*x mod N.  Only classes of periodic points are walked."""
    if period_bound < 1:
        raise ValueError(f"period_bound must be >= 1, got {period_bound}")
    d = L.d
    N = L.leaves.N
    classes = [c for c in endpoint_classes(L.leaves.pairs()) if len(c) >= 2]
    rotational: List[Tuple[LamSet, RotationalReport]] = []
    for cls in classes:
        j = _set_period(d, N, cls, period_bound)
        if j is None:
            continue
        G = LamSet([Fraction(v, N) for v in cls], degree_d=d ** j)
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
        cut_classes=classes,
        summary=summary,
    )

