"""Bounded-period dynamical-core reports.

Infinite invariants (limit sets, full cores) are out of reach for a finite
truncation; what IS finitely checkable is the census of periodic rotational
classes up to a period bound.  That census is exactly what the SMP
classifier consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from math import gcd
from operator import lt, mod, not_, or_
from typing import Dict, Iterable, List, Tuple

from .circle import _set_period, format_angle
from .lamsets import LamSet, RotationalReport, classify_rotational, format_lamset


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


def _classes(pairs: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """The components, in no order, of the graph of the given pairs: each point
    maps to its component's list; a join moves the shorter list into the longer."""
    comp: Dict[int, List[int]] = {}
    for a, b in pairs:
        ca, cb = comp.get(a), comp.get(b)
        if ca is None and cb is None:
            comp[a] = comp[b] = [a] if a == b else [a, b]
        elif ca is None or cb is None:
            c, x = (cb, a) if ca is None else (ca, b)
            c.append(x)
            comp[x] = c
        elif ca is not cb:
            if len(ca) < len(cb):
                ca, cb = cb, ca
            ca += cb
            comp.update(dict.fromkeys(cb, ca))
    return list({id(c): c for c in comp.values()}.values())


def rotational_census(L, period_bound: int = 6) -> List[Tuple[LamSet, RotationalReport]]:
    """The sorted periodic classes of L, of period j <= `period_bound`, whose
    return map sigma_d^j = sigma_{d^j} is a rotation.  v/N is periodic iff P,
    the part of N made of d's primes, divides v: P | k and k % (N * P) < N pick
    the keys k = a * N + b with P | b and P | a.  Classes join the leaves with
    both ends periodic, less those a leaf with one periodic end touches."""
    if period_bound < 1:
        raise ValueError(f"period_bound must be >= 1, got {period_bound}")
    d, N, keys = L.d, L.leaves.N, L.leaves.packed
    P = gcd(N, d ** N.bit_length())
    ends_b = map(not_, map(mod, keys, repeat(P)))
    ends_a = map(lt, map(mod, keys, repeat(N * P)), repeat(N))
    both, mixed = [], set()  # leaves with two periodic ends; periodic ends of the others
    for a, b in map(divmod, compress(keys, map(or_, ends_a, ends_b)), repeat(N)):
        if a % P or b % P:
            mixed.add(b if a % P else a)
        else:
            both.append((a, b))
    rotational: List[Tuple[LamSet, RotationalReport]] = []
    for cls in sorted(tuple(sorted(c)) for c in _classes(both)
                      if len(c) >= 2 and mixed.isdisjoint(c)):
        j = _set_period(d, N, cls, period_bound)
        if j is None:
            continue
        G = LamSet._from_nums(N, cls, d ** j)
        rep = classify_rotational(G)
        if rep.is_rotational:
            rotational.append((G, rep))
    return rotational


def periodic_rotational_classes(L, period_bound: int = 6) -> CoreReport:
    """`rotational_census`, and every endpoint class of 2+ points over L's N."""
    rotational = rotational_census(L, period_bound)
    classes = sorted(tuple(sorted(c)) for c in _classes(L.leaves.pairs()) if len(c) >= 2)
    summary = ("EmptyCore", "SinglePoint", "MultipleRotational")[min(len(rotational), 2)]
    return CoreReport(period_bound, rotational, classes, summary)
