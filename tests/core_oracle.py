"""The endpoint-class census that trilam ran before it read only periodic
leaves, kept as a test oracle.

`endpoint_classes` is the union-find over every leaf, and `census` walks
`_set_period` over each class, as `core.periodic_rotational_classes` did.
The periodic-only census and the cut-class list in `trilam.core` must give
the same classes, rotational sets and report lines.
"""

from typing import Dict, Iterable, List, Tuple, TypeVar

from trilam.circle import _set_period
from trilam.core import CoreReport
from trilam.lamsets import LamSet, classify_rotational

T = TypeVar("T")


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


def census(L, period_bound: int = 6) -> CoreReport:
    """The core report from every endpoint class of L, each class's period
    found by `_set_period` on its numerators over N."""
    if period_bound < 1:
        raise ValueError(f"period_bound must be >= 1, got {period_bound}")
    d, N = L.d, L.leaves.N
    classes = [c for c in endpoint_classes(L.leaves.pairs()) if len(c) >= 2]
    rotational = []
    for cls in classes:
        j = _set_period(d, N, cls, period_bound)
        if j is None:
            continue
        G = LamSet._from_nums(N, cls, d ** j)
        rep = classify_rotational(G)
        if rep.is_rotational:
            rotational.append((G, rep))
    summary = ("EmptyCore", "SinglePoint")[len(rotational)] \
        if len(rotational) < 2 else "MultipleRotational"
    return CoreReport(period_bound, rotational, classes, summary)
