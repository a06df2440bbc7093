"""The union-find invariance check: the `check_invariance` that trilam ran
before it found gap polygons by a side walk and filtered the forward and
sibling checks on distinct images, kept as a test oracle.

It finds the gap polygons among the connected components of the endpoint
graph (`core.endpoint_classes`) and tests every leaf's image against the
store.  `trilam.lamination.check_invariance` must give the same report:
every field and list, in order, and the same `lines()`.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Tuple

from trilam.circle import format_angle
from trilam.core import endpoint_classes
from trilam.lamination import (
    InvarianceReport,
    Lamination,
    _count_crossings,
    _crosses,
    _find_linked_pairs,
)


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
