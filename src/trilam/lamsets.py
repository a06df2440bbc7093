"""Finite laminational sets: holes, majors, rotation numbers, and the
recognition / enumeration of invariant rotational sets (types A, B, D)."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb, gcd, lcm
from typing import Iterable, List, Optional, Tuple

from .chords import Chord
from .circle import Arc, _angle_parts, _orbit_walk, _over, angle, arc_length, format_angle
from .quadgap import _POINT_BUDGET, LeafBudgetError


@dataclass(frozen=True)
class LamSet:
    """A nonempty finite set of angles and the degree of the ambient map,
    stored as its sorted distinct numerators `nums` over M, the lcm of the
    reduced denominators; `vertices` is the same set as sorted angles in
    [0, 1), a read-only view.  For two vertices the single chord is a gap
    with empty interior and two oriented edges (so it has two holes).
    """

    M: int
    nums: Tuple[int, ...]
    degree_d: int = 3

    def __init__(self, vertices, degree_d: int = 3):
        vs = set(map(angle, vertices))
        M = lcm(*(v.denominator for v in vs))
        self._store(M, [_over(M, v) for v in vs], degree_d)

    @classmethod
    def _from_nums(cls, N: int, nums: Iterable[int], degree_d: int) -> LamSet:
        """The set of the angles x/N for x in `nums`, each in 0..N-1."""
        G = cls.__new__(cls)
        G._store(N, nums, degree_d)
        return G

    def _store(self, N: int, nums: Iterable[int], degree_d: int) -> None:
        xs = sorted(set(nums))
        if not xs:
            raise ValueError("a laminational set needs at least one vertex")
        g = gcd(N, *xs)  # over M = N / g the angles' denominators have lcm M
        object.__setattr__(self, "M", N // g)
        object.__setattr__(self, "nums", tuple(x // g for x in xs))
        object.__setattr__(self, "degree_d", degree_d)

    @cached_property
    def vertices(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(x, self.M) for x in self.nums)

    def __len__(self):
        return len(self.nums)

    def __repr__(self):
        return f"LamSet({{{format_lamset(self)}}}, d={self.degree_d})"


def parse_lamset(text: str, degree_d: int = 3) -> LamSet:
    """Parse the comma-separated form "1/26,3/26,9/26"."""
    parts = [p for p in text.strip().split(",") if p]
    if not parts:
        raise ValueError(f"bad laminational-set syntax: {text!r}")
    pq = [_angle_parts(p) for p in parts]
    M = lcm(*(q for _, q in pq))
    return LamSet._from_nums(M, (p * (M // q) for p, q in pq), degree_d)


def format_lamset(G: LamSet) -> str:
    return ",".join(format_angle(v) for v in G.vertices)


def holes(G: LamSet) -> List[Tuple[Chord, Arc]]:
    """One (edge, hole) pair per consecutive vertex pair; hole lengths sum
    to 1.  A singleton set has no holes."""
    n = len(G)
    if n == 1:
        return []
    vs = G.vertices
    return [
        (Chord(vs[i], vs[(i + 1) % n]), Arc(vs[i], vs[(i + 1) % n]))
        for i in range(n)
    ]


def majors(G: LamSet) -> List[Chord]:
    """Edges whose hole is not shorter than 1/d."""
    thresh = Fraction(1, G.degree_d)
    return [e for e, h in holes(G) if arc_length(h) >= thresh]


@dataclass(frozen=True)
class RotationalReport:
    is_invariant: bool
    is_rotational: bool
    rotation_number: Optional[Fraction] = None
    type_tag: str = "NotRotational"  # A | B | D | NotRotational
    majors: Tuple[Chord, ...] = ()
    orbit_count: int = 0
    diameter_special: bool = False


def classify_rotational(G: LamSet) -> RotationalReport:
    """Recognize invariant rotational sets and assign type A/B/D.

    The diameter {0, 1/2} under sigma_3 gets rotation number 0 and
    is_rotational = False, but carries the `diameter_special` flag since it
    plays the role of a type-D set downstream.

    One table decides the rest: the index of the image of each numerator
    over M.  Edge i is a major iff d times its hole, over M, is at least M.
    When every vertex moves i -> i + p, so does every edge, and both the
    vertex orbits and the edge cycles are the classes of i mod gcd(n, p).
    """
    d, M, nums, n = G.degree_d, G.M, G.nums, len(G)
    index = {x: i for i, x in enumerate(nums)}
    image = [index.get(d * x % M) for x in nums]
    if set(image) != set(range(n)):
        return RotationalReport(is_invariant=False, is_rotational=False)
    big = [i for i in range(n) if d * ((nums[(i + 1) % n] - nums[i]) % M) >= M]
    majs = tuple(Chord(Fraction(nums[i], M), Fraction(nums[(i + 1) % n], M)) for i in big)

    if d == 3 and (M, nums) == (2, (0, 1)):
        return RotationalReport(
            is_invariant=True,
            is_rotational=False,
            rotation_number=Fraction(0),
            type_tag="D",
            majors=majs,
            orbit_count=2,
            diameter_special=True,
        )

    p = image[0]
    if p == 0 or any(image[i] != (i + p) % n for i in range(n)):
        # circular order not preserved as a rigid rotation, or refixed points
        return RotationalReport(is_invariant=True, is_rotational=False)
    g = gcd(n, p)
    if len(big) == 1:
        tag = "A"
    elif len(big) == 2:
        tag = "B" if big[0] % g == big[1] % g else "D"
    else:
        # from d = 4 on a rotational set may have more majors than the
        # A/B/D types name; report it as not rotational
        return RotationalReport(is_invariant=True, is_rotational=False)
    return RotationalReport(
        is_invariant=True,
        is_rotational=True,
        rotation_number=Fraction(p, n),
        type_tag=tag,
        majors=majs,
        orbit_count=g,
    )


def hold_scan_budget(d: int, q: int) -> None:
    """Raise LeafBudgetError when the scan for the sigma_d-cycles of length
    q, q points for each of C(q + d - 1, d - 1) words, is over _POINT_BUDGET."""
    bound = comb(q + d - 1, d - 1) * q
    if bound > _POINT_BUDGET:
        raise LeafBudgetError(f"q = {q} may scan up to {bound} points, "
                              f"over the point budget of {_POINT_BUDGET}")


def _cycles_with_rotation(d: int, rho: Fraction) -> List[List[int]]:
    """All single sigma_d-cycles of exact length q on which x -> d*x shifts
    the sorted points by p places, rho = p/q, as sorted numerators over
    d^q - 1.  For d <= 3 each has one or two majors: type A, B or D.
    The sorted points' first base-d digits do not decrease, and
    sigma_d^k(x_0) = x_(kp mod q) begins with the k-th digit of x_0, so x_0
    is read off one of the C(q + d - 1, d - 1) non-decreasing digit words."""
    p, q = rho.numerator, rho.denominator
    hold_scan_budget(d, q)
    den = d ** q - 1
    out = set()
    for cuts in combinations_with_replacement(range(q + 1), d - 1):
        x = 0
        for k in range(q):
            x = x * d + bisect_right(cuts, k * p % q)
        pts = sorted(_orbit_walk(d, x % den, den)[0])
        if len(pts) == q and all(d * pts[i] % den == pts[(i + p) % q] for i in range(q)):
            out.add(tuple(pts))
    return [list(pts) for pts in sorted(out)]


def enumerate_rotational(d: int, rho: Fraction, max_orbits: int = 2) -> List[LamSet]:
    """All invariant rotational sets of sigma_d with rotation number rho and
    at most max_orbits vertex orbits, over d^q - 1 (which carries every
    period-q point).  Only d = 2 and d = 3 are covered: from d = 4 on a
    rotational set may have more than two majors, which the A/B/D types do
    not name."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if d > 3:
        raise ValueError(f"rotational sets are enumerated for d = 2 and 3 only, got {d}")
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rotation number must lie in (0, 1)")
    if max_orbits not in (1, 2):
        raise ValueError("max_orbits must be 1 or 2")
    cycles = _cycles_with_rotation(d, rho)
    sets = list(cycles)
    if max_orbits == 2:
        # Two disjoint cycles that each shift by p of q places and alternate
        # shift by 2p of 2q places together: their union is rotational with
        # rotation number rho and two orbits, and for d <= 3 one or two majors.
        for a, b in combinations(cycles, 2):
            union = sorted(a + b)
            if union[::2] in (a, b):
                sets.append(union)
    return [LamSet._from_nums(d ** rho.denominator - 1, xs, d) for xs in sorted(sets)]
