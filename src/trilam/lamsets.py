"""Finite laminational sets: holes, majors, rotation numbers, and the
recognition / enumeration of invariant rotational sets (types A, B, D)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Tuple

from .chords import Chord
from .circle import Arc, _orbit_walk, _over, angle, arc_length, format_angle, parse_angle


@dataclass(frozen=True)
class LamSet:
    """A nonempty finite vertex set in canonical circular order together
    with the degree of the ambient map.

    For two vertices the single chord is treated as a gap with empty
    interior and two oriented edges (so it has two holes).
    """

    vertices: Tuple[Fraction, ...]
    degree_d: int = 3

    def __init__(self, vertices, degree_d: int = 3):
        vs = sorted(set(map(angle, vertices)))
        if not vs:
            raise ValueError("a laminational set needs at least one vertex")
        object.__setattr__(self, "vertices", tuple(vs))
        object.__setattr__(self, "degree_d", degree_d)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "LamSet({" + ",".join(format_angle(v) for v in self.vertices) + "}" \
            + f", d={self.degree_d})"


def parse_lamset(text: str, degree_d: int = 3) -> LamSet:
    """Parse the comma-separated form "1/26,3/26,9/26"."""
    parts = [p for p in text.strip().split(",") if p]
    if not parts:
        raise ValueError(f"bad laminational-set syntax: {text!r}")
    return LamSet([parse_angle(p) for p in parts], degree_d)


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

    One table decides the rest: the vertices as numerators over M, the lcm
    of their denominators, and the index of each vertex's image.  Edge i is
    a major iff d times its hole, over M, is at least M.  When every vertex
    moves i -> i + p, so does every edge, and both the vertex orbits and the
    edge cycles are the classes of i mod gcd(n, p).
    """
    d, vs, n = G.degree_d, G.vertices, len(G)
    M = lcm(*(v.denominator for v in vs))
    nums = [_over(M, v) for v in vs]
    index = {x: i for i, x in enumerate(nums)}
    image = [index.get(d * x % M) for x in nums]
    if set(image) != set(range(n)):
        return RotationalReport(is_invariant=False, is_rotational=False)
    big = [i for i in range(n) if d * ((nums[(i + 1) % n] - nums[i]) % M) >= M]
    majs = tuple(Chord(vs[i], vs[(i + 1) % n]) for i in big)

    if d == 3 and vs == (Fraction(0), Fraction(1, 2)):
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


def _cycles_with_rotation(d: int, rho: Fraction) -> List[LamSet]:
    """All single sigma_d-cycles of exact length q whose circular dynamics is
    the rigid rotation by rho = p/q, walked on numerators over d^q - 1: the
    sorted points of such a cycle all shift by p places under x -> d*x.
    Every such cycle has at least one major, and for d <= 3 at most two, so
    each is a rotational set of type A, B or D."""
    p, q = rho.numerator, rho.denominator
    den = d ** q - 1
    seen = set()
    out = []
    for x in range(den):
        if x in seen:
            continue
        cyc, _ = _orbit_walk(d, x, den)
        seen.update(cyc)
        pts = sorted(cyc)
        if len(cyc) == q and all(d * pts[i] % den == pts[(i + p) % q] for i in range(q)):
            out.append(LamSet([Fraction(v, den) for v in cyc], d))
    return out


def enumerate_rotational(d: int, rho: Fraction, max_orbits: int = 2) -> List[LamSet]:
    """All invariant rotational sets of sigma_d with rotation number rho and
    at most max_orbits vertex orbits.  Brute force over angles of denominator
    d^q - 1 (which necessarily carries every period-q point).  Only d = 2
    and d = 3 are covered: from d = 4 on a rotational set may have more than
    two majors, which the A/B/D types do not name."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    if d > 3:
        raise ValueError(f"rotational sets are enumerated for d = 2 and 3 only, got {d}")
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rotation number must lie in (0, 1)")
    if max_orbits not in (1, 2):
        raise ValueError("max_orbits must be 1 or 2")
    singles = _cycles_with_rotation(d, rho)
    out = list(singles)
    if max_orbits == 2:
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                # two distinct cycles are disjoint, so the union has 2q vertices
                union = LamSet(singles[i].vertices + singles[j].vertices, d)
                rep = classify_rotational(union)
                if rep.is_rotational and rep.rotation_number == rho \
                        and rep.orbit_count == 2 and _alternates(union, singles[i]):
                    out.append(union)
    return sorted(out, key=lambda G: G.vertices)


def _alternates(union: LamSet, part: LamSet) -> bool:
    """Vertices of the two constituent orbits alternate around the circle."""
    members = set(part.vertices)
    marks = [v in members for v in union.vertices]
    return all(marks[i] != marks[(i + 1) % len(marks)] for i in range(len(marks)))
