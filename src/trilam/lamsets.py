"""Finite laminational sets: holes, majors, rotation numbers, and the
recognition / enumeration of invariant rotational sets (types A, B, D)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .chords import Chord, format_chord
from .circle import (
    Arc,
    arc_length,
    contains_closed,
    fixed_points,
    format_angle,
    parse_angle,
    sigma,
)


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
        vs = sorted({Fraction(v) % 1 for v in vertices})
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


def is_invariant(G: LamSet) -> bool:
    img = {sigma(G.degree_d, v) for v in G.vertices}
    return img == set(G.vertices)


def fixed_point_major_check(G: LamSet) -> bool:
    """An edge of an invariant set is a major iff the closure of its hole
    contains a sigma_d-fixed point; verify the two characterizations agree."""
    if not is_invariant(G):
        raise ValueError("fixed-point major criterion requires an invariant set")
    fixed = fixed_points(G.degree_d)
    thresh = Fraction(1, G.degree_d)
    for _, h in holes(G):
        by_length = arc_length(h) >= thresh
        by_fixed = any(
            contains_closed(h, f) or f == h.start for f in fixed
        )
        if by_length != by_fixed:
            return False
    return True


@dataclass(frozen=True)
class RotationalReport:
    is_invariant: bool
    is_rotational: bool
    rotation_number: Optional[Fraction] = None
    type_tag: str = "NotRotational"  # A | B | D | NotRotational
    majors: Tuple[Chord, ...] = ()
    orbit_count: int = 0
    diameter_special: bool = False

    def lines(self) -> List[str]:
        out = [
            f"invariant: {str(self.is_invariant).lower()}",
            f"rotational: {str(self.is_rotational).lower()}",
        ]
        if self.rotation_number is not None:
            out.append(f"rotation_number: {format_angle(self.rotation_number) if self.rotation_number else '0'}")
        out.append(f"type: {self.type_tag}")
        if self.majors:
            out.append("majors: " + " ".join(format_chord(m) for m in self.majors))
        if self.orbit_count:
            out.append(f"orbits: {self.orbit_count}")
        if self.diameter_special:
            out.append("diameter_special: true")
        return out


def _displacement(G: LamSet) -> Optional[int]:
    """If sigma_d acts on the ordered vertices as the rigid shift i -> i + p,
    return p; otherwise None."""
    vs = G.vertices
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    p = None
    for i, v in enumerate(vs):
        w = sigma(G.degree_d, v)
        if w not in index:
            return None
        shift = (index[w] - i) % n
        if p is None:
            p = shift
        elif shift != p:
            return None
    return p


def _orbit_count(G: LamSet) -> int:
    vs = set(G.vertices)
    remaining = set(vs)
    count = 0
    while remaining:
        x = next(iter(remaining))
        count += 1
        while x in remaining:
            remaining.discard(x)
            x = sigma(G.degree_d, x)
    return count


def classify_rotational(G: LamSet) -> RotationalReport:
    """Recognize invariant rotational sets and assign type A/B/D.

    The diameter {0, 1/2} under sigma_3 gets rotation number 0 and
    is_rotational = False, but carries the `diameter_special` flag since it
    plays the role of a type-D set downstream.
    """
    d = G.degree_d
    if not is_invariant(G):
        return RotationalReport(is_invariant=False, is_rotational=False)

    if d == 3 and G.vertices == (Fraction(0), Fraction(1, 2)):
        return RotationalReport(
            is_invariant=True,
            is_rotational=False,
            rotation_number=Fraction(0),
            type_tag="D",
            majors=tuple(majors(G)),
            orbit_count=2,
            diameter_special=True,
        )

    p = _displacement(G)
    if p is None or p == 0:
        # circular order not preserved as a rigid rotation, or refixed points
        return RotationalReport(is_invariant=True, is_rotational=False)

    n = len(G)
    rho = Fraction(p, n)
    majs = majors(G)
    # Edge i maps to edge i + p (mod n); edge cycles are the cosets mod gcd.
    g = gcd(n, p)
    edge_list = [e for e, _ in holes(G)]
    major_cycles = { edge_list.index(m) % g for m in majs }
    if len(majs) == 1:
        tag = "A"
    elif len(majs) == 2:
        tag = "B" if len(major_cycles) == 1 else "D"
    else:
        # cannot happen for a genuine rotational set; report honestly
        return RotationalReport(is_invariant=True, is_rotational=False)
    return RotationalReport(
        is_invariant=True,
        is_rotational=True,
        rotation_number=rho,
        type_tag=tag,
        majors=tuple(majs),
        orbit_count=_orbit_count(G),
    )


def remap(G: LamSet) -> Tuple[int, Tuple[int, ...]]:
    """Minimal n >= 1 with sigma_d^n(vertices) = vertices as a set, plus the
    induced permutation (as the image index of each vertex position)."""
    d = G.degree_d
    vs = G.vertices
    vset = set(vs)
    seen = {frozenset(vset)}
    current = list(vs)
    n = 0
    while True:
        current = [sigma(d, v) for v in current]
        n += 1
        now = frozenset(current)
        if now == vset:
            index = {v: i for i, v in enumerate(vs)}
            return n, tuple(index[v] for v in current)
        if now in seen:
            raise ValueError("vertex set is not periodic under sigma_d")
        seen.add(now)


def _cycles_with_rotation(d: int, rho: Fraction) -> List[LamSet]:
    """All single sigma_d-cycles of exact length q whose circular dynamics is
    the rigid rotation by rho = p/q, walked on numerators over d^q - 1: the
    sorted points of such a cycle all shift by p places under x -> d*x."""
    p, q = rho.numerator, rho.denominator
    den = d ** q - 1
    seen = bytearray(den)
    out = []
    for x in range(den):
        if seen[x]:
            continue
        cyc = []
        y = x
        while not seen[y]:
            seen[y] = 1
            cyc.append(y)
            y = d * y % den
        if len(cyc) != q:
            continue
        pts = sorted(cyc)
        if any(d * pts[i] % den != pts[(i + p) % q] for i in range(q)):
            continue
        G = LamSet([Fraction(v, den) for v in cyc], d)
        rep = classify_rotational(G)
        if rep.is_rotational and rep.rotation_number == rho:
            out.append(G)
    return out


def enumerate_rotational(d: int, rho: Fraction, max_orbits: int = 2) -> List[LamSet]:
    """All invariant rotational sets of sigma_d with rotation number rho and
    at most max_orbits vertex orbits.  Brute force over angles of denominator
    d^q - 1 (which necessarily carries every period-q point)."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    rho = Fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rotation number must lie in (0, 1)")
    q = rho.denominator
    if max_orbits not in (1, 2):
        raise ValueError("max_orbits must be 1 or 2")
    singles = _cycles_with_rotation(d, rho)
    out = list(singles)
    if max_orbits == 2:
        for i in range(len(singles)):
            for j in range(i + 1, len(singles)):
                union = LamSet(
                    singles[i].vertices + singles[j].vertices, d
                )
                if len(union) != 2 * q:
                    continue
                rep = classify_rotational(union)
                if rep.is_rotational and rep.rotation_number == rho \
                        and rep.orbit_count == 2 and _alternates(union, singles[i]):
                    out.append(union)
    return sorted(out, key=lambda G: G.vertices)


def _alternates(union: LamSet, part: LamSet) -> bool:
    """Vertices of the two constituent orbits alternate around the circle."""
    marks = [v in set(part.vertices) for v in union.vertices]
    return all(marks[i] != marks[(i + 1) % len(marks)] for i in range(len(marks)))
