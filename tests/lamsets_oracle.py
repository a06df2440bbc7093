"""The Fraction code of rotational sets, kept as test oracles:

- the `classify_rotational` that trilam ran before it read invariance, the
  shift, the majors and the orbit count from one table of numerators.  It
  steps every vertex through `sigma` one Fraction at a time.
  `trilam.lamsets.classify_rotational` must give the same report, every
  field, and `is_invariant` and `majors` the same answers;
- the `enumerate_rotational` that trilam ran before `LamSet` stored its
  numerators: each cycle a `LamSet` of Fractions, and each pair of cycles
  kept when the classifier calls their union rotational with rotation
  number rho and two orbits whose vertices alternate.
  `trilam.lamsets.enumerate_rotational` must list the same sets.
"""

from fractions import Fraction
from math import gcd
from typing import List, Optional

from trilam.chords import Chord
from trilam.circle import _orbit_walk, arc_length, sigma
from trilam.lamsets import LamSet, RotationalReport, holes


def majors(G: LamSet) -> List[Chord]:
    """Edges whose hole is not shorter than 1/d."""
    thresh = Fraction(1, G.degree_d)
    return [e for e, h in holes(G) if arc_length(h) >= thresh]


def is_invariant(G: LamSet) -> bool:
    img = {sigma(G.degree_d, v) for v in G.vertices}
    return img == set(G.vertices)


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


def _cycles_with_rotation(d: int, rho: Fraction) -> List[LamSet]:
    """The sigma_d-cycles of exact length q on which sigma_d shifts the
    sorted points by p places, rho = p/q, each a LamSet of Fractions."""
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


def _alternates(union: LamSet, part: LamSet) -> bool:
    """Vertices of the two constituent orbits alternate around the circle."""
    members = set(part.vertices)
    marks = [v in members for v in union.vertices]
    return all(marks[i] != marks[(i + 1) % len(marks)] for i in range(len(marks)))


def enumerate_rotational(d: int, rho: Fraction, max_orbits: int = 2) -> List[LamSet]:
    """The rotational sets of sigma_d with rotation number rho and at most
    max_orbits orbits: the cycles, and the unions of two cycles that the
    Fraction classifier accepts, sorted by their vertices."""
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
