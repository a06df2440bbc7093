"""Exact arithmetic on the circle R/Z.

Angles are `fractions.Fraction` values normalized to [0, 1).  Everything in
this package runs on exact rationals; denominators grow under pullback, so
arbitrary precision is not optional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

Rational = Union[Fraction, int, str]


def angle(x: Rational) -> Fraction:
    """Normalize a rational to the canonical representative in [0, 1).
    A Fraction already in [0, 1) is returned as it is."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x if 0 <= x.numerator < x.denominator else x % 1


def parse_angle(text: str) -> Fraction:
    """Parse "p/q" (or "0", "p") into a normalized angle.

    Raises ValueError on malformed input; non-reduced fractions are
    normalized, never rejected.
    """
    text = text.strip()
    try:
        return Fraction(text) % 1
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad angle syntax: {text!r}") from exc


def format_angle(a: Fraction) -> str:
    a = angle(a)
    if a == 0:
        return "0"
    return f"{a.numerator}/{a.denominator}"


def sigma(d: int, a: Fraction) -> Fraction:
    """The degree-d covering map a -> d*a mod 1."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    return (d * a) % 1


def preimages(d: int, a: Fraction) -> List[Fraction]:
    """The d preimages of `a` under sigma_d, sorted from 0 around the circle."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    a = a % 1
    return sorted((a + k) / d for k in range(d))


def _over(M: int, x: Fraction) -> int:
    """The numerator of x mod 1 over M, a multiple of x's denominator."""
    return x.numerator % x.denominator * (M // x.denominator)


def _orbit_walk(d: int, x: int, M: int) -> Tuple[List[int], int]:
    """The sigma_d-orbit of x/M as numerators over M, listed up to the first
    repeat, and the index where its cycle starts."""
    seen: Dict[int, int] = {}
    while x not in seen:
        seen[x] = len(seen)
        x = d * x % M
    return list(seen), seen[x]


def _set_period(d: int, N: int, pts: Sequence[int],
                bound: Optional[int] = None) -> Optional[int]:
    """Minimal j (at most `bound`, when given) with sigma_d^j(S) = S as a
    set, for the nonempty set S of numerators over N in `pts`; None when a
    point of S is not periodic or no j up to the bound works.  v/N is
    periodic iff P, the part of N made of d's primes, divides v; then
    sigma_d^j fixes every point once j is a multiple of their periods, so
    the walk stops by the period of S whatever the bound."""
    P = gcd(N, d ** N.bit_length())
    if any(v % P for v in pts):
        return None
    pset = set(pts)
    m = 1
    for j in count(1) if bound is None else range(1, bound + 1):
        m = m * d % N
        if m * pts[0] % N in pset and {m * v % N for v in pts} == pset:
            return j
    return None


def orbit(d: int, a: Fraction) -> List[Fraction]:
    """Forward orbit of a rational angle: finite, listed up to first repeat."""
    if d < 2:
        raise ValueError(f"degree must be >= 2, got {d}")
    a = a % 1
    return [Fraction(v, a.denominator)
            for v in _orbit_walk(d, a.numerator, a.denominator)[0]]


def fixed_points(d: int, power: int = 1) -> List[Fraction]:
    """All fixed points of sigma_d^power, i.e. j/(d^power - 1)."""
    q = d ** power - 1
    return [Fraction(j, q) for j in range(q)]


@dataclass(frozen=True)
class Arc:
    """Positively oriented open arc (start, end) on R/Z.

    Degenerate iff start == end (and then it is the empty open arc; its
    length is 0).
    """

    start: Fraction
    end: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", angle(self.start))
        object.__setattr__(self, "end", angle(self.end))

    @property
    def degenerate(self) -> bool:
        return self.start == self.end

    def __repr__(self):
        return f"Arc({format_angle(self.start)}, {format_angle(self.end)})"


def arc_length(A: Arc) -> Fraction:
    return (A.end - A.start) % 1


def contains(A: Arc, x: Fraction) -> bool:
    """Membership of x in the *open* arc (start, end)."""
    if A.degenerate:
        return False
    t = (x - A.start) % 1
    return 0 < t < arc_length(A)


def contains_closed(A: Arc, x: Fraction) -> bool:
    """Membership in the closed arc [start, end]."""
    t = (x - A.start) % 1
    return t <= arc_length(A) or A.degenerate and t == 0

