"""Exact arithmetic on the circle R/Z.

Angles are `fractions.Fraction` values normalized to [0, 1).  Everything in
this package runs on exact rationals; denominators grow under pullback, so
arbitrary precision is not optional.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

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


def orbit(d: int, a: Fraction) -> List[Fraction]:
    """Forward orbit of a rational angle: finite, listed up to first repeat."""
    seen = {}
    out: List[Fraction] = []
    x = a % 1
    while x not in seen:
        seen[x] = len(out)
        out.append(x)
        x = sigma(d, x)
    return out


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
        object.__setattr__(self, "start", self.start % 1)
        object.__setattr__(self, "end", self.end % 1)

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

