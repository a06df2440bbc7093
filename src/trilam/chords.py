"""Chords (leaves) of the closed unit disk with exact rational endpoints."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circle import Arc, angle, contains, format_angle, parse_angle, sigma


@dataclass(frozen=True, order=True)
class Chord:
    """Unordered pair of angles; a == b is allowed and flags a degenerate
    leaf (a point)."""

    a: Fraction
    b: Fraction

    def __init__(self, a, b):
        a, b = angle(a), angle(b)
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degenerate(self) -> bool:
        return self.a == self.b

    def has_endpoint(self, x: Fraction) -> bool:
        x = x % 1
        return x == self.a or x == self.b

    def other_endpoint(self, x: Fraction) -> Fraction:
        x = x % 1
        if x == self.a:
            return self.b
        if x == self.b:
            return self.a
        raise ValueError(f"{format_angle(x)} is not an endpoint of {self}")

    def __repr__(self):
        return f"Chord({format_angle(self.a)}, {format_angle(self.b)})"


def parse_chord(text: str) -> Chord:
    """Parse "p/q-r/s" chord syntax."""
    parts = text.strip().split("-")
    if len(parts) != 2:
        raise ValueError(f"bad chord syntax: {text!r}")
    return Chord(parse_angle(parts[0]), parse_angle(parts[1]))


def format_chord(c: Chord) -> str:
    return f"{format_angle(c.a)}-{format_angle(c.b)}"


def image(d: int, c: Chord) -> Chord:
    """Endpoint-wise image under sigma_d; may be degenerate."""
    return Chord(sigma(d, c.a), sigma(d, c.b))


def is_critical(d: int, c: Chord) -> bool:
    """True iff both endpoints share a sigma_d-image.  Degenerate chords are
    points; criticality is undefined for them."""
    if c.degenerate:
        raise ValueError("criticality is undefined for a degenerate chord")
    return sigma(d, c.a) == sigma(d, c.b)


def linked(c1: Chord, c2: Chord) -> bool:
    """True iff the two chords cross inside the open disk, i.e. their
    endpoints strictly alternate.  Chords sharing an endpoint never link."""
    if c1.degenerate or c2.degenerate:
        return False
    if c1.has_endpoint(c2.a) or c1.has_endpoint(c2.b):
        return False
    span = Arc(c1.a, c1.b)
    return contains(span, c2.a) != contains(span, c2.b)

