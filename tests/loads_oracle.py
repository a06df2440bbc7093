"""The one-pass reader: the `loads` that trilam ran before it scaled every
angle after the last leaf, kept as a test oracle.

It reduces each distinct angle with one gcd as it reads the line, then
scales the reduced angles to the lcm of their denominators.  The two-pass
`trilam.lamination.loads` must give the same lamination, its N, leaves and
levels included, and the same `LamFormatError` message for every text.
"""

from math import gcd, lcm
from typing import Dict, List, Tuple

from trilam.circle import parse_angle
from trilam.lamination import (
    LamFormatError,
    Lamination,
    Leaves,
    _integer,
    _parse_region,
)
from trilam.quadgap import parse_fields


def _angle_parts(text: str) -> Tuple[int, int]:
    """Numerator and denominator of the angle `parse_angle(text)`, reduced;
    plain "p/q" and "p" are read without building a Fraction."""
    num, slash, den = text.partition("/")
    if num.isascii() and num.isdigit() and (
            not slash or den.isascii() and den.isdigit()):
        q = int(den) if slash else 1
        if q:
            p = int(num) % q
            g = gcd(p, q)
            return p // g, q // g
    x = parse_angle(text)
    return x.numerator, x.denominator


def loads(text: str) -> Lamination:
    """Read the .lam format that `dumps` writes.  Malformed text raises
    LamFormatError.  The leaves are read as integers: each angle reduced,
    then scaled to the lcm of the file's denominators."""
    numbered = ((no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)
                if ln.strip())
    no, line = next(numbered, (1, ""))
    try:
        if not line:
            raise ValueError("empty lamination file")
        header = parse_fields(line)
        d, depth = _integer(header["d"], "d"), _integer(header["depth"], "depth")
        if d not in (2, 3):
            raise ValueError(f"degree must be 2 or 3, got d={d}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got depth={depth}")
        no, line = next(numbered, (no + 1, ""))
        registry_complete = False
        if line.startswith("registry="):
            registry_complete = line.split("=", 1)[1] == "complete"
            no, line = next(numbered, (no + 1, ""))
        if line != "[leaves]":
            raise ValueError("missing [leaves] section")
        angles: Dict[str, Tuple[int, int]] = {}
        rows = []
        for no, line in numbered:
            if line == "[gaps]":
                break
            parts = line.split()
            ends = parts[0].split("-")
            if len(ends) != 2:
                raise ValueError(f"bad chord syntax: {parts[0]!r}")
            ta, tb = ends
            a = angles.get(ta) or angles.setdefault(ta, _angle_parts(ta))
            b = angles.get(tb) or angles.setdefault(tb, _angle_parts(tb))
            level = _integer(parts[1], "level") if len(parts) > 1 else 0
            if not 0 <= level <= depth:
                raise ValueError(f"level {level} is outside 0..{depth}")
            rows.append((a, b, level))
        gaps: List[object] = []
        for no, line in numbered:
            name_spec = line.split(None, 1)
            if len(name_spec) < 2:
                raise ValueError("gap line without a spec")
            gaps.append(_parse_region(name_spec[1], d))
    except ValueError as exc:
        raise LamFormatError(f"line {no}: {exc}") from None
    N = lcm(*(q for _, q in angles.values()))
    pairs: Dict[Tuple[int, int], int] = {}
    for (pa, qa), (pb, qb), lvl in rows:
        a, b = pa * (N // qa), pb * (N // qb)
        pairs[(a, b) if a <= b else (b, a)] = lvl
    return Lamination(d=d, depth=depth, recipe=header.get("recipe", "file"),
                      leaves=Leaves.from_pairs(N, pairs), gaps=gaps,
                      registry_complete=registry_complete)
