"""Output checks for the benchmark, computed apart from trilam.

Every check works on exact integer numerators over a common denominator and
uses only the standard library.  None compares against a stored copy of an
earlier output: each one recomputes the expected answer by brute force or
tests a property the construction must have.  A check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from xml.etree import ElementTree

IntPair = Tuple[int, int]
SVG_PATH = "{http://www.w3.org/2000/svg}path"


def common_denominator(angles: Iterable[Fraction]) -> int:
    return lcm(1, *{x.denominator for x in angles})


def numerator(x: Fraction, N: int) -> int:
    return x.numerator * (N // x.denominator)


def integer_leaves(leaves: Dict[Tuple[Fraction, Fraction], int]
                   ) -> Tuple[int, Dict[IntPair, int]]:
    """Leaves keyed by angle pairs a <= b, rewritten as numerators over
    N, the lcm of every endpoint denominator."""
    N = common_denominator(x for pair in leaves for x in pair)
    return N, {(numerator(a, N), numerator(b, N)): lvl
               for (a, b), lvl in leaves.items()}


def first_crossing(pairs: Iterable[IntPair]) -> Optional[Tuple[IntPair, IntPair]]:
    """A crossing pair among chords (a, b), a <= b, or None if the family is
    laminar.  Sorted by (a, -b), the open chords form a nested chain on a
    stack; the first chord that crosses an earlier one crosses the top of
    that chain, so one comparison per chord finds it in O(n log n)."""
    stack: List[IntPair] = []
    for a, b in sorted(set(pairs), key=lambda c: (c[0], -c[1])):
        while stack and stack[-1][1] <= a:
            stack.pop()
        if stack and b > stack[-1][1]:
            return stack[-1], (a, b)
        stack.append((a, b))
    return None


def lamination_problems(d: int, depth: int,
                        leaves: Dict[Tuple[Fraction, Fraction], int]) -> List[str]:
    """Properties every pullback lamination has: no two leaves cross, the
    image of a leaf at level n >= 1 is a leaf at level n - 1 (a seed leaf
    maps to a seed leaf or to a point), and for 2 <= n <= depth level n
    holds exactly d times as many leaves as level n - 1."""
    problems = []
    N, lv = integer_leaves(leaves)
    pair = first_crossing(lv)
    if pair is not None:
        (a, b), (c, e) = pair
        problems.append(f"leaves {a}/{N}-{b}/{N} and {c}/{N}-{e}/{N} cross")
    for (a, b), lvl in lv.items():
        u, v = sorted((d * a % N, d * b % N))
        if lvl == 0 and u == v:
            continue
        if lv.get((u, v)) != max(lvl - 1, 0):
            problems.append(f"leaf {a}/{N}-{b}/{N} at level {lvl} does not map "
                            f"to a leaf at level {max(lvl - 1, 0)}")
            break
    counts = Counter(lv.values())
    if set(counts) - set(range(depth + 1)):
        problems.append(f"levels {sorted(counts)} exceed depth {depth}")
    for n in range(2, depth + 1):
        if counts[n] != d * counts[n - 1]:
            problems.append(f"level {n} holds {counts[n]} leaves, "
                            f"not {d} x {counts[n - 1]}")
    return problems


# ---------------------------------------------------------------------------
# finite rotational sets


def rotation(vertices: Sequence[Fraction], d: int) -> Optional[dict]:
    """Rotation data of a sigma_d-invariant set that sigma_d rotates rigidly,
    or None.  Returns rho, the orbit count, the major edge indices (holes
    of length at least 1/d) and the type: A for one major, B for two majors
    in one edge cycle, D for two majors in two edge cycles."""
    M = common_denominator(vertices)
    xs = sorted({numerator(v, M) for v in vertices})
    n = len(xs)
    index = {x: i for i, x in enumerate(xs)}
    shifts = set()
    for i, x in enumerate(xs):
        j = index.get(d * x % M)
        if j is None:
            return None
        shifts.add((j - i) % n)
    if len(shifts) != 1 or 0 in shifts:
        return None
    p = shifts.pop()
    orbits, seen = 0, set()
    for x in xs:
        if x not in seen:
            orbits += 1
            while x not in seen:
                seen.add(x)
                x = d * x % M
    major_edges = [i for i in range(n)
                   if d * ((xs[(i + 1) % n] - xs[i]) % M) >= M]
    g = gcd(n, p)
    if len(major_edges) == 1:
        kind = "A"
    elif len(major_edges) == 2:
        kind = "B" if major_edges[0] % g == major_edges[1] % g else "D"
    else:
        kind = None
    return {"rho": Fraction(p, n), "orbits": orbits, "type": kind,
            "alternates": orbits == 2 and _alternates(xs, d, M)}


def _alternates(xs: List[int], d: int, M: int) -> bool:
    orbit0, x = set(), xs[0]
    while x not in orbit0:
        orbit0.add(x)
        x = d * x % M
    marks = [x in orbit0 for x in xs]
    return all(marks[i] != marks[(i + 1) % len(xs)] for i in range(len(xs)))


def rotational_problems(d: int, rho: Fraction,
                        sets: Sequence[Sequence[Fraction]]) -> List[str]:
    """Sets returned for rotation number rho: each is invariant and rotates
    rigidly by rho, a two-orbit set alternates, there are exactly Goldberg's
    C(q+d-2, q) single-cycle sets, and the two-orbit sets are exactly the
    alternating unions of two single cycles that rotate rigidly by rho."""
    problems = []
    q = rho.denominator
    keyed = {tuple(sorted(s)) for s in sets}
    if len(keyed) != len(sets):
        problems.append(f"d={d} rho={rho}: a set is listed twice")
    singles, doubles = [], set()
    for s in keyed:
        r = rotation(s, d)
        if r is None or r["rho"] != rho or r["type"] is None:
            problems.append(f"d={d} rho={rho}: {s} is not rotational with rho")
        elif r["orbits"] == 1:
            singles.append(s)
        elif r["orbits"] == 2 and r["alternates"]:
            doubles.add(s)
        else:
            problems.append(f"d={d} rho={rho}: {s} has {r['orbits']} orbits "
                            f"that do not alternate")
    if len(singles) != comb(q + d - 2, q):
        problems.append(f"d={d} rho={rho}: {len(singles)} single-cycle sets, "
                        f"Goldberg's count is {comb(q + d - 2, q)}")
    unions = set()
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            u = tuple(sorted(singles[i] + singles[j]))
            r = rotation(u, d)
            if r and r["rho"] == rho and r["alternates"]:
                unions.add(u)
    if unions != doubles:
        problems.append(f"d={d} rho={rho}: {len(doubles)} two-orbit sets, "
                        f"{len(unions)} alternating rigid unions")
    return problems


def smp_verdict(vertices: Sequence[Fraction], d: int = 3) -> str:
    """The paper's classification of the canonical lamination of a sigma_3
    rotational set: type D is canonical, types A and B sit inside an
    invariant quadratic gap."""
    r = rotation(vertices, d)
    return "CanonicalTypeD" if r["type"] == "D" else "RotationalInsideQuadraticGap"


# ---------------------------------------------------------------------------
# periodic-type quadratic gaps


def periodic_gap_holes(max_period: int) -> Dict[Tuple[Fraction, Fraction], int]:
    """Brute force over integers: for each k <= max_period, the leaves
    (u, u + 3^(k-1)) over 3^k - 1 of exact leaf period k whose endpoint
    orbits avoid the open hole from u to u + 3^(k-1).  Maps each hole
    (start, end) to k."""
    out = {}
    for k in range(1, max_period + 1):
        N, H = 3 ** k - 1, 3 ** (k - 1)
        for u in range(N):
            v = (u + H) % N
            j, x, y = 1, 3 * u % N, 3 * v % N
            while {x, y} != {u, v}:
                j, x, y = j + 1, 3 * x % N, 3 * y % N
            if j != k:
                continue
            orbit = {3 ** i * w % N for i in range(k) for w in (u, v)}
            if any(0 < (x - u) % N < H for x in orbit):
                continue
            out[(Fraction(u, N), Fraction(v, N))] = k
    return out


def gap_census_problems(gaps: Sequence[Tuple[Fraction, Fraction, Fraction, Fraction, int]],
                        max_period: int) -> List[str]:
    """gaps: (hole start, hole end, major a, major b, period) per gap found.
    The holes must be exactly the brute-force ones, each gap's major must
    join its hole's ends, and its period must be the brute-force k."""
    want = periodic_gap_holes(max_period)
    got = {(s, e): k for s, e, _, _, k in gaps}
    problems = []
    if len(got) != len(gaps):
        problems.append("a gap is listed twice")
    if got != want:
        missing, extra = set(want) - set(got), set(got) - set(want)
        problems.append(f"gap holes differ from the brute force: "
                        f"{len(missing)} missing, {len(extra)} extra, "
                        f"{sum(got.get(h) != k for h, k in want.items())} wrong")
    for s, e, a, b, _ in gaps:
        if sorted((s, e)) != sorted((a, b)):
            problems.append(f"major {a}-{b} does not join hole ends {s}, {e}")
    return problems


# ---------------------------------------------------------------------------
# stored files and command output


def parse_lam(text: str) -> Tuple[dict, Dict[Tuple[Fraction, Fraction], int]]:
    """Header fields and leaves of a .lam file, read without trilam."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = dict(p.split("=", 1) for p in lines[0].split())
    start = lines.index("[leaves]") + 1
    end = lines.index("[gaps]") if "[gaps]" in lines else len(lines)
    leaves = {}
    for ln in lines[start:end]:
        chord, lvl = ln.split()
        a, b = (Fraction(x) for x in chord.split("-"))
        leaves[(min(a, b), max(a, b))] = int(lvl)
    return header, leaves


def report_field(stdout: str, key: str) -> Optional[str]:
    for ln in stdout.splitlines():
        if ln.startswith(key + ":"):
            return ln.split(":", 1)[1].strip()
    return None


def svg_problems(svg: str, leaves: Dict[Tuple[Fraction, Fraction], int]) -> List[str]:
    """The SVG parses as XML and holds one <path> per non-degenerate leaf."""
    try:
        root = ElementTree.fromstring(svg)
    except ElementTree.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    paths = sum(1 for _ in root.iter(SVG_PATH))
    want = sum(1 for a, b in leaves if a != b)
    return [] if paths == want else [f"SVG has {paths} paths for {want} leaves"]


def core_class_problems(stdout: str, vertices: Sequence[Fraction], d: int) -> List[str]:
    """core-report on a rotational lamination lists exactly its seed set,
    with that set's rotation number and type."""
    rows = [ln.split() for ln in stdout.splitlines() if ln.startswith("  ")]
    r = rotation(vertices, d)
    want = [",".join(_fmt(v) for v in sorted(vertices)),
            f"rho={_fmt(r['rho'])}", f"type={r['type']}"]
    return [] if rows == [want] else [f"core classes {rows}, expected [{want}]"]


def _fmt(x: Fraction) -> str:
    return "0" if x == 0 else f"{x.numerator}/{x.denominator}"
