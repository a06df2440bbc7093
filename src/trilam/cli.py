"""Command-line driver.

Exit codes: 0 success, 1 domain error (valid syntax, impossible request),
2 usage error (bad flags, malformed angle/chord syntax, out-of-range values or
a malformed .lam file).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache
from typing import List, Optional

from . import core, lamination, lamsets, quadgap
from .chords import Chord, format_chord, parse_chord
from .render import RenderSpec, render as render_svg
from .circle import format_angle
from .lamsets import (
    classify_rotational,
    enumerate_rotational,
    format_lamset,
    parse_lamset,
)
from .quadgap import _classify, build_gap, vassal


class UsageError(Exception):
    pass


def _chord(text: str) -> Chord:
    try:
        return parse_chord(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _depth(args) -> int:
    if args.depth < 0:
        raise UsageError(f"--depth must be >= 0, got {args.depth}")
    return args.depth


def _period_bound(args) -> int:
    if args.period_bound < 1:
        raise UsageError(f"--period-bound must be >= 1, got {args.period_bound}")
    return args.period_bound


def _rho(text: str) -> Fraction:
    """A rotation number p/q in (0, 1), never reduced mod 1."""
    text = text.strip()
    try:
        rho = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rotation number: {text!r}") from exc
    if not 0 < rho < 1:
        raise UsageError(f"rotation number must be in (0, 1), got {text}")
    return rho


def _lamset(text: str, d: int = 3) -> lamsets.LamSet:
    try:
        return parse_lamset(text, d)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _degree(d: int) -> int:
    if d < 2:
        raise UsageError(f"--d must be >= 2, got {d}")
    return d


def _write_lam(L: lamination.Lamination, out: Optional[str]) -> int:
    """Write L as a .lam file to `out` and say so, or to stdout without it."""
    if out:
        lamination.write_lamination(L, out)
        print(f"{len(L.leaves)} leaves -> {out}")
    else:
        sys.stdout.write(lamination.dumps(L))
    return 0


def _emit(lines) -> None:
    for ln in lines:
        print(ln)


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_classify_critical_leaf(args) -> int:
    cls, hole = _classify(_chord(args.chord))
    if cls.tag == "PeriodicType":
        # major printed in scan order: hole end first (nearest fixed point
        # forward of the short side), then hole start
        major = f"{format_angle(hole.end)}-{format_angle(hole.start)}"
        print(f"PeriodicType n_c={cls.n_c} major={major}")
    else:
        print(f"{cls.tag} major={format_chord(cls.major)}")
    _emit(cls.lines())
    return 0


def cmd_build_gap(args) -> int:
    c = _chord(args.chord)
    gap, vertices = build_gap(c, depth=_depth(args))
    print(gap.serialize())
    print(f"vertices: {len(vertices)}")
    for v in vertices:
        print(format_angle(v))
    return 0


def cmd_vassal(args) -> int:
    c = _chord(args.chord)
    depth = _depth(args)
    gap, _ = build_gap(c, depth=0)
    V = vassal(gap)
    vertices = V.vertices(depth)  # before any output: it may be over budget
    print(V.serialize())
    print(f"co_major: {format_chord(V.co_major)}")
    a0, a1 = V.arcs
    print(f"arcs: [{format_angle(a0.start)},{format_angle(a0.end)}] "
          f"[{format_angle(a1.start)},{format_angle(a1.end)}]")
    for v in vertices:
        print(format_angle(v))
    return 0


def cmd_build_canonical(args) -> int:
    depth = _depth(args)
    if args.variant == "quadratic-gap":
        if not args.critical:
            raise UsageError("variant quadratic-gap needs --critical CHORD")
        gap, _ = build_gap(_chord(args.critical), depth=0)
        L = lamination.canonical_of_quadratic_gap(gap, depth=depth)
    elif args.variant == "diameter":
        L = lamination.canonical_diameter(depth=depth)
    elif args.variant == "rotational":
        if not args.set:
            raise UsageError("variant rotational needs --set ANGLES")
        L = lamination.canonical_of_rotational(_lamset(args.set, 3), depth=depth)
    else:  # quadratic-d2
        if not args.set:
            raise UsageError("variant quadratic-d2 needs --set ANGLES")
        L = lamination.quadratic_canonical(_lamset(args.set, 2), depth=depth)
    return _write_lam(L, args.out)


def cmd_find_rotational(args) -> int:
    rho, d = _rho(args.rho), _degree(args.d)
    if d > 3:
        raise UsageError(f"--d must be 2 or 3, got {d}")
    for G in enumerate_rotational(d, rho, args.orbits):
        rep = classify_rotational(G)
        print(f"{format_lamset(G)} type={rep.type_tag}")
    return 0


def cmd_check_invariance(args) -> int:
    L = lamination.read_lamination(args.infile)
    rep = lamination.check_invariance(L)
    _emit(rep.lines())
    return 0 if rep.ok else 1


def cmd_clean(args) -> int:
    L = lamination.read_lamination(args.infile)
    rep = lamination.clean(L)
    _emit(rep.lines())
    return 0


def cmd_classify_smp(args) -> int:
    bound = _period_bound(args)
    L = lamination.read_lamination(args.infile)
    verdict = lamination.classify_smp(L, period_bound=bound)
    _emit(verdict.lines())
    return 0


def cmd_core_report(args) -> int:
    bound = _period_bound(args)
    L = lamination.read_lamination(args.infile)
    rep = core.periodic_rotational_classes(L, period_bound=bound)
    _emit(rep.lines())
    return 0


def cmd_project(args) -> int:
    L = lamination.read_lamination(args.infile)
    gaps = [g for g in L.gaps if isinstance(g, quadgap.GapGen)]
    if args.critical:
        U, _ = build_gap(_chord(args.critical), depth=0)
    elif not gaps:
        raise UsageError("no quadratic gap registered; supply --critical CHORD")
    elif 0 <= args.gap_index < len(gaps):
        U = gaps[args.gap_index]
    else:
        raise UsageError(f"--gap-index must be in 0..{len(gaps) - 1}, "
                         f"got {args.gap_index}")
    P = lamination.project_through_gap(U, L)
    return _write_lam(P, args.out)


def cmd_render(args) -> int:
    if args.size <= 0:
        raise UsageError(f"--size must be > 0, got {args.size}")
    d = _degree(args.d)
    if args.infile:
        obj = lamination.read_lamination(args.infile)
    elif args.set:
        obj = _lamset(args.set, d)
    elif args.chord:
        obj = _chord(args.chord)
    else:
        raise UsageError("render needs --in FILE, --set ANGLES, or --chord CHORD")
    spec = RenderSpec(size=args.size, label_angles=args.labels)
    svg = render_svg(obj, spec)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first `main` call and reused by the
    calls after it; parsing keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="trilam",
        description="exact-arithmetic toolkit for invariant laminations of "
                    "the tripling map",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-critical-leaf",
                       help="orbit type of a critical chord")
    p.add_argument("chord")
    p.set_defaults(func=cmd_classify_critical_leaf)

    p = sub.add_parser("build-gap", help="invariant quadratic gap of a critical chord")
    p.add_argument("chord")
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=cmd_build_gap)

    p = sub.add_parser("vassal", help="vassal gap of a periodic-type critical chord")
    p.add_argument("chord")
    p.add_argument("--depth", type=int, default=6)
    p.set_defaults(func=cmd_vassal)

    p = sub.add_parser("build-canonical", help="canonical lamination constructions")
    p.add_argument("variant", choices=["quadratic-gap", "diameter",
                                       "rotational", "quadratic-d2"])
    p.add_argument("--critical", help="critical chord (quadratic-gap variant)")
    p.add_argument("--set", help="vertex set (rotational / quadratic-d2 variants)")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build_canonical)

    p = sub.add_parser("find-rotational", help="enumerate invariant rotational sets")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--rho", required=True)
    p.add_argument("--orbits", type=int, default=2, choices=[1, 2])
    p.set_defaults(func=cmd_find_rotational)

    p = sub.add_parser("check-invariance", help="verify a stored lamination")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("clean", help="remove isolated leaves, report super-gaps")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("classify-smp", help="simplest-core classification")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--period-bound", type=int, default=6)
    p.set_defaults(func=cmd_classify_smp)

    p = sub.add_parser("core-report", help="bounded-period rotational census")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--period-bound", type=int, default=6)
    p.set_defaults(func=cmd_core_report)

    p = sub.add_parser("project", help="collapse a lamination through a quadratic gap")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--critical", help="critical chord defining the gap")
    p.add_argument("--gap-index", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("render", help="SVG figure of a lamination or set")
    p.add_argument("--in", dest="infile")
    p.add_argument("--set")
    p.add_argument("--chord")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, lamination.LamFormatError, lamination.LeafBudgetError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError, OSError,
            lamination.PullbackAmbiguityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
