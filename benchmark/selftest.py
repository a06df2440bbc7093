"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Builds small genuine outputs with trilam, shows that every check accepts
them, then corrupts each kind of output (drops a leaf, adds a crossing
leaf, moves a leaf to another level, edits a written file, removes a
census gap, drops or adds a rotational set, swaps a verdict, miscounts a
report, drops an SVG path, breaks a command) and shows that the matching
check rejects it.  It also shows that tracing rebinds every listed function
and that uninstalling restores the originals.  Exits 1 if any check accepts
a corrupted output or rejects a genuine one.
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction as F
from pathlib import Path

import checks
import run
from tracing import LAYERS, Tracer

DEPTH = 4
failures = []


def expect(label: str, problems, reject: bool, needle: str = "") -> None:
    """Record whether a check gave problems (mentioning `needle`) exactly
    when it should."""
    hit = any(needle in p for p in problems) if reject else not problems
    print(f"{'ok  ' if hit else 'FAIL'} {'rejects' if reject else 'accepts'}: {label}"
          + (f"  ({problems[0]})" if problems and hit and reject else ""))
    if not hit:
        failures.append((label, problems))


def leaves_of(L):
    return {(c.a, c.b): lvl for c, lvl in L.leaves.items()}


def lamination_cases(t) -> None:
    state = run.Golden(t).prepare(0, Path("."))
    for name, build in state["order"]:
        L = build(DEPTH)
        expect(f"{name} at depth {DEPTH}", checks.lamination_problems(L.d, DEPTH, leaves_of(L)), False)
        expect(f"{name} written", run._written_problems(t.lamination, L, leaves_of(L),
                                                        t.lamination.dumps(L)), False)
    L = t.lamination.canonical_of_rotational(t.lamsets.parse_lamset("1/26,3/26,9/26"), DEPTH)
    leaves = leaves_of(L)
    N, ints = checks.integer_leaves(leaves)

    dropped = dict(leaves)
    dropped.pop(next(k for k, lvl in leaves.items() if lvl == 2))
    expect("a dropped leaf", checks.lamination_problems(3, DEPTH, dropped), True, "level 2 holds")

    (a, b), lvl = max(ints.items(), key=lambda kv: kv[0][1] - kv[0][0])
    crossing = dict(leaves)
    crossing[(F(a + 1, N), F(b + 1, N))] = DEPTH
    expect("an added crossing leaf", checks.lamination_problems(3, DEPTH, crossing), True, "cross")
    expect("a crossing pair of two chords", [str(checks.first_crossing([(0, 2), (1, 3)]))]
           if checks.first_crossing([(0, 2), (1, 3)]) else [], True)
    expect("nested and disjoint chords",
           [str(checks.first_crossing([(0, 5), (1, 2), (2, 4), (5, 6)]))]
           if checks.first_crossing([(0, 5), (1, 2), (2, 4), (5, 6)]) else [], False)

    moved = dict(leaves)
    k3 = next(k for k, lvl in leaves.items() if lvl == 3)
    k2 = next(k for k, lvl in leaves.items() if lvl == 2)
    moved[k3], moved[k2] = 2, 3
    expect("two leaves with swapped levels", checks.lamination_problems(3, DEPTH, moved),
           True, "does not map")

    text = t.lamination.dumps(L)
    lines = text.splitlines()
    i = lines.index("[leaves]") + 1
    chord, level = lines[i].split()
    lines[i] = f"{chord} {int(level) + 1}"
    expect("a written file with a changed level",
           run._written_problems(t.lamination, L, leaves, "\n".join(lines) + "\n"), True)


def census_cases(t) -> None:
    census = run.Census(t)
    census.GAP_PERIOD = 4
    state = census.prepare(0, Path("."))
    state["rhos"] = [(3, F(1, 3)), (3, F(2, 5)), (2, F(1, 4))]
    ops = census.round({**state, "candidates": state["candidates"]})
    gaps = [(g.hole.start, g.hole.end, g.major.a, g.major.b, g.period)
            for i, g in ops if i.startswith("gap ")]
    expect(f"the {len(gaps)} periodic gaps of period <= 4",
           checks.gap_census_problems(gaps, 4), False)
    expect("a census with a gap removed", checks.gap_census_problems(gaps[1:], 4), True,
           "1 missing")
    s, e, a, b, k = gaps[0]
    expect("a census gap with a wrong period",
           checks.gap_census_problems([(s, e, a, b, k + 1)] + gaps[1:], 4), True, "wrong")

    for d, rho in state["rhos"]:
        sets = [G.vertices for G in t.lamsets.enumerate_rotational(d, rho, 2)]
        expect(f"rotational sets d={d} rho={rho}", checks.rotational_problems(d, rho, sets), False)
    sets = [G.vertices for G in t.lamsets.enumerate_rotational(3, F(1, 3), 2)]
    singles = [s for s in sets if len(s) == 3]
    doubles = [s for s in sets if len(s) == 6]
    expect("a single-cycle set removed",
           checks.rotational_problems(3, F(1, 3), [s for s in sets if s != singles[0]]),
           True, "Goldberg")
    expect("a two-orbit set removed",
           checks.rotational_problems(3, F(1, 3), [s for s in sets if s != doubles[0]]),
           True, "unions")
    expect("a set that is not invariant",
           checks.rotational_problems(3, F(1, 3), sets + [(F(1, 26), F(3, 26), F(10, 26))]),
           True, "not rotational")
    expect("a set with another rotation number",
           checks.rotational_problems(3, F(2, 3), [singles[0]]), True, "not rotational")

    results = {}
    for key in ("7/26,4/13,11/26,10/13,21/26,12/13", "7/26,11/26,21/26", "1/26,3/26,9/26"):
        L = t.lamination.canonical_of_rotational(t.lamsets.parse_lamset(key), DEPTH)
        results[f"smp {key}"] = t.lamination.classify_smp(L)
    out = census.check(state, list(results.items()))
    for op_id in results:
        expect(f"the verdict of {op_id}", out[op_id], False)
    swapped = {op_id: dataclasses.replace(
        v, case_tag="RotationalInsideQuadraticGap" if v.case_tag == "CanonicalTypeD"
        else "CanonicalTypeD") for op_id, v in results.items()}
    out = census.check(state, list(swapped.items()))
    for op_id in swapped:
        expect(f"a swapped verdict for {op_id}", out[op_id], True)


def files_cases(t, workdir: Path) -> None:
    files = run.Files(t)
    files.DEPTH = 3
    state = files.prepare(0, workdir)
    ops = files.after_round(state, files.round(state))
    out = files.check(state, ops)
    for op_id, problems in sorted(out.items()):
        expect(op_id, problems, op_id in run.KNOWN_FAULTS, "cross")
    results = dict(ops)

    def corrupt(op_id, result, needle=""):
        expect(f"{op_id}, corrupted", files.check(state, [(op_id, result)])[op_id], True, needle)

    rc, stdout, stderr = results["check-invariance fingap1"]
    corrupt("check-invariance fingap1", (rc, stdout.replace("leaves: ", "leaves: 1"), stderr))
    rc, stdout, stderr = results["core-report fingap2"]
    corrupt("core-report fingap2", (rc, stdout.replace("rho=2/3", "rho=1/3"), stderr))
    rc, stdout, stderr = results["classify-smp fingap1"]
    corrupt("classify-smp fingap1",
            (rc, stdout.replace("CanonicalTypeD", "RotationalInsideQuadraticGap"), stderr))
    rc, stdout, stderr, svg = results["render rabbit"]
    first = svg.index("  <path")
    corrupt("render rabbit", (rc, stdout, stderr, svg[:first] + svg[svg.index("\n", first) + 1:]),
            "paths")
    corrupt("render rabbit", (rc, stdout, stderr, svg.replace("</svg>", "")), "parse")
    rc, stdout, stderr = results["project regcrit"]
    corrupt("project regcrit", (1, stdout, "error: broken"), "exit code")


def tracing_cases(t) -> None:
    wrapped = [f"{m}.{n}" for m in list(sys.modules) if m.startswith("trilam")
               for n, v in vars(sys.modules[m]).items() if hasattr(v, "__wrapped__")]
    expect("untraced trilam holds no wrappers", wrapped, False)
    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in LAYERS}
    tracer = Tracer()
    tracer.install()
    bindings = [t.cli.build_gap, t.cli.render_svg, t.lamination.psi, t.quadgap.classify_critical,
                t.lamination.dumps, t.core.periodic_rotational_classes, t.check_invariance]
    expect("install rebinds from-import names",
           [f.__name__ for f in bindings if not hasattr(f, "__wrapped__")], False)
    tracer.uninstall()
    expect("uninstall restores every function",
           [f"{m}.{n}" for (m, n), f in originals.items() if getattr(sys.modules[m], n) is not f],
           False)


def main() -> int:
    t = run._import_trilam()
    tracing_cases(t)
    lamination_cases(t)
    census_cases(t)
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(run.tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        files_cases(t, workdir)
    finally:
        run.shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} check(s) misjudged" if failures else "every check judged correctly")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
