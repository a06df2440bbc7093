import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from trilam.chords import Chord
from trilam.core import CoreReport, endpoint_classes, periodic_rotational_classes
from trilam.lamination import (
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    quadratic_canonical,
    write_lamination,
)
from trilam.lamsets import LamSet, classify_rotational, enumerate_rotational, parse_lamset
from trilam.quadgap import build_gap

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP3 = parse_lamset("1/26,3/26,9/26")
ROOT = Path(__file__).resolve().parent.parent


def test_derive_classes_merges_shared_endpoints():
    classes = endpoint_classes((c.a, c.b) for c in [
        Chord(F(0), F(1, 4)),
        Chord(F(1, 4), F(1, 2)),
        Chord(F(2, 3), F(3, 4)),
    ])
    assert classes == [(F(0), F(1, 4), F(1, 2)), (F(2, 3), F(3, 4))]


def test_derive_classes_of_rotational_canonical():
    L = canonical_of_rotational(FINGAP1, depth=3)
    classes = endpoint_classes((c.a, c.b) for c in sorted(L.leaves))
    assert FINGAP1.vertices in classes


def test_census_of_diameter_lamination_is_empty():
    # the diameter's class is the special non-rotational set {0, 1/2}
    rep = periodic_rotational_classes(canonical_diameter(depth=4))
    assert rep.summary == "EmptyCore"
    assert rep.rotational_classes == []
    assert rep.cut_classes  # plenty of 2-point classes, none rotational


def test_census_finds_fingap1():
    rep = periodic_rotational_classes(canonical_of_rotational(FINGAP1, depth=4))
    assert rep.summary == "SinglePoint"
    (G, r), = rep.rotational_classes
    assert G.vertices == FINGAP1.vertices
    assert r.type_tag == "D" and r.rotation_number == F(2, 3)


def test_census_finds_fingap3():
    rep = periodic_rotational_classes(canonical_of_rotational(FINGAP3, depth=4))
    assert rep.summary == "SinglePoint"
    (G, r), = rep.rotational_classes
    assert r.type_tag == "A" and r.rotation_number == F(1, 3)


def test_census_report_lines():
    rep = periodic_rotational_classes(canonical_of_rotational(FINGAP3, depth=3))
    text = "\n".join(rep.lines())
    assert "summary: SinglePoint" in text
    assert "type=A" in text


def _fraction_census(L, period_bound):
    """Oracle: the census in Fraction arithmetic, with each class period
    found by iterating sigma_d on its angles."""
    cut = [c for c in endpoint_classes((e.a, e.b) for e in L.leaves) if len(c) >= 2]
    rotational = []
    for cls in cut:
        period = next((j for j in range(1, period_bound + 1)
                       if (L.d ** j * cls[0]) % 1 in cls
                       and {(L.d ** j * v) % 1 for v in cls} == set(cls)), None)
        if period is None:
            continue
        G = LamSet(cls, degree_d=L.d ** period)
        rep = classify_rotational(G)
        if rep.is_rotational:
            rotational.append((G, rep))
    summary = ("EmptyCore", "SinglePoint")[len(rotational)] \
        if len(rotational) < 2 else "MultipleRotational"
    return CoreReport(period_bound, rotational, cut, summary)


def _golden_recipes(depth):
    regcrit, _ = build_gap(Chord(F(1, 3), F(2, 3)), 0)
    period3, _ = build_gap(Chord(F(145, 156), F(41, 156)), 0)
    return [
        canonical_of_quadratic_gap(regcrit, depth),
        canonical_of_quadratic_gap(period3, depth),
        canonical_diameter(depth),
        canonical_of_rotational(FINGAP1, depth),
        canonical_of_rotational(parse_lamset("7/26,11/26,21/26"), depth),
        canonical_of_rotational(FINGAP3, depth),
        quadratic_canonical(parse_lamset("1/7,2/7,4/7", 2), depth),
    ]


def test_census_matches_fraction_oracle():
    lams = _golden_recipes(4) + [
        canonical_of_rotational(G, 4) for q in range(2, 5) for p in range(1, q)
        if F(p, q).denominator == q for G in enumerate_rotational(3, F(p, q), 2)]
    summaries = set()
    for L in lams:
        for bound in (2, 6):
            rep = periodic_rotational_classes(L, bound)
            want = _fraction_census(L, bound)
            assert rep.cut_classes == want.cut_classes
            assert rep.rotational_classes == want.rotational_classes
            assert rep.lines() == want.lines()
            summaries.add(rep.summary)
    assert summaries == {"EmptyCore", "SinglePoint"}


@pytest.mark.parametrize("command, make", [
    ("core-report", lambda: canonical_diameter(depth=5)),
    ("classify-smp", lambda: canonical_of_rotational(FINGAP3, depth=4)),
], ids=["diameter", "fingap3"])
def test_period_walk_ends_whatever_the_bound(tmp_path, command, make):
    """A class walk ends by the class's period, and a class with a point
    that is not periodic is not walked, so a bound past every period gives
    the bound-1000 answer at once."""
    L = make()
    path = tmp_path / "in.lam"
    write_lamination(L, str(path))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for bound in ("1000", "100000000"):
        # a subprocess with a timeout, so that a walk up to the bound fails
        # the test in place of hanging it
        proc = subprocess.run(
            [sys.executable, "-m", "trilam.cli", command, "--in", str(path),
             "--period-bound", bound],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 0, proc.stderr
        out[bound] = [ln for ln in proc.stdout.splitlines()
                      if ln != f"period_bound: {bound}"]
    assert out["1000"] == out["100000000"]
    want = periodic_rotational_classes(L, 1000)
    got = periodic_rotational_classes(L, 10 ** 8)
    assert (got.cut_classes, got.rotational_classes, got.summary) == \
        (want.cut_classes, want.rotational_classes, want.summary)
    for bound in (2, 6, 30):
        rep, oracle = periodic_rotational_classes(L, bound), _fraction_census(L, bound)
        assert rep.rotational_classes == oracle.rotational_classes
        assert rep.lines() == oracle.lines()


def test_cut_classes_read_as_angle_tuples():
    L = canonical_of_rotational(FINGAP3, depth=2)
    cut = periodic_rotational_classes(L).cut_classes
    want = [c for c in endpoint_classes((e.a, e.b) for e in L.leaves) if len(c) >= 2]
    assert len(cut) == len(want) and list(cut) == want and cut == want
    assert [cut[i] for i in range(len(cut))] == want and cut[-1] == want[-1]
    assert want[0] in cut
    assert cut != want[:-1]


@pytest.mark.parametrize("bound", [-1, 0])
def test_census_rejects_period_bound_below_one(bound):
    L = canonical_of_rotational(FINGAP1, depth=2)
    assert periodic_rotational_classes(L, 1).period_bound == 1
    with pytest.raises(ValueError, match=f"period_bound must be >= 1, got {bound}"):
        periodic_rotational_classes(L, bound)
