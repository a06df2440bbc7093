import os
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from core_oracle import census, endpoint_classes
from trilam.chords import Chord
from trilam.core import CoreReport, periodic_rotational_classes, rotational_census
from trilam.lamination import (
    Lamination,
    Leaves,
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


def _numerators(L, classes):
    """Angle classes as tuples of numerators over the leaf store's N."""
    N = L.leaves.N
    return [tuple(x.numerator * (N // x.denominator) for x in c) for c in classes]


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
            assert rep.cut_classes == _numerators(L, want.cut_classes)
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
    # the classes are numerators over N, and read over N they are the angle classes
    L = canonical_of_rotational(FINGAP3, depth=2)
    cut = periodic_rotational_classes(L).cut_classes
    want = [c for c in endpoint_classes((e.a, e.b) for e in L.leaves) if len(c) >= 2]
    assert cut == _numerators(L, want)
    assert [tuple(F(v, L.leaves.N) for v in c) for c in cut] == want


@pytest.mark.parametrize("bound", [-1, 0])
def test_census_rejects_period_bound_below_one(bound):
    L = canonical_of_rotational(FINGAP1, depth=2)
    assert periodic_rotational_classes(L, 1).period_bound == 1
    with pytest.raises(ValueError, match=f"period_bound must be >= 1, got {bound}"):
        periodic_rotational_classes(L, bound)


# ---------------------------------------------------------------------------
# the periodic-only census against every endpoint class


def _assert_census_matches_class_oracle(L, bound):
    want = census(L, bound)
    assert rotational_census(L, bound) == want.rotational_classes
    rep = periodic_rotational_classes(L, bound)
    assert rep.cut_classes == want.cut_classes
    assert rep.rotational_classes == want.rotational_classes
    assert rep.lines() == want.lines()


# rotational sets whose polygons a drawn leaf set may hold
_SEED_SETS = {3: [FINGAP1, FINGAP3, parse_lamset("7/26,11/26,21/26"), parse_lamset("1/4,3/4"),
                  parse_lamset("1/8,3/8")],
              2: [parse_lamset("1/7,2/7,4/7", 2), parse_lamset("1/3,2/3", 2)]}


@st.composite
def _leaf_sets(draw):
    """A d = 2 or 3 leaf store over N = M * d^i * (1 or 5), M the
    denominator of a rotational set: random leaves among the set's points,
    periodic points and any points, with degenerate leaves, shared
    endpoints, a star and the set's polygon each likely."""
    d = draw(st.sampled_from([2, 3]))
    G = draw(st.sampled_from(_SEED_SETS[d]))
    N = G.M * d ** draw(st.integers(0, 3)) * draw(st.sampled_from([1, 5]))
    P = gcd(N, d ** N.bit_length())
    seed = [v * (N // G.M) for v in G.nums]
    point = st.one_of(st.sampled_from(seed), st.integers(0, N // P - 1).map(lambda j: j * P),
                      st.integers(0, N - 1))
    leaves = draw(st.lists(st.tuples(point, point), max_size=25))
    if draw(st.booleans()):
        leaves += zip(seed, seed[1:] + seed[:1])
    if draw(st.booleans()):
        center = draw(point)
        leaves += [(center, draw(point)) for _ in range(draw(st.integers(2, 5)))]
    store = Leaves.from_pairs(N, {(min(a, b), max(a, b)): 0 for a, b in leaves})
    return Lamination(d=d, depth=0, recipe="drawn", leaves=store)


@settings(max_examples=300, deadline=None)
@given(_leaf_sets(), st.integers(1, 6))
def test_periodic_census_matches_class_oracle_on_drawn_leaf_sets(L, bound):
    _assert_census_matches_class_oracle(L, bound)


def test_periodic_census_matches_class_oracle_on_census_and_files():
    # the 81 canonical laminations of the benchmark's census, and the seven
    # laminations of its files texts
    lams = [canonical_of_rotational(G, 4) for q in range(2, 6) for p in range(1, q)
            if gcd(p, q) == 1 for G in enumerate_rotational(3, F(p, q), 2)]
    assert len(lams) == 81
    lams += _golden_recipes(6)
    found = 0
    for L in lams:
        for bound in (1, 6):
            _assert_census_matches_class_oracle(L, bound)
        found += len(rotational_census(L))
    assert found == 81 + 4  # one each, and fingap1, fingap2, fingap3 and the rabbit
