from fractions import Fraction as F

import pytest

from trilam.chords import Chord
from trilam.circle import sigma_iter
from trilam.core import CoreReport, derive_classes, periodic_rotational_classes, separates
from trilam.lamination import (
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    quadratic_canonical,
)
from trilam.lamsets import LamSet, classify_rotational, enumerate_rotational, parse_lamset
from trilam.quadgap import build_gap

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP3 = parse_lamset("1/26,3/26,9/26")


def test_derive_classes_merges_shared_endpoints():
    classes = derive_classes([
        Chord(F(0), F(1, 4)),
        Chord(F(1, 4), F(1, 2)),
        Chord(F(2, 3), F(3, 4)),
    ])
    assert classes == [(F(0), F(1, 4), F(1, 2)), (F(2, 3), F(3, 4))]


def test_derive_classes_of_rotational_canonical():
    L = canonical_of_rotational(FINGAP1, depth=3)
    classes = derive_classes(sorted(L.leaves))
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
    cut = [c for c in derive_classes(L.leaves) if len(c) >= 2]
    rotational = []
    for cls in cut:
        period = next((j for j in range(1, period_bound + 1)
                       if sigma_iter(L.d, cls[0], j) in cls
                       and {sigma_iter(L.d, v, j) for v in cls} == set(cls)), None)
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


def test_separates_basic():
    L = canonical_of_rotational(FINGAP3, depth=3)
    g = FINGAP3.vertices
    assert separates(L, g, [F(1, 13)], [F(1, 2)])
    assert not separates(L, g, [F(1, 13)], [F(5, 52)])  # same hole


def test_separates_singleton_never_separates():
    L = canonical_diameter(depth=2)
    assert not separates(L, [F(1, 4)], [F(0)], [F(1, 2)])


def test_separates_validates_input():
    L = canonical_diameter(depth=2)
    g = [F(0), F(1, 2)]
    with pytest.raises(ValueError):
        separates(L, g, [F(0)], [F(3, 4)])  # A meets g
    with pytest.raises(ValueError):
        separates(L, g, [F(1, 4)], [F(1, 4)])  # A meets B
    with pytest.raises(ValueError):
        separates(L, g, [F(1, 4), F(3, 4)], [F(7, 8)])  # A spans two arcs
