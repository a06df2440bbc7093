from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest

from trilam.chords import Chord
from trilam.circle import fixed_points
from trilam.lamination import (
    Lamination,
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    classify_smp,
)
from trilam.lamsets import enumerate_rotational, parse_lamset
from trilam.quadgap import build_gap, classify_critical

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP2 = parse_lamset("7/26,11/26,21/26")
FINGAP3 = parse_lamset("1/26,3/26,9/26")


def test_quadratic_gap_canonical_is_case_one():
    U, _ = build_gap(Chord(F(145, 156), F(41, 156)), depth=0)
    v = classify_smp(canonical_of_quadratic_gap(U, depth=4))
    assert v.in_smp and v.case_tag == "CanonicalQuadraticGap"
    assert "case=1" in "\n".join(v.lines())


def test_diameter_canonical_is_case_one():
    v = classify_smp(canonical_diameter(depth=4))
    assert v.in_smp and v.case_tag == "CanonicalQuadraticGap"


def test_type_d_canonical_is_case_two():
    v = classify_smp(canonical_of_rotational(FINGAP1, depth=4))
    assert v.in_smp and v.case_tag == "CanonicalTypeD"
    assert v.witness_type == "D"
    assert v.witness_rotational.vertices == FINGAP1.vertices
    assert "case=2 type=D" in "\n".join(v.lines())


def test_type_b_canonical_is_case_three():
    v = classify_smp(canonical_of_rotational(FINGAP2, depth=4))
    assert v.in_smp and v.case_tag == "RotationalInsideQuadraticGap"
    assert v.witness_type == "B"
    # the containing quadratic gap has a genuinely periodic major
    assert v.witness_quadratic is not None
    U = v.witness_quadratic
    for x in FINGAP2.vertices:
        assert U.in_basis(x)


def test_type_a_canonical_is_case_three_with_diameter_gap():
    v = classify_smp(canonical_of_rotational(FINGAP3, depth=4))
    assert v.in_smp and v.case_tag == "RotationalInsideQuadraticGap"
    assert v.witness_type == "A"
    # the triangle sits in the half-disk gap with major 0-1/2
    assert v.witness_quadratic.major == Chord(F(0), F(1, 2))


def test_two_rotational_classes_are_not_smp():
    # two unlinked rotational triangles with different rotation numbers
    leaves = {}
    for tri in ([F(1, 26), F(3, 26), F(9, 26)],
                [F(17, 26), F(23, 26), F(25, 26)]):
        for i in range(3):
            leaves[Chord(tri[i], tri[(i + 1) % 3])] = 0
    L = Lamination(d=3, depth=0, recipe="manual", leaves=leaves)
    v = classify_smp(L)
    assert not v.in_smp and v.case_tag == "NotSMP"


def test_empty_lamination_verdict():
    v = classify_smp(Lamination(d=3, depth=0, recipe="manual", leaves={}))
    assert not v.in_smp and v.case_tag == "Empty"


def test_non_rotational_leaf_set_is_not_smp():
    L = Lamination(d=3, depth=0, recipe="manual",
                   leaves={Chord(F(0), F(1, 8)): 0})
    v = classify_smp(L)
    assert not v.in_smp and v.case_tag == "NotSMP"


def test_rejects_degree_two():
    L = Lamination(d=2, depth=0, recipe="manual", leaves={})
    with pytest.raises(ValueError):
        classify_smp(L)


@pytest.mark.parametrize("bound", [-5, 0])
def test_rejects_period_bound_below_one(bound):
    L = canonical_of_quadratic_gap(build_gap(Chord(F(1, 3), F(2, 3)), 0)[0], 2)
    assert classify_smp(L, 1).in_smp
    with pytest.raises(ValueError, match=f"period_bound must be >= 1, got {bound}"):
        classify_smp(L, bound)


def _census():
    """The canonical laminations of the 210 periodic-type quadratic gaps of
    acceptance 2 (major period <= 6) at depth 2, and of the 81 sigma_3
    rotational sets with q <= 5 at depth 3."""
    for k in range(1, 7):
        h = F(3 ** (k - 1), 3 ** k - 1)
        for u in fixed_points(3, k):
            m = (u + (h - F(1, 3)) / 2) % 1
            c = Chord(m, (m + F(1, 3)) % 1)
            cls = classify_critical(c)
            if (cls.tag, cls.n_c, cls.major) == ("PeriodicType", k, Chord(u, (u + h) % 1)):
                yield canonical_of_quadratic_gap(build_gap(c, depth=0)[0], 2)
    for q in range(2, 6):
        for p in range(1, q):
            if F(p, q).denominator == q:
                for G in enumerate_rotational(3, F(p, q), 2):
                    yield canonical_of_rotational(G, 3)


def test_verdict_does_not_read_the_recipe():
    verdicts = Counter()
    for L in _census():
        v = classify_smp(L)
        assert classify_smp(replace(L, recipe="manual")).lines() == v.lines(), L.recipe
        verdicts[v.case_tag] += 1
    assert sum(verdicts.values()) == 210 + 81
    assert verdicts["CanonicalQuadraticGap"] == 210


def test_registered_gap_needs_its_major_as_a_leaf():
    U, _ = build_gap(Chord(F(1, 3), F(2, 3)), depth=0)
    L = canonical_of_quadratic_gap(U, depth=3)
    assert classify_smp(L).case_tag == "CanonicalQuadraticGap"
    v = classify_smp(replace(L, leaves={c: n for c, n in L.leaves.items() if c != U.major}))
    assert v.case_tag == "NotSMP" and not v.in_smp and v.witness_quadratic is None
