from fractions import Fraction as F
from math import comb

import pytest

from trilam.chords import Chord
from trilam.circle import arc_length, orbit
from trilam.lamsets import (
    LamSet,
    classify_rotational,
    enumerate_rotational,
    fixed_point_major_check,
    format_lamset,
    holes,
    is_invariant,
    majors,
    parse_lamset,
    remap,
)

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP2 = parse_lamset("7/26,11/26,21/26")
FINGAP3 = parse_lamset("1/26,3/26,9/26")


def test_lamset_canonicalizes():
    G = LamSet([F(3, 2), F(1, 4), F(1, 2)])
    assert G.vertices == (F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        LamSet([])


def test_parse_format():
    assert format_lamset(FINGAP2) == "7/26,11/26,21/26"
    assert parse_lamset(format_lamset(FINGAP1)) == FINGAP1


def test_holes_partition_circle():
    hs = holes(FINGAP1)
    assert len(hs) == 6
    assert sum(arc_length(h) for _, h in hs) == 1
    # a two-point set has two holes (both sides of the single chord)
    hs2 = holes(LamSet([F(0), F(1, 2)]))
    assert len(hs2) == 2
    assert len(holes(LamSet([F(1, 3)]))) == 0


def test_majors_of_examples():
    assert set(majors(FINGAP1)) == {
        Chord(F(12, 13), F(7, 26)),
        Chord(F(11, 26), F(10, 13)),
    }
    assert set(majors(FINGAP2)) == {
        Chord(F(21, 26), F(7, 26)),
        Chord(F(11, 26), F(21, 26)),
    }
    assert majors(FINGAP3) == [Chord(F(9, 26), F(1, 26))]


def test_fingap3_major_hole_length():
    (edge, hole), = [(e, h) for e, h in holes(FINGAP3)
                     if e == Chord(F(9, 26), F(1, 26))]
    assert arc_length(hole) == F(9, 13)
    assert arc_length(hole) > F(2, 3)


def test_invariance():
    assert is_invariant(FINGAP1)
    assert is_invariant(FINGAP2)
    assert is_invariant(LamSet([F(1, 4), F(3, 4)]))  # 2-cycle under tripling
    assert not is_invariant(LamSet([F(1, 4), F(1, 3)]))


def test_fixed_point_major_criterion_on_examples():
    for G in (FINGAP1, FINGAP2, FINGAP3):
        assert fixed_point_major_check(G)
    with pytest.raises(ValueError):
        fixed_point_major_check(LamSet([F(1, 4)]))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rho", [F(1, 2), F(1, 3), F(2, 3), F(1, 4),
                                 F(3, 4), F(2, 5), F(3, 5)])
def test_fixed_point_major_criterion_on_rotational_census(d, rho):
    for G in enumerate_rotational(d, rho, 2):
        assert fixed_point_major_check(G)


def test_classify_fingap1_type_d():
    rep = classify_rotational(FINGAP1)
    assert rep.is_invariant and rep.is_rotational
    assert rep.rotation_number == F(2, 3)
    assert rep.type_tag == "D"
    assert rep.orbit_count == 2
    assert not rep.diameter_special


def test_classify_fingap2_type_b():
    rep = classify_rotational(FINGAP2)
    assert rep.is_rotational
    assert rep.rotation_number == F(2, 3)
    assert rep.type_tag == "B"
    assert rep.orbit_count == 1


def test_classify_fingap3_type_a():
    rep = classify_rotational(FINGAP3)
    assert rep.is_rotational
    assert rep.rotation_number == F(1, 3)
    assert rep.type_tag == "A"
    assert rep.majors == (Chord(F(9, 26), F(1, 26)),)


def test_classify_diameter_special():
    rep = classify_rotational(LamSet([F(0), F(1, 2)]))
    assert rep.is_invariant
    assert not rep.is_rotational
    assert rep.rotation_number == 0
    assert rep.type_tag == "D"
    assert rep.diameter_special


def test_classify_rejects_non_rigid_action():
    # invariant, but 0 is fixed while 1/8, 3/8 swap: not a rigid rotation
    rep = classify_rotational(LamSet([F(0), F(1, 8), F(3, 8)]))
    assert rep.is_invariant
    assert not rep.is_rotational


def test_classify_two_cycle_type_a():
    rep = classify_rotational(LamSet(orbit(3, F(1, 8))))
    assert rep.is_rotational
    assert rep.rotation_number == F(1, 2)
    assert rep.type_tag == "A"


def test_remap():
    n, perm = remap(FINGAP1)
    assert n == 1
    assert sorted(perm) == list(range(6))
    # a set that moves off itself before returning
    n2, _ = remap(LamSet([F(1, 8)]))  # {1/8} -> {3/8} -> {1/8}
    assert n2 == 2
    with pytest.raises(ValueError):
        remap(LamSet([F(1, 4), F(1, 3)]))


def test_enumerate_rotational_d2():
    sets = enumerate_rotational(2, F(1, 3), 1)
    assert [G.vertices for G in sets] == [(F(1, 7), F(2, 7), F(4, 7))]


def test_enumerate_rotational_d3_includes_fingap3():
    sets = enumerate_rotational(3, F(1, 3), 1)
    assert FINGAP3 in sets


def test_enumerate_rotational_two_orbit_includes_fingap1():
    sets = enumerate_rotational(3, F(2, 3), 2)
    assert FINGAP1 in sets
    for G in sets:
        rep = classify_rotational(G)
        assert rep.is_rotational and rep.rotation_number == F(2, 3)
        assert rep.orbit_count <= 2


def test_enumerate_rotational_validates_input():
    with pytest.raises(ValueError):
        enumerate_rotational(3, F(0), 1)
    with pytest.raises(ValueError):
        enumerate_rotational(3, F(1, 3), 3)
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            enumerate_rotational(d, F(1, 3), 1)


@pytest.mark.parametrize("d", [2, 3])
def test_enumerate_rotational_goldberg_count(d):
    # Goldberg: sigma_d has C(q+d-2, q) single-cycle rotation sets with
    # rotation number p/q, for each p/q in lowest terms
    for q in range(2, 13):
        for p in range(1, q):
            if F(p, q).denominator != q:
                continue
            sets = enumerate_rotational(d, F(p, q), max_orbits=1)
            assert len(sets) == comb(q + d - 2, q), (d, p, q)
            assert all(len(G) == q for G in sets)
