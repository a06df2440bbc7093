import dataclasses
from fractions import Fraction as F
from math import comb, gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import lamsets_oracle as oracle
from trilam.chords import Chord
from trilam.circle import arc_length, contains_closed, fixed_points, orbit, parse_angle
from trilam.lamsets import (
    LamSet,
    classify_rotational,
    enumerate_rotational,
    format_lamset,
    holes,
    majors,
    parse_lamset,
)

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP2 = parse_lamset("7/26,11/26,21/26")
FINGAP3 = parse_lamset("1/26,3/26,9/26")

_DEGREES = st.sampled_from([2, 3, 4, 5, 9, 27])


def test_lamset_canonicalizes():
    G = LamSet([F(3, 2), F(1, 4), F(1, 2)])
    assert G.vertices == (F(1, 4), F(1, 2))
    with pytest.raises(ValueError):
        LamSet([])


def test_lamset_stores_numerators_over_one_denominator():
    assert [f.name for f in dataclasses.fields(LamSet)] == ["M", "nums", "degree_d"]
    G = LamSet([F(5, 4), F(1, 6), F(1, 2), F(-1, 3)])
    assert (G.M, G.nums, G.vertices) == (12, (2, 3, 6, 8), (F(1, 6), F(1, 4), F(1, 2), F(2, 3)))
    assert (LamSet([0]).M, LamSet([0]).nums) == (1, (0,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.vertices = (F(0),)
    with pytest.raises(ValueError):
        LamSet._from_nums(6, [], 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 720), st.integers(1, 12), _DEGREES,
       st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8))
@example(4, 2, 3, [0, 2, 2])  # a shared factor, a duplicate and 0: {0, 1/2} over M = 2
@example(1, 1, 2, [0])
def test_lamset_from_numerators_is_the_lamset_of_their_angles(n, k, d, draws):
    # numerators over N = n * k, some of them multiples of k, so that the
    # whole set may share a factor with N
    N = n * k
    xs = [x % N if i % 2 else x % n * k for i, x in enumerate(draws)]
    G, want = LamSet._from_nums(N, xs, d), LamSet([F(x, N) for x in xs], d)
    angles = sorted({F(x, N) for x in xs})
    assert G.vertices == want.vertices == tuple(angles)
    assert G.M == want.M == lcm(*(a.denominator for a in angles))
    assert G.nums == want.nums == tuple(a.numerator * (G.M // a.denominator) for a in angles)
    assert G == want and hash(G) == hash(want) and repr(G) == repr(want)
    assert G != LamSet(angles, d + 1)


def test_parse_format():
    assert format_lamset(FINGAP2) == "7/26,11/26,21/26"
    assert parse_lamset(format_lamset(FINGAP1)) == FINGAP1


_ANGLE_TEXTS = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 200), st.integers(0, 60)),
    st.integers(0, 9).map(str),
    st.sampled_from([" 1/3", "2/6 ", "-1/4", "0.5", "1e-1", "1_0/26", "x", "1/", "/3", " ", ""]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANGLE_TEXTS, max_size=6), st.sampled_from([2, 3]))
def test_parse_lamset_matches_the_fraction_parse(parts, d):
    # numerators straight from the text give the set, or the error, that a
    # Fraction per vertex gave
    text = ",".join(parts)

    def fraction_parse():
        ps = [p for p in text.strip().split(",") if p]
        if not ps:
            raise ValueError(f"bad laminational-set syntax: {text!r}")
        return LamSet([parse_angle(p) for p in ps], d)

    try:
        want = fraction_parse()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            parse_lamset(text, d)
        assert str(info.value) == str(exc)
        return
    G = parse_lamset(text, d)
    assert (G, G.M, G.nums, G.vertices) == (want, want.M, want.nums, want.vertices)


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
    assert classify_rotational(FINGAP1).is_invariant
    assert classify_rotational(FINGAP2).is_invariant
    # a 2-cycle under tripling
    assert classify_rotational(LamSet([F(1, 4), F(3, 4)])).is_invariant
    assert not classify_rotational(LamSet([F(1, 4), F(1, 3)])).is_invariant


def _assert_majors_hold_fixed_points(G):
    # an edge of an invariant set is a major iff its closed hole holds a
    # sigma_d-fixed point (hole by hole: a 2-point set has its edge twice)
    assert classify_rotational(G).is_invariant
    fixed = fixed_points(G.degree_d)
    assert majors(G) == [e for e, h in holes(G)
                         if any(contains_closed(h, f) for f in fixed)], G


def test_fixed_point_major_criterion_on_examples():
    for G in (FINGAP1, FINGAP2, FINGAP3):
        _assert_majors_hold_fixed_points(G)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("rho", [F(1, 2), F(1, 3), F(2, 3), F(1, 4),
                                 F(3, 4), F(2, 5), F(3, 5)])
def test_fixed_point_major_criterion_on_rotational_census(d, rho):
    for G in enumerate_rotational(d, rho, 2):
        _assert_majors_hold_fixed_points(G)


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
    # Goldberg gives C(5, 3) = 10 cycles at d = 4 and C(6, 3) = 20 at d = 5,
    # but a set with three or more majors has no A/B/D type
    for d in (4, 5):
        with pytest.raises(ValueError, match="d = 2 and 3 only"):
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


# ---------------------------------------------------------------------------
# the one-table classifier against the Fraction oracle


def _assert_matches_oracle(G):
    rep, want = classify_rotational(G), oracle.classify_rotational(G)
    assert rep == want, G
    assert rep.is_invariant == oracle.is_invariant(G), G
    assert majors(G) == oracle.majors(G), G


def test_classifier_matches_oracle_on_enumerated_sets():
    # every set found for d = 2 (q <= 8) and d = 3 (q <= 6), also read at the
    # degrees d^j whose return maps the core census classifies
    count = 0
    for d, max_q in ((2, 8), (3, 6)):
        for q in range(2, max_q + 1):
            for p in range(1, q):
                if F(p, q).denominator != q:
                    continue
                for G in enumerate_rotational(d, F(p, q), 2):
                    for D in sorted({d, d * d, 9, 27}):
                        _assert_matches_oracle(LamSet(G.vertices, D))
                    count += 1
    assert count > 100
    for D in (2, 3, 9):
        _assert_matches_oracle(LamSet([F(0), F(1, 2)], D))


@settings(max_examples=300, deadline=None)
@given(_DEGREES, st.lists(st.fractions(0, 1, max_denominator=120), min_size=1, max_size=8))
def test_classifier_matches_oracle_on_drawn_sets(d, vertices):
    _assert_matches_oracle(LamSet(vertices, d))


@settings(max_examples=300, deadline=None)
@given(_DEGREES, st.integers(1, 4), st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=3))
def test_classifier_matches_oracle_on_orbit_closures(d, k, nums):
    # points j / (d^k - 1) are periodic, so the union of their orbits is
    # invariant; k = 1 at d = 2 gives the fixed point 0 alone
    q = d ** k - 1
    _assert_matches_oracle(LamSet({y for j in nums for y in orbit(d, F(j % q, q))}, d))


@pytest.mark.parametrize("d, max_q", [(2, 9), (3, 7), (2, 16), (3, 9)])
def test_enumerate_rotational_matches_fraction_oracle(d, max_q):
    # the census range, and past it as far as the oracle's walk over all
    # d^q - 1 points stays under about 1 s: the digit-word scan finds the
    # cycles that the walk finds, and no LamSet or classifier is built per
    # pair of cycles, only the alternation of their sorted numerators is read
    for q in range(2, max_q + 1):
        for p in range(1, q):
            if F(p, q).denominator != q:
                continue
            for orbits in (1, 2):
                got = enumerate_rotational(d, F(p, q), orbits)
                want = oracle.enumerate_rotational(d, F(p, q), orbits)
                assert got == want, (d, p, q, orbits)
                assert [G.vertices for G in got] == [G.vertices for G in want]


def _reflected(G):
    """tau(G), tau(x) = -x, which commutes with every sigma_d."""
    return LamSet._from_nums(G.M, [-x % G.M for x in G.nums], G.degree_d)


@pytest.mark.parametrize("d, max_q", [(2, 40), (3, 20)])
def test_enumerate_rotational_past_the_fraction_oracle(d, max_q):
    # where the oracle's walk would visit up to 3^20 points: Goldberg's
    # count gives sigma_3 q + 1 one-orbit sets of each p/q, and the two-orbit
    # unions of adjacent cycles q more; sigma_2 has one cycle and no union.
    # The classifier reads each set back, and tau maps p/q onto (q - p)/q.
    for q in range(2, max_q + 1):
        found = {p: enumerate_rotational(d, F(p, q), 2) for p in range(1, q) if gcd(p, q) == 1}
        for p, sets in found.items():
            reps = [classify_rotational(G) for G in sets]
            assert all(rep.is_rotational and rep.rotation_number == F(p, q) for rep in reps)
            assert all(len(G) == q * rep.orbit_count for G, rep in zip(sets, reps))
            orbits = [rep.orbit_count for rep in reps]
            assert (orbits.count(1), orbits.count(2)) == ((q + 1, q) if d == 3 else (1, 0)), (p, q)
            assert {_reflected(G) for G in sets} == set(found[q - p]), (p, q)
