"""The integer set-up of the census constructions against the Fraction code
it replaced (tests/quadgap_oracle.py): critical-chord classes, quadratic
gaps with their edges and vertices, the seeds, attached gaps and critical
portraits of the canonical constructions, and the quadratic gap that
witnesses SMP case 3."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import quadgap_oracle as oracle
from trilam.chords import Chord, is_critical
from trilam.circle import Arc
from trilam.lamination import (
    _critical_portrait, _gap_polygon, attached_cycle, canonical_diameter,
    canonical_of_quadratic_gap, canonical_of_rotational,
)
from trilam.lamsets import LamSet, enumerate_rotational
from trilam.quadgap import _classify, _major_ends, _witness_gap, build_gap, classify_critical

# the m of a drawn critical chord (m, m + 1/3) is j/q, q a multiple of 3 up
# to 3 * (3^8 - 1), or a sigma^k-fixed point j/(3^k - 1), k <= 8, whose
# chords include the caterpillars
_Q = 3 * (3 ** 8 - 1)
_m = st.one_of(
    st.integers(1, _Q // 3).flatmap(
        lambda r: st.builds(lambda j: F(j, 3 * r), st.integers(0, 3 * r - 1))),
    st.integers(1, 8).flatmap(
        lambda k: st.builds(lambda j: F(j, 3 ** k - 1), st.integers(0, 3 ** k - 2))),
)
_angle = st.builds(lambda p, q: F(p, q) % 1, st.integers(0, 10 ** 4), st.integers(1, 400))
_critical = _m.map(lambda m: Chord(m, m + F(1, 3)))
_chords = st.one_of(
    _critical, _critical, _critical,
    _angle.map(lambda x: Chord(x, x)),  # degenerate
    st.tuples(_angle, _angle).map(lambda xy: Chord(*xy)),  # mostly not critical
)


def _outcome(fn, *args):
    """fn's value, or its exception's type and message."""
    try:
        return fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(_chords)
@example(Chord(F(0), F(1, 3)))             # caterpillar
@example(Chord(F(1, 12), F(5, 12)))        # the diameter's periodic type
@example(Chord(F(145, 156), F(41, 156)))   # period 3
@example(Chord(F(1, 3), F(2, 3)))          # regular critical
@example(Chord(F(1, 7), F(1, 7)))          # degenerate
@example(Chord(F(0), F(1, 2)))             # not critical
def test_classify_and_build_gap_match_the_fraction_oracle(c):
    for d in (2, 3, 4):
        assert _outcome(is_critical, d, c) == _outcome(oracle.is_critical, d, c)
    assert _outcome(classify_critical, c) == _outcome(oracle.classify_critical, c)
    for depth in range(3):
        got, want = _outcome(build_gap, c, depth), _outcome(oracle.build_gap, c, depth)
        assert got == want, depth
        if isinstance(got, tuple) and isinstance(got[0], type):
            break  # the same error at every depth
        assert got[0].edge_holes(depth) == oracle.edge_holes(got[0], depth)


def test_classify_and_build_gap_match_the_fraction_oracle_on_the_census():
    # the 1086 chords of the census workload; each periodic-type chord's
    # gap with its major orbit as the seeds, as the construction takes them
    tags = {}
    for k in range(1, 7):
        h = F(3 ** (k - 1), 3 ** k - 1)
        for j in range(3 ** k - 1):
            m = (F(j, 3 ** k - 1) + (h - F(1, 3)) / 2) % 1
            c = Chord(m, m + F(1, 3))
            cls = classify_critical(c)
            assert cls == oracle.classify_critical(c), c
            tags[cls.tag] = tags.get(cls.tag, 0) + 1
            gap, verts = build_gap(c, 0)
            assert (gap, verts) == oracle.build_gap(c, 0), c
            seeds = [e for e, _ in gap.base_edges()]
            assert gap.base_edges() == oracle.base_edges(gap)
            assert _gap_polygon(gap, seeds) == oracle._gap_polygon(gap, seeds), c
    assert tags == {"PeriodicType": 1086}


def test_golden_gaps_match_the_fraction_oracle():
    for L in (canonical_diameter(0),
              canonical_of_quadratic_gap(build_gap(Chord(F(1, 3), F(2, 3)), 0)[0], 0),
              canonical_of_quadratic_gap(build_gap(Chord(F(145, 156), F(41, 156)), 0)[0], 0)):
        U = L.gaps[0]
        seeds = [e for e, _ in oracle.base_edges(U)]
        assert list(L.leaves) == sorted(seeds)
        assert _gap_polygon(U, seeds) == oracle._gap_polygon(U, seeds)
        # the vertices with and without the critical chord's orbit
        for gap in (U, replace(U, critical=None)):
            for depth in range(4):
                assert gap.vertices(depth) == oracle.vertices(gap, depth), (gap, depth)


@pytest.mark.parametrize("n", range(1, 9))
def test_major_ends_are_the_nearest_fixed_points(n):
    rng = random.Random(n)
    for _ in range(40):
        M = 3 * rng.randrange(1, 3 ** 8)
        s = rng.randrange(M)
        t = (s + M // 3) % M
        q, z, y = _major_ends(M, s, t, n)
        assert q == 3 ** n - 1
        assert (F(z, q), F(y, q)) == (oracle._nearest_fixed(F(s, M), n, -1),
                                      oracle._nearest_fixed(F(t, M), n, +1))


def _census_sets():
    """Every rotational set the census enumerates, sigma_3 with q <= 7 and
    sigma_2 with q <= 9, and the diameter {0, 1/2}."""
    sets = [G for d, qmax in ((3, 7), (2, 9)) for q in range(2, qmax + 1)
            for p in range(1, q) if F(p, q).denominator == q
            for G in enumerate_rotational(d, F(p, q), 2)]
    return sets + [LamSet([F(0), F(1, 2)], degree_d=3)]


def test_rotational_setup_matches_the_fraction_oracle():
    sets = _census_sets()
    assert len(sets) > 224 and {G.degree_d for G in sets} == {2, 3}
    for G in sets:
        seeds, cycle, portrait = oracle.rotational_setup(G)
        L = canonical_of_rotational(G, 0)
        assert list(L.leaves) == seeds
        assert L.gaps[1:] == attached_cycle(G) == cycle
        assert [g.is_critical for g in cycle] == [oracle.is_attached_critical(g) for g in cycle]
        assert _critical_portrait(G.degree_d, seeds, cycle) == portrait, G
    # a hole of exactly 1/d is a major hole, on a set that is no rotational set
    for g in attached_cycle(LamSet([F(0), F(1, 3), F(5, 6)])):
        assert g.is_critical == oracle.is_attached_critical(g) == (g.index != 2)


def test_centred_chord_has_period_k_exactly_when_the_fraction_scan_keeps_the_hole():
    # every candidate hole (j, j + 3^(k-1)) over q = 3^k - 1, k <= 6, of the
    # witness scan: the integer scan keeps it iff its centred critical chord
    # has n_c = k, the Fraction scan iff also its major has leaf period k
    # and is the chord's major
    kept = 0
    for k in range(1, 7):
        q, h = 3 ** k - 1, F(3 ** (k - 1), 3 ** k - 1)
        for j in range(q):
            major = Chord(F(j, q), F(j, q) + h)
            m = F(6 * j + 1, 6 * q)
            c = Chord(m, m + F(1, 3))
            cls, hole = _classify(c)
            want = oracle.classify_critical(c)
            if cls.n_c == k:
                kept += 1
                assert hole == Arc(F(j, q), F(j, q) + h)
            assert (cls.n_c == k) == (oracle._leaf_period(major) == k == want.n_c
                                      and want.major == major), (k, j)
    assert kept > 200


def test_witness_gap_matches_the_fraction_oracle_on_rotational_sets():
    found = Counter()
    for q in range(2, 9):
        for p in range(1, q):
            if F(p, q).denominator == q:
                for G in enumerate_rotational(3, F(p, q), 2):
                    U = _witness_gap(G.M, G.nums)
                    assert U == oracle.witness_quadratic_gap(G.vertices), G
                    found[None if U is None else U.period] += 1
    assert sum(found.values()) == 265 and found[None] == 74


# periodic points j/(3^k - 1), most of which some gap holds, and any points
# over M <= 300, most of which none does
_point_sets = st.one_of(
    st.integers(1, 6).map(lambda k: 3 ** k - 1),
    st.integers(1, 300),
).flatmap(lambda M: st.tuples(st.just(M), st.lists(st.integers(0, M - 1), min_size=1,
                                                   max_size=4)))


@settings(max_examples=100, deadline=None)
@given(_point_sets)
# a type B set of rotation 1/12 that no gap of period <= 6 holds
@example((1456, [1, 3, 9, 27, 81, 243, 729, 731, 737, 755, 809, 971]))
def test_witness_gap_matches_the_fraction_oracle_on_drawn_points(case):
    M, nums = case
    U = _witness_gap(M, nums)
    assert U == oracle.witness_quadratic_gap([F(x, M) for x in nums])


@settings(max_examples=300, deadline=None)
@given(_point_sets)
def test_witness_gap_commutes_with_reflection(case):
    # x -> -x commutes with sigma_3 and takes the candidate holes of period
    # k onto each other, so the reflected points have a witness of the same
    # period, or none
    M, nums = case
    U, V = _witness_gap(M, nums), _witness_gap(M, [-x % M for x in nums])
    assert (U is None) == (V is None) and (U is None or U.period == V.period)


def test_arc_normalises_its_ends():
    A = Arc(F(5, 4), F(-1, 3))
    assert (A.start, A.end) == (F(1, 4), F(2, 3))
    assert A == Arc(F(1, 4), F(2, 3)) and hash(A) == hash(Arc(F(1, 4), F(2, 3)))
    assert hash(A) == hash((F(1, 4), F(2, 3)))
    assert repr(A) == "Arc(1/4, 2/3)"
    assert Arc(F(1, 2), F(0)) == Arc(F(3, 2), F(1)) != Arc(F(0), F(1, 2))
