import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from trilam.chords import Chord, format_chord, image, linked, parse_chord
from trilam.circle import (
    Arc, arc_length, contains, fixed_points, format_angle, parse_angle, preimages, sigma,
)
from trilam.lamination import (
    AttachedGap,
    FiniteRegion,
    Lamination,
    LamFormatError,
    LeafBudgetError,
    Leaves,
    PullbackAmbiguityError,
    _angle_parts,
    _attached_polygon,
    _count_crossings,
    _critical_portrait,
    _LEAF_BUDGET,
    _gap_polygon,
    _holes_map_to_holes,
    _pullback_closure,
    _vassal_chord,
    attached_cycle,
    canonical_diameter,
    canonical_of_quadratic_gap,
    canonical_of_rotational,
    check_invariance,
    clean,
    dumps,
    loads,
    project_through_gap,
    quadratic_canonical,
    read_lamination,
    write_lamination,
)
from trilam.lamsets import LamSet, enumerate_rotational, format_lamset, holes, parse_lamset
from trilam.quadgap import (
    GapGen, VassalGap, above_diameter, below_diameter, build_gap, classify_critical,
)

from check_oracle import check_invariance as oracle_check_invariance
from loads_oracle import loads as oracle_loads
from pullback_oracle import _pullback_closure as oracle_pullback_closure
from region_oracle import (
    REGION_MARGIN, RegionView, region_boundary, region_closure, region_edges,
    tracks_hole_cycle,
)
from test_cli import _mutated_lam

FINGAP1 = parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")
FINGAP2 = parse_lamset("7/26,11/26,21/26")
FINGAP3 = parse_lamset("1/26,3/26,9/26")
PERIOD3_CRITICAL = Chord(F(145, 156), F(41, 156))


def _pair_items(leaves):
    """The store's ((a, b), level) items, in sorted order."""
    return list(zip(leaves.pairs(), leaves.values()))


def _gap(c, kind=None):
    g, _ = build_gap(c, depth=0)
    return g


# ---------------------------------------------------------------------------
# canonical constructions


def test_canonical_diameter():
    L = canonical_diameter(depth=4)
    assert Chord(F(0), F(1, 2)) in L.leaves
    assert L.leaves[Chord(F(0), F(1, 2))] == 0
    # the sibling pair of the diameter shows up at level 1
    assert L.leaves[Chord(F(1, 6), F(1, 3))] == 1
    assert L.leaves[Chord(F(2, 3), F(5, 6))] == 1
    assert len(L.leaves) == 3 ** 4
    assert check_invariance(L).ok


def test_canonical_same_from_both_diameter_gaps():
    La = canonical_of_quadratic_gap(above_diameter(), depth=4)
    Lb = canonical_of_quadratic_gap(below_diameter(), depth=4)
    assert La.leaves == Lb.leaves


def test_canonical_of_period3_gap():
    U = _gap(PERIOD3_CRITICAL)
    L = canonical_of_quadratic_gap(U, depth=4)
    rep = check_invariance(L)
    assert rep.ok
    # the major orbit seeds the lamination; the co-major of the vassal is
    # discovered as a preimage
    assert Chord(F(7, 26), F(12, 13)) in L.leaves
    assert Chord(F(10, 39), F(73, 78)) in L.leaves


def test_canonical_of_regular_critical_gap():
    U = _gap(Chord(F(1, 3), F(2, 3)))
    L = canonical_of_quadratic_gap(U, depth=4)
    assert Chord(F(1, 3), F(2, 3)) in L.leaves
    assert check_invariance(L).ok


def test_canonical_depth_monotone():
    U = _gap(PERIOD3_CRITICAL)
    small = canonical_of_quadratic_gap(U, depth=3)
    big = canonical_of_quadratic_gap(U, depth=4)
    assert set(small.leaves) <= set(big.leaves)
    for c, lvl in small.leaves.items():
        assert big.leaves[c] == lvl


def test_canonical_of_rotational_fingap1():
    L = canonical_of_rotational(FINGAP1, depth=4)
    for v in FINGAP1.vertices:
        assert any(c.has_endpoint(v) for c in L.leaves)
    assert check_invariance(L).ok
    assert L.gaps == [FiniteRegion(FINGAP1), *attached_cycle(FINGAP1)]


def test_canonical_of_rotational_fingap3():
    L = canonical_of_rotational(FINGAP3, depth=4)
    assert Chord(F(1, 26), F(3, 26)) in L.leaves
    assert check_invariance(L).ok


def test_canonical_of_rotational_rejects_non_rotational():
    with pytest.raises(ValueError):
        canonical_of_rotational(LamSet([F(0), F(1, 8), F(3, 8)]), depth=2)


def test_attached_gap_is_critical_iff_its_hole_is_a_major_hole():
    sets = [FINGAP1, FINGAP2, FINGAP3, LamSet([F(1, 7), F(2, 7), F(4, 7)], degree_d=2),
            *_rotational_census()]
    for G in sets:
        for g, (_, hole) in zip(attached_cycle(G), holes(G)):
            assert g.is_critical == (arc_length(hole) >= F(1, G.degree_d)), (G, g.index)


def test_attached_cycle_of_fingap1():
    cycle = attached_cycle(FINGAP1)
    assert len(cycle) == 6
    crit = [i for i, g in enumerate(cycle) if g.is_critical]
    assert len(crit) == 2
    vs = FINGAP1.vertices
    for i, g in enumerate(cycle):
        assert isinstance(g, AttachedGap)
        assert Chord(vs[i], vs[(i + 1) % len(vs)]) in region_edges(g, 2)


def test_quadratic_canonical_basilica():
    G = LamSet([F(1, 3), F(2, 3)], degree_d=2)
    L = quadratic_canonical(G, depth=4)
    assert L.d == 2
    assert Chord(F(1, 3), F(2, 3)) in L.leaves
    assert Chord(F(1, 6), F(5, 6)) in L.leaves
    assert check_invariance(L).ok


def test_quadratic_canonical_rabbit():
    G = LamSet([F(1, 7), F(2, 7), F(4, 7)], degree_d=2)
    L = quadratic_canonical(G, depth=4)
    assert check_invariance(L).ok
    with pytest.raises(ValueError):
        quadratic_canonical(LamSet([F(1, 3), F(2, 3)], degree_d=3), depth=2)


@pytest.mark.parametrize("build", [
    lambda n: canonical_of_quadratic_gap(_gap(PERIOD3_CRITICAL), depth=n),
    lambda n: canonical_of_rotational(FINGAP3, depth=n),
    canonical_diameter,
])
def test_canonical_rejects_negative_depth(build):
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build(-1)


# ---------------------------------------------------------------------------
# the portrait closure against the region-closure and Fraction oracles


GOLDEN_BUILDS = {
    "regcrit": lambda n: canonical_of_quadratic_gap(_gap(Chord(F(1, 3), F(2, 3))), n),
    "period3": lambda n: canonical_of_quadratic_gap(_gap(PERIOD3_CRITICAL), n),
    "diameter": canonical_diameter,
    "fingap1": lambda n: canonical_of_rotational(FINGAP1, n),
    "fingap2": lambda n: canonical_of_rotational(FINGAP2, n),
    "fingap3": lambda n: canonical_of_rotational(FINGAP3, n),
    "rabbit": lambda n: quadratic_canonical(parse_lamset("1/7,2/7,4/7", 2), n),
}


def _seeds(L):
    first = L.gaps[0]
    if isinstance(first, FiniteRegion):
        return sorted({e for e, _ in holes(first.base)})
    return [e for e, _ in first.base_edges()]


@lru_cache(maxsize=None)
def _rotational_census():
    """Every sigma_3 rotational set with q <= 5, the diameter {0, 1/2}, and
    every sigma_2 rotational set with q <= 7."""
    sets = [G for d, qmax in ((3, 5), (2, 7)) for q in range(2, qmax + 1)
            for p in range(1, q) if F(p, q).denominator == q
            for G in enumerate_rotational(d, F(p, q), 2)]
    return tuple(sets) + (LamSet([F(0), F(1, 2)], degree_d=3),)


@lru_cache(maxsize=None)
def _periodic_gaps(kmax):
    """The periodic-type quadratic gaps of major period k <= kmax, found as
    acceptance 2 finds them."""
    gaps = []
    for k in range(1, kmax + 1):
        h = F(3 ** (k - 1), 3 ** k - 1)
        for u in fixed_points(3, k):
            m = (u + (h - F(1, 3)) / 2) % 1
            c = Chord(m, (m + F(1, 3)) % 1)
            cls = classify_critical(c)
            if cls.tag == "PeriodicType" and cls.n_c == k \
                    and cls.major == Chord(u, (u + h) % 1):
                gaps.append(_gap(c))
    return tuple(gaps)


def _fraction_crosses(pts, a, b):
    """Brute force: some boundary point strictly inside (a, b) and some
    strictly outside [a, b]."""
    return sum(a < x < b for x in pts) > 0 and sum(x < a or x > b for x in pts) > 0


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_region_view_crosses_matches_fraction_count(name):
    # the region oracle's bisection against a brute-force side count
    L = GOLDEN_BUILDS[name](0)
    rng = random.Random(name)
    outcomes = set()
    for obj in L.gaps:
        pts = region_boundary(obj, 2)
        # room for endpoints one numerator step (under 1e-9) from a boundary point
        N = lcm(*(x.denominator for x in pts)) * 3 ** 20
        nums = [x.numerator * (N // x.denominator) for x in pts]
        view = RegionView(nums)
        near = sorted({(u + step) % N for u in nums for step in (-1, 0, 1)})
        ends = sorted(set(rng.sample(near, min(36, len(near)))
                          + [rng.randrange(N) for _ in range(6)]))
        for a, b in combinations(ends, 2):
            want = _fraction_crosses(pts, F(a, N), F(b, N))
            assert view.crosses(a, b) == want, (format_angle(F(a, N)), format_angle(F(b, N)))
            outcomes.add((want, a in nums or b in nums))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def _fraction_closure(d, seeds, regions, depth):
    """The region closure in Fraction arithmetic: `circle.preimages` for
    the sibling candidates and a brute-force side count for crossings, with
    the regions enumerated REGION_MARGIN levels past the depth."""
    bounds = [region_boundary(obj, depth + REGION_MARGIN) for obj in regions]
    leaves = dict.fromkeys(seeds, 0)
    frontier = list(leaves)
    for level in range(1, depth + 1):
        fresh = []
        for leaf in frontier:
            valid = []
            for p in preimages(d, leaf.a):
                for q in preimages(d, leaf.b):
                    c = Chord(p, q)
                    if c in leaves or not any(
                            _fraction_crosses(pts, c.a, c.b) for pts in bounds):
                        valid.append(c)
            if len(valid) != d:
                raise PullbackAmbiguityError(
                    f"pullback of {format_chord(leaf)} admits {len(valid)} "
                    f"siblings where exactly {d} were expected")
            for c in valid:
                if c not in leaves:
                    leaves[c] = level
                    fresh.append(c)
        frontier = fresh
    return leaves


def _closure_or_error(closure, *args):
    """The (Chord, level) items of the closure, sorted, or its error."""
    try:
        return sorted(closure(*args).items())
    except PullbackAmbiguityError as exc:
        return str(exc)


def _assert_closure_matches_oracle(d, seeds, regions, depth, portrait=None):
    """The Fraction and integer region oracles agree, their errors included.
    The portrait closure never fails, and it gives their leaves and levels,
    in sorted order, wherever they succeed.  Returns both results."""
    want = _closure_or_error(_fraction_closure, d, seeds, regions, depth)
    assert _closure_or_error(region_closure, d, seeds, regions, depth) == want
    if portrait is None:
        portrait = _critical_portrait(d, seeds, regions)
    got = list(_pullback_closure(d, seeds, portrait, depth).items())
    assert isinstance(want, str) or got == want
    return got, want


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_pullback_closure_matches_fraction_oracle_on_golden_recipes(name):
    L0 = GOLDEN_BUILDS[name](0)
    for n in range(5):
        got, want = _assert_closure_matches_oracle(L0.d, _seeds(L0), L0.gaps, n)
    assert not isinstance(want, str)
    assert [(c, lvl) for c, lvl in got if lvl == 0] == list(L0.leaves.items())


def test_pullback_closure_matches_fraction_oracle_on_rotational_sets():
    sets = [G for q in range(2, 5) for p in range(1, q) if F(p, q).denominator == q
            for G in enumerate_rotational(3, F(p, q), 2)]
    assert sets
    for G in sets:
        L0 = canonical_of_rotational(G, 0)
        _, want = _assert_closure_matches_oracle(3, _seeds(L0), L0.gaps, 4)
        assert not isinstance(want, str)


def test_pullback_closure_matches_fraction_oracle_on_a_fixed_region():
    # The region's denominators do not grow with the depth, so only the
    # factor d**depth of the common denominator keeps the deepest level exact.
    # The region is the critical chord 1/4-3/4 of sigma_2, so it is also
    # the portrait.
    region = FiniteRegion(LamSet([F(1, 4), F(3, 4)], degree_d=2))
    got, _ = _assert_closure_matches_oracle(2, [Chord(F(1, 3), F(2, 3))], [region], 6,
                                            portrait=[(F(1, 4), F(3, 4))])
    assert len(got) == 2 ** 6
    assert max(c.b.denominator for c, _ in got) == 3 * 2 ** 6


def test_portrait_closure_matches_region_oracle():
    # golden recipes at depths 0-6, the rotational census at depth 4 and
    # the periodic-type gaps with k <= 4 at depth 3
    cases = [(GOLDEN_BUILDS[name](0), n) for name in sorted(GOLDEN_BUILDS)
             for n in range(7)]
    cases += [(canonical_of_rotational(G, 0), 4) for G in _rotational_census()]
    cases += [(canonical_of_quadratic_gap(U, 0), 3) for U in _periodic_gaps(4)]
    compared = 0
    for L0, n in cases:
        seeds, regions = _seeds(L0), L0.gaps
        want = _closure_or_error(region_closure, L0.d, seeds, regions, n)
        got = _pullback_closure(L0.d, seeds, _critical_portrait(L0.d, seeds, regions), n)
        if not isinstance(want, str):
            assert list(got.items()) == want, (L0.recipe, n)
            compared += 1
    # the oracle fails on fingap1, fingap3 and the rabbit at depth 1, and on
    # eight sigma_2 sets with q = 6 or 7 at depth 4
    assert len(cases) - compared == 11


def test_rotational_census_builds_at_every_depth():
    # the region oracle fails on 70, 48 and 28 of these sigma_3 sets at
    # depths 1, 2 and 3
    for G in _rotational_census():
        deep = canonical_of_rotational(G, 6).leaves
        s, d = len(_seeds(canonical_of_rotational(G, 0))), G.degree_d
        for n in range(7):
            L = canonical_of_rotational(G, n)
            assert len(L.leaves) <= s * (d ** (n + 1) - 1) // (d - 1)  # the leaf bound
            f = deep.N // L.leaves.N  # compare in sorted order, over deep.N
            assert [((a * f, b * f), lvl) for (a, b), lvl in _pair_items(L.leaves)] \
                == [(c, lvl) for c, lvl in _pair_items(deep) if lvl <= n]
            assert check_invariance(L).ok, (format_lamset(G), n)


def test_leaf_budget_admits_every_golden_recipe_at_depth_12():
    # the bound that _pullback_closure holds against the budget, without
    # building anything that large; fingap1's is the largest
    bounds = {}
    for name in sorted(GOLDEN_BUILDS):
        L0 = GOLDEN_BUILDS[name](0)
        bounds[name] = len(_seeds(L0)) * (L0.d ** 13 - 1) // (L0.d - 1)
    assert max(bounds.values()) == bounds["fingap1"] == 4782966 <= _LEAF_BUDGET
    with pytest.raises(LeafBudgetError, match="^depth 13 may build up to 14348904 leaves"):
        canonical_of_rotational(FINGAP1, 13)


def _portrait_constructions():
    """(d, seeds, regions) of the golden recipes, the rotational census and
    the periodic-type gaps with k <= 5."""
    builds = [GOLDEN_BUILDS[name](0) for name in sorted(GOLDEN_BUILDS)]
    builds += [canonical_of_rotational(G, 0) for G in _rotational_census()]
    builds += [canonical_of_quadratic_gap(U, 0) for U in _periodic_gaps(5)]
    return [(L.d, _seeds(L), L.gaps) for L in builds]


def test_critical_portraits_are_valid():
    for d, seeds, regions in _portrait_constructions():
        portrait = _critical_portrait(d, seeds, regions)
        assert sum(len(P) - 1 for P in portrait) == d - 1
        for P in portrait:
            assert len(set(P)) == len(P) >= 2
            assert len({sigma(d, x) for x in P}) == 1
        for P, Q in combinations(portrait, 2):
            assert not any(linked(Chord(*e), Chord(*f)) for e in combinations(P, 2)
                           for f in combinations(Q, 2)), (P, Q)
        # each polygon lies in the basis of its gap, or is a critical seed
        expected = [(s.a, s.b) for s in seeds if sigma(d, s.a) == sigma(d, s.b)]
        for R in regions:
            if isinstance(R, GapGen):
                expected.append(_gap_polygon(R, seeds))
                assert all(map(R.in_basis, expected[-1]))
            elif isinstance(R, VassalGap):
                expected.append(_vassal_chord(R))
                assert all(map(R.in_basis, expected[-1]))
            elif isinstance(R, AttachedGap) and R.is_critical:
                expected.append(_attached_polygon(R))
                assert all(tracks_hole_cycle(R, x) for x in expected[-1])
        assert portrait == expected


def test_critical_values_are_off_the_leaf_endpoints():
    for d, seeds, regions in _portrait_constructions():
        L = _pullback_closure(d, seeds, _critical_portrait(d, seeds, regions), 3)
        ends = {x for c in L for x in (c.a, c.b)}
        for P in _critical_portrait(d, seeds, regions):
            assert sigma(d, P[0]) not in ends


def test_pullback_closure_rejects_a_non_critical_portrait():
    seeds = [Chord(F(1, 3), F(2, 3))]
    with pytest.raises(ValueError, match="not a critical portrait"):
        _pullback_closure(3, seeds, [(F(1, 3), F(2, 3))], 2)
    with pytest.raises(ValueError, match="not a critical portrait"):
        _pullback_closure(3, seeds, [(F(1, 3), F(2, 3)), (F(0), F(1, 2))], 2)


def test_pullback_ambiguity_names_leaf_candidates_and_portrait():
    # critical values 0 and 1/2 are the endpoints of the seed
    seeds = [Chord(F(0), F(1, 2))]
    with pytest.raises(PullbackAmbiguityError) as info:
        _pullback_closure(3, seeds, [(F(0), F(1, 3)), (F(1, 2), F(5, 6))], 2)
    assert str(info.value) == (
        "pullback of 0-1/2 admits 8 siblings where exactly 3 were expected: "
        "candidates 0-1/6, 0-1/2, 0-5/6, 1/6-1/3, 1/3-1/2, 1/3-5/6, 1/2-2/3, "
        "2/3-5/6; portrait {0,1/3} {1/2,5/6}")


@pytest.mark.parametrize("d, seeds, polygon, candidates", [
    # 1/2 is the critical value of the triangle, so the seed's preimages
    # include the triangle's vertices and its pairs are tested one by one
    (3, [Chord(F(1, 13), F(1, 2))], (F(1, 6), F(1, 2), F(5, 6)),
     "1/39-1/6, 1/39-5/6, 1/6-14/39, 14/39-1/2, 1/2-9/13, 9/13-5/6"),
    # 1/6-1/3 crosses 1/4-3/4, but it is a seed, so it is a sibling
    # candidate of 1/3-2/3 all the same
    (2, [Chord(F(1, 3), F(2, 3)), Chord(F(1, 6), F(1, 3))], (F(1, 4), F(3, 4)),
     "1/6-1/3, 1/6-5/6, 1/3-2/3"),
])
def test_pullback_vertex_and_leaf_candidates_match_region_oracle(d, seeds, polygon, candidates):
    # A finite region whose vertices are the polygon's is crossed exactly
    # when the polygon is, so the region closure counts the same candidates.
    # A leaf ending at a critical value has more than d of them.
    region = FiniteRegion(LamSet(list(polygon), degree_d=d))
    want = _closure_or_error(region_closure, d, seeds, [region], 2)
    got = _closure_or_error(_pullback_closure, d, seeds, [polygon], 2)
    assert got == f"{want}: candidates {candidates}; portrait {{{','.join(map(format_angle, polygon))}}}"


def _pullback_outcome(closure, *args):
    """N and the (pair, level) items in sorted order, or the
    PullbackAmbiguityError message."""
    try:
        leaves = closure(*args)
    except PullbackAmbiguityError as exc:
        return str(exc)
    return leaves.N, _pair_items(leaves)


def test_pullback_closure_matches_vertex_list_oracle():
    # golden recipes at depths 0-6 and the rotational census at depths 0-5
    cases = [(GOLDEN_BUILDS[name](0), range(7)) for name in sorted(GOLDEN_BUILDS)]
    cases += [(canonical_of_rotational(G, 0), range(6)) for G in _rotational_census()]
    compared = 0
    for L0, depths in cases:
        seeds = _seeds(L0)
        portrait = _critical_portrait(L0.d, seeds, L0.gaps)
        for n in depths:
            want = _pullback_outcome(oracle_pullback_closure, L0.d, seeds, portrait, n)
            assert _pullback_outcome(_pullback_closure, L0.d, seeds, portrait, n) == want, \
                (L0.recipe, n)
            compared += 1
    assert compared == 7 * 7 + 6 * len(_rotational_census())


@pytest.mark.parametrize("d, seeds, portrait", [
    # a critical value on a seed endpoint, so that seed takes the vertex path
    (3, [Chord(F(1, 13), F(1, 2))], [(F(1, 6), F(1, 2), F(5, 6))]),
    # a candidate of 1/3-2/3 that crosses the portrait but is already a
    # leaf, the seed 1/6-1/3, counts as a sibling
    (2, [Chord(F(1, 3), F(2, 3)), Chord(F(1, 6), F(1, 3))], [(F(1, 4), F(3, 4))]),
    # critical values on both endpoints of the seed
    (3, [Chord(F(0), F(1, 2))], [(F(0), F(1, 3)), (F(1, 2), F(5, 6))]),
])
def test_pullback_vertex_and_leaf_candidates_match_vertex_list_oracle(d, seeds, portrait):
    want = _pullback_outcome(oracle_pullback_closure, d, seeds, portrait, 2)
    assert isinstance(want, str)
    assert _pullback_outcome(_pullback_closure, d, seeds, portrait, 2) == want


def test_pullback_plans_tell_a_critical_value_from_its_arc():
    # The critical values are 0 and 1/2.  The seed 1/5-3/5 plans its places
    # first, the open arcs (0, 1/2) and (1/2, 1); 1/2-4/5 then starts on the
    # value 1/2 itself, whose preimages are vertices, so it needs a plan of
    # its own.  Sharing the arc's plan would find 3 siblings and go on.
    seeds = [Chord(F(1, 5), F(3, 5)), Chord(F(1, 2), F(4, 5))]
    portrait = [(F(0), F(1, 3)), (F(1, 2), F(5, 6))]
    regions = [FiniteRegion(LamSet(list(P), degree_d=3)) for P in portrait]
    want = _pullback_outcome(oracle_pullback_closure, 3, seeds, portrait, 2)
    assert want == _closure_or_error(region_closure, 3, seeds, regions, 2) + (
        ": candidates 1/6-4/15, 1/2-3/5, 1/2-14/15, 3/5-5/6, 5/6-14/15; "
        "portrait {0,1/3} {1/2,5/6}")
    assert _pullback_outcome(_pullback_closure, 3, seeds, portrait, 2) == want


# ---------------------------------------------------------------------------
# invariance checking


def test_check_invariance_flags_foreign_leaf():
    L = canonical_diameter(depth=3)
    L = Lamination(d=L.d, depth=L.depth, recipe=L.recipe,
                   leaves={**L.leaves, Chord(F(0), F(1, 4)): 0})
    rep = check_invariance(L)
    assert not rep.ok
    assert rep.linked_pairs or rep.forward_missing or rep.sibling_missing


def test_check_invariance_flags_missing_image():
    L = Lamination(d=3, depth=1, recipe="manual",
                   leaves={Chord(F(1, 26), F(3, 26)): 0})
    rep = check_invariance(L)
    assert Chord(F(1, 26), F(3, 26)) in rep.forward_missing
    assert not rep.ok


def test_check_invariance_reports_only_crossing_pairs():
    # 0-1/2 and 11/20-7/10 are disjoint, though 1/10-3/5 crosses both
    A, B, C = Chord(F(0), F(1, 2)), Chord(F(1, 10), F(3, 5)), Chord(F(11, 20), F(7, 10))
    L = Lamination(d=3, depth=0, recipe="manual", leaves={A: 0, B: 0, C: 0})
    assert check_invariance(L).linked_pairs == [(A, B), (B, C)]


def test_check_invariance_report_lines():
    rep = check_invariance(canonical_diameter(depth=3))
    text = "\n".join(rep.lines())
    assert "ok: true" in text
    assert f"leaves: {3 ** 3}" in text


def _successor_holes_ok(imgs):
    """The hole test by successor table: each step between two different
    images goes to the next image point in circle order."""
    pts = sorted(set(imgs))
    succ = dict(zip(pts, pts[1:] + pts[:1]))
    return all(u == v or succ[u] == v for u, v in zip(imgs, imgs[1:] + imgs[:1]))


@st.composite
def _cyclic_images(draw):
    """Image sequences of polygon vertices: arbitrary draws from a few
    points, with repeats and a single point among them, and walks that
    step at most one place forward and go around the m points w >= 1 times
    (w > 1 as on a critical polygon), started anywhere so that a descent
    may fall at the wrap-around, now and then with two entries swapped."""
    pool = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7, unique=True))
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(pool), min_size=3, max_size=12))
    pts = sorted(pool)
    m, w = len(pts), draw(st.integers(1, 3))
    imgs = [pts[i % m] for i in range(m * w)
            for _ in range(draw(st.integers(1, 2)))]
    k = draw(st.integers(0, len(imgs) - 1))
    imgs = imgs[k:] + imgs[:k]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(imgs) - 1)), draw(st.integers(0, len(imgs) - 1))
        imgs[i], imgs[j] = imgs[j], imgs[i]
    return imgs


@settings(max_examples=500, deadline=None)
@given(_cyclic_images())
def test_hole_criterion_matches_successor_table(imgs):
    assert _holes_map_to_holes(imgs) == _successor_holes_ok(imgs)


def test_hole_criterion_on_named_sequences():
    assert _holes_map_to_holes([5, 5, 5])  # m = 1
    assert _holes_map_to_holes([1, 2, 3, 1, 2, 3])  # around twice
    assert _holes_map_to_holes([1, 1, 2, 3])  # the descent at the wrap-around
    assert not _holes_map_to_holes([1, 3, 2])  # reversed: w = 2, r = 3
    assert not _holes_map_to_holes([1, 3, 2, 1, 2, 3])


def test_gap_violations_list_the_holes_in_vertex_order():
    # a hexagon whose vertex images go p0, p2, p1, p0, p1, p2 for
    # p = 1/9, 4/9, 7/9: its first three holes skip or reverse an image
    vs = [F(k, 27) for k in (1, 7, 13, 19, 22, 25)]
    L = Lamination(d=3, depth=0, recipe="manual",
                   leaves={Chord(vs[i], vs[(i + 1) % 6]): 0 for i in range(6)})
    assert check_invariance(L).gap_violations == [
        f"hole ({u},{v}) does not map to a hole of its image polygon"
        for u, v in [("1/27", "7/27"), ("7/27", "13/27"), ("13/27", "19/27")]]
    _assert_check_matches_union_find_oracle(L)


# ---------------------------------------------------------------------------
# differential check against a brute-force oracle


@lru_cache(maxsize=None)
def _golden_suite(depth):
    return (
        canonical_of_quadratic_gap(_gap(Chord(F(1, 3), F(2, 3))), depth=depth),
        canonical_of_quadratic_gap(_gap(PERIOD3_CRITICAL), depth=depth),
        canonical_diameter(depth=depth),
        canonical_of_rotational(FINGAP1, depth=depth),
        canonical_of_rotational(FINGAP2, depth=depth),
        canonical_of_rotational(FINGAP3, depth=depth),
    )


def _oracle_invariance(L):
    """Brute-force reading of the invariance criteria on Fraction chords:
    every pair for linkage, `image` leaf by leaf, a pairwise search for
    sibling collections, and arc containment for the holes of polygons.
    Returns (crossing found, forward_missing, sibling_missing,
    gap_violations), the lists sorted."""
    d = L.d
    leaves = sorted(L.leaves)
    # in sorted order, y cannot cross x once it starts at or past x's end
    crossing = any(linked(x, y) for i, x in enumerate(leaves)
                   for y in leaves[i + 1:] if y.a < x.b)
    images = {c: image(d, c) for c in leaves}
    preimage_leaves = {}
    for c in leaves:
        preimage_leaves.setdefault(images[c], []).append(c)
    forward_missing = [c for c in leaves
                       if not images[c].degenerate and images[c] not in L.leaves]
    sibling_missing = []
    for c in leaves:
        if images[c].degenerate or L.leaves[c] >= L.depth:
            continue
        partners = [x for x in preimage_leaves[images[c]]
                    if x != c and not linked(c, x)]
        if not any(all(not linked(x, y) for x, y in combinations(combo, 2))
                   for combo in combinations(partners, d - 1)):
            sibling_missing.append(c)

    adjacent = {}
    for c in leaves:
        adjacent.setdefault(c.a, set()).add(c.b)
        adjacent.setdefault(c.b, set()).add(c.a)
    gap_violations = []
    seen = set()
    for start in adjacent:
        if start in seen:
            continue
        cls, todo = set(), [start]
        while todo:
            v = todo.pop()
            if v not in cls:
                cls.add(v)
                todo.extend(adjacent[v])
        seen |= cls
        vs = sorted(cls)
        holes = [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
        if len(vs) < 3 or any(Chord(u, v) not in L.leaves for u, v in holes):
            continue
        img_pts = {sigma(d, v) for v in vs}
        for u, v in holes:
            arc = Arc(sigma(d, u), sigma(d, v))
            if any(contains(arc, p) for p in img_pts):
                gap_violations.append(
                    f"hole ({format_angle(u)},{format_angle(v)}) "
                    f"does not map to a hole of its image polygon")
    return crossing, forward_missing, sibling_missing, sorted(gap_violations)


def _assert_matches_oracle(L):
    rep = check_invariance(L)
    crossing, forward_missing, sibling_missing, gap_violations = _oracle_invariance(L)
    assert rep.leaf_count == len(L.leaves)
    assert rep.ok == (not (crossing or forward_missing or sibling_missing
                           or gap_violations))
    # the report lists leaves in chord order
    assert rep.forward_missing == forward_missing
    assert rep.sibling_missing == sibling_missing
    assert sorted(rep.gap_violations) == gap_violations
    assert all(linked(x, y) for x, y in rep.linked_pairs)
    assert bool(rep.linked_pairs) == crossing
    return rep


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("index", range(6))
def test_check_invariance_matches_oracle_on_golden_suite(index, depth):
    assert _assert_matches_oracle(_golden_suite(depth)[index]).ok


def _perturbed(L, rng, foreign=True):
    """L with a few leaves dropped and, if `foreign`, a few foreign leaves
    added: chords between existing endpoints, chords on fresh rational
    points, and now and then a foreign triangle.  Without foreign leaves at
    least one leaf is dropped, and the family stays laminar."""
    leaves = dict(L.leaves)
    existing = sorted(leaves)
    for c in rng.sample(existing, rng.randint(0 if foreign else 1, 3)):
        del leaves[c]
    if not foreign:
        return Lamination(d=L.d, depth=L.depth, recipe=L.recipe, leaves=leaves)
    pts = sorted({x for c in existing for x in (c.a, c.b)})
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.6:
            a, b = rng.sample(pts, 2)
        else:
            q = rng.choice([7, 8, 9, 12, 26])
            a, b = F(rng.randrange(q), q), F(rng.randrange(q), q)
        leaves[Chord(a, b)] = rng.randint(0, L.depth)
    if rng.random() < 0.3:
        q = rng.choice([8, 12, 20, 28])
        tri = sorted({F(rng.randrange(q), q) for _ in range(3)})
        for i in range(len(tri)):
            leaves[Chord(tri[i], tri[(i + 1) % len(tri)])] = 0
    return Lamination(d=L.d, depth=L.depth, recipe=L.recipe, leaves=leaves)


def test_check_invariance_matches_oracle_on_perturbations():
    bases = _golden_suite(3) + (
        quadratic_canonical(LamSet([F(1, 7), F(2, 7), F(4, 7)], degree_d=2), depth=3),)
    failures = {"linked": 0, "forward": 0, "sibling": 0, "gap": 0}
    for seed in range(84):
        rng = random.Random(seed)
        rep = _assert_matches_oracle(_perturbed(bases[seed % len(bases)], rng))
        failures["linked"] += bool(rep.linked_pairs)
        failures["forward"] += bool(rep.forward_missing)
        failures["sibling"] += bool(rep.sibling_missing)
        failures["gap"] += bool(rep.gap_violations)
    # the perturbations reach every criterion, so none is compared vacuously
    assert all(failures.values()), failures
    # dropped leaves only: the family stays laminar, and the sibling check
    # counts the leaves that share each image
    laminar = {"forward": 0, "sibling": 0}
    for seed in range(42):
        L = _perturbed(bases[seed % len(bases)], random.Random(seed), foreign=False)
        rep = _assert_matches_oracle(L)
        assert not rep.linked_pairs
        laminar["forward"] += bool(rep.forward_missing)
        laminar["sibling"] += bool(rep.sibling_missing)
    assert all(laminar.values()), laminar


@lru_cache(maxsize=None)
def _perturbation_bases(depth):
    return _golden_suite(depth) + (
        quadratic_canonical(LamSet([F(1, 7), F(2, 7), F(4, 7)], degree_d=2), depth=depth),)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 6), st.booleans())
def test_check_invariance_matches_oracle_on_drawn_perturbations(seed, depth, index, foreign):
    L = _perturbation_bases(depth)[index]
    _assert_matches_oracle(_perturbed(L, random.Random(seed), foreign))


def _assert_check_matches_union_find_oracle(L):
    """Every field of the report, its lists in order, and its lines are
    those of the union-find check in tests/check_oracle.py."""
    got, want = check_invariance(L), oracle_check_invariance(L)
    assert vars(got) == vars(want)
    assert got.lines() == want.lines()
    return got


def test_check_invariance_matches_union_find_oracle_on_constructions():
    # golden recipes at depths 0-5 and the rotational census at depth 4
    lams = [GOLDEN_BUILDS[name](n) for name in sorted(GOLDEN_BUILDS) for n in range(6)]
    lams += [canonical_of_rotational(G, 4) for G in _rotational_census()]
    for L in lams:
        assert _assert_check_matches_union_find_oracle(L).ok, (L.recipe, L.depth)


def test_check_invariance_matches_union_find_oracle_on_perturbations():
    bases = _perturbation_bases(3)
    failures = {"linked": 0, "forward": 0, "sibling": 0, "gap": 0}
    for seed in range(84):
        for foreign in (True, False):
            L = _perturbed(bases[seed % len(bases)], random.Random(seed), foreign)
            rep = _assert_check_matches_union_find_oracle(L)
            failures["linked"] += bool(rep.linked_pairs)
            failures["forward"] += bool(rep.forward_missing)
            failures["sibling"] += bool(rep.sibling_missing)
            failures["gap"] += bool(rep.gap_violations)
    assert all(failures.values()), failures


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 4), st.integers(0, 6), st.booleans())
def test_check_invariance_matches_union_find_oracle_on_drawn_perturbations(
        seed, depth, index, foreign):
    L = _perturbation_bases(depth)[index]
    if len(L.leaves) > 3:  # the generator drops up to three leaves
        L = _perturbed(L, random.Random(seed), foreign)
    _assert_check_matches_union_find_oracle(L)


@st.composite
def _leaf_families(draw):
    """Leaf families on a few points mod N: polygons that share vertices,
    with diagonals, degenerate leaves a-a and leaves that may cross them."""
    d = draw(st.sampled_from([2, 3]))
    N = d * draw(st.sampled_from([4, 6, 9, 13, 27]))
    depth = draw(st.integers(0, 3))
    pool = draw(st.lists(st.integers(0, N - 1), min_size=3, max_size=12, unique=True))
    point = st.sampled_from(pool)
    chords = []
    for _ in range(draw(st.integers(0, 4))):
        poly = sorted(draw(st.lists(point, min_size=3, max_size=6, unique=True)))
        chords += zip(poly, poly[1:] + poly[:1])
        if draw(st.booleans()):
            chords.append((poly[0], draw(st.sampled_from(poly[2:]))))
    chords += [(a, a) for a in draw(st.lists(point, max_size=3))]
    chords += draw(st.lists(st.tuples(point, point), max_size=4))
    pairs = {(min(c), max(c)): draw(st.integers(0, depth)) for c in chords}
    return Lamination(d=d, depth=depth, recipe="manual", leaves=Leaves.from_pairs(N, pairs))


@settings(max_examples=300, deadline=None)
@given(_leaf_families())
def test_check_invariance_matches_union_find_oracle_on_leaf_families(L):
    _assert_check_matches_union_find_oracle(L)


# ---------------------------------------------------------------------------
# cleaning


def test_clean_canonical_to_whole_disk():
    L = canonical_diameter(depth=4)
    rep = clean(L)
    assert rep.whole_disk
    assert rep.super_gap_count == 1
    assert len(rep.final.leaves) == 0
    assert rep.removed_per_stage[0] == 3 ** 4
    # idempotent: cleaning the cleaned lamination removes nothing
    rep2 = clean(rep.final)
    assert rep2.whole_disk and rep2.removed_per_stage == [0]


def test_clean_rejects_bare_leaf_sets():
    L = Lamination(d=3, depth=0, recipe="manual",
                   leaves={Chord(F(0), F(1, 2)): 0})
    with pytest.raises(ValueError):
        clean(L)


def test_clean_rotational_canonical():
    rep = clean(canonical_of_rotational(FINGAP3, depth=4))
    assert rep.whole_disk and rep.super_gap_count == 1


# ---------------------------------------------------------------------------
# projection


def test_project_triangle_to_quadratic_rotational_set():
    M = Lamination(d=3, depth=0, recipe="manual", leaves={
        Chord(F(1, 26), F(3, 26)): 0,
        Chord(F(3, 26), F(9, 26)): 0,
        Chord(F(9, 26), F(1, 26)): 0,
    })
    P = project_through_gap(above_diameter(), M)
    assert P.d == 2
    assert sorted(P.leaves) == [
        Chord(F(1, 7), F(2, 7)),
        Chord(F(1, 7), F(4, 7)),
        Chord(F(2, 7), F(4, 7)),
    ]


def test_project_collapses_major_fiber():
    # every leaf of the diameter lamination either leaves the basis or
    # collapses to a point, so the projection is empty
    P = project_through_gap(above_diameter(), canonical_diameter(depth=4))
    assert len(P.leaves) == 0
    assert not P.registry_complete


def test_project_rejects_crossing_leaves():
    L = canonical_of_rotational(FINGAP3, depth=3)
    with pytest.raises(ValueError):
        project_through_gap(above_diameter(), L)


# ---------------------------------------------------------------------------
# file format


@pytest.mark.parametrize("make", [
    lambda: canonical_diameter(depth=3),
    lambda: canonical_of_quadratic_gap(_gap(PERIOD3_CRITICAL), depth=3),
    lambda: canonical_of_rotational(FINGAP1, depth=3),
    lambda: quadratic_canonical(LamSet([F(1, 3), F(2, 3)], degree_d=2), depth=3),
])
def test_dumps_loads_roundtrip(make):
    L = make()
    M = loads(dumps(L))
    assert M.leaves == L.leaves
    assert list(M.leaves) == sorted(L.leaves)  # the file lists leaves in chord order
    assert M.d == L.d and M.depth == L.depth and M.recipe == L.recipe
    assert M.registry_complete == L.registry_complete
    assert dumps(M) == dumps(L)


def test_dumps_keeps_gap_lines_in_file_order():
    # the finite set is registered first; read last, it is written back last
    L = canonical_of_rotational(FINGAP3, depth=2)
    assert isinstance(L.gaps[0], FiniteRegion)
    head, gap_lines = dumps(L).split("[gaps]\n")
    specs = [ln.split(None, 1)[1] for ln in gap_lines.splitlines()]
    specs = specs[1:] + specs[:1]
    text = head + "[gaps]\n" + "".join(f"G{i} {s}\n" for i, s in enumerate(specs))
    M = loads(text)
    assert [g.serialize() for g in M.gaps] == specs
    assert dumps(M) == text


def test_write_read_roundtrip(tmp_path):
    L = canonical_of_rotational(FINGAP3, depth=3)
    path = str(tmp_path / "fingap3.lam")
    write_lamination(L, path)
    M = read_lamination(path)
    assert M.leaves == L.leaves
    assert dumps(M) == dumps(L)
    # the reloaded registry still supports cleaning
    assert clean(M).whole_disk


def test_loads_rejects_malformed():
    with pytest.raises(ValueError):
        loads("d=3 depth=1 recipe=x\nregistry=partial\n1/2 0\n")


def test_dumps_rejects_level_above_depth():
    # loads would reject the file, so dumps refuses to write it
    L = Lamination(d=3, depth=2, recipe="manual", leaves={Chord(F(1, 3), F(2, 3)): 6})
    with pytest.raises(ValueError, match=r"^leaf 1/3-2/3 has level 6, outside 0\.\.2$"):
        dumps(L)


def test_write_lamination_leaves_no_file_when_dumps_rejects(tmp_path):
    L = Lamination(d=3, depth=2, recipe="manual", leaves={Chord(F(1, 3), F(2, 3)): 6})
    path = tmp_path / "bad.lam"
    with pytest.raises(ValueError, match="has level 6"):
        write_lamination(L, str(path))
    assert not path.exists()


def _per_leaf_dumps(L, items=None):
    """The .lam writer formatting each leaf's endpoints with their own gcd,
    over the sorted ((a, b), level) items, by default those of L's store;
    the first leaf out of range raises."""
    N = L.leaves.N

    def fmt(x):
        if not x:
            return "0"
        g = gcd(x, N)
        return f"{x // g}/{N // g}"

    lines = [f"d={L.d} depth={L.depth} recipe={L.recipe}",
             f"registry={'complete' if L.registry_complete else 'partial'}",
             "[leaves]"]
    for (a, b), lvl in sorted(_pair_items(L.leaves) if items is None else items):
        if not 0 <= lvl <= L.depth:
            raise ValueError(f"leaf {fmt(a)}-{fmt(b)} has level {lvl}, "
                             f"outside 0..{L.depth}")
        lines.append(f"{fmt(a)}-{fmt(b)} {lvl}")
    return "\n".join(lines + ["[gaps]"]) + "\n"


@st.composite
def _leaf_stores(draw):
    """Laminations over a Leaves store whose N is a multiple of the needed
    denominator, so some endpoints reduce; 0 is a likely endpoint."""
    N = draw(st.sampled_from([1, 2, 3, 12, 26, 81, 242])) * draw(st.integers(1, 6))
    end = st.one_of(st.just(0), st.integers(0, N - 1))
    depth = draw(st.integers(0, 6))
    levels = st.integers(0, depth) if draw(st.booleans()) else st.integers(-2, depth + 2)
    pairs = draw(st.dictionaries(st.tuples(end, end).map(sorted).map(tuple), levels,
                                 max_size=25))
    return Lamination(d=draw(st.sampled_from([2, 3])), depth=depth, recipe="random",
                      leaves=Leaves.from_pairs(N, pairs), registry_complete=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(_leaf_stores())
def test_dumps_matches_per_leaf_formatter(L):
    try:
        want = _per_leaf_dumps(L)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            dumps(L)
        assert str(info.value) == str(exc)
    else:
        assert dumps(L) == want


# ---------------------------------------------------------------------------
# exact crossing count


def _brute_force_crossings(L):
    leaves = list(L.leaves)
    return sum(linked(x, y) for x, y in combinations(leaves, 2))


def test_linked_count_is_exact_where_the_examples_stop():
    # the example scan finds only 0-1/2 x 1/10-3/5; 0-1/2 also crosses 1/5-11/20
    A, B, C = Chord(F(0), F(1, 2)), Chord(F(1, 10), F(3, 5)), Chord(F(1, 5), F(11, 20))
    rep = check_invariance(Lamination(d=3, depth=0, recipe="manual",
                                      leaves={A: 0, B: 0, C: 0}))
    assert rep.linked_pairs == [(A, B)]
    assert rep.linked_count == 2
    assert "linked_pairs: 2" in rep.lines()


def test_linked_count_matches_brute_force_on_perturbations():
    bases = _golden_suite(3) + (
        quadratic_canonical(LamSet([F(1, 7), F(2, 7), F(4, 7)], degree_d=2), depth=3),)
    crossing = 0
    for seed in range(84):
        L = _perturbed(bases[seed % len(bases)], random.Random(seed))
        want = _brute_force_crossings(L)
        assert check_invariance(L).linked_count == want
        crossing += want > 0
    assert crossing


def test_count_crossings_matches_brute_force_on_random_families():
    rng = random.Random(7)
    for _ in range(200):
        pts = rng.sample(range(40), rng.randint(2, 20))
        chords = {tuple(sorted(rng.sample(pts, 2))) for _ in range(rng.randint(1, 30))}
        chords |= {(p, p) for p in rng.sample(pts, 2)}  # degenerate leaves
        want = sum(x[0] < y[0] < x[1] < y[1] or y[0] < x[0] < y[1] < x[1]
                   for x, y in combinations(chords, 2))
        assert _count_crossings(sorted(a * 40 + b for a, b in chords), 40) == want


# ---------------------------------------------------------------------------
# the integer leaf store


def test_leaves_view_reads_the_store():
    L = canonical_diameter(depth=3)
    store = L.leaves
    assert isinstance(store, Leaves) and len(store) == len(list(store.pairs())) == 27
    c = Chord(F(1, 6), F(1, 3))
    assert c in store and store[c] == 1
    assert Chord(F(0), F(1, 4)) not in store and "0-1/2" not in store
    with pytest.raises(KeyError):
        store[Chord(F(0), F(1, 4))]
    # the view is read-only: N is fixed when the store is built
    before = (store.N, list(store.items()))
    with pytest.raises(TypeError):
        store[Chord(F(0), F(1, 4))] = 0
    with pytest.raises(TypeError):
        del store[c]
    assert (store.N, list(store.items())) == before


def test_leaves_equality_across_denominators():
    L = canonical_of_rotational(FINGAP3, depth=2)
    M = Lamination(d=3, depth=2, recipe="copy", leaves=dict(L.leaves))
    assert M.leaves.N != L.leaves.N  # the build's N also covers its regions
    assert M.leaves == L.leaves and L.leaves == dict(L.leaves)
    first = next(iter(L.leaves))
    M = Lamination(d=3, depth=2, recipe="copy", leaves={**L.leaves, first: 5})
    assert M.leaves.N != L.leaves.N and M.leaves != L.leaves
    K = canonical_of_rotational(FINGAP3, depth=2)
    assert K.leaves.N == L.leaves.N and K.leaves == L.leaves
    key = next(K.leaves.pairs())
    assert Leaves.from_pairs(K.leaves.N, {**dict(_pair_items(K.leaves)), key: 5}) != L.leaves


@st.composite
def _pair_dicts(draw):
    """N and a dict from endpoint pairs (a, b), 0 <= a <= b < N, to levels,
    in the order drawn."""
    N = draw(st.integers(1, 300))
    end = st.one_of(st.just(0), st.integers(0, N - 1))
    pairs = draw(st.dictionaries(st.tuples(end, end).map(sorted).map(tuple),
                                 st.integers(0, 3), max_size=30))
    return N, pairs


@settings(max_examples=200, deadline=None)
@given(_pair_dicts(), st.integers(2, 4))
def test_packed_store_matches_tuple_keyed_reference(drawn, scale):
    N, pairs = drawn
    store = Leaves.from_pairs(N, pairs)
    chord = {pair: Chord(F(pair[0], N), F(pair[1], N)) for pair in pairs}
    assert len(store) == len(pairs)
    for pair, lvl in pairs.items():
        assert chord[pair] in store and store[chord[pair]] == lvl
    for a in range(min(N, 12)):
        if (a, N - 1) not in pairs:
            assert Chord(F(a, N), F(N - 1, N)) not in store
    # sorted order, decoded
    assert list(store.pairs()) == sorted(pairs)
    assert list(store.values()) == [pairs[p] for p in sorted(pairs)]
    assert list(store) == [chord[p] for p in sorted(pairs)]
    assert list(store.items()) == [(chord[p], pairs[p]) for p in sorted(pairs)]
    # equality over N * scale, and over two N neither of which divides the other
    wider = Leaves.from_pairs(N * scale, {(a * scale, b * scale): lvl
                                          for (a, b), lvl in pairs.items()})
    other = Leaves.from_pairs(N * (scale + 1), {(a * (scale + 1), b * (scale + 1)): lvl
                                                for (a, b), lvl in pairs.items()})
    assert store == wider and wider == store and wider == other
    if pairs:
        first = next(iter(pairs))
        assert Leaves.from_pairs(N * scale, {(a * scale, b * scale): lvl + (p == first)
                                             for p, lvl in pairs.items()
                                             for a, b in [p]}) != store
    # the written text, and the text read back
    L = Lamination(d=3, depth=3, recipe="random", leaves=store)
    text = dumps(L)
    assert text == _per_leaf_dumps(L, pairs.items())
    assert loads(text).leaves == store


def test_from_pairs_rejects_pairs_that_pack_to_another_leaf():
    # (0, 4) and (1, 0) would both pack to 4 over N = 4
    for pair in [(0, 4), (2, 1), (-1, 2)]:
        with pytest.raises(ValueError, match="is not 0 <= a <= b < N"):
            Leaves.from_pairs(4, {pair: 0})
    store = Leaves.from_pairs(4, {(3, 3): 1, (0, 3): 0})
    assert list(zip(store.packed, store.levels)) == [(3, 0), (15, 1)]
    # a pair dict handed to the constructor fails at once, not at a later lookup
    with pytest.raises(TypeError):
        Leaves(4, {(0, 3): 0})


def test_build_check_and_dumps_build_few_chords(monkeypatch):
    built = [0]
    init = Chord.__init__

    def counting_init(self, a, b):
        built[0] += 1
        init(self, a, b)

    monkeypatch.setattr(Chord, "__init__", counting_init)
    L = canonical_of_rotational(FINGAP1, depth=6)
    assert check_invariance(L).ok
    dumps(L)
    assert len(L.leaves) == 4374
    # region set-up and seeds only: no Chord per leaf in any of these layers
    assert built[0] < len(L.leaves) // 20


def test_leaves_iterate_in_sorted_order():
    chords = [Chord(F(1, 2), F(3, 4)), Chord(F(0), F(1, 3)), Chord(F(1, 5), F(1, 4))]
    L = Lamination(d=3, depth=0, recipe="manual", leaves=dict.fromkeys(chords, 0))
    assert list(L.leaves) == sorted(chords)
    assert list(loads(dumps(L)).leaves) == sorted(chords)


@st.composite
def _wide_pair_dicts(draw):
    """N, at times with N * N > 2**63, and a dict from endpoint pairs (a, b),
    0 <= a <= b < N, to levels below 0 and above 255, at times past 64 bits."""
    N = draw(st.one_of(st.integers(1, 300), st.integers(2 ** 32, 2 ** 40)))
    end = st.one_of(st.just(0), st.just(N - 1), st.integers(0, N - 1))
    level = st.one_of(st.integers(-300, 300), st.integers(-2 ** 70, 2 ** 70))
    pairs = draw(st.dictionaries(st.tuples(end, end).map(sorted).map(tuple),
                                 level, max_size=30))
    return N, pairs


@settings(max_examples=200, deadline=None)
@given(_wide_pair_dicts(), st.lists(st.tuples(st.integers(0, 10 ** 13),
                                              st.integers(0, 10 ** 13)), max_size=8))
def test_sorted_store_matches_dict_reference(drawn, probes):
    N, pairs = drawn
    store = Leaves.from_pairs(N, pairs)
    ref = sorted(pairs.items())

    def chord(a, b):
        return Chord(F(a, N), F(b, N))

    assert len(store) == len(ref)
    assert list(store.pairs()) == [p for p, _ in ref]
    assert list(store.values()) == [lvl for _, lvl in ref]
    assert list(store.items()) == [(chord(*p), lvl) for p, lvl in ref]
    # a key past 64 bits keeps the store in lists
    assert isinstance(store.packed, array) == all(a * N + b < 2 ** 63 for a, b in pairs)
    for (a, b), lvl in ref:
        assert chord(a, b) in store and store[chord(a, b)] == lvl
    for a, b in probes:
        a, b = sorted((a % N, b % N))
        absent = [chord(a, b)] if (a, b) not in pairs else []
        # an endpoint that is no multiple of 1/N: 2a + 1 is odd
        absent += [Chord(F(2 * a + 1, 2 * N), F(b, N)), (a, b)]
        for c in absent:
            assert c not in store
            with pytest.raises(KeyError):
                store[c]
    # the same leaves over 2N and 3N, neither of which divides the other
    wider, other = (Leaves.from_pairs(N * k, {(a * k, b * k): lvl
                                              for (a, b), lvl in pairs.items()})
                    for k in (2, 3))
    assert store == wider and wider == other and other == store
    for (a, b), lvl in ref[:1]:
        changed = Leaves.from_pairs(N * 2, {**{(x * 2, y * 2): v for (x, y), v in ref},
                                            (a * 2, b * 2): lvl + 1})
        assert changed != store and other != changed


def test_store_holds_about_16_bytes_per_leaf():
    leaves = canonical_of_rotational(FINGAP1, depth=6).leaves
    assert len(leaves) == 4374
    size = sys.getsizeof(leaves.packed) + sys.getsizeof(leaves.levels)
    assert size <= 17 * len(leaves) + 256


def test_loads_keeps_the_last_level_of_a_duplicate_leaf():
    for first, last in [(2, 1), (1, 2)]:
        L = loads(f"d=3 depth=2 recipe=x\n[leaves]\n1/3-2/3 {first}\n0-1/2 0\n"
                  f"1/3-2/3 {last}\n[gaps]\n")
        assert list(L.leaves.items()) == [(Chord(F(0), F(1, 2)), 0),
                                          (Chord(F(1, 3), F(2, 3)), last)]


_denominators = st.sampled_from([1, 2, 3, 4, 6, 7, 8, 9, 12, 26, 27, 80, 81, 242])


@st.composite
def _laminations(draw):
    chords = draw(st.lists(
        st.builds(lambda p, q, r, s: Chord(F(p, q), F(r, s)),
                  st.integers(0, 300), _denominators, st.integers(0, 300), _denominators),
        max_size=25))
    depth = draw(st.integers(0, 6))  # a .lam file holds levels 0..depth only
    levels = draw(st.lists(st.integers(0, depth), min_size=len(chords), max_size=len(chords)))
    d = draw(st.sampled_from([2, 3]))
    return Lamination(d=d, depth=depth, recipe="random",
                      leaves=dict(zip(chords, levels)),
                      registry_complete=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(_laminations())
def test_dumps_loads_roundtrip_on_random_laminations(L):
    text = dumps(L)
    M = loads(text)
    assert M.leaves == L.leaves
    assert list(M.leaves.items()) == sorted(L.leaves.items())
    assert dumps(M) == text
    assert (M.d, M.depth, M.recipe, M.registry_complete) == \
        (L.d, L.depth, L.recipe, L.registry_complete)


_angle_text = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 10 ** 6), st.integers(0, 5000)),
    st.builds(str, st.integers(0, 50)),
    st.text(st.sampled_from("0123456789/+-._eE x٣²"), max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(_angle_text, _angle_text)
def test_integer_angle_parser_matches_parse_chord(ta, tb):
    text = f"{ta}-{tb}"
    try:
        want = parse_chord(text)
    except ValueError:
        want = None
    for t in (ta, tb):
        try:
            x = parse_angle(t)
        except ValueError:
            with pytest.raises(ValueError):
                _angle_parts(t)
        else:
            assert F(*_angle_parts(t)) == x
    if any(ch.isspace() for ch in text):
        return  # a .lam line splits at whitespace
    lam_text = f"d=3 depth=0 recipe=x\n[leaves]\n{text} 0\n[gaps]\n"
    if want is None:
        with pytest.raises(LamFormatError, match="^line 3: "):
            loads(lam_text)
    else:
        assert list(loads(lam_text).leaves.items()) == [(want, 0)]


def _read_with(reader, text):
    """What `reader` makes of text: the lamination's fields, its leaf store
    in sorted order and its serialized gaps, or the error it raised."""
    try:
        L = reader(text)
    except Exception as exc:  # the two readers must fail alike
        return type(exc).__name__, str(exc)
    return (L.d, L.depth, L.recipe, L.registry_complete, L.leaves.N,
            _pair_items(L.leaves), [g.serialize() for g in L.gaps])


_GAP_LINES = {
    3: [f"G{i} {g}" for i, g in enumerate([
        "kind=finite degree=3 vertices=7/26,11/26,21/26",
        "kind=attached degree=3 set=7/26,11/26,21/26 index=1",
        "kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=3 critical=41/156-145/156",
        "kind=vassal-image power=2 major=7/26-12/13 hole=12/13,7/26 period=3 "
        "critical=10/39-73/78",
        "kind=regular-critical major=1/3-2/3 hole=1/3,2/3 period=- critical=1/3-2/3",
        "kind=below-diameter major=0-1/2 hole=0,1/2 period=1 critical=1/12-5/12",
    ])],
    2: ["G0 kind=finite degree=2 vertices=1/7,2/7,4/7",
        "G1 kind=attached degree=2 set=1/7,2/7,4/7 index=2"],
}
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@st.composite
def _lam_texts(draw):
    """Well-formed .lam text in the spellings that loads accepts: unreduced
    p/q, p >= q, bare integers, decimals, blank lines, tabs, trailing
    fields, duplicate leaves, omitted levels, and at times no leaves."""
    d, depth = draw(st.sampled_from([2, 3])), draw(st.integers(0, 4))
    angle = st.one_of(
        st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 100),
                  st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18, 26, 27, 52])),
        st.builds(str, st.integers(0, 5)),
        st.sampled_from(["0.25", "0.5", "0.125", "1.75", "0.0", "2.5"]))
    rows = draw(st.lists(st.tuples(angle, angle, st.none() | st.integers(0, depth)),
                         max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    leaf_lines = []
    for ta, tb, level in rows:
        line = f"{ta}-{tb}"
        if level is not None:
            line += draw(st.sampled_from([" ", "\t", "  "])) + str(level)
            line += draw(st.sampled_from(["", " extra", "\tx y"]))
        leaf_lines.append(draw(_BLANK) + line + draw(_BLANK))
    lines = [f"d={d} depth={depth} recipe={draw(st.sampled_from(['x', 'file', 'manual']))}"]
    lines += draw(st.sampled_from([[], ["registry=complete"], ["registry=partial"]]))
    lines += ["[leaves]", *leaf_lines]
    if draw(st.booleans()):
        lines += ["[gaps]", *draw(st.lists(st.sampled_from(_GAP_LINES[d]), max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(_lam_texts())
def test_loads_matches_one_pass_oracle_on_well_formed_texts(text):
    got = _read_with(loads, text)
    assert got == _read_with(oracle_loads, text)
    assert len(got) == 7, got  # a lamination, not an error


@settings(max_examples=300, deadline=None)
@given(_mutated_lam())
def test_loads_matches_one_pass_oracle_on_mutated_texts(text):
    assert _read_with(loads, text) == _read_with(oracle_loads, text)


# what `dumps` writes, so that it is read in bulk
_TWO_LEAVES = "d=3 depth=1 recipe=x\nregistry=partial\n[leaves]\n1/4-1/2 1\n1/3-2/3 0\n[gaps]\n"


_CANONICAL_EDITS = ["level above depth", "q of 0", "unreduced", "p >= q", "reversed",
                    "duplicate", "out of order", "point leaf", "non-ASCII digit", "CRLF",
                    "no [gaps]", "bad gap line", "blank line", "no trailing newline"]


@st.composite
def _canonical_texts(draw):
    """`dumps` output of a drawn lamination, at times with registered gap
    lines, and with 0-2 edits that keep it looking canonical: most of them
    leave the bulk path's spelling, a few only its order or reduction."""
    L = draw(_laminations())
    lines = dumps(L).split("\n")  # ends in "", for the final newline
    gap_lines = draw(st.lists(st.sampled_from(_GAP_LINES[L.d]), max_size=2))
    lines[-1:] = gap_lines + [""]
    trailing_newline = True
    edits = draw(st.lists(st.sampled_from(_CANONICAL_EDITS), max_size=2))
    for kind in sorted(edits, key=_CANONICAL_EDITS.index):  # leaf lines first
        gaps_at = lines.index("[gaps]") if "[gaps]" in lines else len(lines) - 1
        if kind == "no trailing newline":
            trailing_newline = False
            continue
        if kind == "no [gaps]":
            lines[gaps_at:] = [""]
            continue
        if kind == "bad gap line":
            lines.insert(len(lines) - 1, "G9 kind=x")
            continue
        if kind == "blank line":
            lines.insert(draw(st.integers(0, len(lines) - 1)), "")
            continue
        if gaps_at == 3:  # no leaves: edit a new one
            lines.insert(3, "1/3-2/3 0")
            gaps_at += 1
        i = draw(st.integers(3, gaps_at - 1))
        chord, level = lines[i].split(" ", 1)
        ends = chord.split("-", 1)
        ta, tb = ends
        e = draw(st.integers(0, 1))  # the end an angle edit changes
        p, _, q = ends[e].partition("/")
        plain = (p + q).isascii() and p.isdigit() and (q == "" or q.isdigit())
        k = draw(st.integers(1, 3))
        if kind == "level above depth":
            lines[i] = f"{chord} {L.depth + k}"
        elif kind in ("q of 0", "unreduced", "p >= q") and plain:
            ends[e] = {"q of 0": f"{k}/0",
                       "unreduced": f"{int(p) * (k + 1)}/{int(q or 1) * (k + 1)}",
                       "p >= q": f"{int(p) + int(q or 1) * k}/{q or 1}"}[kind]
            lines[i] = f"{ends[0]}-{ends[1]} {level}"
        elif kind == "reversed":
            lines[i] = f"{tb}-{ta} {level}"
        elif kind == "duplicate":
            lines.insert(draw(st.integers(3, gaps_at)), f"{chord} {draw(st.integers(0, L.depth))}")
        elif kind == "out of order":
            j = draw(st.integers(3, gaps_at - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "point leaf":
            lines[i] = f"{ta}-{ta} {level}"
        elif kind == "non-ASCII digit":
            digit = draw(st.sampled_from(sorted(set(filter(str.isdigit, lines[i])))))
            lines[i] = lines[i].replace(digit, draw(st.sampled_from("٣²３")), 1)
        elif kind == "CRLF":
            lines[i] += "\r"
    text = "\n".join(lines)
    return text if trailing_newline else text.rstrip("\n")


@settings(max_examples=300, deadline=None)
@given(_canonical_texts())
@example(_TWO_LEAVES.replace("2/3 0", "5/3 0"))  # p >= q at the second end
@example(_TWO_LEAVES.replace("1/2 1", "2/4 1"))  # unreduced at the second end
@example(_TWO_LEAVES.replace("1/4-1/2", "1/2-1/4"))
@example(_TWO_LEAVES.replace("1/2 1", "1/2 01"))  # a level with a leading zero
@example(_TWO_LEAVES.replace("1/3-2/3", "1/3-0"))  # the angle 0 at a second end
def test_loads_matches_one_pass_oracle_on_canonical_texts(text):
    assert _read_with(loads, text) == _read_with(oracle_loads, text)


@pytest.mark.parametrize("leaves", ["", "1/4-1/2 7\n1/3-2/3 0\n"], ids=["no-leaves", "bulk"])
def test_loads_takes_no_memory_from_the_header_depth(leaves):
    # a subprocess with a timeout and 1 GiB of address space: the depth in
    # the header only bounds the levels, so reading a file with depth 10**12
    # takes no time or memory that grows with it
    text = f"d=3 depth=1000000000000 recipe=x\nregistry=partial\n[leaves]\n{leaves}[gaps]\n"
    proc = subprocess.run(
        [sys.executable, "-c", "import resource, sys; "
         "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
         "from trilam.lamination import dumps, loads; "
         "text = sys.stdin.read(); assert dumps(loads(text)) == text"],
        input=text, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_loads_reads_dumps_output_in_bulk(monkeypatch):
    # the line-by-line reader reads every angle with _angle_parts; the bulk
    # path reads none, yet gives the same lamination, gaps included
    text = dumps(canonical_of_rotational(FINGAP1, depth=3))
    zero_text = dumps(canonical_diameter(depth=3))  # a leaf 0-1/2: the angle 0 has no "/q"
    assert "[gaps]\nG0 kind=finite" in text and "\n0-1/2 0\n" in zero_text
    wants = [_read_with(oracle_loads, t) for t in (text, zero_text)]

    def no_angle_parts(t):
        raise AssertionError(f"{t!r} read line by line")

    monkeypatch.setattr("trilam.lamination._angle_parts", no_angle_parts)
    for t, want in zip((text, zero_text), wants):
        assert _read_with(loads, t) == want
        assert dumps(loads(t)) == t
    # other spellings still go line by line
    for other in (text.replace("\n", "\r\n"), text.replace("\n7/26-", "\n 7/26-")):
        with pytest.raises(AssertionError, match="read line by line"):
            loads(other)


_BAD_GAP = ("[gaps]\n", "[gaps]\n\nG0 kind=bogus\n")
_TOO_LONG = ("line 5: Exceeds the limit (4300 digits) for integer string conversion: "
             "value has 5001 digits; use sys.set_int_max_str_digits() to increase the limit")


@pytest.mark.parametrize("edits, message", [
    ([("1/2 1", "1/2 2")], "line 4: level 2 is outside 0..1"),
    ([("1/2 1", "1/2 10")], "line 4: level 10 is outside 0..1"),
    ([("1/3-", "1/0-")], "line 5: bad angle syntax: '1/0'"),
    ([("1/3-", "1/3" + "0" * 5000 + "-")], _TOO_LONG),
    ([("1/3-", "1" + "0" * 5000 + "/3-")], _TOO_LONG),
    # a canonical block, read in bulk, then a faulty gap line: its number
    # counts the blank lines and other line breaks above it
    ([_BAD_GAP], "line 8: unknown gap kind 'bogus'"),
    ([_BAD_GAP, ("d=3", "\r\n\x0c\nd=3")], "line 11: unknown gap kind 'bogus'"),
    ([_BAD_GAP, ("registry=partial", "\r\n\nregistry=partial")],
     "line 10: unknown gap kind 'bogus'"),
    ([("[gaps]\n", "[gaps]\n\x85G0 kind=finite\n")], "line 8: missing field vertices="),
])
def test_loads_reports_canonical_looking_faults_by_line(edits, message):
    text = _TWO_LEAVES
    for old, new in edits:
        text = text.replace(old, new)
    with pytest.raises(LamFormatError) as info:
        loads(text)
    assert str(info.value) == message
    assert _read_with(oracle_loads, text) == ("LamFormatError", message)
