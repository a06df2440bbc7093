import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction as F
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from trilam.chords import Chord, image, linked
from trilam.circle import (
    Arc,
    _set_period,
    arc_length,
    contains,
    fixed_points,
    orbit,
    sigma,
)
from trilam.lamination import (
    ImageGap, _parse_region, _vassal_chord, canonical_diameter, canonical_of_quadratic_gap,
    project_through_gap,
)
from trilam import quadgap
from trilam.quadgap import (
    GapGen,
    LeafBudgetError,
    VassalGap,
    _POINT_BUDGET,
    above_diameter,
    below_diameter,
    build_gap,
    caterpillar_head,
    classify_critical,
    psi,
    vassal,
)

from quadgap_oracle import _leaf_period, _nearest_fixed, _short_side, big_arc

# the two invariant quadratic gaps split by the diameter 0-1/2
FGB = below_diameter()          # basis in [1/2, 1], hole (0, 1/2)
FGA = above_diameter()          # basis in [0, 1/2], hole (1/2, 0)

PERIOD3_CRITICAL = Chord(F(145, 156), F(41, 156))


def test_big_arc():
    assert big_arc(Chord(F(0), F(1, 3))) == Arc(F(1, 3), F(0))
    assert arc_length(big_arc(Chord(F(1, 12), F(5, 12)))) == F(2, 3)


def test_classify_regular_critical_fixed_image():
    cls = classify_critical(Chord(F(1, 3), F(2, 3)))
    assert cls.tag == "RegularCritical"
    assert cls.major == Chord(F(1, 3), F(2, 3))
    assert cls.image_in_pi


def test_classify_regular_critical_cycle_image():
    cls = classify_critical(Chord(F(7, 39), F(20, 39)))
    assert cls.tag == "RegularCritical"
    assert cls.image_in_pi


def test_classify_periodic_type_diameter():
    cls = classify_critical(Chord(F(1, 12), F(5, 12)))
    assert cls.tag == "PeriodicType"
    assert cls.n_c == 1
    assert cls.major == Chord(F(0), F(1, 2))
    assert not cls.image_in_pi


def test_classify_periodic_type_period3():
    cls = classify_critical(PERIOD3_CRITICAL)
    assert cls.tag == "PeriodicType"
    assert cls.n_c == 3
    assert cls.major == Chord(F(7, 26), F(12, 13))


def test_classify_caterpillar():
    cls = classify_critical(Chord(F(0), F(1, 3)))
    assert cls.tag == "Caterpillar"
    assert cls.periodic_endpoint == F(0)
    assert cls.major == Chord(F(0), F(1, 2))
    assert cls.image_in_pi


@pytest.mark.parametrize("c, head, y, k, direction", [
    (Chord(F(0), F(1, 3)), Chord(F(0), F(1, 2)), F(0), 1, +1),
    # 1/4 -> 3/4 -> 1/4; the chain from 7/12 accumulates on 5/8
    (Chord(F(1, 4), F(7, 12)), Chord(F(1, 4), F(5, 8)), F(1, 4), 2, +1),
    # the head is the period-3 major 7/26-12/13
    (Chord(F(12, 13), F(10, 39)), Chord(F(7, 26), F(12, 13)), F(12, 13), 3, +1),
], ids=["0-1/3", "1/4-7/12", "12/13-10/39"])
def test_caterpillar_head(c, head, y, k, direction):
    assert caterpillar_head(c) == (head, y, k, direction)
    cls = classify_critical(c)
    assert (cls.tag, cls.major, cls.major_period, cls.periodic_endpoint) == \
        ("Caterpillar", head, k, y)


def test_classify_rejects_non_critical():
    with pytest.raises(ValueError):
        classify_critical(Chord(F(0), F(1, 2)))


def _scan_nearest_fixed(point, n, direction):
    """Oracle: scan every sigma_3^n-fixed point for the nearest one past
    `point` in the given direction, skipping `point` itself."""
    best = best_dist = None
    for f in fixed_points(3, n):
        dist = ((f - point) * direction) % 1
        if dist and (best_dist is None or dist < best_dist):
            best, best_dist = f, dist
    return best


@pytest.mark.parametrize("n", range(1, 7))
def test_nearest_fixed_matches_scan(n):
    q = 3 ** n - 1
    rng = random.Random(n)
    # every fixed point excludes itself; the scan costs O(q) per point, so
    # at n = 6 a seeded sample of them stands in for all 728
    fixed = range(q) if n <= 5 else sorted({0, 1, q - 1, *rng.sample(range(q), 30)})
    points = [F(j, q) for j in fixed]
    points += [F(rng.randrange(10 ** 6), rng.randrange(1, 10 ** 6)) % 1 for _ in range(20)]
    points += [F(rng.randrange(3 * q), 3 * q) for _ in range(10)]
    for x in points:
        for direction in (+1, -1):
            assert _nearest_fixed(x, n, direction) == _scan_nearest_fixed(x, n, direction), \
                (x, n, direction)


def _bounded_leaf_period(c, bound):
    cur = c
    for n in range(1, bound + 1):
        cur = image(3, cur)
        if cur == c:
            return n
    return None


def test_leaf_period_of_census_majors():
    majors = 0
    for k in range(1, 7):
        h = F(3 ** (k - 1), 3 ** k - 1)
        for u in fixed_points(3, k):
            M = Chord(u, (u + h) % 1)
            if _bounded_leaf_period(M, k) == k:
                majors += 1
                assert _leaf_period(M) == k
    assert majors > 100
    assert _leaf_period(Chord(F(1, 9), F(4, 9))) is None  # 1/9 -> 1/3 -> 0
    assert _leaf_period(Chord(F(0), F(1, 3))) is None  # one periodic endpoint
    # period-2 endpoints that swap: the leaf period is below their lcm
    assert _leaf_period(Chord(F(1, 4), F(3, 4))) == 1


@pytest.mark.parametrize("den", [4, 7, 8, 9, 10, 13])
def test_leaf_period_matches_bounded_iteration(den):
    for i in range(den):
        for j in range(i, den):
            c = Chord(F(i, den), F(j, den))
            want = _bounded_leaf_period(c, 2 * den ** 2)
            assert _leaf_period(c) == want, c
            # the set period of the endpoints, unreduced over den, with and
            # without a bound
            assert _set_period(3, den, (i, j)) == want, c
            for bound in (1, 2, 3, 5):
                assert _set_period(3, den, (i, j), bound) == _bounded_leaf_period(c, bound)


# ---------------------------------------------------------------------------
# invariant quadratic gaps


def test_diameter_gaps():
    assert FGB.major == Chord(F(0), F(1, 2))
    assert FGB.hole == Arc(F(0), F(1, 2))
    assert FGB.period == 1
    assert FGA.hole == Arc(F(1, 2), F(0))
    assert FGB.kind == "below-diameter" and FGA.kind == "above-diameter"


def test_periodic_hole_length_formula():
    # |H(M)| = 3^(k-1) / (3^k - 1) for a period-k major
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    assert gap.hole == Arc(F(12, 13), F(7, 26))
    assert gap.hole_length == F(9, 26) == F(3 ** 2, 3 ** 3 - 1)
    assert FGB.hole_length == F(1, 2) == F(3 ** 0, 3 ** 1 - 1)


def test_base_edges_of_period3_gap():
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    edges = gap.base_edges()
    assert len(edges) == 3
    assert edges[0][0] == gap.major
    # the hole behind the first image has length 3h - 1, then triples
    lengths = [arc_length(h) for _, h in edges]
    assert lengths == [F(9, 26), F(1, 26), F(3, 26)]
    for e, h in edges:
        assert e == Chord(h.start, h.end)


def test_edges_iterate_to_major():
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    base = {e for e, _ in gap.base_edges()}
    for e, _ in gap.edge_holes(4):
        cur = e
        for _ in range(20):
            if cur in base:
                break
            cur = image(3, cur)
        assert cur in base


def test_fgb_edges_to_depth_two():
    assert set(FGB.edge_chords(2)) == {
        Chord(F(0), F(1, 2)),
        Chord(F(2, 3), F(5, 6)),
        Chord(F(5, 9), F(11, 18)),
        Chord(F(8, 9), F(17, 18)),
    }


def test_point_budget_holds_the_closed_form_counts(monkeypatch):
    # the scan is the j/(3^p - 1), p <= depth; a vassal returns 2^(depth + 1)
    # points.  The budget admits build-gap at depth 12 and vassal at 19.
    assert (3 ** 13 - 3) // 2 - 12 <= _POINT_BUDGET < (3 ** 14 - 3) // 2 - 13
    assert 2 ** 20 <= _POINT_BUDGET < 2 ** 21
    U = build_gap(PERIOD3_CRITICAL, depth=0)[0]
    V = vassal(U)
    with pytest.raises(LeafBudgetError, match="^depth 13 may scan up to 2391470 points"):
        U.vertices(13)
    with pytest.raises(LeafBudgetError, match="^depth 20 may return up to 2097152 points"):
        V.vertices(20)
    # at a budget of exactly the count at depth 3, depth 3 runs and 4 does not
    monkeypatch.setattr(quadgap, "_POINT_BUDGET", 2 + 8 + 26)
    U.vertices(3)
    with pytest.raises(LeafBudgetError, match="^depth 4 may scan up to 116 points, "
                                              "over the point budget of 36$"):
        U.vertices(4)
    monkeypatch.setattr(quadgap, "_POINT_BUDGET", 16)
    assert len(V.vertices(3)) == 16
    with pytest.raises(LeafBudgetError, match="^depth 4 may return up to 32 points, "
                                              "over the point budget of 16$"):
        V.vertices(4)


def test_fgb_vertices_to_depth_three():
    expected = [
        F(0), F(1, 2), F(14, 27), F(29, 54), F(7, 13), F(5, 9), F(11, 18),
        F(8, 13), F(5, 8), F(17, 27), F(35, 54), F(17, 26), F(2, 3),
        F(5, 6), F(11, 13), F(23, 27), F(47, 54), F(7, 8), F(23, 26),
        F(8, 9), F(17, 18), F(25, 26), F(26, 27), F(53, 54),
    ]
    assert FGB.vertices(3) == expected


def test_vertices_lie_in_basis():
    for x in FGB.vertices(3):
        assert FGB.in_basis(x)
    gap, verts = build_gap(PERIOD3_CRITICAL, depth=3)
    for x in verts:
        assert gap.in_basis(x)
    assert not FGB.in_basis(F(1, 4))


@settings(max_examples=60)
@given(st.fractions(min_value=0, max_value=1, max_denominator=728).map(lambda x: x % 1))
def test_in_basis_is_forward_invariant(x):
    if FGB.in_basis(x):
        assert FGB.in_basis(sigma(3, x))
        assert all(not contains(FGB.hole, p) for p in orbit(3, x))


def test_build_gap_rejects_caterpillar():
    with pytest.raises(ValueError):
        build_gap(Chord(F(0), F(1, 3)))


def test_gapgen_serialize_roundtrip():
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    for g in (gap, FGB, FGA):
        assert _parse_region(g.serialize(), 3) == GapGen(
            kind=g.kind, hole=g.hole, period=g.period, critical=g.critical,
        )


# ---------------------------------------------------------------------------
# vassal gaps


def test_vassal_of_fgb_is_fga():
    V = vassal(FGB)
    assert V.arcs == (Arc(F(0), F(1, 6)), Arc(F(1, 3), F(1, 2)))
    assert V.co_major == Chord(F(1, 6), F(1, 3))
    # the vassal of the below gap occupies the above gap's basis
    for x in V.vertices(3):
        assert FGA.in_basis(x)


def test_vassal_of_period3_gap():
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    V = vassal(gap)
    assert V.arcs == (Arc(F(12, 13), F(73, 78)), Arc(F(10, 39), F(7, 26)))
    # the co-major is not critical, but shares its image with the major
    assert image(3, V.co_major) == image(3, V.major)
    assert image(3, V.co_major) == Chord(F(21, 26), F(10, 13))


def test_vassal_horseshoe_containment():
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    V = vassal(gap)
    a0, a1 = V.arcs
    for x in V.vertices(3):
        assert V.in_basis(x)
        assert any(
            contains(arc, x) or x in (arc.start, arc.end) for arc in (a0, a1)
        )
    for e in V.edge_chords(3):
        assert not linked(e, V.major)


def _apply(V, w, u):
    """The word w in V's return-map inverse branches, applied to the local
    coordinate u: g0(u) = u / 3^k and g1(u) = h - (h - u) / 3^k, the last
    bit first."""
    h, K = arc_length(V.hole), 3 ** V.period
    for bit in reversed(w):
        u = u / K if bit == 0 else h - (h - u) / K
    return u


def _per_word_oracle(V, depth):
    """V's vertices and edge chords with every word of length <= depth
    applied from scratch by `_apply`, the words of each length in
    lexicographic order."""
    levels = [[()]]
    for _ in range(depth):
        levels.append([w + (bit,) for w in levels[-1] for bit in (0, 1)])
    h = arc_length(V.hole)
    pts = {V.a, V.b} | {(V.a + _apply(V, w, u)) % 1 for w in levels[-1] for u in (F(0), h)}
    u0, u1 = h - F(1, 3), F(1, 3)
    edges = [V.major, V.co_major] + [
        Chord((V.a + _apply(V, w, u0)) % 1, (V.a + _apply(V, w, u1)) % 1)
        for words in levels[1:] for w in words]
    return sorted(pts), edges


@pytest.mark.parametrize("critical", [Chord(F(1, 12), F(5, 12)), PERIOD3_CRITICAL])
def test_vassal_levels_match_per_word_oracle(critical):
    V = vassal(build_gap(critical, depth=0)[0])
    for depth in range(9):
        assert (V.vertices(depth), V.edge_chords(depth)) == _per_word_oracle(V, depth), depth


def _periodic_gaps(max_period):
    """The periodic-type gaps with a period-k major, k <= max_period, as
    acceptance 2 finds them (2, 4, 12 and 24 for k = 1, ..., 4)."""
    gaps = []
    for k, u, c in _census_candidates(max_period):
        cls = classify_critical(c)
        hole = F(3 ** (k - 1), 3 ** k - 1)
        if (cls.tag, cls.n_c, cls.major) == ("PeriodicType", k, Chord(u, (u + hole) % 1)):
            gaps.append(build_gap(c, depth=0)[0])
    return gaps


def test_vassal_vertices_match_sorted_set_oracle():
    # the old vertices: both word levels shifted by a into a set, then sorted
    gaps = _periodic_gaps(4)
    assert len(gaps) == 2 + 4 + 12 + 24
    for gap in [build_gap(Chord(F(1, 12), F(5, 12)), depth=0)[0]] + gaps:
        V = vassal(gap)
        levels = zip(V._numerator_levels(F(0)), V._numerator_levels(V.hole_length))
        for depth, ((lo, den), (hi, _)) in enumerate(islice(levels, 11)):
            want = sorted({V.a, V.b, *((V.a + F(x, den)) % 1 for x in lo + hi)})
            assert V.vertices(depth) == want, (gap.major, depth)


def test_vassal_chord_matches_word_fixed_point():
    # the old form: u* = f(0) / (1 - (f(1) - f(0))), the fixed point of the
    # affine word f = _apply(V, (0, 1), .)
    gaps = _periodic_gaps(6) + [FGA, FGB, build_gap(PERIOD3_CRITICAL, depth=0)[0]]
    assert len(gaps) == 210 + 3
    for gap in gaps:
        V = vassal(gap)
        f0 = _apply(V, (0, 1), F(0))
        u = f0 / (1 - (_apply(V, (0, 1), F(1)) - f0))
        assert _vassal_chord(V) == ((V.a + u) % 1, (V.a + u + F(1, 3)) % 1), gap.major


def test_vassal_requires_periodic_type():
    gap, _ = build_gap(Chord(F(1, 3), F(2, 3)), depth=0)
    with pytest.raises(ValueError):
        vassal(gap)


def test_vassal_serialize_roundtrip():
    V = vassal(FGB)
    W = _parse_region(V.serialize(), 3)
    assert isinstance(W, VassalGap)
    assert W == V


def test_gap_lines_and_reprs_are_pinned():
    # the [gaps] text of each quadratic-gap class, and its repr around it
    P = build_gap(PERIOD3_CRITICAL, depth=0)[0]
    V = vassal(P)
    cases = [
        (build_gap(Chord(F(1, 3), F(2, 3)), depth=0)[0], "GapGen<",
         "kind=regular-critical major=1/3-2/3 hole=1/3,2/3 period=- critical=1/3-2/3"),
        (P, "GapGen<",
         "kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=3 "
         "critical=41/156-145/156"),
        (FGB, "GapGen<",
         "kind=below-diameter major=0-1/2 hole=0,1/2 period=1 critical=1/12-5/12"),
        (GapGen(kind="periodic-type", hole=P.hole, period=3), "GapGen<",
         "kind=periodic-type major=7/26-12/13 hole=12/13,7/26 period=3 critical=-"),
        (V, "VassalGap<",
         "kind=vassal major=7/26-12/13 hole=12/13,7/26 period=3 critical=10/39-73/78"),
    ]
    for gap, head, line in cases:
        assert gap.serialize() == line
        assert repr(gap) == f"{head}{line}>"
    I = ImageGap(V, 2)
    assert I.serialize() == ("kind=vassal-image power=2 major=7/26-12/13 hole=12/13,7/26 "
                             "period=3 critical=10/39-73/78")
    assert repr(I) == f"ImageGap(base={V!r}, power=2)"


def test_vassal_fields_equality_and_hash():
    # a vassal is its hole and period; kind and critical are derived
    P = build_gap(PERIOD3_CRITICAL, depth=0)[0]
    V = vassal(P)
    assert [f.name for f in fields(VassalGap)] == ["hole", "period"]
    assert [f.name for f in fields(GapGen)] == ["kind", "hole", "period", "critical"]
    assert V == VassalGap(hole=P.hole, period=3) != VassalGap(hole=P.hole, period=2)
    assert V != GapGen(kind="vassal", hole=P.hole, period=3, critical=V.co_major)
    assert hash(V) == hash(VassalGap(hole=P.hole, period=3)) == hash((P.hole, 3))
    assert (V.kind, V.critical, V.major) == ("vassal", V.co_major, P.major)
    assert V.hole_length == P.hole_length == F(9, 26)
    with pytest.raises(FrozenInstanceError):
        V.period = 4


# ---------------------------------------------------------------------------
# collapse onto the doubling map


def test_psi_pinned_values():
    assert psi(FGB, F(0)) == 0
    assert psi(FGB, F(1, 2)) == 0
    assert psi(FGB, F(2, 3)) == F(1, 2)
    assert {psi(FGB, F(5, 8)), psi(FGB, F(7, 8))} == {F(1, 3), F(2, 3)}


def test_psi_rejects_points_outside_basis():
    with pytest.raises(ValueError):
        psi(FGB, F(1, 4))


def test_psi_semiconjugates_tripling_to_doubling():
    for x in FGB.vertices(4):
        assert psi(FGB, sigma(3, x)) == (2 * psi(FGB, x)) % 1
    gap, verts = build_gap(PERIOD3_CRITICAL, depth=3)
    for x in verts:
        assert psi(gap, sigma(3, x)) == (2 * psi(gap, x)) % 1


def test_psi_monotone_on_basis():
    # away from the collapsed fibers, psi preserves circular order
    verts = FGB.vertices(3)
    values = [psi(FGB, x) for x in verts]
    collapsed = [v for i, v in enumerate(values) if values.count(v) == 1]
    assert collapsed == sorted(collapsed)


def test_psi_vassal_semiconjugates_return_map():
    V = vassal(FGB)
    k = 3 ** V.period
    for x in V.vertices(3):
        assert psi(V, sigma(k, x)) == (2 * psi(V, x)) % 1
    gap, _ = build_gap(PERIOD3_CRITICAL, depth=0)
    W = vassal(gap)
    kk = 3 ** W.period
    for x in W.vertices(2):
        assert psi(W, sigma(kk, x)) == (2 * psi(W, x)) % 1


def test_psi_vassal_pinned_values():
    V = vassal(FGB)
    assert psi(V, F(0)) == 0
    assert psi(V, F(1, 2)) == 0
    assert {psi(V, F(1, 6)), psi(V, F(1, 3))} == {F(1, 2)}


# ---------------------------------------------------------------------------
# the integer orbit walks against the Fraction code they replaced


def _oracle_in_basis(U, x):
    if isinstance(U, VassalGap):
        h = arc_length(U.hole)
        return all(
            (p - U.a) % 1 <= h - F(1, 3) or F(1, 3) <= (p - U.a) % 1 <= h
            for p in orbit(3 ** U.period, x))
    return all(not contains(U.hole, p) for p in orbit(3, x))


def _oracle_psi(U, x):
    """The Fraction bit loop: the itinerary of x read as a binary number."""
    if isinstance(U, VassalGap):
        d, h = 3 ** U.period, arc_length(U.hole)

        def bit(p):
            return 0 if (p - U.a) % 1 <= h - F(1, 3) else 1
    else:
        d = 3

        def bit(p):
            return 0 if (p - U.hole.end) % 1 < F(1, 3) else 1
    orb = orbit(d, x)
    pre = orb.index(sigma(d, orb[-1]))
    per = len(orb) - pre
    bits = [bit(p) for p in orb]
    val = sum(F(b, 2 ** (j + 1)) for j, b in enumerate(bits[:pre]))
    tail = int("".join(map(str, bits[pre:])), 2)
    return (val + F(tail, (2 ** per - 1) * 2 ** pre)) % 1


def _oracle_scan(c):
    """The escape index of the orbit of sigma(c) from the closure of L(c)
    (None if it stays) and whether the orbit hits an endpoint of c."""
    s, t = _short_side(c)
    L = big_arc(c)
    hits = False
    for i, x in enumerate(orbit(3, sigma(3, c.a))):
        if (x - L.start) % 1 > arc_length(L):
            return i, hits
        hits |= x in (s, t)
    return None, hits


def _oracle_vertices(U, depth):
    pts = {x for e in U.edge_chords(depth) for x in (e.a, e.b)}
    if U.critical is not None:
        pts.update(x for x in orbit(3, sigma(3, U.critical.a)) if _oracle_in_basis(U, x))
    pts.update(x for p in range(1, depth + 1) for x in fixed_points(3, p)
               if _oracle_in_basis(U, x))
    return sorted(pts)


def _census_candidates(max_period=6):
    """(k, u, c): the critical chord c centred in the hole of the period-k
    candidate major at u, for k <= max_period."""
    for k in range(1, max_period + 1):
        h = F(3 ** (k - 1), 3 ** k - 1)
        for u in fixed_points(3, k):
            m = (u + (h - F(1, 3)) / 2) % 1
            yield k, u, Chord(m, (m + F(1, 3)) % 1)


def test_classify_and_vertices_match_fraction_oracles_on_census():
    kinds = {}
    for _, _, c in _census_candidates():
        escape, hits = _oracle_scan(c)
        cls = classify_critical(c)
        kinds[cls.tag] = kinds.get(cls.tag, 0) + 1
        if escape is not None:
            assert (cls.tag, cls.n_c) == ("PeriodicType", escape + 1), c
        else:
            assert cls.tag == ("Caterpillar" if hits else "RegularCritical"), c
        if cls.tag != "Caterpillar":
            gap, verts = build_gap(c, 0)
            assert verts == _oracle_vertices(gap, 0), c
    assert sum(kinds.values()) == 1086
    assert kinds["PeriodicType"] > 210


_PERIOD3 = build_gap(PERIOD3_CRITICAL, depth=0)[0]
_ORACLE_GAPS = [FGA, FGB, build_gap(Chord(F(1, 3), F(2, 3)), depth=0)[0],
                _PERIOD3, vassal(_PERIOD3), vassal(FGB)]
_ORACLE_IDS = ["FGA", "FGB", "regular-critical", "period3", "period3-vassal", "FGB-vassal"]


@pytest.mark.parametrize("U", _ORACLE_GAPS, ids=_ORACLE_IDS)
def test_in_basis_and_psi_match_fraction_oracles(U):
    # every j/(3^p - 1) for p <= 5, and the edge endpoints, which sit on the
    # boundaries of the hole and of the bit arcs
    points = {x for p in range(1, 6) for x in fixed_points(3, p)}
    points |= {x for e in U.edge_chords(2) for x in (e.a, e.b)}
    inside = 0
    for x in sorted(points):
        want = _oracle_in_basis(U, x)
        assert U.in_basis(x) == want, x
        if want:
            inside += 1
            assert psi(U, x) == _oracle_psi(U, x), x
        else:
            with pytest.raises(ValueError, match="is not in the basis of"):
                psi(U, x)
    assert inside > 0


@pytest.mark.parametrize("U", _ORACLE_GAPS[:4], ids=_ORACLE_IDS[:4])
def test_vertices_match_fraction_oracle(U):
    for depth in range(4):
        assert U.vertices(depth) == _oracle_vertices(U, depth), depth


def _oracle_leaf_period(c):
    """Iterate the chord until some chord repeats; a periodic c repeats
    first."""
    seen, cur = set(), c
    while cur not in seen:
        seen.add(cur)
        cur = image(3, cur)
        if cur == c:
            return len(seen)
    return None


def _rationals(max_den):
    return st.builds(lambda p, q: F(p, q) % 1, st.integers(0, 10 ** 4),
                     st.integers(1, max_den))


@settings(max_examples=200, deadline=None)
@given(_rationals(3000), st.sampled_from(_ORACLE_GAPS), _rationals(80), _rationals(80))
def test_integer_walks_match_fraction_oracles_on_random_rationals(x, U, y, z):
    want = _oracle_in_basis(U, x)
    assert U.in_basis(x) == want
    if want:
        assert psi(U, x) == _oracle_psi(U, x)
    c = Chord(y, z)
    assert _leaf_period(c) == _oracle_leaf_period(c), c
    N = y.denominator * z.denominator
    pts = (y.numerator * z.denominator, z.numerator * y.denominator)
    assert _set_period(3, N, pts) == _oracle_leaf_period(c), c
    assert _set_period(3, N, pts, 4) == _bounded_leaf_period(c, 4), c
    critical = Chord(x, (x + F(1, 3)) % 1)
    escape, hits = _oracle_scan(critical)
    cls = classify_critical(critical)
    if escape is not None:
        assert (cls.tag, cls.n_c) == ("PeriodicType", escape + 1)
    else:
        assert cls.tag == ("Caterpillar" if hits else "RegularCritical")


@pytest.mark.parametrize("critical", [Chord(F(1, 3), F(2, 3)), PERIOD3_CRITICAL],
                         ids=["regular-critical", "period3"])
def test_project_through_gap_matches_fraction_oracle(critical):
    U = build_gap(critical, depth=0)[0]
    L = canonical_of_quadratic_gap(U, depth=4)
    want = {}
    for c in L.leaves:
        assert not linked(c, U.major)
        if _oracle_in_basis(U, c.a) and _oracle_in_basis(U, c.b):
            pa, pb = _oracle_psi(U, c.a), _oracle_psi(U, c.b)
            if pa != pb:
                want[Chord(pa, pb)] = L.depth
    got = project_through_gap(U, L).leaves
    assert list(got.items()) == sorted(want.items())
    assert want


def _endpoint_table_cases():
    """(gap, N, numerators over N): every endpoint of the regular-critical,
    period-3 and diameter laminations at depth 5, under their own gaps, and
    those of the period-3 lamination with its vassal's depth-5 vertices,
    under the vassal."""
    regcrit = build_gap(Chord(F(1, 3), F(2, 3)), depth=0)[0]
    diameter = canonical_diameter(5)
    cases = [(U, canonical_of_quadratic_gap(U, 5)) for U in (regcrit, _PERIOD3)]
    cases += [(FGB, diameter), (FGA, diameter)]
    for U, L in cases:
        yield U, L.leaves.N, {x for pair in L.leaves.pairs() for x in pair}
    V = vassal(_PERIOD3)
    L = canonical_of_quadratic_gap(_PERIOD3, 5)
    points = [F(x, L.leaves.N) for pair in L.leaves.pairs() for x in pair] + V.vertices(5)
    N = lcm(*(x.denominator for x in points))
    yield V, N, {x.numerator * (N // x.denominator) for x in points}


@pytest.mark.parametrize("case", list(_endpoint_table_cases()),
                         ids=["regular-critical", "period3", "FGB", "FGA", "period3-vassal"])
def test_psi_values_match_fraction_oracles_on_endpoints(case, monkeypatch):
    # the one walk over every endpoint gives each point's oracle psi, and
    # None exactly off the basis; each value is a reduced p/q in [0, 1).
    # It reads the bit of each point of the endpoints' orbits once.
    U, N, xs = case
    read, rule_of = [], type(U)._bits

    def counting_bits(gap, M):
        rule = rule_of(gap, M)
        return lambda v: read.append(F(v, M)) or rule(v)

    monkeypatch.setattr(type(U), "_bits", counting_bits)
    table = quadgap.psi_values(U, N, xs)
    monkeypatch.undo()
    step = 3 ** U.period if isinstance(U, VassalGap) else 3
    assert sorted(read) == sorted({y for x in xs for y in orbit(step, F(x, N))})
    assert table.keys() == xs
    inside = 0
    for x, v in table.items():
        if _oracle_in_basis(U, F(x, N)):
            inside += 1
            p, q = v
            assert 0 <= p < q and gcd(p, q) == 1, (x, v)
            assert F(p, q) == _oracle_psi(U, F(x, N)), x
        else:
            assert v is None, x
    assert 0 < inside < len(xs)


def test_psi_off_basis_message():
    U = build_gap(PERIOD3_CRITICAL, depth=0)[0]
    x = next(x for x in fixed_points(3, 3) if x and not _oracle_in_basis(U, x))
    with pytest.raises(ValueError) as info:
        psi(U, x)
    assert str(info.value) == f"{x.numerator}/{x.denominator} is not in the basis of {U!r}"
