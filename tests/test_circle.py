from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from trilam.circle import (
    Arc,
    _set_period,
    angle,
    arc_length,
    contains,
    contains_closed,
    fixed_points,
    format_angle,
    orbit,
    parse_angle,
    preimages,
    sigma,
)

angles = st.fractions(min_value=0, max_value=1, max_denominator=10_000).map(lambda x: x % 1)
degrees = st.integers(min_value=2, max_value=5)


def test_angle_normalizes():
    assert angle(F(5, 4)) == F(1, 4)
    assert angle(F(-1, 4)) == F(3, 4)
    assert angle("7/3") == F(1, 3)


def test_parse_format_roundtrip_examples():
    assert parse_angle("3/6") == F(1, 2)
    assert format_angle(F(0)) == "0"
    assert format_angle(F(12, 26)) == "6/13"
    with pytest.raises(ValueError):
        parse_angle("one half")
    with pytest.raises(ValueError):
        parse_angle("1/0")


@given(angles)
def test_parse_format_roundtrip(a):
    assert parse_angle(format_angle(a)) == a


@given(degrees, angles)
def test_sigma_of_preimages(d, a):
    pres = preimages(d, a)
    assert len(pres) == d
    assert len(set(pres)) == d
    for p in pres:
        assert sigma(d, p) == a
    assert pres == sorted(pres)


def test_sigma_rejects_degree_below_two():
    with pytest.raises(ValueError):
        sigma(1, F(1, 2))


@given(degrees, angles)
def test_orbit_is_eventually_periodic(d, a):
    orb = orbit(d, a)
    assert orb[0] == a
    assert len(set(orb)) == len(orb)
    # the next point re-enters the orbit
    assert sigma(d, orb[-1]) in orb
    pre = orb.index(sigma(d, orb[-1]))
    per = len(orb) - pre
    assert (d ** per * orb[pre]) % 1 == orb[pre]


def test_orbit_rejects_degree_below_two():
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="degree must be >= 2"):
            orbit(d, F(1, 2))
        with pytest.raises(ValueError, match="degree must be >= 2"):
            preimages(d, F(1, 2))


@given(degrees, st.integers(1, 200), st.lists(st.integers(0, 10 ** 4), min_size=1, max_size=4),
       st.integers(1, 6))
def test_set_period_matches_fraction_walk(d, N, nums, bound):
    # sigma_d^j(S) = S as a set makes sigma_d^j a permutation of S, so the
    # images of S recur at S exactly when every point is periodic
    pts = sorted({v % N for v in nums})
    S = frozenset(F(v, N) for v in pts)
    seen, cur, want = set(), S, None
    while cur not in seen:
        seen.add(cur)
        cur = frozenset(sigma(d, x) for x in cur)
        if cur == S:
            want = len(seen)
            break
    assert _set_period(d, N, pts) == want
    assert _set_period(d, N, pts, bound) == (want if want is not None and want <= bound else None)


def test_fixed_points():
    assert fixed_points(3) == [F(0), F(1, 2)]
    assert fixed_points(2) == [F(0)]
    assert fixed_points(2, 2) == [F(0), F(1, 3), F(2, 3)]
    for f in fixed_points(3, 3):
        assert (3 ** 3 * f) % 1 == f


def test_arc_membership():
    A = Arc(F(3, 4), F(1, 4))  # wraps through 0
    assert arc_length(A) == F(1, 2)
    assert contains(A, F(0))
    assert contains(A, F(7, 8))
    assert not contains(A, F(3, 4))
    assert not contains(A, F(1, 4))
    assert contains_closed(A, F(1, 4))
    assert not contains(A, F(1, 2))


@given(angles, angles, angles)
def test_contains_open_implies_closed(s, e, x):
    A = Arc(s, e)
    if contains(A, x):
        assert contains_closed(A, x)

