from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from trilam.chords import (
    Chord,
    format_chord,
    image,
    is_critical,
    linked,
    parse_chord,
)
from trilam.circle import preimages, sigma
from trilam.lamination import canonical_diameter

angles = st.fractions(min_value=0, max_value=1, max_denominator=500).map(lambda x: x % 1)


def test_chord_normalization():
    assert Chord(F(1, 2), F(0)) == Chord(F(0), F(1, 2))
    assert Chord(F(5, 4), F(1, 2)).a == F(1, 4)
    assert Chord(F(1, 3), F(1, 3)).degenerate


def test_parse_format():
    c = parse_chord("7/26-11/26")
    assert c == Chord(F(7, 26), F(11, 26))
    assert format_chord(c) == "7/26-11/26"
    with pytest.raises(ValueError):
        parse_chord("1/2")


def test_endpoint_helpers():
    c = Chord(F(1, 6), F(2, 3))
    assert c.has_endpoint(F(1, 6))
    assert c.other_endpoint(F(2, 3)) == F(1, 6)
    with pytest.raises(ValueError):
        c.other_endpoint(F(1, 2))


def test_image_and_critical():
    assert image(3, Chord(F(1, 12), F(5, 12))).degenerate
    assert is_critical(3, Chord(F(0), F(1, 3)))
    assert not is_critical(3, Chord(F(0), F(1, 2)))
    assert is_critical(2, Chord(F(1, 4), F(3, 4)))
    with pytest.raises(ValueError):
        is_critical(3, Chord(F(1, 7), F(1, 7)))


def test_linked_examples():
    assert linked(Chord(F(0), F(1, 2)), Chord(F(1, 4), F(3, 4)))
    assert not linked(Chord(F(0), F(1, 2)), Chord(F(1, 8), F(1, 4)))
    # shared endpoint never links
    assert not linked(Chord(F(0), F(1, 2)), Chord(F(1, 2), F(3, 4)))
    # degenerate chords never link
    assert not linked(Chord(F(1, 3), F(1, 3)), Chord(F(0), F(1, 2)))


@given(angles, angles, angles, angles)
def test_linked_symmetric(a, b, c, d):
    c1, c2 = Chord(a, b), Chord(c, d)
    assert linked(c1, c2) == linked(c2, c1)


def test_sibling_collection_of_diameter():
    # the pullback's sector rule picks the unique unlinked triple over the
    # diameter: the two short chords, never the linking chord 1/3-5/6
    L = canonical_diameter(depth=1)
    assert dict(L.leaves.items()) == {
        Chord(F(0), F(1, 2)): 0,
        Chord(F(1, 6), F(1, 3)): 1,
        Chord(F(2, 3), F(5, 6)): 1,
    }


def test_preimages_example():
    assert preimages(3, F(21, 26)) == [F(7, 26), F(47, 78), F(73, 78)]
    for p in preimages(3, F(21, 26)):
        assert sigma(3, p) == F(21, 26)
