import re
import runpy
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import render_oracle
from trilam.chords import Chord
from trilam.lamination import (
    FiniteRegion, Lamination, Leaves, canonical_diameter, canonical_of_rotational,
)
from trilam.lamsets import parse_lamset
from trilam.render import PALETTE, RenderSpec, render

GALLERY = runpy.run_path(str(Path(__file__).resolve().parent.parent
                             / "scripts" / "gap_gallery.py"))["GALLERY"]


def _paths(svg):
    return re.findall(r'<path d="([^"]+)"', svg)


def _coords(svg):
    return [float(x) for x in re.findall(r"-?\d+\.\d{6}", svg)]


def test_render_is_deterministic():
    L = canonical_of_rotational(parse_lamset("1/26,3/26,9/26"), depth=3)
    assert render(L) == render(L)


def test_render_empty_input_draws_only_the_circle():
    svg = render([])
    assert "<circle" in svg
    assert _paths(svg) == []


def test_diameter_renders_as_straight_segment():
    svg = render(Chord(F(0), F(1, 2)), RenderSpec(size=600))
    (p,) = _paths(svg)
    assert p == "M 570.000000 300.000000 L 30.000000 300.000000"
    assert "A " not in p


def test_non_diameter_renders_as_arc():
    svg = render(Chord(F(0), F(1, 3)))
    (p,) = _paths(svg)
    assert " A " in p


def test_chord_endpoints_on_circle():
    spec = RenderSpec(size=600)
    svg = render(Chord(F(1, 7), F(3, 7)), spec)
    (p,) = _paths(svg)
    nums = [float(x) for x in re.findall(r"-?\d+\.\d{6}", p)]
    for x, y in ((nums[0], nums[1]), (nums[-2], nums[-1])):
        rad = ((x - 300.0) ** 2 + (y - 300.0) ** 2) ** 0.5
        assert abs(rad - 270.0) < 1e-6


def test_rotating_by_half_reflects_the_picture():
    # rotating all angles by 1/2 maps each drawn point to its antipode
    a, b = F(1, 26), F(9, 26)
    svg1 = render(Chord(a, b))
    svg2 = render(Chord((a + F(1, 2)) % 1, (b + F(1, 2)) % 1))
    (p1,), (p2,) = _paths(svg1), _paths(svg2)
    n1 = [float(x) for x in re.findall(r"-?\d+\.\d{6}", p1)]
    n2 = [float(x) for x in re.findall(r"-?\d+\.\d{6}", p2)]
    # endpoints: (x, y) -> (600 - x, 600 - y); arc radius is unchanged
    assert abs((600 - n1[0]) - n2[0]) < 1e-6
    assert abs((600 - n1[1]) - n2[1]) < 1e-6
    assert abs((600 - n1[-2]) - n2[-2]) < 1e-6
    assert abs((600 - n1[-1]) - n2[-1]) < 1e-6
    assert abs(n1[2] - n2[2]) < 1e-6


def test_render_lamset():
    svg = render(parse_lamset("7/26,11/26,21/26"))
    assert len(_paths(svg)) == 3
    # one palette colour per edge, in sorted chord order
    assert re.findall(r'stroke="(#[0-9a-f]{6})"', svg) == list(PALETTE[:3])


def test_render_size_sets_both_sides():
    svg = render(Chord(F(0), F(1, 3)), RenderSpec(size=250))
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" width="250" height="250" '
                          'viewBox="0 0 250 250">\n  <rect width="250" height="250" fill="white"/>\n'
                          '  <circle cx="125.000000" cy="125.000000" r="112.500000" ')


@pytest.mark.parametrize("size", [0, -1, -600])
def test_render_rejects_a_size_that_is_not_positive(size):
    with pytest.raises(ValueError, match=f"^size must be > 0, got {size}$"):
        render(Chord(F(0), F(1, 3)), RenderSpec(size=size))


def test_render_takes_each_endpoints_cos_once(monkeypatch):
    # on the rotational laminations each endpoint serves two leaves, and its
    # point is made once, on the first
    import math
    import sys
    render_module = sys.modules["trilam.render"]  # the package's `render` is the function

    class CountingMath:
        pi, sin, sqrt = math.pi, math.sin, math.sqrt
        calls = 0

        @classmethod
        def cos(cls, t):
            cls.calls += 1
            return math.cos(t)

    for G in (parse_lamset("1/26,3/26,9/26"), parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13")):
        L = canonical_of_rotational(G, depth=4)
        want = render(L)
        CountingMath.calls = 0
        monkeypatch.setattr(render_module, "math", CountingMath)
        assert render(L) == want
        monkeypatch.undo()
        assert CountingMath.calls == len({x for pair in L.leaves.pairs() for x in pair})


def test_render_labels():
    svg = render(Chord(F(0), F(1, 3)), RenderSpec(label_angles=True))
    assert ">0<" in svg and ">1/3<" in svg


def test_render_lamination_one_path_per_leaf():
    L = canonical_diameter(depth=3)
    svg = render(L)
    assert len(_paths(svg)) == len(L.leaves)


def test_render_rejects_unknown_objects():
    with pytest.raises(TypeError):
        render(42)


# ---------------------------------------------------------------------------
# the integer renderer against the Chord renderer it replaced


@pytest.mark.parametrize("name, make", GALLERY, ids=[name for name, _ in GALLERY])
def test_render_matches_chord_oracle_on_gallery(name, make):
    # the golden suite at depth 5, as the gallery builds it, and its gaps
    L = make(5)
    specs = [RenderSpec(), RenderSpec(size=700), RenderSpec(size=1),
             RenderSpec(size=300, label_angles=True)]
    gaps = [g.base if isinstance(g, FiniteRegion) else g for g in L.gaps
            if isinstance(g, FiniteRegion) or hasattr(g, "edge_chords")]
    for obj in [L] + gaps:
        for spec in specs:
            svg = render(obj, spec)
            try:
                expected = render_oracle.render(obj, spec)
            except ValueError:
                # the oracle's float radicand drops below 0 on the period-3
                # vassal's deepest edges, about 3^-18 wide; render clamps it
                edges = obj.edge_chords(6)
                assert len(_paths(svg)) == len({e for e in edges if not e.degenerate})
                continue
            assert svg == expected, (name, obj, spec)


def test_render_matches_chord_oracle_past_one_block_of_path_lines():
    # the path lines are joined 4096 at a time
    L = canonical_of_rotational(parse_lamset("7/26,4/13,11/26,10/13,21/26,12/13"), depth=6)
    assert len(L.leaves) > 4096
    for spec in (RenderSpec(), RenderSpec(size=90, label_angles=True)):
        assert render(L, spec) == render_oracle.render(L, spec)


@st.composite
def _chord_families(draw):
    """Chords over a few random denominators: endpoints in either order,
    diameters, points and duplicates."""
    dens = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
    angle = st.builds(F, st.integers(0, 120), st.sampled_from(dens))
    ends = draw(st.lists(st.tuples(angle, angle), max_size=10))
    chords = [Chord(x, y) for x, y in ends]
    chords += [Chord(x, x + F(1, 2)) for x, _ in ends[:draw(st.integers(0, 2))]]
    chords += [Chord(y, y) for _, y in ends[:draw(st.integers(0, 2))]]
    return chords + chords[:draw(st.integers(0, 3))]


@settings(max_examples=150, deadline=None)
@given(_chord_families(), st.booleans(), st.integers(1, 3), st.integers(1, 2000))
def test_render_matches_chord_oracle_on_random_families(chords, labels, scale, size):
    spec = RenderSpec(size=size, label_angles=labels)
    # a lamination whose store N is a multiple of the lcm of its denominators
    store = Leaves.from_chords(dict.fromkeys(chords, 0))
    L = Lamination(3, 0, "random", Leaves.from_pairs(store.N * scale, {
        (a * scale, b * scale): 0 for a, b in store.pairs()}))
    for obj in (chords, L, *chords[:1]):
        assert render(obj, spec) == render_oracle.render(obj, spec)
    assert render(iter(chords), spec) == render_oracle.render(iter(chords), spec)
