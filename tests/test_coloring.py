import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit.coloring import (
    ColoringFormatError,
    EdgeColoring,
    color_class,
    emit_coloring_matrix,
    parse_coloring_matrix,
)


@st.composite
def colorings(draw, max_n=10, max_m=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    npairs = n * (n - 1) // 2
    vals = draw(
        st.lists(
            st.integers(min_value=0, max_value=m - 1),
            min_size=npairs,
            max_size=npairs,
        )
    )
    # the matrix format infers m from the largest entry, so generate
    # colorings that actually use their palette
    return EdgeColoring(n, max(vals) + 1, bytes(vals))


def test_rejects_too_many_colors():
    with pytest.raises(ValueError):
        EdgeColoring(3, 5, bytes([0, 1, 2]))


def test_rejects_color_out_of_range():
    with pytest.raises(ValueError):
        EdgeColoring(3, 2, bytes([0, 1, 2]))


def test_two_by_two_matrix():
    c = parse_coloring_matrix("0 1\n1 0\n")
    assert (c.n, c.m) == (2, 1)
    assert c.color_of(0, 1) == 0


@settings(max_examples=50)
@given(colorings())
def test_matrix_roundtrip(c):
    assert parse_coloring_matrix(emit_coloring_matrix(c)) == c


def test_unused_top_color_collapses_on_reparse():
    # the format carries no explicit m, so an unused last color is dropped
    c = EdgeColoring(3, 3, bytes([0, 1, 0]))
    again = parse_coloring_matrix(emit_coloring_matrix(c))
    assert again.m == 2
    assert bytes(again.colors) == bytes(c.colors)


@settings(max_examples=40)
@given(colorings(max_n=8))
def test_color_classes_partition_the_complete_graph(c):
    total = sum(color_class(c, i).edge_count for i in range(c.m))
    assert total == c.n * (c.n - 1) // 2
    for i in range(c.m):
        gi = color_class(c, i)
        for j in range(i + 1, c.m):
            assert not set(gi.edges()) & set(color_class(c, j).edges())


def test_color_class_of_one_coloring_is_complete():
    c = EdgeColoring(6, 1, bytes(15))
    from ramseykit.graphs import Graph

    assert color_class(c, 0) == Graph.complete(6)


def test_parse_tolerates_loose_whitespace():
    c = parse_coloring_matrix("  0  2\n\n 2   0 \n")
    assert c.m == 2
    assert c.color_of(0, 1) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n1 0 2\n", "row 1"),
        ("0 1\n2 0\n", "row 0, column 1"),
        ("1 1\n1 0\n", "diagonal at row 0"),
        ("0 0\n0 0\n", "row 0, column 1"),
        ("0 x\nx 0\n", "non-integer"),
        ("", "empty"),
    ],
)
def test_parse_errors_name_the_location(text, fragment):
    with pytest.raises(ColoringFormatError, match=fragment):
        parse_coloring_matrix(text)
