import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import relabeled
from ramseykit.graphs import Graph, complement, relabel_rows
from ramseykit.canon import are_isomorphic


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, p in zip(pairs, picks) if p])


def test_rejects_asymmetric_adjacency():
    with pytest.raises(ValueError, match="asymmetric"):
        Graph(2, (0b10, 0b00))


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(1, (0b1,))


def test_rejects_out_of_range_bits():
    with pytest.raises(ValueError, match="outside"):
        Graph(2, (0b100, 0b000))


def test_rejects_too_many_vertices():
    with pytest.raises(ValueError):
        Graph.empty(65)


def test_complement_of_complete_is_empty():
    assert complement(Graph.complete(5)) == Graph.empty(5)
    assert complement(Graph.empty(5)) == Graph.complete(5)


def test_complement_of_c5_is_c5():
    c5 = Graph.cycle(5)
    assert are_isomorphic(c5, complement(c5))


@settings(max_examples=60)
@given(graphs())
def test_complement_is_involution(g):
    assert complement(complement(g)) == g


@settings(max_examples=60)
@given(graphs())
def test_edges_are_symmetric(g):
    for u, v in g.edges():
        assert g.has_edge(u, v) and g.has_edge(v, u)
    assert g.edge_count == len(g.edges())


@settings(max_examples=60)
@given(graphs(), st.data())
def test_relabel_rows_matches_the_oracle(g, data):
    order = data.draw(st.permutations(range(g.n)))
    assert relabel_rows(g.n, g.adj, order) == relabeled(g, order).adj
