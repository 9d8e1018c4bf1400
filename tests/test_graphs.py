import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import relabeled
from ramseykit import graphs as graphs_mod, targets
from ramseykit.enumeration import enumerate_good
from ramseykit.graphs import Graph, complement, iter_bits, relabel_rows
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


def naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_iter_bits_lists_every_small_mask_in_ascending_order():
    for mask in range(1 << 12):
        assert list(iter_bits(mask)) == naive_bits(mask)


def test_iter_bits_lists_large_masks_past_a_byte_of_positions():
    rng = random.Random(7)
    for width in (17, 64, 256, 300, 1200):
        for _ in range(50):
            mask = rng.getrandbits(width) | 1 << (width - 1)
            assert list(iter_bits(mask)) == naive_bits(mask)
    assert list(iter_bits(1 << 1000 | 1 << 256 | 1 << 255)) == [255, 256, 1000]


def test_iter_bits_memoizes_only_masks_below_2_to_the_16():
    for mask in (1 << 16, 1 << 16 | 5, (1 << 40) - 1, 1 << 500):
        iter_bits(mask)
    iter_bits((1 << 16) - 1)
    assert (1 << 16) - 1 in graphs_mod._MEMO
    assert all(0 <= mask < 1 << 16 for mask in graphs_mod._MEMO)


def test_iter_bits_rejects_a_negative_mask():
    with pytest.raises(ValueError, match="negative"):
        iter_bits(-1)


def test_bit_memo_is_not_tracked_by_the_garbage_collector():
    enumerate_good(targets.clique(3), targets.clique_minus_edge(7), 8)
    assert graphs_mod._MEMO
    assert not gc.is_tracked(graphs_mod._MEMO)
