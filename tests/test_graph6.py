import pickle
import random

import pytest

from oracles import all_graphs
from ramseykit.canon import canonical_form
from ramseykit.graph6 import Graph6FormatError, emit_graph6, parse_graph6
from ramseykit.graphs import Graph


def test_empty_graph_on_five_vertices():
    # hand-encoded: size byte 5+63='D', ten zero bits pad to '??'
    assert emit_graph6(Graph.empty(5)) == "D??"


def test_k5():
    # ten one bits: 111111 -> '~', 111100 -> '{'
    assert emit_graph6(Graph.complete(5)) == "D~{"


def test_roundtrip_all_four_vertex_classes():
    seen = set()
    for g in all_graphs(4):
        text = emit_graph6(g)
        assert parse_graph6(text) == g
        seen.add(canonical_form(g))
    assert len(seen) == 11


def test_roundtrip_random_graphs():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(0, 20)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(emit_graph6(g)) == g


def test_accepts_optional_header():
    g = Graph.cycle(5)
    assert parse_graph6(">>graph6<<" + emit_graph6(g)) == g


def test_emit_rejects_large_graphs():
    with pytest.raises(ValueError, match="62"):
        emit_graph6(Graph.empty(63))


def test_truncated_data_reports_offset():
    with pytest.raises(Graph6FormatError, match="offset 2") as exc:
        parse_graph6("D?")
    assert exc.value.offset == 2


def test_trailing_data_reports_offset():
    with pytest.raises(Graph6FormatError, match="trailing"):
        parse_graph6("D???")


def test_bad_size_byte_reports_offset():
    with pytest.raises(Graph6FormatError) as exc:
        parse_graph6("\x1f??")
    assert exc.value.offset == 0


def test_nonzero_padding_rejected():
    # empty graph on 5 vertices with a dirty final padding bit
    with pytest.raises(Graph6FormatError, match="padding"):
        parse_graph6("D?@")


def test_oversize_marker_rejected():
    with pytest.raises(Graph6FormatError, match="62"):
        parse_graph6("~??")


def test_format_error_survives_a_pickle_round_trip():
    # split --jobs hands a parse error to a pool worker and back
    with pytest.raises(Graph6FormatError) as exc:
        parse_graph6("B{")
    copy = pickle.loads(pickle.dumps(exc.value))
    assert type(copy) is Graph6FormatError
    assert (str(copy), copy.offset) == (str(exc.value), exc.value.offset)
    assert str(copy) == "nonzero padding bits (byte offset 1)"
