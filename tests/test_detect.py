import random

import pytest

from oracles import all_graphs, naive_copies, random_graph, with_vertex
from ramseykit import targets
from ramseykit.coloring import EdgeColoring, color_class
from ramseykit.constructions import figure_coloring, two_k3
from ramseykit.detect import (
    coloring_is_valid,
    contains,
    count_copies,
    count_copies_with_edge,
    critical_sets,
    is_good,
    list_copies,
)
from ramseykit.graphs import Graph

K3 = targets.clique(3)
K4 = targets.clique(4)
J4 = targets.clique_minus_edge(4)
J7 = targets.clique_minus_edge(7)
K3E = targets.triangle_plus_pendant()
ALL_TARGETS = [
    K3,
    K4,
    targets.clique(5),
    J4,
    targets.clique_minus_edge(5),
    K3E,
    targets.clique_minus_p3(4),
    targets.clique_minus_p3(5),
    targets.cycle(4),
    targets.cycle(5),
    targets.cycle(6),
]


def edge_copies(found):
    """The copies of a CopyList as sorted edge tuples, in list order."""
    return [found.copy_edges(c) for c in found.copies]


def test_contains_examples():
    assert contains(Graph.complete(4), K3)
    assert not contains(two_k3(), K3E)
    assert contains(Graph.cycle(6), targets.cycle(6))
    assert not contains(Graph.cycle(6), K3)


def test_list_copies_in_k4():
    assert len(list_copies(Graph.complete(4), K3)) == 4
    assert len(list_copies(Graph.complete(4), J4)) == 6


def test_list_copies_k5mp3_in_k5_matches_oracle():
    # one copy per (path center, path ends) choice: 5 * C(4,2) = 30
    got = list_copies(Graph.complete(5), targets.clique_minus_p3(5))
    expect = naive_copies(Graph.complete(5), targets.clique_minus_p3(5))
    assert edge_copies(got) == sorted(expect)
    assert len(got) == 30


def test_copies_exist_in_host():
    g = random_graph(random.Random(5), 8, 0.5)
    for t in ALL_TARGETS:
        for copy in edge_copies(list_copies(g, t)):
            for u, v in copy:
                assert g.has_edge(u, v)


def test_copies_match_oracle_on_all_small_graphs():
    for n in (3, 4, 5):
        for g in all_graphs(n):
            for t in ALL_TARGETS:
                if t.order > n:
                    continue
                assert edge_copies(list_copies(g, t)) == sorted(naive_copies(g, t))


def test_copies_match_oracle_on_random_graphs():
    rng = random.Random(23)
    for _ in range(40):
        g = random_graph(rng, rng.randint(6, 7), rng.random())
        for t in ALL_TARGETS:
            got = list_copies(g, t)
            assert got.edges == tuple(g.edges())
            assert edge_copies(got) == sorted(naive_copies(g, t)), (g.adj, t)


def test_count_copies_equals_listed_copies():
    rng = random.Random(29)
    kinds = set()
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        for t in ALL_TARGETS:
            count = count_copies(g.adj, g.n, t)
            assert count == len(list_copies(g, t).copies), (g.adj, t)
            if count:
                kinds.add(t.kind)
    assert kinds == {t.kind for t in ALL_TARGETS}


def test_count_copies_closed_forms_beyond_k5():
    # the clique and J_k totals for general k, on hosts smaller than the
    # pattern too
    rng = random.Random(37)
    deep = [targets.clique(6), targets.clique_minus_edge(6), J7]
    found = set()
    for n in range(1, 10):
        for _ in range(6):
            g = random_graph(rng, n, 0.5 + rng.random() / 2)
            for t in deep:
                count = count_copies(g.adj, g.n, t)
                assert count == len(list_copies(g, t).copies), (g.adj, t)
                if count:
                    found.add(t)
    assert found == set(deep)


def test_edge_counts_sum_to_edges_times_copies():
    # each copy is counted once through each of its |E(t)| edges
    rng = random.Random(31)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        for t in ALL_TARGETS:
            through = sum(count_copies_with_edge(g.adj, g.n, t, u, v) for u, v in g.edges())
            assert through == t.pattern().edge_count * len(naive_copies(g, t)), (g.adj, t)


def test_critical_sets_are_the_minimal_completing_sets():
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        for t in ALL_TARGETS:
            completing = [
                s for s in range(1 << g.n) if naive_copies(with_vertex(g, s), t)
            ]
            minimal = [
                s for s in completing
                if not any(w != s and w & s == w for w in completing)
            ]
            minimal.sort(key=lambda m: (m.bit_count(), m))
            assert critical_sets(g.adj, g.n, t) == minimal, (g.adj, t)


def test_contains_iff_copies_nonempty():
    rng = random.Random(97)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        for t in ALL_TARGETS:
            assert contains(g, t) == bool(list_copies(g, t).copies)


def test_clique_monotonicity():
    rng = random.Random(31)
    for _ in range(50):
        g = random_graph(rng, 7, 0.6)
        for k in (4, 5):
            if contains(g, targets.clique(k)):
                assert contains(g, targets.clique_minus_edge(k))


def test_triangle_with_attached_edge_gives_pendant():
    # a triangle plus any incident edge to a fourth vertex holds K3+e
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
    assert not contains(g, K3E)
    assert contains(with_vertex(g, 0b001), K3E)
    h = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 4)])
    assert contains(h, K3E)


def test_is_good_examples():
    assert is_good(Graph.cycle(5), K3, K3)
    assert is_good(two_k3(), K3E, J4)
    assert not is_good(Graph.complete(4), K3, K3)


def test_figure3_first_class_is_triangle_free():
    c = figure_coloring("FIG3")
    assert not contains(color_class(c, 0), K3)


def test_coloring_is_valid_figures():
    fig3 = figure_coloring("FIG3")
    verdict = coloring_is_valid(fig3, [K3, J4, J4])
    assert verdict.valid and verdict.assignment == (0, 1, 2)
    fig4 = figure_coloring("FIG4")
    assert coloring_is_valid(fig4, [J4, J4, K4]).valid


def test_coloring_is_valid_checks_color_i_against_target_i():
    # FIG3 fits (J4, K3, J4) only after swapping colors 0 and 1: not valid
    fig3 = figure_coloring("FIG3")
    verdict = coloring_is_valid(fig3, [J4, K3, J4])
    assert not verdict.valid and verdict.assignment is None
    assert verdict.witness_color == 1
    edges = verdict.witness_edges
    assert edges is not None and len(edges) == 3
    assert len({v for e in edges for v in e}) == 3
    for u, v in edges:
        assert fig3.color_of(u, v) == 1


def test_coloring_is_valid_reports_witness():
    mono = EdgeColoring(6, 3, bytes(15))
    verdict = coloring_is_valid(mono, [K3, K3, K3])
    assert not verdict.valid
    assert verdict.witness_color == 0
    assert verdict.witness_edges is not None and len(verdict.witness_edges) == 3
    for u, v in verdict.witness_edges:
        assert mono.color_of(u, v) == 0


def test_coloring_is_valid_checks_target_count():
    with pytest.raises(ValueError):
        coloring_is_valid(EdgeColoring(4, 2, bytes(6)), [K3])
