import os
import random

import pytest

from oracles import all_graphs, naive_copies, naive_critical_sets, random_graph, with_vertex
from ramseykit import detect, targets
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
from ramseykit.enumeration import _extensions, extend_level
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


# each kind at its smallest k and larger ones
CRITICAL_TARGETS = [targets.clique(2), targets.cycle(3)] + ALL_TARGETS


def test_critical_sets_are_the_minimal_completing_sets():
    rng = random.Random(41)
    held = set()  # (target, parent holds it) pairs met with sets to find
    for _ in range(60):
        g = random_graph(rng, rng.randint(0, 7), rng.random())
        for t in CRITICAL_TARGETS:
            minimal = naive_critical_sets(g, t)
            if g.n <= 5:  # the definition: every neighbourhood of a new vertex
                completing = [
                    s for s in range(1 << g.n) if naive_copies(with_vertex(g, s), t)
                ]
                least = [
                    s for s in completing
                    if not any(w != s and w & s == w for w in completing)
                ]
                assert minimal == sorted(least, key=lambda m: (m.bit_count(), m)), (g.adj, t)
            assert critical_sets(g.adj, g.n, t) == minimal, (g.adj, t)
            if minimal:
                held.add((t, minimal == [0]))
    assert held == {(t, h) for t in CRITICAL_TARGETS for h in (False, True)}


def grown_graph_critical_sets(adj, n, t):
    """The screen as it was before the closed forms: append a vertex x
    joined to everything, list every copy of ``t`` in that grown graph and
    keep the minimal sets of x's neighbours in the copies."""
    if t.order > n + 1:
        return []
    x = 1 << n
    grown = [row | x for row in adj] + [x - 1]
    edges = Graph(n + 1, tuple(grown)).edges()
    table = detect.edge_table(n + 1, edges, range(len(edges)))
    found = set()
    for copy in detect.copy_tuples(grown, n + 1, t, table):
        w = 0  # x is the highest vertex, so it ends its edges
        for a, b in map(edges.__getitem__, copy):
            if b == n:
                w |= 1 << a
        found.add(w)
    minimal: list[int] = []
    for w in sorted(found, key=lambda m: (m.bit_count(), m)):
        if not any(m & w == m for m in minimal):
            minimal.append(w)
    return minimal


def assert_critical_sets_as_grown(adj, n, pair):
    full = (1 << n) - 1
    comp = [full ^ row ^ (1 << v) for v, row in enumerate(adj)]
    for t in pair:
        for rows in (adj, comp):
            assert critical_sets(rows, n, t) == grown_graph_critical_sets(rows, n, t), (
                adj, t, rows is comp,
            )


@pytest.mark.parametrize(
    "pair, n_max",
    [
        ("K3,J7", 9), ("K4,K4", 8), ("K3e,J4", 7),
        # the levels of these pairs are empty past order 8, but for (C5, K4)
        ("C4,C4", 9), ("C5,K4", 9), ("K3,C5", 9), ("K3,K5mP3", 9), ("K5mP3,K3", 9),
    ],
)
def test_critical_sets_match_the_grown_graph_screen(pair, n_max):
    # every class of the pair to n_max, its targets on it and on its complement
    pair = targets.parse_target_list(pair)
    level = [Graph.empty(1)]
    for _ in range(n_max):
        for g in level:
            assert_critical_sets_as_grown(g.adj, g.n, pair)
        level = extend_level(level, *pair)


def test_critical_sets_match_the_grown_graph_screen_on_random_graphs():
    rng = random.Random(43)
    deep = [targets.clique(6), targets.clique_minus_edge(6), targets.clique_minus_p3(6)]
    for _ in range(120):
        g = random_graph(rng, rng.randint(6, 10), rng.random())
        for t in ALL_TARGETS + deep:
            assert critical_sets(g.adj, g.n, t) == grown_graph_critical_sets(g.adj, g.n, t), (
                g.adj, t,
            )


@pytest.mark.extended
@pytest.mark.skipif(
    not os.environ.get("RAMSEYKIT_EXTENDED"),
    reason="extended gate (seconds of runtime): set RAMSEYKIT_EXTENDED=1",
)
def test_critical_sets_match_the_grown_graph_screen_at_depth():
    # seeded descents from order-10 (K3, J7) classes, one good extension
    # at a time, checked at orders 12 to 14
    pair = (K3, J7)
    level = [Graph.empty(1)]
    for _ in range(9):
        level = extend_level(level, *pair)
    rng = random.Random(47)
    checked = 0
    for g in rng.sample(level, 1000):
        adj, n = g.adj, g.n
        while n < 14:
            ext = list(_extensions(adj, n, *pair))
            if not ext:
                break
            s = rng.choice(ext)
            adj = tuple(row | (s >> v & 1) << n for v, row in enumerate(adj)) + (s,)
            n += 1
            if n >= 12:
                assert_critical_sets_as_grown(adj, n, pair)
                checked += 1
    assert checked >= 2000, checked


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


def test_deep_copies_come_in_sorted_edge_order():
    # the order, not just the count, of the deeper kinds against the oracle
    rng = random.Random(41)
    deep = [
        targets.clique(6),
        targets.clique_minus_edge(6),
        J7,
        targets.clique_minus_p3(5),
        targets.cycle(6),
    ]
    found = set()
    for n in (8, 8, 9):
        g = random_graph(rng, n, 0.75 + rng.random() / 4)
        for t in deep:
            got = edge_copies(list_copies(g, t))
            assert got == sorted(naive_copies(g, t)), (g.adj, t)
            if got:
                found.add(t)
    assert found == set(deep)
