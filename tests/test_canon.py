import random

from oracles import all_graphs, brute_isomorphic, brute_orbits, random_graph
from ramseykit.canon import are_isomorphic, canon_raw, canonical_form, canonical_labeling
from ramseykit.constructions import two_k3
from ramseykit.graphs import Graph, relabel


def test_relabeling_invariance_c5():
    c5 = Graph.cycle(5)
    for order in [(1, 2, 3, 4, 0), (4, 2, 0, 3, 1), (0, 2, 4, 1, 3)]:
        assert canonical_form(relabel(c5, order)) == canonical_form(c5)


def test_different_degree_sequences_differ():
    p4 = Graph.path(4)
    k3_plus_isolated = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert canonical_form(p4) != canonical_form(k3_plus_isolated)


def test_dedup_of_all_labeled_four_vertex_graphs():
    keys = {canonical_form(g) for g in all_graphs(4)}
    assert len(keys) == 11


def test_class_counts_on_five_and_six_vertices():
    assert len({canonical_form(g) for g in all_graphs(5)}) == 34
    assert len({canonical_form(g) for g in all_graphs(6)}) == 156


def test_isomorphic_paw_variants():
    paw1 = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    paw2 = Graph.from_edges(4, [(3, 1), (3, 0), (0, 1), (1, 2)])
    assert are_isomorphic(paw1, paw2)


def test_c6_not_isomorphic_to_2k3():
    assert not are_isomorphic(Graph.cycle(6), two_k3())


def test_agrees_with_permutation_oracle():
    rng = random.Random(321)
    for _ in range(150):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, n, rng.random())
        assert are_isomorphic(g, h) == brute_isomorphic(g, h)
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(g, relabel(g, tuple(perm)))


def test_canonical_form_is_stable():
    g = random_graph(random.Random(9), 12, 0.3)
    first = canonical_form(g)
    for _ in range(3):
        assert canonical_form(g) == first


def test_generators_are_automorphisms():
    for g in [Graph.cycle(6), Graph.complete(5), two_k3(), Graph.empty(7)]:
        res = canonical_labeling(g)
        for gen in res.generators:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert g.has_edge(u, v) == g.has_edge(gen[u], gen[v])


def test_key_prefix_is_vertex_count():
    for n in (0, 1, 5, 9):
        assert canonical_form(Graph.empty(n))[0] == n


def test_highly_symmetric_graphs_terminate_quickly():
    # worst cases for naive minimal-string search: huge automorphism groups
    for g in [
        Graph.empty(14),
        Graph.complete(14),
        Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)]),
    ]:
        key1 = canonical_form(g)
        key2 = canonical_form(relabel(g, tuple(reversed(range(g.n)))))
        assert key1 == key2


def generator_orbits(n, gens):
    """Vertex orbits of the group the permutations ``gens`` generate."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for g in gens:
        for v in range(n):
            parent[root(v)] = root(g[v])
    orbits = {}
    for v in range(n):
        orbits.setdefault(root(v), set()).add(v)
    return {frozenset(o) for o in orbits.values()}


def test_generators_reach_every_vertex_of_large_groups():
    # groups of order 16! and 2 * 8!^2: no generator the search finds may be dropped
    k88 = Graph.from_edges(16, [(a, b) for a in range(8) for b in range(8, 16)])
    for g in [Graph.empty(16), k88]:
        _, _, gens = canon_raw(g.n, g.adj)
        assert generator_orbits(g.n, gens) == {frozenset(range(16))}


def test_generator_orbits_match_brute_force():
    # canonical augmentation relies on the generators giving whole orbits
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        _, _, gens = canon_raw(g.n, g.adj)
        assert generator_orbits(g.n, gens) == brute_orbits(g)
