import hashlib
import random

from oracles import (
    all_graphs,
    brute_automorphisms,
    brute_isomorphic,
    random_graph,
    relabeled,
)
from ramseykit.canon import _refine, are_isomorphic, canon_raw, canonical_form, root_cells
from ramseykit.constructions import two_k3
from ramseykit.enumeration import extend_level
from ramseykit.graphs import Graph
from ramseykit.targets import clique, clique_minus_edge

K3, J7, K9 = clique(3), clique_minus_edge(7), clique(9)


def test_relabeling_invariance_c5():
    c5 = Graph.cycle(5)
    for order in [(1, 2, 3, 4, 0), (4, 2, 0, 3, 1), (0, 2, 4, 1, 3)]:
        assert canonical_form(relabeled(c5, order)) == canonical_form(c5)


def test_different_degree_sequences_differ():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
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
        assert are_isomorphic(g, relabeled(g, perm))


def test_canonical_form_is_stable():
    g = random_graph(random.Random(9), 12, 0.3)
    first = canonical_form(g)
    for _ in range(3):
        assert canonical_form(g) == first


def test_generators_are_automorphisms():
    for g in [Graph.cycle(6), Graph.complete(5), two_k3(), Graph.empty(7)]:
        _, _, gens = canon_raw(g.n, g.adj)
        for gen in gens:
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
        key2 = canonical_form(relabeled(g, list(reversed(range(g.n)))))
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


def group_closure(n, gens):
    """Every product of the permutations ``gens``, identity included."""
    identity = tuple(range(n))
    seen = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[p[v]] for v in range(n))
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def complete_multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    )


def shuffled(rng, g):
    order = list(range(g.n))
    rng.shuffle(order)
    return relabeled(g, order)


def with_twins(rng, g):
    """``g`` with a random vertex given a false or a true twin."""
    v = rng.randrange(g.n)
    row = g.adj[v] | (1 << v if rng.random() < 0.5 else 0)
    edges = g.edges() + [(u, g.n) for u in range(g.n) if row >> u & 1]
    return Graph.from_edges(g.n + 1, edges)


def test_generator_orbits_match_brute_force():
    # canonical augmentation relies on the generators giving whole orbits;
    # the closure must also be exactly the automorphism group, hence of its
    # order, on every class to order 6 as well as on random graphs
    rng = random.Random(2024)
    level, graphs = [Graph.empty(1)], []
    for _ in range(6):  # every class to order 6 (K9 is out of reach), relabeled
        graphs += [shuffled(rng, g) for g in level]
        level = extend_level(level, K9, K9)
    assert len(graphs) == 1 + 2 + 4 + 11 + 34 + 156
    for _ in range(1000):
        n = rng.randint(1, 7)
        graphs.append(random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])))
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 4), rng.choice([0.3, 0.5, 0.7]))
        while g.n < 7 and rng.random() < 0.8:
            g = with_twins(rng, g)
        graphs.append(shuffled(rng, g))
    for sizes in [(1, 3), (2, 2), (3, 3), (1, 6), (2, 2, 2), (1, 2, 3), (1, 1, 2, 3)]:
        graphs.append(shuffled(rng, complete_multipartite(sizes)))
    for g in graphs:
        _, _, gens = canon_raw(g.n, g.adj)
        autos = brute_automorphisms(g)
        assert generator_orbits(g.n, gens) == generator_orbits(g.n, autos)
        assert group_closure(g.n, gens) == autos


def test_labeling_search_path_is_pinned():
    # sha256 of every (key, order): the keys and the labelings, hence the
    # canonical rows and archives, stay the same byte for byte
    rng = random.Random(8)
    graphs = []
    for n in range(1, 17):
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    for n in range(1, 14):
        graphs += [Graph.empty(n), Graph.complete(n)]
        graphs.append(Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        graphs += [complete_multipartite((a, n - a)) for a in range(1, n // 2 + 1)]
    for sizes in [(2, 2, 2), (1, 2, 3, 4), (3, 3, 3), (2,) * 5, (1, 1, 3, 4), (2, 3, 5)]:
        graphs.append(complete_multipartite(sizes))
    graphs = [shuffled(rng, g) for g in graphs]
    digest = hashlib.sha256()
    for g in graphs:
        key, order, _ = canon_raw(g.n, g.adj)
        digest.update(key + bytes(order))
    assert len(graphs) == 231
    assert digest.hexdigest() == "2d4cdfae6bfff1d8932996a6e5568c206898653183787b4fb21a1646922d7213"


def degree_parts(g):
    """The nonempty degree classes of ``g`` as masks, in ascending degree."""
    by_deg = {}
    for v, row in enumerate(g.adj):
        by_deg[row.bit_count()] = by_deg.get(row.bit_count(), 0) | 1 << v
    return [by_deg[d] for d in sorted(by_deg)]


def test_search_from_the_refined_degree_partition_is_the_same_search():
    # the enumerator hands canon_raw the root partition it refined from the
    # degree classes; it must be the partition canon_raw reaches alone, and
    # the search from it must give the same key, labeling and generators
    # (hence the same group). The graphs are those of the pinned test
    # above, whose digest they reproduce, and every (K3, J7) class to order 8
    rng = random.Random(8)
    graphs = []
    for n in range(1, 17):
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    for n in range(1, 14):
        graphs += [Graph.empty(n), Graph.complete(n)]
        graphs.append(Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        graphs += [complete_multipartite((a, n - a)) for a in range(1, n // 2 + 1)]
    for sizes in [(2, 2, 2), (1, 2, 3, 4), (3, 3, 3), (2,) * 5, (1, 1, 3, 4), (2, 3, 5)]:
        graphs.append(complete_multipartite(sizes))
    graphs = [shuffled(rng, g) for g in graphs]
    digest = hashlib.sha256()
    level = [Graph.empty(1)]
    for _ in range(8):
        graphs += [shuffled(rng, g) for g in level]
        level = extend_level(level, K3, J7)
    assert len(graphs) == 231 + 562
    for i, g in enumerate(graphs):
        full = (1 << g.n) - 1
        cells = root_cells(g.adj, degree_parts(g))
        assert cells == _refine(g.adj, [full], [full])
        result = canon_raw(g.n, g.adj, cells)
        assert result == canon_raw(g.n, g.adj)
        if i < 231:
            digest.update(result[0] + bytes(result[1]))
    assert digest.hexdigest() == "2d4cdfae6bfff1d8932996a6e5568c206898653183787b4fb21a1646922d7213"


def group_order(n, gens):
    """The order of the group the permutations ``gens`` generate, from a base
    and strong generating set built by the Schreier-Sims algorithm (Holt,
    Eick & O'Brien, "Handbook of Computational Group Theory", 4.4.2)."""
    identity = tuple(range(n))

    def after(p, q):  # q, then p
        return tuple(p[w] for w in q)

    def inverse(p):
        q = [0] * n
        for v, w in enumerate(p):
            q[w] = v
        return tuple(q)

    def moved(p):
        return next(v for v in range(n) if p[v] != v)

    strong = [g for g in dict.fromkeys(gens) if g != identity]
    base = []
    for g in strong:
        if all(g[b] == b for b in base):
            base.append(moved(g))
    levels = {}

    def level(i):
        """The strong generators fixing base[:i], and base[i]'s transversal."""
        if i not in levels:
            fixing = [g for g in strong if all(g[b] == b for b in base[:i])]
            trans = {base[i]: identity}
            stack = [base[i]]
            while stack:
                u = stack.pop()
                for g in fixing:
                    if g[u] not in trans:
                        trans[g[u]] = after(g, trans[u])
                        stack.append(g[u])
            levels[i] = fixing, trans
        return levels[i]

    def strip(h, i):
        while i < len(base):
            trans = level(i)[1]
            if h[base[i]] not in trans:
                break
            h = after(inverse(trans[h[base[i]]]), h)
            i += 1
        return h, i

    i = len(base) - 1
    while i >= 0:
        fixing, trans = level(i)
        schreier = (
            after(inverse(trans[s[beta]]), after(s, u)) for beta, u in trans.items() for s in fixing
        )
        for h, j in (strip(h, i + 1) for h in schreier):
            if h != identity:
                break
        else:
            i -= 1
            continue
        if j == len(base):
            base.append(moved(h))
        strong.append(h)
        levels.clear()
        i = j
    order = 1
    for i in range(len(base)):
        order *= len(level(i)[1])
    return order


def known_automorphisms(rng, n, gens):
    """Random products of ``gens``, with the identity and repeats among them."""
    identity = tuple(range(n))
    out = [identity]
    for _ in range(rng.randint(1, 4) if gens else 0):
        p = identity
        for _ in range(rng.randint(1, 3)):
            g = rng.choice(gens)
            p = tuple(g[w] for w in p)
        out.append(p)
    out += rng.choices(out, k=2)
    rng.shuffle(out)
    return out


def pinned_graphs():
    """The graphs of the pinned tests above: the 231 of the digest, then
    every (K3, J7) class to order 8, each relabeled."""
    rng = random.Random(8)
    graphs = []
    for n in range(1, 17):
        graphs += [random_graph(rng, n, p) for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    for n in range(1, 14):
        graphs += [Graph.empty(n), Graph.complete(n)]
        graphs.append(Graph.from_edges(n, [(0, v) for v in range(1, n)]))
        graphs += [complete_multipartite((a, n - a)) for a in range(1, n // 2 + 1)]
    for sizes in [(2, 2, 2), (1, 2, 3, 4), (3, 3, 3), (2,) * 5, (1, 1, 3, 4), (2, 3, 5)]:
        graphs.append(complete_multipartite(sizes))
    graphs = [shuffled(rng, g) for g in graphs]
    level = [Graph.empty(1)]
    for _ in range(8):
        graphs += [shuffled(rng, g) for g in level]
        level = extend_level(level, K3, J7)
    assert len(graphs) == 231 + 562
    return graphs


def test_generators_without_known_automorphisms_are_pinned():
    # sha256 of every (key, order, gens): with no automorphisms handed in,
    # the generator lists, which fix the split engine's symmetry breaking,
    # stay the same byte for byte
    digest = hashlib.sha256()
    for g in pinned_graphs():
        key, order, gens = canon_raw(g.n, g.adj)
        digest.update(key + bytes(order) + b"".join(bytes(p) for p in gens) + b"|")
    assert digest.hexdigest() == "3a7f3cffb403a01fc92fce31709247ff3c086ebd5c8d50d999a0275e45887c94"


def test_known_automorphisms_keep_the_key_labeling_and_group():
    # automorphisms handed to canon_raw seed its generators: the key and the
    # labeling stay those of the unseeded search, and the generators, each
    # an automorphism, generate the same group (brute-force closure to
    # order 7, equal orbits and group order beyond), with no repeat and no
    # identity among them
    rng = random.Random(27)
    digest = hashlib.sha256()
    pruned = 0
    for i, g in enumerate(pinned_graphs()):
        key, order, gens = canon_raw(g.n, g.adj)
        if i < 231:
            digest.update(key + bytes(order))
        known = known_automorphisms(rng, g.n, gens)
        seeded = canon_raw(g.n, g.adj, None, known)
        assert seeded[:2] == (key, order)
        mine = seeded[2]
        assert len(set(mine)) == len(mine) and tuple(range(g.n)) not in mine
        for perm in mine:
            assert relabeled(g, perm) == g
        assert generator_orbits(g.n, mine) == generator_orbits(g.n, gens)
        if g.n <= 7:
            closure = group_closure(g.n, gens)
            assert group_closure(g.n, mine) == closure
            assert group_order(g.n, mine) == group_order(g.n, gens) == len(closure)
        else:
            assert group_order(g.n, mine) == group_order(g.n, gens)
        pruned += len(mine) < len(gens)
    assert digest.hexdigest() == "2d4cdfae6bfff1d8932996a6e5568c206898653183787b4fb21a1646922d7213"
    assert pruned > 0  # the known automorphisms cut leaves that would find them again
