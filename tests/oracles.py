"""Independent brute-force oracles used to pin expected values.

Everything here works by exhaustive enumeration (permutations, vertex
subsets, all colorings) and deliberately shares no code with the search
routines it checks.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

import numpy as np

from ramseykit.graphs import Graph
from ramseykit.targets import Target


def naive_copies(g: Graph, t: Target) -> set[tuple[tuple[int, int], ...]]:
    """All copies of t in g, found by trying every vertex injection."""
    pat = t.pattern()
    k = pat.n
    found: set[tuple[tuple[int, int], ...]] = set()
    if k > g.n:
        return found
    pat_edges = pat.edges()
    for verts in combinations(range(g.n), k):
        for perm in permutations(verts):
            edges = []
            ok = True
            for a, b in pat_edges:
                u, v = perm[a], perm[b]
                if not g.has_edge(u, v):
                    ok = False
                    break
                edges.append((u, v) if u < v else (v, u))
            if ok:
                found.add(tuple(sorted(edges)))
    return found


def naive_extensions(g: Graph, t1: Target, t2: Target) -> set[int]:
    """Neighborhood masks S of a new vertex that keep g + vertex (t1,t2)-good.

    Tries all 2^n masks, building the child and its complement edge by edge.
    """
    n = g.n
    found = set()
    for s in range(1 << n):
        edges = g.edges() + [(v, n) for v in range(n) if (s >> v) & 1]
        child = Graph.from_edges(n + 1, edges)
        if naive_copies(child, t1):
            continue
        missing = [
            (u, v)
            for u in range(n + 1)
            for v in range(u + 1, n + 1)
            if not child.has_edge(u, v)
        ]
        if naive_copies(Graph.from_edges(n + 1, missing), t2):
            continue
        found.add(s)
    return found


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    for perm in permutations(range(g.n)):
        if all(
            g.has_edge(u, v) == h.has_edge(perm[u], perm[v])
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def brute_automorphisms(g: Graph) -> set[tuple[int, ...]]:
    """Every automorphism of g, trying all n! permutations."""
    edges = g.edges()
    return {
        perm
        for perm in permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) for u, v in edges)
    }


def brute_splittable_2(g: Graph, t1: Target, t2: Target) -> bool:
    """Vectorized scan of all 2^E colorings (E must stay modest)."""
    edges = g.edges()
    nedges = len(edges)
    assert nedges <= 22, "oracle limited to small edge counts"
    index = {e: i for i, e in enumerate(edges)}
    m1 = [sum(1 << index[e] for e in cp) for cp in naive_copies(g, t1)]
    m2 = [sum(1 << index[e] for e in cp) for cp in naive_copies(g, t2)]
    states = np.arange(1 << nedges, dtype=np.uint32)
    bad = np.zeros(states.shape, dtype=bool)
    for cm in m1:
        bad |= (states & cm) == 0  # copy of t1 entirely in color 1 (zero bits)
    for cm in m2:
        bad |= (states & cm) == cm  # copy of t2 entirely in color 2 (one bits)
    return bool(np.count_nonzero(~bad))


def brute_splittable_m(g: Graph, targets: list[Target]) -> bool:
    """All m^E colorings by direct product; only for tiny hosts."""
    edges = g.edges()
    copy_sets = [
        [frozenset(cp) for cp in naive_copies(g, t)] for t in targets
    ]
    for assignment in product(range(len(targets)), repeat=len(edges)):
        coloring = {}
        for e, c in zip(edges, assignment):
            coloring[e] = c
        ok = True
        for c, copies in enumerate(copy_sets):
            for cp in copies:
                if all(coloring[e] == c for e in cp):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_satisfiable(nvars: int, clauses) -> bool:
    """Does some assignment satisfy every clause? Scans all 2^nvars of them
    at once: bit v-1 of an assignment's index is variable v."""
    assert nvars <= 20, "oracle limited to small variable counts"
    states = np.arange(1 << nvars, dtype=np.uint32)
    true = {v: (states >> (v - 1)) & 1 == 1 for v in range(1, nvars + 1)}
    true.update({-v: ~row for v, row in true.items()})
    alive = np.ones(states.shape, dtype=bool)
    for clause in clauses:
        hit = np.zeros(states.shape, dtype=bool)
        for lit in clause:
            hit |= true[lit]
        alive &= hit
    return bool(alive.any())


def satisfies(model, clauses) -> bool:
    """Does the assignment (model[v-1] is variable v) satisfy every clause?"""
    for clause in clauses:
        if not any(model[abs(lit) - 1] == (lit > 0) for lit in clause):
            return False
    return True


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        )


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    return Graph.from_edges(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        ],
    )
