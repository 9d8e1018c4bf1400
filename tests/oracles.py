"""Independent brute-force oracles used to pin expected values.

Everything here works by exhaustive enumeration (permutations, vertex
subsets, all colorings) and deliberately shares no code with the search
routines it checks.
"""

from __future__ import annotations

from itertools import combinations, count, permutations, product

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


def naive_critical_sets(g: Graph, t: Target) -> list[int]:
    """Minimal masks W such that ``g`` plus a vertex x joined to W holds t,
    by (size, mask), trying every injection of the pattern into g plus x.

    A copy that avoids x gives W = 0. A copy that puts pattern vertex p on
    x maps the other pattern vertices into g, along g's edges, and joins x
    to the images of p's pattern neighbours.
    """
    pat = t.pattern()
    k = pat.n
    if k > g.n + 1:
        return []
    found = {0} if naive_copies(g, t) else set()
    pat_edges = pat.edges()
    for p in range(k):
        others = [a for a in range(k) if a != p]
        inner = [(a, b) for a, b in pat_edges if p not in (a, b)]
        joined = [a + b - p for a, b in pat_edges if p in (a, b)]
        for image in permutations(range(g.n), k - 1):
            at = dict(zip(others, image))
            if all(g.has_edge(at[a], at[b]) for a, b in inner):
                found.add(sum(1 << at[a] for a in joined))
    minimal = [s for s in found if not any(w != s and w & s == w for w in found)]
    return sorted(minimal, key=lambda m: (m.bit_count(), m))


def naive_extensions(g: Graph, t1: Target, t2: Target) -> set[int]:
    """Neighborhood masks S of a new vertex that keep g + vertex (t1,t2)-good.

    Tries all 2^n masks, building the child and its complement edge by edge.
    """
    n = g.n
    found = set()
    for s in range(1 << n):
        child = with_vertex(g, s)
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


def brute_avoiding_colorings(g: Graph, t1: Target, t2: Target) -> int:
    """How many of the 2^E colorings avoid t1 in color 0 and t2 in color 1,
    by a vectorized scan (E must stay modest).

    ``bad`` has one axis per edge, indexed by its color (0 for t1, 1 for
    t2); each copy marks the colorings that give all its edges its color.
    """
    edges = g.edges()
    assert len(edges) <= 22, "oracle limited to small edge counts"
    index = {e: i for i, e in enumerate(edges)}
    bad = np.zeros((2,) * len(edges), dtype=bool)
    for t, color in ((t1, 0), (t2, 1)):
        for cp in naive_copies(g, t):
            at: list = [slice(None)] * len(edges)
            for e in cp:
                at[index[e]] = color
            bad[tuple(at)] = True
    return bad.size - int(np.count_nonzero(bad))


def brute_splittable_2(g: Graph, t1: Target, t2: Target) -> bool:
    return brute_avoiding_colorings(g, t1, t2) > 0


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
    """Does some assignment satisfy every clause?"""
    return brute_models(nvars, clauses).size > 0


def brute_models(nvars: int, clauses) -> np.ndarray:
    """Every assignment that satisfies all clauses, scanning all 2^nvars of
    them at once: bit v-1 of an assignment's index is variable v."""
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
    return states[alive]


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


def relabeled(g: Graph, order) -> Graph:
    """``g`` with the vertex ``order[i]`` renamed i, edge by edge."""
    assert sorted(order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(order)}
    return Graph.from_edges(g.n, [(pos[u], pos[v]) for u, v in g.edges()])


def with_vertex(g: Graph, s: int) -> Graph:
    """``g`` plus a last vertex joined to the vertices in the bitmask ``s``."""
    assert s >> g.n == 0
    return Graph.from_edges(
        g.n + 1, g.edges() + [(v, g.n) for v in range(g.n) if s >> v & 1]
    )


def without_vertex(g: Graph, x: int) -> Graph:
    """``g`` less the vertex x, the vertices after it shifted down by one."""
    return Graph.from_edges(
        g.n - 1, [(u - (u > x), v - (v > x)) for u, v in g.edges() if x not in (u, v)]
    )


def permutes_clauses(clauses, perms) -> bool:
    """Does each variable permutation map the clause set onto itself?

    ``perm[v-1] + 1`` is the image of variable v; a literal keeps its sign.
    Clauses compare as sets of literals: per clause length, the sorted
    literal rows of the images must be the rows of the clauses.
    """
    rows: dict[int, list[list[int]]] = {}
    for clause in {frozenset(clause) for clause in clauses}:
        rows.setdefault(len(clause), []).append(sorted(clause))
    tables = {k: np.unique(np.array(r), axis=0) for k, r in rows.items()}
    for perm in perms:
        n = len(perm)
        if sorted(perm) != list(range(n)):
            return False
        image_of = np.array([0] + [v + 1 for v in perm])
        for table in tables.values():
            if np.abs(table).max() > n:
                return False
            image = np.sign(table) * image_of[np.abs(table)]
            image.sort(axis=1)
            if not np.array_equal(np.unique(image, axis=0), table):
                return False
    return True


def drup_refutes(nvars: int, clauses, proof) -> bool:
    """Forward check of a DRUP proof: does ``proof`` refute the clauses?

    ``proof`` holds DIMACS lines: a lemma ``l1 l2 ... 0`` or a deletion
    ``d l1 l2 ... 0``. Each lemma must follow from the clauses present at
    that point by reverse unit propagation: setting all its literals false
    and propagating the units must end in a conflict. A deletion removes
    one copy of a present clause and must name one. The proof refutes the
    clauses once it reaches the empty lemma. Clauses are sets of literals;
    propagation watches two literals of each longer clause, from scratch
    for every lemma.
    """
    db: dict[int, list[int]] = {}  # clause id -> literals, watched in slots 0 and 1
    ids: dict[frozenset, list[int]] = {}
    units: set[int] = set()
    watches: dict[int, list[int]] = {}
    fresh = count()

    def add(lits: frozenset) -> None:
        if any(-lit in lits for lit in lits):
            return  # a tautology never propagates
        cid = next(fresh)
        db[cid] = list(lits)
        ids.setdefault(lits, []).append(cid)
        if len(lits) == 1:
            units.add(cid)
        else:
            for lit in db[cid][:2]:
                watches.setdefault(lit, []).append(cid)

    def conflicts(assumed) -> bool:
        true: set[int] = set()
        queue: list[int] = []
        for lit in list(assumed) + [db[cid][0] for cid in units]:
            if -lit in true:
                return True
            if lit not in true:
                true.add(lit)
                queue.append(lit)
        for lit in queue:
            false = -lit
            kept: list[int] = []
            hit = False
            for cid in watches.get(false, []):
                c = db.get(cid)
                if c is None:
                    continue  # deleted
                if hit:
                    kept.append(cid)
                    continue
                if c[0] == false:
                    c[0], c[1] = c[1], c[0]
                other = c[0]
                if other in true:
                    kept.append(cid)
                    continue
                for j in range(2, len(c)):
                    if -c[j] not in true:
                        c[1], c[j] = c[j], false
                        watches.setdefault(c[1], []).append(cid)
                        break
                else:
                    kept.append(cid)
                    if -other in true:
                        hit = True
                    else:
                        true.add(other)
                        queue.append(other)
            watches[false] = kept
            if hit:
                return True
        return False

    for clause in clauses:
        add(frozenset(clause))
    for line in proof:
        fields = line.split()
        delete = fields[:1] == ["d"]
        lits = [int(x) for x in fields[delete:]]
        if not lits or lits[-1] != 0 or 0 in lits[:-1]:
            return False
        lemma = frozenset(lits[:-1])
        if any(abs(lit) > nvars for lit in lemma):
            return False
        if delete:
            if not ids.get(lemma):
                return False
            cid = ids[lemma].pop()
            del db[cid]
            units.discard(cid)
            continue
        if not conflicts(-lit for lit in lemma):
            return False
        if not lemma:
            return True
        add(lemma)
    return False
