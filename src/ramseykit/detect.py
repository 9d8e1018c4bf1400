"""Detection and enumeration of forbidden subgraphs inside host graphs.

Containment is always in the subgraph sense (never induced). This is the
only module that knows how each target kind is found. Per kind it holds one
lazy copy generator, which backs :func:`copy_tuples`, :func:`list_copies`
and :func:`contains`;
one closed form for the critical sets of the enumerator's screen
:func:`critical_sets`, read off the role a new vertex plays in a copy; and
one closed form for the number of copies through a present edge {u,v}.
The through-edge forms have one dispatch point,
:func:`count_copies_with_edge`, which evaluates the K_k and J_k forms in
its own body; annealing scores a move with one call to it.
:func:`count_copies` totals a whole graph without building a copy: it
counts K_k as k-cliques and J_k as pairs of common neighbours of a
(k-2)-clique spine, and sums the through-edge forms of the other kinds
over the host's edges, each copy once per edge of the target.
Everything works on neighborhood bitmasks: a clique is grown by
intersecting candidate masks, and the K_k and J_k generators walk the
spines, the (k-2)-cliques with two or more common neighbours: a J_k copy
is a spine plus any two of them, a K_k copy a spine plus an edge of them
above it. The K_k-P3 generator walks the cores, the (k-3)-cliques with
three or more common neighbours: a copy is a core plus an edge of them
and any third one.

It also owns the edge numbering of copies. :func:`copy_tuples` writes each
copy as the sorted tuple of its edges' entries in a per-host
:func:`edge_table`, the tuples in their native order; with the SAT
variables as entries, a tuple is a clause. :func:`list_copies` takes the
entries 2^i and sums each tuple into an edge-index bitmask, bit i meaning
``g.edges()[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .coloring import EdgeColoring, color_class
from .graphs import Graph, complement, iter_bits
from .targets import CLIQUE, CLIQUE_MINUS_EDGE, CLIQUE_MINUS_P3, CYCLE, Target

Edge = tuple[int, int]


@dataclass(frozen=True)
class CopyList:
    """All copies of a target in a host as edge-index bitmasks: bit i of a
    copy means ``edges[i]``, and ``edges`` is the host's sorted ``g.edges()``.
    Copies are in the lexicographic order of their sorted edge tuples, the
    order of :func:`copy_tuples`, from whose tuples they are summed."""

    edges: tuple[Edge, ...]
    copies: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.copies)

    def copy_edges(self, copy: int) -> tuple[Edge, ...]:
        """The sorted edge tuple of one copy."""
        return tuple(self.edges[i] for i in iter_bits(copy))


def count_cliques(adj: Sequence[int], cand: int, k: int) -> int:
    """Number of k-cliques inside the mask ``cand``."""
    if k == 0:
        return 1
    if k == 1:
        return cand.bit_count()
    total = 0
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        total += count_cliques(adj, cand & adj[v], k - 1)
    return total


def _clique_commons(adj: Sequence[int], cand: int, k: int, common: int) -> list[int]:
    """``common`` ∩ N(Q) for each k-clique Q inside ``cand``."""
    if k == 0:
        return [common]
    out = []
    if k == 1:
        while cand:
            low = cand & -cand
            out.append(common & adj[low.bit_length() - 1])
            cand ^= low
        return out
    while cand.bit_count() >= k:
        low = cand & -cand
        v = low.bit_length() - 1
        cand ^= low
        out += _clique_commons(adj, cand & adj[v], k - 1, common & adj[v])
    return out


# Copy generators: every copy exactly once, as the tuple of its edges'
# entries in ``index`` (``index[u][v] == index[v][u]``) in sorted edge
# order. The entries increase along the sorted edge list, so sorting them
# sorts the edges.

Table = Sequence[Sequence[int]]
Copy = tuple[int, ...]


def _clique_copies(adj: Sequence[int], n: int, k: int, index: Table) -> Iterator[Copy]:
    # the spine Q is the copy's k-2 lowest vertices, its top two x < y an
    # edge of N(Q) above Q
    for q, above, _ in _cliques(adj, n, k - 2, 2):
        spine = iter_bits(q)
        inner = [index[a][b] for a, b in combinations(spine, 2)]
        for x in iter_bits(above):
            row = index[x]
            head = inner + [row[v] for v in spine]
            for y in iter_bits(above & adj[x] & ~((2 << x) - 1)):
                copy = head + [index[y][v] for v in spine]
                copy.append(row[y])
                copy.sort()
                yield tuple(copy)


def _cme_copies(adj: Sequence[int], n: int, k: int, index: Table) -> Iterator[Copy]:
    # the spine Q is a (k-2)-clique, the tips any two common neighbours of Q
    for q, _, common in _cliques(adj, n, k - 2, 2):
        spine = iter_bits(q)
        inner = [index[a][b] for a, b in combinations(spine, 2)]
        tips = [[index[x][v] for v in spine] for x in iter_bits(common)]
        for i, tip in enumerate(tips, 1):
            head = inner + tip
            for other in tips[i:]:
                copy = head + other
                copy.sort()
                yield tuple(copy)


def _cmp3_copies(adj: Sequence[int], n: int, k: int, index: Table) -> Iterator[Copy]:
    # the core R is a (k-3)-clique and C = N(R): the path ends are an edge
    # u < v of C and the centre any other w of C; the pairs of the vertex
    # set, in order, are the edges in order
    for r, _, c in _cliques(adj, n, k - 3, 3):
        for u in iter_bits(c):
            for v in iter_bits(c & adj[u] & ~((2 << u) - 1)):
                ends = r | 1 << u | 1 << v
                for w in iter_bits(c & ~ends):
                    found = [index[a][b] for a, b in combinations(iter_bits(ends | 1 << w), 2)]
                    found.remove(index[u][w])
                    found.remove(index[v][w])
                    yield tuple(found)


def _cycle_copies(adj: Sequence[int], n: int, k: int, index: Table) -> Iterator[Copy]:
    for s in range(n):
        allowed = ~((1 << (s + 1)) - 1)  # only vertices above the start
        path = [s]

        def dfs(v: int, visited: int) -> Iterator[Copy]:
            if len(path) == k:
                # close the cycle; dedupe direction via second < last vertex
                if (adj[v] >> s) & 1 and path[1] < path[-1]:
                    yield tuple(sorted(index[a][b] for a, b in zip(path, path[1:] + [s])))
                return
            for u in iter_bits(adj[v] & allowed & ~visited):
                path.append(u)
                yield from dfs(u, visited | (1 << u))
                path.pop()

        yield from dfs(s, 1 << s)


_COPIES = {
    CLIQUE: _clique_copies,
    CLIQUE_MINUS_EDGE: _cme_copies,
    CLIQUE_MINUS_P3: _cmp3_copies,
    CYCLE: _cycle_copies,
}


def contains(g: Graph, t: Target) -> bool:
    """Does ``g`` contain a (not necessarily induced) copy of ``t``?"""
    unnumbered = [[0] * g.n] * g.n  # finding a copy reads no edge numbers
    return next(_COPIES[t.kind](g.adj, g.n, t.k, unnumbered), None) is not None


def count_copies(masks: Sequence[int], n: int, t: Target) -> int:
    """Number of distinct copies of ``t`` in the mask graph on ``n``
    vertices; ``len(list_copies(g, t))`` for ``masks = g.adj``.

    K_k counts its k-cliques. A J_k copy is its spine, a (k-2)-clique Q,
    plus any two common neighbours of Q, so J_k sums C(|N(Q)|, 2) over the
    spines. K_k-P3 and C_k sum the closed forms of
    :func:`count_copies_with_edge` over the graph's edges, which counts
    every copy |E(t)| times. No copy is built.
    """
    if t.kind == CLIQUE:
        return count_cliques(masks, (1 << n) - 1, t.k)
    if t.kind == CLIQUE_MINUS_EDGE:
        total = 0
        for _, _, common in _cliques(masks, n, t.k - 2, 2):
            x = common.bit_count()
            total += x * (x - 1) >> 1
        return total
    total = 0
    for v in range(n):
        for u in iter_bits(masks[v] & ((1 << v) - 1)):
            total += count_copies_with_edge(masks, n, t, u, v)
    return total // t.edge_count


def edge_table(n: int, edges: Sequence[Edge], values: Iterable[int]) -> list[list[int]]:
    """An n x n table holding ``values[i]`` at both ``[u][v]`` and ``[v][u]``
    for ``edges[i] == (u, v)``, and 0 off the edges."""
    table = [[0] * n for _ in range(n)]
    for (u, v), x in zip(edges, values):
        table[u][v] = table[v][u] = x
    return table


def copy_tuples(adj: Sequence[int], n: int, t: Target, table: Table) -> list[Copy]:
    """Every distinct copy of ``t`` in the mask graph as the tuple of its
    edges' entries in ``table`` (see :func:`edge_table`), whose entries
    must increase along the sorted edge list. Each tuple is sorted, and the
    tuples are in increasing order: both orders are those of the copies'
    sorted edge tuples."""
    return sorted(_COPIES[t.kind](adj, n, t.k, table))


def list_copies(g: Graph, t: Target) -> CopyList:
    """Every distinct copy of ``t`` in ``g`` as an edge-index bitmask."""
    edges = tuple(g.edges())
    bits = edge_table(g.n, edges, [1 << i for i in range(len(edges))])
    return CopyList(edges, tuple(map(sum, copy_tuples(g.adj, g.n, t, bits))))


def critical_sets(adj: Sequence[int], n: int, t: Target) -> list[int]:
    """Minimal masks W such that a new vertex x joined to all of W
    completes a copy of ``t``, by (size, mask); ``[0]`` when ``t`` is
    already there. No copy is listed: each kind has one closed form, read
    off the role that x plays in a copy. W is then x's neighbours in the
    copy, and every completing set contains such a W.

    K_k: x is any clique vertex, so W is a (k-1)-clique. These sets have one
    size, so each is minimal. The parent holds K_k when one of them has a
    common neighbour.

    J_k: Q is a (k-3)-clique and C = N(Q). If x is a tip, W = Q + a for an
    a of C above max(Q) with C ∩ N(a) not empty: the (k-2)-cliques with a
    common neighbour, each met once, from Q = W less its top vertex. If x
    is on the spine, W = Q + a + b for two lonely vertices a, b of C:
    C ∩ N(a) = C ∩ N(b) = 0. Tip sets are the smaller, and such a W holds
    only the two (k-2)-cliques Q + a and Q + b (a and b are not adjacent),
    neither with a common neighbour, so it holds no tip set; with one
    neighbour in C, a would make Q + a a tip set inside it. Every other
    (k-3)-clique of W holds a or b but not both, and the rest of W is not
    in its common neighbourhood, so each W is met from one Q only. The
    parent holds J_k when some Q + a has two common neighbours.

    K_k-P3: R is a (k-3)-clique and C = N(R). x is the path centre over
    the core R when C holds an edge (the path ends), or a path end joined
    to R + v for a v of C and another vertex of C as the centre, or a core
    vertex joined to the rest R' of the core, a (k-4)-clique, an edge u-v
    of N(R') as the ends and any third vertex of N(R') as the centre. The
    three families have sizes k-3, k-2 and k-1, and a centre set can lie
    inside an end or core set and an end set inside a core set, so only
    the minimal sets of their union are kept. The parent holds K_k-P3 when
    some C holds an edge and a third vertex.

    C_k: x closes a path on k-1 vertices, so W is the pair of its ends;
    these sets have one size, so each is minimal. The parent holds C_k when
    the ends of such a path have a common neighbour off it.
    """
    if t.order > n + 1:
        return []
    return _CRITICAL[t.kind](adj, n, t.k)


def _cliques(
    adj: Sequence[int], n: int, k: int, least: int = 0
) -> list[tuple[int, int, int]]:
    """(Q, N(Q) above max(Q), N(Q)) for each k-clique Q of the mask graph
    with at least ``least`` common neighbours."""
    full = (1 << n) - 1
    out: list[tuple[int, int, int]] = []
    stack = [(0, full, full, k)]  # d vertices of Q still to pick
    while stack:
        q, cand, common, d = stack.pop()
        if not d:
            out.append((q, cand, common))
            continue
        d -= 1
        while cand.bit_count() > d:
            low = cand & -cand
            row = adj[low.bit_length() - 1]
            cand ^= low
            # each vertex still to pick leaves the common neighbourhood
            if (common & row).bit_count() >= d + least:
                stack.append((q | low, cand & row, common & row, d))
    return out


def _clique_critical(adj: Sequence[int], n: int, k: int) -> list[int]:
    found = []
    for q, _, common in _cliques(adj, n, k - 1):
        if common:
            return [0]
        found.append(q)
    found.sort()
    return found


def _cme_critical(adj: Sequence[int], n: int, k: int) -> list[int]:
    tips = []
    spines = []
    for q, above, common in _cliques(adj, n, k - 3, 2):
        lonely = 0
        for a in iter_bits(common):
            d = common & adj[a]
            if not d:
                lonely |= 1 << a
            elif d & (d - 1):
                return [0]
            elif above >> a & 1:
                tips.append(q | 1 << a)
        rest = lonely
        for a in iter_bits(lonely):
            rest ^= 1 << a
            qa = q | 1 << a
            for b in iter_bits(rest):
                spines.append(qa | 1 << b)
    tips.sort()
    spines.sort()
    return tips + spines


def _cmp3_critical(adj: Sequence[int], n: int, k: int) -> list[int]:
    found = set()
    for r, _, c in _cliques(adj, n, k - 3, 2):
        if any(c & adj[v] for v in iter_bits(c)):
            if c.bit_count() > 2:
                return [0]
            found.add(r)  # x the centre
        elif c & (c - 1):
            found.update(r | 1 << v for v in iter_bits(c))  # x an end
    for r, _, c in _cliques(adj, n, k - 4, 3):  # x in the core
        for u in iter_bits(c):
            for v in iter_bits(c & adj[u] & ~((2 << u) - 1)):
                ends = r | 1 << u | 1 << v
                found.update(ends | 1 << w for w in iter_bits(c & ~ends))
    minimal: list[int] = []
    for w in sorted(found, key=lambda m: (m.bit_count(), m)):
        if not any(m & w == m for m in minimal):
            minimal.append(w)
    return minimal


def _cycle_critical(adj: Sequence[int], n: int, k: int) -> list[int]:
    found = set()

    def walk(s: int, v: int, visited: int, steps: int) -> bool:
        # extend the path s..v by ``steps`` edges; True when the parent holds C_k
        if not steps:
            if s < v:
                if adj[s] & adj[v] & ~visited:
                    return True
                found.add(1 << s | 1 << v)
            return False
        return any(
            walk(s, u, visited | 1 << u, steps - 1) for u in iter_bits(adj[v] & ~visited)
        )

    if any(walk(s, s, 1 << s, k - 2) for s in range(n)):
        return [0]
    return sorted(found)


_CRITICAL = {
    CLIQUE: _clique_critical,
    CLIQUE_MINUS_EDGE: _cme_critical,
    CLIQUE_MINUS_P3: _cmp3_critical,
    CYCLE: _cycle_critical,
}


# Copies through a present edge {u,v}, in closed bitset form. C is the
# common neighborhood of u and v; every form splits the copies by the roles
# u and v play in the pattern and counts each role's completions with
# clique loops inside C. count_copies_with_edge is the one dispatch point.


def count_copies_with_edge(
    masks: Sequence[int], n: int, t: Target, u: int, v: int
) -> int:
    """Copies of ``t`` through the present edge {u,v} of the mask graph.

    K_k: the rest of the clique is a (k-2)-clique of C = N(u) ∩ N(v), for
    K3 a single vertex. J_k: the (k-4)-cliques Q of C are the leaves, each
    with cand = N(Q) ∩ C above Q. u and v on the spine: the rest of the
    spine is Q, and the two tips are any pair of N(Q) ∩ C. One endpoint on
    the spine, the other a tip: the rest of the spine is Q + w for a w of
    cand, and the other tip is any common neighbor of Q + w and the spine
    endpoint except the tip endpoint. J4 has one leaf, Q empty, so its
    count is one loop over C; deeper J_k walk to their leaves on an
    explicit stack. No copy is built.
    """
    kind = t.kind
    if kind == CLIQUE_MINUS_EDGE:
        # nu, nv: N(Q) ∩ N(u) and N(Q) ∩ N(v); x = |N(Q) ∩ C|
        nu, nv = masks[u], masks[v]
        cand = nu & nv
        if not cand:
            return 0
        x = cand.bit_count()
        leaves: list[tuple[int, int, int]] | tuple = ()
        if t.k > 4:
            leaves = []
            stack = [(cand, t.k - 4, nu, nv)]  # d vertices of Q still to pick
            while stack:
                cand, d, nu, nv = stack.pop()
                while cand.bit_count() >= d:
                    low = cand & -cand
                    w = masks[low.bit_length() - 1]
                    cand ^= low
                    if d == 1:
                        leaves.append((cand & w, nu & w, nv & w))
                    else:
                        stack.append((cand & w, d - 1, nu & w, nv & w))
            if not leaves:
                return 0
            cand, nu, nv = leaves.pop()
            x = (nu & nv).bit_count()
        total = 0
        while True:
            total += x * (x - 1) >> 1
            # the other tip is not the tip endpoint: -1 for each endpoint
            while cand:
                low = cand & -cand
                w = masks[low.bit_length() - 1]
                total += (nu & w).bit_count() + (nv & w).bit_count() - 2
                cand ^= low
            if not leaves:
                return total
            cand, nu, nv = leaves.pop()
            x = (nu & nv).bit_count()
    if kind == CLIQUE:
        c = masks[u] & masks[v]
        return c.bit_count() if t.k == 3 else count_cliques(masks, c, t.k - 2)
    if kind == CLIQUE_MINUS_P3:
        return _cmp3_through(masks, t.k, u, v)
    return _cycle_through(masks, t.k, u, v)


def _cmp3_through(masks: Sequence[int], k: int, u: int, v: int) -> int:
    mu, mv = masks[u], masks[v]
    c = mu & mv
    # u-v is the path-ends edge: a (k-3)-clique core R in C, and a centre
    # adjacent to all of R other than u and v
    total = 0
    for q in _clique_commons(masks, c, k - 3, -1):
        total += q.bit_count() - 2
    # one endpoint a path end or the centre, the other a core vertex: the
    # rest of the core is a (k-4)-clique Q in C, and W holds the vertices
    # adjacent to Q and the core endpoint
    bu, bv = 1 << u, 1 << v
    for q in _clique_commons(masks, c, k - 4, -1):
        wu, wv = q & mv, q & mu  # W when v, resp. u, is the core vertex
        # u or v an end: the other end in W ∩ N(that end) = N(Q) ∩ C, the
        # centre anywhere else in W
        total += (q & c).bit_count() * (wu.bit_count() + wv.bit_count() - 4)
        # u or v the centre: the two path ends are any edge of W less it
        total += count_cliques(masks, wu & ~bu, 2) + count_cliques(masks, wv & ~bv, 2)
    # u and v in the core: the rest is a (k-5)-clique in C, the ends are an
    # edge of Z and the centre is any other vertex of Z
    if k >= 5:
        for z in _clique_commons(masks, c, k - 5, c):
            total += count_cliques(masks, z, 2) * (z.bit_count() - 2)
    return total


def _paths(masks: Sequence[int], a: int, b: int, steps: int, seen: int) -> int:
    """Simple a-b paths of ``steps`` edges whose inner vertices avoid ``seen``."""
    if steps == 2:
        return (masks[a] & masks[b] & ~seen).bit_count()
    total = 0
    for w in iter_bits(masks[a] & ~seen):
        total += _paths(masks, w, b, steps - 1, seen | (1 << w))
    return total


def _cycle_through(masks: Sequence[int], k: int, u: int, v: int) -> int:
    # each cycle through u-v is the edge plus one v-u path of k-1 edges
    return _paths(masks, v, u, k - 1, (1 << u) | (1 << v))


def is_good(g: Graph, t1: Target, t2: Target) -> bool:
    """No ``t1`` in ``g`` and no ``t2`` in its complement."""
    return not contains(g, t1) and not contains(complement(g), t2)


@dataclass(frozen=True)
class ColoringVerdict:
    """Outcome of validating a coloring against a target list.

    Validity means what the paper's (G1, ..., Gm)-coloring means: color i
    holds no copy of target i. ``assignment`` is then the identity
    ``(0, ..., m-1)``. On failure, the witness names the first color that
    holds its target and one copy of it there.
    """

    valid: bool
    assignment: tuple[int, ...] | None = None
    witness_color: int | None = None
    witness_edges: tuple[Edge, ...] | None = None

    def __bool__(self) -> bool:
        return self.valid


def coloring_is_valid(c: EdgeColoring, targets: Sequence[Target]) -> ColoringVerdict:
    if len(targets) != c.m:
        raise ValueError(f"{len(targets)} targets for an {c.m}-coloring")
    for i, t in enumerate(targets):
        g = color_class(c, i)
        if contains(g, t):
            found = list_copies(g, t)
            return ColoringVerdict(False, None, i, found.copy_edges(found.copies[0]))
    return ColoringVerdict(True, tuple(range(c.m)))
